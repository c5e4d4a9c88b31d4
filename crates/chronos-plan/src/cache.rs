//! The concurrent plan cache: lock-striped, memoizing, counter-instrumented.
//!
//! A [`PlanCache`] maps [`ProfileKey`]s to solved plans. It is designed for
//! the sharded replay path, where many worker threads look up mostly-equal
//! keys concurrently:
//!
//! * **Lock striping.** Keys are distributed over independently locked
//!   stripes (by a deterministic hash), so lookups of different profiles
//!   rarely contend. Each stripe's lock is held only for the map operation,
//!   never while a plan is being solved.
//! * **Single-flight solves.** Each entry is a [`OnceLock`] slot: the first
//!   thread to request a key inserts the slot and solves into it; any other
//!   thread requesting the same key — even while the solve is still running
//!   — receives the same slot and blocks only on that one entry. A distinct
//!   profile is therefore solved **exactly once** per cache lifetime, which
//!   also makes the hit/miss counters deterministic: misses equal the
//!   number of distinct keys requested, independent of thread scheduling.
//! * **Counters.** Hits and misses accumulate in relaxed atomics and are
//!   exposed as a [`CacheStats`] snapshot; `CacheStats::since` computes
//!   the delta over a measured region (one replay, one batch).
//!
//! The cache stores failed solves too: an infeasible profile is negative —
//! cached, so a trace full of hopeless jobs pays the infeasibility proof
//! once per class instead of once per job.

use crate::key::ProfileKey;
use crate::planner::PlanResult;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A single-flight entry: solved at most once, shared by all requesters.
type Slot = Arc<OnceLock<PlanResult>>;

/// One lock stripe: the entry map for the keys hashed to it.
type Stripe = HashMap<ProfileKey, Slot>;

/// Snapshot of a [`PlanCache`]'s counters.
///
/// Obtained from [`PlanCache::stats`]; two snapshots around a measured
/// region subtract via [`CacheStats::since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found an existing entry (including entries whose solve
    /// was still in flight on another thread).
    pub hits: u64,
    /// Lookups that inserted a new entry: one per distinct profile
    /// requested, plus one per re-request after a [`PlanCache::clear`].
    pub misses: u64,
    /// Always 0: the cache never evicts. Kept only because pinned outputs
    /// (the decision-log digest and the Prometheus golden) include it.
    pub evictions: u64,
    /// Entries resident at snapshot time.
    pub entries: u64,
}

impl CacheStats {
    /// Total lookups (hits + misses).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (`0.0` when there were no
    /// lookups).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Exports the snapshot into a
    /// [`MetricsRegistry`](chronos_obs::MetricsRegistry) under the
    /// `chronos_plan_cache_*` namespace. Totals are worker-count-invariant
    /// for the single-flight cache: each distinct key misses exactly once
    /// no matter which worker took the miss, so the exported registry of a
    /// sharded run needs no further normalization.
    pub fn export_metrics(&self, registry: &mut chronos_obs::MetricsRegistry) {
        registry.counter_add(
            "chronos_plan_cache_hits_total",
            "Plan-cache lookups served from the cache",
            self.hits,
        );
        registry.counter_add(
            "chronos_plan_cache_misses_total",
            "Plan-cache lookups that computed a fresh plan",
            self.misses,
        );
        registry.counter_add(
            "chronos_plan_cache_evictions_total",
            "Plan-cache entries evicted under capacity pressure",
            self.evictions,
        );
        registry.gauge_add(
            "chronos_plan_cache_entries",
            "Plan-cache entries resident at snapshot time",
            i64::try_from(self.entries).unwrap_or(i64::MAX),
        );
    }

    /// The counter deltas accumulated since `earlier` was snapshotted.
    /// `entries` is not a counter and keeps this snapshot's value.
    ///
    /// # Contract
    ///
    /// `earlier` must be an **earlier snapshot of the same cache**. The
    /// monotone counters (`hits`, `misses`) never decrease over a cache's
    /// lifetime — [`PlanCache::clear`] deliberately preserves them exactly
    /// so that a snapshot taken before a `clear` stays a valid `earlier`
    /// afterwards — so a componentwise-greater
    /// `earlier` can only mean the arguments were swapped or the snapshots
    /// come from two different caches. Debug builds reject that with a
    /// panic; release builds saturate each delta to zero rather than
    /// underflow.
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        debug_assert!(
            earlier.hits <= self.hits && earlier.misses <= self.misses,
            "CacheStats::since: `earlier` ({earlier:?}) is not componentwise <= `self` \
             ({self:?}); snapshots must come from the same cache, oldest passed as `earlier`"
        );
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: 0,
            entries: self.entries,
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.2}% hit rate), {} entries, {} evictions",
            self.hits,
            self.misses,
            100.0 * self.hit_rate(),
            self.entries,
            self.evictions
        )
    }
}

/// The sharded, lock-striped concurrent plan cache. See the [module
/// docs](self) for the concurrency and determinism contract.
///
/// # Examples
///
/// ```
/// use chronos_plan::prelude::*;
///
/// let cache = PlanCache::new();
/// assert!(cache.is_empty());
/// assert_eq!(cache.stats().lookups(), 0);
/// ```
#[derive(Debug)]
pub struct PlanCache {
    stripes: Vec<Mutex<Stripe>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Stripe count of [`PlanCache::new`]: enough that a worker pool of
    /// typical width rarely contends on one stripe lock.
    pub const DEFAULT_STRIPES: usize = 16;

    /// A cache with [`PlanCache::DEFAULT_STRIPES`] stripes.
    #[must_use]
    pub fn new() -> Self {
        PlanCache::with_stripes(Self::DEFAULT_STRIPES)
    }

    /// A cache with an explicit stripe count (clamped to ≥ 1).
    #[must_use]
    pub fn with_stripes(stripes: usize) -> Self {
        let stripes = stripes.max(1);
        PlanCache {
            stripes: (0..stripes)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Wraps the cache for sharing across planners and worker threads.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(PlanCache::new())
    }

    fn stripe_of(&self, key: &ProfileKey) -> &Mutex<Stripe> {
        // DefaultHasher with default keys is deterministic, so the stripe
        // layout does not change from run to run.
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let index = (hasher.finish() % self.stripes.len() as u64) as usize;
        &self.stripes[index]
    }

    /// Records `count` requests that were served by a batch's in-flight
    /// deduplication without reaching the map: from the caller's point of
    /// view those are cache hits (no solve was paid), and counting them
    /// keeps `stats().lookups()` equal to the number of requests planned.
    pub(crate) fn note_deduplicated_hits(&self, count: u64) {
        self.hits.fetch_add(count, Ordering::Relaxed);
    }

    /// Returns the memoized result for `key`, solving it with `compute` on
    /// the first request. Concurrent requests for the same key block on the
    /// in-flight solve instead of re-solving (see the module docs).
    pub fn get_or_compute<F>(&self, key: ProfileKey, compute: F) -> PlanResult
    where
        F: FnOnce() -> PlanResult,
    {
        let slot = {
            let mut stripe = self
                .stripe_of(&key)
                .lock()
                .expect("plan cache stripe poisoned");
            if let Some(slot) = stripe.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(slot)
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let slot: Slot = Arc::new(OnceLock::new());
                stripe.insert(key, Arc::clone(&slot));
                slot
            }
        };
        slot.get_or_init(compute).clone()
    }

    /// The already-memoized result for `key`, if any (never solves; an
    /// in-flight entry reads as absent). Does not touch the hit/miss
    /// counters — this is an inspection API, not a lookup.
    #[must_use]
    pub fn peek(&self, key: &ProfileKey) -> Option<PlanResult> {
        let stripe = self
            .stripe_of(key)
            .lock()
            .expect("plan cache stripe poisoned");
        stripe.get(key).and_then(|slot| slot.get().cloned())
    }

    /// Number of resident entries (including in-flight ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|stripe| stripe.lock().expect("plan cache stripe poisoned").len())
            .sum()
    }

    /// True when no entry is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry. Counters are preserved — they are lifetime
    /// totals, which keeps every previously taken [`CacheStats`] snapshot
    /// a valid `earlier` argument to [`CacheStats::since`] even across a
    /// clear (resetting them here would make such deltas silently
    /// saturate to zero).
    pub fn clear(&self) {
        for stripe in &self.stripes {
            stripe.lock().expect("plan cache stripe poisoned").clear();
        }
    }

    /// Snapshot of the counters and the resident entry count.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: 0,
            entries: self.len() as u64,
        }
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Plan;
    use chronos_core::{JobProfile, OptimizerConfig, StrategyParams, UtilityModel};
    use chronos_core::{OptimizationOutcome, StrategyKind};

    fn key(deadline: f64) -> ProfileKey {
        let job = JobProfile::builder().deadline(deadline).build().unwrap();
        ProfileKey::new(
            &job,
            &StrategyParams::clone_strategy(40.0),
            &UtilityModel::default(),
            &OptimizerConfig::default(),
        )
    }

    fn plan(r: u32) -> PlanResult {
        Ok(Plan {
            outcome: OptimizationOutcome {
                strategy: StrategyKind::Clone,
                r,
                utility: -0.1,
                pocd: 0.9,
                machine_time: 100.0,
                dollar_cost: 100.0,
            },
            baseline_pocd: 0.5,
            baseline_machine_time: 80.0,
            baseline_dollar_cost: 80.0,
        })
    }

    #[test]
    fn memoizes_and_counts() {
        let cache = PlanCache::new();
        let mut solves = 0;
        for _ in 0..3 {
            let result = cache.get_or_compute(key(100.0), || {
                solves += 1;
                plan(2)
            });
            assert_eq!(result.unwrap().outcome.r, 2);
        }
        assert_eq!(solves, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
        assert_eq!(stats.lookups(), 3);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_do_not_share_entries() {
        let cache = PlanCache::new();
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        cache.get_or_compute(key(120.0), || plan(7)).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.peek(&key(120.0)).unwrap().unwrap().outcome.r, 7);
        assert_eq!(cache.peek(&key(100.0)).unwrap().unwrap().outcome.r, 1);
        assert!(cache.peek(&key(140.0)).is_none());
    }

    #[test]
    fn errors_are_negative_cached() {
        let cache = PlanCache::new();
        let mut solves = 0;
        for _ in 0..2 {
            let result = cache.get_or_compute(key(100.0), || {
                solves += 1;
                Err(chronos_core::ChronosError::infeasible("hopeless"))
            });
            assert!(result.is_err());
        }
        assert_eq!(solves, 1);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn clear_keeps_lifetime_counters() {
        let cache = PlanCache::new();
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
        // A re-request is a fresh miss.
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn stats_delta_and_display() {
        let cache = PlanCache::new();
        let before = cache.stats();
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        let delta = cache.stats().since(&before);
        assert_eq!((delta.hits, delta.misses, delta.entries), (1, 1, 1));
        let text = delta.to_string();
        assert!(text.contains("1 hits"), "{text}");
        assert!(text.contains("50.00% hit rate"), "{text}");
    }

    #[test]
    fn snapshots_taken_before_clear_stay_valid_for_since() {
        let cache = PlanCache::new();
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        let before = cache.stats();
        assert_eq!((before.hits, before.misses, before.entries), (1, 1, 1));

        // clear() drops the entries but preserves the counters, so the
        // pre-clear snapshot still subtracts correctly afterwards.
        cache.clear();
        assert!(cache.is_empty());
        cache.get_or_compute(key(100.0), || plan(2)).unwrap(); // re-solved: miss
        cache.get_or_compute(key(120.0), || plan(3)).unwrap(); // new key: miss
        let delta = cache.stats().since(&before);
        assert_eq!((delta.hits, delta.misses, delta.entries), (0, 2, 2));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "componentwise")]
    fn since_rejects_a_backwards_snapshot_in_debug() {
        let cache = PlanCache::new();
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        let later = cache.stats();
        // Swapped arguments: `earlier` has more misses than `self`.
        let _ = CacheStats::default().since(&later);
    }

    #[test]
    fn concurrent_same_key_solves_once() {
        let cache = Arc::new(PlanCache::new());
        let solves = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let result = cache.get_or_compute(key(100.0), || {
                        solves.fetch_add(1, Ordering::Relaxed);
                        plan(3)
                    });
                    assert_eq!(result.unwrap().outcome.r, 3);
                });
            }
        });
        assert_eq!(solves.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }
}
