//! Sharded multi-threaded execution of independent-job workloads.
//!
//! The Chronos evaluation validates its closed forms against trace-driven
//! simulations; pushing those to multi-million-job traces needs more than
//! one core, but must not give up the bit-for-bit reproducibility the test
//! pyramid is built on. This module threads that needle by making the
//! *partitioning* part of the experiment definition and the *thread pool* a
//! pure wall-clock optimization:
//!
//! # The determinism contract
//!
//! 1. **Shards are the unit of randomness.** A workload is split into
//!    `N = SimConfig::sharding.resolved_shards()` shards (or one shard per
//!    chunk when streaming). Shard `i` runs an ordinary [`Simulation`] whose
//!    seed is [`shard_seed`]`(config.seed, i)` — a splitmix64 mix of the
//!    base seed and the shard index. Because the mix's finalizer is a
//!    bijection on `u64`, distinct shard indices can never collide for a
//!    fixed base seed, so shards draw from provably disjoint deterministic
//!    RNG streams.
//! 2. **Workers are invisible.** Worker threads pull shard indices from a
//!    shared queue, so which thread runs which shard (and in what order) is
//!    scheduling-dependent — but shard inputs, seeds and simulations do not
//!    depend on the worker, and per-shard reports are merged **in shard
//!    index order** after all workers finish. Together with
//!    [`SimulationReport::merge`] being associative and commutative, the
//!    merged report is bit-identical for 1, 2 or 64 workers.
//! 3. **Changing the shard count is a different experiment.** Re-sharding
//!    re-partitions jobs over different RNG streams, so reports for
//!    different shard counts legitimately differ — exactly like changing
//!    the seed. Reproducibility is per `(workload, seed, shard count)`.
//!
//! # Example
//!
//! ```
//! use chronos_sim::prelude::*;
//!
//! # fn main() -> Result<(), SimError> {
//! let config = SimConfig::default().with_sharding(ShardSpec::new(4, 2));
//! let runner = ShardedRunner::new(config)?;
//! let jobs: Vec<JobSpec> = (0..100)
//!     .map(|i| JobSpec::new(JobId::new(i), SimTime::from_secs(i as f64), 300.0, 4))
//!     .collect();
//! let report = runner.run(jobs, |_shard| Box::new(NoSpeculation))?;
//! assert_eq!(report.job_count(), 100);
//! # Ok(())
//! # }
//! ```

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::error::SimError;
use crate::job::JobSpec;
use crate::metrics::SimulationReport;
use crate::policy::SpeculationPolicy;
use chronos_obs::{DecisionTrace, TraceEvent};
use chronos_plan::{CacheStats, PlanCache};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The splitmix64 output mix (Steele, Lea & Flood; the same finalizer the
/// reference `SplitMix64` generator applies to its counter). A bijection on
/// `u64` with strong avalanche behaviour, which is what makes the per-shard
/// seed derivation collision-free.
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG seed of shard `shard` from the workload's base seed.
///
/// Defined as `splitmix64(base ^ splitmix64(shard))`: the inner mix spreads
/// consecutive shard indices across the whole `u64` space before they touch
/// the base seed, and the outer mix decorrelates the result from `base`.
/// For a fixed `base` the map `shard ↦ seed` is injective (both mixes are
/// bijections and XOR by a constant is a bijection), so two shards of one
/// run can never share a seed.
#[must_use]
pub fn shard_seed(base: u64, shard: u64) -> u64 {
    splitmix64(base ^ splitmix64(shard))
}

/// Error of a fallible chunked replay ([`ShardedRunner::run_chunked_fallible`]):
/// either the chunk *source* failed (a trace file stopped parsing, a
/// generator hit an invalid configuration) or the *simulation* of a shard
/// did. Source errors take precedence — once the source fails, any report
/// assembled from the prefix is discarded, so a truncated trace can never
/// masquerade as a completed replay.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError<E> {
    /// The chunk source yielded an error instead of a chunk.
    Source(E),
    /// A shard simulation (or the report merge) failed.
    Sim(SimError),
}

impl<E: std::fmt::Display> std::fmt::Display for ReplayError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Source(err) => write!(f, "chunk source error: {err}"),
            ReplayError::Sim(err) => write!(f, "{err}"),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for ReplayError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Source(err) => Some(err),
            ReplayError::Sim(err) => Some(err),
        }
    }
}

/// Builds the policy instance for one shard. Each shard needs its own
/// instance because policies are stateful (`&mut self` callbacks); the
/// factory receives the shard index so heterogeneous-per-shard setups are
/// possible, though most callers ignore it.
pub type PolicyFactory<'a> = dyn Fn(u64) -> Box<dyn SpeculationPolicy> + Sync + 'a;

/// Runs a workload of independent jobs as per-shard [`Simulation`]s across a
/// fixed pool of worker threads, merging the per-shard reports into one
/// aggregate [`SimulationReport`].
///
/// See the [module docs](self) for the determinism contract. The shard and
/// worker counts come from [`SimConfig::sharding`].
#[derive(Debug, Clone)]
pub struct ShardedRunner {
    config: SimConfig,
}

impl ShardedRunner {
    /// Creates a runner for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the configuration fails
    /// validation.
    pub fn new(config: SimConfig) -> Result<Self, SimError> {
        config.validate()?;
        Ok(ShardedRunner { config })
    }

    /// The configuration shards run under (per-shard seeds are derived from
    /// its `seed`; its `sharding` decides the layout).
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Partitions `jobs` round-robin over the configured shard count and
    /// runs them to completion.
    ///
    /// Round-robin (job `i` goes to shard `i % shards`) keeps arrival-time
    /// ordering roughly balanced across shards for the common case of
    /// arrival-sorted workloads. The partition depends only on the job
    /// order and the shard count, never on the worker count.
    ///
    /// # Errors
    ///
    /// Propagates the first per-shard error in shard-index order
    /// (deterministic even when several shards fail), or a
    /// [`SimError::MergeConflict`] when two shards report the same job id
    /// (possible only if the input contained duplicates).
    pub fn run<F>(&self, jobs: Vec<JobSpec>, build_policy: F) -> Result<SimulationReport, SimError>
    where
        F: Fn(u64) -> Box<dyn SpeculationPolicy> + Sync,
    {
        let shards = self.config.sharding.resolved_shards() as usize;
        let mut partitions: Vec<Vec<JobSpec>> = Vec::with_capacity(shards);
        for _ in 0..shards {
            partitions.push(Vec::new());
        }
        for (index, job) in jobs.into_iter().enumerate() {
            partitions[index % shards].push(job);
        }
        // The shard count is known here, so the worker count can honour
        // ShardSpec's documented clamp (extra threads would only idle).
        let workers = self.config.sharding.resolved_workers() as usize;
        self.run_chunks_with(workers, partitions, &build_policy)
    }

    /// Runs a workload delivered as chunks, one shard per chunk.
    ///
    /// This is the streaming entry point: the iterator is pulled lazily
    /// (under a lock, so chunk `k` is always the iterator's `k`-th yield no
    /// matter which worker pulls it), which lets generators like
    /// `chronos-trace`'s chunked workload stream produce million-job traces
    /// without ever materializing the whole spec list. The configured shard
    /// count is ignored — the chunk structure *is* the shard structure —
    /// and the worker count is therefore taken unclamped
    /// ([`crate::config::ShardSpec::requested_workers`]): a 64-chunk stream
    /// under a `ShardSpec::new(2, 8)` config still runs on 8 threads.
    /// Workers beyond the actual chunk count simply find the queue empty
    /// and exit.
    ///
    /// # Errors
    ///
    /// Propagates the first per-shard error in shard-index order, or a
    /// [`SimError::MergeConflict`] on duplicate job ids across chunks.
    pub fn run_chunked<I, F>(
        &self,
        chunks: I,
        build_policy: F,
    ) -> Result<SimulationReport, SimError>
    where
        I: IntoIterator<Item = Vec<JobSpec>>,
        I::IntoIter: Send,
        F: Fn(u64) -> Box<dyn SpeculationPolicy> + Sync,
    {
        let workers = self.config.sharding.requested_workers() as usize;
        self.run_chunks_with(workers, chunks, &build_policy)
    }

    /// The planner-backed variant of [`ShardedRunner::run_chunked`]: every
    /// shard's policy is built around one shared `chronos-plan`
    /// [`PlanCache`], so a job profile solved by any shard is a cache hit
    /// in every other shard — across the whole replay, each distinct
    /// profile pays the closed-form optimization exactly once.
    ///
    /// The factory receives the shard index and a handle to the shared
    /// cache (clone it into the policy). Returns the merged report together
    /// with the [`CacheStats`] delta accumulated by this run; the report
    /// itself is **bit-identical** to the unplanned path — memoization only
    /// changes where the time goes, never a decision.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedRunner::run_chunked`].
    pub fn run_chunked_planned<I, F>(
        &self,
        cache: &Arc<PlanCache>,
        chunks: I,
        build_policy: F,
    ) -> Result<(SimulationReport, CacheStats), SimError>
    where
        I: IntoIterator<Item = Vec<JobSpec>>,
        I::IntoIter: Send,
        F: Fn(u64, Arc<PlanCache>) -> Box<dyn SpeculationPolicy> + Sync,
    {
        let before = cache.stats();
        let report = self.run_chunked(chunks, |shard| build_policy(shard, Arc::clone(cache)))?;
        Ok((report, cache.stats().since(&before)))
    }

    /// The observed variant of [`ShardedRunner::run_chunked`]: every shard
    /// records a [`DecisionTrace`] (bounded to `trace_capacity` records
    /// per shard, `None` = unbounded), and the per-shard traces are merged
    /// in **shard-index order** — exactly like the reports — so the
    /// returned trace, its rendered decision log and its digest are
    /// bit-identical no matter how many worker threads ran the shards.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedRunner::run_chunked`].
    pub fn run_chunked_observed<I, F>(
        &self,
        chunks: I,
        build_policy: F,
        trace_capacity: Option<usize>,
    ) -> Result<(SimulationReport, DecisionTrace), SimError>
    where
        I: IntoIterator<Item = Vec<JobSpec>>,
        I::IntoIter: Send,
        F: Fn(u64) -> Box<dyn SpeculationPolicy> + Sync,
    {
        let workers = self.config.sharding.requested_workers() as usize;
        let (report, trace) =
            self.run_chunks_observed_with(workers, chunks, &build_policy, Some(trace_capacity))?;
        Ok((report, trace.unwrap_or_default()))
    }

    /// The observed variant of
    /// [`ShardedRunner::run_chunked_fallible_planned`]: shared plan cache,
    /// cache-stats delta *and* merged decision trace, with an aggregate
    /// [`TraceEvent::PlanCacheReport`] appended. The cache totals are
    /// worker-count-invariant for the single-flight cache (each distinct
    /// profile misses exactly once), so the appended event — like the rest
    /// of the trace — keeps the digest invariant.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedRunner::run_chunked_fallible`].
    pub fn run_chunked_fallible_planned_observed<I, E, F>(
        &self,
        cache: &Arc<PlanCache>,
        chunks: I,
        build_policy: F,
        trace_capacity: Option<usize>,
    ) -> Result<(SimulationReport, CacheStats, DecisionTrace), ReplayError<E>>
    where
        I: IntoIterator<Item = Result<Vec<JobSpec>, E>>,
        I::IntoIter: Send,
        E: Send,
        F: Fn(u64, Arc<PlanCache>) -> Box<dyn SpeculationPolicy> + Sync,
    {
        let before = cache.stats();
        let (report, trace) = self.run_fallible_with(
            chunks,
            &|shard| build_policy(shard, Arc::clone(cache)),
            Some(trace_capacity),
        )?;
        let mut trace = trace.unwrap_or_default();
        let stats = cache.stats().since(&before);
        trace.record(
            report.ended_at.as_micros(),
            TraceEvent::PlanCacheReport {
                hits: stats.hits,
                misses: stats.misses,
                evictions: stats.evictions,
                entries: stats.entries,
            },
        );
        Ok((report, stats, trace))
    }

    /// The planner-backed variant of
    /// [`ShardedRunner::run_chunked_fallible`]; see
    /// [`ShardedRunner::run_chunked_planned`] for the cache contract.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedRunner::run_chunked_fallible`].
    pub fn run_chunked_fallible_planned<I, E, F>(
        &self,
        cache: &Arc<PlanCache>,
        chunks: I,
        build_policy: F,
    ) -> Result<(SimulationReport, CacheStats), ReplayError<E>>
    where
        I: IntoIterator<Item = Result<Vec<JobSpec>, E>>,
        I::IntoIter: Send,
        E: Send,
        F: Fn(u64, Arc<PlanCache>) -> Box<dyn SpeculationPolicy> + Sync,
    {
        let before = cache.stats();
        let report =
            self.run_chunked_fallible(chunks, |shard| build_policy(shard, Arc::clone(cache)))?;
        Ok((report, cache.stats().since(&before)))
    }

    /// Runs a workload delivered as *fallible* chunks — the trace-replay
    /// entry point, fed by sources that can fail mid-stream, like
    /// `chronos-trace`'s file-backed `TraceStream`.
    ///
    /// Chunk-to-shard mapping, worker semantics and determinism are those
    /// of [`ShardedRunner::run_chunked`]. When the source yields `Err`, the
    /// stream ends there: workers stop pulling, shards already running
    /// finish, and the call returns [`ReplayError::Source`] — the partial
    /// report of the parsed prefix is discarded, never returned. A source
    /// that errors on its very first pull therefore costs no simulation
    /// work beyond the chunks pulled before the failure.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Source`] with the source's first error (it takes
    /// precedence over any simulation error), or [`ReplayError::Sim`]
    /// carrying the same failures [`ShardedRunner::run_chunked`] produces.
    pub fn run_chunked_fallible<I, E, F>(
        &self,
        chunks: I,
        build_policy: F,
    ) -> Result<SimulationReport, ReplayError<E>>
    where
        I: IntoIterator<Item = Result<Vec<JobSpec>, E>>,
        I::IntoIter: Send,
        E: Send,
        F: Fn(u64) -> Box<dyn SpeculationPolicy> + Sync,
    {
        self.run_fallible_with(chunks, &build_policy, None)
            .map(|(report, _)| report)
    }

    /// Shared core of the fallible entry points: adapts the fallible
    /// source for [`ShardedRunner::run_chunks_observed_with`] (whose
    /// `trace` argument it forwards) and gives a source error precedence
    /// over any simulation error.
    fn run_fallible_with<I, E, F>(
        &self,
        chunks: I,
        build_policy: &F,
        trace: Option<Option<usize>>,
    ) -> Result<(SimulationReport, Option<DecisionTrace>), ReplayError<E>>
    where
        I: IntoIterator<Item = Result<Vec<JobSpec>, E>>,
        I::IntoIter: Send,
        E: Send,
        F: Fn(u64) -> Box<dyn SpeculationPolicy> + Sync,
    {
        let source_error: Mutex<Option<E>> = Mutex::new(None);
        let adapter = FallibleChunks {
            inner: chunks.into_iter(),
            slot: &source_error,
            done: false,
        };
        let workers = self.config.sharding.requested_workers() as usize;
        let outcome = self.run_chunks_observed_with(workers, adapter, build_policy, trace);
        if let Some(err) = source_error
            .into_inner()
            .expect("source error lock poisoned")
        {
            return Err(ReplayError::Source(err));
        }
        outcome.map_err(ReplayError::Sim)
    }

    /// Shared worker-pool core of [`ShardedRunner::run`] (which clamps
    /// `workers` to its known shard count) and
    /// [`ShardedRunner::run_chunked`] (which cannot, the chunk count being
    /// unknown for a lazy iterator).
    fn run_chunks_with<I, F>(
        &self,
        workers: usize,
        chunks: I,
        build_policy: &F,
    ) -> Result<SimulationReport, SimError>
    where
        I: IntoIterator<Item = Vec<JobSpec>>,
        I::IntoIter: Send,
        F: Fn(u64) -> Box<dyn SpeculationPolicy> + Sync,
    {
        self.run_chunks_observed_with(workers, chunks, build_policy, None)
            .map(|(report, _)| report)
    }

    /// [`ShardedRunner::run_chunks_with`] plus optional per-shard decision
    /// tracing. `trace` is `None` to leave recording off (the engine's
    /// zero-cost default) or `Some(capacity)` to record with the given
    /// per-shard ring bound. Traces are folded in the same sorted
    /// shard-index order as the reports, so the merged trace inherits the
    /// reports' worker-count invariance.
    fn run_chunks_observed_with<I, F>(
        &self,
        workers: usize,
        chunks: I,
        build_policy: &F,
        trace: Option<Option<usize>>,
    ) -> Result<(SimulationReport, Option<DecisionTrace>), SimError>
    where
        I: IntoIterator<Item = Vec<JobSpec>>,
        I::IntoIter: Send,
        F: Fn(u64) -> Box<dyn SpeculationPolicy> + Sync,
    {
        type ShardOutcome = Result<(SimulationReport, Option<DecisionTrace>), SimError>;
        let queue = Mutex::new(chunks.into_iter().enumerate());
        let results: Mutex<Vec<(usize, ShardOutcome)>> = Mutex::new(Vec::new());
        // Once any shard fails, stop pulling new chunks: a million-job run
        // should not simulate 63 healthy shards to report shard 0's invalid
        // spec. Shards already running finish normally, which keeps error
        // selection deterministic (see below).
        let abort = AtomicBool::new(false);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while !abort.load(Ordering::Relaxed) {
                        // Hold the queue lock only for the pull: chunk k is
                        // the iterator's k-th yield regardless of the
                        // pulling worker.
                        let next = queue.lock().expect("queue lock poisoned").next();
                        let Some((index, jobs)) = next else {
                            break;
                        };
                        let outcome = self.run_shard(index as u64, jobs, build_policy, trace);
                        if outcome.is_err() {
                            abort.store(true, Ordering::Relaxed);
                        }
                        results
                            .lock()
                            .expect("result lock poisoned")
                            .push((index, outcome));
                    }
                });
            }
        });

        let mut outcomes = results.into_inner().expect("result lock poisoned");
        // Shard-index order makes error selection deterministic even with
        // the abort flag: chunks are pulled in index order, so every shard
        // with an index at or below the first *finishing* failure was
        // already pulled and runs to completion — the lowest-index error
        // therefore always reaches this sort, while skipped shards all have
        // strictly larger indices. The merge would be order-insensitive
        // anyway; sorted folding keeps failures reproducible too.
        outcomes.sort_by_key(|(index, _)| *index);
        let mut aggregate = SimulationReport::default();
        let mut merged_trace = trace.map(|capacity| match capacity {
            Some(capacity) => DecisionTrace::bounded(capacity),
            None => DecisionTrace::new(),
        });
        for (index, outcome) in outcomes {
            let (report, shard_trace) =
                outcome.map_err(|err| err.with_context(format_args!("shard {index}")))?;
            aggregate
                .merge(report)
                .map_err(|err| err.with_context(format_args!("merging shard {index}")))?;
            if let (Some(merged), Some(shard_trace)) = (merged_trace.as_mut(), shard_trace) {
                merged.merge(shard_trace);
            }
        }
        Ok((aggregate, merged_trace))
    }

    /// Runs one shard: an ordinary simulation under the shared config with
    /// the shard's derived seed, optionally recording a decision trace.
    fn run_shard(
        &self,
        shard: u64,
        jobs: Vec<JobSpec>,
        build_policy: &PolicyFactory<'_>,
        trace: Option<Option<usize>>,
    ) -> Result<(SimulationReport, Option<DecisionTrace>), SimError> {
        let mut config = self.config.clone();
        config.seed = shard_seed(self.config.seed, shard);
        let mut sim = Simulation::new(config, build_policy(shard))?;
        if let Some(capacity) = trace {
            sim.enable_decision_trace(capacity);
        }
        sim.submit_all(jobs)?;
        let report = sim.run()?;
        Ok((report, sim.take_decision_trace()))
    }
}

/// Adapter that feeds a fallible chunk source into the infallible
/// worker-pool core: the first `Err` ends the stream (workers see a plain
/// end-of-queue, stop pulling, and drain) and is parked in `slot` for
/// [`ShardedRunner::run_chunked_fallible`] to surface once the pool joins.
struct FallibleChunks<'a, I, E> {
    inner: I,
    slot: &'a Mutex<Option<E>>,
    /// Set on the first `Err` so a non-fused source is never polled again.
    done: bool,
}

impl<I, E> Iterator for FallibleChunks<'_, I, E>
where
    I: Iterator<Item = Result<Vec<JobSpec>, E>>,
{
    type Item = Vec<JobSpec>;

    fn next(&mut self) -> Option<Vec<JobSpec>> {
        if self.done {
            return None;
        }
        match self.inner.next() {
            Some(Ok(chunk)) => Some(chunk),
            Some(Err(err)) => {
                self.done = true;
                let mut slot = self.slot.lock().expect("source error lock poisoned");
                // Keep the first error: the queue lock serializes pulls, so
                // this branch runs at most once anyway, but belt and braces.
                slot.get_or_insert(err);
                None
            }
            None => {
                self.done = true;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterSpec, EstimatorKind, JvmModel, ShardSpec};
    use crate::ids::JobId;
    use crate::policy::NoSpeculation;
    use crate::time::SimTime;
    use chronos_core::Pareto;
    use chronos_obs::TraceRecord;
    use std::sync::atomic::AtomicUsize;

    fn config(seed: u64, shards: u32, workers: u32) -> SimConfig {
        SimConfig {
            cluster: ClusterSpec::homogeneous(8, 2),
            jvm: JvmModel::disabled(),
            estimator: EstimatorKind::ChronosJvmAware,
            progress_report_interval_secs: 1.0,
            seed,
            max_events: 0,
            sharding: ShardSpec::new(shards, workers),
        }
    }

    fn jobs(count: u64) -> Vec<JobSpec> {
        (0..count)
            .map(|i| {
                JobSpec::new(JobId::new(i), SimTime::from_secs(i as f64 * 2.0), 400.0, 3)
                    .with_profile(Pareto::new(10.0, 1.5).unwrap())
            })
            .collect()
    }

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // Reference outputs of the SplitMix64 generator seeded with 0 and
        // 1234567 (first outputs of the Vigna reference implementation).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1_234_567), 0x599E_D017_FB08_FC85);
    }

    #[test]
    fn shard_seeds_differ_from_base_and_each_other() {
        let base = 42;
        let s0 = shard_seed(base, 0);
        let s1 = shard_seed(base, 1);
        assert_ne!(s0, s1);
        assert_ne!(s0, base);
        // Different base seeds move every shard's seed.
        assert_ne!(shard_seed(43, 0), s0);
    }

    #[test]
    fn runner_covers_all_jobs_exactly_once() {
        let runner = ShardedRunner::new(config(7, 4, 2)).unwrap();
        let report = runner.run(jobs(30), |_| Box::new(NoSpeculation)).unwrap();
        assert_eq!(report.job_count(), 30);
        assert_eq!(report.latency.total(), 30);
        let ids: Vec<u64> = report.jobs.keys().map(|id| id.raw()).collect();
        assert_eq!(ids, (0..30).collect::<Vec<u64>>());
        assert!(report.unfinished_fraction() < 1e-12);
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let run = |workers| {
            ShardedRunner::new(config(11, 6, workers))
                .unwrap()
                .run(jobs(24), |_| Box::new(NoSpeculation))
                .unwrap()
        };
        let serial = run(1);
        let parallel = run(6);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn shard_count_is_part_of_the_experiment() {
        let run = |shards| {
            ShardedRunner::new(config(11, shards, 2))
                .unwrap()
                .run(jobs(24), |_| Box::new(NoSpeculation))
                .unwrap()
        };
        // Different shard counts = different RNG streams = different draws.
        assert_ne!(run(2), run(3));
    }

    #[test]
    fn single_shard_matches_plain_simulation_with_derived_seed() {
        let runner = ShardedRunner::new(config(5, 1, 1)).unwrap();
        let sharded = runner.run(jobs(10), |_| Box::new(NoSpeculation)).unwrap();

        let mut plain_config = config(5, 1, 1);
        plain_config.seed = shard_seed(5, 0);
        let mut sim = Simulation::new(plain_config, Box::new(NoSpeculation)).unwrap();
        sim.submit_all(jobs(10)).unwrap();
        let plain = sim.run().unwrap();
        assert_eq!(sharded, plain);
    }

    #[test]
    fn chunked_and_round_robin_differ_only_in_partitioning() {
        // Same jobs fed as explicit chunks matching the round-robin layout
        // must give the same report as `run`.
        let runner = ShardedRunner::new(config(9, 3, 2)).unwrap();
        let via_run = runner.run(jobs(12), |_| Box::new(NoSpeculation)).unwrap();

        let mut chunks = vec![Vec::new(), Vec::new(), Vec::new()];
        for (index, job) in jobs(12).into_iter().enumerate() {
            chunks[index % 3].push(job);
        }
        let via_chunks = runner
            .run_chunked(chunks, |_| Box::new(NoSpeculation))
            .unwrap();
        assert_eq!(via_run, via_chunks);
    }

    #[test]
    fn shard_errors_are_deterministic_and_contextualized() {
        // Job indices 0 and 1 round-robin onto shards 0 and 1; giving them
        // the same id puts the duplicate in *different* shards, so each
        // shard runs cleanly and the conflict only surfaces at the merge.
        let runner = ShardedRunner::new(config(3, 2, 2)).unwrap();
        let mut workload = jobs(4);
        workload[1].id = JobId::new(0);
        let err = runner
            .run(workload, |_| Box::new(NoSpeculation))
            .unwrap_err();
        assert!(matches!(err, SimError::MergeConflict { .. }), "{err}");
        assert!(err.to_string().contains("merging shard"), "{err}");

        // An in-shard failure carries the shard index instead.
        let runner = ShardedRunner::new(config(3, 2, 2)).unwrap();
        let mut workload = jobs(4);
        workload[3].tasks.clear(); // invalid: lands in shard 1
        let err = runner
            .run(workload, |_| Box::new(NoSpeculation))
            .unwrap_err();
        assert!(err.to_string().contains("shard 1"), "{err}");
    }

    #[test]
    fn event_budget_errors_name_their_shard() {
        // `max_events` applies per shard; the error must say which shard
        // tripped it even though the variant carries no free-form detail.
        let mut cfg = config(3, 2, 1);
        cfg.max_events = 1;
        let runner = ShardedRunner::new(cfg).unwrap();
        let err = runner
            .run(jobs(4), |_| Box::new(NoSpeculation))
            .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("shard 0"), "{message}");
        assert!(message.contains("event budget"), "{message}");
    }

    #[test]
    fn failing_shard_stops_the_chunk_stream_early() {
        // With one worker the pull order is fully deterministic: chunk 0
        // fails, the abort flag trips, and none of the 99 remaining chunks
        // may even be generated — a million-job stream must not be
        // simulated to the end just to report a shard-0 error.
        let generated = AtomicUsize::new(0);
        let chunks = (0..100u64).map(|index| {
            generated.fetch_add(1, Ordering::Relaxed);
            let mut job = JobSpec::new(JobId::new(index), SimTime::ZERO, 100.0, 1);
            if index == 0 {
                job.tasks.clear(); // invalid: no tasks
            }
            vec![job]
        });
        let runner = ShardedRunner::new(config(1, 4, 1)).unwrap();
        let err = runner
            .run_chunked(chunks, |_| Box::new(NoSpeculation))
            .unwrap_err();
        assert!(err.to_string().contains("shard 0"), "{err}");
        assert_eq!(generated.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fallible_chunks_match_infallible_when_clean() {
        let runner = ShardedRunner::new(config(9, 3, 2)).unwrap();
        let mut chunks = vec![Vec::new(), Vec::new(), Vec::new()];
        for (index, job) in jobs(12).into_iter().enumerate() {
            chunks[index % 3].push(job);
        }
        let infallible = runner
            .run_chunked(chunks.clone(), |_| Box::new(NoSpeculation))
            .unwrap();
        let fallible = runner
            .run_chunked_fallible(chunks.into_iter().map(Ok::<_, SimError>), |_| {
                Box::new(NoSpeculation)
            })
            .unwrap();
        assert_eq!(infallible, fallible);
    }

    #[test]
    fn source_error_stops_the_replay_and_takes_precedence() {
        // Chunk 2 is a source error; with one worker the pull order is
        // deterministic, so chunks 3.. must never be generated and the
        // source error must surface even though chunks 0-1 simulated fine.
        let generated = AtomicUsize::new(0);
        let chunks = (0..100u64).map(|index| {
            generated.fetch_add(1, Ordering::Relaxed);
            if index == 2 {
                Err(format!("parse failure at chunk {index}"))
            } else {
                Ok(vec![JobSpec::new(
                    JobId::new(index),
                    SimTime::ZERO,
                    100.0,
                    1,
                )])
            }
        });
        let runner = ShardedRunner::new(config(1, 4, 1)).unwrap();
        let err = runner
            .run_chunked_fallible(chunks, |_| Box::new(NoSpeculation))
            .unwrap_err();
        assert_eq!(
            err,
            ReplayError::Source("parse failure at chunk 2".to_string())
        );
        assert!(err.to_string().contains("chunk source error"), "{err}");
        assert_eq!(generated.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn fallible_replay_reports_sim_errors() {
        let mut bad = vec![JobSpec::new(JobId::new(0), SimTime::ZERO, 100.0, 1)];
        bad[0].tasks.clear();
        let runner = ShardedRunner::new(config(1, 4, 1)).unwrap();
        let err = runner
            .run_chunked_fallible([Ok::<_, String>(bad)], |_| Box::new(NoSpeculation))
            .unwrap_err();
        assert!(
            matches!(err, ReplayError::Sim(SimError::InvalidConfig { .. })),
            "{err}"
        );
        assert!(err.to_string().contains("shard 0"), "{err}");
    }

    /// A minimal optimizing policy for the planned-path tests: batches its
    /// planning through a `chronos-plan` planner and clones `r` extra
    /// attempts per task from the memoized plan.
    #[derive(Debug)]
    struct PlanningProbe {
        planner: chronos_plan::Planner,
    }

    impl PlanningProbe {
        fn new(cache: std::sync::Arc<chronos_plan::PlanCache>) -> Self {
            PlanningProbe {
                planner: chronos_plan::Planner::with_cache(
                    chronos_core::Optimizer::new(chronos_core::UtilityModel::default()),
                    cache,
                ),
            }
        }

        fn request_of(view: &crate::policy::JobSubmitView) -> Option<chronos_plan::PlanRequest> {
            let job = chronos_core::JobProfile::builder()
                .tasks(view.task_count.max(1))
                .t_min(view.profile.t_min())
                .beta(view.profile.beta())
                .deadline(view.deadline_secs)
                .price(view.price)
                .build()
                .ok()?;
            Some(chronos_plan::PlanRequest::new(
                job,
                chronos_core::StrategyParams::clone_strategy(0.5 * view.profile.t_min()),
            ))
        }
    }

    impl SpeculationPolicy for PlanningProbe {
        fn name(&self) -> &str {
            "planning-probe"
        }

        fn on_job_batch(
            &mut self,
            jobs: &[crate::policy::JobSubmitView],
        ) -> Result<crate::policy::BatchPlan, SimError> {
            let requests: Vec<chronos_plan::PlanRequest> =
                jobs.iter().filter_map(Self::request_of).collect();
            let _ = self.planner.plan_batch(&requests, 1);
            Ok(crate::policy::BatchPlan::default())
        }

        fn on_job_submit(
            &mut self,
            job: &crate::policy::JobSubmitView,
        ) -> crate::policy::SubmitDecision {
            let r = Self::request_of(job)
                .and_then(|request| self.planner.plan_request(&request).ok())
                .map_or(0, |plan| plan.outcome.r);
            crate::policy::SubmitDecision {
                extra_clones_per_task: r,
                reported_r: Some(r),
            }
        }

        fn check_schedule(
            &self,
            _job: &crate::policy::JobSubmitView,
        ) -> crate::policy::CheckSchedule {
            crate::policy::CheckSchedule::Never
        }

        fn on_check(&mut self, _view: &crate::policy::JobView) -> Vec<crate::policy::PolicyAction> {
            Vec::new()
        }
    }

    fn chunks_of(jobs: Vec<JobSpec>, shards: usize) -> Vec<Vec<JobSpec>> {
        let mut chunks = vec![Vec::new(); shards];
        for (index, job) in jobs.into_iter().enumerate() {
            chunks[index % shards].push(job);
        }
        chunks
    }

    #[test]
    fn planned_replay_is_bit_identical_and_shares_plans_across_shards() {
        let runner = ShardedRunner::new(config(13, 3, 2)).unwrap();
        // Unplanned reference: each shard plans into its own private cache.
        let reference = runner
            .run_chunked(chunks_of(jobs(30), 3), |_| {
                Box::new(PlanningProbe::new(chronos_plan::PlanCache::shared()))
            })
            .unwrap();

        for workers in [1u32, 8] {
            let runner = ShardedRunner::new(config(13, 3, workers)).unwrap();
            let cache = chronos_plan::PlanCache::shared();
            let (report, stats) = runner
                .run_chunked_planned(&cache, chunks_of(jobs(30), 3), |_, cache| {
                    Box::new(PlanningProbe::new(cache))
                })
                .unwrap();
            assert_eq!(report, reference, "workers = {workers}");
            // All 30 jobs share one profile: one solve for the whole
            // replay, and the counters are worker-count invariant (batch
            // hook + per-submit lookup = 2 lookups per job).
            assert_eq!(stats.misses, 1, "workers = {workers}");
            assert_eq!(stats.lookups(), 60, "workers = {workers}");
        }
    }

    #[test]
    fn planned_fallible_replay_matches_and_reuses_a_warm_cache() {
        let runner = ShardedRunner::new(config(13, 3, 2)).unwrap();
        let cache = chronos_plan::PlanCache::shared();
        let build = |_shard: u64, cache: std::sync::Arc<chronos_plan::PlanCache>| {
            Box::new(PlanningProbe::new(cache)) as Box<dyn SpeculationPolicy>
        };
        let (first, first_stats) = runner
            .run_chunked_fallible_planned(
                &cache,
                chunks_of(jobs(30), 3).into_iter().map(Ok::<_, SimError>),
                build,
            )
            .unwrap();
        assert_eq!(first_stats.misses, 1);

        // A second replay over the same cache is all hits, and the stats
        // delta (not the lifetime totals) says so.
        let (second, second_stats) = runner
            .run_chunked_fallible_planned(
                &cache,
                chunks_of(jobs(30), 3).into_iter().map(Ok::<_, SimError>),
                build,
            )
            .unwrap();
        assert_eq!(first, second);
        assert_eq!(second_stats.misses, 0);
        assert_eq!(second_stats.hits, 60);

        // Source errors still take precedence on the planned path.
        let err = runner
            .run_chunked_fallible_planned(
                &cache,
                [Err::<Vec<JobSpec>, String>("broken source".into())],
                |_, cache| Box::new(PlanningProbe::new(cache)),
            )
            .unwrap_err();
        assert_eq!(err, ReplayError::Source("broken source".to_string()));
    }

    #[test]
    fn observed_replay_preserves_the_report_and_is_worker_count_invariant() {
        // Tight deadlines: some jobs miss, so the trace carries
        // `DeadlineMissed` events, not just the per-shard phase spans.
        let workload = || {
            (0..24u64)
                .map(|i| {
                    JobSpec::new(JobId::new(i), SimTime::from_secs(i as f64), 12.0, 3)
                        .with_profile(Pareto::new(10.0, 1.5).unwrap())
                })
                .collect::<Vec<JobSpec>>()
        };
        let reference = ShardedRunner::new(config(11, 4, 2))
            .unwrap()
            .run_chunked(chunks_of(workload(), 4), |_| Box::new(NoSpeculation))
            .unwrap();
        let missed = reference
            .jobs
            .values()
            .filter(|job| !job.met_deadline)
            .count();
        assert!(missed > 0, "workload must exercise DeadlineMissed events");

        let mut digests = Vec::new();
        for workers in [1u32, 8] {
            let runner = ShardedRunner::new(config(11, 4, workers)).unwrap();
            let (report, trace) = runner
                .run_chunked_observed(chunks_of(workload(), 4), |_| Box::new(NoSpeculation), None)
                .unwrap();
            // Recording is observation only: the report stays bit-identical
            // to the unobserved replay.
            assert_eq!(report, reference, "workers = {workers}");
            // One `simulate` phase span per shard, merged in shard order,
            // and one DeadlineMissed per missed job.
            let phases = trace
                .records()
                .filter(|record| matches!(record.event, TraceEvent::Phase { .. }))
                .count();
            assert_eq!(phases, 4, "workers = {workers}");
            let deadline_events = trace
                .records()
                .filter(|record| matches!(record.event, TraceEvent::DeadlineMissed { .. }))
                .count();
            assert_eq!(deadline_events, missed, "workers = {workers}");
            digests.push(trace.digest());
        }
        assert_eq!(digests[0], digests[1]);
    }

    #[test]
    fn planned_observed_replay_appends_one_aggregate_cache_report() {
        let runner = ShardedRunner::new(config(13, 3, 2)).unwrap();
        let cache = chronos_plan::PlanCache::shared();
        let (report, stats, trace) = runner
            .run_chunked_fallible_planned_observed(
                &cache,
                chunks_of(jobs(30), 3).into_iter().map(Ok::<_, SimError>),
                |_, cache| Box::new(PlanningProbe::new(cache)) as Box<dyn SpeculationPolicy>,
                None,
            )
            .unwrap();
        assert_eq!(report.job_count(), 30);
        // Per-access cache events would be scheduling-dependent (whichever
        // shard reaches a profile first takes the miss); the trace instead
        // carries exactly one aggregate report with the run's stats delta.
        let cache_reports: Vec<&TraceRecord> = trace
            .records()
            .filter(|record| matches!(record.event, TraceEvent::PlanCacheReport { .. }))
            .collect();
        assert_eq!(cache_reports.len(), 1);
        match cache_reports[0].event {
            TraceEvent::PlanCacheReport { hits, misses, .. } => {
                assert_eq!(hits, stats.hits);
                assert_eq!(misses, stats.misses);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn empty_workload_yields_identity_report() {
        let runner = ShardedRunner::new(config(1, 4, 4)).unwrap();
        let report = runner.run(Vec::new(), |_| Box::new(NoSpeculation)).unwrap();
        assert_eq!(report.job_count(), 0);
        assert_eq!(report.policy, "hadoop-ns");
        assert_eq!(report.events_dispatched, 0);
        assert_eq!(report.events_stale, 0);
    }
}
