//! The planner: memoized single plans and deduplicated batch planning.

use crate::cache::{CacheStats, PlanCache};
use crate::key::ProfileKey;
use chronos_core::{
    ChronosError, JobProfile, OptimizationOutcome, Optimizer, OptimizerConfig, StrategyParams,
    UtilityModel,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// One planning problem: a job class plus the strategy parameters to
/// optimize for it. The objective and optimizer configuration come from the
/// [`Planner`] the request is handed to.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanRequest {
    /// The analytical job profile.
    pub job: JobProfile,
    /// The strategy (kind and timing) to optimize.
    pub params: StrategyParams,
}

impl PlanRequest {
    /// Builds a request.
    #[must_use]
    pub fn new(job: JobProfile, params: StrategyParams) -> Self {
        PlanRequest { job, params }
    }
}

/// A solved plan: the optimizer's outcome plus the no-speculation baseline
/// evaluated from the same closed forms — what the job would pay and risk
/// at `r = 0` — so callers can report the speculation benefit without
/// re-deriving the models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// The optimum Algorithm 1 selected.
    pub outcome: OptimizationOutcome,
    /// PoCD at `r = 0` under the same strategy timing.
    pub baseline_pocd: f64,
    /// Expected machine time (VM-seconds) at `r = 0`.
    pub baseline_machine_time: f64,
    /// Expected dollar cost at `r = 0`.
    pub baseline_dollar_cost: f64,
}

impl Plan {
    /// PoCD gained by speculating at the optimum instead of `r = 0`.
    #[must_use]
    pub fn pocd_gain(&self) -> f64 {
        self.outcome.pocd - self.baseline_pocd
    }

    /// Extra machine time paid at the optimum relative to `r = 0`.
    #[must_use]
    pub fn machine_time_overhead(&self) -> f64 {
        self.outcome.machine_time - self.baseline_machine_time
    }
}

/// Outcome of planning one request: the solved [`Plan`], or the analytical
/// error (also memoized — an infeasible job class is proven infeasible
/// once, not once per job).
pub type PlanResult = Result<Plan, ChronosError>;

/// The memoizing strategy planner: an [`Optimizer`] bound to a (possibly
/// shared) [`PlanCache`].
///
/// [`Planner::plan`] is a drop-in, bit-identical replacement for
/// `Optimizer::optimize` — same inputs, same outcome, same errors — that
/// pays the closed-form solve once per distinct [`ProfileKey`].
/// [`Planner::plan_batch`] additionally deduplicates a whole slice of
/// requests up front and fans the distinct solves across a scoped worker
/// pool.
///
/// # Examples
///
/// ```
/// use chronos_plan::prelude::*;
/// use chronos_core::prelude::*;
///
/// # fn main() -> Result<(), ChronosError> {
/// let planner = Planner::new(UtilityModel::new(1e-4, 0.0)?);
/// let job = JobProfile::builder().deadline(100.0).build()?;
/// let params = StrategyParams::resume(40.0, 80.0, 0.3)?;
///
/// let first = planner.plan(&job, &params)?;
/// let again = planner.plan(&job, &params)?; // served from the cache
/// assert_eq!(first, again);
/// assert_eq!(planner.stats().misses, 1);
/// assert_eq!(planner.stats().hits, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Planner {
    optimizer: Optimizer,
    cache: Arc<PlanCache>,
}

impl Planner {
    /// A planner over the default optimizer configuration with a fresh
    /// private cache.
    #[must_use]
    pub fn new(objective: UtilityModel) -> Self {
        Planner::from_optimizer(Optimizer::new(objective))
    }

    /// A planner with an explicit optimizer configuration and a fresh
    /// private cache.
    ///
    /// # Errors
    ///
    /// Propagates `OptimizerConfig` validation failures.
    pub fn with_config(
        objective: UtilityModel,
        config: OptimizerConfig,
    ) -> Result<Self, ChronosError> {
        Ok(Planner::from_optimizer(Optimizer::with_config(
            objective, config,
        )?))
    }

    /// Wraps an existing optimizer with a fresh private cache.
    #[must_use]
    pub fn from_optimizer(optimizer: Optimizer) -> Self {
        Planner::with_cache(optimizer, PlanCache::shared())
    }

    /// Wraps an existing optimizer around a shared cache. Sharing is always
    /// sound: the [`ProfileKey`] covers the objective and optimizer
    /// configuration, so planners with different settings can share one
    /// cache without ever reading each other's entries.
    #[must_use]
    pub fn with_cache(optimizer: Optimizer, cache: Arc<PlanCache>) -> Self {
        Planner { optimizer, cache }
    }

    /// The underlying optimizer.
    #[must_use]
    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// The cache this planner memoizes into.
    #[must_use]
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Snapshot of the cache counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The canonical cache key of a request under this planner's objective
    /// and configuration.
    #[must_use]
    pub fn key_of(&self, request: &PlanRequest) -> ProfileKey {
        ProfileKey::new(
            &request.job,
            &request.params,
            self.optimizer.objective(),
            self.optimizer.config(),
        )
    }

    /// Solves a request without touching the cache — neither reading nor
    /// writing it. The plan's outcome (and error behaviour) is exactly that
    /// of `Optimizer::optimize`; the baseline fields are evaluated from the
    /// same bound models at `r = 0`. This is the single definition of what
    /// a [`Plan`] *is*: the memoized paths cache its results, and the
    /// uncached reference paths (e.g. `chronos-strategies`'
    /// `PolicyPlanner::uncached`) call it directly, so the two can never
    /// drift apart.
    ///
    /// # Errors
    ///
    /// Exactly the errors of `Optimizer::optimize` for the same inputs.
    pub fn solve_uncached(&self, request: &PlanRequest) -> PlanResult {
        self.solve(request)
    }

    fn solve(&self, request: &PlanRequest) -> PlanResult {
        let net = self
            .optimizer
            .objective()
            .for_job(&request.job, &request.params)?;
        let outcome = self.optimizer.optimize_net(&net)?;
        Ok(Plan {
            outcome,
            baseline_pocd: net.pocd(0)?,
            baseline_machine_time: net.machine_time(0)?,
            baseline_dollar_cost: net.dollar_cost(0)?,
        })
    }

    /// Plans one job/strategy pair, memoized.
    ///
    /// # Errors
    ///
    /// Exactly the errors of `Optimizer::optimize` for the same inputs
    /// (memoized like successes).
    pub fn plan(&self, job: &JobProfile, params: &StrategyParams) -> PlanResult {
        self.plan_request(&PlanRequest::new(*job, *params))
    }

    /// Plans one request, memoized.
    ///
    /// # Errors
    ///
    /// Same as [`Planner::plan`].
    pub fn plan_request(&self, request: &PlanRequest) -> PlanResult {
        self.cache
            .get_or_compute(self.key_of(request), || self.solve(request))
    }

    /// Plans a whole slice of requests: deduplicates them by
    /// [`ProfileKey`], solves each distinct profile once (fanning distinct
    /// keys across a `std::thread::scope` pool of at most `workers`
    /// threads, which pull work from a shared queue exactly like the
    /// sharded simulation runner's workers), and scatters the results back
    /// in input order.
    ///
    /// The returned vector is element-for-element **bit-identical** to
    /// calling [`Planner::plan`] (or an uncached `Optimizer::optimize`) on
    /// each request sequentially: deduplication and threading change only
    /// the wall-clock, never a result. `workers` is clamped to
    /// `1..=distinct_profiles`; `1` keeps everything on the calling thread.
    #[must_use]
    pub fn plan_batch(&self, requests: &[PlanRequest], workers: u32) -> Vec<PlanResult> {
        if requests.is_empty() {
            return Vec::new();
        }
        let keys: Vec<ProfileKey> = requests.iter().map(|r| self.key_of(r)).collect();

        // Dedup pass: `distinct[d]` is the input index of the d-th distinct
        // key (first occurrence); `slot_of[i]` maps input i to its d.
        let mut distinct: Vec<usize> = Vec::new();
        let mut index_of: HashMap<ProfileKey, usize> = HashMap::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(requests.len());
        for (input, key) in keys.iter().enumerate() {
            let next = distinct.len();
            let slot = *index_of.entry(*key).or_insert_with(|| {
                distinct.push(input);
                next
            });
            slot_of.push(slot);
        }

        // Solve pass: each distinct profile exactly once, results parked in
        // per-slot once-cells that the workers fill in any order and the
        // scatter below reads in input order.
        let results: Vec<OnceLock<PlanResult>> =
            (0..distinct.len()).map(|_| OnceLock::new()).collect();
        let solve_into = |slot: usize| {
            let input = distinct[slot];
            let value = self
                .cache
                .get_or_compute(keys[input], || self.solve(&requests[input]));
            let _ = results[slot].set(value);
        };
        let workers = (workers.max(1) as usize).min(distinct.len());
        if workers <= 1 {
            (0..distinct.len()).for_each(solve_into);
        } else {
            let queue = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let slot = queue.fetch_add(1, Ordering::Relaxed);
                        if slot >= distinct.len() {
                            break;
                        }
                        solve_into(slot);
                    });
                }
            });
        }

        // Requests absorbed by the dedup pass never reached the map; they
        // are hits from the caller's perspective (served without a solve).
        self.cache
            .note_deduplicated_hits((requests.len() - distinct.len()) as u64);

        // Scatter pass: input order restored.
        slot_of
            .iter()
            .map(|&slot| {
                results[slot]
                    .get()
                    .expect("every distinct slot was solved")
                    .clone()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_core::StrategyKind;

    fn job(deadline: f64) -> JobProfile {
        JobProfile::builder()
            .tasks(10)
            .t_min(20.0)
            .beta(1.5)
            .deadline(deadline)
            .price(1.0)
            .build()
            .unwrap()
    }

    fn planner() -> Planner {
        Planner::new(UtilityModel::new(1e-4, 0.0).unwrap())
    }

    #[test]
    fn plan_matches_uncached_optimizer_bit_for_bit() {
        let planner = planner();
        let optimizer = Optimizer::new(UtilityModel::new(1e-4, 0.0).unwrap());
        for params in [
            StrategyParams::clone_strategy(80.0),
            StrategyParams::restart(40.0, 80.0).unwrap(),
            StrategyParams::resume(40.0, 80.0, 0.4).unwrap(),
        ] {
            let plan = planner.plan(&job(100.0), &params).unwrap();
            let direct = optimizer.optimize(&job(100.0), &params).unwrap();
            assert_eq!(plan.outcome.r, direct.r);
            assert_eq!(plan.outcome.utility.to_bits(), direct.utility.to_bits());
            assert_eq!(plan.outcome.pocd.to_bits(), direct.pocd.to_bits());
            assert_eq!(
                plan.outcome.machine_time.to_bits(),
                direct.machine_time.to_bits()
            );
            assert_eq!(
                plan.outcome.dollar_cost.to_bits(),
                direct.dollar_cost.to_bits()
            );
        }
    }

    #[test]
    fn baseline_fields_come_from_r_zero() {
        let planner = planner();
        let params = StrategyParams::clone_strategy(80.0);
        let plan = planner.plan(&job(100.0), &params).unwrap();
        let net = UtilityModel::new(1e-4, 0.0)
            .unwrap()
            .for_job(&job(100.0), &params)
            .unwrap();
        assert_eq!(plan.baseline_pocd.to_bits(), net.pocd(0).unwrap().to_bits());
        assert_eq!(
            plan.baseline_machine_time.to_bits(),
            net.machine_time(0).unwrap().to_bits()
        );
        assert!(plan.pocd_gain() > 0.0);
        assert!(plan.machine_time_overhead() > 0.0);
    }

    #[test]
    fn repeated_requests_solve_once() {
        let planner = planner();
        let params = StrategyParams::resume(40.0, 80.0, 0.4).unwrap();
        for _ in 0..5 {
            planner.plan(&job(100.0), &params).unwrap();
        }
        let stats = planner.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn errors_are_memoized_too() {
        // tau_est beyond the deadline: inconsistent for a reactive strategy.
        let planner = planner();
        let params = StrategyParams::restart(95.0, 99.0).unwrap();
        for _ in 0..3 {
            assert!(planner.plan(&job(100.0), &params).is_err());
        }
        let stats = planner.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn batch_dedupes_and_scatters_in_input_order() {
        let planner = planner();
        let clone = StrategyParams::clone_strategy(80.0);
        let resume = StrategyParams::resume(40.0, 80.0, 0.4).unwrap();
        let requests = vec![
            PlanRequest::new(job(100.0), clone),
            PlanRequest::new(job(120.0), resume),
            PlanRequest::new(job(100.0), clone),
            PlanRequest::new(job(100.0), resume),
            PlanRequest::new(job(120.0), resume),
        ];
        let results = planner.plan_batch(&requests, 4);
        assert_eq!(results.len(), 5);
        // 3 distinct profiles solved once each; the 2 duplicates are hits.
        assert_eq!(planner.stats().misses, 3);
        assert_eq!(planner.stats().hits, 2);
        assert_eq!(planner.stats().lookups(), 5);
        // Scatter restored input order: duplicates are equal, and each
        // result matches its own request's strategy kind.
        assert_eq!(results[0], results[2]);
        assert_eq!(results[1], results[4]);
        assert_eq!(
            results[0].as_ref().unwrap().outcome.strategy,
            StrategyKind::Clone
        );
        assert_eq!(
            results[3].as_ref().unwrap().outcome.strategy,
            StrategyKind::SpeculativeResume
        );
    }

    #[test]
    fn batch_is_bit_identical_to_sequential_uncached_calls() {
        let planner = planner();
        let optimizer = Optimizer::new(UtilityModel::new(1e-4, 0.0).unwrap());
        let requests: Vec<PlanRequest> = (0..20)
            .map(|i| {
                let deadline = [90.0, 100.0, 110.0][i % 3];
                let params = match i % 2 {
                    0 => StrategyParams::clone_strategy(80.0),
                    _ => StrategyParams::resume(40.0, 80.0, 0.4).unwrap(),
                };
                PlanRequest::new(job(deadline), params)
            })
            .collect();
        for workers in [1u32, 2, 8] {
            let results = planner.plan_batch(&requests, workers);
            for (request, result) in requests.iter().zip(&results) {
                let direct = optimizer.optimize(&request.job, &request.params).unwrap();
                let plan = result.as_ref().unwrap();
                assert_eq!(plan.outcome.r, direct.r);
                assert_eq!(plan.outcome.utility.to_bits(), direct.utility.to_bits());
            }
        }
    }

    #[test]
    fn batch_propagates_per_request_errors_positionally() {
        let planner = planner();
        let requests = vec![
            PlanRequest::new(job(100.0), StrategyParams::clone_strategy(80.0)),
            PlanRequest::new(job(100.0), StrategyParams::restart(95.0, 99.0).unwrap()),
            PlanRequest::new(job(100.0), StrategyParams::clone_strategy(80.0)),
        ];
        let results = planner.plan_batch(&requests, 2);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let planner = planner();
        assert!(planner.plan_batch(&[], 4).is_empty());
        assert_eq!(planner.stats().lookups(), 0);
    }

    #[test]
    fn shared_cache_spans_planners() {
        let cache = PlanCache::shared();
        let a = Planner::with_cache(
            Optimizer::new(UtilityModel::new(1e-4, 0.0).unwrap()),
            Arc::clone(&cache),
        );
        let b = Planner::with_cache(
            Optimizer::new(UtilityModel::new(1e-4, 0.0).unwrap()),
            Arc::clone(&cache),
        );
        let params = StrategyParams::clone_strategy(80.0);
        a.plan(&job(100.0), &params).unwrap();
        b.plan(&job(100.0), &params).unwrap();
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);

        // A planner with a different objective shares storage but never
        // entries: the key covers θ.
        let other = Planner::with_cache(
            Optimizer::new(UtilityModel::new(1e-3, 0.0).unwrap()),
            Arc::clone(&cache),
        );
        other.plan(&job(100.0), &params).unwrap();
        assert_eq!(cache.stats().misses, 2);
    }
}
