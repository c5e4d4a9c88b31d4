//! Algorithm 1: the hybrid optimizer that selects the number of extra
//! attempts `r` maximizing net utility.
//!
//! Theorem 8 guarantees the objective is concave in `r` above the threshold
//! `Γ_strategy`. The optimizer scans the (few) integers of the non-concave
//! head `0..=⌈Γ⌉` exhaustively and finds the integer argmax of the concave
//! tail exactly, without a continuous relaxation:
//!
//! 1. the tail starts at the first `r ≥ ⌈Γ⌉` with `R(r) > R_min`, found by
//!    binary search on the monotone PoCD (no quadrature);
//! 2. doubling steps from there bracket the argmax at the first step where
//!    `U` stops rising;
//! 3. bisection on the sign of `U(m+1) − U(m)` pins it inside the bracket.
//!
//! The better of the head and tail optima is the global optimum (Theorem 9),
//! ties going to the smaller `r` exactly as in
//! [`Optimizer::optimize_exhaustive`]. Every `U(r)` goes through one
//! [`MachineTimeMemo`], so a solve integrates Theorem 4 at about
//! `⌈Γ⌉ + 2·log2(r*)` distinct points, each once.

use crate::error::ChronosError;
use crate::job::JobProfile;
use crate::numeric::central_difference;
use crate::strategy::{StrategyKind, StrategyParams};
use crate::utility::{MachineTimeMemo, NetUtility, UtilityModel};
use serde::{Deserialize, Serialize};

/// Which search backend drives the concave-tail phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchMethod {
    /// Exact integer search: bracket the tail's argmax by doubling, then
    /// bisect on the sign of `U(m+1) − U(m)` (the default; needs no
    /// derivative estimates and returns the same `r` as exhaustive search).
    ConcaveTailBisection,
    /// Gradient ascent with backtracking line search on the continuous
    /// relaxation, following Algorithm 1 as printed in the paper (η/α/ξ
    /// parameters of [`OptimizerConfig`]); the integer neighbours of its
    /// peak are the tail candidates.
    GradientAscent,
}

/// Tuning knobs of the optimizer.
///
/// `eta`, `alpha` and `xi` correspond to the η, α and ξ constants of
/// Algorithm 1 and only affect the [`SearchMethod::GradientAscent`] backend.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Search backend for the concave tail.
    pub method: SearchMethod,
    /// Gradient-norm stopping threshold η of Algorithm 1.
    pub eta: f64,
    /// Sufficient-decrease constant α of the backtracking line search.
    pub alpha: f64,
    /// Backtracking shrink factor ξ ∈ (0, 1).
    pub xi: f64,
    /// Hard upper bound on `r` considered by the search.
    pub r_max: u32,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            method: SearchMethod::ConcaveTailBisection,
            eta: 1e-6,
            alpha: 0.3,
            xi: 0.5,
            r_max: 64,
        }
    }
}

impl OptimizerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ChronosError::InvalidParameter`] for non-positive `eta`,
    /// `alpha` outside `(0, 1)`, `xi` outside `(0, 1)` or `r_max == 0`.
    pub fn validate(&self) -> Result<(), ChronosError> {
        if !(self.eta.is_finite() && self.eta > 0.0) {
            return Err(ChronosError::invalid("eta", self.eta, "a finite value > 0"));
        }
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(ChronosError::invalid(
                "alpha",
                self.alpha,
                "a value in (0, 1)",
            ));
        }
        if !(self.xi > 0.0 && self.xi < 1.0) {
            return Err(ChronosError::invalid("xi", self.xi, "a value in (0, 1)"));
        }
        if self.r_max == 0 {
            return Err(ChronosError::invalid("r_max", 0.0, "at least 1"));
        }
        Ok(())
    }
}

/// Result of one optimization run: the chosen `r` and the metrics at it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimizationOutcome {
    /// Which strategy was optimized.
    pub strategy: StrategyKind,
    /// The optimal number of extra attempts.
    pub r: u32,
    /// Net utility at the optimum.
    pub utility: f64,
    /// PoCD at the optimum.
    pub pocd: f64,
    /// Expected job machine time at the optimum (seconds of VM time).
    pub machine_time: f64,
    /// Expected dollar cost (`C · E[T]`) at the optimum.
    pub dollar_cost: f64,
}

/// The Chronos optimizer (Algorithm 1).
///
/// # Examples
///
/// ```
/// use chronos_core::prelude::*;
///
/// # fn main() -> Result<(), ChronosError> {
/// let job = JobProfile::builder()
///     .tasks(10)
///     .t_min(20.0)
///     .beta(1.5)
///     .deadline(100.0)
///     .build()?;
/// let objective = UtilityModel::new(1e-4, 0.0)?;
/// let outcome = Optimizer::new(objective)
///     .optimize(&job, &StrategyParams::resume(40.0, 80.0, 0.4)?)?;
/// assert!(outcome.pocd > 0.5);
/// assert!(outcome.utility.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Optimizer {
    objective: UtilityModel,
    config: OptimizerConfig,
}

impl Optimizer {
    /// Creates an optimizer with the default configuration.
    #[must_use]
    pub fn new(objective: UtilityModel) -> Self {
        Optimizer {
            objective,
            config: OptimizerConfig::default(),
        }
    }

    /// Creates an optimizer with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`OptimizerConfig::validate`] failures.
    pub fn with_config(
        objective: UtilityModel,
        config: OptimizerConfig,
    ) -> Result<Self, ChronosError> {
        config.validate()?;
        Ok(Optimizer { objective, config })
    }

    /// The objective configuration this optimizer maximizes.
    #[must_use]
    pub fn objective(&self) -> &UtilityModel {
        &self.objective
    }

    /// The optimizer configuration.
    #[must_use]
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Runs Algorithm 1 for a single job / strategy pair.
    ///
    /// # Errors
    ///
    /// * [`ChronosError::Infeasible`] when no `r ≤ r_max` achieves
    ///   `R(r) > R_min`.
    /// * Propagated model-construction and numerical failures.
    pub fn optimize(
        &self,
        job: &JobProfile,
        params: &StrategyParams,
    ) -> Result<OptimizationOutcome, ChronosError> {
        let net = self.objective.for_job(job, params)?;
        self.optimize_memo(&mut MachineTimeMemo::new(&net))
    }

    /// Runs Algorithm 1 on the objective a [`MachineTimeMemo`] is bound to,
    /// through that memo, so the caller can read `E[T(r)]` at any `r` the
    /// search visited (`r = 0` always is, when `R(0) > R_min`) without
    /// integrating again.
    ///
    /// # Errors
    ///
    /// Same as [`optimize`](Self::optimize).
    pub fn optimize_memo(
        &self,
        memo: &mut MachineTimeMemo<'_>,
    ) -> Result<OptimizationOutcome, ChronosError> {
        let net = memo.net();
        let r_max = self.config.r_max;

        let mut best: Option<(u32, f64)> = None;
        let mut consider = |r: u32, utility: f64| {
            if utility.is_finite() {
                match best {
                    Some((_, u)) if u >= utility => {}
                    _ => best = Some((r, utility)),
                }
            }
        };

        match net.pocd_model().concave_from() {
            None => {
                // Speculation cannot reduce the failure probability; the
                // utility is non-increasing in r, so scanning a handful of
                // small values suffices.
                for r in 0..=r_max.min(4) {
                    consider(r, memo.utility(r)?);
                }
            }
            Some(gamma_ceil) => {
                let gamma_ceil = gamma_ceil.min(r_max);
                // Phase 2 of Algorithm 1 (run first here, it is cheap):
                // exhaustively evaluate the non-concave head r < ⌈Γ⌉, plus
                // ⌈Γ⌉ itself.
                for r in 0..=gamma_ceil {
                    consider(r, memo.utility(r)?);
                }
                // Phase 1: the concave tail, from its first finite point.
                if let Some(start) = first_meeting_floor(net, gamma_ceil, r_max) {
                    let (lo, hi) = bracket_tail_peak(memo, start, r_max)?;
                    match self.config.method {
                        SearchMethod::ConcaveTailBisection => {
                            let r = bisect_tail_peak(memo, lo, hi)?;
                            consider(r, memo.utility(r)?);
                        }
                        SearchMethod::GradientAscent => {
                            let peak = self.gradient_peak(net, f64::from(start), f64::from(hi));
                            // The integer optimum of a concave function is
                            // at ⌊x*⌋ or ⌈x*⌉.
                            for candidate in [peak.floor(), peak.ceil()] {
                                let r = candidate as u32;
                                consider(r, memo.utility(r)?);
                            }
                        }
                    }
                }
            }
        }

        let (r, utility) = best.ok_or_else(|| {
            ChronosError::infeasible(format!(
                "no r in [0, {r_max}] satisfies R(r) > R_min = {}",
                net.objective().r_min()
            ))
        })?;
        Ok(OptimizationOutcome {
            strategy: net.pocd_model().params().kind(),
            r,
            utility,
            pocd: net.pocd(r)?,
            machine_time: memo.machine_time(r)?,
            dollar_cost: memo.dollar_cost(r)?,
        })
    }

    /// Optimizes every supplied strategy and returns all outcomes sorted by
    /// descending utility (best first). Strategies that are infeasible for
    /// this job are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`ChronosError::Infeasible`] if *every* strategy is
    /// infeasible; other model errors are propagated immediately.
    pub fn rank_strategies(
        &self,
        job: &JobProfile,
        strategies: &[StrategyParams],
    ) -> Result<Vec<OptimizationOutcome>, ChronosError> {
        let mut outcomes = Vec::with_capacity(strategies.len());
        for params in strategies {
            match self.optimize(job, params) {
                Ok(outcome) => outcomes.push(outcome),
                Err(ChronosError::Infeasible { .. })
                | Err(ChronosError::InconsistentParameters { .. }) => continue,
                Err(other) => return Err(other),
            }
        }
        if outcomes.is_empty() {
            return Err(ChronosError::infeasible(
                "every candidate strategy is infeasible for this job",
            ));
        }
        outcomes.sort_by(|a, b| {
            b.utility
                .partial_cmp(&a.utility)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(outcomes)
    }

    /// Reference implementation: exhaustive search over `0..=r_max`.
    ///
    /// Used by tests and benchmarks to confirm Algorithm 1 returns the same
    /// optimum (Theorem 9) at a fraction of the evaluations.
    ///
    /// # Errors
    ///
    /// Same as [`optimize`](Self::optimize).
    pub fn optimize_exhaustive(
        &self,
        job: &JobProfile,
        params: &StrategyParams,
    ) -> Result<OptimizationOutcome, ChronosError> {
        let net = self.objective.for_job(job, params)?;
        let mut best: Option<(u32, f64)> = None;
        for r in 0..=self.config.r_max {
            let u = net.utility(r)?;
            if u.is_finite() {
                match best {
                    Some((_, bu)) if bu >= u => {}
                    _ => best = Some((r, u)),
                }
            }
        }
        let (r, utility) = best
            .ok_or_else(|| ChronosError::infeasible("no feasible r found by exhaustive search"))?;
        Ok(OptimizationOutcome {
            strategy: params.kind(),
            r,
            utility,
            pocd: net.pocd(r)?,
            machine_time: net.machine_time(r)?,
            dollar_cost: net.dollar_cost(r)?,
        })
    }

    /// Gradient ascent with backtracking, transcribing the loop of
    /// Algorithm 1 onto the continuous relaxation.
    fn gradient_peak(&self, net: &NetUtility, lo: f64, hi: f64) -> f64 {
        let f = |r: f64| net.utility_continuous(r).unwrap_or(f64::NEG_INFINITY);
        let mut r = lo.max(0.0);
        let h = 1e-4;
        for _ in 0..200 {
            let grad = central_difference(f, r.max(h), h);
            if grad.abs() <= self.config.eta {
                break;
            }
            // Ascent direction Δr = ∇U(r); backtrack until the Armijo
            // condition U(r + εΔr) > U(r) + α·ε·∇U(r)·Δr holds.
            let delta = grad;
            let mut eps = 1.0;
            let current = f(r);
            let mut accepted = false;
            for _ in 0..60 {
                let candidate = (r + eps * delta).clamp(lo, hi);
                if f(candidate) > current + self.config.alpha * eps * grad * delta {
                    r = candidate;
                    accepted = true;
                    break;
                }
                eps *= self.config.xi;
            }
            if !accepted {
                break;
            }
        }
        r.clamp(lo, hi)
    }
}

/// The first `r` in `[from, r_max]` with `R(r) > R_min`, or `None`. The
/// PoCD is non-decreasing in `r`, so a binary search finds it without a
/// single quadrature.
fn first_meeting_floor(net: &NetUtility, from: u32, r_max: u32) -> Option<u32> {
    if !net.meets_floor(r_max) {
        return None;
    }
    let (mut lo, mut hi) = (from, r_max);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if net.meets_floor(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// Brackets the smallest argmax of the concave tail `U` on
/// `[start, r_max]`: steps of 1, 2, 4, … from `start` until `U` stops
/// rising. If the step `current → next` is the first that does not rise,
/// the argmax lies in `[prev, next]`, `prev` being the point before
/// `current`; concavity rules out everything outside.
fn bracket_tail_peak(
    memo: &mut MachineTimeMemo<'_>,
    start: u32,
    r_max: u32,
) -> Result<(u32, u32), ChronosError> {
    let (mut prev, mut current) = (start, start);
    let mut u_current = memo.utility(start)?;
    let mut step = 1u32;
    while current < r_max {
        let next = current.saturating_add(step).min(r_max);
        let u_next = memo.utility(next)?;
        if u_next <= u_current {
            return Ok((prev, next));
        }
        (prev, current, u_current) = (current, next, u_next);
        step = step.saturating_mul(2);
    }
    Ok((prev, r_max))
}

/// The smallest `m` in `[lo, hi]` with `U(m+1) ≤ U(m)`, or `hi`: on a
/// concave sequence that is its smallest argmax over `[lo, hi]`, and the
/// predicate is monotone, so bisection finds it.
fn bisect_tail_peak(
    memo: &mut MachineTimeMemo<'_>,
    mut lo: u32,
    mut hi: u32,
) -> Result<u32, ChronosError> {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if memo.utility(mid + 1)? <= memo.utility(mid)? {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobProfile {
        JobProfile::builder()
            .tasks(10)
            .t_min(20.0)
            .beta(1.5)
            .deadline(100.0)
            .price(1.0)
            .build()
            .unwrap()
    }

    fn strategies() -> Vec<StrategyParams> {
        vec![
            StrategyParams::clone_strategy(80.0),
            StrategyParams::restart(40.0, 80.0).unwrap(),
            StrategyParams::resume(40.0, 80.0, 0.4).unwrap(),
        ]
    }

    #[test]
    fn config_validation() {
        let mut cfg = OptimizerConfig::default();
        assert!(cfg.validate().is_ok());
        cfg.eta = 0.0;
        assert!(cfg.validate().is_err());
        cfg = OptimizerConfig::default();
        cfg.alpha = 1.5;
        assert!(cfg.validate().is_err());
        cfg = OptimizerConfig::default();
        cfg.xi = 0.0;
        assert!(cfg.validate().is_err());
        cfg = OptimizerConfig::default();
        cfg.r_max = 0;
        assert!(cfg.validate().is_err());
        assert!(Optimizer::with_config(UtilityModel::default(), cfg).is_err());
    }

    #[test]
    fn theorem9_hybrid_matches_exhaustive() {
        let objective = UtilityModel::new(1e-4, 0.0).unwrap();
        let optimizer = Optimizer::new(objective);
        for params in strategies() {
            let hybrid = optimizer.optimize(&job(), &params).unwrap();
            let exhaustive = optimizer.optimize_exhaustive(&job(), &params).unwrap();
            assert_eq!(hybrid.r, exhaustive.r, "{:?}", params.kind());
            assert!((hybrid.utility - exhaustive.utility).abs() < 1e-9);
        }
    }

    #[test]
    fn gradient_backend_matches_exhaustive() {
        let objective = UtilityModel::new(1e-4, 0.0).unwrap();
        let config = OptimizerConfig {
            method: SearchMethod::GradientAscent,
            ..OptimizerConfig::default()
        };
        let optimizer = Optimizer::with_config(objective, config).unwrap();
        for params in strategies() {
            let hybrid = optimizer.optimize(&job(), &params).unwrap();
            let exhaustive = optimizer.optimize_exhaustive(&job(), &params).unwrap();
            assert_eq!(hybrid.r, exhaustive.r, "{:?}", params.kind());
        }
    }

    #[test]
    fn hybrid_matches_exhaustive_across_thetas_and_deadlines() {
        for theta in [1e-6, 1e-5, 1e-4, 1e-3] {
            for deadline in [60.0, 100.0, 200.0] {
                let job = JobProfile::builder()
                    .tasks(20)
                    .t_min(20.0)
                    .beta(1.4)
                    .deadline(deadline)
                    .build()
                    .unwrap();
                let objective = UtilityModel::new(theta, 0.0).unwrap();
                let optimizer = Optimizer::new(objective);
                for params in [
                    StrategyParams::clone_strategy(0.5 * 20.0),
                    StrategyParams::restart(0.3 * 20.0, 0.8 * 20.0).unwrap(),
                    StrategyParams::resume(0.3 * 20.0, 0.8 * 20.0, 0.3).unwrap(),
                ] {
                    let hybrid = optimizer.optimize(&job, &params).unwrap();
                    let exhaustive = optimizer.optimize_exhaustive(&job, &params).unwrap();
                    assert_eq!(
                        hybrid.r,
                        exhaustive.r,
                        "theta {theta} deadline {deadline} {:?}",
                        params.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn larger_theta_never_increases_optimal_r() {
        // As cost weighs more, the optimizer launches fewer extra attempts
        // (the mechanism behind Figure 5).
        let optimizer_small = Optimizer::new(UtilityModel::new(1e-5, 0.0).unwrap());
        let optimizer_large = Optimizer::new(UtilityModel::new(1e-3, 0.0).unwrap());
        for params in strategies() {
            let small = optimizer_small.optimize(&job(), &params).unwrap();
            let large = optimizer_large.optimize(&job(), &params).unwrap();
            assert!(
                large.r <= small.r,
                "{:?}: r went {} -> {} when theta grew",
                params.kind(),
                small.r,
                large.r
            );
        }
    }

    #[test]
    fn loose_deadline_drives_r_toward_zero() {
        // Non-deadline-sensitive jobs need (almost) no speculation
        // (Section V remark). Clone pays for every task up front, so its
        // optimum collapses to exactly zero; the reactive strategies only pay
        // on the (vanishing) straggler event, so at most one standby attempt
        // survives the optimization.
        let loose = job().with_deadline(5_000.0).unwrap();
        let optimizer = Optimizer::new(UtilityModel::new(1e-4, 0.0).unwrap());
        for params in strategies() {
            let outcome = optimizer.optimize(&loose, &params).unwrap();
            match params.kind() {
                StrategyKind::Clone => assert_eq!(outcome.r, 0),
                _ => assert!(outcome.r <= 1, "{:?}: r = {}", params.kind(), outcome.r),
            }
        }
        // Tight deadlines, by contrast, need speculation.
        let tight = job().with_deadline(60.0).unwrap();
        for params in [
            StrategyParams::clone_strategy(30.0),
            StrategyParams::restart(15.0, 30.0).unwrap(),
        ] {
            let outcome = optimizer.optimize(&tight, &params).unwrap();
            assert!(outcome.r >= 1, "{:?}", params.kind());
        }
    }

    #[test]
    fn large_beta_restart_speculates() {
        // Job 102 of the converted Google 2011 golden trace. β·r is large
        // enough that a^p overflows in Theorem 4's closed-form segment; the
        // optimizer must still see finite utilities and pick r = 2.
        let job = JobProfile::builder()
            .tasks(2)
            .t_min(25.0)
            .beta(6.0)
            .deadline(60.0)
            .price(1.0)
            .build()
            .unwrap();
        let params = StrategyParams::restart(7.5, 15.0).unwrap();
        let optimizer = Optimizer::new(UtilityModel::new(1e-4, 0.0).unwrap());
        let outcome = optimizer.optimize(&job, &params).unwrap();
        let exhaustive = optimizer.optimize_exhaustive(&job, &params).unwrap();
        assert_eq!(outcome.r, 2);
        assert_eq!(exhaustive.r, 2);
        assert_eq!(outcome.utility.to_bits(), exhaustive.utility.to_bits());
    }

    #[test]
    fn floor_far_above_threshold_finds_exhaustive_optimum() {
        // With R_min = 0.9 the S-Restart utility is −∞ far beyond ⌈Γ⌉: the
        // tail search must start at the first r meeting the floor instead
        // of giving up on the −∞ plateau.
        let job = JobProfile::builder()
            .tasks(50)
            .t_min(20.0)
            .beta(2.0)
            .deadline(35.0)
            .price(1.0)
            .build()
            .unwrap();
        let params = StrategyParams::restart(14.0, 24.0).unwrap();
        let objective = UtilityModel::new(1e-3, 0.9).unwrap();
        let net = objective.for_job(&job, &params).unwrap();
        let gamma_ceil = net.pocd_model().concave_from().unwrap();
        let first_feasible = (0..=64).find(|&r| net.meets_floor(r)).unwrap();
        assert!(
            first_feasible > gamma_ceil + 10,
            "{first_feasible} vs {gamma_ceil}"
        );

        let optimizer = Optimizer::new(objective);
        let outcome = optimizer.optimize(&job, &params).unwrap();
        let exhaustive = optimizer.optimize_exhaustive(&job, &params).unwrap();
        assert_eq!(outcome.r, exhaustive.r);
        assert_eq!(outcome.r, 54);
        assert_eq!(outcome.utility.to_bits(), exhaustive.utility.to_bits());
    }

    #[test]
    fn huge_r_max_matches_small_r_max_without_scaling_the_memo() {
        let objective = UtilityModel::new(1e-4, 0.0).unwrap();
        let small = Optimizer::new(objective);
        let huge = Optimizer::with_config(
            objective,
            OptimizerConfig {
                r_max: 1 << 30,
                ..OptimizerConfig::default()
            },
        )
        .unwrap();
        for params in strategies() {
            let expected = small.optimize(&job(), &params).unwrap();
            assert!(expected.r < 64);
            let net = objective.for_job(&job(), &params).unwrap();
            let mut memo = MachineTimeMemo::new(&net);
            let outcome = huge.optimize_memo(&mut memo).unwrap();
            assert_eq!(outcome, expected, "{:?}", params.kind());
            // The memo holds the visited r only: O(⌈Γ⌉ + log r*) entries.
            assert!(memo.evaluations() <= 16, "{}", memo.evaluations());
        }
    }

    #[test]
    fn infeasible_floor_reported() {
        // R_min practically 1.0 cannot be met with r ≤ 2.
        let objective = UtilityModel::new(1e-4, 0.999_999).unwrap();
        let config = OptimizerConfig {
            r_max: 1,
            ..OptimizerConfig::default()
        };
        let optimizer = Optimizer::with_config(objective, config).unwrap();
        let tight = JobProfile::builder()
            .tasks(50)
            .t_min(20.0)
            .beta(1.1)
            .deadline(25.0)
            .build()
            .unwrap();
        let err = optimizer
            .optimize(&tight, &StrategyParams::clone_strategy(10.0))
            .unwrap_err();
        assert!(matches!(err, ChronosError::Infeasible { .. }));
    }

    #[test]
    fn rank_strategies_sorted_and_skips_infeasible() {
        let optimizer = Optimizer::new(UtilityModel::new(1e-4, 0.0).unwrap());
        let mut candidates = strategies();
        // Add a reactive strategy whose estimation point is hopeless for the
        // deadline; it should be silently skipped.
        candidates.push(StrategyParams::restart(95.0, 99.0).unwrap());
        let ranked = optimizer.rank_strategies(&job(), &candidates).unwrap();
        assert_eq!(ranked.len(), 3);
        for pair in ranked.windows(2) {
            assert!(pair[0].utility >= pair[1].utility);
        }
    }

    #[test]
    fn rank_strategies_all_infeasible_errors() {
        let optimizer = Optimizer::new(UtilityModel::new(1e-4, 0.0).unwrap());
        let hopeless = vec![StrategyParams::restart(95.0, 99.0).unwrap()];
        assert!(optimizer.rank_strategies(&job(), &hopeless).is_err());
    }

    #[test]
    fn outcome_reports_consistent_metrics() {
        let optimizer = Optimizer::new(UtilityModel::new(1e-4, 0.0).unwrap());
        let outcome = optimizer
            .optimize(&job(), &StrategyParams::resume(40.0, 80.0, 0.4).unwrap())
            .unwrap();
        let net = UtilityModel::new(1e-4, 0.0)
            .unwrap()
            .for_job(&job(), &StrategyParams::resume(40.0, 80.0, 0.4).unwrap())
            .unwrap();
        assert!((outcome.pocd - net.pocd(outcome.r).unwrap()).abs() < 1e-12);
        assert!((outcome.machine_time - net.machine_time(outcome.r).unwrap()).abs() < 1e-9);
        assert!((outcome.utility - net.utility(outcome.r).unwrap()).abs() < 1e-9);
        assert!(outcome.dollar_cost > 0.0);
    }
}
