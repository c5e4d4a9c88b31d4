//! Property-based tests for the speculation-budget allocator: for
//! *arbitrary* batches and budgets, `budget::allocate` must be a pure,
//! deterministic function of `(batch, budget)` whose ample-budget limit is
//! bit-identical to the unconstrained per-job optima — the water-filling is
//! a constraint mechanism, never a perturbation of the closed forms.

use chronos_core::prelude::*;
use chronos_plan::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Discrete pools mirroring `planner_properties.rs`: small pools force
/// duplicate profiles (tied marginals) while covering all three strategies
/// and feasible/infeasible timings.
const TASKS: [u32; 3] = [5, 20, 120];
const T_MIN: [f64; 2] = [10.0, 20.0];
const BETA: [f64; 2] = [1.3, 1.7];
const DEADLINE_FACTOR: [f64; 3] = [1.2, 2.5, 5.0];
const PRICE: [f64; 2] = [0.5, 1.0];

/// Deterministically expands a seed into a batch of budget jobs with
/// distinct, non-monotone job ids (so job-id tie-breaking is actually
/// distinguishable from input-order tie-breaking).
fn batch(seed: u64, len: usize) -> Vec<BudgetJob> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..len)
        .map(|index| {
            let pick = next();
            let tasks = TASKS[(pick % 3) as usize];
            let t_min = T_MIN[((pick >> 2) % 2) as usize];
            let beta = BETA[((pick >> 4) % 2) as usize];
            let deadline = t_min * DEADLINE_FACTOR[((pick >> 6) % 3) as usize];
            let price = PRICE[((pick >> 8) % 2) as usize];
            let job = JobProfile::builder()
                .tasks(tasks)
                .t_min(t_min)
                .beta(beta)
                .deadline(deadline)
                .price(price)
                .build()
                .expect("pool values are individually valid and deadline > t_min");
            let tau_est = deadline * [0.2, 0.4, 0.8][((pick >> 10) % 3) as usize];
            let tau_kill = tau_est + 0.4 * t_min;
            let params = match (pick >> 13) % 3 {
                0 => StrategyParams::clone_strategy(tau_kill),
                1 => StrategyParams::restart(tau_est, tau_kill).expect("ordered timings"),
                _ => StrategyParams::resume(tau_est, tau_kill, 0.3).expect("ordered timings"),
            };
            // Scrambled-but-unique ids: reverse the index bits within a
            // 16-bit space so ascending-id order differs from input order.
            let id = (index as u64).reverse_bits() >> 48;
            BudgetJob::new(id, PlanRequest::new(job, params))
        })
        .collect()
}

fn planner() -> Planner {
    Planner::new(UtilityModel::new(1e-4, 0.0).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property of the redesign: an ample budget (B ≥ Σ r*,
    /// and a fortiori B = ∞) reproduces today's unbudgeted per-job
    /// decisions bit for bit — same grant for every job, same digest.
    #[test]
    fn ample_budget_is_bit_identical_to_unlimited(
        seed in 0u64..1_000_000,
        len in 1usize..40,
        slack in 0u64..5,
    ) {
        let planner = planner();
        let jobs = batch(seed, len);
        let unlimited = allocate(&planner, &jobs, SpeculationBudget::Unlimited).unwrap();
        let ample = allocate(
            &planner,
            &jobs,
            SpeculationBudget::Limited(unlimited.requested + slack),
        )
        .unwrap();
        for (a, b) in unlimited.grants.iter().zip(&ample.grants) {
            prop_assert_eq!(a.job, b.job);
            prop_assert_eq!(a.copies, b.copies);
            prop_assert_eq!(a.copies, a.unconstrained);
        }
        prop_assert_eq!(unlimited.digest(), ample.digest());
        prop_assert_eq!(ample.spent, ample.requested);
    }

    /// Allocation is a pure function of (batch, budget): re-running it and
    /// permuting the input order never changes any job's grant, and the
    /// budget is never overspent nor any job granted past its optimum.
    #[test]
    fn allocation_is_deterministic_order_invariant_and_within_bounds(
        seed in 0u64..1_000_000,
        len in 1usize..40,
        budget in 0u64..30,
    ) {
        let planner = planner();
        let jobs = batch(seed, len);
        let budget = SpeculationBudget::Limited(budget);
        let first = allocate(&planner, &jobs, budget).unwrap();
        let again = allocate(&planner, &jobs, budget).unwrap();
        prop_assert_eq!(&first, &again);

        let mut reversed = jobs.clone();
        reversed.reverse();
        let backwards = allocate(&planner, &reversed, budget).unwrap();
        prop_assert_eq!(first.digest(), backwards.digest());
        for (a, b) in first.grants.iter().zip(backwards.grants.iter().rev()) {
            prop_assert_eq!(a, b);
        }

        prop_assert!(first.spent <= budget.limit().unwrap());
        prop_assert!(first.spent <= first.requested);
        for grant in &first.grants {
            prop_assert!(grant.copies <= grant.unconstrained);
        }
    }

    /// Where a profile's envelope comes from never changes a grant: the
    /// allocator's own solve (its visited E[T] points) or an earlier
    /// planner's cached plan (its r = 0 and r* machine times). A cold
    /// planner, the same planner called again (every profile cached), and
    /// a planner over a cache another planner filled with every other job
    /// (hits and misses in one batch) give one allocation.
    #[test]
    fn allocation_is_independent_of_what_the_cache_holds(
        seed in 0u64..1_000_000,
        len in 1usize..40,
        budget in 0u64..30,
    ) {
        let jobs = batch(seed, len);
        let budget = SpeculationBudget::Limited(budget);
        let planner = planner();
        let cold = allocate(&planner, &jobs, budget).unwrap();
        let warm = allocate(&planner, &jobs, budget).unwrap();

        let cache = PlanCache::shared();
        let filler = Planner::with_cache(*planner.optimizer(), Arc::clone(&cache));
        let every_other: Vec<PlanRequest> =
            jobs.iter().step_by(2).map(|job| job.request).collect();
        let _ = filler.plan_batch(&every_other, 1);
        let prefilled = Planner::with_cache(*planner.optimizer(), cache);
        let prefilled = allocate(&prefilled, &jobs, budget).unwrap();

        prop_assert_eq!(cold.digest(), warm.digest());
        prop_assert_eq!(cold.digest(), prefilled.digest());
        prop_assert_eq!(&cold, &prefilled);
    }

    /// A zero budget grants nothing, whatever the batch looks like.
    #[test]
    fn zero_budget_grants_nothing(seed in 0u64..1_000_000, len in 1usize..40) {
        let planner = planner();
        let jobs = batch(seed, len);
        let allocation = allocate(&planner, &jobs, SpeculationBudget::Limited(0)).unwrap();
        prop_assert!(allocation.grants.iter().all(|grant| grant.copies == 0));
        prop_assert_eq!(allocation.spent, 0);
    }
}
