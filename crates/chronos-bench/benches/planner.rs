//! Criterion benches for the `chronos-plan` subsystem: what memoized,
//! deduplicated batch planning saves over per-job `Optimizer::optimize`
//! calls on a repeated-profile workload — the serving-path pattern where
//! thousands of submissions share a handful of job classes — what one
//! cold S-Restart solve costs, and what one cold budget-allocation round
//! over distinct Google-shaped profiles costs.
//!
//! Setting `CHRONOS_BENCH_SMOKE=1` shrinks the batch and takes a single
//! sample — the CI `bench-smoke` job uses this to catch panics and API rot
//! without paying (or trusting) real measurement time on shared runners.

use chronos_core::prelude::*;
use chronos_plan::prelude::*;
use chronos_trace::google::GoogleTraceConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn smoke() -> bool {
    std::env::var_os("CHRONOS_BENCH_SMOKE").is_some()
}

/// A batch of `len` requests cycling over `classes` distinct job profiles
/// (three strategies × a few job shapes), mimicking a trace whose jobs
/// share job classes.
fn repeated_profile_batch(len: usize, classes: usize) -> Vec<PlanRequest> {
    let shapes: Vec<(JobProfile, StrategyParams)> = (0..classes)
        .map(|class| {
            let t_min = 15.0 + class as f64;
            let job = JobProfile::builder()
                .tasks(10 + 10 * (class as u32 % 4))
                .t_min(t_min)
                .beta(1.3 + 0.1 * (class % 3) as f64)
                .deadline(5.0 * t_min)
                .build()
                .expect("valid job class");
            let params = match class % 3 {
                0 => StrategyParams::clone_strategy(2.0 * t_min),
                1 => StrategyParams::restart(t_min, 2.0 * t_min).expect("ordered"),
                _ => StrategyParams::resume(t_min, 2.0 * t_min, 0.3).expect("ordered"),
            };
            (job, params)
        })
        .collect();
    (0..len)
        .map(|i| {
            let (job, params) = shapes[i % classes];
            PlanRequest::new(job, params)
        })
        .collect()
}

fn bench_plan_batch_vs_uncached(c: &mut Criterion) {
    let len = if smoke() { 64 } else { 4_096 };
    let classes = 8;
    let requests = repeated_profile_batch(len, classes);
    let objective = UtilityModel::default();

    let mut group = c.benchmark_group(format!("planner-{len}-jobs-{classes}-classes"));
    if smoke() {
        group.sample_size(1);
        group.measurement_time(Duration::from_millis(1));
    }

    // The reference: one optimizer solve per job, no memoization.
    group.bench_function("uncached-optimize", |b| {
        let optimizer = Optimizer::new(objective);
        b.iter(|| {
            requests
                .iter()
                .map(|request| {
                    optimizer
                        .optimize(&request.job, &request.params)
                        .expect("feasible")
                        .r
                })
                .fold(0u64, |acc, r| acc + u64::from(r))
        })
    });

    // Cold batch: a fresh cache per iteration — dedup does all the work.
    for workers in [1u32, 4] {
        group.bench_with_input(
            BenchmarkId::new("plan-batch-cold", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let planner = Planner::new(objective);
                    planner.plan_batch(&requests, workers)
                })
            },
        );
    }

    // Warm batch: the steady serving state — every request is a cache hit.
    group.bench_function("plan-batch-warm", |b| {
        let planner = Planner::new(objective);
        let _ = planner.plan_batch(&requests, 4);
        b.iter(|| planner.plan_batch(&requests, 4))
    });

    group.finish();
}

fn bench_single_plan_lookup(c: &mut Criterion) {
    let requests = repeated_profile_batch(1, 1);
    let objective = UtilityModel::default();
    let mut group = c.benchmark_group("planner-single");
    if smoke() {
        group.sample_size(1);
        group.measurement_time(Duration::from_millis(1));
    }
    group.bench_function("optimize", |b| {
        let optimizer = Optimizer::new(objective);
        b.iter(|| {
            optimizer
                .optimize(&requests[0].job, &requests[0].params)
                .expect("feasible")
        })
    });
    group.bench_function("plan-hit", |b| {
        let planner = Planner::new(objective);
        let _ = planner.plan_request(&requests[0]);
        b.iter(|| planner.plan_request(&requests[0]).expect("feasible"))
    });
    group.finish();
}

/// One uncached S-Restart solve: Algorithm 1 with its Theorem 4
/// quadratures, no plan cache. Two profiles: a Google-shaped one
/// (β = 1.5) and job 102 of the converted Google 2011 golden (β = 6),
/// whose large β·r exercises the overflow-safe form of the closed-form
/// segment.
fn bench_cold_restart_solve(c: &mut Criterion) {
    let objective = UtilityModel::default();
    let profiles = [
        ("google-beta-1.5", 10, 1.5, 20.0, 100.0, 40.0, 80.0),
        ("golden-job-102-beta-6", 2, 6.0, 25.0, 60.0, 7.5, 15.0),
    ];
    let mut group = c.benchmark_group("planner-cold-s-restart");
    if smoke() {
        group.sample_size(1);
        group.measurement_time(Duration::from_millis(1));
    }
    for (name, tasks, beta, t_min, deadline, tau_est, tau_kill) in profiles {
        let job = JobProfile::builder()
            .tasks(tasks)
            .t_min(t_min)
            .beta(beta)
            .deadline(deadline)
            .build()
            .expect("valid job profile");
        let request = PlanRequest::new(
            job,
            StrategyParams::restart(tau_est, tau_kill).expect("ordered"),
        );
        let planner = Planner::new(objective);
        group.bench_function(name, |b| {
            b.iter(|| planner.solve_uncached(&request).expect("feasible"))
        });
    }
    group.finish();
}

/// One budget round of the google-budget workload: `allocate` on a fresh
/// planner over the first 188-job chunk of the synthetic Google trace
/// (3,000 jobs, trace seed 2011), every job a distinct S-Restart profile
/// with the trace timing `τ_est = 0.3·t_min`, `τ_kill = 0.6·t_min`,
/// under a binding budget of 192 copies. Each iteration pays the cold
/// solves plus the concave envelopes water-filling needs.
fn bench_budget_allocate_cold(c: &mut Criterion) {
    let chunk = GoogleTraceConfig::scaled(3_000, 2011)
        .stream(188)
        .expect("valid trace configuration")
        .next()
        .expect("a first chunk");
    let jobs: Vec<BudgetJob> = chunk
        .iter()
        .map(|spec| {
            let t_min = spec.profile.t_min();
            let job = JobProfile::builder()
                .tasks(spec.tasks.len().max(1) as u32)
                .t_min(t_min)
                .beta(spec.profile.beta())
                .deadline(spec.deadline_secs)
                .price(spec.price)
                .build()
                .expect("trace jobs have valid profiles");
            let params = StrategyParams::restart(0.3 * t_min, 0.6 * t_min).expect("ordered");
            BudgetJob::new(spec.id.raw(), PlanRequest::new(job, params))
        })
        .collect();
    let objective = UtilityModel::default();
    let budget = SpeculationBudget::Limited(192);
    let probe = Planner::new(objective);
    let allocation = allocate(&probe, &jobs, budget).expect("allocates");
    assert_eq!(probe.stats().misses, jobs.len() as u64, "distinct profiles");
    assert!(allocation.requested > 192, "the budget binds");

    let mut group = c.benchmark_group("budget-allocate-cold");
    if smoke() {
        group.sample_size(1);
        group.measurement_time(Duration::from_millis(1));
    }
    group.bench_function("google-188-jobs-s-restart", |b| {
        b.iter(|| allocate(&Planner::new(objective), &jobs, budget).expect("allocates"))
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_plan_batch_vs_uncached, bench_single_plan_lookup, bench_cold_restart_solve,
        bench_budget_allocate_cold
);
criterion_main!(benches);
