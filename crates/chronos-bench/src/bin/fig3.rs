//! Figure 3(a–c): PoCD, Cost and Utility of Mantri, Clone, S-Restart and
//! S-Resume as the tradeoff factor θ sweeps {1e-6, 1e-5, 1e-4, 1e-3}.
//!
//! Trace-driven setup (Section VII.B): synthetic Google-style trace,
//! `τ_est = 0.3·t_min`, `τ_kill = 0.6·t_min`, cost in VM-seconds per job.
//! Mantri does not optimize against θ, so its PoCD and cost are constant
//! across the sweep; only its utility changes.
//!
//! `--trace <path>` swaps the synthetic source for a `chronos-trace` v1
//! file (see `chronos_trace::loader` for the format); the θ sweep is
//! unchanged.

use chronos_bench::{
    figure3_lineup, load_trace_jobs_or_exit, measure, print_table, run_policy,
    trace_path_from_args, trace_sim_config, write_json, Measurement, Row, Scale, UtilitySpec,
};
use chronos_sim::prelude::PlanCache;
use chronos_strategies::prelude::*;
use chronos_trace::prelude::*;
use serde::Serialize;
use std::sync::Arc;

#[derive(Debug, Serialize)]
struct Fig3Cell {
    theta: f64,
    policy: String,
    pocd: f64,
    cost: f64,
    utility: f64,
    r_histogram: std::collections::BTreeMap<u32, usize>,
}

fn main() {
    let scale = Scale::from_args();
    let thetas = [1e-6, 1e-5, 1e-4, 1e-3];
    let jobs = match trace_path_from_args() {
        Some(path) => load_trace_jobs_or_exit(&path),
        None => GoogleTraceConfig::scaled(scale.trace_jobs(), 23)
            .generate()
            .expect("trace generation")
            .into_jobs(),
    };

    // One plan cache across the whole sweep: every policy of every θ point
    // memoizes into it (θ is part of the cache key, so points never read
    // each other's entries), and repeated job profiles within the trace are
    // optimized once per (strategy, θ) instead of once per job. The
    // measured numbers are bit-identical to the uncached path.
    let cache = PlanCache::shared();

    let mut cells: Vec<Fig3Cell> = Vec::new();
    for (index, theta) in thetas.iter().enumerate() {
        let chronos_config = ChronosPolicyConfig::with_theta(*theta)
            .expect("theta is valid")
            .with_timing(StrategyTiming::trace_default());
        let builder = PolicyBuilder::new(chronos_config).cached(Arc::clone(&cache));
        for (kind, policy) in figure3_lineup(&builder) {
            let report = run_policy(&trace_sim_config(29 + index as u64), policy, jobs.clone())
                .expect("simulation");
            let m: Measurement = measure(&report, UtilitySpec::new(*theta, 0.0));
            cells.push(Fig3Cell {
                theta: *theta,
                policy: kind.label().to_string(),
                pocd: m.pocd,
                cost: m.mean_machine_time,
                utility: m.utility,
                r_histogram: m.r_histogram,
            });
        }
    }

    let policies = ["mantri", "clone", "s-restart", "s-resume"];
    let table_for = |metric: &dyn Fn(&Fig3Cell) -> f64| -> Vec<Row> {
        thetas
            .iter()
            .map(|theta| {
                let values = policies
                    .iter()
                    .map(|policy| {
                        cells
                            .iter()
                            .find(|c| c.policy == *policy && c.theta == *theta)
                            .map(metric)
                            .unwrap_or(f64::NAN)
                    })
                    .collect();
                Row::new(format!("theta = {theta:e}"), values)
            })
            .collect()
    };

    print_table(
        "Figure 3(a): PoCD vs theta",
        &policies,
        &table_for(&|c| c.pocd),
    );
    print_table(
        "Figure 3(b): Cost vs theta (VM-seconds per job)",
        &policies,
        &table_for(&|c| c.cost),
    );
    print_table(
        "Figure 3(c): Utility vs theta",
        &policies,
        &table_for(&|c| c.utility),
    );

    println!("\nplan cache: {}", cache.stats());

    match write_json("fig3.json", &cells) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(err) => eprintln!("could not write results: {err}"),
    }
}
