//! Figure 2(a–c): PoCD, Cost and Utility of Hadoop-NS, Hadoop-S, Clone,
//! S-Restart and S-Resume over the four testbed benchmarks.
//!
//! Setup (Section VII.A): 100 jobs of 10 map tasks per benchmark, deadlines
//! of 100 s (Sort, TeraSort) and 150 s (SecondarySort, WordCount),
//! `τ_est = 40 s`, `τ_kill = 80 s`, `θ = 1e-4`, and the PoCD of Hadoop-NS
//! used as `R_min` (which is why Hadoop-NS's own utility is −∞).
//!
//! Cost is reported in seconds of VM time per job (the paper prices the
//! same quantity with the average EC2 spot rate; only the unit differs).

use chronos_bench::{
    figure2_lineup, measure, print_table, run_policy, testbed_sim_config, write_json, Row, Scale,
    UtilitySpec,
};
use chronos_strategies::prelude::*;
use chronos_trace::prelude::*;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Fig2Cell {
    benchmark: String,
    policy: String,
    pocd: f64,
    cost: f64,
    utility: f64,
    mean_completion_secs: Option<f64>,
}

fn main() {
    let scale = Scale::from_args();
    let theta = 1e-4;
    let builder = PolicyBuilder::new(ChronosPolicyConfig::testbed());

    let mut cells: Vec<Fig2Cell> = Vec::new();
    let policy_order: Vec<&str> = vec!["hadoop-ns", "hadoop-s", "clone", "s-restart", "s-resume"];

    for (bench_index, benchmark) in Benchmark::ALL.iter().enumerate() {
        let workload = TestbedWorkload::paper_setup(*benchmark, 1_000 + bench_index as u64)
            .with_jobs(scale.fig2_jobs());
        let jobs = workload
            .generate()
            .expect("workload generation is validated");

        // First pass: Hadoop-NS defines R_min for this benchmark.
        let baseline = run_policy(
            &testbed_sim_config(42 + bench_index as u64),
            Box::new(HadoopNoSpec::default()),
            jobs.clone(),
        )
        .expect("baseline simulation");
        let r_min = baseline.pocd();

        for (kind, policy) in figure2_lineup(&builder) {
            let report = run_policy(
                &testbed_sim_config(42 + bench_index as u64),
                policy,
                jobs.clone(),
            )
            .expect("simulation");
            let m = measure(&report, UtilitySpec::new(theta, r_min));
            cells.push(Fig2Cell {
                benchmark: benchmark.label().to_string(),
                policy: kind.label().to_string(),
                pocd: m.pocd,
                cost: m.mean_machine_time,
                utility: m.utility,
                mean_completion_secs: m.mean_completion_secs,
            });
        }
    }

    let benchmarks: Vec<&str> = Benchmark::ALL.iter().map(Benchmark::label).collect();
    let table_for = |metric: &dyn Fn(&Fig2Cell) -> f64| -> Vec<Row> {
        policy_order
            .iter()
            .map(|policy| {
                let values = benchmarks
                    .iter()
                    .map(|bench| {
                        cells
                            .iter()
                            .find(|c| c.policy == *policy && c.benchmark == *bench)
                            .map(metric)
                            .unwrap_or(f64::NAN)
                    })
                    .collect();
                Row::new(*policy, values)
            })
            .collect()
    };

    print_table(
        "Figure 2(a): PoCD per benchmark",
        &benchmarks,
        &table_for(&|c| c.pocd),
    );
    print_table(
        "Figure 2(b): Cost (VM-seconds per job)",
        &benchmarks,
        &table_for(&|c| c.cost),
    );
    print_table(
        "Figure 2(c): Net utility (theta = 1e-4, R_min = Hadoop-NS PoCD)",
        &benchmarks,
        &table_for(&|c| c.utility),
    );

    match write_json("fig2.json", &cells) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(err) => eprintln!("could not write results: {err}"),
    }
}
