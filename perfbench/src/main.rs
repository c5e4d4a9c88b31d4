//! The Chronos benchmark: end-to-end and per-layer measurements of the
//! trace-replay simulator, the budgeted multi-job allocator and the online
//! admission server, over three named workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload testbed-replay --seed 1 --seconds 30 --trace 0
//! ```
//!
//! * `--workload`: `testbed-replay`, `google-budget` or `serve-open`.
//! * `--seed`: the workload seed; every input is generated from it.
//! * `--seconds`: how long the timed phase runs.
//! * `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//!   timing wrappers around every layer call and prints the per-layer
//!   metrics instead. Every workload prints every per-layer metric: one
//!   whose layer does not run in the workload reads 0 (no time spent, no
//!   events, nothing requested or granted).
//!
//! Replays run on `nproc` workers; the admission server gets `nproc − 1`
//! workers beside the benchmark's generator thread.
//!
//! Human-readable lines (host, checks, every metric with its unit) come
//! first; the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Every run checks its
//! workload's outputs and exits 1 on a mismatch. Scratch files live under
//! `.perfbench_work/` in the working directory and are removed at exit.

mod ledger;
mod replay;
mod serve;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// The workloads, by the names `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    TestbedReplay,
    GoogleBudget,
    ServeOpen,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "testbed-replay" => Ok(Workload::TestbedReplay),
            "google-budget" => Ok(Workload::GoogleBudget),
            "serve-open" => Ok(Workload::ServeOpen),
            other => Err(format!(
                "unknown workload `{other}` (expected testbed-replay, google-budget or serve-open)"
            )),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => {
                let text = value()?;
                seed = Some(text.parse().map_err(|_| format!("bad --seed `{text}`"))?);
            }
            "--seconds" => {
                let text = value()?;
                let secs: f64 = text
                    .parse()
                    .map_err(|_| format!("bad --seconds `{text}`"))?;
                if !(secs.is_finite() && secs > 0.0 && secs <= 3_600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {text}"));
                }
                seconds = Some(Duration::from_secs_f64(secs));
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The host a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Available parallelism (`nproc`).
    pub nproc: usize,
    /// CPU model name, or `unknown`.
    pub cpu: String,
}

impl Host {
    fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host { nproc, cpu }
    }
}

/// One metric of a result: a name, a value and a unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// A per-layer metric whose layer does not run in the workload; the
    /// table marks it so its 0 does not read as a perfect result.
    pub idle: bool,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric the run prints, in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (jobs replayed, requests sent).
    pub attempted: u64,
    /// Operations that errored or were refused.
    pub failed: u64,
    /// Output checks that failed, one message each.
    pub mismatches: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            idle: false,
        });
    }

    /// Records a per-layer metric whose layer does not run in this
    /// workload: it spent no time and handled nothing, so it reads 0.
    pub fn idle_layer(&mut self, name: &'static str, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value: 0.0,
            unit,
            idle: true,
        });
    }

    /// Records an output check: a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}

/// Everything a workload run needs from the command line and the host.
#[derive(Debug, Clone)]
pub struct RunContext {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub host: Host,
    /// Scratch directory for generated inputs.
    pub work_dir: PathBuf,
}

/// Peak resident set of this process in MB (`VmHWM`). Each run is one
/// process running one workload, so no other workload's peak leaks in.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The result line. Names and units are plain ASCII; values print with
/// Rust's shortest round-trip float formatting, so no digit is lost. A
/// non-finite value, which also fails the run, prints as `null`.
fn render_json(outcome: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|metric| {
            let value = if metric.value.is_finite() {
                format!("{:?}", metric.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let host = Host::detect();
    let work_dir = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
    if let Err(err) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {err}", work_dir.display());
        std::process::exit(2);
    }
    println!("host: nproc={} cpu=\"{}\"", host.nproc, host.cpu);
    let ctx = RunContext {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        host,
        work_dir: work_dir.clone(),
    };
    let mut outcome = match args.workload {
        Workload::TestbedReplay => replay::run(&ctx, replay::Shape::Testbed),
        Workload::GoogleBudget => replay::run(&ctx, replay::Shape::GoogleBudget),
        Workload::ServeOpen => serve::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    // Remove the parent too when no concurrent run still uses it.
    let _ = std::fs::remove_dir(".perfbench_work");

    let mut table = String::new();
    for metric in &outcome.metrics {
        let _ = writeln!(
            table,
            "metric {:<32} {:>18.6} {}{}",
            metric.name,
            metric.value,
            metric.unit,
            if metric.idle {
                " (layer does not run here)"
            } else {
                ""
            }
        );
    }
    print!("{table}");
    for metric in &outcome.metrics {
        if !metric.value.is_finite() {
            outcome
                .mismatches
                .push(format!("{} is not finite", metric.name));
        }
    }
    let correct = outcome.mismatches.is_empty();
    for mismatch in &outcome.mismatches {
        println!("check FAILED: {mismatch}");
    }
    if outcome.attempted > 0 {
        println!(
            "failed_share {:.6} ({} of {} operations)",
            outcome.failed as f64 / outcome.attempted as f64,
            outcome.failed,
            outcome.attempted
        );
    }
    println!("{}", render_json(&outcome, correct));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let parsed = parse_args(&args(
            "--workload serve-open --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(parsed.workload, Workload::ServeOpen);
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.seconds, Duration::from_secs(20));
        assert!(parsed.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload serve-open --seconds 1",
            "--workload serve-open --seed 1 --seconds 0",
            "--workload serve-open --seed 1 --seconds 1 --trace 2",
            "--workload serve-open --seed 1 --seconds 1 --workers 2",
            "--workload serve-open --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.metric("setup_s", 0.125, "s");
        outcome.metric("bad", f64::NAN, "s");
        outcome.idle_layer("serve.p99_us", "us");
        assert_eq!(
            render_json(&outcome, false),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}, \
             \"bad\": {\"value\": null, \"unit\": \"s\"}, \
             \"serve.p99_us\": {\"value\": 0.0, \"unit\": \"us\"}}}"
        );
    }
}
