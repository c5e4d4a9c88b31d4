//! The two replay workloads: a trace file streamed from disk through the
//! sharded simulator.
//!
//! * `testbed-replay`: the paper's testbed Sort workload (one analytical
//!   profile, 4 tasks per job, 2 s mean inter-arrival) on a homogeneous
//!   50×8 pool, replayed through S-Resume over a shared `PlanCache`. The
//!   planner solves once per replay and placement takes the most-free path,
//!   so the loader and the engine do nearly all the work.
//! * `google-budget`: a synthetic Google-2011-shaped trace (heavy-tailed
//!   task counts, log-normal `t_min`, so nearly every job has its own
//!   profile) replayed through budget-capped S-Restart with deadline-aware
//!   placement on a pool where a quarter of the nodes run 2.5× slower.
//!   Cold planner solves, budget water-filling and placement dominate.
//!
//! Every replay starts from a fresh plan cache and allocation ledger, so
//! each one pays the same solves. Each run checks that every timed replay,
//! traced or not, reproduces a 1-worker reference replay in event counts,
//! report digest and allocation digest.

use crate::ledger::{LayerClock, LayerTotals, TimedChunks, TimedPolicy};
use crate::stats::{median, Fnv};
use crate::{peak_rss_mb, Outcome, RunContext};
use chronos_core::StrategyKind;
use chronos_obs::{DecisionTrace, TraceEvent};
use chronos_plan::{CacheStats, PlanCache, Planner};
use chronos_sim::policy::JobSubmitView;
use chronos_sim::{
    ClusterSpec, EstimatorKind, JobSpec, JvmModel, PlacementPolicy, ShardSpec, ShardedRunner,
    SimConfig, SimulationReport, SpeculationPolicy,
};
use chronos_strategies::prelude::{
    AllocationLedger, ChronosPolicyConfig, LedgerSummary, PolicyBuilder, PolicyKind,
    SpeculationBudget, StrategyTiming,
};
use chronos_trace::prelude::{
    Benchmark, ContentionLevel, ContentionModel, GoogleTraceConfig, TestbedWorkload, TraceLoader,
    TraceWriter,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which replay workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Testbed,
    GoogleBudget,
}

/// testbed-replay size: 50k jobs in 32 chunks of 1,563. On a shared 2-vCPU
/// host, six runs at 200k jobs (88 MB resident) spread from 208k to 267k
/// jobs/s; six runs at 50k, alternating with them, stayed within 4% of
/// each other but for one.
const TESTBED_JOBS: u32 = 50_000;
const TESTBED_CHUNKS: u32 = 32;

/// google-budget size: jobs, chunks (= budget rounds) and pool.
const GOOGLE_JOBS: u32 = 3_000;
const GOOGLE_CHUNKS: u32 = 16;
const GOOGLE_NODES: u32 = 100;
/// A quarter of the google-budget pool runs this many times slower.
const GOOGLE_SLOW_FACTOR: f64 = 2.5;

/// The google-budget trace is a fixed catalogue of jobs; `--seed` drives
/// the simulation (task times, straggler draws) and which nodes are slow.
/// A trace drawn per seed would make every end-to-end figure swing with
/// its few hundred largest jobs.
const GOOGLE_TRACE_SEED: u64 = 2011;
/// Copies the allocator may grant per planning round (one round per
/// chunk). Small enough that every round requests more than it can have.
const GOOGLE_BUDGET_PER_ROUND: u64 = 192;

/// Set-up runs at least `MIN_SETUPS` times and until `SETUP_BUDGET` is
/// spent (at most `MAX_SETUPS` times); `setup_s` is the median.
pub const MIN_SETUPS: usize = 5;
pub const MAX_SETUPS: usize = 500;
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Fewest timed replays per run, whatever `--seconds` says.
const MIN_REPLAYS: usize = 3;

impl Shape {
    fn jobs(self) -> u32 {
        match self {
            Shape::Testbed => TESTBED_JOBS,
            Shape::GoogleBudget => GOOGLE_JOBS,
        }
    }

    fn chunk_size(self) -> u32 {
        match self {
            Shape::Testbed => TESTBED_JOBS.div_ceil(TESTBED_CHUNKS),
            Shape::GoogleBudget => GOOGLE_JOBS.div_ceil(GOOGLE_CHUNKS),
        }
    }

    fn strategy(self) -> StrategyKind {
        match self {
            Shape::Testbed => StrategyKind::SpeculativeResume,
            Shape::GoogleBudget => StrategyKind::SpeculativeRestart,
        }
    }

    fn policy_config(self) -> ChronosPolicyConfig {
        match self {
            Shape::Testbed => ChronosPolicyConfig::testbed(),
            Shape::GoogleBudget => {
                ChronosPolicyConfig::testbed().with_timing(StrategyTiming::trace_default())
            }
        }
    }

    fn sim_config(self, seed: u64, workers: usize) -> SimConfig {
        let (cluster, estimator, chunks) = match self {
            Shape::Testbed => (
                ClusterSpec::homogeneous(50, 8),
                EstimatorKind::ChronosJvmAware,
                TESTBED_CHUNKS,
            ),
            Shape::GoogleBudget => {
                let mut cluster = ClusterSpec::homogeneous(GOOGLE_NODES, 8)
                    .with_placement(PlacementPolicy::DeadlineAware);
                cluster.slowdowns = slow_nodes(seed);
                (cluster, EstimatorKind::HadoopDefault, GOOGLE_CHUNKS)
            }
        };
        SimConfig {
            cluster,
            jvm: JvmModel::default(),
            estimator,
            progress_report_interval_secs: 1.0,
            seed,
            max_events: 0,
            sharding: ShardSpec::new(chunks, u32::try_from(workers).unwrap_or(u32::MAX)),
        }
    }

    /// Generates the workload from `seed` and writes it as a chronos-trace
    /// v1 file, chunk by chunk.
    fn write_trace(self, seed: u64, path: &Path) -> Result<(), String> {
        let jobs = self.jobs();
        let mut writer = TraceWriter::create(path, Some(u64::from(jobs)))
            .map_err(|err| format!("create trace: {err}"))?;
        let chunks: Box<dyn Iterator<Item = Vec<JobSpec>>> = match self {
            Shape::Testbed => {
                let mut workload =
                    TestbedWorkload::paper_setup(Benchmark::Sort, seed).with_jobs(jobs);
                workload.tasks_per_job = 4;
                workload.mean_interarrival_secs = 2.0;
                // Heavy background load (β = 1.2): enough stragglers that
                // about 280 jobs miss their deadline, so the miss rate
                // moves little from seed to seed.
                workload.contention = ContentionModel::new(ContentionLevel::Heavy, seed);
                Box::new(
                    workload
                        .stream(self.chunk_size())
                        .map_err(|err| format!("testbed workload: {err}"))?,
                )
            }
            Shape::GoogleBudget => Box::new(
                GoogleTraceConfig::scaled(jobs, GOOGLE_TRACE_SEED)
                    .stream(self.chunk_size())
                    .map_err(|err| format!("google trace: {err}"))?,
            ),
        };
        for chunk in chunks {
            writer
                .write_all(&chunk)
                .map_err(|err| format!("write trace: {err}"))?;
        }
        writer
            .finish()
            .map_err(|err| format!("finish trace: {err}"))?;
        Ok(())
    }
}

/// Per-node slowdowns of the google-budget pool: exactly a quarter of the
/// nodes are slow, which ones drawn from `seed`. A fixed count keeps the
/// pool's capacity the same for every seed.
fn slow_nodes(seed: u64) -> Vec<f64> {
    let mut slowdowns = vec![1.0; GOOGLE_NODES as usize];
    for slot in &mut slowdowns[..(GOOGLE_NODES / 4) as usize] {
        *slot = GOOGLE_SLOW_FACTOR;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51_0e);
    for i in (1..slowdowns.len()).rev() {
        slowdowns.swap(i, rng.gen_range(0..=i));
    }
    slowdowns
}

/// The deterministic outputs every replay of one input must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    jobs: usize,
    events_dispatched: u64,
    events_stale: u64,
    report_digest: String,
    allocation_digest: Option<String>,
}

/// FNV-1a over every job's metrics (floats by their bits) and the engine
/// counters: equal digests mean bit-identical reports.
fn report_digest(report: &SimulationReport) -> String {
    let mut hash = Fnv::new();
    for (id, job) in &report.jobs {
        hash.word(id.raw());
        hash.word(job.submitted_at.as_micros());
        hash.word(job.completed_at.map_or(u64::MAX, |at| at.as_micros()));
        hash.word(u64::from(job.met_deadline));
        hash.word(job.deadline_secs.to_bits());
        hash.word(job.machine_time_secs.to_bits());
        hash.word(job.cost.to_bits());
        hash.word(u64::from(job.attempts_launched));
        hash.word(u64::from(job.attempts_killed));
        hash.word(job.chosen_r.map_or(u64::MAX, u64::from));
    }
    hash.word(report.events_dispatched);
    hash.word(report.events_stale);
    hash.word(report.ended_at.as_micros());
    hash.hex()
}

/// One replay's results.
struct Replay {
    report: SimulationReport,
    cache: CacheStats,
    ledger: Option<(String, LedgerSummary)>,
    /// Open the trace file → merged report.
    wall: Duration,
    /// Traced replays: the runner's decision trace and the layer totals.
    trace: Option<(DecisionTrace, LayerTotals)>,
}

impl Replay {
    fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            jobs: self.report.job_count(),
            events_dispatched: self.report.events_dispatched,
            events_stale: self.report.events_stale,
            report_digest: report_digest(&self.report),
            allocation_digest: self.ledger.as_ref().map(|(digest, _)| digest.clone()),
        }
    }
}

/// Streams `path` through the sharded runner on `workers` threads, with a
/// fresh plan cache (and ledger, for google-budget). `traced` wraps the
/// loader and every policy in the layer timers and records the runner's
/// decision trace.
fn replay(
    shape: Shape,
    seed: u64,
    path: &Path,
    workers: usize,
    traced: bool,
) -> Result<Replay, String> {
    let runner = ShardedRunner::new(shape.sim_config(seed, workers))
        .map_err(|err| format!("runner config: {err}"))?;
    let cache = PlanCache::shared();
    let ledger = (shape == Shape::GoogleBudget).then(AllocationLedger::shared);
    let mut builder = PolicyBuilder::new(shape.policy_config()).cached(Arc::clone(&cache));
    if let Some(ledger) = &ledger {
        builder = builder
            .budgeted(SpeculationBudget::Limited(GOOGLE_BUDGET_PER_ROUND))
            .with_ledger(Arc::clone(ledger));
    }
    let kind = match shape.strategy() {
        StrategyKind::SpeculativeResume => PolicyKind::SpeculativeResume,
        _ => PolicyKind::SpeculativeRestart,
    };
    // Fail before timing starts if the builder rejects the configuration.
    builder
        .build(kind)
        .map_err(|err| format!("policy: {err}"))?;
    let build =
        |_shard: u64| -> Box<dyn SpeculationPolicy> { builder.build(kind).expect("checked above") };
    let clock = LayerClock::start();
    let start = Instant::now();
    let stream = TraceLoader::open(path)
        .and_then(|loader| loader.stream(shape.chunk_size()))
        .map_err(|err| format!("open trace: {err}"))?;
    let (report, stats, trace) = if traced {
        let (report, stats, trace) = runner
            .run_chunked_fallible_planned_observed(
                &cache,
                TimedChunks::new(stream, Arc::clone(&clock)),
                |shard, _| Box::new(TimedPolicy::new(build(shard), Arc::clone(&clock))),
                None,
            )
            .map_err(|err| format!("replay: {err}"))?;
        (report, stats, Some(trace))
    } else {
        let (report, stats) = runner
            .run_chunked_fallible_planned(&cache, stream, |shard, _| build(shard))
            .map_err(|err| format!("replay: {err}"))?;
        (report, stats, None)
    };
    let wall = start.elapsed();
    Ok(Replay {
        report,
        cache: stats,
        ledger: ledger.map(|ledger| (ledger.digest(), ledger.summary())),
        wall,
        trace: trace.map(|trace| (trace, clock.totals())),
    })
}

/// Mean cold `Planner::solve_uncached` time in ms per distinct (profile,
/// strategy) key of the trace, over at most `limit` keys in trace order.
fn cold_solve_ms(shape: Shape, path: &Path, limit: usize) -> Result<f64, String> {
    let jobs = TraceLoader::open(path)
        .and_then(|loader| loader.load())
        .map_err(|err| format!("load trace: {err}"))?;
    let (requests, planner) = PolicyBuilder::new(shape.policy_config())
        .admission_parts()
        .map_err(|err| format!("planner: {err}"))?;
    let mut seen = BTreeSet::new();
    let mut distinct = Vec::new();
    for job in &jobs {
        let view = submit_view(job);
        let Ok(request) = requests.request_for(&view, shape.strategy()) else {
            continue;
        };
        if seen.insert(planner.key_of(&request)) {
            distinct.push(request);
            if distinct.len() == limit {
                break;
            }
        }
    }
    Ok(time_solves(&planner, &distinct))
}

/// Mean wall time of `Planner::solve_uncached` over `requests`, in ms. A
/// lone request is solved several times so the figure is not one sample.
pub fn time_solves(planner: &Planner, requests: &[chronos_plan::PlanRequest]) -> f64 {
    if requests.is_empty() {
        return 0.0;
    }
    let rounds = (16 / requests.len()).max(1);
    let start = Instant::now();
    for _ in 0..rounds {
        for request in requests {
            std::hint::black_box(planner.solve_uncached(std::hint::black_box(request))).ok();
        }
    }
    start.elapsed().as_secs_f64() * 1e3 / (rounds * requests.len()) as f64
}

/// The submit-time view of a job, as the engine builds it.
pub fn submit_view(job: &JobSpec) -> JobSubmitView {
    JobSubmitView {
        job: job.id,
        task_count: u32::try_from(job.task_count()).unwrap_or(u32::MAX),
        deadline_secs: job.deadline_secs,
        price: job.price,
        profile: job.profile,
    }
}

/// Runs one replay workload: set-up, the 1-worker check, then timed
/// replays (untraced) or alternating untraced and traced replays (traced).
pub fn run(ctx: &RunContext, shape: Shape) -> Outcome {
    let mut outcome = Outcome::default();
    if let Err(err) = run_checked(ctx, shape, &mut outcome) {
        outcome.mismatches.push(err);
    }
    outcome
}

fn run_checked(ctx: &RunContext, shape: Shape, outcome: &mut Outcome) -> Result<(), String> {
    let path = ctx.work_dir.join("workload.trace");
    let mut setup_secs = Vec::new();
    let setup_start = Instant::now();
    while setup_secs.is_empty()
        || (!ctx.trace
            && setup_secs.len() < MAX_SETUPS
            && (setup_secs.len() < MIN_SETUPS || setup_start.elapsed() < SETUP_BUDGET))
    {
        let start = Instant::now();
        shape.write_trace(ctx.seed, &path)?;
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let trace_bytes = std::fs::metadata(&path)
        .map_err(|err| format!("stat trace: {err}"))?
        .len();

    // The reference: a 1-worker replay. Every timed replay, on all workers
    // and traced or not, must reproduce it bit for bit; on google-budget
    // that includes every budget grant.
    let reference = replay(shape, ctx.seed, &path, 1, false)?;
    let expected = reference.fingerprint();
    check_reference(shape, &reference, outcome);
    println!(
        "reference (1 worker): jobs={} events_dispatched={} events_stale={} report_digest={} allocation_digest={}",
        expected.jobs,
        expected.events_dispatched,
        expected.events_stale,
        expected.report_digest,
        expected.allocation_digest.as_deref().unwrap_or("-"),
    );

    // Untraced replays keep only their wall time, so the peak resident set
    // is one replay's, not the sum of every report the run produced.
    let mut walls: Vec<f64> = Vec::new();
    let mut traced: Vec<Replay> = Vec::new();
    let start = Instant::now();
    while start.elapsed() < ctx.seconds
        || walls.len() < MIN_REPLAYS
        || (ctx.trace && traced.len() < MIN_REPLAYS)
    {
        let trace_turn = ctx.trace && traced.len() < walls.len();
        let run = replay(shape, ctx.seed, &path, ctx.host.nproc, trace_turn)?;
        let got = run.fingerprint();
        outcome.check(got == expected, || {
            format!(
                "{} replay on {} workers diverged from the 1-worker reference: {got:?} vs {expected:?}",
                if trace_turn { "traced" } else { "untraced" },
                ctx.host.nproc
            )
        });
        outcome.attempted += got.jobs as u64;
        if trace_turn {
            traced.push(run);
        } else {
            walls.push(run.wall.as_secs_f64());
        }
    }
    println!(
        "replays: {} untraced, {} traced on {} workers; trace file {} bytes",
        walls.len(),
        traced.len(),
        ctx.host.nproc,
        trace_bytes
    );

    let rates: Vec<f64> = walls
        .iter()
        .map(|wall| expected.jobs as f64 / wall)
        .collect();
    if ctx.trace {
        layer_metrics(ctx, shape, &path, trace_bytes, &walls, &traced, outcome)?;
    } else {
        let report = &reference.report;
        println!(
            "replay wall: median {:.4} s, min {:.4} s, max {:.4} s over {} replays of {} jobs",
            median(&walls),
            walls.iter().copied().fold(f64::INFINITY, f64::min),
            walls.iter().copied().fold(0.0, f64::max),
            walls.len(),
            report.job_count()
        );
        outcome.metric("setup_s", median(&setup_secs), "s");
        outcome.metric("jobs_per_s", median(&rates), "jobs/s");
        outcome.metric("deadline_miss_rate", 1.0 - report.pocd(), "ratio");
        outcome.metric("machine_s_per_job", report.mean_machine_time(), "VM-s");
        outcome.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    Ok(())
}

/// Checks on the reference replay that do not need a second replay.
fn check_reference(shape: Shape, reference: &Replay, outcome: &mut Outcome) {
    let report = &reference.report;
    outcome.check(report.job_count() == shape.jobs() as usize, || {
        format!(
            "replay covered {} jobs, the trace holds {}",
            report.job_count(),
            shape.jobs()
        )
    });
    outcome.check(report.latency.unfinished() == 0, || {
        format!("{} jobs never finished", report.latency.unfinished())
    });
    let miss = 1.0 - report.pocd();
    outcome.check(miss > 0.0 && miss < 1.0, || {
        format!("deadline miss rate {miss} is degenerate")
    });
    match shape {
        Shape::Testbed => outcome.check(reference.cache.misses == 1, || {
            format!(
                "testbed replay solved {} profiles, expected exactly 1",
                reference.cache.misses
            )
        }),
        Shape::GoogleBudget => {
            if let Some((_, summary)) = &reference.ledger {
                println!(
                    "budget: granted {} of {} requested copies over {} rounds of {}",
                    summary.spent, summary.requested, summary.batches, GOOGLE_BUDGET_PER_ROUND
                );
                outcome.check(summary.spent < summary.requested, || {
                    format!(
                        "budget does not bind: granted {} of {} requested copies",
                        summary.spent, summary.requested
                    )
                });
                outcome.check(
                    summary.spent <= GOOGLE_BUDGET_PER_ROUND * summary.batches,
                    || {
                        format!(
                            "allocator overspent: {} copies over {} rounds of {}",
                            summary.spent, summary.batches, GOOGLE_BUDGET_PER_ROUND
                        )
                    },
                );
            } else {
                outcome.check(false, || "google-budget replay kept no ledger".into());
            }
        }
    }
}

/// The per-layer metrics of the traced run: means over the traced replays.
fn layer_metrics(
    ctx: &RunContext,
    shape: Shape,
    path: &Path,
    trace_bytes: u64,
    plain_walls: &[f64],
    traced: &[Replay],
    outcome: &mut Outcome,
) -> Result<(), String> {
    let count = traced.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Replay) -> f64| traced.iter().map(f).sum::<f64>() / count;
    let layers = |run: &Replay| {
        run.trace
            .as_ref()
            .map(|(_, totals)| *totals)
            .unwrap_or_default()
    };
    let parse_s = mean(&|run| layers(run).parse_s);
    let shard_s = mean(&|run| layers(run).shard_s);
    let submit_s = mean(&|run| layers(run).submit_s);
    let check_s = mean(&|run| layers(run).check_s);
    let wall_s = mean(&|run| run.wall.as_secs_f64());
    let traced_walls: Vec<f64> = traced.iter().map(|run| run.wall.as_secs_f64()).collect();
    let first = &traced[0];
    let report = &first.report;
    let placements = first.trace.as_ref().map_or(0, |(trace, _)| {
        trace
            .records()
            .filter(|record| matches!(record.event, TraceEvent::PlacementDecision { .. }))
            .count()
    });
    // Layer times are thread-seconds. Until the last shard ends, `workers`
    // threads are available; after it, one thread merges the shard reports
    // and traces. The ledger's whole is the sum of the two.
    let pool_wall_s = mean(&|run| layers(run).pool_wall_s);
    let merge_s = (wall_s - pool_wall_s).max(0.0);
    let thread_s = pool_wall_s * ctx.host.nproc as f64 + merge_s;
    let self_s = shard_s - submit_s - check_s;
    let attributed = parse_s + submit_s + check_s + self_s + merge_s;
    let pops = report.events_dispatched + report.events_stale;
    println!(
        "ledger: {:.4} of {:.4} thread-s attributed ({} workers × {:.4} s until the last shard ends, then {:.4} s of merge); layer times are thread-seconds per replay",
        attributed, thread_s, ctx.host.nproc, pool_wall_s, merge_s
    );
    outcome.metric("trace.parse_s", parse_s, "s");
    outcome.metric(
        "trace.parse_mb_per_s",
        trace_bytes as f64 / 1e6 / parse_s.max(1e-9),
        "MB/s",
    );
    outcome.metric("sim.run_s", wall_s, "s");
    outcome.metric("sim.self_s", self_s, "s");
    outcome.metric("sim.merge_s", merge_s, "s");
    outcome.metric(
        "sim.events_dispatched",
        report.events_dispatched as f64,
        "count",
    );
    outcome.metric("sim.events_stale", report.events_stale as f64, "count");
    outcome.metric(
        "sim.stale_share",
        report.events_stale as f64 / pops.max(1) as f64,
        "ratio",
    );
    outcome.metric("sim.attempts", report.total_attempts() as f64, "count");
    outcome.metric("sim.placement_decisions", placements as f64, "count");
    outcome.metric("policy.submit_s", submit_s, "s");
    outcome.metric("policy.check_s", check_s, "s");
    outcome.metric(
        "policy.checks",
        first.trace.as_ref().map_or(0, |(_, t)| t.checks) as f64,
        "count",
    );
    outcome.metric(
        "policy.actions",
        first.trace.as_ref().map_or(0, |(_, t)| t.actions) as f64,
        "count",
    );
    outcome.metric("plan.cache_hits", first.cache.hits as f64, "count");
    outcome.metric("plan.cache_misses", first.cache.misses as f64, "count");
    outcome.metric("plan.hit_rate", first.cache.hit_rate(), "ratio");
    outcome.metric("plan.solve_ms", cold_solve_ms(shape, path, 256)?, "ms");
    if let Some((_, summary)) = &first.ledger {
        outcome.metric("plan.budget_batches", summary.batches as f64, "count");
        outcome.metric(
            "plan.budget_grant_share",
            summary.spent as f64 / summary.requested.max(1) as f64,
            "ratio",
        );
    } else {
        outcome.idle_layer("plan.budget_batches", "count");
        outcome.idle_layer("plan.budget_grant_share", "ratio");
    }
    crate::serve::serve_layers_idle(outcome);
    outcome.metric(
        "bench.trace_overhead_share",
        median(&traced_walls) / median(plain_walls) - 1.0,
        "ratio",
    );
    outcome.metric(
        "bench.unattributed_share",
        1.0 - attributed / thread_s,
        "ratio",
    );
    Ok(())
}
