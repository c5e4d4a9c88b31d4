//! The `serve-open` workload: one generator thread sends Poisson arrivals
//! to a `PlanServer` in an open loop.
//!
//! Traffic. Nineteen requests in twenty draw uniformly from a hot pool of
//! Google-shaped job profiles, pre-warmed into the shared `PlanCache`
//! during set-up. The pool holds more profile × strategy keys than the
//! server's 1,024-entry per-worker memo, so the memo turns over. Every
//! twentieth request carries a profile never seen before, whose cold
//! solves set the tail. Fresh profiles are generated on demand from the
//! seed, in blocks, and each is checked against every key seen so far, so
//! the supply never runs out however fast the server drains. The pool
//! size, the fresh share and the uniform draw are chosen, not fitted: no
//! trace in the repo records how often an admission server sees a profile
//! again.
//!
//! Latency is measured from outside the server with exact per-request
//! timestamps: from the request's scheduled send time to the moment the
//! benchmark observes its decision. The generator sleeps until each send
//! time and never retries; a refused request counts as failed and as
//! missing the latency limit. The main thread observes decisions by waiting
//! on each ticket in send order, so the threads the benchmark and the
//! server start are the generator plus `nproc − 1` server workers.
//!
//! Phases of one run, each with its own request stream:
//! 1. bursts of requests all due at once, `BURSTS_PER_SECOND` of them per
//!    second of `--seconds`. A burst drains at the server's capacity, the
//!    highest rate it sustains without a growing backlog; `jobs_per_s` is
//!    the median drain rate. The burst count does not depend on how fast
//!    the server drains, so neither do the fresh profiles it solves nor the
//!    memory their cache entries hold.
//! 2. the reference phase: a fixed number of requests, which the seed
//!    alone fixes, offered at 70% of the capacity just measured, so the
//!    server is loaded on any host. It gives the latency percentiles, the
//!    checked decisions digest and the planner's predicted miss rate and
//!    machine time. A fixed count keeps those means, and the memory the
//!    phase holds, independent of how fast the server is.
//!
//! The open-loop percentiles (`serve.p50_us`, `serve.p99_us`) are per-layer
//! metrics, not end-to-end ones: on a 2-vCPU virtual machine the
//! generator's wake-ups run several milliseconds late at p99, so across
//! five seeds p50 spread by a third and p99 by more than half, beyond any
//! bound a regression gate could use. An offered-rate ladder with a p99
//! limit (`max_rate_rps`) swung by more than 2× for the same reason.

use crate::replay::{submit_view, time_solves, MAX_SETUPS, MIN_SETUPS, SETUP_BUDGET};
use crate::stats::{median, quantile, quantile_sorted};
use crate::{peak_rss_mb, Outcome, RunContext};
use chronos_core::StrategyKind;
use chronos_plan::{PlanCache, PlanRequest, Planner, ProfileKey};
use chronos_serve::prelude::{
    decisions_digest, PlanServer, ServeConfig, ServeRequest, ServeResponse, Ticket,
};
use chronos_sim::ids::JobId;
use chronos_sim::metrics::LatencyHistogram;
use chronos_sim::{JobSpec, SimTime};
use chronos_strategies::prelude::{PolicyBuilder, PolicyPlanner};
use chronos_trace::prelude::GoogleTraceConfig;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hot profiles: 400 × 3 strategies = 1,200 keys, above the memo's 1,024.
const POOL_PROFILES: u32 = 400;
/// The hot pool is a fixed catalogue; `--seed` drives the traffic (pool
/// draws, send times) and the fresh profiles. A pool drawn per seed would
/// make the decision means swing with 400 heavy-tailed profiles.
const POOL_SEED: u64 = 2011;
/// One request in 20 carries a never-seen profile: its three cold solves
/// take about 2 ms on one worker, against microseconds for a hit.
const FRESH_EVERY: u64 = 20;
/// Fresh profiles are generated this many at a time.
const FRESH_BLOCK: u32 = 1_000;
/// The reference phase's offered rate, as a share of the measured capacity.
const REFERENCE_LOAD: f64 = 0.7;
/// Requests in the reference phase.
const REFERENCE_REQUESTS: usize = 20_000;
/// Requests per capacity burst; bursts per second of `--seconds`, and the
/// fewest bursts per run. On a 2-vCPU Xeon a burst drains in about 0.25 s.
const BURST_REQUESTS: usize = 2_500;
const BURSTS_PER_SECOND: f64 = 2.5;
const MIN_BURSTS: usize = 4;
/// Burst request ids start here, clear of the reference phase's.
const BURST_IDS: u64 = 1 << 40;
/// The latency limit on p99 at the reference rate, microseconds; a refused
/// request misses it.
const LATENCY_LIMIT_US: f64 = 25_000.0;
/// Queue capacity: larger than any burst, so nothing is refused for space.
const QUEUE_CAPACITY: usize = 1 << 16;

/// The per-request record of one phase.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Scheduled send time → decision observed, µs (refused: infinite).
    latency_us: f64,
    /// Scheduled send time → generator ready to send, µs.
    lag_us: f64,
    /// Time inside `submit`, µs.
    submit_us: f64,
    /// Scheduled send time → `submit` returned, µs.
    due_to_accept_us: f64,
    refused: bool,
}

/// One phase's results.
struct Phase {
    samples: Vec<Sample>,
    responses: Vec<ServeResponse>,
    /// First send time → last decision observed.
    span: Duration,
}

impl Phase {
    fn latencies_sorted(&self) -> Vec<f64> {
        let mut values: Vec<f64> = self.samples.iter().map(|s| s.latency_us).collect();
        values.sort_by(f64::total_cmp);
        values
    }

    fn refused(&self) -> u64 {
        self.samples.iter().filter(|s| s.refused).count() as u64
    }
}

/// The hot pool, its keys, and the planner parts that name a job's keys.
struct Inputs {
    pool: Vec<JobSpec>,
    pool_keys: BTreeSet<ProfileKey>,
    requests: PolicyPlanner,
    planner: Planner,
}

impl Inputs {
    fn generate(config: &ServeConfig) -> Result<Self, String> {
        let pool = GoogleTraceConfig::scaled(POOL_PROFILES, POOL_SEED)
            .generate()
            .map_err(|err| format!("pool profiles: {err}"))?
            .into_jobs();
        let (requests, planner) = admission_parts(config)?;
        let mut inputs = Inputs {
            pool,
            pool_keys: BTreeSet::new(),
            requests,
            planner,
        };
        inputs.pool_keys = inputs
            .pool
            .iter()
            .flat_map(|job| inputs.keys_of(job))
            .collect();
        Ok(inputs)
    }

    /// The plan-cache keys the server looks up for `job`.
    fn keys_of(&self, job: &JobSpec) -> Vec<ProfileKey> {
        plan_requests(std::slice::from_ref(job), &self.requests)
            .iter()
            .map(|request| self.planner.key_of(request))
            .collect()
    }
}

/// Never-seen profiles, generated from a seed in blocks of `FRESH_BLOCK`
/// as they are used up. A profile sharing a key with the pool or with an
/// earlier fresh profile is skipped.
struct FreshSupply {
    seeds: StdRng,
    seen: BTreeSet<ProfileKey>,
    /// The current block, reversed so `pop` yields generation order.
    pending: Vec<JobSpec>,
}

impl FreshSupply {
    fn new(seed: u64, inputs: &Inputs) -> Self {
        FreshSupply {
            seeds: StdRng::seed_from_u64(seed),
            seen: inputs.pool_keys.clone(),
            pending: Vec::new(),
        }
    }

    fn next(&mut self, inputs: &Inputs) -> Result<JobSpec, String> {
        if self.pending.is_empty() {
            let block = GoogleTraceConfig::scaled(FRESH_BLOCK, self.seeds.next_u64())
                .generate()
                .map_err(|err| format!("fresh profiles: {err}"))?
                .into_jobs();
            for job in block {
                let keys = inputs.keys_of(&job);
                if keys.iter().all(|key| !self.seen.contains(key)) {
                    self.seen.extend(keys);
                    self.pending.push(job);
                }
            }
            if self.pending.is_empty() {
                return Err(format!(
                    "a block of {FRESH_BLOCK} generated profiles held none unseen"
                ));
            }
            self.pending.reverse();
        }
        Ok(self.pending.pop().expect("refilled above"))
    }
}

/// One phase's request stream: its own pool draws, fresh profiles, send
/// times and request ids, all fixed by the seed it starts from.
struct Traffic<'a> {
    inputs: &'a Inputs,
    fresh: FreshSupply,
    rng: StdRng,
    first_id: u64,
    next_id: u64,
}

impl<'a> Traffic<'a> {
    fn new(inputs: &'a Inputs, seed: u64, first_id: u64) -> Self {
        Traffic {
            inputs,
            fresh: FreshSupply::new(seed ^ 0xf4e5, inputs),
            rng: StdRng::seed_from_u64(seed ^ 0x5e7e),
            first_id,
            next_id: first_id,
        }
    }

    /// The next `count` requests: every `FRESH_EVERY`-th carries a fresh
    /// profile, the rest a uniform draw from the pool.
    fn requests(&mut self, count: usize) -> Result<Vec<ServeRequest>, String> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let id = self.next_id;
            self.next_id += 1;
            let mut job = if (id - self.first_id) % FRESH_EVERY == FRESH_EVERY - 1 {
                self.fresh.next(self.inputs)?
            } else {
                let pool = &self.inputs.pool;
                pool[self.rng.gen_range(0..pool.len())].clone()
            };
            job.id = JobId::new(id);
            job.submit_time = SimTime::ZERO;
            out.push(ServeRequest {
                request_id: id,
                job,
            });
        }
        Ok(out)
    }

    /// Poisson send offsets at `rate` requests per second.
    fn schedule(&mut self, count: usize, rate: f64) -> Vec<Duration> {
        let mut at = 0.0f64;
        (0..count)
            .map(|_| {
                let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
                at += -u.ln() / rate;
                Duration::from_secs_f64(at)
            })
            .collect()
    }
}

fn admission_parts(config: &ServeConfig) -> Result<(PolicyPlanner, Planner), String> {
    PolicyBuilder::new(config.policy)
        .admission_parts()
        .map_err(|err| format!("admission planner: {err}"))
}

/// The plan requests the server makes for `jobs`: one per strategy.
fn plan_requests(jobs: &[JobSpec], requests: &PolicyPlanner) -> Vec<PlanRequest> {
    jobs.iter()
        .flat_map(|job| {
            let view = submit_view(job);
            StrategyKind::ALL
                .into_iter()
                .filter_map(move |kind| requests.request_for(&view, kind).ok())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Set-up: a fresh cache pre-warmed with every pool key on `workers`
/// threads, then the server started over it.
fn start_server(
    config: ServeConfig,
    pool: &[JobSpec],
    workers: usize,
) -> Result<PlanServer, String> {
    let cache = PlanCache::shared();
    // The server's own construction path, so the warmed keys are its keys.
    let (requests, planner) = PolicyBuilder::new(config.policy)
        .cached(Arc::clone(&cache))
        .admission_parts()
        .map_err(|err| format!("admission planner: {err}"))?;
    let warm = plan_requests(pool, &requests);
    let _ = planner.plan_batch(&warm, u32::try_from(workers).unwrap_or(u32::MAX));
    PlanServer::start_with_cache(config, cache).map_err(|err| format!("start server: {err}"))
}

/// Runs one open-loop phase: the generator thread sends `requests` at
/// `offsets` from a common start; this thread observes every decision.
fn run_phase(server: &PlanServer, requests: Vec<ServeRequest>, offsets: &[Duration]) -> Phase {
    enum Sent {
        Accepted(Ticket, Instant, Instant),
        Refused(Instant, Instant),
    }
    let count = requests.len();
    let (tx, rx) = mpsc::channel::<(Instant, Sent)>();
    let origin = Instant::now() + Duration::from_millis(5);
    let mut samples = Vec::with_capacity(count);
    let mut responses = Vec::with_capacity(count);
    let mut last_observed = origin;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (request, offset) in requests.into_iter().zip(offsets) {
                let due = origin + *offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let ready = Instant::now();
                let sent = match server.submit_one(request) {
                    Ok(ticket) => Sent::Accepted(ticket, ready, Instant::now()),
                    Err(_) => Sent::Refused(ready, Instant::now()),
                };
                if tx.send((due, sent)).is_err() {
                    break;
                }
            }
        });
        let micros = |later: Instant, earlier: Instant| {
            later.saturating_duration_since(earlier).as_secs_f64() * 1e6
        };
        for (due, sent) in rx.iter() {
            match sent {
                Sent::Accepted(ticket, ready, accepted) => {
                    responses.extend(ticket.wait());
                    let observed = Instant::now();
                    last_observed = observed;
                    samples.push(Sample {
                        latency_us: micros(observed, due),
                        lag_us: micros(ready, due),
                        submit_us: micros(accepted, ready),
                        due_to_accept_us: micros(accepted, due),
                        refused: false,
                    });
                }
                Sent::Refused(ready, returned) => samples.push(Sample {
                    latency_us: f64::INFINITY,
                    lag_us: micros(ready, due),
                    submit_us: micros(returned, ready),
                    due_to_accept_us: f64::INFINITY,
                    refused: true,
                }),
            }
        }
    });
    Phase {
        samples,
        responses,
        span: last_observed.saturating_duration_since(origin),
    }
}

/// Decides `requests` on a fresh, cold server, in batches that fit its
/// queue: the reference the warm server's decisions must match.
fn cold_digest(config: ServeConfig, requests: Vec<ServeRequest>) -> Result<String, String> {
    let server = PlanServer::start(config).map_err(|err| format!("reference server: {err}"))?;
    let mut responses = Vec::with_capacity(requests.len());
    for batch in requests.chunks(QUEUE_CAPACITY / 2) {
        let ticket = server
            .submit(batch.to_vec())
            .map_err(|err| format!("reference submit: {}", err.error))?;
        responses.extend(ticket.wait());
    }
    let _ = server.shutdown();
    Ok(decisions_digest(&responses))
}

/// The nearest-rank `q`-quantile of the decisions `after` recorded since
/// `before`, as the upper edge of its log2 bucket (the overflow bucket
/// reports its lower edge); 0 when nothing was recorded.
fn histogram_quantile_since(before: &LatencyHistogram, after: &LatencyHistogram, q: f64) -> f64 {
    let buckets: Vec<((f64, f64), u64)> = after
        .iter_buckets()
        .zip(before.iter_buckets())
        .map(|((bounds, now), (_, then))| (bounds, now.saturating_sub(then)))
        .collect();
    let total: u64 = buckets.iter().map(|(_, count)| count).sum();
    let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for ((low, high), count) in buckets {
        seen += count;
        if total > 0 && seen >= target {
            return if high.is_finite() { high } else { low };
        }
    }
    0.0
}

/// Serve metrics, which read 0 on the replays: no request reaches a server.
pub fn serve_layers_idle(outcome: &mut Outcome) {
    for (name, unit) in SERVE_LAYERS {
        outcome.idle_layer(name, unit);
    }
}

const SERVE_LAYERS: [(&str, &str); 8] = [
    ("serve.p50_us", "us"),
    ("serve.p99_us", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.refused", "count"),
    ("serve.due_to_accept_us_p99", "us"),
    ("serve.accept_to_decision_us_p99", "us"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.generator_lag_us_p99", "us"),
];

pub fn run(ctx: &RunContext) -> Outcome {
    let mut outcome = Outcome::default();
    if let Err(err) = run_checked(ctx, &mut outcome) {
        outcome.mismatches.push(err);
    }
    outcome
}

fn run_checked(ctx: &RunContext, outcome: &mut Outcome) -> Result<(), String> {
    let nproc = ctx.host.nproc;
    let server_workers = nproc.saturating_sub(1).max(1);
    if server_workers + 1 > nproc {
        println!(
            "clamped: serve needs 1 generator + 1 server worker, host has {nproc}; threads exceed nproc"
        );
    }
    let config = ServeConfig::new(
        u32::try_from(server_workers).unwrap_or(u32::MAX),
        QUEUE_CAPACITY,
    );
    let mut setup_secs = Vec::new();
    let mut ready = None;
    let setup_start = Instant::now();
    while setup_secs.is_empty()
        || (!ctx.trace
            && setup_secs.len() < MAX_SETUPS
            && (setup_secs.len() < MIN_SETUPS || setup_start.elapsed() < SETUP_BUDGET))
    {
        if let Some((old, _)) = ready.take() {
            let _ = PlanServer::shutdown(old);
        }
        let start = Instant::now();
        let inputs = Inputs::generate(&config)?;
        let server = start_server(config, &inputs.pool, nproc)?;
        setup_secs.push(start.elapsed().as_secs_f64());
        ready = Some((server, inputs));
    }
    let (server, inputs) = ready.ok_or("no set-up ran")?;
    println!(
        "serve: {server_workers} server workers + 1 generator; pool {} profiles, 1 in {FRESH_EVERY} requests fresh",
        inputs.pool.len()
    );

    // Capacity bursts.
    let mut bursts = Traffic::new(&inputs, ctx.seed ^ 0xb0b5, BURST_IDS);
    let mut drain_rates = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let burst_count = ((ctx.seconds.as_secs_f64() * BURSTS_PER_SECOND) as usize).max(MIN_BURSTS);
    while drain_rates.len() < burst_count {
        let requests = bursts.requests(BURST_REQUESTS)?;
        let burst = run_phase(&server, requests, &[Duration::ZERO; BURST_REQUESTS]);
        attempted += burst.samples.len() as u64;
        failed += burst.refused();
        drain_rates.push(burst.responses.len() as f64 / burst.span.as_secs_f64());
    }
    let capacity = median(&drain_rates);
    println!(
        "bursts: {} × {BURST_REQUESTS} requests drained at {capacity:.0} req/s (median)",
        drain_rates.len()
    );

    // The reference phase at a fixed share of that capacity.
    let rate = REFERENCE_LOAD * capacity;
    let reference_count = REFERENCE_REQUESTS;
    let mut traffic = Traffic::new(&inputs, ctx.seed, 0);
    let requests = traffic.requests(reference_count)?;
    let offsets = traffic.schedule(reference_count, rate);
    let before = server.stats();
    let reference = run_phase(&server, requests, &offsets);
    let after = server.stats();
    let cache = after.cache.since(&before.cache);
    attempted += reference.samples.len() as u64;
    failed += reference.refused();
    outcome.check(
        reference.responses.len() + reference.refused() as usize == reference_count,
        || {
            format!(
                "{} responses + {} refusals for {reference_count} requests",
                reference.responses.len(),
                reference.refused()
            )
        },
    );
    let sorted = reference.latencies_sorted();
    let lags: Vec<f64> = reference.samples.iter().map(|s| s.lag_us).collect();
    println!(
        "reference phase: {} requests at {rate:.0} req/s ({REFERENCE_LOAD} of capacity); p50 {:.1} us, p99 {:.1} us ({} samples, {} the {LATENCY_LIMIT_US} us limit); generator lag p50 {:.1} us, p99 {:.1} us",
        reference.samples.len(),
        quantile_sorted(&sorted, 0.5),
        quantile_sorted(&sorted, 0.99),
        sorted.len(),
        if quantile_sorted(&sorted, 0.99) <= LATENCY_LIMIT_US {
            "meets"
        } else {
            "misses"
        },
        quantile(&lags, 0.5),
        quantile(&lags, 0.99),
    );
    let _ = server.shutdown();

    // Only now, with the measured server gone, the cold reference server,
    // deciding the same requests regenerated from the seed.
    let digest = decisions_digest(&reference.responses);
    let reference_requests = Traffic::new(&inputs, ctx.seed, 0).requests(reference_count)?;
    let price: HashMap<u64, f64> = reference_requests
        .iter()
        .map(|request| (request.request_id, request.job.price))
        .collect();
    let expected = cold_digest(
        ServeConfig::new(u32::try_from(nproc).unwrap_or(u32::MAX), QUEUE_CAPACITY),
        reference_requests,
    )?;
    outcome.check(digest == expected, || {
        format!("warm-server decisions digest {digest} differs from the cold reference {expected}")
    });
    println!("decisions_digest {digest} (cold reference {expected})");
    outcome.attempted = attempted;
    outcome.failed = failed;

    if ctx.trace {
        let p99 = |f: &dyn Fn(&Sample) -> f64| {
            quantile(&reference.samples.iter().map(f).collect::<Vec<_>>(), 0.99)
        };
        for (name, unit) in REPLAY_LAYERS {
            outcome.idle_layer(name, unit);
        }
        outcome.metric("plan.cache_hits", cache.hits as f64, "count");
        outcome.metric("plan.cache_misses", cache.misses as f64, "count");
        outcome.metric("plan.hit_rate", cache.hit_rate(), "ratio");
        let pool_requests = plan_requests(&inputs.pool, &inputs.requests);
        let sample = &pool_requests[..pool_requests.len().min(256)];
        outcome.metric("plan.solve_ms", time_solves(&inputs.planner, sample), "ms");
        outcome.idle_layer("plan.budget_batches", "count");
        outcome.idle_layer("plan.budget_grant_share", "ratio");
        outcome.metric("serve.p50_us", quantile_sorted(&sorted, 0.5), "us");
        outcome.metric("serve.p99_us", quantile_sorted(&sorted, 0.99), "us");
        outcome.metric("serve.submit_us_p99", p99(&|s| s.submit_us), "us");
        outcome.metric("serve.refused", reference.refused() as f64, "count");
        outcome.metric(
            "serve.due_to_accept_us_p99",
            p99(&|s| s.due_to_accept_us),
            "us",
        );
        println!(
            "serve.accept_to_decision_us_p99 is the server's own log2 histogram bucket edge (coarse)"
        );
        outcome.metric(
            "serve.accept_to_decision_us_p99",
            histogram_quantile_since(&before.latency, &after.latency, 0.99),
            "us",
        );
        outcome.metric("serve.cache_hit_rate", cache.hit_rate(), "ratio");
        outcome.metric("serve.generator_lag_us_p99", p99(&|s| s.lag_us), "us");
        // The untraced run takes the same timestamps, and each latency is
        // split exactly by construction, so both ledger shares read 0: the
        // ledger checks are the replays'.
        outcome.idle_layer("bench.trace_overhead_share", "ratio");
        outcome.idle_layer("bench.unattributed_share", "ratio");
        return Ok(());
    }

    outcome.metric("setup_s", median(&setup_secs), "s");
    outcome.metric("jobs_per_s", capacity, "jobs/s");
    // The planner's own predictions for the reference requests: 1 − PoCD
    // (an infeasible job counts as a certain miss) and the expected machine
    // time, dollar cost over the job's price, of the feasible ones.
    let decided = &reference.responses;
    let miss = decided
        .iter()
        .map(|response| 1.0 - response.decision.pocd)
        .sum::<f64>()
        / decided.len().max(1) as f64;
    let feasible: Vec<f64> = decided
        .iter()
        .filter(|response| response.decision.feasible)
        .map(|response| response.decision.dollar_cost / price[&response.request_id])
        .collect();
    outcome.metric("deadline_miss_rate", miss, "ratio");
    outcome.metric(
        "machine_s_per_job",
        feasible.iter().sum::<f64>() / feasible.len().max(1) as f64,
        "VM-s",
    );
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(())
}

/// Loader, engine and policy metrics, which read 0 on serve-open: no trace
/// is loaded and no engine or policy runs.
const REPLAY_LAYERS: [(&str, &str); 14] = [
    ("trace.parse_s", "s"),
    ("trace.parse_mb_per_s", "MB/s"),
    ("sim.run_s", "s"),
    ("sim.self_s", "s"),
    ("sim.merge_s", "s"),
    ("sim.events_dispatched", "count"),
    ("sim.events_stale", "count"),
    ("sim.stale_share", "ratio"),
    ("sim.attempts", "count"),
    ("sim.placement_decisions", "count"),
    ("policy.submit_s", "s"),
    ("policy.check_s", "s"),
    ("policy.checks", "count"),
    ("policy.actions", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ServeConfig {
        ServeConfig::new(1, QUEUE_CAPACITY)
    }

    #[test]
    fn fresh_supply_outlasts_any_one_block() {
        let inputs = Inputs::generate(&config()).unwrap();
        // Enough requests to use up two whole blocks of fresh profiles.
        let count = FRESH_EVERY as usize * (2 * FRESH_BLOCK as usize + 1);
        let requests = Traffic::new(&inputs, 7, 0).requests(count).unwrap();
        assert_eq!(requests.len(), count);
        let mut fresh_keys = BTreeSet::new();
        for request in requests
            .iter()
            .skip(FRESH_EVERY as usize - 1)
            .step_by(FRESH_EVERY as usize)
        {
            for key in inputs.keys_of(&request.job) {
                assert!(
                    !inputs.pool_keys.contains(&key),
                    "fresh profile in the pool"
                );
                assert!(fresh_keys.insert(key), "fresh profile repeated");
            }
        }
        assert!(!fresh_keys.is_empty());
    }

    #[test]
    fn traffic_is_fixed_by_its_seed() {
        let inputs = Inputs::generate(&config()).unwrap();
        let digest = |seed| {
            let mut traffic = Traffic::new(&inputs, seed, 0);
            let requests = traffic.requests(100).unwrap();
            let offsets = traffic.schedule(100, 1_000.0);
            requests
                .iter()
                .map(|request| {
                    (
                        request.job.deadline_secs.to_bits(),
                        request.job.task_count(),
                    )
                })
                .zip(offsets)
                .collect::<Vec<_>>()
        };
        assert_eq!(digest(3), digest(3));
        assert_ne!(digest(3), digest(4));
    }

    #[test]
    fn histogram_quantile_counts_only_new_decisions() {
        let mut before = LatencyHistogram::new();
        for _ in 0..1_000 {
            before.record_secs(3_000.0);
        }
        let mut after = before.clone();
        for _ in 0..99 {
            after.record_secs(10.0);
        }
        after.record_secs(100.0);
        assert_eq!(histogram_quantile_since(&before, &after, 0.5), 16.0);
        assert_eq!(histogram_quantile_since(&before, &after, 1.0), 128.0);
        assert_eq!(histogram_quantile_since(&before, &before, 0.99), 0.0);
    }
}
