//! Timing wrappers around the calls the benchmark makes into each layer,
//! for the traced run.
//!
//! The wrappers time only from the benchmark's side of a layer boundary:
//! [`TimedChunks`] around the `chronos-trace` loader iterator and
//! [`TimedPolicy`] around every `chronos-strategies` policy the
//! `chronos-sim` runner builds. A [`TimedPolicy`] lives exactly as long as
//! its shard's simulation (the runner builds it when the shard starts and
//! drops it with the simulation), so its lifetime is the shard's busy time.
//! Times accumulate per wrapper and flush into the shared [`LayerClock`]
//! once, so the hot path touches no shared cache line.

use chronos_sim::policy::{
    BatchPlan, CheckSchedule, JobSubmitView, JobView, PolicyAction, SubmitDecision,
};
use chronos_sim::{SimError, SpeculationPolicy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Layer totals of one replay, in nanoseconds of thread time and counts.
#[derive(Debug)]
pub struct LayerClock {
    /// When the replay started; `last_shard_end_ns` counts from here.
    origin: Instant,
    /// The latest shard end: after it only the runner's merge is left.
    last_shard_end_ns: AtomicU64,
    pub parse_ns: AtomicU64,
    pub shard_ns: AtomicU64,
    pub submit_ns: AtomicU64,
    pub check_ns: AtomicU64,
    pub checks: AtomicU64,
    pub actions: AtomicU64,
}

/// A plain snapshot of a [`LayerClock`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerTotals {
    /// Replay start to the last shard's end (wall).
    pub pool_wall_s: f64,
    pub parse_s: f64,
    pub shard_s: f64,
    pub submit_s: f64,
    pub check_s: f64,
    pub checks: u64,
    pub actions: u64,
}

impl LayerClock {
    /// A zeroed clock whose origin is now: create it just before the replay.
    pub fn start() -> Arc<Self> {
        Arc::new(LayerClock {
            origin: Instant::now(),
            last_shard_end_ns: AtomicU64::new(0),
            parse_ns: AtomicU64::new(0),
            shard_ns: AtomicU64::new(0),
            submit_ns: AtomicU64::new(0),
            check_ns: AtomicU64::new(0),
            checks: AtomicU64::new(0),
            actions: AtomicU64::new(0),
        })
    }

    pub fn totals(&self) -> LayerTotals {
        let secs = |ns: &AtomicU64| ns.load(Ordering::Relaxed) as f64 * 1e-9;
        LayerTotals {
            pool_wall_s: secs(&self.last_shard_end_ns),
            parse_s: secs(&self.parse_ns),
            shard_s: secs(&self.shard_ns),
            submit_s: secs(&self.submit_ns),
            check_s: secs(&self.check_ns),
            checks: self.checks.load(Ordering::Relaxed),
            actions: self.actions.load(Ordering::Relaxed),
        }
    }
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Times every pull of the wrapped chunk source (the trace loader).
pub struct TimedChunks<I> {
    inner: I,
    clock: Arc<LayerClock>,
}

impl<I> TimedChunks<I> {
    pub fn new(inner: I, clock: Arc<LayerClock>) -> Self {
        TimedChunks { inner, clock }
    }
}

impl<I: Iterator> Iterator for TimedChunks<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let start = Instant::now();
        let item = self.inner.next();
        self.clock
            .parse_ns
            .fetch_add(nanos_since(start), Ordering::Relaxed);
        item
    }
}

/// Forwards every [`SpeculationPolicy`] method to the wrapped policy,
/// the defaulted ones included, timing the submit-side calls
/// (`on_job_batch`, `on_job_submit`, `on_job_submit_replayed`) and
/// `on_check`. `check_schedule` is a cheap `&self` lookup and stays in the
/// engine's share.
#[derive(Debug)]
pub struct TimedPolicy {
    inner: Box<dyn SpeculationPolicy>,
    clock: Arc<LayerClock>,
    born: Instant,
    submit_ns: u64,
    check_ns: u64,
    checks: u64,
    actions: u64,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn SpeculationPolicy>, clock: Arc<LayerClock>) -> Self {
        TimedPolicy {
            inner,
            clock,
            born: Instant::now(),
            submit_ns: 0,
            check_ns: 0,
            checks: 0,
            actions: 0,
        }
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        let clock = &self.clock;
        clock
            .last_shard_end_ns
            .fetch_max(nanos_since(clock.origin), Ordering::Relaxed);
        clock
            .shard_ns
            .fetch_add(nanos_since(self.born), Ordering::Relaxed);
        clock.submit_ns.fetch_add(self.submit_ns, Ordering::Relaxed);
        clock.check_ns.fetch_add(self.check_ns, Ordering::Relaxed);
        clock.checks.fetch_add(self.checks, Ordering::Relaxed);
        clock.actions.fetch_add(self.actions, Ordering::Relaxed);
    }
}

impl SpeculationPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_job_batch(&mut self, jobs: &[JobSubmitView]) -> Result<BatchPlan, SimError> {
        let start = Instant::now();
        let plan = self.inner.on_job_batch(jobs);
        self.submit_ns += nanos_since(start);
        plan
    }

    fn on_job_submit(&mut self, job: &JobSubmitView) -> SubmitDecision {
        let start = Instant::now();
        let decision = self.inner.on_job_submit(job);
        self.submit_ns += nanos_since(start);
        decision
    }

    fn submit_is_profile_pure(&self) -> bool {
        self.inner.submit_is_profile_pure()
    }

    fn on_job_submit_replayed(&mut self, job: &JobSubmitView, decision: SubmitDecision) {
        let start = Instant::now();
        self.inner.on_job_submit_replayed(job, decision);
        self.submit_ns += nanos_since(start);
    }

    fn check_schedule(&self, job: &JobSubmitView) -> CheckSchedule {
        self.inner.check_schedule(job)
    }

    fn on_check(&mut self, view: &JobView) -> Vec<PolicyAction> {
        let start = Instant::now();
        let actions = self.inner.on_check(view);
        self.check_ns += nanos_since(start);
        self.checks += 1;
        self.actions += actions.len() as u64;
        actions
    }
}
