//! What every workload reports back: per-op latencies by class, the
//! deterministic quality figures of a fixed reference prefix, check
//! failures, and layer counters for the traced run.

use std::time::Instant;

use lego_tune::rng::Rng;

/// How long a run goes on.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// A measuring window of this many seconds.
    Seconds(f64),
    /// Exactly the workload's fixed traced prefix, however long it
    /// takes, so that the traced run's work counts repeat exactly.
    Prefix,
}

impl Limit {
    /// Whether to start unit `index` (a round, cycle or grid) after
    /// `elapsed` seconds, for a workload whose traced prefix is
    /// `prefix` units long.
    pub fn more(self, elapsed: f64, index: u64, prefix: u64) -> bool {
        match self {
            Limit::Seconds(s) => elapsed < s,
            Limit::Prefix => index < prefix,
        }
    }
}

/// How an op was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Computed from scratch (fresh derivation, search or key).
    Cold,
    /// Answered from state an earlier op left behind (repeated
    /// derivation or request, memory-tier hit, transferred key).
    Warm,
    /// A duplicate of a concurrent request (served herds).
    Herd,
}

/// One completed op.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Latency in milliseconds.
    pub ms: f64,
    /// How it was served.
    pub class: Class,
}

/// A workload run's raw results.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Median wall time of one set-up, seconds.
    pub setup_s: f64,
    /// Measured window, seconds (check time excluded).
    pub busy_s: f64,
    /// Completed ops, in stream order.
    pub ops: Vec<Op>,
    /// Latencies (ms) `tail_ms` is taken over: a fixed set of ops, so
    /// the tail's percentile is the same on every run and every commit.
    pub tail_sample: Vec<f64>,
    /// Ops whose output failed a check.
    pub failed: usize,
    /// Simulated kernel times (µs) of the reference prefix's results.
    pub sim_us: Vec<f64>,
    /// Index-expression op count of the reference prefix's results.
    pub index_ops: u64,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed check with its reason (the first few reasons
    /// are kept as notes).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 5 {
            self.notes.push(format!("check failed: {why}"));
        }
    }
}

/// The per-workload random stream: seeded by the run seed, a stream
/// tag, and an index, so independent parts of a workload (rounds,
/// clients, check points) draw from independent sequences.
pub fn rng(seed: u64, tag: &str, index: u64) -> Rng {
    let base = lego_tune::rng::fnv1a(tag);
    Rng::new(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ base ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9),
    )
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut Rng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        let j = rng.below(i + 1);
        xs.swap(i, j);
    }
}

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// A workload's set-up, timed: run several times before the measured
/// window and once more between the window's units whenever a second
/// has passed, so the median samples the machine over the whole run
/// rather than at its start only (a shared host's speed can drift over
/// seconds). Spans are off while a set-up runs.
pub struct Setup<F> {
    f: F,
    times: Vec<f64>,
    last: Instant,
}

/// Set-ups run before the window.
const SETUPS_BEFORE: usize = 5;
/// Least time between two set-ups inside the window, seconds.
const SETUP_INTERVAL_S: f64 = 1.0;

impl<R, F: FnMut() -> R> Setup<F> {
    /// Runs the set-up [`SETUPS_BEFORE`] times; returns the timer and
    /// the last set-up's result.
    pub fn new(f: F) -> (Setup<F>, R) {
        let mut setup = Setup {
            f,
            times: Vec::new(),
            last: Instant::now(),
        };
        let mut result = setup.once();
        for _ in 1..SETUPS_BEFORE {
            result = setup.once();
        }
        (setup, result)
    }

    fn once(&mut self) -> R {
        let traced = crate::spans::enabled();
        crate::spans::set_enabled(false);
        let t0 = Instant::now();
        let r = (self.f)();
        self.times.push(t0.elapsed().as_secs_f64());
        crate::spans::set_enabled(traced);
        self.last = Instant::now();
        r
    }

    /// Between two units of the window: runs the set-up once more if
    /// [`SETUP_INTERVAL_S`] has passed since the last one, and returns
    /// the seconds it took (to leave out of the measured time).
    pub fn between(&mut self) -> f64 {
        if self.last.elapsed().as_secs_f64() < SETUP_INTERVAL_S {
            return 0.0;
        }
        let t0 = Instant::now();
        self.once();
        t0.elapsed().as_secs_f64()
    }

    /// Median duration of one set-up, seconds.
    pub fn median(&self) -> f64 {
        crate::stats::median(&self.times)
    }
}
