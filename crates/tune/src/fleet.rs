//! Fleet-scale tuning: a driver that tunes a whole grid of
//! `(workload, size, device)` keys on a thread pool with cross-key
//! frontier transfer.
//!
//! Pre-tuning a model zoo is embarrassingly parallel *and* highly
//! self-similar: `matmul(n=4096)` on an A100 is one unit-lattice hop
//! away from `matmul(n=2048)`'s winner, and the schema-v4 cache already
//! persists each search's top-k frontier. The [`FleetDriver`] exploits
//! both:
//!
//! * **Parallelism** — a fixed pool of worker threads pulls keys from
//!   one shared FIFO ready queue. Each worker keeps its thread-local
//!   expression arena warm across every key it tunes (the same
//!   per-thread-arena economics `lego-served` relies on), and all
//!   results land in one in-memory map with a *single* merged
//!   [`TuningCache::store_many`] write at the end — one document
//!   rewrite instead of one per key.
//! * **Transfer** — before a key falls back to a cold search, it seeds
//!   from the frontier of the *nearest already-tuned key* in its
//!   `(family, device)` class under [`crate::cache::key_distance`]
//!   (size distance in log2 space, cross-device fallback at a penalty).
//!   Completed keys feed the in-memory index as the run progresses, so
//!   late keys in a sweep transfer from early ones, and a transferred
//!   search runs at a fraction of the cold budget
//!   ([`TRANSFER_BUDGET_DIVISOR`]) because its seeds already contain a
//!   near-winner.
//!
//! Determinism: each key's transfer source is fixed *before* the run —
//! the nearest earlier-in-grid key by distance, not "whatever happened
//! to finish first" — and keys only become runnable once their source
//! completed. Every search is a pure function of `(key, knobs, seeds)`,
//! so a fleet's results are bit-identical across thread counts and
//! scheduling orders (asserted by the determinism tests).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use gpu_sim::score::Estimate;
use gpu_sim::GpuConfig;
use lego_codegen::cuda::stencil::StencilShape;
use lego_codegen::tuning::{RowwiseOp, TunedConfig};

use crate::cache::{config_to_json, nearest_neighbor, CachedTuning, TuningCache};
use crate::domain::{Domain, SpaceScale};
use crate::json::Json;
use crate::request::TuneRequest;
use crate::sidecar::SidecarSession;
use crate::space::WorkloadKind;
use crate::strategy::{Budget, Strategy};

/// A transferred search runs at `cold_budget / TRANSFER_BUDGET_DIVISOR`
/// (floored at [`TRANSFER_MIN_EVALS`]): its seeds already contain a
/// near-winner, so the remaining budget only has to polish, and the cut
/// is where the fleet's keys/second win comes from.
pub const TRANSFER_BUDGET_DIVISOR: usize = 4;

/// Floor of the transferred budget, so even aggressive divisors leave
/// room to evaluate the seeds plus a polish neighborhood. Never raises
/// a budget above the cold one.
pub const TRANSFER_MIN_EVALS: usize = 32;

/// Row count of the rowwise workloads a [`FleetSpec`] expands to (the
/// tuned knob is the column block size; `m` only scales the trace).
pub const FLEET_ROWWISE_M: i64 = 256;

/// Baseline NW / LUD block size used by [`FleetSpec`] expansion (the
/// Rodinia default).
const FLEET_BASELINE_BLOCK: i64 = 16;

// ---------------------------------------------------------------------
// Grid specs
// ---------------------------------------------------------------------

/// A workload family a [`FleetSpec`] group can name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FleetFamily {
    /// Square FP16 GEMM.
    Matmul,
    /// Square FP32 transpose.
    Transpose,
    /// 3-D stencil of the given shape.
    Stencil(StencilShape),
    /// Needleman–Wunsch wavefront (baseline block 16).
    Nw,
    /// LU decomposition (baseline block 16).
    Lud,
    /// Row-wise streaming operator over [`FLEET_ROWWISE_M`] rows.
    Rowwise(RowwiseOp),
}

impl FleetFamily {
    fn parse(s: &str) -> Result<FleetFamily, String> {
        match s {
            "matmul" => Ok(FleetFamily::Matmul),
            "transpose" => Ok(FleetFamily::Transpose),
            "nw" => Ok(FleetFamily::Nw),
            "lud" => Ok(FleetFamily::Lud),
            "softmax" | "rowwise" => Ok(FleetFamily::Rowwise(RowwiseOp::Softmax)),
            "layernorm-fwd" => Ok(FleetFamily::Rowwise(RowwiseOp::LayernormFwd)),
            "layernorm-bwd" => Ok(FleetFamily::Rowwise(RowwiseOp::LayernormBwd)),
            "stencil" => Ok(FleetFamily::Stencil(StencilShape::Star(1))),
            other => match other.strip_prefix("stencil-").and_then(StencilShape::parse) {
                Some(shape) => Ok(FleetFamily::Stencil(shape)),
                None => Err(format!(
                    "unknown fleet family {other:?} (use matmul|transpose|stencil[-<shape>]|nw|lud|\
                     softmax|layernorm-fwd|layernorm-bwd|rowwise)"
                )),
            },
        }
    }

    /// The workload instance of this family at size `n`.
    pub fn kind(self, n: i64) -> WorkloadKind {
        match self {
            FleetFamily::Matmul => WorkloadKind::Matmul { n },
            FleetFamily::Transpose => WorkloadKind::Transpose { n },
            FleetFamily::Stencil(shape) => WorkloadKind::Stencil { shape, n },
            FleetFamily::Nw => WorkloadKind::Nw {
                n,
                b: FLEET_BASELINE_BLOCK,
            },
            FleetFamily::Lud => WorkloadKind::Lud {
                n,
                bs: FLEET_BASELINE_BLOCK,
            },
            FleetFamily::Rowwise(op) => WorkloadKind::Rowwise {
                op,
                m: FLEET_ROWWISE_M,
                n,
            },
        }
    }
}

impl fmt::Display for FleetFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetFamily::Matmul => f.write_str("matmul"),
            FleetFamily::Transpose => f.write_str("transpose"),
            FleetFamily::Stencil(shape) => write!(f, "stencil-{}", shape.name()),
            FleetFamily::Nw => f.write_str("nw"),
            FleetFamily::Lud => f.write_str("lud"),
            FleetFamily::Rowwise(op) => f.write_str(op.tag()),
        }
    }
}

/// One geometric size sweep of one family: `lo, lo·step, … ≤ hi`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FleetGroup {
    /// The workload family.
    pub family: FleetFamily,
    /// First size of the sweep.
    pub lo: i64,
    /// Inclusive upper bound of the sweep.
    pub hi: i64,
    /// Geometric step (≥ 2; a single-size group has `lo == hi`).
    pub step: i64,
}

impl FleetGroup {
    /// The sweep's sizes in ascending order.
    pub fn sizes(&self) -> Vec<i64> {
        let mut out = Vec::new();
        let mut n = self.lo;
        while n <= self.hi {
            out.push(n);
            match n.checked_mul(self.step) {
                Some(next) => n = next,
                None => break,
            }
        }
        out
    }
}

impl fmt::Display for FleetGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lo == self.hi {
            write!(f, "{}:{}", self.family, self.lo)
        } else {
            write!(f, "{}:{}..{}x{}", self.family, self.lo, self.hi, self.step)
        }
    }
}

/// A parsed fleet grid: comma-separated family sweeps, optionally
/// pinned to a device list.
///
/// ```text
/// matmul:512..4096x2,softmax:1k..64k@a100,h100
/// ```
///
/// means "matmul at 512, 1024, …, 4096 and softmax rows of 1024…65536
/// columns, each on both the A100 and the H100". Sizes take a `k`
/// suffix (×1024); the step after `x` defaults to 2; with no `@` the
/// driver's default device is used. The rendering round-trips
/// ([`fmt::Display`] prints the canonical form, which re-parses to an
/// equal spec).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FleetSpec {
    /// The family sweeps, in spec order.
    pub groups: Vec<FleetGroup>,
    /// Canonical device tags (empty = caller's default device).
    pub devices: Vec<String>,
}

fn parse_size(s: &str) -> Result<i64, String> {
    let (digits, mult) = match s.strip_suffix(['k', 'K']) {
        Some(d) => (d, 1024),
        None => (s, 1),
    };
    let v: i64 = digits
        .parse()
        .map_err(|_| format!("bad size {s:?} (use e.g. 512 or 4k)"))?;
    if v <= 0 {
        return Err(format!("size {s:?} must be positive"));
    }
    v.checked_mul(mult)
        .ok_or_else(|| format!("size {s:?} overflows"))
}

impl FleetSpec {
    /// Parses a grid spec (see the type docs for the syntax).
    ///
    /// # Errors
    ///
    /// Describes the malformed fragment: unknown family or device, bad
    /// size or step, empty spec.
    pub fn parse(s: &str) -> Result<FleetSpec, String> {
        let s = s.trim();
        let (body, device_list) = match s.split_once('@') {
            Some((b, d)) => (b, Some(d)),
            None => (s, None),
        };
        let mut devices = Vec::new();
        if let Some(list) = device_list {
            for tag in list.split(',') {
                let tag = tag.trim();
                let dev = gpu_sim::lookup(tag).ok_or_else(|| {
                    format!(
                        "unknown device {tag:?} (use {})",
                        gpu_sim::DEVICE_TAGS.join("|")
                    )
                })?;
                if !devices.contains(&dev.tag.to_string()) {
                    devices.push(dev.tag.to_string());
                }
            }
        }
        let mut groups = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (family, range) = part
                .split_once(':')
                .ok_or_else(|| format!("malformed group {part:?}: expected family:sizes"))?;
            let family = FleetFamily::parse(family.trim())?;
            let (lo, hi, step) = match range.split_once("..") {
                None => {
                    let n = parse_size(range.trim())?;
                    (n, n, 2)
                }
                Some((lo, rest)) => {
                    let (hi, step) = match rest.split_once('x') {
                        None => (parse_size(rest.trim())?, 2),
                        Some((hi, step)) => {
                            let step: i64 = step
                                .trim()
                                .parse()
                                .map_err(|_| format!("bad step in {part:?}"))?;
                            (parse_size(hi.trim())?, step)
                        }
                    };
                    (parse_size(lo.trim())?, hi, step)
                }
            };
            if step < 2 {
                return Err(format!("group {part:?}: step must be ≥ 2"));
            }
            if hi < lo {
                return Err(format!("group {part:?}: upper bound below lower"));
            }
            groups.push(FleetGroup {
                family,
                lo,
                hi,
                step,
            });
        }
        if groups.is_empty() {
            return Err("empty fleet spec (expected family:sizes[,...][@devices])".to_string());
        }
        Ok(FleetSpec { groups, devices })
    }

    /// Number of keys the spec expands to.
    pub fn len(&self) -> usize {
        let per_device: usize = self.groups.iter().map(|g| g.sizes().len()).sum();
        per_device * self.devices.len().max(1)
    }

    /// Whether the spec expands to no keys (never true for a parsed
    /// spec; groups reject empty sweeps).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the spec into concrete requests, every key carrying the
    /// given search knobs. Order is deterministic — per group, per
    /// device, sizes ascending — which is also the transfer topology:
    /// each key's nearest earlier sibling is its warm-start source.
    pub fn requests(
        &self,
        default_device: &GpuConfig,
        strategy: Strategy,
        budget: Budget,
        space: Option<SpaceScale>,
    ) -> Vec<TuneRequest> {
        let devices: Vec<GpuConfig> = if self.devices.is_empty() {
            vec![default_device.clone()]
        } else {
            self.devices
                .iter()
                .map(|t| gpu_sim::lookup(t).expect("tags validated at parse time"))
                .collect()
        };
        let mut out = Vec::new();
        for group in &self.groups {
            for device in &devices {
                for n in group.sizes() {
                    out.push(TuneRequest {
                        kind: group.family.kind(n),
                        device: device.clone(),
                        strategy,
                        budget,
                        space,
                    });
                }
            }
        }
        out
    }
}

impl fmt::Display for FleetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{g}")?;
        }
        if !self.devices.is_empty() {
            write!(f, "@{}", self.devices.join(","))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

/// The per-key payload of a completed fleet search or cache hit.
#[derive(Clone, Debug)]
pub struct FleetTuned {
    /// The winning configuration.
    pub config: TunedConfig,
    /// Estimate of the hand-picked default.
    pub naive: Estimate,
    /// Estimate of the winner.
    pub tuned: Estimate,
    /// Unique configurations scored (0 on a cache hit).
    pub evaluated: usize,
    /// 1-based index of the evaluation that first scored the winner
    /// (0 on a cache hit).
    pub evals_to_winner: usize,
    /// The budget the search actually ran under (`None` for exhaustive
    /// and cache hits) — reduced from the request's on a transfer.
    pub budget: Option<usize>,
    /// Evaluations the transfer saved versus the request's cold budget.
    pub evals_saved: usize,
    /// Whether the key was satisfied straight from the result map.
    pub from_cache: bool,
}

/// One grid key's outcome.
#[derive(Clone, Debug)]
pub struct FleetKeyReport {
    /// The request this key ran.
    pub request: TuneRequest,
    /// Its schema-v4 cache key.
    pub cache_key: String,
    /// The outcome (an error never aborts the fleet; dependents of a
    /// failed key fall back to cold starts).
    pub result: Result<FleetTuned, String>,
    /// `workload@device` label of the key whose frontier seeded this
    /// search (`None` for cold starts, cache hits, and same-key warm
    /// restarts).
    pub transferred_from: Option<String>,
    /// Warm-start configs offered to the search (before domain
    /// filtering).
    pub seeds: usize,
    /// Which worker ran the key.
    pub worker: usize,
    /// Wall-clock seconds this key took on its worker.
    pub elapsed_s: f64,
    /// The cache entry a fresh search produced (`None` for hits and
    /// failures): what the driver persists, and what a service promotes
    /// into its memory tier.
    pub entry: Option<CachedTuning>,
}

impl FleetKeyReport {
    /// The request class (`family@devicetag`) for metrics aggregation.
    pub fn class(&self) -> String {
        self.request.class()
    }

    /// One bench/wire row for this key.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("workload", Json::Str(self.request.kind.name())),
            ("device", Json::Str(self.request.device.tag.to_string())),
            ("class", Json::Str(self.class())),
            (
                "transferred_from",
                self.transferred_from.clone().map_or(Json::Null, Json::Str),
            ),
            ("seeds", Json::Int(self.seeds as i64)),
            ("worker", Json::Int(self.worker as i64)),
            ("elapsed_s", Json::num(self.elapsed_s)),
        ];
        match &self.result {
            Ok(t) => pairs.extend([
                ("ok", Json::Bool(true)),
                ("config", config_to_json(&t.config)),
                ("naive_s", Json::num(t.naive.time_s)),
                ("tuned_s", Json::num(t.tuned.time_s)),
                ("speedup", Json::num(t.naive.time_s / t.tuned.time_s)),
                ("evaluated", Json::Int(t.evaluated as i64)),
                ("evals_to_winner", Json::Int(t.evals_to_winner as i64)),
                (
                    "budget",
                    t.budget.map_or(Json::Null, |b| Json::Int(b as i64)),
                ),
                ("evals_saved", Json::Int(t.evals_saved as i64)),
                ("from_cache", Json::Bool(t.from_cache)),
            ]),
            Err(e) => pairs.extend([("ok", Json::Bool(false)), ("error", Json::Str(e.clone()))]),
        }
        Json::obj(pairs)
    }
}

/// Aggregated fleet counters (whole-run or per request class).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FleetCounters {
    /// Keys tuned (completed, successfully or not).
    pub keys: u64,
    /// Keys served straight from the preloaded cache / earlier result.
    pub cache_hits: u64,
    /// Fresh searches run.
    pub searched: u64,
    /// Searches seeded from a *different* key's frontier.
    pub transfers: u64,
    /// Total unique configurations scored.
    pub evals_total: u64,
    /// Sum of evals-to-winner over fresh searches.
    pub evals_to_winner_total: u64,
    /// Evaluations saved by transfer budget cuts versus cold budgets.
    pub evals_saved: u64,
    /// Keys whose search failed.
    pub errors: u64,
}

impl FleetCounters {
    fn absorb(&mut self, key: &FleetKeyReport) {
        self.keys += 1;
        match &key.result {
            Ok(t) if t.from_cache => self.cache_hits += 1,
            Ok(t) => {
                self.searched += 1;
                if key.transferred_from.is_some() {
                    self.transfers += 1;
                }
                self.evals_total += t.evaluated as u64;
                self.evals_to_winner_total += t.evals_to_winner as u64;
                self.evals_saved += t.evals_saved as u64;
            }
            Err(_) => self.errors += 1,
        }
    }

    /// Accumulates another counter set (how `lego-served` aggregates
    /// fleet runs into its live metrics).
    pub fn merge(&mut self, other: &FleetCounters) {
        self.keys += other.keys;
        self.cache_hits += other.cache_hits;
        self.searched += other.searched;
        self.transfers += other.transfers;
        self.evals_total += other.evals_total;
        self.evals_to_winner_total += other.evals_to_winner_total;
        self.evals_saved += other.evals_saved;
        self.errors += other.errors;
    }

    /// Mean evaluations to the winner over fresh searches (0 when none
    /// ran).
    pub fn mean_evals_to_winner(&self) -> f64 {
        if self.searched == 0 {
            0.0
        } else {
            self.evals_to_winner_total as f64 / self.searched as f64
        }
    }

    /// The counters as a JSON object (the shape `lego-served`'s
    /// `metrics` verb embeds per class).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("keys_tuned", Json::Int(self.keys as i64)),
            ("cache_hits", Json::Int(self.cache_hits as i64)),
            ("searched", Json::Int(self.searched as i64)),
            ("transfer_hits", Json::Int(self.transfers as i64)),
            ("evals_total", Json::Int(self.evals_total as i64)),
            ("evals_saved", Json::Int(self.evals_saved as i64)),
            ("errors", Json::Int(self.errors as i64)),
        ])
    }
}

/// The outcome of one [`FleetDriver::run`].
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Per-key outcomes, in grid order.
    pub keys: Vec<FleetKeyReport>,
    /// Worker threads the run used.
    pub threads: usize,
    /// Whether transfer was enabled.
    pub transfer: bool,
    /// End-to-end wall-clock seconds.
    pub elapsed_s: f64,
}

impl FleetReport {
    /// End-to-end keys per second.
    pub fn keys_per_s(&self) -> f64 {
        self.keys.len() as f64 / self.elapsed_s.max(1e-12)
    }

    /// Whole-run counters.
    pub fn counters(&self) -> FleetCounters {
        let mut c = FleetCounters::default();
        for k in &self.keys {
            c.absorb(k);
        }
        c
    }

    /// Counters aggregated per request class (`family@devicetag`).
    pub fn class_counters(&self) -> BTreeMap<String, FleetCounters> {
        let mut out: BTreeMap<String, FleetCounters> = BTreeMap::new();
        for k in &self.keys {
            out.entry(k.class()).or_default().absorb(k);
        }
        out
    }

    /// The run summary as a JSON object (the shape `BENCH_fleet.json`
    /// and the `fleet` verb's response carry).
    pub fn summary_json(&self) -> Json {
        let c = self.counters();
        Json::obj([
            ("keys", Json::Int(self.keys.len() as i64)),
            ("threads", Json::Int(self.threads as i64)),
            ("transfer", Json::Bool(self.transfer)),
            ("elapsed_s", Json::num(self.elapsed_s)),
            ("keys_per_s", Json::num(self.keys_per_s())),
            ("cache_hits", Json::Int(c.cache_hits as i64)),
            ("searched", Json::Int(c.searched as i64)),
            ("transfer_hits", Json::Int(c.transfers as i64)),
            ("evals_total", Json::Int(c.evals_total as i64)),
            ("evals_saved", Json::Int(c.evals_saved as i64)),
            ("mean_evals_to_winner", Json::num(c.mean_evals_to_winner())),
            ("errors", Json::Int(c.errors as i64)),
        ])
    }
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

/// The fleet driver. See the module docs for semantics.
#[derive(Clone, Debug)]
pub struct FleetDriver {
    threads: usize,
    cache: Option<TuningCache>,
    sidecar: Option<std::path::PathBuf>,
    transfer: bool,
}

impl FleetDriver {
    /// A driver with `threads` workers, transfer enabled, no cache.
    pub fn new(threads: usize) -> FleetDriver {
        FleetDriver {
            threads: threads.max(1),
            cache: None,
            sidecar: None,
            transfer: true,
        }
    }

    /// Attaches a persistent cache: its entries preload the result map
    /// (satisfying keys become instant hits, stale frontiers become
    /// seeds), and every fresh result is written back in one merged
    /// [`TuningCache::store_many`] at the end of the run.
    #[must_use]
    pub fn with_cache(mut self, path: impl Into<std::path::PathBuf>) -> FleetDriver {
        self.cache = Some(TuningCache::new(path.into()));
        self
    }

    /// Attaches a persistent memo sidecar: every worker thread installs
    /// it before taking work (so annotation and expression memos start
    /// warm), and the per-worker derived results are merged into *one*
    /// atomic sidecar write at the end of the run.
    #[must_use]
    pub fn with_sidecar(mut self, path: impl Into<std::path::PathBuf>) -> FleetDriver {
        self.sidecar = Some(path.into());
        self
    }

    /// Enables or disables frontier transfer (disabled = every miss is
    /// a cold full-budget search; the bench's baseline mode).
    #[must_use]
    pub fn with_transfer(mut self, transfer: bool) -> FleetDriver {
        self.transfer = transfer;
        self
    }

    /// Tunes every key of `grid` and returns the per-key outcomes plus
    /// run counters. Individual failures are recorded, never fatal; the
    /// merged cache write happens once, after the last key.
    pub fn run(&self, grid: &[TuneRequest]) -> FleetReport {
        let t0 = Instant::now();
        let n = grid.len();
        let keys: Vec<String> = grid.iter().map(TuneRequest::cache_key).collect();

        // Static transfer topology: each key depends on the nearest
        // comparable *earlier* key (first occurrence), decided by the
        // distance metric before anything runs. This is what keeps the
        // run deterministic — the source is a function of the grid, not
        // of scheduling.
        let mut first_at: HashMap<&str, usize> = HashMap::new();
        for (i, k) in keys.iter().enumerate() {
            first_at.entry(k.as_str()).or_insert(i);
        }
        let deps: Vec<Option<usize>> = (0..n)
            .map(|i| {
                if !self.transfer {
                    return None;
                }
                nearest_neighbor(&keys[i], keys[..i].iter().map(String::as_str))
                    .map(|k| first_at[k])
            })
            .collect();

        // The result map, preloaded from the persistent cache.
        let entries: Mutex<HashMap<String, CachedTuning>> = Mutex::new(
            self.cache
                .as_ref()
                .map(|c| c.entries().into_iter().collect())
                .unwrap_or_default(),
        );
        let results: Mutex<Vec<Option<FleetKeyReport>>> = Mutex::new(vec![None; n]);
        let ready = ReadyQueue::new(&deps);
        let threads = self.threads.min(n.max(1));
        let sidecar = self.sidecar.as_deref().map(SidecarSession::open);

        std::thread::scope(|scope| {
            for w in 0..threads {
                let (ready, entries, results) = (&ready, &entries, &results);
                let (keys, deps, sidecar) = (&keys, &deps, sidecar.as_ref());
                scope.spawn(move || {
                    if let Some(sc) = sidecar {
                        sc.install();
                    }
                    let lookup =
                        |k: &str| entries.lock().expect("entries poisoned").get(k).cloned();
                    while let Some(i) = ready.next() {
                        let own = lookup(&keys[i]);
                        let source = deps[i]
                            .filter(|&j| keys[j] != keys[i])
                            .and_then(|j| Some((&grid[j], lookup(&keys[j])?)));
                        let report = run_key(&grid[i], &keys[i], own, source, w);
                        if let Some(entry) = &report.entry {
                            entries
                                .lock()
                                .expect("entries poisoned")
                                .insert(keys[i].clone(), entry.clone());
                        }
                        results.lock().expect("results poisoned")[i] = Some(report);
                        // Dependents become runnable only now, with the
                        // entry already in the map.
                        ready.complete(i);
                    }
                    if let Some(sc) = sidecar {
                        sc.harvest();
                    }
                });
            }
        });

        if let Some(Err(e)) = sidecar.as_ref().map(SidecarSession::save) {
            // Same best-effort stance as the cache write below.
            eprintln!("fleet: sidecar write failed: {e}");
        }

        let mut reports: Vec<FleetKeyReport> = results
            .into_inner()
            .expect("results poisoned")
            .into_iter()
            .map(|r| r.expect("every key completed"))
            .collect();
        if let Some(cache) = &self.cache {
            // Fresh entries in grid order, so the merged write is
            // deterministic.
            let batch: Vec<(String, CachedTuning)> = reports
                .iter()
                .filter_map(|r| Some((r.cache_key.clone(), r.entry.clone()?)))
                .collect();
            if let Err(e) = cache.store_many(&batch) {
                // Persisting is best-effort at this layer; surface the
                // failure on every fresh key's report instead of
                // panicking a completed run.
                for r in &mut reports {
                    if matches!(&r.result, Ok(t) if !t.from_cache) {
                        r.result = Err(format!("cache write failed: {e}"));
                    }
                }
            }
        }

        FleetReport {
            keys: reports,
            threads,
            transfer: self.transfer,
            elapsed_s: t0.elapsed().as_secs_f64(),
        }
    }
}

/// Tunes one grid key on worker `w`, given the key's own map entry and
/// its transfer source's request and entry. A fresh search's report
/// carries the cache entry to publish (the caller inserts it into the
/// map *before* marking the key complete).
fn run_key(
    req: &TuneRequest,
    key: &str,
    own: Option<CachedTuning>,
    source: Option<(&TuneRequest, CachedTuning)>,
    w: usize,
) -> FleetKeyReport {
    let t0 = Instant::now();
    let report = |result, transferred_from, seeds, entry| FleetKeyReport {
        request: req.clone(),
        cache_key: key.to_string(),
        result,
        transferred_from,
        seeds,
        worker: w,
        elapsed_s: t0.elapsed().as_secs_f64(),
        entry,
    };

    // Instant hit: a preloaded or earlier-completed entry satisfies the
    // request as-is (same rule the sequential tuner and daemon apply).
    if let Some(hit) = own.as_ref().filter(|hit| req.satisfied_by(hit)) {
        let tuned = FleetTuned {
            config: hit.config,
            naive: hit.naive,
            tuned: hit.tuned,
            evaluated: 0,
            evals_to_winner: 0,
            budget: None,
            evals_saved: 0,
            from_cache: true,
        };
        return report(Ok(tuned), None, 0, None);
    }

    // Seeds: the key's own stale frontier first (a differently-searched
    // entry still knows good points), then the transfer source's.
    let domain = Domain::new(req.kind, req.effective_space());
    let mut seeds: Vec<TunedConfig> = own
        .iter()
        .flat_map(|h| h.frontier.iter().map(|(c, _)| *c))
        .collect();
    let mut transferred_from = None;
    if let Some((src_req, src)) = source {
        let survivors: Vec<TunedConfig> = src
            .frontier
            .iter()
            .map(|(c, _)| *c)
            .filter(|c| domain.contains(c))
            .collect();
        if !survivors.is_empty() {
            transferred_from = Some(format!("{}@{}", src_req.kind.name(), src_req.device.tag));
            seeds.extend(survivors);
        }
    }

    // A transferred search keeps only a fraction of the cold budget:
    // the seeds carry a near-winner, so the remainder just polishes.
    let budgeted = !matches!(req.strategy, Strategy::Exhaustive);
    let budget_override = if transferred_from.is_some() && budgeted {
        let cold = req.budget.max_evals();
        Some(Budget(
            (cold / TRANSFER_BUDGET_DIVISOR).max(TRANSFER_MIN_EVALS.min(cold)),
        ))
    } else {
        None
    };

    let tuner = req.tuner();
    let seed_count = seeds.len();
    let (result, entry) = match tuner.tune_seeded(&req.kind, &seeds, budget_override) {
        Ok(seeded) => {
            let cold = req.budget.max_evals();
            let evals_saved = if budget_override.is_some() && budgeted {
                cold.saturating_sub(seeded.result.evaluated)
            } else {
                0
            };
            let tuned = FleetTuned {
                config: seeded.result.config,
                naive: seeded.result.naive,
                tuned: seeded.result.tuned,
                evaluated: seeded.result.evaluated,
                evals_to_winner: seeded.evals_to_winner,
                budget: seeded.budget,
                evals_saved,
                from_cache: false,
            };
            let mut entry = tuner.entry_from(&seeded);
            if budget_override.is_some() {
                // A transferred entry is recorded at the request's cold
                // budget: transfer's contract — asserted by the
                // soundness tests — is cold-equivalent winner quality,
                // and recording the cut budget would make fleets
                // non-idempotent (every re-run would re-search exactly
                // the keys the fleet just tuned).
                entry.budget = Some(cold);
            }
            (Ok(tuned), Some(entry))
        }
        Err(e) => (Err(e.to_string()), None),
    };
    report(result, transferred_from, seed_count, entry)
}

// ---------------------------------------------------------------------
// The scheduler
// ---------------------------------------------------------------------

/// The shared FIFO of runnable keys. Roots (keys without a transfer
/// source) enter in grid order; a key enters only once its source has
/// completed, appended behind whatever is already waiting, so a
/// runnable key's seeds are always in the result map.
struct ReadyQueue {
    /// `dependents[j]`: the keys whose transfer source is `j`.
    dependents: Vec<Vec<usize>>,
    state: Mutex<ReadyState>,
    wake: Condvar,
}

struct ReadyState {
    queue: VecDeque<usize>,
    /// Keys not yet completed (runnable, running, or still waiting on
    /// their source). Workers exit when it reaches zero.
    remaining: usize,
}

impl ReadyQueue {
    fn new(deps: &[Option<usize>]) -> ReadyQueue {
        let mut dependents = vec![Vec::new(); deps.len()];
        let mut queue = VecDeque::new();
        for (i, dep) in deps.iter().enumerate() {
            match *dep {
                Some(j) => dependents[j].push(i),
                None => queue.push_back(i),
            }
        }
        ReadyQueue {
            dependents,
            state: Mutex::new(ReadyState {
                queue,
                remaining: deps.len(),
            }),
            wake: Condvar::new(),
        }
    }

    /// The next runnable key, blocking while every remaining key waits
    /// on one still running. `None` once every key has completed.
    fn next(&self) -> Option<usize> {
        let mut state = self.state.lock().expect("ready queue poisoned");
        loop {
            if state.remaining == 0 {
                return None;
            }
            if let Some(i) = state.queue.pop_front() {
                return Some(i);
            }
            state = self.wake.wait(state).expect("ready queue poisoned");
        }
    }

    /// Marks key `i` complete and appends its dependents to the queue.
    fn complete(&self, i: usize) {
        let mut state = self.state.lock().expect("ready queue poisoned");
        state.remaining -= 1;
        state.queue.extend(&self.dependents[i]);
        drop(state);
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_expands_the_readme_example() {
        let spec = FleetSpec::parse("matmul:512..4096x2,rowwise:1k..64k@a100,h100").unwrap();
        assert_eq!(spec.devices, vec!["a100", "h100"]);
        assert_eq!(spec.groups.len(), 2);
        assert_eq!(spec.groups[0].sizes(), vec![512, 1024, 2048, 4096]);
        assert_eq!(
            spec.groups[1].sizes(),
            vec![1024, 2048, 4096, 8192, 16384, 32768, 65536]
        );
        // 4 matmul sizes + 7 rowwise sizes, each on 2 devices.
        assert_eq!(spec.len(), 22);
        let reqs = spec.requests(&gpu_sim::a100(), Strategy::Anneal, Budget(64), None);
        assert_eq!(reqs.len(), 22);
        assert_eq!(reqs[0].kind, WorkloadKind::Matmul { n: 512 });
        assert_eq!(reqs[0].device.tag, "a100");
        assert_eq!(reqs[4].device.tag, "h100");
        assert_eq!(
            reqs[8].kind,
            WorkloadKind::Rowwise {
                op: RowwiseOp::Softmax,
                m: FLEET_ROWWISE_M,
                n: 1024
            }
        );
    }

    #[test]
    fn spec_display_round_trips() {
        for s in [
            "matmul:512..4096x2",
            "matmul:256",
            "transpose:1024..4096x4@mi300",
            "stencil-star-7pt:32..64x2,stencil-cube-27pt:48",
            "nw:512..2048x2,lud:512..2048x2@a100,h100",
            "softmax:1024..65536x2,layernorm-fwd:4096,layernorm-bwd:4096@h100",
        ] {
            let spec = FleetSpec::parse(s).unwrap();
            let printed = spec.to_string();
            let back = FleetSpec::parse(&printed).unwrap();
            assert_eq!(spec, back, "{s:?} -> {printed:?} must re-parse equal");
        }
        // Sugar forms normalize: k-suffix sizes, default step, aliases.
        let sugared = FleetSpec::parse("rowwise:1k..8kx2@a100").unwrap();
        assert_eq!(sugared.to_string(), "softmax:1024..8192x2@a100");
        assert_eq!(
            FleetSpec::parse("stencil:32").unwrap().to_string(),
            "stencil-star-7pt:32"
        );
        assert_eq!(
            FleetSpec::parse("matmul:512..4096").unwrap().to_string(),
            "matmul:512..4096x2"
        );
    }

    #[test]
    fn spec_rejects_malformed_grids() {
        for bad in [
            "",
            "matmul",
            "matmul:",
            "matmul:0",
            "matmul:-4",
            "matmul:4096..512x2",
            "matmul:512..4096x1",
            "matmul:512..4096xq",
            "frobnicate:512",
            "stencil-star-9pt:32",
            "matmul:512@v100",
            "matmul:9q",
        ] {
            assert!(FleetSpec::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    /// A synthetic forest: six roots (more than any thread count
    /// below), a chain 0 → 6 → 7 → 8 → 9, and a fan-out 1 → 10..=15.
    #[test]
    fn ready_queue_hands_out_each_key_once_after_its_source() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let mut deps: Vec<Option<usize>> = vec![None; 6];
        deps.extend([Some(0), Some(6), Some(7), Some(8)]);
        deps.extend([Some(1); 6]);
        for threads in 1..=4 {
            let queue = ReadyQueue::new(&deps);
            let done: Vec<AtomicBool> = deps.iter().map(|_| AtomicBool::new(false)).collect();
            let handed = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        while let Some(i) = queue.next() {
                            if let Some(j) = deps[i] {
                                assert!(
                                    done[j].load(Ordering::SeqCst),
                                    "key {i} handed out before its source {j} completed"
                                );
                            }
                            handed.lock().unwrap().push(i);
                            done[i].store(true, Ordering::SeqCst);
                            queue.complete(i);
                        }
                    });
                }
            });
            let mut handed = handed.into_inner().unwrap();
            if threads == 1 {
                // FIFO: roots in grid order, then dependents in the
                // order their sources completed.
                assert_eq!(
                    handed,
                    [0, 1, 2, 3, 4, 5, 6, 10, 11, 12, 13, 14, 15, 7, 8, 9]
                );
            }
            handed.sort_unstable();
            assert_eq!(
                handed,
                (0..deps.len()).collect::<Vec<_>>(),
                "{threads} threads must hand out every key exactly once"
            );
        }
    }

    #[test]
    fn transfer_deps_point_at_nearest_earlier_same_class_key() {
        let spec = FleetSpec::parse("matmul:256..1024x2@a100,h100").unwrap();
        let grid = spec.requests(&gpu_sim::a100(), Strategy::Anneal, Budget(64), None);
        let keys: Vec<String> = grid.iter().map(TuneRequest::cache_key).collect();
        // a100: 256, 512, 1024 then h100: 256, 512, 1024.
        // First key has no earlier sibling.
        assert_eq!(
            nearest_neighbor(&keys[0], keys[..0].iter().map(String::as_str)),
            None
        );
        // a100 512 transfers from a100 256; a100 1024 from a100 512.
        assert_eq!(
            nearest_neighbor(&keys[1], keys[..1].iter().map(String::as_str)),
            Some(keys[0].as_str())
        );
        assert_eq!(
            nearest_neighbor(&keys[2], keys[..2].iter().map(String::as_str)),
            Some(keys[1].as_str())
        );
        // h100 256 has no same-device sibling yet: cross-device
        // fallback to a100 256 (distance = the device penalty).
        assert_eq!(
            nearest_neighbor(&keys[3], keys[..3].iter().map(String::as_str)),
            Some(keys[0].as_str())
        );
        // h100 512 prefers its same-device neighbor over the exact-size
        // cross-device one.
        assert_eq!(
            nearest_neighbor(&keys[4], keys[..4].iter().map(String::as_str)),
            Some(keys[3].as_str())
        );
    }
}
