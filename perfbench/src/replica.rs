//! The traced decomposition of one exhaustive tuning request.
//!
//! `lego_tune::run_search` and `gpu_sim::CostModel::price` run their
//! layers inside one call, so the traced run re-composes the same
//! search from the layers' public functions — enumerate, annotate,
//! build, bound, trace replay, coalescing, L2, bank conflicts, tile
//! touches, assembly — with a span around each. The composition mirrors
//! the exhaustive arm of `run_search` step for step (chunked bound
//! pruning, per-thread traffic memo probed before tracing, first-best
//! tie breaking), so it returns the same winner, estimates, evaluated
//! and pruned counts; `tests::replica_matches_run_search` pins that.
//!
//! To give trace generation its own interval, every phase is replayed
//! twice: once into a sink that does nothing (`gpusim.trace_gen`) and
//! once into a capture buffer (`bench.capture`, benchmark overhead)
//! whose warps are then fed to the coalescing, L2, bank and tile models
//! chunk by chunk, each chunk in its own span.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use gpu_sim::score::{Estimate, Phase, Workload};
use gpu_sim::{
    bank_conflicts_elems_on, coalesce_elems_on, Cache, CostModel, GpuConfig, TileCache, TrafficCost,
};
use lego_core::Layout;
use lego_tune::cache::config_to_json;
use lego_tune::strategy::rank;
use lego_tune::{build_layout, build_workload, Candidate, Domain, SpaceScale, WorkloadKind};
use lego_tune::{TunedConfig, FRONTIER_K};

use crate::spans::{count, span};

/// Lanes buffered before the captured warps are fed to the models.
const CHUNK_LANES: usize = 1 << 16;

/// Candidates between bound-threshold recomputations (as in
/// `run_search`'s pruned sweep).
const PRUNE_CHUNK: usize = 32;

thread_local! {
    /// The replica's per-thread traffic memo, keyed like the cost
    /// model's own (which is private to `gpu_sim`).
    static MEMO: RefCell<HashMap<String, TrafficCost>> = RefCell::new(HashMap::new());
}

/// The traffic-memo key of a (layout, workload) pair, built from the
/// same public fields the cost model keys on; `None` = uncacheable.
fn memo_key(cfg: &GpuConfig, layout: &Layout, workload: &Workload) -> Option<String> {
    let prefix = workload.traffic_key.as_deref()?;
    let mut key = String::with_capacity(prefix.len() + 96);
    key.push_str(prefix);
    let _ = write!(
        key,
        "|{}:w{}:s{}:c{}:b{}x{}:m{}",
        cfg.tag,
        cfg.warp_size,
        cfg.sector_bytes,
        cfg.l2_bytes,
        cfg.smem_banks,
        cfg.bank_bytes,
        cfg.sm_count
    );
    match workload.l2 {
        Some(m) => {
            let _ = write!(key, "|l2:{}:{}", m.lines, m.assoc);
        }
        None => key.push_str("|l2-"),
    }
    let mut layout_free = true;
    for phase in &workload.phases {
        match phase {
            Phase::Global {
                elem_bytes, scale, ..
            } => {
                layout_free = false;
                let _ = write!(key, "|G{}:{:x}", elem_bytes, scale.to_bits());
            }
            Phase::Shared { scale, .. } => {
                layout_free = false;
                let _ = write!(key, "|S{:x}", scale.to_bits());
            }
            Phase::TileTouches { scale, .. } => {
                layout_free = false;
                let _ = write!(key, "|T{:x}", scale.to_bits());
            }
            Phase::Streamed {
                dram_bytes,
                l2_bytes,
            } => {
                let _ = write!(key, "|X{:x}:{:x}", dram_bytes.to_bits(), l2_bytes.to_bits());
            }
        }
    }
    if layout_free {
        key.push_str("|-");
        return Some(key);
    }
    let dims = layout.view().dims_const().ok()?;
    if layout.orders().is_empty() {
        let _ = write!(key, "|id{dims:?}");
    } else {
        let perm = layout.to_permutation().ok()?;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &p in &perm {
            h ^= p as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let _ = write!(key, "|p{dims:?}x{h:016x}");
    }
    Some(key)
}

/// Captured warps of one phase, fed to a model once enough are
/// buffered.
#[derive(Default)]
struct Captured {
    lanes: Vec<i64>,
    warp_len: Vec<usize>,
}

impl Captured {
    fn push(&mut self, idx: &[i64]) {
        self.lanes.extend_from_slice(idx);
        self.warp_len.push(idx.len());
    }

    fn warps(&self) -> impl Iterator<Item = &[i64]> {
        let mut at = 0;
        self.warp_len.iter().map(move |&n| {
            let w = &self.lanes[at..at + n];
            at += n;
            w
        })
    }

    fn full(&self) -> bool {
        self.lanes.len() >= CHUNK_LANES
    }

    fn clear(&mut self) {
        self.lanes.clear();
        self.warp_len.clear();
    }
}

/// Replays one warp trace into a sink that does nothing: the cost of
/// generating the addresses alone.
fn trace_gen(trace: &gpu_sim::score::AddrGen, layout: &Layout) {
    span("gpusim.trace_gen", || {
        let (mut lanes, mut warps) = (0u64, 0u64);
        trace(layout, &mut |idx: &[i64]| {
            lanes += idx.len() as u64;
            warps += 1;
        });
        count("gpusim.trace_gen.lanes", lanes as f64);
        std::hint::black_box(warps);
    });
}

/// The instrumented traffic pass: the body of the cost model's tier-1
/// trace replay, one span per layer.
fn trace_traffic(cfg: &GpuConfig, layout: &Layout, workload: &Workload) -> TrafficCost {
    let mut l2_bytes = 0f64;
    let mut dram_bytes = 0f64;
    let mut smem_passes = 0f64;
    let mut hits = 0u64;
    let mut misses = 0u64;

    for phase in &workload.phases {
        match phase {
            Phase::Global {
                trace,
                elem_bytes,
                scale,
            } => {
                trace_gen(trace, layout);
                let mut moved = 0f64;
                let mut cache = workload.l2.map(|m| Cache::new(m.lines, m.assoc));
                let mut sectors: Vec<i64> = Vec::with_capacity(cfg.warp_size);
                let mut buf = Captured::default();
                let mut feed = |buf: &mut Captured| {
                    span("gpusim.coalesce", || {
                        let (mut warps, mut secs) = (0u64, 0u64);
                        for idx in buf.warps() {
                            let c = coalesce_elems_on(idx, *elem_bytes, 0, cfg);
                            moved += c.moved_bytes as f64;
                            warps += 1;
                            secs += c.sectors as u64;
                        }
                        count("gpusim.coalesce.warps", warps as f64);
                        count("gpusim.coalesce.sectors", secs as f64);
                    });
                    if let Some(cache) = cache.as_mut() {
                        span("gpusim.l2", || {
                            let mut accesses = 0u64;
                            for idx in buf.warps() {
                                sectors.clear();
                                sectors
                                    .extend(idx.iter().map(|&i| {
                                        i * *elem_bytes as i64 / cfg.sector_bytes as i64
                                    }));
                                sectors.sort_unstable();
                                sectors.dedup();
                                for &s in sectors.iter() {
                                    cache.access(s);
                                }
                                accesses += sectors.len() as u64;
                            }
                            count("gpusim.l2.accesses", accesses as f64);
                        });
                    }
                    buf.clear();
                };
                span("bench.capture", || {
                    trace(layout, &mut |idx: &[i64]| {
                        buf.push(idx);
                        if buf.full() {
                            feed(&mut buf);
                        }
                    });
                    feed(&mut buf);
                });
                l2_bytes += moved * scale;
                match cache {
                    Some(cache) => {
                        let stats = cache.stats();
                        hits += stats.hits;
                        misses += stats.misses;
                        count("gpusim.l2.hits", stats.hits as f64);
                        dram_bytes += stats.misses as f64 * cfg.sector_bytes as f64 * scale;
                    }
                    None => dram_bytes += moved * scale,
                }
            }
            Phase::Shared { trace, scale } => {
                trace_gen(trace, layout);
                let mut passes = 0f64;
                let mut buf = Captured::default();
                let mut feed = |buf: &mut Captured| {
                    span("gpusim.smem", || {
                        for idx in buf.warps() {
                            passes += bank_conflicts_elems_on(idx, 4, cfg).passes as f64;
                        }
                        count("gpusim.smem.warps", buf.warp_len.len() as f64);
                    });
                    buf.clear();
                };
                span("bench.capture", || {
                    trace(layout, &mut |idx: &[i64]| {
                        buf.push(idx);
                        if buf.full() {
                            feed(&mut buf);
                        }
                    });
                    feed(&mut buf);
                });
                smem_passes += passes * scale;
            }
            Phase::TileTouches { trace, scale } => {
                span("gpusim.trace_gen", || {
                    let mut n = 0u64;
                    trace(layout, &mut |_id: i64, _bytes: usize| n += 1);
                    std::hint::black_box(n);
                });
                let mut touches: Vec<(i64, usize)> = Vec::new();
                span("bench.capture", || {
                    trace(layout, &mut |id: i64, bytes: usize| {
                        touches.push((id, bytes))
                    });
                });
                let mut tiles = TileCache::new(cfg.l2_bytes);
                let mut touched = 0f64;
                span("gpusim.tiles", || {
                    for &(id, bytes) in &touches {
                        tiles.touch(id, bytes);
                        touched += bytes as f64;
                    }
                });
                count("gpusim.tiles.touches", touches.len() as f64);
                l2_bytes += touched * scale;
                dram_bytes += tiles.miss_bytes() as f64 * scale;
                hits += tiles.hits();
                misses += tiles.misses();
            }
            Phase::Streamed {
                dram_bytes: d,
                l2_bytes: l,
            } => {
                dram_bytes += d;
                l2_bytes += l;
            }
        }
    }
    TrafficCost {
        dram_bytes,
        l2_bytes,
        smem_passes,
        hits,
        misses,
    }
}

fn memo_lookup(key: &str) -> Option<TrafficCost> {
    let got = MEMO.with(|m| m.borrow().get(key).copied());
    count(
        if got.is_some() {
            "gpusim.traffic.memo_hits"
        } else {
            "gpusim.traffic.memo_misses"
        },
        1.0,
    );
    got
}

fn memo_insert(key: String, tc: TrafficCost) {
    MEMO.with(|m| {
        m.borrow_mut().entry(key).or_insert(tc);
    });
}

fn assemble(cfg: &GpuConfig, workload: &Workload, tc: &TrafficCost) -> Estimate {
    span("gpusim.assemble", || {
        CostModel::new(cfg).assemble(workload, tc)
    })
}

/// `CostModel::price` recomposed: memoized traffic pass, then assembly.
fn price(cfg: &GpuConfig, layout: &Layout, workload: &Workload) -> Estimate {
    let tc = span("gpusim.traffic", || match memo_key(cfg, layout, workload) {
        Some(key) => match memo_lookup(&key) {
            Some(tc) => tc,
            None => {
                let tc = trace_traffic(cfg, layout, workload);
                memo_insert(key, tc);
                tc
            }
        },
        None => trace_traffic(cfg, layout, workload),
    });
    assemble(cfg, workload, &tc)
}

/// `CostModel::price_batch` recomposed on the calling thread: every key
/// is probed first, cold geometries are traced (in-batch duplicates
/// each traced, as the model does), then recorded and assembled.
fn price_batch(cfg: &GpuConfig, jobs: &[(Layout, Workload)]) -> Vec<Estimate> {
    let traffic: Vec<TrafficCost> = span("gpusim.traffic", || {
        let keys: Vec<Option<String>> = jobs.iter().map(|(l, w)| memo_key(cfg, l, w)).collect();
        let probed: Vec<Option<TrafficCost>> = keys
            .iter()
            .map(|k| k.as_deref().and_then(memo_lookup))
            .collect();
        let traced: Vec<TrafficCost> = jobs
            .iter()
            .zip(&probed)
            .map(|((l, w), hit)| hit.unwrap_or_else(|| trace_traffic(cfg, l, w)))
            .collect();
        for ((key, hit), tc) in keys.into_iter().zip(&probed).zip(&traced) {
            if let (Some(key), None) = (key, hit) {
                memo_insert(key, *tc);
            }
        }
        traced
    });
    jobs.iter()
        .zip(&traffic)
        .map(|((_, w), tc)| assemble(cfg, w, tc))
        .collect()
}

/// The outcome of a replayed exhaustive search.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The winning configuration.
    pub winner: TunedConfig,
    /// Its index-expression op count.
    pub index_ops: Option<usize>,
    /// Estimate of the winner.
    pub tuned: Estimate,
    /// Estimate of the default configuration.
    pub naive: Estimate,
    /// Configurations scored plus bound-pruned.
    pub evaluated: usize,
    /// Configurations dismissed by the bound.
    pub pruned: usize,
}

fn annotated(kind: &WorkloadKind, c: &TunedConfig) -> Candidate {
    let (h0, _) = lego_tune::annotate_cache_stats();
    let cand = span("tune.annotate", || Candidate::annotated(kind, c));
    let (h1, _) = lego_tune::annotate_cache_stats();
    count("tune.annotate.hits", (h1 - h0) as f64);
    cand
}

fn built(kind: &WorkloadKind, cand: &Candidate, gpu: &GpuConfig) -> Option<(Layout, Workload)> {
    let layout = span("core.build", || build_layout(kind, &cand.config)).ok()?;
    let wl = span("tune.workload", || build_workload(kind, cand, gpu));
    Some((layout, wl))
}

/// Replays the exhaustive arm of `run_search` over the `scale` space.
pub fn exhaustive(
    kind: WorkloadKind,
    gpu: &GpuConfig,
    scale: SpaceScale,
) -> Result<Outcome, String> {
    span("tune.search", || exhaustive_inner(kind, gpu, scale))
}

fn exhaustive_inner(
    kind: WorkloadKind,
    gpu: &GpuConfig,
    scale: SpaceScale,
) -> Result<Outcome, String> {
    // Building the domain annotates every candidate, so the
    // annotations inside the sweep below are memo hits.
    let (domain, all) = span("tune.enumerate", || {
        let domain = Domain::new(kind, scale);
        let all = domain.enumerate();
        (domain, all)
    });
    count("tune.enumerate.candidates", all.len() as f64);
    let max_evals = all.len().max(1);
    let model = CostModel::new(gpu);
    let mut seen: HashMap<String, usize> = HashMap::new();
    let mut entries: Vec<(Candidate, Estimate)> = Vec::new();
    let mut best = 0usize;
    let mut pruned = 0usize;

    // The default configuration is entry zero.
    let default = domain.default_config();
    let cand = annotated(&kind, &default);
    let (layout, wl) =
        built(&kind, &cand, gpu).ok_or_else(|| format!("default of {} fails", kind.name()))?;
    let est = price(gpu, &layout, &wl);
    seen.insert(config_to_json(&default).render(), 0);
    entries.push((cand, est));

    for chunk in all.chunks(PRUNE_CHUNK) {
        let cutoff = (entries.len() >= FRONTIER_K).then(|| {
            let mut times: Vec<f64> = entries.iter().map(|(_, e)| e.time_s).collect();
            times.sort_by(f64::total_cmp);
            times[FRONTIER_K - 1]
        });
        let mut fresh: Vec<(String, Candidate)> = Vec::new();
        let mut fresh_keys: HashSet<String> = HashSet::new();
        let mut jobs = Vec::new();
        for c in chunk {
            if entries.len() + pruned + fresh.len() >= max_evals {
                break;
            }
            let key = config_to_json(c).render();
            if seen.contains_key(&key) || fresh_keys.contains(&key) {
                continue;
            }
            let cand = annotated(&kind, c);
            match built(&kind, &cand, gpu) {
                Some((layout, wl)) => {
                    let bound = span("gpusim.bound", || model.bound(&wl));
                    if cutoff.is_some_and(|t| bound > t) {
                        seen.insert(key, usize::MAX);
                        pruned += 1;
                        continue;
                    }
                    jobs.push((layout, wl));
                    fresh_keys.insert(key.clone());
                    fresh.push((key, cand));
                }
                None => {
                    seen.insert(key, usize::MAX);
                }
            }
        }
        if fresh.is_empty() {
            continue;
        }
        let estimates = price_batch(gpu, &jobs);
        for ((key, cand), est) in fresh.into_iter().zip(estimates) {
            let idx = entries.len();
            seen.insert(key, idx);
            entries.push((cand, est));
            if rank(&est) < rank(&entries[best].1) {
                best = idx;
            }
        }
    }
    let (winner, tuned) = entries[best].clone();
    Ok(Outcome {
        winner: winner.config,
        index_ops: winner.index_ops,
        tuned,
        naive: entries[0].1,
        evaluated: entries.len() + pruned,
        pruned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_codegen::cuda::stencil::StencilShape;
    use lego_tune::{run_search, Budget, RowwiseOp, Strategy};

    #[test]
    fn replica_matches_run_search() {
        let kinds = [
            WorkloadKind::Matmul { n: 512 },
            WorkloadKind::Transpose { n: 256 },
            WorkloadKind::Stencil {
                shape: StencilShape::Star(1),
                n: 16,
            },
            WorkloadKind::Nw { n: 256, b: 16 },
            WorkloadKind::Lud { n: 512, bs: 16 },
            WorkloadKind::Rowwise {
                op: RowwiseOp::Softmax,
                m: 128,
                n: 1000,
            },
        ];
        // The legacy spaces fit in one pruning chunk; LUD's enlarged
        // space is the one that prunes.
        let cases = kinds
            .iter()
            .map(|k| (*k, SpaceScale::Legacy))
            .chain([(WorkloadKind::Lud { n: 1024, bs: 16 }, SpaceScale::Enlarged)]);
        let mut pruned = 0;
        for gpu in [gpu_sim::a100(), gpu_sim::mi300()] {
            for (kind, scale) in cases.clone() {
                // Fresh threads: both sides start with empty memos.
                let g = gpu.clone();
                let real = std::thread::spawn(move || {
                    let domain = Domain::new(kind, scale);
                    let key = kind.name();
                    run_search(
                        Strategy::Exhaustive,
                        &domain,
                        &g,
                        Budget::default(),
                        &key,
                        &[],
                    )
                    .expect("search")
                })
                .join()
                .expect("join");
                let g = gpu.clone();
                let ours =
                    std::thread::spawn(move || exhaustive(kind, &g, scale).expect("replica"))
                        .join()
                        .expect("join");
                pruned += ours.pruned;
                assert_eq!(ours.winner, real.winner.config, "{}", kind.name());
                assert_eq!(ours.tuned, real.tuned, "{}", kind.name());
                assert_eq!(ours.naive, real.naive, "{}", kind.name());
                assert_eq!(ours.evaluated, real.evaluated, "{}", kind.name());
                assert_eq!(ours.pruned, real.pruned, "{}", kind.name());
                assert_eq!(ours.index_ops, real.winner.index_ops, "{}", kind.name());
            }
        }
        assert!(pruned > 0, "no case exercised bound pruning");
    }
}
