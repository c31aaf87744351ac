//! `tune-cold`: the tuning daemon's cold path without the daemon — a
//! closed loop of one caller resolving seeded requests in process
//! through `TuneService::resolve`, each on a fresh service with no
//! cache and no sidecar and on a fresh thread with empty memo tables,
//! so every request runs a full search from scratch.
//!
//! The stream is a balanced design, so that runs on different seeds do
//! the same amount of work. A cycle holds one request per (family,
//! strategy) pair — six families × exhaustive/anneal/genetic — and
//! rotates the devices, so three cycles (a super-cycle) cover every
//! (family, strategy, device) cell once. Each family has nine sizes;
//! a super-cycle uses each size once per family and gives every
//! strategy a small, a middle and a large one, so its work is the same
//! on every seed; the seed decides which device gets which size, the
//! device rotation and the order. No request repeats within 27 cycles.
//! Each exhaustive request is resolved a second time on its thread (the
//! warm op: the annotation and traffic memos hold its work). Exhaustive
//! LUD requests search the enlarged space, the one whose sweep is long
//! enough for bound pruning to dismiss candidates. Stencil
//! and NW searches are dominated by trace replay, coalescing and L2 in
//! `gpu_sim`; the others by enumeration, annotation and the search loop
//! in `lego_tune`.

use std::time::Instant;

use gpu_sim::score::Estimate;
use gpu_sim::{CostModel, GpuConfig};
use lego_codegen::cuda::stencil::StencilShape;
use lego_served::TuneService;
use lego_tune::{
    build_layout, build_workload, Budget, Candidate, RowwiseOp, SpaceScale, Strategy, TuneRequest,
    TunedConfig, WorkloadKind,
};

use crate::ops::{self, Class, Limit, Op, Outcome};
use crate::spans::{count, span};

/// Evaluation budget of the anneal and genetic requests.
const BUDGET: usize = 32;
/// Op-id flag marking exhaustive stencil requests in the traced run.
pub const STENCIL_OP: u64 = 1 << 62;
/// Sizes per family; one super-cycle uses each once.
const SIZES: usize = 9;
/// Cycles per super-cycle (one per device).
const ROTATION: u64 = 3;
/// Ops per cycle: a fresh request per (family, strategy), then the six
/// exhaustive ones again.
const CYCLE_OPS: usize = 6 * 3 + 6;
/// Cycles whose fresh requests form the reference figures: two
/// super-cycles (all three would be the same set on every seed).
const REFERENCE_CYCLES: u64 = 2 * ROTATION;
/// Cycles whose ops the tail is taken over: three super-cycles, whose
/// requests are the same set on every seed.
const TAIL_CYCLES: usize = 3 * ROTATION as usize;

const STRATEGIES: [Strategy; 3] = [Strategy::Exhaustive, Strategy::Anneal, Strategy::Genetic];

fn devices() -> [GpuConfig; 3] {
    [gpu_sim::a100(), gpu_sim::h100(), gpu_sim::mi300()]
}

/// Size `i` (0..9) of family `family` (0..6); rowwise requests take
/// their operator from the strategy index.
fn kind(family: usize, strategy: usize, i: usize) -> WorkloadKind {
    let i = i as i64;
    match family {
        0 => WorkloadKind::Matmul { n: 512 + 128 * i },
        1 => WorkloadKind::Transpose { n: 1024 + 128 * i },
        2 => WorkloadKind::Stencil {
            shape: StencilShape::Star(1),
            n: 16 + i,
        },
        3 => WorkloadKind::Nw {
            n: 256 + 32 * i,
            b: 16,
        },
        4 => WorkloadKind::Lud {
            n: 1024 + 256 * i,
            bs: 16,
        },
        _ => WorkloadKind::Rowwise {
            op: [
                RowwiseOp::Softmax,
                RowwiseOp::LayernormFwd,
                RowwiseOp::LayernormBwd,
            ][strategy],
            m: 512 + 512 * i,
            n: 2048,
        },
    }
}

/// The seeded request stream, generated cycle by cycle.
pub struct Stream {
    seed: u64,
    cycle: u64,
    /// Per (family, strategy), which of the strategy's three sizes each
    /// device gets: a permutation of 0..3.
    offsets: [[[usize; 3]; 3]; 6],
    /// Per family, the device rotation offset.
    shift: [usize; 6],
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        let mut rng = ops::rng(seed, "tune-cold", 0);
        let mut offsets = [[[0, 1, 2]; 3]; 6];
        let mut shift = [0; 6];
        for f in 0..6 {
            for perm in &mut offsets[f] {
                ops::shuffle(&mut rng, perm);
            }
            shift[f] = rng.below(3);
        }
        Stream {
            seed,
            cycle: 0,
            offsets,
            shift,
        }
    }

    /// The next cycle's eighteen requests, in seeded order.
    pub fn next_cycle(&mut self) -> Vec<TuneRequest> {
        let c = self.cycle;
        self.cycle += 1;
        let round = (c / ROTATION) as usize;
        let devs = devices();
        let mut cold = Vec::new();
        for f in 0..6 {
            for (s, strategy) in STRATEGIES.into_iter().enumerate() {
                // Within a super-cycle strategy `s` takes the sizes
                // ≡ s + round/3 (mod 3) — one small, one middle, one
                // large — and no (strategy, device) cell sees a size
                // twice within nine super-cycles.
                let d = (s + c as usize + self.shift[f]) % 3;
                let band = (self.offsets[f][s][d] + round) % 3;
                let i = (s + round / 3 + 3 * band) % SIZES;
                let kind = kind(f, s, i);
                let pruned =
                    strategy == Strategy::Exhaustive && matches!(kind, WorkloadKind::Lud { .. });
                cold.push(TuneRequest {
                    kind,
                    device: devs[d].clone(),
                    strategy,
                    budget: Budget(BUDGET),
                    space: pruned.then_some(SpaceScale::Enlarged),
                });
            }
        }
        ops::shuffle(&mut ops::rng(self.seed, "tune-cold-order", c), &mut cold);
        cold
    }
}

/// A search result as the checks need it.
#[derive(Clone, Copy, Debug)]
pub struct Tuned {
    pub config: TunedConfig,
    pub tuned: Estimate,
    pub naive: Estimate,
    pub index_ops: Option<usize>,
}

fn resolve(req: &TuneRequest, traced: bool) -> Result<Tuned, String> {
    if traced && req.strategy == Strategy::Exhaustive {
        let o = crate::replica::exhaustive(req.kind, &req.device, req.effective_space())?;
        count("tune.search.evals", o.evaluated as f64);
        count("tune.search.pruned", o.pruned as f64);
        return Ok(Tuned {
            config: o.winner,
            tuned: o.tuned,
            naive: o.naive,
            index_ops: o.index_ops,
        });
    }
    let service = TuneService::new(req.device.clone(), None, None);
    let (served, _tier) = span("tune.search_budgeted", || service.resolve(req));
    let s = served?;
    count("tune.search.evals", s.evaluated as f64);
    Ok(Tuned {
        config: s.config,
        tuned: s.tuned,
        naive: s.naive,
        index_ops: s.index_ops,
    })
}

/// Resolves `req` on a fresh thread, whose memo tables start empty
/// (the cold op); an exhaustive request is then resolved again on the
/// same thread, whose annotation and traffic memos now hold its work
/// (the warm op).
fn fresh_thread(req: &TuneRequest, op_id: u64, traced: bool) -> Vec<(Op, Result<Tuned, String>)> {
    std::thread::scope(|s| {
        s.spawn(|| {
            crate::spans::set_op(op_id);
            let timed = |class| {
                let t = Instant::now();
                let r = span("op", || resolve(req, traced));
                let op = Op {
                    ms: ops::ms_since(t),
                    class,
                };
                (op, r)
            };
            let mut out = vec![timed(Class::Cold)];
            if req.strategy == Strategy::Exhaustive {
                out.push(timed(Class::Warm));
            }
            out
        })
        .join()
        .expect("tune-cold request panicked")
    })
}

/// Checks a winner: its reported estimate must equal a direct price of
/// the winning configuration, and it must not lose to the default.
pub fn check(req: &TuneRequest, t: &Tuned) -> Result<(), String> {
    let name = format!(
        "{}@{}/{}",
        req.kind.name(),
        req.device.tag,
        req.strategy.name()
    );
    let cand = Candidate::annotated(&req.kind, &t.config);
    let layout = build_layout(&req.kind, &t.config).map_err(|e| format!("{name}: {e}"))?;
    let wl = build_workload(&req.kind, &cand, &req.device);
    let direct = CostModel::new(&req.device).price(&layout, &wl);
    if direct != t.tuned {
        return Err(format!(
            "{name}: reported {:e} s, direct price {:e} s",
            t.tuned.time_s, direct.time_s
        ));
    }
    if t.tuned.time_s > t.naive.time_s {
        return Err(format!("{name}: tuned slower than naive"));
    }
    Ok(())
}

pub fn run(seed: u64, limit: Limit, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: generate the first cycle, build a service and resolve
    // three small requests on each device on a fresh thread.
    let (mut setup, _) = ops::Setup::new(|| {
        let first = Stream::new(seed).next_cycle();
        let service = TuneService::new(first[0].device.clone(), None, None);
        let warmup = [
            WorkloadKind::Lud { n: 512, bs: 16 },
            WorkloadKind::Transpose { n: 256 },
            WorkloadKind::Matmul { n: 512 },
        ];
        std::thread::scope(|s| {
            s.spawn(|| {
                devices().iter().all(|device| {
                    warmup.iter().all(|k| {
                        service
                            .resolve(&TuneRequest::new(*k, device.clone()))
                            .0
                            .is_ok()
                    })
                })
            })
            .join()
            .expect("set-up request panicked")
        })
    });

    // Reference figures: the first two super-cycles' fresh requests.
    let mut stream = Stream::new(seed);
    let reference: Vec<TuneRequest> = (0..REFERENCE_CYCLES)
        .flat_map(|_| stream.next_cycle())
        .collect();
    let mut stream = Stream::new(seed);
    let done = std::thread::scope(|s| {
        s.spawn(|| {
            let mut done: Vec<(TuneRequest, Result<Tuned, String>)> = Vec::new();
            let t0 = Instant::now();
            let mut setup_time = 0.0;
            let mut op_id = 0u64;
            // Whole super-cycles only, so every run does balanced work.
            for cycle in 0u64.. {
                if cycle.is_multiple_of(ROTATION)
                    && !limit.more(t0.elapsed().as_secs_f64(), cycle, ROTATION)
                {
                    break;
                }
                for req in stream.next_cycle() {
                    let stencil = traced
                        && req.strategy == Strategy::Exhaustive
                        && matches!(req.kind, WorkloadKind::Stencil { .. });
                    let id = op_id | if stencil { STENCIL_OP } else { 0 };
                    op_id += 1;
                    for (op, result) in fresh_thread(&req, id, traced) {
                        out.ops.push(op);
                        done.push((req.clone(), result));
                    }
                }
                setup_time += setup.between();
            }
            out.busy_s = t0.elapsed().as_secs_f64() - setup_time;
            out.setup_s = setup.median();
            done
        })
        .join()
        .expect("tune-cold caller panicked")
    });

    let head = out.ops.len().min(TAIL_CYCLES * CYCLE_OPS);
    out.tail_sample = out.ops[..head].iter().map(|op| op.ms).collect();
    for (req, r) in &done {
        match r {
            Ok(t) => {
                if let Err(e) = check(req, t) {
                    out.fail(e);
                }
            }
            Err(e) => out.fail(e.clone()),
        }
    }
    // Reference results come from the run or, if the window ended
    // first, are resolved now.
    for req in &reference {
        let key = req.coalesce_key();
        let found = done
            .iter()
            .find(|(r, _)| r.coalesce_key() == key)
            .map(|(_, t)| t.clone());
        let t = match found {
            Some(t) => t,
            None => resolve(req, false),
        };
        match t {
            Ok(t) => {
                out.sim_us.push(t.tuned.time_s * 1e6);
                out.index_ops += t.index_ops.unwrap_or(0) as u64;
            }
            Err(e) => out.fail(e),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(seed: u64, cycles: usize) -> Vec<String> {
        let mut s = Stream::new(seed);
        (0..cycles)
            .flat_map(|_| s.next_cycle())
            .map(|r| r.coalesce_key())
            .collect()
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(keys(11, 3), keys(11, 3));
        assert_ne!(keys(11, 1), keys(12, 1));
    }

    #[test]
    fn requests_are_distinct_for_27_cycles() {
        let all = keys(5, 27);
        let unique: std::collections::HashSet<&String> = all.iter().collect();
        assert_eq!(unique.len(), 27 * 18);
    }

    #[test]
    fn every_super_cycle_does_the_same_work() {
        // Across seeds, a super-cycle holds the same multiset of
        // (workload, strategy) requests; only devices and order move.
        let work = |seed| {
            let mut s = Stream::new(seed);
            let mut v: Vec<String> = (0..ROTATION)
                .flat_map(|_| s.next_cycle())
                .map(|r| format!("{}|{}", r.kind.name(), r.strategy.name()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(work(1), work(2));
    }
}
