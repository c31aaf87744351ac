//! `fleet-grid`: `FleetDriver::run` on two threads with frontier
//! transfer on and no cache, over seeded grids.
//!
//! Each grid holds one to five instances of five families (softmax,
//! layernorm, LUD, transpose, NW), one device per family, smallest
//! first; every larger key warm-starts from a smaller neighbour's
//! frontier (the warm ops) while the five smallest search cold. These
//! are the families whose frontiers always carry over between sizes (a
//! stencil or matmul frontier often does not). Devices rotate and sizes
//! step from grid to grid, from seeded starting points, and runs end on
//! whole passes over the sizes, so every run does about the same work.
//!
//! Every key asks for [`BUDGET`] evaluations, four times the driver's
//! transferred-search floor, so a transferred key really runs on the
//! driver's cut budget (a quarter) and the saving shows in
//! `tune.fleet.evals_saved`.

use std::time::Instant;

use lego_tune::{Budget, Candidate, FleetDriver, RowwiseOp, Strategy, TuneRequest, WorkloadKind};

use crate::ops::{self, Class, Limit, Op, Outcome};
use crate::spans::{count, span};
use crate::tune_cold::{check, Tuned};

/// Evaluation budget of every key: large enough that the driver's cut
/// for transferred keys (a quarter, floored at
/// `lego_tune::fleet::TRANSFER_MIN_EVALS`) is below it.
const BUDGET: usize = 4 * lego_tune::fleet::TRANSFER_MIN_EVALS;

/// Fleet worker threads.
const THREADS: usize = 2;

/// Sizes per family; that many consecutive grids use each once.
const SIZES: usize = 6;
/// Grids whose results form the reference figures, and the tail's
/// sample: one pass over every family's sizes.
const REFERENCE_GRIDS: u64 = SIZES as u64;
/// Families per grid, and keys per grid.
const FAMILIES: usize = 5;
const GRID_KEYS: usize = 15;

/// The instances of family `family` (0..5) at size index `i`, smallest
/// first; each larger one transfers from a smaller one. The counts —
/// five cheap keys (softmax, layernorm, LUD ×3), five transposes, five
/// NWs — put the all-keys median (the eighth of fifteen) on the middle
/// transpose, and the cold keys' median (the third of the five
/// smallest) on the LUD key, each inside one family's cost band rather
/// than on a gap between two. The rowwise keys are small (256 columns)
/// so that their cold searches stay below LUD's.
fn instances(family: usize, i: usize) -> Vec<WorkloadKind> {
    let i = i as i64;
    let rowwise = |op, m, n| WorkloadKind::Rowwise { op, m, n };
    match family {
        0 => vec![rowwise(RowwiseOp::Softmax, 64 + 16 * i, 256)],
        1 => vec![rowwise(RowwiseOp::LayernormFwd, 64 + 16 * i, 256)],
        2 => (0..3)
            .map(|k| WorkloadKind::Lud {
                n: 512 + 64 * (i + k),
                bs: 16,
            })
            .collect(),
        3 => (0..5)
            .map(|k| WorkloadKind::Transpose {
                n: 1024 + 128 * i + 256 * k,
            })
            .collect(),
        _ => (0..5)
            .map(|k| WorkloadKind::Nw {
                n: 64 + 16 * i + 32 * k,
                b: 16,
            })
            .collect(),
    }
}

/// Grid `index` under `seed`: every family's smallest key, then every
/// family's second, and so on. Devices rotate with the grid index and
/// each family steps through its sizes, from seeded starting points.
pub fn grid(seed: u64, index: u64) -> Vec<TuneRequest> {
    let mut rng = ops::rng(seed, "fleet-grid", 0);
    let devices = [gpu_sim::a100(), gpu_sim::h100(), gpu_sim::mi300()];
    let mut tiers: Vec<Vec<TuneRequest>> = Vec::new();
    for family in 0..FAMILIES {
        let (shift, start) = (rng.below(3), rng.below(SIZES));
        let device = &devices[(family + index as usize + shift) % 3];
        let kinds = instances(family, (start + index as usize) % SIZES);
        for (k, kind) in kinds.into_iter().enumerate() {
            if tiers.len() <= k {
                tiers.push(Vec::new());
            }
            tiers[k].push(TuneRequest {
                kind,
                device: device.clone(),
                strategy: Strategy::Anneal,
                budget: Budget(BUDGET),
                space: None,
            });
        }
    }
    tiers.concat()
}

pub fn run(seed: u64, limit: Limit) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: a driver and a warm-up fleet of the cheap families'
    // smallest keys, the same on every seed.
    let (mut setup, _) = ops::Setup::new(|| {
        let devices = [gpu_sim::a100(), gpu_sim::h100(), gpu_sim::mi300()];
        let warm: Vec<TuneRequest> = (0..3)
            .flat_map(|family| {
                let device = devices[family].clone();
                instances(family, 0)
                    .into_iter()
                    .map(move |kind| TuneRequest {
                        kind,
                        device: device.clone(),
                        strategy: Strategy::Anneal,
                        budget: Budget(BUDGET),
                        space: None,
                    })
            })
            .collect();
        FleetDriver::new(THREADS)
            .with_transfer(true)
            .run(&warm)
            .keys
            .len()
    });

    let t0 = Instant::now();
    let mut setup_time = 0.0;
    let mut checked: Vec<(TuneRequest, Result<Tuned, String>)> = Vec::new();
    let mut index = 0u64;
    // Whole passes over the sizes only, so every run does balanced work.
    loop {
        let more = index < REFERENCE_GRIDS
            || limit.more(t0.elapsed().as_secs_f64(), index, REFERENCE_GRIDS);
        if index.is_multiple_of(SIZES as u64) && !more {
            break;
        }
        let g = grid(seed, index);
        crate::spans::set_op(index);
        let report = span("tune.fleet.run", || {
            FleetDriver::new(THREADS).with_transfer(true).run(&g)
        });
        let c = report.counters();
        count("tune.fleet.keys", c.keys as f64);
        count("tune.fleet.transfers", c.transfers as f64);
        count("tune.fleet.evals_saved", c.evals_saved as f64);
        if c.transfers > 0 && c.evals_saved == 0 {
            out.fail(format!(
                "grid {index}: transferred keys saved no evaluations"
            ));
        }
        for key in report.keys {
            count("tune.fleet.key_ns", key.elapsed_s * 1e9);
            out.ops.push(Op {
                ms: key.elapsed_s * 1e3,
                class: if key.transferred_from.is_some() {
                    Class::Warm
                } else {
                    Class::Cold
                },
            });
            let result = key.result.map(|t| Tuned {
                config: t.config,
                tuned: t.tuned,
                naive: t.naive,
                index_ops: Candidate::annotated(&key.request.kind, &t.config).index_ops,
            });
            if index < REFERENCE_GRIDS {
                if let Ok(t) = &result {
                    out.sim_us.push(t.tuned.time_s * 1e6);
                    out.index_ops += t.index_ops.unwrap_or(0) as u64;
                }
            }
            checked.push((key.request, result));
        }
        index += 1;
        setup_time += setup.between();
    }
    out.busy_s = t0.elapsed().as_secs_f64() - setup_time;
    out.setup_s = setup.median();
    out.notes.push(format!("fleet-grid: {index} grids"));
    let head = out.ops.len().min(REFERENCE_GRIDS as usize * GRID_KEYS);
    out.tail_sample = out.ops[..head].iter().map(|op| op.ms).collect();
    for (req, r) in &checked {
        match r {
            Ok(t) => {
                if let Err(e) = check(req, t) {
                    out.fail(e);
                }
            }
            Err(e) => out.fail(e.clone()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(seed: u64, index: u64) -> Vec<String> {
        grid(seed, index)
            .iter()
            .map(TuneRequest::coalesce_key)
            .collect()
    }

    #[test]
    fn same_seed_same_grid() {
        assert_eq!(names(2, 0), names(2, 0));
        assert_ne!(names(2, 0), names(3, 0));
        assert_eq!(names(2, 0).len(), GRID_KEYS);
    }
}
