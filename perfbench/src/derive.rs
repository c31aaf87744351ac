//! `derive`: the paper's own end-to-end path (Table III) — layout →
//! index expression → simplification → kernel source — with no search
//! and no simulation on the timed path.
//!
//! A round runs on a fresh thread, so the thread-local expression arena
//! starts empty as in a compiler process. Each round makes the fifteen
//! generator calls of the code generators (seeded sizes), then derives
//! six configurations from the tuner's enlarged domains, one per family
//! at a fixed problem size (`build_layout` → `Layout::apply_sym` →
//! `Engine::simplify` → C and Python printers), then derives all six
//! again in another order, which the arena's memo tables answer (the
//! warm ops). Each family's configurations come from a seeded
//! permutation of its whole domain, taken in turn, so the reference
//! rounds cover every small domain evenly and the reference figures
//! move little from seed to seed.

use std::collections::HashMap;
use std::time::Instant;

use gpu_sim::CostModel;
use lego_codegen::cuda::stencil::StencilShape;
use lego_codegen::cuda::{lud, nw, stencil, transpose};
use lego_codegen::mlir::{transpose_module, MlirTranspose};
use lego_codegen::triton::{grouped_gemm, layernorm, matmul, softmax};
use lego_core::Layout;
use lego_expr::printer::{c, python};
use lego_expr::{eval, Engine, Expr, RangeEnv};
use lego_tune::rng::Rng;
use lego_tune::{
    build_layout, build_workload, Candidate, Domain, RowwiseOp, SpaceScale, TunedConfig,
    WorkloadKind,
};

use crate::ops::{self, Class, Limit, Op, Outcome};
use crate::spans::{count, span};

/// Rounds whose results form the deterministic reference figures:
/// enough to take nearly every configuration of every family's domain
/// at least once (the largest, matmul's, has 752).
const REFERENCE_ROUNDS: u64 = 720;
/// Rounds of the traced run.
const TRACED_ROUNDS: u64 = 400;
/// Untimed warm-up rounds of one set-up.
const WARMUP_ROUNDS: u64 = 10;
/// Rounds whose ops the tail is taken over: every `TAIL_STRIDE`-th,
/// twenty of them, so the sample spans seconds of the window rather
/// than the machine's state during its first tenth of a second. The
/// slowest op of a round is its first generator call, on an empty
/// arena; over twenty rounds the tail (ten ops beyond) sits at the
/// middle of those twenty calls rather than at their outliers.
const TAIL_ROUNDS: u64 = 20;
const TAIL_STRIDE: u64 = 50;
/// Code-generator calls per round.
const GENERATORS: usize = 15;
/// Fresh configuration derivations per round (one per family).
const COLD_DERIVATIONS: usize = 6;
/// Seeded in-bounds points each derived expression is checked at.
const CHECK_POINTS: usize = 3;

/// One code-generator call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gen {
    Matmul(matmul::MatmulVariant),
    GroupedGemm,
    Layernorm(layernorm::Pass),
    Softmax,
    Lud { r: i64, t: i64 },
    Nw { b: i64 },
    Stencil { shape: StencilShape, n: i64, b: i64 },
    Transpose(transpose::TransposeVariant, i64),
    Mlir(MlirTranspose),
}

/// One round's inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct Round {
    /// The generator calls, in order.
    pub gens: Vec<Gen>,
    /// Configurations to derive, in order; repeats are warm.
    pub derivations: Vec<(WorkloadKind, TunedConfig)>,
}

/// The fixed problem size of each family's derivations: derivation
/// cost does not depend on it, and the reference figures then vary
/// only with the configurations.
fn derived_kinds() -> [WorkloadKind; 6] {
    [
        WorkloadKind::Matmul { n: 1024 },
        WorkloadKind::Transpose { n: 512 },
        WorkloadKind::Stencil {
            shape: StencilShape::Star(1),
            n: 16,
        },
        WorkloadKind::Nw { n: 256, b: 16 },
        WorkloadKind::Lud { n: 512, bs: 16 },
        WorkloadKind::Rowwise {
            op: RowwiseOp::Softmax,
            m: 256,
            n: 1000,
        },
    ]
}

/// A run's inputs: per family, the configurations of its enlarged
/// domain that have a symbolic form, in a seeded order.
pub struct Plan {
    seed: u64,
    configs: Vec<(WorkloadKind, Vec<TunedConfig>)>,
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        let configs = derived_kinds()
            .into_iter()
            .map(|kind| {
                let mut rng = ops::rng(seed, "derive-plan", lego_tune::rng::fnv1a(&kind.name()));
                let mut all: Vec<TunedConfig> = Domain::new(kind, SpaceScale::Enlarged)
                    .enumerate()
                    .into_iter()
                    .filter(symbolic)
                    .collect();
                ops::shuffle(&mut rng, &mut all);
                (kind, all)
            })
            .collect();
        Plan { seed, configs }
    }

    /// The inputs of round `index`.
    pub fn round(&self, index: u64) -> Round {
        let mut rng = ops::rng(self.seed, "derive", index);
        let r = *rng.pick(&[1i64, 2, 4, 8]);
        let t = *rng.pick(&[8i64, 16, 32]);
        let b = *rng.pick(&[4i64, 8]);
        let mut gens: Vec<Gen> = matmul::MatmulVariant::ALL
            .iter()
            .map(|v| Gen::Matmul(*v))
            .collect();
        gens.extend([
            Gen::GroupedGemm,
            Gen::Layernorm(layernorm::Pass::Fwd),
            Gen::Layernorm(layernorm::Pass::Bwd),
            Gen::Softmax,
            Gen::Lud { r, t },
            Gen::Nw {
                b: *rng.pick(&[16i64, 32, 64, 128]),
            },
            Gen::Stencil {
                shape: *rng.pick(&StencilShape::ALL),
                n: *rng.pick(&[64i64, 128]),
                b,
            },
            Gen::Transpose(transpose::TransposeVariant::Naive, *rng.pick(&[16i64, 32])),
            Gen::Transpose(
                transpose::TransposeVariant::SmemCoalesced,
                *rng.pick(&[16i64, 32]),
            ),
            Gen::Mlir(MlirTranspose::Naive),
            Gen::Mlir(MlirTranspose::SmemCoalesced),
        ]);
        debug_assert_eq!(gens.len(), GENERATORS);

        let mut derivations: Vec<(WorkloadKind, TunedConfig)> = self
            .configs
            .iter()
            .map(|(kind, all)| (*kind, all[index as usize % all.len()]))
            .collect();
        ops::shuffle(&mut rng, &mut derivations);
        debug_assert_eq!(derivations.len(), COLD_DERIVATIONS);
        let mut again = derivations.clone();
        ops::shuffle(&mut rng, &mut again);
        derivations.extend(again);
        Round { gens, derivations }
    }
}

/// Whether a configuration's layout has a symbolic form (Morton
/// schedules have none).
fn symbolic(c: &TunedConfig) -> bool {
    !matches!(
        c,
        TunedConfig::Matmul {
            schedule: lego_tune::ScheduleChoice::Morton,
            ..
        }
    )
}

/// A generator call's output, reduced to what the checks need.
struct Generated {
    source: String,
    index_ops: usize,
    /// An (expression, layout, symbol names) triple to check against
    /// `apply_c`, for generators that expose one.
    exprs: Option<(Expr, Layout, Vec<&'static str>)>,
}

fn generate(g: Gen) -> Result<Generated, String> {
    let e = |e: lego_core::LayoutError| format!("{g:?}: {e}");
    let ops = |x: lego_codegen::opcount::GeneratedExprs| x.total_ops();
    Ok(match g {
        Gen::Matmul(v) => {
            let k = matmul::generate(v).map_err(e)?;
            Generated {
                index_ops: ops(k.generated_exprs()),
                source: k.source,
                exprs: None,
            }
        }
        Gen::GroupedGemm => {
            let k = grouped_gemm::generate().map_err(e)?;
            Generated {
                index_ops: ops(k.generated_exprs()),
                source: k.source,
                exprs: None,
            }
        }
        Gen::Layernorm(p) => {
            let k = layernorm::generate(p).map_err(e)?;
            Generated {
                index_ops: ops(k.generated_exprs()),
                source: k.source,
                exprs: None,
            }
        }
        Gen::Softmax => {
            let k = softmax::generate().map_err(e)?;
            Generated {
                index_ops: ops(k.generated_exprs()),
                source: k.source,
                exprs: None,
            }
        }
        Gen::Lud { r, t } => {
            let k = lud::generate(r, t).map_err(e)?;
            Generated {
                index_ops: Engine::new().op_count(&k.point_expr),
                source: k.source,
                exprs: Some((k.point_expr, k.layout, vec!["ri", "rj", "ti", "tj"])),
            }
        }
        Gen::Nw { b } => {
            let k = nw::generate(b).map_err(e)?;
            Generated {
                index_ops: Engine::new().op_count(&k.idx_expr),
                source: k.source,
                exprs: Some((k.idx_expr, k.optimized, vec!["i", "j"])),
            }
        }
        Gen::Stencil { shape, n, b } => Generated {
            source: stencil::generate(shape, n, b).map_err(e)?.source,
            index_ops: 0,
            exprs: None,
        },
        Gen::Transpose(v, t) => Generated {
            source: transpose::generate(v, t).map_err(e)?.source,
            index_ops: 0,
            exprs: None,
        },
        Gen::Mlir(v) => Generated {
            source: transpose_module(v).map_err(e)?.text,
            index_ops: 0,
            exprs: None,
        },
    })
}

/// One derived configuration.
struct Derived {
    layout: Layout,
    expr: Expr,
    names: Vec<String>,
    c_src: String,
    py_src: String,
    index_ops: usize,
}

/// `build_layout` → `apply_sym` → `Engine::simplify` → printers.
fn derive(kind: &WorkloadKind, config: &TunedConfig) -> Result<Derived, String> {
    let layout = span("core.build", || build_layout(kind, config))
        .map_err(|e| format!("{}: build: {e}", kind.name()))?;
    let rank = layout.view().rank();
    let names: Vec<String> = (0..rank).map(|i| format!("i{i}")).collect();
    let syms: Vec<Expr> = names.iter().map(|n| Expr::sym(n.as_str())).collect();
    let mut env = RangeEnv::new();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    layout
        .declare_index_bounds(&mut env, &name_refs)
        .map_err(|e| format!("{}: bounds: {e}", kind.name()))?;
    let raw = span("core.apply_sym", || layout.apply_sym(&syms))
        .map_err(|e| format!("{}: apply_sym: {e}", kind.name()))?;
    let eng = Engine::with_env(env);
    let expr = span("expr.simplify", || eng.simplify(&raw));
    let (c_src, py_src) = span("expr.print", || {
        (
            c::print(&expr).map_err(|e| format!("c printer: {e:?}")),
            python::print(&expr, python::Flavor::Python)
                .map_err(|e| format!("python printer: {e:?}")),
        )
    });
    let index_ops = eng.op_count(&expr);
    Ok(Derived {
        layout,
        expr,
        names,
        c_src: c_src?,
        py_src: py_src?,
        index_ops,
    })
}

/// Checks `expr` against the layout's concrete map at seeded in-bounds
/// points; `apply_c` is the independent interpreter.
fn check_points(expr: &Expr, layout: &Layout, names: &[&str], rng: &mut Rng) -> Result<(), String> {
    let dims = layout
        .view()
        .dims_const()
        .map_err(|e| format!("dims: {e}"))?;
    for _ in 0..CHECK_POINTS {
        let point: Vec<i64> = dims.iter().map(|&d| rng.below(d as usize) as i64).collect();
        let bind: HashMap<String, i64> = names
            .iter()
            .zip(&point)
            .map(|(n, v)| (n.to_string(), *v))
            .collect();
        let got = eval(expr, &bind).map_err(|e| format!("eval at {point:?}: {e:?}"))?;
        let want = span("core.apply", || layout.apply_c(&point))
            .map_err(|e| format!("apply_c at {point:?}: {e}"))?;
        if got != want {
            return Err(format!("{expr} at {point:?}: {got} != apply_c {want}"));
        }
    }
    Ok(())
}

/// What one round hands back to the run loop.
struct RoundResult {
    ops: Vec<Op>,
    index_ops: u64,
    failures: Vec<String>,
    check_s: f64,
}

fn run_round(seed: u64, index: u64, inputs: &Round) -> RoundResult {
    crate::spans::set_op(index);
    // Create the thread's (empty) expression arena before the clock
    // starts: its allocation is thread start-up, not derivation work.
    std::hint::black_box(lego_expr::intern::stats());
    let mut ops = Vec::new();
    let mut index_ops = 0u64;
    let mut outputs: Vec<Result<Generated, String>> = Vec::new();
    for &g in &inputs.gens {
        let t0 = Instant::now();
        let out = span("codegen.generate", || generate(g));
        ops.push(Op {
            ms: ops::ms_since(t0),
            class: Class::Cold,
        });
        if let Ok(out) = &out {
            count("codegen.generate.source_bytes", out.source.len() as f64);
            index_ops += out.index_ops as u64;
        }
        outputs.push(out);
    }
    let mut derived: Vec<Result<Derived, String>> = Vec::new();
    for (i, (kind, config)) in inputs.derivations.iter().enumerate() {
        let t0 = Instant::now();
        let d = span("derive", || derive(kind, config));
        ops.push(Op {
            ms: ops::ms_since(t0),
            class: if i < COLD_DERIVATIONS {
                Class::Cold
            } else {
                Class::Warm
            },
        });
        if let Ok(d) = &d {
            index_ops += d.index_ops as u64;
        }
        derived.push(d);
    }
    let arena = lego_expr::intern::stats();
    count("expr.arena.nodes", arena.nodes as f64);
    count("expr.arena.intern_hits", arena.intern_hits as f64);
    count("expr.arena.intern_misses", arena.intern_misses as f64);
    count("expr.simplify.memo_hits", arena.simplify_hits as f64);
    count("expr.simplify.memo_misses", arena.simplify_misses as f64);

    // Checks: untimed, on the same thread.
    let t0 = Instant::now();
    let mut failures = Vec::new();
    let mut rng = ops::rng(seed, "derive-check", index);
    for (g, out) in inputs.gens.iter().zip(&outputs) {
        match out {
            Err(e) => failures.push(e.clone()),
            Ok(out) => {
                if out.source.contains("{{") {
                    failures.push(format!("{g:?}: unrendered placeholder"));
                }
                if let Some((expr, layout, names)) = &out.exprs {
                    if let Err(e) = check_points(expr, layout, names, &mut rng) {
                        failures.push(format!("{g:?}: {e}"));
                    }
                }
            }
        }
    }
    for ((kind, _), d) in inputs.derivations.iter().zip(&derived) {
        match d {
            Err(e) => failures.push(e.clone()),
            Ok(d) => {
                let names: Vec<&str> = d.names.iter().map(String::as_str).collect();
                if d.c_src.is_empty() || d.py_src.is_empty() {
                    failures.push(format!("{}: empty printed source", kind.name()));
                }
                if let Err(e) = check_points(&d.expr, &d.layout, &names, &mut rng) {
                    failures.push(format!("{}: {e}", kind.name()));
                }
            }
        }
    }
    RoundResult {
        ops,
        index_ops,
        failures,
        check_s: t0.elapsed().as_secs_f64(),
    }
}

fn spawn_round(seed: u64, index: u64, inputs: &Round) -> RoundResult {
    std::thread::scope(|s| {
        s.spawn(|| run_round(seed, index, inputs))
            .join()
            .expect("derive round panicked")
    })
}

/// Simulated time (µs) of a derived configuration's kernel on the A100
/// model.
fn simulated_us(kind: &WorkloadKind, config: &TunedConfig) -> Result<f64, String> {
    let gpu = gpu_sim::a100();
    let cand = Candidate::annotated(kind, config);
    let layout = build_layout(kind, config).map_err(|e| format!("{}: {e}", kind.name()))?;
    let wl = build_workload(kind, &cand, &gpu);
    Ok(CostModel::new(&gpu).price(&layout, &wl).time_s * 1e6)
}

pub fn run(seed: u64, limit: Limit) -> Outcome {
    let mut out = Outcome::default();
    // Set-up, on a fresh thread (empty annotation memos): the plan
    // (enumerating the six enlarged domains) and a few warm-up rounds
    // (fault in code and allocator pages).
    let (mut setup, plan) = ops::Setup::new(|| {
        std::thread::scope(|s| {
            s.spawn(|| {
                let plan = Plan::new(seed);
                for i in 0..WARMUP_ROUNDS {
                    spawn_round(seed, u64::MAX, &plan.round(i));
                }
                plan
            })
            .join()
            .expect("derive set-up panicked")
        })
    });

    let mut busy = 0f64;
    let mut index = 0u64;
    loop {
        let measured = limit.more(busy, index, TRACED_ROUNDS);
        if !measured && index >= REFERENCE_ROUNDS {
            break;
        }
        let inputs = plan.round(index);
        let t0 = Instant::now();
        let r = spawn_round(seed, index, &inputs);
        let wall = t0.elapsed().as_secs_f64();
        if measured {
            busy += wall - r.check_s;
            if index.is_multiple_of(TAIL_STRIDE) && index / TAIL_STRIDE < TAIL_ROUNDS {
                out.tail_sample.extend(r.ops.iter().map(|op| op.ms));
            }
            out.ops.extend(r.ops);
        }
        if index < REFERENCE_ROUNDS {
            out.index_ops += r.index_ops;
        }
        for f in r.failures {
            out.fail(f);
        }
        index += 1;
        if measured {
            setup.between();
        }
    }
    out.busy_s = busy;
    out.setup_s = setup.median();
    out.notes.push(format!("derive: {index} rounds"));

    let mut priced: HashMap<String, f64> = HashMap::new();
    for i in 0..REFERENCE_ROUNDS {
        for (kind, config) in plan.round(i).derivations.iter().take(COLD_DERIVATIONS) {
            let key = format!("{}|{config:?}", kind.name());
            if let Some(&us) = priced.get(&key) {
                out.sim_us.push(us);
                continue;
            }
            match simulated_us(kind, config) {
                Ok(us) => {
                    priced.insert(key, us);
                    out.sim_us.push(us);
                }
                Err(e) => out.fail(e),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rounds() {
        let (a, b) = (Plan::new(7), Plan::new(7));
        for i in 0..4 {
            assert_eq!(a.round(i), b.round(i));
        }
        assert_ne!(a.round(0), Plan::new(8).round(0));
    }

    #[test]
    fn a_round_derives_and_checks_clean() {
        let r = spawn_round(3, 0, &Plan::new(3).round(0));
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(
            r.ops.len(),
            // Each configuration is derived twice: cold, then warm.
            GENERATORS + 2 * COLD_DERIVATIONS
        );
        assert!(r.index_ops > 0);
    }
}
