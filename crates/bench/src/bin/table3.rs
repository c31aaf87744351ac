//! **Table III**: per-application code generation and simplification
//! latency. Reproduces the paper's one-time cost table by timing this
//! repository's actual generators (layout construction + symbolic
//! apply/inv + Table II simplification + printing).
//!
//! Pass `--tuned` to additionally run the `lego-tune` search for every
//! generator family (through the shared `gpu_sim::trace` builders) and
//! report naive-vs-tuned estimates (`--strategy anneal|genetic` with
//! `--budget N` searches the enlarged free-integer space).

use std::time::Instant;

use lego_bench::tuned;
use lego_codegen::cuda::{lud, nw, stencil, transpose};
use lego_codegen::mlir::{transpose_module, MlirTranspose};
use lego_codegen::triton::{grouped_gemm, layernorm, matmul, softmax};
use lego_tune::{emit, Json, WorkloadKind};

fn time<F: FnMut()>(mut f: F) -> f64 {
    // Warm once, then take the best of 3 (generation is deterministic).
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    println!("Table III: per-application code generation and simplification");
    println!("(paper column: Apple M2 Max + SymPy/Z3; measured column: this");
    println!(" Rust implementation — absolute values differ, sub-second to");
    println!(" seconds order preserved)\n");
    println!(
        "{:<28} {:>14} {:>14}",
        "Benchmark", "measured (s)", "paper (s)"
    );

    let rows: Vec<(&str, f64, &str)> = vec![
        (
            "Layernorm FWD + BWD",
            time(|| {
                layernorm::generate(layernorm::Pass::Fwd).unwrap();
                layernorm::generate(layernorm::Pass::Bwd).unwrap();
            }),
            "0.33",
        ),
        (
            "Grouped GEMM",
            time(|| {
                grouped_gemm::generate().unwrap();
            }),
            "0.65",
        ),
        (
            "Softmax",
            time(|| {
                softmax::generate().unwrap();
            }),
            "0.05",
        ),
        (
            "Matmul (each variant)",
            time(|| {
                matmul::generate(matmul::MatmulVariant::NN).unwrap();
            }),
            "1.11",
        ),
        (
            "LUD",
            time(|| {
                lud::generate(4, 16).unwrap();
            }),
            "0.87",
        ),
        (
            "NW",
            time(|| {
                nw::generate(16).unwrap();
            }),
            "0.46",
        ),
        (
            "Bricks (Cube)",
            time(|| {
                stencil::generate(stencil::StencilShape::Cube(2), 128, 8).unwrap();
            }),
            "5.95",
        ),
        (
            "Bricks (Star)",
            time(|| {
                stencil::generate(stencil::StencilShape::Star(4), 128, 8).unwrap();
            }),
            "18.07",
        ),
        (
            "Transpose (Naive)",
            time(|| {
                transpose::generate(transpose::TransposeVariant::Naive, 32).unwrap();
                transpose_module(MlirTranspose::Naive).unwrap();
            }),
            "1.07",
        ),
        (
            "Transpose (SMEM)",
            time(|| {
                transpose::generate(transpose::TransposeVariant::SmemCoalesced, 32).unwrap();
                transpose_module(MlirTranspose::SmemCoalesced).unwrap();
            }),
            "1.15",
        ),
    ];
    let mut json_rows = Vec::new();
    for (name, secs, paper) in rows {
        println!("{name:<28} {secs:>14.4} {paper:>14}");
        json_rows.push(Json::obj([
            ("benchmark", Json::Str(name.to_string())),
            ("measured_s", Json::num(secs)),
            ("paper_s", Json::Str(paper.to_string())),
        ]));
    }
    emit::announce(emit::write_bench_json(
        // Codegen latency does not depend on the device model; only the
        // maybe_report sidecar below is per-device.
        "table3", json_rows,
    ));
    // One search per generator family timed above, so the one-time
    // codegen cost can be read next to the tuning payoff.
    tuned::maybe_report(
        "table3",
        &[
            WorkloadKind::Matmul { n: 2048 },
            WorkloadKind::Transpose { n: 2048 },
            WorkloadKind::Stencil {
                shape: stencil::StencilShape::Star(2),
                n: 64,
            },
            WorkloadKind::Nw { n: 2048, b: 16 },
            WorkloadKind::Lud { n: 2048, bs: 16 },
        ],
    );
}
