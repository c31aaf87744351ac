//! Cross-crate pricing checks: the NW per-block pass count against the
//! priced smem phase, property tests for the occupancy model, and the
//! tuner's end-to-end handling of the additive-launch NW/LUD kinds, on
//! every device (A100, H100 and the warp-64 MI300). Paper tables and
//! tuner rankings share one pricing path — `lego_tune::space` builds,
//! `gpu_sim::CostModel` prices — so they need no parity test.

mod prop_support;

use gpu_sim::trace::{NwWavefront, TraceBuilder};
use gpu_sim::{a100, h100, mi300, CostModel, GpuConfig, KernelProfile};
use lego_codegen::cuda::stencil::StencilShape;
use lego_core::Layout;
use lego_tune::{build_layout, WorkloadKind};
use prop_support::Rng;

/// Every device configuration of the model, so an NVIDIA-shaped
/// assumption anywhere in the pricing path shows up on the MI300.
fn devices() -> [GpuConfig; 3] {
    [a100(), h100(), mi300()]
}

/// The NW per-block pass count — a direct bank-conflict count of one
/// block's wavefront sweep — is the smem phase the cost model prices,
/// block for block, on every device.
#[test]
fn nw_block_passes_match_the_priced_smem_phase() {
    let (n, b) = (2048i64, 16i64);
    let blocks = 2.0 * ((n / b) * (n / b)) as f64;
    let k = lego_codegen::cuda::nw::generate(b).unwrap();
    for cfg in devices() {
        let workload = NwWavefront {
            n,
            b,
            index_flops: 0.0,
        }
        .build(&cfg);
        for layout in [&k.baseline, &k.optimized] {
            let passes = NwWavefront::block_passes(layout, b, &cfg);
            let priced = CostModel::new(&cfg).price(layout, &workload);
            assert_eq!(priced.smem_passes, passes * blocks, "{}", cfg.name);
        }
    }
}

/// Occupancy is monotone non-increasing in registers and shared memory
/// per block, and resident warps never exceed the hardware cap.
#[test]
fn occupancy_is_monotone_and_capped() {
    let mut rng = Rng::new(0x0cc0_9a7e);
    for cfg in devices() {
        for _ in 0..500 {
            let warps = rng.range_i64(1, 33) as f64;
            let regs = rng.range_i64(0, 80_000) as f64;
            let smem = rng.range_i64(0, 300 * 1024) as f64;
            let p = KernelProfile {
                warps_per_block: warps,
                regs_per_block: regs,
                smem_per_block: smem,
                ..Default::default()
            };
            let occ = p.occupancy(&cfg);
            assert!((0.0..=1.0).contains(&occ), "occ {occ}");
            assert!(
                p.resident_warps(&cfg) <= cfg.max_warps_per_sm as f64,
                "resident warps exceed cap"
            );

            // Monotone non-increasing in each resource.
            let more_regs = KernelProfile {
                regs_per_block: regs + rng.range_i64(1, 20_000) as f64,
                ..p
            };
            assert!(
                more_regs.occupancy(&cfg) <= occ,
                "occupancy rose with registers: {} regs {} -> {}",
                cfg.name,
                regs,
                more_regs.regs_per_block
            );
            let more_smem = KernelProfile {
                smem_per_block: smem + rng.range_i64(1, 64 * 1024) as f64,
                ..p
            };
            assert!(
                more_smem.occupancy(&cfg) <= occ,
                "occupancy rose with smem: {} {} -> {}",
                cfg.name,
                smem,
                more_smem.smem_per_block
            );
        }
    }
}

/// Lower occupancy can only slow a kernel down, never speed it up, and
/// a resource-free profile estimates exactly as before the occupancy
/// term existed.
#[test]
fn estimates_never_improve_with_lower_occupancy() {
    let mut rng = Rng::new(0xe571_aa7e);
    let cfg = a100();
    for _ in 0..200 {
        let base = KernelProfile {
            flops: rng.range_i64(1, 1_000_000) as f64 * 1e6,
            dram_bytes: rng.range_i64(1, 1_000_000) as f64 * 1e3,
            l2_bytes: rng.range_i64(1, 1_000_000) as f64 * 1e3,
            smem_passes: rng.range_i64(0, 1_000_000) as f64,
            blocks: 1024.0,
            launches: 1.0,
            warps_per_block: 8.0,
            regs_per_block: rng.range_i64(1, 65_536) as f64,
            smem_per_block: rng.range_i64(1, 164 * 1024) as f64,
        };
        let starved = KernelProfile {
            regs_per_block: base.regs_per_block * 2.0,
            smem_per_block: base.smem_per_block * 2.0,
            ..base
        };
        let t_base = gpu_sim::estimate(&base, gpu_sim::Pipeline::Fp32, &cfg);
        let t_starved = gpu_sim::estimate(&starved, gpu_sim::Pipeline::Fp32, &cfg);
        assert!(
            t_starved.total_s >= t_base.total_s - 1e-18,
            "starved kernel got faster"
        );
    }
}

/// The tuner handles the new NW and LUD kinds end to end and never
/// regresses their default configurations.
#[test]
fn nw_and_lud_tune_end_to_end() {
    use lego_tune::Tuner;
    for cfg in [a100(), h100()] {
        let tuner = Tuner::new(cfg.clone());
        for kind in [
            WorkloadKind::Nw { n: 2048, b: 16 },
            WorkloadKind::Lud { n: 2048, bs: 16 },
        ] {
            let r = tuner
                .tune(&kind)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", kind.name(), cfg.name));
            assert!(r.evaluated > 1, "{}: space collapsed", kind.name());
            assert!(
                r.tuned.time_s <= r.naive.time_s,
                "{} regressed on {}",
                kind.name(),
                cfg.name
            );
            // Both workloads have real headroom over the Rodinia
            // defaults (conflict-free buffer, coarsened panels).
            assert!(
                r.speedup() > 1.5,
                "{}: speedup {}",
                kind.name(),
                r.speedup()
            );
        }
    }
}

/// The oracle path builds a concrete layout for every kind, including
/// the panel-granular LUD whose trace ignores it.
#[test]
fn every_kind_builds_a_layout_for_its_default_config() {
    for kind in [
        WorkloadKind::Matmul { n: 1024 },
        WorkloadKind::Transpose { n: 512 },
        WorkloadKind::Stencil {
            shape: StencilShape::Star(1),
            n: 32,
        },
        WorkloadKind::Nw { n: 1024, b: 16 },
        WorkloadKind::Lud { n: 1024, bs: 16 },
    ] {
        let layout: Layout = build_layout(&kind, &kind.default_config()).expect("layout");
        let dims = layout.view().dims_const().expect("const dims");
        assert!(!dims.is_empty(), "{}", kind.name());
    }
}
