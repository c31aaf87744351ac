//! Workload drivers, one per paper experiment family. Every
//! configuration the tuner can name is built by `lego_tune::space` and
//! priced by `gpu_sim::CostModel`, the same path the tuner ranks
//! candidates on; the drivers pick the paper's configurations and turn
//! estimates into table rows.

use gpu_sim::{CostModel, Estimate, GpuConfig};
use lego_tune::{build_layout, build_workload, Candidate, TunedConfig, WorkloadKind};

pub mod lud;
pub mod matmul;
pub mod nw;
pub mod rowwise;
pub mod stencil;
pub mod transpose;

/// Prices one tuner configuration. The candidate carries no
/// index-expression annotation, so the estimate has no index-flop term,
/// as in the paper tables.
fn price(kind: WorkloadKind, config: TunedConfig, cfg: &GpuConfig) -> Estimate {
    let candidate = Candidate {
        config,
        expr_variant: None,
        index_ops: None,
    };
    let layout = build_layout(&kind, &config).expect("paper configurations build");
    CostModel::new(cfg).price(&layout, &build_workload(&kind, &candidate, cfg))
}
