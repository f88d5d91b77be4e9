//! Trace-based performance simulator for accelerator arrays — the
//! reproduction of the paper's in-house TPU-v2/v3 simulator (§6.1).
//!
//! The paper describes its simulator in one paragraph:
//!
//! > "we derive the tensor accessing traces (loading and storing) and
//! > partial sum computation (MULT and ADD) traces for the simulation and
//! > then we calculate the time consuming for the computation and data
//! > accessing. The trace granularity for FC layer is element-wise (i.e.,
//! > 1) and for CONV is kernel-wise (e.g., 3x3)."
//!
//! This crate implements exactly that, with the aggregation needed to
//! make ImageNet-scale simulation tractable: per (leaf group, layer,
//! phase) the [`trace`] module emits *counted* segments of LOAD / STORE /
//! MULT / ADD events at the paper's granularity (element-wise for FC,
//! kernel-window-wise for CONV); the [`machine`] module prices segments
//! on an accelerator's compute pipeline and HBM channel; and
//! [`Simulator`] executes a full training step — forward sweep, then
//! backward + gradient sweep — over a hierarchically partitioned array in
//! bulk-synchronous order, charging partial-sum exchanges and inter-layer
//! tensor conversions on the network links of every bisection level.
//!
//! The simulator is deliberately *independent* of the analytic cost model
//! used by the search: the cost model plans, the simulator measures.
//! Cross-validation tests in `tests/` check that the two agree where they
//! must.
//!
//! # Example
//!
//! ```
//! use accpar_dnn::zoo;
//! use accpar_hw::{AcceleratorArray, GroupTree};
//! use accpar_partition::{HierPlan, LayerPlan, NetworkPlan};
//! use accpar_sim::{SimConfig, Simulator};
//!
//! let net = zoo::lenet(512)?;
//! let view = net.train_view()?;
//! let array = AcceleratorArray::heterogeneous_tpu(2, 2);
//! let tree = GroupTree::bisect(&array, 2)?;
//!
//! // Plain data parallelism at both hierarchy levels.
//! let level = NetworkPlan::uniform(view.weighted_len(), LayerPlan::data_parallel());
//! let plan = HierPlan::new(vec![level.clone(), level]).to_tree();
//!
//! let report = accpar_sim::simulate(&SimConfig::default(), &view, &plan, &tree, None)?;
//! assert!(report.total_secs > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod config;
pub mod des;
mod error;
mod faults;
mod geometry;
pub mod machine;
pub mod memory;
mod reference;
mod simulator;
pub mod trace;

pub use config::{MemModel, Optimizer, SimConfig};
pub use des::{simulate_des, simulate_des_in, DesArena, DesReport};
#[doc(hidden)]
pub use des::simulate_des_naive;
pub use error::SimError;
pub use memory::{memory_report, MemoryReport};
#[doc(hidden)]
pub use reference::simulate_bsp_reference;
pub use simulator::{LayerBreakdown, SimReport, Simulator};

/// One-call entry point for the bulk-synchronous simulator: simulates
/// one training step of `view` partitioned by `plan` over `tree`,
/// entirely driven by `config`, optionally under an injected
/// [`FaultModel`](accpar_hw::FaultModel).
///
/// Equivalent to `Simulator::new(*config).simulate(view, plan, tree,
/// faults)`; use [`Simulator::with_obs`] when the step should be
/// traced.
///
/// # Errors
///
/// The same validation and fault errors as [`Simulator::simulate`].
pub fn simulate(
    config: &SimConfig,
    view: &accpar_dnn::TrainView,
    plan: &accpar_partition::PlanTree,
    tree: &accpar_hw::GroupTree,
    faults: Option<&accpar_hw::FaultModel>,
) -> Result<SimReport, SimError> {
    Simulator::new(*config).simulate(view, plan, tree, faults)
}
