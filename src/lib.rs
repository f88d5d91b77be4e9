//! # AccPar
//!
//! A from-scratch Rust reproduction of *AccPar: Tensor Partitioning for
//! Heterogeneous Deep Learning Accelerators* (Song et al., HPCA 2020).
//!
//! AccPar decides, for every weighted layer of a DNN and every level of a
//! hierarchically-bisected accelerator array, which of three basic tensor
//! partition types to use and what fraction of the work each accelerator
//! group receives — minimizing a cost model that accounts for both
//! computation and communication on *heterogeneous* hardware.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`tensor`] — shape algebra, the `A(·)` size function, data formats;
//! * [`dnn`] — layer graphs, shape propagation and the model zoo
//!   (LeNet, AlexNet, VGG-11/13/16/19, ResNet-18/34/50);
//! * [`hw`] — accelerator specs (TPU-v2 / TPU-v3), arrays and
//!   hierarchical group trees;
//! * [`partition`] — the three basic partition types, ratios and plans;
//! * [`cost`] — the communication + computation cost model (Tables 4–6)
//!   and the partition-ratio solver (Eq. 10);
//! * [`sim`] — a trace-based discrete-event performance simulator for
//!   accelerator arrays;
//! * [`core`] — the layer-wise dynamic-programming search (Eq. 9),
//!   multi-path handling, hierarchical planning, the DP / OWT / HyPar
//!   baselines, and the live-replanning [`prelude::Supervisor`] that
//!   reacts to hardware health events;
//! * [`exec`] — the executable semantics oracle: numerically runs
//!   partitioned training on virtual devices and verifies both the
//!   results and the communication volumes against the cost model;
//! * [`runtime`] — the std-only thread pool behind parallel planning,
//!   plus the [`prelude::Budget`] / [`prelude::CancelToken`] vocabulary
//!   for deadlines, node budgets and cooperative cancellation;
//! * [`obs`] — structured tracing, metrics and profiling hooks
//!   ([`obs::Obs`], [`obs::Subscriber`], [`obs::Metrics`]).
//!
//! Errors from any layer unify into [`AccParError`]. A plan is
//! configured by one value, [`prelude::PlanRequest`]
//! (`Planner::builder(..)` starts one), whose `build` validates every
//! knob up front.
//!
//! # Quickstart
//!
//! ```
//! use accpar::prelude::*;
//!
//! // A heterogeneous array: 4 TPU-v2 and 4 TPU-v3 boards.
//! let array = AcceleratorArray::heterogeneous_tpu(4, 4);
//! let network = zoo::alexnet(512)?;
//!
//! // Search the complete partition space with the full cost model.
//! let planner = Planner::builder(&network, &array).build()?;
//! let accpar = planner.plan(Strategy::AccPar)?;
//! let dp = planner.plan(Strategy::DataParallel)?;
//!
//! // The complete, heterogeneity-aware search wins clearly on AlexNet.
//! assert!(accpar.modeled_cost() < dp.modeled_cost());
//! # Ok::<(), accpar::AccParError>(())
//! ```
//!
//! # Observability
//!
//! Attach a [`Subscriber`](obs::Subscriber) to watch the search decide
//! (one `plan.decision` event per plan-tree node and layer) and to
//! collect metrics — cache hit rates, per-type cost evaluations,
//! per-phase simulator timings:
//!
//! ```
//! use accpar::prelude::*;
//! use std::sync::Arc;
//!
//! let array = AcceleratorArray::heterogeneous_tpu(2, 2);
//! let network = zoo::lenet(128)?;
//!
//! let collector = Arc::new(Collector::new());
//! let planner = Planner::builder(&network, &array)
//!     .levels(2)
//!     .subscriber(Arc::clone(&collector))
//!     .build()?;
//! let planned = planner.plan(Strategy::AccPar)?;
//!
//! // One decision event per (plan-tree node, weighted layer).
//! let decisions = collector.events_named("plan.decision");
//! assert_eq!(decisions.len(), 3 * planned.plan().plan().len());
//! # Ok::<(), accpar::AccParError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use accpar_core as core;
pub use accpar_exec as exec;
pub use accpar_cost as cost;
pub use accpar_dnn as dnn;
pub use accpar_hw as hw;
pub use accpar_obs as obs;
pub use accpar_partition as partition;
pub use accpar_runtime as runtime;
pub use accpar_sim as sim;
pub use accpar_tensor as tensor;

mod error;

pub use error::AccParError;

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::error::AccParError;
    pub use accpar_core::{
        baselines, plan_many, replan, AnytimeReport, Budget, CacheOutcome, CacheStats, CancelToken,
        PartialPlan, PlanCache, PlanCacheStats, PlanError, PlanOutcome, PlanRequest, PlannedNetwork,
        Planner, ReplanConfig, ReplanOutcome, RetryPolicy, SearchCache, ServeConfig, StopReason,
        Strategy, SuperviseAction, SuperviseConfig, SuperviseReport, Supervisor,
    };
    pub use accpar_cost::{CostConfig, CostModel, PairEnv, RatioSolver};
    pub use accpar_dnn::{zoo, Network, NetworkBuilder};
    pub use accpar_hw::{
        AcceleratorArray, AcceleratorSpec, FaultModel, GroupTree, HealthEvent, HealthEventKind,
        HealthSchedule,
    };
    pub use accpar_obs::{
        Collector, JsonLines, Metrics, MetricsSnapshot, NoopSubscriber, Obs, ScopedTimer,
        StderrSubscriber, Subscriber,
    };
    pub use accpar_partition::{HierPlan, LayerPlan, NetworkPlan, PartitionType, PlanTree, Ratio};
    pub use accpar_sim::{
        simulate, simulate_des, simulate_des_in, DesArena, SimConfig, SimReport, Simulator,
    };
    pub use accpar_tensor::{ConvGeometry, DataFormat, FeatureShape, KernelShape};
}
