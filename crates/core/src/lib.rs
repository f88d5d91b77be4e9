//! The AccPar partitioning algorithm (§5 of the paper) — the primary
//! contribution of the reproduced system.
//!
//! * [`search`] — the layer-wise dynamic program of Eq. 9 over the
//!   *complete* three-type partition space, with per-layer partition
//!   ratios from the §5.3 solver and the §5.2 multi-path extension for
//!   ResNet-style blocks; plus an exhaustive `O(3^N)` reference searcher
//!   used to certify optimality in tests.
//! * [`hierarchy`] — the recursive application of the level search down a
//!   bisected accelerator array (§5.1), producing a
//!   [`PlanTree`](accpar_partition::PlanTree).
//! * [`baselines`] — the three comparison schemes of §6: plain data
//!   parallelism, "One Weird Trick" (CONV → Type-I, FC → Type-II), and
//!   HyPar (a dynamic search restricted to Types I/II, equal ratios,
//!   communication-amount objective).
//! * [`replan`](mod@crate::replan) — graceful degradation: re-run the search
//!   against a faulted array (stragglers, degraded links, dropped
//!   boards) and adopt the new plan only when it beats the stale one on
//!   the same degraded hardware.
//! * [`serve`](mod@crate::serve) — supervised batch serving: a queue of
//!   (network, hardware, budget) requests planned with per-request
//!   panic isolation, overload shedding and a stall watchdog.
//! * [`supervise`](mod@crate::supervise) — live replanning: a
//!   [`Supervisor`] owns the serving plan and walks a degradation
//!   ladder (hold → never-worse replan → fallback → shed) over a
//!   debounced stream of hardware health events.
//! * [`PlanRequest`] and [`Planner`] — the one value that configures a
//!   plan (network, array, knobs, budget, faults) and the validated
//!   planner it builds, tying the search and the evaluation together;
//!   [`plan_many`] serves batches of requests through the same path.
//!   Under a [`Budget`] the planner is *anytime*:
//!   when the budget expires mid-search it returns
//!   [`PlanOutcome::Partial`] — solved levels keep their DP-optimal
//!   assignments, the rest falls back to data parallelism — never worse
//!   than the pure data-parallel baseline.
//!
//! # Example
//!
//! ```
//! use accpar_core::{Planner, Strategy};
//! use accpar_dnn::zoo;
//! use accpar_hw::AcceleratorArray;
//!
//! let network = zoo::alexnet(512)?;
//! let array = AcceleratorArray::heterogeneous_tpu(2, 2);
//! let planner = Planner::builder(&network, &array).build()?;
//!
//! let accpar = planner.plan(Strategy::AccPar)?;
//! let dp = planner.plan(Strategy::DataParallel)?;
//! // The complete, heterogeneity-aware search wins clearly on AlexNet.
//! assert!(accpar.modeled_cost() < dp.modeled_cost());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod baselines;
pub mod cache;
mod error;
pub mod feasible;
pub mod hierarchy;
mod memo;
mod planner;
pub mod replan;
pub mod search;
pub mod serve;
pub mod supervise;

pub use cache::{CacheOutcome, LoadReport, PlanCache, PlanCacheStats, PlanKey, PlanRecord};
pub use error::PlanError;
pub use hierarchy::AnytimeReport;
pub use memo::{CacheStats, SearchCache};
pub use planner::{PartialPlan, PlanOutcome, PlanRequest, PlannedNetwork, Planner, Strategy};
pub use replan::{replan, FaultImpact, PlanDelta, ReplanConfig, ReplanOutcome};
pub use search::{level_class_keys, LevelSearcher, SearchConfig, SearchOutcome};
pub use serve::{plan_many, ServeConfig};
pub use supervise::{Decision, SuperviseAction, SuperviseConfig, SuperviseReport, Supervisor};

// Re-export the budget vocabulary so `accpar_core` users don't need a
// direct `accpar_runtime` dependency to bound a plan.
pub use accpar_runtime::{Budget, CancelToken, RetryPolicy, StopReason};
