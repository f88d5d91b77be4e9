//! The AccPar cost model (§4 of the paper).
//!
//! AccPar optimizes *overall cost* — unlike HyPar, which minimizes
//! communication alone — by combining:
//!
//! * **communication cost** `E_cm = A(T) / b_i` (Eq. 7): intra-layer
//!   partial-sum exchanges (Table 4) and inter-layer tensor conversions
//!   between partition types (Table 5), in [`comm`];
//! * **computation cost** `E_cp = α·C(T₁×T₂) / c_i` (Eq. 8) with the FLOP
//!   counts of Table 6 and their convolutional extension (§4.3), in
//!   [`compute`];
//! * the **partition-ratio solver** of §5.3 (Eq. 10) that balances the two
//!   groups of a heterogeneous pair, in [`ratio`].
//!
//! [`CostModel`] packages these behind one interface parameterized by a
//! [`CostConfig`]; [`PairEnv`] carries the two groups' capabilities
//! (computation density `c_i`, cut bandwidth `b_i`, memory bandwidth).
//!
//! # Example
//!
//! ```
//! use accpar_cost::{CostConfig, CostModel, PairEnv};
//! use accpar_dnn::zoo;
//! use accpar_hw::{AcceleratorArray, GroupTree};
//! use accpar_partition::{PartitionType, Ratio, ShardScales};
//!
//! let net = zoo::alexnet(512)?;
//! let view = net.train_view()?;
//! let layer = view.layers().next().unwrap();
//!
//! let tree = GroupTree::bisect(&AcceleratorArray::heterogeneous_tpu(128, 128), 1)?;
//! let env = PairEnv::from_node(tree.root()).unwrap();
//!
//! let model = CostModel::new(CostConfig::default());
//! let cost = model.layer_cost(layer, PartitionType::TypeI, Ratio::EQUAL, &env, ShardScales::full());
//! // Under an equal split the slower v2 group dominates the makespan.
//! assert!(cost.a > cost.b);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod comm;
pub mod compute;
mod model;
pub mod ratio;

pub use cache::{layer_ratio_cost, LayerSig};
pub use model::{CostConfig, CostModel, NonFiniteCost, Objective, PairCost, PairEnv};
pub use ratio::RatioSolver;
