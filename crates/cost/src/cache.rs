//! Canonical, bit-exact keys for memoizing the cost tables.
//!
//! Networks repeat themselves: VGG nets stack shape-identical conv
//! layers, ResNets stack identical bottleneck blocks. The ratio solve
//! (Eq. 10) and the scalarized layer cost (Eq. 7 + Eq. 8) —
//! [`layer_ratio_cost`] — are pure functions of the layer's geometry
//! and the evaluation context, so a search may compute them once per
//! distinct input. This module defines what "distinct" means:
//!
//! * [`LayerSig`] — the layer's geometry (kind/window, `D_i`, `D_o`,
//!   feature-map and kernel shapes) plus whether the model skips this
//!   layer's backward phase. The layer's *position* in the network is
//!   deliberately **not** part of the signature (shape-identical layers
//!   must share one entry); the one position-dependent cost rule —
//!   [`CostConfig::skip_first_backward`] applies only to layer 0 — is
//!   folded into the `skip_backward` bit instead.
//! * [`ShardScales`] and [`PairEnv`], canonicalized via [`f64::to_bits`]
//!   ([`scales_bits`], [`env_bits`]; bit-exact: two environments hash
//!   alike iff every capability and link bandwidth is bitwise identical
//!   — a `FaultModel`-degraded tree therefore never aliases a healthy
//!   one).
//!
//! Because every input is captured bit-exactly, a memo hit returns the
//! exact `f64`s a fresh computation would — callers stay bit-identical
//! with and without memoization. The memos themselves live in the
//! planner (`accpar_core`): one layer row per distinct
//! (`LayerSig`, scale bits) within one level search, where the pair
//! environment, cost configuration and solver are fixed.

use crate::model::{CostConfig, CostModel, PairEnv};
use crate::ratio::RatioSolver;
use accpar_dnn::{AttnStage, TrainLayer, WeightedKind};
use accpar_partition::{PartitionType, Ratio, ShardScales};
use accpar_tensor::{FeatureShape, KernelShape};

// The memo maps' hasher lives in `accpar-tensor` (the workspace's
// lowest layer) so structural passes in `accpar-dnn` can share it;
// re-exported here because the keys of this module are hashed through
// it and downstream crates import it from this path.
pub use accpar_tensor::hash::{FxBuildHasher, FxHashMap, FxHasher};

/// The canonical, position-independent signature of a weighted layer
/// (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerSig {
    kind: WeightedKind,
    d_in: usize,
    d_out: usize,
    in_fmap: FeatureShape,
    out_fmap: FeatureShape,
    weight: KernelShape,
    /// The attention stage carried by a lowered `o` projection, if any —
    /// it adds stage FLOPs and K/V exchange, so a plain FC layer of the
    /// same geometry must not alias it.
    attn: Option<AttnStage>,
    /// Whether the model skips this layer's backward phase
    /// ([`CostConfig::skip_first_backward`] on the first weighted layer).
    skip_backward: bool,
}

impl LayerSig {
    /// The signature of `layer` under `config`'s cost rules.
    #[must_use]
    pub fn of(layer: &TrainLayer, config: &CostConfig) -> Self {
        Self {
            kind: layer.kind(),
            d_in: layer.d_in(),
            d_out: layer.d_out(),
            in_fmap: layer.in_fmap(),
            out_fmap: layer.out_fmap(),
            weight: layer.weight(),
            attn: layer.attn(),
            skip_backward: config.skip_first_backward && layer.index() == 0,
        }
    }
}

/// [`PairEnv`] canonicalized to its bit pattern.
#[must_use]
pub fn env_bits(env: &PairEnv) -> [u64; 10] {
    [
        env.caps_a.flops.to_bits(),
        env.caps_a.mem_bw.to_bits(),
        env.caps_a.net_bw.to_bits(),
        env.caps_a.hbm_bytes.to_bits(),
        env.caps_b.flops.to_bits(),
        env.caps_b.mem_bw.to_bits(),
        env.caps_b.net_bw.to_bits(),
        env.caps_b.hbm_bytes.to_bits(),
        env.link_a.to_bits(),
        env.link_b.to_bits(),
    ]
}

/// [`ShardScales`] canonicalized to its bit pattern.
#[must_use]
pub fn scales_bits(scales: ShardScales) -> [u64; 4] {
    [
        scales.f_in.to_bits(),
        scales.f_out.to_bits(),
        scales.weight.to_bits(),
        scales.flops.to_bits(),
    ]
}

/// Solves the ratio and scalarized cost of one (layer, type) table
/// cell: a pure function of ([`LayerSig`], type, scales, env, cost
/// configuration, solver).
#[must_use]
pub fn layer_ratio_cost(
    model: &CostModel,
    solver: &RatioSolver,
    layer: &TrainLayer,
    ptype: PartitionType,
    env: &PairEnv,
    scales: ShardScales,
) -> (Ratio, f64) {
    let ratio = solver.solve(model, layer, ptype, env, scales);
    let cost = model.scalarize(model.layer_cost(layer, ptype, ratio, env, scales));
    (ratio, cost)
}
