//! Training memory-footprint analysis.
//!
//! The paper's motivation (§2.3) includes models whose "computation and
//! memory requirement … typically cannot be satisfied by a single
//! accelerator". A partition plan determines what each leaf group must
//! hold:
//!
//! * its shard of every layer's weights, gradients and optimizer state
//!   (replicated in full under Type-I);
//! * its shard of every layer's input activations (`F_l`), retained from
//!   the forward sweep for the backward and gradient phases;
//! * a transient error buffer for the largest `E` tensor it touches.
//!
//! [`memory_report`] computes these per leaf from the same class table
//! the simulators use, and compares them against each leaf's HBM
//! capacity.

use crate::config::{Optimizer, SimConfig};
use crate::error::SimError;
use crate::geometry::{validate, ClassTable};
use accpar_dnn::{TrainLayer, TrainView};
use accpar_hw::GroupTree;
use accpar_partition::PlanTree;
use std::fmt;

/// Per-leaf training memory footprint of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryReport {
    /// Bytes each leaf group must hold.
    pub per_leaf_bytes: Vec<f64>,
    /// Each leaf's HBM capacity in bytes.
    pub per_leaf_capacity: Vec<f64>,
    /// The worst leaf's occupancy (bytes / capacity).
    pub peak_occupancy: f64,
}

impl MemoryReport {
    /// Whether every leaf's footprint fits its HBM.
    #[must_use]
    pub fn fits(&self) -> bool {
        self.peak_occupancy <= 1.0
    }

    /// The largest single-leaf footprint in bytes.
    #[must_use]
    pub fn peak_bytes(&self) -> f64 {
        self.per_leaf_bytes.iter().copied().fold(0.0, f64::max)
    }
}

impl fmt::Display for MemoryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "peak {:.2} GB / leaf ({:.1}% of HBM, {})",
            self.peak_bytes() / 1e9,
            self.peak_occupancy * 100.0,
            if self.fits() { "fits" } else { "DOES NOT FIT" }
        )
    }
}

/// Computes the per-leaf training memory footprint of `plan` over `tree`.
///
/// # Errors
///
/// Returns the same validation errors as
/// [`Simulator::simulate`](crate::Simulator::simulate).
pub fn memory_report(
    view: &TrainView,
    plan: &PlanTree,
    tree: &GroupTree,
    config: &SimConfig,
    optimizer: Optimizer,
) -> Result<MemoryReport, SimError> {
    let n_layers = view.weighted_len();
    validate(plan, tree, n_layers)?;
    let mut layers: Vec<&TrainLayer> = view.layers().collect();
    layers.sort_by_key(|l| l.index());

    let bytes_per_elem = config.format.bytes_per_element() as f64;
    // Weights + gradients + optimizer state copies.
    let weight_copies = (2 + optimizer.state_copies()) as f64;

    // Each leaf class's footprint; its leaves hold the same.
    let table = ClassTable::new(tree, plan, n_layers, None);
    let mut bytes = Vec::with_capacity(table.leaves.len());
    let mut capacity = Vec::with_capacity(table.leaves.len());
    for leaf in &table.leaves {
        let mut held = 0.0;
        // Transient error buffer: the largest E tensor this leaf holds
        // at any point of the backward sweep.
        let mut transient_e: f64 = 0.0;
        for (l, layer) in layers.iter().enumerate() {
            let scales = table.scales(leaf.lineage, l);
            let w = layer.weight().size() as f64 * scales.weight;
            let f_in = layer.in_fmap().size() as f64 * scales.f_in;
            held += (w * weight_copies + f_in) * bytes_per_elem;
            let e = (layer.out_fmap().size() as f64 * scales.f_out)
                .max(layer.in_fmap().size() as f64 * scales.f_in);
            transient_e = transient_e.max(e * bytes_per_elem);
        }
        bytes.push(held + transient_e);
        capacity.push(leaf.caps.hbm_bytes);
    }
    let per_leaf_bytes = table.per_leaf(&bytes);
    let per_leaf_capacity = table.per_leaf(&capacity);

    let peak_occupancy = per_leaf_bytes
        .iter()
        .zip(&per_leaf_capacity)
        .map(|(b, c)| b / c)
        .fold(0.0, f64::max);

    Ok(MemoryReport {
        per_leaf_bytes,
        per_leaf_capacity,
        peak_occupancy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accpar_dnn::NetworkBuilder;
    use accpar_hw::AcceleratorArray;
    use accpar_partition::{HierPlan, LayerPlan, NetworkPlan, PartitionType, Ratio};
    use accpar_tensor::FeatureShape;

    fn view(batch: usize, d: usize) -> accpar_dnn::TrainView {
        NetworkBuilder::new("t", FeatureShape::fc(batch, d))
            .linear("fc", d, d)
            .build()
            .unwrap()
            .train_view()
            .unwrap()
    }

    fn plan(n: usize, t: PartitionType, levels: usize) -> PlanTree {
        HierPlan::new(vec![
            NetworkPlan::uniform(n, LayerPlan::new(t, Ratio::EQUAL));
            levels
        ])
        .to_tree()
    }

    #[test]
    fn type_i_replicates_weights_in_every_leaf() {
        let view = view(64, 1000);
        let array = AcceleratorArray::homogeneous_tpu_v3(2);
        let tree = GroupTree::bisect(&array, 1).unwrap();
        let config = SimConfig::default();
        let dp = memory_report(&view, &plan(1, PartitionType::TypeI, 1), &tree, &config, Optimizer::Sgd)
            .unwrap();
        let mp = memory_report(&view, &plan(1, PartitionType::TypeII, 1), &tree, &config, Optimizer::Sgd)
            .unwrap();
        // Weights dominate (1M params vs 64k activations): the
        // model-parallel footprint is roughly half the data-parallel one.
        assert!(mp.peak_bytes() < 0.6 * dp.peak_bytes());
        assert!(dp.fits() && mp.fits());
    }

    #[test]
    fn optimizer_state_grows_the_footprint() {
        let view = view(64, 1000);
        let tree =
            GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(2), 1).unwrap();
        let config = SimConfig::default();
        let p = plan(1, PartitionType::TypeI, 1);
        let sgd = memory_report(&view, &p, &tree, &config, Optimizer::Sgd).unwrap();
        let momentum = memory_report(&view, &p, &tree, &config, Optimizer::Momentum).unwrap();
        let adam = memory_report(&view, &p, &tree, &config, Optimizer::Adam).unwrap();
        assert!(sgd.peak_bytes() < momentum.peak_bytes());
        assert!(momentum.peak_bytes() < adam.peak_bytes());
        // Weight-related state: 2 copies -> 3 -> 4.
        let w_bytes = 1000.0 * 1000.0 * 2.0;
        assert!((momentum.peak_bytes() - sgd.peak_bytes() - w_bytes).abs() < 1.0);
    }

    #[test]
    fn infeasible_plans_are_reported() {
        // A tiny accelerator cannot replicate a large model.
        let view = view(64, 4096);
        let tiny = accpar_hw::AcceleratorSpec::new(
            "tiny", 1e12, 16 << 20, /* 16 MiB */ 100e9, 1e9, 2, 10e9,
        )
        .unwrap();
        let tree =
            GroupTree::bisect(&AcceleratorArray::homogeneous(tiny, 2), 1).unwrap();
        let config = SimConfig::default();
        let report = memory_report(
            &view,
            &plan(1, PartitionType::TypeI, 1),
            &tree,
            &config,
            Optimizer::Adam,
        )
        .unwrap();
        assert!(!report.fits());
        assert!(report.peak_occupancy > 1.0);
        assert!(report.to_string().contains("DOES NOT FIT"));
    }

    #[test]
    fn depth_mismatch_is_rejected() {
        let view = view(8, 8);
        let tree =
            GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(4), 2).unwrap();
        let err = memory_report(
            &view,
            &plan(1, PartitionType::TypeI, 1),
            &tree,
            &SimConfig::default(),
            Optimizer::Sgd,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::DepthMismatch { .. }));
    }

}
