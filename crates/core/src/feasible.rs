//! Memory-feasibility repair: make a plan fit the array's HBM.
//!
//! §2.3 motivates coarse-grained partitioning with models whose
//! "computation and memory requirement … typically cannot be satisfied by
//! a single accelerator". A data-parallel plan replicates the whole model
//! (and its gradients and optimizer state) on every leaf; when that does
//! not fit, the repair here flips the heaviest still-replicated layers to
//! Type-II — which shards the weight at every hierarchy level — until the
//! footprint fits, or reports the deficit if even a fully model-sharded
//! plan cannot fit.

use crate::error::PlanError;
use accpar_dnn::{TrainLayer, TrainView};
use accpar_hw::GroupTree;
use accpar_partition::{LayerPlan, PartitionType, PlanTree};
use accpar_sim::{memory_report, MemoryReport, Optimizer, SimConfig};

/// Flips layers to Type-II (heaviest weight first) until the plan's
/// footprint fits every leaf's HBM. Returns the repaired plan and its
/// memory report.
///
/// # Errors
///
/// * [`PlanError::Infeasible`] when even the fully weight-sharded plan
///   does not fit;
/// * simulation validation errors for mismatched inputs.
pub fn fit_to_memory(
    view: &TrainView,
    plan: &PlanTree,
    tree: &GroupTree,
    config: &SimConfig,
    optimizer: Optimizer,
) -> Result<(PlanTree, MemoryReport), PlanError> {
    let mut layers: Vec<&TrainLayer> = view.layers().collect();
    layers.sort_by_key(|l| l.index());
    // Heaviest weights first.
    let mut order: Vec<usize> = (0..layers.len()).collect();
    order.sort_by_key(|&l| std::cmp::Reverse(layers[l].weight().size()));

    let mut current = plan.clone();
    let mut flipped = 0usize;
    loop {
        let report = memory_report(view, &current, tree, config, optimizer)?;
        if report.fits() {
            return Ok((current, report));
        }
        // Find the next heaviest layer that still uses Type-I anywhere.
        let counts = current.per_layer_type_counts();
        let target = order
            .iter()
            .copied()
            .find(|&l| counts[l][0] > 0);
        let Some(target) = target else {
            return Err(PlanError::Infeasible {
                required_bytes: report.peak_bytes(),
                occupancy: report.peak_occupancy,
            });
        };
        current = current.map_layers(&|l, entry| {
            if l == target {
                LayerPlan::new(PartitionType::TypeII, entry.ratio)
            } else {
                entry
            }
        });
        flipped += 1;
        debug_assert!(flipped <= layers.len() * 2, "repair must terminate");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::data_parallel_plan;
    use accpar_dnn::zoo;
    use accpar_hw::{AcceleratorArray, AcceleratorSpec};

    fn tiny_array(hbm_mib: u64, n: usize) -> AcceleratorArray {
        let spec = AcceleratorSpec::new(
            "tiny",
            10e12,
            hbm_mib << 20,
            100e9,
            1e9,
            2,
            10e9,
        )
        .unwrap();
        AcceleratorArray::homogeneous(spec, n)
    }

    #[test]
    fn already_feasible_plans_are_untouched() {
        let net = zoo::lenet(32).unwrap();
        let view = net.train_view().unwrap();
        let array = AcceleratorArray::homogeneous_tpu_v3(2);
        let tree = GroupTree::bisect(&array, 1).unwrap();
        let plan = data_parallel_plan(&view, 1);
        let (fixed, report) =
            fit_to_memory(&view, &plan, &tree, &SimConfig::default(), Optimizer::Sgd).unwrap();
        assert_eq!(fixed, plan);
        assert!(report.fits());
    }

    #[test]
    fn replicated_vgg_is_repaired_by_sharding_weights() {
        // VGG-16 with Adam needs >1.1 GB of replicated weight state; give
        // each of 4 leaves 768 MiB so DP cannot fit but sharding can.
        let net = zoo::vgg16(8).unwrap();
        let view = net.train_view().unwrap();
        let array = tiny_array(768, 4);
        let tree = GroupTree::bisect(&array, 2).unwrap();
        let plan = data_parallel_plan(&view, 2);
        let config = SimConfig::default();

        let before = memory_report(&view, &plan, &tree, &config, Optimizer::Adam).unwrap();
        assert!(!before.fits(), "premise: DP must not fit ({before})");

        let (fixed, report) =
            fit_to_memory(&view, &plan, &tree, &config, Optimizer::Adam).unwrap();
        assert!(report.fits(), "{report}");
        // The repair flipped at least the classifier monsters.
        assert!(fixed.count(PartitionType::TypeII) > 0);
        assert!(report.peak_bytes() < before.peak_bytes());
    }

    #[test]
    fn truly_impossible_models_are_reported() {
        let net = zoo::vgg16(8).unwrap();
        let view = net.train_view().unwrap();
        // 16 MiB per leaf: nothing fits.
        let array = tiny_array(16, 2);
        let tree = GroupTree::bisect(&array, 1).unwrap();
        let plan = data_parallel_plan(&view, 1);
        let err = fit_to_memory(
            &view,
            &plan,
            &tree,
            &SimConfig::default(),
            Optimizer::Adam,
        )
        .unwrap_err();
        match err {
            PlanError::Infeasible { occupancy, .. } => assert!(occupancy > 1.0),
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn repair_preserves_tree_shape() {
        let net = zoo::alexnet(8).unwrap();
        let view = net.train_view().unwrap();
        let array = tiny_array(512, 4);
        let tree = GroupTree::bisect(&array, 2).unwrap();
        let plan = data_parallel_plan(&view, 2);
        if let Ok((fixed, _)) =
            fit_to_memory(&view, &plan, &tree, &SimConfig::default(), Optimizer::Adam)
        {
            assert_eq!(fixed.depth(), plan.depth());
            assert_eq!(fixed.plan().len(), plan.plan().len());
        }
    }
}
