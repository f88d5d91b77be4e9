//! The comparison schemes of the paper's evaluation (§6.1):
//!
//! * **DP** — plain data parallelism \[106\]: every layer Type-I, equal
//!   shares, at every hierarchy level. The normalization baseline.
//! * **OWT** — "One Weird Trick" \[107\]: CONV layers Type-I (data
//!   parallel), FC layers Type-II (model parallel), equal shares. Static.
//! * **HyPar** \[108\] — a layer-wise dynamic-programming search like
//!   AccPar's, but over the *incomplete* two-type space {I, II}, with
//!   equal partitioning and total communication volume as the objective.

use crate::error::PlanError;
use crate::hierarchy::plan_node_budgeted;
use crate::search::SearchConfig;
use accpar_cost::{CostConfig, CostModel};
use accpar_dnn::{TrainView, WeightedKind};
use accpar_hw::GroupTree;
use accpar_obs::Obs;
use accpar_partition::{LayerPlan, NetworkPlan, PartitionType, PlanTree, Ratio};
use accpar_runtime::{Budget, Pool};

/// The data-parallelism baseline: Type-I everywhere, equal shares,
/// replicated model.
#[must_use]
pub fn data_parallel_plan(view: &TrainView, levels: usize) -> PlanTree {
    let level = NetworkPlan::uniform(view.weighted_len(), LayerPlan::data_parallel());
    PlanTree::uniform(&vec![level; levels.max(1)])
}

/// "One Weird Trick": data parallelism for CONV layers, model
/// parallelism (Type-II) for FC layers, equal shares.
#[must_use]
pub fn owt_plan(view: &TrainView, levels: usize) -> PlanTree {
    let mut layers: Vec<_> = view.layers().collect();
    layers.sort_by_key(|l| l.index());
    let level: NetworkPlan = layers
        .iter()
        .map(|layer| {
            // OWT's rule is "parameter-heavy layers go model-parallel";
            // embedding tables follow the FC arm.
            let ptype = match layer.kind() {
                WeightedKind::Conv { .. } => PartitionType::TypeI,
                WeightedKind::Fc | WeightedKind::Embedding => PartitionType::TypeII,
            };
            LayerPlan::new(ptype, Ratio::EQUAL)
        })
        .collect();
    PlanTree::uniform(&vec![level; levels.max(1)])
}

/// HyPar: hierarchical dynamic search over {Type-I, Type-II} with equal
/// partitioning, minimizing total communicated elements.
///
/// Per §3.5, HyPar "can only handle DNN architectures with linear
/// structure", so the search runs on the *linearized* view: multi-path
/// blocks are dissolved into a chain and the shortcut edges' conversion
/// traffic is invisible to the planner (the simulator charges it
/// anyway). Use [`hypar_multipath_plan`] for the strengthened variant
/// that borrows AccPar's §5.2 machinery.
///
/// # Errors
///
/// Propagates level-search errors (none in practice: the space is
/// non-empty).
pub fn hypar_plan(view: &TrainView, tree: &GroupTree) -> Result<PlanTree, PlanError> {
    use accpar_cost::PairEnv;
    // One search at the top level with unscaled tensors, replicated to
    // every level. The communication-amount objective is oblivious to
    // the environment and HyPar partitions equally, so per-level
    // re-search with unscaled tensors would return the same plan — this
    // reproduces the paper's observed HyPar behaviour (ResNet plans that
    // coincide with plain data parallelism, §6.2).
    let model = CostModel::new(CostConfig::hypar());
    let config = SearchConfig::hypar();
    let linear = view.linearized();
    let env = PairEnv::from_node(tree.root()).expect("a bisected tree has children");
    let searcher = crate::search::LevelSearcher::new(&linear, &model, &config, &env, None)?;
    let level = searcher.search().plan;
    Ok(PlanTree::uniform(&vec![level; tree.levels()]))
}

/// A strengthened HyPar that plans on the true series-parallel structure
/// with shard-scale-aware per-level searches, using AccPar's multi-path
/// machinery (§5.2) — an ablation isolating how much of AccPar's
/// advantage survives when only the cost model and ratio flexibility
/// differ.
///
/// # Errors
///
/// Propagates level-search errors.
pub fn hypar_multipath_plan(view: &TrainView, tree: &GroupTree) -> Result<PlanTree, PlanError> {
    let model = CostModel::new(CostConfig::hypar());
    let config = SearchConfig::hypar();
    let (plan, _) = plan_node_budgeted(
        view,
        tree.root(),
        &model,
        &config,
        None,
        Pool::serial(),
        None,
        &Obs::off(),
        None,
        &Budget::unlimited(),
    )?;
    Ok(plan.expect("a bisected tree has at least one level"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use accpar_dnn::zoo;
    use accpar_hw::AcceleratorArray;

    #[test]
    fn dp_plan_is_all_type_i() {
        let view = zoo::lenet(64).unwrap().train_view().unwrap();
        let plan = data_parallel_plan(&view, 2);
        assert_eq!(plan.count(PartitionType::TypeI), 5 * 3);
        assert_eq!(plan.count(PartitionType::TypeII), 0);
        assert_eq!(plan.depth(), 2);
    }

    #[test]
    fn owt_splits_conv_and_fc() {
        let view = zoo::alexnet(64).unwrap().train_view().unwrap();
        let plan = owt_plan(&view, 1);
        // 5 convs Type-I, 3 fcs Type-II.
        assert_eq!(plan.count(PartitionType::TypeI), 5);
        assert_eq!(plan.count(PartitionType::TypeII), 3);
        assert_eq!(plan.count(PartitionType::TypeIII), 0);
        assert_eq!(plan.plan().type_string(), "IIIII222");
    }

    #[test]
    fn hypar_never_uses_type_iii_and_splits_equally() {
        let view = zoo::lenet(64).unwrap().train_view().unwrap();
        let tree = GroupTree::bisect(&AcceleratorArray::heterogeneous_tpu(2, 2), 2).unwrap();
        let plan = hypar_plan(&view, &tree).unwrap();
        assert_eq!(plan.count(PartitionType::TypeIII), 0);
        fn all_equal(t: &PlanTree) -> bool {
            t.plan().layers().iter().all(|l| l.ratio.is_balanced())
                && t.children().is_none_or(|(a, b)| all_equal(a) && all_equal(b))
        }
        assert!(all_equal(&plan));
        assert_eq!(plan.depth(), 2);
    }

    #[test]
    fn hypar_prefers_model_parallelism_for_fat_fc_layers() {
        // LeNet's fc1 (400×120 weight, tiny activations relative to the
        // weight at small batch) should not stay data-parallel under a
        // communication-minimizing search.
        let view = zoo::alexnet(512).unwrap().train_view().unwrap();
        let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(2), 1).unwrap();
        let plan = hypar_plan(&view, &tree).unwrap();
        // The three AlexNet FC layers carry 54 M of the 61 M parameters;
        // HyPar must map at least fc2/fc3 to model parallelism.
        let s = plan.plan().type_string();
        assert!(s.ends_with('2') || s[5..].contains('2'), "{s}");
    }
}
