//! Integration tests for the extensions beyond the paper: GoogLeNet
//! (Concat multi-path), memory-footprint analysis, and the optimizer
//! update phase.

use accpar::partition::PartitionType;
use accpar::prelude::*;
use accpar::sim::{memory_report, Optimizer};

#[test]
fn googlenet_plans_under_every_strategy() {
    // Paper-scale array: AccPar's wins need hierarchy depth (see
    // tests/flexibility.rs for the same note).
    let net = zoo::googlenet(512).unwrap();
    let array = AcceleratorArray::heterogeneous_tpu(128, 128);
    let planner = Planner::builder(&net, &array).sim_config(SimConfig::default()).build().unwrap();
    let mut costs = Vec::new();
    for s in Strategy::ALL {
        let planned = planner.plan(s).unwrap();
        assert!(planned.modeled_cost() > 0.0, "{s}");
        costs.push(planned.modeled_cost());
    }
    // AccPar wins on the inception topology too.
    let accpar = costs[3];
    assert!(
        costs[..3].iter().all(|&c| accpar <= c * (1.0 + 1e-9)),
        "{costs:?}"
    );
}

#[test]
fn concat_exit_edges_use_branch_slices() {
    // GoogLeNet's first inception module concatenates 64+128+32+32
    // channels; its four exit edges must carry the slice sizes, not
    // four copies of the full 256-channel tensor.
    let net = zoo::googlenet(2).unwrap();
    let view = net.train_view().unwrap();
    let edges = view.conversion_edges();
    // Edges into the consumers of module 3a (the first block): the
    // boundary of each is bounded by its producer's output.
    let total: u64 = edges.iter().map(|e| e.boundary_elems).sum();
    assert!(total > 0);
    for e in &edges {
        let producer_out = view
            .layers()
            .find(|l| l.index() == e.from)
            .unwrap()
            .out_fmap()
            .size();
        assert!(e.boundary_elems <= producer_out, "{e:?}");
    }
}

#[test]
fn memory_feasibility_via_public_api() {
    // VGG-16 with Adam on a 4-board array at small batch (so that
    // weight state, not activations, dominates the footprint): the
    // data-parallel replica costs ~1.1 GB of optimizer+weight state per
    // leaf; model partitioning (Type-II everywhere) shards it.
    use accpar::partition::{HierPlan, LayerPlan, NetworkPlan, Ratio};
    let net = zoo::vgg16(32).unwrap();
    let view = net.train_view().unwrap();
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    let planner = Planner::builder(&net, &array).levels(2).build().unwrap();
    let tree = GroupTree::bisect(&array, 2).unwrap();

    let dp = planner.plan(Strategy::DataParallel).unwrap();
    let config = SimConfig::default();
    let dp_mem = memory_report(&view, dp.plan(), &tree, &config, Optimizer::Adam).unwrap();
    let mp_plan = HierPlan::new(vec![
        NetworkPlan::uniform(
            view.weighted_len(),
            LayerPlan::new(PartitionType::TypeII, Ratio::EQUAL),
        );
        2
    ])
    .to_tree();
    let mp_mem = memory_report(&view, &mp_plan, &tree, &config, Optimizer::Adam).unwrap();

    assert!(dp_mem.fits() && mp_mem.fits());
    // DP replicates all 138M parameters (×4 with Adam) on every leaf.
    let replica_bytes = 4.0 * 138_344_128.0 * 2.0;
    assert!(dp_mem.peak_bytes() > replica_bytes);
    // Type-II shards every weight in four: far smaller weight state.
    assert!(mp_mem.peak_bytes() < 0.6 * dp_mem.peak_bytes());
}

#[test]
fn update_phase_scales_with_model_size() {
    let array = AcceleratorArray::homogeneous_tpu_v3(2);
    let update_secs = |name: &str| {
        let net = zoo::by_name(name, 64).unwrap();
        Planner::builder(&net, &array)
            .levels(1)
            .sim_config(SimConfig {
                update: Some(Optimizer::Adam),
                ..SimConfig::default()
            }).build().unwrap()
            .plan(Strategy::DataParallel)
            .unwrap()
            .report()
            .update_secs
    };
    // VGG-16 has ~12x the parameters of ResNet-18: its update phase must
    // be correspondingly heavier.
    let vgg = update_secs("vgg16");
    let resnet = update_secs("resnet18");
    assert!(vgg > 5.0 * resnet, "vgg {vgg} vs resnet {resnet}");
}

#[test]
fn model_partitioning_shrinks_update_time() {
    // Under Type-II/III the weight shards shrink, so each leaf updates
    // fewer parameters than under replicated Type-I.
    let net = zoo::vgg16(64).unwrap();
    let array = AcceleratorArray::homogeneous_tpu_v3(4);
    let sim_config = SimConfig {
        update: Some(Optimizer::Momentum),
        ..SimConfig::default()
    };
    let planner = Planner::builder(&net, &array).sim_config(sim_config).build().unwrap();
    let dp = planner.plan(Strategy::DataParallel).unwrap();
    let accpar = planner.plan(Strategy::AccPar).unwrap();
    assert!(accpar.plan().count(PartitionType::TypeII) + accpar.plan().count(PartitionType::TypeIII) > 0);
    assert!(accpar.report().update_secs < dp.report().update_secs);
}

#[test]
fn plan_within_memory_repairs_replication() {
    // A small-HBM fleet where VGG-16's replicated Adam state does not
    // fit: the planner's repair shards it and the result simulates.
    let spec = AcceleratorSpec::new("small-hbm", 10e12, 768 << 20, 100e9, 1e9, 2, 10e9).unwrap();
    let array = AcceleratorArray::homogeneous(spec, 4);
    let net = zoo::vgg16(8).unwrap();
    let planner = Planner::builder(&net, &array).levels(2).build().unwrap();

    let repaired = planner
        .plan_within_memory(Strategy::DataParallel, Optimizer::Adam)
        .unwrap();
    assert!(repaired.plan().count(PartitionType::TypeII) > 0);
    assert!(repaired.modeled_cost() > 0.0);

    let view = net.train_view().unwrap();
    let tree = GroupTree::bisect(&array, 2).unwrap();
    let report = memory_report(
        &view,
        repaired.plan(),
        &tree,
        &SimConfig::default(),
        Optimizer::Adam,
    )
    .unwrap();
    assert!(report.fits(), "{report}");
}

#[test]
fn des_backend_is_reachable_from_the_facade() {
    use accpar::sim::simulate_des;
    let net = zoo::lenet(64).unwrap();
    let view = net.train_view().unwrap();
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    let tree = GroupTree::bisect(&array, 2).unwrap();
    let planned = Planner::builder(&net, &array)
        .levels(2).build().unwrap()
        .plan(Strategy::AccPar)
        .unwrap();
    let des = simulate_des(&SimConfig::default(), &view, planned.plan(), &tree, None).unwrap();
    assert!(des.total_secs > 0.0);
    assert!(des.total_secs <= planned.report().total_secs * 1.5);
}
