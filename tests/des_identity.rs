//! Golden bit-identity battery for the DES engine.
//!
//! The engine schedules one compute unit per class of identical leaves
//! and one link per class of identical cuts, through zero-duration join
//! barriers over a flat dependency pool. It must reproduce the naive
//! expansion — one resource per leaf and per cut, every fan-in spelled
//! out, kept in the tree as `simulate_des_naive` — *bitwise*:
//! `total_secs`, both busy vectors and the scheduled-task count, across
//! the zoo (CNNs and transformers), planner-made plans full of twins on
//! the paper's arrays, healthy and faulted hardware, and seeded random
//! plan trees. `f64::max` over a fixed value set is exact, and every
//! dependency between resources runs through a barrier over a whole
//! phase or level, so neither the barriers nor the classes may move any
//! finish time by even one ulp; these tests pin that argument to the
//! real networks.

mod common;

use accpar::partition::{HierPlan, LayerPlan, NetworkPlan, PartitionType, PlanTree, Ratio};
use accpar::prelude::*;
use accpar::sim::{
    simulate_bsp_reference, simulate_des, simulate_des_in, simulate_des_naive, DesArena, SimConfig,
    Simulator,
};
use common::Gen;

/// All-Type-I data parallelism at every level.
fn dp_plan(n: usize, levels: usize) -> PlanTree {
    HierPlan::new(vec![
        NetworkPlan::uniform(n, LayerPlan::data_parallel());
        levels
    ])
    .to_tree()
}

/// A deterministic mixed-type plan: layer `l` at level `v` uses type
/// `(l + v) mod 3`, exercising psum exchanges in every phase.
fn striped_plan(n: usize, levels: usize) -> PlanTree {
    HierPlan::new(
        (0..levels)
            .map(|v| {
                (0..n)
                    .map(|l| LayerPlan::new(PartitionType::ALL[(l + v) % 3], Ratio::EQUAL))
                    .collect::<NetworkPlan>()
            })
            .collect(),
    )
    .to_tree()
}

fn assert_bit_identical(
    label: &str,
    config: &SimConfig,
    view: &accpar::dnn::TrainView,
    plan: &PlanTree,
    tree: &GroupTree,
    faults: Option<&FaultModel>,
) {
    let fast = simulate_des(config, view, plan, tree, faults).unwrap();
    let naive = simulate_des_naive(config, view, plan, tree, faults).unwrap();
    assert_eq!(fast, naive, "{label}: full report mismatch");
    assert_eq!(
        fast.total_secs.to_bits(),
        naive.total_secs.to_bits(),
        "{label}: total_secs differs bitwise"
    );
    for (i, (a, b)) in fast
        .leaf_busy_secs
        .iter()
        .zip(&naive.leaf_busy_secs)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: leaf busy[{i}]");
    }
    for (i, (a, b)) in fast
        .link_busy_secs
        .iter()
        .zip(&naive.link_busy_secs)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: link busy[{i}]");
    }
}

#[test]
fn zoo_cnns_match_naive_goldens() {
    let config = SimConfig::default();
    let tree = GroupTree::bisect(&AcceleratorArray::heterogeneous_tpu(4, 4), 3).unwrap();
    let nets: Vec<(&str, Network)> = vec![
        ("alexnet", zoo::alexnet(8).unwrap()),
        ("resnet18", zoo::resnet18(8).unwrap()),
        ("vgg11", zoo::vgg11(4).unwrap()),
    ];
    for (name, net) in &nets {
        let view = net.train_view().unwrap();
        let n = view.weighted_len();
        for (plan_name, plan) in [("dp", dp_plan(n, 3)), ("striped", striped_plan(n, 3))] {
            assert_bit_identical(
                &format!("{name}/{plan_name}"),
                &config,
                &view,
                &plan,
                &tree,
                None,
            );
        }
    }
}

#[test]
fn zoo_transformers_match_naive_goldens() {
    let config = SimConfig::default();
    let tree = GroupTree::bisect(&AcceleratorArray::heterogeneous_tpu(4, 4), 3).unwrap();
    let nets: Vec<(&str, Network)> = vec![
        ("bert_base", zoo::bert_base(2, 16).unwrap()),
        ("gpt2_small", zoo::gpt2_small(2, 16).unwrap()),
        ("vit_b16", zoo::vit_b16(2).unwrap()),
    ];
    for (name, net) in &nets {
        let view = net.train_view().unwrap();
        let n = view.weighted_len();
        for (plan_name, plan) in [("dp", dp_plan(n, 3)), ("striped", striped_plan(n, 3))] {
            assert_bit_identical(
                &format!("{name}/{plan_name}"),
                &config,
                &view,
                &plan,
                &tree,
                None,
            );
        }
    }
}

#[test]
fn faulted_zoo_matches_naive_goldens() {
    // Rate faults (degraded leaves/cuts) and transient stalls all flow
    // through the same graph builder — the barrier collapse must stay
    // exact under every fault class.
    let config = SimConfig::default();
    let tree = GroupTree::bisect(&AcceleratorArray::heterogeneous_tpu(4, 4), 3).unwrap();
    let faults = FaultModel::with_seed(7)
        .slow_leaf(0, 0.5)
        .unwrap()
        .degrade_cut(1, 0.25)
        .unwrap()
        .stall_leaf(3, 2e-4)
        .unwrap();
    let nets: Vec<(&str, Network)> = vec![
        ("resnet18", zoo::resnet18(8).unwrap()),
        ("bert_base", zoo::bert_base(2, 16).unwrap()),
    ];
    for (name, net) in &nets {
        let view = net.train_view().unwrap();
        let n = view.weighted_len();
        for (plan_name, plan) in [("dp", dp_plan(n, 3)), ("striped", striped_plan(n, 3))] {
            assert_bit_identical(
                &format!("{name}/{plan_name}/faulted"),
                &config,
                &view,
                &plan,
                &tree,
                Some(&faults),
            );
        }
    }
}

#[test]
fn random_encoders_barrier_collapse_is_exact() {
    // Property: on randomized encoder chains, trees and plans, the
    // barrier-collapsed dependency graph schedules to exactly the same
    // finish times as the naive quadratic expansion — asserted through
    // the full report (makespan is max over final finish[], busy vectors
    // are per-resource sums). One arena serves the whole sweep, so this
    // doubles as a reuse soak test.
    let mut g = Gen(0x5eed_0007);
    let config = SimConfig::default();
    let mut arena = DesArena::new();
    for case in 0..12 {
        let blocks = g.range(1, 4);
        let net = common::random_encoder(&mut g, blocks);
        let view = net.train_view().unwrap();
        let n = view.weighted_len();
        let levels = g.range(1, 4);
        let boards = 1usize << levels;
        let array = if g.next().is_multiple_of(2) {
            AcceleratorArray::heterogeneous_tpu(boards / 2, boards / 2)
        } else {
            AcceleratorArray::homogeneous_tpu_v3(boards)
        };
        let tree = GroupTree::bisect(&array, levels).unwrap();
        let plan = if g.next().is_multiple_of(2) {
            dp_plan(n, levels)
        } else {
            striped_plan(n, levels)
        };
        let fast = simulate_des_in(&mut arena, &config, &view, &plan, &tree, None).unwrap();
        let naive = simulate_des_naive(&config, &view, &plan, &tree, None).unwrap();
        assert_eq!(
            fast, naive,
            "case {case} ({blocks} blocks, {levels} levels)"
        );
        assert_eq!(fast.total_secs.to_bits(), naive.total_secs.to_bits());
    }
}

/// AccPar, DP and OWT plans of `net` over `array` at `levels`: the
/// planner's twins are what the class table shares.
fn planned(net: &Network, array: &AcceleratorArray, levels: usize) -> Vec<(Strategy, PlanTree)> {
    let planner = Planner::builder(net, array)
        .levels(levels)
        .threads(1)
        .build()
        .unwrap();
    [Strategy::AccPar, Strategy::DataParallel, Strategy::Owt]
        .into_iter()
        .map(|s| (s, planner.plan(s).unwrap().plan().clone()))
        .collect()
}

/// The hardware states over a tree with `leaves` leaves and `cuts`
/// cuts: healthy; the `sim_step` benchmark's fault set (slow leaves 5,
/// 130 and 200, degraded cuts 3 and 100, a stall on leaf 77), folded
/// into range; one slow leaf; one degraded cut (the last, in the right
/// half of a twin); and a stall only. Leaves 5, 77 and 130 sit in right
/// halves, where a fault must stop the table copying the left half.
fn states(leaves: usize, cuts: usize) -> Vec<(&'static str, Option<FaultModel>)> {
    let sim_step = FaultModel::new()
        .slow_leaf(5 % leaves, 0.5)
        .unwrap()
        .slow_leaf(130 % leaves, 0.7)
        .unwrap()
        .slow_leaf(200 % leaves, 0.4)
        .unwrap()
        .degrade_cut(3 % cuts, 0.5)
        .unwrap()
        .degrade_cut(100 % cuts, 0.3)
        .unwrap()
        .stall_leaf(77 % leaves, 5e-4)
        .unwrap();
    vec![
        ("healthy", None),
        ("sim_step faults", Some(sim_step)),
        (
            "slow leaf",
            Some(FaultModel::new().slow_leaf(5 % leaves, 0.5).unwrap()),
        ),
        (
            "degraded cut",
            Some(FaultModel::new().degrade_cut(cuts - 1, 0.25).unwrap()),
        ),
        (
            "stall",
            Some(FaultModel::new().stall_leaf(77 % leaves, 5e-4).unwrap()),
        ),
    ]
}

/// Every planner-made plan of each named network on `array`, in every
/// hardware state, against the naive expansion.
fn planned_battery(array: &AcceleratorArray, names: &[&str]) {
    let config = SimConfig::default();
    let levels = array.max_levels().min(array.len().ilog2() as usize);
    let tree = GroupTree::bisect(array, levels).unwrap();
    let mut arena = DesArena::new();
    for &name in names {
        let net = zoo::by_name(name, 512).unwrap();
        let view = net.train_view().unwrap();
        for (strategy, plan) in planned(&net, array, levels) {
            for (state, faults) in states(tree.leaf_count(), tree.cut_count()) {
                let label = format!("{name} {strategy} {state}");
                let fast =
                    simulate_des_in(&mut arena, &config, &view, &plan, &tree, faults.as_ref())
                        .unwrap();
                let naive =
                    simulate_des_naive(&config, &view, &plan, &tree, faults.as_ref()).unwrap();
                assert_eq!(fast, naive, "{label}");
            }
        }
    }
}

/// The evaluation zoo and the deep stacks.
const ZOO: [&str; 14] = [
    "lenet",
    "alexnet",
    "vgg11",
    "vgg13",
    "vgg16",
    "vgg19",
    "resnet18",
    "resnet34",
    "resnet50",
    "bert_base",
    "gpt2_small",
    "vit_b16",
    "deep48",
    "deep96",
];

#[test]
fn planned_zoo_on_hetero_8_8_matches_naive_goldens() {
    planned_battery(&AcceleratorArray::heterogeneous_tpu(8, 8), &ZOO);
}

#[test]
fn planned_zoo_on_hetero_32_32_matches_naive_goldens() {
    planned_battery(&AcceleratorArray::heterogeneous_tpu(32, 32), &ZOO);
}

#[test]
fn planned_plans_on_the_paper_array_match_naive_goldens() {
    planned_battery(
        &AcceleratorArray::heterogeneous_tpu(128, 128),
        &["lenet", "alexnet", "resnet18", "bert_base"],
    );
}

/// One random level: random types, ratios mostly equal (so halves
/// inherit equal scales and share classes) and sometimes skewed.
fn random_level(g: &mut Gen, n: usize) -> NetworkPlan {
    (0..n)
        .map(|_| {
            let ratio = if g.range(0, 4) == 0 {
                Ratio::clamped(0.05 + 0.9 * g.unit())
            } else {
                Ratio::EQUAL
            };
            LayerPlan::new(g.pick(&PartitionType::ALL), ratio)
        })
        .collect()
}

/// A random plan tree exactly `levels` deep: twins, branches of two
/// equal-content but separately built children (equal content, distinct
/// nodes), distinct children, and now and then a leaf above the bottom
/// of the hierarchy.
fn random_tree(g: &mut Gen, n: usize, levels: usize) -> PlanTree {
    let plan = random_level(g, n);
    if levels == 1 {
        return PlanTree::leaf(plan);
    }
    match g.range(0, 4) {
        0 => PlanTree::twin(plan, random_tree(g, n, levels - 1)),
        1 => {
            let seed = g.next();
            let a = random_tree(&mut Gen(seed), n, levels - 1);
            let b = random_tree(&mut Gen(seed), n, levels - 1);
            PlanTree::branch(plan, a, b)
        }
        2 => PlanTree::branch(
            plan,
            random_tree(g, n, levels - 1),
            random_tree(g, n, levels - 1),
        ),
        _ => {
            let short = PlanTree::leaf(random_level(g, n));
            let deep = random_tree(g, n, levels - 1);
            if g.range(0, 2) == 0 {
                PlanTree::branch(plan, short, deep)
            } else {
                PlanTree::branch(plan, deep, short)
            }
        }
    }
}

/// A random fault set, sometimes with the same stall on every leaf.
fn random_faults(g: &mut Gen, leaves: usize, cuts: usize) -> Option<FaultModel> {
    let mut faults = FaultModel::new();
    match g.range(0, 5) {
        0 => return None,
        1 => {
            let stall = 1e-4 * g.unit();
            for leaf in 0..leaves {
                faults = faults.stall_leaf(leaf, stall).unwrap();
            }
        }
        _ => {
            for _ in 0..g.range(1, 5) {
                faults = match g.range(0, 3) {
                    0 => faults
                        .slow_leaf(g.range(0, leaves), 0.2 + 0.7 * g.unit())
                        .unwrap(),
                    1 => faults
                        .degrade_cut(g.range(0, cuts), 0.2 + 0.7 * g.unit())
                        .unwrap(),
                    _ => faults
                        .stall_leaf(g.range(0, leaves), 1e-3 * g.unit())
                        .unwrap(),
                };
            }
        }
    }
    Some(faults)
}

#[test]
fn random_trees_match_naive_goldens() {
    let mut g = Gen(0xde5c_1a55);
    let mut arena = DesArena::new();
    for case in 0..200 {
        let view = if g.range(0, 4) == 0 {
            let blocks = g.range(1, 3);
            common::random_encoder(&mut g, blocks)
        } else {
            common::mlp(g.range(1, 65), &g.vec(8, 257, 2, 7))
        }
        .train_view()
        .unwrap();
        let array = match g.range(0, 3) {
            0 => AcceleratorArray::homogeneous_tpu_v3(g.pick(&[1, 2, 4, 8])),
            1 => AcceleratorArray::heterogeneous_tpu(g.pick(&[1, 2, 4]), g.pick(&[1, 2, 4])),
            _ => AcceleratorArray::heterogeneous_tpu(g.pick(&[1, 3]), g.pick(&[2, 5])),
        };
        let levels = g.range(1, 6).min(array.max_levels());
        let tree = GroupTree::bisect(&array, levels).unwrap();
        let plan = random_tree(&mut g, view.weighted_len(), levels);
        let faults = random_faults(&mut g, tree.leaf_count(), tree.cut_count());
        let config = if g.range(0, 2) == 0 {
            SimConfig::default()
        } else {
            SimConfig::cost_model_aligned()
        };
        let fast = simulate_des_in(&mut arena, &config, &view, &plan, &tree, faults.as_ref());
        let naive = simulate_des_naive(&config, &view, &plan, &tree, faults.as_ref());
        assert_eq!(fast, naive, "random case {case} ({levels} levels)");
    }
}

#[test]
fn twin_halves_with_unequal_scales_in_one_layer_are_not_shared() {
    // One shared child in both halves over alike hardware, but layer 1
    // splits 30/70 at the root: the halves inherit different scales in
    // that layer alone, so no leaf or cut below may stand in for its
    // mirror image — in any layer.
    let view = fc_view(256, &[512, 1024, 512, 256]);
    let n = view.weighted_len();
    let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(8), 3).unwrap();
    let root: NetworkPlan = (0..n)
        .map(|l| {
            let ratio = if l == 1 {
                Ratio::new(0.3).unwrap()
            } else {
                Ratio::EQUAL
            };
            LayerPlan::new(PartitionType::TypeI, ratio)
        })
        .collect();
    let plan = PlanTree::twin(root, striped_plan(n, 2));
    assert!(plan.is_twin());
    let config = SimConfig::default();
    for faults in [None, Some(FaultModel::new().stall_leaf(6, 1e-4).unwrap())] {
        assert_eq!(
            simulate_des(&config, &view, &plan, &tree, faults.as_ref()).unwrap(),
            simulate_des_naive(&config, &view, &plan, &tree, faults.as_ref()).unwrap()
        );
        let fast = Simulator::new(config)
            .simulate(&view, &plan, &tree, faults.as_ref())
            .unwrap();
        let reference =
            simulate_bsp_reference(&config, &view, &plan, &tree, faults.as_ref()).unwrap();
        assert_eq!(fast, reference);
        // The halves really do differ: the right half's leaves are busy
        // for a different time than their mirror images on the left.
        assert_ne!(fast.leaf_busy_secs[0], fast.leaf_busy_secs[4]);
    }
}

fn fc_view(batch: usize, dims: &[usize]) -> accpar::dnn::TrainView {
    common::mlp(batch, dims).train_view().unwrap()
}
