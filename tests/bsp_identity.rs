//! Bit-identity battery for the twin-aware bulk-synchronous simulator.
//!
//! `Simulator` prices each layer and phase once per distinct (plan node,
//! hardware subtree, shard scales) and fills the leaves' busy times by
//! multiplicity. The engine it replaced walks every node and leaf and is
//! kept as `simulate_bsp_reference`; every `SimReport` field must match it
//! bit for bit — totals, the per-layer breakdown and every leaf's busy
//! time — across the zoo, the paper's arrays, three strategies, healthy
//! and faulted hardware, a dropout-rebuilt tree, three simulator
//! configurations and seeded random plan trees.

mod common;

use accpar::dnn::TrainView;
use accpar::prelude::*;
use accpar::sim::{simulate_bsp_reference, Optimizer, SimConfig, SimReport, Simulator};
use common::Gen;

const NETWORKS: [&str; 14] = [
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

fn configs() -> [(&'static str, SimConfig); 3] {
    [
        ("default", SimConfig::default()),
        ("aligned", SimConfig::cost_model_aligned()),
        (
            "adam",
            SimConfig {
                update: Some(Optimizer::Adam),
                ..SimConfig::default()
            },
        ),
    ]
}

fn assert_bits(label: &str, fast: &SimReport, reference: &SimReport) {
    let scalars = |r: &SimReport| {
        [
            r.total_secs,
            r.compute_secs,
            r.psum_secs,
            r.conversion_secs,
            r.update_secs,
        ]
        .map(f64::to_bits)
    };
    assert_eq!(scalars(fast), scalars(reference), "{label}: totals");
    assert_eq!(fast.per_layer.len(), reference.per_layer.len(), "{label}");
    for (l, (a, b)) in fast.per_layer.iter().zip(&reference.per_layer).enumerate() {
        let bits = |x: &accpar::sim::LayerBreakdown| {
            [x.compute_secs, x.psum_secs, x.conversion_secs].map(f64::to_bits)
        };
        assert_eq!(bits(a), bits(b), "{label}: layer {l}");
    }
    let busy = |r: &SimReport| {
        r.leaf_busy_secs
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(busy(fast), busy(reference), "{label}: leaf busy");
}

/// Simulates under every configuration with both engines and compares.
fn check(
    label: &str,
    view: &TrainView,
    plan: &PlanTree,
    tree: &GroupTree,
    faults: Option<&FaultModel>,
) {
    for (name, config) in configs() {
        let label = format!("{label} {name}");
        let fast = Simulator::new(config).simulate(view, plan, tree, faults);
        let reference = simulate_bsp_reference(&config, view, plan, tree, faults);
        match (fast, reference) {
            (Ok(fast), Ok(reference)) => assert_bits(&label, &fast, &reference),
            (Err(a), Err(b)) => assert_eq!(a, b, "{label}: errors"),
            (a, b) => panic!("{label}: {a:?} vs {b:?}"),
        }
    }
}

/// AccPar, DP and OWT plans of `net` over `array` at `levels`.
fn plans(net: &Network, array: &AcceleratorArray, levels: usize) -> Vec<(Strategy, PlanTree)> {
    let planner = Planner::builder(net, array).levels(levels).build().unwrap();
    [Strategy::AccPar, Strategy::DataParallel, Strategy::Owt]
        .into_iter()
        .map(|s| (s, planner.plan(s).unwrap().plan().clone()))
        .collect()
}

/// The hardware states of the battery over a tree with `leaves` leaves
/// and `cuts` cuts. The deepest twins sit two levels above the leaves
/// (the bottom plan node holds no children), so leaves `4k + 2` and
/// `4k + 3` lie in a twin's right half, where a fault is invisible to an
/// engine that prices a twin from its left half without checking.
fn states(leaves: usize, cuts: usize) -> Vec<(&'static str, Option<FaultModel>)> {
    let odd = |i: usize| (i | 2) % leaves;
    let sim_step = FaultModel::new()
        .slow_leaf(odd(3), 0.45)
        .unwrap()
        .slow_leaf(odd(77), 0.8)
        .unwrap()
        .slow_leaf(odd(200), 0.31)
        .unwrap()
        .degrade_cut(1 % cuts, 0.35)
        .unwrap()
        .degrade_cut(10 % cuts, 0.7)
        .unwrap()
        .stall_leaf(odd(5), 4e-4)
        .unwrap();
    vec![
        ("healthy", None),
        ("sim_step faults", Some(sim_step)),
        (
            "slow leaf",
            Some(FaultModel::new().slow_leaf(odd(1), 0.5).unwrap()),
        ),
        (
            "degraded cut",
            Some(FaultModel::new().degrade_cut(cuts - 1, 0.25).unwrap()),
        ),
        (
            "stall",
            Some(FaultModel::new().stall_leaf(odd(1), 2e-4).unwrap()),
        ),
    ]
}

fn battery(array: &AcceleratorArray) {
    let levels = array.max_levels().min(array.len().max(2).ilog2() as usize);
    let tree = GroupTree::bisect(array, levels).unwrap();
    let (reduced, dropped) = tree.without_leaf(array, 1).unwrap();
    for name in NETWORKS {
        let net = zoo::by_name(name, 512).unwrap();
        let view = net.train_view().unwrap();
        for (strategy, plan) in plans(&net, array, levels) {
            for (state, faults) in states(tree.leaf_count(), tree.cut_count()) {
                let label = format!("{name} {strategy} {state}");
                check(&label, &view, &plan, &tree, faults.as_ref());
            }
        }
        for (strategy, plan) in plans(&net, &reduced, dropped.levels()) {
            let label = format!("{name} {strategy} dropout");
            check(&label, &view, &plan, &dropped, None);
        }
    }
}

#[test]
fn hetero_4_4_is_bit_identical() {
    battery(&AcceleratorArray::heterogeneous_tpu(4, 4));
}

#[test]
fn hetero_8_8_is_bit_identical() {
    battery(&AcceleratorArray::heterogeneous_tpu(8, 8));
}

#[test]
fn homogeneous_128_v3_is_bit_identical() {
    battery(&AcceleratorArray::homogeneous_tpu_v3(128));
}

#[test]
fn hetero_128_128_is_bit_identical() {
    battery(&AcceleratorArray::heterogeneous_tpu(128, 128));
}

/// One random level: random types, ratios mostly equal (so halves
/// inherit equal scales and twins collapse) and sometimes skewed.
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
/// equal-content but separately built children, distinct children, and
/// now and then a leaf above the bottom of the hierarchy.
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
            assert!(a == b);
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

/// A random fault set over `leaves` leaves and `cuts` cuts, sometimes
/// with the same stall on every leaf (twins stay twins) and sometimes
/// on one.
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
            for _ in 0..g.range(1, 4) {
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
fn random_trees_are_bit_identical() {
    let mut g = Gen(0xb5b1_d3e7);
    for case in 0..200 {
        let dims = g.vec(8, 257, 2, 7);
        let net = common::mlp(g.range(1, 65), &dims);
        let view = net.train_view().unwrap();
        let array = match g.range(0, 3) {
            0 => AcceleratorArray::homogeneous_tpu_v3(g.pick(&[1, 2, 4, 8])),
            1 => AcceleratorArray::heterogeneous_tpu(g.pick(&[1, 2, 4]), g.pick(&[1, 2, 4])),
            _ => AcceleratorArray::heterogeneous_tpu(g.pick(&[1, 3]), g.pick(&[2, 5])),
        };
        let levels = g.range(1, 6).min(array.max_levels());
        let tree = GroupTree::bisect(&array, levels).unwrap();
        let plan = random_tree(&mut g, view.weighted_len(), levels);
        let faults = random_faults(&mut g, tree.leaf_count(), tree.cut_count());
        check(
            &format!("random case {case}"),
            &view,
            &plan,
            &tree,
            faults.as_ref(),
        );
    }
}
