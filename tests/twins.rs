//! Twin planning: an unlimited hierarchical search plans each half of a
//! bisection once when the halves price alike and inherit equal shard
//! scales, and shares the planned node between them
//! ([`PlanTree::twin`]). The tree it returns must equal the one it
//! replaced node for node, share every subtree that repeats, and keep
//! the search's accounting: solved levels, nodes charged to a limited
//! budget, and thread-count independence.

use accpar::prelude::*;
use accpar_core::hierarchy::plan_node_budgeted;
use accpar_core::{SearchCache, SearchConfig};
use accpar_runtime::Pool;
use std::collections::HashSet;

/// Every node of `plan` in pre-order, a twin's shared child twice.
fn nodes(plan: &PlanTree) -> Vec<&PlanTree> {
    let mut out = vec![plan];
    if let Some((a, b)) = plan.children() {
        out.extend(nodes(a));
        out.extend(nodes(b));
    }
    out
}

/// FNV-1a over a subtree's layer types and ratio bits, in pre-order:
/// equal content, equal hash.
fn content_hash(plan: &PlanTree) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for node in nodes(plan) {
        for entry in node.plan().layers() {
            let bytes = std::iter::once(entry.ptype as u8 + 1)
                .chain(entry.ratio.value().to_bits().to_le_bytes())
                .chain([u8::from(node.children().is_some())]);
            for byte in bytes {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Whether two trees agree in content *and* in which bisections are
/// twins.
fn same_shape(a: &PlanTree, b: &PlanTree) -> bool {
    a.plan() == b.plan()
        && a.is_twin() == b.is_twin()
        && match (a.children(), b.children()) {
            (None, None) => true,
            (Some((a1, a2)), Some((b1, b2))) => same_shape(a1, b1) && same_shape(a2, b2),
            _ => false,
        }
}

fn plan(net: &Network, array: &AcceleratorArray, threads: usize) -> PlanTree {
    Planner::builder(net, array)
        .threads(threads)
        .build()
        .unwrap()
        .plan(Strategy::AccPar)
        .unwrap()
        .plan()
        .clone()
}

fn arrays() -> [(AcceleratorArray, usize, usize); 4] {
    [
        (AcceleratorArray::heterogeneous_tpu(128, 128), 15, 255),
        (AcceleratorArray::homogeneous_tpu_v3(128), 7, 127),
        (AcceleratorArray::heterogeneous_tpu(4, 4), 5, 7),
        (AcceleratorArray::heterogeneous_tpu(8, 8), 7, 15),
    ]
}

#[test]
fn each_distinct_subtree_is_one_node() {
    for name in ["alexnet", "vgg16", "resnet50", "bert_base", "deep48"] {
        let net = zoo::by_name(name, 512).unwrap();
        for (array, distinct, total) in arrays() {
            let tree = plan(&net, &array, 1);
            let all = nodes(&tree);
            let by_pointer: HashSet<*const PlanTree> =
                all.iter().map(|&n| std::ptr::from_ref(n)).collect();
            let by_content: HashSet<u64> = all.iter().map(|&n| content_hash(n)).collect();
            let label = format!("{name} on {} boards", array.len());
            assert_eq!(all.len(), total, "{label}: nodes");
            assert_eq!(by_pointer.len(), distinct, "{label}: distinct by pointer");
            assert_eq!(by_content.len(), distinct, "{label}: distinct by content");
        }
    }
}

#[test]
fn two_threads_plan_the_same_twins() {
    for name in ["vgg16", "resnet50", "bert_base"] {
        let net = zoo::by_name(name, 512).unwrap();
        for (array, _, _) in arrays() {
            let serial = plan(&net, &array, 1);
            let parallel = plan(&net, &array, 2);
            assert!(
                same_shape(&serial, &parallel),
                "{name} on {} boards",
                array.len()
            );
        }
    }
}

/// `(network, boards, solved levels unlimited, solved levels under a
/// node cap, nodes charged to the cap)` for the golden keys of
/// `tests/zoo_plans.rs`, as the search counted them before twins.
const ANYTIME: [(&str, usize, usize, usize, u64); 32] = [
    ("lenet", 256, 255, 255, 1275),
    ("lenet", 128, 127, 127, 635),
    ("lenet", 8, 7, 7, 35),
    ("alexnet", 256, 255, 255, 2040),
    ("alexnet", 128, 127, 127, 1016),
    ("alexnet", 8, 7, 7, 56),
    ("vgg11", 256, 255, 255, 2805),
    ("vgg11", 128, 127, 127, 1397),
    ("vgg11", 8, 7, 7, 77),
    ("vgg13", 256, 255, 255, 3315),
    ("vgg13", 128, 127, 127, 1651),
    ("vgg13", 8, 7, 7, 91),
    ("vgg16", 256, 255, 255, 3961),
    ("vgg16", 128, 127, 127, 1969),
    ("vgg16", 8, 7, 7, 105),
    ("vgg19", 256, 255, 255, 4025),
    ("vgg19", 128, 127, 127, 1969),
    ("vgg19", 8, 7, 7, 105),
    ("resnet18", 256, 255, 255, 5100),
    ("resnet18", 128, 127, 127, 2540),
    ("resnet18", 8, 7, 7, 140),
    ("resnet34", 256, 255, 255, 5865),
    ("resnet34", 128, 127, 127, 2921),
    ("resnet34", 8, 7, 7, 161),
    ("resnet50", 256, 255, 255, 8415),
    ("resnet50", 128, 127, 127, 4191),
    ("resnet50", 8, 7, 7, 231),
    ("bert_base", 4, 3, 3, 18),
    ("gpt2_small", 4, 3, 3, 18),
    ("deep48", 4, 3, 3, 21),
    ("deep96", 4, 3, 3, 21),
    ("gpt2_xl", 4, 3, 3, 18),
];

#[test]
fn anytime_accounting_is_unchanged() {
    for (name, boards, solved, capped_solved, charged) in ANYTIME {
        let (batch, array) = match boards {
            256 => (512, AcceleratorArray::heterogeneous_tpu(128, 128)),
            128 => (512, AcceleratorArray::homogeneous_tpu_v3(128)),
            8 => (512, AcceleratorArray::heterogeneous_tpu(4, 4)),
            _ => (8, AcceleratorArray::heterogeneous_tpu(2, 2)),
        };
        let net = zoo::by_name(name, batch).unwrap();
        let view = net.train_view().unwrap();
        let tree = GroupTree::bisect(&array, array.len().ilog2() as usize).unwrap();
        let model = CostModel::new(CostConfig::default());
        let config = SearchConfig::accpar_with(RatioSolver::default());
        let run = |budget: &Budget| {
            let memo = SearchCache::new();
            let (plan, report) = plan_node_budgeted(
                &view,
                tree.root(),
                &model,
                &config,
                None,
                Pool::serial(),
                Some(&memo),
                &Obs::off(),
                None,
                budget,
            )
            .unwrap();
            (plan.unwrap(), report)
        };
        let label = format!("{name} on {boards} boards");
        let (open, open_report) = run(&Budget::unlimited());
        assert_eq!(open_report.solved_levels, solved, "{label}: solved levels");
        assert!(open_report.is_complete(), "{label}");
        // A limited budget walks every level serially, as before twins:
        // the same plan, no node shared, the same nodes charged.
        let cap = Budget::unlimited().max_nodes(u64::MAX);
        let (capped, capped_report) = run(&cap);
        assert_eq!(
            capped_report.solved_levels, capped_solved,
            "{label}: capped levels"
        );
        assert_eq!(cap.nodes_expanded(), charged, "{label}: nodes charged");
        assert_eq!(capped, open, "{label}: plans");
        assert!(
            nodes(&capped).iter().all(|n| !n.is_twin()),
            "{label}: capped twins"
        );
    }
}
