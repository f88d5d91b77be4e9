//! The isomorphism differential battery: collapsed planning
//! (`PlanRequest::iso(true)`, the default) must be **bit-identical**
//! to uncollapsed planning on every input — the collapse is an
//! optimization of how the DP traverses the level, never of what it
//! computes. Every test here plans the same request twice, once per
//! path, and compares the full `PlanTree` for equality plus the modeled
//! cost for f64 bit equality.
//!
//! Coverage: the whole evaluation zoo (including the deep synthetic
//! stacks and GPT-2 XL), random repeated-block graphs (the collapse's
//! best case and therefore its riskiest), serial vs parallel searches,
//! armed budgets with partial outcomes, and fault-driven replanning.

use accpar::prelude::*;
use std::sync::Arc;

mod common;

/// Plans `network` through both paths and returns (uncollapsed,
/// collapsed).
fn plan_pair(
    network: &Network,
    array: &AcceleratorArray,
    levels: usize,
    threads: usize,
) -> (PlannedNetwork, PlannedNetwork) {
    let run = |iso: bool| {
        Planner::builder(network, array)
            .levels(levels)
            .threads(threads)
            .caching(false)
            .iso(iso)
            .build()
            .expect("planner builds")
            .plan(Strategy::AccPar)
            .expect("network plans")
    };
    (run(false), run(true))
}

fn assert_bit_identical(off: &PlannedNetwork, on: &PlannedNetwork, what: &str) {
    assert_eq!(
        off.plan(),
        on.plan(),
        "{what}: collapsed plan tree diverged from uncollapsed"
    );
    assert_eq!(
        off.modeled_cost().to_bits(),
        on.modeled_cost().to_bits(),
        "{what}: collapsed cost {} != uncollapsed cost {}",
        on.modeled_cost(),
        off.modeled_cost()
    );
}

/// Every zoo network — CNNs, transformers, and the synthetic deep
/// stacks — plans bit-identically with the collapse on and off.
#[test]
fn every_zoo_network_plans_bit_identically_under_collapse() {
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    for name in zoo::EVALUATION_NAMES {
        let network = zoo::by_name(name, 16).expect("zoo network");
        let (off, on) = plan_pair(&network, &array, 2, 1);
        assert_bit_identical(&off, &on, name);
    }
}

/// The deep-stack sweep is not vacuous: on a 48-block stack the
/// collapse must actually stamp rows (the `iso.stamped_rows` counter is
/// live), and the result still matches the uncollapsed path bit for
/// bit.
#[test]
fn deep_stack_collapse_engages_and_stays_bit_identical() {
    let network = zoo::by_name("deep48", 8).expect("zoo network");
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    let collector = Arc::new(Collector::new());
    let obs = Obs::new(Arc::clone(&collector));
    let on = Planner::builder(&network, &array)
        .levels(2)
        .threads(1)
        .caching(false)
        .obs(obs.clone())
        .build()
        .expect("planner builds")
        .plan(Strategy::AccPar)
        .expect("network plans");
    obs.emit_metrics();
    let snap = collector.last_metrics().expect("metrics emitted");
    assert!(
        snap.counter("iso.stamped_rows") > 0,
        "deep48 must exercise the collapse (stamped {} rows)",
        snap.counter("iso.stamped_rows")
    );
    let off = Planner::builder(&network, &array)
        .levels(2)
        .threads(1)
        .caching(false)
        .iso(false)
        .build()
        .expect("planner builds")
        .plan(Strategy::AccPar)
        .expect("network plans");
    assert_bit_identical(&off, &on, "deep48");
}

/// Satellite property test: a random encoder block repeated `N ∈ 1..=32`
/// times plans bit-identically through four paths — uncollapsed and
/// collapsed, serial and parallel. The repeated-block family is the
/// collapse's best case (everything merges), so any stamping or
/// sharing bug shows up here first.
#[test]
fn random_repeated_blocks_plan_bit_identically() {
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    let mut g = common::Gen(0x15011355);
    for case in 0..12 {
        let (network, blocks) = common::random_repeated_blocks(&mut g);
        let what = format!("case {case} ({blocks} blocks)");
        let (off, on) = plan_pair(&network, &array, 2, 1);
        assert_bit_identical(&off, &on, &format!("{what} serial"));
        let (off_par, on_par) = plan_pair(&network, &array, 2, 8);
        assert_bit_identical(&off_par, &on_par, &format!("{what} parallel"));
        // Thread count is not allowed to matter either way.
        assert_bit_identical(&off, &off_par, &format!("{what} uncollapsed threads"));
        assert_bit_identical(&on, &on_par, &format!("{what} collapsed threads"));
    }
}

/// Walks `tree` against the unbudgeted reference: every level is either
/// the reference level (solved before the budget ran out) or the
/// uniform data-parallel fallback. Returns how many levels matched the
/// reference.
fn assert_solved_or_fallback(tree: &PlanTree, reference: &PlanTree, what: &str) -> usize {
    let fallback = NetworkPlan::uniform(reference.plan().len(), LayerPlan::data_parallel());
    let mut solved = 0;
    let mut stack = vec![(tree, reference)];
    while let Some((node, ref_node)) = stack.pop() {
        if node.plan() == ref_node.plan() {
            solved += 1;
        } else {
            assert_eq!(
                node.plan(),
                &fallback,
                "{what}: a budget-stopped level must be the data-parallel fallback"
            );
        }
        match (node.children(), ref_node.children()) {
            (Some((a, b)), Some((ra, rb))) => {
                stack.push((a, ra));
                stack.push((b, rb));
            }
            (None, None) => {}
            _ => panic!("{what}: budgeted tree changed shape"),
        }
    }
    solved
}

/// Armed node budgets: at every rung of a budget ladder, both paths
/// produce a partial plan whose solved levels agree with the unbudgeted
/// reference level-by-level (unsolved levels are the fallback), and the
/// collapsed path — which charges the budget once per equivalence
/// *class* — never solves fewer levels than the uncollapsed one. At the
/// ladder's ends (zero and effectively-unlimited) the two paths are
/// bit-identical outright.
#[test]
fn armed_budgets_agree_level_by_level() {
    let network = common::random_encoder(&mut common::Gen(0xb0d9e7), 8);
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    let (reference, reference_on) = plan_pair(&network, &array, 2, 1);
    assert_bit_identical(&reference, &reference_on, "unbudgeted reference");

    let planner = |iso: bool, budget: Budget| {
        Planner::builder(&network, &array)
            .levels(2)
            .threads(1)
            .caching(false)
            .iso(iso)
            .budget(budget)
            .build()
            .expect("planner builds")
    };
    for cap in [0, 1, 2, 3, 5, 8, 13, 1_000_000] {
        let budget = || Budget::unlimited().max_nodes(cap);
        let off = planner(false, budget())
            .plan_outcome(Strategy::AccPar)
            .expect("uncollapsed budgeted plan");
        let on = planner(true, budget())
            .plan_outcome(Strategy::AccPar)
            .expect("collapsed budgeted plan");
        let solved_off = assert_solved_or_fallback(
            off.planned().plan(),
            reference.plan(),
            &format!("cap {cap} uncollapsed"),
        );
        let solved_on = assert_solved_or_fallback(
            on.planned().plan(),
            reference.plan(),
            &format!("cap {cap} collapsed"),
        );
        assert!(
            solved_on >= solved_off,
            "cap {cap}: collapsed path solved {solved_on} levels, \
             uncollapsed {solved_off} — the per-class charge can only stretch a budget"
        );
        assert!(
            on.completeness() >= off.completeness(),
            "cap {cap}: completeness regressed under collapse"
        );
        if cap == 0 || cap == 1_000_000 {
            assert_bit_identical(
                off.planned(),
                on.planned(),
                &format!("cap {cap} boundary"),
            );
        }
    }
}

/// A budgeted plan does not depend on the thread count: siblings share
/// the budget, so a limited one walks the hierarchy serially in
/// pre-order and solves the same levels on 1 and 4 threads, run after
/// run, across a ladder of node caps from one to fourteen rows per
/// weighted layer.
#[test]
fn budgeted_plans_do_not_depend_on_the_thread_count() {
    let network = zoo::resnet18(32).expect("zoo network");
    let array = AcceleratorArray::heterogeneous_tpu(4, 4);
    let rows = network.train_view().expect("train view").weighted_len() as u64;
    let plan = |threads: usize, cap: u64| {
        Planner::builder(&network, &array)
            .threads(threads)
            .budget(Budget::unlimited().max_nodes(cap))
            .build()
            .expect("planner builds")
            .plan_outcome(Strategy::AccPar)
            .expect("budgeted plan")
    };
    let levels = |outcome: &PlanOutcome| match outcome {
        PlanOutcome::Complete(_) => None,
        PlanOutcome::Partial(p) => Some((p.solved_levels(), p.fallback_levels())),
    };
    for k in 1..=14 {
        let cap = k * rows;
        for run in 0..10 {
            let (serial, parallel) = (plan(1, cap), plan(4, cap));
            let what = format!("cap {k}x{rows} run {run}");
            assert_eq!(
                serial.planned().plan(),
                parallel.planned().plan(),
                "{what}: 4-thread plan tree diverged from 1-thread"
            );
            assert_eq!(
                serial.planned().modeled_cost().to_bits(),
                parallel.planned().modeled_cost().to_bits(),
                "{what}: 4-thread cost diverged from 1-thread"
            );
            assert_eq!(
                levels(&serial),
                levels(&parallel),
                "{what}: solved and fallback levels diverged"
            );
        }
    }
}

/// Fault-driven replanning is bit-identical under collapse: the same
/// degraded array, the same warm-start, the same adopted plan and
/// degraded step time, whether the replanner's inner searches collapse
/// or not.
#[test]
fn fault_replans_are_bit_identical_under_collapse() {
    let network = zoo::bert_base(8, 64).expect("zoo network");
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    let faults = FaultModel::with_seed(7)
        .slow_leaf(0, 0.5)
        .unwrap()
        .degrade_cut(1, 0.25)
        .unwrap();
    let run = |iso: bool| {
        let planner = Planner::builder(&network, &array)
            .levels(2)
            .threads(1)
            .caching(false)
            .iso(iso)
            .build()
            .expect("planner builds");
        let planned = planner.plan(Strategy::AccPar).expect("healthy plan");
        planner.replan(&planned, &faults).expect("replan succeeds")
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off.plan, on.plan, "replan adopted different plans");
    assert_eq!(off.replanned, on.replanned);
    assert_eq!(
        off.degraded_secs.to_bits(),
        on.degraded_secs.to_bits(),
        "replan degraded step time diverged"
    );
    assert_eq!(off.nominal_secs.to_bits(), on.nominal_secs.to_bits());
    assert_eq!(off.deltas, on.deltas);
}

/// A fault splits exactly the equivalence classes of the levels it
/// touches. The class key folds in the pair environment, so on the
/// degraded tree every layer key of a touched level moves (the level's
/// rows may no longer be shared with the healthy run), while an
/// untouched level's keys are unchanged — its memoized rows stay valid.
/// And the replan adopting those re-split classes is never worse than
/// the stale plan on the degraded hardware.
#[test]
fn fault_replan_splits_only_touched_classes() {
    use accpar::core::{level_class_keys, SearchConfig};
    use accpar::cost::PairEnv;

    let network = zoo::bert_base(8, 64).expect("zoo network");
    let view = network.train_view().expect("train view");
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    let tree = GroupTree::bisect(&array, 2).expect("bisection");
    // One slow board under the root's left child; the right child's
    // subtree never sees it.
    let faults = FaultModel::new().slow_leaf(0, 0.5).unwrap();
    let degraded = tree.degraded(&faults).expect("degraded tree");

    let model = CostModel::new(CostConfig::default());
    let config = SearchConfig::accpar();
    let keys_at = |node: &accpar::hw::GroupNode| {
        let env = PairEnv::from_node(node).expect("internal node");
        level_class_keys(&view, &model, &config, &env, None)
    };

    let (left, right) = tree.root().children().expect("two levels");
    let (dleft, dright) = degraded.root().children().expect("two levels");
    // Touched levels: the root (its left group lost compute) and the
    // left child (its own left leaf slowed). Every layer's class key
    // moves — the environment is part of the key.
    for (nominal, faulted, what) in [
        (keys_at(tree.root()), keys_at(degraded.root()), "root"),
        (keys_at(left), keys_at(dleft), "touched child"),
    ] {
        assert_eq!(nominal.len(), faulted.len());
        assert!(
            nominal.iter().zip(&faulted).all(|(a, b)| a != b),
            "{what}: a fault-touched level must re-split its classes"
        );
    }
    // Untouched level: bit-for-bit the same keys, so nothing re-splits.
    assert_eq!(
        keys_at(right),
        keys_at(dright),
        "a level the fault cannot see must keep its classes"
    );

    // And the adopted plan is never worse than the stale one.
    let planner = Planner::builder(&network, &array)
        .levels(2)
        .threads(1)
        .build()
        .expect("planner builds");
    let planned = planner.plan(Strategy::AccPar).expect("healthy plan");
    let outcome = planner.replan(&planned, &faults).expect("replan succeeds");
    let stale = outcome
        .degraded_old_secs
        .expect("slow-leaf keeps the old plan runnable");
    assert!(
        outcome.degraded_secs <= stale * (1.0 + 1e-9),
        "replan {} must not be worse than the stale plan {}",
        outcome.degraded_secs,
        stale
    );
}
