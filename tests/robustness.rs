//! End-to-end robustness acceptance tests: the seeded fault scenario
//! from the issue — one TPU-v2 leaf at half compute, one bisection cut
//! at quarter bandwidth — must produce bit-identical reports across
//! runs, and graceful re-planning must never be worse than limping
//! along on the stale plan.

use accpar::prelude::*;
use accpar_sim::simulate_des;
use std::sync::Arc;
use std::time::Duration;

mod common;

/// The acceptance scenario: leaf 0 (a TPU-v2 board in
/// `heterogeneous_tpu`) at 0.5x compute, cut 1 at 0.25x bandwidth.
fn acceptance_faults(seed: u64) -> FaultModel {
    FaultModel::with_seed(seed)
        .slow_leaf(0, 0.5)
        .expect("valid factor")
        .degrade_cut(1, 0.25)
        .expect("valid factor")
}

fn setup() -> (Network, AcceleratorArray) {
    let network = zoo::alexnet(256).expect("zoo network");
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    (network, array)
}

#[test]
fn seeded_faulted_reports_are_identical_across_runs() {
    let (network, array) = setup();
    let view = network.train_view().unwrap();
    let tree = GroupTree::bisect(&array, 2).unwrap();
    let planner = Planner::builder(&network, &array).levels(2).build().unwrap();
    let planned = planner.plan(Strategy::AccPar).unwrap();
    let faults = acceptance_faults(7);

    let sim = Simulator::new(SimConfig::default());
    let a = sim
        .simulate(&view, planned.plan(), &tree, Some(&faults))
        .unwrap();
    let b = sim
        .simulate(&view, planned.plan(), &tree, Some(&faults))
        .unwrap();
    assert_eq!(a, b, "bulk-synchronous reports must be bit-identical");

    let config = SimConfig::default();
    let da = simulate_des(&config, &view, planned.plan(), &tree, Some(&faults)).unwrap();
    let db = simulate_des(&config, &view, planned.plan(), &tree, Some(&faults)).unwrap();
    assert_eq!(da.total_secs.to_bits(), db.total_secs.to_bits());
    assert_eq!(da.leaf_busy_secs, db.leaf_busy_secs);
    assert_eq!(da.tasks, db.tasks);

    // The faults actually hurt: degraded strictly slower than nominal
    // (the quarter-bandwidth cut bites even when the straggler hides
    // behind the memory roofline).
    let clean = sim.simulate(&view, planned.plan(), &tree, None).unwrap();
    assert!(a.total_secs > clean.total_secs, "faults must slow the step");
    let dclean = simulate_des(&config, &view, planned.plan(), &tree, None).unwrap();
    assert!(da.total_secs > dclean.total_secs);
}

#[test]
fn replanned_degraded_step_never_exceeds_the_stale_plan() {
    let (network, array) = setup();
    let planner = Planner::builder(&network, &array).levels(2).build().unwrap();
    let faults = acceptance_faults(7);

    for strategy in Strategy::ALL {
        let planned = planner.plan(strategy).unwrap();
        let outcome = planner.replan(&planned, &faults).unwrap();
        let stale = outcome
            .degraded_old_secs
            .expect("no dropout: the stale plan can still run");
        assert!(
            outcome.degraded_secs <= stale * (1.0 + 1e-12),
            "{strategy}: replanned {} vs stale {}",
            outcome.degraded_secs,
            stale
        );
        // A stale plan on strictly worse hardware can only slow down.
        assert!(stale >= outcome.nominal_secs * (1.0 - 1e-12), "{strategy}");
    }
}

#[test]
fn replanning_is_deterministic() {
    let (network, array) = setup();
    let planner = Planner::builder(&network, &array).levels(2).build().unwrap();
    let planned = planner.plan(Strategy::AccPar).unwrap();
    let faults = acceptance_faults(7);

    let a = planner.replan(&planned, &faults).unwrap();
    let b = planner.replan(&planned, &faults).unwrap();
    assert_eq!(a.plan, b.plan);
    assert_eq!(a.degraded_secs.to_bits(), b.degraded_secs.to_bits());
    assert_eq!(a.replanned, b.replanned);
    assert_eq!(a.deltas.len(), b.deltas.len());
}

#[test]
fn bert_replans_gracefully_under_the_acceptance_faults() {
    // The transformer path through replan: attention blocks, the
    // stage-comm terms, and the embedding survive the degraded-hardware
    // search just like the CNN zoo, and replanning still pays off.
    let network = zoo::bert_base(8, 64).unwrap();
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    let planner = Planner::builder(&network, &array).levels(2).build().unwrap();
    let planned = planner.plan(Strategy::AccPar).unwrap();
    let faults = acceptance_faults(7);

    let outcome = planner.replan(&planned, &faults).unwrap();
    let stale = outcome
        .degraded_old_secs
        .expect("no dropout: the stale plan can still run");
    assert!(
        outcome.degraded_secs <= stale * (1.0 + 1e-12),
        "replanned {} vs stale {}",
        outcome.degraded_secs,
        stale
    );
    assert!(stale >= outcome.nominal_secs * (1.0 - 1e-12));

    // Deterministic: a second replan reproduces the same bits.
    let again = planner.replan(&planned, &faults).unwrap();
    assert_eq!(outcome.plan, again.plan);
    assert_eq!(
        outcome.degraded_secs.to_bits(),
        again.degraded_secs.to_bits()
    );
}

#[test]
fn random_fault_models_are_seeded() {
    let a = FaultModel::random(99, 4, 3, 3).unwrap();
    let b = FaultModel::random(99, 4, 3, 3).unwrap();
    assert_eq!(a, b, "same seed, same faults");
    let c = FaultModel::random(100, 4, 3, 3).unwrap();
    assert_ne!(a, c, "different seed, different faults");
}

#[test]
fn dropout_forces_a_feasible_plan_on_the_survivors() {
    let (network, array) = setup();
    let view = network.train_view().unwrap();
    let tree = GroupTree::bisect(&array, 2).unwrap();
    let planner = Planner::builder(&network, &array).levels(2).build().unwrap();
    let planned = planner.plan(Strategy::AccPar).unwrap();
    let faults = FaultModel::with_seed(7).drop_leaf(3);

    // The stale plan cannot run at all on the faulted hardware...
    let sim = Simulator::new(SimConfig::default());
    let err = sim
        .simulate(&view, planned.plan(), &tree, Some(&faults))
        .unwrap_err();
    assert!(err.to_string().contains("re-plan"), "{err}");

    // ...but the replanner produces one that does, on three boards.
    let outcome = planner.replan(&planned, &faults).unwrap();
    assert!(outcome.replanned);
    assert_eq!(outcome.array.len(), 3);
    assert!(outcome.degraded_secs > 0.0);
    assert_eq!(outcome.degraded_old_secs, None);
}

// ---------------------------------------------------------------------
// Anytime planning: budgets, cancellation, panic isolation, serving.
// ---------------------------------------------------------------------

#[test]
fn zero_node_budget_yields_the_pure_data_parallel_plan() {
    let (network, array) = setup();
    let planner = Planner::builder(&network, &array)
        .levels(2)
        .threads(1)
        .budget(Budget::unlimited().max_nodes(0))
        .build()
        .unwrap();

    let outcome = planner.plan_outcome(Strategy::AccPar).unwrap();
    let PlanOutcome::Partial(partial) = outcome else {
        panic!("a zero budget cannot complete the search");
    };
    assert_eq!(partial.reason(), StopReason::NodeBudget);
    assert_eq!(partial.completeness(), 0.0);
    assert_eq!(partial.solved_levels(), 0);

    // With nothing solved, the anytime fallback IS the pure
    // data-parallel baseline, tree and cost alike.
    let dp = planner.plan(Strategy::DataParallel).unwrap();
    assert_eq!(partial.planned().plan(), dp.plan());
    assert_eq!(
        partial.planned().modeled_cost().to_bits(),
        dp.modeled_cost().to_bits()
    );
}

#[test]
fn plan_quality_is_monotone_in_the_node_budget() {
    // A seeded random MLP: as the node budget grows, the solved
    // fraction never shrinks and the plan never gets more expensive —
    // every partial plan also stays within the data-parallel baseline.
    let mut g = common::Gen(0x5EED_CAFE);
    let mut dims = vec![g.range(64, 257)];
    for _ in 0..6 {
        dims.push(g.range(64, 257));
    }
    let network = common::mlp(g.range(32, 129), &dims);
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    let planner = |budget: Budget| {
        Planner::builder(&network, &array)
            .levels(2)
            .threads(1)
            .budget(budget)
            .build()
            .unwrap()
    };
    let dp_cost = planner(Budget::unlimited())
        .plan(Strategy::DataParallel)
        .unwrap()
        .modeled_cost();

    let rows = network.train_view().unwrap().weighted_len() as u64;
    let mut last_completeness = -1.0f64;
    let mut last_cost = f64::INFINITY;
    for budget_rows in [0, rows, 2 * rows, 3 * rows, u64::MAX] {
        let budget = Budget::unlimited().max_nodes(budget_rows);
        let outcome = planner(budget).plan_outcome(Strategy::AccPar).unwrap();
        let completeness = outcome.completeness();
        let cost = outcome.planned().modeled_cost();
        assert!(
            completeness >= last_completeness,
            "completeness fell from {last_completeness} to {completeness} at {budget_rows} rows"
        );
        assert!(
            cost <= last_cost * (1.0 + 1e-12),
            "cost rose from {last_cost} to {cost} at {budget_rows} rows"
        );
        assert!(cost <= dp_cost * (1.0 + 1e-12), "worse than pure DP");
        last_completeness = completeness;
        last_cost = cost;
    }
    assert_eq!(last_completeness, 1.0, "an effectively unlimited budget completes");
}

#[test]
fn cancellation_mid_hierarchy_yields_a_simulatable_plan() {
    let (network, array) = setup();
    let view = network.train_view().unwrap();
    let tree = GroupTree::bisect(&array, 2).unwrap();

    // Budget sized to solve exactly the root level: the children fall
    // back, and the stitched plan still runs on the BSP simulator.
    let rows = view.weighted_len() as u64;
    let planner = Planner::builder(&network, &array)
        .levels(2)
        .threads(1)
        .budget(Budget::unlimited().max_nodes(rows))
        .build()
        .unwrap();
    let outcome = planner.plan_outcome(Strategy::AccPar).unwrap();
    let PlanOutcome::Partial(partial) = outcome else {
        panic!("a root-only budget cannot finish the children");
    };
    assert_eq!(partial.solved_levels(), 1);
    assert_eq!(partial.fallback_levels(), 2);
    assert!(partial.completeness() > 0.0 && partial.completeness() < 1.0);
    let sim = Simulator::new(SimConfig::default());
    let report = sim
        .simulate(&view, partial.planned().plan(), &tree, None)
        .expect("the partial plan must be feasible");
    assert!(report.total_secs > 0.0);

    // A token cancelled before planning starts degrades everything —
    // and the result is still a feasible, simulatable plan.
    let token = CancelToken::new();
    token.cancel();
    let cancelled = Planner::builder(&network, &array)
        .levels(2)
        .threads(1)
        .budget(Budget::unlimited().cancel_token(&token))
        .build()
        .unwrap()
        .plan_outcome(Strategy::AccPar)
        .unwrap();
    let PlanOutcome::Partial(partial) = cancelled else {
        panic!("a pre-cancelled token cannot complete");
    };
    assert_eq!(partial.reason(), StopReason::Cancelled);
    assert_eq!(partial.completeness(), 0.0);
    sim.simulate(&view, partial.planned().plan(), &tree, None)
        .expect("the cancelled plan must be feasible");
}

#[test]
fn an_injected_worker_panic_is_retried_to_a_bit_identical_plan() {
    let (network, array) = setup();

    let serial = Planner::builder(&network, &array)
        .levels(2)
        .threads(1)
        .build()
        .unwrap()
        .plan(Strategy::AccPar)
        .unwrap();

    let collector = Arc::new(Collector::new());
    let chaos = Budget::unlimited().chaos_panic_at_node(5);
    let planner = Planner::builder(&network, &array)
        .levels(2)
        .threads(4)
        .subscriber(Arc::clone(&collector))
        .budget(chaos)
        .build()
        .unwrap();
    let outcome = planner.plan_outcome(Strategy::AccPar).unwrap();
    assert!(outcome.is_complete(), "the retried search still completes");
    assert_eq!(outcome.planned().plan(), serial.plan());
    assert_eq!(
        outcome.planned().modeled_cost().to_bits(),
        serial.modeled_cost().to_bits()
    );

    planner.obs().emit_metrics();
    let snap = collector.last_metrics().unwrap();
    assert!(snap.counter("pool.panics_caught") >= 1, "the panic fired");
    assert!(
        snap.counter("pool.panics_recovered") >= 1,
        "and the retry recovered it"
    );
}

#[test]
fn plan_many_exhibits_all_four_outcomes() {
    // The acceptance battery: one batch showing a completed plan, a
    // budget-limited partial plan, a recovered worker panic, and a shed
    // request — each observable through the metrics.
    let lenet = zoo::lenet(64).unwrap();
    let alexnet = zoo::alexnet(128).unwrap();
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);

    let requests = vec![
        PlanRequest::new(&lenet, &array).levels(2),
        PlanRequest::new(&alexnet, &array)
            .levels(2)
            .budget(Budget::unlimited().max_nodes(1)),
        PlanRequest::new(&lenet, &array)
            .levels(1)
            .budget(Budget::unlimited().chaos_panic_at_node(2)),
        PlanRequest::new(&lenet, &array).levels(1),
    ];
    let collector = Arc::new(Collector::new());
    let config = ServeConfig {
        max_queue: 3,
        workers: 2,
        obs: Obs::new(Arc::clone(&collector)),
        ..ServeConfig::default()
    };
    let results = plan_many(&requests, &config);
    assert_eq!(results.len(), 4);

    // 1: complete.
    assert!(matches!(results[0], Ok(PlanOutcome::Complete(_))));
    // 2: partial under the node budget, never worse than pure DP.
    let Ok(PlanOutcome::Partial(partial)) = &results[1] else {
        panic!("one row of budget cannot finish AlexNet");
    };
    assert_eq!(partial.reason(), StopReason::NodeBudget);
    assert!(partial.completeness() < 1.0);
    // 3: the injected panic was recovered and the plan completed.
    assert!(matches!(results[2], Ok(PlanOutcome::Complete(_))));
    // 4: shed beyond the queue bound.
    assert!(matches!(
        results[3],
        Err(PlanError::Overloaded { depth: 4, bound: 3 })
    ));

    config.obs.emit_metrics();
    let snap = collector.last_metrics().unwrap();
    assert_eq!(snap.counter("serve.completed"), 2);
    assert_eq!(snap.counter("serve.partial"), 1);
    assert_eq!(snap.counter("serve.node_budget_hits"), 1);
    assert_eq!(snap.counter("serve.sheds"), 1);
    assert!(snap.counter("pool.panics_recovered") >= 1);
    assert_eq!(collector.events_named("plan.partial").len(), 1);
}

#[test]
fn the_watchdog_flags_a_stalled_request() {
    let network = zoo::bert_base(8, 64).unwrap();
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    let requests = vec![PlanRequest::new(&network, &array).levels(2)];
    let collector = Arc::new(Collector::new());
    let config = ServeConfig {
        workers: 1,
        // A 1ns stall threshold (zero is rejected by validation):
        // every request exceeds it, so the stall accounting (watchdog
        // sampling + exact settlement at completion) must flag the
        // request exactly once.
        watchdog_stall: Some(Duration::from_nanos(1)),
        obs: Obs::new(Arc::clone(&collector)),
        ..ServeConfig::default()
    };
    let results = plan_many(&requests, &config);
    assert!(results[0].is_ok());
    config.obs.emit_metrics();
    let snap = collector.last_metrics().unwrap();
    assert!(snap.counter("serve.stalled") >= 1);
    assert!(!collector.events_named("serve.stalled").is_empty());
}

// ---------------------------------------------------------------------
// One planning path: a `Planner` and `plan_many` answer alike.
// ---------------------------------------------------------------------

fn assert_same_plan(a: &PlanOutcome, b: &PlanOutcome, what: &str) {
    assert_eq!(a.planned().plan(), b.planned().plan(), "{what}: plan trees differ");
    assert_eq!(
        a.planned().modeled_cost().to_bits(),
        b.planned().modeled_cost().to_bits(),
        "{what}: costs differ"
    );
}

/// The same request through `Planner::plan_outcome` and through a
/// one-worker `plan_many` gets the same plan: healthy and faulted,
/// without a plan cache, and through a shared plan cache on a cold call
/// and then on a hit. The healthy plan is exactly the hierarchical
/// search plus a BSP evaluation, and a request capped at one node per
/// layer gets the same anytime outcome either way.
#[test]
fn planner_and_plan_many_answer_every_request_alike() {
    use accpar::core::hierarchy::plan_node_budgeted;
    use accpar::core::SearchConfig;
    use accpar::runtime::Pool;

    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    // A slow leaf plus a degraded cut that slow all three networks, so a
    // healthy answer cannot pass for a faulted one.
    let faults = FaultModel::with_seed(7)
        .slow_leaf(3, 0.5)
        .expect("valid factor")
        .degrade_cut(2, 0.25)
        .expect("valid factor");
    let direct = |request: PlanRequest<'_>| {
        request
            .build()
            .expect("request builds")
            .plan_outcome(Strategy::AccPar)
            .expect("planner plans")
    };
    let served = |request: PlanRequest<'_>, cache: Option<&Arc<PlanCache>>| {
        let config = ServeConfig {
            workers: 1,
            cache: cache.cloned(),
            ..ServeConfig::default()
        };
        let mut results = plan_many(&[request], &config);
        results.pop().expect("one result").expect("plan_many plans")
    };
    let networks = [
        zoo::lenet(64).expect("zoo network"),
        zoo::alexnet(128).expect("zoo network"),
        zoo::bert_base(4, 32).expect("zoo network"),
    ];
    let mut partials = 0;
    for network in &networks {
        let name = network.name();
        let mut healthy_secs = None;
        for faulted in [false, true] {
            let request = || {
                let request = Planner::builder(network, &array).levels(2);
                if faulted {
                    request.faults(&faults)
                } else {
                    request
                }
            };
            let what = format!("{name} faulted={faulted}");
            let truth = direct(request());
            let secs = truth.planned().modeled_cost();
            match healthy_secs {
                None => healthy_secs = Some(secs),
                Some(healthy) => assert!(secs > healthy, "{what}: the faults must slow the step"),
            }
            assert_same_plan(&truth, &served(request(), None), &format!("{what} uncached"));

            // A cache shared by both entry points: whichever plans cold
            // fills it, and the other is served the validated hit.
            for planner_first in [true, false] {
                let cache = Arc::new(PlanCache::memory(8));
                let cached = || request().plan_cache(Arc::clone(&cache));
                let (cold, hit) = if planner_first {
                    (direct(cached()), served(request(), Some(&cache)))
                } else {
                    (served(request(), Some(&cache)), direct(cached()))
                };
                let order = if planner_first {
                    "planner then plan_many"
                } else {
                    "plan_many then planner"
                };
                assert_same_plan(&truth, &cold, &format!("{what} cold, {order}"));
                assert_same_plan(&truth, &hit, &format!("{what} hit, {order}"));
                let stats = cache.stats();
                assert_eq!((stats.misses, stats.hits), (1, 1), "{what}: {order}");
                assert_eq!(stats.demotions, u64::from(faulted), "{what}: {order}");
            }

            // One node per layer: a fresh budget for each call.
            let rows = network.train_view().expect("train view").weighted_len() as u64;
            let capped = || request().budget(Budget::unlimited().max_nodes(rows));
            let (a, b) = (direct(capped()), served(capped(), None));
            assert_eq!(a, b, "{what}: capped outcomes differ");
            assert_same_plan(&a, &b, &format!("{what} capped"));
            partials += usize::from(!a.is_complete());
        }

        // The healthy plan is the search plus its evaluation, called the
        // way the benchmark decomposes a cold plan.
        let view = network.train_view().expect("train view");
        let tree = GroupTree::bisect(&array, 2).expect("bisects");
        let (plan, _) = plan_node_budgeted(
            &view,
            tree.root(),
            &CostModel::new(CostConfig::default()),
            &SearchConfig::accpar_with(RatioSolver::default()),
            None,
            Pool::serial(),
            Some(&SearchCache::new()),
            &Obs::off(),
            None,
            &Budget::unlimited(),
        )
        .expect("search succeeds");
        let plan = plan.expect("the bisected tree has levels");
        let report = simulate(&SimConfig::cost_model_aligned(), &view, &plan, &tree, None)
            .expect("plan simulates");
        let healthy = direct(Planner::builder(network, &array).levels(2));
        assert_eq!(healthy.planned().plan(), &plan, "{name}: decomposed plan differs");
        assert_eq!(
            healthy.planned().modeled_cost().to_bits(),
            report.total_secs.to_bits(),
            "{name}: decomposed cost differs"
        );
    }
    // LeNet's and AlexNet's healthy searches stop at the cap.
    assert_eq!(partials, 2, "the one-node-per-layer cap stops the CNN searches");
}
