//! Soak battery for the live-replanning supervisor: long seeded health
//! timelines replayed over several zoo models, asserting the tentpole
//! invariants end to end —
//!
//! * **terminal convergence**: after hundreds of events the settled
//!   serving plan is bit-identical to running the never-worse replanner
//!   once against the terminal fault set with a fresh cache;
//! * **never worse**: at every replanned decision the adopted step time
//!   is no worse than limping along on the stale plan;
//! * **never plan-less**: no event sequence that leaves servable
//!   hardware ends with the supervisor shed or panicking, including
//!   fail/recover bursts racing inside one debounce window;
//! * **determinism**: the same seed and schedule produce an identical
//!   decision log, replan count and final plan across runs and thread
//!   counts;
//! * **revocability**: `recover(degrade(model)) == model` bit-exactly,
//!   through the fault model, the degraded group tree, and the
//!   supervisor's serving plan.

use accpar::prelude::*;

/// The request every soak supervises: `net` on hetero 2+2 at depth 2,
/// planned on `threads` threads.
fn planner<'a>(net: &'a Network, array: &'a AcceleratorArray, threads: usize) -> Planner<'a> {
    Planner::builder(net, array)
        .levels(2)
        .threads(threads)
        .build()
        .expect("request builds")
}

/// Replays `n_events` seeded events over `network` and checks terminal
/// bit-identity against a direct replan, never-worse per decision, and
/// report sanity. Returns the report for further checks.
fn soak(network: &str, batch: usize, seed: u64, n_events: usize) -> SuperviseReport {
    let net = zoo::by_name(network, batch).expect("zoo network");
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    let mut sup = planner(&net, &array, 1)
        .supervise(SuperviseConfig::default())
        .expect("supervisor builds");
    let schedule = HealthSchedule::random(seed, sup.leaf_count(), sup.cut_count(), n_events)
        .expect("schedule builds");
    let report = sup.run(&schedule).expect("soak run");

    // The random schedule never drops below two healthy leaves, so the
    // supervisor must end the timeline serving something.
    assert!(sup.plan().is_some(), "{network} ended the soak plan-less");

    // Terminal convergence: one never-worse replan against the folded
    // terminal fault set, from the same healthy baseline but a fresh
    // cache, must reproduce the settled plan bit for bit.
    let terminal = schedule.fold_all(FaultModel::new()).expect("terminal fold");
    let fresh = planner(&net, &array, 1);
    let healthy = fresh.plan(Strategy::AccPar).expect("healthy plan");
    assert_eq!(healthy.plan(), sup.healthy_plan());
    let direct = fresh.replan(&healthy, &terminal).expect("direct replan");
    assert_eq!(
        sup.plan(),
        Some(&direct.plan),
        "{network}: settled plan diverged from the direct terminal replan"
    );

    // Never worse, at every rung: wherever the supervisor measured the
    // stale plan, the plan it chose to serve is at least as fast.
    for d in &report.decisions {
        if let (Some(serving), Some(stale)) = (d.serving_secs, d.stale_secs) {
            assert!(
                serving <= stale,
                "{network}: a decision served {serving} s when the stale plan ran at {stale} s"
            );
        }
    }
    assert!((0.0..=1.0).contains(&report.availability));
    assert_eq!(report.events, n_events);
    report
}

#[test]
fn soak_two_hundred_events_over_three_zoo_models() {
    for (network, seed) in [("lenet", 101), ("alexnet", 202), ("vgg16", 303)] {
        let report = soak(network, 64, seed, 200);
        // 200 events must debounce into fewer decisions, and holds plus
        // debouncing must keep searches below one per event.
        assert!(report.decisions.len() <= report.events);
        assert!(report.replans <= report.decisions.len());
    }
}

#[test]
fn soak_replays_are_bit_identical() {
    let a = soak("alexnet", 64, 77, 120);
    let b = soak("alexnet", 64, 77, 120);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.replans, b.replans);
    assert_eq!(a.availability.to_bits(), b.availability.to_bits());
}

#[test]
fn soak_is_deterministic_across_thread_counts() {
    let net = zoo::alexnet(64).expect("zoo network");
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    let run = |threads: usize| {
        let mut sup = planner(&net, &array, threads)
            .supervise(SuperviseConfig::default())
            .expect("supervisor builds");
        let schedule = HealthSchedule::random(13, sup.leaf_count(), sup.cut_count(), 100)
            .expect("schedule builds");
        let report = sup.run(&schedule).expect("soak run");
        (report.decisions.clone(), report.replans, sup.plan().cloned())
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.0, parallel.0, "decision logs diverged across thread counts");
    assert_eq!(serial.1, parallel.1, "replan counts diverged across thread counts");
    assert_eq!(serial.2, parallel.2, "final plans diverged across thread counts");
}

#[test]
fn fail_recover_bursts_race_inside_the_debounce_window() {
    let net = zoo::lenet(64).expect("zoo network");
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    let mut sup = planner(&net, &array, 1)
        .supervise(SuperviseConfig::default())
        .expect("supervisor builds");
    let healthy = sup.healthy_plan().clone();

    // Forty bursts, each packed inside one debounce window: a board
    // fails, another degrades, and the failed board recovers before the
    // supervisor ever gets to decide — the recover-during-replan race.
    // Every burst folds to "leaf b mildly degraded", so set semantics
    // must keep the supervisor serving throughout.
    let mut schedule = HealthSchedule::new();
    for burst in 0..40u32 {
        let t = f64::from(burst);
        let a = (burst as usize) % 4;
        let b = (burst as usize + 1) % 4;
        schedule = schedule
            .push(t, HealthEventKind::Fail { leaf: a })
            .unwrap()
            .push(t + 0.001, HealthEventKind::Degrade { leaf: b, factor: 0.9 })
            .unwrap()
            .push(t + 0.002, HealthEventKind::Recover { leaf: a })
            .unwrap()
            .push(t + 0.003, HealthEventKind::Recover { leaf: b })
            .unwrap();
    }
    let report = sup.run(&schedule).expect("burst run");
    // No burst sheds, and the terminal fault set is empty, so the
    // settled plan is the healthy baseline again — bit for bit.
    assert!(report.decisions.iter().all(|d| d.action != SuperviseAction::Shed));
    assert_eq!(sup.plan(), Some(&healthy));
    assert!(sup.faults().is_empty());
    assert!((report.availability - 1.0).abs() < 1e-12);
}

#[test]
fn recover_of_degrade_is_identity_through_model_and_tree() {
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    let tree = GroupTree::bisect(&array, 2).expect("bisect");

    // Fold degrade/fail/jitter events and their inverses through the
    // health timeline; the result must be the empty model, and the
    // degraded tree it induces must be bit-identical to the original.
    let forward = [
        HealthEventKind::Degrade { leaf: 1, factor: 0.6 },
        HealthEventKind::BandwidthJitter { cut: 0, factor: 0.5 },
        HealthEventKind::Fail { leaf: 2 },
    ];
    let inverse = [
        HealthEventKind::Recover { leaf: 1 },
        HealthEventKind::BandwidthJitter { cut: 0, factor: 1.0 },
        HealthEventKind::Recover { leaf: 2 },
    ];
    let mut model = FaultModel::new();
    for kind in forward.iter().chain(inverse.iter()) {
        model = kind.fold_into(model).expect("fold");
    }
    assert_eq!(model, FaultModel::new());
    assert_eq!(tree.degraded(&model).expect("degraded tree"), tree);
}
