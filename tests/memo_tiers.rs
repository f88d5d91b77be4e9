//! The search memo's per-level tiers on cold plans: a level search
//! builds one cost row per distinct layer shape and one block transfer
//! table per distinct block, with or without isomorphism collapse, and
//! keeps neither once the level is done. The counters below were
//! printed when rows and blocks still lived in memo-wide maps; a cold
//! plan hits those maps only inside one level, so the per-level dedups
//! must count exactly the same.

use accpar::prelude::*;

/// `(network, iso, layer hits, layer misses, block hits, block misses)`
/// of a fresh one-thread AccPar plan on hetero 4+4 at batch 512.
const COLD: [(&str, bool, u64, u64, u64, u64); 6] = [
    ("deep48", true, 45, 60, 230, 10),
    ("deep48", false, 4260, 60, 230, 10),
    ("resnet50", true, 135, 360, 40, 40),
    ("resnet50", false, 450, 360, 40, 40),
    ("bert_base", true, 15, 75, 55, 5),
    ("bert_base", false, 1020, 75, 55, 5),
];

#[test]
fn cold_plan_counters_match_the_memo_wide_maps() {
    let array = AcceleratorArray::heterogeneous_tpu(4, 4);
    for (name, iso, layer_hits, layer_misses, block_hits, block_misses) in COLD {
        let net = zoo::by_name(name, 512).unwrap();
        let planner = Planner::builder(&net, &array)
            .threads(1)
            .iso(iso)
            .build()
            .unwrap();
        planner.plan(Strategy::AccPar).unwrap();
        let stats = planner.cache_stats();
        let label = format!("{name} iso={iso}: {stats:?}");
        assert_eq!(stats.layer_hits, layer_hits, "{label}");
        assert_eq!(stats.layer_misses, layer_misses, "{label}");
        assert_eq!(stats.block_hits, block_hits, "{label}");
        assert_eq!(stats.block_misses, block_misses, "{label}");
        // Five of the seven levels search; the twins replay the rest.
        assert_eq!((stats.level_hits, stats.level_misses), (0, 5), "{label}");
    }
}

#[test]
fn the_dedups_never_change_a_plan() {
    let array = AcceleratorArray::heterogeneous_tpu(4, 4);
    for name in ["deep48", "resnet50", "bert_base", "vgg16"] {
        let net = zoo::by_name(name, 512).unwrap();
        let plan = |caching: bool, iso: bool| {
            Planner::builder(&net, &array)
                .threads(1)
                .caching(caching)
                .iso(iso)
                .build()
                .unwrap()
                .plan(Strategy::AccPar)
                .unwrap()
        };
        // `tests/differential.rs` compares collapse on and off without
        // a memo; these are the two searches with one.
        let reference = plan(false, false);
        for iso in [true, false] {
            let planned = plan(true, iso);
            assert_eq!(planned.plan(), reference.plan(), "{name} iso={iso}");
            assert_eq!(
                planned.modeled_cost().to_bits(),
                reference.modeled_cost().to_bits(),
                "{name} iso={iso}"
            );
        }
    }
}
