//! Every zoo network must plan cleanly under every strategy, and the
//! resulting plans must be structurally valid.

use accpar::partition::PartitionType;
use accpar::prelude::*;

#[test]
fn every_network_plans_under_every_strategy() {
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    for name in zoo::EVALUATION_NAMES {
        let net = zoo::by_name(name, 32).expect("zoo network");
        let view = net.train_view().expect("weighted layers");
        let planner = Planner::builder(&net, &array).levels(2).build().unwrap();
        for strategy in Strategy::ALL {
            let planned = planner.plan(strategy).unwrap_or_else(|e| {
                panic!("{name} under {strategy}: {e}");
            });
            assert_eq!(planned.plan().depth(), 2, "{name} {strategy}");
            assert_eq!(
                planned.plan().plan().len(),
                view.weighted_len(),
                "{name} {strategy}"
            );
            assert!(planned.modeled_cost() > 0.0, "{name} {strategy}");
            // Every ratio is a valid probability.
            let plan = planned.plan().plan();
            for entry in plan.layers() {
                let a = entry.ratio.value();
                assert!((0.0..=1.0).contains(&a), "{name} {strategy}: {a}");
            }
        }
    }
}

/// Golden-plan snapshots for the transformer zoo: the exact partition
/// type sequence and modeled cost AccPar finds for BERT-base and
/// GPT-2-small on a two-level heterogeneous v2/v3 array. Any cost-model
/// or search change that moves these plans must be deliberate: regenerate
/// by printing `type_string()`/`modeled_cost()` under this exact config.
///
/// The structure is readable: the embedding and the o/ffn projections sit
/// in Type-II/III (model parallel — their weights dominate), while q/k/v
/// ride Type-I or II depending on the level's bandwidth balance.
#[test]
fn transformer_golden_plans() {
    const BERT_COST: f64 = 1.144_648_726_777_905_8e-1;
    const GPT2_COST: f64 = 1.144_648_907_212_191_5e-1;
    const L0: &str =
        "3III232333232333232333232333232333232333232333232333232333232333232333232";
    const L1A: &str =
        "I222IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII";
    const L1B: &str =
        "3222232333232333232333232333232333232333232333232333232333232333232333232";

    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    for (name, golden_cost) in [("bert_base", BERT_COST), ("gpt2_small", GPT2_COST)] {
        let net = zoo::by_name(name, 8).unwrap();
        let planned = Planner::builder(&net, &array)
            .levels(2)
            .build()
            .unwrap()
            .plan(Strategy::AccPar)
            .unwrap();
        assert_eq!(planned.plan().plan().type_string(), L0, "{name} level 0");
        let (a, b) = planned.plan().children().expect("two levels");
        assert_eq!(a.plan().type_string(), L1A, "{name} level 1a");
        assert_eq!(b.plan().type_string(), L1B, "{name} level 1b");
        let cost = planned.modeled_cost();
        assert!(
            (cost - golden_cost).abs() <= 1e-9 * golden_cost,
            "{name}: cost {cost:.17e} vs golden {golden_cost:.17e}"
        );
    }
}

/// Golden-plan snapshots for the synthetic deep stacks and GPT-2 XL.
/// Their chains are periodic — one encoder block's 6-layer type pattern
/// repeated per block, with only the chain-opening layers special — so
/// the goldens are written as `prefix + block × repeats` instead of
/// 300-character literals. Any search or cost-model change that moves
/// them must be deliberate; regenerate by printing `type_string()` and
/// `modeled_cost()` under this exact config.
#[test]
fn deep_stack_golden_plans() {
    fn periodic(prefix: &str, block: &str, repeats: usize) -> String {
        let mut s = String::from(prefix);
        for _ in 0..repeats {
            s.push_str(block);
        }
        s
    }
    // (name, cost, level 0, level 1a, level 1b)
    let goldens = [
        (
            "deep48",
            4.554_918_873_380_588_4e-1,
            periodic("III232", "333232", 47),
            periodic("222", "I", 285),
            periodic("III232", "333232", 47),
        ),
        (
            "deep96",
            9.109_837_746_760_895e-1,
            periodic("III232", "333232", 95),
            periodic("222", "I", 573),
            periodic("III232", "333232", 95),
        ),
        (
            "gpt2_xl",
            9.586_460_244_450_378e-1,
            periodic("2", "333232", 48),
            periodic("", "I", 289),
            periodic("3222232", "333232", 47),
        ),
    ];
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    for (name, golden_cost, l0, l1a, l1b) in goldens {
        let net = zoo::by_name(name, 8).unwrap();
        let planned = Planner::builder(&net, &array)
            .levels(2)
            .build()
            .unwrap()
            .plan(Strategy::AccPar)
            .unwrap();
        assert_eq!(planned.plan().plan().type_string(), l0, "{name} level 0");
        let (a, b) = planned.plan().children().expect("two levels");
        assert_eq!(a.plan().type_string(), l1a, "{name} level 1a");
        assert_eq!(b.plan().type_string(), l1b, "{name} level 1b");
        let cost = planned.modeled_cost();
        assert!(
            (cost - golden_cost).abs() <= 1e-9 * golden_cost,
            "{name}: cost {cost:.17e} vs golden {golden_cost:.17e}"
        );
    }
}

#[test]
fn baseline_type_constraints() {
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    for name in ["lenet", "alexnet", "resnet18"] {
        let net = zoo::by_name(name, 32).expect("zoo network");
        let planner = Planner::builder(&net, &array).levels(2).build().unwrap();

        // DP: Type-I only, balanced everywhere.
        let dp = planner.plan(Strategy::DataParallel).unwrap();
        assert_eq!(dp.plan().count(PartitionType::TypeII), 0, "{name}");
        assert_eq!(dp.plan().count(PartitionType::TypeIII), 0, "{name}");

        // OWT and HyPar: never Type-III, always balanced.
        for strategy in [Strategy::Owt, Strategy::HyPar] {
            let planned = planner.plan(strategy).unwrap();
            assert_eq!(
                planned.plan().count(PartitionType::TypeIII),
                0,
                "{name} {strategy}"
            );
            for entry in planned.plan().plan().layers() {
                assert!(entry.ratio.is_balanced(), "{name} {strategy}");
            }
        }
    }
}

#[test]
fn owt_assigns_types_by_layer_kind() {
    let array = AcceleratorArray::homogeneous_tpu_v3(2);
    let net = zoo::vgg11(16).unwrap();
    let view = net.train_view().unwrap();
    let planned = Planner::builder(&net, &array)
        .levels(1).build().unwrap()
        .plan(Strategy::Owt)
        .unwrap();
    let mut layers: Vec<_> = view.layers().collect();
    layers.sort_by_key(|l| l.index());
    for (layer, entry) in layers.iter().zip(planned.plan().plan().layers()) {
        let expected = if layer.kind().is_conv() {
            PartitionType::TypeI
        } else {
            PartitionType::TypeII
        };
        assert_eq!(entry.ptype, expected, "{}", layer.name());
    }
}

#[test]
fn batch_size_scales_step_time_superlinearly_never_sublinearly() {
    // Doubling the batch at fixed hardware must not make a step faster.
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    for name in ["lenet", "alexnet"] {
        let small = zoo::by_name(name, 64).unwrap();
        let large = zoo::by_name(name, 128).unwrap();
        let cost = |net: &Network| {
            Planner::builder(net, &array)
                .levels(2).build().unwrap()
                .plan(Strategy::AccPar)
                .unwrap()
                .modeled_cost()
        };
        assert!(cost(&large) >= cost(&small), "{name}");
    }
}

#[test]
fn deeper_networks_cost_more_under_dp() {
    let array = AcceleratorArray::homogeneous_tpu_v3(4);
    let cost = |name: &str| {
        let net = zoo::by_name(name, 64).unwrap();
        Planner::builder(&net, &array).build().unwrap()
            .plan(Strategy::DataParallel)
            .unwrap()
            .modeled_cost()
    };
    assert!(cost("vgg13") > cost("vgg11"));
    assert!(cost("vgg16") > cost("vgg13"));
    assert!(cost("vgg19") > cost("vgg16"));
    assert!(cost("resnet34") > cost("resnet18"));
    assert!(cost("resnet50") > cost("resnet34"));
}

/// FNV-1a over every plan-tree node's partition type and ratio bits, in
/// pre-order — a hash fixed by this file, so a golden cannot move with
/// the standard library's hasher.
fn plan_hash(plan: &PlanTree) -> u64 {
    fn walk(plan: &PlanTree, h: &mut u64) {
        for entry in plan.plan().layers() {
            let ptype: u8 = match entry.ptype {
                PartitionType::TypeI => 1,
                PartitionType::TypeII => 2,
                PartitionType::TypeIII => 3,
            };
            for byte in std::iter::once(ptype).chain(entry.ratio.value().to_bits().to_le_bytes()) {
                *h = (*h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        if let Some((left, right)) = plan.children() {
            walk(left, h);
            walk(right, h);
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    walk(plan, &mut h);
    h
}

/// Golden plans for the paper's evaluation keys: the nine CNNs at batch
/// 512 on hetero 128+128 (Fig. 5), 128 TPU-v3 boards (Fig. 6) and
/// hetero 4+4, each planned to single boards. Each key pins the whole
/// plan tree by [`plan_hash`] and its modeled cost to 1e-9 relative.
/// Regenerate by printing both under this exact config.
#[test]
fn paper_cnn_golden_plans() {
    // (network, [(hash, cost)] on hetero 128+128, 128×v3, hetero 4+4)
    let goldens: [(&str, [(u64, f64); 3]); 9] = [
        (
            "lenet",
            [
                (0x5871_c1de_86db_614b, 3.958164075625562e-5),
                (0x48da_3db6_321f_c5c9, 3.4835633326190476e-5),
                (0x64c9_3bcb_b413_591b, 2.3567650580018e-4),
            ],
        ),
        (
            "alexnet",
            [
                (0x5edb_6525_6f89_d491, 1.0467655462703538e-2),
                (0xade1_cf08_6c19_7e8f, 8.459261410707141e-3),
                (0xafa3_9ed2_b8a4_58a1, 3.445389231875223e-2),
            ],
        ),
        (
            "vgg11",
            [
                (0x2aa3_c097_498f_e3ee, 2.9353036070016495e-2),
                (0xdd81_50b5_2f2d_5993, 1.94246923515e-2),
                (0x17c9_3963_adf8_5d22, 7.080799745693639e-2),
            ],
        ),
        (
            "vgg13",
            [
                (0xe1a2_24d5_fe7f_92b5, 3.0236023593083496e-2),
                (0xa61e_9bf5_f0bf_127b, 2.00017535193e-2),
                (0xf7f9_a958_6637_f251, 7.620791819426617e-2),
            ],
        ),
        (
            "vgg16",
            [
                (0x6c29_6c0f_72b7_7e9e, 4.44115564212375e-2),
                (0x38db_bb4a_2fa7_2d3f, 2.846328960827142e-2),
                (0x85e8_10f6_94fe_cf96, 1.0051204818765903e-1),
            ],
        ),
        (
            "vgg19",
            [
                (0x5794_2d51_b90c_b903, 5.946273699939151e-2),
                (0x6647_f84a_8b40_7193, 3.7678489697242835e-2),
                (0xfdda_8b79_e29a_797b, 1.2481617818105188e-1),
            ],
        ),
        (
            "resnet18",
            [
                (0x693e_a08e_114b_d6da, 1.700305993968046e-2),
                (0x3979_c740_86a2_aadf, 1.2457351363207142e-2),
                (0x4f45_99d4_e83c_284e, 7.481087966222481e-2),
            ],
        ),
        (
            "resnet34",
            [
                (0x3450_eb8b_3be5_2ccc, 3.4933770747597244e-2),
                (0x348e_25a7_9bce_991f, 2.5766351742921426e-2),
                (0x425a_6347_ce47_1840, 1.410752881779002e-1),
            ],
        ),
        (
            "resnet50",
            [
                (0xc7e4_a4b5_b570_5394, 6.217909334276343e-2),
                (0x717f_17c1_7833_ebc8, 4.050539459195e-2),
                (0x1819_70ac_e9f7_a044, 2.674329007150294e-1),
            ],
        ),
    ];
    let arrays = [
        AcceleratorArray::heterogeneous_tpu(128, 128),
        AcceleratorArray::homogeneous_tpu_v3(128),
        AcceleratorArray::heterogeneous_tpu(4, 4),
    ];
    let mut misses = Vec::new();
    for (name, keys) in goldens {
        let net = zoo::by_name(name, 512).unwrap();
        for (array, (hash, cost)) in arrays.iter().zip(keys) {
            let planned = Planner::builder(&net, array)
                .build()
                .unwrap()
                .plan(Strategy::AccPar)
                .unwrap();
            let (got_hash, got_cost) = (plan_hash(planned.plan()), planned.modeled_cost());
            if got_hash != hash || (got_cost - cost).abs() > 1e-9 * cost {
                misses.push(format!(
                    "{name} on {} boards: hash 0x{got_hash:016x} cost {got_cost:e} \
                     vs golden 0x{hash:016x} {cost:e}",
                    array.len()
                ));
            }
        }
    }
    assert!(misses.is_empty(), "golden plans moved:\n{}", misses.join("\n"));
}
