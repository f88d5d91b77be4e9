//! Robustness battery for the crash-safe plan cache: corruption is
//! detected or harmless (never a wrong plan), a crash mid-write
//! recovers by quarantining the torn tail, degraded hardware demotes
//! hits to replans, and persistence I/O failure degrades to
//! memory-only serving — never a panic, never a startup failure. The
//! append-only journal replays to exactly the live cache, stays within
//! twice the live set, and heals a torn append before the next one.

use accpar::prelude::*;
use accpar_core::cache::{plan_key, POISON_TOLERANCE};
use accpar_core::{LoadReport, PlanCache, PlanKey, PlanRecord};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

mod common;

fn setup() -> (Network, AcceleratorArray) {
    let network = zoo::lenet(128).expect("zoo network");
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    (network, array)
}

/// A fresh per-test cache directory (std-only; no tempdir crate).
fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "accpar-cache-test-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn serve_with_cache(
    network: &Network,
    array: &AcceleratorArray,
    cache: &Arc<PlanCache>,
) -> PlannedNetwork {
    let config = ServeConfig {
        cache: Some(Arc::clone(cache)),
        ..ServeConfig::default()
    };
    let requests = vec![PlanRequest::new(network, array).levels(2)];
    plan_many(&requests, &config)
        .remove(0)
        .expect("request plans")
        .into_planned()
}

#[test]
fn cache_hit_serves_the_bit_identical_plan() {
    let (network, array) = setup();
    let dir = cache_dir("hit");
    let cache = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
    let cold = serve_with_cache(&network, &array, &cache);
    assert_eq!(cache.stats().misses, 1);
    let warm = serve_with_cache(&network, &array, &cache);
    assert_eq!(cache.stats().hits, 1, "{:?}", cache.stats());
    assert_eq!(cold.plan(), warm.plan());
    assert_eq!(
        cold.modeled_cost().to_bits(),
        warm.modeled_cost().to_bits(),
        "validated hits must serve bit-identical costs"
    );
    // And the cold path itself matches a cache-free planner bit for bit.
    let uncached = Planner::builder(&network, &array)
        .levels(2)
        .build()
        .unwrap()
        .plan(Strategy::AccPar)
        .unwrap();
    assert_eq!(uncached.plan(), cold.plan());
    assert_eq!(uncached.modeled_cost().to_bits(), cold.modeled_cost().to_bits());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cache_survives_restart_and_serves_from_disk() {
    let (network, array) = setup();
    let dir = cache_dir("restart");
    {
        let cache = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
        serve_with_cache(&network, &array, &cache);
        assert_eq!(cache.len(), 1);
    }
    let reborn = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
    assert_eq!(reborn.load_report().loaded, 1);
    serve_with_cache(&network, &array, &reborn);
    assert_eq!(reborn.stats().hits, 1, "warm load must serve the hit");
    let _ = fs::remove_dir_all(&dir);
}

/// Property test: ANY single bit-flip in the persisted file is either
/// detected (the record is quarantined and re-planned) or harmless —
/// the served plan never differs from a fresh plan. Deterministic
/// seeded sampling of flip positions keeps the runtime bounded.
#[test]
fn any_bit_flip_is_detected_or_harmless() {
    let (network, array) = setup();
    bit_flips_are_detected_or_harmless(&network, &array, "bitflip");
    // A homogeneous array plans its evenly split halves as twins, which
    // the journal writes once each (`"twin":{…}`).
    let homogeneous = AcceleratorArray::homogeneous_tpu_v3(4);
    bit_flips_are_detected_or_harmless(&network, &homogeneous, "bitflip-twin");
}

fn bit_flips_are_detected_or_harmless(network: &Network, array: &AcceleratorArray, tag: &str) {
    let dir = cache_dir(tag);
    let cache = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
    let truth = serve_with_cache(network, array, &cache);
    drop(cache);
    let file = dir.join("plans.jsonl");
    let pristine = fs::read(&file).expect("cache file exists");
    if tag.ends_with("twin") {
        assert!(truth.plan().is_twin());
        assert!(String::from_utf8_lossy(&pristine).contains("\"twin\":"));
    }

    let mut gen = common::Gen(0x5eed);
    for _ in 0..200 {
        let bit = gen.range(0, pristine.len() * 8);
        let mut bytes = pristine.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        fs::write(&file, &bytes).unwrap();
        let _ = fs::remove_file(dir.join("plans.jsonl.quarantine"));

        let cache = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
        // A flipped byte costs at most its line, never the file: the
        // reopened cache stays persistent and absorbed no I/O error.
        assert!(cache.persistent(), "bit {bit}: cache degraded to memory-only");
        assert_eq!(cache.stats().io_errors, 0, "bit {bit}: I/O error on open");
        let served = serve_with_cache(network, array, &cache);
        assert_eq!(
            served.plan(),
            truth.plan(),
            "bit {bit}: corrupted cache served a different plan"
        );
        assert_eq!(
            served.plan().is_twin(),
            truth.plan().is_twin(),
            "bit {bit}: corrupted cache served a different tree shape"
        );
        assert_eq!(
            served.modeled_cost().to_bits(),
            truth.modeled_cost().to_bits(),
            "bit {bit}: corrupted cache served a different cost"
        );
        // Detected corruption must leave a postmortem trail.
        if cache.load_report().quarantined > 0 {
            assert!(
                dir.join("plans.jsonl.quarantine").exists(),
                "bit {bit}: quarantined line missing from sidecar"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_write_truncation_recovers_with_quarantine() {
    let (network, array) = setup();
    let alexnet = zoo::alexnet(128).unwrap();
    let dir = cache_dir("truncate");
    {
        let cache = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
        serve_with_cache(&network, &array, &cache);
        serve_with_cache(&alexnet, &array, &cache);
        assert_eq!(cache.len(), 2);
    }
    let file = dir.join("plans.jsonl");
    let text = fs::read_to_string(&file).unwrap();
    // Simulate a crash mid-write: the tail record loses its second half
    // (including the newline).
    let keep = text.len() - text.lines().last().unwrap().len() / 2 - 1;
    fs::write(&file, &text.as_bytes()[..keep]).unwrap();

    let cache = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
    let report = cache.load_report();
    assert_eq!(
        (report.loaded, report.quarantined),
        (1, 1),
        "one record survives, the torn tail is quarantined"
    );
    assert!(dir.join("plans.jsonl.quarantine").exists());
    // Re-planning the lost request is bit-identical to an uncached run.
    let served = serve_with_cache(&alexnet, &array, &cache);
    let fresh = Planner::builder(&alexnet, &array)
        .levels(2)
        .build()
        .unwrap()
        .plan(Strategy::AccPar)
        .unwrap();
    assert_eq!(served.plan(), fresh.plan());
    assert_eq!(served.modeled_cost().to_bits(), fresh.modeled_cost().to_bits());
    // The rewrite healed the file: a third open sees only clean records.
    let healed = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
    assert_eq!(healed.load_report().quarantined, 0);
    assert_eq!(healed.load_report().loaded, 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn degraded_array_demotes_the_hit_to_a_never_worse_replan() {
    let (network, array) = setup();
    let dir = cache_dir("demote");
    let cache = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
    let healthy = serve_with_cache(&network, &array, &cache);

    let faults = FaultModel::new()
        .slow_leaf(0, 0.5)
        .unwrap()
        .degrade_cut(1, 0.25)
        .unwrap();
    let config = ServeConfig {
        cache: Some(Arc::clone(&cache)),
        ..ServeConfig::default()
    };
    let requests = vec![PlanRequest::new(&network, &array).levels(2).faults(&faults)];
    let degraded = plan_many(&requests, &config)
        .remove(0)
        .expect("faulted request plans")
        .into_planned();

    assert_eq!(cache.stats().demotions, 1, "{:?}", cache.stats());
    // Never-worse: the demoted plan on degraded hardware is at most the
    // stale healthy plan's degraded step time.
    let view = network.train_view().unwrap();
    let tree = GroupTree::bisect(&array, 2).unwrap();
    let stale = Simulator::new(SimConfig::cost_model_aligned())
        .simulate(&view, healthy.plan(), &tree, Some(&faults))
        .unwrap();
    assert!(
        degraded.modeled_cost() <= stale.total_secs * (1.0 + 1e-9),
        "demoted plan {} must not be worse than the stale plan {}",
        degraded.modeled_cost(),
        stale.total_secs
    );
    // The healthy record stays cached for healthy requests.
    serve_with_cache(&network, &array, &cache);
    assert!(cache.stats().hits >= 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_record_is_evicted_and_replanned() {
    let (network, array) = setup();
    let dir = cache_dir("poison");
    let cache = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
    let truth = serve_with_cache(&network, &array, &cache);

    // Semantic corruption with a valid checksum: re-admit the record
    // with a cost the simulator cannot reproduce. The per-record
    // checksum passes (the record is honestly persisted), so only the
    // BSP simulation cross-check can catch it.
    let stored: PlanRecord = {
        let records = cache.records();
        assert_eq!(records.len(), 1);
        records.into_iter().next().unwrap()
    };
    let mut poisoned = stored.clone();
    poisoned.cost = stored.cost * 2.0 + 1.0;
    cache.insert(poisoned);
    drop(cache);
    let key = stored.key;

    let reopened = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
    assert!(reopened.peek(&key).is_some(), "poisoned record persisted");
    let served = serve_with_cache(&network, &array, &reopened);
    let stats = reopened.stats();
    assert_eq!(stats.poisoned, 1, "{stats:?}");
    assert_eq!(served.plan(), truth.plan(), "poisoning must not change the served plan");
    assert_eq!(served.modeled_cost().to_bits(), truth.modeled_cost().to_bits());
    // The poisoned record was evicted and replaced by the fresh plan.
    let healed = reopened.peek(&key).expect("re-admitted after replan");
    assert!((healed.cost - truth.modeled_cost()).abs() <= POISON_TOLERANCE);
    let _ = fs::remove_dir_all(&dir);
}

/// Cross-path round trip: the fingerprint's structure lane hashes the
/// *canonical class multiset* of the view — never the traversal the
/// search will use — so a record written by the uncollapsed planner
/// validates and hits from the collapsed planner, and vice versa. A
/// repeated-block transformer maximizes the difference between the two
/// paths' internal traversals.
#[test]
fn cache_entries_round_trip_across_collapse_paths() {
    let network = zoo::bert_base(4, 32).expect("zoo network");
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    let dir = cache_dir("crosspath");
    for (writer_iso, reader_iso) in [(false, true), (true, false)] {
        let _ = fs::remove_dir_all(&dir);
        let cache = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
        let plan_with = |iso: bool| {
            Planner::builder(&network, &array)
                .levels(2)
                .iso(iso)
                .plan_cache(Arc::clone(&cache))
                .build()
                .expect("planner builds")
                .plan_cached(Strategy::AccPar)
                .expect("network plans")
        };
        let (cold, cold_outcome) = plan_with(writer_iso);
        assert_eq!(cold_outcome, CacheOutcome::Miss);
        let (warm, warm_outcome) = plan_with(reader_iso);
        assert_eq!(
            warm_outcome,
            CacheOutcome::Hit,
            "record written with iso={writer_iso} must hit from iso={reader_iso}"
        );
        assert_eq!(cold.planned().plan(), warm.planned().plan());
        assert_eq!(
            cold.planned().modeled_cost().to_bits(),
            warm.planned().modeled_cost().to_bits(),
            "the cross-path hit must serve a bit-identical cost"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn io_failure_degrades_to_memory_only_serving() {
    let (network, array) = setup();
    // /proc is not writable: open degrades instead of panicking.
    let cache = Arc::new(PlanCache::open(
        std::path::Path::new("/proc/accpar-no-such-dir/cache"),
        16,
        Obs::off(),
    ));
    assert!(!cache.persistent());
    let first = serve_with_cache(&network, &array, &cache);
    let second = serve_with_cache(&network, &array, &cache);
    assert_eq!(cache.stats().hits, 1, "memory-only serving still caches");
    assert!(cache.stats().io_errors >= 1);
    assert_eq!(first.plan(), second.plan());
}

// --- the append-only journal -------------------------------------------

/// `n` distinct keys, spread over the shards: one request fingerprinted
/// at hierarchy depths `1..=n`, a value the key hashes.
fn keys(n: usize) -> Vec<PlanKey> {
    let (network, array) = setup();
    let view = network.train_view().expect("lenet lowers");
    (1..=n)
        .map(|levels| {
            plan_key(
                &view,
                &array,
                Strategy::AccPar,
                levels,
                &CostConfig::default(),
                &RatioSolver::default(),
                &SimConfig::cost_model_aligned(),
                &Budget::unlimited(),
            )
        })
        .collect()
}

/// A synthetic record for `key` whose cost and ratios vary with `salt`.
fn record(key: PlanKey, salt: usize) -> PlanRecord {
    let ratio = Ratio::new(0.25 + (salt % 97) as f64 / 200.0).expect("ratio in (0, 1]");
    PlanRecord {
        key,
        strategy: Strategy::AccPar,
        levels: 2,
        cost: 1e-3 * (1.0 + salt as f64 / 7.0),
        plan: PlanTree::uniform(&[
            NetworkPlan::uniform(4, LayerPlan::new(PartitionType::TypeII, ratio)),
            NetworkPlan::uniform(4, LayerPlan::new(PartitionType::TypeIII, ratio)),
        ]),
    }
}

/// Asserts two record sets are equal, costs bit for bit.
fn assert_same_records(got: Vec<PlanRecord>, want: Vec<PlanRecord>) {
    let sorted = |mut records: Vec<PlanRecord>| {
        records.sort_by_key(|r| r.key.to_hex());
        records
    };
    let (got, want) = (sorted(got), sorted(want));
    assert_eq!(got, want);
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.cost.to_bits(), w.cost.to_bits(), "cost of {}", g.key);
    }
}

/// Journal lines after the header.
fn journal_lines(dir: &std::path::Path) -> Vec<String> {
    let text = fs::read_to_string(dir.join("plans.jsonl")).expect("journal exists");
    text.lines().skip(1).map(str::to_owned).collect()
}

#[test]
fn poison_eviction_then_reinsert_replays_to_the_new_record() {
    let dir = cache_dir("journal-poison");
    let k = keys(2);
    let cache = PlanCache::open(&dir, 64, Obs::off());
    cache.insert(record(k[0], 1));
    cache.insert(record(k[1], 2));
    assert!(cache.evict(&k[0]));
    // The tombstone alone already removes A from a replay.
    let side = cache_dir("journal-poison-side");
    fs::create_dir_all(&side).unwrap();
    fs::copy(dir.join("plans.jsonl"), side.join("plans.jsonl")).unwrap();
    assert_same_records(
        PlanCache::open(&side, 64, Obs::off()).records(),
        vec![record(k[1], 2)],
    );
    let _ = fs::remove_dir_all(&side);
    cache.insert(record(k[0], 3));
    drop(cache);
    let reopened = PlanCache::open(&dir, 64, Obs::off());
    assert_eq!(reopened.load_report(), LoadReport { loaded: 2, quarantined: 0 });
    assert_same_records(reopened.records(), vec![record(k[1], 2), record(k[0], 3)]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn lru_evicted_keys_stay_gone_after_a_reopen() {
    let dir = cache_dir("journal-lru");
    let k = keys(64);
    // One slot per shard: most inserts evict.
    let cache = PlanCache::open(&dir, 8, Obs::off());
    let mut inserted = 0;
    for (i, key) in k.iter().enumerate() {
        cache.insert(record(*key, i));
        inserted += 1;
        // Stop where the journal still holds tombstones, so the reopen
        // has to replay them rather than read a fresh compaction.
        if i >= 16 && journal_lines(&dir).iter().any(|l| l.starts_with("{\"evict\":")) {
            break;
        }
    }
    assert!(
        journal_lines(&dir).iter().any(|l| l.starts_with("{\"evict\":")),
        "the reopen must replay tombstones"
    );
    let evicted: Vec<PlanKey> = k[..inserted]
        .iter()
        .copied()
        .filter(|key| cache.peek(key).is_none())
        .collect();
    assert!(!evicted.is_empty());
    let live = cache.records();
    drop(cache);
    let reopened = PlanCache::open(&dir, 8, Obs::off());
    assert_eq!(reopened.load_report().quarantined, 0);
    for key in &evicted {
        assert!(reopened.peek(key).is_none(), "evicted {key} came back");
    }
    assert_same_records(reopened.records(), live);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_append_is_quarantined_and_the_next_append_lands_on_a_clean_file() {
    let dir = cache_dir("journal-torn");
    let k = keys(3);
    let cache = PlanCache::open(&dir, 64, Obs::off());
    for (i, key) in k.iter().enumerate() {
        cache.insert(record(*key, i));
    }
    drop(cache);
    let file = dir.join("plans.jsonl");
    let text = fs::read_to_string(&file).unwrap();
    // A crash mid-append: the last line loses its second half,
    // newline included.
    let keep = text.len() - text.lines().last().unwrap().len() / 2 - 1;
    fs::write(&file, &text.as_bytes()[..keep]).unwrap();

    let reopened = PlanCache::open(&dir, 64, Obs::off());
    assert_eq!(reopened.load_report(), LoadReport { loaded: 2, quarantined: 1 });
    // The open compacted: the header and two whole record lines.
    let healed = fs::read_to_string(&file).unwrap();
    assert!(healed.ends_with('\n'));
    assert_eq!(healed.lines().count(), 3);
    reopened.insert(record(k[2], 2));
    let appended = fs::read_to_string(&file).unwrap();
    assert!(appended.starts_with(&healed), "the insert appends to the clean file");
    assert_eq!(appended.lines().count(), 4);
    drop(reopened);

    let third = PlanCache::open(&dir, 64, Obs::off());
    assert_eq!(third.load_report(), LoadReport { loaded: 3, quarantined: 0 });
    assert_same_records(
        third.records(),
        k.iter().enumerate().map(|(i, key)| record(*key, i)).collect(),
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn journal_stays_within_twice_the_live_set_and_generation_never_falls() {
    let dir = cache_dir("journal-bound");
    let cap = 16;
    let k = keys(10 * cap);
    let mut cache = PlanCache::open(&dir, cap, Obs::off());
    let mut generation = cache.generation();
    for (i, key) in k.iter().enumerate() {
        let evictions = cache.stats().evictions;
        cache.insert(record(*key, i));
        // One write: the record line plus a tombstone per eviction.
        let write = 1 + (cache.stats().evictions - evictions) as usize;
        let lines = journal_lines(&dir).len();
        assert!(
            lines <= 2 * cache.len() + write,
            "insert {i}: {lines} lines for {} live records",
            cache.len()
        );
        assert!(cache.generation() > generation, "insert {i}: generation did not rise");
        generation = cache.generation();
        if i % cap == cap - 1 {
            drop(cache);
            cache = PlanCache::open(&dir, cap, Obs::off());
            assert!(cache.generation() >= generation, "reopen after insert {i}: generation fell");
            generation = cache.generation();
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_leave_a_journal_that_replays_to_the_live_cache() {
    let dir = cache_dir("journal-threads");
    let k = keys(48);
    // Two slots per shard, so every thread's inserts evict the others'.
    let cache = Arc::new(PlanCache::open(&dir, 16, Obs::off()));
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for t in 0..4 {
            let (cache, k, start) = (Arc::clone(&cache), &k, &start);
            s.spawn(move || {
                start.wait();
                // The threads share the keys, so one thread's insert
                // races another's eviction of the same key.
                for i in 0..400 {
                    let key = k[(7 * i + 13 * t) % k.len()];
                    cache.insert(record(key, 1000 * t + i));
                    let _ = cache.lookup(&k[(5 * i + t) % k.len()]);
                    if i % 2 == 1 {
                        cache.evict(&k[(11 * i + 3 * t) % k.len()]);
                    }
                }
            });
        }
    });
    let live = cache.records();
    assert!(!live.is_empty());
    drop(cache);
    let reopened = PlanCache::open(&dir, 16, Obs::off());
    assert_eq!(reopened.load_report().quarantined, 0);
    assert_same_records(reopened.records(), live);
    let _ = fs::remove_dir_all(&dir);
}
