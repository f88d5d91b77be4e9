//! Tracked performance baseline for the planning engine.
//!
//! Times zoo-wide hierarchical planning (all twelve evaluation models,
//! CNNs and transformers)
//! under the serial cache-free engine and the parallel memoized one —
//! both from a cold cache (planning the zoo exactly once) and in steady
//! state (one persistent [`SearchCache`] across sweeps, the engine as
//! deployed for `replan` and fault-sensitivity scans) — verifies all
//! configurations produce bit-identical plans, times a depth-3
//! hierarchy, both simulator backends and a DES-backed fault
//! sensitivity sweep (eight single-fault scenarios through one reused
//! [`DesArena`] — the `replan_with_des` leg), and writes the results to
//! `BENCH_planner.json` so future PRs have a trajectory to compare
//! against.
//!
//! ```sh
//! cargo run --release -p accpar-bench --bin perf_baseline -- \
//!     [--quick] [--out BENCH_planner.json] [--ceiling-ms 120000] \
//!     [--trace-json trace.jsonl]
//! ```
//!
//! `--quick` runs one repetition per measurement (CI smoke mode);
//! `--ceiling-ms` makes the process fail when zoo-wide planning under
//! the optimized engine exceeds the given wall-clock ceiling, and
//! `--des-ceiling-ms` does the same for the `sim_des/resnet18_h8` leg.
//! The process also fails if the optimized engine's plans are not
//! bit-identical to the serial engine's, or (outside `--quick`) if the
//! DES leg regresses below 10x over the pre-overhaul clone-heavy engine
//! (the `des_speedup` field).
//!
//! `--trace-json PATH` additionally runs one fully traced VGG-16 plan
//! plus one traced DES simulation (after all timing legs, so
//! instrumentation cannot skew them) and writes the JSON-lines trace —
//! `plan` / `plan.level` / `sim.step` spans, per-layer `plan.decision`
//! events, memo hit/miss counters, per-phase simulator timings and the
//! `des.*` vocabulary (`des.build_us` / `des.schedule_us` phase timers,
//! `des.sims` / `des.tasks` / `des.dep_edges` counters) — to `PATH`.
//! Validate it with the `trace_check` binary (`--expect-des`).
//!
//! `--partial-trace-json PATH` runs one VGG-16 plan under a node budget
//! sized to solve only the root level, so the trace carries the anytime
//! vocabulary (`plan.partial`, `plan.level_fallback`). Validate it with
//! `trace_check PATH --expect-partial`.
//!
//! `--cache-trace-json PATH` runs one VGG-16 plan twice through an
//! observed plan cache (a miss that admits the plan, then a validated
//! hit), so the trace carries the cache vocabulary (`cache.miss` /
//! `cache.hit` counters, the `cache.validate` span and its outcome
//! event). Validate it with `trace_check PATH --expect-cache-hit`.
//!
//! `--iso-trace-json PATH` runs one traced 48-block encoder-stack plan,
//! so the trace carries the isomorphism-collapse vocabulary (the
//! `plan.iso` span, `iso.classes` / `iso.stamped_rows` counters and the
//! `iso.collapse_ratio` gauge). Validate it with
//! `trace_check PATH --expect-iso`.
//!
//! `--health-trace-json PATH` runs one traced plan plus a supervised
//! replay of a short seeded health timeline, so the trace carries the
//! live-replanning vocabulary (`health.event` / `supervise.decision`
//! events, the `supervise.decide` span and the `supervise.*` metrics).
//! Validate it with `trace_check PATH --expect-health`.
//!
//! The `supervise` legs time the live-replanning supervisor. The
//! steady-state event→serving-decision latency (a within-tolerance
//! degrade lands on the hold rung: fold the event, simulate the
//! incumbent on the degraded tree, decide) is gated outside `--quick`
//! at <= 10% of a cold plan of the same network on the same array
//! (`supervise_reaction_pct`). The full replanning excursion (a forced
//! Degrade/Recover round trip through the supervisor's persistent warm
//! cache) is reported alongside, and the post-recovery serving plan
//! must be bit-identical to the healthy baseline.
//!
//! The `iso_depth` legs plan synthetic encoder stacks of growing depth
//! cold (caching off, so the structural collapse — not the memo —
//! carries the speedup) with isomorphism collapse on and off. The class
//! count is constant in depth, so collapsed planning stays near-flat
//! while the uncollapsed engine scales linearly; outside `--quick` the
//! 96-block stack is gated at >= 5x (`iso_speedup`), and collapsed
//! plans must stay bit-identical to uncollapsed ones at every depth.
//!
//! The `serve_cache` legs time the crash-safe plan cache as deployed:
//! one cold plan, the steady-state served-hit latency (all per-hit
//! admission validation included, gated at < 5% of a cold plan), and
//! the first-serve BSP cross-check broken out on its own.
//!
//! The anytime legs measure what the budget machinery costs when armed
//! but never tripped (`anytime_overhead_pct`, acceptance target < 2%
//! against the steady-state leg, both legs on one thread and timed
//! alternately) and the time-to-first-feasible-plan across a
//! node-budget sweep.

use accpar_bench::json::Json;
use accpar_core::{
    Budget, CacheOutcome, PlanCache, PlanOutcome, PlannedNetwork, Planner, SearchCache, Strategy,
    SuperviseConfig, Supervisor,
};
use accpar_dnn::{zoo, Network};
use accpar_hw::{AcceleratorArray, FaultModel, GroupTree, HealthEvent, HealthEventKind, HealthSchedule};
use accpar_obs::{JsonLines, Obs};
use accpar_runtime::Pool;
use accpar_sim::{simulate_des, simulate_des_in, DesArena, SimConfig, Simulator};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `sim_des/resnet18_h8` wall time recorded by the last
/// pre-overhaul run of this benchmark (clone-heavy graph builder,
/// quadratic dependency fan-in). The overhauled arena engine is gated
/// at >= 10x over this number.
const DES_PRE_OVERHAUL_MS: f64 = 104.636109;

/// One `BENCH_planner.json` entry.
struct Entry {
    name: String,
    wall_ms: f64,
    threads: usize,
    cache_hit_rate: f64,
}

/// Minimum wall time of `reps` runs, in milliseconds.
fn time_best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Plans every zoo network under AccPar with the given engine knobs,
/// sharing `cache` across the sweep: its level outcomes answer a sweep
/// that repeats, and its per-level row and block dedups share within
/// each level search.
fn plan_zoo(
    nets: &[Network],
    array: &AcceleratorArray,
    threads: usize,
    caching: bool,
    cache: &Arc<SearchCache>,
) -> Vec<PlannedNetwork> {
    let mut plans = Vec::with_capacity(nets.len());
    for net in nets {
        let planner = Planner::builder(net, array)
            .threads(threads)
            .caching(caching)
            .cache(Arc::clone(cache)).build().unwrap();
        plans.push(planner.plan(Strategy::AccPar).expect("zoo plans"));
    }
    plans
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut out = String::from("BENCH_planner.json");
    let mut ceiling_ms: Option<f64> = None;
    let mut des_ceiling_ms: Option<f64> = None;
    let mut trace_json: Option<String> = None;
    let mut partial_trace_json: Option<String> = None;
    let mut cache_trace_json: Option<String> = None;
    let mut iso_trace_json: Option<String> = None;
    let mut health_trace_json: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--trace-json" => trace_json = Some(args.next().expect("--trace-json needs a path")),
            "--partial-trace-json" => {
                partial_trace_json =
                    Some(args.next().expect("--partial-trace-json needs a path"));
            }
            "--cache-trace-json" => {
                cache_trace_json = Some(args.next().expect("--cache-trace-json needs a path"));
            }
            "--iso-trace-json" => {
                iso_trace_json = Some(args.next().expect("--iso-trace-json needs a path"));
            }
            "--health-trace-json" => {
                health_trace_json =
                    Some(args.next().expect("--health-trace-json needs a path"));
            }
            "--ceiling-ms" => {
                ceiling_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--ceiling-ms needs a number"),
                );
            }
            "--des-ceiling-ms" => {
                des_ceiling_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--des-ceiling-ms needs a number"),
                );
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let reps = if quick { 1 } else { 5 };
    let threads = Pool::from_env().threads().max(4);

    let batch = 256;
    let nets = zoo::evaluation_suite(batch).expect("zoo builds");
    let hetero = AcceleratorArray::heterogeneous_tpu(4, 4);
    let mut entries: Vec<Entry> = Vec::new();

    // Zoo-wide hierarchical planning, three engine configurations:
    //   serial — one thread, caching off (the pre-optimization path);
    //   cold   — threads + memoization, but a fresh cache per sweep
    //            (the cost of planning the zoo exactly once);
    //   steady — threads + one persistent cache across sweeps (the
    //            engine as deployed: `replan` sweeps, fault-sensitivity
    //            scans and repeated planning amortize the same tables).
    // Every leg is warmed before timing so measurement order is fair.
    println!("zoo-wide AccPar planning ({} nets, batch {batch}, 4+4 boards)", nets.len());
    let serial_plans = plan_zoo(&nets, &hetero, 1, false, &Arc::new(SearchCache::new()));
    let serial_ms = time_best_ms(reps, || {
        plan_zoo(&nets, &hetero, 1, false, &Arc::new(SearchCache::new()))
    });
    entries.push(Entry {
        name: "zoo_plan/serial".into(),
        wall_ms: serial_ms,
        threads: 1,
        cache_hit_rate: 0.0,
    });

    let cold_cache = Arc::new(SearchCache::new());
    let cold_plans = plan_zoo(&nets, &hetero, threads, true, &cold_cache);
    let cold_hit_rate = cold_cache.stats().hit_rate();
    let cold_ms = time_best_ms(reps, || {
        plan_zoo(&nets, &hetero, threads, true, &Arc::new(SearchCache::new()))
    });
    entries.push(Entry {
        name: "zoo_plan/parallel_cold".into(),
        wall_ms: cold_ms,
        threads,
        cache_hit_rate: cold_hit_rate,
    });

    let steady_cache = Arc::new(SearchCache::new());
    let steady_plans = plan_zoo(&nets, &hetero, threads, true, &steady_cache);
    let steady_ms =
        time_best_ms(reps, || plan_zoo(&nets, &hetero, threads, true, &steady_cache));
    let steady_hit_rate = steady_cache.stats().hit_rate();
    entries.push(Entry {
        name: "zoo_plan/parallel".into(),
        wall_ms: steady_ms,
        threads,
        cache_hit_rate: steady_hit_rate,
    });

    let same = |a: &[PlannedNetwork], b: &[PlannedNetwork]| {
        a.len() == b.len()
            && a.iter().zip(b).all(|(s, p)| {
                s.plan() == p.plan() && s.modeled_cost().to_bits() == p.modeled_cost().to_bits()
            })
    };
    let identical = same(&serial_plans, &cold_plans) && same(&serial_plans, &steady_plans);
    let speedup = serial_ms / steady_ms;
    let cold_speedup = serial_ms / cold_ms;
    println!("  serial        {serial_ms:9.3} ms");
    println!(
        "  memoized cold {cold_ms:9.3} ms  ({threads} threads, {cold_speedup:.2}x, hit rate {:.1}%)",
        cold_hit_rate * 100.0
    );
    println!(
        "  memoized      {steady_ms:9.3} ms  ({threads} threads, {speedup:.2}x, hit rate {:.1}%)",
        steady_hit_rate * 100.0
    );
    println!("  bit-identical: {identical}");

    // The transformer slice of the zoo on its own: attention lowers to
    // q|k|v blocks plus a stage-carrying o projection, so this leg
    // tracks the multi-path search and the attention cost terms without
    // the CNNs diluting the signal.
    let transformers: Vec<Network> = ["bert_base", "gpt2_small", "vit_b16"]
        .iter()
        .map(|name| zoo::by_name(name, batch).expect("transformer builds"))
        .collect();
    let tf_cache = Arc::new(SearchCache::new());
    plan_zoo(&transformers, &hetero, threads, true, &tf_cache);
    let tf_ms = time_best_ms(reps, || {
        plan_zoo(&transformers, &hetero, threads, true, &Arc::new(SearchCache::new()))
    });
    entries.push(Entry {
        name: "zoo_plan/transformer".into(),
        wall_ms: tf_ms,
        threads,
        cache_hit_rate: tf_cache.stats().hit_rate(),
    });
    println!(
        "transformer slice (bert/gpt2/vit): {tf_ms:.3} ms ({threads} threads, hit rate {:.1}%)",
        tf_cache.stats().hit_rate() * 100.0
    );

    // Depth-3 hierarchy on a homogeneous array: the level memo resolves
    // entire symmetric subtrees.
    let hom = AcceleratorArray::homogeneous_tpu_v3(8);
    let vgg = zoo::vgg16(batch).expect("vgg16 builds");
    let depth3 = |threads: usize, caching: bool| {
        Planner::builder(&vgg, &hom)
            .levels(3)
            .threads(threads)
            .caching(caching).build().unwrap()
            .plan(Strategy::AccPar)
            .expect("depth-3 plan")
    };
    let d3_ms = time_best_ms(reps, || depth3(threads, true));
    let d3_planner = Planner::builder(&vgg, &hom)
        .levels(3)
        .threads(threads)
        .caching(true).build().unwrap();
    d3_planner.plan(Strategy::AccPar).expect("depth-3 plan");
    let d3_stats = d3_planner.cache_stats();
    entries.push(Entry {
        name: "hierarchy_depth3/vgg16_hom8".into(),
        wall_ms: d3_ms,
        threads,
        cache_hit_rate: d3_stats.hit_rate(),
    });
    println!(
        "depth-3 hierarchy (vgg16, 8 boards): {d3_ms:.3} ms, hit rate {:.1}%",
        d3_stats.hit_rate() * 100.0
    );

    // Anytime planning: an armed-but-never-tripped budget must be
    // invisible — same bits, and within 2% of the unbudgeted wall time
    // on the steady-state VGG-16 leg (budget charges are per DP layer
    // row, and deadline clock reads are strided). A limited budget
    // recurses into sibling subtrees serially, so both legs plan on one
    // thread: the ratio then compares one code path with and without
    // the budget armed.
    let anytime_cache = Arc::new(SearchCache::new());
    let anytime_planner = Planner::builder(&vgg, &hetero)
        .threads(1)
        .cache(Arc::clone(&anytime_cache))
        .build()
        .unwrap();
    let armed_planner = Planner::builder(&vgg, &hetero)
        .threads(1)
        .cache(Arc::clone(&anytime_cache))
        .budget(
            Budget::unlimited()
                .deadline(Duration::from_secs(3600))
                .max_nodes(u64::MAX / 2),
        )
        .build()
        .unwrap();
    let unbudgeted_plan = anytime_planner.plan(Strategy::AccPar).expect("steady plan");
    let armed_outcome = armed_planner
        .plan_outcome(Strategy::AccPar)
        .expect("armed plan");
    // The legs alternate run by run, so drift in machine load reaches
    // both alike.
    let (mut unbudgeted_ms, mut armed_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        unbudgeted_ms = unbudgeted_ms.min(time_best_ms(1, || {
            anytime_planner.plan(Strategy::AccPar).expect("steady plan")
        }));
        armed_ms = armed_ms.min(time_best_ms(1, || {
            armed_planner
                .plan_outcome(Strategy::AccPar)
                .expect("armed plan")
        }));
    }
    let armed_identical = armed_outcome.is_complete()
        && armed_outcome.planned().plan() == unbudgeted_plan.plan()
        && armed_outcome.planned().modeled_cost().to_bits() == unbudgeted_plan.modeled_cost().to_bits();
    let anytime_overhead_pct = (armed_ms - unbudgeted_ms) / unbudgeted_ms * 100.0;
    entries.push(Entry {
        name: "anytime/vgg16_steady_unbudgeted".into(),
        wall_ms: unbudgeted_ms,
        threads: 1,
        cache_hit_rate: anytime_cache.stats().hit_rate(),
    });
    entries.push(Entry {
        name: "anytime/vgg16_steady_armed".into(),
        wall_ms: armed_ms,
        threads: 1,
        cache_hit_rate: anytime_cache.stats().hit_rate(),
    });
    println!(
        "anytime budget overhead (vgg16 steady): unbudgeted {unbudgeted_ms:.3} ms, armed {armed_ms:.3} ms ({anytime_overhead_pct:+.2}%), bit-identical: {armed_identical}"
    );

    // Time-to-first-feasible-plan across a node-budget sweep: even a
    // zero budget returns a feasible (data-parallel) plan immediately;
    // larger budgets buy completeness.
    let vgg_rows = vgg.train_view().expect("train view").weighted_len() as u64;
    println!("time-to-first-feasible-plan across node budgets (vgg16, cold cache):");
    for (label, nodes) in [
        ("0", 0),
        ("1x", vgg_rows),
        ("4x", 4 * vgg_rows),
        ("max", u64::MAX / 2),
    ] {
        let mut completeness = 0.0;
        let ttfp_ms = time_best_ms(reps, || {
            let outcome = Planner::builder(&vgg, &hetero)
                .threads(threads)
                .caching(false)
                .budget(Budget::unlimited().max_nodes(nodes))
                .build()
                .unwrap()
                .plan_outcome(Strategy::AccPar)
                .expect("anytime plan");
            completeness = outcome.completeness();
            outcome
        });
        entries.push(Entry {
            name: format!("anytime_ttfp/nodes_{label}"),
            wall_ms: ttfp_ms,
            threads,
            cache_hit_rate: 0.0,
        });
        println!("  nodes={label:<4} {ttfp_ms:9.3} ms  completeness {:.0}%", completeness * 100.0);
    }

    // Simulator throughput, both backends, on the evaluation-scale
    // array (bit-exact replay of the planner's objective).
    let big = AcceleratorArray::heterogeneous_tpu(128, 128);
    let big_tree = GroupTree::bisect(&big, 8).expect("bisect");
    let resnet = zoo::resnet18(batch).expect("resnet18 builds");
    let view = resnet.train_view().expect("train view");
    let plan = accpar_core::baselines::data_parallel_plan(&view, 8);
    let config = SimConfig::default();
    let bsp_ms = time_best_ms(reps, || {
        Simulator::new(config)
            .simulate(&view, &plan, &big_tree, None)
            .expect("bsp sim")
    });
    entries.push(Entry {
        name: "sim_bsp/resnet18_h8".into(),
        wall_ms: bsp_ms,
        threads: 1,
        cache_hit_rate: 0.0,
    });
    let des_ms = time_best_ms(reps, || {
        simulate_des(&config, &view, &plan, &big_tree, None).expect("des sim")
    });
    entries.push(Entry {
        name: "sim_des/resnet18_h8".into(),
        wall_ms: des_ms,
        threads: 1,
        cache_hit_rate: 0.0,
    });
    let des_speedup = DES_PRE_OVERHAUL_MS / des_ms;
    println!(
        "simulator throughput (resnet18, 256 boards): bsp {bsp_ms:.3} ms, des {des_ms:.3} ms ({des_speedup:.1}x over pre-overhaul {DES_PRE_OVERHAUL_MS:.1} ms)"
    );

    // DES-backed fault-sensitivity sweep — the replan loop's inner
    // measurement as deployed: eight single-fault scenarios (degraded
    // leaves and degraded cuts) replayed through one reusable arena, so
    // only the first simulation of the sweep pays any allocation.
    let fault_scenarios: Vec<FaultModel> = (0..4)
        .map(|i| {
            FaultModel::with_seed(i as u64)
                .slow_leaf(i, 0.5)
                .expect("leaf fault")
        })
        .chain((0..4).map(|i| {
            FaultModel::with_seed(16 + i as u64)
                .degrade_cut(i, 0.25)
                .expect("cut fault")
        }))
        .collect();
    let mut des_arena = DesArena::new();
    let replan_des_ms = time_best_ms(reps, || {
        fault_scenarios
            .iter()
            .map(|faults| {
                simulate_des_in(&mut des_arena, &config, &view, &plan, &big_tree, Some(faults))
                    .expect("faulted des sim")
                    .total_secs
            })
            .fold(0.0_f64, f64::max)
    });
    entries.push(Entry {
        name: "replan_with_des/resnet18_fault_sweep".into(),
        wall_ms: replan_des_ms,
        threads: 1,
        cache_hit_rate: 0.0,
    });
    println!(
        "DES fault-sensitivity sweep ({} scenarios, shared arena): {replan_des_ms:.3} ms ({:.3} ms/scenario)",
        fault_scenarios.len(),
        replan_des_ms / fault_scenarios.len() as f64
    );

    // Crash-safe plan-cache serving: steady-state served-hit latency
    // against the cold plan it replaces. Every hit pays the admission
    // check (shape/topology on every serve; the BSP cross-check runs in
    // full on a record's first serve, then its verified report is
    // memoized in memory), so the steady-state hit carries the whole
    // per-hit validation overhead — gated at < 5% of a cold plan. The
    // first-serve cross-check (what a disk-loaded record pays once) is
    // broken out as its own leg.
    let cache_dir = std::env::temp_dir().join(format!(
        "accpar-bench-plan-cache-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let r50 = zoo::resnet50(batch).expect("resnet50 builds");
    let plan_cache = Arc::new(PlanCache::open(&cache_dir, 64, Obs::off()));
    let cached_planner = Planner::builder(&r50, &hetero)
        .threads(threads)
        .plan_cache(Arc::clone(&plan_cache))
        .build()
        .expect("resnet50 configures cleanly");
    let cold_plan_ms = time_best_ms(reps, || {
        Planner::builder(&r50, &hetero)
            .threads(threads)
            .build()
            .expect("resnet50 configures cleanly")
            .plan(Strategy::AccPar)
            .expect("cold plan")
    });
    let (first, first_outcome) = cached_planner
        .plan_cached(Strategy::AccPar)
        .expect("cache fill");
    assert_eq!(first_outcome, CacheOutcome::Miss, "fresh cache must miss");
    let cache_truth = first.into_planned();
    let hit_reps = if quick { 3 } else { 20 };
    let mut hit_identical = true;
    let hit_ms = time_best_ms(hit_reps, || {
        let (outcome, provenance) = cached_planner
            .plan_cached(Strategy::AccPar)
            .expect("served hit");
        let planned = outcome.into_planned();
        hit_identical &= provenance == CacheOutcome::Hit
            && planned.plan() == cache_truth.plan()
            && planned.modeled_cost().to_bits() == cache_truth.modeled_cost().to_bits();
        planned
    });
    // The first-serve cross-check: the BSP re-simulation a record loaded
    // from disk must pass before its report is memoized.
    let r50_view = r50.train_view().expect("train view");
    let r50_tree = GroupTree::bisect(&hetero, cache_truth.plan().depth()).expect("bisect");
    let validate_ms = time_best_ms(hit_reps, || {
        Simulator::new(SimConfig::cost_model_aligned())
            .simulate(&r50_view, cache_truth.plan(), &r50_tree, None)
            .expect("validation sim")
    });
    let cache_validation_overhead_pct = hit_ms / cold_plan_ms * 100.0;
    entries.push(Entry {
        name: "serve_cache/resnet50_cold_plan".into(),
        wall_ms: cold_plan_ms,
        threads,
        cache_hit_rate: 0.0,
    });
    entries.push(Entry {
        name: "serve_cache/resnet50_served_hit".into(),
        wall_ms: hit_ms,
        threads,
        cache_hit_rate: 1.0,
    });
    entries.push(Entry {
        name: "serve_cache/resnet50_first_serve_crosscheck".into(),
        wall_ms: validate_ms,
        threads: 1,
        cache_hit_rate: 1.0,
    });
    println!(
        "plan-cache serving (resnet50): cold {cold_plan_ms:.3} ms, served hit {:.1} us ({cache_validation_overhead_pct:.2}% of cold; first-serve cross-check {:.1} us), bit-identical: {hit_identical}",
        hit_ms * 1e3,
        validate_ms * 1e3
    );
    let _ = std::fs::remove_dir_all(&cache_dir);

    // Isomorphism-collapse depth scaling: synthetic encoder stacks of
    // growing depth, planned cold with the memo off on both sides (the
    // shared cost cache would otherwise dedupe identical rows itself and
    // mask the structural collapse). The stack has a constant number of
    // layer equivalence classes regardless of depth, so collapsed
    // planning time stays near-flat while the uncollapsed engine pays
    // one DP row per layer per level.
    let iso_depths: &[usize] = if quick { &[12, 24] } else { &[12, 24, 48, 96] };
    let iso_batch = 64;
    let mut iso_speedup = f64::NAN;
    let mut iso_identical = true;
    let iso_tree = GroupTree::bisect(&hetero, 3).expect("bisect");
    let iso_model = accpar_cost::CostModel::new(accpar_cost::CostConfig::default());
    let iso_config = |collapse: bool| accpar_core::SearchConfig {
        collapse,
        ..accpar_core::SearchConfig::accpar()
    };
    println!("iso depth scaling (encoder stacks, cold, caching off, {threads} threads):");
    for &blocks in iso_depths {
        let net = zoo::deep_stack(iso_batch, 128, blocks).expect("deep stack builds");
        // Bit-identity through the whole pipeline (plan + simulate)...
        let plan_deep = |iso: bool| {
            Planner::builder(&net, &hetero)
                .threads(threads)
                .caching(false)
                .iso(iso)
                .build()
                .expect("deep stack configures cleanly")
                .plan(Strategy::AccPar)
                .expect("deep stack plan")
        };
        let on = plan_deep(true);
        let off = plan_deep(false);
        iso_identical &= on.plan() == off.plan()
            && on.modeled_cost().to_bits() == off.modeled_cost().to_bits();
        // ...but the timed quantity is the search itself: the BSP
        // evaluation after planning is O(layers) on both sides and
        // would otherwise dilute the collapse into the noise.
        let deep_view = net.train_view().expect("train view");
        let search_deep = |collapse: bool| {
            accpar_core::hierarchy::plan_node_budgeted(
                &deep_view,
                iso_tree.root(),
                &iso_model,
                &iso_config(collapse),
                None,
                Pool::new(threads),
                None,
                &Obs::off(),
                None,
                &Budget::unlimited(),
            )
            .expect("deep stack search")
            .0
            .expect("the bisected tree has levels")
        };
        iso_identical &= search_deep(true) == search_deep(false);
        let on_ms = time_best_ms(reps, || search_deep(true));
        let off_ms = time_best_ms(reps, || search_deep(false));
        entries.push(Entry {
            name: format!("iso_depth/deep{blocks}_collapsed"),
            wall_ms: on_ms,
            threads,
            cache_hit_rate: 0.0,
        });
        entries.push(Entry {
            name: format!("iso_depth/deep{blocks}_uncollapsed"),
            wall_ms: off_ms,
            threads,
            cache_hit_rate: 0.0,
        });
        let ratio = off_ms / on_ms;
        if blocks == *iso_depths.last().expect("non-empty depth sweep") {
            iso_speedup = ratio;
        }
        println!(
            "  deep{blocks:<3} collapsed {on_ms:9.3} ms, uncollapsed {off_ms:9.3} ms ({ratio:.2}x)"
        );
    }
    println!("  bit-identical: {iso_identical}");

    // Live-replanning supervisor reaction. Two rungs are timed:
    //
    //   hold   — the steady-state event→serving-decision latency: a
    //            within-tolerance degrade arrives, the supervisor folds
    //            it, simulates the incumbent on the degraded tree and
    //            decides to hold. This is the common case under jitter
    //            and must stay a small fraction of planning from
    //            scratch — gated (outside --quick) at <= 10% of a cold
    //            plan of the same network on the same array.
    //   replan — the full excursion: a forced Degrade/Recover round
    //            trip, settled after every event so both decisions
    //            replan from the healthy baseline through the
    //            supervisor's memo (reported, not gated; the healthy
    //            levels stay pinned, while the degraded ones are dropped
    //            by the time the next Degrade searches, so each
    //            excursion searches the degraded levels again; the
    //            recovered plan must be bit-identical to the healthy
    //            baseline).
    let sup_cold_ms = time_best_ms(reps, || {
        Planner::builder(&r50, &hetero)
            .threads(threads)
            .build()
            .expect("resnet50 configures cleanly")
            .plan(Strategy::AccPar)
            .expect("cold plan")
    });
    let mut supervisor = Planner::builder(&r50, &hetero)
        .threads(threads)
        .build()
        .expect("resnet50 configures cleanly")
        .supervise(SuperviseConfig::default())
        .expect("supervisor builds");
    let mut sup_clock = 0.0_f64;
    let excursion = |sup: &mut Supervisor, clock: &mut f64| {
        for kind in [
            HealthEventKind::Degrade { leaf: 0, factor: 0.5 },
            HealthEventKind::Recover { leaf: 0 },
        ] {
            *clock += 1.0;
            sup.observe(HealthEvent { at: *clock, kind }).expect("health event observed");
            sup.settle().expect("supervised decision");
        }
    };
    excursion(&mut supervisor, &mut sup_clock); // warm the supervisor's cache
    let replan_ms =
        time_best_ms(reps, || excursion(&mut supervisor, &mut sup_clock)) / 2.0;
    // The hold rung: mild degrades (well inside the 1.25x tolerance
    // band) spaced past the debounce window, so every `observe` decides
    // the previous event without searching. The factor alternates so
    // consecutive events are distinct; set-semantics folding keeps the
    // fault set at one entry throughout.
    let mut held = 0usize;
    sup_clock += 1.0;
    supervisor
        .observe(HealthEvent {
            at: sup_clock,
            kind: HealthEventKind::Degrade { leaf: 0, factor: 0.97 },
        })
        .expect("health event observed");
    let hold_reps = if quick { 3 } else { 20 };
    let hold_ms = time_best_ms(hold_reps, || {
        sup_clock += 1.0;
        let factor = if (sup_clock as u64).is_multiple_of(2) { 0.97 } else { 0.96 };
        supervisor
            .observe(HealthEvent {
                at: sup_clock,
                kind: HealthEventKind::Degrade { leaf: 0, factor },
            })
            .expect("health event observed");
        held += 1;
    });
    assert!(
        supervisor
            .decisions()
            .iter()
            .rev()
            .take(held)
            .all(|d| d.action == accpar_core::SuperviseAction::Hold),
        "mild degrades must land on the hold rung"
    );
    // Restore the supervisor to clean health and check it re-promotes
    // the healthy baseline bit for bit.
    sup_clock += 1.0;
    supervisor
        .observe(HealthEvent { at: sup_clock, kind: HealthEventKind::Recover { leaf: 0 } })
        .expect("health event observed");
    supervisor.settle().expect("supervised decision");
    let supervise_recovered = supervisor.plan() == Some(supervisor.healthy_plan());
    let supervise_reaction_pct = hold_ms / sup_cold_ms * 100.0;
    entries.push(Entry {
        name: "supervise/resnet50_cold_plan".into(),
        wall_ms: sup_cold_ms,
        threads,
        cache_hit_rate: 0.0,
    });
    entries.push(Entry {
        name: "supervise/resnet50_hold_reaction".into(),
        wall_ms: hold_ms,
        threads,
        cache_hit_rate: 0.0,
    });
    entries.push(Entry {
        name: "supervise/resnet50_replan_excursion".into(),
        wall_ms: replan_ms,
        threads,
        cache_hit_rate: 0.0,
    });
    println!(
        "supervisor reaction (resnet50): cold plan {sup_cold_ms:.3} ms, hold {:.1} us ({supervise_reaction_pct:.2}% of cold), replan excursion {replan_ms:.3} ms, recovered to healthy plan: {supervise_recovered}",
        hold_ms * 1e3
    );

    let json = Json::obj(vec![
        ("bench", Json::str("planner")),
        ("quick", Json::Bool(quick)),
        ("batch", Json::from(batch)),
        ("zoo_speedup", Json::from(speedup)),
        ("zoo_speedup_cold", Json::from(cold_speedup)),
        ("bit_identical", Json::Bool(identical)),
        ("anytime_overhead_pct", Json::from(anytime_overhead_pct)),
        ("anytime_bit_identical", Json::Bool(armed_identical)),
        ("des_speedup", Json::from(des_speedup)),
        ("iso_speedup", Json::from(iso_speedup)),
        ("iso_bit_identical", Json::Bool(iso_identical)),
        ("supervise_reaction_pct", Json::from(supervise_reaction_pct)),
        ("supervise_recovered", Json::Bool(supervise_recovered)),
        ("serve_cache_hit_us", Json::from(hit_ms * 1e3)),
        (
            "cache_validation_overhead_pct",
            Json::from(cache_validation_overhead_pct),
        ),
        ("cache_hit_bit_identical", Json::Bool(hit_identical)),
        (
            "entries",
            Json::Arr(
                entries
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("name", Json::str(&e.name)),
                            ("wall_ms", Json::from(e.wall_ms)),
                            ("threads", Json::from(e.threads)),
                            ("cache_hit_rate", Json::from(e.cache_hit_rate)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&out, json.pretty() + "\n").expect("write BENCH json");
    println!("wrote {out}");

    // Optional fully traced VGG-16 plan + simulation, after every timing
    // leg so instrumentation cannot skew the numbers above. The global
    // obs additionally routes pool / cost-model / DES counters that are
    // recorded outside any one planner.
    if let Some(path) = &trace_json {
        let file = std::fs::File::create(path).expect("create trace file");
        let subscriber = Arc::new(JsonLines::new(std::io::BufWriter::new(file)));
        let obs = Obs::new(Arc::clone(&subscriber));
        accpar_obs::install_global(obs.clone());
        let traced = Planner::builder(&vgg, &hetero)
            .threads(threads)
            .obs(obs.clone())
            .build()
            .expect("vgg16 configures cleanly")
            .plan(Strategy::AccPar)
            .expect("traced plan");
        // One DES simulation under the installed global obs, so the
        // trace carries the `des.*` vocabulary for `--expect-des`.
        simulate_des(&config, &view, &plan, &big_tree, None).expect("traced des sim");
        obs.emit_metrics();
        subscriber.flush();
        println!(
            "wrote {path} (vgg16 on 4+4 boards, {} layers, modeled {:.3} ms)",
            traced.plan().plan().len(),
            traced.modeled_cost() * 1e3
        );
    }

    // A budget-stopped trace for `trace_check --expect-partial`: the
    // node budget covers exactly the root level, so the children fall
    // back and the trace carries `plan.partial` / `plan.level_fallback`.
    if let Some(path) = &partial_trace_json {
        let file = std::fs::File::create(path).expect("create partial trace file");
        let subscriber = Arc::new(JsonLines::new(std::io::BufWriter::new(file)));
        let obs = Obs::new(Arc::clone(&subscriber));
        let outcome = Planner::builder(&vgg, &hetero)
            .threads(threads)
            .obs(obs.clone())
            .budget(Budget::unlimited().max_nodes(vgg_rows))
            .build()
            .expect("vgg16 configures cleanly")
            .plan_outcome(Strategy::AccPar)
            .expect("anytime plan");
        obs.emit_metrics();
        subscriber.flush();
        let PlanOutcome::Partial(partial) = outcome else {
            eprintln!("FAIL: the root-only budget unexpectedly completed the search");
            return ExitCode::FAILURE;
        };
        println!(
            "wrote {path} (partial vgg16: {:.0}% solved, stop: {})",
            partial.completeness() * 100.0,
            partial.reason()
        );
    }

    // A traced cache miss + validated hit for `trace_check
    // --expect-cache-hit`: the trace carries `cache.miss` / `cache.hit`
    // counters and the `cache.validate` span with its outcome event.
    if let Some(path) = &cache_trace_json {
        let file = std::fs::File::create(path).expect("create cache trace file");
        let subscriber = Arc::new(JsonLines::new(std::io::BufWriter::new(file)));
        let obs = Obs::new(Arc::clone(&subscriber));
        let traced_cache = Arc::new(PlanCache::memory(64).with_obs(obs.clone()));
        let traced_planner = Planner::builder(&vgg, &hetero)
            .threads(threads)
            .obs(obs.clone())
            .plan_cache(Arc::clone(&traced_cache))
            .build()
            .expect("vgg16 configures cleanly");
        for expected in [CacheOutcome::Miss, CacheOutcome::Hit] {
            let (_, outcome) = traced_planner
                .plan_cached(Strategy::AccPar)
                .expect("traced cached plan");
            assert_eq!(outcome, expected, "traced run must miss then hit");
        }
        obs.emit_metrics();
        subscriber.flush();
        println!(
            "wrote {path} (vgg16 cache miss + validated hit, {} record cached)",
            traced_cache.len()
        );
    }

    // A traced collapsed plan for `trace_check --expect-iso`: a deep
    // encoder stack collapses hard, so the trace carries the `plan.iso`
    // span, the `iso.classes` / `iso.stamped_rows` counters and the
    // `iso.collapse_ratio` gauge.
    if let Some(path) = &iso_trace_json {
        let file = std::fs::File::create(path).expect("create iso trace file");
        let subscriber = Arc::new(JsonLines::new(std::io::BufWriter::new(file)));
        let obs = Obs::new(Arc::clone(&subscriber));
        let deep = zoo::deep_stack(iso_batch, 128, 48).expect("deep stack builds");
        let traced = Planner::builder(&deep, &hetero)
            .threads(threads)
            .obs(obs.clone())
            .build()
            .expect("deep stack configures cleanly")
            .plan(Strategy::AccPar)
            .expect("traced collapsed plan");
        obs.emit_metrics();
        subscriber.flush();
        println!(
            "wrote {path} (deep48 on 4+4 boards, {} layers, modeled {:.3} ms)",
            traced.plan().plan().len(),
            traced.modeled_cost() * 1e3
        );
    }

    // A traced supervised run for `trace_check --expect-health`: one
    // traced plan carries the base contract (plan spans, decisions, the
    // sim report), then a short seeded health timeline through the
    // supervisor adds the `health.event` / `supervise.decision` events,
    // the `supervise.decide` span and the `supervise.*` metrics (the
    // final settle always replans, so `supervise.replans` is present).
    if let Some(path) = &health_trace_json {
        let file = std::fs::File::create(path).expect("create health trace file");
        let subscriber = Arc::new(JsonLines::new(std::io::BufWriter::new(file)));
        let obs = Obs::new(Arc::clone(&subscriber));
        let traced_planner = Planner::builder(&vgg, &hetero)
            .threads(threads)
            .obs(obs.clone())
            .build()
            .expect("vgg16 configures cleanly");
        traced_planner.plan(Strategy::AccPar).expect("traced plan");
        let mut traced_sup = traced_planner
            .supervise(SuperviseConfig::default())
            .expect("supervisor builds");
        let schedule = HealthSchedule::random(
            11,
            traced_sup.leaf_count(),
            traced_sup.cut_count(),
            12,
        )
        .expect("schedule builds");
        let traced_report = traced_sup.run(&schedule).expect("supervised run");
        obs.emit_metrics();
        subscriber.flush();
        println!(
            "wrote {path} (vgg16 supervised through {} health events: {} decisions, {} replans)",
            traced_report.events,
            traced_report.decisions.len(),
            traced_report.replans
        );
    }

    if !identical {
        eprintln!("FAIL: optimized engine's plans are not bit-identical to serial");
        return ExitCode::FAILURE;
    }
    if !iso_identical {
        eprintln!("FAIL: collapsed plans are not bit-identical to uncollapsed plans");
        return ExitCode::FAILURE;
    }
    if !quick && iso_speedup < 5.0 {
        eprintln!(
            "FAIL: isomorphism collapse is only {iso_speedup:.2}x on the 96-block stack (target >= 5x)"
        );
        return ExitCode::FAILURE;
    }
    if !hit_identical {
        eprintln!("FAIL: a validated cache hit served a plan that differs from the cold plan");
        return ExitCode::FAILURE;
    }
    if !quick && cache_validation_overhead_pct > 5.0 {
        eprintln!(
            "FAIL: a steady-state served hit (admission validation included) costs {cache_validation_overhead_pct:.2}% of a cold plan, exceeding the 5% target"
        );
        return ExitCode::FAILURE;
    }
    if !armed_identical {
        eprintln!("FAIL: the armed-budget plan is not bit-identical to the unbudgeted plan");
        return ExitCode::FAILURE;
    }
    if !quick && anytime_overhead_pct > 2.0 {
        eprintln!(
            "FAIL: armed-budget overhead {anytime_overhead_pct:.2}% exceeds the 2% target"
        );
        return ExitCode::FAILURE;
    }
    if !supervise_recovered {
        eprintln!(
            "FAIL: the supervisor did not return to the healthy baseline plan after recovery"
        );
        return ExitCode::FAILURE;
    }
    if !quick && supervise_reaction_pct > 10.0 {
        eprintln!(
            "FAIL: the supervisor's hold reaction {hold_ms:.3} ms is {supervise_reaction_pct:.2}% of a cold plan, exceeding the 10% target"
        );
        return ExitCode::FAILURE;
    }
    if !quick && des_speedup < 10.0 {
        eprintln!(
            "FAIL: DES leg {des_ms:.3} ms is only {des_speedup:.2}x over the pre-overhaul {DES_PRE_OVERHAUL_MS:.1} ms baseline (target >= 10x)"
        );
        return ExitCode::FAILURE;
    }
    if let Some(ceiling) = ceiling_ms {
        if cold_ms > ceiling {
            eprintln!("FAIL: zoo planning {cold_ms:.1} ms exceeds ceiling {ceiling:.1} ms");
            return ExitCode::FAILURE;
        }
    }
    if let Some(ceiling) = des_ceiling_ms {
        if des_ms > ceiling {
            eprintln!("FAIL: DES leg {des_ms:.3} ms exceeds ceiling {ceiling:.1} ms");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
