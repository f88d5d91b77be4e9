//! Every call the benchmark makes into the program under test.
//!
//! The untraced run uses only the facade: `Planner::builder(..).build()
//! .plan(..)`, `serve::plan_many`, `Supervisor::{new, observe, settle}`
//! and `accpar_sim::{simulate, simulate_des_in}`. The traced run
//! re-runs the same work as the public calls the facade makes
//! internally, one span per call, and must reproduce the facade's
//! results bit for bit. An API change in the program can therefore
//! break this file only, and an end-to-end metric only through the
//! facade.

use crate::trace::Tracer;
use accpar_core::cache::{plan_key, POISON_TOLERANCE};
use accpar_core::hierarchy::plan_node_budgeted;
use accpar_core::replan::{replan, replan_with, ReplanConfig};
use accpar_core::{
    plan_many, Budget, PlanError, PlanOutcome, PlanRecord, PlanRequest, Planner, SearchCache,
    SearchConfig, Strategy, SuperviseAction, SuperviseConfig,
};
use accpar_cost::{CostConfig, CostModel, RatioSolver};
use accpar_dnn::iso::IsoClasses;
use accpar_dnn::{zoo, TrainView};
use accpar_hw::{GroupTree, HealthSchedule};
use accpar_obs::Obs;
use accpar_partition::PlanTree;
use accpar_runtime::Pool;
use accpar_sim::{simulate, simulate_des_in, SimConfig, SimReport};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;

// The program's types the workloads hold (and only pass back here).
pub use accpar_core::{PlanCache, PlannedNetwork, ServeConfig, Supervisor};
pub use accpar_dnn::Network;
pub use accpar_hw::{AcceleratorArray, FaultModel, HealthEvent};
pub use accpar_sim::DesArena;

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// What the benchmark keeps of one returned plan: a digest of the plan
/// tree, its step time, and the simulated time split.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub digest: u64,
    pub secs: f64,
    pub compute_share: f64,
    pub psum_share: f64,
    pub conversion_share: f64,
}

impl Summary {
    fn of(plan: &PlanTree, report: &SimReport) -> Self {
        let share = |part: f64| part / report.total_secs;
        Self {
            digest: digest(plan),
            secs: report.total_secs,
            compute_share: share(report.compute_secs),
            psum_share: share(report.psum_secs),
            conversion_share: share(report.conversion_secs),
        }
    }

    /// Same plan and bit-identical step time.
    pub fn same(&self, other: &Self) -> bool {
        self.digest == other.digest && self.secs.to_bits() == other.secs.to_bits()
    }
}

/// Hash of every node's per-layer partition type and ratio bits.
fn digest(plan: &PlanTree) -> u64 {
    fn walk(plan: &PlanTree, h: &mut std::collections::hash_map::DefaultHasher) {
        for layer in plan.plan().layers() {
            layer.ptype.hash(h);
            h.write_u64(layer.ratio.value().to_bits());
        }
        match plan.children() {
            Some((left, right)) => {
                h.write_u8(1);
                walk(left, h);
                walk(right, h);
            }
            None => h.write_u8(0),
        }
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    walk(plan, &mut h);
    h.finish()
}

// --- inputs -------------------------------------------------------------

pub fn network(name: &str, batch: usize) -> Result<Network, String> {
    zoo::by_name(name, batch).map_err(text)
}

/// `name@batch`, for messages.
pub fn label(net: &Network) -> String {
    format!("{}@{}", net.name(), net.batch())
}

pub fn hetero(v2: usize, v3: usize) -> AcceleratorArray {
    AcceleratorArray::heterogeneous_tpu(v2, v3)
}

pub fn homogeneous_v3(boards: usize) -> AcceleratorArray {
    AcceleratorArray::homogeneous_tpu_v3(boards)
}

/// One leaf of an array bisected to single boards running at `factor`
/// of its compute rate.
pub fn slow_leaf(leaf: usize, factor: f64) -> Result<FaultModel, String> {
    FaultModel::new().slow_leaf(leaf, factor).map_err(text)
}

/// A fault set over an array bisected to single boards: slow leaves,
/// degraded cuts and one stalled leaf, each `(target, factor)`.
pub fn fault_set(
    slow: &[(usize, f64)],
    cuts: &[(usize, f64)],
    stall: (usize, f64),
) -> Result<FaultModel, String> {
    let mut faults = FaultModel::new();
    for &(leaf, factor) in slow {
        faults = faults.slow_leaf(leaf, factor).map_err(text)?;
    }
    for &(cut, factor) in cuts {
        faults = faults.degrade_cut(cut, factor).map_err(text)?;
    }
    faults.stall_leaf(stall.0, stall.1).map_err(text)
}

/// The planner's default depth: bisect down to single boards.
fn default_levels(array: &AcceleratorArray) -> usize {
    array.len().max(2).ilog2() as usize
}

// --- planning facade ----------------------------------------------------

/// One cold AccPar plan request through the facade, planned on one
/// thread as `plan_many` plans each request.
pub fn plan(net: &Network, array: &AcceleratorArray) -> Result<PlannedNetwork, String> {
    plan_on(net, array, 1)
}

/// [`plan`] with the search on `threads` threads.
pub fn plan_on(
    net: &Network,
    array: &AcceleratorArray,
    threads: usize,
) -> Result<PlannedNetwork, String> {
    Planner::builder(net, array)
        .threads(threads)
        .build()
        .and_then(|planner| planner.plan(Strategy::AccPar))
        .map_err(text)
}

/// The data-parallel baseline's step time on the same hardware.
pub fn dp_secs(net: &Network, array: &AcceleratorArray) -> Result<f64, String> {
    Planner::builder(net, array)
        .threads(1)
        .build()
        .and_then(|planner| planner.plan(Strategy::DataParallel))
        .map(|planned| planned.modeled_cost())
        .map_err(text)
}

pub fn summary(planned: &PlannedNetwork) -> Summary {
    Summary::of(planned.plan(), planned.report())
}

/// A returned plan's step time re-simulated with the cost-model-aligned
/// simulator, on healthy or faulted hardware.
pub fn step_secs(
    net: &Network,
    array: &AcceleratorArray,
    planned: &PlannedNetwork,
    faults: Option<&FaultModel>,
) -> Result<f64, String> {
    let view = net.train_view().map_err(text)?;
    let tree = GroupTree::bisect(array, planned.plan().depth()).map_err(text)?;
    simulate(
        &SimConfig::cost_model_aligned(),
        &view,
        planned.plan(),
        &tree,
        faults,
    )
    .map(|r| r.total_secs)
    .map_err(text)
}

/// Search-memo counters of one traced cold plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchCounters {
    pub cells_requested: u64,
    pub memo_hit_ratio: f64,
    pub level_hit_ratio: f64,
    pub iso_collapse_ratio: f64,
}

/// The facade's cold path after the train view: bisect, classify,
/// search with a fresh memo, evaluate.
fn cold(
    view: &TrainView,
    array: &AcceleratorArray,
    memo: &SearchCache,
    t: &mut Tracer,
    op: u64,
) -> Result<(PlanTree, GroupTree, SimReport, SearchCounters), String> {
    let levels = default_levels(array);
    let tree = t
        .span("hw.bisect", op, || GroupTree::bisect(array, levels))
        .map_err(text)?;
    // Reported, not subtracted: the search classifies again internally.
    let iso = t.span("dnn.iso", op, || IsoClasses::of(view));
    let plan = t
        .span("search", op, || {
            let model = CostModel::new(CostConfig::default());
            let config = SearchConfig::accpar_with(RatioSolver::default());
            plan_node_budgeted(
                view,
                tree.root(),
                &model,
                &config,
                None,
                Pool::serial(),
                Some(memo),
                &Obs::off(),
                None,
                &Budget::unlimited(),
            )
        })
        .map_err(text)?
        .0
        .ok_or_else(|| "the bisected tree has no levels to plan".to_owned())?;
    let report = t
        .span("sim.bsp", op, || {
            simulate(&SimConfig::cost_model_aligned(), view, &plan, &tree, None)
        })
        .map_err(text)?;
    let stats = memo.stats();
    let counters = SearchCounters {
        cells_requested: stats.cells_requested,
        memo_hit_ratio: stats.hit_rate(),
        level_hit_ratio: stats.level_hits as f64
            / (stats.level_hits + stats.level_misses).max(1) as f64,
        iso_collapse_ratio: iso.collapse_ratio(),
    };
    Ok((plan, tree, report, counters))
}

/// [`plan`], decomposed into the calls the facade makes.
pub fn plan_traced(
    net: &Network,
    array: &AcceleratorArray,
    t: &mut Tracer,
    op: u64,
) -> Result<(Summary, SearchCounters), String> {
    let root = t.begin("plan", op);
    let result = t
        .span("dnn.train_view", op, || net.train_view())
        .map_err(text)
        .and_then(|view| cold(&view, array, &SearchCache::new(), t, op))
        .map(|(plan, _, report, counters)| (Summary::of(&plan, &report), counters));
    t.end(root);
    result
}

// --- serving facade -----------------------------------------------------

/// One request of a served batch.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    pub net: &'a Network,
    pub array: &'a AcceleratorArray,
    pub faults: Option<&'a FaultModel>,
}

/// Opens (warm-loads) the persistent plan cache under `dir`.
pub fn open_cache(dir: &Path, cap: usize) -> Arc<PlanCache> {
    Arc::new(PlanCache::open(dir, cap, Obs::off()))
}

/// The file a persistent cache under `dir` keeps its snapshot in.
pub fn snapshot_file(dir: &Path) -> PathBuf {
    dir.join("plans.jsonl")
}

/// Records warm-loaded and quarantined by the last open.
pub fn load_report(cache: &PlanCache) -> (usize, usize) {
    let report = cache.load_report();
    (report.loaded, report.quarantined)
}

/// `(hits, misses, evictions)` since the cache was opened.
pub fn cache_counts(cache: &PlanCache) -> (u64, u64, u64) {
    let stats = cache.stats();
    (stats.hits, stats.misses, stats.evictions)
}

/// Serving over `cache` with one worker. Two workers on two vCPUs made
/// every latency swing with contention from outside the process.
pub fn serve_config(cache: &Arc<PlanCache>) -> ServeConfig {
    ServeConfig {
        workers: 1,
        cache: Some(Arc::clone(cache)),
        ..ServeConfig::default()
    }
}

pub type Served = Result<PlanOutcome, PlanError>;

/// Requests through one `serve::plan_many` call.
pub fn serve(batch: &[Request<'_>], config: &ServeConfig) -> Vec<Served> {
    let requests: Vec<PlanRequest<'_>> = batch
        .iter()
        .map(|r| {
            let request = PlanRequest::new(r.net, r.array);
            match r.faults {
                Some(faults) => request.faults(faults),
                None => request,
            }
        })
        .collect();
    plan_many(&requests, config)
}

pub fn served_summary(served: &Served) -> Result<Summary, String> {
    served
        .as_ref()
        .map(|outcome| summary(outcome.planned()))
        .map_err(text)
}

/// One served request, decomposed into the calls `plan_many` makes for
/// it on one worker. Returns the summary and, on a cache miss, the cold
/// search's counters.
pub fn serve_traced(
    request: &Request<'_>,
    cache: &PlanCache,
    t: &mut Tracer,
    op: u64,
) -> Result<(Summary, Option<SearchCounters>), String> {
    let root = t.begin("serve", op);
    let result = serve_steps(request, cache, t, op);
    t.end(root);
    result
}

fn serve_steps(
    request: &Request<'_>,
    cache: &PlanCache,
    t: &mut Tracer,
    op: u64,
) -> Result<(Summary, Option<SearchCounters>), String> {
    let Request { net, array, faults } = *request;
    let config = SimConfig::cost_model_aligned();
    let view = t
        .span("dnn.train_view", op, || net.train_view())
        .map_err(text)?;
    let levels = default_levels(array);
    let key = t.span("cache.key", op, || {
        plan_key(
            &view,
            array,
            Strategy::AccPar,
            levels,
            &CostConfig::default(),
            &RatioSolver::default(),
            &config,
            &Budget::unlimited(),
        )
    });
    let found = t.span("cache.lookup", op, || cache.lookup(&key));
    let memo = SearchCache::new();
    let hit = found.is_some();
    let (plan, tree, report, counters) = match found {
        Some((record, verified)) => {
            let shape_ok = record.strategy == Strategy::AccPar
                && record.levels == levels
                && record.plan.depth() == levels
                && record.plan.plan().len() == view.weighted_len();
            if !shape_ok {
                return Err("cached record failed the shape check".into());
            }
            let tree = t
                .span("hw.bisect", op, || GroupTree::bisect(array, levels))
                .map_err(text)?;
            let report = match verified {
                Some(report) => report,
                None => {
                    let report = t
                        .span("cache.crosscheck", op, || {
                            simulate(&config, &view, &record.plan, &tree, None)
                        })
                        .map_err(text)?;
                    if (report.total_secs - record.cost).abs() > POISON_TOLERANCE {
                        return Err("cached record failed the cross-check".into());
                    }
                    cache.mark_verified(&key, report.clone());
                    report
                }
            };
            (record.plan, tree, report, None)
        }
        None => {
            let (plan, tree, report, counters) = cold(&view, array, &memo, t, op)?;
            let record = PlanRecord {
                key,
                strategy: Strategy::AccPar,
                levels,
                cost: report.total_secs,
                plan: plan.clone(),
            };
            t.span("cache.insert", op, || {
                cache.insert_verified(record, report.clone())
            });
            (plan, tree, report, Some(counters))
        }
    };
    let Some(faults) = faults else {
        return Ok((Summary::of(&plan, &report), counters));
    };
    if hit {
        cache.note_demotion();
    }
    let replan_config = ReplanConfig {
        threads: Some(1),
        ..ReplanConfig::default()
    };
    let outcome = t
        .span("replan", op, || {
            replan_with(
                &view,
                array,
                &tree,
                &plan,
                faults,
                &replan_config,
                Some(&memo),
            )
        })
        .map_err(text)?;
    let report = t
        .span("sim.bsp", op, || {
            simulate(
                &config,
                &view,
                &outcome.plan,
                &outcome.tree,
                Some(&outcome.faults),
            )
        })
        .map_err(text)?;
    Ok((Summary::of(&outcome.plan, &report), counters))
}

// --- supervision facade -------------------------------------------------

pub fn supervisor(net: &Network, array: &AcceleratorArray) -> Result<Supervisor, String> {
    let config = SuperviseConfig {
        threads: Some(1),
        ..SuperviseConfig::default()
    };
    Supervisor::new(net, array, None, config).map_err(text)
}

/// A seeded health timeline over the supervisor's leaves and cuts: the
/// events `HealthSchedule::random` draws, re-timed so that consecutive
/// events lie `gaps[i]` schedule-time units apart.
pub fn health_events(
    seed: u64,
    sup: &Supervisor,
    gaps: &[f64],
) -> Result<Vec<HealthEvent>, String> {
    let schedule = HealthSchedule::random(seed, sup.leaf_count(), sup.cut_count(), gaps.len())
        .map_err(text)?;
    let mut at = 0.0;
    Ok(schedule
        .events()
        .iter()
        .zip(gaps)
        .map(|(event, gap)| {
            at += gap;
            HealthEvent {
                at,
                kind: event.kind,
            }
        })
        .collect())
}

pub fn observe(sup: &mut Supervisor, event: HealthEvent) -> Result<(), String> {
    sup.observe(event).map_err(text)
}

pub fn settle(sup: &mut Supervisor) -> Result<(), String> {
    sup.settle().map_err(text)
}

/// [`observe`] in a span named by the decision it produced, if any.
pub fn observe_traced(
    sup: &mut Supervisor,
    event: HealthEvent,
    t: &mut Tracer,
    op: u64,
) -> Result<(), String> {
    let before = sup.decisions().len();
    let id = t.begin("supervise.observe", op);
    let result = sup.observe(event).map_err(text);
    let name = match sup.decisions()[before..].last().map(|d| d.action) {
        None => "supervise.buffer",
        Some(SuperviseAction::Hold) => "supervise.hold",
        Some(SuperviseAction::Adopt | SuperviseAction::Keep | SuperviseAction::Promote) => {
            "supervise.search"
        }
        Some(_) => "supervise.fallback",
    };
    t.end_as(id, name);
    result
}

pub fn settle_traced(sup: &mut Supervisor, t: &mut Tracer, op: u64) -> Result<(), String> {
    t.span("supervise.settle", op, || sup.settle())
        .map_err(text)
}

/// One supervisor decision, as the benchmark checks and aggregates it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionSummary {
    pub at: f64,
    pub events: usize,
    pub action: &'static str,
    pub replanned: bool,
    pub serving_secs: Option<f64>,
    pub stale_secs: Option<f64>,
    pub degradation: f64,
}

pub fn decisions(sup: &Supervisor) -> Vec<DecisionSummary> {
    sup.decisions()
        .iter()
        .map(|d| DecisionSummary {
            at: d.at,
            events: d.events,
            action: d.action.label(),
            replanned: d.replanned,
            serving_secs: d.serving_secs,
            stale_secs: d.stale_secs,
            degradation: d.degradation,
        })
        .collect()
}

/// How much faster a fresh plan must be to replace the incumbent on a
/// recovery-only batch.
pub fn promote_margin() -> f64 {
    SuperviseConfig::default().promote_margin
}

pub fn nominal_secs(sup: &Supervisor) -> f64 {
    sup.nominal_secs()
}

/// Whether the settled plan is bit-identical to replanning the healthy
/// plan once against the terminal fault set, on a fresh cache.
pub fn settled_matches_direct(
    sup: &Supervisor,
    net: &Network,
    array: &AcceleratorArray,
    events: &[HealthEvent],
) -> Result<bool, String> {
    let terminal = events
        .iter()
        .try_fold(FaultModel::new(), |faults, event| {
            event.kind.fold_into(faults)
        })
        .map_err(text)?;
    let view = net.train_view().map_err(text)?;
    let tree = GroupTree::bisect(array, default_levels(array)).map_err(text)?;
    let config = ReplanConfig {
        sensitivity: false,
        threads: Some(1),
        ..ReplanConfig::default()
    };
    let direct =
        replan(&view, array, &tree, sup.healthy_plan(), &terminal, &config).map_err(text)?;
    Ok(sup.plan() == Some(&direct.plan))
}

// --- simulation facade --------------------------------------------------

/// One network's plans on one array, made during set-up.
#[derive(Debug)]
pub struct SimFixture {
    view: TrainView,
    tree: GroupTree,
    /// AccPar's plan, then the data-parallel baseline.
    plans: [PlanTree; 2],
}

pub fn sim_fixture(net: &Network, array: &AcceleratorArray) -> Result<SimFixture, String> {
    let planner = Planner::builder(net, array)
        .threads(1)
        .build()
        .map_err(text)?;
    let [accpar, dp] = [Strategy::AccPar, Strategy::DataParallel]
        .map(|strategy| planner.plan(strategy).map(|p| p.plan().clone()));
    Ok(SimFixture {
        view: net.train_view().map_err(text)?,
        tree: GroupTree::bisect(array, default_levels(array)).map_err(text)?,
        plans: [accpar.map_err(text)?, dp.map_err(text)?],
    })
}

/// One bulk-synchronous step; returns the step time.
pub fn bsp(fx: &SimFixture, plan: usize, faults: Option<&FaultModel>) -> Result<f64, String> {
    simulate(
        &SimConfig::default(),
        &fx.view,
        &fx.plans[plan],
        &fx.tree,
        faults,
    )
    .map(|r| r.total_secs)
    .map_err(text)
}

/// One discrete-event step in a reused arena; returns the step time and
/// the number of scheduled tasks.
pub fn des(
    arena: &mut DesArena,
    fx: &SimFixture,
    plan: usize,
    faults: Option<&FaultModel>,
) -> Result<(f64, usize), String> {
    simulate_des_in(
        arena,
        &SimConfig::default(),
        &fx.view,
        &fx.plans[plan],
        &fx.tree,
        faults,
    )
    .map(|r| (r.total_secs, r.tasks))
    .map_err(text)
}

/// Leaves and cuts of the array bisected to single boards.
pub fn leaves_and_cuts(array: &AcceleratorArray) -> Result<(usize, usize), String> {
    GroupTree::bisect(array, default_levels(array))
        .map(|tree| (tree.leaf_count(), tree.cut_count()))
        .map_err(text)
}
