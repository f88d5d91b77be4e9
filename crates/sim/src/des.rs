//! A discrete-event alternative to the bulk-synchronous simulator.
//!
//! The default [`Simulator`](crate::Simulator) executes phases in
//! lockstep: every leaf waits at a global barrier after each phase. Real
//! arrays overlap more: a residual block's branches are data-independent
//! and can compute concurrently, a layer's gradient can overlap a
//! neighbour's conversion, and exchanges on different cuts proceed in
//! parallel. This module builds the training step's full **task graph**
//! — per-leaf compute tasks, per-cut partial-sum exchanges and boundary
//! conversions, with true data dependencies — and schedules it with a
//! deterministic non-preemptive list scheduler over the array's
//! resources (one compute unit per leaf, one link per tree cut).
//!
//! # Engine layout
//!
//! The task graph lives in a [`DesArena`]: struct-of-arrays task storage
//! (duration, resource, dependency range) with every dependency list
//! stored as an `(offset, len)` range into one shared flat pool — no
//! per-task `Vec`, nothing cloned during graph building. Dense fan-ins
//! (every psum exchange waiting on every leaf of a layer, every
//! conversion waiting on the whole previous layer) are collapsed through
//! synthetic zero-duration **join tasks**: one barrier task depends on
//! the `n` producers once, and the `m` consumers each depend on the
//! single barrier, turning `n·m` edges into `n + m`. Join tasks occupy
//! no resource and carry zero duration, so under the max-plus schedule
//! recurrence they are exact: `finish` times, busy vectors and the
//! makespan are bit-identical to the naive expansion (kept as a hidden
//! [`simulate_des_naive`] reference, which the differential test battery
//! replays).
//!
//! # Resources by class
//!
//! The graph is built over the step's class table
//! (`geometry::ClassTable`), not over every leaf and cut: one compute
//! unit per leaf class, one link per cut class. Each pushed task stands
//! for `copies` identical tasks on identical resources and counts that
//! many in [`DesReport::tasks`]; the busy vectors are expanded at the
//! end, leaves left to right and cuts in pre-order.
//!
//! This is exact because of a **barrier-only invariant**: every
//! dependency between two resources runs through a barrier over a whole
//! phase or depth level. Conversions wait on a layer's completion join;
//! leaves wait on the conversion join; exchanges wait on the phase's
//! leaf join and the deeper level's join. No task waits on one
//! particular leaf or cut, so resources of one class receive equal
//! duration sequences in equal order and finish every task at the same
//! instant. A dependency local to a subtree (a cut waiting only on its
//! own leaves, say) would break the invariant: before adding one, narrow
//! the classes by position under that subtree.
//!
//! The arena is reusable: [`simulate_des_in`] recycles one arena's
//! buffers across calls, which plan sweeps (fault-sensitivity scans,
//! replanning, serving) use to run DES-grade validation without paying
//! an allocation storm per simulation.
//!
//! The gap between the two backends bounds the cost of the
//! bulk-synchronous assumption; the `des_vs_bsp` ablation (run by
//! `--bin ablations` counterparts in `accpar-bench`) reports it.

use crate::config::SimConfig;
use crate::error::SimError;
use crate::geometry::{validate, ClassTable, EdgeIndex};
use crate::machine::segments_secs;
use crate::simulator::{conversion_secs, psum_secs};
use crate::trace::phase_segments;
use accpar_dnn::{TrainLayer, TrainView};
use accpar_hw::{FaultModel, GroupTree};
use accpar_partition::{Phase, PlanTree};
use std::fmt;
use std::time::Instant;

#[doc(hidden)]
pub use naive::simulate_des_naive;

/// Sentinel for "no resource": the task carries dependencies but never
/// queues on a compute unit or link.
const NO_RESOURCE: u32 = u32::MAX;

/// Sentinel for "no task" in per-layer barrier tables.
const NO_TASK: u32 = u32::MAX;

/// The result of a discrete-event simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct DesReport {
    /// Makespan of the scheduled task graph.
    pub total_secs: f64,
    /// Busy seconds per leaf compute resource.
    pub leaf_busy_secs: Vec<f64>,
    /// Busy seconds per cut link resource.
    pub link_busy_secs: Vec<f64>,
    /// Number of scheduled tasks (compute, exchange and conversion
    /// tasks; synthetic join barriers are bookkeeping, not work, and are
    /// not counted).
    pub tasks: usize,
}

impl DesReport {
    /// Mean leaf compute utilization.
    #[must_use]
    pub fn mean_utilization(&self) -> f64 {
        if self.leaf_busy_secs.is_empty() || self.total_secs == 0.0 {
            return 0.0;
        }
        self.leaf_busy_secs.iter().sum::<f64>()
            / self.leaf_busy_secs.len() as f64
            / self.total_secs
    }
}

impl fmt::Display for DesReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "des step {:.3} ms ({} tasks, util {:.1}%)",
            self.total_secs * 1e3,
            self.tasks,
            self.mean_utilization() * 100.0
        )
    }
}

/// Preallocated, reusable storage for one discrete-event simulation:
/// struct-of-arrays task tables, the shared flat dependency pool, the
/// scheduler's `finish` / resource-availability vectors, and the id
/// scratch lists the graph builder threads between layers.
///
/// One arena serves any number of [`simulate_des_in`] calls; buffers are
/// cleared (capacity kept) between simulations, so steady-state sweeps
/// run allocation-free. An arena is cheap when unused — `Default`
/// allocates nothing.
#[derive(Debug, Default)]
pub struct DesArena {
    // Task tables, indexed by task id.
    duration: Vec<f64>,
    resource: Vec<u32>,
    dep_off: Vec<u32>,
    dep_len: Vec<u32>,
    /// The shared dependency pool every task's `(dep_off, dep_len)`
    /// range points into.
    deps: Vec<u32>,
    /// Scheduled (non-synthetic) tasks.
    real_tasks: usize,
    // Scheduler state.
    finish: Vec<f64>,
    resource_free: Vec<f64>,
    busy: Vec<f64>,
    // Graph-builder scratch: per-layer id lists and barrier tables.
    conv_ids: Vec<u32>,
    leaf_ids: Vec<u32>,
    psum_ids: Vec<u32>,
    level_ids: Vec<u32>,
    final_ids: Vec<u32>,
    fwd_done: Vec<u32>,
    bwd_done: Vec<u32>,
}

impl DesArena {
    /// An empty arena. Allocates nothing until its first simulation.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Dependency edges recorded by the most recent simulation
    /// (including the edges into and out of synthetic join tasks).
    #[must_use]
    pub fn dep_edges(&self) -> usize {
        self.deps.len()
    }

    /// Clears every buffer, keeping capacity.
    fn reset(&mut self) {
        self.duration.clear();
        self.resource.clear();
        self.dep_off.clear();
        self.dep_len.clear();
        self.deps.clear();
        self.real_tasks = 0;
        self.conv_ids.clear();
        self.leaf_ids.clear();
        self.psum_ids.clear();
        self.level_ids.clear();
        self.final_ids.clear();
        self.fwd_done.clear();
        self.bwd_done.clear();
    }

    /// Appends a scheduled task with `deps` copied into the shared pool,
    /// standing for `copies` identical tasks on identical resources
    /// (counted as that many in [`DesReport::tasks`]). A zero-duration
    /// task carries dependencies but must not occupy (and thus queue on)
    /// a physical resource: a free conversion is not a barrier.
    fn push(&mut self, duration: f64, deps: &[u32], resource: u32, copies: usize) -> u32 {
        let resource = if duration > 0.0 { resource } else { NO_RESOURCE };
        self.real_tasks += copies;
        self.push_raw(duration, deps, resource)
    }

    /// Collapses a dense fan-in: returns a task id whose finish time is
    /// exactly `max(finish[deps])`. For zero or one producer no task is
    /// needed; otherwise a synthetic zero-duration, resource-free join
    /// task is appended (not counted in [`DesReport::tasks`]). `f64::max`
    /// over non-NaN values is exact, so routing a dependency set through
    /// a join changes no finish time by even one ulp.
    fn join(&mut self, deps: &[u32]) -> Option<u32> {
        match deps {
            [] => None,
            [single] => Some(*single),
            many => Some(self.push_raw(0.0, many, NO_RESOURCE)),
        }
    }

    fn push_raw(&mut self, duration: f64, deps: &[u32], resource: u32) -> u32 {
        self.duration.push(duration);
        self.resource.push(resource);
        self.dep_off.push(self.deps.len() as u32);
        self.dep_len.push(deps.len() as u32);
        self.deps.extend_from_slice(deps);
        (self.duration.len() - 1) as u32
    }

    /// Deterministic non-preemptive list scheduling in task-creation
    /// (topological) order over the flat tables; returns the makespan
    /// and leaves each resource's busy time in `busy`.
    fn schedule(&mut self, resources: usize) -> f64 {
        let n = self.duration.len();
        self.finish.clear();
        self.finish.resize(n, 0.0);
        self.resource_free.clear();
        self.resource_free.resize(resources, 0.0);
        self.busy.clear();
        self.busy.resize(resources, 0.0);
        for i in 0..n {
            let off = self.dep_off[i] as usize;
            let len = self.dep_len[i] as usize;
            let mut dep_ready = 0.0f64;
            for &d in &self.deps[off..off + len] {
                dep_ready = dep_ready.max(self.finish[d as usize]);
            }
            let r = self.resource[i];
            let start = if r == NO_RESOURCE {
                dep_ready
            } else {
                dep_ready.max(self.resource_free[r as usize])
            };
            let f = start + self.duration[i];
            self.finish[i] = f;
            if r != NO_RESOURCE {
                self.resource_free[r as usize] = f;
                self.busy[r as usize] += self.duration[i];
            }
        }
        self.final_ids
            .iter()
            .map(|&t| self.finish[t as usize])
            .fold(0.0f64, f64::max)
    }
}

/// Builds and schedules the training step's task graph, entirely driven
/// by `config`.
///
/// With `faults` set, rate faults are folded in as
/// [`GroupTree::degraded`] folds them (without building the degraded
/// tree), and each leaf's transient stall window delays its first
/// forward task. Unlike the bulk-synchronous report, `leaf_busy_secs`
/// here includes the stall window (the leaf's compute resource is
/// occupied while it stalls, delaying everything queued behind it).
///
/// Allocates a fresh [`DesArena`] per call; sweeps that simulate many
/// scenarios should hold one arena and call [`simulate_des_in`].
///
/// # Errors
///
/// Returns the same validation and fault errors as
/// [`Simulator::simulate`](crate::Simulator::simulate).
pub fn simulate_des(
    config: &SimConfig,
    view: &TrainView,
    plan: &PlanTree,
    tree: &GroupTree,
    faults: Option<&FaultModel>,
) -> Result<DesReport, SimError> {
    let mut arena = DesArena::new();
    simulate_des_in(&mut arena, config, view, plan, tree, faults)
}

/// [`simulate_des`] recycling the caller's [`DesArena`]: identical
/// results, but graph storage, the dependency pool and the scheduler
/// vectors are reused across calls, so repeated simulations (replan
/// sweeps, fault-sensitivity scans, cache admission cross-checks) run
/// allocation-free in steady state.
///
/// # Errors
///
/// As [`simulate_des`].
pub fn simulate_des_in(
    arena: &mut DesArena,
    config: &SimConfig,
    view: &TrainView,
    plan: &PlanTree,
    tree: &GroupTree,
    faults: Option<&FaultModel>,
) -> Result<DesReport, SimError> {
    if let Some(faults) = faults {
        crate::faults::validate(tree, faults)?;
    }
    let n_layers = view.weighted_len();
    validate(plan, tree, n_layers)?;

    // The free function has no handle to thread through; DES timings
    // and counts go to the process-wide handle when one is installed.
    // Clocks are only read when a subscriber is listening.
    let obs = accpar_obs::global();
    let t_start = obs.enabled().then(Instant::now);

    let mut layers: Vec<&TrainLayer> = view.layers().collect();
    layers.sort_by_key(|l| l.index());
    let edges = EdgeIndex::new(view);
    // One compute unit per leaf class, then one link per cut class.
    let table = ClassTable::new(tree, plan, n_layers, faults);
    let n_leaves = table.leaves.len();

    arena.reset();
    arena.fwd_done.resize(n_layers, NO_TASK);
    arena.bwd_done.resize(n_layers, NO_TASK);
    let mut conv_ids = std::mem::take(&mut arena.conv_ids);
    let mut leaf_ids = std::mem::take(&mut arena.leaf_ids);
    let mut psum_ids = std::mem::take(&mut arena.psum_ids);
    let mut final_ids = std::mem::take(&mut arena.final_ids);

    // Forward sweep. fwd_done[l] is a single barrier task whose finish
    // time equals the completion of everything producing F_{l+1}
    // (leaf compute plus forward psum exchanges) — the join-task
    // equivalent of the naive engine's per-layer completion *list*.
    for (l, &layer) in layers.iter().enumerate() {
        // Conversions feeding this layer (F direction): each depends on
        // the producer layer's single completion barrier, not on every
        // one of its tasks.
        conv_ids.clear();
        if config.interlayer {
            for edge in edges.consumed_by(l) {
                let producer_done = arena.fwd_done[edge.from];
                let dep_buf = [producer_done];
                let deps: &[u32] = if producer_done == NO_TASK { &[] } else { &dep_buf };
                for (c, cut) in table.cuts.iter().enumerate() {
                    let secs = conversion_secs(config, edge, &table, cut, Phase::Forward);
                    let t = arena.push(secs, deps, (n_leaves + c) as u32, cut.copies);
                    conv_ids.push(t);
                }
            }
        }
        // One barrier over all conversions feeding this layer; every
        // leaf waits on it instead of on the full conversion list.
        let conv_ready = arena.join(&conv_ids);
        // Leaf compute. Transient stall windows occupy each leaf at the
        // start of the step, so they lengthen its first forward task.
        leaf_ids.clear();
        for (c, leaf) in table.leaves.iter().enumerate() {
            let segs = phase_segments(layer, Phase::Forward, table.scales(leaf.lineage, l));
            let mut secs = segments_secs(&segs, &leaf.caps, config);
            if l == 0 {
                secs += leaf.stall;
            }
            let t = arena.push(secs, conv_ready.as_slice(), c as u32, leaf.copies);
            leaf_ids.push(t);
        }
        // Psum exchanges, deepest first; a shallower exchange depends on
        // the deeper ones on the same cut path.
        psum_ids.clear();
        psum_tasks(
            arena,
            config,
            &table,
            layer,
            Phase::Forward,
            l,
            &leaf_ids,
            &mut psum_ids,
        );
        // The layer's completion barrier: leaves plus psum exchanges.
        leaf_ids.extend_from_slice(&psum_ids);
        let done = arena.join(&leaf_ids).expect("a layer has at least one leaf");
        arena.fwd_done[l] = done;
    }

    // Backward + gradient sweep. bwd_done[l] is the barrier completing
    // E_l (layer l's output error), NO_TASK when the backward pass was
    // skipped for this layer.
    final_ids.clear();
    for l in (0..n_layers).rev() {
        // Conversions of the incoming error (E direction): from each
        // consumer layer c of layer l's output.
        conv_ids.clear();
        if config.interlayer {
            for edge in edges.produced_by(l) {
                // The consumer's backward must have produced E; when it
                // has not, the loss gradient is available once the whole
                // forward pass reaches the output.
                let producer = if arena.bwd_done[edge.to] == NO_TASK {
                    arena.fwd_done[n_layers - 1]
                } else {
                    arena.bwd_done[edge.to]
                };
                for (c, cut) in table.cuts.iter().enumerate() {
                    let secs = conversion_secs(config, edge, &table, cut, Phase::Backward);
                    let t = arena.push(secs, &[producer], (n_leaves + c) as u32, cut.copies);
                    conv_ids.push(t);
                }
            }
        }
        // The last layer consumes the loss directly.
        let e_ready = if conv_ids.is_empty() && l == n_layers - 1 {
            Some(arena.fwd_done[n_layers - 1])
        } else {
            arena.join(&conv_ids)
        };
        let e_deps = e_ready.as_slice();

        // Backward compute + psum (produces E_l).
        let skip_backward = config.skip_first_backward && l == 0;
        if !skip_backward {
            leaf_ids.clear();
            for (c, leaf) in table.leaves.iter().enumerate() {
                let segs =
                    phase_segments(layers[l], Phase::Backward, table.scales(leaf.lineage, l));
                let secs = segments_secs(&segs, &leaf.caps, config);
                let t = arena.push(secs, e_deps, c as u32, leaf.copies);
                leaf_ids.push(t);
            }
            psum_ids.clear();
            psum_tasks(
                arena,
                config,
                &table,
                layers[l],
                Phase::Backward,
                l,
                &leaf_ids,
                &mut psum_ids,
            );
            leaf_ids.extend_from_slice(&psum_ids);
            let done = arena.join(&leaf_ids).expect("a layer has at least one leaf");
            arena.bwd_done[l] = done;
        }

        // Gradient compute + psum (independent of the backward result).
        leaf_ids.clear();
        for (c, leaf) in table.leaves.iter().enumerate() {
            let segs = phase_segments(layers[l], Phase::Gradient, table.scales(leaf.lineage, l));
            let secs = segments_secs(&segs, &leaf.caps, config);
            let t = arena.push(secs, e_deps, c as u32, leaf.copies);
            leaf_ids.push(t);
        }
        final_ids.extend_from_slice(&leaf_ids);
        psum_ids.clear();
        psum_tasks(
            arena,
            config,
            &table,
            layers[l],
            Phase::Gradient,
            l,
            &leaf_ids,
            &mut psum_ids,
        );
        final_ids.extend_from_slice(&psum_ids);
        if arena.bwd_done[l] != NO_TASK {
            final_ids.push(arena.bwd_done[l]);
        }
    }

    arena.final_ids = final_ids;
    let t_built = obs.enabled().then(Instant::now);
    let total_secs = arena.schedule(n_leaves + table.cuts.len());
    let report = DesReport {
        total_secs,
        leaf_busy_secs: table.per_leaf(&arena.busy[..n_leaves]),
        link_busy_secs: table.per_cut(&arena.busy[n_leaves..]),
        tasks: arena.real_tasks,
    };
    if obs.enabled() {
        if let (Some(start), Some(built)) = (t_start, t_built) {
            let build_us = built.duration_since(start).as_micros() as u64;
            let schedule_us = built.elapsed().as_micros() as u64;
            obs.histogram("des.build_us").record(build_us);
            obs.histogram("des.schedule_us").record(schedule_us);
        }
        obs.counter("des.sims").inc();
        obs.counter("des.tasks").add(report.tasks as u64);
        obs.counter("des.dep_edges").add(arena.deps.len() as u64);
    }
    arena.conv_ids = conv_ids;
    arena.leaf_ids = leaf_ids;
    arena.psum_ids = psum_ids;
    Ok(report)
}

/// Creates the psum exchange tasks of one layer phase, deepest level
/// first, chaining shallower exchanges after deeper ones. Forward phases
/// additionally carry the attention-stage K/V exchange of a lowered `o`
/// projection on the same cut links (each side sends its own token
/// slice), mirroring the bulk-synchronous simulator and the analytic
/// model.
///
/// Fan-ins are barrier-collapsed: every exchange of a layer phase waits
/// on one join over the phase's leaf tasks (instead of on all `n`
/// leaves), and each shallower level waits on one join over the previous
/// deeper level (instead of on each of its exchanges) — `O(leaves)`
/// edges where the naive expansion pays `O(leaves · cuts)`.
///
/// Appends the created (scheduled) task ids to `created`.
#[allow(clippy::too_many_arguments)]
fn psum_tasks(
    arena: &mut DesArena,
    config: &SimConfig,
    table: &ClassTable,
    layer: &TrainLayer,
    phase: Phase,
    l: usize,
    leaf_tasks: &[u32],
    created: &mut Vec<u32>,
) {
    let n_leaves = table.leaves.len();
    // Lazily created: layers whose phase carries no exchange at all
    // must not leave a stray join task behind.
    let mut leaf_join: Option<u32> = None;
    let mut prev_join: Option<u32> = None;
    let mut this_level = std::mem::take(&mut arena.level_ids);
    for depth in (0..table.depths()).rev() {
        this_level.clear();
        let (first, cuts) = table.level(depth);
        for (c, cut) in (first..).zip(cuts) {
            let Some(secs) = psum_secs(config, layer, table, cut, phase, l) else {
                continue;
            };
            let leaves_done = *leaf_join.get_or_insert_with(|| {
                arena
                    .join(leaf_tasks)
                    .expect("a layer has at least one leaf")
            });
            let mut deps = [leaves_done, 0];
            let deps: &[u32] = match prev_join {
                Some(p) => {
                    deps[1] = p;
                    &deps
                }
                None => &deps[..1],
            };
            let t = arena.push(secs, deps, (n_leaves + c) as u32, cut.copies);
            this_level.push(t);
            created.push(t);
        }
        if !this_level.is_empty() {
            prev_join = arena.join(&this_level);
        }
    }
    arena.level_ids = this_level;
}

/// The pre-overhaul DES engine, kept verbatim as the differential
/// reference: per-task `Vec` dependency lists, fully expanded fan-ins
/// (every psum exchange depends on every leaf, every conversion on the
/// producer layer's complete completion list). The arena engine must
/// produce bit-identical reports; `tests/des_identity.rs` and the
/// property battery assert it.
mod naive {
    use super::*;
    use crate::geometry::{layer_geom, LayerGeom};
    use accpar_cost::comm::{attn_stage_elems, inter_conversion_split, intra_psum_elems};

    struct Task {
        duration: f64,
        deps: Vec<usize>,
        resource: Option<usize>,
    }

    /// The naive (pre-overhaul) reference implementation of
    /// [`simulate_des`]. Asymptotically quadratic in leaves × cuts —
    /// test reference only.
    ///
    /// # Errors
    ///
    /// As [`simulate_des`].
    #[doc(hidden)]
    pub fn simulate_des_naive(
        config: &SimConfig,
        view: &TrainView,
        plan: &PlanTree,
        tree: &GroupTree,
        faults: Option<&FaultModel>,
    ) -> Result<DesReport, SimError> {
        match faults {
            None => simulate_naive_with(config, view, plan, tree, None),
            Some(faults) => {
                let (degraded, stalls) = crate::faults::prepare(tree, faults)?;
                simulate_naive_with(config, view, plan, &degraded, Some(&stalls))
            }
        }
    }

    fn simulate_naive_with(
        config: &SimConfig,
        view: &TrainView,
        plan: &PlanTree,
        tree: &GroupTree,
        stalls: Option<&[f64]>,
    ) -> Result<DesReport, SimError> {
        if plan.depth() != tree.levels() {
            return Err(SimError::DepthMismatch {
                plan: plan.depth(),
                tree: tree.levels(),
            });
        }
        let n_layers = view.weighted_len();
        if plan.plan().len() != n_layers {
            return Err(SimError::LayerCountMismatch {
                level: 0,
                plan: plan.plan().len(),
                network: n_layers,
            });
        }

        let mut layers: Vec<&TrainLayer> = view.layers().collect();
        layers.sort_by_key(|l| l.index());
        let edges = view.conversion_edges();
        let depth = plan.depth();
        let geoms: Vec<LayerGeom> = (0..n_layers)
            .map(|l| layer_geom(tree.root(), plan, depth, l))
            .collect();
        let n_leaves = geoms.first().map_or(1, |g| g.leaves.len());
        let n_nodes = geoms.first().map_or(0, |g| g.nodes.len());

        let mut builder = GraphBuilder {
            tasks: Vec::new(),
            config,
        };

        // Forward sweep tasks.
        let mut done_forward: Vec<Vec<usize>> = vec![Vec::new(); n_layers];
        let mut conv_f_in: Vec<Vec<usize>> = vec![Vec::new(); n_layers];

        for l in 0..n_layers {
            if config.interlayer {
                for edge in edges.iter().filter(|e| e.to == l) {
                    for (node_idx, node) in geoms[l].nodes.iter().enumerate() {
                        let prev = node.plan.layer(edge.from);
                        let next = node.plan.layer(edge.to);
                        let boundary = edge.boundary_elems as f64 * node.scales.f_in;
                        let (f, _e) = inter_conversion_split(
                            prev.ptype,
                            prev.ratio.value(),
                            next.ptype,
                            next.ratio.value(),
                            boundary.round() as u64,
                            boundary.round() as u64,
                        );
                        let secs = (config.format.bytes_f64(f.0) / node.link_a)
                            .max(config.format.bytes_f64(f.1) / node.link_b);
                        let deps = done_forward[edge.from].clone();
                        let t = builder.push(secs, deps, Some(n_leaves + node_idx));
                        conv_f_in[l].push(t);
                    }
                }
            }
            let mut completion: Vec<usize> = Vec::new();
            let mut leaf_tasks: Vec<usize> = Vec::new();
            for (leaf_idx, (caps, scales)) in geoms[l].leaves.iter().enumerate() {
                let segs = phase_segments(layers[l], Phase::Forward, *scales);
                let mut secs = segments_secs(&segs, caps, config);
                if l == 0 {
                    secs += stalls.map_or(0.0, |s| s.get(leaf_idx).copied().unwrap_or(0.0));
                }
                let t = builder.push(secs, conv_f_in[l].clone(), Some(leaf_idx));
                leaf_tasks.push(t);
            }
            completion.extend(leaf_tasks.iter().copied());
            let psums =
                builder.psum_tasks(&geoms[l], layers[l], Phase::Forward, n_leaves, &leaf_tasks);
            completion.extend(psums);
            done_forward[l] = completion;
        }

        // Backward + gradient sweep.
        let mut done_backward: Vec<Vec<usize>> = vec![Vec::new(); n_layers];
        let mut final_tasks: Vec<usize> = Vec::new();

        for l in (0..n_layers).rev() {
            let mut conv_e: Vec<usize> = Vec::new();
            if config.interlayer {
                for edge in edges.iter().filter(|e| e.from == l) {
                    for (node_idx, node) in geoms[edge.to].nodes.iter().enumerate() {
                        let prev = node.plan.layer(edge.from);
                        let next = node.plan.layer(edge.to);
                        let boundary = edge.boundary_elems as f64 * node.scales.f_in;
                        let (_f, e) = inter_conversion_split(
                            prev.ptype,
                            prev.ratio.value(),
                            next.ptype,
                            next.ratio.value(),
                            boundary.round() as u64,
                            boundary.round() as u64,
                        );
                        let secs = (config.format.bytes_f64(e.0) / node.link_a)
                            .max(config.format.bytes_f64(e.1) / node.link_b);
                        let deps = if done_backward[edge.to].is_empty() {
                            done_forward[n_layers - 1].clone()
                        } else {
                            done_backward[edge.to].clone()
                        };
                        let t = builder.push(secs, deps, Some(n_leaves + node_idx));
                        conv_e.push(t);
                    }
                }
            }
            let e_ready = if conv_e.is_empty() && l == n_layers - 1 {
                done_forward[n_layers - 1].clone()
            } else {
                conv_e.clone()
            };

            let skip_backward = config.skip_first_backward && l == 0;
            if !skip_backward {
                let mut leaf_tasks = Vec::new();
                for (leaf_idx, (caps, scales)) in geoms[l].leaves.iter().enumerate() {
                    let segs = phase_segments(layers[l], Phase::Backward, *scales);
                    let secs = segments_secs(&segs, caps, config);
                    let t = builder.push(secs, e_ready.clone(), Some(leaf_idx));
                    leaf_tasks.push(t);
                }
                let mut completion = leaf_tasks.clone();
                completion.extend(builder.psum_tasks(
                    &geoms[l],
                    layers[l],
                    Phase::Backward,
                    n_leaves,
                    &leaf_tasks,
                ));
                done_backward[l] = completion;
            }

            let mut leaf_tasks = Vec::new();
            for (leaf_idx, (caps, scales)) in geoms[l].leaves.iter().enumerate() {
                let segs = phase_segments(layers[l], Phase::Gradient, *scales);
                let secs = segments_secs(&segs, caps, config);
                let t = builder.push(secs, e_ready.clone(), Some(leaf_idx));
                leaf_tasks.push(t);
            }
            final_tasks.extend(leaf_tasks.iter().copied());
            final_tasks.extend(builder.psum_tasks(
                &geoms[l],
                layers[l],
                Phase::Gradient,
                n_leaves,
                &leaf_tasks,
            ));
            final_tasks.extend(done_backward[l].iter().copied());
        }

        Ok(builder.schedule(n_leaves, n_nodes, &final_tasks))
    }

    struct GraphBuilder<'c> {
        tasks: Vec<Task>,
        config: &'c SimConfig,
    }

    impl GraphBuilder<'_> {
        fn push(&mut self, duration: f64, deps: Vec<usize>, resource: Option<usize>) -> usize {
            let resource = if duration > 0.0 { resource } else { None };
            self.tasks.push(Task {
                duration,
                deps,
                resource,
            });
            self.tasks.len() - 1
        }

        fn psum_tasks(
            &mut self,
            geom: &LayerGeom,
            layer: &TrainLayer,
            phase: Phase,
            n_leaves: usize,
            leaf_tasks: &[usize],
        ) -> Vec<usize> {
            let mut created = Vec::new();
            let max_depth = geom.nodes.iter().map(|n| n.depth).max();
            let Some(max_depth) = max_depth else {
                return created;
            };
            let mut prev_level: Vec<usize> = Vec::new();
            for depth in (0..=max_depth).rev() {
                let mut this_level = Vec::new();
                for (node_idx, node) in geom.nodes.iter().enumerate() {
                    if node.depth != depth {
                        continue;
                    }
                    let psum = if node.entry.ptype.psum_phase() == phase {
                        intra_psum_elems(node.entry.ptype, layer) as f64
                            * node.scales.psum_scale(node.entry.ptype)
                    } else {
                        0.0
                    };
                    let (stage_a, stage_b) = if phase == Phase::Forward {
                        let full = attn_stage_elems(node.entry.ptype, layer) as f64;
                        let alpha = node.entry.ratio.value();
                        (
                            full * node.scales.shrink(node.entry.ptype, alpha).f_in,
                            full * node.scales.shrink(node.entry.ptype, 1.0 - alpha).f_in,
                        )
                    } else {
                        (0.0, 0.0)
                    };
                    if psum == 0.0 && stage_a == 0.0 && stage_b == 0.0 {
                        continue;
                    }
                    let secs = (self.config.format.bytes_f64(psum + stage_a) / node.link_a)
                        .max(self.config.format.bytes_f64(psum + stage_b) / node.link_b);
                    let mut deps: Vec<usize> = leaf_tasks.to_vec();
                    deps.extend(prev_level.iter().copied());
                    let t = self.push(secs, deps, Some(n_leaves + node_idx));
                    this_level.push(t);
                    created.push(t);
                }
                if !this_level.is_empty() {
                    prev_level = this_level;
                }
            }
            created
        }

        fn schedule(self, n_leaves: usize, n_nodes: usize, final_tasks: &[usize]) -> DesReport {
            let mut finish = vec![0.0f64; self.tasks.len()];
            let mut resource_free = vec![0.0f64; n_leaves + n_nodes];
            let mut busy = vec![0.0f64; n_leaves + n_nodes];
            for (i, task) in self.tasks.iter().enumerate() {
                let dep_ready = task
                    .deps
                    .iter()
                    .map(|&d| finish[d])
                    .fold(0.0f64, f64::max);
                let start = match task.resource {
                    Some(r) => dep_ready.max(resource_free[r]),
                    None => dep_ready,
                };
                finish[i] = start + task.duration;
                if let Some(r) = task.resource {
                    resource_free[r] = finish[i];
                    busy[r] += task.duration;
                }
            }
            let total = final_tasks
                .iter()
                .map(|&t| finish[t])
                .fold(0.0f64, f64::max);
            DesReport {
                total_secs: total,
                leaf_busy_secs: busy[..n_leaves].to_vec(),
                link_busy_secs: busy[n_leaves..].to_vec(),
                tasks: self.tasks.len(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemModel;
    use crate::Simulator;
    use accpar_dnn::{Layer, NetworkBuilder};
    use accpar_hw::AcceleratorArray;
    use accpar_partition::{HierPlan, LayerPlan, NetworkPlan};
    use accpar_tensor::{ConvGeometry, FeatureShape};

    fn fc_view(batch: usize, dims: &[usize]) -> TrainView {
        let mut b = NetworkBuilder::new("t", FeatureShape::fc(batch, dims[0]));
        for (i, pair) in dims.windows(2).enumerate() {
            b = b.linear(format!("fc{i}"), pair[0], pair[1]);
        }
        b.build().unwrap().train_view().unwrap()
    }

    fn dp_plan(n: usize, levels: usize) -> PlanTree {
        HierPlan::new(vec![
            NetworkPlan::uniform(n, LayerPlan::data_parallel());
            levels
        ])
        .to_tree()
    }

    #[test]
    fn des_never_exceeds_bsp() {
        // Same durations, strictly fewer synchronization constraints: the
        // DES schedule is never slower than the bulk-synchronous one.
        let config = SimConfig::default();
        for dims in [vec![256, 512, 128], vec![64, 64, 64, 64]] {
            let view = fc_view(128, &dims);
            let n = view.weighted_len();
            for boards in [2usize, 4] {
                let array = AcceleratorArray::heterogeneous_tpu(boards / 2, boards / 2);
                let levels = boards.trailing_zeros() as usize;
                let tree = GroupTree::bisect(&array, levels).unwrap();
                let plan = dp_plan(n, levels);
                let bsp = Simulator::new(config)
                    .simulate(&view, &plan, &tree, None)
                    .unwrap()
                    .total_secs;
                let des = simulate_des(&config, &view, &plan, &tree, None)
                    .unwrap()
                    .total_secs;
                assert!(
                    des <= bsp * (1.0 + 1e-9),
                    "dims {dims:?} boards {boards}: des {des} vs bsp {bsp}"
                );
                assert!(des > 0.2 * bsp, "des suspiciously fast: {des} vs {bsp}");
            }
        }
    }

    #[test]
    fn single_layer_single_level_matches_bsp_exactly() {
        // One layer, one cut: there is nothing to overlap, so the two
        // backends agree exactly.
        let config = SimConfig {
            mem_model: MemModel::ComputeOnly,
            ..SimConfig::default()
        };
        let view = fc_view(64, &[128, 256]);
        let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(2), 1).unwrap();
        let plan = dp_plan(1, 1);
        let bsp = Simulator::new(config)
            .simulate(&view, &plan, &tree, None)
            .unwrap()
            .total_secs;
        let des = simulate_des(&config, &view, &plan, &tree, None)
            .unwrap()
            .total_secs;
        assert!((des - bsp).abs() / bsp < 1e-9, "des {des} vs bsp {bsp}");
    }

    #[test]
    fn des_overlaps_compute_with_communication() {
        // On hardware where per-layer compute and psum traffic are of the
        // same order, the DES overlaps one layer's gradient exchange with
        // the next layer's compute — the BSP barriers cannot. On Table 7
        // hardware the arrays are so network-bound that the two backends
        // coincide (an honest finding the `des_vs_bsp` bench reports), so
        // this test balances the rates explicitly.
        use accpar_hw::AcceleratorSpec;
        let spec =
            AcceleratorSpec::new("balanced", 1e9, 1 << 30, 100e9, 1e9, 2, 10e9).unwrap();
        let array = AcceleratorArray::homogeneous(spec, 2);
        let tree = GroupTree::bisect(&array, 1).unwrap();
        let view = fc_view(512, &[512, 512, 512, 512, 512]);
        let plan = dp_plan(view.weighted_len(), 1);
        let config = SimConfig {
            mem_model: MemModel::ComputeOnly,
            ..SimConfig::default()
        };
        let bsp = Simulator::new(config)
            .simulate(&view, &plan, &tree, None)
            .unwrap()
            .total_secs;
        let des = simulate_des(&config, &view, &plan, &tree, None)
            .unwrap()
            .total_secs;
        // The DES hides all but the last gradient psum behind the next
        // layer's compute: with 4 weighted layers, exactly 3 exchanges of
        // A(W)·2 bytes at 1 GB/s disappear from the critical path.
        let psum_secs = (512.0 * 512.0 * 2.0) / 1e9;
        let expected_gap = 3.0 * psum_secs;
        let gap = bsp - des;
        assert!(
            (gap - expected_gap).abs() < 1e-9,
            "overlap gap {gap} vs expected {expected_gap} (des {des}, bsp {bsp})"
        );
    }

    #[test]
    fn residual_branches_are_handled() {
        // A two-branch Add block end to end through the DES backend.
        let view = NetworkBuilder::new("r", FeatureShape::conv(64, 32, 8, 8))
            .conv2d("stem", 32, 32, ConvGeometry::same(3))
            .block(
                accpar_dnn::JoinOp::Add,
                vec![
                    vec![Layer::conv2d("p1", 32, 32, ConvGeometry::same(3))],
                    vec![Layer::conv2d("p2", 32, 32, ConvGeometry::same(3))],
                ],
            )
            .flatten("f")
            .linear("fc", 32 * 64, 10)
            .build()
            .unwrap()
            .train_view()
            .unwrap();
        let config = SimConfig::default();
        let tree = GroupTree::bisect(&AcceleratorArray::heterogeneous_tpu(1, 1), 1).unwrap();
        let plan = dp_plan(view.weighted_len(), 1);
        let bsp = Simulator::new(config)
            .simulate(&view, &plan, &tree, None)
            .unwrap()
            .total_secs;
        let des = simulate_des(&config, &view, &plan, &tree, None)
            .unwrap()
            .total_secs;
        // Everything is bound by the single link here, so no overlap win
        // is available — but the DES must not be slower.
        assert!(des <= bsp * (1.0 + 1e-9), "des {des} vs bsp {bsp}");
    }

    #[test]
    fn validation_errors_match_simulator() {
        let view = fc_view(8, &[4, 4, 4]);
        let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(2), 1).unwrap();
        let config = SimConfig::default();
        assert!(matches!(
            simulate_des(&config, &view, &dp_plan(2, 2), &tree, None),
            Err(SimError::DepthMismatch { .. })
        ));
        assert!(matches!(
            simulate_des(&config, &view, &dp_plan(3, 1), &tree, None),
            Err(SimError::LayerCountMismatch { .. })
        ));
    }

    #[test]
    fn faulted_des_is_deterministic_and_matches_degraded_tree() {
        let view = fc_view(128, &[512, 512, 512]);
        let n = view.weighted_len();
        let tree = GroupTree::bisect(&AcceleratorArray::heterogeneous_tpu(2, 2), 2).unwrap();
        let plan = dp_plan(n, 2);
        let config = SimConfig::default();
        let clean = simulate_des(&config, &view, &plan, &tree, None).unwrap();
        let faults = FaultModel::with_seed(42)
            .slow_leaf(0, 0.5)
            .unwrap()
            .degrade_cut(1, 0.25)
            .unwrap();
        let a = simulate_des(&config, &view, &plan, &tree, Some(&faults)).unwrap();
        let b = simulate_des(&config, &view, &plan, &tree, Some(&faults)).unwrap();
        assert_eq!(a, b, "seeded fault scenario must be bit-reproducible");
        assert!(a.total_secs > clean.total_secs);
        // Rate faults alone are exactly a simulation of the degraded tree.
        let direct =
            simulate_des(&config, &view, &plan, &tree.degraded(&faults).unwrap(), None).unwrap();
        assert_eq!(a, direct);
        // Faults never make the DES slower than the faulted BSP barrier
        // schedule.
        let bsp = Simulator::new(config)
            .simulate(&view, &plan, &tree, Some(&faults))
            .unwrap();
        assert!(a.total_secs <= bsp.total_secs * (1.0 + 1e-9));
    }

    #[test]
    fn des_stall_delays_the_step() {
        let view = fc_view(64, &[256, 256]);
        let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(2), 1).unwrap();
        let plan = dp_plan(view.weighted_len(), 1);
        let config = SimConfig::default();
        let clean = simulate_des(&config, &view, &plan, &tree, None).unwrap();
        let stall = 1e-3;
        let faults = FaultModel::new().stall_leaf(1, stall).unwrap();
        let stalled = simulate_des(&config, &view, &plan, &tree, Some(&faults)).unwrap();
        // With symmetric leaves the whole stall lands on the critical path.
        assert!((stalled.total_secs - clean.total_secs - stall).abs() < 1e-12);
    }

    #[test]
    fn des_fault_validation_errors() {
        let view = fc_view(8, &[4, 4]);
        let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(2), 1).unwrap();
        let plan = dp_plan(view.weighted_len(), 1);
        let config = SimConfig::default();
        assert!(matches!(
            simulate_des(
                &config,
                &view,
                &plan,
                &tree, Some(&FaultModel::new().slow_leaf(9, 0.5).unwrap())),
            Err(SimError::FaultLeafOutOfRange { leaf: 9, leaves: 2 })
        ));
        assert!(matches!(
            simulate_des(&config, &view, &plan, &tree, Some(&FaultModel::new().drop_leaf(0))),
            Err(SimError::DroppedLeaf { leaf: 0 })
        ));
    }

    #[test]
    fn report_accessors() {
        let view = fc_view(32, &[64, 64]);
        let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(2), 1).unwrap();
        let report = simulate_des(&SimConfig::default(), &view, &dp_plan(1, 1), &tree, None).unwrap();
        assert!(report.total_secs > 0.0);
        assert!(report.tasks > 0);
        assert!(report.mean_utilization() > 0.0 && report.mean_utilization() <= 1.0);
        assert_eq!(report.leaf_busy_secs.len(), 2);
        assert_eq!(report.link_busy_secs.len(), 1);
        assert!(report.to_string().contains("des step"));
    }

    #[test]
    fn arena_engine_matches_naive_reference_bitwise() {
        // The barrier-collapsed arena graph must reproduce the naive
        // expansion's report exactly — total, busy vectors *and* the
        // scheduled-task count (joins are bookkeeping, not work).
        let config = SimConfig::default();
        let tree = GroupTree::bisect(&AcceleratorArray::heterogeneous_tpu(4, 4), 3).unwrap();
        for dims in [vec![256, 512, 128], vec![64, 64, 64, 64, 64]] {
            let view = fc_view(128, &dims);
            let plan = dp_plan(view.weighted_len(), 3);
            let fast = simulate_des(&config, &view, &plan, &tree, None).unwrap();
            let naive = simulate_des_naive(&config, &view, &plan, &tree, None).unwrap();
            assert_eq!(fast, naive, "dims {dims:?}");
            assert_eq!(fast.total_secs.to_bits(), naive.total_secs.to_bits());
        }
    }

    #[test]
    fn arena_reuse_is_bit_identical_and_allocation_stable() {
        // One arena across scenarios: every recycled simulation matches
        // a fresh-arena run bitwise, and the dependency pool stops
        // growing after the first (largest) scenario.
        let config = SimConfig::default();
        let tree = GroupTree::bisect(&AcceleratorArray::heterogeneous_tpu(2, 2), 2).unwrap();
        let view = fc_view(128, &[512, 256, 384]);
        let plan = dp_plan(view.weighted_len(), 2);
        let mut arena = DesArena::new();
        let mut edge_counts = Vec::new();
        for round in 0..3 {
            let fresh = simulate_des(&config, &view, &plan, &tree, None).unwrap();
            let reused = simulate_des_in(&mut arena, &config, &view, &plan, &tree, None).unwrap();
            assert_eq!(fresh, reused, "round {round}");
            edge_counts.push(arena.dep_edges());
        }
        assert!(edge_counts.windows(2).all(|w| w[0] == w[1]));
        // Error paths leave the arena reusable too.
        assert!(matches!(
            simulate_des_in(&mut arena, &config, &view, &dp_plan(2, 1), &tree, None),
            Err(SimError::DepthMismatch { .. })
        ));
        let after_err =
            simulate_des_in(&mut arena, &config, &view, &plan, &tree, None).unwrap();
        assert_eq!(after_err, simulate_des(&config, &view, &plan, &tree, None).unwrap());
    }

    #[test]
    fn join_collapses_quadratic_fanin() {
        // On a deep tree the arena's dependency pool must stay linear in
        // leaves where the naive expansion is quadratic: with 16 leaves
        // and 15 cuts, the gradient psum fan-in alone would be
        // 16 leaves × 15 cuts = 240 edges per layer naively.
        let config = SimConfig::default();
        let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(16), 4).unwrap();
        let view = fc_view(64, &[256, 256, 256]);
        let plan = dp_plan(view.weighted_len(), 4);
        let mut arena = DesArena::new();
        let report = simulate_des_in(&mut arena, &config, &view, &plan, &tree, None).unwrap();
        // Naive edge count for comparison: every psum task carries all
        // 16 leaves plus the previous level; every leaf carries the full
        // conversion list; conversions carry the whole previous layer.
        let naive_edges: usize = {
            // leaves per layer + conversions (15 per edge) etc. — just
            // bound it: each of the 15 psum tasks alone would carry ≥16
            // leaf deps, per weighted layer.
            15 * 16 * view.weighted_len()
        };
        assert!(
            arena.dep_edges() < naive_edges,
            "flat pool {} edges vs naive lower bound {naive_edges}",
            arena.dep_edges()
        );
        assert_eq!(
            report,
            simulate_des_naive(&config, &view, &plan, &tree, None).unwrap()
        );
    }
}
