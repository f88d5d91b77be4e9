use crate::config::SimConfig;
use crate::error::SimError;
use crate::geometry::{EdgeIndex, NodeGeom};
use crate::machine::segments_secs;
use crate::trace::phase_segments;
use accpar_cost::cache::scales_bits;
use accpar_cost::comm::{attn_stage_elems, inter_conversion_split, intra_psum_elems};
use accpar_dnn::{TrainEdge, TrainLayer, TrainView};
use accpar_hw::{FaultModel, GroupCaps, GroupNode, GroupTree};
use accpar_obs::Obs;
use accpar_partition::{Phase, PlanTree, ShardScales};
use std::fmt;

/// Per-layer timing breakdown of a simulated training step, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerBreakdown {
    /// Compute time across the three phases (bulk-synchronous max over
    /// leaves, summed over phases).
    pub compute_secs: f64,
    /// Partial-sum exchange time (Table 4 traffic, all levels).
    pub psum_secs: f64,
    /// Inter-layer conversion time charged to this layer's phases
    /// (Table 5 traffic, all levels).
    pub conversion_secs: f64,
}

impl LayerBreakdown {
    /// Total time attributed to the layer.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.compute_secs + self.psum_secs + self.conversion_secs
    }
}

/// The result of simulating one training step.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// End-to-end step time.
    pub total_secs: f64,
    /// Sum of per-phase compute makespans.
    pub compute_secs: f64,
    /// Sum of partial-sum exchange times.
    pub psum_secs: f64,
    /// Sum of inter-layer conversion times.
    pub conversion_secs: f64,
    /// Optimizer weight-update time (zero unless `SimConfig::update` is
    /// set).
    pub update_secs: f64,
    /// Per weighted layer breakdown.
    pub per_layer: Vec<LayerBreakdown>,
    /// Per-leaf compute-busy seconds (for utilization analysis).
    pub leaf_busy_secs: Vec<f64>,
}

impl SimReport {
    /// Training throughput in steps per second, or `None` when the
    /// simulated step time is not positive (an empty network, or a
    /// degenerate config that priced every phase at zero).
    #[must_use]
    pub fn steps_per_sec(&self) -> Option<f64> {
        (self.total_secs > 0.0).then(|| 1.0 / self.total_secs)
    }

    /// Mean leaf compute utilization: busy time over step time. Low
    /// values indicate the idle-time effect §6.2 attributes to equal
    /// partitioning on heterogeneous hardware.
    #[must_use]
    pub fn mean_utilization(&self) -> f64 {
        if self.leaf_busy_secs.is_empty() || self.total_secs == 0.0 {
            return 0.0;
        }
        let mean_busy =
            self.leaf_busy_secs.iter().sum::<f64>() / self.leaf_busy_secs.len() as f64;
        mean_busy / self.total_secs
    }

    /// Fraction of the step spent communicating.
    #[must_use]
    pub fn comm_fraction(&self) -> f64 {
        if self.total_secs == 0.0 {
            return 0.0;
        }
        (self.psum_secs + self.conversion_secs) / self.total_secs
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "step {:.3} ms (compute {:.3} ms, psum {:.3} ms, conversion {:.3} ms, update {:.3} ms, util {:.1}%)",
            self.total_secs * 1e3,
            self.compute_secs * 1e3,
            self.psum_secs * 1e3,
            self.conversion_secs * 1e3,
            self.update_secs * 1e3,
            self.mean_utilization() * 100.0
        )
    }
}

/// The trace-based array simulator.
///
/// Executes one training step — forward sweep over the weighted layers,
/// then a backward + gradient sweep in reverse — in bulk-synchronous
/// order: each phase's compute is priced per leaf group from its trace
/// segments, partial-sum exchanges are charged on the cut links of every
/// hierarchy level whose partition type requires them (deepest first),
/// and inter-layer tensor conversions are charged when the consuming
/// phase begins.
///
/// Each layer and phase is priced once per distinct (plan node, hardware
/// subtree, shard scales): the two halves of a [`PlanTree::twin`] over
/// hardware that prices alike, stalls included, are priced once, and the
/// report is bit-identical to pricing every node and leaf.
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    config: SimConfig,
    obs: Obs,
}

impl Simulator {
    /// Creates a simulator.
    #[must_use]
    pub const fn new(config: SimConfig) -> Self {
        Self {
            config,
            obs: Obs::off(),
        }
    }

    /// Attaches an observability handle: every simulated step opens a
    /// `sim.step` span, feeds the `sim.step_ns` histogram, and emits a
    /// `sim.report` event with the per-phase timing breakdown.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The simulator's configuration.
    #[must_use]
    pub const fn config(&self) -> SimConfig {
        self.config
    }

    /// Simulates one training step of `view` partitioned by `plan` over
    /// `tree`, entirely driven by the simulator's [`SimConfig`].
    ///
    /// With `faults` set, compute slowdowns and cut-bandwidth
    /// degradations are folded into a degraded copy of `tree`, and each
    /// leaf's transient stall window is charged at the start of the step
    /// (its first forward phase). The report's `leaf_busy_secs` counts
    /// compute only — stall windows lengthen the step but are idle time,
    /// so a stalled straggler shows up as *lower* utilization.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DepthMismatch`] /
    /// [`SimError::LayerCountMismatch`] when the plan does not match the
    /// tree or the network. With `faults` set, additionally
    /// [`SimError::FaultLeafOutOfRange`] /
    /// [`SimError::FaultCutOutOfRange`] when a fault targets a leaf or
    /// cut the tree does not have, and [`SimError::DroppedLeaf`] when the
    /// fault model dropped a leaf the plan still assigns work to — re-plan
    /// on the reduced array (see `accpar-core`) before simulating.
    pub fn simulate(
        &self,
        view: &TrainView,
        plan: &PlanTree,
        tree: &GroupTree,
        faults: Option<&FaultModel>,
    ) -> Result<SimReport, SimError> {
        match faults {
            None => self.simulate_with(view, plan, tree, None),
            Some(faults) => {
                let (degraded, stalls) = crate::faults::prepare(tree, faults)?;
                if self.obs.enabled() {
                    self.obs
                        .counter("sim.fault_activations")
                        .add(faults.faults().len() as u64);
                }
                self.simulate_with(view, plan, &degraded, Some(&stalls))
            }
        }
    }

    fn simulate_with(
        &self,
        view: &TrainView,
        plan: &PlanTree,
        tree: &GroupTree,
        stalls: Option<&[f64]>,
    ) -> Result<SimReport, SimError> {
        if plan.depth() != tree.levels() {
            return Err(SimError::DepthMismatch {
                plan: plan.depth(),
                tree: tree.levels(),
            });
        }
        let n_layers = view.weighted_len();
        validate_layer_counts(plan, n_layers, 0)?;
        let span = self.obs.span(
            "sim.step",
            &[
                ("layers", n_layers.into()),
                ("levels", tree.levels().into()),
                ("faulted", stalls.is_some().into()),
            ],
        );
        let _step_timer = self.obs.timer("sim.step_ns");

        let mut layers: Vec<&TrainLayer> = view.layers().collect();
        layers.sort_by_key(|l| l.index());
        let edges = EdgeIndex::new(view);

        // Per-layer geometry with each twin priced once.
        let skeleton = Skeleton::new(tree.root(), plan, stalls);
        let geoms = skeleton.layer_geoms(n_layers);
        let mut busy = Busy::new(&geoms);

        let mut report = SimReport {
            total_secs: 0.0,
            compute_secs: 0.0,
            psum_secs: 0.0,
            conversion_secs: 0.0,
            update_secs: 0.0,
            per_layer: vec![LayerBreakdown::default(); n_layers],
            leaf_busy_secs: Vec::new(),
        };

        // Forward sweep. Transient stall windows delay each leaf at the
        // start of the step, i.e. during the first forward phase.
        for (l, layer) in layers.iter().enumerate() {
            if self.config.interlayer {
                let conv = self.conversion_secs(edges.consumed_by(l), &geoms, Phase::Forward);
                report.per_layer[l].conversion_secs += conv;
                report.conversion_secs += conv;
            }
            let geom = geoms.layer(l);
            self.run_phase(layer, geom, Phase::Forward, l, l == 0, &mut busy, &mut report);
        }
        // Backward + gradient sweep.
        for l in (0..n_layers).rev() {
            let skip_backward = self.config.skip_first_backward && l == 0;
            if self.config.interlayer {
                let conv = self.conversion_secs(edges.produced_by(l), &geoms, Phase::Backward);
                report.per_layer[l].conversion_secs += conv;
                report.conversion_secs += conv;
            }
            let geom = geoms.layer(l);
            if !skip_backward {
                self.run_phase(layers[l], geom, Phase::Backward, l, false, &mut busy, &mut report);
            }
            self.run_phase(layers[l], geom, Phase::Gradient, l, false, &mut busy, &mut report);
        }

        // Optional optimizer update phase: each leaf updates its weight
        // shards in place (element-wise; no communication — gradients are
        // already combined by the psum exchanges).
        if let Some(optimizer) = self.config.update {
            let mut makespan: f64 = 0.0;
            let bytes_per_elem = self.config.format.bytes_per_element() as f64;
            // Touched per parameter: read gradient, read+write weight,
            // read+write each optimizer state copy.
            let accesses = 3.0 + 2.0 * optimizer.state_copies() as f64;
            for unit in 0..busy.secs.len() {
                let mut elems = 0.0;
                for (l, layer) in layers.iter().enumerate() {
                    let scales = busy.leaf(geoms.layer(l), unit).scales;
                    elems += layer.weight().size() as f64 * scales.weight;
                }
                let caps = busy.leaf(geoms.layer(0), unit).caps;
                let compute =
                    elems * optimizer.update_flops_per_param() as f64 / caps.flops;
                let mem = elems * accesses * bytes_per_elem / caps.mem_bw;
                let secs = match self.config.mem_model {
                    crate::config::MemModel::Roofline => compute.max(mem),
                    crate::config::MemModel::Serial => compute + mem,
                    crate::config::MemModel::ComputeOnly => compute,
                };
                busy.secs[unit] += secs;
                makespan = makespan.max(secs);
            }
            report.update_secs = makespan;
        }
        report.leaf_busy_secs = busy.into_leaves(&geoms);

        report.total_secs = report.compute_secs
            + report.psum_secs
            + report.conversion_secs
            + report.update_secs;
        if self.obs.enabled() {
            self.obs.counter("sim.steps").inc();
            for (l, lb) in report.per_layer.iter().enumerate() {
                span.event(
                    "sim.layer",
                    &[
                        ("layer", l.into()),
                        ("compute_ms", (lb.compute_secs * 1e3).into()),
                        ("psum_ms", (lb.psum_secs * 1e3).into()),
                        ("conversion_ms", (lb.conversion_secs * 1e3).into()),
                    ],
                );
            }
            span.event(
                "sim.report",
                &[
                    ("total_ms", (report.total_secs * 1e3).into()),
                    ("compute_ms", (report.compute_secs * 1e3).into()),
                    ("psum_ms", (report.psum_secs * 1e3).into()),
                    ("conversion_ms", (report.conversion_secs * 1e3).into()),
                    ("update_ms", (report.update_secs * 1e3).into()),
                    ("utilization", report.mean_utilization().into()),
                ],
            );
        }
        Ok(report)
    }

    /// Compute + psum of one phase, accumulated into the report and the
    /// leaves' busy times. `stalled` (set only for the step's first
    /// phase) delays each leaf by its stall window without counting as
    /// busy time.
    #[allow(clippy::too_many_arguments)]
    fn run_phase(
        &self,
        layer: &TrainLayer,
        geom: TwinGeom,
        phase: Phase,
        l: usize,
        stalled: bool,
        busy: &mut Busy,
        report: &mut SimReport,
    ) {
        // Bulk-synchronous compute: the phase ends when the slowest leaf
        // finishes its shard. Each distinct leaf is priced once; the max
        // over the distinct values is the max over every leaf.
        let mut makespan: f64 = 0.0;
        busy.prices.clear();
        for leaf in geom.leaves {
            let segs = phase_segments(layer, phase, leaf.scales);
            let t = segments_secs(&segs, &leaf.caps, &self.config);
            let stall = if stalled { leaf.stall } else { 0.0 };
            makespan = makespan.max(t + stall);
            busy.prices.push(t);
        }
        busy.add(geom);
        report.compute_secs += makespan;
        report.per_layer[l].compute_secs += makespan;

        // Partial-sum exchanges, deepest level first: partial results
        // combine bottom-up. Nodes at the same depth exchange
        // concurrently. Each forward phase additionally carries the
        // attention-stage K/V exchange of a lowered `o` projection (each
        // side sends its own token slice, so the sides scale by their
        // respective input-feature shares).
        for depth in (0..geom.depths()).rev() {
            let mut level_secs: f64 = 0.0;
            for node in geom.level(depth) {
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
                let t = (self.config.format.bytes_f64(psum + stage_a) / node.link_a)
                    .max(self.config.format.bytes_f64(psum + stage_b) / node.link_b);
                level_secs = level_secs.max(t);
            }
            report.psum_secs += level_secs;
            report.per_layer[l].psum_secs += level_secs;
        }
    }

    /// Inter-layer conversion time charged when a layer begins `phase`:
    /// over `edges`, the `F` conversions of its incoming edges before
    /// its forward phase, and the `E` conversions of its outgoing edges
    /// before its backward phase.
    fn conversion_secs<'e>(
        &self,
        edges: impl Iterator<Item = &'e TrainEdge>,
        geoms: &TwinGeoms,
        phase: Phase,
    ) -> f64 {
        let forward = phase == Phase::Forward;
        let mut total = 0.0;
        for edge in edges {
            // The boundary tensor's shard scale follows the *consumer*'s
            // input feature map (an approximation when the two layers'
            // types disagree; documented in DESIGN.md).
            let consumer_geom = geoms.layer(edge.to);
            for depth in 0..consumer_geom.depths() {
                let mut level_secs: f64 = 0.0;
                for node in consumer_geom.level(depth) {
                    let prev = node.plan.layer(edge.from);
                    let next = node.plan.layer(edge.to);
                    let boundary =
                        (edge.boundary_elems as f64 * node.scales.f_in).round() as u64;
                    let (f, e) = inter_conversion_split(
                        prev.ptype,
                        prev.ratio.value(),
                        next.ptype,
                        next.ratio.value(),
                        boundary,
                        boundary,
                    );
                    let (a_elems, b_elems) = if forward { f } else { e };
                    let t = (self.config.format.bytes_f64(a_elems) / node.link_a)
                        .max(self.config.format.bytes_f64(b_elems) / node.link_b);
                    level_secs = level_secs.max(t);
                }
                total += level_secs;
            }
        }
        total
    }
}

/// Checks every distinct node's layer count; a twin's halves are one
/// node, checked once.
fn validate_layer_counts(plan: &PlanTree, n_layers: usize, level: usize) -> Result<(), SimError> {
    if plan.plan().len() != n_layers {
        return Err(SimError::LayerCountMismatch {
            level,
            plan: plan.plan().len(),
            network: n_layers,
        });
    }
    if let Some((a, b)) = plan.children() {
        validate_layer_counts(a, n_layers, level + 1)?;
        if !plan.is_twin() {
            validate_layer_counts(b, n_layers, level + 1)?;
        }
    }
    Ok(())
}

// --- twin-aware geometry ------------------------------------------------
//
// A *twin* is a bisection whose halves hold one shared plan node
// (`PlanTree::is_twin`), or no plan node at all (the bottom level), over
// group subtrees that price alike (`GroupNode::prices_alike`) and stall
// alike. For every layer in which the two halves also inherit
// bitwise-equal shard scales, every pricing input of the right half —
// caps, links, scales, plan entries, stalls — equals the left half's bit
// for bit, so its leaves and nodes are priced through the left half's.
// Maxima over a level or over the leaves are unchanged by dropping equal
// values, and each leaf still receives its own busy-time additions in
// phase order, so the report is bit-identical to pricing every node.

/// The leaves' busy times. Each leaf sums its phases' prices in phase
/// order. When every layer maps the leaves onto its distinct leaves
/// alike — the usual case, as the twins of a searched plan inherit equal
/// scales in every layer — the leaves of one distinct leaf receive the
/// same additions, so one accumulator per distinct leaf yields each of
/// their sums bit for bit; otherwise every leaf keeps its own.
struct Busy {
    /// One accumulator per distinct leaf when `shared`, else per leaf.
    secs: Vec<f64>,
    shared: bool,
    /// The current phase's price of each distinct leaf.
    prices: Vec<f64>,
}

impl Busy {
    fn new(geoms: &TwinGeoms) -> Self {
        let shared = (1..geoms.layers()).all(|l| geoms.layer(l).class == geoms.layer(0).class);
        let units = match geoms.layers() {
            0 => 1,
            _ if shared => geoms.layer(0).leaves.len(),
            _ => geoms.walk_leaves,
        };
        Self {
            secs: vec![0.0; units],
            shared,
            prices: Vec::new(),
        }
    }

    /// The distinct leaf of `geom` that accumulator `unit` follows.
    fn leaf<'g>(&self, geom: TwinGeom<'g, '_>, unit: usize) -> &'g LeafGeom {
        if self.shared {
            &geom.leaves[unit]
        } else {
            geom.leaf(unit)
        }
    }

    /// Adds the current phase's prices.
    fn add(&mut self, geom: TwinGeom) {
        if self.shared {
            for (busy, &t) in self.secs.iter_mut().zip(&self.prices) {
                *busy += t;
            }
        } else {
            for (busy, &class) in self.secs.iter_mut().zip(geom.class) {
                *busy += self.prices[class as usize];
            }
        }
    }

    /// Every leaf's busy time, left to right.
    fn into_leaves(self, geoms: &TwinGeoms) -> Vec<f64> {
        if self.shared && geoms.layers() > 0 {
            geoms.layer(0).class.iter().map(|&c| self.secs[c as usize]).collect()
        } else {
            self.secs
        }
    }
}

/// One step of the (group tree, plan tree) walk, built once per step:
/// a twin's halves share one slot.
struct Slot<'a> {
    group: &'a GroupNode,
    /// The bisection's plan node; `None` for a leaf of the walk.
    plan: Option<&'a PlanTree>,
    depth: usize,
    /// Leaves of the walk below this slot.
    leaves: usize,
    /// The child slots, equal for a twin.
    kids: (usize, usize),
}

/// The step's slots in pre-order, root first.
struct Skeleton<'a> {
    slots: Vec<Slot<'a>>,
    /// Each leaf's stall window, left to right, on a faulted step.
    stalls: Option<&'a [f64]>,
    /// Depths that hold a bisection (the deepest one's plus one).
    depths: usize,
}

/// A leaf of the walk as the pricing sees it.
struct LeafGeom {
    caps: GroupCaps,
    scales: ShardScales,
    stall: f64,
}

/// Every layer's geometry with twins priced once, in flat arrays shared
/// by the layers (one allocation each per step, not per layer).
struct TwinGeoms<'p> {
    nodes: Vec<NodeGeom<'p>>,
    /// Layer `l`'s nodes at depth `d` are `nodes[depth_at[i]..depth_at[i
    /// + 1]]`, `i = l · (depths + 1) + d`.
    depth_at: Vec<usize>,
    depths: usize,
    leaves: Vec<LeafGeom>,
    /// Layer `l`'s distinct leaves are `leaves[leaf_at[l]..leaf_at[l + 1]]`.
    leaf_at: Vec<usize>,
    /// Layer `l`'s map from each leaf of the walk, left to right, to its
    /// distinct leaf is `class[l · walk_leaves..(l + 1) · walk_leaves]`.
    class: Vec<u32>,
    walk_leaves: usize,
}

impl<'p> TwinGeoms<'p> {
    fn layers(&self) -> usize {
        self.leaf_at.len() - 1
    }

    fn layer(&self, l: usize) -> TwinGeom<'_, 'p> {
        let at = l * (self.depths + 1);
        TwinGeom {
            nodes: &self.nodes,
            depth_at: &self.depth_at[at..=at + self.depths],
            leaves: &self.leaves[self.leaf_at[l]..self.leaf_at[l + 1]],
            class: &self.class[l * self.walk_leaves..(l + 1) * self.walk_leaves],
        }
    }
}

/// One layer's geometry with twins priced once: the distinct nodes
/// grouped by depth and the distinct leaves, with every leaf of the walk
/// mapped to its distinct leaf.
#[derive(Clone, Copy)]
struct TwinGeom<'g, 'p> {
    nodes: &'g [NodeGeom<'p>],
    depth_at: &'g [usize],
    leaves: &'g [LeafGeom],
    class: &'g [u32],
}

impl<'g, 'p> TwinGeom<'g, 'p> {
    fn depths(&self) -> usize {
        self.depth_at.len() - 1
    }

    fn level(&self, depth: usize) -> &'g [NodeGeom<'p>] {
        &self.nodes[self.depth_at[depth]..self.depth_at[depth + 1]]
    }

    fn leaf(&self, idx: usize) -> &'g LeafGeom {
        &self.leaves[self.class[idx] as usize]
    }
}

fn stall_at(stalls: Option<&[f64]>, idx: usize) -> f64 {
    stalls.map_or(0.0, |s| s.get(idx).copied().unwrap_or(0.0))
}

impl<'a> Skeleton<'a> {
    fn new(root: &'a GroupNode, plan: &'a PlanTree, stalls: Option<&'a [f64]>) -> Self {
        let mut skeleton = Self {
            slots: Vec::new(),
            stalls,
            depths: 0,
        };
        skeleton.build(root, Some(plan), 0, 0);
        skeleton
    }

    /// Adds the slot of `group` (and its subtree) and returns its index.
    fn build(
        &mut self,
        group: &'a GroupNode,
        plan: Option<&'a PlanTree>,
        depth: usize,
        first_leaf: usize,
    ) -> usize {
        let idx = self.slots.len();
        self.slots.push(Slot {
            group,
            plan: None,
            depth,
            leaves: 1,
            kids: (idx, idx),
        });
        if let (Some((a, b)), Some(p)) = (group.children(), plan) {
            self.depths = self.depths.max(depth + 1);
            let (pa, pb) = p.children().map_or((None, None), |(x, y)| (Some(x), Some(y)));
            let left = self.build(a, pa, depth + 1, first_leaf);
            let n = self.slots[left].leaves;
            // A bottom plan node's halves are both leaves of the walk,
            // with no plan of their own to differ in.
            let twin = (p.is_twin() || p.children().is_none())
                && a.prices_alike(b)
                && (first_leaf..first_leaf + n).all(|i| {
                    stall_at(self.stalls, i).to_bits() == stall_at(self.stalls, i + n).to_bits()
                });
            let right = if twin {
                left
            } else {
                self.build(b, pb, depth + 1, first_leaf + n)
            };
            let leaves = n + self.slots[right].leaves;
            let slot = &mut self.slots[idx];
            slot.plan = Some(p);
            slot.leaves = leaves;
            slot.kids = (left, right);
        }
        idx
    }

    fn layer_geoms(&self, n_layers: usize) -> TwinGeoms<'a> {
        let walk_leaves = self.slots[0].leaves;
        let mut geoms = TwinGeoms {
            nodes: Vec::new(),
            depth_at: Vec::with_capacity(n_layers * (self.depths + 1)),
            depths: self.depths,
            leaves: Vec::new(),
            leaf_at: Vec::with_capacity(n_layers + 1),
            class: vec![0; n_layers * walk_leaves],
            walk_leaves,
        };
        geoms.leaf_at.push(0);
        let mut buckets: Vec<Vec<NodeGeom<'a>>> = (0..self.depths).map(|_| Vec::new()).collect();
        for l in 0..n_layers {
            let class = l * walk_leaves;
            self.walk(l, 0, ShardScales::full(), class, &mut buckets, &mut geoms);
            geoms.depth_at.push(geoms.nodes.len());
            for bucket in &mut buckets {
                geoms.nodes.append(bucket);
                geoms.depth_at.push(geoms.nodes.len());
            }
            geoms.leaf_at.push(geoms.leaves.len());
        }
        geoms
    }

    /// Walks `slot` for layer `l`, recording its distinct nodes by depth
    /// and its distinct leaves. `first_leaf` indexes `geoms.class`: the
    /// layer's map starts at `l · walk_leaves`.
    fn walk(
        &self,
        l: usize,
        slot: usize,
        scales: ShardScales,
        first_leaf: usize,
        buckets: &mut [Vec<NodeGeom<'a>>],
        geoms: &mut TwinGeoms<'a>,
    ) {
        let s = &self.slots[slot];
        let Some(p) = s.plan else {
            geoms.class[first_leaf] = (geoms.leaves.len() - geoms.leaf_at[l]) as u32;
            geoms.leaves.push(LeafGeom {
                caps: s.group.caps(),
                scales,
                stall: stall_at(self.stalls, first_leaf - l * geoms.walk_leaves),
            });
            return;
        };
        let (a, b) = s.group.children().expect("a planned slot has children");
        let entry = p.plan().layer(l);
        buckets[s.depth].push(NodeGeom {
            depth: s.depth,
            link_a: a.link_bw(),
            link_b: b.link_bw(),
            scales,
            entry,
            plan: p.plan(),
        });
        let alpha = entry.ratio.value();
        let scales_a = scales.shrink(entry.ptype, alpha);
        let scales_b = scales.shrink(entry.ptype, 1.0 - alpha);
        let (left, right) = s.kids;
        let n = self.slots[left].leaves;
        self.walk(l, left, scales_a, first_leaf, buckets, geoms);
        if left == right && scales_bits(scales_a) == scales_bits(scales_b) {
            geoms.class.copy_within(first_leaf..first_leaf + n, first_leaf + n);
        } else {
            self.walk(l, right, scales_b, first_leaf + n, buckets, geoms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemModel;
    use accpar_cost::{CostConfig, CostModel, PairEnv};
    use accpar_dnn::NetworkBuilder;
    use accpar_hw::AcceleratorArray;
    use accpar_partition::{HierPlan, LayerPlan, NetworkPlan, PartitionType, Ratio, ShardScales};
    use accpar_tensor::FeatureShape;

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
    fn single_layer_matches_cost_model_on_homogeneous_pair() {
        let view = fc_view(64, &[128, 256]);
        let layer = view.layers().next().unwrap().clone();
        let array = AcceleratorArray::homogeneous_tpu_v3(2);
        let tree = GroupTree::bisect(&array, 1).unwrap();
        let env = PairEnv::from_node(tree.root()).unwrap();

        let plan = dp_plan(1, 1);
        let sim = Simulator::new(SimConfig::cost_model_aligned());
        let report = sim.simulate(&view, &plan, &tree, None).unwrap();

        let model = CostModel::new(CostConfig::default());
        let expected = model
            .layer_cost(
                &layer,
                PartitionType::TypeI,
                Ratio::EQUAL,
                &env,
                ShardScales::full(),
            )
            .makespan();
        assert!(
            (report.total_secs - expected).abs() / expected < 1e-9,
            "sim {} vs model {}",
            report.total_secs,
            expected
        );
    }

    #[test]
    fn heterogeneous_sim_never_exceeds_cost_model_bound() {
        // The model charges each group compute+comm before taking the
        // max; the sim takes per-stage maxima, so sim ≤ model.
        let view = fc_view(64, &[128, 256]);
        let layer = view.layers().next().unwrap().clone();
        let array = AcceleratorArray::heterogeneous_tpu(1, 1);
        let tree = GroupTree::bisect(&array, 1).unwrap();
        let env = PairEnv::from_node(tree.root()).unwrap();

        let sim = Simulator::new(SimConfig::cost_model_aligned());
        let report = sim.simulate(&view, &dp_plan(1, 1), &tree, None).unwrap();
        let model = CostModel::new(CostConfig::default());
        let bound = model
            .layer_cost(
                &layer,
                PartitionType::TypeI,
                Ratio::EQUAL,
                &env,
                ShardScales::full(),
            )
            .makespan();
        assert!(report.total_secs <= bound * (1.0 + 1e-9));
        assert!(report.total_secs > 0.5 * bound);
    }

    #[test]
    fn plan_validation_errors() {
        let view = fc_view(8, &[4, 4, 4]);
        let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(2), 1).unwrap();
        let sim = Simulator::default();
        let err = sim.simulate(&view, &dp_plan(2, 2), &tree, None).unwrap_err();
        assert!(matches!(err, SimError::DepthMismatch { .. }));
        let err = sim.simulate(&view, &dp_plan(3, 1), &tree, None).unwrap_err();
        assert!(matches!(err, SimError::LayerCountMismatch { .. }));
    }

    #[test]
    fn unbalanced_ratio_on_heterogeneous_pair_beats_equal_split() {
        let view = fc_view(512, &[1024, 1024, 1024]);
        let n = view.weighted_len();
        let array = AcceleratorArray::heterogeneous_tpu(1, 1);
        let tree = GroupTree::bisect(&array, 1).unwrap();
        let sim = Simulator::new(SimConfig::default());

        let equal = sim.simulate(&view, &dp_plan(n, 1), &tree, None).unwrap();
        // v2 gets 30% (its compute share), v3 gets 70%.
        let tilted = PlanTree::leaf(NetworkPlan::uniform(
            n,
            LayerPlan::new(PartitionType::TypeI, Ratio::new(0.3).unwrap()),
        ));
        let better = sim.simulate(&view, &tilted, &tree, None).unwrap();
        assert!(better.total_secs < equal.total_secs);
        // With the tilt matching the compute shares, per-phase compute is
        // balanced and strictly faster than the equal split, where the
        // v2 board is the straggler.
        assert!(better.compute_secs < equal.compute_secs);
    }

    #[test]
    fn free_conversions_cost_nothing() {
        // II -> III conversions are free (Table 5).
        let view = fc_view(64, &[128, 128, 128]);
        let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(2), 1).unwrap();
        let sim = Simulator::new(SimConfig::default());
        let plan = PlanTree::leaf(NetworkPlan::new(vec![
            LayerPlan::new(PartitionType::TypeII, Ratio::EQUAL),
            LayerPlan::new(PartitionType::TypeIII, Ratio::EQUAL),
        ]));
        let report = sim.simulate(&view, &plan, &tree, None).unwrap();
        assert_eq!(report.conversion_secs, 0.0);
        // Psum traffic exists for both types though.
        assert!(report.psum_secs > 0.0);
    }

    #[test]
    fn compute_time_is_invariant_under_deeper_bisection() {
        // On a homogeneous array with equal data-parallel splits,
        // bisecting once into aggregate pairs or twice into single boards
        // yields identical compute makespans: a pair at 2× FLOPS doing
        // 2× the shard equals one board doing its own shard. Only
        // communication differs between hierarchy depths.
        let view = fc_view(512, &[1024, 1024]);
        let n = view.weighted_len();
        let sim = Simulator::new(SimConfig {
            mem_model: MemModel::ComputeOnly,
            ..SimConfig::default()
        });
        let a4 = AcceleratorArray::homogeneous_tpu_v3(4);
        let t1 = GroupTree::bisect(&a4, 1).unwrap();
        let t2 = GroupTree::bisect(&a4, 2).unwrap();
        let r1 = sim.simulate(&view, &dp_plan(n, 1), &t1, None).unwrap();
        let r2 = sim.simulate(&view, &dp_plan(n, 2), &t2, None).unwrap();
        assert!(
            (r2.compute_secs - r1.compute_secs).abs() / r2.compute_secs < 1e-9,
            "{} vs {}",
            r2.compute_secs,
            r1.compute_secs
        );
        // The deeper hierarchy adds a second level of psum exchanges.
        assert!(r2.psum_secs > r1.psum_secs);
    }

    #[test]
    fn asymmetric_plan_trees_are_honored() {
        // Different sub-plans inside the two halves: Type-II inside the
        // left half, Type-III inside the right. Both are exercised.
        let view = fc_view(64, &[128, 128]);
        let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(4), 2).unwrap();
        let top = NetworkPlan::uniform(1, LayerPlan::data_parallel());
        let left = NetworkPlan::uniform(1, LayerPlan::new(PartitionType::TypeII, Ratio::EQUAL));
        let right = NetworkPlan::uniform(1, LayerPlan::new(PartitionType::TypeIII, Ratio::EQUAL));
        let plan = PlanTree::branch(top, PlanTree::leaf(left), PlanTree::leaf(right));
        let report = Simulator::default().simulate(&view, &plan, &tree, None).unwrap();
        assert!(report.total_secs > 0.0);
        // Compare with a uniform Type-II inner plan: costs differ because
        // Type-II and Type-III psum different tensors (F_{l+1} vs E_l)
        // of different sizes would be equal here (128 = 128)… so compare
        // against an inner Type-I plan instead, whose psum tensor (the
        // weight) is much larger.
        let inner_i = NetworkPlan::uniform(1, LayerPlan::data_parallel());
        let uniform = PlanTree::branch(
            NetworkPlan::uniform(1, LayerPlan::data_parallel()),
            PlanTree::leaf(inner_i.clone()),
            PlanTree::leaf(inner_i),
        );
        let report_i = Simulator::default().simulate(&view, &uniform, &tree, None).unwrap();
        assert!(report.psum_secs != report_i.psum_secs);
    }

    #[test]
    fn faulted_step_is_deterministic_and_slower() {
        let view = fc_view(128, &[512, 512, 512]);
        let n = view.weighted_len();
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        let tree = GroupTree::bisect(&array, 2).unwrap();
        let plan = dp_plan(n, 2);
        // Compute-only pricing so the straggler's lost FLOP/s is visible
        // (FC shards on Table 7 hardware are memory-bound under the
        // roofline model, where a compute slowdown can hide entirely).
        let sim = Simulator::new(SimConfig {
            mem_model: MemModel::ComputeOnly,
            ..SimConfig::default()
        });
        let clean = sim.simulate(&view, &plan, &tree, None).unwrap();

        // One TPU-v2 leaf at half compute, one cut at quarter bandwidth —
        // the acceptance scenario of the robustness issue.
        let faults = FaultModel::with_seed(42)
            .slow_leaf(0, 0.5)
            .unwrap()
            .degrade_cut(1, 0.25)
            .unwrap();
        let a = sim.simulate(&view, &plan, &tree, Some(&faults)).unwrap();
        let b = sim.simulate(&view, &plan, &tree, Some(&faults)).unwrap();
        assert_eq!(a, b, "seeded fault scenario must be bit-reproducible");
        assert!(a.total_secs > clean.total_secs);
        assert!(a.compute_secs > clean.compute_secs);
        assert!(a.psum_secs > clean.psum_secs);

        // An empty fault model is a no-op.
        let none = sim
            .simulate(&view, &plan, &tree, Some(&FaultModel::new()))
            .unwrap();
        assert_eq!(none, clean);
    }

    #[test]
    fn faulted_equals_simulating_the_degraded_tree() {
        let view = fc_view(64, &[256, 256]);
        let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(4), 2).unwrap();
        let plan = dp_plan(view.weighted_len(), 2);
        let faults = FaultModel::new()
            .slow_leaf(2, 0.7)
            .unwrap()
            .degrade_cut(0, 0.5)
            .unwrap();
        let sim = Simulator::default();
        let faulted = sim.simulate(&view, &plan, &tree, Some(&faults)).unwrap();
        let direct = sim
            .simulate(&view, &plan, &tree.degraded(&faults).unwrap(), None)
            .unwrap();
        assert_eq!(faulted, direct);
    }

    #[test]
    fn transient_stall_lengthens_step_without_busy_time() {
        let view = fc_view(64, &[256, 256]);
        let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(2), 1).unwrap();
        let plan = dp_plan(view.weighted_len(), 1);
        let sim = Simulator::default();
        let clean = sim.simulate(&view, &plan, &tree, None).unwrap();
        let stall = 1e-3;
        let faults = FaultModel::new().stall_leaf(0, stall).unwrap();
        let stalled = sim.simulate(&view, &plan, &tree, Some(&faults)).unwrap();
        assert!((stalled.total_secs - clean.total_secs - stall).abs() < 1e-12);
        assert_eq!(stalled.leaf_busy_secs, clean.leaf_busy_secs);
        assert!(stalled.mean_utilization() < clean.mean_utilization());
    }

    #[test]
    fn fault_validation_errors() {
        let view = fc_view(8, &[4, 4]);
        let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(2), 1).unwrap();
        let plan = dp_plan(view.weighted_len(), 1);
        let sim = Simulator::default();
        let err = sim
            .simulate(&view, &plan, &tree, Some(&FaultModel::new().slow_leaf(9, 0.5).unwrap()))
            .unwrap_err();
        assert_eq!(err, SimError::FaultLeafOutOfRange { leaf: 9, leaves: 2 });
        let err = sim
            .simulate(&view, &plan, &tree, Some(&FaultModel::new().degrade_cut(1, 0.5).unwrap()))
            .unwrap_err();
        assert_eq!(err, SimError::FaultCutOutOfRange { cut: 1, cuts: 1 });
        let err = sim
            .simulate(&view, &plan, &tree, Some(&FaultModel::new().drop_leaf(1)))
            .unwrap_err();
        assert_eq!(err, SimError::DroppedLeaf { leaf: 1 });
    }

    #[test]
    fn update_phase_is_charged_when_enabled() {
        use crate::config::Optimizer;
        let view = fc_view(64, &[1024, 1024]);
        let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(2), 1).unwrap();
        let base = Simulator::default()
            .simulate(&view, &dp_plan(1, 1), &tree, None)
            .unwrap();
        assert_eq!(base.update_secs, 0.0);
        for (opt, worse) in [
            (Optimizer::Sgd, 1.0),
            (Optimizer::Momentum, 1.0),
            (Optimizer::Adam, 1.0),
        ] {
            let _ = worse;
            let with = Simulator::new(SimConfig {
                update: Some(opt),
                ..SimConfig::default()
            })
            .simulate(&view, &dp_plan(1, 1), &tree, None)
            .unwrap();
            assert!(with.update_secs > 0.0, "{opt}");
            assert!(
                (with.total_secs - base.total_secs - with.update_secs).abs() < 1e-15,
                "{opt}"
            );
        }
        // Heavier optimizers cost more.
        let t = |opt| {
            Simulator::new(SimConfig {
                update: Some(opt),
                ..SimConfig::default()
            })
            .simulate(&view, &dp_plan(1, 1), &tree, None)
            .unwrap()
            .update_secs
        };
        assert!(t(Optimizer::Adam) > t(Optimizer::Sgd));
    }

    #[test]
    fn report_accessors() {
        let view = fc_view(64, &[128, 256]);
        let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(2), 1).unwrap();
        let report = Simulator::default()
            .simulate(&view, &dp_plan(1, 1), &tree, None)
            .unwrap();
        assert!(report.steps_per_sec().is_some_and(|s| s > 0.0));
        assert_eq!(SimReport { total_secs: 0.0, ..report.clone() }.steps_per_sec(), None);
        assert!(report.mean_utilization() > 0.0 && report.mean_utilization() <= 1.0);
        assert!(report.comm_fraction() >= 0.0 && report.comm_fraction() < 1.0);
        assert!(report.to_string().contains("step"));
        let total_from_layers: f64 = report.per_layer.iter().map(LayerBreakdown::total).sum();
        assert!((total_from_layers - report.total_secs).abs() < 1e-12);
    }
}
