use crate::config::SimConfig;
use crate::error::SimError;
use crate::geometry::{validate, ClassTable, CutClass, EdgeIndex};
use crate::machine::segments_secs;
use crate::trace::phase_segments;
use accpar_cost::comm::{attn_stage_elems, inter_conversion_split, intra_psum_elems};
use accpar_dnn::{TrainEdge, TrainLayer, TrainView};
use accpar_hw::{FaultModel, GroupTree};
use accpar_obs::Obs;
use accpar_partition::{Phase, PlanTree};
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
/// Each layer and phase is priced once per class of the step's class
/// table: leaves with equal caps, stall windows and shard scales in
/// every layer are priced once, and so are cuts with equal links, plan
/// node and scales — the halves of a [`PlanTree::twin`] over hardware
/// that prices alike, and the subtrees beside a fault. The report is
/// bit-identical to pricing every node and leaf.
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
    /// degradations are folded in as [`GroupTree::degraded`] folds them
    /// (without building the degraded tree), and each
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
        if let Some(faults) = faults {
            crate::faults::validate(tree, faults)?;
            if self.obs.enabled() {
                self.obs
                    .counter("sim.fault_activations")
                    .add(faults.faults().len() as u64);
            }
        }
        let n_layers = view.weighted_len();
        validate(plan, tree, n_layers)?;
        let span = self.obs.span(
            "sim.step",
            &[
                ("layers", n_layers.into()),
                ("levels", tree.levels().into()),
                ("faulted", faults.is_some().into()),
            ],
        );
        let _step_timer = self.obs.timer("sim.step_ns");

        let mut layers: Vec<&TrainLayer> = view.layers().collect();
        layers.sort_by_key(|l| l.index());
        let edges = EdgeIndex::new(view);

        let table = ClassTable::new(tree, plan, n_layers, faults);
        // Each leaf class's busy time: its phases' prices in phase order.
        let mut busy = vec![0.0; table.leaves.len()];

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
                let conv = self.conversion_secs(edges.consumed_by(l), &table, Phase::Forward);
                report.per_layer[l].conversion_secs += conv;
                report.conversion_secs += conv;
            }
            self.run_phase(layer, &table, Phase::Forward, l, l == 0, &mut busy, &mut report);
        }
        // Backward + gradient sweep.
        for l in (0..n_layers).rev() {
            let skip_backward = self.config.skip_first_backward && l == 0;
            if self.config.interlayer {
                let conv = self.conversion_secs(edges.produced_by(l), &table, Phase::Backward);
                report.per_layer[l].conversion_secs += conv;
                report.conversion_secs += conv;
            }
            if !skip_backward {
                self.run_phase(layers[l], &table, Phase::Backward, l, false, &mut busy, &mut report);
            }
            self.run_phase(layers[l], &table, Phase::Gradient, l, false, &mut busy, &mut report);
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
            for (leaf, busy) in table.leaves.iter().zip(&mut busy) {
                let mut elems = 0.0;
                for (l, layer) in layers.iter().enumerate() {
                    let scales = table.scales(leaf.lineage, l);
                    elems += layer.weight().size() as f64 * scales.weight;
                }
                let caps = leaf.caps;
                let compute =
                    elems * optimizer.update_flops_per_param() as f64 / caps.flops;
                let mem = elems * accesses * bytes_per_elem / caps.mem_bw;
                let secs = match self.config.mem_model {
                    crate::config::MemModel::Roofline => compute.max(mem),
                    crate::config::MemModel::Serial => compute + mem,
                    crate::config::MemModel::ComputeOnly => compute,
                };
                *busy += secs;
                makespan = makespan.max(secs);
            }
            report.update_secs = makespan;
        }
        report.leaf_busy_secs = table.per_leaf(&busy);

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
    /// leaf classes' busy times. `stalled` (set only for the step's
    /// first phase) delays each leaf by its stall window without
    /// counting as busy time.
    #[allow(clippy::too_many_arguments)]
    fn run_phase(
        &self,
        layer: &TrainLayer,
        table: &ClassTable,
        phase: Phase,
        l: usize,
        stalled: bool,
        busy: &mut [f64],
        report: &mut SimReport,
    ) {
        // Bulk-synchronous compute: the phase ends when the slowest leaf
        // finishes its shard; the max over the leaf classes is the max
        // over every leaf.
        let mut makespan: f64 = 0.0;
        for (leaf, busy) in table.leaves.iter().zip(busy) {
            let segs = phase_segments(layer, phase, table.scales(leaf.lineage, l));
            let t = segments_secs(&segs, &leaf.caps, &self.config);
            let stall = if stalled { leaf.stall } else { 0.0 };
            makespan = makespan.max(t + stall);
            *busy += t;
        }
        report.compute_secs += makespan;
        report.per_layer[l].compute_secs += makespan;

        // Partial-sum exchanges, deepest level first: partial results
        // combine bottom-up. Cuts at the same depth exchange
        // concurrently.
        for depth in (0..table.depths()).rev() {
            let mut level_secs: f64 = 0.0;
            for cut in table.level(depth).1 {
                if let Some(t) = psum_secs(&self.config, layer, table, cut, phase, l) {
                    level_secs = level_secs.max(t);
                }
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
        table: &ClassTable,
        phase: Phase,
    ) -> f64 {
        let mut total = 0.0;
        for edge in edges {
            for depth in 0..table.depths() {
                let mut level_secs: f64 = 0.0;
                for cut in table.level(depth).1 {
                    level_secs =
                        level_secs.max(conversion_secs(&self.config, edge, table, cut, phase));
                }
                total += level_secs;
            }
        }
        total
    }
}

/// One cut's partial-sum exchange in layer `l`'s `phase`, `None` when it
/// moves nothing; shared by both simulators. Each forward phase
/// additionally carries the attention-stage K/V exchange of a lowered
/// `o` projection (each side sends its own token slice, so the sides
/// scale by their respective input-feature shares).
pub(crate) fn psum_secs(
    config: &SimConfig,
    layer: &TrainLayer,
    table: &ClassTable,
    cut: &CutClass,
    phase: Phase,
    l: usize,
) -> Option<f64> {
    let entry = cut.plan.layer(l);
    let scales = table.scales(cut.lineage, l);
    let psum = if entry.ptype.psum_phase() == phase {
        intra_psum_elems(entry.ptype, layer) as f64 * scales.psum_scale(entry.ptype)
    } else {
        0.0
    };
    let (stage_a, stage_b) = if phase == Phase::Forward {
        let full = attn_stage_elems(entry.ptype, layer) as f64;
        let alpha = entry.ratio.value();
        (
            full * scales.shrink(entry.ptype, alpha).f_in,
            full * scales.shrink(entry.ptype, 1.0 - alpha).f_in,
        )
    } else {
        (0.0, 0.0)
    };
    if psum == 0.0 && stage_a == 0.0 && stage_b == 0.0 {
        return None;
    }
    Some(
        (config.format.bytes_f64(psum + stage_a) / cut.link_a)
            .max(config.format.bytes_f64(psum + stage_b) / cut.link_b),
    )
}

/// One cut's share of converting `edge`'s boundary tensor before the
/// consumer's forward phase (`F`) or the producer's backward phase
/// (`E`); shared by both simulators. The boundary tensor's shard scale
/// follows the *consumer*'s input feature map (an approximation when the
/// two layers' types disagree; documented in DESIGN.md).
pub(crate) fn conversion_secs(
    config: &SimConfig,
    edge: &TrainEdge,
    table: &ClassTable,
    cut: &CutClass,
    phase: Phase,
) -> f64 {
    let prev = cut.plan.layer(edge.from);
    let next = cut.plan.layer(edge.to);
    let scales = table.scales(cut.lineage, edge.to);
    let boundary = (edge.boundary_elems as f64 * scales.f_in).round() as u64;
    let (f, e) = inter_conversion_split(
        prev.ptype,
        prev.ratio.value(),
        next.ptype,
        next.ratio.value(),
        boundary,
        boundary,
    );
    let (a_elems, b_elems) = if phase == Phase::Forward { f } else { e };
    (config.format.bytes_f64(a_elems) / cut.link_a)
        .max(config.format.bytes_f64(b_elems) / cut.link_b)
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
