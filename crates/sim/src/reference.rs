//! The bulk-synchronous engine as it was before twin-aware pricing, kept
//! as the differential reference: it walks every node and leaf of every
//! layer, scans every node at every depth and every conversion edge for
//! every layer, and reuses a neighbour's price only when it sits next
//! to an identical one. [`Simulator`](crate::Simulator) must produce
//! bit-identical reports; `tests/bsp_identity.rs` asserts it.

use crate::config::SimConfig;
use crate::error::SimError;
use crate::geometry::{layer_geom, LayerGeom};
use crate::machine::segments_secs;
use crate::simulator::{LayerBreakdown, SimReport};
use crate::trace::phase_segments;
use accpar_cost::comm::{attn_stage_elems, inter_conversion_split, intra_psum_elems};
use accpar_dnn::{TrainEdge, TrainLayer, TrainView};
use accpar_hw::{FaultModel, GroupCaps, GroupTree};
use accpar_partition::{LayerPlan, Phase, PlanTree, ShardScales};

/// The reference implementation of
/// [`Simulator::simulate`](crate::Simulator::simulate), untraced — test
/// reference only.
///
/// # Errors
///
/// As [`Simulator::simulate`](crate::Simulator::simulate).
#[doc(hidden)]
pub fn simulate_bsp_reference(
    config: &SimConfig,
    view: &TrainView,
    plan: &PlanTree,
    tree: &GroupTree,
    faults: Option<&FaultModel>,
) -> Result<SimReport, SimError> {
    match faults {
        None => simulate_with(config, view, plan, tree, None),
        Some(faults) => {
            let (degraded, stalls) = crate::faults::prepare(tree, faults)?;
            simulate_with(config, view, plan, &degraded, Some(&stalls))
        }
    }
}

fn simulate_with(
    config: &SimConfig,
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

    let mut layers: Vec<&TrainLayer> = view.layers().collect();
    layers.sort_by_key(|l| l.index());
    let edges = view.conversion_edges();

    // Per-layer geometry (shard scales at every node and leaf).
    let depth = plan.depth();
    let geoms: Vec<LayerGeom> = (0..n_layers)
        .map(|l| layer_geom(tree.root(), plan, depth, l))
        .collect();
    let n_leaves = geoms.first().map_or(1, |g| g.leaves.len());

    let mut report = SimReport {
        total_secs: 0.0,
        compute_secs: 0.0,
        psum_secs: 0.0,
        conversion_secs: 0.0,
        update_secs: 0.0,
        per_layer: vec![LayerBreakdown::default(); n_layers],
        leaf_busy_secs: vec![0.0; n_leaves],
    };

    // Forward sweep. Transient stall windows delay each leaf at the
    // start of the step, i.e. during the first forward phase.
    for l in 0..n_layers {
        if config.interlayer {
            let conv = conversion_secs(config, &edges, &geoms, l, Phase::Forward);
            report.per_layer[l].conversion_secs += conv;
            report.conversion_secs += conv;
        }
        let phase_stalls = if l == 0 { stalls } else { None };
        run_phase(
            config,
            layers[l],
            &geoms[l],
            Phase::Forward,
            l,
            phase_stalls,
            &mut report,
        );
    }
    // Backward + gradient sweep.
    for l in (0..n_layers).rev() {
        let skip_backward = config.skip_first_backward && l == 0;
        if config.interlayer {
            let conv = conversion_secs(config, &edges, &geoms, l, Phase::Backward);
            report.per_layer[l].conversion_secs += conv;
            report.conversion_secs += conv;
        }
        if !skip_backward {
            run_phase(
                config,
                layers[l],
                &geoms[l],
                Phase::Backward,
                l,
                None,
                &mut report,
            );
        }
        run_phase(
            config,
            layers[l],
            &geoms[l],
            Phase::Gradient,
            l,
            None,
            &mut report,
        );
    }

    // Optional optimizer update phase.
    if let Some(optimizer) = config.update {
        let mut makespan: f64 = 0.0;
        let bytes_per_elem = config.format.bytes_per_element() as f64;
        let accesses = 3.0 + 2.0 * optimizer.state_copies() as f64;
        for idx in 0..n_leaves {
            let mut elems = 0.0;
            for (l, layer) in layers.iter().enumerate() {
                let (_, scales) = geoms[l].leaves[idx];
                elems += layer.weight().size() as f64 * scales.weight;
            }
            let (caps, _) = geoms.first().expect("layers exist").leaves[idx];
            let compute = elems * optimizer.update_flops_per_param() as f64 / caps.flops;
            let mem = elems * accesses * bytes_per_elem / caps.mem_bw;
            let secs = match config.mem_model {
                crate::config::MemModel::Roofline => compute.max(mem),
                crate::config::MemModel::Serial => compute + mem,
                crate::config::MemModel::ComputeOnly => compute,
            };
            report.leaf_busy_secs[idx] += secs;
            makespan = makespan.max(secs);
        }
        report.update_secs = makespan;
    }

    report.total_secs =
        report.compute_secs + report.psum_secs + report.conversion_secs + report.update_secs;
    Ok(report)
}

/// Compute + psum of one phase, accumulated into the report.
fn run_phase(
    config: &SimConfig,
    layer: &TrainLayer,
    geom: &LayerGeom,
    phase: Phase,
    l: usize,
    stalls: Option<&[f64]>,
    report: &mut SimReport,
) {
    // Bulk-synchronous compute; the previous leaf's time is reused when
    // its (caps, scales) pair is identical.
    let mut makespan: f64 = 0.0;
    let mut prev: Option<(&GroupCaps, &ShardScales, f64)> = None;
    for (idx, (caps, scales)) in geom.leaves.iter().enumerate() {
        let secs = match prev {
            Some((c, s, v)) if c == caps && s == scales => v,
            _ => {
                let segs = phase_segments(layer, phase, *scales);
                segments_secs(&segs, caps, config)
            }
        };
        prev = Some((caps, scales, secs));
        let stall = stalls.map_or(0.0, |s| s.get(idx).copied().unwrap_or(0.0));
        report.leaf_busy_secs[idx] += secs;
        makespan = makespan.max(secs + stall);
    }
    report.compute_secs += makespan;
    report.per_layer[l].compute_secs += makespan;

    // Partial-sum exchanges, deepest level first.
    let max_depth = geom.nodes.iter().map(|n| n.depth).max();
    if let Some(max_depth) = max_depth {
        for depth in (0..=max_depth).rev() {
            let mut level_secs: f64 = 0.0;
            for node in geom.nodes.iter().filter(|n| n.depth == depth) {
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
                let t = (config.format.bytes_f64(psum + stage_a) / node.link_a)
                    .max(config.format.bytes_f64(psum + stage_b) / node.link_b);
                level_secs = level_secs.max(t);
            }
            report.psum_secs += level_secs;
            report.per_layer[l].psum_secs += level_secs;
        }
    }
}

/// Inter-layer conversion time charged when layer `l` begins `phase`,
/// scanning every edge.
fn conversion_secs(
    config: &SimConfig,
    edges: &[TrainEdge],
    geoms: &[LayerGeom],
    l: usize,
    phase: Phase,
) -> f64 {
    let mut total = 0.0;
    for edge in edges {
        let forward = phase == Phase::Forward && edge.to == l;
        let backward = phase == Phase::Backward && edge.from == l;
        if !forward && !backward {
            continue;
        }
        let consumer_geom = &geoms[edge.to];
        let max_depth = consumer_geom.nodes.iter().map(|n| n.depth).max();
        let Some(max_depth) = max_depth else {
            continue;
        };
        for depth in 0..=max_depth {
            let mut level_secs: f64 = 0.0;
            // The previous node's time is reused when every pricing
            // input is identical.
            let mut memo: Option<(LayerPlan, LayerPlan, u64, f64, f64, f64)> = None;
            for node in consumer_geom.nodes.iter().filter(|n| n.depth == depth) {
                let prev = node.plan.layer(edge.from);
                let next = node.plan.layer(edge.to);
                let boundary = (edge.boundary_elems as f64 * node.scales.f_in).round() as u64;
                let t = match memo {
                    Some((p, n, b, la, lb, v))
                        if p == prev
                            && n == next
                            && b == boundary
                            && la == node.link_a
                            && lb == node.link_b =>
                    {
                        v
                    }
                    _ => {
                        let (f, e) = inter_conversion_split(
                            prev.ptype,
                            prev.ratio.value(),
                            next.ptype,
                            next.ratio.value(),
                            boundary,
                            boundary,
                        );
                        let (a_elems, b_elems) = if forward { f } else { e };
                        (config.format.bytes_f64(a_elems) / node.link_a)
                            .max(config.format.bytes_f64(b_elems) / node.link_b)
                    }
                };
                memo = Some((prev, next, boundary, node.link_a, node.link_b, t));
                level_secs = level_secs.max(t);
            }
            total += level_secs;
        }
    }
    total
}

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
        validate_layer_counts(b, n_layers, level + 1)?;
    }
    Ok(())
}
