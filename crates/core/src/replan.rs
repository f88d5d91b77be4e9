//! Graceful degradation: re-run the layer-wise search against faulted
//! hardware and report how the plan (and its cost) shifts.
//!
//! Given a plan produced for the healthy array and a [`FaultModel`], a
//! replan folds the rate faults into a degraded [`GroupTree`], re-runs
//! AccPar's dynamic program — the same search, under the same request's
//! knobs, that the healthy planner runs — against the degraded
//! capabilities, and adopts the new plan only when it simulates at least
//! as fast as the old plan on the *same* degraded hardware — the
//! replanner never makes things worse.
//!
//! Every replan takes one path. [`Planner::replan`](crate::Planner::replan)
//! runs it under the planner's request and adds the per-fault
//! [`sensitivity`](ReplanOutcome::sensitivity) sweep. A faulted
//! [`PlanRequest`](crate::PlanRequest) and a
//! [`Supervisor`](crate::Supervisor) run it without the sweep and pass
//! the healthy step time they already know, so a replan simulates only
//! the stale and the fresh plan. The free functions [`replan`](fn@replan)
//! and [`replan_with`] forward to the same path with a default request.
//!
//! Dropout changes the tree's shape: the dropped leaves' boards are
//! removed ([`GroupTree::without_leaves`]) and the search runs on the
//! reduced array. Leaf-targeted faults are carried over by board
//! identity; cut-targeted faults cannot survive a re-bisection (the cut
//! numbering belongs to the old shape) and are reported in
//! [`ReplanOutcome::discarded`].

use crate::error::PlanError;
use crate::memo::SearchCache;
use crate::planner::Knobs;
use accpar_dnn::TrainView;
use accpar_hw::{AcceleratorArray, Fault, FaultKind, FaultModel, FaultTarget, GroupTree};
use accpar_obs::Obs;
use accpar_partition::{LayerPlan, PlanTree};
use accpar_runtime::{Budget, Pool};
use accpar_sim::SimReport;
use std::fmt;

/// Configuration of the free [`replan`](fn@replan) / [`replan_with`]
/// forwards, which replan under a default
/// [`PlanRequest`](crate::PlanRequest). To replan under any other knobs,
/// build a [`Planner`](crate::Planner) and call
/// [`Planner::replan`](crate::Planner::replan).
#[derive(Debug, Clone)]
pub struct ReplanConfig {
    /// Compute [`ReplanOutcome::sensitivity`] (one extra simulation — or,
    /// for dropout, one extra replan — per injected fault).
    pub sensitivity: bool,
    /// Thread budget for the degraded search and the sensitivity sweep
    /// (`None`: the `ACCPAR_THREADS` environment variable, falling back
    /// to the machine's available parallelism). Results are
    /// budget-independent.
    pub threads: Option<usize>,
}

impl Default for ReplanConfig {
    fn default() -> Self {
        Self {
            sensitivity: true,
            threads: None,
        }
    }
}

/// One per-layer difference between the old and the adopted plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanDelta {
    /// Pre-order index of the plan-tree node the entry lives in.
    pub node: usize,
    /// Weighted-layer index.
    pub layer: usize,
    /// The healthy plan's entry.
    pub old: LayerPlan,
    /// The adopted plan's entry.
    pub new: LayerPlan,
}

impl fmt::Display for PlanDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {} layer {}: {} -> {}",
            self.node, self.layer, self.old, self.new
        )
    }
}

/// How much one fault alone slows the original plan down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultImpact {
    /// The injected fault.
    pub fault: Fault,
    /// Degraded step time over nominal step time (`>= 1` unless the
    /// fault is somehow beneficial; dropout impacts are measured after a
    /// solo replan, so they can be `< 1` on pathological inputs).
    pub slowdown: f64,
}

impl fmt::Display for FaultImpact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {:.3}x step time", self.fault, self.slowdown)
    }
}

/// The result of re-planning against faulted hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanOutcome {
    /// The adopted plan (the old plan when it was not beaten).
    pub plan: PlanTree,
    /// Whether the adopted plan differs from the old one.
    pub replanned: bool,
    /// The surviving array (a clone of the input unless leaves dropped).
    pub array: AcceleratorArray,
    /// The surviving healthy tree (rebuilt after dropout).
    pub tree: GroupTree,
    /// The effective fault model on the surviving tree (dropouts removed,
    /// leaf faults re-targeted by board identity).
    pub faults: FaultModel,
    /// Faults that could not be carried over to the surviving tree.
    pub discarded: Vec<Fault>,
    /// Step time of the old plan on the healthy hardware.
    pub nominal_secs: f64,
    /// Step time of the old plan on the degraded hardware — `None` when
    /// dropout made the old plan unrunnable.
    pub degraded_old_secs: Option<f64>,
    /// Step time of the adopted plan on the degraded hardware. Never
    /// greater than `degraded_old_secs` when that is `Some`.
    pub degraded_secs: f64,
    /// Whether the degraded search ran to DP optimality on every level.
    /// `false` when a budget stop (a supervisor's replan runs under its
    /// request's budget) forced some levels onto the data-parallel
    /// fallback.
    pub complete: bool,
    /// Layer-wise differences between the old and adopted plans (empty
    /// when the tree changed shape and entries are not comparable).
    pub deltas: Vec<PlanDelta>,
    /// Per-fault solo slowdowns of the original plan (empty unless the
    /// caller asked for them: [`Planner::replan`](crate::Planner::replan)
    /// does, the forwards do when [`ReplanConfig::sensitivity`] is set).
    pub sensitivity: Vec<FaultImpact>,
}

impl ReplanOutcome {
    /// Speedup of the adopted plan over the old plan on the degraded
    /// hardware (`None` when the old plan cannot run there).
    #[must_use]
    pub fn speedup(&self) -> Option<f64> {
        self.degraded_old_secs.map(|old| old / self.degraded_secs)
    }

    /// Slowdown of the degraded (adopted) step versus the nominal step.
    #[must_use]
    pub fn degradation(&self) -> f64 {
        if self.nominal_secs > 0.0 {
            self.degraded_secs / self.nominal_secs
        } else {
            1.0
        }
    }
}

impl fmt::Display for ReplanOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nominal {:.3} ms, degraded {:.3} ms ({:.2}x)",
            self.nominal_secs * 1e3,
            self.degraded_secs * 1e3,
            self.degradation()
        )?;
        match self.speedup() {
            Some(s) if self.replanned => write!(f, "; replanned, {s:.2}x over stale plan")?,
            Some(_) => write!(f, "; stale plan kept")?,
            None => write!(f, "; replanned after dropout")?,
        }
        if !self.discarded.is_empty() {
            write!(f, "; {} fault(s) discarded", self.discarded.len())?;
        }
        Ok(())
    }
}

/// Re-plans `plan` for `view` on the faulted version of `array`/`tree`
/// under a default [`PlanRequest`](crate::PlanRequest).
///
/// See the [module docs](self) for the algorithm. The adopted plan's
/// degraded step time is guaranteed to be at most the old plan's
/// degraded step time whenever the old plan can still run.
///
/// # Errors
///
/// Propagates search and simulation errors; [`PlanError::Hw`] with
/// [`HwError::EmptyArray`](accpar_hw::HwError::EmptyArray) when every
/// board dropped out; [`PlanError::ReplanInfeasible`] when the surviving
/// array cannot host a hierarchical plan at all.
pub fn replan(
    view: &TrainView,
    array: &AcceleratorArray,
    tree: &GroupTree,
    plan: &PlanTree,
    faults: &FaultModel,
    config: &ReplanConfig,
) -> Result<ReplanOutcome, PlanError> {
    replan_with(view, array, tree, plan, faults, config, None)
}

/// Like [`replan`], sharing an existing [`SearchCache`] with the
/// degraded search — typically the cache the healthy plan was built
/// with, so unchanged subtrees of the hierarchy resolve from the memo.
/// Degraded group capabilities differ bitwise from healthy ones, so
/// faulted levels can never alias cached healthy entries.
///
/// # Errors
///
/// See [`replan`].
pub fn replan_with(
    view: &TrainView,
    array: &AcceleratorArray,
    tree: &GroupTree,
    plan: &PlanTree,
    faults: &FaultModel,
    config: &ReplanConfig,
    cache: Option<&SearchCache>,
) -> Result<ReplanOutcome, PlanError> {
    let replan = Replan {
        knobs: &Knobs::default(),
        view,
        array,
        tree,
        memo: cache,
        pool: config.threads.map_or_else(Pool::from_env, Pool::new),
        budget: Budget::unlimited(),
    };
    replan
        .run(plan, faults, None, config.sensitivity)
        .map(|(outcome, _)| outcome)
}

/// One replan's inputs, borrowed from the planner, supervisor or
/// forward that runs it: a request's knobs over the healthy tree.
#[derive(Clone)]
pub(crate) struct Replan<'r> {
    pub(crate) knobs: &'r Knobs,
    pub(crate) view: &'r TrainView,
    pub(crate) array: &'r AcceleratorArray,
    pub(crate) tree: &'r GroupTree,
    pub(crate) memo: Option<&'r SearchCache>,
    pub(crate) pool: Pool,
    /// Charged by the degraded search; a stop is not an error.
    pub(crate) budget: Budget,
}

impl Replan<'_> {
    /// The one replan path: re-plans `plan` for `faults` and returns the
    /// outcome with the adopted plan's simulation report. `nominal` is
    /// `plan`'s healthy step time when the caller knows it (otherwise
    /// one simulation measures it), and `with_sensitivity` asks for the
    /// per-fault sweep. Reports to the knobs' observability handle.
    pub(crate) fn run(
        &self,
        plan: &PlanTree,
        faults: &FaultModel,
        nominal: Option<f64>,
        with_sensitivity: bool,
    ) -> Result<(ReplanOutcome, SimReport), PlanError> {
        let Replan { knobs, view, tree, .. } = *self;
        let obs = &knobs.obs;
        let span = obs.span(
            "replan",
            &[
                ("faults", faults.faults().len().into()),
                ("sensitivity", with_sensitivity.into()),
            ],
        );
        let sim = knobs.simulator();
        let nominal_secs = match nominal {
            Some(secs) => secs,
            None => sim.simulate(view, plan, tree, None)?.total_secs,
        };

        // Survive dropout: remove dropped boards and carry the remaining
        // faults over to the rebuilt tree.
        let dropped = faults.dropped_leaves();
        let (surv_array, surv_tree, eff_faults, discarded) = survive(self.array, tree, faults)?;

        let stale = if dropped.is_empty() {
            Some(sim.simulate(view, plan, &surv_tree, Some(&eff_faults))?)
        } else {
            None
        };
        let degraded_old_secs = stale.as_ref().map(|r| r.total_secs);

        // Re-run the layer-wise DP against the degraded capabilities.
        let degraded_tree = surv_tree.degraded(&eff_faults).map_err(PlanError::Hw)?;
        let (candidate, report) = knobs.search(
            view,
            degraded_tree.root(),
            self.pool,
            self.memo,
            &self.budget,
            span.id(),
        )?;
        let candidate = candidate.ok_or_else(|| {
            PlanError::ReplanInfeasible(
                "the surviving array cannot be bisected into a hierarchy".into(),
            )
        })?;
        let fresh = sim.simulate(view, &candidate, &surv_tree, Some(&eff_faults))?;

        // Never-worse guarantee: keep the stale plan unless the fresh search
        // actually beats it on the degraded hardware.
        let (adopted, adopted_report) = match stale {
            Some(old) if old.total_secs <= fresh.total_secs => (plan.clone(), old),
            _ => (candidate, fresh),
        };
        let degraded_secs = adopted_report.total_secs;
        let replanned = adopted != *plan;
        let deltas = diff_plans(plan, &adopted);

        let sensitivity = if with_sensitivity {
            // Each fault's solo impact is independent of the others: sweep
            // them with the pool. `par_map` keeps fault order, and every
            // nested dropout replan runs serially inside its worker, off
            // the record.
            let quiet = Knobs {
                obs: Obs::off(),
                ..knobs.clone()
            };
            let solo_replan = Replan {
                knobs: &quiet,
                pool: Pool::serial(),
                ..self.clone()
            };
            self.pool
                .par_map(faults.faults(), |_, fault| -> Result<FaultImpact, PlanError> {
                    let solo = FaultModel::with_seed(faults.seed()).push(*fault)?;
                    let secs = match fault.kind {
                        FaultKind::Dropout => {
                            solo_replan
                                .run(plan, &solo, Some(nominal_secs), false)?
                                .0
                                .degraded_secs
                        }
                        _ => sim.simulate(view, plan, tree, Some(&solo))?.total_secs,
                    };
                    let slowdown = if nominal_secs > 0.0 {
                        secs / nominal_secs
                    } else {
                        1.0
                    };
                    Ok(FaultImpact {
                        fault: *fault,
                        slowdown,
                    })
                })
                .into_iter()
                .collect::<Result<Vec<_>, _>>()?
        } else {
            Vec::new()
        };

        let outcome = ReplanOutcome {
            plan: adopted,
            replanned,
            array: surv_array,
            tree: surv_tree,
            faults: eff_faults,
            discarded,
            nominal_secs,
            degraded_old_secs,
            degraded_secs,
            complete: report.is_complete(),
            deltas,
            sensitivity,
        };
        if obs.enabled() {
            obs.counter("replan.runs").inc();
            if outcome.replanned {
                obs.counter("replan.adopted").inc();
            }
            obs.counter("replan.deltas").add(outcome.deltas.len() as u64);
            obs.counter("replan.discarded_faults")
                .add(outcome.discarded.len() as u64);
            obs.gauge("replan.degradation").set(outcome.degradation());
            span.event(
                "replan.outcome",
                &[
                    ("replanned", outcome.replanned.into()),
                    ("deltas", outcome.deltas.len().into()),
                    ("nominal_ms", (outcome.nominal_secs * 1e3).into()),
                    ("degraded_ms", (outcome.degraded_secs * 1e3).into()),
                    (
                        "speedup",
                        outcome.speedup().unwrap_or(f64::NAN).into(),
                    ),
                ],
            );
        }
        Ok((outcome, adopted_report))
    }
}

/// Folds dropout out of a fault model: removes the dropped boards from
/// the array/tree and carries the remaining faults over to the rebuilt
/// shape. With no dropout this is a plain clone. Returns the surviving
/// array, tree, effective faults, and the faults discarded because they
/// could not be re-targeted.
pub(crate) fn survive(
    array: &AcceleratorArray,
    tree: &GroupTree,
    faults: &FaultModel,
) -> Result<(AcceleratorArray, GroupTree, FaultModel, Vec<Fault>), PlanError> {
    let dropped = faults.dropped_leaves();
    if dropped.is_empty() {
        return Ok((array.clone(), tree.clone(), faults.clone(), Vec::new()));
    }
    let (reduced, rebuilt) = tree.without_leaves(array, &dropped)?;
    let (eff, discarded) = carry_over(tree, &rebuilt, faults, &dropped)?;
    Ok((reduced, rebuilt, eff, discarded))
}

/// Carries the non-dropout faults of `faults` over from `old` to the
/// rebuilt `new` tree. Leaf faults follow their board: the fault lands
/// on whichever new leaf owns the old leaf's first board. Faults on
/// dropped leaves and all cut faults (the pre-order numbering died with
/// the old shape) are returned as discarded.
fn carry_over(
    old: &GroupTree,
    new: &GroupTree,
    faults: &FaultModel,
    dropped: &[usize],
) -> Result<(FaultModel, Vec<Fault>), PlanError> {
    let old_leaves: Vec<_> = old.root().leaves().collect();
    let dropped_boards: Vec<usize> = dropped
        .iter()
        .flat_map(|&l| old_leaves[l].group().shares().iter().map(|s| s.board))
        .collect();
    let mut eff = FaultModel::with_seed(faults.seed());
    let mut discarded = Vec::new();
    for fault in faults.faults() {
        let carried = match fault.target {
            FaultTarget::Leaf(leaf) if !dropped.contains(&leaf) => {
                old_leaves
                    .get(leaf)
                    .and_then(|node| node.group().shares().first())
                    .and_then(|share| {
                        // The board's index in the reduced array: shifted
                        // down by the dropped boards numbered below it.
                        let below = dropped_boards.iter().filter(|&&b| b < share.board).count();
                        leaf_of_board(new, share.board - below)
                    })
                    .map(|new_leaf| Fault {
                        target: FaultTarget::Leaf(new_leaf),
                        kind: fault.kind,
                    })
            }
            FaultTarget::Leaf(_) | FaultTarget::Cut(_) => None,
        };
        match carried {
            Some(f) if !matches!(f.kind, FaultKind::Dropout) => {
                eff = eff.push(f)?;
            }
            _ => discarded.push(*fault),
        }
    }
    Ok((eff, discarded))
}

/// The leaf index (left to right) owning `board` in `tree`.
fn leaf_of_board(tree: &GroupTree, board: usize) -> Option<usize> {
    tree.root()
        .leaves()
        .position(|leaf| leaf.group().shares().iter().any(|s| s.board == board))
}

/// Layer-wise differences between two plan trees of the same shape
/// (pre-order over nodes). Trees of different shapes — e.g. after
/// dropout shrank the hierarchy — are not comparable entry by entry, so
/// only the common prefix of the structure is diffed.
fn diff_plans(old: &PlanTree, new: &PlanTree) -> Vec<PlanDelta> {
    fn rec(old: &PlanTree, new: &PlanTree, node: &mut usize, out: &mut Vec<PlanDelta>) {
        let idx = *node;
        *node += 1;
        for (layer, (o, n)) in old
            .plan()
            .layers()
            .iter()
            .zip(new.plan().layers())
            .enumerate()
        {
            if o.ptype != n.ptype || (o.ratio.value() - n.ratio.value()).abs() > 1e-12 {
                out.push(PlanDelta {
                    node: idx,
                    layer,
                    old: *o,
                    new: *n,
                });
            }
        }
        if let (Some((ol, or)), Some((nl, nr))) = (old.children(), new.children()) {
            rec(ol, nl, node, out);
            rec(or, nr, node, out);
        }
    }
    let mut out = Vec::new();
    rec(old, new, &mut 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Planner, Strategy};
    use accpar_dnn::zoo;
    use accpar_hw::HwError;

    /// LeNet planned on hetero `v2`+`v3` at depth `levels`, then
    /// replanned against `faults` by the same planner; returns the
    /// healthy plan beside the outcome.
    fn replanned(
        v2: usize,
        v3: usize,
        levels: usize,
        faults: &FaultModel,
    ) -> Result<(PlanTree, ReplanOutcome), PlanError> {
        let net = zoo::lenet(256).unwrap();
        let array = AcceleratorArray::heterogeneous_tpu(v2, v3);
        let planner = Planner::builder(&net, &array).levels(levels).build()?;
        let planned = planner.plan(Strategy::AccPar)?;
        let outcome = planner.replan(&planned, faults)?;
        Ok((planned.plan().clone(), outcome))
    }

    #[test]
    fn replan_never_worse_under_straggler_and_link_faults() {
        // The acceptance scenario: one TPU-v2 leaf at half compute, one
        // cut at quarter bandwidth.
        let faults = FaultModel::with_seed(7)
            .slow_leaf(0, 0.5)
            .unwrap()
            .degrade_cut(1, 0.25)
            .unwrap();
        let (_, outcome) = replanned(2, 2, 2, &faults).unwrap();
        let old = outcome.degraded_old_secs.unwrap();
        assert!(
            outcome.degraded_secs <= old * (1.0 + 1e-12),
            "replanned {} vs stale {}",
            outcome.degraded_secs,
            old
        );
        // The stale plan on strictly weaker hardware is at least as slow
        // as on healthy hardware (the adopted plan may beat the nominal
        // time though — the search optimizes the model, not the sim).
        assert!(old >= outcome.nominal_secs * (1.0 - 1e-12));
        assert_eq!(outcome.sensitivity.len(), 2);
        for impact in &outcome.sensitivity {
            assert!(impact.slowdown >= 1.0 - 1e-12, "{impact}");
        }
        assert_eq!(outcome.replanned, !outcome.deltas.is_empty());
        // Determinism: the whole pipeline is seeded and analytic.
        let (_, again) = replanned(2, 2, 2, &faults).unwrap();
        assert_eq!(outcome, again);
    }

    #[test]
    fn replan_with_no_faults_keeps_the_plan() {
        let (plan, outcome) = replanned(1, 1, 1, &FaultModel::new()).unwrap();
        assert!(!outcome.replanned);
        assert_eq!(outcome.plan, plan);
        assert!(outcome.deltas.is_empty());
        assert_eq!(outcome.degraded_old_secs, Some(outcome.degraded_secs));
        assert!((outcome.degradation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn severe_straggler_forces_a_ratio_shift() {
        // Table 7 arrays are network-bound, where a straggler hides
        // behind link time — use a compute-bound array (fat 1 TB/s
        // links, 1 TFLOPS boards) so the slowdown actually bites.
        use accpar_hw::AcceleratorSpec;
        let net = zoo::lenet(256).unwrap();
        let spec = AcceleratorSpec::new("cb", 1e12, 1 << 34, 100e9, 1e12, 8, 1e12).unwrap();
        let array = AcceleratorArray::homogeneous(spec, 2);
        let planner = Planner::builder(&net, &array).levels(1).build().unwrap();
        let planned = planner.plan(Strategy::AccPar).unwrap();
        // One board collapses to 10% of its compute: the balanced split
        // is now badly wrong and the replanner must move work over.
        let faults = FaultModel::new().slow_leaf(1, 0.1).unwrap();
        let outcome = planner.replan(&planned, &faults).unwrap();
        assert!(outcome.replanned, "expected a new plan");
        assert!(!outcome.deltas.is_empty());
        assert!(outcome.speedup().unwrap() > 1.0);
    }

    #[test]
    fn dropout_replans_on_the_reduced_array() {
        let faults = FaultModel::new()
            .drop_leaf(3)
            .slow_leaf(0, 0.5)
            .unwrap()
            .degrade_cut(0, 0.5)
            .unwrap();
        let (_, outcome) = replanned(2, 2, 2, &faults).unwrap();
        assert!(outcome.replanned);
        assert_eq!(outcome.degraded_old_secs, None);
        assert_eq!(outcome.array.len(), 3);
        // The straggler fault survives (board identity preserved); the
        // cut fault dies with the old shape.
        assert_eq!(outcome.faults.faults().len(), 1);
        assert_eq!(outcome.discarded.len(), 2);
        assert!(outcome.degraded_secs > 0.0);
        assert!(outcome.to_string().contains("dropout"));
        // The adopted plan actually runs on the surviving hardware.
        let view = zoo::lenet(256).unwrap().train_view().unwrap();
        let report = Knobs::default()
            .simulator()
            .simulate(&view, &outcome.plan, &outcome.tree, Some(&outcome.faults))
            .unwrap();
        assert!((report.total_secs - outcome.degraded_secs).abs() < 1e-15);
    }

    #[test]
    fn dropping_every_leaf_is_infeasible() {
        let faults = FaultModel::new().drop_leaf(0).drop_leaf(1);
        let err = replanned(1, 1, 1, &faults).unwrap_err();
        assert_eq!(err, PlanError::Hw(HwError::EmptyArray));
    }

    #[test]
    fn sensitivity_ranks_the_heavier_fault_higher() {
        let faults = FaultModel::new()
            .slow_leaf(0, 0.9)
            .unwrap()
            .slow_leaf(1, 0.3)
            .unwrap();
        let (_, outcome) = replanned(1, 1, 1, &faults).unwrap();
        assert_eq!(outcome.sensitivity.len(), 2);
        // Slowing the (more loaded) v3 board to 30% must hurt more than
        // shaving 10% off the v2 board.
        assert!(outcome.sensitivity[1].slowdown > outcome.sensitivity[0].slowdown);
    }

    #[test]
    fn sensitivity_can_be_disabled() {
        let net = zoo::lenet(256).unwrap();
        let array = AcceleratorArray::heterogeneous_tpu(1, 1);
        let tree = GroupTree::bisect(&array, 1).unwrap();
        let planned = Planner::builder(&net, &array)
            .levels(1)
            .build()
            .unwrap()
            .plan(Strategy::AccPar)
            .unwrap();
        let faults = FaultModel::new().slow_leaf(0, 0.5).unwrap();
        let config = ReplanConfig {
            sensitivity: false,
            ..ReplanConfig::default()
        };
        let view = net.train_view().unwrap();
        let outcome = replan(&view, &array, &tree, planned.plan(), &faults, &config).unwrap();
        assert!(outcome.sensitivity.is_empty());
    }
}
