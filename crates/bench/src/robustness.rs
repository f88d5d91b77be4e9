//! Robustness ablation: how the four schemes degrade under injected
//! faults, and how much graceful re-planning recovers.
//!
//! For every scenario and strategy the ablation reports three step
//! times: the healthy plan on healthy hardware (*nominal*), the same
//! stale plan on the faulted hardware (*degraded*), and the plan the
//! [`replan`](mod@accpar_core::replan) machinery adopts on the faulted
//! hardware (*replanned*). The replanner's never-worse guarantee means
//! `replanned <= degraded` whenever the stale plan can still run; under
//! dropout the stale plan cannot run at all and only the replanned time
//! exists.
//!
//! Everything is seeded and analytic — two runs of the same scenario
//! produce bit-identical rows.

use accpar_core::{PlanError, Planner, Strategy};
use accpar_dnn::zoo;
use accpar_hw::{AcceleratorArray, FaultModel, GroupTree};
use accpar_sim::SimConfig;

/// A named fault scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Display name.
    pub name: String,
    /// The injected faults.
    pub faults: FaultModel,
}

/// The standard scenario suite for a tree with `n_leaves` leaves and
/// `n_cuts` cuts (needs at least two leaves and one cut).
///
/// The first entries are the fixed single-fault probes (one straggler at
/// half compute, one cut at quarter bandwidth, a 1 ms stall), then their
/// combination — the issue's acceptance scenario — then a seeded random
/// scenario and a dropout of the last leaf.
///
/// # Panics
///
/// Panics if the tree is trivial (no cuts or fewer than two leaves).
#[must_use]
pub fn standard_scenarios(seed: u64, n_leaves: usize, n_cuts: usize) -> Vec<Scenario> {
    assert!(n_leaves >= 2 && n_cuts >= 1, "need a non-trivial tree");
    let cut = 1.min(n_cuts - 1);
    let mk = |name: &str, faults: FaultModel| Scenario {
        name: name.to_owned(),
        faults,
    };
    vec![
        mk(
            "straggler-0.5x",
            FaultModel::with_seed(seed)
                .slow_leaf(0, 0.5)
                .expect("valid factor"),
        ),
        mk(
            "link-0.25x",
            FaultModel::with_seed(seed)
                .degrade_cut(cut, 0.25)
                .expect("valid factor"),
        ),
        mk(
            "stall-1ms",
            FaultModel::with_seed(seed)
                .stall_leaf(0, 1e-3)
                .expect("valid stall"),
        ),
        mk(
            "straggler+link",
            FaultModel::with_seed(seed)
                .slow_leaf(0, 0.5)
                .expect("valid factor")
                .degrade_cut(cut, 0.25)
                .expect("valid factor"),
        ),
        mk(
            "random-2",
            FaultModel::random(seed, n_leaves, n_cuts, 2).expect("non-empty tree"),
        ),
        mk(
            "dropout-last",
            FaultModel::with_seed(seed).drop_leaf(n_leaves - 1),
        ),
    ]
}

/// One strategy's degradation under one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessRow {
    /// The scheme whose healthy plan is subjected to the faults.
    pub strategy: Strategy,
    /// Healthy plan on healthy hardware, milliseconds.
    pub nominal_ms: f64,
    /// Stale healthy plan on faulted hardware (`None` under dropout).
    pub degraded_ms: Option<f64>,
    /// The replanner's adopted plan on faulted hardware.
    pub replanned_ms: f64,
    /// Whether the replanner adopted a new plan.
    pub replanned: bool,
}

impl RobustnessRow {
    /// Speedup of the replanned plan over the stale plan on the faulted
    /// hardware (`None` under dropout).
    #[must_use]
    pub fn recovery(&self) -> Option<f64> {
        self.degraded_ms.map(|d| d / self.replanned_ms)
    }

    /// Slowdown of the replanned degraded step versus the nominal step.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        if self.nominal_ms > 0.0 {
            self.replanned_ms / self.nominal_ms
        } else {
            1.0
        }
    }
}

/// Runs one scenario over all four schemes.
///
/// # Errors
///
/// Propagates planning, simulation and replanning errors.
pub fn scenario_rows(
    network: &str,
    batch: usize,
    array: &AcceleratorArray,
    levels: usize,
    faults: &FaultModel,
) -> Result<Vec<RobustnessRow>, PlanError> {
    let net = zoo::by_name(network, batch)?;
    let planner = Planner::builder(&net, array)
        .levels(levels)
        .sim_config(SimConfig::default())
        .build()?;

    let mut rows = Vec::with_capacity(Strategy::ALL.len());
    for &strategy in &Strategy::ALL {
        let planned = planner.plan(strategy)?;
        // The replan simulates the stale plan on the faulted tree once;
        // the row reads it from the outcome.
        let outcome = planner.replan(&planned, faults)?;
        rows.push(RobustnessRow {
            strategy,
            nominal_ms: planned.modeled_cost() * 1e3,
            degraded_ms: outcome.degraded_old_secs.map(|secs| secs * 1e3),
            replanned_ms: outcome.degraded_secs * 1e3,
            replanned: outcome.replanned,
        });
    }
    Ok(rows)
}

/// The full ablation: the standard scenario suite on one network.
///
/// # Errors
///
/// Propagates planning, simulation and replanning errors.
pub fn robustness_ablation(
    network: &str,
    batch: usize,
    array: &AcceleratorArray,
    levels: usize,
    seed: u64,
) -> Result<Vec<(Scenario, Vec<RobustnessRow>)>, PlanError> {
    let tree = GroupTree::bisect(array, levels)?;
    let scenarios = standard_scenarios(seed, tree.leaf_count(), tree.cut_count());
    scenarios
        .into_iter()
        .map(|s| scenario_rows(network, batch, array, levels, &s.faults).map(|rows| (s, rows)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_suite_is_seeded_and_complete() {
        let a = standard_scenarios(7, 4, 3);
        let b = standard_scenarios(7, 4, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        assert!(a.iter().any(|s| !s.faults.dropped_leaves().is_empty()));
    }

    #[test]
    fn ablation_rows_respect_the_never_worse_guarantee() {
        let array = AcceleratorArray::heterogeneous_tpu(1, 1);
        let rows = scenario_rows(
            "lenet",
            64,
            &array,
            1,
            &FaultModel::with_seed(3)
                .slow_leaf(0, 0.5)
                .unwrap()
                .degrade_cut(0, 0.25)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            let degraded = row.degraded_ms.unwrap();
            assert!(
                row.replanned_ms <= degraded * (1.0 + 1e-12),
                "{row:?}"
            );
            assert!(degraded >= row.nominal_ms * (1.0 - 1e-12), "{row:?}");
            assert!(row.recovery().unwrap() >= 1.0 - 1e-12);
        }
    }

    #[test]
    fn dropout_rows_have_no_stale_time() {
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        let rows = scenario_rows(
            "lenet",
            64,
            &array,
            2,
            &FaultModel::with_seed(3).drop_leaf(3),
        )
        .unwrap();
        for row in &rows {
            assert_eq!(row.degraded_ms, None);
            assert!(row.replanned, "dropout always forces a new plan");
            assert!(row.replanned_ms > 0.0);
        }
    }

    #[test]
    fn ablation_is_deterministic() {
        let array = AcceleratorArray::heterogeneous_tpu(1, 1);
        let a = robustness_ablation("lenet", 32, &array, 1, 11).unwrap();
        let b = robustness_ablation("lenet", 32, &array, 1, 11).unwrap();
        assert_eq!(a, b);
    }
}
