//! Deterministic chaos harness: replay seeded hardware health
//! timelines through the live-replanning
//! [`Supervisor`](accpar_core::Supervisor) and report serving metrics.
//!
//! For every (network, seed) pair the harness generates a random
//! [`HealthSchedule`] over the supervised tree's leaves and cuts,
//! replays it, and reports **MTTR**, **availability**, **replan
//! count**, and **steady-state degradation** — plus a convergence
//! check: the supervisor's settled plan must be bit-identical to
//! running the never-worse replanner once against the terminal fault
//! set with a fresh cache. Everything is seeded and analytic, so two
//! runs of the same arguments produce identical rows.

use accpar_core::supervise::{SuperviseAction, SuperviseConfig};
use accpar_core::{PlanError, Planner, Strategy};
use accpar_dnn::zoo;
use accpar_hw::{AcceleratorArray, FaultModel, HealthSchedule};

/// One chaos replay: a network under one seeded health timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRow {
    /// Network name.
    pub network: String,
    /// Schedule seed.
    pub seed: u64,
    /// Health events replayed.
    pub events: usize,
    /// Decisions the supervisor took (debouncing batches events).
    pub decisions: usize,
    /// Searches actually run.
    pub replans: usize,
    /// Decisions on each ladder rung, in order:
    /// (hold, adopt, keep, promote, fallback, shed).
    pub rungs: (usize, usize, usize, usize, usize, usize),
    /// Time-weighted fraction of the timeline spent serving.
    pub availability: f64,
    /// Mean time to re-enter the tolerance band (`None`: no closed
    /// excursion).
    pub mttr: Option<f64>,
    /// Final serving degradation over nominal.
    pub steady_degradation: f64,
    /// Whether the settled plan is bit-identical to replanning against
    /// the terminal fault set directly (fresh cache, no supervisor).
    pub converged: bool,
}

/// Replays one seeded timeline of `n_events` over `network` and checks
/// terminal convergence.
///
/// # Errors
///
/// Propagates planning, simulation, and schedule-generation errors.
pub fn chaos_run(
    network: &str,
    batch: usize,
    array: &AcceleratorArray,
    levels: usize,
    seed: u64,
    n_events: usize,
) -> Result<ChaosRow, PlanError> {
    let net = zoo::by_name(network, batch)?;
    let planner = || Planner::builder(&net, array).levels(levels).threads(1).build();
    let mut sup = planner()?.supervise(SuperviseConfig::default())?;
    let schedule = HealthSchedule::random(seed, sup.leaf_count(), sup.cut_count(), n_events)
        .map_err(PlanError::Hw)?;
    let report = sup.run(&schedule)?;

    // Convergence: one direct replan of the healthy plan against the
    // terminal fault set, fresh cache, must reproduce the settled plan
    // bit for bit.
    let terminal = schedule
        .fold_all(FaultModel::new())
        .map_err(PlanError::Hw)?;
    let fresh = planner()?;
    let healthy = fresh.plan(Strategy::AccPar)?;
    let direct = fresh.replan(&healthy, &terminal)?;
    let converged = healthy.plan() == sup.healthy_plan() && sup.plan() == Some(&direct.plan);

    let mut rungs = (0, 0, 0, 0, 0, 0);
    for decision in &report.decisions {
        match decision.action {
            SuperviseAction::Hold => rungs.0 += 1,
            SuperviseAction::Adopt => rungs.1 += 1,
            SuperviseAction::Keep => rungs.2 += 1,
            SuperviseAction::Promote => rungs.3 += 1,
            SuperviseAction::Fallback => rungs.4 += 1,
            SuperviseAction::Shed => rungs.5 += 1,
            // `SuperviseAction` is non-exhaustive; future rungs just
            // don't show up in the fixed tally.
            _ => {}
        }
    }
    Ok(ChaosRow {
        network: network.to_owned(),
        seed,
        events: report.events,
        decisions: report.decisions.len(),
        replans: report.replans,
        rungs,
        availability: report.availability,
        mttr: report.mttr,
        steady_degradation: report.steady_degradation,
        converged,
    })
}

/// The standard chaos suite: every named network under `n_seeds`
/// consecutive seeds starting at `seed`.
///
/// # Errors
///
/// Propagates the first failing replay.
pub fn chaos_suite(
    networks: &[&str],
    batch: usize,
    array: &AcceleratorArray,
    levels: usize,
    seed: u64,
    n_events: usize,
    n_seeds: u64,
) -> Result<Vec<ChaosRow>, PlanError> {
    let mut rows = Vec::new();
    for &network in networks {
        for s in 0..n_seeds {
            rows.push(chaos_run(network, batch, array, levels, seed + s, n_events)?);
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_runs_are_deterministic_and_converge() {
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        let a = chaos_run("lenet", 64, &array, 2, 9, 30).unwrap();
        let b = chaos_run("lenet", 64, &array, 2, 9, 30).unwrap();
        assert_eq!(a, b);
        assert!(a.converged, "terminal plan diverged: {a:?}");
        assert_eq!(a.events, 30);
        assert!(a.decisions <= a.events + 1);
        assert!(a.availability > 0.0);
    }

    #[test]
    fn suite_covers_every_network_and_seed() {
        let array = AcceleratorArray::heterogeneous_tpu(1, 1);
        let rows = chaos_suite(&["lenet", "vgg16"], 32, &array, 1, 3, 10, 2).unwrap();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.converged, "{row:?}");
        }
    }
}
