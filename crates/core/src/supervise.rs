//! Live replanning: a supervisor that owns the serving plan for one
//! model and reacts to a stream of hardware health events.
//!
//! A [`Supervisor`] is a client of one [`PlanRequest`](crate::PlanRequest):
//! [`Planner::supervise`] takes the request's training view, bisected
//! tree, cost model, solver, simulator configuration, isomorphism
//! switch, observability handle, thread budget and [`Budget`], and
//! serves the request's own healthy AccPar plan. It then
//! consumes [`HealthEvent`]s ([`observe`](Supervisor::observe)) —
//! degradations, failures, recoveries, bandwidth jitter — folding each
//! into a running [`FaultModel`] with set semantics (the latest event
//! per target wins, so recovery is the exact inverse of degradation).
//!
//! # The degradation ladder
//!
//! Event bursts are **debounced**: events closer together than
//! [`SuperviseConfig::debounce`] batch into one decision, so a replan
//! storm collapses into one replan. Each decision walks a ladder:
//!
//! 1. **Hold** — if the incumbent plan still runs on the surviving
//!    hardware and stays within
//!    [`tolerance`](SuperviseConfig::tolerance) of the nominal step
//!    time, keep serving it and skip the search entirely. A purely
//!    multiplicative fault set is first checked against the analytic
//!    bound `healthy / `[`worst_factor`](FaultModel::worst_factor) —
//!    when even the bound sits inside the band the event is absorbed
//!    without running the simulator, so steady-state jitter costs
//!    microseconds; only bound misses pay for an exact simulation.
//! 2. **Replan** — warm-start the never-worse
//!    [`replan`](mod@crate::replan) path from the *healthy baseline
//!    plan* through the supervisor's own [`SearchCache`] (see *Memory*
//!    below), each attempt under a [`fresh`](Budget::fresh) copy of the
//!    request's budget (a budget stop yields a feasible partial plan,
//!    not an error). For batches
//!    that can only *improve* health, the fresh plan is **promoted**
//!    only when it beats the incumbent by
//!    [`promote_margin`](SuperviseConfig::promote_margin) — the
//!    asymmetry between the hold band and the promote margin is the
//!    hysteresis that keeps borderline hardware from flapping the plan.
//! 3. **Fallback** — if the replan fails, serve the incumbent if it
//!    still runs; otherwise serve a pure data-parallel plan on the
//!    surviving array. A returned error fails at once (the replan is a
//!    pure function of its inputs); only a caught panic is retried, up
//!    to [`retry`](SuperviseConfig::retry) times with deterministic
//!    backoff.
//! 4. **Shed** — only when even data parallelism is infeasible (every
//!    board dropped) does the supervisor stop serving; a later
//!    `Recover` brings it back.
//!
//! The supervisor never panics on a health event and never abandons a
//! servable plan: every failure mode lands on a rung above "crash".
//!
//! # Memory
//!
//! Each supervisor owns its search memo. [`Planner::supervise`] copies
//! the planner memo's level outcomes into it — the healthy plan's
//! levels, which replans hit wherever a fault leaves a subtree
//! untouched — and those copies stay pinned. Before each decision's
//! search, the supervisor drops every unpinned level outcome that the
//! previous decision's search neither looked up nor inserted. A search
//! touches at most one outcome per cut of its tree, so the memo holds
//! at most the pinned outcomes plus twice the tree's cut count however
//! long the supervisor runs; supervisors built from one planner never
//! trim each other's entries, and the planner's memo is left alone.
//! The memo only saves work: every decision equals that of a
//! supervisor built with [`caching(false)`](crate::PlanRequest::caching).
//!
//! # Terminal convergence
//!
//! [`settle`](Supervisor::settle) flushes pending events and runs one
//! final *reconciling* replan that ignores the hold band and the
//! promote margin. Because the running fault model is a pure function
//! of the latest event per target, the settled plan is bit-identical to
//! planning directly against the terminal fault set — the soak suite
//! asserts exactly that.
//!
//! # Example
//!
//! ```
//! use accpar_core::{Planner, SuperviseConfig};
//! use accpar_dnn::zoo;
//! use accpar_hw::{AcceleratorArray, HealthSchedule};
//!
//! let network = zoo::lenet(64)?;
//! let array = AcceleratorArray::heterogeneous_tpu(2, 2);
//! let mut sup = Planner::builder(&network, &array)
//!     .build()?
//!     .supervise(SuperviseConfig::default())?;
//! let schedule = HealthSchedule::random(7, sup.leaf_count(), sup.cut_count(), 12)?;
//! let report = sup.run(&schedule)?;
//! assert!(sup.plan().is_some());
//! assert!(report.availability > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::baselines::data_parallel_plan;
use crate::error::PlanError;
use crate::memo::SearchCache;
use crate::planner::{Knobs, Planner, Strategy};
use crate::replan::{survive, Replan, ReplanOutcome};
use crate::serve::payload_message;
use accpar_dnn::{Network, TrainView};
use accpar_hw::{AcceleratorArray, FaultModel, GroupTree, HealthEvent, HealthSchedule};
use accpar_obs::Obs;
use accpar_partition::PlanTree;
use accpar_runtime::{Budget, Pool, RetryPolicy};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;
use std::time::Instant;

/// The degradation ladder of a [`Supervisor`]. Every planning knob —
/// cost model, solver, simulator, threads, observability, and the
/// budget of each replan — comes from the supervised
/// [`PlanRequest`](crate::PlanRequest).
#[derive(Debug, Clone)]
pub struct SuperviseConfig {
    /// Hold band: keep serving the incumbent while it simulates within
    /// `tolerance` × the nominal step time (default 1.25, i.e. accept
    /// up to 25% degradation without replanning). Must be ≥ 1.
    pub tolerance: f64,
    /// Re-promotion margin for recovery-only batches: a fresh plan
    /// replaces the incumbent only when it is at least this fraction
    /// faster (default 0.02). Together with the hold band this forms
    /// the hysteresis that prevents plan flapping. Must be in `[0, 1)`.
    pub promote_margin: f64,
    /// Debounce window in schedule-time units: events closer together
    /// than this batch into one decision (default 0.05). Must be ≥ 0.
    pub debounce: f64,
    /// Retry policy for a replan that panics (default: two retries
    /// with deterministic backoff). A replan that returns an error is
    /// not retried: it would fail the same way again.
    pub retry: RetryPolicy,
    /// Thread budget of the request [`Supervisor::new`] builds (`None`:
    /// the environment default). Decisions are
    /// thread-count-independent. [`Planner::supervise`] takes the
    /// planner's own thread budget and rejects a value here.
    pub threads: Option<usize>,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        Self {
            tolerance: 1.25,
            promote_margin: 0.02,
            debounce: 0.05,
            retry: RetryPolicy::default(),
            threads: None,
        }
    }
}

impl SuperviseConfig {
    /// Rejects thresholds that would break the ladder's invariants.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Config`] when `tolerance` is below 1 or not
    /// finite, `promote_margin` is outside `[0, 1)`, or `debounce` is
    /// negative or not finite.
    pub fn validate(&self) -> Result<(), PlanError> {
        if !self.tolerance.is_finite() || self.tolerance < 1.0 {
            return Err(PlanError::Config(format!(
                "supervise tolerance must be finite and >= 1, got {}",
                self.tolerance
            )));
        }
        if !self.promote_margin.is_finite() || !(0.0..1.0).contains(&self.promote_margin) {
            return Err(PlanError::Config(format!(
                "supervise promote_margin must be in [0, 1), got {}",
                self.promote_margin
            )));
        }
        if !self.debounce.is_finite() || self.debounce < 0.0 {
            return Err(PlanError::Config(format!(
                "supervise debounce must be finite and >= 0, got {}",
                self.debounce
            )));
        }
        Ok(())
    }
}

/// The rung of the ladder one decision landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SuperviseAction {
    /// Kept serving the incumbent without a search (within the band).
    Hold,
    /// Searched, and adopted the fresh plan.
    Adopt,
    /// Searched, but the incumbent was at least as good — kept it.
    Keep,
    /// Recovery-only batch: the fresh plan beat the incumbent by the
    /// promote margin and replaced it.
    Promote,
    /// The search failed; serving the incumbent or the data-parallel
    /// baseline instead.
    Fallback,
    /// Nothing servable remains (every board dropped).
    Shed,
}

impl SuperviseAction {
    /// Stable label for logs and trace events.
    #[must_use]
    pub const fn label(&self) -> &'static str {
        match self {
            SuperviseAction::Hold => "hold",
            SuperviseAction::Adopt => "adopt",
            SuperviseAction::Keep => "keep",
            SuperviseAction::Promote => "promote",
            SuperviseAction::Fallback => "fallback",
            SuperviseAction::Shed => "shed",
        }
    }
}

impl fmt::Display for SuperviseAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One debounced batch of events and what the supervisor did about it.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Schedule time of the batch's last event (or of
    /// [`settle`](Supervisor::settle) for the reconciling decision).
    pub at: f64,
    /// Events folded in this batch (0 for a pure reconcile).
    pub events: usize,
    /// The rung the ladder landed on.
    pub action: SuperviseAction,
    /// Whether a search actually ran for this decision.
    pub replanned: bool,
    /// Simulated step time of the plan now serving (`None` when shed).
    pub serving_secs: Option<f64>,
    /// Step time of the *healthy baseline* plan on the same degraded
    /// hardware, when it can still run there — the never-worse
    /// reference. `serving_secs` never exceeds it, with one exception: a
    /// [`Keep`](SuperviseAction::Keep) on a recovery-only batch serves the
    /// incumbent while the fresh replan is within
    /// [`promote_margin`](SuperviseConfig::promote_margin) of it, so that
    /// decision is bounded by
    /// `serving_secs ≤ stale_secs / (1 − promote_margin)` instead.
    pub stale_secs: Option<f64>,
    /// `serving_secs` over the nominal step time
    /// ([`f64::INFINITY`] when shed).
    pub degradation: f64,
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={:.3}: {} ({} event(s), {:.2}x nominal)",
            self.at, self.action, self.events, self.degradation
        )
    }
}

/// Aggregate metrics over one supervised timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperviseReport {
    /// Every decision, in time order (the event log).
    pub decisions: Vec<Decision>,
    /// Health events observed.
    pub events: usize,
    /// Searches actually run (debouncing and holds make this smaller
    /// than `events`).
    pub replans: usize,
    /// Retry attempts consumed by failing searches.
    pub retries: usize,
    /// Time-weighted fraction of the timeline spent serving *some*
    /// plan, i.e. not shed (1.0 for an empty timeline).
    pub availability: f64,
    /// Mean time from leaving the tolerance band to re-entering it,
    /// in schedule-time units (`None` when no excursion closed).
    pub mttr: Option<f64>,
    /// Degradation of the final serving plan over nominal
    /// ([`f64::INFINITY`] when the timeline ended shed).
    pub steady_degradation: f64,
}

impl fmt::Display for SuperviseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events -> {} decisions, {} replans; availability {:.4}, steady {:.3}x",
            self.events,
            self.decisions.len(),
            self.replans,
            self.availability,
            self.steady_degradation
        )?;
        if let Some(mttr) = self.mttr {
            write!(f, ", MTTR {mttr:.3}")?;
        }
        Ok(())
    }
}

/// Owns the serving plan for one model and reacts to health events.
///
/// See the [module docs](self) for the ladder and its invariants.
#[derive(Debug)]
pub struct Supervisor {
    knobs: Knobs,
    view: TrainView,
    array: AcceleratorArray,
    tree: GroupTree,
    /// The supervisor's own search memo (`None` with caching off): the
    /// planner's level outcomes, pinned, plus what the last two
    /// searching decisions touched (see the module docs' *Memory*).
    memo: Option<SearchCache>,
    pool: Pool,
    /// The request's budget; each replan attempt runs under a fresh
    /// copy.
    budget: Budget,
    config: SuperviseConfig,
    /// The plan built against healthy hardware: every replan
    /// warm-starts from it, never from the evolved incumbent, so the
    /// supervisor's trajectory is a pure function of the fault set.
    healthy: PlanTree,
    nominal_secs: f64,
    /// The running fault model — at most one fault per target.
    faults: FaultModel,
    /// The serving plan (`None` only when shed).
    plan: Option<PlanTree>,
    serving_secs: Option<f64>,
    /// The incumbent's fault-free step time on the surviving tree
    /// (inner `None` when it does not simulate there). Combined with
    /// [`FaultModel::worst_factor`] it bounds the incumbent's degraded
    /// step time analytically, so within-band events hold without a
    /// simulation. Priced lazily: `None` from an install until the
    /// first decision whose fast-hold check needs it (the shape
    /// matches, the faults are multiplicative, and the decision is
    /// neither a reconcile nor recovery-only), then kept until the next
    /// install.
    incumbent_healthy_secs: Option<Option<f64>>,
    /// Dropped-leaf set the serving plan was shaped for; the incumbent
    /// can only run on hardware with exactly this surviving shape.
    plan_dropped: Vec<usize>,
    pending: Vec<HealthEvent>,
    decisions: Vec<Decision>,
    events_seen: usize,
    replans: usize,
    retries: usize,
}

impl Planner<'_> {
    /// Starts a [`Supervisor`] for this request: it serves the
    /// request's healthy AccPar plan ([`Planner::plan_outcome`]) and
    /// replans under the request's knobs as health events arrive (see
    /// the [module docs](self)).
    ///
    /// # Errors
    ///
    /// [`PlanError::Config`] for invalid thresholds (see
    /// [`SuperviseConfig::validate`]), for a set
    /// [`SuperviseConfig::threads`] (the request's thread budget
    /// applies), and when the request carries faults (a supervisor
    /// learns of faults through health events); otherwise the errors of
    /// the healthy plan.
    pub fn supervise(&self, config: SuperviseConfig) -> Result<Supervisor, PlanError> {
        config.validate()?;
        if config.threads.is_some() {
            return Err(PlanError::Config(
                "SuperviseConfig::threads configures Supervisor::new; set threads on the request"
                    .into(),
            ));
        }
        if self.request.faults.is_some() {
            return Err(PlanError::Config(
                "a supervisor starts on healthy hardware; the request carries faults".into(),
            ));
        }
        let healthy = self.plan_outcome(Strategy::AccPar)?.into_planned();
        let nominal_secs = healthy.modeled_cost();
        let healthy = healthy.plan().clone();
        Ok(Supervisor {
            knobs: self.request.knobs.clone(),
            view: self.view.clone(),
            array: self.request.array.clone(),
            tree: self.tree.clone(),
            memo: self.request.caching.then(|| {
                let memo = self.memo.pinned_copy();
                memo.observe(&self.request.knobs.obs);
                memo
            }),
            pool: Pool::new(self.threads()),
            budget: self.request.budget.clone(),
            config,
            plan: Some(healthy.clone()),
            serving_secs: Some(nominal_secs),
            incumbent_healthy_secs: Some(Some(nominal_secs)),
            plan_dropped: Vec::new(),
            healthy,
            nominal_secs,
            faults: FaultModel::new(),
            pending: Vec::new(),
            decisions: Vec::new(),
            events_seen: 0,
            replans: 0,
            retries: 0,
        })
    }
}

impl Supervisor {
    /// [`Planner::supervise`] over a default request with the given
    /// hierarchy depth (`None`: bisect to single boards) and
    /// [`SuperviseConfig::threads`].
    ///
    /// # Errors
    ///
    /// See [`PlanRequest::build`](crate::PlanRequest::build) and
    /// [`Planner::supervise`].
    pub fn new(
        network: &Network,
        array: &AcceleratorArray,
        levels: Option<usize>,
        config: SuperviseConfig,
    ) -> Result<Self, PlanError> {
        let mut request = Planner::builder(network, array);
        if let Some(levels) = levels {
            request = request.levels(levels);
        }
        if let Some(threads) = config.threads {
            request = request.threads(threads);
        }
        request.build()?.supervise(SuperviseConfig {
            threads: None,
            ..config
        })
    }

    /// Feeds one health event. Events are debounced: a decision fires
    /// only once the stream goes quiet for longer than
    /// [`SuperviseConfig::debounce`] (or on [`settle`](Self::settle)).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Hw`] for an event targeting a leaf/cut the
    /// tree does not have, and propagates decision errors — though the
    /// ladder converts search failures into fallbacks, so decision
    /// errors are limited to malformed inputs.
    pub fn observe(&mut self, event: HealthEvent) -> Result<(), PlanError> {
        event.kind.validate().map_err(PlanError::Hw)?;
        let (bound, ok) = match event.kind {
            accpar_hw::HealthEventKind::BandwidthJitter { cut, .. } => {
                (self.tree.cut_count(), cut < self.tree.cut_count())
            }
            kind => (self.tree.leaf_count(), kind.target() < self.tree.leaf_count()),
        };
        if !ok {
            return Err(PlanError::Hw(accpar_hw::HwError::InvalidFault(format!(
                "health event `{}` targets index {} but the tree has {bound}",
                event.kind.label(),
                event.kind.target()
            ))));
        }
        if self
            .pending
            .last()
            .is_some_and(|last| event.at - last.at > self.config.debounce)
        {
            self.decide(false)?;
        }
        self.pending.push(event);
        Ok(())
    }

    /// Flushes pending events and runs one final reconciling decision
    /// that ignores the hold band and the promote margin, leaving the
    /// serving plan bit-identical to planning directly against the
    /// terminal fault set.
    ///
    /// # Errors
    ///
    /// See [`observe`](Self::observe).
    pub fn settle(&mut self) -> Result<(), PlanError> {
        self.decide(true)
    }

    /// Replays a whole schedule — [`observe`](Self::observe) for every
    /// event, then [`settle`](Self::settle) — and returns the report.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Hw`] when the schedule targets leaves/cuts
    /// the tree does not have; see [`observe`](Self::observe).
    pub fn run(&mut self, schedule: &HealthSchedule) -> Result<SuperviseReport, PlanError> {
        schedule
            .validate_for(self.tree.leaf_count(), self.tree.cut_count())
            .map_err(PlanError::Hw)?;
        for &event in schedule.events() {
            self.observe(event)?;
        }
        self.settle()?;
        Ok(self.report())
    }

    /// One debounced decision over the pending batch. `reconcile`
    /// forces a search and unconditional adoption (the terminal
    /// convergence contract); it also decides on an *empty* batch.
    fn decide(&mut self, reconcile: bool) -> Result<(), PlanError> {
        let batch = std::mem::take(&mut self.pending);
        if batch.is_empty() && !reconcile {
            return Ok(());
        }
        let started = Instant::now();
        let obs = self.knobs.obs.clone();
        let at = batch
            .last()
            .map_or_else(|| self.decisions.last().map_or(0.0, |d| d.at), |e| e.at);
        let span = obs.span(
            "supervise.decide",
            &[("events", batch.len().into()), ("reconcile", reconcile.into())],
        );
        let mut recovery_only = !batch.is_empty();
        for event in &batch {
            self.faults = event.kind.fold_into(self.faults.clone()).map_err(PlanError::Hw)?;
            recovery_only &= event.kind.is_recovery();
            self.events_seen += 1;
            if obs.enabled() {
                obs.counter("supervise.events").inc();
                span.event(
                    "health.event",
                    &[
                        ("kind", event.kind.label().into()),
                        ("target", event.kind.target().into()),
                        ("at", event.at.into()),
                    ],
                );
            }
        }
        if obs.enabled() && batch.len() > 1 {
            obs.counter("supervise.debounced").add(batch.len() as u64 - 1);
        }

        let sim = self.knobs.simulator();
        let dropped = self.faults.dropped_leaves();
        // Surviving topology under the current fault set. If nothing
        // survives, the only rung left is shedding.
        let survived = survive(&self.array, &self.tree, &self.faults);
        let (action, replanned, serving_secs, stale_secs) = match survived {
            Err(_) => (SuperviseAction::Shed, false, None, None),
            Ok((_, surv_tree, eff_faults, _)) => {
                let shape_ok = self.plan.is_some() && dropped == self.plan_dropped;
                // Fast hold: a purely multiplicative fault set bounds
                // the incumbent's step time at `healthy / worst`
                // analytically. When even the bound sits inside the
                // tolerance band the event is absorbed without running
                // the simulator — the common case under jitter.
                let bound_secs = match (&self.plan, eff_faults.worst_factor()) {
                    (Some(plan), Some(worst)) if shape_ok && !reconcile && !recovery_only => {
                        let healthy = *self.incumbent_healthy_secs.get_or_insert_with(|| {
                            sim.simulate(&self.view, plan, &surv_tree, None)
                                .ok()
                                .map(|r| r.total_secs)
                        });
                        healthy.map(|secs| secs / worst)
                    }
                    _ => None,
                };
                let fast_hold = !reconcile
                    && !recovery_only
                    && bound_secs
                        .is_some_and(|secs| secs <= self.config.tolerance * self.nominal_secs);
                // The incumbent's step time on the current hardware —
                // defined only while the surviving shape matches the
                // shape it was planned for. The analytic bound stands
                // in for the simulated value when the fast hold fires.
                let incumbent_secs = if fast_hold {
                    bound_secs
                } else {
                    match &self.plan {
                        Some(plan) if shape_ok => sim
                            .simulate(&self.view, plan, &surv_tree, Some(&eff_faults))
                            .ok()
                            .map(|r| r.total_secs),
                        _ => None,
                    }
                };

                // Rung 1: hold inside the tolerance band. Skipped for
                // reconciles and for batches that can only have
                // improved health (those go to the promote check).
                let hold = !reconcile
                    && !recovery_only
                    && incumbent_secs
                        .is_some_and(|secs| secs <= self.config.tolerance * self.nominal_secs);
                // (rung, searched, serving time, stale time, plan to install)
                let (action, replanned, secs, stale, install) = if hold {
                    (SuperviseAction::Hold, false, incumbent_secs, None, None)
                } else {
                    // Rung 2: budget-capped never-worse replan from the
                    // healthy baseline; a panic is retried with backoff.
                    match self.attempt_replan(&obs) {
                        Ok(outcome) => {
                            self.replans += 1;
                            if obs.enabled() {
                                obs.counter("supervise.replans").inc();
                            }
                            let cand_secs = outcome.degraded_secs;
                            let promote_floor = incumbent_secs
                                .map(|inc| inc * (1.0 - self.config.promote_margin));
                            let (action, secs, plan) = if reconcile {
                                // Terminal convergence: adopt whatever
                                // replanning against the terminal fault
                                // set produced.
                                (SuperviseAction::Adopt, cand_secs, Some(outcome.plan))
                            } else if recovery_only {
                                match (incumbent_secs, promote_floor) {
                                    (Some(inc), Some(floor)) if cand_secs >= floor => {
                                        (SuperviseAction::Keep, inc, None)
                                    }
                                    (Some(_), _) => {
                                        (SuperviseAction::Promote, cand_secs, Some(outcome.plan))
                                    }
                                    // The incumbent cannot run on the
                                    // recovered shape: adopt.
                                    _ => (SuperviseAction::Adopt, cand_secs, Some(outcome.plan)),
                                }
                            } else {
                                match incumbent_secs {
                                    // Never worse than the incumbent
                                    // either: keep it on a tie or win.
                                    Some(inc) if inc < cand_secs => {
                                        (SuperviseAction::Keep, inc, None)
                                    }
                                    _ => (SuperviseAction::Adopt, cand_secs, Some(outcome.plan)),
                                }
                            };
                            (action, true, Some(secs), outcome.degraded_old_secs, plan)
                        }
                        // Rung 3: the replan failed. Serve the incumbent
                        // if it still runs, else data parallelism on
                        // whatever survived; rung 4 when not even that
                        // runs.
                        Err(_) => match incumbent_secs {
                            Some(inc) => (SuperviseAction::Fallback, false, Some(inc), None, None),
                            None => {
                                let dp = data_parallel_plan(
                                    &self.view,
                                    surv_tree.root().depth().max(1),
                                );
                                match sim.simulate(&self.view, &dp, &surv_tree, Some(&eff_faults)) {
                                    Ok(r) => (
                                        SuperviseAction::Fallback,
                                        false,
                                        Some(r.total_secs),
                                        None,
                                        Some(dp),
                                    ),
                                    Err(_) => (SuperviseAction::Shed, false, None, None, None),
                                }
                            }
                        },
                    }
                };
                if let Some(plan) = install {
                    self.incumbent_healthy_secs = None;
                    self.plan = Some(plan);
                    self.plan_dropped = dropped.clone();
                }
                (action, replanned, secs, stale)
            }
        };
        if serving_secs.is_none() {
            // Shed: nothing serves until a later decision installs a plan.
            self.plan = None;
            self.incumbent_healthy_secs = None;
            self.plan_dropped = dropped;
        }
        self.serving_secs = serving_secs;
        let decision = Decision {
            at,
            events: batch.len(),
            action,
            replanned,
            serving_secs,
            stale_secs,
            degradation: serving_secs.map_or(f64::INFINITY, |secs| {
                if self.nominal_secs > 0.0 {
                    secs / self.nominal_secs
                } else {
                    1.0
                }
            }),
        };

        if obs.enabled() {
            obs.counter("supervise.decisions").inc();
            obs.counter(match decision.action {
                SuperviseAction::Hold => "supervise.held",
                SuperviseAction::Adopt => "supervise.adopted",
                SuperviseAction::Keep => "supervise.kept",
                SuperviseAction::Promote => "supervise.promotions",
                SuperviseAction::Fallback => "supervise.fallbacks",
                SuperviseAction::Shed => "supervise.sheds",
            })
            .inc();
            obs.gauge("supervise.degradation").set(decision.degradation);
            obs.histogram("supervise.reaction_ns").record(
                started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            );
            span.event(
                "supervise.decision",
                &[
                    ("action", decision.action.label().into()),
                    ("events", decision.events.into()),
                    ("at", decision.at.into()),
                    ("degradation", decision.degradation.into()),
                    ("replanned", decision.replanned.into()),
                ],
            );
        }
        self.decisions.push(decision);
        Ok(())
    }

    /// Runs the never-worse replan from the healthy baseline, with the
    /// known nominal step time and under a fresh copy of the request's
    /// budget per attempt. A budget stop inside the search is *not* a
    /// failure (it yields a feasible partial plan), and a returned
    /// error fails at once; only a caught panic is retried, after the
    /// policy's deterministic backoff.
    fn attempt_replan(&mut self, obs: &Obs) -> Result<ReplanOutcome, PlanError> {
        if let Some(memo) = &self.memo {
            memo.trim();
        }
        let retry = self.config.retry;
        let mut attempt = 0;
        loop {
            let replan = Replan {
                knobs: &self.knobs,
                view: &self.view,
                array: &self.array,
                tree: &self.tree,
                memo: self.memo.as_ref(),
                pool: self.pool,
                budget: self.budget.fresh(),
            };
            let result = catch_unwind(AssertUnwindSafe(|| {
                replan.run(&self.healthy, &self.faults, Some(self.nominal_secs), false)
            }));
            match result {
                Ok(result) => return result.map(|(outcome, _)| outcome),
                Err(_) if attempt < retry.attempts => {
                    attempt += 1;
                    self.retries += 1;
                    if obs.enabled() {
                        obs.counter("supervise.retries").inc();
                    }
                    thread::sleep(retry.backoff(0, attempt));
                }
                Err(payload) => {
                    return Err(PlanError::WorkerPanic {
                        attempts: attempt + 1,
                        message: payload_message(payload.as_ref()),
                    })
                }
            }
        }
    }

    /// The plan currently serving (`None` only when shed).
    #[must_use]
    pub fn plan(&self) -> Option<&PlanTree> {
        self.plan.as_ref()
    }

    /// The healthy baseline plan every replan warm-starts from.
    #[must_use]
    pub fn healthy_plan(&self) -> &PlanTree {
        &self.healthy
    }

    /// The running fault model (at most one fault per target).
    #[must_use]
    pub fn faults(&self) -> &FaultModel {
        &self.faults
    }

    /// Nominal (healthy) step time in seconds.
    #[must_use]
    pub fn nominal_secs(&self) -> f64 {
        self.nominal_secs
    }

    /// Leaves of the supervised tree (the leaf index space health
    /// events target).
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.tree.leaf_count()
    }

    /// Cuts of the supervised tree (the cut index space jitter events
    /// target).
    #[must_use]
    pub fn cut_count(&self) -> usize {
        self.tree.cut_count()
    }

    /// Decisions taken so far, in time order.
    #[must_use]
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Aggregates the decision log into a [`SuperviseReport`].
    ///
    /// Availability weighs each decision's serving state (shed or not)
    /// by the time until the next decision; MTTR averages the closed
    /// excursions outside the tolerance band.
    #[must_use]
    pub fn report(&self) -> SuperviseReport {
        let healthy_at = |d: &Decision| {
            d.serving_secs.is_some() && d.degradation <= self.config.tolerance
        };
        let mut available = 0.0;
        let mut total = 0.0;
        let mut excursions = Vec::new();
        let mut down_since: Option<f64> = None;
        let mut prev_at = 0.0;
        // The timeline starts healthy (serving, in band) at t=0.
        let mut prev_serving = true;
        for decision in &self.decisions {
            let span = (decision.at - prev_at).max(0.0);
            total += span;
            if prev_serving {
                available += span;
            }
            let ok = healthy_at(decision);
            match (down_since, ok) {
                (None, false) => down_since = Some(decision.at),
                (Some(since), true) => {
                    excursions.push(decision.at - since);
                    down_since = None;
                }
                _ => {}
            }
            prev_serving = decision.serving_secs.is_some();
            prev_at = decision.at;
        }
        let availability = if total > 0.0 { available / total } else { 1.0 };
        let mttr = if excursions.is_empty() {
            None
        } else {
            Some(excursions.iter().sum::<f64>() / excursions.len() as f64)
        };
        let steady_degradation = self
            .decisions
            .last()
            .map_or(1.0, |d| d.degradation);
        SuperviseReport {
            decisions: self.decisions.clone(),
            events: self.events_seen,
            replans: self.replans,
            retries: self.retries,
            availability,
            mttr,
            steady_degradation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accpar_dnn::zoo;
    use accpar_hw::{AcceleratorSpec, HealthEventKind};
    use accpar_obs::Collector;
    use std::sync::Arc;

    /// A request for `net` on `array` at depth 2, planned on `threads`
    /// threads.
    fn request<'a>(
        net: &'a Network,
        array: &'a AcceleratorArray,
        threads: usize,
    ) -> crate::PlanRequest<'a> {
        Planner::builder(net, array).levels(2).threads(threads)
    }

    fn supervisor(threads: usize) -> Supervisor {
        let net = zoo::lenet(64).unwrap();
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        request(&net, &array, threads)
            .build()
            .unwrap()
            .supervise(SuperviseConfig::default())
            .unwrap()
    }

    #[test]
    fn config_validation_rejects_bad_thresholds() {
        for bad in [
            SuperviseConfig {
                tolerance: 0.5,
                ..SuperviseConfig::default()
            },
            SuperviseConfig {
                tolerance: f64::NAN,
                ..SuperviseConfig::default()
            },
            SuperviseConfig {
                promote_margin: 1.0,
                ..SuperviseConfig::default()
            },
            SuperviseConfig {
                promote_margin: -0.1,
                ..SuperviseConfig::default()
            },
            SuperviseConfig {
                debounce: f64::INFINITY,
                ..SuperviseConfig::default()
            },
            SuperviseConfig {
                debounce: -1.0,
                ..SuperviseConfig::default()
            },
        ] {
            assert!(matches!(bad.validate(), Err(PlanError::Config(_))));
        }
        assert!(SuperviseConfig::default().validate().is_ok());
    }

    #[test]
    fn small_degrade_holds_severe_degrade_replans() {
        let mut sup = supervisor(1);
        // A 5% throttle on one leaf sits comfortably inside the band.
        sup.observe(HealthEvent {
            at: 0.0,
            kind: HealthEventKind::Degrade { leaf: 0, factor: 0.95 },
        })
        .unwrap();
        sup.observe(HealthEvent {
            at: 10.0,
            kind: HealthEventKind::Degrade { leaf: 1, factor: 0.9 },
        })
        .unwrap();
        // The first decision fired when the second event broke the
        // debounce window.
        assert_eq!(sup.decisions().len(), 1);
        assert_eq!(sup.decisions()[0].action, SuperviseAction::Hold);
        assert!(!sup.decisions()[0].replanned);
        sup.settle().unwrap();
        // The reconcile always searches.
        let last = sup.decisions().last().unwrap();
        assert!(last.replanned);
        assert!(sup.plan().is_some());
    }

    #[test]
    fn mild_degrade_fast_holds_on_the_analytic_bound() {
        let mut sup = supervisor(1);
        sup.observe(HealthEvent {
            at: 0.0,
            kind: HealthEventKind::Degrade { leaf: 0, factor: 0.97 },
        })
        .unwrap();
        sup.observe(HealthEvent {
            at: 10.0,
            kind: HealthEventKind::Degrade { leaf: 0, factor: 0.96 },
        })
        .unwrap();
        // `nominal / 0.97` is inside the band, so the first decision
        // held on the bound itself — no simulation ran, and the logged
        // degradation is exactly the bound.
        assert_eq!(sup.decisions().len(), 1);
        let d = &sup.decisions()[0];
        assert_eq!(d.action, SuperviseAction::Hold);
        assert!((d.degradation - 1.0 / 0.97).abs() < 1e-12, "{}", d.degradation);
    }

    #[test]
    fn burst_debounces_into_one_decision() {
        let mut sup = supervisor(1);
        for i in 0..5 {
            sup.observe(HealthEvent {
                at: 0.001 * f64::from(i),
                kind: HealthEventKind::Degrade {
                    leaf: (i as usize) % 4,
                    factor: 0.5,
                },
            })
            .unwrap();
        }
        sup.settle().unwrap();
        // All five events collapsed into the one settling decision.
        assert_eq!(sup.decisions().len(), 1);
        assert_eq!(sup.decisions()[0].events, 5);
    }

    #[test]
    fn fail_then_recover_round_trips_to_the_healthy_plan() {
        let mut sup = supervisor(1);
        let healthy = sup.healthy_plan().clone();
        sup.observe(HealthEvent {
            at: 0.0,
            kind: HealthEventKind::Fail { leaf: 3 },
        })
        .unwrap();
        sup.settle().unwrap();
        assert!(sup.plan().is_some());
        assert!(!sup.faults().dropped_leaves().is_empty());
        sup.observe(HealthEvent {
            at: 1.0,
            kind: HealthEventKind::Recover { leaf: 3 },
        })
        .unwrap();
        sup.settle().unwrap();
        // Recovery is exact: the fault model is empty again and the
        // settled plan is the healthy plan, bit for bit.
        assert!(sup.faults().is_empty());
        assert_eq!(sup.plan().unwrap(), &healthy);
        let report = sup.report();
        assert_eq!(report.events, 2);
        assert!(report.availability > 0.0);
    }

    #[test]
    fn terminal_plan_matches_direct_replan() {
        let mut sup = supervisor(1);
        let schedule = HealthSchedule::random(21, sup.leaf_count(), sup.cut_count(), 40).unwrap();
        sup.run(&schedule).unwrap();
        let terminal = schedule.fold_all(FaultModel::new()).unwrap();
        assert_eq!(sup.faults(), &terminal);
        // Plan the terminal fault set directly (fresh cache, no
        // supervisor) — the settled plan must be bit-identical.
        let net = zoo::lenet(64).unwrap();
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        let fresh = request(&net, &array, 1).build().unwrap();
        let healthy = fresh.plan(Strategy::AccPar).unwrap();
        assert_eq!(healthy.plan(), sup.healthy_plan());
        let direct = fresh.replan(&healthy, &terminal).unwrap();
        assert_eq!(sup.plan().unwrap(), &direct.plan);
    }

    #[test]
    fn determinism_across_runs_and_thread_counts() {
        let schedule = HealthSchedule::random(5, 4, 3, 60).unwrap();
        let run = |threads: usize| {
            let mut sup = supervisor(threads);
            let report = sup.run(&schedule).unwrap();
            (report, sup.plan().cloned(), sup.faults().clone())
        };
        let (r1, p1, f1) = run(1);
        let (r2, p2, f2) = run(1);
        let (r4, p4, f4) = run(4);
        // Same seed + schedule => identical event log, replan count,
        // and final plan — across runs and thread counts.
        assert_eq!(r1, r2);
        assert_eq!(p1, p2);
        assert_eq!(f1, f2);
        assert_eq!(r1.decisions, r4.decisions);
        assert_eq!(r1.replans, r4.replans);
        assert_eq!(p1, p4);
        assert_eq!(f1, f4);
    }

    #[test]
    fn never_worse_than_the_stale_plan_at_every_decision() {
        let mut sup = supervisor(1);
        let schedule = HealthSchedule::random(33, sup.leaf_count(), sup.cut_count(), 50).unwrap();
        sup.run(&schedule).unwrap();
        for decision in sup.decisions() {
            if let (Some(serving), Some(stale)) = (decision.serving_secs, decision.stale_secs) {
                assert!(
                    serving <= stale * (1.0 + 1e-12),
                    "{decision}: serving {serving} worse than stale {stale}"
                );
            }
        }
    }

    /// A seeded random timeline followed by a recovery of every leaf
    /// and cut, one per batch: most late decisions are recovery-only,
    /// the case the promote margin governs.
    fn recovery_heavy(seed: u64, leaves: usize, cuts: usize) -> HealthSchedule {
        let mut schedule = HealthSchedule::random(seed, leaves, cuts, 24).unwrap();
        let mut at = schedule.events().last().map_or(0.0, |e| e.at);
        for leaf in 0..leaves {
            at += 1.0;
            schedule = schedule.push(at, HealthEventKind::Recover { leaf }).unwrap();
        }
        for cut in 0..cuts {
            at += 1.0;
            schedule = schedule
                .push(at, HealthEventKind::BandwidthJitter { cut, factor: 1.0 })
                .unwrap();
        }
        schedule
    }

    #[test]
    fn keep_is_bounded_by_the_promote_margin_and_every_other_action_by_stale() {
        let margin = SuperviseConfig::default().promote_margin;
        // AlexNet on 2+2: recovered incumbents land within the margin of
        // the replan, so some Keeps really serve above the stale plan.
        let net = zoo::alexnet(128).unwrap();
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        let planner = request(&net, &array, 1).build().unwrap();
        let mut within_margin = 0;
        for seed in 0..12 {
            let mut sup = planner.supervise(SuperviseConfig::default()).unwrap();
            let schedule = recovery_heavy(seed, sup.leaf_count(), sup.cut_count());
            sup.run(&schedule).unwrap();
            for decision in sup.decisions() {
                let (Some(serving), Some(stale)) = (decision.serving_secs, decision.stale_secs)
                else {
                    continue;
                };
                if decision.action == SuperviseAction::Keep {
                    within_margin += usize::from(serving > stale);
                    assert!(
                        serving <= stale / (1.0 - margin) * (1.0 + 1e-12),
                        "seed {seed}, {decision}: serving {serving} beyond the margin over stale {stale}"
                    );
                } else {
                    assert!(
                        serving <= stale * (1.0 + 1e-12),
                        "seed {seed}, {decision}: serving {serving} worse than stale {stale}"
                    );
                }
            }
        }
        assert!(within_margin > 0, "no Keep served above its stale plan");
    }

    #[test]
    fn search_failure_falls_back_to_the_incumbent() {
        let net = zoo::lenet(64).unwrap();
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        let config = SuperviseConfig {
            retry: RetryPolicy::none(),
            ..SuperviseConfig::default()
        };
        let mut sup = request(&net, &array, 1)
            // A zero node budget stops every level: the replan still
            // produces a feasible (data-parallel) candidate, proving a
            // budget stop is a degraded answer, not a failure.
            .budget(Budget::unlimited().max_nodes(0))
            .build()
            .unwrap()
            .supervise(config)
            .unwrap();
        sup.observe(HealthEvent {
            at: 0.0,
            kind: HealthEventKind::Degrade { leaf: 0, factor: 0.2 },
        })
        .unwrap();
        sup.settle().unwrap();
        // Still serving something at every step.
        assert!(sup.plan().is_some());
        for decision in sup.decisions() {
            assert!(decision.serving_secs.is_some());
        }
    }

    #[test]
    fn counters_and_events_flow_through_obs() {
        let collector = Arc::new(Collector::new());
        let net = zoo::lenet(64).unwrap();
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        let obs = Obs::new(Arc::clone(&collector));
        let mut sup = request(&net, &array, 1)
            .obs(obs.clone())
            .build()
            .unwrap()
            .supervise(SuperviseConfig::default())
            .unwrap();
        let schedule = HealthSchedule::random(3, sup.leaf_count(), sup.cut_count(), 10).unwrap();
        let report = sup.run(&schedule).unwrap();
        obs.emit_metrics();
        let snap = collector.last_metrics().unwrap();
        assert_eq!(snap.counter("supervise.events"), 10);
        assert_eq!(snap.counter("supervise.replans"), report.replans as u64);
        assert_eq!(snap.counter("supervise.decisions"), report.decisions.len() as u64);
    }

    #[test]
    fn report_on_a_quiet_timeline_is_fully_available() {
        let mut sup = supervisor(1);
        sup.settle().unwrap();
        let report = sup.report();
        assert_eq!(report.events, 0);
        assert!((report.availability - 1.0).abs() < 1e-12);
        assert_eq!(report.mttr, None);
    }

    #[test]
    fn a_returned_replan_error_is_not_retried() {
        // Two one-core boards: after one fails, the survivor cannot be
        // bisected, so every replan returns an error.
        let net = zoo::lenet(64).unwrap();
        let spec = AcceleratorSpec::new("one-core", 1e12, 1 << 34, 100e9, 1e12, 1, 1e12).unwrap();
        let array = AcceleratorArray::homogeneous(spec, 2);
        let planner = Planner::builder(&net, &array).levels(1).threads(1).build().unwrap();
        let planned = planner.plan(Strategy::AccPar).unwrap();
        let dropped = FaultModel::new().drop_leaf(1);
        assert!(matches!(
            planner.replan(&planned, &dropped),
            Err(PlanError::ReplanInfeasible(_))
        ));
        let mut sup = planner.supervise(SuperviseConfig::default()).unwrap();
        sup.observe(HealthEvent {
            at: 0.0,
            kind: HealthEventKind::Fail { leaf: 1 },
        })
        .unwrap();
        sup.settle().unwrap();
        let report = sup.report();
        assert_eq!(report.retries, 0);
        assert_eq!(report.replans, 0);
        // Data parallelism cannot run on an unbisected survivor either.
        assert_eq!(report.decisions.len(), 1);
        assert_eq!(report.decisions[0].action, SuperviseAction::Shed);
    }

    #[test]
    fn planner_supervise_and_the_forward_decide_alike() {
        let net = zoo::lenet(64).unwrap();
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        let schedule = HealthSchedule::random(17, 4, 3, 60).unwrap();
        let mut via_planner = request(&net, &array, 1)
            .build()
            .unwrap()
            .supervise(SuperviseConfig::default())
            .unwrap();
        let config = SuperviseConfig {
            threads: Some(1),
            ..SuperviseConfig::default()
        };
        let mut via_forward = Supervisor::new(&net, &array, Some(2), config.clone()).unwrap();
        assert_eq!(
            via_planner.run(&schedule).unwrap(),
            via_forward.run(&schedule).unwrap()
        );
        assert_eq!(via_planner.healthy_plan(), via_forward.healthy_plan());
        assert_eq!(via_planner.plan(), via_forward.plan());
        // The request owns the planning knobs: a thread count on the
        // ladder, or faults on the request, are refused.
        let built = request(&net, &array, 1).build().unwrap();
        assert!(matches!(built.supervise(config), Err(PlanError::Config(_))));
        let faults = FaultModel::new().slow_leaf(0, 0.5).unwrap();
        let faulted = request(&net, &array, 1).faults(&faults).build().unwrap();
        assert!(matches!(
            faulted.supervise(SuperviseConfig::default()),
            Err(PlanError::Config(_))
        ));
    }

    #[test]
    fn the_memo_stays_bounded_and_never_changes_a_decision() {
        let net = zoo::lenet(64).unwrap();
        let array = AcceleratorArray::heterogeneous_tpu(4, 4);
        let start = |caching: bool| {
            Planner::builder(&net, &array)
                .threads(1)
                .caching(caching)
                .build()
                .unwrap()
                .supervise(SuperviseConfig::default())
                .unwrap()
        };
        let mut cached = start(true);
        let mut plain = start(false);
        assert!(plain.memo.is_none());
        let counts = |sup: &Supervisor| sup.memo.as_ref().unwrap().level_counts();
        let (held, pinned) = counts(&cached);
        assert_eq!(held, pinned);
        // The healthy plan's searched levels: 7 nodes, 2 of them replayed
        // twin halves.
        assert_eq!(pinned, 5);
        let bound = pinned + 2 * cached.cut_count();
        let schedule =
            HealthSchedule::random(2027, cached.leaf_count(), cached.cut_count(), 2000).unwrap();
        let mut peak = 0;
        for &event in schedule.events() {
            cached.observe(event).unwrap();
            plain.observe(event).unwrap();
            assert_eq!(cached.decisions().len(), plain.decisions().len());
            assert_eq!(cached.decisions().last(), plain.decisions().last());
            let (held, still_pinned) = counts(&cached);
            assert_eq!(still_pinned, pinned);
            assert!(held <= bound, "{held} level outcomes held, bound {bound}");
            peak = peak.max(held);
        }
        cached.settle().unwrap();
        plain.settle().unwrap();
        assert_eq!(cached.report(), plain.report());
        assert_eq!(cached.plan(), plain.plan());
        assert!(cached.report().replans > 1000);
        assert!(peak > pinned, "the memo never kept a replan's levels");
    }

    #[test]
    fn a_search_decision_runs_three_simulations() {
        let collector = Arc::new(Collector::new());
        let net = zoo::lenet(64).unwrap();
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        let mut sup = request(&net, &array, 1)
            .obs(Obs::new(Arc::clone(&collector)))
            .build()
            .unwrap()
            .supervise(SuperviseConfig::default())
            .unwrap();
        let sims = || collector.events_named("sim.report").len();
        let before = sims();
        // Far outside the band: the incumbent, the stale baseline and
        // the candidate — no nominal, and the adopted plan's healthy
        // time waits until a fast-hold check needs it.
        sup.observe(HealthEvent {
            at: 0.0,
            kind: HealthEventKind::Degrade { leaf: 0, factor: 0.2 },
        })
        .unwrap();
        sup.settle().unwrap();
        assert!(sup.decisions()[0].replanned);
        assert_eq!(sims() - before, 3);

        // Recover, then an in-band multiplicative event: its decision
        // prices the incumbent on the healthy tree once and holds on the
        // bound the eager price gave; the next in-band event reuses the
        // price and simulates nothing.
        let event = |at: f64, kind| HealthEvent { at, kind };
        sup.observe(event(10.0, HealthEventKind::Recover { leaf: 0 })).unwrap();
        sup.observe(event(20.0, HealthEventKind::Degrade { leaf: 1, factor: 0.97 })).unwrap();
        assert_eq!(sup.decisions().len(), 2);
        let healthy = sup
            .knobs
            .simulator()
            .simulate(&sup.view, sup.plan().unwrap(), &sup.tree, None)
            .unwrap()
            .total_secs;
        let before = sims();
        sup.observe(event(30.0, HealthEventKind::Degrade { leaf: 2, factor: 0.99 })).unwrap();
        let held = &sup.decisions()[2];
        assert_eq!(held.action, SuperviseAction::Hold);
        assert!(!held.replanned);
        assert_eq!(held.serving_secs.map(f64::to_bits), Some((healthy / 0.97).to_bits()));
        assert_eq!(sims() - before, 1);
        let before = sims();
        sup.observe(event(40.0, HealthEventKind::Degrade { leaf: 3, factor: 0.98 })).unwrap();
        assert_eq!(sup.decisions()[3].action, SuperviseAction::Hold);
        assert_eq!(sims() - before, 0);
    }
}
