//! Supervised batch serving: plan a queue of (network, hardware,
//! budget) requests the way a production scheduler would submit them.
//!
//! [`plan_many`] builds each admitted [`PlanRequest`] into a
//! single-threaded [`Planner`](crate::Planner) and plans it through the
//! same path as [`Planner::plan_outcome`](crate::Planner::plan_outcome),
//! so a request gets the same answer either way. The batch's
//! [`ServeConfig::cache`] and [`ServeConfig::obs`] replace the
//! request's own plan cache and observability handle. Each request is
//! **isolated**: a panic while planning one request is caught and
//! surfaces as that request's [`PlanError::WorkerPanic`] — the rest of
//! the batch is unaffected. Requests beyond [`ServeConfig::max_queue`]
//! are **shed** up front with [`PlanError::Overloaded`] (predictable
//! latency beats unbounded queueing), requests whose
//! [`Budget`](crate::Budget) is already spent when a worker
//! picks them up are shed with [`PlanError::Interrupted`] *before* any
//! fingerprinting or planning work (`serve.shed` events carry a
//! `shed_reason` of `queue-full` or `budget-expiry`), and a
//! **watchdog** thread flags requests that have been in flight longer
//! than [`ServeConfig::watchdog_stall`] via the `serve.stalled`
//! counter/event.
//!
//! With [`ServeConfig::cache`] attached, finished plans are served from
//! the crash-safe [`PlanCache`] after admission validation; requests
//! carrying a [`PlanRequest::faults`] model demote cache hits into
//! warm-starts for the never-worse replanner instead of serving a
//! healthy-hardware plan verbatim.
//!
//! Everything is instrumented through [`ServeConfig::obs`]: counters
//! `serve.completed` / `serve.partial` / `serve.errors` /
//! `serve.sheds` / `serve.panics_recovered` / `serve.stalled`, the
//! per-stop-reason counters `serve.deadline_hits` / `serve.cancelled` /
//! `serve.node_budget_hits`, and the `serve.ttfp_ns` histogram of
//! time-to-first-feasible-plan per request.

use crate::cache::PlanCache;
use crate::error::PlanError;
use crate::planner::{PlanOutcome, PlanRequest};
use accpar_obs::Obs;
use accpar_runtime::{lock_unpoisoned, Pool, StopReason};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Configuration of a [`plan_many`] batch.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Requests beyond this bound are shed with
    /// [`PlanError::Overloaded`] instead of queued (default 64).
    pub max_queue: usize,
    /// Worker threads planning requests concurrently (default: the
    /// environment thread budget). Each request itself plans
    /// single-threaded — the batch is the unit of parallelism.
    pub workers: usize,
    /// Flag a request that stays in flight longer than this via the
    /// `serve.stalled` counter/event — live from the watchdog while it
    /// is stuck, settled exactly at completion otherwise. `None`
    /// disables stall tracking (default 30s).
    pub watchdog_stall: Option<Duration>,
    /// Observability handle; inert by default.
    pub obs: Obs,
    /// Crash-safe plan cache shared by every request (default: none).
    /// See the [`cache`](crate::cache) module docs for the hit
    /// validation and demotion contract.
    pub cache: Option<Arc<PlanCache>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_queue: 64,
            workers: Pool::from_env().threads(),
            watchdog_stall: Some(Duration::from_secs(30)),
            obs: Obs::off(),
            cache: None,
        }
    }
}

impl ServeConfig {
    /// Rejects configurations that would stall or shed every request at
    /// runtime: a zero `max_queue` sheds the whole batch, zero `workers`
    /// can never drain the queue, and a zero watchdog threshold flags
    /// every request as stalled the moment it starts.
    ///
    /// [`plan_many`] validates up front, so a misconfiguration surfaces
    /// as a typed [`PlanError::Config`] on every result instead of a
    /// silent runtime stall.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Config`] naming the offending knob.
    pub fn validate(&self) -> Result<(), PlanError> {
        if self.max_queue == 0 {
            return Err(PlanError::Config(
                "serve max_queue must be at least 1: a zero bound sheds every request".into(),
            ));
        }
        if self.workers == 0 {
            return Err(PlanError::Config(
                "serve workers must be at least 1: a zero pool never drains the queue".into(),
            ));
        }
        if let Some(stall) = self.watchdog_stall {
            if stall.is_zero() {
                return Err(PlanError::Config(
                    "serve watchdog_stall must be positive (use None to disable the watchdog)"
                        .into(),
                ));
            }
        }
        Ok(())
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Plans a batch of requests with per-request isolation, overload
/// shedding and a stall watchdog (see the [module docs](self)).
///
/// Results come back **in request order** — result `i` always belongs
/// to `requests[i]`, whether it completed, degraded to a partial plan,
/// failed, or was shed. The function itself never panics on a request's
/// behalf: worker panics are isolated into that request's
/// [`PlanError::WorkerPanic`].
#[must_use]
pub fn plan_many(
    requests: &[PlanRequest<'_>],
    config: &ServeConfig,
) -> Vec<Result<PlanOutcome, PlanError>> {
    if let Err(err) = config.validate() {
        return requests.iter().map(|_| Err(err.clone())).collect();
    }
    let obs = &config.obs;
    let admitted = requests.len().min(config.max_queue);
    let shed = requests.len() - admitted;
    let span = obs.span(
        "serve",
        &[
            ("requests", requests.len().into()),
            ("admitted", admitted.into()),
            ("bound", config.max_queue.into()),
        ],
    );
    if shed > 0 && obs.enabled() {
        obs.counter("serve.sheds").add(shed as u64);
        span.event(
            "serve.shed",
            &[
                ("shed", shed.into()),
                ("depth", requests.len().into()),
                ("bound", config.max_queue.into()),
                ("shed_reason", "queue-full".into()),
            ],
        );
    }

    let workers = config.workers.max(1).min(admitted.max(1));
    let next = AtomicUsize::new(0);
    let starts: Mutex<Vec<Option<Instant>>> = Mutex::new(vec![None; admitted]);
    let slots: Mutex<Vec<Option<Result<PlanOutcome, PlanError>>>> =
        Mutex::new((0..admitted).map(|_| None).collect());

    // A request is "stalled" once it has been in flight longer than the
    // configured threshold. The watchdog samples in-flight requests for
    // live visibility; workers settle the books at completion so the
    // count is exact even when a stall ends between two ticks. Each
    // request is flagged at most once.
    let stalled: Mutex<Vec<bool>> = Mutex::new(vec![false; admitted]);
    let flag_stalled = |i: usize, started: Instant| {
        {
            let mut flags = lock_unpoisoned(&stalled);
            if flags[i] {
                return;
            }
            flags[i] = true;
        }
        if obs.enabled() {
            obs.counter("serve.stalled").inc();
            span.event(
                "serve.stalled",
                &[
                    ("request", i.into()),
                    (
                        "in_flight_ms",
                        (started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64).into(),
                    ),
                ],
            );
        }
    };
    // Condvar-backed shutdown so `plan_many` never blocks on a sleeping
    // watchdog: the final notify wakes it mid-tick.
    let shutdown = (Mutex::new(false), Condvar::new());

    thread::scope(|scope| {
        let (starts_ref, shutdown_ref, flag_ref) = (&starts, &shutdown, &flag_stalled);
        let watchdog = config.watchdog_stall.map(|stall| {
            scope.spawn(move || {
                let tick = (stall / 4).max(Duration::from_millis(1));
                let mut guard = lock_unpoisoned(&shutdown_ref.0);
                loop {
                    let (g, _) = shutdown_ref
                        .1
                        .wait_timeout(guard, tick)
                        .unwrap_or_else(PoisonError::into_inner);
                    guard = g;
                    if *guard {
                        break;
                    }
                    let in_flight: Vec<(usize, Instant)> = lock_unpoisoned(starts_ref)
                        .iter()
                        .enumerate()
                        .filter_map(|(i, s)| s.map(|t| (i, t)))
                        .collect();
                    for (i, started) in in_flight {
                        if started.elapsed() >= stall {
                            flag_ref(i, started);
                        }
                    }
                }
            })
        });

        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= admitted {
                        break;
                    }
                    // A request whose budget is already spent is shed
                    // *before* any fingerprinting or planning work —
                    // queueing consumed its allowance.
                    if let Err(reason) = requests[i].budget.check() {
                        if obs.enabled() {
                            obs.counter("serve.sheds").inc();
                            span.event(
                                "serve.shed",
                                &[
                                    ("shed", 1u64.into()),
                                    ("request", i.into()),
                                    ("shed_reason", "budget-expiry".into()),
                                    ("reason", reason.label().into()),
                                ],
                            );
                        }
                        lock_unpoisoned(&slots)[i] = Some(Err(PlanError::Interrupted(reason)));
                        continue;
                    }
                    let started = Instant::now();
                    lock_unpoisoned(&starts)[i] = Some(started);
                    let result = match catch_unwind(AssertUnwindSafe(|| {
                        // One thread per request, with the batch's cache
                        // and observability.
                        let request = &requests[i];
                        PlanRequest {
                            threads: Some(1),
                            plan_cache: config.cache.clone(),
                            ..request.clone()
                        }
                        .obs(config.obs.clone())
                        .build()?
                        .plan_outcome(request.strategy)
                    })) {
                        Ok(result) => result,
                        Err(payload) => {
                            if obs.enabled() {
                                obs.counter("serve.panics_recovered").inc();
                            }
                            Err(PlanError::WorkerPanic {
                                attempts: 1,
                                message: payload_message(payload.as_ref()),
                            })
                        }
                    };
                    lock_unpoisoned(&starts)[i] = None;
                    if config
                        .watchdog_stall
                        .is_some_and(|stall| started.elapsed() >= stall)
                    {
                        flag_stalled(i, started);
                    }
                    if obs.enabled() {
                        obs.histogram("serve.ttfp_ns")
                            .record(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                        match &result {
                            Ok(PlanOutcome::Complete(_)) => obs.counter("serve.completed").inc(),
                            Ok(PlanOutcome::Partial(partial)) => {
                                obs.counter("serve.partial").inc();
                                match partial.reason() {
                                    StopReason::Deadline => {
                                        obs.counter("serve.deadline_hits").inc();
                                    }
                                    StopReason::NodeBudget => {
                                        obs.counter("serve.node_budget_hits").inc();
                                    }
                                    StopReason::Cancelled => {
                                        obs.counter("serve.cancelled").inc();
                                    }
                                }
                            }
                            Err(_) => obs.counter("serve.errors").inc(),
                        }
                    }
                    lock_unpoisoned(&slots)[i] = Some(result);
                })
            })
            .collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                // Request panics are caught above; this would be a bug
                // in the serving loop itself.
                std::panic::resume_unwind(payload);
            }
        }
        *lock_unpoisoned(&shutdown.0) = true;
        shutdown.1.notify_all();
        if let Some(watchdog) = watchdog {
            let _ = watchdog.join();
        }
    });

    let mut results: Vec<Result<PlanOutcome, PlanError>> = lock_unpoisoned(&slots)
        .drain(..)
        .map(|slot| slot.expect("every admitted request was planned"))
        .collect();
    for _ in 0..shed {
        results.push(Err(PlanError::Overloaded {
            depth: requests.len(),
            bound: config.max_queue,
        }));
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Strategy;
    use accpar_dnn::zoo;
    use accpar_hw::AcceleratorArray;
    use accpar_obs::Collector;

    #[test]
    fn results_come_back_in_request_order() {
        let lenet = zoo::lenet(64).unwrap();
        let alexnet = zoo::alexnet(64).unwrap();
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        let requests = vec![
            PlanRequest::new(&lenet, &array).levels(1),
            PlanRequest::new(&alexnet, &array).levels(2),
            PlanRequest::new(&lenet, &array)
                .levels(2)
                .strategy(Strategy::DataParallel),
        ];
        let results = plan_many(&requests, &ServeConfig::default());
        assert_eq!(results.len(), 3);
        let depths: Vec<usize> = results
            .iter()
            .map(|r| r.as_ref().unwrap().planned().plan().depth())
            .collect();
        assert_eq!(depths, vec![1, 2, 2]);
        assert_eq!(
            results[2].as_ref().unwrap().planned().strategy(),
            Strategy::DataParallel
        );
    }

    #[test]
    fn overload_sheds_the_tail_not_the_head() {
        let net = zoo::lenet(32).unwrap();
        let array = AcceleratorArray::homogeneous_tpu_v3(2);
        let requests: Vec<PlanRequest> = (0..4)
            .map(|_| PlanRequest::new(&net, &array).levels(1))
            .collect();
        let collector = Arc::new(Collector::new());
        let config = ServeConfig {
            max_queue: 2,
            obs: Obs::new(Arc::clone(&collector)),
            ..ServeConfig::default()
        };
        let results = plan_many(&requests, &config);
        assert!(results[0].is_ok() && results[1].is_ok());
        for shed in &results[2..] {
            assert!(matches!(
                shed,
                Err(PlanError::Overloaded { depth: 4, bound: 2 })
            ));
        }
        config.obs.emit_metrics();
        let snap = collector.last_metrics().unwrap();
        assert_eq!(snap.counter("serve.sheds"), 2);
    }

    #[test]
    fn invalid_config_is_rejected_up_front() {
        let net = zoo::lenet(32).unwrap();
        let array = AcceleratorArray::homogeneous_tpu_v3(2);
        let requests = vec![
            PlanRequest::new(&net, &array).levels(1),
            PlanRequest::new(&net, &array).levels(1),
        ];
        for bad in [
            ServeConfig {
                max_queue: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                watchdog_stall: Some(Duration::ZERO),
                ..ServeConfig::default()
            },
        ] {
            assert!(bad.validate().is_err());
            let results = plan_many(&requests, &bad);
            assert_eq!(results.len(), 2);
            for result in results {
                assert!(matches!(result, Err(PlanError::Config(_))));
            }
        }
        // Disabling the watchdog outright stays legal.
        assert!(ServeConfig {
            watchdog_stall: None,
            ..ServeConfig::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn a_bad_request_does_not_poison_the_batch() {
        let net = zoo::lenet(32).unwrap();
        let array = AcceleratorArray::homogeneous_tpu_v3(2);
        let requests = vec![
            PlanRequest::new(&net, &array).levels(1),
            // Depth 9 needs 512 boards — this request fails to build.
            PlanRequest::new(&net, &array).levels(9),
            PlanRequest::new(&net, &array).levels(1),
        ];
        let results = plan_many(&requests, &ServeConfig::default());
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(PlanError::Hw(_))));
        assert!(results[2].is_ok());
    }
}
