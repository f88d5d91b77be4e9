//! A std-only worker pool for the planning engine.
//!
//! The workspace is deliberately dependency-free, so this crate provides
//! the minimal parallel primitives the planner needs on top of
//! [`std::thread::scope`]:
//!
//! * [`Pool::par_map`] — a fork-join map over a slice with
//!   **deterministic result ordering**: results come back in item order
//!   regardless of which worker computed them or when it finished.
//! * [`Pool::par_join`] — run two closures concurrently (the
//!   independent left/right recursion of the hierarchical planner).
//! * [`Pool::split`] — divide a pool between two nested branches so
//!   recursive parallelism never oversubscribes the machine.
//!
//! A pool is just a thread *budget*; threads are spawned per call and
//! joined before the call returns, so no state leaks between calls and
//! borrowed data flows in freely. The budget is a cap, not a demand:
//! physical workers are additionally clamped to the machine's available
//! parallelism, since oversubscribing cores cannot make a
//! deterministically ordered fork-join faster. With a budget of one (or single-item
//! inputs) every primitive degrades to plain serial execution on the
//! calling thread — the planner's serial and parallel paths therefore
//! share one code path and produce bit-identical results by
//! construction.
//!
//! The default budget honors the `ACCPAR_THREADS` environment variable
//! (falling back to [`std::thread::available_parallelism`]):
//!
//! ```
//! use accpar_runtime::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.par_map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//!
//! let (a, b) = pool.par_join(|| 2 + 2, || "concurrently");
//! assert_eq!((a, b), (4, "concurrently"));
//! ```
//!
//! # Cooperative cancellation and deadlines
//!
//! [`Budget`] bounds a computation by wall-clock deadline, by a
//! monotone *nodes-expanded* counter, or by an external [`CancelToken`]
//! — all three compose. Work loops call [`Budget::try_charge`] at their
//! natural unit of progress (the planner charges one node per DP layer
//! row); an unlimited budget reduces to a single `Option` check so the
//! common uncancellable path stays free:
//!
//! ```
//! use accpar_runtime::{Budget, StopReason};
//!
//! let budget = Budget::unlimited().max_nodes(2);
//! assert_eq!(budget.try_charge(1), Ok(()));
//! assert_eq!(budget.try_charge(1), Ok(()));
//! assert_eq!(budget.try_charge(1), Err(StopReason::NodeBudget));
//! ```
//!
//! # Panic isolation
//!
//! [`Pool::try_par_map`] is the fallible sibling of [`Pool::par_map`]:
//! each worker closure runs under [`std::panic::catch_unwind`], a
//! panicking unit is retried with seeded deterministic exponential
//! backoff ([`RetryPolicy`]), and a unit that keeps panicking surfaces
//! as a typed [`WorkerPanic`] instead of unwinding through the pool.
//! Shared pool state lives behind mutexes acquired via
//! [`lock_unpoisoned`], so a panic can never poison the pool for later
//! calls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// The machine's available parallelism (1 when undeterminable), cached
/// for the process lifetime.
fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Environment variable overriding the default thread budget.
pub const THREADS_ENV: &str = "ACCPAR_THREADS";

/// A fork-join thread budget (see the [module docs](self)).
///
/// Cheap to copy; carries no OS resources. Threads are scoped to each
/// `par_map`/`par_join` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with the given thread budget (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A single-threaded pool: every primitive runs serially on the
    /// calling thread.
    #[must_use]
    pub const fn serial() -> Self {
        Self { threads: 1 }
    }

    /// The default pool: `ACCPAR_THREADS` when set to a positive
    /// integer, otherwise the machine's available parallelism (1 when
    /// that cannot be determined).
    #[must_use]
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()));
        Self::new(threads)
    }

    /// The thread budget.
    #[must_use]
    pub const fn threads(&self) -> usize {
        self.threads
    }

    /// Whether every primitive will run serially.
    #[must_use]
    pub const fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Splits the budget across two concurrent branches: `(ceil, floor)`
    /// halves, each at least 1. Used by recursive fork-join so the total
    /// live thread count stays within the original budget.
    #[must_use]
    pub const fn split(&self) -> (Pool, Pool) {
        let a = self.threads.div_ceil(2);
        let b = if self.threads / 2 > 1 {
            self.threads / 2
        } else {
            1
        };
        (Pool { threads: a }, Pool { threads: b })
    }

    /// Maps `f` over `items` with up to [`Pool::threads`] workers and
    /// returns the results **in item order**. `f` receives the item's
    /// index alongside the item. Panics in `f` are propagated to the
    /// caller after all workers stop.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        // The budget is an upper bound; physical workers never exceed
        // the machine's parallelism — spawning more threads than cores
        // cannot make the (deterministically ordered) map faster.
        let workers = self.threads.min(items.len()).min(hardware_threads());
        let obs = accpar_obs::global();
        if obs.enabled() {
            obs.counter("pool.par_map.calls").inc();
            obs.counter("pool.par_map.items").add(items.len() as u64);
            // Items beyond the worker count wait in the striped queue.
            obs.histogram("pool.queue_depth")
                .record(items.len().saturating_sub(workers) as u64);
        }
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }

        let next = AtomicUsize::new(0);
        let mut buckets: Vec<Vec<(usize, U)>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, U)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            local.push((i, f(i, &items[i])));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(local) => local,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });

        // Merge the per-worker buckets back into item order.
        let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
        for bucket in &mut buckets {
            for (i, v) in bucket.drain(..) {
                slots[i] = Some(v);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index was claimed exactly once"))
            .collect()
    }

    /// Runs `a` and `b` concurrently (serially, `a` first, when the
    /// budget is 1) and returns both results. Panics are propagated.
    pub fn par_join<RA, RB, FA, FB>(&self, a: FA, b: FB) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
        FA: FnOnce() -> RA + Send,
        FB: FnOnce() -> RB + Send,
    {
        if self.threads <= 1 || hardware_threads() <= 1 {
            let ra = a();
            let rb = b();
            return (ra, rb);
        }
        let obs = accpar_obs::global();
        if obs.enabled() {
            obs.counter("pool.par_join.calls").inc();
        }
        thread::scope(|scope| {
            let hb = scope.spawn(b);
            let ra = a();
            let rb = match hb.join() {
                Ok(rb) => rb,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            (ra, rb)
        })
    }
}

impl Default for Pool {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// The pool's shared state is plain data (result slots, failure
/// records): a panic mid-update leaves it value-consistent, so the
/// poison flag is noise here — recovering via
/// [`PoisonError::into_inner`] keeps one worker's panic from wedging
/// every later `par_map` call on the same state.
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why a budgeted computation stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The nodes-expanded counter exceeded its cap.
    NodeBudget,
    /// An external [`CancelToken`] was triggered.
    Cancelled,
}

impl StopReason {
    /// Stable lowercase label (used in traces and event payloads).
    #[must_use]
    pub const fn label(&self) -> &'static str {
        match self {
            StopReason::Deadline => "deadline",
            StopReason::NodeBudget => "node-budget",
            StopReason::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A shared cancellation flag: clone it, hand one copy to the worker
/// and keep the other to [`cancel`](CancelToken::cancel) from outside.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untriggered token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Triggers the token. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been triggered.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Deadline checks read the clock only every `DEADLINE_STRIDE`-th
/// charged node: a syscall per DP row would dominate the warm-cache
/// path, and a stride of 16 bounds detection latency to 16 cheap rows.
const DEADLINE_STRIDE: u64 = 16;

/// Construction-time description of a [`Budget`]'s limits.
#[derive(Debug, Clone, Default)]
struct BudgetSpec {
    deadline: Option<Instant>,
    /// The relative allowance behind `deadline`, when it was set by
    /// [`Budget::deadline`]: [`Budget::fresh`] re-arms it.
    allowance: Option<Duration>,
    max_nodes: Option<u64>,
    cancel: Option<CancelToken>,
    chaos_node: Option<u64>,
}

#[derive(Debug)]
struct BudgetInner {
    spec: BudgetSpec,
    /// Monotone nodes-expanded counter, shared by every clone.
    nodes: AtomicU64,
    /// Node index at which the chaos hook fires (once); `u64::MAX`
    /// once disarmed.
    chaos_armed: AtomicU64,
}

/// A cooperative execution budget: wall-clock deadline, cap on nodes
/// expanded, external cancellation — any combination, or none.
///
/// Cloning shares the underlying counters, so one budget can be
/// threaded through parallel workers and observed from outside via
/// [`nodes_expanded`](Budget::nodes_expanded). An
/// [`unlimited`](Budget::unlimited) budget carries no allocation and
/// every check on it is a single `Option` test.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    inner: Option<Arc<BudgetInner>>,
}

impl Budget {
    /// A budget with no limits: every check passes, for free.
    #[must_use]
    pub const fn unlimited() -> Self {
        Self { inner: None }
    }

    fn with_spec(spec: BudgetSpec) -> Self {
        let chaos_armed = AtomicU64::new(spec.chaos_node.unwrap_or(u64::MAX));
        Self {
            inner: Some(Arc::new(BudgetInner {
                spec,
                nodes: AtomicU64::new(0),
                chaos_armed,
            })),
        }
    }

    fn update(self, f: impl FnOnce(&mut BudgetSpec)) -> Self {
        let mut spec = match &self.inner {
            Some(inner) => inner.spec.clone(),
            None => BudgetSpec::default(),
        };
        f(&mut spec);
        Self::with_spec(spec)
    }

    /// Adds a wall-clock deadline `after` from now. The counter resets;
    /// apply combinators before handing the budget to workers.
    #[must_use]
    pub fn deadline(self, after: Duration) -> Self {
        self.update(|s| {
            s.deadline = Some(Instant::now() + after);
            s.allowance = Some(after);
        })
    }

    /// Adds a wall-clock deadline at an absolute instant.
    #[must_use]
    pub fn deadline_at(self, at: Instant) -> Self {
        self.update(|s| {
            s.deadline = Some(at);
            s.allowance = None;
        })
    }

    /// A copy for one more run of the same work: the same limits with
    /// zeroed counters (the chaos hook re-arms), and a
    /// [`deadline`](Budget::deadline) re-armed to its full allowance
    /// from now. An absolute deadline and a cancel token carry over
    /// unchanged.
    #[must_use]
    pub fn fresh(&self) -> Self {
        match &self.inner {
            None => Self::unlimited(),
            Some(inner) => {
                let mut spec = inner.spec.clone();
                if let Some(after) = spec.allowance {
                    spec.deadline = Some(Instant::now() + after);
                }
                Self::with_spec(spec)
            }
        }
    }

    /// Caps the number of nodes that may be charged. A cap of 0 makes
    /// the very first charge fail — useful to force the fallback path.
    #[must_use]
    pub fn max_nodes(self, cap: u64) -> Self {
        self.update(|s| s.max_nodes = Some(cap))
    }

    /// Attaches an external cancellation token (cloned; cancel the
    /// original to stop the work).
    #[must_use]
    pub fn cancel_token(self, token: &CancelToken) -> Self {
        self.update(|s| s.cancel = Some(token.clone()))
    }

    /// Test/chaos hook: panic (once) inside whichever worker charges
    /// the `node`-th node. Exercises the pool's panic isolation without
    /// instrumenting the cost model. Deterministic under serial
    /// execution; under parallel execution the panicking worker varies
    /// but exactly one panic fires.
    #[must_use]
    pub fn chaos_panic_at_node(self, node: u64) -> Self {
        self.update(|s| s.chaos_node = Some(node))
    }

    /// Whether this budget can never stop work (constructed via
    /// [`unlimited`](Budget::unlimited) with no combinators applied).
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// A stable *class* descriptor for content-addressed caching: which
    /// limit kinds are armed, plus the node cap (the only limit whose
    /// value is reproducible across processes — deadlines are absolute
    /// [`Instant`]s and cancel tokens are runtime handles, so only
    /// their presence is encoded). Two budgets in the same class stop
    /// the search for the same reasons, which is what a plan-cache key
    /// needs; the exact wall-clock remaining is deliberately excluded.
    #[must_use]
    pub fn class_bits(&self) -> u64 {
        let Some(inner) = &self.inner else {
            return 0;
        };
        let s = &inner.spec;
        let mut bits = 1u64; // bounded
        if s.deadline.is_some() {
            bits |= 1 << 1;
        }
        if s.cancel.is_some() {
            bits |= 1 << 2;
        }
        if let Some(cap) = s.max_nodes {
            bits |= 1 << 3;
            bits ^= cap.rotate_left(8);
        }
        bits
    }

    /// Nodes charged so far across all clones.
    #[must_use]
    pub fn nodes_expanded(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.nodes.load(Ordering::Relaxed))
    }

    /// Charges `rows` nodes and reports whether work may continue.
    ///
    /// Cancellation is checked on every call; the node cap on every
    /// call; the deadline only when the counter crosses a
    /// `DEADLINE_STRIDE` boundary (and on the first charge), keeping
    /// the per-row cost to an atomic add. Once a limit trips, every
    /// subsequent charge keeps failing (the counter is monotone and the
    /// clock does not run backwards).
    pub fn try_charge(&self, rows: u64) -> Result<(), StopReason> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if let Some(token) = &inner.spec.cancel {
            if token.is_cancelled() {
                return Err(StopReason::Cancelled);
            }
        }
        let before = inner.nodes.fetch_add(rows, Ordering::Relaxed);
        let after = before + rows;
        let chaos = inner.chaos_armed.load(Ordering::Relaxed);
        if after >= chaos
            && inner
                .chaos_armed
                .compare_exchange(chaos, u64::MAX, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            panic!("chaos: injected worker panic at node {chaos}");
        }
        if let Some(cap) = inner.spec.max_nodes {
            if after > cap {
                return Err(StopReason::NodeBudget);
            }
        }
        if let Some(deadline) = inner.spec.deadline {
            let crossed = before / DEADLINE_STRIDE != after / DEADLINE_STRIDE || before == 0;
            if crossed && Instant::now() >= deadline {
                return Err(StopReason::Deadline);
            }
        }
        Ok(())
    }

    /// Checks cancellation and the deadline without charging nodes —
    /// for loops whose progress unit is already paid for (e.g. the DP
    /// trunk scan over a cost table that was charged row by row).
    pub fn check(&self) -> Result<(), StopReason> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if let Some(token) = &inner.spec.cancel {
            if token.is_cancelled() {
                return Err(StopReason::Cancelled);
            }
        }
        if let Some(deadline) = inner.spec.deadline {
            if Instant::now() >= deadline {
                return Err(StopReason::Deadline);
            }
        }
        Ok(())
    }
}

/// Bounded, seeded, deterministic exponential backoff for retrying a
/// panicked work unit.
///
/// `attempts` counts *re*-tries: a unit runs `attempts + 1` times
/// before its failure becomes a [`WorkerPanic`]. Backoff for (unit,
/// attempt) is a pure function of the seed, so retry schedules are
/// reproducible run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first failure.
    pub attempts: u32,
    /// Base backoff in microseconds; doubles per attempt.
    pub base_backoff_us: u64,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 2,
            base_backoff_us: 50,
            seed: 0xACC9A7,
        }
    }
}

impl RetryPolicy {
    /// No retries: the first panic is final.
    #[must_use]
    pub const fn none() -> Self {
        Self {
            attempts: 0,
            base_backoff_us: 0,
            seed: 0,
        }
    }

    /// Deterministic backoff before retry number `attempt` (1-based) of
    /// `unit`: exponential in the attempt with up to +50% seeded jitter.
    #[must_use]
    pub fn backoff(&self, unit: usize, attempt: u32) -> Duration {
        let exp = self
            .base_backoff_us
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(10));
        if exp == 0 {
            return Duration::ZERO;
        }
        let jitter = splitmix64(self.seed ^ (unit as u64) ^ (u64::from(attempt) << 32)) % exp;
        Duration::from_micros(exp + jitter / 2)
    }
}

/// SplitMix64: tiny, seedable, and good enough for backoff jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A work unit kept panicking through every retry attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the item whose closure panicked.
    pub index: usize,
    /// Total attempts made (retries + 1).
    pub attempts: u32,
    /// Panic payload, when it was a string.
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panicked on item {} after {} attempt(s): {}",
            self.index, self.attempts, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

impl Pool {
    /// Fallible [`par_map`](Pool::par_map): same deterministic item
    /// ordering, but each worker closure runs under `catch_unwind`. A
    /// panicking unit is retried per `retry` (seeded deterministic
    /// exponential backoff); a unit that exhausts its attempts turns
    /// the whole map into `Err(WorkerPanic)` after in-flight units
    /// finish. Counters (`pool.panics_caught`, `pool.panics_recovered`,
    /// `pool.retries`) are recorded on `obs`.
    ///
    /// Shared result state lives behind mutexes locked via
    /// [`lock_unpoisoned`], so even an uncaught panic path cannot
    /// poison the pool for subsequent calls.
    pub fn try_par_map<T, U, F>(
        &self,
        items: &[T],
        retry: &RetryPolicy,
        obs: &accpar_obs::Obs,
        f: F,
    ) -> Result<Vec<U>, WorkerPanic>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let workers = self.threads.min(items.len()).min(hardware_threads());
        if obs.enabled() {
            obs.counter("pool.par_map.calls").inc();
            obs.counter("pool.par_map.items").add(items.len() as u64);
            obs.histogram("pool.queue_depth")
                .record(items.len().saturating_sub(workers) as u64);
        }

        let attempt_item = |i: usize| -> Result<U, WorkerPanic> {
            let mut message = String::new();
            for attempt in 0..=retry.attempts {
                if attempt > 0 {
                    if obs.enabled() {
                        obs.counter("pool.retries").inc();
                    }
                    thread::sleep(retry.backoff(i, attempt));
                }
                match catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
                    Ok(v) => {
                        if attempt > 0 && obs.enabled() {
                            obs.counter("pool.panics_recovered").inc();
                        }
                        return Ok(v);
                    }
                    Err(payload) => {
                        if obs.enabled() {
                            obs.counter("pool.panics_caught").inc();
                        }
                        message = panic_message(payload.as_ref());
                    }
                }
            }
            Err(WorkerPanic {
                index: i,
                attempts: retry.attempts + 1,
                message,
            })
        };

        if workers <= 1 {
            let mut out = Vec::with_capacity(items.len());
            for i in 0..items.len() {
                out.push(attempt_item(i)?);
            }
            return Ok(out);
        }

        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<U>>> = Mutex::new((0..items.len()).map(|_| None).collect());
        let failure: Mutex<Option<WorkerPanic>> = Mutex::new(None);
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, U)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            if lock_unpoisoned(&failure).is_some() {
                                break;
                            }
                            match attempt_item(i) {
                                Ok(v) => local.push((i, v)),
                                Err(e) => {
                                    let mut first = lock_unpoisoned(&failure);
                                    if first.is_none() {
                                        *first = Some(e);
                                    }
                                    break;
                                }
                            }
                        }
                        let mut merged = lock_unpoisoned(&slots);
                        for (i, v) in local {
                            merged[i] = Some(v);
                        }
                    })
                })
                .collect();
            for h in handles {
                if let Err(payload) = h.join() {
                    // Worker bodies catch closure panics, so this is
                    // unreachable in practice; don't swallow it if the
                    // impossible happens.
                    std::panic::resume_unwind(payload);
                }
            }
        });

        if let Some(e) = lock_unpoisoned(&failure).take() {
            return Err(e);
        }
        let merged = slots
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        Ok(merged
            .into_iter()
            .map(|s| s.expect("every index was claimed exactly once"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let out = pool.par_map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        let pool = Pool::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(pool.par_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_actually_uses_multiple_workers() {
        // With more items than threads every worker claims at least one
        // item under the striped counter; assert the work all happened.
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        Pool::new(4).par_map(&items, |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn par_join_returns_both_results() {
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let (a, b) = pool.par_join(|| 40 + 2, || "b".to_string());
            assert_eq!(a, 42);
            assert_eq!(b, "b");
        }
    }

    #[test]
    fn split_conserves_the_budget() {
        for threads in 1..=9 {
            let (a, b) = Pool::new(threads).split();
            assert!(a.threads() >= 1 && b.threads() >= 1);
            assert!(a.threads() + b.threads() <= threads.max(2));
        }
        assert_eq!(Pool::new(1).split(), (Pool::new(1), Pool::new(1)));
        assert_eq!(Pool::new(8).split(), (Pool::new(4), Pool::new(4)));
        assert_eq!(Pool::new(5).split(), (Pool::new(3), Pool::new(2)));
    }

    #[test]
    fn zero_threads_clamp_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert!(Pool::new(0).is_serial());
    }

    #[test]
    fn env_override_parses_positive_integers() {
        // Set/unset the variable in one test to avoid races between
        // tests sharing the process environment.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(Pool::from_env().threads(), 3);
        std::env::set_var(THREADS_ENV, "0");
        assert!(Pool::from_env().threads() >= 1);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(Pool::from_env().threads() >= 1);
        std::env::remove_var(THREADS_ENV);
        assert!(Pool::from_env().threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "worker panic bubbles up")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..16).collect();
        Pool::new(4).par_map(&items, |i, _| {
            if i == 7 {
                panic!("worker panic bubbles up");
            }
            i
        });
    }

    #[test]
    fn unlimited_budget_never_stops() {
        let budget = Budget::unlimited();
        assert!(budget.is_unlimited());
        assert_eq!(budget.try_charge(1_000_000), Ok(()));
        assert_eq!(budget.check(), Ok(()));
        assert_eq!(budget.nodes_expanded(), 0);
    }

    #[test]
    fn node_budget_trips_exactly_at_the_cap() {
        let budget = Budget::unlimited().max_nodes(3);
        assert_eq!(budget.try_charge(1), Ok(()));
        assert_eq!(budget.try_charge(2), Ok(()));
        assert_eq!(budget.try_charge(1), Err(StopReason::NodeBudget));
        // The counter stays monotone: later charges keep failing.
        assert_eq!(budget.try_charge(1), Err(StopReason::NodeBudget));
        assert!(budget.nodes_expanded() >= 3);

        let zero = Budget::unlimited().max_nodes(0);
        assert_eq!(zero.try_charge(1), Err(StopReason::NodeBudget));
    }

    #[test]
    fn expired_deadline_is_detected_on_the_first_charge() {
        let budget = Budget::unlimited().deadline(Duration::ZERO);
        assert_eq!(budget.try_charge(1), Err(StopReason::Deadline));
        assert_eq!(budget.check(), Err(StopReason::Deadline));
        // A stride-width bulk charge also crosses the check boundary.
        let bulk = Budget::unlimited().deadline(Duration::ZERO);
        assert_eq!(bulk.try_charge(DEADLINE_STRIDE * 2), Err(StopReason::Deadline));
    }

    #[test]
    fn a_fresh_budget_keeps_the_limits_and_zeroes_the_counters() {
        let spent = Budget::unlimited().max_nodes(2).deadline(Duration::from_secs(3600));
        assert_eq!(spent.try_charge(3), Err(StopReason::NodeBudget));
        let fresh = spent.fresh();
        assert_eq!(fresh.nodes_expanded(), 0);
        assert_eq!(fresh.class_bits(), spent.class_bits());
        assert_eq!(fresh.try_charge(2), Ok(()));
        assert_eq!(fresh.try_charge(1), Err(StopReason::NodeBudget));
        // A relative deadline re-arms from the copy; an absolute one that
        // passed stays passed.
        let relative = Budget::unlimited().deadline(Duration::from_millis(200));
        thread::sleep(Duration::from_millis(250));
        assert_eq!(relative.check(), Err(StopReason::Deadline));
        assert_eq!(relative.fresh().check(), Ok(()));
        let past = Budget::unlimited().deadline_at(Instant::now());
        assert_eq!(past.fresh().check(), Err(StopReason::Deadline));
        assert!(Budget::unlimited().fresh().is_unlimited());
    }

    #[test]
    fn cancel_token_stops_all_clones() {
        let token = CancelToken::new();
        let budget = Budget::unlimited().cancel_token(&token);
        let clone = budget.clone();
        assert_eq!(budget.try_charge(1), Ok(()));
        token.cancel();
        assert_eq!(budget.try_charge(1), Err(StopReason::Cancelled));
        assert_eq!(clone.check(), Err(StopReason::Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn chaos_hook_fires_exactly_once() {
        let budget = Budget::unlimited().chaos_panic_at_node(2);
        assert_eq!(budget.try_charge(1), Ok(()));
        let hit = std::panic::catch_unwind(AssertUnwindSafe(|| budget.try_charge(1)));
        assert!(hit.is_err(), "second charge crosses node 2 and panics");
        // Disarmed after firing: the same budget keeps working.
        assert_eq!(budget.try_charge(10), Ok(()));
    }

    #[test]
    fn retry_backoff_is_deterministic_and_grows() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff(3, 1), policy.backoff(3, 1));
        assert_ne!(policy.backoff(3, 1), policy.backoff(4, 1));
        assert!(policy.backoff(0, 3) >= policy.backoff(0, 1));
        assert_eq!(RetryPolicy::none().backoff(0, 1), Duration::ZERO);
    }

    #[test]
    fn try_par_map_matches_par_map_on_the_happy_path() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            let out = pool
                .try_par_map(&items, &RetryPolicy::none(), &accpar_obs::Obs::off(), |_, &x| x * 3)
                .expect("no panics");
            assert_eq!(out, pool.par_map(&items, |_, &x| x * 3));
        }
    }

    #[test]
    fn try_par_map_retries_a_transient_panic() {
        let failures = AtomicUsize::new(0);
        let items: Vec<usize> = (0..32).collect();
        for threads in [1, 4] {
            failures.store(0, Ordering::Relaxed);
            let policy = RetryPolicy {
                base_backoff_us: 1,
                ..RetryPolicy::default()
            };
            let out = Pool::new(threads)
                .try_par_map(&items, &policy, &accpar_obs::Obs::off(), |i, &x| {
                    if i == 5 && failures.fetch_add(1, Ordering::Relaxed) == 0 {
                        panic!("transient");
                    }
                    x + 1
                })
                .expect("transient panic is retried");
            assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
            assert_eq!(failures.load(Ordering::Relaxed), 2, "one panic + one retry");
        }
    }

    #[test]
    fn try_par_map_reports_a_persistent_panic_and_leaves_the_pool_usable() {
        let items: Vec<usize> = (0..16).collect();
        let pool = Pool::new(4);
        let policy = RetryPolicy {
            attempts: 1,
            base_backoff_us: 1,
            seed: 7,
        };
        let err = pool
            .try_par_map(&items, &policy, &accpar_obs::Obs::off(), |i, &x| {
                if i == 7 {
                    panic!("persistent failure");
                }
                x
            })
            .expect_err("item 7 always panics");
        assert_eq!(err.index, 7);
        assert_eq!(err.attempts, 2);
        assert!(err.message.contains("persistent failure"));
        // Regression: the panic must not poison pool state for later
        // calls — both map flavors still work on the same pool value.
        assert_eq!(pool.par_map(&items, |_, &x| x), items);
        assert_eq!(
            pool.try_par_map(&items, &RetryPolicy::none(), &accpar_obs::Obs::off(), |_, &x| x),
            Ok(items.clone())
        );
    }

    #[test]
    fn lock_unpoisoned_recovers_a_poisoned_mutex() {
        let shared = Mutex::new(vec![1, 2, 3]);
        let poison = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = shared.lock().expect("first lock");
            panic!("poison the mutex");
        }));
        assert!(poison.is_err());
        assert!(shared.is_poisoned(), "the mutex really was poisoned");
        let mut guard = lock_unpoisoned(&shared);
        guard.push(4);
        assert_eq!(*guard, vec![1, 2, 3, 4]);
    }
}
