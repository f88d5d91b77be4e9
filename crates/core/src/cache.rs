//! Crash-safe, self-healing plan-serving cache (ROADMAP item 1).
//!
//! Planning the same (network, hardware, budget class) request twice is
//! pure waste — the DP is deterministic — but a cache that serves a
//! stale or corrupted plan silently violates the optimality contract of
//! PAPER.md §4, which is worse than no cache at all. This module
//! therefore treats every stored byte as hostile until proven
//! otherwise:
//!
//! * **Fingerprinting** — [`plan_key`] canonicalizes the layer DAG
//!   (topological element walk, interned layer signatures), the
//!   accelerator array, the strategy/levels/cost/solver/simulator
//!   configuration and the [`Budget`] *class* into a two-lane 128-bit
//!   content hash ([`PlanKey`]). Both lanes hash the same value-complete
//!   byte stream through differently-seeded `FxHasher`s, so an
//!   accidental single-lane collision cannot alias two requests.
//! * **Durability** — a sharded in-memory LRU backed by an append-only
//!   JSON-lines journal. The file starts with a generation header;
//!   every later line is a plan record or a tombstone
//!   (`{"evict":"<key hex>","crc":"…"}`), and every line carries an
//!   FNV-1a checksum over its serialized prefix. An insert appends its
//!   record line plus one tombstone per key it LRU-evicts; a poisoning
//!   [`PlanCache::evict`] appends a tombstone. Every mutation takes the
//!   journal lock before any shard lock, so the order of the lines is
//!   the order of the changes in memory, and a crash mid-append can
//!   tear only the last line.
//! * **Compaction** — when the journal holds more than twice as many
//!   lines as live records, and at open when the warm load found dead
//!   or quarantined lines, the live set is rewritten through a temp
//!   file plus atomic rename, so a crash mid-compaction leaves either
//!   the old journal or the new one, never a torn one.
//! * **Self-healing** — warm load replays the journal in order (a later
//!   record replaces an earlier one; a tombstone removes its key),
//!   verifying each line's checksum and shape; corrupt, truncated or
//!   non-UTF-8 lines are quarantined into a `.quarantine` sidecar (for
//!   postmortems) instead of failing startup, and the open compacts
//!   them away before the next append.
//! * **Degraded modes** — any persistence I/O error flips the cache to
//!   memory-only serving with a `cache.degraded` event; it never
//!   panics and never fails a plan.
//!
//! Admission validation (shape/topology match, feasibility against the
//! *current* array, a BSP simulation cross-check against the stored
//! cost) lives in the planner, which owns the view and group tree; the
//! cache only stores and retrieves candidate records. A record whose
//! simulated cost disagrees with its stored cost beyond
//! [`POISON_TOLERANCE`] is *poisoned* — the planner evicts it via
//! [`PlanCache::evict`] and re-plans.
//!
//! The cross-check is kept cheap by memoizing its result: the key is
//! value-complete (nothing outside it can change the plan) and the BSP
//! simulator is a pure function, so once a record has reproduced its
//! stored cost in this process, re-running the identical simulation on
//! every subsequent hit would recompute a proven constant. Disk bytes
//! are never trusted this way — the memo lives only in memory
//! ([`PlanCache::mark_verified`]), so every record loaded or re-loaded
//! from the file pays the full re-simulation on its first serve, and
//! the shape/topology admission check still runs on *every* hit.

use crate::memo::{context_hash, hash_view};
use crate::planner::Strategy;
use accpar_cost::cache::{FxHashMap, FxHasher};
use accpar_cost::{CostConfig, RatioSolver};
use accpar_dnn::TrainView;
use accpar_hw::AcceleratorArray;
use accpar_obs::json::Json;
use accpar_obs::Obs;
use accpar_partition::{LayerPlan, NetworkPlan, PartitionType, PlanTree, Ratio};
use accpar_runtime::{lock_unpoisoned, Budget};
use accpar_sim::{MemModel, Optimizer, SimConfig, SimReport};
use std::fmt;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::{fs, io};

/// A stored cost and a freshly simulated cost may differ by at most
/// this much before the record is declared poisoned. The simulator is
/// deterministic, so any honest record reproduces its cost bit-exactly;
/// the tolerance only forgives benign last-ulp drift.
pub const POISON_TOLERANCE: f64 = 1e-9;

/// Number of LRU shards; must be a power of two.
const SHARDS: usize = 8;

/// File-format version of the persistence layer; bumped on any change
/// to the record schema so older binaries quarantine newer files
/// instead of misreading them. Version 2 writes a twin bisection
/// ([`PlanTree::twin`]) as `"twin":{…}` with its shared child once,
/// where version 1 wrote `"children":[…,…]`. Version-1 files still load,
/// and one is rewritten as version 2 before its first append, so no file
/// mixes the two.
const FORMAT_VERSION: u64 = 2;

/// Seeds priming the two hash lanes of a [`PlanKey`]. Arbitrary odd
/// constants; all that matters is that they differ, so the two lanes
/// walk different hash trajectories over the same byte stream.
const LANE_SEEDS: [u64; 2] = [0x9e37_79b9_7f4a_7c15, 0xc2b2_ae3d_27d4_eb4f];

/// A two-lane 128-bit content fingerprint of a plan request — the cache
/// key. See [`plan_key`] for what it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    hi: u64,
    lo: u64,
}

impl PlanKey {
    /// The key as 32 lowercase hex digits (`hi` then `lo`).
    #[must_use]
    pub fn to_hex(self) -> String {
        self.to_string()
    }

    /// Parses the [`PlanKey::to_hex`] form back.
    fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Self { hi, lo })
    }
}

impl fmt::Display for PlanKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Hashes everything that determines a plan into one lane.
#[allow(clippy::too_many_arguments)]
fn lane(
    seed: u64,
    view: &TrainView,
    iso: &accpar_dnn::iso::IsoClasses,
    array: &AcceleratorArray,
    strategy: Strategy,
    levels: usize,
    cost_config: &CostConfig,
    solver: &RatioSolver,
    sim_config: &SimConfig,
    budget: &Budget,
) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(seed);
    // Layer DAG: the canonical class multiset (classified once by the
    // caller — it prices both lanes).
    hash_view(&mut h, view, iso, cost_config);
    // Hardware: every board's full capability vector, in array order.
    h.write_usize(array.len());
    for board in array.boards() {
        h.write(board.name().as_bytes());
        h.write_u64(board.peak_flops().to_bits());
        h.write_u64(board.hbm_bytes());
        h.write_u64(board.mem_bw().to_bits());
        h.write_u64(board.net_bw().to_bits());
        h.write_usize(board.cores());
        h.write_u64(board.ici_bw().to_bits());
    }
    h.write_u8(match strategy {
        Strategy::DataParallel => 0,
        Strategy::Owt => 1,
        Strategy::HyPar => 2,
        Strategy::AccPar => 3,
    });
    h.write_usize(levels);
    // Search context: cost config, ratio policy, admissible types.
    h.write_u64(context_hash(cost_config, solver, &PartitionType::ALL));
    // Simulator configuration (no Hash derive on MemModel — encoded
    // manually, field by field).
    h.write_u8(sim_config.format as u8);
    h.write_u8(match sim_config.mem_model {
        MemModel::Roofline => 0,
        MemModel::Serial => 1,
        MemModel::ComputeOnly => 2,
    });
    h.write_u8(u8::from(sim_config.interlayer));
    h.write_u8(u8::from(sim_config.skip_first_backward));
    h.write_u8(match sim_config.update {
        None => 0,
        Some(Optimizer::Sgd) => 1,
        Some(Optimizer::Momentum) => 2,
        Some(Optimizer::Adam) => 3,
    });
    h.write_u64(budget.class_bits());
    h.finish()
}

/// The content fingerprint of one plan request: layer DAG + hardware +
/// strategy + hierarchy depth + cost/solver/simulator configuration +
/// [`Budget::class_bits`]. Two requests with equal keys are planned
/// identically by the deterministic DP; nothing outside the key (thread
/// budget, observability, caching knobs) can change the plan.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn plan_key(
    view: &TrainView,
    array: &AcceleratorArray,
    strategy: Strategy,
    levels: usize,
    cost_config: &CostConfig,
    solver: &RatioSolver,
    sim_config: &SimConfig,
    budget: &Budget,
) -> PlanKey {
    let iso = accpar_dnn::iso::IsoClasses::of(view);
    let h = |seed| {
        lane(
            seed, view, &iso, array, strategy, levels, cost_config, solver, sim_config, budget,
        )
    };
    PlanKey {
        hi: h(LANE_SEEDS[0]),
        lo: h(LANE_SEEDS[1]),
    }
}

/// One durable cache record: the plan plus enough context to
/// cross-check it before serving.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRecord {
    /// The request fingerprint the record answers.
    pub key: PlanKey,
    /// The strategy that produced the plan.
    pub strategy: Strategy,
    /// Hierarchy depth the plan was searched at.
    pub levels: usize,
    /// Modeled step time (seconds) at admission — the BSP cross-check
    /// re-simulates and compares against this, bit-for-bit modulo
    /// [`POISON_TOLERANCE`].
    pub cost: f64,
    /// The hierarchical plan itself.
    pub plan: PlanTree,
}

/// How the plan cache participated in one planning call (provenance
/// for the serving layer, which demotes hits when hardware degraded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// No cache was attached to the planner.
    Disabled,
    /// A record passed admission validation and was served.
    Hit,
    /// No record existed; the plan was computed (and admitted).
    Miss,
    /// A record failed the shape/feasibility checks; the plan was
    /// recomputed and the record replaced.
    Invalid,
    /// A record's stored cost disagreed with the BSP cross-check beyond
    /// [`POISON_TOLERANCE`]; it was evicted and the plan recomputed.
    Poisoned,
}

impl CacheOutcome {
    /// Stable label for traces and events.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            CacheOutcome::Disabled => "disabled",
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Invalid => "invalid",
            CacheOutcome::Poisoned => "poisoned",
        }
    }
}

// --- line codec -------------------------------------------------------
//
// Lines are written straight into a `String` and read back through the
// `Json` parser. A written line is byte-identical to what `Json::compact`
// renders for the same object, which is how every file of this
// `FORMAT_VERSION` was written, so old files stay readable and their
// checksums stay valid.

fn strategy_label(s: Strategy) -> &'static str {
    match s {
        Strategy::DataParallel => "DP",
        Strategy::Owt => "OWT",
        Strategy::HyPar => "HyPar",
        Strategy::AccPar => "AccPar",
    }
}

fn strategy_from_label(s: &str) -> Option<Strategy> {
    match s {
        "DP" => Some(Strategy::DataParallel),
        "OWT" => Some(Strategy::Owt),
        "HyPar" => Some(Strategy::HyPar),
        "AccPar" => Some(Strategy::AccPar),
        _ => None,
    }
}

fn ptype_code(t: PartitionType) -> u8 {
    match t {
        PartitionType::TypeI => 1,
        PartitionType::TypeII => 2,
        PartitionType::TypeIII => 3,
    }
}

fn ptype_from_code(c: f64) -> Option<PartitionType> {
    match c as i64 {
        1 => Some(PartitionType::TypeI),
        2 => Some(PartitionType::TypeII),
        3 => Some(PartitionType::TypeIII),
        _ => None,
    }
}

/// Ratios and costs round-trip as hex-encoded IEEE-754 bits: a decimal
/// rendering would lose ulps and break the bit-identical-serving
/// guarantee.
fn f64_from_bits_hex(j: &Json) -> Option<f64> {
    let s = j.as_str()?;
    if s.len() != 16 {
        return None;
    }
    Some(f64::from_bits(u64::from_str_radix(s, 16).ok()?))
}

/// Appends one layer as `[type code,"ratio bits"]`, the bits as 16
/// lowercase hex digits. Equivalent to `write!(out, "[{},\"{:016x}\"]", …)`
/// without the formatter's overhead, which dominated encoding deep plans.
fn push_layer(out: &mut String, layer: &LayerPlan) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let bits = layer.ratio.value().to_bits();
    let mut text = *b"[0,\"0000000000000000\"]";
    text[1] += ptype_code(layer.ptype);
    for (i, digit) in text[4..20].iter_mut().enumerate() {
        *digit = DIGITS[(bits >> (60 - 4 * i)) as usize & 0xf];
    }
    out.push_str(std::str::from_utf8(&text).unwrap_or_default());
}

/// Appends `tree` as `{"layers":[[type code,"ratio bits"],…]}`, with a
/// `"twin"` child for a twin and a `"children"` pair for any other
/// branch, so each distinct subtree is written once.
fn push_plan(out: &mut String, tree: &PlanTree) {
    out.push_str("{\"layers\":[");
    for (i, layer) in tree.plan().layers().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_layer(out, layer);
    }
    out.push(']');
    match tree.children() {
        Some((child, _)) if tree.is_twin() => {
            out.push_str(",\"twin\":");
            push_plan(out, child);
        }
        Some((left, right)) => {
            out.push_str(",\"children\":[");
            push_plan(out, left);
            out.push(',');
            push_plan(out, right);
            out.push(']');
        }
        None => {}
    }
    out.push('}');
}

/// Decodes a plan node; `twins` is whether the file's version writes
/// them. A node with both a `"twin"` and `"children"` is malformed.
fn plan_from_json(j: &Json, twins: bool) -> Option<PlanTree> {
    let Json::Arr(layers) = j.get("layers")? else {
        return None;
    };
    let mut entries = Vec::with_capacity(layers.len());
    for layer in layers {
        let Json::Arr(pair) = layer else { return None };
        let [code, ratio_bits] = pair.as_slice() else {
            return None;
        };
        let ptype = ptype_from_code(code.as_f64()?)?;
        let ratio = Ratio::new(f64_from_bits_hex(ratio_bits)?).ok()?;
        entries.push(LayerPlan::new(ptype, ratio));
    }
    if entries.is_empty() {
        return None;
    }
    let plan = NetworkPlan::new(entries);
    match (j.get("children"), j.get("twin")) {
        (None, None) => Some(PlanTree::leaf(plan)),
        (Some(Json::Arr(kids)), None) => {
            let [l, r] = kids.as_slice() else { return None };
            Some(PlanTree::branch(
                plan,
                plan_from_json(l, twins)?,
                plan_from_json(r, twins)?,
            ))
        }
        (None, Some(child)) if twins => Some(PlanTree::twin(plan, plan_from_json(child, twins)?)),
        _ => None,
    }
}

/// FNV-1a 64 over raw bytes — the per-line checksum. Deliberately a
/// *different* hash family than the FxHash key lanes, so a corruption
/// that happened to preserve one cannot be masked by the other.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Closes the line that starts at byte `start` of `out` — an object
/// still missing its closing brace — with the checksum over everything
/// from `start` on as the final field, then a newline.
fn seal(out: &mut String, start: usize) {
    let crc = fnv1a(&out.as_bytes()[start..]);
    let _ = writeln!(out, ",\"crc\":\"{crc:016x}\"}}");
}

/// Verifies and strips a sealed line's checksum, returning the parsed
/// object on success.
fn open_line(line: &str) -> Option<Json> {
    let at = line.rfind(",\"crc\":\"")?;
    let prefix = &line[..at];
    let rest = &line[at + ",\"crc\":\"".len()..];
    let hex = rest.strip_suffix("\"}")?;
    if hex.len() != 16 {
        return None;
    }
    let stored = u64::from_str_radix(hex, 16).ok()?;
    if fnv1a(prefix.as_bytes()) != stored {
        return None;
    }
    Json::parse(line).ok()
}

/// Appends `record`'s sealed line.
fn push_record(out: &mut String, record: &PlanRecord) {
    let start = out.len();
    let _ = write!(
        out,
        "{{\"key\":\"{}\",\"strategy\":\"{}\",\"levels\":{},\"cost\":\"{:016x}\",\"plan\":",
        record.key,
        strategy_label(record.strategy),
        record.levels,
        record.cost.to_bits()
    );
    push_plan(out, &record.plan);
    seal(out, start);
}

/// Appends the sealed tombstone line that removes `key`.
fn push_tombstone(out: &mut String, key: PlanKey) {
    let start = out.len();
    let _ = write!(out, "{{\"evict\":\"{key}\"");
    seal(out, start);
}

/// Appends the sealed header line that opens a journal.
fn push_header(out: &mut String, generation: u64) {
    let start = out.len();
    let _ = write!(
        out,
        "{{\"magic\":\"accpar-plan-cache\",\"version\":{FORMAT_VERSION},\"generation\":{generation}"
    );
    seal(out, start);
}

/// One verified journal line after the header.
enum JournalLine {
    /// A plan record; replaces any earlier record of its key.
    Record(PlanRecord),
    /// A tombstone; removes its key.
    Evict(PlanKey),
}

/// Decodes one line of a journal of format `version`. A record whose
/// plan depth disagrees with its `levels` is malformed.
fn decode_line(line: &str, version: u64) -> Option<JournalLine> {
    let j = open_line(line)?;
    if let Some(key) = j.get("evict") {
        return Some(JournalLine::Evict(PlanKey::from_hex(key.as_str()?)?));
    }
    let record = PlanRecord {
        key: PlanKey::from_hex(j.get("key")?.as_str()?)?,
        strategy: strategy_from_label(j.get("strategy")?.as_str()?)?,
        levels: j.get("levels")?.as_f64()? as usize,
        cost: f64_from_bits_hex(j.get("cost")?)?,
        plan: plan_from_json(j.get("plan")?, version >= 2)?,
    };
    (record.plan.depth() == record.levels).then_some(JournalLine::Record(record))
}

/// Parses and verifies a header line, returning its format version (1
/// or [`FORMAT_VERSION`]) and generation.
fn header_version(line: &str) -> Option<(u64, u64)> {
    let j = open_line(line)?;
    if j.get("magic")?.as_str()? != "accpar-plan-cache" {
        return None;
    }
    let version = j.get("version")?.as_f64()? as u64;
    if !(1..=FORMAT_VERSION).contains(&version) {
        return None;
    }
    Some((version, j.get("generation")?.as_f64()? as u64))
}

// --- the cache --------------------------------------------------------

/// Counter snapshot of a [`PlanCache`]; every field is cumulative since
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache (before admission validation).
    pub hits: u64,
    /// Lookups with no record.
    pub misses: u64,
    /// Records removed by LRU pressure or explicit eviction.
    pub evictions: u64,
    /// Persisted lines quarantined at warm load.
    pub quarantined: u64,
    /// Records whose stored cost disagreed with a fresh simulation
    /// (evicted via [`PlanCache::evict`] by the planner).
    pub poisoned: u64,
    /// Validated hits demoted to replan warm-starts (counted by the
    /// serving layer via [`PlanCache::note_demotion`]).
    pub demotions: u64,
    /// Persistence I/O errors absorbed (each one degrades the cache to
    /// memory-only serving).
    pub io_errors: u64,
}

#[derive(Debug)]
struct Entry {
    record: PlanRecord,
    tick: u64,
    /// The BSP cross-check report, memoized after the record first
    /// passes validation in this process. The key is value-complete and
    /// the simulator is pure, so a record proven once cannot go stale in
    /// memory — only disk bytes are hostile. Never persisted: every
    /// record loaded from disk starts unverified and pays the full
    /// cross-check on its first serve.
    verified: Option<SimReport>,
}

#[derive(Debug, Default)]
struct Shard {
    map: FxHashMap<PlanKey, Entry>,
}

/// The append-only journal behind a persistent cache. Its mutex is the
/// outermost lock: every mutation holds it, before any shard lock, until
/// its lines are written, so the journal's order is the memory order.
#[derive(Debug, Default)]
struct Journal {
    /// Write handle at the end of the file; `None` for a memory-only
    /// cache and after an I/O error.
    out: Option<fs::File>,
    /// Lines after the header: live records plus dead ones (superseded
    /// records and tombstones).
    lines: usize,
    /// The lines of the write being assembled, reused across writes.
    buf: String,
    /// The file is a version-1 journal: the next write rewrites it in
    /// the current format instead of appending to it.
    legacy: bool,
}

/// What a warm load found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadReport {
    /// Records live after the replay (verified and admitted to memory).
    pub loaded: usize,
    /// Lines (or whole files) moved to the `.quarantine` sidecar.
    pub quarantined: usize,
}

/// The persistent, crash-safe plan-serving cache. See the
/// [module docs](self) for the design; thread-safe behind internal
/// sharded locks, shared via `Arc`.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    cap: usize,
    clock: AtomicU64,
    generation: AtomicU64,
    /// Persistence target; `None` for a memory-only cache.
    file: Option<PathBuf>,
    journal: Mutex<Journal>,
    /// Cleared on the first I/O error: the cache keeps serving from
    /// memory and stops touching the disk.
    persist_ok: AtomicBool,
    load_report: LoadReport,
    obs: Obs,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    quarantined: AtomicU64,
    poisoned: AtomicU64,
    demotions: AtomicU64,
    io_errors: AtomicU64,
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanCache")
            .field("len", &self.len())
            .field("cap", &self.cap)
            .field("file", &self.file)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl PlanCache {
    /// A memory-only cache holding at most `cap` plans (minimum 1).
    #[must_use]
    pub fn memory(cap: usize) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            cap: cap.max(1),
            clock: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            file: None,
            journal: Mutex::new(Journal::default()),
            persist_ok: AtomicBool::new(true),
            load_report: LoadReport::default(),
            obs: Obs::off(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        }
    }

    /// Opens (or creates) a persistent cache under `dir`, warm-loading
    /// the `plans.jsonl` journal with per-line verification. Never
    /// fails: corrupt lines are quarantined, I/O errors degrade to
    /// memory-only serving — both observable via
    /// [`PlanCache::load_report`] / [`PlanCache::stats`] and the attached
    /// [`Obs`].
    #[must_use]
    pub fn open(dir: &Path, cap: usize, obs: Obs) -> Self {
        let mut cache = Self::memory(cap);
        cache.obs = obs;
        cache.file = Some(dir.join("plans.jsonl"));
        if let Err(e) = fs::create_dir_all(dir) {
            cache.degrade("create cache dir", &e);
            return cache;
        }
        cache.load_report = cache.warm_load();
        cache
    }

    /// Attaches an observability handle after construction (counters
    /// `cache.hit` / `cache.miss` / `cache.evict` / `cache.quarantine` /
    /// `cache.demote` / `cache.poisoned` / `cache.degraded` and the
    /// degrade/quarantine events). [`PlanCache::open`] takes the handle
    /// directly; this serves memory-only caches.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// What the warm load found (all zeros for a memory-only cache).
    #[must_use]
    pub const fn load_report(&self) -> LoadReport {
        self.load_report
    }

    /// The persistence generation: how many writes the file has taken
    /// over its lifetime, counting one per appended journal line and one
    /// per compaction. It is carried across restarts by the header plus
    /// the lines after it, so it never falls across a reopen.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Whether the cache is still writing through to disk (`false` for
    /// memory-only caches and after an I/O degrade).
    #[must_use]
    pub fn persistent(&self) -> bool {
        self.file.is_some() && self.persist_ok.load(Ordering::Relaxed)
    }

    /// Records currently held in memory.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_unpoisoned(s).map.len()).sum()
    }

    /// Whether the cache holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative counters.
    #[must_use]
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            poisoned: self.poisoned.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
        }
    }

    fn shard(&self, key: &PlanKey) -> &Mutex<Shard> {
        &self.shards[(key.hi as usize) & (SHARDS - 1)]
    }

    /// Looks a key up, counting hit/miss and touching the LRU clock.
    /// The returned record is a *candidate* — the caller must validate
    /// it before serving (see the [module docs](self)). The second slot
    /// carries the memoized cross-check report when the record already
    /// passed validation in this process ([`PlanCache::mark_verified`]).
    #[must_use]
    pub fn lookup(&self, key: &PlanKey) -> Option<(PlanRecord, Option<SimReport>)> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = lock_unpoisoned(self.shard(key));
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.tick = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                if self.obs.enabled() {
                    self.obs.counter("cache.hit").inc();
                }
                Some((entry.record.clone(), entry.verified.clone()))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if self.obs.enabled() {
                    self.obs.counter("cache.miss").inc();
                }
                None
            }
        }
    }

    /// Looks a key up without counting or touching the LRU clock —
    /// used by probes that must not skew the hit rate.
    #[must_use]
    pub fn peek(&self, key: &PlanKey) -> Option<PlanRecord> {
        lock_unpoisoned(self.shard(key))
            .map
            .get(key)
            .map(|e| e.record.clone())
    }

    /// A snapshot of every record currently held, in no particular
    /// order (diagnostics, tests, CLI inspection).
    #[must_use]
    pub fn records(&self) -> Vec<PlanRecord> {
        self.shards
            .iter()
            .flat_map(|s| {
                lock_unpoisoned(s)
                    .map
                    .values()
                    .map(|e| e.record.clone())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Inserts (or replaces) a record and appends its line to the journal
    /// when persistence is healthy. LRU pressure evicts the stalest entry
    /// of the record's shard once the shard exceeds its slice of the cap,
    /// appending a tombstone for each key it removes. The record starts
    /// *unverified*: its first serve pays the full BSP cross-check
    /// ([`PlanCache::insert_verified`] skips that for records whose
    /// report the caller just computed).
    pub fn insert(&self, record: PlanRecord) {
        self.insert_entry(record, None);
    }

    /// [`PlanCache::insert`] for a record admitted straight from a
    /// fresh plan: the caller's own simulation report is memoized, so
    /// the record's first serve validates without re-simulating.
    pub fn insert_verified(&self, record: PlanRecord, report: SimReport) {
        self.insert_entry(record, Some(report));
    }

    /// Memoizes a passed cross-check for a resident record (no-op if it
    /// was evicted meanwhile). Subsequent [`PlanCache::lookup`] hits
    /// carry the report and skip the re-simulation.
    pub fn mark_verified(&self, key: &PlanKey, report: SimReport) {
        if let Some(entry) = lock_unpoisoned(self.shard(key)).map.get_mut(key) {
            entry.verified = Some(report);
        }
    }

    fn insert_entry(&self, record: PlanRecord, verified: Option<SimReport>) {
        let mut journal = lock_unpoisoned(&self.journal);
        let writing = self.persistent();
        if writing {
            push_record(&mut journal.buf, &record);
        }
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let key = record.key;
        let shard_cap = self.cap.div_ceil(SHARDS).max(1);
        {
            let mut shard = lock_unpoisoned(self.shard(&key));
            shard.map.insert(
                key,
                Entry {
                    record,
                    tick,
                    verified,
                },
            );
            while shard.map.len() > shard_cap {
                let stalest = shard
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.tick)
                    .map(|(k, _)| *k)
                    .expect("non-empty shard has a minimum");
                shard.map.remove(&stalest);
                if writing {
                    push_tombstone(&mut journal.buf, stalest);
                }
                self.evictions.fetch_add(1, Ordering::Relaxed);
                if self.obs.enabled() {
                    self.obs.counter("cache.evict").inc();
                }
            }
        }
        self.commit(&mut journal);
    }

    /// Removes a record (poisoning eviction) and appends its tombstone
    /// to the journal. Returns whether it was present.
    pub fn evict(&self, key: &PlanKey) -> bool {
        let mut journal = lock_unpoisoned(&self.journal);
        let removed = lock_unpoisoned(self.shard(key)).map.remove(key).is_some();
        if removed {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.poisoned.fetch_add(1, Ordering::Relaxed);
            if self.obs.enabled() {
                self.obs.counter("cache.evict").inc();
                self.obs.counter("cache.poisoned").inc();
            }
            if self.persistent() {
                push_tombstone(&mut journal.buf, *key);
                self.commit(&mut journal);
            }
        }
        removed
    }

    /// Counts a validated hit that was demoted to a replan warm-start
    /// (stale-hardware serving; the record itself stays cached for
    /// healthy requests).
    pub fn note_demotion(&self) {
        self.demotions.fetch_add(1, Ordering::Relaxed);
        if self.obs.enabled() {
            self.obs.counter("cache.demote").inc();
        }
    }

    // --- persistence --------------------------------------------------

    fn degrade(&self, what: &str, err: &io::Error) {
        // First error wins; later ones are already degraded.
        let first = self.persist_ok.swap(false, Ordering::Relaxed);
        self.io_errors.fetch_add(1, Ordering::Relaxed);
        if first && self.obs.enabled() {
            self.obs.counter("cache.degraded").inc();
            self.obs.event(
                "cache.degraded",
                &[
                    ("op", what.to_owned().into()),
                    ("error", err.to_string().into()),
                ],
            );
        }
    }

    fn quarantine_line(&self, sidecar: &Path, line: &[u8], reason: &str) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        if self.obs.enabled() {
            self.obs.counter("cache.quarantine").inc();
            self.obs.event(
                "cache.quarantine",
                &[
                    ("reason", reason.to_owned().into()),
                    ("bytes", line.len().into()),
                ],
            );
        }
        // Best-effort: losing the postmortem copy must not fail the
        // load (the open compacts the bad line away either way).
        let _ = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(sidecar)
            .and_then(|mut f| f.write_all(&[line, b"\n"].concat()));
    }

    /// Replays the journal into memory, then either reopens it for
    /// appending or, when the replay found dead or quarantined lines (or
    /// no journal at all), compacts it.
    fn warm_load(&self) -> LoadReport {
        let Some(file) = &self.file else {
            return LoadReport::default();
        };
        let sidecar = file.with_extension("jsonl.quarantine");
        let mut journal = lock_unpoisoned(&self.journal);
        // Bytes, not text: one flipped high bit must cost one line, not
        // the whole journal.
        let bytes = match fs::read(file) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => {
                self.degrade("read cache file", &e);
                return LoadReport::default();
            }
        };
        let mut quarantined = 0usize;
        let mut lines = bytes.split_inclusive(|&b| b == b'\n');
        let header = lines.next().map(|h| {
            h.strip_suffix(b"\n")
                .and_then(|h| std::str::from_utf8(h).ok())
                .and_then(header_version)
        });
        let clean = match header {
            None => false,
            Some(Some((version, generation))) => {
                journal.legacy = version < FORMAT_VERSION;
                for raw in lines {
                    journal.lines += 1;
                    let Some(line) = raw.strip_suffix(b"\n") else {
                        // Truncated tail: the crash interrupted this
                        // append mid-line.
                        self.quarantine_line(&sidecar, raw, "truncated-tail");
                        quarantined += 1;
                        continue;
                    };
                    if line.is_empty() {
                        continue;
                    }
                    let Ok(line) = std::str::from_utf8(line) else {
                        self.quarantine_line(&sidecar, line, "invalid-utf8");
                        quarantined += 1;
                        continue;
                    };
                    match decode_line(line, version) {
                        Some(JournalLine::Record(record)) => {
                            let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                            lock_unpoisoned(self.shard(&record.key)).map.insert(
                                record.key,
                                Entry {
                                    record,
                                    tick,
                                    verified: None,
                                },
                            );
                        }
                        Some(JournalLine::Evict(key)) => {
                            lock_unpoisoned(self.shard(&key)).map.remove(&key);
                        }
                        None => {
                            self.quarantine_line(&sidecar, line.as_bytes(), "checksum-or-schema");
                            quarantined += 1;
                        }
                    }
                }
                self.generation
                    .store(generation + journal.lines as u64, Ordering::Relaxed);
                true
            }
            Some(None) => {
                // The header itself is unreadable: nothing below it
                // can be trusted — quarantine the whole file.
                let end = bytes.iter().rposition(|&b| b != b'\n').map_or(0, |i| i + 1);
                self.quarantine_line(&sidecar, &bytes[..end], "bad-header");
                quarantined += 1;
                false
            }
        };
        let loaded = self.len();
        if clean && journal.lines == loaded {
            // Every line is a live record: keep appending to the file.
            match fs::OpenOptions::new().append(true).open(file) {
                Ok(out) => journal.out = Some(out),
                Err(e) => self.degrade("open cache journal", &e),
            }
        } else {
            // Rewrite now, so bad bytes cannot resurface and the next
            // append starts on a clean line.
            self.compact(&mut journal);
        }
        LoadReport { loaded, quarantined }
    }

    /// Appends the lines assembled in the journal's buffer, then compacts
    /// once the journal holds more than twice as many lines as live
    /// records. A version-1 journal is compacted instead — the memory
    /// already holds the write — so the file moves to the current format
    /// whole. Caller holds the journal lock.
    fn commit(&self, journal: &mut Journal) {
        if journal.buf.is_empty() {
            return;
        }
        if journal.legacy {
            journal.buf.clear();
            self.compact(journal);
            return;
        }
        let lines = journal.buf.matches('\n').count();
        let written = match &mut journal.out {
            Some(out) => out.write_all(journal.buf.as_bytes()),
            None => Err(io::ErrorKind::NotFound.into()),
        };
        journal.buf.clear();
        if let Err(e) = written {
            self.degrade("append to cache journal", &e);
            return;
        }
        journal.lines += lines;
        self.generation.fetch_add(lines as u64, Ordering::Relaxed);
        if journal.lines > 2 * self.len() {
            self.compact(journal);
        }
    }

    /// Rewrites the journal as a header plus one line per live record,
    /// through a temp file and an atomic rename, so a crash leaves either
    /// the old journal or the new one. Lines are written one at a time,
    /// so the buffer never holds more than the largest record. Caller
    /// holds the journal lock.
    fn compact(&self, journal: &mut Journal) {
        let Some(file) = &self.file else { return };
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let out = &mut journal.buf;
        let mut live = 0;
        let tmp = file.with_extension("jsonl.tmp");
        let written = fs::File::create(&tmp).and_then(|mut f| {
            push_header(out, generation);
            f.write_all(out.as_bytes())?;
            for shard in &self.shards {
                for entry in lock_unpoisoned(shard).map.values() {
                    out.clear();
                    push_record(out, &entry.record);
                    f.write_all(out.as_bytes())?;
                    live += 1;
                }
            }
            fs::rename(&tmp, file)?;
            Ok(f)
        });
        out.clear();
        journal.lines = live;
        journal.legacy = false;
        match written {
            Ok(f) => journal.out = Some(f),
            Err(e) => {
                journal.out = None;
                self.degrade("compact cache journal", &e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One record's sealed line, without the newline.
    fn record_to_line(record: &PlanRecord) -> String {
        let mut out = String::new();
        push_record(&mut out, record);
        out.strip_suffix('\n').expect("sealed lines end in a newline").to_owned()
    }

    fn record_from_line(line: &str) -> Option<PlanRecord> {
        match decode_line(line, FORMAT_VERSION)? {
            JournalLine::Record(record) => Some(record),
            JournalLine::Evict(_) => None,
        }
    }

    fn header_line(generation: u64) -> String {
        let mut out = String::new();
        push_header(&mut out, generation);
        out.strip_suffix('\n').expect("sealed lines end in a newline").to_owned()
    }

    fn record(hi: u64, cost: f64) -> PlanRecord {
        PlanRecord {
            key: PlanKey { hi, lo: hi ^ 0xabcd },
            strategy: Strategy::AccPar,
            levels: 2,
            cost,
            plan: PlanTree::uniform(&vec![
                NetworkPlan::uniform(
                    3,
                    LayerPlan::new(PartitionType::TypeII, Ratio::clamped(0.375)),
                );
                2
            ]),
        }
    }

    #[test]
    fn record_round_trips_bit_exactly() {
        let r = record(7, 1.234e-3_f64 + f64::EPSILON);
        let line = record_to_line(&r);
        assert!(!line.contains('\n'));
        let back = record_from_line(&line).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.cost.to_bits(), r.cost.to_bits());
    }

    #[test]
    fn any_tampered_byte_is_rejected() {
        let line = record_to_line(&record(9, 0.5));
        for i in 0..line.len() {
            let mut bytes = line.clone().into_bytes();
            bytes[i] ^= 0x01;
            let Ok(s) = String::from_utf8(bytes) else {
                continue;
            };
            if s == line {
                continue;
            }
            // Either the checksum rejects the line, or (for a flip
            // inside the stored crc that still mismatches) it parses to
            // nothing — never to a *different* record.
            if let Some(r) = record_from_line(&s) {
                assert_eq!(r, record(9, 0.5), "flip at byte {i} changed the record");
            }
        }
    }

    /// A version-1 header and a two-level record covering all three
    /// partition types, as the `Json` tree encoder rendered them
    /// (`Json::compact` wrote every version-1 file). Version 2 writes a
    /// record without twins byte for byte as version 1 did.
    const PINNED_HEADER: &str =
        r#"{"magic":"accpar-plan-cache","version":1,"generation":3,"crc":"2ee3fbf850ec3912"}"#;
    const PINNED_HEADER_V2: &str =
        r#"{"magic":"accpar-plan-cache","version":2,"generation":3,"crc":"ac33bb87ec621439"}"#;
    const PINNED_RECORD: &str = concat!(
        r#"{"key":"0123456789abcdeffedcba9876543210","strategy":"AccPar","levels":2,"#,
        r#""cost":"3f5437c5692b3cc5","plan":{"layers":[[1,"3fe0000000000000"],"#,
        r#"[2,"3fd8000000000000"],[3,"3fb999999999999a"]],"children":[{"layers":"#,
        r#"[[1,"3fd0000000000000"],[2,"3fe3c6ef372fe950"],[3,"3fe0000000000000"]]},"#,
        r#"{"layers":[[1,"3fe8000000000000"],[2,"3fe0000000000000"],"#,
        r#"[3,"3fd5555555555555"]]}]},"crc":"579ab42e1dddb267"}"#
    );

    fn pinned_record() -> PlanRecord {
        let layers = |a: f64, b: f64, c: f64| {
            NetworkPlan::new(vec![
                LayerPlan::new(PartitionType::TypeI, Ratio::new(a).unwrap()),
                LayerPlan::new(PartitionType::TypeII, Ratio::new(b).unwrap()),
                LayerPlan::new(PartitionType::TypeIII, Ratio::new(c).unwrap()),
            ])
        };
        PlanRecord {
            key: PlanKey {
                hi: 0x0123_4567_89ab_cdef,
                lo: 0xfedc_ba98_7654_3210,
            },
            strategy: Strategy::AccPar,
            levels: 2,
            cost: 1.234e-3,
            plan: PlanTree::branch(
                layers(0.5, 0.375, 0.1),
                PlanTree::leaf(layers(0.25, 0.618_033_988_749_894_9, 0.5)),
                PlanTree::leaf(layers(0.75, 0.5, 1.0 / 3.0)),
            ),
        }
    }

    #[test]
    fn record_line_is_pinned_to_the_json_tree_encoding() {
        assert_eq!(record_to_line(&pinned_record()), PINNED_RECORD);
        assert_eq!(header_line(3), PINNED_HEADER_V2);
        // A file written in that format warm-loads bit for bit, and as
        // it holds no dead line the open leaves it untouched.
        let dir = std::env::temp_dir().join(format!(
            "accpar-cache-pinned-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("plans.jsonl");
        let text = format!("{PINNED_HEADER}\n{PINNED_RECORD}\n");
        fs::write(&file, &text).unwrap();
        let cache = PlanCache::open(&dir, 16, Obs::off());
        assert_eq!(cache.load_report(), LoadReport { loaded: 1, quarantined: 0 });
        let want = pinned_record();
        let got = cache.peek(&want.key).unwrap();
        assert_eq!(got, want);
        assert_eq!(got.cost.to_bits(), want.cost.to_bits());
        assert_eq!(cache.generation(), 4, "header generation plus one line");
        assert_eq!(fs::read_to_string(&file).unwrap(), text);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_round_trips_and_rejects_wrong_version() {
        let line = header_line(17);
        assert_eq!(header_version(&line), Some((FORMAT_VERSION, 17)));
        let forged = line.replace("\"version\":2", "\"version\":3");
        assert_eq!(header_version(&forged), None);
    }

    /// A three-level record whose root is a branch of two different
    /// twins.
    fn twin_record() -> PlanRecord {
        let level = |t: PartitionType, a: f64| {
            NetworkPlan::uniform(3, LayerPlan::new(t, Ratio::new(a).unwrap()))
        };
        let twin = |t, a| {
            PlanTree::twin(level(t, a), PlanTree::leaf(level(PartitionType::TypeIII, 0.5)))
        };
        PlanRecord {
            levels: 3,
            plan: PlanTree::branch(
                level(PartitionType::TypeI, 0.3),
                twin(PartitionType::TypeII, 0.5),
                twin(PartitionType::TypeI, 0.5),
            ),
            ..record(11, 2.5e-3 + f64::EPSILON)
        }
    }

    /// Replaces a sealed line's checksum with a valid one for its
    /// (edited) content.
    fn reseal(line: &str) -> String {
        let body = &line[..line.rfind(",\"crc\":\"").unwrap()];
        let mut out = body.to_owned();
        seal(&mut out, 0);
        out.trim_end().to_owned()
    }

    #[test]
    fn twin_record_round_trips_with_its_twins_shared() {
        let want = twin_record();
        let line = record_to_line(&want);
        assert_eq!(line.matches("\"twin\"").count(), 2);
        assert_eq!(line.matches("\"layers\"").count(), 5, "each distinct node once");
        let got = record_from_line(&line).unwrap();
        assert_eq!(got, want);
        assert_eq!(got.cost.to_bits(), want.cost.to_bits());
        let (a, b) = got.plan.children().unwrap();
        assert!(!got.plan.is_twin());
        assert!(a.is_twin() && b.is_twin());
        // A version-1 journal never holds a twin.
        assert!(decode_line(&line, 1).is_none());
    }

    #[test]
    fn malformed_twin_lines_are_quarantined() {
        let line = record_to_line(&twin_record());
        // A node with both a twin and a children pair.
        let leaf = r#"{"layers":[[1,"3fe0000000000000"]]}"#;
        let both = reseal(&line.replacen(
            ",\"twin\":",
            &format!(",\"children\":[{leaf},{leaf}],\"twin\":"),
            1,
        ));
        assert!(decode_line(&both, FORMAT_VERSION).is_none());
        // A depth that disagrees with `levels`.
        let shallow = reseal(&line.replacen("\"levels\":3", "\"levels\":2", 1));
        assert!(decode_line(&shallow, FORMAT_VERSION).is_none());
        // The resealing itself keeps a good line good.
        assert_eq!(record_from_line(&reseal(&line)).unwrap(), twin_record());

        // In a journal, each bad line costs itself only.
        let dir = std::env::temp_dir().join(format!(
            "accpar-cache-bad-twin-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let good = record(3, 0.75);
        let text = format!(
            "{}\n{both}\n{}\n{shallow}\n",
            header_line(1),
            record_to_line(&good)
        );
        fs::write(dir.join("plans.jsonl"), text).unwrap();
        let cache = PlanCache::open(&dir, 16, Obs::off());
        assert_eq!(cache.load_report(), LoadReport { loaded: 1, quarantined: 2 });
        assert_eq!(cache.peek(&good.key).unwrap(), good);
        assert!(cache.peek(&twin_record().key).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_version_1_journal_moves_to_version_2_on_its_first_append() {
        let dir = std::env::temp_dir().join(format!(
            "accpar-cache-upgrade-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("plans.jsonl");
        // A version-1 line: two equal halves written out as a pair.
        let half = NetworkPlan::uniform(3, LayerPlan::data_parallel());
        let old = PlanRecord {
            plan: PlanTree::branch(
                half.clone(),
                PlanTree::leaf(half.clone()),
                PlanTree::leaf(half),
            ),
            ..record(5, 0.125)
        };
        let text = format!(
            "{PINNED_HEADER}\n{PINNED_RECORD}\n{}\n",
            record_to_line(&old)
        );
        fs::write(&file, &text).unwrap();
        let cache = PlanCache::open(&dir, 16, Obs::off());
        assert_eq!(cache.load_report(), LoadReport { loaded: 2, quarantined: 0 });
        let before = cache.generation();
        assert_eq!(fs::read_to_string(&file).unwrap(), text, "a read leaves the file alone");
        cache.insert(twin_record());
        assert!(cache.generation() > before);
        let rewritten = fs::read_to_string(&file).unwrap();
        let mut lines = rewritten.lines();
        assert_eq!(header_version(lines.next().unwrap()).map(|(v, _)| v), Some(FORMAT_VERSION));
        assert_eq!(lines.count(), 3, "every live record, no v1 line left");
        let generation = cache.generation();
        drop(cache);
        let reopened = PlanCache::open(&dir, 16, Obs::off());
        assert_eq!(reopened.load_report(), LoadReport { loaded: 3, quarantined: 0 });
        assert!(reopened.generation() >= generation);
        assert_eq!(reopened.peek(&pinned_record().key).unwrap(), pinned_record());
        assert_eq!(reopened.peek(&old.key).unwrap(), old);
        let twin = reopened.peek(&twin_record().key).unwrap();
        assert_eq!(twin, twin_record());
        assert!(twin.plan.children().unwrap().0.is_twin());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_evicts_the_stalest_entry_of_a_full_shard() {
        let cache = PlanCache::memory(SHARDS); // one slot per shard
        let a = record(0, 0.1); // shard 0
        let b = record(SHARDS as u64, 0.2); // also shard 0
        cache.insert(a.clone());
        cache.insert(b.clone());
        assert!(cache.peek(&a.key).is_none());
        assert_eq!(cache.peek(&b.key).unwrap(), b);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn lookup_counts_and_peek_does_not() {
        let cache = PlanCache::memory(4);
        let r = record(3, 0.3);
        cache.insert(r.clone());
        assert!(cache.peek(&r.key).is_some());
        assert_eq!(cache.stats().hits + cache.stats().misses, 0);
        assert!(cache.lookup(&r.key).is_some());
        assert!(cache.lookup(&record(4, 0.0).key).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn verification_memo_is_in_memory_only() {
        let dummy_report = || SimReport {
            total_secs: 0.5,
            compute_secs: 0.5,
            psum_secs: 0.0,
            conversion_secs: 0.0,
            update_secs: 0.0,
            per_layer: Vec::new(),
            leaf_busy_secs: Vec::new(),
        };
        let dir = std::env::temp_dir().join(format!(
            "accpar-cache-memo-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let cache = PlanCache::open(&dir, 16, Obs::off());
        // Plain insert starts unverified; mark_verified memoizes.
        let r = record(1, 0.5);
        cache.insert(r.clone());
        assert!(cache.lookup(&r.key).unwrap().1.is_none());
        cache.mark_verified(&r.key, dummy_report());
        assert!(cache.lookup(&r.key).unwrap().1.is_some());
        // insert_verified memoizes up front; replacing resets it.
        let s = record(2, 0.25);
        cache.insert_verified(s.clone(), dummy_report());
        assert!(cache.lookup(&s.key).unwrap().1.is_some());
        cache.insert(s.clone());
        assert!(cache.lookup(&s.key).unwrap().1.is_none());
        drop(cache);
        // Nothing verified survives the disk round-trip: reloaded
        // records must re-earn their cross-check.
        let reloaded = PlanCache::open(&dir, 16, Obs::off());
        assert!(reloaded.lookup(&r.key).unwrap().1.is_none());
        assert!(reloaded.lookup(&s.key).unwrap().1.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_and_warm_load_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "accpar-cache-rt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let cache = PlanCache::open(&dir, 16, Obs::off());
        cache.insert(record(1, 0.25));
        cache.insert(record(2, 0.5));
        drop(cache);
        let reloaded = PlanCache::open(&dir, 16, Obs::off());
        assert_eq!(reloaded.load_report(), LoadReport { loaded: 2, quarantined: 0 });
        assert_eq!(reloaded.peek(&record(1, 0.25).key).unwrap(), record(1, 0.25));
        assert!(reloaded.generation() >= 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_non_utf8_line_is_quarantined_alone() {
        let dir = std::env::temp_dir().join(format!("accpar-cache-utf8-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = PlanCache::open(&dir, 16, Obs::off());
        cache.insert(record(1, 0.25));
        cache.insert(record(2, 0.5));
        drop(cache);
        let file = dir.join("plans.jsonl");
        let mut bytes = fs::read(&file).unwrap();
        // Set the high bit of the first record line's first byte.
        let start = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let end = start + bytes[start..].iter().position(|&b| b == b'\n').unwrap();
        bytes[start] |= 0x80;
        let damaged = bytes[start..=end].to_vec();
        fs::write(&file, &bytes).unwrap();

        let collector = std::sync::Arc::new(accpar_obs::Collector::new());
        let reopened = PlanCache::open(&dir, 16, Obs::new(std::sync::Arc::clone(&collector)));
        assert_eq!(reopened.load_report(), LoadReport { loaded: 1, quarantined: 1 });
        assert!(reopened.persistent());
        assert_eq!(reopened.stats().io_errors, 0);
        assert!(reopened.peek(&record(2, 0.5).key).is_some());
        let reasons: Vec<String> = collector
            .events_named("cache.quarantine")
            .iter()
            .flat_map(|e| e.fields.iter().filter(|(k, _)| *k == "reason"))
            .map(|(_, v)| v.to_string())
            .collect();
        assert_eq!(reasons, ["invalid-utf8"]);
        // The sidecar keeps the raw bytes; the open compacted them away.
        assert_eq!(fs::read(dir.join("plans.jsonl.quarantine")).unwrap(), damaged);
        assert!(std::str::from_utf8(&fs::read(&file).unwrap()).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_dir_degrades_to_memory_only() {
        let cache = PlanCache::open(Path::new("/proc/definitely/not/writable"), 4, Obs::off());
        assert!(!cache.persistent());
        cache.insert(record(5, 0.1));
        assert!(cache.peek(&record(5, 0.1).key).is_some());
        assert!(cache.stats().io_errors >= 1);
    }
}
