//! The planner's search memo.
//!
//! A level search ([`LevelSearcher`]) needs each layer's cost row once
//! and each block's transfer table once, and one [`SearchCache`]
//! attached to a hierarchical plan (and to its replans) lets whole level
//! searches be answered again. Only that last tier outlives one level
//! search:
//!
//! 1. **Level outcomes** — a whole [`LevelSearcher`] run, keyed by the
//!    view's structural fingerprint, the level's [`PairEnv`] bits and
//!    the per-layer [`ShardScales`] bits. Replans, repeated requests and
//!    a supervisor's next decision hit this tier: a fault leaves the
//!    subtrees it does not touch bitwise unchanged.
//! 2. **Layer rows**, deduplicated *within* one level search: units of
//!    equal ([`LayerSig`](accpar_cost::LayerSig), scale bits) share one
//!    row, since the environment, cost configuration and solver are
//!    fixed for the level. Shape-identical VGG conv layers share here.
//! 3. **Block transfer tables**, memoized per searcher under the same
//!    value key (branch rows, entry states, fork size). Repeated ResNet
//!    blocks within one level share here.
//!
//! The per-level tiers report into [`CacheStats`] (`layer_*` in cells,
//! `block_*` in tables) but keep nothing once the level search ends —
//! on a cold plan every row and block hit lands inside one level.
//!
//! Every key canonicalizes `f64`s via [`f64::to_bits`], so a
//! `FaultModel`-degraded tree — whose group capabilities differ from the
//! healthy tree's in at least one bit — can never alias a healthy
//! entry, and cached values are bitwise identical to what a fresh
//! computation would produce. Lookups never iterate the maps, so
//! `HashMap`'s iteration order cannot leak into results.
//!
//! [`LevelSearcher`]: crate::search::LevelSearcher

use crate::search::SearchOutcome;
use accpar_cost::cache::{env_bits, scales_bits, FxHashMap, FxHasher};
use accpar_cost::{CostConfig, LayerSig, Objective, PairEnv, RatioSolver};
use accpar_dnn::{TrainElem, TrainView};
use accpar_obs::{Counter, Obs};
use accpar_partition::{PartitionType, ShardScales};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A memoized block optimization: `table[entry][exit]` holds the summed
/// branch cost plus the per-slot type choices, where *slot* numbers the
/// block's branch layers branch-major (position-independent, so
/// shape-identical blocks elsewhere in the level can reuse the entry).
pub(crate) type BlockTransfer = Vec<Vec<(f64, Vec<(usize, usize)>)>>;

/// Canonical key of one whole-level search (tier 1). Built once per
/// level request and reused for the miss-path insert.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct LevelKey {
    /// View fingerprint xor context hash (both constant per plan run).
    fp: u64,
    env: [u64; 10],
    scales: Vec<[u64; 4]>,
}

impl LevelKey {
    /// Builds the canonical key of one level search.
    pub(crate) fn new(fp: u64, env: &PairEnv, scales: &[ShardScales]) -> Self {
        Self {
            fp,
            env: env_bits(env),
            scales: scales.iter().map(|&s| scales_bits(s)).collect(),
        }
    }
}

/// Hit/miss counters of a [`SearchCache`], by tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Layer-table cells a level search took from a shape-identical
    /// unit's row instead of solving.
    pub layer_hits: u64,
    /// Layer-table cells a level search solved (one row per distinct
    /// layer shape and scale).
    pub layer_misses: u64,
    /// Block transfer tables reused within a level search.
    pub block_hits: u64,
    /// Block transfer tables built.
    pub block_misses: u64,
    /// Whole-level searches answered from the memo.
    pub level_hits: u64,
    /// Whole-level searches that had to run.
    pub level_misses: u64,
    /// Layer-table cells the planner *asked for* (`k · N` per level
    /// request, whether the level hit or missed).
    pub cells_requested: u64,
}

impl CacheStats {
    /// Fraction of requested layer-table cells served without
    /// recomputation: `1 − computed / requested`. A level-memo hit
    /// serves its whole table from cache, so this is the end-to-end
    /// service rate of the cost tables, not just the row dedup's own
    /// ratio.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.cells_requested == 0 {
            return 0.0;
        }
        let computed = self.layer_misses.min(self.cells_requested) as f64;
        1.0 - computed / self.cells_requested as f64
    }

    /// Plain lookup hit ratio across all three tiers.
    #[must_use]
    pub fn lookup_hit_rate(&self) -> f64 {
        let hits = self.layer_hits + self.block_hits + self.level_hits;
        let total = hits + self.layer_misses + self.block_misses + self.level_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layers {}/{} blocks {}/{} levels {}/{} (cell service rate {:.1}%)",
            self.layer_hits,
            self.layer_hits + self.layer_misses,
            self.block_hits,
            self.block_hits + self.block_misses,
            self.level_hits,
            self.level_hits + self.level_misses,
            self.hit_rate() * 100.0
        )
    }
}

/// One memoized level outcome and its retention marks.
#[derive(Debug)]
struct Level {
    outcome: SearchOutcome,
    /// Never dropped by [`SearchCache::trim`].
    pinned: bool,
    /// Looked up or inserted since the last [`SearchCache::trim`].
    touched: bool,
}

/// The search memo (see the module docs above): level outcomes across
/// searches, plus the counters of the per-level row and block dedups.
///
/// Thread-safe and shared by reference across the planner's workers.
/// Reuse across *different* networks or cost configurations is safe —
/// the view fingerprint and context hash key every level — but
/// pointless; the intended scope is one [`Planner`](crate::Planner)
/// (plans, replans and candidate evaluations of one network).
#[derive(Default)]
pub struct SearchCache {
    levels: Mutex<FxHashMap<LevelKey, Level>>,
    layer_hits: AtomicU64,
    layer_misses: AtomicU64,
    block_hits: AtomicU64,
    block_misses: AtomicU64,
    level_hits: AtomicU64,
    level_misses: AtomicU64,
    cells_requested: AtomicU64,
    obs: OnceLock<RowObs>,
}

/// Pre-registered metric handles of the row dedup, obtained once at
/// [`SearchCache::observe`] so level searches never touch the registry
/// locks: `cost.cache.{hits,misses}` count the cells the dedup served
/// or solved, `cost.evals.type_*` the solved cells per partition type.
#[derive(Debug)]
struct RowObs {
    hits: Counter,
    misses: Counter,
    /// Indexed in [`PartitionType::ALL`] order.
    evals: [Counter; 3],
}

impl SearchCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Routes the row dedup's `cost.cache.*` and `cost.evals.type_*`
    /// counters to `obs`. A no-op when `obs` is disabled; the first
    /// enabled registration wins for the cache's lifetime.
    pub fn observe(&self, obs: &Obs) {
        if obs.enabled() {
            let _ = self.obs.set(RowObs {
                hits: obs.counter("cost.cache.hits"),
                misses: obs.counter("cost.cache.misses"),
                evals: [
                    obs.counter("cost.evals.type_i"),
                    obs.counter("cost.evals.type_ii"),
                    obs.counter("cost.evals.type_iii"),
                ],
            });
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            layer_hits: self.layer_hits.load(Ordering::Relaxed),
            layer_misses: self.layer_misses.load(Ordering::Relaxed),
            block_hits: self.block_hits.load(Ordering::Relaxed),
            block_misses: self.block_misses.load(Ordering::Relaxed),
            level_hits: self.level_hits.load(Ordering::Relaxed),
            level_misses: self.level_misses.load(Ordering::Relaxed),
            cells_requested: self.cells_requested.load(Ordering::Relaxed),
        }
    }

    /// Records one level's row build: `solved` distinct rows computed
    /// and `shared` units served from them, each row one cell per type
    /// of `types`.
    pub(crate) fn note_rows(&self, types: &[PartitionType], solved: u64, shared: u64) {
        let k = types.len() as u64;
        self.layer_misses.fetch_add(solved * k, Ordering::Relaxed);
        self.layer_hits.fetch_add(shared * k, Ordering::Relaxed);
        if let Some(o) = self.obs.get() {
            o.misses.add(solved * k);
            o.hits.add(shared * k);
            for &t in types {
                if let Some(i) = PartitionType::ALL.iter().position(|&a| a == t) {
                    o.evals[i].add(solved);
                }
            }
        }
    }

    /// Records one block-table lookup of a level search's block memo.
    pub(crate) fn note_block(&self, hit: bool) {
        let counter = if hit {
            &self.block_hits
        } else {
            &self.block_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records that a level request asked for `n` layer-table cells
    /// (whether they were then served from the level memo or computed).
    pub(crate) fn note_cells(&self, n: u64) {
        self.cells_requested.fetch_add(n, Ordering::Relaxed);
    }

    /// Tier-1 lookup; a hit marks the entry touched.
    pub(crate) fn level_lookup(&self, key: &LevelKey) -> Option<SearchOutcome> {
        let hit = lock(&self.levels).get_mut(key).map(|level| {
            level.touched = true;
            level.outcome.clone()
        });
        let counter = if hit.is_some() {
            &self.level_hits
        } else {
            &self.level_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Tier-1 insert; the entry starts touched.
    pub(crate) fn level_insert(&self, key: LevelKey, outcome: SearchOutcome) {
        lock(&self.levels)
            .entry(key)
            .and_modify(|level| level.touched = true)
            .or_insert(Level {
                outcome,
                pinned: false,
                touched: true,
            });
    }

    /// A fresh memo holding this one's level outcomes, pinned, with
    /// zeroed counters and no observability handle.
    pub(crate) fn pinned_copy(&self) -> Self {
        let levels = lock(&self.levels)
            .iter()
            .map(|(key, level)| {
                let pinned = Level {
                    outcome: level.outcome.clone(),
                    pinned: true,
                    touched: false,
                };
                (key.clone(), pinned)
            })
            .collect();
        Self {
            levels: Mutex::new(levels),
            ..Self::default()
        }
    }

    /// Drops every unpinned level outcome that was neither looked up
    /// nor inserted since the previous trim, and starts a new round.
    pub(crate) fn trim(&self) {
        lock(&self.levels).retain(|_, level| {
            let keep = level.pinned || level.touched;
            level.touched = false;
            keep
        });
    }

    /// `(held, pinned)` level outcomes.
    #[cfg(test)]
    pub(crate) fn level_counts(&self) -> (usize, usize) {
        let levels = lock(&self.levels);
        (levels.len(), levels.values().filter(|l| l.pinned).count())
    }
}

impl fmt::Debug for SearchCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SearchCache")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Deterministic hash of everything that parameterizes the search
/// besides the layer/env/scale inputs: cost configuration, ratio policy
/// and the admissible type set.
pub(crate) fn context_hash(
    config: &CostConfig,
    solver: &RatioSolver,
    types: &[PartitionType],
) -> u64 {
    let mut h = FxHasher::default();
    config.format.hash(&mut h);
    (config.objective == Objective::CommOnly).hash(&mut h);
    config.roofline.hash(&mut h);
    config.skip_first_backward.hash(&mut h);
    match solver {
        RatioSolver::PaperLinear => 0u8.hash(&mut h),
        RatioSolver::BalancedExact => 1u8.hash(&mut h),
        RatioSolver::Fixed(r) => {
            2u8.hash(&mut h);
            r.value().to_bits().hash(&mut h);
        }
    }
    types.hash(&mut h);
    h.finish()
}

/// Deterministic structural fingerprint of a train view: element kinds,
/// layer signatures and indices, fork shapes and branch arrangements.
pub(crate) fn view_fingerprint(view: &TrainView, config: &CostConfig) -> u64 {
    let mut h = FxHasher::default();
    let iso = accpar_dnn::iso::IsoClasses::of(view);
    hash_view(&mut h, view, &iso, config);
    h.finish()
}

/// Feeds the canonical view structure into an arbitrary hasher state.
/// Shared between the single-lane [`view_fingerprint`] above and the
/// plan cache's two-lane content key, which primes each lane with a
/// different seed before hashing the same byte stream. Classification
/// is the expensive half of the fingerprint, so callers hashing more
/// than one lane pass the same [`IsoClasses`] to each.
///
/// The structure lane is the *canonical class multiset* of the view:
/// the element walk as a sequence of [`IsoClasses`] element class ids,
/// then each class's full content exactly once (via its representative
/// element). Raw layer indices never enter — they are determined by
/// walk order anyway — so the collapsed and uncollapsed planning paths
/// hash bit-identically by construction: the hash is a function of the
/// view alone, never of how the search will traverse it. A cache entry
/// written by either path therefore validates and hits from the other.
///
/// [`IsoClasses`]: accpar_dnn::iso::IsoClasses
pub(crate) fn hash_view(
    h: &mut impl std::hash::Hasher,
    view: &TrainView,
    iso: &accpar_dnn::iso::IsoClasses,
    config: &CostConfig,
) {
    let mut h = h;
    // The walk, collapsed to class ids (order-preserving).
    view.elems().len().hash(&mut h);
    for id in iso.elem_class_ids() {
        id.hash(&mut h);
    }
    // Each class's value-complete content, once, in class-id order.
    for class in 0..iso.elem_classes() {
        match &view.elems()[iso.elem_rep(class)] {
            TrainElem::Layer(l) => {
                0u8.hash(&mut h);
                LayerSig::of(l, config).hash(&mut h);
                l.heads().hash(&mut h);
            }
            TrainElem::Block { branches, fork, .. } => {
                1u8.hash(&mut h);
                fork.hash(&mut h);
                branches.len().hash(&mut h);
                for b in branches {
                    b.len().hash(&mut h);
                    for l in b {
                        LayerSig::of(l, config).hash(&mut h);
                        l.heads().hash(&mut h);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::CacheStats;

    #[test]
    fn empty_cache_rates_are_zero_not_nan() {
        let stats = CacheStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        assert_eq!(stats.lookup_hit_rate(), 0.0);
        assert!(stats.hit_rate().is_finite());
        assert!(stats.lookup_hit_rate().is_finite());
    }

    #[test]
    fn rates_behave_once_lookups_arrive() {
        let stats = CacheStats {
            layer_hits: 3,
            layer_misses: 1,
            cells_requested: 4,
            ..CacheStats::default()
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert!((stats.lookup_hit_rate() - 0.75).abs() < 1e-12);
    }
}
