//! The sharded evaluation cache.
//!
//! Model evaluation is pure: a subtask's time depends only on its template
//! parameters and on the hardware fields that template reads. The cache
//! keys on exactly those inputs, canonicalised to bit patterns
//! ([`f64::to_bits`], with `-0.0` folded into `0.0`), so
//!
//! * two structurally identical evaluations always share one entry
//!   (machine *names* are deliberately excluded — a renamed model is the
//!   same model), and
//! * any numeric perturbation of an input changes the key — a hit can
//!   never return a stale or wrong value.
//!
//! Keys carry only the hardware slice their template consumes: a
//! collective's key ignores the achieved-rate table, so the convergence
//! reduction is shared across the flop-rate what-ifs of a speculation
//! sweep; an `async` subtask's key ignores the communication model.
//!
//! Storage is sharded: each shard is an independent
//! `parking_lot::RwLock<HashMap>`, selected by the key's hash, so
//! concurrent workers rarely contend on the same lock. Hit/miss/eviction
//! counters are relaxed atomics.
//!
//! # Bounded mode
//!
//! [`EvalCache::bounded`] caps each shard at a fixed entry count with
//! least-recently-used eviction. Recency is a per-shard monotone tick
//! stamped on every hit and insert, so stamps are unique within a shard
//! and the eviction victim (minimum stamp) is always unambiguous: under
//! serial access the eviction order is strict, deterministic LRU.
//! Campaign *results* never depend on capacity or eviction order at all —
//! evaluation is a pure function of the key, so an evicted-and-recomputed
//! entry is bit-identical to the cached one. Only the hit/miss/eviction
//! split is schedule-dependent, which is why those counters publish under
//! `wall.`-prefixed metric names (see `obs::names`).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use pace_core::templates::collective::ReduceKind;
use pace_core::templates::pipeline::PipelineEstimate;
use pace_core::{CommModel, HardwareModel, SubtaskObject, TemplateBinding};
use parking_lot::RwLock;

/// Number of independently locked shards (power of two).
const SHARD_COUNT: usize = 16;

/// A cached subtask evaluation: `(seconds per iteration, pipeline
/// breakdown when the pipeline template produced it)`.
pub type CachedEval = (f64, Option<PipelineEstimate>);

/// Canonical bit pattern of an `f64` (`-0.0` and `0.0` unify; any other
/// numeric difference, however small, yields a distinct pattern).
pub(crate) fn canon(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

/// Canonicalised achieved-rate table of a [`HardwareModel`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RatesKey(Vec<(u64, u64)>);

impl RatesKey {
    fn of(hw: &HardwareModel) -> Self {
        RatesKey(hw.rates.iter().map(|r| (canon(r.cells_per_pe), canon(r.mflops))).collect())
    }
}

/// Canonicalised [`CommModel`]: three Eq. 3 curves of five coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommKey([[u64; 5]; 3]);

impl CommKey {
    fn of(comm: &CommModel) -> Self {
        let curve = |c: &pace_core::CommCurve| {
            [
                canon(c.a_bytes),
                canon(c.b_us),
                canon(c.c_us_per_byte),
                canon(c.d_us),
                canon(c.e_us_per_byte),
            ]
        };
        CommKey([curve(&comm.send), curve(&comm.recv), curve(&comm.pingpong)])
    }
}

/// Cache key: the full closure of inputs one subtask evaluation reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CacheKey {
    /// Pipeline template: structural params + rate table + comm model.
    Pipeline {
        rates: RatesKey,
        comm: CommKey,
        px: usize,
        py: usize,
        units_per_corner: usize,
        corners: usize,
        unit_flops: u64,
        cells_per_pe: usize,
        i_msg_bytes: usize,
        j_msg_bytes: usize,
    },
    /// Halo-exchange template: structural params + rate table + comm model.
    Halo {
        rates: RatesKey,
        comm: CommKey,
        px: usize,
        py: usize,
        flops: u64,
        cells_per_pe: usize,
        x_msg_bytes: usize,
        y_msg_bytes: usize,
    },
    /// Collective template: reads only the comm model.
    Collective { comm: CommKey, is_max: bool, bytes: usize, procs: usize },
    /// Async (serial) template: reads only the rate table.
    Async { rates: RatesKey, flops: u64, cells_per_pe: usize },
}

impl CacheKey {
    /// Build the key for evaluating `sub` against `hw`.
    pub fn for_subtask(sub: &SubtaskObject, hw: &HardwareModel) -> Self {
        match &sub.template {
            TemplateBinding::Pipeline(p) => CacheKey::Pipeline {
                rates: RatesKey::of(hw),
                comm: CommKey::of(&hw.comm),
                px: p.px,
                py: p.py,
                units_per_corner: p.units_per_corner,
                corners: p.corners,
                unit_flops: canon(p.unit_flops),
                cells_per_pe: p.cells_per_pe,
                i_msg_bytes: p.i_msg_bytes,
                j_msg_bytes: p.j_msg_bytes,
            },
            TemplateBinding::Halo(p) => CacheKey::Halo {
                rates: RatesKey::of(hw),
                comm: CommKey::of(&hw.comm),
                px: p.px,
                py: p.py,
                flops: canon(p.flops),
                cells_per_pe: p.cells_per_pe,
                x_msg_bytes: p.x_msg_bytes,
                y_msg_bytes: p.y_msg_bytes,
            },
            TemplateBinding::Collective(p) => CacheKey::Collective {
                comm: CommKey::of(&hw.comm),
                is_max: matches!(p.kind, ReduceKind::Max),
                bytes: p.bytes,
                procs: p.procs,
            },
            TemplateBinding::Async => CacheKey::Async {
                rates: RatesKey::of(hw),
                flops: canon(sub.flops),
                cells_per_pe: sub.cells_per_pe,
            },
        }
    }

    fn shard(&self) -> usize {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) & (SHARD_COUNT - 1)
    }
}

/// Counter snapshot of a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a shard.
    pub hits: u64,
    /// Lookups that had to evaluate.
    pub misses: u64,
    /// Entries displaced by the LRU bound (always 0 when unbounded).
    pub evictions: u64,
    /// Distinct entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over total lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A stored evaluation plus its recency stamp. The stamp is atomic so a
/// hit can refresh recency under the shard's *read* lock.
#[derive(Debug)]
struct Entry {
    value: CachedEval,
    stamp: AtomicU64,
}

/// One shard: an independently locked map plus its own recency tick and
/// hit/miss/eviction counters, so the telemetry layer can report whether
/// the key hash spreads load.
#[derive(Debug, Default)]
struct Shard {
    map: RwLock<HashMap<CacheKey, Entry>>,
    /// Monotone recency source; stamps handed out are unique per shard.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Shard {
    fn next_stamp(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// The sharded, lock-guarded evaluation cache (optionally LRU-bounded).
#[derive(Debug, Default)]
pub struct EvalCache {
    shards: Vec<Shard>,
    /// Maximum entries per shard; `None` grows without bound.
    shard_capacity: Option<usize>,
}

impl EvalCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        EvalCache {
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
            shard_capacity: None,
        }
    }

    /// An empty cache holding at most `per_shard` entries per shard
    /// (total capacity `per_shard * 16`), evicting the least recently
    /// used entry of the full shard on insert.
    ///
    /// # Panics
    /// Panics when `per_shard` is zero — a cache that cannot hold the
    /// entry it just computed would miss forever.
    pub fn bounded(per_shard: usize) -> Self {
        assert!(per_shard >= 1, "per-shard capacity must be at least 1");
        EvalCache { shard_capacity: Some(per_shard), ..EvalCache::new() }
    }

    /// Per-shard entry bound, when one was configured.
    pub fn shard_capacity(&self) -> Option<usize> {
        self.shard_capacity
    }

    /// Look up `key`, evaluating and storing on a miss. Because evaluation
    /// is a pure function of the key's inputs, a racing double-compute
    /// stores the identical value — results never depend on scheduling,
    /// capacity, or eviction order.
    pub fn get_or_insert_with<F: FnOnce() -> CachedEval>(
        &self,
        key: CacheKey,
        compute: F,
    ) -> CachedEval {
        let shard = &self.shards[key.shard()];
        if let Some(entry) = shard.map.read().get(&key) {
            let value = entry.value;
            entry.stamp.store(shard.next_stamp(), Ordering::Relaxed);
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return value;
        }
        let value = compute();
        shard.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = shard.map.write();
        if let Some(entry) = map.get(&key) {
            // Raced with another worker's insert of the same pure value;
            // refresh recency and reuse theirs.
            entry.stamp.store(shard.next_stamp(), Ordering::Relaxed);
            return entry.value;
        }
        if let Some(cap) = self.shard_capacity {
            if map.len() >= cap {
                // Stamps are unique within the shard, so the minimum —
                // the least recently touched entry — is unambiguous.
                let victim = map
                    .iter()
                    .min_by_key(|(_, e)| e.stamp.load(Ordering::Relaxed))
                    .map(|(k, _)| k.clone())
                    .expect("a full shard has a victim");
                map.remove(&victim);
                shard.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(key, Entry { value, stamp: AtomicU64::new(shard.next_stamp()) });
        value
    }

    /// Lookup without populating (touches neither counters nor recency).
    pub fn peek(&self, key: &CacheKey) -> Option<CachedEval> {
        self.shards[key.shard()].map.read().get(key).map(|e| e.value)
    }

    /// Cumulative hits, summed over the shards.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.hits.load(Ordering::Relaxed)).sum()
    }

    /// Cumulative misses, summed over the shards.
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.misses.load(Ordering::Relaxed)).sum()
    }

    /// Cumulative LRU evictions, summed over the shards.
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.evictions.load(Ordering::Relaxed)).sum()
    }

    /// Distinct entries stored.
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| s.map.read().len()).sum()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
            entries: self.entries(),
        }
    }

    /// Per-shard counter snapshots, in shard order.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|s| CacheStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                evictions: s.evictions.load(Ordering::Relaxed),
                entries: s.map.read().len(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_core::{Sweep3dModel, Sweep3dParams};
    use registry::quoted as machines;

    fn subtasks() -> (Vec<SubtaskObject>, HardwareModel) {
        let app = Sweep3dModel::new(Sweep3dParams::weak_scaling_50cubed(4, 4)).application_object();
        (app.subtasks, machines::pentium3_myrinet())
    }

    #[test]
    fn identical_inputs_share_a_key() {
        let (subs, hw) = subtasks();
        for sub in &subs {
            assert_eq!(CacheKey::for_subtask(sub, &hw), CacheKey::for_subtask(sub, &hw.clone()));
        }
    }

    #[test]
    fn renaming_hardware_does_not_change_keys() {
        let (subs, hw) = subtasks();
        let mut renamed = hw.clone();
        renamed.name = "something else".into();
        for sub in &subs {
            assert_eq!(CacheKey::for_subtask(sub, &hw), CacheKey::for_subtask(sub, &renamed));
        }
    }

    #[test]
    fn rate_scaling_changes_compute_keys_but_not_collective() {
        let (subs, hw) = subtasks();
        let faster = hw.with_rate_scaled(1.25);
        for sub in &subs {
            let a = CacheKey::for_subtask(sub, &hw);
            let b = CacheKey::for_subtask(sub, &faster);
            match sub.template {
                TemplateBinding::Collective(_) => assert_eq!(a, b, "{}", sub.name),
                _ => assert_ne!(a, b, "{}", sub.name),
            }
        }
    }

    #[test]
    fn halo_keys_read_rates_comm_and_structure() {
        use pace_core::workload::Workload;
        let (_, hw) = subtasks();
        let subs = pace_core::StencilParams::weak_scaling(3, 2).application().subtasks;
        let halo = subs
            .iter()
            .find(|s| matches!(s.template, TemplateBinding::Halo(_)))
            .expect("stencil app carries a halo subtask");
        let key = CacheKey::for_subtask(halo, &hw);
        let mut renamed = hw.clone();
        renamed.name = "something else".into();
        assert_eq!(key, CacheKey::for_subtask(halo, &renamed), "names are excluded");
        assert_ne!(
            key,
            CacheKey::for_subtask(halo, &hw.with_rate_scaled(1.25)),
            "halo evaluation reads the rate table"
        );
    }

    #[test]
    fn hit_miss_counters_track_lookups() {
        let (subs, hw) = subtasks();
        let cache = EvalCache::new();
        let key = CacheKey::for_subtask(&subs[0], &hw);
        assert_eq!(cache.peek(&key), None);
        let v1 = cache.get_or_insert_with(key.clone(), || (1.5, None));
        let v2 = cache.get_or_insert_with(key.clone(), || panic!("must hit"));
        assert_eq!(v1, v2);
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (1, 1, 1));
        assert_eq!(cache.peek(&key), Some((1.5, None)));
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shard_stats_sum_to_totals() {
        let (subs, hw) = subtasks();
        let cache = EvalCache::new();
        for sub in &subs {
            let key = CacheKey::for_subtask(sub, &hw);
            cache.get_or_insert_with(key.clone(), || (2.0, None));
            cache.get_or_insert_with(key, || panic!("must hit"));
        }
        let shards = cache.shard_stats();
        assert_eq!(shards.len(), 16);
        assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), cache.hits());
        assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), cache.misses());
        assert_eq!(shards.iter().map(|s| s.entries).sum::<usize>(), cache.entries());
    }

    /// Distinct keys with easily varied content (collective keys read
    /// only the comm model, so varying `bytes` varies the key).
    fn probe_key(hw: &HardwareModel, bytes: usize) -> CacheKey {
        CacheKey::Collective { comm: CommKey::of(&hw.comm), is_max: false, bytes, procs: 4 }
    }

    /// First `n` probe keys landing in one specific shard.
    fn colliding_keys(hw: &HardwareModel, n: usize) -> Vec<CacheKey> {
        let target = probe_key(hw, 0).shard();
        (0..).map(|b| probe_key(hw, b)).filter(|k| k.shard() == target).take(n).collect()
    }

    #[test]
    fn bounded_cache_evicts_the_least_recently_used_entry() {
        let (_, hw) = subtasks();
        let keys = colliding_keys(&hw, 3);
        let cache = EvalCache::bounded(2);
        cache.get_or_insert_with(keys[0].clone(), || (1.0, None));
        cache.get_or_insert_with(keys[1].clone(), || (2.0, None));
        // Touch key 0 so key 1 becomes the LRU victim.
        cache.get_or_insert_with(keys[0].clone(), || panic!("must hit"));
        cache.get_or_insert_with(keys[2].clone(), || (3.0, None));
        assert_eq!(cache.peek(&keys[0]), Some((1.0, None)), "recently touched survives");
        assert_eq!(cache.peek(&keys[1]), None, "LRU entry was evicted");
        assert_eq!(cache.peek(&keys[2]), Some((3.0, None)));
        assert_eq!(cache.evictions(), 1);
        // The evicted key recomputes to the same pure value.
        assert_eq!(cache.get_or_insert_with(keys[1].clone(), || (2.0, None)), (2.0, None));
    }

    #[test]
    fn bounded_cache_honours_the_per_shard_capacity() {
        let (_, hw) = subtasks();
        let cache = EvalCache::bounded(1);
        for b in 0..64 {
            cache.get_or_insert_with(probe_key(&hw, b), || (b as f64, None));
        }
        assert!(cache.entries() <= SHARD_COUNT, "at most one entry per shard");
        assert_eq!(cache.evictions(), 64 - cache.entries() as u64);
        assert_eq!(cache.stats().evictions, cache.evictions());
        assert_eq!(cache.shard_capacity(), Some(1));
        assert_eq!(EvalCache::new().shard_capacity(), None);
    }

    #[test]
    fn serial_access_replays_to_identical_stats() {
        let (_, hw) = subtasks();
        let run = || {
            let cache = EvalCache::bounded(2);
            // A fixed hit/insert/evict interleaving.
            for b in [0, 1, 0, 2, 3, 1, 0, 4, 4, 2] {
                cache.get_or_insert_with(probe_key(&hw, b), || (b as f64, None));
            }
            (cache.stats(), cache.shard_stats())
        };
        assert_eq!(run(), run(), "deterministic eviction order under serial access");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_is_rejected() {
        let _ = EvalCache::bounded(0);
    }

    #[test]
    fn negative_zero_folds_into_zero() {
        assert_eq!(canon(0.0), canon(-0.0));
        assert_ne!(canon(0.0), canon(f64::MIN_POSITIVE));
    }
}
