//! The bounded LRU cache of analysis artifacts, keyed by
//! `(CfgShape, AnalysisKind)`.
//!
//! This is the paper's JIT story made concrete: recompiling a function
//! whose CFG did not change (the overwhelmingly common case for
//! instruction-level optimizations) must not pay a shape-level
//! precomputation again — for *any* analysis the engine serves.
//! Entries are shared [`ArtifactHandle`]s — *one* artifact serves
//! every CFG-identical function, because shape-level precomputations
//! never read instructions.

use std::collections::HashMap;

use fastlive_telemetry::Json;

use crate::artifact::{AnalysisKind, ArtifactHandle};
use crate::fingerprint::CfgShape;

/// The cache's key: one CFG fingerprint, one analysis.
pub(crate) type ArtifactKey = (CfgShape, AnalysisKind);

/// Hit/miss/eviction/dedup and disk-tier counters of the engine's
/// fingerprint cache — the observability surface the engine exposes
/// ([`AnalysisEngine::cache_stats`](crate::AnalysisEngine::cache_stats)).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes that found a CFG-identical precomputation in memory.
    pub hits: u64,
    /// Probes that found nothing in memory (the prober then consulted
    /// the disk tier, if configured, and computed on a disk miss).
    /// Every in-memory miss lands in exactly one of `disk_hits`,
    /// `disk_misses`, `disk_rejects` when persistence is enabled, so
    /// `misses - disk_hits` is the number of precomputations actually
    /// paid.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Probes that found the shape *being computed* by another worker
    /// and adopted that in-flight result instead of recomputing it —
    /// the per-fingerprint dedup. Two workers therefore never
    /// precompute the same shape: `misses` counts exactly one
    /// computation-or-disk-load per distinct shape, under any
    /// interleaving.
    pub dedup_hits: u64,
    /// In-memory misses served by decoding a valid on-disk entry — no
    /// precomputation was paid.
    pub disk_hits: u64,
    /// In-memory misses for which no on-disk entry existed (the
    /// precomputation ran, then wrote one through).
    pub disk_misses: u64,
    /// In-memory misses that found an on-disk entry but **rejected** it
    /// — corrupt, truncated, version-crossed, or hash-collided. The
    /// precomputation ran and the bad entry was overwritten; a reject
    /// is always a clean miss, never a wrong answer.
    pub disk_rejects: u64,
    /// Disk-tier operations (probe or write-through) whose **I/O
    /// failed** — EACCES, EIO, ENOSPC. Distinct from `disk_rejects`:
    /// a reject means the disk worked and the *file* was invalid; an
    /// error means the *device* failed. Errors feed the disk circuit
    /// breaker ([`BreakerConfig`](crate::BreakerConfig)); the affected
    /// probe is served memory-only either way.
    pub disk_errors: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (0 when nothing was probed yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counters as one JSON object (stable key order, the same
    /// writer as the telemetry snapshot).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("hits", self.hits)
            .field("misses", self.misses)
            .field("evictions", self.evictions)
            .field("dedup_hits", self.dedup_hits)
            .field("disk_hits", self.disk_hits)
            .field("disk_misses", self.disk_misses)
            .field("disk_rejects", self.disk_rejects)
            .field("disk_errors", self.disk_errors)
    }

    /// Field-wise sum — folds the stats of several engines or runs
    /// into one total.
    pub fn add(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            dedup_hits: self.dedup_hits + other.dedup_hits,
            disk_hits: self.disk_hits + other.disk_hits,
            disk_misses: self.disk_misses + other.disk_misses,
            disk_rejects: self.disk_rejects + other.disk_rejects,
            disk_errors: self.disk_errors + other.disk_errors,
        }
    }
}

/// One-line operator rendering; disk counters appear only when any
/// disk activity happened.
impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits={} misses={} evictions={} dedup={}",
            self.hits, self.misses, self.evictions, self.dedup_hits
        )?;
        if self.disk_hits + self.disk_misses + self.disk_rejects + self.disk_errors > 0 {
            write!(
                f,
                " disk(hits={} misses={} rejects={} errors={})",
                self.disk_hits, self.disk_misses, self.disk_rejects, self.disk_errors
            )?;
        }
        Ok(())
    }
}

struct CacheEntry {
    handle: ArtifactHandle,
    /// Logical timestamp of the last probe that returned this entry.
    last_used: u64,
}

/// A bounded least-recently-used map
/// `(CfgShape, AnalysisKind) → ArtifactHandle`.
///
/// Capacity 0 disables caching entirely (every probe misses, inserts
/// are dropped) — the configuration the scaling benchmarks use to
/// measure raw precompute throughput. The capacity bounds *entries*,
/// so two analyses of one shape occupy two slots — each is its own
/// eviction victim.
pub(crate) struct FingerprintCache {
    capacity: usize,
    tick: u64,
    map: HashMap<ArtifactKey, CacheEntry>,
    stats: CacheStats,
}

impl FingerprintCache {
    pub(crate) fn new(capacity: usize) -> Self {
        FingerprintCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Probes for `key`, bumping its recency (and the hit counter)
    /// on a hit. A `None` result records **nothing**: the caller
    /// decides whether the probe becomes a miss
    /// ([`note_miss`](Self::note_miss) — it will compute) or a dedup
    /// hit ([`note_dedup_hit`](Self::note_dedup_hit) — it adopts
    /// another worker's in-flight computation).
    pub(crate) fn probe(&mut self, key: &ArtifactKey) -> Option<ArtifactHandle> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(entry.handle.clone())
            }
            None => None,
        }
    }

    /// Records a probe that will pay a full precomputation.
    pub(crate) fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Records a probe that joined an in-flight computation of the
    /// same shape instead of recomputing it.
    pub(crate) fn note_dedup_hit(&mut self) {
        self.stats.dedup_hits += 1;
    }

    /// Records an in-memory miss served by a valid on-disk entry.
    pub(crate) fn note_disk_hit(&mut self) {
        self.stats.disk_hits += 1;
    }

    /// Records an in-memory miss with no on-disk entry.
    pub(crate) fn note_disk_miss(&mut self) {
        self.stats.disk_misses += 1;
    }

    /// Records an in-memory miss whose on-disk entry failed validation.
    pub(crate) fn note_disk_reject(&mut self) {
        self.stats.disk_rejects += 1;
    }

    /// Records a disk-tier operation whose I/O failed (probe or
    /// write-through) — the device's fault, not the file's.
    pub(crate) fn note_disk_error(&mut self) {
        self.stats.disk_errors += 1;
    }

    /// Inserts a freshly computed artifact, evicting the
    /// least-recently-used entry if the cache is full. Re-inserting an
    /// existing key (two threads raced on the same miss) just
    /// refreshes the entry.
    pub(crate) fn insert(&mut self, key: ArtifactKey, handle: ArtifactHandle) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // O(len) victim scan: engine caches are small (hundreds of
            // shapes), and misses already paid a full precomputation.
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.map.insert(
            key,
            CacheEntry {
                handle,
                last_used: self.tick,
            },
        );
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastlive_core::FunctionLiveness;
    use fastlive_ir::parse_function;
    use std::sync::Arc;

    fn key_and_handle(src: &str) -> (ArtifactKey, ArtifactHandle) {
        let f = parse_function(src).unwrap();
        (
            (CfgShape::of(&f), AnalysisKind::Liveness),
            ArtifactHandle::Liveness(Arc::new(FunctionLiveness::compute(&f))),
        )
    }

    #[test]
    fn lru_evicts_the_coldest_shape() {
        let (s1, l1) = key_and_handle("function %a { block0: return }");
        let (s2, l2) = key_and_handle("function %b { block0: jump block1 block1: return }");
        let (s3, l3) = key_and_handle(
            "function %c { block0: jump block1 block1: jump block2 block2: return }",
        );
        let mut cache = FingerprintCache::new(2);
        assert!(cache.probe(&s1).is_none());
        cache.note_miss();
        cache.insert(s1.clone(), l1);
        assert!(cache.probe(&s2).is_none());
        cache.note_miss();
        cache.insert(s2.clone(), l2);
        // Touch s1 so s2 becomes the LRU victim.
        assert!(cache.probe(&s1).is_some());
        cache.insert(s3.clone(), l3);
        assert_eq!(cache.len(), 2);
        assert!(cache.probe(&s1).is_some());
        assert!(cache.probe(&s2).is_none(), "s2 should have been evicted");
        assert!(cache.probe(&s3).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.dedup_hits, 0);
        assert!(stats.hit_rate() > 0.5);
    }

    #[test]
    fn stats_add_is_fieldwise() {
        let a = CacheStats {
            hits: 1,
            misses: 2,
            evictions: 3,
            dedup_hits: 4,
            disk_hits: 5,
            disk_misses: 6,
            disk_rejects: 7,
            disk_errors: 8,
        };
        let b = CacheStats {
            hits: 10,
            misses: 20,
            evictions: 30,
            dedup_hits: 40,
            disk_hits: 50,
            disk_misses: 60,
            disk_rejects: 70,
            disk_errors: 80,
        };
        let sum = a.add(&b);
        assert_eq!(
            sum,
            CacheStats {
                hits: 11,
                misses: 22,
                evictions: 33,
                dedup_hits: 44,
                disk_hits: 55,
                disk_misses: 66,
                disk_rejects: 77,
                disk_errors: 88,
            }
        );
        assert_eq!(a.add(&CacheStats::default()), a);
    }

    #[test]
    fn stats_render_stably() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            disk_misses: 1,
            ..CacheStats::default()
        };
        assert_eq!(
            s.to_json().to_string(),
            "{\"hits\": 3, \"misses\": 1, \"evictions\": 0, \"dedup_hits\": 0, \
             \"disk_hits\": 0, \"disk_misses\": 1, \"disk_rejects\": 0, \"disk_errors\": 0}"
        );
        assert_eq!(
            s.to_string(),
            "hits=3 misses=1 evictions=0 dedup=0 disk(hits=0 misses=1 rejects=0 errors=0)"
        );
        assert_eq!(
            CacheStats::default().to_string(),
            "hits=0 misses=0 evictions=0 dedup=0",
            "no disk activity, no disk clause"
        );
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let (s1, l1) = key_and_handle("function %a { block0: return }");
        let mut cache = FingerprintCache::new(0);
        cache.insert(s1.clone(), l1);
        assert!(cache.probe(&s1).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().evictions, 0);
    }
}
