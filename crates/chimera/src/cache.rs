//! A bounded, process-wide embedding cache.
//!
//! Minor embedding dominates compile-to-run latency (the CMR heuristic
//! reroutes chains for dozens of rounds), yet repeated runs of the same
//! compiled program re-solve the identical placement problem: the logical
//! interaction graph, the embedding options, and the hardware graph fully
//! determine the search. [`EmbeddingCache`] memoizes on exactly that
//! triple plus the topology family ([`topology_embedding_key`]), so a
//! warm run performs **zero** route iterations.
//!
//! The cache is `Sync`; share one instance across runs (or threads) via
//! `Arc`. [`EmbeddingCache::shared`] is the one instance a process gets by
//! default, for as long as something holds it. Every cache holds at most
//! [`EmbeddingCache::CAPACITY`] embeddings and evicts the least recently
//! used one, so a stream of never-repeating programs cannot grow it
//! without bound.

use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};

use crate::embed::{EmbedOptions, EmbedStats, Embedding};
use crate::topology::Topology;
use crate::{EmbedError, HardwareGraph};

/// FNV-1a, the canonical-form hasher for cache keys (stable across runs,
/// unlike `DefaultHasher`, whose seeds are unspecified). Shared with the
/// topology module, which uses it for [`Topology::parameter_hash`]
/// values.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    pub(crate) fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// First token of a snapshot file's header line.
const SNAPSHOT_MAGIC: &str = "qac-embedding-cache";

/// Snapshot format version; bump on any layout change so stale files
/// are rejected instead of misread.
const SNAPSHOT_VERSION: u32 = 1;

/// Why [`EmbeddingCache::load`] rejected a snapshot file.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading the file itself failed.
    Io(std::io::Error),
    /// The file parses as a snapshot but was written by a different
    /// format version.
    VersionMismatch {
        /// The version token found in the header.
        found: String,
    },
    /// The snapshot was saved for a different hardware family or size.
    TopologyMismatch {
        /// `family parameter_hash` the caller expected.
        expected: String,
        /// `family parameter_hash` stamped in the file.
        found: String,
    },
    /// The file is malformed: bad magic, failed checksum, or an
    /// unparseable line.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::VersionMismatch { found } => {
                write!(
                    f,
                    "snapshot version mismatch: found {found}, want v{SNAPSHOT_VERSION}"
                )
            }
            SnapshotError::TopologyMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot topology mismatch: saved for {found}, loading on {expected}"
                )
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// The topology-free part of [`topology_embedding_key`]: logical graph,
/// options and the hardware graph's
/// [`fingerprint`](HardwareGraph::fingerprint).
fn embedding_key(
    edges: &[(usize, usize)],
    num_vars: usize,
    options: &EmbedOptions,
    hardware: &HardwareGraph,
) -> u64 {
    let mut h = Fnv::new();
    h.write_usize(num_vars);

    let mut canonical: Vec<(usize, usize)> =
        edges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
    canonical.sort_unstable();
    canonical.dedup();
    h.write_usize(canonical.len());
    for (a, b) in canonical {
        h.write_usize(a);
        h.write_usize(b);
    }

    h.write_u64(options.seed);
    h.write_usize(options.tries);
    h.write_usize(options.rounds);
    h.write_u64(options.penalty_base.to_bits());
    h.write_u64(hardware.fingerprint());
    h.finish()
}

/// Canonical hash of one embedding problem, the key of
/// [`EmbeddingCache`]: the logical interaction graph (edges normalized,
/// sorted, deduplicated), the [`EmbedOptions`], the hardware graph's
/// [`fingerprint`](HardwareGraph::fingerprint) (node count, active set,
/// couplers; computed once per graph) and the topology's canonical
/// [`parameter_hash`](Topology::parameter_hash).
///
/// The edge *weights* of the logical model are deliberately excluded —
/// an embedding depends only on which interactions exist, so models that
/// differ only in coefficients (e.g. different pin biases) share a cache
/// entry.
///
/// The hardware-graph component alone already separates most
/// topologies (different edges hash differently), but two families can
/// in principle produce isomorphic — even identical — graphs of the
/// same size. Mixing in the family/parameter hash guarantees, e.g., a C4
/// and a king's graph with equal qubit counts can never share a cache
/// entry.
pub fn topology_embedding_key<T: Topology + ?Sized>(
    topology: &T,
    edges: &[(usize, usize)],
    num_vars: usize,
    options: &EmbedOptions,
    hardware: &HardwareGraph,
) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(topology.parameter_hash());
    h.write_u64(embedding_key(edges, num_vars, options, hardware));
    h.finish()
}

/// A coherent snapshot of the cache's counters (see
/// [`EmbeddingCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that had to embed.
    pub misses: usize,
    /// Embeddings currently stored (at most
    /// [`EmbeddingCache::CAPACITY`]).
    pub entries: usize,
    /// Entries dropped to make room for a new one.
    pub evictions: usize,
}

impl CacheStats {
    /// Total completed lookups (every lookup is exactly one of hit or
    /// miss).
    pub fn lookups(&self) -> usize {
        self.hits + self.misses
    }
}

/// One cached embedding and the tick of its last lookup.
struct Entry {
    embedding: Embedding,
    last_use: u64,
}

/// The entry map of an [`EmbeddingCache`], kept within
/// [`EmbeddingCache::CAPACITY`] by least-recently-used eviction.
#[derive(Default)]
struct Entries {
    map: HashMap<u64, Entry>,
    /// Bumped by every hit and insert; orders entries by last use.
    clock: u64,
}

impl Entries {
    fn get(&mut self, key: u64) -> Option<Embedding> {
        let entry = self.map.get_mut(&key)?;
        self.clock += 1;
        entry.last_use = self.clock;
        Some(entry.embedding.clone())
    }

    /// Stores `embedding` under `key` (a racing insert that got there
    /// first is kept) and returns whether the least recently used entry
    /// was evicted to make room. A linear scan finds it: the map never
    /// holds more than [`EmbeddingCache::CAPACITY`] entries.
    fn insert(&mut self, key: u64, embedding: Embedding) -> bool {
        self.clock += 1;
        if let Some(entry) = self.map.get_mut(&key) {
            entry.last_use = self.clock;
            return false;
        }
        let full = self.map.len() >= EmbeddingCache::CAPACITY;
        if full {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(&k, _)| k);
            self.map.remove(&oldest.expect("a full map has entries"));
        }
        self.map.insert(
            key,
            Entry {
                embedding,
                last_use: self.clock,
            },
        );
        full
    }
}

/// Memoizes minor embeddings by [`topology_embedding_key`], with
/// hit/miss/eviction counters, holding at most
/// [`EmbeddingCache::CAPACITY`] entries.
///
/// Counter updates happen while the entry map's lock is held, so a
/// [`EmbeddingCache::stats`] snapshot (which takes the same lock) is
/// always coherent: `entries <= misses` and `hits + misses` equals the
/// number of completed lookups — under any number of concurrent
/// threads, not just at quiescence. The engine's workers hammer one
/// shared cache, so these invariants are load-bearing (and tested
/// below).
#[derive(Default)]
pub struct EmbeddingCache {
    entries: Mutex<Entries>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

impl fmt::Debug for EmbeddingCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("EmbeddingCache")
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("evictions", &stats.evictions)
            .finish()
    }
}

impl EmbeddingCache {
    /// The most embeddings one cache holds. A lookup that misses on a
    /// full cache evicts the least recently used entry. 32 keeps every
    /// program of a workload warm (perfbench's paper-pins runs 2) while
    /// a stream of never-repeating programs, which would otherwise add
    /// an entry per job to the process-wide cache, holds at most 32.
    pub const CAPACITY: usize = 32;

    /// An empty cache.
    pub fn new() -> EmbeddingCache {
        EmbeddingCache::default()
    }

    /// The process-wide cache: while anything holds it, every call
    /// returns the same instance. It is what a default-configured
    /// hardware-model run embeds through; a caller that wants runs
    /// isolated from the rest of the process passes its own
    /// `Arc::new(EmbeddingCache::new())` instead.
    ///
    /// The process keeps only a weak reference, so the cache and its
    /// embeddings are freed with its last holder (a default
    /// `DWaveSimOptions`, or a compiled program) and the next call starts
    /// an empty one. Work that starts over from nothing, such as running
    /// a seed again after dropping every program, routes again, and so
    /// repeats exactly.
    pub fn shared() -> Arc<EmbeddingCache> {
        static SHARED: Mutex<Weak<EmbeddingCache>> = Mutex::new(Weak::new());
        let mut shared = SHARED.lock().unwrap_or_else(PoisonError::into_inner);
        shared.upgrade().unwrap_or_else(|| {
            let cache = Arc::new(EmbeddingCache::new());
            *shared = Arc::downgrade(&cache);
            cache
        })
    }

    /// Returns the cached embedding for this problem, or computes one with
    /// `embed`, stores it, and returns it. Hits report
    /// [`EmbedStats::cache_hit`] with zero route iterations; failures are
    /// not cached (a later call with more tries may succeed).
    ///
    /// The key is [`topology_embedding_key`], so equal hardware graphs
    /// from different families never share an entry. Every lookup bumps
    /// `qac_embed_cache_{hits,misses}_total` and
    /// `qac_cache_{hit,miss}_total`, each also with a
    /// `topology="family"` label, and records a flight event named after
    /// the family. A miss that evicts an entry also bumps
    /// `qac_embed_cache_evictions_total` and its labeled variant.
    ///
    /// # Errors
    /// Whatever `embed` returns on a miss.
    pub fn get_or_embed<T, F>(
        &self,
        topology: &T,
        edges: &[(usize, usize)],
        num_vars: usize,
        options: &EmbedOptions,
        hardware: &HardwareGraph,
        embed: F,
    ) -> Result<(Embedding, EmbedStats), EmbedError>
    where
        T: Topology + ?Sized,
        F: FnOnce() -> Result<(Embedding, EmbedStats), EmbedError>,
    {
        let key = topology_embedding_key(topology, edges, num_vars, options, hardware);
        let family = topology.family();
        // Both the `qac_embed_*` names and the generic
        // `qac_cache_hit/miss_total` convention the service layer will
        // scrape; the flight recorder gets the same event under the
        // current job's trace id for post-mortems.
        let count = |name: &str| {
            let telemetry = qac_telemetry::global();
            telemetry.counter_add(name, 1);
            telemetry.counter_add(
                &qac_telemetry::metrics::labeled(name, &[("topology", family)]),
                1,
            );
        };
        let bump = |names: [&str; 2], kind: qac_telemetry::FlightKind| {
            names.into_iter().for_each(count);
            qac_telemetry::global_flight().record(kind, family, 1.0);
        };
        {
            let mut guard = self.lock();
            if let Some(found) = guard.get(key) {
                // Count the hit before releasing the map lock, so no
                // stats() snapshot can observe the lookup half-recorded.
                self.hits.fetch_add(1, Ordering::Relaxed);
                drop(guard);
                bump(
                    ["qac_embed_cache_hits_total", "qac_cache_hit_total"],
                    qac_telemetry::FlightKind::CacheHit,
                );
                let stats = EmbedStats {
                    cache_hit: true,
                    ..EmbedStats::default()
                };
                return Ok((found, stats));
            }
        }
        // The lock is NOT held while embedding (it can take seconds);
        // concurrent misses on the same key both embed and one insert
        // wins, which costs duplicated work but never blocks other keys.
        let (embedding, stats) = embed()?;
        let evicted = {
            // Miss counter and insert move together under the lock:
            // `entries <= misses` holds at every instant (a lost update
            // here would let a stats() reader see an entry with no miss
            // accounting for it).
            let mut guard = self.lock();
            self.misses.fetch_add(1, Ordering::Relaxed);
            let evicted = guard.insert(key, embedding.clone());
            if evicted {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            evicted
        };
        bump(
            ["qac_embed_cache_misses_total", "qac_cache_miss_total"],
            qac_telemetry::FlightKind::CacheMiss,
        );
        if evicted {
            count("qac_embed_cache_evictions_total");
        }
        Ok((embedding, stats))
    }

    /// Number of cached embeddings.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to embed.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// A coherent snapshot of hits, misses, entry count and evictions, taken under
    /// the entry map's lock (unlike three separate calls to
    /// [`EmbeddingCache::hits`] / [`EmbeddingCache::misses`] /
    /// [`EmbeddingCache::len`], which can interleave with writers).
    pub fn stats(&self) -> CacheStats {
        let guard = self.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: guard.map.len(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        self.lock().map.clear();
    }

    /// Writes every cached entry to `path` in the versioned snapshot
    /// format (see [`EmbeddingCache::load`]). The snapshot is stamped
    /// with `topology`'s family and
    /// [`parameter_hash`](Topology::parameter_hash), so it can only be
    /// loaded back against the same hardware family and size, and ends
    /// with an FNV-1a checksum over the body. Entries are written in key
    /// order, so equal caches produce byte-identical snapshots.
    ///
    /// # Errors
    /// Any I/O error from writing `path`.
    pub fn save<T: Topology + ?Sized>(&self, topology: &T, path: &Path) -> std::io::Result<()> {
        let mut body = String::new();
        body.push_str(&format!("{SNAPSHOT_MAGIC} v{SNAPSHOT_VERSION}\n"));
        body.push_str(&format!(
            "topology {} {:016x}\n",
            topology.family(),
            topology.parameter_hash()
        ));
        let entries: Vec<(u64, Embedding)> = {
            let guard = self.lock();
            let mut entries: Vec<(u64, Embedding)> = guard
                .map
                .iter()
                .map(|(&k, e)| (k, e.embedding.clone()))
                .collect();
            entries.sort_unstable_by_key(|&(k, _)| k);
            entries
        };
        body.push_str(&format!("entries {}\n", entries.len()));
        for (key, embedding) in entries {
            body.push_str(&format!("entry {key:016x} {}\n", embedding.num_vars()));
            for chain in embedding.chains() {
                body.push_str("chain");
                for &q in chain {
                    body.push_str(&format!(" {q}"));
                }
                body.push('\n');
            }
        }
        let mut h = Fnv::new();
        h.write_bytes(body.as_bytes());
        body.push_str(&format!("checksum {:016x}\n", h.finish()));
        std::fs::write(path, body)
    }

    /// Reads a snapshot written by [`EmbeddingCache::save`] into a fresh
    /// cache (counters start at zero; the loaded entries count as
    /// pre-warmed, not as misses). Entries are inserted in file order
    /// under the usual bound, so of a snapshot with more than
    /// [`EmbeddingCache::CAPACITY`] entries the last `CAPACITY` are kept.
    ///
    /// The snapshot is rejected — never partially loaded — when the
    /// magic or version line does not match, when the stamped topology
    /// family or parameter hash differs from `topology`'s, when the
    /// trailing checksum does not cover the body bytes, or when any
    /// line fails to parse.
    ///
    /// # Errors
    /// [`SnapshotError`] describing the first rejection reason.
    pub fn load<T: Topology + ?Sized>(
        topology: &T,
        path: &Path,
    ) -> Result<EmbeddingCache, SnapshotError> {
        let corrupt = |what: &str| SnapshotError::Corrupt(what.to_string());
        let text = std::fs::read_to_string(path).map_err(SnapshotError::Io)?;

        // Split off and verify the checksum line first: everything else
        // is only trustworthy if the body bytes are intact.
        let body_end = text
            .trim_end_matches('\n')
            .rfind('\n')
            .map(|idx| idx + 1)
            .ok_or_else(|| corrupt("snapshot has no checksum line"))?;
        let (body, trailer) = text.split_at(body_end);
        let stated = trailer
            .trim_end()
            .strip_prefix("checksum ")
            .ok_or_else(|| corrupt("last line is not a checksum"))?;
        let stated =
            u64::from_str_radix(stated, 16).map_err(|_| corrupt("unparseable checksum"))?;
        let mut h = Fnv::new();
        h.write_bytes(body.as_bytes());
        if h.finish() != stated {
            return Err(corrupt("checksum mismatch (truncated or edited snapshot)"));
        }

        let mut lines = body.lines();
        let header = lines.next().ok_or_else(|| corrupt("empty snapshot"))?;
        match header.strip_prefix(SNAPSHOT_MAGIC) {
            Some(version) if version == format!(" v{SNAPSHOT_VERSION}") => {}
            Some(version) => {
                return Err(SnapshotError::VersionMismatch {
                    found: version.trim().to_string(),
                })
            }
            None => return Err(corrupt("not an embedding-cache snapshot")),
        }
        let topo_line = lines
            .next()
            .and_then(|l| l.strip_prefix("topology "))
            .ok_or_else(|| corrupt("missing topology line"))?;
        let (family, hash) = topo_line
            .split_once(' ')
            .ok_or_else(|| corrupt("malformed topology line"))?;
        let hash =
            u64::from_str_radix(hash, 16).map_err(|_| corrupt("unparseable topology hash"))?;
        if family != topology.family() || hash != topology.parameter_hash() {
            return Err(SnapshotError::TopologyMismatch {
                expected: format!("{} {:016x}", topology.family(), topology.parameter_hash()),
                found: format!("{family} {hash:016x}"),
            });
        }
        let count: usize = lines
            .next()
            .and_then(|l| l.strip_prefix("entries "))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| corrupt("missing or malformed entries line"))?;

        let mut entries = Entries::default();
        for _ in 0..count {
            let entry = lines
                .next()
                .and_then(|l| l.strip_prefix("entry "))
                .ok_or_else(|| corrupt("missing entry line"))?;
            let (key, num_vars) = entry
                .split_once(' ')
                .ok_or_else(|| corrupt("malformed entry line"))?;
            let key = u64::from_str_radix(key, 16).map_err(|_| corrupt("unparseable entry key"))?;
            let num_vars: usize = num_vars
                .parse()
                .map_err(|_| corrupt("unparseable chain count"))?;
            let mut chains = Vec::with_capacity(num_vars);
            for _ in 0..num_vars {
                let line = lines
                    .next()
                    .and_then(|l| l.strip_prefix("chain"))
                    .ok_or_else(|| corrupt("missing chain line"))?;
                let chain: Vec<usize> = line
                    .split_whitespace()
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|_| corrupt("unparseable qubit index"))?;
                chains.push(chain);
            }
            entries.insert(key, Embedding::from_chains(chains));
        }
        if lines.next().is_some() {
            return Err(corrupt("trailing data after the last entry"));
        }
        Ok(EmbeddingCache {
            entries: Mutex::new(entries),
            ..EmbeddingCache::default()
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Entries> {
        // A poisoned mutex means another thread panicked mid-insert; the
        // map itself is always in a consistent state.
        self.entries.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_embedding_with_stats, Chimera, KingGraph, Pegasus, Zephyr};

    /// Every lookup adds to the process-global cache counters, which
    /// `lookups_emit_generic_counters_and_flight_events` reads as exact
    /// before/after differences, so tests that look up take this lock.
    static LOOKUPS: Mutex<()> = Mutex::new(());

    fn serialize_lookups() -> std::sync::MutexGuard<'static, ()> {
        LOOKUPS.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn triangle() -> Vec<(usize, usize)> {
        vec![(0, 1), (1, 2), (0, 2)]
    }

    /// Embeds the triangle on a C2 (`hw` is its graph) through `cache`.
    fn embed_triangle(
        cache: &EmbeddingCache,
        hw: &HardwareGraph,
        options: &EmbedOptions,
    ) -> (Embedding, EmbedStats) {
        cache
            .get_or_embed(&Chimera::new(2), &triangle(), 3, options, hw, || {
                find_embedding_with_stats(&triangle(), 3, hw, options)
            })
            .unwrap()
    }

    #[test]
    fn warm_lookup_is_a_hit_with_zero_route_iterations() {
        let _serial = serialize_lookups();
        let hw = Chimera::new(2).graph();
        let options = EmbedOptions::default();
        let cache = EmbeddingCache::new();

        let (cold, cold_stats) = embed_triangle(&cache, &hw, &options);
        assert!(!cold_stats.cache_hit);
        assert!(cold_stats.route_iterations > 0);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        let (warm, warm_stats) = embed_triangle(&cache, &hw, &options);
        assert!(warm_stats.cache_hit);
        assert_eq!(warm_stats.route_iterations, 0);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cold, warm, "hit returns the identical embedding");
        assert!(
            warm.validate(&triangle(), &hw),
            "cached embedding stays valid"
        );
    }

    #[test]
    fn key_distinguishes_problem_options_and_hardware() {
        let hw2 = Chimera::new(2).graph();
        let hw3 = Chimera::new(3).graph();
        let mut dropped = Chimera::new(2).graph();
        dropped.deactivate(0);
        let base = EmbedOptions::default();
        let key = embedding_key;

        let k0 = key(&triangle(), 3, &base, &hw2);
        // Edge order and duplicates do not matter.
        assert_eq!(k0, key(&[(2, 1), (0, 2), (1, 0), (1, 2)], 3, &base, &hw2));
        // Everything else does.
        assert_ne!(k0, key(&[(0, 1), (1, 2)], 3, &base, &hw2));
        assert_ne!(k0, key(&triangle(), 4, &base, &hw2));
        assert_ne!(
            k0,
            key(
                &triangle(),
                3,
                &EmbedOptions {
                    seed: 1,
                    ..base.clone()
                },
                &hw2
            )
        );
        assert_ne!(
            k0,
            key(
                &triangle(),
                3,
                &EmbedOptions {
                    rounds: 7,
                    ..base.clone()
                },
                &hw2
            )
        );
        assert_ne!(k0, key(&triangle(), 3, &base, &hw3));
        assert_ne!(k0, key(&triangle(), 3, &base, &dropped));

        // Topology-aware keys: the family/parameter hash separates
        // topologies even when their qubit counts are equal. A C4 has
        // 8·16 = 128 qubits; so does a √128-free king's graph? No — but
        // equal *node counts* are exactly what the plain hardware hash
        // could conflate if the edge sets also matched, so the guarantee
        // must come from the parameter hash, not the graph bytes.
        let c4 = Chimera::new(4);
        let king = KingGraph::new(11); // 121 vs 128 nodes: near-miss sizes
        let tk = |t: &dyn Topology, hw: &HardwareGraph| {
            topology_embedding_key(t, &triangle(), 3, &base, hw)
        };
        let c4_graph = c4.graph();
        let king_graph = king.graph();
        assert_ne!(tk(&c4, &c4_graph), tk(&king, &king_graph));
        // Same problem + same hardware bytes, different claimed family →
        // different key (the collision the satellite guards against).
        assert_ne!(tk(&c4, &c4_graph), tk(&king, &c4_graph));
        assert_ne!(
            tk(&Pegasus::new(4), &c4_graph),
            tk(&Zephyr::new(4), &c4_graph)
        );
        // And the topology-aware key still separates everything the
        // plain key separates.
        assert_ne!(tk(&c4, &c4_graph), tk(&Chimera::new(3), &c4_graph));
    }

    #[test]
    fn failures_are_not_cached() {
        let _serial = serialize_lookups();
        let hw = Chimera::new(1).graph();
        let cache = EmbeddingCache::new();
        let options = EmbedOptions {
            tries: 1,
            rounds: 4,
            ..Default::default()
        };
        // K9 in one unit cell: impossible.
        let edges: Vec<(usize, usize)> = (0..9)
            .flat_map(|i| ((i + 1)..9).map(move |j| (i, j)))
            .collect();
        let attempt = |cache: &EmbeddingCache| {
            cache.get_or_embed(&Chimera::new(1), &edges, 9, &options, &hw, || {
                find_embedding_with_stats(&edges, 9, &hw, &options)
            })
        };
        assert!(attempt(&cache).is_err());
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        // Still a miss (not a poisoned hit) the second time.
        assert!(attempt(&cache).is_err());
    }

    #[test]
    fn stats_snapshot_matches_individual_accessors_at_quiescence() {
        let _serial = serialize_lookups();
        let hw = Chimera::new(2).graph();
        let options = EmbedOptions::default();
        let cache = EmbeddingCache::new();
        embed_triangle(&cache, &hw, &options);
        embed_triangle(&cache, &hw, &options);
        let stats = cache.stats();
        assert_eq!(
            stats,
            CacheStats {
                hits: 1,
                misses: 1,
                entries: 1,
                evictions: 0
            }
        );
        assert_eq!(stats.lookups(), 2);
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (cache.hits(), cache.misses(), cache.len())
        );
    }

    #[test]
    fn concurrent_hammer_loses_no_counter_updates() {
        // The engine fans workers out over one shared cache; this is the
        // lost-update regression test. 8 threads × 24 lookups over 4
        // distinct keys: every lookup must be accounted as exactly one
        // hit or miss, every key must end up cached, and mid-flight
        // stats() snapshots must never observe entries the miss counter
        // cannot explain.
        let _serial = serialize_lookups();
        let hw = Chimera::new(2).graph();
        let cache = EmbeddingCache::new();
        let threads = 8usize;
        let iterations = 24usize;
        let keys = 4u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = &cache;
                let hw = &hw;
                scope.spawn(move || {
                    for i in 0..iterations {
                        // Distinct EmbedOptions seeds are distinct cache
                        // keys; rotate so every thread touches every key.
                        let options = EmbedOptions {
                            seed: (t + i) as u64 % keys,
                            ..Default::default()
                        };
                        let (embedding, _) = cache
                            .get_or_embed(&Chimera::new(2), &triangle(), 3, &options, hw, || {
                                find_embedding_with_stats(&triangle(), 3, hw, &options)
                            })
                            .expect("triangle embeds");
                        assert!(embedding.validate(&triangle(), hw));
                        let stats = cache.stats();
                        assert!(
                            stats.entries <= stats.misses,
                            "entry without a recorded miss: {stats:?}"
                        );
                        assert!(
                            stats.lookups() <= threads * iterations,
                            "over-counted lookups: {stats:?}"
                        );
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(
            stats.lookups(),
            threads * iterations,
            "lost a counter update: {stats:?}"
        );
        assert_eq!(stats.entries, keys as usize, "every key cached once");
        // Duplicated work on racing first lookups is allowed (misses may
        // exceed entries) but each key misses at least once.
        assert!(stats.misses >= keys as usize);
        assert_eq!(stats.hits, threads * iterations - stats.misses);
    }

    #[test]
    fn concurrent_hammer_across_mixed_topologies() {
        // Same shape as the single-topology hammer, but the 8 threads
        // rotate over *topologies* instead of seeds: one triangle, one
        // option set, four families of similar scale. Every
        // (topology, hardware) pair must get exactly one entry and the
        // counters must balance — a cross-family key collision would
        // surface as a missing entry (two families sharing one) or as a
        // validate() failure (a chain of foreign qubit indices).
        let _serial = serialize_lookups();
        let topologies: Vec<(Box<dyn Topology + Sync>, HardwareGraph)> = vec![
            (Box::new(Chimera::new(2)), Chimera::new(2).graph()),
            (Box::new(Pegasus::new(2)), Pegasus::new(2).graph()),
            (Box::new(Zephyr::new(2)), Zephyr::new(2).graph()),
            (Box::new(KingGraph::new(4)), KingGraph::new(4).graph()),
        ];
        let cache = EmbeddingCache::new();
        let threads = 8usize;
        let iterations = 24usize;
        let options = EmbedOptions::default();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = &cache;
                let topologies = &topologies;
                let options = &options;
                scope.spawn(move || {
                    for i in 0..iterations {
                        let (topology, hw) = &topologies[(t + i) % topologies.len()];
                        let (embedding, _) = cache
                            .get_or_embed(topology.as_ref(), &triangle(), 3, options, hw, || {
                                find_embedding_with_stats(&triangle(), 3, hw, options)
                            })
                            .expect("triangle embeds on every family");
                        assert!(
                            embedding.validate(&triangle(), hw),
                            "cached chain must be valid on its own topology"
                        );
                        let stats = cache.stats();
                        assert!(stats.entries <= stats.misses, "{stats:?}");
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.lookups(), threads * iterations);
        assert_eq!(
            stats.entries,
            topologies.len(),
            "one entry per topology — no cross-family collisions: {stats:?}"
        );
        assert!(stats.misses >= topologies.len());
        assert_eq!(stats.hits, threads * iterations - stats.misses);
    }

    #[test]
    fn lookups_emit_generic_counters_and_flight_events() {
        // The PR 7 satellite: alongside the qac_embed_* names, every
        // lookup bumps the generic qac_cache_hit/miss_total counters
        // (labeled by topology family + unlabeled aggregate) and leaves
        // a CacheHit/CacheMiss flight event under the active trace.
        let _serial = serialize_lookups();
        use qac_telemetry::{FlightKind, TraceId, TraceScope};
        let telemetry = qac_telemetry::global();
        telemetry.enable();
        let labeled_hit =
            qac_telemetry::metrics::labeled("qac_cache_hit_total", &[("topology", "king")]);
        let counters = || {
            let m = telemetry.metrics();
            (
                m.counter("qac_cache_hit_total"),
                m.counter("qac_cache_miss_total"),
                m.counter(&labeled_hit),
            )
        };
        let before = counters();

        let king = KingGraph::new(4);
        let hw = king.graph();
        let options = EmbedOptions::default();
        let cache = EmbeddingCache::new();
        let trace = TraceId::fresh();
        {
            let _scope = TraceScope::enter(trace);
            for _ in 0..2 {
                cache
                    .get_or_embed(&king, &triangle(), 3, &options, &hw, || {
                        find_embedding_with_stats(&triangle(), 3, &hw, &options)
                    })
                    .expect("triangle embeds on a king graph");
            }
        }

        let after = counters();
        assert_eq!(after.0, before.0 + 1, "one generic hit");
        assert_eq!(after.1, before.1 + 1, "one generic miss");
        assert_eq!(after.2, before.2 + 1, "one king-labeled hit");

        let kinds: Vec<FlightKind> = qac_telemetry::global_flight()
            .events_for(trace)
            .iter()
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            [FlightKind::CacheMiss, FlightKind::CacheHit],
            "miss then hit, both under the job's trace id"
        );
        for event in qac_telemetry::global_flight().events_for(trace) {
            assert_eq!(event.name, "king");
        }
    }

    #[test]
    fn a_miss_on_a_full_cache_evicts_and_counts_it() {
        let _serial = serialize_lookups();
        let telemetry = qac_telemetry::global();
        telemetry.enable();
        let labeled = qac_telemetry::metrics::labeled(
            "qac_embed_cache_evictions_total",
            &[("topology", "chimera")],
        );
        let counters = || {
            let m = telemetry.metrics();
            (
                m.counter("qac_embed_cache_evictions_total"),
                m.counter(&labeled),
            )
        };
        let before = counters();
        let hw = Chimera::new(2).graph();
        let cache = EmbeddingCache::new();
        for seed in 0..=EmbeddingCache::CAPACITY as u64 {
            let options = EmbedOptions {
                seed,
                ..Default::default()
            };
            embed_triangle(&cache, &hw, &options);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, EmbeddingCache::CAPACITY);
        assert_eq!(stats.misses, EmbeddingCache::CAPACITY + 1);
        assert_eq!(stats.evictions, 1);
        let after = counters();
        assert_eq!(after.0, before.0 + 1, "one unlabeled eviction");
        assert_eq!(after.1, before.1 + 1, "one chimera-labeled eviction");
    }

    #[test]
    fn snapshot_roundtrip_restores_every_entry() {
        let _serial = serialize_lookups();
        let dir = std::env::temp_dir().join("qac-cache-snapshot-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.qacsnap");
        let chimera = Chimera::new(2);
        let hw = chimera.graph();
        let cache = EmbeddingCache::new();
        // Two entries: different seeds, different keys.
        for seed in [0u64, 1] {
            let options = EmbedOptions {
                seed,
                ..Default::default()
            };
            embed_triangle(&cache, &hw, &options);
        }
        cache.save(&chimera, &path).unwrap();

        let loaded = EmbeddingCache::load(&chimera, &path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.stats().lookups(), 0, "counters start fresh");
        // Every restored entry answers as a hit with the original chains.
        for seed in [0u64, 1] {
            let options = EmbedOptions {
                seed,
                ..Default::default()
            };
            let (original, _) = embed_triangle(&cache, &hw, &options);
            let (restored, stats) = embed_triangle(&loaded, &hw, &options);
            assert!(stats.cache_hit, "seed {seed} must be pre-warmed");
            assert_eq!(restored, original);
            assert!(restored.validate(&triangle(), &hw));
        }
        // Saving the loaded cache reproduces the file byte-for-byte.
        let copy = dir.join("cache2.qacsnap");
        loaded.save(&chimera, &copy).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&copy).unwrap(),
            "snapshots are canonical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_rejects_corruption_version_and_topology_mismatch() {
        let _serial = serialize_lookups();
        let dir = std::env::temp_dir().join("qac-cache-snapshot-reject");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.qacsnap");
        let chimera = Chimera::new(2);
        let hw = chimera.graph();
        let cache = EmbeddingCache::new();
        embed_triangle(&cache, &hw, &EmbedOptions::default());
        cache.save(&chimera, &path).unwrap();
        let good = std::fs::read_to_string(&path).unwrap();

        let reject = |contents: &str| {
            let bad = dir.join("bad.qacsnap");
            std::fs::write(&bad, contents).unwrap();
            EmbeddingCache::load(&chimera, &bad)
        };

        // Any body edit breaks the checksum.
        assert!(matches!(
            reject(&good.replace("entries 1", "entries 2")),
            Err(SnapshotError::Corrupt(_))
        ));
        // Truncation loses the checksum line's coverage.
        let truncated = &good[..good.len() / 2];
        assert!(matches!(reject(truncated), Err(SnapshotError::Corrupt(_))));
        // Garbage is not a snapshot at all.
        assert!(matches!(
            reject("not a snapshot\n"),
            Err(SnapshotError::Corrupt(_))
        ));
        // A future version is rejected even with a valid checksum.
        let mut future = good.replace(" v1\n", " v2\n");
        let body_end = future.trim_end_matches('\n').rfind('\n').unwrap() + 1;
        future.truncate(body_end);
        let mut h = Fnv::new();
        h.write_bytes(future.as_bytes());
        future.push_str(&format!("checksum {:016x}\n", h.finish()));
        assert!(matches!(
            reject(&future),
            Err(SnapshotError::VersionMismatch { found }) if found == "v2"
        ));
        // A snapshot saved for one topology never loads on another.
        assert!(matches!(
            EmbeddingCache::load(&Chimera::new(3), &path),
            Err(SnapshotError::TopologyMismatch { .. })
        ));
        assert!(matches!(
            EmbeddingCache::load(&KingGraph::new(4), &path),
            Err(SnapshotError::TopologyMismatch { .. })
        ));
        // A missing file surfaces the I/O error.
        assert!(matches!(
            EmbeddingCache::load(&chimera, &dir.join("absent.qacsnap")),
            Err(SnapshotError::Io(_))
        ));
        // And the untouched file still loads.
        assert!(EmbeddingCache::load(&chimera, &path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clear_forces_recomputation() {
        let _serial = serialize_lookups();
        let hw = Chimera::new(2).graph();
        let options = EmbedOptions::default();
        let cache = EmbeddingCache::new();
        embed_triangle(&cache, &hw, &options);
        cache.clear();
        let (_, stats) = embed_triangle(&cache, &hw, &options);
        assert!(!stats.cache_hit);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn the_shared_cache_lives_as_long_as_a_holder() {
        // No other test in this binary calls `shared`.
        let held = EmbeddingCache::shared();
        assert!(Arc::ptr_eq(&held, &EmbeddingCache::shared()));
        let gone = Arc::downgrade(&held);
        drop(held);
        assert!(gone.upgrade().is_none(), "freed with its last holder");
        let next = EmbeddingCache::shared();
        let stats = next.stats();
        assert_eq!(
            (stats.entries, stats.lookups()),
            (0, 0),
            "the next one starts empty"
        );
    }
}
