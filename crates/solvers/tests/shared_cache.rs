//! The process-wide embedding cache that default-configured hardware-model
//! runs share, and the entry bound every cache keeps.
//!
//! Lives in its own test binary so the shared cache starts empty: only
//! `default_runs_route_a_program_once` looks anything up in it.

use std::sync::Arc;

use qac_chimera::{find_embedding_with_stats, EmbedOptions, Embedding, EmbeddingCache};
use qac_pbf::Ising;
use qac_solvers::{DWaveSim, DWaveSimOptions, Topology, TopologySpec};

/// A frustrated ring of five with one field per spin. The ring needs a
/// chain on Chimera (no odd cycles), so a cold embed does routing work;
/// `fields` play the part of pin values, which change no coupling.
fn ring(fields: [f64; 5]) -> Ising {
    let mut model = Ising::new(5);
    for (i, h) in fields.into_iter().enumerate() {
        model.add_h(i, h);
        model.add_j(i, (i + 1) % 5, 1.0);
    }
    model
}

#[test]
fn default_runs_route_a_program_once() {
    let shared = EmbeddingCache::shared();
    assert!(
        Arc::ptr_eq(&DWaveSimOptions::default().embedding_cache, &shared),
        "the default options embed through the shared cache"
    );
    let run = |model: &Ising, options: DWaveSimOptions| DWaveSim::new(options).run(model, 40);
    let seeded = |seed| DWaveSimOptions {
        seed,
        ..Default::default()
    };

    let cold = run(&ring([0.5, 0.0, -0.25, 0.0, 0.0]), seeded(1)).unwrap();
    assert!(!cold.embed_stats.cache_hit);
    assert!(
        cold.embed_stats.route_iterations > 0,
        "{:?}",
        cold.embed_stats
    );

    // Another sampler seed and other fields: the same couplings, so the
    // same key.
    let pinned = ring([-0.5, 0.25, 0.0, 0.0, 0.75]);
    let warm = run(&pinned, seeded(2)).unwrap();
    assert!(warm.embed_stats.cache_hit);
    assert_eq!(warm.embed_stats.route_iterations, 0);
    assert_eq!(warm.embedding, cold.embedding);
    let stats = shared.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

    // A cold route of the same run through a private cache gives the
    // same samples.
    let private = run(
        &pinned,
        DWaveSimOptions {
            embedding_cache: Arc::new(EmbeddingCache::new()),
            ..seeded(2)
        },
    )
    .unwrap();
    assert!(!private.embed_stats.cache_hit);
    assert_eq!(private.embedding, warm.embedding);
    assert_eq!(private.logical, warm.logical);
    assert_eq!(private.physical_qubits, warm.physical_qubits);
    assert_eq!(shared.stats().lookups(), 2, "the private run left it alone");
}

fn triangle() -> Vec<(usize, usize)> {
    vec![(0, 1), (1, 2), (0, 2)]
}

/// Looks the triangle up on a C2 under embedding seed `seed` (distinct
/// seeds are distinct keys); returns whether it was a hit.
fn lookup(cache: &EmbeddingCache, seed: u64) -> bool {
    let topology = TopologySpec::Chimera { m: 2 };
    let hardware = topology.shared_graph();
    let options = EmbedOptions {
        seed,
        ..Default::default()
    };
    let (embedding, stats) = cache
        .get_or_embed(&topology, &triangle(), 3, &options, &hardware, || {
            find_embedding_with_stats(&triangle(), 3, &hardware, &options)
        })
        .expect("a triangle embeds on a C2");
    assert!(embedding.validate(&triangle(), &hardware));
    stats.cache_hit
}

#[test]
fn a_full_cache_evicts_the_least_recently_used_entry() {
    let capacity = EmbeddingCache::CAPACITY as u64;
    let cache = EmbeddingCache::new();
    for seed in 0..capacity {
        assert!(!lookup(&cache, seed));
    }
    assert_eq!(cache.len(), EmbeddingCache::CAPACITY);
    assert_eq!(cache.stats().evictions, 0);

    // Seed 0 was inserted first but is now the most recent use; seed 1
    // is the least recently used.
    assert!(lookup(&cache, 0));
    assert!(!lookup(&cache, capacity), "key capacity + 1 is new");
    let stats = cache.stats();
    assert_eq!(stats.entries, EmbeddingCache::CAPACITY);
    assert_eq!(stats.evictions, 1);
    assert!(stats.entries <= stats.misses, "{stats:?}");

    assert!(lookup(&cache, 0), "the recently used key survived");
    assert!(
        !lookup(&cache, 1),
        "the least recently used key was evicted"
    );
    assert!(lookup(&cache, 1), "and is cached again after its miss");
    let stats = cache.stats();
    assert_eq!(stats.entries, EmbeddingCache::CAPACITY);
    assert_eq!(stats.evictions, 2);
    assert_eq!(stats.misses, EmbeddingCache::CAPACITY + 2);
    assert!(stats.entries <= stats.misses, "{stats:?}");
}

/// FNV-1a, the snapshot checksum.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn loading_an_oversized_snapshot_keeps_the_bound() {
    // No cache can save more than `CAPACITY` entries, so the snapshot is
    // written by hand: `CAPACITY + 5` one-chain entries in key order.
    let topology = TopologySpec::Chimera { m: 2 };
    let count = EmbeddingCache::CAPACITY + 5;
    let mut body = format!(
        "qac-embedding-cache v1\ntopology {} {:016x}\nentries {count}\n",
        topology.family(),
        topology.parameter_hash()
    );
    for key in 0..count {
        body.push_str(&format!("entry {key:016x} 1\nchain {key}\n"));
    }
    body.push_str(&format!("checksum {:016x}\n", fnv(body.as_bytes())));
    let dir = std::env::temp_dir().join(format!("qac-shared-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("oversized.qacsnap");
    std::fs::write(&path, body).unwrap();

    let loaded = EmbeddingCache::load(&topology, &path).expect("a well-formed v1 snapshot");
    let stats = loaded.stats();
    assert_eq!(stats.entries, EmbeddingCache::CAPACITY);
    assert_eq!(stats.lookups(), 0);

    // The last `CAPACITY` entries of the file are the ones kept.
    let resaved = dir.join("resaved.qacsnap");
    loaded.save(&topology, &resaved).unwrap();
    let text = std::fs::read_to_string(&resaved).unwrap();
    let kept: Vec<Embedding> = text
        .lines()
        .filter_map(|line| line.strip_prefix("chain "))
        .map(|q| Embedding::from_chains(vec![vec![q.parse().unwrap()]]))
        .collect();
    let expected: Vec<Embedding> = (5..count)
        .map(|q| Embedding::from_chains(vec![vec![q]]))
        .collect();
    assert_eq!(kept, expected);
    std::fs::remove_dir_all(&dir).ok();
}
