//! Acceptance tests for the embedding cache and the embed/sample
//! portfolio, on the paper's map-coloring workload (§6.1).

use std::sync::Arc;

use qac_bench::{compile_workload, AUSTRALIA};
use qac_chimera::{
    find_embedding_portfolio, find_embedding_with_stats, Chimera, EmbedOptions, EmbeddingCache,
};
use qac_core::{RunOptions, SolverChoice};
use qac_pbf::scale::{scale_to_range, CoefficientRange};
use qac_solvers::DWaveSimOptions;

fn australia_edges() -> (Vec<(usize, usize)>, usize) {
    let compiled = compile_workload(AUSTRALIA, "australia");
    let scaled = scale_to_range(&compiled.assembled.ising, CoefficientRange::DWAVE_2000Q);
    let edges = scaled.model.j_iter().map(|t| (t.i, t.j)).collect();
    (edges, scaled.model.num_vars())
}

#[test]
fn warm_cache_run_does_zero_route_iterations() {
    // Two identical map-coloring runs through one cache: the second must
    // reuse the stored embedding and do no routing work at all.
    let compiled = compile_workload(AUSTRALIA, "australia");
    let cache = Arc::new(EmbeddingCache::new());
    let sim = DWaveSimOptions {
        anneal_sweeps: 16,
        embedding_cache: Arc::clone(&cache),
        ..Default::default()
    };
    let run = RunOptions::new()
        .pin("valid := 1")
        .solver(SolverChoice::DWave(Box::new(sim)))
        .num_reads(10);

    let cold = compiled.run(&run).unwrap();
    assert_eq!(cache.hits(), 0);
    assert_eq!(cache.misses(), 1);
    let cold_embed = cold
        .trace
        .get("sample:embed")
        .expect("embed sub-phase traced");
    assert!(cold_embed.retries >= 1, "cold embed does real routing work");

    let warm = compiled.run(&run).unwrap();
    assert_eq!(cache.hits(), 1);
    let warm_embed = warm
        .trace
        .get("sample:embed")
        .expect("embed sub-phase traced");
    assert_eq!(warm_embed.retries, 0, "warm embed must not restart");
    assert_eq!(warm.trace.get("sample").unwrap().retries, 0);
}

#[test]
fn cache_hit_preserves_solution_validity() {
    // The cached embedding is the one that was computed: sampled
    // solutions (and their validity) are identical cold vs warm.
    let compiled = compile_workload(AUSTRALIA, "australia");
    let cache = Arc::new(EmbeddingCache::new());
    let sim = DWaveSimOptions {
        anneal_sweeps: 32,
        embedding_cache: Arc::clone(&cache),
        ..Default::default()
    };
    let run = RunOptions::new()
        .pin("valid := 1")
        .solver(SolverChoice::DWave(Box::new(sim)))
        .num_reads(25);

    let cold = compiled.run(&run).unwrap();
    let warm = compiled.run(&run).unwrap();
    assert_eq!(cache.hits(), 1);
    assert_eq!(cold.valid_fraction(), warm.valid_fraction());
    assert_eq!(cold.samples.len(), warm.samples.len());
    for (c, w) in cold.samples.iter().zip(warm.samples.iter()) {
        assert_eq!(c.spins, w.spins);
        assert_eq!(c.valid, w.valid);
    }
    assert_eq!(cold.hardware, warm.hardware);
}

#[test]
fn cached_embedding_validates_on_the_hardware_graph() {
    let (edges, num_vars) = australia_edges();
    let chimera = Chimera::dwave_2000q();
    let hardware = chimera.graph();
    let options = EmbedOptions {
        seed: 77,
        ..Default::default()
    };
    let cache = EmbeddingCache::new();
    for _ in 0..2 {
        let (embedding, _) = cache
            .get_or_embed(&chimera, &edges, num_vars, &options, &hardware, || {
                find_embedding_with_stats(&edges, num_vars, &hardware, &options)
            })
            .expect("map coloring embeds");
        assert!(embedding.validate(&edges, &hardware));
    }
    assert_eq!((cache.hits(), cache.misses()), (1, 1));
}

#[test]
fn portfolio_beats_the_single_attempt_median() {
    // ISSUE acceptance: an 8-arm embedding portfolio yields a max chain
    // length no worse than the median of single attempts over the same
    // seeds (the §6.1 "369 ± 26" spread, harvested instead of suffered).
    let (edges, num_vars) = australia_edges();
    let chimera = Chimera::dwave_2000q();
    let hardware = chimera.graph();
    let base = EmbedOptions {
        seed: 4242,
        ..Default::default()
    };

    let attempts = 8usize;
    let mut single_chain_lengths: Vec<usize> = (0..attempts as u64)
        .map(|arm| {
            let options = EmbedOptions {
                seed: base
                    .seed
                    .wrapping_add(arm.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                ..base.clone()
            };
            find_embedding_with_stats(&edges, num_vars, &hardware, &options)
                .expect("single attempt embeds")
                .0
                .max_chain_length()
        })
        .collect();
    single_chain_lengths.sort_unstable();
    let median = single_chain_lengths[attempts / 2];

    let (best, stats) = find_embedding_portfolio(&edges, num_vars, &hardware, &base, attempts)
        .expect("portfolio embeds");
    assert!(
        best.max_chain_length() <= median,
        "portfolio chain {} vs single-attempt median {median}",
        best.max_chain_length()
    );
    assert!(
        stats.restarts >= attempts,
        "every arm contributes at least one try"
    );
}
