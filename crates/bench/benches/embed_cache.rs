//! Embedding-cache benchmark: a warm lookup vs recomputing the CMR
//! search on the compiled map-coloring model.

use criterion::{criterion_group, criterion_main, Criterion};
use qac_bench::{compile_workload, AUSTRALIA};
use qac_chimera::{
    find_embedding_with_stats, topology_embedding_key, Chimera, EmbedOptions, EmbeddingCache,
};
use qac_pbf::scale::{scale_to_range, CoefficientRange};

fn bench_embed_cache(c: &mut Criterion) {
    let compiled = compile_workload(AUSTRALIA, "australia");
    let scaled = scale_to_range(&compiled.assembled.ising, CoefficientRange::DWAVE_2000Q);
    let edges: Vec<(usize, usize)> = scaled.model.j_iter().map(|t| (t.i, t.j)).collect();
    let num_vars = scaled.model.num_vars();
    let chimera = Chimera::dwave_2000q();
    let hardware = chimera.graph();
    let options = EmbedOptions::default();

    c.bench_function("embed_australia_cold", |b| {
        b.iter(|| {
            std::hint::black_box(
                find_embedding_with_stats(&edges, num_vars, &hardware, &options).expect("embeds"),
            )
        })
    });

    let cache = EmbeddingCache::new();
    cache
        .get_or_embed(&chimera, &edges, num_vars, &options, &hardware, || {
            find_embedding_with_stats(&edges, num_vars, &hardware, &options)
        })
        .expect("embeds");
    c.bench_function("embed_australia_warm_cache", |b| {
        b.iter(|| {
            std::hint::black_box(
                cache
                    .get_or_embed(&chimera, &edges, num_vars, &options, &hardware, || {
                        unreachable!("warm lookup must hit")
                    })
                    .expect("hits"),
            )
        })
    });

    c.bench_function("topology_embedding_key_australia", |b| {
        b.iter(|| {
            std::hint::black_box(topology_embedding_key(
                &chimera, &edges, num_vars, &options, &hardware,
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_embed_cache
}
criterion_main!(benches);
