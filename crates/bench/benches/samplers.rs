//! Sampler throughput on a fixed frustrated model, and the hardware
//! model on the compiled Figure 2 circuit.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use qac_bench::{compile_workload, FIGURE2};
use qac_chimera::EmbeddingCache;
use qac_pbf::Ising;
use qac_solvers::{
    BitParallelSa, DWaveSim, DWaveSimOptions, PopulationAnnealing, Sampler, TabuSearch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fixture(n: usize) -> Ising {
    let mut rng = StdRng::seed_from_u64(42);
    let mut m = Ising::new(n);
    for i in 0..n {
        m.add_h(i, rng.gen_range(-1.0..1.0));
        for j in (i + 1)..n {
            if rng.gen::<f64>() < 0.1 {
                m.add_j(i, j, rng.gen_range(-1.0..1.0));
            }
        }
    }
    m
}

fn bench_samplers(c: &mut Criterion) {
    let model = fixture(96);
    c.bench_function("bp_96vars_64reads", |b| {
        let sampler = BitParallelSa::new(1).with_sweeps(128);
        b.iter(|| std::hint::black_box(sampler.sample(&model, 64)))
    });
    c.bench_function("pa_96vars_64reads", |b| {
        let sampler = PopulationAnnealing::new(1).with_sweeps(128);
        b.iter(|| std::hint::black_box(sampler.sample(&model, 64)))
    });
    c.bench_function("tabu_96vars_10reads", |b| {
        let sampler = TabuSearch::new(1);
        b.iter(|| std::hint::black_box(sampler.sample(&model, 10)))
    });
    // The default C16 hardware model. The embedding cache is warmed
    // once, outside the timed loop, so this times distortion, the
    // chain-block anneal and the decode, not routing.
    let figure2 = compile_workload(FIGURE2, "circuit").assembled.ising;
    let sim = DWaveSim::new(DWaveSimOptions {
        embedding_cache: Some(Arc::new(EmbeddingCache::new())),
        ..Default::default()
    });
    sim.run(&figure2, 1).expect("figure2 embeds on a C16");
    c.bench_function("dwave_sim_figure2_c16_100_reads", |b| {
        b.iter(|| std::hint::black_box(sim.run(&figure2, 100)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_samplers
}
criterion_main!(benches);
