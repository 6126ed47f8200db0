//! Sampler throughput on a fixed frustrated model.

use criterion::{criterion_group, criterion_main, Criterion};
use qac_pbf::Ising;
use qac_solvers::{BitParallelSa, PopulationAnnealing, Sampler, TabuSearch};
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
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_samplers
}
criterion_main!(benches);
