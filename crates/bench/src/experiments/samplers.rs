//! Sampler throughput and quality of the two packed-lane samplers.
//!
//! Runs every §6 baseline workload through bit-parallel SA (the sampler
//! behind `SolverChoice::Sa`) and population annealing at an equal sweep
//! budget and tabulates reads/sec, best energy, and ground fraction.

use std::time::Instant;

use qac_solvers::{BitParallelSa, PopulationAnnealing, Sampler};

use crate::{compile_workload, AUSTRALIA, CIRCSAT, FIGURE2};

/// Reads per measurement — a multiple of 64 so the packed samplers run
/// with every lane active.
const READS: usize = 256;

/// Sweeps per read for every sampler (equal budget).
const SWEEPS: usize = 256;

/// The `samplers` experiment: per-workload sampler throughput table.
pub fn run_samplers() {
    println!("== sampler throughput: packed-lane samplers ==");
    println!("({READS} reads, {SWEEPS} sweeps each)\n");
    let samplers: [(&str, Box<dyn Sampler>); 2] = [
        ("bp", Box::new(BitParallelSa::new(7).with_sweeps(SWEEPS))),
        (
            "pa",
            Box::new(PopulationAnnealing::new(7).with_sweeps(SWEEPS)),
        ),
    ];

    for (name, source, top) in [
        ("figure2", FIGURE2, "circuit"),
        ("circsat", CIRCSAT, "circsat"),
        ("australia", AUSTRALIA, "australia"),
    ] {
        let model = compile_workload(source, top).assembled.ising.clone();
        println!(
            "-- {name}: {} vars, {} couplers --",
            model.num_vars(),
            model.num_couplings()
        );
        println!(
            "{:<8} {:>12} {:>12} {:>9}",
            "sampler", "reads/sec", "best E", "ground%"
        );
        for (id, sampler) in &samplers {
            let start = Instant::now();
            let set = sampler.sample(&model, READS);
            let rps = READS as f64 / start.elapsed().as_secs_f64().max(1e-9);
            let best = set.best().expect("every run produces samples");
            println!(
                "{:<8} {:>12.0} {:>12.3} {:>8.1}%",
                id,
                rps,
                best.energy,
                set.ground_fraction(1e-6) * 100.0
            );
        }
        println!();
    }
}
