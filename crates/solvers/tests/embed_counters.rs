//! Routing-work counters, anneal-work counters and read histograms of
//! one hardware-model run.
//!
//! Lives in its own test binary because it enables and reads the
//! process-wide telemetry recorder: no other test in this process may
//! add to the counters it checks.

use qac_pbf::Ising;
use qac_solvers::{DWaveSim, DWaveSimOptions, Topology, TopologySpec};

#[test]
fn one_run_counts_its_routing_work_once() {
    let telemetry = qac_telemetry::global();
    telemetry.clear();
    telemetry.enable();
    // A frustrated ring of five: an odd cycle has no Chimera subgraph
    // embedding, so the router has to build a chain.
    let mut model = Ising::new(5);
    for i in 0..5 {
        model.add_j(i, (i + 1) % 5, 1.0);
    }
    let sim = DWaveSim::new(DWaveSimOptions {
        topology: TopologySpec::Chimera { m: 3 },
        anneal_sweeps: 16,
        ..Default::default()
    });
    let reads = 20;
    let result = sim.run(&model, reads).expect("a ring embeds on a C3");
    telemetry.disable();
    let metrics = telemetry.metrics();

    // The anneal visits only the qubits the chains use: reads × 16
    // sweeps × physical qubits, not × every qubit of the fabric.
    let spin_updates = metrics.counter("qac_sampler_spin_updates_total{sampler=\"dwave\"}");
    assert_eq!(spin_updates, (reads * 16 * result.physical_qubits) as u64);
    let fabric = TopologySpec::Chimera { m: 3 }.graph().num_nodes();
    assert!(
        result.physical_qubits < fabric,
        "the ring leaves idle qubits"
    );
    let flips = metrics.counter("qac_sampler_flips_total{sampler=\"dwave\"}");
    assert!(flips > 0, "a random start on a frustrated ring flips spins");

    // The read histograms count every read; the quantile sketch gets one
    // point per distinct decoded sample.
    for name in ["qac_read_energy", "qac_read_chain_break_fraction"] {
        let histogram = metrics.histogram(name).expect("the run observed reads");
        assert_eq!(histogram.count(), reads as u64, "{name}");
    }
    let distinct = result.logical.len();
    assert!(
        distinct < reads,
        "20 reads of a 5-spin ring repeat a sample"
    );
    let sketch = metrics
        .sketch("qac_read_energy_quantiles")
        .expect("sketched");
    assert_eq!(sketch.count(), distinct as u64);

    let stats = result.embed_stats;
    assert!(stats.heap_pops > 0, "the router did no work: {stats:?}");
    for (name, value) in [
        ("qac_route_iterations_total", stats.route_iterations as u64),
        ("qac_embed_restarts_total", stats.restarts as u64),
        ("qac_embed_heap_pops_total", stats.heap_pops),
        ("qac_embed_edge_relaxations_total", stats.edge_relaxations),
        ("qac_embed_weight_updates_total", stats.weight_updates),
    ] {
        assert_eq!(metrics.counter(name), value, "{name}");
        assert_eq!(
            metrics.counter(&format!("{name}{{topology=\"chimera\"}}")),
            value,
            "{name}{{topology=\"chimera\"}}"
        );
    }
}
