//! Routing-work counters of one hardware-model run.
//!
//! Lives in its own test binary because it enables and reads the
//! process-wide telemetry recorder: no other test in this process may
//! add to the counters it checks.

use qac_pbf::Ising;
use qac_solvers::{DWaveSim, DWaveSimOptions, TopologySpec};

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
    let result = sim.run(&model, 4).expect("a ring embeds on a C3");
    telemetry.disable();
    let metrics = telemetry.metrics();

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
