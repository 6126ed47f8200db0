//! Golden-chain fixture generation for the embedding router.
//!
//! `tests/golden/router_chains.txt` (Chimera, captured before the
//! CSR/scratch rewrite) is frozen history and is never regenerated.
//! `tests/golden/router_chains_topology.txt` pins the router on the
//! *other* fabrics — Pegasus and the king's graph — and is produced by
//! [`topology_golden_fixture`], which the `golden_gen` binary writes to
//! disk and the `golden_router` test replays byte-for-byte.

use qac_chimera::{find_embedding_with_stats, EmbedOptions, KingGraph, Pegasus, Topology};
use qac_pbf::scale::{scale_to_range, CoefficientRange};

use crate::{compile_workload, handcoded_australia_unary, FIGURE2};

/// One golden workload: `(name, interaction edges, logical variable count)`.
pub type GoldenWorkload = (&'static str, Vec<(usize, usize)>, usize);

/// The workload set the topology goldens cover: the Figure 2 circuit and
/// the §6.1 hand-coded unary map coloring. (The *compiled* map-coloring
/// netlist has degree-15 variables and does not route on a degree-8
/// king lattice, so the hand-coded §6 variant stands in for it here.)
pub fn golden_workloads() -> Vec<GoldenWorkload> {
    let compiled = compile_workload(FIGURE2, "circuit");
    let scaled = scale_to_range(&compiled.assembled.ising, CoefficientRange::DWAVE_2000Q);
    let figure2 = scaled.model.j_iter().map(|t| (t.i, t.j)).collect();
    let unary = handcoded_australia_unary();
    let australia = unary.j_iter().map(|t| (t.i, t.j)).collect();
    vec![
        ("figure2", figure2, scaled.model.num_vars()),
        ("australia-unary", australia, unary.num_vars()),
    ]
}

/// The topology set the goldens cover, as `(token, topology)` pairs.
pub fn golden_topologies() -> Vec<(&'static str, Box<dyn Topology>)> {
    vec![
        ("pegasus6", Box::new(Pegasus::new(6))),
        ("king48", Box::new(KingGraph::new(48))),
    ]
}

/// Renders the topology golden fixture: every golden workload routed on
/// every golden topology with seeds 11 and 12, default options
/// otherwise. Chains print in variable order, one `var: qubits...` line
/// each, under a `workload NAME topology TOKEN seed N` header. Every
/// embedding is validated before it is rendered, so a fixture can never
/// pin an invalid routing.
pub fn topology_golden_fixture() -> String {
    let mut out = String::new();
    for (workload, edges, num_vars) in golden_workloads() {
        for (token, topology) in golden_topologies() {
            let hardware = topology.graph();
            for seed in [11u64, 12] {
                let (embedding, _) = find_embedding_with_stats(
                    &edges,
                    num_vars,
                    &hardware,
                    &EmbedOptions {
                        seed,
                        ..EmbedOptions::default()
                    },
                )
                .unwrap_or_else(|e| panic!("{workload} on {token} seed {seed}: {e}"));
                assert!(
                    embedding.validate(&edges, &hardware),
                    "{workload} on {token} seed {seed}: invalid embedding"
                );
                out.push_str(&format!(
                    "workload {workload} topology {token} seed {seed}\n"
                ));
                for (var, chain) in embedding.chains().iter().enumerate() {
                    out.push_str(&format!("{var}:"));
                    for q in chain {
                        out.push_str(&format!(" {q}"));
                    }
                    out.push('\n');
                }
                out.push('\n');
            }
        }
    }
    out
}
