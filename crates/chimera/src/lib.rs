//! The D-Wave Chimera hardware topology and minor embedding.
//!
//! "The most severe hardware limitation in practice is that the on-chip
//! network lacks all-to-all connectivity" (paper §2). This crate models
//! that limitation and the compiler's answer to it:
//!
//! * [`Chimera`] — the Chimera graph `C_m`: an m×m mesh of 8-qubit
//!   bipartite unit cells (Figure 1), with optional qubit drop-out;
//! * [`Topology`] — the pluggable hardware-family trait [`Chimera`]
//!   implements, alongside [`Pegasus`], [`Zephyr`], and [`KingGraph`]
//!   (with [`TopologySpec`] as the value-level choice options carry);
//! * [`find_embedding_with_stats`] — a randomized minor-embedding
//!   heuristic in the style of Cai–Macready–Roy (the SAPI algorithm the
//!   paper uses, §4.4), mapping each logical variable to a connected
//!   *chain* of physical qubits, with the clique-template fallback
//!   ([`find_embedding_or_clique_with_stats`]), a seeded repair after an
//!   edit ([`find_embedding_incremental`]) and a best-of-N-seeds
//!   portfolio ([`find_embedding_portfolio`]) on top;
//! * [`EmbeddingCache`] — memoizes embeddings by
//!   [`topology_embedding_key`] in a bounded least-recently-used map
//!   ([`EmbeddingCache::shared`] is the process-wide one, freed with its
//!   last holder), with versioned disk snapshots;
//! * [`embed_ising`] / [`unembed`] — applying an embedding to a logical
//!   Ising model (distributing `h` over chains, placing `J` on physical
//!   couplers, adding ferromagnetic intra-chain couplings) and decoding
//!   physical samples back through majority vote.
//!
//! # Example
//!
//! ```
//! use qac_chimera::{find_embedding_with_stats, Chimera, EmbedOptions};
//!
//! // Embed a triangle (which needs a chain: Chimera has no odd cycles).
//! let hw = Chimera::new(2).graph();
//! let edges = [(0, 1), (1, 2), (0, 2)];
//! let (embedding, stats) =
//!     find_embedding_with_stats(&edges, 3, &hw, &EmbedOptions::default()).unwrap();
//! assert!(embedding.num_physical_qubits() >= 4); // ≥ one chain of 2
//! assert!(stats.heap_pops > 0); // the router's deterministic work counter
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apply;
mod cache;
mod chimera;
mod embed;
mod graph;
mod topology;
mod witness;

pub use apply::{
    choose_chain_strength, embed_ising, neighborhood_weights, unembed, ChainBreakStats,
    EmbeddedIsing,
};
pub use cache::{topology_embedding_key, CacheStats, EmbeddingCache, SnapshotError};
pub use chimera::Chimera;
pub use embed::{
    find_embedding_incremental, find_embedding_or_clique_with_stats, find_embedding_portfolio,
    find_embedding_with_stats, EmbedError, EmbedOptions, EmbedStats, Embedding,
};
pub use graph::{CsrNeighbors, HardwareGraph};
pub use witness::{chain_strength_bound, contraction_witness, ChainWitness};

pub use topology::{
    topology_parameter_hash, KingGraph, Pegasus, Topology, TopologySpec, Zephyr, ADVANTAGE_RANGE,
};
