use std::collections::BTreeSet;
use std::sync::OnceLock;

use crate::cache::Fnv;

/// An undirected hardware connectivity graph with optional inactive
/// ("dropped-out") nodes — real annealers always lose a few qubits to
/// calibration (§2: "there is inevitably some drop-out").
#[derive(Debug, Clone)]
pub struct HardwareGraph {
    adj: Vec<Vec<usize>>,
    edges: BTreeSet<(usize, usize)>,
    active: Vec<bool>,
    /// [`HardwareGraph::fingerprint`], computed on first use and reset by
    /// every mutation.
    fingerprint: OnceLock<u64>,
}

impl PartialEq for HardwareGraph {
    fn eq(&self, other: &HardwareGraph) -> bool {
        self.adj == other.adj && self.edges == other.edges && self.active == other.active
    }
}

impl Eq for HardwareGraph {}

impl HardwareGraph {
    /// Creates a graph with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: usize) -> HardwareGraph {
        HardwareGraph {
            adj: vec![Vec::new(); num_nodes],
            edges: BTreeSet::new(),
            active: vec![true; num_nodes],
            fingerprint: OnceLock::new(),
        }
    }

    /// Canonical FNV-1a hash of the graph: node count, inactive nodes and
    /// couplers. Equal graphs hash equally across runs and platforms; it
    /// is the hardware part of every embedding-cache key. Hashing walks
    /// every coupler, so the value is kept with the graph and computed at
    /// most once between mutations.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = Fnv::new();
            h.write_usize(self.num_nodes());
            for node in (0..self.num_nodes()).filter(|&n| !self.active[n]) {
                h.write_usize(node);
            }
            h.write_usize(self.num_edges());
            for (a, b) in self.edges() {
                h.write_usize(a);
                h.write_usize(b);
            }
            h.finish()
        })
    }

    /// Number of nodes (including inactive ones).
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of active nodes.
    pub fn num_active(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Adds an undirected edge.
    ///
    /// # Panics
    /// Panics on out-of-range nodes or self-loops.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert!(a != b, "no self-loops");
        assert!(a < self.adj.len() && b < self.adj.len(), "node in range");
        let key = (a.min(b), a.max(b));
        if self.edges.insert(key) {
            self.fingerprint.take();
            self.adj[a].push(b);
            self.adj[b].push(a);
        }
    }

    /// Whether nodes `a` and `b` are directly coupled.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.edges.contains(&(a.min(b), a.max(b)))
    }

    /// The neighbors of `node` (including inactive ones; callers filter).
    pub fn neighbors(&self, node: usize) -> &[usize] {
        &self.adj[node]
    }

    /// All edges as ordered pairs.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().copied()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Marks a node inactive (unusable by embeddings).
    pub fn deactivate(&mut self, node: usize) {
        self.fingerprint.take();
        self.active[node] = false;
    }

    /// Whether a node is active.
    pub fn is_active(&self, node: usize) -> bool {
        self.active[node]
    }

    /// Flattens the adjacency into a [`CsrNeighbors`] view. Per-node
    /// neighbor order is preserved exactly (insertion order), so
    /// algorithms that are sensitive to iteration order — the embedding
    /// router's heap tie-breaking, for one — behave identically on
    /// either representation.
    ///
    /// # Panics
    /// Panics if the graph has `u32::MAX` or more nodes (Chimera
    /// hardware tops out around 10⁴ qubits).
    pub fn csr(&self) -> CsrNeighbors {
        assert!(
            self.adj.len() < u32::MAX as usize,
            "hardware graph too large for a u32 CSR"
        );
        let mut offsets = Vec::with_capacity(self.adj.len() + 1);
        let mut total = 0u32;
        offsets.push(0);
        for row in &self.adj {
            total += row.len() as u32;
            offsets.push(total);
        }
        let mut targets = Vec::with_capacity(total as usize);
        for row in &self.adj {
            targets.extend(row.iter().map(|&t| t as u32));
        }
        CsrNeighbors { offsets, targets }
    }

    /// Whether the active subgraph induced by `nodes` is connected.
    pub fn is_connected_subset(&self, nodes: &[usize]) -> bool {
        if nodes.is_empty() {
            return false;
        }
        let set: BTreeSet<usize> = nodes.iter().copied().collect();
        let mut seen = BTreeSet::new();
        let mut stack = vec![nodes[0]];
        seen.insert(nodes[0]);
        while let Some(v) = stack.pop() {
            for &u in self.neighbors(v) {
                if set.contains(&u) && seen.insert(u) {
                    stack.push(u);
                }
            }
        }
        seen.len() == set.len()
    }
}

/// A compressed-sparse-row copy of a [`HardwareGraph`]'s adjacency:
/// one flat `u32` neighbor array plus per-node offsets. Built once by
/// [`HardwareGraph::csr`] and then read lock-free and allocation-free —
/// the representation the embedding router's inner loop runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrNeighbors {
    /// `offsets[n]..offsets[n + 1]` bounds node n's slice of `targets`.
    offsets: Vec<u32>,
    /// All neighbor lists, concatenated in node order.
    targets: Vec<u32>,
}

impl CsrNeighbors {
    /// Assembles a CSR view from raw offset/target arrays (crate-internal;
    /// the embedding router builds a variant with inactive targets
    /// pruned).
    pub(crate) fn from_parts(offsets: Vec<u32>, targets: Vec<u32>) -> CsrNeighbors {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, targets.len());
        CsrNeighbors { offsets, targets }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The neighbors of `node`, in the same order
    /// [`HardwareGraph::neighbors`] reports them.
    #[inline]
    pub fn neighbors(&self, node: usize) -> &[u32] {
        &self.targets[self.offsets[node] as usize..self.offsets[node + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_deduplicate() {
        let mut g = HardwareGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn connectivity_check() {
        let mut g = HardwareGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(g.is_connected_subset(&[0, 1, 2]));
        assert!(!g.is_connected_subset(&[0, 2]));
        assert!(!g.is_connected_subset(&[0, 3]));
        assert!(g.is_connected_subset(&[3]));
        assert!(!g.is_connected_subset(&[]));
    }

    #[test]
    fn csr_matches_vec_adjacency_in_order() {
        let mut g = HardwareGraph::new(5);
        g.add_edge(0, 3);
        g.add_edge(0, 1);
        g.add_edge(3, 1);
        g.add_edge(2, 4);
        let csr = g.csr();
        assert_eq!(csr.num_nodes(), g.num_nodes());
        for node in 0..g.num_nodes() {
            let flat: Vec<usize> = csr.neighbors(node).iter().map(|&t| t as usize).collect();
            assert_eq!(flat, g.neighbors(node), "node {node} order must match");
        }
    }

    #[test]
    fn fingerprint_follows_mutations_not_history() {
        let mut g = HardwareGraph::new(3);
        g.add_edge(0, 1);
        let before = g.fingerprint();
        g.add_edge(1, 2);
        let with_edge = g.fingerprint();
        assert_ne!(before, with_edge, "a new coupler changes the fingerprint");
        g.deactivate(2);
        assert_ne!(with_edge, g.fingerprint(), "drop-out changes it");
        // The same graph, drop-out applied first and never hashed before.
        let mut h = HardwareGraph::new(3);
        h.deactivate(2);
        h.add_edge(1, 0);
        h.add_edge(2, 1);
        assert_eq!(g, h);
        assert_eq!(g.fingerprint(), h.fingerprint());
        assert_eq!(g.clone().fingerprint(), g.fingerprint());
    }

    #[test]
    fn deactivation_tracked() {
        let mut g = HardwareGraph::new(2);
        assert_eq!(g.num_active(), 2);
        g.deactivate(1);
        assert_eq!(g.num_active(), 1);
        assert!(!g.is_active(1));
    }
}
