//! Tabu search — the core local-search move of D-Wave's classical
//! `qbsolv` tool (paper §3, §4.3, Appendix A).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qac_pbf::{CsrAdjacency, Ising, Spin};

use crate::{SampleSet, Sampler};

/// Single-flip tabu search: always take the best non-tabu flip (or a tabu
/// one that improves on the incumbent — aspiration), remembering recent
/// flips for `tenure` steps.
#[derive(Debug, Clone)]
pub struct TabuSearch {
    seed: u64,
    /// Steps a flipped variable stays tabu. `None` = n/4 + 1.
    tenure: Option<usize>,
    /// Total flips per restart. `None` = 50·n.
    steps: Option<usize>,
}

impl TabuSearch {
    /// A tabu sampler with default tenure and step budget.
    pub fn new(seed: u64) -> TabuSearch {
        TabuSearch {
            seed,
            tenure: None,
            steps: None,
        }
    }

    /// Sets the tabu tenure.
    ///
    /// Clamped to at least 1: a tenure of 0 would let the search flip the
    /// same variable back immediately and cycle, so 0 silently behaves
    /// as 1.
    pub fn with_tenure(mut self, tenure: usize) -> TabuSearch {
        self.tenure = Some(tenure.max(1));
        self
    }

    /// Sets the per-restart step budget.
    ///
    /// Clamped to at least 1 so a restart always evaluates at least one
    /// move; 0 silently behaves as 1.
    pub fn with_steps(mut self, steps: usize) -> TabuSearch {
        self.steps = Some(steps.max(1));
        self
    }

    /// One tabu restart from a random start; returns the best assignment
    /// visited.
    fn run_once(&self, model: &Ising, adj: &CsrAdjacency, seed: u64) -> Vec<Spin> {
        let n = model.num_vars();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut spins: Vec<Spin> = (0..n).map(|_| Spin::from(rng.gen::<bool>())).collect();
        if n == 0 {
            return spins;
        }
        let tenure = self.tenure.unwrap_or(n / 4 + 1);
        let steps = self.steps.unwrap_or(50 * n);
        let mut energy = model.energy(&spins);
        let mut best_energy = energy;
        let mut best = spins.clone();
        // tabu_until[i] = step index until which flipping i is forbidden.
        let mut tabu_until = vec![0usize; n];
        for step in 0..steps {
            // Pick the best admissible flip.
            let mut chosen: Option<(usize, f64)> = None;
            for (i, &until) in tabu_until.iter().enumerate() {
                let delta = model.flip_delta_csr(&spins, i, adj.neighbors(i));
                let is_tabu = until > step;
                // Aspiration: tabu moves are allowed if they beat the best.
                if is_tabu && energy + delta >= best_energy - 1e-12 {
                    continue;
                }
                match chosen {
                    None => chosen = Some((i, delta)),
                    Some((_, bd)) if delta < bd => chosen = Some((i, delta)),
                    _ => {}
                }
            }
            let Some((flip, delta)) = chosen else {
                break; // everything tabu and nothing aspirational
            };
            spins[flip] = spins[flip].flipped();
            energy += delta;
            tabu_until[flip] = step + tenure;
            if energy < best_energy - 1e-12 {
                best_energy = energy;
                best = spins.clone();
            }
        }
        best
    }
}

impl Sampler for TabuSearch {
    fn sample(&self, model: &Ising, num_reads: usize) -> SampleSet {
        let adj = model.csr_adjacency();
        let reads: Vec<Vec<Spin>> = (0..num_reads)
            .map(|r| self.run_once(model, &adj, self.seed.wrapping_add(r as u64)))
            .collect();
        SampleSet::from_reads(model, reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactSolver;

    #[test]
    fn matches_exact_on_random_models() {
        let mut rng = StdRng::seed_from_u64(21);
        for case in 0..5 {
            let n = 12;
            let mut m = Ising::new(n);
            for i in 0..n {
                m.add_h(i, rng.gen_range(-1.0..1.0));
                for j in (i + 1)..n {
                    if rng.gen::<f64>() < 0.3 {
                        m.add_j(i, j, rng.gen_range(-1.0..1.0));
                    }
                }
            }
            let exact = ExactSolver::new().minimum_energy(&m);
            let best = TabuSearch::new(9).sample(&m, 8).best().unwrap().energy;
            assert!(
                (best - exact).abs() < 1e-9,
                "case {case}: {best} vs {exact}"
            );
        }
    }

    #[test]
    fn escapes_local_minima() {
        // A double-well: chain with competing fields; plain descent from
        // the wrong well stalls, tabu must cross.
        let mut m = Ising::new(4);
        m.add_h(0, 0.9);
        m.add_j(0, 1, -1.0);
        m.add_j(1, 2, -1.0);
        m.add_j(2, 3, -1.0);
        let exact = ExactSolver::new().minimum_energy(&m);
        let best = TabuSearch::new(3).sample(&m, 4).best().unwrap().energy;
        assert!((best - exact).abs() < 1e-9);
    }

    #[test]
    fn deterministic() {
        let mut m = Ising::new(6);
        m.add_j(0, 5, 1.0);
        m.add_h(2, -0.4);
        let t = TabuSearch::new(5);
        assert_eq!(t.sample(&m, 5), t.sample(&m, 5));
    }
}
