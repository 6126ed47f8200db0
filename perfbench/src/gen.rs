//! Seeded inputs: a small deterministic generator and the Verilog
//! programs the workloads compile.
//!
//! Every input of a run is a function of the run's `--seed` alone, so two
//! runs at one seed compile and sample exactly the same programs.

use std::fmt::Write;

/// SplitMix64: tiny, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Paper Figure 2(a): mux-selected add/subtract.
pub const FIGURE2: &str = r#"
module circuit (s, a, b, c);
  input s, a, b;
  output [1:0] c;
  assign c = s ? a+b : a-b;
endmodule
"#;

/// Paper Listing 5: the CLRS circuit-satisfiability verifier.
pub const CIRCSAT: &str = r#"
module circsat (a, b, c, y);
  input a, b, c;
  output y;
  wire [1:10] x;
  assign x[1] = a;
  assign x[2] = b;
  assign x[3] = c;
  assign x[4] = ~x[3];
  assign x[5] = x[1] | x[2];
  assign x[6] = ~x[4];
  assign x[7] = x[1] & x[2] & x[4];
  assign x[8] = x[5] | x[6];
  assign x[9] = x[6] | x[7];
  assign x[10] = x[8] & x[9] & x[7];
  assign y = x[10];
endmodule
"#;

/// A map: regions `R0..Rn` and the pairs that share a border, in the
/// order the verifier lists them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Map {
    /// Number of regions.
    pub regions: usize,
    /// Bordering pairs `(a, b)`, written `Ra != Rb`.
    pub borders: Vec<(usize, usize)>,
}

impl Map {
    /// A random connected map of `regions` regions and `borders`
    /// borders: a random spanning tree (each new region borders a random
    /// earlier one) plus random extra borders. Border order and
    /// orientation are shuffled too, so equal graphs rarely share text.
    pub fn random(regions: usize, borders: usize, rng: &mut Rng) -> Map {
        let all_pairs = regions * regions.saturating_sub(1) / 2;
        assert!(
            regions >= 2 && (regions - 1..=all_pairs).contains(&borders),
            "no connected map of {regions} regions has {borders} borders"
        );
        let mut pairs: Vec<(usize, usize)> = (1..regions).map(|r| (rng.below(r), r)).collect();
        let mut free: Vec<(usize, usize)> = (0..regions)
            .flat_map(|a| (a + 1..regions).map(move |b| (a, b)))
            .filter(|pair| !pairs.contains(pair))
            .collect();
        rng.shuffle(&mut free);
        pairs.extend(free.into_iter().take(borders + 1 - regions));
        let mut label: Vec<usize> = (0..regions).collect();
        rng.shuffle(&mut label);
        rng.shuffle(&mut pairs);
        let borders = pairs
            .into_iter()
            .map(|(a, b)| {
                if rng.below(2) == 1 {
                    (label[b], label[a])
                } else {
                    (label[a], label[b])
                }
            })
            .collect();
        Map { regions, borders }
    }

    /// A random ring map: `regions` regions in a ring, plus one chord
    /// between two regions that do not border yet, under a random
    /// labelling. Every such map has the same cycle structure up to the
    /// chord's position, so maps differ in labels far more than in
    /// difficulty.
    pub fn ring(regions: usize, rng: &mut Rng) -> Map {
        assert!(regions >= 4, "a ring of {regions} regions has no chord");
        let mut label: Vec<usize> = (0..regions).collect();
        rng.shuffle(&mut label);
        let mut borders: Vec<(usize, usize)> = (0..regions)
            .map(|i| (label[i], label[(i + 1) % regions]))
            .collect();
        let from = rng.below(regions);
        let to = (from + 2 + rng.below(regions - 3)) % regions;
        borders.push((label[from], label[to]));
        rng.shuffle(&mut borders);
        for border in &mut borders {
            if rng.below(2) == 1 {
                *border = (border.1, border.0);
            }
        }
        Map { regions, borders }
    }

    /// The Listing-7-style verifier: `valid` is true iff bordering
    /// regions differ. One border per line, so a one-line edit changes
    /// exactly one border.
    pub fn verilog(&self, top: &str) -> String {
        let names: Vec<String> = (0..self.regions).map(|r| format!("R{r}")).collect();
        let mut src = format!(
            "module {top} ({}, valid);\n  input [1:0] {};\n  output valid;\n  assign valid =",
            names.join(", "),
            names.join(", ")
        );
        for (i, &(a, b)) in self.borders.iter().enumerate() {
            let op = if i == 0 { "  " } else { "&&" };
            write!(src, "\n    {op} R{a} != R{b}").expect("writing to a String");
        }
        src.push_str(";\nendmodule\n");
        src
    }

    /// The border graph: sorted pairs, independent of how the verifier
    /// orders and orients them.
    pub fn graph(&self) -> Vec<(usize, usize)> {
        let mut pairs: Vec<(usize, usize)> = self
            .borders
            .iter()
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    /// The same map with border `index` moved to a pair that does not
    /// border yet (the one-line edit of the compile workload).
    pub fn with_border_moved(&self, index: usize, rng: &mut Rng) -> Map {
        let graph = self.graph();
        let free: Vec<(usize, usize)> = (0..self.regions)
            .flat_map(|a| (a + 1..self.regions).map(move |b| (a, b)))
            .filter(|pair| graph.binary_search(pair).is_err())
            .collect();
        let mut edited = self.clone();
        if !free.is_empty() {
            edited.borders[index] = free[rng.below(free.len())];
        }
        edited
    }
}

/// An `n`×`n` multiplier (Listing 6 widened); `flip`, when set, XORs a
/// constant into one product bit (the compile workload's one-line edit).
pub fn multiplier(n: usize, flip: Option<usize>) -> String {
    let product = match flip {
        Some(bit) => format!("(A * B) ^ {}'d{}", 2 * n, 1u64 << bit),
        None => "A * B".to_string(),
    };
    format!(
        "module mult (A, B, C);\n  input [{h}:0] A;\n  input [{h}:0] B;\n  output [{p}:0] C;\n  assign C = {product};\nendmodule\n",
        h = n - 1,
        p = 2 * n - 1
    )
}

/// Paper Listing 3 (the 6-bit resettable counter) counting by `step`;
/// the compile workload unrolls it and edits the step.
pub fn counter(step: u64) -> String {
    format!(
        r#"module count (clk, inc, reset, out);
  input clk;
  input inc;
  input reset;
  output [5:0] out;
  reg [5:0] var;
  always @(posedge clk)
    if (reset)
      var <= 0;
    else
      if (inc)
        var <= var + {step};
  assign out = var;
endmodule
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_are_connected_with_the_asked_border_count() {
        let mut rng = Rng::new(7, 0);
        for regions in 2..12 {
            for borders in [regions - 1, regions + 1, 2 * regions - 3] {
                if borders < regions - 1 || borders > regions * (regions - 1) / 2 {
                    continue;
                }
                let map = Map::random(regions, borders, &mut rng);
                assert_eq!(map.borders.len(), borders);
                let mut reached = vec![false; regions];
                reached[0] = true;
                for _ in 0..regions {
                    for &(a, b) in &map.borders {
                        if reached[a] || reached[b] {
                            reached[a] = true;
                            reached[b] = true;
                        }
                    }
                }
                assert!(reached.iter().all(|&r| r), "{map:?}");
                let mut pairs = map.graph();
                pairs.dedup();
                assert_eq!(pairs.len(), borders, "{map:?}");
            }
        }
    }

    #[test]
    fn ring_maps_have_a_ring_and_one_chord() {
        let mut rng = Rng::new(5, 2);
        for regions in 4..9 {
            let map = Map::ring(regions, &mut rng);
            let mut graph = map.graph();
            graph.dedup();
            assert_eq!(graph.len(), regions + 1, "{map:?}");
            let mut degree = vec![0; regions];
            for (a, b) in graph {
                degree[a] += 1;
                degree[b] += 1;
            }
            degree.sort_unstable();
            assert_eq!(degree[..regions - 2], vec![2; regions - 2][..], "{map:?}");
            assert_eq!(degree[regions - 2..], [3, 3], "{map:?}");
        }
    }

    #[test]
    fn a_moved_border_changes_one_line() {
        let mut rng = Rng::new(3, 1);
        let map = Map::random(8, 13, &mut rng);
        let edited = map.with_border_moved(2, &mut rng);
        let (old, new) = (map.verilog("m"), edited.verilog("m"));
        let differing = old.lines().zip(new.lines()).filter(|(a, b)| a != b).count();
        assert_eq!(differing, 1);
        assert_eq!(old.lines().count(), new.lines().count());
    }
}
