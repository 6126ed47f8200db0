//! A software model of running on a quantum annealer (a D-Wave 2000Q by
//! default; any [`TopologySpec`] fabric on request).
//!
//! The paper's experiments execute on real hardware; this simulator
//! substitutes for it while exercising the same pipeline stages and
//! artifacts (DESIGN.md, substitution table):
//!
//! 1. scale coefficients into the topology's range (`h ∈ [−2,2]`,
//!    `J ∈ [−2,1]` on a 2000Q, §2);
//! 2. minor-embed onto the hardware graph with qubit drop-out (§4.4);
//! 3. quantize coefficients to a few bits and add analog Gaussian noise
//!    (the machine "is analog rather than digital … limited precision");
//! 4. draw stochastic samples over the embedded qubits (simulated
//!    annealing stands in for the physical anneal);
//! 5. decode through majority vote, counting chain breaks;
//! 6. account wall-clock time with a programming/anneal/readout model so
//!    §6.2-style per-solution costs can be reported.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qac_chimera::{
    embed_ising, find_embedding_or_clique_with_stats, unembed, EmbedError, EmbedOptions,
    EmbedStats, Embedding, EmbeddingCache, Topology, TopologySpec,
};
use qac_pbf::scale::{quantize, scale_to_range};
use qac_pbf::{CsrAdjacency, Ising, Spin};
use qac_telemetry::StageTrace;

use crate::{Sample, SampleSet, Sampler};

/// The time budget of one D-Wave job (microseconds).
///
/// Defaults follow public D-Wave 2000Q timing data: ~10 ms programming,
/// user-set anneal time (the paper uses 20 µs), ~123 µs readout and
/// ~21 µs inter-sample delay per read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// One-time problem programming cost.
    pub programming_us: f64,
    /// Annealing time per read (1–2000 µs on the 2000Q, §2).
    pub anneal_us: f64,
    /// Readout time per read.
    pub readout_us: f64,
    /// Thermalization/delay per read.
    pub delay_us: f64,
}

impl Default for TimingModel {
    fn default() -> TimingModel {
        TimingModel {
            programming_us: 10_000.0,
            anneal_us: 20.0,
            readout_us: 123.0,
            delay_us: 21.0,
        }
    }
}

impl TimingModel {
    /// Total wall-clock for a job of `num_reads` anneals.
    pub fn total_us(&self, num_reads: usize) -> f64 {
        self.programming_us + num_reads as f64 * (self.anneal_us + self.readout_us + self.delay_us)
    }
}

/// Options for the hardware model.
#[derive(Debug, Clone)]
pub struct DWaveSimOptions {
    /// The hardware topology to model (default: the paper's 2000Q,
    /// a Chimera C16). Also selects the coefficient range and the
    /// chain-strength clamp via [`Topology`].
    pub topology: TopologySpec,
    /// Fraction of qubits lost to fabrication (deterministic per seed).
    pub dropout: f64,
    /// Base RNG seed (noise, annealing).
    pub seed: u64,
    /// Chain coupling strength; `None` = 2 × max |J| of the scaled model,
    /// clamped to the hardware J range.
    pub chain_strength: Option<f64>,
    /// Effective DAC precision in bits (0 disables quantization).
    pub precision_bits: u32,
    /// Std-dev of Gaussian coefficient noise, as a fraction of the
    /// coefficient range (0 disables).
    pub noise_sigma: f64,
    /// Sweeps of the stand-in annealer per read (more sweeps ≈ longer
    /// anneal time).
    pub anneal_sweeps: usize,
    /// Embedding heuristic options.
    pub embed: EmbedOptions,
    /// Shared embedding cache. When set, a repeated (problem, options,
    /// hardware) combination reuses the stored embedding and does zero
    /// routing work.
    pub embedding_cache: Option<Arc<EmbeddingCache>>,
    /// The timing model used for cost accounting.
    pub timing: TimingModel,
}

impl Default for DWaveSimOptions {
    fn default() -> DWaveSimOptions {
        DWaveSimOptions {
            topology: TopologySpec::default(),
            dropout: 0.0,
            seed: 0xd_3caf,
            chain_strength: None,
            precision_bits: 5,
            noise_sigma: 0.01,
            anneal_sweeps: 64,
            embed: EmbedOptions::default(),
            embedding_cache: None,
            timing: TimingModel::default(),
        }
    }
}

impl DWaveSimOptions {
    /// The topology this configuration models
    /// ([`DWaveSimOptions::topology`]).
    pub fn topology_spec(&self) -> TopologySpec {
        self.topology
    }
}

/// The result of one simulated hardware job.
#[derive(Debug, Clone)]
pub struct DWaveSimResult {
    /// Decoded logical samples with *logical* energies.
    pub logical: SampleSet,
    /// Mean chain-break fraction across reads.
    pub mean_chain_breaks: f64,
    /// The embedding that was used.
    pub embedding: Embedding,
    /// Physical qubits consumed (the §6.1 metric).
    pub physical_qubits: usize,
    /// Terms in the physical Hamiltonian (the §6.1 metric).
    pub physical_terms: usize,
    /// The positive factor applied to fit the coefficient ranges.
    pub scale: f64,
    /// Estimated wall-clock of the job.
    pub estimated_time_us: f64,
    /// Routing-work counters of the embedding step (all zero with
    /// `cache_hit` set when the embedding came from the cache).
    pub embed_stats: EmbedStats,
    /// Measured wall-clock of each internal phase, in execution order:
    /// `sample:scale`, `sample:embed` (retries = embedding restarts),
    /// `sample:distort`, `sample:anneal`, `sample:unembed`.
    pub phases: Vec<StageTrace>,
}

/// The simulated D-Wave annealer.
#[derive(Debug, Clone, Default)]
pub struct DWaveSim {
    options: DWaveSimOptions,
}

impl DWaveSim {
    /// A simulator with the given options.
    pub fn new(options: DWaveSimOptions) -> DWaveSim {
        DWaveSim { options }
    }

    /// The configured options.
    pub fn options(&self) -> &DWaveSimOptions {
        &self.options
    }

    /// Runs a job: embed, distort, sample, decode.
    ///
    /// # Errors
    /// Propagates [`EmbedError`] when the logical model does not fit the
    /// hardware graph.
    pub fn run(&self, logical: &Ising, num_reads: usize) -> Result<DWaveSimResult, EmbedError> {
        // Spans mirror the phase records one-for-one: the records are the
        // cheap always-on view (they ride on the result), the spans land
        // in the global recorder when telemetry is enabled.
        let telemetry = qac_telemetry::global();
        let o = &self.options;
        let topology = o.topology;
        let hardware = if o.dropout > 0.0 {
            topology.graph_with_dropout(o.dropout, o.seed)
        } else {
            topology.graph()
        };

        let mut phases: Vec<StageTrace> = Vec::with_capacity(5);
        let mut phase_start = Instant::now();
        let mut phase_done = |phases: &mut Vec<StageTrace>, name: &str, retries| {
            let now = Instant::now();
            phases.push(StageTrace {
                retries,
                ..StageTrace::new(name, now - phase_start)
            });
            phase_start = now;
        };

        // 1. Scale the logical model into hardware range.
        let scale_span = telemetry.span("sample:scale");
        let range = topology.coefficient_range();
        let scaled = scale_to_range(logical, range);
        drop(scale_span);
        phase_done(&mut phases, "sample:scale", 0);

        // 2. Embed — optionally through the shared cache.
        let mut embed_span = telemetry.span("sample:embed");
        let edges: Vec<(usize, usize)> = scaled.model.j_iter().map(|t| (t.i, t.j)).collect();
        let num_vars = scaled.model.num_vars();
        let search = || {
            find_embedding_or_clique_with_stats(&edges, num_vars, &topology, &hardware, &o.embed)
        };
        let (embedding, embed_stats) = match &o.embedding_cache {
            Some(cache) => {
                cache.get_or_embed(&topology, &edges, num_vars, &o.embed, &hardware, search)?
            }
            None => search()?,
        };
        embed_span.arg("route_iterations", embed_stats.route_iterations as f64);
        embed_span.arg("restarts", embed_stats.restarts as f64);
        embed_span.arg("cache_hit", f64::from(embed_stats.cache_hit));
        drop(embed_span);
        // Machine-independent routing-work counters: wall time drifts
        // with the host, these only drift if the router actually does
        // more work, so CI can put a hard budget on them. The router has
        // already added the unlabeled heap-pop, edge-relaxation and
        // weight-update totals; iterations and restarts are counted
        // here, and every counter also gets a `{topology="family"}`
        // variant so budgets can be set per fabric.
        telemetry.counter_add(
            "qac_route_iterations_total",
            embed_stats.route_iterations as u64,
        );
        telemetry.counter_add("qac_embed_restarts_total", embed_stats.restarts as u64);
        embed_stats.record_topology_counters(topology.family());
        phase_done(&mut phases, "sample:embed", embed_stats.restarts);

        let distort_span = telemetry.span("sample:distort");

        let chain_strength = topology.chain_strength(o.chain_strength, scaled.model.max_abs_j());
        let embedded = embed_ising(&scaled.model, &embedding, &hardware, chain_strength);
        // Everything from here on runs over the qubits the chains use:
        // the rest of the fabric carries no field and no coupler.
        let compact = CompactModel::new(&embedded.physical, &embedding);

        // Rescale after chains were added (chains may exceed J range).
        let physical = scale_to_range(&compact.model, range).model;

        // 3. Analog distortion: quantization plus Gaussian noise.
        let mut distorted = if o.precision_bits > 0 {
            quantize(&physical, range, o.precision_bits)
        } else {
            physical
        };
        if o.noise_sigma > 0.0 {
            let mut rng = StdRng::seed_from_u64(o.seed ^ 0x6e_015e);
            let mut noisy = Ising::new(distorted.num_vars());
            for (i, h) in distorted.h_iter() {
                if h != 0.0 {
                    let sigma = o.noise_sigma * (range.h_max - range.h_min);
                    noisy.add_h(i, h + gaussian(&mut rng) * sigma);
                }
            }
            for t in distorted.j_iter() {
                if t.value != 0.0 {
                    let sigma = o.noise_sigma * (range.j_max - range.j_min);
                    noisy.add_j(t.i, t.j, t.value + gaussian(&mut rng) * sigma);
                }
            }
            noisy.add_offset(distorted.offset());
            distorted = noisy;
        }
        drop(distort_span);
        phase_done(&mut phases, "sample:distort", 0);

        // 4. Stochastic sampling. Plain single-flip annealing cannot cross
        // the energy barrier of a long intact chain (the physical device
        // tunnels chains collectively), so the stand-in anneal mixes
        // chain-block flips with single-qubit flips: blocks provide the
        // logical dynamics, single-qubit moves let chains break the way
        // analog hardware does.
        let sweeps = o.anneal_sweeps.max(1);
        let qubits = compact.model.num_vars();
        let mut anneal_span = telemetry.span("sample:anneal");
        anneal_span.arg("reads", num_reads as f64);
        anneal_span.arg("sweeps", sweeps as f64);
        anneal_span.arg("qubits", qubits as f64);
        let anneal = anneal_embedded(&distorted, &compact, sweeps, o.seed ^ 0xa1_ea1, num_reads);
        // Deterministic per seed, like the routing counters: a budget on
        // spin updates trips if the anneal ever visits idle fabric again.
        telemetry.counter_add(
            "qac_sampler_spin_updates_total{sampler=\"dwave\"}",
            (num_reads * sweeps * qubits) as u64,
        );
        telemetry.counter_add("qac_sampler_flips_total{sampler=\"dwave\"}", anneal.flips);
        drop(anneal_span);
        phase_done(&mut phases, "sample:anneal", 0);

        // 5. Decode with majority vote; re-evaluate energies logically.
        let unembed_span = telemetry.span("sample:unembed");
        telemetry.register_histogram(
            "qac_read_chain_break_fraction",
            qac_telemetry::FRACTION_BUCKETS,
        );
        let mut decoded: Vec<Sample> = Vec::with_capacity(anneal.reads.len());
        let mut breaks = 0.0;
        for spins in &anneal.reads {
            let (logical_spins, stats) = unembed(&compact.chains, logical.num_vars(), spins);
            breaks += stats.break_fraction();
            let energy = logical.energy(&logical_spins);
            telemetry.observe("qac_read_energy", energy);
            telemetry.observe("qac_read_chain_break_fraction", stats.break_fraction());
            decoded.push(Sample {
                spins: logical_spins,
                energy,
                occurrences: 1,
            });
        }
        let logical_set = SampleSet::from_samples(decoded);
        // The quantile sketch answers "what was the p99 read energy"
        // without pre-chosen buckets; it gets one point per distinct
        // decoded logical sample (occurrences collapse to one point), so
        // it stays cheap. The histograms above are the per-read view.
        for sample in logical_set.iter() {
            telemetry.sketch_observe("qac_read_energy_quantiles", sample.energy);
        }
        let physical_terms = compact.model.num_terms(1e-12);
        drop(unembed_span);
        phase_done(&mut phases, "sample:unembed", 0);

        Ok(DWaveSimResult {
            logical: logical_set,
            mean_chain_breaks: if num_reads > 0 {
                breaks / num_reads as f64
            } else {
                0.0
            },
            embedding,
            physical_qubits: qubits,
            physical_terms,
            scale: scaled.scale,
            estimated_time_us: o.timing.total_us(num_reads),
            embed_stats,
            phases,
        })
    }
}

impl Sampler for DWaveSim {
    /// Runs a job and returns the decoded logical samples.
    ///
    /// # Panics
    /// Panics if the model cannot be embedded; use [`DWaveSim::run`] to
    /// handle embedding failure.
    fn sample(&self, model: &Ising, num_reads: usize) -> SampleSet {
        self.run(model, num_reads)
            .expect("model embeds on the configured hardware")
            .logical
    }
}

/// The physical model restricted to the qubits the embedding's chains
/// use.
///
/// Qubits are numbered in ascending physical order, so coupler
/// (`BTreeMap`) order and every neighbour row keep the order of the
/// full-fabric model and each coefficient is copied unchanged: rescaling,
/// quantization, noise and local fields add up exactly as they would over
/// the whole fabric.
struct CompactModel {
    /// The physical Hamiltonian over the used qubits.
    model: Ising,
    /// The embedding's chains in compact qubit numbers.
    chains: Embedding,
    /// Fabric qubits outside every chain.
    unused: usize,
}

impl CompactModel {
    fn new(physical: &Ising, embedding: &Embedding) -> CompactModel {
        let mut qubits: Vec<usize> = embedding.chains().iter().flatten().copied().collect();
        qubits.sort_unstable();
        let mut index = vec![u32::MAX; physical.num_vars()];
        for (c, &q) in qubits.iter().enumerate() {
            debug_assert_eq!(index[q], u32::MAX, "chains must be disjoint");
            index[q] = c as u32;
        }
        let mut model = Ising::new(qubits.len());
        for (c, &q) in qubits.iter().enumerate() {
            model.set_h(c, physical.h(q));
        }
        // Only chain qubits carry couplers, and the relabelling is
        // monotone, so `i < j` still holds.
        for t in physical.j_iter() {
            model.add_j(index[t.i] as usize, index[t.j] as usize, t.value);
        }
        model.add_offset(physical.offset());
        let chains = embedding
            .chains()
            .iter()
            .map(|chain| chain.iter().map(|&q| index[q] as usize).collect())
            .collect();
        CompactModel {
            model,
            chains: Embedding::from_chains(chains),
            unused: physical.num_vars() - qubits.len(),
        }
    }
}

/// The physical reads of one anneal, in decode order.
struct Anneal {
    /// One spin vector per read over the compact qubits, sorted by
    /// physical energy with ties in read order.
    reads: Vec<Vec<Spin>>,
    /// Accepted block and single-qubit flips, annealing and descent.
    flips: u64,
}

/// Annealing over the embedded qubits with chain-block moves.
///
/// Each sweep proposes one collective flip per chain (Metropolis on the
/// physical energy) followed by one single-qubit pass at the same
/// temperature; a greedy descent (blocks, then single qubits) finishes
/// each read. The block moves emulate the collective dynamics a physical
/// annealer gets from quantum tunneling; the single-qubit moves are where
/// chain breaks come from.
///
/// Only the qubits some chain uses are annealed; the rest of the fabric
/// has no field and no coupler, so it never changes a move or an
/// energy. Each read still draws one random start bit per unused fabric
/// qubit and discards it, so every read's random stream, and so its
/// samples, are those of an anneal over the whole fabric. Reads are
/// never merged, and they are decoded in order of physical energy, then
/// read index: the order the whole fabric gives, where the unused
/// qubits' random bits make every read distinct.
fn anneal_embedded(
    model: &Ising,
    compact: &CompactModel,
    sweeps: usize,
    seed: u64,
    num_reads: usize,
) -> Anneal {
    let adj = model.csr_adjacency();
    let n = model.num_vars();
    let chains = compact.chains.chains();
    let boundary = chain_boundary(model, chains);
    // ΔE of flipping a whole chain: intra-chain terms cancel.
    let block_delta = |chain: &[usize], spins: &[f64]| {
        chain.iter().fold(0.0, |delta, &q| {
            delta + flip_delta(model.h(q), spins[q], boundary.neighbors(q), spins)
        })
    };
    // β schedule bounds from the physical scale.
    let mut max_local = 0.0f64;
    for i in 0..n {
        let local: f64 =
            model.h(i).abs() + adj.neighbors(i).iter().map(|(_, j)| j.abs()).sum::<f64>();
        max_local = max_local.max(2.0 * local);
    }
    if max_local == 0.0 {
        max_local = 1.0;
    }
    let beta_min = 0.7 / max_local;
    let beta_max = 50.0 / max_local.clamp(1e-9, 8.0);
    let ratio = (beta_max / beta_min).powf(1.0 / sweeps.max(1) as f64);

    let mut flips = 0u64;
    let mut reads = Vec::with_capacity(num_reads);
    // Spins as ±1.0, so a local field is a plain multiply-add.
    let mut spins = vec![0.0f64; n];
    for r in 0..num_reads {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(r as u64));
        // Chain-coherent random start.
        for chain in chains {
            let s = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            for &q in chain {
                spins[q] = s;
            }
        }
        for _ in 0..compact.unused {
            rng.gen::<bool>();
        }
        let mut beta = beta_min;
        for _ in 0..sweeps {
            // Block pass: flip whole chains.
            for chain in chains {
                let delta = block_delta(chain, &spins);
                if delta <= 0.0 || rng.gen::<f64>() < (-beta * delta).exp() {
                    for &q in chain {
                        spins[q] = -spins[q];
                    }
                    flips += 1;
                }
            }
            // Single-qubit pass (chain breaks happen here).
            for q in 0..n {
                let delta = flip_delta(model.h(q), spins[q], adj.neighbors(q), &spins);
                if delta <= 0.0 || rng.gen::<f64>() < (-beta * delta).exp() {
                    spins[q] = -spins[q];
                    flips += 1;
                }
            }
            beta *= ratio;
        }
        // Greedy descent: blocks first, then single qubits.
        let mut improved = true;
        while improved {
            improved = false;
            for chain in chains {
                if block_delta(chain, &spins) < -1e-12 {
                    for &q in chain {
                        spins[q] = -spins[q];
                    }
                    flips += 1;
                    improved = true;
                }
            }
            for q in 0..n {
                if flip_delta(model.h(q), spins[q], adj.neighbors(q), &spins) < -1e-12 {
                    spins[q] = -spins[q];
                    flips += 1;
                    improved = true;
                }
            }
        }
        let read: Vec<Spin> = spins.iter().map(|&s| Spin::from(s > 0.0)).collect();
        reads.push((model.energy(&read), read));
    }
    // Stable: equal energies keep read order.
    reads.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    Anneal {
        reads: reads.into_iter().map(|(_, read)| read).collect(),
        flips,
    }
}

/// `ΔE` of flipping one spin with linear term `h` and value `s` (±1.0),
/// summing `neighbors` in the order given.
#[inline]
fn flip_delta(h: f64, s: f64, neighbors: &[(u32, f64)], spins: &[f64]) -> f64 {
    let mut field = h;
    for &(other, j) in neighbors {
        field += j * spins[other as usize];
    }
    -2.0 * s * field
}

/// The couplers of `model` that join two different chains, as an
/// adjacency whose rows keep the order of `model`'s own rows.
fn chain_boundary(model: &Ising, chains: &[Vec<usize>]) -> CsrAdjacency {
    let mut chain_of = vec![0; model.num_vars()];
    for (c, chain) in chains.iter().enumerate() {
        for &q in chain {
            chain_of[q] = c;
        }
    }
    let mut boundary = Ising::new(model.num_vars());
    for t in model.j_iter() {
        if chain_of[t.i] != chain_of[t.j] {
            boundary.add_j(t.i, t.j, t.value);
        }
    }
    boundary.csr_adjacency()
}

/// Standard normal via Box–Muller (rand_distr is not among the allowed
/// dependencies).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qac_pbf::Spin;

    fn small_options() -> DWaveSimOptions {
        DWaveSimOptions {
            topology: TopologySpec::Chimera { m: 3 },
            anneal_sweeps: 60,
            noise_sigma: 0.005,
            ..Default::default()
        }
    }

    #[test]
    fn solves_a_pinned_chain() {
        let mut m = Ising::new(4);
        m.add_h(0, -1.0);
        for i in 0..3 {
            m.add_j(i, i + 1, -1.0);
        }
        let sim = DWaveSim::new(small_options());
        let result = sim.run(&m, 50).unwrap();
        let best = result.logical.best().unwrap();
        assert_eq!(best.spins, vec![Spin::Up; 4]);
        assert!(result.physical_qubits >= 4);
        assert!(result.estimated_time_us > 0.0);
    }

    #[test]
    fn and_gate_relation_sampled() {
        // Table 5 AND gate: all samples at minimum satisfy Y = A ∧ B.
        let mut m = Ising::new(3);
        m.add_h(0, 1.0);
        m.add_h(1, -0.5);
        m.add_h(2, -0.5);
        m.add_j(1, 2, 0.5);
        m.add_j(0, 1, -1.0);
        m.add_j(0, 2, -1.0);
        let sim = DWaveSim::new(small_options());
        let result = sim.run(&m, 100).unwrap();
        let best = result.logical.best().unwrap();
        let y = best.spins[0].to_bool();
        let a = best.spins[1].to_bool();
        let b = best.spins[2].to_bool();
        assert_eq!(y, a && b, "best sample violates the AND relation");
        // A healthy majority of reads should decode to ground states.
        assert!(result.logical.ground_fraction(1e-6) > 0.3);
    }

    #[test]
    fn noise_and_quantization_disabled_cleanly() {
        let mut m = Ising::new(2);
        m.add_j(0, 1, -1.0);
        m.add_h(0, -0.5);
        let opts = DWaveSimOptions {
            topology: TopologySpec::Chimera { m: 2 },
            precision_bits: 0,
            noise_sigma: 0.0,
            ..small_options()
        };
        let result = DWaveSim::new(opts).run(&m, 20).unwrap();
        assert_eq!(
            result.logical.best().unwrap().spins,
            vec![Spin::Up, Spin::Up]
        );
    }

    #[test]
    fn runs_on_pegasus_and_zephyr_fabrics() {
        let mut m = Ising::new(4);
        m.add_h(0, -1.0);
        for i in 0..3 {
            m.add_j(i, i + 1, -1.0);
        }
        for spec in [
            TopologySpec::Pegasus { m: 2 },
            TopologySpec::Zephyr { m: 1 },
            TopologySpec::King { m: 8 },
        ] {
            let opts = DWaveSimOptions {
                topology: spec,
                ..small_options()
            };
            let result = DWaveSim::new(opts).run(&m, 50).unwrap();
            let best = result.logical.best().unwrap();
            assert_eq!(best.spins, vec![Spin::Up; 4], "{spec:?} missed ground");
            let hardware = spec.graph();
            let edges = [(0, 1), (1, 2), (2, 3)];
            assert!(
                result.embedding.validate(&edges, &hardware),
                "{spec:?} produced an invalid embedding"
            );
        }
    }

    #[test]
    fn timing_model_accounts_reads() {
        let t = TimingModel::default();
        let single = t.total_us(1);
        let many = t.total_us(1000);
        assert!(many > single);
        // Per-read marginal cost equals anneal + readout + delay.
        let marginal = (many - single) / 999.0;
        assert!((marginal - (20.0 + 123.0 + 21.0)).abs() < 1e-9);
    }

    #[test]
    fn phases_cover_the_whole_job() {
        let mut m = Ising::new(3);
        m.add_j(0, 1, -1.0);
        m.add_j(1, 2, -1.0);
        let result = DWaveSim::new(small_options()).run(&m, 10).unwrap();
        let names: Vec<&str> = result.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "sample:scale",
                "sample:embed",
                "sample:distort",
                "sample:anneal",
                "sample:unembed"
            ]
        );
        assert!(result.embed_stats.restarts >= 1);
        assert!(!result.embed_stats.cache_hit);
        assert_eq!(result.phases[1].retries, result.embed_stats.restarts);
    }

    #[test]
    fn cache_makes_the_second_run_a_hit() {
        let mut m = Ising::new(4);
        for i in 0..3 {
            m.add_j(i, i + 1, -1.0);
        }
        let cache = Arc::new(EmbeddingCache::new());
        let opts = DWaveSimOptions {
            embedding_cache: Some(Arc::clone(&cache)),
            ..small_options()
        };
        let sim = DWaveSim::new(opts);
        let cold = sim.run(&m, 10).unwrap();
        let warm = sim.run(&m, 10).unwrap();
        assert!(!cold.embed_stats.cache_hit);
        assert!(warm.embed_stats.cache_hit);
        assert_eq!(warm.embed_stats.route_iterations, 0);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        // Identical embedding and identical decoded samples either way.
        assert_eq!(cold.embedding.chains(), warm.embedding.chains());
        assert_eq!(cold.logical, warm.logical);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut m = Ising::new(3);
        m.add_j(0, 1, -1.0);
        m.add_j(1, 2, 1.0);
        let sim = DWaveSim::new(small_options());
        let a = sim.run(&m, 10).unwrap();
        let b = sim.run(&m, 10).unwrap();
        assert_eq!(a.logical, b.logical);
    }
}
