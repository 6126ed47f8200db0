//! Golden per-seed regression for the hardware model, [`DWaveSim::run`].
//!
//! Each case pins the decoded logical sample set of one run (every
//! distinct sample as an `occurrences x bitstring @ energy` line, in
//! set order), its mean chain-break fraction and its physical qubit
//! count. The runs go through embedding, rescaling, quantization,
//! noise, the chain-block anneal, the greedy descent and majority-vote
//! decoding, so any drift in the RNG stream, the order coefficients or
//! local fields are summed in, the physical read order, or the decode
//! shows up as a diff.

use qac_pbf::Ising;
use qac_solvers::{DWaveSim, DWaveSimOptions, TopologySpec};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A figure2-sized logical model: 17 variables and about 38 couplings
/// (the compiled Figure 2 circuit has 17 variables and 55 terms). A
/// random spanning tree keeps it connected; extra random pairs close
/// cycles so the router has to build chains.
fn figure2_sized() -> Ising {
    let mut rng = StdRng::seed_from_u64(0xf162);
    let n = 17;
    let mut model = Ising::new(n);
    for i in 0..n {
        model.add_h(i, rng.gen_range(-1.0..1.0));
    }
    for i in 1..n {
        let j = rng.gen_range(0..i);
        model.add_j(i, j, rng.gen_range(-1.0..1.0));
    }
    for _ in 0..22 {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i != j {
            model.add_j(i, j, rng.gen_range(-1.0..1.0));
        }
    }
    model
}

/// A 55-variable map-colouring-like model: 11 regions on a ring plus
/// one chord, 5 one-hot colour variables per region. Each region
/// carries the one-hot penalty `(Σ x − 1)²` in spin form; each border
/// penalizes equal colours on its two regions.
fn map_like() -> Ising {
    let (regions, colours) = (11, 5);
    let var = |r: usize, c: usize| r * colours + c;
    let mut model = Ising::new(regions * colours);
    // (Σx − 1)² with x = (1 + σ)/2: pairwise J = 1/2, field h = (k − 2)/4
    // per variable for k colours.
    let h = (colours as f64 - 2.0) / 4.0;
    for r in 0..regions {
        for c in 0..colours {
            model.add_h(var(r, c), h);
            for d in (c + 1)..colours {
                model.add_j(var(r, c), var(r, d), 0.5);
            }
        }
    }
    let mut borders: Vec<(usize, usize)> = (0..regions).map(|r| (r, (r + 1) % regions)).collect();
    borders.push((0, regions / 2));
    for (a, b) in borders {
        for c in 0..colours {
            // x_a x_b = (1 + σ_a + σ_b + σ_a σ_b)/4, weighted 0.5.
            model.add_j(var(a, c), var(b, c), 0.125);
            model.add_h(var(a, c), 0.125);
            model.add_h(var(b, c), 0.125);
        }
    }
    model
}

/// Every qubit of a Chimera C1 cell used by a one-qubit-per-variable
/// embedding: a frustrated K₄,₄ over its 8 qubits, so no fabric qubit
/// is left idle.
fn full_cell() -> Ising {
    let mut rng = StdRng::seed_from_u64(0xce11);
    let mut model = Ising::new(8);
    for i in 0..8 {
        model.add_h(i, rng.gen_range(-0.5..0.5));
    }
    for i in 0..4 {
        for j in 4..8 {
            model.add_j(i, j, rng.gen_range(-1.0..1.0));
        }
    }
    model
}

/// One run's pinned summary: qubit count, mean chain breaks, then every
/// decoded sample in set order.
fn encode(model: &Ising, options: DWaveSimOptions, reads: usize) -> Vec<String> {
    let result = DWaveSim::new(options)
        .run(model, reads)
        .expect("the golden model embeds");
    let mut lines = vec![
        format!("physical_qubits {}", result.physical_qubits),
        format!("mean_chain_breaks {:.12}", result.mean_chain_breaks),
    ];
    lines.extend(result.logical.iter().map(|s| {
        let bits: String = s
            .spins
            .iter()
            .map(|sp| if sp.value() > 0.0 { '1' } else { '0' })
            .collect();
        format!("{}x{}@{:.12}", s.occurrences, bits, s.energy)
    }));
    lines
}

fn assert_golden(case: &str, model: &Ising, options: DWaveSimOptions, expected: &[&str]) {
    let got = encode(model, options, 16);
    assert_eq!(got, expected, "{case} drifted; got:\n{got:#?}");
}

#[test]
fn figure2_sized_on_the_default_c16() {
    assert_golden(
        "figure2-sized C16",
        &figure2_sized(),
        DWaveSimOptions {
            seed: 21,
            ..Default::default()
        },
        &[
            "physical_qubits 47",
            "mean_chain_breaks 0.000000000000",
            "10x11111101010100011@-15.097186066314",
            "3x11010011100000001@-15.014499476723",
            "2x11110001010100011@-14.715403072740",
            "1x01101100010101110@-12.917845426666",
        ],
    );
}

#[test]
fn map_like_on_the_default_c16() {
    assert_golden(
        "map-like C16",
        &map_like(),
        DWaveSimOptions {
            seed: 22,
            ..Default::default()
        },
        &[
            "physical_qubits 258",
            "mean_chain_breaks 0.046590909091",
            "1x0101000100011000001100100100010110000011011000001110100@-25.250000000000",
            "1x0101000100011000001100100000011010000011011000001110100@-24.750000000000",
            "1x0101000100010010101000100000011100000011110000001110100@-24.750000000000",
            "1x0101000100010010101000100000011100000110110000001110100@-24.750000000000",
            "1x0101000100011000001100100000011100000011011000001110100@-24.750000000000",
            "1x0101001100100010110000100000011100000011101000001110100@-24.750000000000",
            "1x0101000100000010101000100100100100110010011000001110100@-24.750000000000",
            "1x0101000100010010010000100100010110000011011001000100110@-24.250000000000",
            "1x0001000100010011010000100000011100000011110000001110100@-24.250000000000",
            "1x0101000100011000001100100100010100100110001011100010100@-23.750000000000",
            "1x0101001100100100010100100100010110000011001011000110100@-23.750000000000",
            "1x0101000100010100010100100100000100110001010101000100110@-23.750000000000",
            "1x0100000100011000001100100000111100000011010011001010100@-23.750000000000",
            "1x1001001100001010001100100000011100000001010101000100110@-23.750000000000",
            "1x0101000100100010010000100100010010101000001101100010100@-23.250000000000",
            "1x0100000000010010011000100100100110010001011001000110100@-21.750000000000",
        ],
    );
}

#[test]
fn figure2_sized_on_pegasus_and_king() {
    assert_golden(
        "figure2-sized Pegasus P4",
        &figure2_sized(),
        DWaveSimOptions {
            topology: TopologySpec::Pegasus { m: 4 },
            seed: 23,
            ..Default::default()
        },
        &[
            "physical_qubits 21",
            "mean_chain_breaks 0.000000000000",
            "9x11111101010100011@-15.097186066314",
            "5x11110001010100011@-14.715403072740",
            "2x11110011010000011@-13.893790343854",
        ],
    );
    assert_golden(
        "figure2-sized king 16",
        &figure2_sized(),
        DWaveSimOptions {
            topology: TopologySpec::King { m: 16 },
            seed: 24,
            ..Default::default()
        },
        &[
            "physical_qubits 48",
            "mean_chain_breaks 0.000000000000",
            "9x11010011100000001@-15.014499476723",
            "1x11110001010100011@-14.715403072740",
            "5x11111101010100010@-14.683327677903",
            "1x10010011101000001@-12.847003937378",
        ],
    );
}

#[test]
fn figure2_sized_with_qubit_dropout() {
    assert_golden(
        "figure2-sized C16 dropout 0.05",
        &figure2_sized(),
        DWaveSimOptions {
            dropout: 0.05,
            seed: 25,
            ..Default::default()
        },
        &[
            "physical_qubits 48",
            "mean_chain_breaks 0.000000000000",
            "9x11010011100000001@-15.014499476723",
            "1x11110001010100011@-14.715403072740",
            "6x11111101010100010@-14.683327677903",
        ],
    );
}

#[test]
fn figure2_sized_without_quantization_or_noise() {
    assert_golden(
        "figure2-sized C16 exact coefficients",
        &figure2_sized(),
        DWaveSimOptions {
            precision_bits: 0,
            noise_sigma: 0.0,
            seed: 26,
            ..Default::default()
        },
        &[
            "physical_qubits 47",
            "mean_chain_breaks 0.000000000000",
            "10x11111101010100011@-15.097186066314",
            "4x11010011100000001@-15.014499476723",
            "2x11110001010100011@-14.715403072740",
        ],
    );
}

#[test]
fn full_cell_leaves_no_qubit_unused() {
    assert_golden(
        "K4,4 on a C1",
        &full_cell(),
        DWaveSimOptions {
            topology: TopologySpec::Chimera { m: 1 },
            seed: 27,
            ..Default::default()
        },
        &[
            "physical_qubits 8",
            "mean_chain_breaks 0.000000000000",
            "13x10100001@-6.985752216999",
            "3x01011110@-6.687489903352",
        ],
    );
}
