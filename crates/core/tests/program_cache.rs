//! A compiled program keeps the process-wide embedding cache alive, so
//! default hardware-model runs of it route once. When the last program
//! and default options value are gone the cache is freed, and a program
//! compiled afterwards routes again: starting over repeats the same work.
//!
//! Lives in its own test binary so nothing else holds the shared cache.

use std::sync::Arc;

use qac_chimera::EmbeddingCache;
use qac_core::{compile, CompileOptions, Compiled, RunOptions, RunOutcome, SolverChoice};
use qac_solvers::DWaveSimOptions;

/// The paper's Figure 2 program.
const MUX_ADD_SUB: &str = r#"
    module circuit (s, a, b, c);
      input s, a, b;
      output [1:0] c;
      assign c = s ? a+b : a-b;
    endmodule
"#;

fn program() -> Compiled {
    compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap()
}

/// One default-option hardware-model run under sampler seed `seed`.
fn run(program: &Compiled, pins: &[&str], seed: u64) -> RunOutcome {
    let sim = DWaveSimOptions {
        seed,
        ..Default::default()
    };
    let mut options = RunOptions::new()
        .solver(SolverChoice::DWave(Box::new(sim)))
        .num_reads(20);
    for pin in pins {
        options = options.pin(pin);
    }
    program.run(&options).expect("figure 2 embeds on the C16")
}

#[test]
fn a_program_routes_once_while_it_lives() {
    let first = program();
    let cache = Arc::downgrade(&EmbeddingCache::shared());
    let forward = run(&first, &["s := 1", "a := 1", "b := 0"], 1);
    run(&first, &["c[1:0] := 10", "s := 1"], 2);
    let stats = cache.upgrade().expect("the program holds it").stats();
    assert_eq!((stats.misses, stats.hits, stats.entries), (1, 1, 1));

    drop(first);
    assert!(cache.upgrade().is_none(), "freed with the program");

    let again = program();
    let fresh = EmbeddingCache::shared();
    assert_eq!(fresh.len(), 0, "a new, empty cache");
    let repeat = run(&again, &["s := 1", "a := 1", "b := 0"], 1);
    let stats = fresh.stats();
    assert_eq!(
        (stats.misses, stats.hits),
        (1, 0),
        "the program routes again"
    );
    assert_eq!(
        format!("{:?}", repeat.samples),
        format!("{:?}", forward.samples)
    );
    assert_eq!(
        repeat.hardware.map(|h| h.physical_qubits),
        forward.hardware.map(|h| h.physical_qubits)
    );
}
