//! Two runs at one seed do the same work: every count a job reports
//! repeats exactly. Timings are left out; they never repeat.
//!
//! Embedding is slow without optimization: run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::Mutex;

use qac_perfbench::{run, JobRecord, Limit, Workload};

/// Traced jobs read the process-wide telemetry recorder, which counts
/// work from every thread, so runs in this test binary take turns.
static RECORDER: Mutex<()> = Mutex::new(());

fn turn() -> std::sync::MutexGuard<'static, ()> {
    RECORDER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Every count of a job: sizes, valid reads, and each per-layer count
/// (routing work, certificate obligations, incremental dispositions).
fn counts(job: &JobRecord) -> Vec<(String, f64)> {
    let mut out = vec![
        ("logical_vars".to_string(), job.logical_vars as f64),
        ("physical_qubits".to_string(), job.physical_qubits as f64),
        ("reads".to_string(), job.reads as f64),
        ("valid_reads".to_string(), job.valid_reads as f64),
        ("failed".to_string(), f64::from(u8::from(job.failed()))),
    ];
    for (name, value) in job.layers.iter().flatten() {
        if !name.ends_with("_s") {
            out.push((name.to_string(), *value));
        }
    }
    out
}

fn assert_repeats(workload: Workload, jobs: usize) {
    let _turn = turn();
    let first = run(workload, 11, Limit::Jobs(jobs), true).expect("set-up succeeds");
    let second = run(workload, 11, Limit::Jobs(jobs), true).expect("set-up succeeds");
    assert_eq!(first.jobs.len(), jobs);
    assert!(first.correct(), "{:?}", first.jobs);
    for (i, (a, b)) in first.jobs.iter().zip(&second.jobs).enumerate() {
        assert_eq!(counts(a), counts(b), "{} job {i}", workload.name());
    }
    for job in first.jobs.iter().filter(|j| j.physical_qubits > 0) {
        if let Some(layers) = &job.layers {
            // The traced run's replayed embedding is the job's embedding.
            assert_eq!(
                layers.get("chimera.replayed_qubits"),
                Some(&(job.physical_qubits as f64)),
                "{}",
                workload.name()
            );
        }
    }
}

#[test]
fn paper_pins_counts_repeat() {
    assert_repeats(Workload::PaperPins, 8);
}

#[test]
fn fresh_maps_counts_repeat() {
    assert_repeats(Workload::FreshMaps, 4);
}

#[test]
fn compile_corpus_counts_repeat() {
    assert_repeats(Workload::CompileCorpus, 6);
}

#[test]
fn another_seed_draws_other_inputs() {
    let _turn = turn();
    let a = run(Workload::FreshMaps, 1, Limit::Jobs(2), false).expect("set-up succeeds");
    let b = run(Workload::FreshMaps, 2, Limit::Jobs(2), false).expect("set-up succeeds");
    let valid = |r: &qac_perfbench::Run| r.jobs.iter().map(|j| j.valid_reads).collect::<Vec<_>>();
    let qubits =
        |r: &qac_perfbench::Run| r.jobs.iter().map(|j| j.physical_qubits).collect::<Vec<_>>();
    assert!(valid(&a) != valid(&b) || qubits(&a) != qubits(&b));
}
