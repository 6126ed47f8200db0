//! The engine's contract, enforced: a batch's results are byte-identical
//! at 1, 2, or 8 worker threads, and no two random streams in the system
//! (jobs, retries, embedding restarts, sampler lanes) can silently
//! collide.

use std::sync::Arc;
use std::time::Duration;

use qac_core::{compile, CompileOptions, Compiled, RunOptions, SolverChoice};
use qac_engine::{seed, BatchEngine, CancelToken, EngineOptions, JobResult, JobSpec, JobStatus};
use qac_solvers::DWaveSimOptions;

const MUX_ADD_SUB: &str = r#"
    module circuit (s, a, b, c);
      input s, a, b;
      output [1:0] c;
      assign c = s ? a+b : a-b;
    endmodule
"#;

fn program() -> Arc<Compiled> {
    Arc::new(compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap())
}

/// A mixed batch: exact, SA, tabu, and hardware-model jobs over the same
/// compiled program, all eight forward input combinations.
fn mixed_batch(program: &Arc<Compiled>) -> Vec<JobSpec> {
    let cache = Arc::new(qac_chimera::EmbeddingCache::new());
    (0..8u64)
        .map(|case| {
            let (s, a, b) = (case & 1, (case >> 1) & 1, case >> 2);
            let solver = match case % 4 {
                0 => SolverChoice::Exact,
                1 => SolverChoice::Sa { sweeps: 80 },
                2 => SolverChoice::Tabu,
                _ => SolverChoice::DWave(Box::new(DWaveSimOptions {
                    topology: qac_solvers::TopologySpec::Chimera { m: 4 },
                    anneal_sweeps: 120,
                    embedding_cache: Some(Arc::clone(&cache)),
                    ..Default::default()
                })),
            };
            let options = RunOptions::new()
                .pin(&format!("s := {s}"))
                .pin(&format!("a := {a}"))
                .pin(&format!("b := {b}"))
                .solver(solver)
                .num_reads(16);
            JobSpec::new(Arc::clone(program), options, format!("fwd:{s}{a}{b}"))
        })
        .collect()
}

/// The comparable projection of a result: everything except wall-clock.
fn digest(results: &[JobResult]) -> Vec<(usize, String, usize, u64, Option<u64>, bool)> {
    results
        .iter()
        .map(|r| {
            (
                r.job,
                r.label.clone(),
                r.attempts,
                r.seed,
                r.fingerprint(),
                matches!(r.status, JobStatus::Completed(_)),
            )
        })
        .collect()
}

#[test]
fn identical_results_at_1_2_and_8_workers() {
    let program = program();
    let mut digests = Vec::new();
    for workers in [1usize, 2, 8] {
        let engine = BatchEngine::new(EngineOptions {
            workers,
            queue_capacity: 3, // force backpressure on the 8-job batch
            ..Default::default()
        });
        let results = engine.run_batch(mixed_batch(&program));
        assert_eq!(results.len(), 8);
        // Results come back in submission order regardless of which
        // worker finished first.
        assert!(results.iter().enumerate().all(|(i, r)| r.job == i));
        for (i, r) in results.iter().enumerate() {
            let outcome = r.outcome().unwrap_or_else(|| panic!("{:?}", r.status));
            assert!(!outcome.samples.is_empty(), "job {} empty", r.label);
            // Exact-solver jobs always decode a valid execution; the
            // stochastic jobs only need to be *deterministic*.
            if i % 4 == 0 {
                assert!(outcome.best().unwrap().valid, "job {} invalid", r.label);
            }
        }
        digests.push((workers, digest(&results)));
    }
    let (_, ref baseline) = digests[0];
    for (workers, d) in &digests[1..] {
        assert_eq!(d, baseline, "results diverged at {workers} workers");
    }
}

#[test]
fn rerunning_the_same_batch_is_byte_identical() {
    let program = program();
    let engine = BatchEngine::new(EngineOptions {
        workers: 4,
        ..Default::default()
    });
    let a = engine.run_batch(mixed_batch(&program));
    let b = engine.run_batch(mixed_batch(&program));
    assert_eq!(digest(&a), digest(&b));
}

#[test]
fn batch_seed_changes_stochastic_results() {
    let program = program();
    let jobs = || {
        vec![JobSpec::new(
            Arc::clone(&program),
            RunOptions::new()
                .pin("s := 1")
                .solver(SolverChoice::Sa { sweeps: 12 })
                .num_reads(8),
            "sa",
        )]
    };
    let run = |base_seed| {
        BatchEngine::new(EngineOptions {
            workers: 2,
            base_seed,
            ..Default::default()
        })
        .run_batch(jobs())[0]
            .fingerprint()
            .unwrap()
    };
    // Eight reads of a 12-sweep anneal leave plenty of sampling noise, so
    // distinct batch seeds should fingerprint differently (equality would
    // mean the seed is being ignored).
    assert_ne!(run(1), run(2));
}

#[test]
fn failed_jobs_retry_with_distinct_seeds_then_report_the_error() {
    // A Chimera too small for the program: every attempt errors.
    let program = program();
    let sim = DWaveSimOptions {
        topology: qac_solvers::TopologySpec::Chimera { m: 1 },
        embed: qac_chimera::EmbedOptions {
            tries: 1,
            rounds: 2,
            ..Default::default()
        },
        ..Default::default()
    };
    let engine = BatchEngine::new(EngineOptions {
        workers: 2,
        max_attempts: 3,
        ..Default::default()
    });
    let results = engine.run_batch(vec![JobSpec::new(
        Arc::clone(&program),
        RunOptions::new()
            .pin("s := 1")
            .solver(SolverChoice::DWave(Box::new(sim)))
            .num_reads(4),
        "unembeddable",
    )]);
    let r = &results[0];
    assert!(matches!(r.status, JobStatus::Failed(_)), "{:?}", r.status);
    assert_eq!(r.attempts, 3, "retried to the attempt cap");
    // The final attempt ran on attempt seed 2, not the job seed.
    assert_eq!(r.seed, seed::attempt_seed(engine.options().base_seed, 0, 2));
    assert_ne!(r.seed, seed::job_seed(engine.options().base_seed, 0));
}

#[test]
fn retry_until_valid_reseeds_on_invalid_outcomes() {
    // Impossible pins: no seed ever yields a valid execution, so the
    // engine burns all attempts and returns the last (invalid) outcome.
    let program = program();
    let engine = BatchEngine::new(EngineOptions {
        workers: 1,
        max_attempts: 4,
        retry_until_valid: true,
        ..Default::default()
    });
    let results = engine.run_batch(vec![JobSpec::new(
        Arc::clone(&program),
        RunOptions::new()
            .pin("s := 1")
            .pin("a := 0")
            .pin("b := 0")
            .pin("c[1:0] := 11")
            .solver(SolverChoice::Exact),
        "unsat",
    )]);
    let r = &results[0];
    assert_eq!(r.attempts, 4);
    let outcome = r.outcome().expect("completes with an invalid outcome");
    assert_eq!(outcome.valid_solutions().count(), 0);
}

#[test]
fn zero_timeout_times_every_job_out() {
    let program = program();
    let engine = BatchEngine::new(EngineOptions {
        workers: 2,
        timeout: Some(Duration::ZERO),
        ..Default::default()
    });
    let results = engine.run_batch(mixed_batch(&program));
    for r in &results {
        assert!(matches!(r.status, JobStatus::TimedOut), "{:?}", r.status);
        assert_eq!(r.attempts, 0, "budget was checked before any attempt");
    }
}

#[test]
fn cancelled_batches_report_cancelled() {
    let program = program();
    let token = CancelToken::new();
    token.cancel();
    let engine = BatchEngine::new(EngineOptions {
        workers: 2,
        ..Default::default()
    });
    let results = engine.run_batch_cancellable(mixed_batch(&program), &token);
    assert_eq!(results.len(), 8);
    for r in &results {
        assert!(matches!(r.status, JobStatus::Cancelled), "{:?}", r.status);
    }
}

#[test]
fn engine_and_portfolio_seed_families_never_collide() {
    // The seed-family audit, cross-subsystem half: for the default
    // engine seed, no engine attempt seed may equal another stream's
    // seed — otherwise a retried job would walk the same RNG stream as
    // an embedding restart or a sampler lane and correlate with it.
    use std::collections::HashSet;
    let engine = EngineOptions::default();
    let mut seeds = HashSet::new();
    for job in 0..256u64 {
        for attempt in 0..4u64 {
            assert!(
                seeds.insert(seed::attempt_seed(engine.base_seed, job, attempt)),
                "engine job {job} attempt {attempt} collides with another stream"
            );
        }
    }
    // The embedding router's restart-race family is salted before its
    // splitmix mix (see `qac_chimera::restart_seed`), so its streams
    // must land outside the engine attempt family — a collision would
    // correlate a routing race with a sampler's RNG when a job embeds
    // and then anneals.
    for try_index in 0..256u64 {
        assert!(
            seeds.insert(qac_chimera::restart_seed(engine.base_seed, try_index)),
            "embedding restart {try_index} collides with another stream"
        );
    }
    // The packed-lane sampler families (per-replica lane seeds and the
    // PA resampling stream) are salted independently; they must stay
    // disjoint from the engine and restart families above AND from each
    // other.
    for replica in 0..256u64 {
        assert!(
            seeds.insert(qac_solvers::lane_seed(engine.base_seed, replica)),
            "packed lane {replica} collides with another stream"
        );
    }
    assert!(
        seeds.insert(qac_solvers::pa_resample_seed(engine.base_seed)),
        "the PA resampling stream collides with another stream"
    );
}

#[test]
fn queue_wait_and_worker_accounting_are_populated() {
    let program = program();
    let engine = BatchEngine::new(EngineOptions {
        workers: 2,
        ..Default::default()
    });
    let results = engine.run_batch(mixed_batch(&program));
    for r in &results {
        assert!(r.worker < 2);
        assert!(r.run_time > Duration::ZERO);
    }
}
