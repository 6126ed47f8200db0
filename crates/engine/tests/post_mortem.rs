//! The flight-recorder post-mortem contract: a job that dies by timeout
//! can explain itself from the ring alone, without re-running.
//!
//! This file holds exactly one test so the `QAC_FLIGHT_CAPACITY`
//! override below is guaranteed to be set before anything touches the
//! process-global recorder (integration-test binaries are per-file).

use std::sync::Arc;
use std::time::Duration;

use qac_core::{compile, CompileOptions, RunOptions, SolverChoice};
use qac_engine::{BatchEngine, EngineOptions, JobSpec, JobStatus};
use qac_telemetry::json;

const MUX_ADD_SUB: &str = r#"
    module circuit (s, a, b, c);
      input s, a, b;
      output [1:0] c;
      assign c = s ? a+b : a-b;
    endmodule
"#;

#[test]
fn forced_timeout_dumps_a_post_mortem_with_the_jobs_trace() {
    // A 20 ms deadline with retry-until-valid and a zero-read budget can
    // burn through thousands of fast attempts; widen the ring so the
    // one-time enqueue/dequeue/cache events survive to the dump.
    std::env::set_var("QAC_FLIGHT_CAPACITY", "262144");

    let program = Arc::new(compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap());
    let cache = Arc::new(qac_chimera::EmbeddingCache::new());
    // num_reads(0) decodes zero samples, so valid_fraction() is 0 and
    // retry_until_valid can never be satisfied: the attempt loop spins
    // until the deadline. The D-Wave solver path exercises the embedding
    // cache, so the post-mortem carries cache events too.
    let options = RunOptions::new()
        .pin("s := 0")
        .pin("a := 1")
        .pin("b := 1")
        .solver(SolverChoice::DWave(Box::new(
            qac_solvers::DWaveSimOptions {
                topology: qac_solvers::TopologySpec::Chimera { m: 4 },
                anneal_sweeps: 8,
                embedding_cache: cache,
                ..Default::default()
            },
        )))
        .num_reads(0);
    let job = JobSpec::new(program.clone(), options, "doomed".to_string());
    let trace = job.trace;
    assert!(!trace.is_none());

    let engine = BatchEngine::new(EngineOptions {
        workers: 1,
        max_attempts: 1_000_000,
        retry_until_valid: true,
        timeout: Some(Duration::from_millis(20)),
        ..Default::default()
    });
    let results = engine.run_batch(vec![job]);
    assert_eq!(results.len(), 1);
    let result = &results[0];
    assert!(
        matches!(result.status, JobStatus::TimedOut),
        "expected a timeout, got {:?}",
        result.status
    );
    assert_eq!(result.trace, trace, "the result carries the job's trace id");
    assert!(result.attempts >= 1, "at least one attempt ran");

    // The dump is valid JSONL, every line is a flight event tagged with
    // this job's trace id.
    let dump = result.post_mortem_jsonl();
    let token = trace.to_string();
    assert!(
        dump.contains(&token),
        "dump must carry the trace token {token}:\n{dump}"
    );
    let mut kinds = std::collections::BTreeSet::new();
    for (i, line) in dump.lines().enumerate() {
        let event = json::parse(line)
            .unwrap_or_else(|err| panic!("dump line {}: invalid JSON: {err}", i + 1));
        assert_eq!(
            event.get("type").and_then(|t| t.as_str()),
            Some("flight"),
            "line {}",
            i + 1
        );
        assert_eq!(
            event.get("trace").and_then(|t| t.as_str()),
            Some(token.as_str()),
            "line {}: foreign trace in a per-job dump",
            i + 1
        );
        kinds.insert(
            event
                .get("kind")
                .and_then(|k| k.as_str())
                .expect("kind")
                .to_string(),
        );
    }

    // Queue lifecycle: the job was enqueued, picked up, and timed out.
    for kind in ["enqueue", "dequeue", "timeout"] {
        assert!(kinds.contains(kind), "missing {kind} event; saw {kinds:?}");
    }
    // Pipeline lifecycle: at least one attempt ran stages to completion.
    for kind in ["stage_begin", "stage_end"] {
        assert!(kinds.contains(kind), "missing {kind} event; saw {kinds:?}");
    }
    // Cache lifecycle: attempt 1 misses; any further attempt hits.
    assert!(
        kinds.contains("cache_miss") || kinds.contains("cache_hit"),
        "missing cache events; saw {kinds:?}"
    );
    // Anything the engine recorded for *other* jobs must not leak in: a
    // fresh trace id has no events.
    let foreign = qac_telemetry::global_flight().dump_jsonl(qac_telemetry::TraceId::fresh());
    assert!(foreign.is_empty());

    // Incremental recompiles are post-mortem-visible too: a warm
    // recompile under its own trace scope leaves one `stage_skip` flight
    // event per replayed stage, tagged with that job's trace id — so a
    // dump can explain not just what ran, but what was *skipped* and
    // under which edit session (DESIGN.md §14).
    let recompile_trace = qac_telemetry::TraceId::fresh();
    let report = {
        let _scope = qac_telemetry::TraceScope::enter(recompile_trace);
        let (_, report) = qac_core::compile_incremental(
            &program,
            MUX_ADD_SUB,
            "circuit",
            &CompileOptions::default(),
        )
        .unwrap();
        report
    };
    assert!(!report.full_rebuild);
    assert!(report.skipped() > 0, "identical source skips stages");
    let skip_events: Vec<String> = qac_telemetry::global_flight()
        .events_for(recompile_trace)
        .iter()
        .filter(|e| e.kind == qac_telemetry::FlightKind::StageSkip)
        .map(|e| e.name.to_string())
        .collect();
    assert_eq!(
        skip_events.len(),
        report.skipped(),
        "every skipped stage leaves a stage_skip event under the job's trace"
    );
    assert!(
        skip_events.iter().any(|n| n == "assemble"),
        "skip events name the skipped stage: {skip_events:?}"
    );
    // The skip events stay scoped: the doomed job's dump has none.
    assert!(
        !kinds.contains("stage_skip"),
        "the engine job compiled nothing incrementally"
    );
}
