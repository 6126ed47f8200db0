//! End-to-end telemetry acceptance: a map-coloring run on the hardware
//! model with an embedding cache must produce (1) JSONL where every line
//! deserializes into the event schema, (2) a Chrome trace whose span
//! tree nests compile → stages and run → sample → sample:* with child
//! intervals inside their parents, and (3) Prometheus exposition
//! containing the headline metrics — all from one global-recorder
//! session.
//!
//! Everything lives in ONE test function: the global recorder is
//! process-wide, and parallel test threads would interleave spans.

use std::sync::Arc;

use qac_bench::{compile_workload, AUSTRALIA};
use qac_chimera::EmbeddingCache;
use qac_core::{RunOptions, SolverChoice};
use qac_solvers::DWaveSimOptions;
use qac_telemetry::json::{parse, Json};
use qac_telemetry::{export, global};

#[test]
fn map_coloring_run_exports_all_three_formats() {
    let recorder = global();
    recorder.enable();
    recorder.clear();

    // Compile inside the session so "compile" spans land in the trace,
    // then run twice through one cache (cold miss + warm hit).
    let compiled = compile_workload(AUSTRALIA, "australia");
    let cache = Arc::new(EmbeddingCache::new());
    let sim = DWaveSimOptions {
        anneal_sweeps: 24,
        embedding_cache: Arc::clone(&cache),
        ..Default::default()
    };
    let run = RunOptions::new()
        .pin("valid := 1")
        .solver(SolverChoice::DWave(Box::new(sim)))
        .num_reads(20);
    let cold = compiled.run(&run).expect("cold run succeeds");
    let warm = compiled.run(&run).expect("warm run succeeds");
    assert!(cold.hardware.is_some() && warm.hardware.is_some());
    assert_eq!((cache.hits(), cache.misses()), (1, 1));

    let snapshot = recorder.snapshot();
    recorder.disable();

    // ---- JSONL: every line deserializes into the event schema. ----
    let jsonl = export::jsonl(&snapshot);
    let mut span_events = 0usize;
    for (i, line) in jsonl.lines().enumerate() {
        let event = parse(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        let kind = event
            .get("type")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("line {} lacks type", i + 1));
        match kind {
            "span" => {
                span_events += 1;
                for field in ["id", "start_us", "dur_us"] {
                    assert!(
                        event.get(field).and_then(Json::as_f64).is_some(),
                        "span event lacks numeric {field}: {line}"
                    );
                }
                assert!(event.get("name").and_then(Json::as_str).is_some());
            }
            "counter" | "gauge" => {
                assert!(event.get("name").is_some() && event.get("value").is_some());
            }
            "histogram" => {
                assert!(event.get("name").is_some());
                assert!(event.get("bounds").and_then(Json::as_array).is_some());
                assert!(event.get("counts").and_then(Json::as_array).is_some());
            }
            "quantile" => {
                assert!(event.get("name").is_some());
                for field in ["count", "sum"] {
                    assert!(
                        event.get(field).and_then(Json::as_f64).is_some(),
                        "quantile event lacks numeric {field}: {line}"
                    );
                }
                // p50/p90/p99 are present (null when the sketch was
                // empty, which a recorded sketch never is here).
                for field in ["p50", "p90", "p99"] {
                    assert!(
                        event.get(field).and_then(Json::as_f64).is_some(),
                        "quantile event lacks {field}: {line}"
                    );
                }
            }
            other => panic!("unknown event type {other:?}"),
        }
    }
    assert!(span_events > 0, "JSONL records spans");

    // ---- Chrome trace: the span tree nests correctly. ----
    let chrome = parse(&export::chrome_trace(&snapshot)).expect("chrome trace is valid JSON");
    let events = chrome
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    // Collect complete ("X") events: (name, span_id, parent, start, dur).
    struct Ev {
        name: String,
        id: f64,
        parent: Option<f64>,
        start: f64,
        dur: f64,
    }
    let xs: Vec<Ev> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| {
            let args = e.get("args").expect("span args");
            Ev {
                name: e.get("name").and_then(Json::as_str).unwrap().to_string(),
                id: args.get("span_id").and_then(Json::as_f64).unwrap(),
                parent: args.get("parent_span").and_then(Json::as_f64),
                start: e.get("ts").and_then(Json::as_f64).unwrap(),
                dur: e.get("dur").and_then(Json::as_f64).unwrap(),
            }
        })
        .collect();
    let by_id = |id: f64| xs.iter().find(|e| e.id == id).expect("parent span exists");
    let children_of = |name: &str| -> Vec<&Ev> {
        let parents: Vec<f64> = xs.iter().filter(|e| e.name == name).map(|e| e.id).collect();
        xs.iter()
            .filter(|e| e.parent.is_some_and(|p| parents.contains(&p)))
            .collect()
    };

    // compile → each compile stage.
    let compile_children: Vec<&str> = children_of("compile")
        .iter()
        .map(|e| e.name.as_str())
        .collect();
    for stage in ["verilog-parse", "unroll", "optimize", "assemble"] {
        assert!(
            compile_children.contains(&stage),
            "compile span has {stage} child (got {compile_children:?})"
        );
    }
    // run → sample → sample:* sub-phases.
    let run_children: Vec<&str> = children_of("run").iter().map(|e| e.name.as_str()).collect();
    for stage in ["pin", "sample", "interpret"] {
        assert!(run_children.contains(&stage), "run span has {stage} child");
    }
    let sample_children: Vec<&str> = children_of("sample")
        .iter()
        .map(|e| e.name.as_str())
        .collect();
    for phase in [
        "sample:scale",
        "sample:embed",
        "sample:distort",
        "sample:anneal",
        "sample:unembed",
    ] {
        assert!(
            sample_children.contains(&phase),
            "sample span has {phase} child (got {sample_children:?})"
        );
    }
    // Every child interval lies within its parent's interval.
    for child in &xs {
        if let Some(parent_id) = child.parent {
            let parent = by_id(parent_id);
            assert!(
                child.start >= parent.start - 1e-6
                    && child.start + child.dur <= parent.start + parent.dur + 1e-6,
                "{} [{}, {}] escapes parent {} [{}, {}]",
                child.name,
                child.start,
                child.start + child.dur,
                parent.name,
                parent.start,
                parent.start + parent.dur
            );
        }
    }

    // ---- Prometheus: headline metrics present, every line valid. ----
    let prom = export::prometheus(&snapshot);
    for metric in [
        "qac_embed_cache_hits_total",
        "qac_embed_cache_misses_total",
        "qac_chain_break_fraction",
        "qac_reads_total",
        "qac_read_energy_bucket",
        "qac_read_chain_break_fraction_bucket",
        "qac_read_energy_quantiles{quantile=\"0.5\"}",
        "qac_read_energy_quantiles_count",
    ] {
        assert!(prom.contains(metric), "Prometheus exposition has {metric}");
    }
    assert!(
        prom.contains("qac_embed_cache_hits_total 1"),
        "warm run registered exactly one cache hit:\n{prom}"
    );
    assert!(prom.contains("qac_reads_total 40"), "20 reads × 2 runs");
    for line in prom.lines().filter(|l| !l.is_empty()) {
        assert!(
            export::is_prometheus_line(line),
            "invalid Prometheus line: {line:?}"
        );
    }
}
