//! End-to-end benchmark of the Verilog → annealer pipeline: time to a
//! valid answer per workload, with a traced mode that attributes each
//! job's wall time and work to the pipeline's layers.
//!
//! One process, one client in a closed loop, one worker thread. See
//! `README.md` beside this crate for the workloads and the metrics.

pub mod gen;
pub mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use qac_telemetry::json::Json;
use stats::{mean, quantile, tts99};
pub use workloads::State;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The gated end-to-end metrics `(name, unit)`, reported by every
/// workload (see `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("jobs_per_s", "1/s"),
    ("tts99_s", "s"),
    ("valid_fraction", "fraction"),
    ("solved_fraction", "fraction"),
    ("logical_vars", "count"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics `(name, unit)` of a traced run.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("solvers.anneal_s", "s"),
    ("solvers.spin_updates", "count"),
    ("solvers.chain_break_fraction", "fraction"),
    ("solvers.unembed_s", "s"),
    ("chimera.embed_s", "s"),
    ("chimera.embed_p90_s", "s"),
    ("chimera.route_iterations", "count"),
    ("chimera.heap_pops", "count"),
    ("chimera.edge_relaxations", "count"),
    ("chimera.restarts", "count"),
    ("chimera.embed_failed", "fraction"),
    ("chimera.max_chain", "qubits"),
    ("chimera.cache_hit_ratio", "fraction"),
    ("chimera.repeat_share", "fraction"),
    ("pbf.scale_distort_s", "s"),
    ("core.pin_s", "s"),
    ("core.interpret_s", "s"),
    ("verilog.busy_s", "s"),
    ("netlist.busy_s", "s"),
    ("netlist.cells", "count"),
    ("edif.busy_s", "s"),
    ("edif.bytes", "bytes"),
    ("qmasm.busy_s", "s"),
    ("qmasm.logical_terms", "count"),
    ("analysis.busy_s", "s"),
    ("cert.busy_s", "s"),
    ("cert.p90_s", "s"),
    ("cert.obligations_proved", "count"),
    ("cert.obligations_skipped", "count"),
    ("incr.busy_s", "s"),
    ("incr.stages_skipped", "count"),
    ("incr.stages_rerun", "count"),
    ("incr.stages_spliced", "count"),
    ("core.unattributed_s", "s"),
    ("core.trace_overhead_ratio", "ratio"),
    ("core.traced_jobs", "count"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Anneal-bound, repeated programs: Figure 2 and Listing 5 run
    /// forward or backward through the default `DWaveSim`.
    PaperPins,
    /// Embed-heavy, never-repeating programs: a fresh 5- or 6-region
    /// ring-map verifier per job, compiled and run backward.
    FreshMaps,
    /// Compile-bound, no sampling: cold compiles of a generated corpus,
    /// each followed by an incremental recompile after a one-line edit.
    CompileCorpus,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperPins,
        Workload::FreshMaps,
        Workload::CompileCorpus,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperPins => "paper-pins",
            Workload::FreshMaps => "fresh-maps",
            Workload::CompileCorpus => "compile-corpus",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn samples(self) -> bool {
        self != Workload::CompileCorpus
    }
}

/// What one job did. For `compile-corpus`, the answers are the cold and
/// the incremental compile (two per job), and an answer is valid when it
/// passes the benchmark's checks.
#[derive(Debug, Clone, Default)]
pub struct JobRecord {
    /// Wall time of the job's timed region.
    pub wall_s: f64,
    /// The error a call returned, if any.
    pub error: Option<String>,
    /// The first wrong answer found by the checks, if any.
    pub wrong: Option<String>,
    /// Answers attempted (annealer reads, or compiles).
    pub reads: usize,
    /// Answers that are valid and pass the checks.
    pub valid_reads: usize,
    /// Logical variables of the compiled program.
    pub logical_vars: usize,
    /// Physical qubits of the embedding (`0` when nothing embedded).
    pub physical_qubits: usize,
    /// Wall time of the incremental recompile (`compile-corpus`).
    pub edit_s: Option<f64>,
    /// The embedding-cache key of this job's program was already seen
    /// earlier in the run.
    pub repeat: bool,
    /// Per-layer times and counts (traced jobs only).
    pub layers: Option<BTreeMap<&'static str, f64>>,
}

impl JobRecord {
    /// The job errored or gave a wrong answer.
    pub fn failed(&self) -> bool {
        self.error.is_some() || self.wrong.is_some()
    }
}

/// When a run stops.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Start no block of jobs after this many seconds of measurement
    /// (see [`State::block`]).
    Seconds(f64),
    /// Run exactly this many jobs.
    Jobs(usize),
}

/// The record of one run.
#[derive(Debug)]
pub struct Run {
    /// The workload run.
    pub workload: Workload,
    /// Wall time of each set-up.
    pub setup_s: Vec<f64>,
    /// Every job, in order.
    pub jobs: Vec<JobRecord>,
    /// Peak resident set of the process at the end of the run.
    pub peak_rss_mb: f64,
}

/// Sets `workload` up [`SETUP_REPS`] times, then runs jobs in a closed
/// loop until `limit`. With `trace`, every other block of jobs is traced,
/// so the untraced ones measure the tracing overhead in the same process.
///
/// # Errors
/// When set-up fails (a fixed program does not compile or its warm-up
/// job fails).
pub fn run(workload: Workload, seed: u64, limit: Limit, trace: bool) -> Result<Run, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        state = Some(State::new(workload, seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut state = state.expect("SETUP_REPS is positive");
    let start = Instant::now();
    let mut jobs = Vec::new();
    loop {
        let done = match limit {
            Limit::Seconds(seconds) => {
                jobs.len() % state.block() == 0 && start.elapsed().as_secs_f64() >= seconds
            }
            Limit::Jobs(n) => jobs.len() >= n,
        };
        if done {
            break;
        }
        // Whole blocks alternate, so traced and untraced jobs share a mix.
        let traced = trace && (jobs.len() / state.block()) % 2 == 0;
        jobs.push(state.job(jobs.len(), traced));
    }
    Ok(Run {
        workload,
        setup_s,
        jobs,
        peak_rss_mb: stats::peak_rss_mb(),
    })
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Run {
    fn untraced(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(|j| j.layers.is_none())
    }

    fn traced(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(|j| j.layers.is_some())
    }

    /// Jobs that failed.
    pub fn failed(&self) -> usize {
        self.jobs.iter().filter(|j| j.failed()).count()
    }

    /// No check found a wrong answer.
    pub fn correct(&self) -> bool {
        self.jobs.iter().all(|j| j.wrong.is_none())
    }

    /// The gated end-to-end metrics, in [`END_TO_END`] order, over the
    /// untraced jobs.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let jobs: Vec<&JobRecord> = self.untraced().collect();
        let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
        let n = jobs.len().max(1) as f64;
        let mean_wall = mean(walls.iter().copied());
        let reads: usize = jobs.iter().map(|j| j.reads).sum();
        let valid: usize = jobs.iter().map(|j| j.valid_reads).sum();
        let valid_fraction = valid as f64 / reads.max(1) as f64;
        let values = [
            quantile(&self.setup_s, 0.5),
            quantile(&walls, 0.5),
            quantile(&walls, 0.9),
            jobs.len() as f64 / walls.iter().sum::<f64>(),
            tts99(mean_wall, reads as f64 / n, valid_fraction),
            valid_fraction,
            jobs.iter().filter(|j| j.valid_reads > 0).count() as f64 / n,
            mean(
                jobs.iter()
                    .filter(|j| j.logical_vars > 0)
                    .map(|j| j.logical_vars as f64),
            ),
            self.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }

    /// End-to-end numbers that apply to this workload only, so they are
    /// printed but not gated: the failed fraction (normally 0), physical
    /// qubits (run workloads) and the edit latency (`compile-corpus`).
    pub fn reported(&self) -> Vec<Metric> {
        let jobs: Vec<&JobRecord> = self.untraced().collect();
        let mut out = vec![Metric {
            name: "failed_fraction",
            value: jobs.iter().filter(|j| j.failed()).count() as f64 / jobs.len().max(1) as f64,
            unit: "fraction",
        }];
        if self.workload.samples() {
            out.push(Metric {
                name: "physical_qubits",
                value: mean(
                    jobs.iter()
                        .filter(|j| j.physical_qubits > 0)
                        .map(|j| j.physical_qubits as f64),
                ),
                unit: "count",
            });
        } else {
            let edits: Vec<f64> = jobs.iter().filter_map(|j| j.edit_s).collect();
            out.push(Metric {
                name: "edit_p50_s",
                value: quantile(&edits, 0.5),
                unit: "s",
            });
        }
        out
    }

    /// The per-layer metrics, in [`PER_LAYER`] order: per-job means over
    /// the traced jobs unless the name says otherwise. A layer a
    /// workload never reaches reads 0.
    pub fn per_layer(&self) -> Vec<Metric> {
        let traced: Vec<&BTreeMap<&str, f64>> =
            self.traced().filter_map(|j| j.layers.as_ref()).collect();
        let per_job = |name: &str| mean(traced.iter().map(|l| l.get(name).copied().unwrap_or(0.0)));
        let present = |name: &str| -> Vec<f64> {
            traced.iter().filter_map(|l| l.get(name).copied()).collect()
        };
        let p90 = |name: &str| {
            let values = present(name);
            if values.is_empty() {
                0.0
            } else {
                quantile(&values, 0.9)
            }
        };
        let embedded = traced.iter().filter(|l| l.contains_key("chimera.embed_s"));
        let hits = mean(embedded.map(|l| l.get("chimera.cache_hit").copied().unwrap_or(0.0)));
        let repeats = if self.workload.samples() {
            mean(self.jobs.iter().map(|j| f64::from(u8::from(j.repeat))))
        } else {
            0.0
        };
        let traced_walls: Vec<f64> = self.traced().map(|j| j.wall_s).collect();
        let untraced_walls: Vec<f64> = self.untraced().map(|j| j.wall_s).collect();
        let overhead = quantile(&traced_walls, 0.5) / quantile(&untraced_walls, 0.5);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "chimera.embed_p90_s" => p90("chimera.embed_s"),
                    "cert.p90_s" => p90("cert.busy_s"),
                    "chimera.cache_hit_ratio" => hits,
                    "chimera.repeat_share" => repeats,
                    "core.trace_overhead_ratio" => overhead,
                    "core.traced_jobs" => traced.len() as f64,
                    _ => per_job(name),
                };
                Metric { name, value, unit }
            })
            .collect()
    }
}

/// Renders the result line: `correct`, `attempted`, `failed` and the
/// metrics (a non-finite value is written as `null`).
pub fn result_json(run: &Run, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = Json::Obj(vec![
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::Str(m.unit.to_string())),
            ]);
            (m.name.to_string(), value)
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(run.correct())),
        ("attempted".to_string(), Json::Num(run.jobs.len() as f64)),
        ("failed".to_string(), Json::Num(run.failed() as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .to_string()
}
