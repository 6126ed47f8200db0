//! The three workloads: what each sets up, what one job does, and how its
//! outputs are checked. See `perfbench/README.md` for why each exists.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use qac_chimera::{
    find_embedding_or_clique_with_stats, topology_embedding_key, EmbedOptions, HardwareGraph,
    Topology, TopologySpec,
};
use qac_core::{
    artifact_mismatch, compile, compile_incremental, verify_certificate, CompileError,
    CompileOptions, Compiled, RunOptions, RunOutcome, SolverChoice, StageDisposition, Trace,
};
use qac_netlist::{CombSim, Netlist};
use qac_solvers::DWaveSimOptions;

use crate::gen::{counter, multiplier, Map, Rng, CIRCSAT, FIGURE2};
use crate::JobRecord;

/// Reads per annealer job (both run workloads).
const READS: usize = 100;

/// Draws `fresh-maps` makes to find a map not yet run.
const MAP_DRAWS: usize = 1000;

/// Telemetry counters a traced job reads, with the per-layer metric each
/// feeds. Heap pops and edge relaxations come from the replayed
/// `EmbedStats` instead: a `DWaveSim` embed adds them to their counters
/// twice (once in the router, once in the simulator).
const COUNTERS: [(&str, &str); 5] = [
    ("qac_route_iterations_total", "chimera.route_iterations"),
    ("qac_embed_restarts_total", "chimera.restarts"),
    ("qac_embed_cache_hits_total", "chimera.cache_hit"),
    (qac_core::CERT_PROVED_COUNTER, "cert.obligations_proved"),
    (qac_core::CERT_SKIPPED_COUNTER, "cert.obligations_skipped"),
];

type Layers = BTreeMap<&'static str, f64>;

/// Copies the counters of a traced job into its layers; called right
/// after the timed region, so checks and replays do not count.
fn read_counters(layers: &mut Option<Layers>) {
    if let Some(layers) = layers {
        let metrics = qac_telemetry::global().metrics();
        for (counter, layer) in COUNTERS {
            layers.insert(layer, metrics.counter(counter) as f64);
        }
    }
}

// Independent random streams of one run seed.
const STREAM_ORDER: u64 = 1 << 40;
const STREAM_JOB: u64 = 2 << 40;
const STREAM_CORPUS: u64 = 3 << 40;

/// The hardware the default `DWaveSim` targets, for embedding keys and
/// the traced run's embedding replay.
struct Hardware {
    topology: TopologySpec,
    graph: HardwareGraph,
    embed: EmbedOptions,
    sweeps: usize,
}

impl Hardware {
    fn new() -> Hardware {
        let sim = DWaveSimOptions::default();
        let topology = sim.topology_spec();
        Hardware {
            graph: topology.graph(),
            topology,
            embed: sim.embed,
            sweeps: sim.anneal_sweeps,
        }
    }

    /// The key the embedding cache would file this program's logical
    /// structure under: equal keys are what a cache can reuse.
    fn key(&self, compiled: &Compiled) -> u64 {
        let (edges, n) = logical_edges(compiled);
        topology_embedding_key(&self.topology, &edges, n, &self.embed, &self.graph)
    }
}

/// The couplings `DWaveSim` embeds: the nonzero ones (pins only add
/// fields, and scaling drops zero couplings).
fn logical_edges(compiled: &Compiled) -> (Vec<(usize, usize)>, usize) {
    let ising = &compiled.assembled.ising;
    let edges = ising
        .j_iter()
        .filter(|t| t.value != 0.0)
        .map(|t| (t.i, t.j))
        .collect();
    (edges, ising.num_vars())
}

/// One of the workloads, set up and ready to run jobs.
pub enum State {
    /// See [`crate::Workload::PaperPins`].
    PaperPins(Box<PaperPins>),
    /// See [`crate::Workload::FreshMaps`].
    FreshMaps(Box<FreshMaps>),
    /// See [`crate::Workload::CompileCorpus`].
    CompileCorpus(CompileCorpus),
}

impl State {
    /// Sets a workload up: compiles its fixed programs or generates its
    /// corpus, then runs one warm-up job so lazy process-wide set-up
    /// (the macro-proof memo, first page faults) is paid here.
    pub fn new(workload: crate::Workload, seed: u64) -> Result<State, String> {
        let mut state = match workload {
            crate::Workload::PaperPins => State::PaperPins(Box::new(PaperPins::new(seed)?)),
            crate::Workload::FreshMaps => State::FreshMaps(Box::new(FreshMaps::new(seed))),
            crate::Workload::CompileCorpus => State::CompileCorpus(CompileCorpus::new(seed)),
        };
        state.warm_up()?;
        Ok(state)
    }

    /// The warm-up job's inputs do not depend on the seed, so set-up does
    /// the same work in every run.
    fn warm_up(&mut self) -> Result<(), String> {
        let rng = &mut Rng::new(0, 0);
        let warm = match self {
            State::PaperPins(w) => w.run_pins(0, false, rng, false),
            State::FreshMaps(w) => w.run_map(&Map::ring(5, rng), false),
            State::CompileCorpus(w) => w.run_entry(0, rng, false),
        };
        match (warm.error, warm.wrong) {
            (None, None) => Ok(()),
            (error, wrong) => Err(format!(
                "warm-up job failed: {}",
                error.or(wrong).unwrap_or_default()
            )),
        }
    }

    /// Jobs per block. Each block holds the workload's whole mix (both
    /// programs in both directions, one map of each size, one pass over
    /// the corpus), and a timed run ends on a block boundary, so every
    /// run measures the same mix.
    pub fn block(&self) -> usize {
        match self {
            State::PaperPins(_) => 4,
            State::FreshMaps(_) => 2,
            State::CompileCorpus(w) => w.corpus.len(),
        }
    }

    /// Runs job `index`, timing it and checking its outputs. A traced
    /// job also attributes its wall time and work to layers.
    pub fn job(&mut self, index: usize, traced: bool) -> JobRecord {
        let telemetry = qac_telemetry::global();
        if traced {
            telemetry.clear();
            telemetry.enable();
        }
        let mut record = match self {
            State::PaperPins(w) => w.job(index, traced),
            State::FreshMaps(w) => w.job(index, traced),
            State::CompileCorpus(w) => w.job(index, traced),
        };
        if traced {
            telemetry.disable();
            telemetry.clear();
            record.layers.get_or_insert_with(Layers::new);
        }
        record
    }
}

/// Adds the stage records of a compile or run trace to their layers.
/// The `sample` aggregate is skipped: its phases are counted one by one,
/// and what it spends outside them stays unattributed.
fn attribute(trace: &Trace, layers: &mut Layers) {
    for stage in trace.stages() {
        let layer = match stage.name.as_str() {
            "verilog-parse" => "verilog.busy_s",
            "unroll" | "optimize" => "netlist.busy_s",
            "edif-write" | "edif-read" => "edif.busy_s",
            "qmasm-gen" | "qmasm-parse" | "assemble" => "qmasm.busy_s",
            "analyze" => "analysis.busy_s",
            "certify" => "cert.busy_s",
            "pin" => "core.pin_s",
            "sample:scale" | "sample:distort" => "pbf.scale_distort_s",
            "sample:embed" => "chimera.embed_s",
            "sample:anneal" => "solvers.anneal_s",
            "sample:unembed" => "solvers.unembed_s",
            "interpret" => "core.interpret_s",
            _ => continue,
        };
        *layers.entry(layer).or_insert(0.0) += stage.duration.as_secs_f64();
    }
}

/// The part of `wall` no attributed layer accounts for.
fn unattributed(wall: f64, layers: &Layers) -> f64 {
    let attributed: f64 = layers
        .iter()
        .filter(|(name, _)| name.ends_with("_s"))
        .map(|(_, secs)| secs)
        .sum();
    wall - attributed
}

/// Layer records of a compile: stage times plus IR sizes.
fn compile_layers(compiled: &Compiled, layers: &mut Layers) {
    attribute(&compiled.trace, layers);
    layers.insert("netlist.cells", compiled.netlist.cells().len() as f64);
    layers.insert("edif.bytes", compiled.edif.len() as f64);
    layers.insert("qmasm.logical_terms", compiled.stats.logical_terms as f64);
}

/// Layer records of an annealer run. The embedding is replayed (outside
/// the job's wall time; routing is deterministic) for what the run does
/// not return: its `EmbedStats`, longest chain and qubit count.
fn run_layers(compiled: &Compiled, outcome: &RunOutcome, hardware: &Hardware, layers: &mut Layers) {
    attribute(&outcome.trace, layers);
    let reads: usize = outcome.samples.iter().map(|s| s.occurrences).sum();
    if let Some(hw) = outcome.hardware {
        let updates = reads * hardware.sweeps * hw.physical_qubits;
        layers.insert("solvers.spin_updates", updates as f64);
        layers.insert("solvers.chain_break_fraction", hw.chain_breaks);
    }
    let (edges, n) = logical_edges(compiled);
    if let Ok((embedding, stats)) = find_embedding_or_clique_with_stats(
        &edges,
        n,
        &hardware.topology,
        &hardware.graph,
        &hardware.embed,
    ) {
        layers.insert("chimera.heap_pops", stats.heap_pops as f64);
        layers.insert("chimera.edge_relaxations", stats.edge_relaxations as f64);
        layers.insert("chimera.max_chain", embedding.max_chain_length() as f64);
        layers.insert(
            "chimera.replayed_qubits",
            embedding.num_physical_qubits() as f64,
        );
    }
}

/// Turns a run's result into a job record: errors, counts, and layers.
fn run_record(
    wall_s: f64,
    compiled: &Compiled,
    result: Result<RunOutcome, CompileError>,
    check: impl Fn(&RunOutcome) -> Result<usize, String>,
    hardware: &Hardware,
    mut layers: Option<Layers>,
) -> JobRecord {
    let mut record = JobRecord {
        wall_s,
        logical_vars: compiled.stats.logical_variables,
        reads: READS,
        ..JobRecord::default()
    };
    match result {
        Ok(outcome) => {
            record.reads = outcome.samples.iter().map(|s| s.occurrences).sum();
            record.physical_qubits = outcome.hardware.map_or(0, |hw| hw.physical_qubits);
            match check(&outcome) {
                Ok(valid) => record.valid_reads = valid,
                Err(wrong) => record.wrong = Some(wrong),
            }
            if let Some(layers) = layers.as_mut() {
                run_layers(compiled, &outcome, hardware, layers);
            }
        }
        Err(error) => {
            if let (Some(layers), CompileError::Embed(_)) = (layers.as_mut(), &error) {
                layers.insert("chimera.embed_failed", 1.0);
            }
            record.error = Some(error.to_string());
        }
    }
    if let Some(layers) = layers.as_mut() {
        layers.insert("core.unattributed_s", unattributed(wall_s, layers));
    }
    record.layers = layers;
    record
}

fn dwave(seed: Option<u64>) -> SolverChoice {
    let mut options = DWaveSimOptions::default();
    if let Some(seed) = seed {
        options.seed = seed;
    }
    SolverChoice::DWave(Box::new(options))
}

/// A pin in the `--pin` syntax: `name := bits`, most significant first.
fn pin_spec(name: &str, width: usize, value: u64) -> String {
    if width == 1 {
        format!("{name} := {value}")
    } else {
        format!("{name}[{}:0] := {value:0width$b}", width - 1)
    }
}

/// A paper program compiled once, with the un-optimized netlist of its
/// source as the independent reference for forward evaluation.
struct PaperProgram {
    compiled: Compiled,
    reference: Netlist,
    inputs: &'static [(&'static str, usize)],
    outputs: &'static [(&'static str, usize)],
    key: u64,
}

impl PaperProgram {
    fn new(
        source: &str,
        top: &str,
        inputs: &'static [(&'static str, usize)],
        outputs: &'static [(&'static str, usize)],
        hardware: &Hardware,
    ) -> Result<PaperProgram, String> {
        let compiled = compile(source, top, &CompileOptions::default())
            .map_err(|e| format!("{top} does not compile: {e}"))?;
        let reference = qac_verilog::compile(source, top)
            .map_err(|e| format!("{top} has no reference netlist: {e}"))?;
        Ok(PaperProgram {
            key: hardware.key(&compiled),
            compiled,
            reference,
            inputs,
            outputs,
        })
    }

    /// Re-checks every valid answer: pins hold, and evaluating the
    /// reference netlist forward on the answer's inputs gives the
    /// answer's outputs. Returns the number of valid reads.
    fn check(&self, pins: &[(&'static str, u64)], outcome: &RunOutcome) -> Result<usize, String> {
        let sim = CombSim::new(&self.reference).map_err(|e| e.to_string())?;
        let mut valid = 0;
        for sample in outcome.samples.iter().filter(|s| s.valid) {
            let value = |name: &str| {
                sample
                    .values
                    .get(name)
                    .ok_or_else(|| format!("a valid answer has no `{name}`"))
            };
            for &(name, want) in pins {
                if value(name)? != want {
                    return Err(format!(
                        "pinned {name} = {want}, answer has {}",
                        value(name)?
                    ));
                }
            }
            let inputs = self
                .inputs
                .iter()
                .map(|&(name, _)| Ok((name, value(name)?)))
                .collect::<Result<Vec<_>, String>>()?;
            let expected = sim.eval_words(&inputs).map_err(|e| e.to_string())?;
            for &(name, _) in self.outputs {
                if expected.get(name) != Some(&value(name)?) {
                    return Err(format!(
                        "inputs {inputs:?} give {name} = {:?}, answer has {}",
                        expected.get(name),
                        value(name)?
                    ));
                }
            }
            valid += sample.occurrences;
        }
        Ok(valid)
    }
}

/// Anneal-bound, repeated programs: Figure 2 and Listing 5, compiled
/// once, each job one `Compiled::run` forward or backward.
pub struct PaperPins {
    seed: u64,
    programs: [PaperProgram; 2],
    hardware: Hardware,
    seen: HashSet<u64>,
}

impl PaperPins {
    fn new(seed: u64) -> Result<PaperPins, String> {
        let hardware = Hardware::new();
        let programs = [
            PaperProgram::new(
                FIGURE2,
                "circuit",
                &[("s", 1), ("a", 1), ("b", 1)],
                &[("c", 2)],
                &hardware,
            )?,
            PaperProgram::new(
                CIRCSAT,
                "circsat",
                &[("a", 1), ("b", 1), ("c", 1)],
                &[("y", 1)],
                &hardware,
            )?,
        ];
        Ok(PaperPins {
            seed,
            programs,
            hardware,
            seen: HashSet::new(),
        })
    }

    /// Job `index`: each block of four jobs runs both programs in both
    /// directions, in a seeded order.
    fn job(&mut self, index: usize, traced: bool) -> JobRecord {
        let mut order = [(0, false), (0, true), (1, false), (1, true)];
        Rng::new(self.seed, STREAM_ORDER ^ (index / 4) as u64).shuffle(&mut order);
        let (which, backward) = order[index % 4];
        let mut rng = Rng::new(self.seed, STREAM_JOB ^ index as u64);
        self.run_pins(which, backward, &mut rng, traced)
    }

    /// Runs program `which` forward or backward, with pin values and the
    /// sampler seed drawn from `rng`.
    fn run_pins(&mut self, which: usize, backward: bool, rng: &mut Rng, traced: bool) -> JobRecord {
        let program = &self.programs[which];
        let ports = if backward {
            program.outputs
        } else {
            program.inputs
        };
        let pins: Vec<(&'static str, u64)> = ports
            .iter()
            .map(|&(name, width)| (name, rng.next_u64() & ((1 << width) - 1)))
            .collect();
        let widths = ports.iter().map(|&(_, width)| width);
        let mut options = RunOptions::new()
            .solver(dwave(Some(rng.next_u64())))
            .num_reads(READS);
        for (&(name, value), width) in pins.iter().zip(widths) {
            options = options.pin(&pin_spec(name, width, value));
        }

        let mut layers = traced.then(Layers::new);
        let start = Instant::now();
        let result = program.compiled.run(&options);
        let wall_s = start.elapsed().as_secs_f64();
        read_counters(&mut layers);

        let mut record = run_record(
            wall_s,
            &program.compiled,
            result,
            |outcome| program.check(&pins, outcome),
            &self.hardware,
            layers,
        );
        record.repeat = !self.seen.insert(program.key);
        record
    }
}

/// Embed-heavy, never-repeating programs: a fresh four-coloring
/// verifier per job, compiled and run backward.
pub struct FreshMaps {
    seed: u64,
    hardware: Hardware,
    graphs: HashSet<Vec<(usize, usize)>>,
    seen: HashSet<u64>,
}

impl FreshMaps {
    fn new(seed: u64) -> FreshMaps {
        FreshMaps {
            seed,
            hardware: Hardware::new(),
            graphs: HashSet::new(),
            seen: HashSet::new(),
        }
    }

    /// Job `index`: each pair of jobs has one ring map of 5 and one of 6
    /// regions, in a seeded order; no border graph repeats within a run
    /// (after [`MAP_DRAWS`] draws of already-seen maps a repeat is run
    /// and shows in `chimera.repeat_share`).
    fn job(&mut self, index: usize, traced: bool) -> JobRecord {
        let mut sizes = [5, 6];
        Rng::new(self.seed, STREAM_ORDER ^ (index / 2) as u64).shuffle(&mut sizes);
        let regions = sizes[index % 2];
        let mut rng = Rng::new(self.seed, STREAM_JOB ^ index as u64);
        let mut map = Map::ring(regions, &mut rng);
        for _ in 0..MAP_DRAWS {
            if self.graphs.insert(map.graph()) {
                break;
            }
            map = Map::ring(regions, &mut rng);
        }
        self.run_map(&map, traced)
    }

    fn run_map(&mut self, map: &Map, traced: bool) -> JobRecord {
        let source = map.verilog("map");
        let options = RunOptions::new()
            .pin("valid := true")
            .solver(dwave(None))
            .num_reads(READS);
        let mut layers = traced.then(Layers::new);

        let start = Instant::now();
        let job = compile(&source, "map", &CompileOptions::default()).map(|compiled| {
            let result = compiled.run(&options);
            (compiled, result)
        });
        let wall_s = start.elapsed().as_secs_f64();
        read_counters(&mut layers);

        let (compiled, result) = match job {
            Ok(done) => done,
            Err(error) => {
                return JobRecord {
                    wall_s,
                    reads: READS,
                    error: Some(error.to_string()),
                    ..JobRecord::default()
                }
            }
        };
        if let Some(layers) = layers.as_mut() {
            compile_layers(&compiled, layers);
        }
        let mut record = run_record(
            wall_s,
            &compiled,
            result,
            |outcome| check_coloring(map, outcome),
            &self.hardware,
            layers,
        );
        record.repeat = !self.seen.insert(self.hardware.key(&compiled));
        record
    }
}

/// Checks every valid coloring against the map's borders; returns the
/// number of valid reads.
fn check_coloring(map: &Map, outcome: &RunOutcome) -> Result<usize, String> {
    let mut valid = 0;
    for sample in outcome.samples.iter().filter(|s| s.valid) {
        let color = |region: usize| {
            sample
                .values
                .get(&format!("R{region}"))
                .ok_or_else(|| format!("a valid coloring has no R{region}"))
        };
        if sample.values.get("valid") != Some(1) {
            return Err("a valid answer has valid != 1".to_string());
        }
        for &(a, b) in &map.borders {
            if color(a)? == color(b)? {
                return Err(format!(
                    "R{a} and R{b} border but share color {}",
                    color(a)?
                ));
            }
        }
        valid += sample.occurrences;
    }
    Ok(valid)
}

/// One program of the compile corpus.
enum Program {
    Multiplier(usize),
    Counter { steps: usize },
    Map(Map),
}

impl Program {
    fn top(&self) -> &'static str {
        match self {
            Program::Multiplier(_) => "mult",
            Program::Counter { .. } => "count",
            Program::Map(_) => "map",
        }
    }

    fn options(&self) -> CompileOptions {
        CompileOptions {
            unroll_steps: match self {
                Program::Counter { steps } => Some(*steps),
                _ => None,
            },
            ..CompileOptions::default()
        }
    }

    fn source(&self) -> String {
        match self {
            Program::Multiplier(n) => multiplier(*n, None),
            Program::Counter { .. } => counter(1),
            Program::Map(map) => map.verilog("map"),
        }
    }

    /// The source after a seeded one-line edit.
    fn edited(&self, rng: &mut Rng) -> String {
        match self {
            Program::Multiplier(n) => multiplier(*n, Some(rng.below(2 * n))),
            Program::Counter { .. } => counter(2 + rng.below(6) as u64),
            Program::Map(map) => map
                .with_border_moved(rng.below(map.borders.len()), rng)
                .verilog("map"),
        }
    }
}

/// Compile-bound, no sampling: cold compiles of a generated corpus, each
/// followed by an incremental recompile after a one-line edit.
pub struct CompileCorpus {
    seed: u64,
    corpus: Vec<Program>,
}

impl CompileCorpus {
    /// The corpus: 6×6 to 16×16 multipliers, Listing 3's counter
    /// unrolled 4 to 8 steps, and seeded maps of 8 to 20 regions.
    fn new(seed: u64) -> CompileCorpus {
        let mut rng = Rng::new(seed, STREAM_CORPUS);
        let corpus = (6..=16)
            .map(Program::Multiplier)
            .chain((4..=8).map(|steps| Program::Counter { steps }))
            .chain(
                (8..=20)
                    .map(|regions| Program::Map(Map::random(regions, 2 * regions - 3, &mut rng))),
            )
            .collect();
        CompileCorpus { seed, corpus }
    }

    /// Job `index`: every pass over the corpus visits each program once,
    /// in a seeded order.
    fn job(&mut self, index: usize, traced: bool) -> JobRecord {
        let n = self.corpus.len();
        let mut order: Vec<usize> = (0..n).collect();
        Rng::new(self.seed, STREAM_ORDER ^ (index / n) as u64).shuffle(&mut order);
        let mut rng = Rng::new(self.seed, STREAM_JOB ^ index as u64);
        self.run_entry(order[index % n], &mut rng, traced)
    }

    /// Cold-compiles one program (the job), recompiles it incrementally
    /// after an edit (timed on its own), then checks both results: each
    /// certificate re-verifies, and the incremental artifacts equal a
    /// cold compile of the edited source.
    fn run_entry(&self, entry: usize, rng: &mut Rng, traced: bool) -> JobRecord {
        let program = &self.corpus[entry];
        let (top, options, source) = (program.top(), program.options(), program.source());
        let edited = program.edited(rng);

        let mut layers = traced.then(Layers::new);
        let start = Instant::now();
        let cold = compile(&source, top, &options);
        let wall_s = start.elapsed().as_secs_f64();
        read_counters(&mut layers);
        let cold = match cold {
            Ok(cold) => cold,
            Err(error) => {
                return JobRecord {
                    wall_s,
                    reads: 2,
                    error: Some(format!("{top}: {error}")),
                    ..JobRecord::default()
                }
            }
        };
        let start = Instant::now();
        let incremental = compile_incremental(&cold, &edited, top, &options);
        let edit_s = start.elapsed().as_secs_f64();

        let mut record = JobRecord {
            wall_s,
            edit_s: Some(edit_s),
            logical_vars: cold.stats.logical_variables,
            reads: 2,
            ..JobRecord::default()
        };
        let (incremental, report) = match incremental {
            Ok(done) => done,
            Err(error) => {
                record.error = Some(format!("{top} (edited): {error}"));
                return record;
            }
        };
        let checked = certified(&cold).and_then(|()| {
            let reference = compile(&edited, top, &options)
                .map_err(|e| format!("edited {top} does not compile cold: {e}"))?;
            if let Some(diff) = artifact_mismatch(&incremental, &reference) {
                return Err(format!(
                    "incremental {top} differs from a cold compile: {diff}"
                ));
            }
            certified(&incremental)
        });
        match checked {
            Ok(()) => record.valid_reads = 2,
            Err(wrong) => record.wrong = Some(wrong),
        }
        if let Some(mut layers) = layers {
            compile_layers(&cold, &mut layers);
            layers.insert("core.unattributed_s", unattributed(wall_s, &layers));
            layers.insert("incr.busy_s", edit_s);
            let skipped = report.skipped();
            layers.insert("incr.stages_skipped", skipped as f64);
            layers.insert("incr.stages_rerun", (report.stages.len() - skipped) as f64);
            let spliced = report
                .stages
                .iter()
                .filter(|(_, d)| matches!(d, StageDisposition::Spliced { .. }))
                .count();
            layers.insert("incr.stages_spliced", spliced as f64);
            record.layers = Some(layers);
        }
        record
    }
}

/// The compile carries a certificate and it re-verifies independently.
fn certified(compiled: &Compiled) -> Result<(), String> {
    let certificate = compiled
        .certificate
        .as_ref()
        .ok_or("compile carries no certificate")?;
    match verify_certificate(certificate)
        .iter()
        .find(|issue| issue.kind.is_error())
    {
        Some(issue) => Err(format!("certificate does not re-verify: {issue:?}")),
        None => Ok(()),
    }
}
