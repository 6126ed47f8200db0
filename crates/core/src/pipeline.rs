//! The compile pipeline: Verilog → netlist → EDIF → QMASM → logical
//! Ising model, with every intermediate artifact retained (the §6.1
//! static-properties experiment measures them).
//!
//! The pipeline is an explicit sequence of [`Stage`]s executed by a
//! [`Session`]: each step — unroll, optimize, the EDIF round trip,
//! QMASM generation, parsing, assembly, analysis, certification — is a
//! named stage whose wall time and artifact sizes are recorded into the
//! [`Trace`] carried on [`Compiled`].
//!
//! One driver, `drive`, runs that sequence for every compile. A cold
//! compile passes no previous result and runs every stage; an
//! incremental one ([`crate::compile_incremental`]) passes the previous
//! [`Compiled`], and each stage replays, splices or re-runs depending on
//! whether the previous result's content key for it matches.

use std::sync::Arc;

use qac_analysis::{analyze_assembled, AnalysisOptions, AnalysisReport, Diagnostics};
use qac_cert::CompileCertificate;
use qac_chimera::{EmbedOptions, EmbeddingCache};
use qac_edif::{from_edif, to_edif};
use qac_gatesynth::CellLibrary;
use qac_netlist::unroll::{unroll, InitialState};
use qac_netlist::{opt, Netlist, NetlistStats};
use qac_qmasm::{
    assemble, assemble_incremental, parse, stdcell_qmasm, AssembleOptions, Assembled, MapIncludes,
    Program,
};
use qac_telemetry::Trace;

use crate::incr::{IncrState, IncrementalReport, StageDisposition};
use crate::qmasm_gen::{generate, GenOutput};
use crate::stage::{Session, Stage};
use crate::CompileError;

/// Options controlling compilation.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Optimization level: 0 = none, 1 = cleanup, 2 = full (default).
    pub opt_level: u8,
    /// Unroll sequential designs over this many time steps (§4.3.3).
    /// `None` (default) treats flip-flops as intra-step identities.
    pub unroll_steps: Option<usize>,
    /// Initial flip-flop state when unrolling.
    pub unroll_initial: InitialState,
    /// Merge `=` chains into single variables (§4.4 optimization).
    pub merge_chains: bool,
    /// Chain strength for unmerged chains (`None` = qmasm default).
    pub chain_strength: Option<f64>,
    /// Default minor-embedding options for downstream runs.
    pub embed: EmbedOptions,
    /// Static-analysis options for the `analyze` stage. Error-severity
    /// diagnostics reject the program at compile time.
    pub analysis: AnalysisOptions,
    /// Run the `certify` translation-validation stage (DESIGN.md §15):
    /// prove the optimized netlist equivalent to the unrolled source and
    /// every instantiated macro's ground space correct, and attach the
    /// machine-checkable certificate to [`Compiled::certificate`]. On by
    /// default; a failed proof rejects the compile.
    pub certify: bool,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            opt_level: 2,
            unroll_steps: None,
            unroll_initial: InitialState::Zero,
            merge_chains: true,
            chain_strength: None,
            embed: EmbedOptions::default(),
            analysis: AnalysisOptions::default(),
            certify: true,
        }
    }
}

/// Static size measurements across the pipeline (paper §6.1).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineStats {
    /// Non-blank lines of Verilog source.
    pub verilog_lines: usize,
    /// Lines of generated EDIF.
    pub edif_lines: usize,
    /// Lines of generated QMASM (excluding the standard-cell library, as
    /// the paper counts it).
    pub qmasm_lines: usize,
    /// Lines of the included standard-cell library.
    pub stdcell_lines: usize,
    /// Logical variables after chain merging.
    pub logical_variables: usize,
    /// Nonzero terms in the logical Hamiltonian.
    pub logical_terms: usize,
    /// Gate-level statistics of the (optimized) netlist.
    pub netlist: NetlistStats,
}

/// A compiled program: every pipeline artifact plus the logical model.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The optimized, combinational gate-level netlist that was lowered.
    pub netlist: Netlist,
    /// The EDIF text the pipeline round-tripped through.
    pub edif: String,
    /// The generated QMASM program (without the included library body).
    pub qmasm: String,
    /// The generated standard-cell library text.
    pub stdcell: String,
    /// The assembled logical model, symbols, pins, and asserts.
    pub assembled: Assembled,
    /// The energy every valid (relation-satisfying) assignment reaches:
    /// the sum of the instantiated cells' ground energies plus constant
    /// pin contributions (and, with `merge_chains: false`, the chain
    /// couplings). Samples above this energy violate the program.
    pub expected_ground_energy: f64,
    /// The static analyzer's report over the assembled model (empty when
    /// the analyzer is disabled).
    pub analysis: AnalysisReport,
    /// The parsed QMASM program the model was assembled from (kept so an
    /// incremental recompile can splice against it).
    pub program: Program,
    /// The translation-validation certificate the `certify` stage built
    /// and checked (`None` when [`CompileOptions::certify`] is off). The
    /// back-end obligation is attached at embed time by callers that
    /// embed (see [`crate::backend_obligation`]).
    pub certificate: Option<CompileCertificate>,
    /// Static measurements.
    pub stats: PipelineStats,
    /// Per-stage wall time and artifact sizes of this compilation.
    pub trace: Trace,
    /// The options used (downstream runs reuse the embed settings).
    pub options: CompileOptions,
    /// Content keys and reuse units for [`crate::compile_incremental`].
    pub incr: IncrState,
    /// Keeps the process-wide [`EmbeddingCache::shared`] alive while this
    /// program lives, so default-option hardware-model runs of it route
    /// once. Runs look embeddings up through
    /// `DWaveSimOptions::embedding_cache`, never through this handle.
    _shared_embeddings: Arc<EmbeddingCache>,
}

impl Compiled {
    /// The analyzer's diagnostics (empty when analysis was disabled).
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.analysis.diagnostics
    }
}

// ---------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------

/// Verilog source → netlist (the Yosys role).
pub(crate) struct VerilogStage<'a> {
    pub(crate) source: &'a str,
    pub(crate) top: &'a str,
}

impl Stage for VerilogStage<'_> {
    type Input = ();
    type Output = Netlist;
    fn name(&self) -> &'static str {
        "verilog-parse"
    }
    fn run(&self, (): ()) -> Result<Netlist, CompileError> {
        Ok(qac_verilog::compile(self.source, self.top)?)
    }
    fn input_size(&self, (): &()) -> usize {
        self.source.len()
    }
    fn output_size(&self, netlist: &Netlist) -> usize {
        netlist.cells().len()
    }
}

/// Time-unrolls sequential logic (§4.3.3); identity when no step count
/// was requested.
pub(crate) struct UnrollStage {
    pub(crate) steps: Option<usize>,
    pub(crate) initial: InitialState,
}

impl Stage for UnrollStage {
    type Input = Netlist;
    type Output = Netlist;
    fn name(&self) -> &'static str {
        "unroll"
    }
    fn run(&self, netlist: Netlist) -> Result<Netlist, CompileError> {
        match self.steps {
            Some(0) => Err(CompileError::Pipeline(
                "unroll_steps must be at least 1".into(),
            )),
            Some(steps) => Ok(unroll(&netlist, steps, self.initial)),
            None => Ok(netlist),
        }
    }
    fn input_size(&self, netlist: &Netlist) -> usize {
        netlist.cells().len()
    }
    fn output_size(&self, netlist: &Netlist) -> usize {
        netlist.cells().len()
    }
}

/// Gate-level optimization (the ABC role) plus validation.
pub(crate) struct OptimizeStage {
    pub(crate) opt_level: u8,
}

impl Stage for OptimizeStage {
    type Input = Netlist;
    type Output = Netlist;
    fn name(&self) -> &'static str {
        "optimize"
    }
    fn run(&self, mut netlist: Netlist) -> Result<Netlist, CompileError> {
        if self.opt_level >= 2 {
            opt::optimize(&mut netlist);
        } else if self.opt_level == 1 {
            opt::merge_buffers(&mut netlist);
            opt::eliminate_dead(&mut netlist);
        }
        netlist.validate()?;
        Ok(netlist)
    }
    fn input_size(&self, netlist: &Netlist) -> usize {
        netlist.cells().len()
    }
    fn output_size(&self, netlist: &Netlist) -> usize {
        netlist.cells().len()
    }
}

/// Netlist → EDIF text.
pub(crate) struct EdifWriteStage;

impl Stage for EdifWriteStage {
    type Input = Netlist;
    type Output = String;
    fn name(&self) -> &'static str {
        "edif-write"
    }
    fn run(&self, netlist: Netlist) -> Result<String, CompileError> {
        Ok(to_edif(&netlist))
    }
    fn input_size(&self, netlist: &Netlist) -> usize {
        netlist.cells().len()
    }
    fn output_size(&self, edif: &String) -> usize {
        edif.len()
    }
}

/// EDIF text → netlist (the round trip the original toolchain takes).
pub(crate) struct EdifReadStage<'a> {
    pub(crate) edif: &'a str,
}

impl Stage for EdifReadStage<'_> {
    type Input = ();
    type Output = Netlist;
    fn name(&self) -> &'static str {
        "edif-read"
    }
    fn run(&self, (): ()) -> Result<Netlist, CompileError> {
        Ok(from_edif(self.edif)?)
    }
    fn input_size(&self, (): &()) -> usize {
        self.edif.len()
    }
    fn output_size(&self, netlist: &Netlist) -> usize {
        netlist.cells().len()
    }
}

/// Netlist → QMASM program text + standard-cell library text (the
/// `edif2qmasm` role). With `reuse` (the previous compile's per-cell
/// blocks and a changed-cell mask), only changed cells are regenerated
/// and the rest are copied (DESIGN.md §14).
pub(crate) struct QmasmGenStage<'a> {
    pub(crate) netlist: &'a Netlist,
    pub(crate) library: &'a CellLibrary,
    pub(crate) reuse: Option<(&'a [String], &'a [bool])>,
}

impl Stage for QmasmGenStage<'_> {
    type Input = ();
    type Output = (GenOutput, String);
    fn name(&self) -> &'static str {
        "qmasm-gen"
    }
    fn run(&self, (): ()) -> Result<(GenOutput, String), CompileError> {
        Ok((
            generate(self.netlist, self.reuse),
            stdcell_qmasm(self.library),
        ))
    }
    fn input_size(&self, (): &()) -> usize {
        self.netlist.cells().len()
    }
    fn output_size(&self, (gen, stdcell): &(GenOutput, String)) -> usize {
        gen.text.len() + stdcell.len()
    }
}

/// QMASM text → parsed program.
pub(crate) struct QmasmParseStage<'a> {
    pub(crate) qmasm: &'a str,
    pub(crate) includes: &'a MapIncludes,
}

impl Stage for QmasmParseStage<'_> {
    type Input = ();
    type Output = Program;
    fn name(&self) -> &'static str {
        "qmasm-parse"
    }
    fn run(&self, (): ()) -> Result<Program, CompileError> {
        Ok(parse(self.qmasm, self.includes)?)
    }
    fn input_size(&self, (): &()) -> usize {
        self.qmasm.len()
    }
    fn output_size(&self, program: &Program) -> usize {
        program.statements.len()
    }
}

/// Parsed program → assembled logical Ising model. With `prev` (the
/// previous assembly and its program) the stage first tries
/// [`qac_qmasm::assemble_incremental`] and falls back to a full assembly;
/// the second output element carries the `(reused, redone)` statement
/// counts when the splice succeeded.
pub(crate) struct AssembleStage<'a> {
    pub(crate) program: &'a Program,
    pub(crate) options: AssembleOptions,
    pub(crate) prev: Option<(&'a Assembled, &'a Program)>,
}

impl Stage for AssembleStage<'_> {
    type Input = ();
    type Output = (Assembled, Option<(usize, usize)>);
    fn name(&self) -> &'static str {
        "assemble"
    }
    fn run(&self, (): ()) -> Result<(Assembled, Option<(usize, usize)>), CompileError> {
        if let Some((prev, prev_program)) = self.prev {
            if let Some(splice) =
                assemble_incremental(prev, prev_program, self.program, &self.options)?
            {
                let counts = (splice.reused_statements, splice.redone_statements);
                return Ok((splice.assembled, Some(counts)));
            }
        }
        Ok((assemble(self.program, &self.options)?, None))
    }
    fn input_size(&self, (): &()) -> usize {
        self.program.statements.len()
    }
    fn output_size(&self, (assembled, _): &(Assembled, Option<(usize, usize)>)) -> usize {
        assembled.ising.num_terms(1e-12)
    }
}

/// Assembled model → static-analysis report (lint passes, §6-style
/// model audits). Error-severity diagnostics abort compilation.
pub(crate) struct AnalyzeStage<'a> {
    pub(crate) assembled: &'a Assembled,
    pub(crate) program: &'a Program,
    pub(crate) options: &'a AnalysisOptions,
}

impl Stage for AnalyzeStage<'_> {
    type Input = ();
    type Output = AnalysisReport;
    fn name(&self) -> &'static str {
        "analyze"
    }
    fn run(&self, (): ()) -> Result<AnalysisReport, CompileError> {
        Ok(analyze_assembled(
            self.assembled,
            Some(self.program),
            self.options,
        ))
    }
    fn input_size(&self, (): &()) -> usize {
        self.assembled.ising.num_terms(1e-12)
    }
    fn output_size(&self, report: &AnalysisReport) -> usize {
        report.diagnostics.len()
    }
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

/// Compiles Verilog source to a logical Ising program.
///
/// # Errors
/// Any [`CompileError`] stage failure.
pub fn compile(
    source: &str,
    top: &str,
    options: &CompileOptions,
) -> Result<Compiled, CompileError> {
    let _span = qac_telemetry::global().span("compile");
    let source_key = crate::incr::source_fingerprint(source, top);
    compile_source(None, source, top, options, source_key).map(|(compiled, _)| compiled)
}

/// Compiles an already-built netlist (skipping the Verilog frontend).
///
/// # Errors
/// Any [`CompileError`] stage failure.
pub fn compile_netlist(
    netlist: Netlist,
    options: &CompileOptions,
) -> Result<Compiled, CompileError> {
    let _span = qac_telemetry::global().span("compile");
    let netlist_key = Some(netlist.structural_hash());
    drive(Session::new(), None, netlist, 0, options, None, netlist_key)
        .map(|(compiled, _)| compiled)
}

/// The Verilog entry point of [`drive`]: parses `source`, then compiles
/// the netlist it lowers to.
pub(crate) fn compile_source(
    prev: Option<&Compiled>,
    source: &str,
    top: &str,
    options: &CompileOptions,
    source_key: u64,
) -> Result<(Compiled, IncrementalReport), CompileError> {
    let mut session = Session::new();
    let netlist = session.run(&VerilogStage { source, top }, ())?;
    let verilog_lines = source.lines().filter(|l| !l.trim().is_empty()).count();
    drive(
        session,
        prev,
        netlist,
        verilog_lines,
        options,
        Some(source_key),
        None,
    )
}

/// The one compile driver: unroll → optimize → EDIF round trip →
/// qmasm-gen → qmasm-parse → assemble → analyze → certify.
///
/// Without `prev` every stage runs in full. With `prev` (a compile under
/// the same options), a stage whose content key matches `prev`'s replays
/// the cached artifact, a stage that can splice re-runs over the dirty
/// cone only, and the rest re-run (DESIGN.md §14); the report says which.
/// Either way the artifacts are the ones a cold compile produces.
pub(crate) fn drive(
    mut session: Session,
    prev: Option<&Compiled>,
    netlist: Netlist,
    verilog_lines: usize,
    options: &CompileOptions,
    source_key: Option<u64>,
    netlist_key: Option<u64>,
) -> Result<(Compiled, IncrementalReport), CompileError> {
    // Unroll sequential logic if requested (§4.3.3), then optimize (the
    // ABC role). Both always run: their input is what moved.
    let netlist = session.run(
        &UnrollStage {
            steps: options.unroll_steps,
            initial: options.unroll_initial,
        },
        netlist,
    )?;
    // The certifier proves the optimizer (and the EDIF round trip)
    // preserved this netlist, so it keeps the pre-optimization form.
    let unrolled_key = netlist.structural_hash();
    let source_netlist = options.certify.then(|| netlist.clone());
    let netlist = session.run(
        &OptimizeStage {
            opt_level: options.opt_level,
        },
        netlist,
    )?;
    let optimized_key = netlist.structural_hash();

    let mut report = IncrementalReport::default();
    let mut spliced = Vec::new();
    // The optimized netlist held still (a comment, whitespace, or a
    // refactor the optimizer erases): the whole back end replays.
    let back = prev.filter(|p| p.incr.optimized_key == optimized_key);

    // Round-trip through EDIF text, as the original pipeline does. The
    // round trip is behavioral, not an identity: once the netlist moved
    // it re-runs, since every later artifact derives from its output.
    let (edif, netlist) = match back {
        Some(p) => {
            replay(&mut session, p, "edif-write");
            replay(&mut session, p, "edif-read");
            (p.edif.clone(), p.netlist.clone())
        }
        None => {
            let edif = session.run(&EdifWriteStage, netlist)?;
            let netlist = session.run(&EdifReadStage { edif: &edif }, ())?;
            (edif, netlist)
        }
    };

    // EDIF → QMASM. Against `prev`, cells outside the dirty cone copy
    // their blocks when the netlist diff allows a splice.
    let library = CellLibrary::table5();
    let (gen, stdcell) = match back {
        Some(p) => {
            replay(&mut session, p, "qmasm-gen");
            let gen = GenOutput {
                text: p.qmasm.clone(),
                cell_blocks: p.incr.cell_blocks.clone(),
            };
            (gen, p.stdcell.clone())
        }
        None => {
            let changed = prev.and_then(|p| crate::incr::dirty_cells(p, &netlist, &mut report));
            if let Some(changed) = &changed {
                let redone = report.dirty_cone.len();
                let reused = changed.len() - redone;
                spliced.push(("qmasm-gen", StageDisposition::Spliced { reused, redone }));
            }
            let reuse = prev
                .zip(changed.as_deref())
                .map(|(p, changed)| (p.incr.cell_blocks.as_slice(), changed));
            let stage = QmasmGenStage {
                netlist: &netlist,
                library: &library,
                reuse,
            };
            session.run(&stage, ())?
        }
    };
    let GenOutput {
        text: qmasm,
        cell_blocks,
    } = gen;

    // QMASM → logical Ising. Text that landed identical to `prev`'s
    // (e.g. an internal net rename dirtied cell hashes without reaching
    // any symbol) replays; otherwise assembly splices per statement when
    // the program-level diff allows it.
    let same_text = back.or_else(|| prev.filter(|p| qmasm == p.qmasm && stdcell == p.stdcell));
    let (program, assembled) = match same_text {
        Some(p) => {
            replay(&mut session, p, "qmasm-parse");
            replay(&mut session, p, "assemble");
            (p.program.clone(), p.assembled.clone())
        }
        None => {
            let mut includes = MapIncludes::new();
            includes.insert("stdcell.qmasm", stdcell.clone());
            let program = session.run(
                &QmasmParseStage {
                    qmasm: &qmasm,
                    includes: &includes,
                },
                (),
            )?;
            let stage = AssembleStage {
                program: &program,
                options: AssembleOptions {
                    merge_chains: options.merge_chains,
                    chain_strength: options.chain_strength,
                    pin_weight: None,
                },
                prev: prev.map(|p| (&p.assembled, &p.program)),
            };
            let (assembled, splice) = session.run(&stage, ())?;
            if let Some((reused, redone)) = splice {
                spliced.push(("assemble", StageDisposition::Spliced { reused, redone }));
            }
            (program, assembled)
        }
    };

    let expected = expected_ground_energy_of(&netlist, &library, &assembled)?;
    let analysis_key = match back {
        Some(p) => p.incr.analysis_key,
        None => crate::incr::analysis_key(&assembled, &program, expected),
    };

    // Static analysis over the assembled model. The expected ground
    // energy just derived feeds the roof-duality and exact-audit passes;
    // the unmerged chain strength feeds the sufficiency bound when the
    // caller did not pick one explicitly. The analyzer is global, so it
    // replays only when its whole input is content-identical to `prev`'s.
    let analysis = if !options.analysis.enabled {
        AnalysisReport::empty()
    } else if let Some(p) = prev.filter(|p| p.incr.analysis_key == analysis_key) {
        replay(&mut session, p, "analyze");
        p.analysis.clone()
    } else {
        let mut analysis_options = options.analysis.clone();
        if analysis_options.expected_ground_energy.is_none() {
            analysis_options.expected_ground_energy = Some(expected);
        }
        if analysis_options.chain_strength.is_none() {
            analysis_options.chain_strength = options.chain_strength;
        }
        let report = session.run(
            &AnalyzeStage {
                assembled: &assembled,
                program: &program,
                options: &analysis_options,
            },
            (),
        )?;
        if report.diagnostics.has_errors() {
            return Err(CompileError::Analysis(report.diagnostics.clone()));
        }
        report
    };

    // Translation validation: prove the front end preserved every
    // output's Boolean function and the macro library every gate's
    // ground space; a failed proof rejects the compile like an analyzer
    // error. The proof replays only when the back end did and the
    // pre-optimization netlist held still too (an optimizer-erased edit
    // still moves source-side cut functions). Otherwise it re-proves
    // against the current netlists, splicing obligations whose reuse
    // keys held still from `prev`'s certificate.
    let replay_proof =
        back.filter(|p| p.incr.unrolled_key == unrolled_key && p.certificate.is_some());
    let certificate = match (&source_netlist, replay_proof) {
        (None, _) => None,
        (Some(_), Some(p)) => {
            replay(&mut session, p, "certify");
            p.certificate.clone()
        }
        (Some(source), None) => {
            let stage = crate::certify::CertifyStage {
                source,
                optimized: &netlist,
                program: &program,
                library: &library,
                prev: prev.and_then(|p| p.certificate.as_ref()),
            };
            let out = session.run(&stage, ())?;
            if out.reused > 0 {
                let (reused, redone) = (out.reused, out.proved);
                spliced.push(("certify", StageDisposition::Spliced { reused, redone }));
            }
            Some(out.certificate)
        }
    };

    let trace = session.finish();
    if prev.is_some() {
        report.stages = crate::incr::dispositions(&trace, &spliced);
    }
    let stats = PipelineStats {
        verilog_lines,
        edif_lines: edif.lines().count(),
        qmasm_lines: qmasm.lines().count(),
        stdcell_lines: stdcell.lines().count(),
        logical_variables: assembled.ising.num_vars(),
        logical_terms: assembled.ising.num_terms(1e-12),
        netlist: NetlistStats::of(&netlist),
    };
    let incr = IncrState {
        source_key,
        netlist_key,
        options_key: prev.map_or_else(|| crate::incr::options_key(options), |p| p.incr.options_key),
        unrolled_key,
        optimized_key,
        analysis_key,
        cell_blocks,
    };
    let compiled = Compiled {
        netlist,
        edif,
        qmasm,
        stdcell,
        assembled,
        expected_ground_energy: expected,
        analysis,
        program,
        certificate,
        stats,
        trace,
        options: options.clone(),
        incr,
        _shared_embeddings: EmbeddingCache::shared(),
    };
    Ok((compiled, report))
}

/// Replays `prev`'s artifact for stage `name` instead of re-running it.
fn replay(session: &mut Session, prev: &Compiled, name: &str) {
    session.skip_named(name, prev.trace.get(name).map_or(0, |s| s.output_size));
}

/// Expected ground energy: Σ instantiated-cell ground energies, plus −1
/// per ground/power tie (H_GND/H_VCC reach −1 when satisfied). With
/// merging disabled, every emitted chain coupling `J = −strength` reaches
/// −strength when the chain is satisfied, so valid executions sit that
/// much lower.
fn expected_ground_energy_of(
    netlist: &Netlist,
    library: &CellLibrary,
    assembled: &Assembled,
) -> Result<f64, CompileError> {
    let mut expected = 0.0;
    for cell in netlist.cells() {
        let lib_cell = library
            .get(cell.kind.name())
            .ok_or_else(|| CompileError::Pipeline(format!("no cell for {}", cell.kind)))?;
        expected += lib_cell.ground_energy();
    }
    expected -= netlist.constants().len() as f64;
    expected -= assembled.num_chain_couplings as f64 * assembled.chain_strength;
    Ok(expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qac_solvers::ExactSolver;

    const MUX_ADD_SUB: &str = r#"
        module circuit (s, a, b, c);
          input s, a, b;
          output [1:0] c;
          assign c = s ? a+b : a-b;
        endmodule
    "#;

    #[test]
    fn figure2_compiles_through_all_stages() {
        let compiled = compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap();
        assert!(compiled.edif.starts_with("(edif"));
        assert!(compiled.qmasm.contains("!use_macro"));
        assert!(compiled.stats.logical_variables > 3);
        assert!(compiled.stats.edif_lines > compiled.stats.verilog_lines);
        assert!(compiled.stats.qmasm_lines > 0);
    }

    #[test]
    fn trace_names_every_stage_in_order() {
        let compiled = compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap();
        let names: Vec<&str> = compiled
            .trace
            .stages()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "verilog-parse",
                "unroll",
                "optimize",
                "edif-write",
                "edif-read",
                "qmasm-gen",
                "qmasm-parse",
                "assemble",
                "analyze",
                "certify"
            ]
        );
        // Artifact sizes are populated: source bytes in, cells out, etc.
        let verilog = compiled.trace.get("verilog-parse").unwrap();
        assert_eq!(verilog.input_size, MUX_ADD_SUB.len());
        assert!(verilog.output_size > 0);
        let edif_write = compiled.trace.get("edif-write").unwrap();
        assert_eq!(edif_write.output_size, compiled.edif.len());
        let assemble = compiled.trace.get("assemble").unwrap();
        assert_eq!(assemble.output_size, compiled.stats.logical_terms);
    }

    #[test]
    fn analysis_runs_by_default_and_reports_every_pass() {
        let compiled = compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap();
        assert_eq!(compiled.analysis.passes.len(), 6);
        assert!(!compiled.analysis.unsat);
        assert!(!compiled.diagnostics().has_errors());
        // The analyzer shows up in the trace with its diagnostic count.
        let stage = compiled.trace.get("analyze").unwrap();
        assert_eq!(stage.output_size, compiled.diagnostics().len());
    }

    #[test]
    fn analysis_can_be_disabled() {
        let options = CompileOptions {
            analysis: AnalysisOptions {
                enabled: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let compiled = compile(MUX_ADD_SUB, "circuit", &options).unwrap();
        assert!(compiled.trace.get("analyze").is_none());
        assert!(compiled.analysis.passes.is_empty());
        assert!(compiled.diagnostics().is_empty());
    }

    #[test]
    fn certification_is_on_by_default_and_checkable() {
        let compiled = compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap();
        let cert = compiled.certificate.as_ref().expect("certificate");
        assert!(cert.num_obligations() > 0);
        assert!(!cert.frontend.is_empty());
        assert!(!cert.macros.is_empty());
        // The attached certificate re-verifies independently.
        let issues = qac_cert::verify_certificate(cert);
        assert!(issues.iter().all(|i| !i.kind.is_error()), "{issues:?}");
        let stage = compiled.trace.get("certify").unwrap();
        assert_eq!(stage.output_size, cert.num_obligations());
    }

    #[test]
    fn certification_can_be_disabled() {
        let options = CompileOptions {
            certify: false,
            ..Default::default()
        };
        let compiled = compile(MUX_ADD_SUB, "circuit", &options).unwrap();
        assert!(compiled.certificate.is_none());
        assert!(compiled.trace.get("certify").is_none());
    }

    #[test]
    fn netlist_entry_point_skips_the_verilog_stage() {
        let compiled = compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap();
        let recompiled =
            compile_netlist(compiled.netlist.clone(), &CompileOptions::default()).unwrap();
        assert!(recompiled.trace.get("verilog-parse").is_none());
        assert_eq!(recompiled.trace.stages()[0].name, "unroll");
    }

    #[test]
    fn ground_states_match_circuit_semantics() {
        // Every ground state of the logical model is a valid (s,a,b,c)
        // relation of the paper's Figure 2 circuit.
        let compiled = compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap();
        let model = &compiled.assembled.ising;
        assert!(
            model.num_vars() <= 24,
            "model should be small: {}",
            model.num_vars()
        );
        let (energy, minima) = ExactSolver::new().ground_states(model, 1e-6);
        assert!(
            (energy - compiled.expected_ground_energy).abs() < 1e-6,
            "ground {energy} vs expected {}",
            compiled.expected_ground_energy
        );
        assert_eq!(minima.len(), 8, "one ground state per (s,a,b) input");
        for spins in minima {
            let sol = compiled.assembled.interpret(&spins);
            let s = sol.get("s").unwrap();
            let a = sol.get("a").unwrap();
            let b = sol.get("b").unwrap();
            let c = sol.get("c").unwrap();
            let expect = if s == 1 {
                a + b
            } else {
                a.wrapping_sub(b) & 0b11
            };
            assert_eq!(c, expect, "s={s} a={a} b={b}");
        }
    }

    #[test]
    fn port_aliases_compile_certify_and_keep_their_truth_table() {
        // Each program wires an output straight to input bits, so one
        // EDIF net joins two module ports; the reader must keep the
        // input as the net's driver and buffer the output from it.
        // (source, truth table as sorted (a, y) rows)
        let identity = vec![(0, 0), (1, 1)];
        let cases = [
            (
                "module m(input a, output y); assign y = a; endmodule",
                identity.clone(),
            ),
            (
                "module m(input a, output y); assign y = a & 1'b1; endmodule",
                identity,
            ),
            (
                "module m(input [1:0] a, output [1:0] y); assign y = {a[0], a[1]}; endmodule",
                vec![(0, 0), (1, 2), (2, 1), (3, 3)],
            ),
        ];
        for (source, table) in cases {
            let compiled = compile(source, "m", &CompileOptions::default())
                .unwrap_or_else(|e| panic!("{source}: {e}"));
            let cert = compiled.certificate.as_ref().expect("certificate");
            let issues = qac_cert::verify_certificate(cert);
            assert!(issues.iter().all(|i| !i.kind.is_error()), "{issues:?}");
            let (_, minima) = ExactSolver::new().ground_states(&compiled.assembled.ising, 1e-6);
            let mut rows: Vec<(u64, u64)> = minima
                .iter()
                .map(|spins| {
                    let sol = compiled.assembled.interpret(spins);
                    (sol.get("a").unwrap(), sol.get("y").unwrap())
                })
                .collect();
            rows.sort_unstable();
            assert_eq!(rows, table, "{source}");
        }
    }

    #[test]
    fn unmerged_chains_reach_the_expected_ground_energy() {
        // With merge_chains: false every `=` chain stays a ferromagnetic
        // coupling; expected_ground_energy must account for them (it used
        // to silently ignore them and mark every sample invalid).
        let src = r#"
            module tiny (a, b, c);
              input a, b;
              output c;
              assign c = a & b;
            endmodule
        "#;
        let options = CompileOptions {
            merge_chains: false,
            ..Default::default()
        };
        let compiled = compile(src, "tiny", &options).unwrap();
        assert!(
            compiled.assembled.num_chain_couplings > 0,
            "unmerged compile should emit chain couplings"
        );
        let model = &compiled.assembled.ising;
        assert!(
            model.num_vars() <= 24,
            "model too big for exact: {}",
            model.num_vars()
        );
        let ground = ExactSolver::new().minimum_energy(model);
        assert!(
            (ground - compiled.expected_ground_energy).abs() < 1e-6,
            "ground {ground} vs expected {}",
            compiled.expected_ground_energy
        );
        // And the merged compile of the same source agrees once the chain
        // contribution is removed.
        let merged = compile(src, "tiny", &CompileOptions::default()).unwrap();
        let chain_part =
            compiled.assembled.num_chain_couplings as f64 * compiled.assembled.chain_strength;
        assert!(
            (compiled.expected_ground_energy + chain_part - merged.expected_ground_energy).abs()
                < 1e-6
        );
    }

    #[test]
    fn opt_level_zero_keeps_buffers() {
        let o0 = CompileOptions {
            opt_level: 0,
            ..Default::default()
        };
        let compiled0 = compile(MUX_ADD_SUB, "circuit", &o0).unwrap();
        let compiled2 = compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap();
        assert!(
            compiled0.stats.logical_variables >= compiled2.stats.logical_variables,
            "optimization should not increase variables"
        );
    }

    #[test]
    fn sequential_requires_steps_or_identity() {
        let counter = r#"
            module count (clk, inc, out);
              input clk, inc;
              output [2:0] out;
              reg [2:0] v;
              always @(posedge clk) if (inc) v <= v + 1;
              assign out = v;
            endmodule
        "#;
        // Unrolled: pure combinational model over 2 steps.
        let opts = CompileOptions {
            unroll_steps: Some(2),
            ..Default::default()
        };
        let compiled = compile(counter, "count", &opts).unwrap();
        assert!(!compiled.netlist.is_sequential());
        assert!(compiled.assembled.symbols.resolve("out@0[0]").is_some());
        // Zero steps rejected.
        let bad = CompileOptions {
            unroll_steps: Some(0),
            ..Default::default()
        };
        assert!(matches!(
            compile(counter, "count", &bad),
            Err(CompileError::Pipeline(_))
        ));
    }
}
