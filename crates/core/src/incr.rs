//! Incremental recompilation: re-run only the stages whose inputs moved
//! (DESIGN.md §14).
//!
//! Every compile records an [`IncrState`] on its [`Compiled`] result:
//! deterministic FNV content keys for the source text, the input
//! netlist, the option set, the unrolled and optimized netlists and the
//! analyzer's input, plus the per-cell QMASM blocks the generator
//! concatenated. [`compile_incremental`] handles the two outermost keys
//! itself:
//!
//! * options changed → full rebuild (every stage key includes the
//!   option set, so nothing is reusable);
//! * source text identical → every stage replays its cached artifact.
//!
//! Anything else goes to the one compile driver (`drive` in
//! `pipeline.rs`) with the previous compile, where each stage replays
//! when its key matches: an optimized netlist that held still (e.g. a
//! comment or whitespace edit) replays the whole back end; otherwise the
//! EDIF round trip re-runs (it is behavioral, not an identity), the
//! post-EDIF netlists are diffed cell-by-cell (`dirty_cells`), and
//! QMASM generation and assembly splice: artifacts derived from cells
//! outside the dirty cone are copied from the previous compile, only the
//! cone is regenerated. Spliced artifacts are byte-identical to a cold
//! compile by construction — the property tests in `qac-bench` enforce
//! exactly that.
//!
//! Fallback rules: an incomparable diff (different cell count, renamed
//! module, changed ports or constants) falls back to full stage re-runs;
//! assembly splicing additionally requires unchanged macros and an
//! unchanged symbol-interning sequence ([`qac_qmasm::assemble_incremental`]
//! verifies both and reports `None` when they fail). The `analyze` stage
//! is global, so it replays only when its entire input (assembled model
//! and program) is unchanged.
//!
//! Observability: skipped stages appear in the [`Trace`](crate::Trace)
//! with a `cached` mark and zero duration, emit `stage_skip` flight
//! events tagged with the current trace id, and bump
//! `qac_incr_stage_hit_total`; re-run stages bump
//! `qac_incr_stage_miss_total`. A cold compile bumps neither.

use qac_netlist::{CellId, Fnv, Netlist};
use qac_qmasm::{Assembled, Program};
use qac_telemetry::Trace;

use crate::pipeline::{compile_source, drive};
use crate::stage::Session;
use crate::{CompileError, CompileOptions, Compiled};

/// Content keys and reuse units recorded on every [`Compiled`], consumed
/// by [`compile_incremental`] to decide which stages can be skipped.
#[derive(Debug, Clone)]
pub struct IncrState {
    /// Key of the Verilog source + top module (`None` for the netlist
    /// entry point).
    pub(crate) source_key: Option<u64>,
    /// Structural key of the input netlist (`None` for the Verilog entry
    /// point).
    pub(crate) netlist_key: Option<u64>,
    /// Key of every compile-relevant option (embed options excluded —
    /// they do not shape compile artifacts).
    pub(crate) options_key: u64,
    /// Structural key of the post-unroll, pre-optimization netlist — the
    /// source side of the certifier's front-end obligation. The
    /// `certify` stage replays only when this matched too: the optimizer
    /// can erase a source edit (`optimized_key` holds) that still moves
    /// source-side cut functions.
    pub(crate) unrolled_key: u64,
    /// Structural key of the optimized netlist, taken just before the
    /// EDIF round trip: a match here proves the whole back end reusable.
    pub(crate) optimized_key: u64,
    /// Key of everything the `analyze` stage reads (assembled model,
    /// macro definitions and use-sites, expected ground energy): a match
    /// lets the analyzer replay even when the program text moved.
    pub(crate) analysis_key: u64,
    /// The per-cell QMASM net-section blocks, the splice unit for
    /// incremental generation.
    pub(crate) cell_blocks: Vec<String>,
}

/// What [`compile_incremental`] did with one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageDisposition {
    /// Input key matched — the cached artifact was replayed.
    Skipped,
    /// The stage re-ran from scratch.
    Full,
    /// The stage re-ran over the dirty cone only, splicing the rest from
    /// the previous compile's artifact.
    Spliced {
        /// Reused units (cells for `qmasm-gen`, top-level statements for
        /// `assemble`).
        reused: usize,
        /// Regenerated units.
        redone: usize,
    },
}

impl std::fmt::Display for StageDisposition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            StageDisposition::Skipped => write!(f, "skip"),
            StageDisposition::Full => write!(f, "full"),
            StageDisposition::Spliced { reused, redone } => {
                write!(f, "splice({reused} reused, {redone} redone)")
            }
        }
    }
}

/// Per-stage account of one incremental recompile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IncrementalReport {
    /// `(stage name, disposition)` in execution order.
    pub stages: Vec<(String, StageDisposition)>,
    /// Cells whose structural hash changed between the previous and new
    /// optimized netlists (empty when the diff never ran).
    pub changed_cells: Vec<CellId>,
    /// The changed cells closed over the fan-out table — the logic cone
    /// whose derived artifacts were regenerated.
    pub dirty_cone: Vec<CellId>,
    /// True when nothing at all was reusable (changed options or an
    /// incomparable netlist).
    pub full_rebuild: bool,
}

impl IncrementalReport {
    /// How many stages were skipped outright.
    pub fn skipped(&self) -> usize {
        self.stages
            .iter()
            .filter(|(_, d)| *d == StageDisposition::Skipped)
            .count()
    }

    /// The disposition of `stage`, if it appears in the report.
    pub fn disposition(&self, stage: &str) -> Option<StageDisposition> {
        self.stages
            .iter()
            .find(|(name, _)| name == stage)
            .map(|&(_, d)| d)
    }
}

/// Content key of a Verilog compilation unit.
pub(crate) fn source_fingerprint(source: &str, top: &str) -> u64 {
    let mut h = Fnv::new();
    h.write_str(source);
    h.write_str(top);
    h.finish()
}

/// Content key of every compile-relevant option. Embed options are
/// deliberately excluded: they configure downstream runs, not the
/// artifacts this pipeline produces.
pub(crate) fn options_key(options: &CompileOptions) -> u64 {
    let mut h = Fnv::new();
    h.write_str(&format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        options.opt_level,
        options.unroll_steps,
        options.unroll_initial,
        options.merge_chains,
        options.chain_strength,
        options.analysis,
        options.certify,
    ));
    h.finish()
}

/// Content key of everything the `analyze` stage consumes: the
/// assembled model (terms, symbols, pins, asserts, chain bookkeeping),
/// the macro definitions and use-sites the unused-macro pass walks, and
/// the expected ground energy fed to the audit passes. Textual program
/// changes that leave all of these alone (e.g. net renumbering) replay
/// the analyzer.
pub(crate) fn analysis_key(assembled: &Assembled, program: &Program, expected: f64) -> u64 {
    let mut h = Fnv::new();
    h.write_usize(assembled.ising.num_vars());
    for (i, v) in assembled.ising.h_iter() {
        h.write_usize(i);
        h.write_u64(v.to_bits());
    }
    for term in assembled.ising.j_iter() {
        h.write_usize(term.i);
        h.write_usize(term.j);
        h.write_u64(term.value.to_bits());
    }
    h.write_u64(assembled.ising.offset().to_bits());
    for name in assembled.symbols.names() {
        h.write_str(name);
    }
    for (name, value) in &assembled.pins {
        h.write_str(name);
        h.write_u64(u64::from(*value));
    }
    h.write_str(&format!("{:?}", assembled.asserts));
    h.write_u64(assembled.chain_strength.to_bits());
    h.write_usize(assembled.num_chain_couplings);
    let mut macros: Vec<(&String, &Vec<qac_qmasm::Statement>)> = program.macros.iter().collect();
    macros.sort_by_key(|&(name, _)| name);
    for (name, body) in macros {
        h.write_str(name);
        h.write_str(&format!("{body:?}"));
    }
    for statement in &program.statements {
        if let qac_qmasm::Statement::UseMacro { name, instances } = statement {
            h.write_str(name);
            h.write_usize(instances.len());
        }
    }
    h.write_u64(expected.to_bits());
    h.finish()
}

/// Recompiles `source` against the previous compile `prev`, re-running
/// only the stages whose content keys moved. The returned [`Compiled`]
/// is byte-identical (artifact-wise) to what a cold
/// [`compile`](crate::compile) of the same inputs would produce; the
/// [`IncrementalReport`] says which stages were skipped, spliced, or
/// fully re-run.
///
/// # Errors
/// Any [`CompileError`] a re-run stage raises.
pub fn compile_incremental(
    prev: &Compiled,
    source: &str,
    top: &str,
    options: &CompileOptions,
) -> Result<(Compiled, IncrementalReport), CompileError> {
    let _span = qac_telemetry::global().span("compile");
    if options_key(options) != prev.incr.options_key {
        return full_rebuild(crate::pipeline::compile(source, top, options));
    }
    let source_key = source_fingerprint(source, top);
    if prev.incr.source_key == Some(source_key) {
        return Ok(replay_all(prev, options, Some(source_key), None));
    }
    compile_source(Some(prev), source, top, options, source_key)
}

/// [`compile_incremental`] for the netlist entry point: the front-end
/// key is the netlist's structural hash instead of the source text.
///
/// # Errors
/// Any [`CompileError`] a re-run stage raises.
pub fn compile_netlist_incremental(
    prev: &Compiled,
    netlist: Netlist,
    options: &CompileOptions,
) -> Result<(Compiled, IncrementalReport), CompileError> {
    let _span = qac_telemetry::global().span("compile");
    if options_key(options) != prev.incr.options_key {
        return full_rebuild(crate::pipeline::compile_netlist(netlist, options));
    }
    let netlist_key = netlist.structural_hash();
    if prev.incr.netlist_key == Some(netlist_key) {
        return Ok(replay_all(prev, options, None, Some(netlist_key)));
    }
    drive(
        Session::new(),
        Some(prev),
        netlist,
        0,
        options,
        None,
        Some(netlist_key),
    )
}

/// Nothing was reusable: a cold compile, every stage accounted a miss.
fn full_rebuild(
    compiled: Result<Compiled, CompileError>,
) -> Result<(Compiled, IncrementalReport), CompileError> {
    let compiled = compiled?;
    let report = IncrementalReport {
        stages: dispositions(&compiled.trace, &[]),
        full_rebuild: true,
        ..IncrementalReport::default()
    };
    Ok((compiled, report))
}

/// The outermost key matched: replay every stage of the previous compile.
fn replay_all(
    prev: &Compiled,
    options: &CompileOptions,
    source_key: Option<u64>,
    netlist_key: Option<u64>,
) -> (Compiled, IncrementalReport) {
    let mut session = Session::new();
    for stage in prev.trace.stages() {
        session.skip_named(&stage.name, stage.output_size);
    }
    let mut out = prev.clone();
    out.trace = session.finish();
    // Keep the caller's options (embed settings may differ without
    // perturbing the compile key) and re-anchor the entry-point keys.
    out.options = options.clone();
    out.incr.source_key = source_key;
    out.incr.netlist_key = netlist_key;
    let report = IncrementalReport {
        stages: dispositions(&out.trace, &[]),
        ..IncrementalReport::default()
    };
    (out, report)
}

/// Diffs the post-EDIF netlist against `prev`'s for a `qmasm-gen`
/// splice, recording the changed cells and dirty cone on `report`.
/// Returns the dirty-cone mask, or `None` (a full rebuild) when the diff
/// is incomparable or `prev`'s blocks do not line up with the cells.
pub(crate) fn dirty_cells(
    prev: &Compiled,
    netlist: &Netlist,
    report: &mut IncrementalReport,
) -> Option<Vec<bool>> {
    let diff = Netlist::diff(&prev.netlist, netlist);
    let spliceable = diff.spliceable();
    report.changed_cells = diff.changed_cells;
    if !spliceable || prev.incr.cell_blocks.len() != netlist.cells().len() {
        report.full_rebuild = true;
        return None;
    }
    report.dirty_cone = netlist.dirty_cone(&report.changed_cells);
    let mut changed = vec![false; netlist.cells().len()];
    for &id in &report.dirty_cone {
        changed[id] = true;
    }
    Some(changed)
}

/// The disposition of every stage in `trace`: replayed stages were
/// skipped, those named in `spliced` spliced, and the rest re-ran in
/// full. Each re-run stage bumps `qac_incr_stage_miss_total`.
pub(crate) fn dispositions(
    trace: &Trace,
    spliced: &[(&str, StageDisposition)],
) -> Vec<(String, StageDisposition)> {
    let stages: Vec<(String, StageDisposition)> = trace
        .stages()
        .iter()
        .map(|stage| {
            let disposition = if stage.skipped {
                StageDisposition::Skipped
            } else {
                spliced
                    .iter()
                    .find(|(name, _)| *name == stage.name)
                    .map_or(StageDisposition::Full, |&(_, d)| d)
            };
            (stage.name.clone(), disposition)
        })
        .collect();
    let misses = stages
        .iter()
        .filter(|(_, d)| *d != StageDisposition::Skipped)
        .count();
    if misses > 0 {
        qac_telemetry::global().counter_add("qac_incr_stage_miss_total", misses as u64);
    }
    stages
}

/// Variables whose coupling support changed between two assemblies —
/// the chains a partial re-embed must rip up. Returns `None` when the
/// variable spaces are not comparable (different counts or symbol
/// interning), in which case the embedder must start from scratch.
pub fn dirty_variables(prev: &Assembled, new: &Assembled) -> Option<Vec<bool>> {
    let n = new.ising.num_vars();
    // Comparable iff the variable count and the symbol-interning
    // sequence held still — then "variable i" means the same slot on
    // both sides. (The symbol→variable *mapping* may still move for
    // chain members a retarget re-homed; the adjacency diff below marks
    // exactly those variables dirty.)
    if prev.ising.num_vars() != n || !prev.symbols.names().eq(new.symbols.names()) {
        return None;
    }
    let adjacency = |assembled: &Assembled| -> Vec<Vec<usize>> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for term in assembled.ising.j_iter() {
            adj[term.i].push(term.j);
            adj[term.j].push(term.i);
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        adj
    };
    let old_adj = adjacency(prev);
    let new_adj = adjacency(new);
    Some((0..n).map(|i| old_adj[i] != new_adj[i]).collect())
}

/// Compares every artifact of two compiles, returning a description of
/// the first mismatch (or `None` when they are identical). The
/// incremental property tests use this to pinpoint which splice leaked.
pub fn artifact_mismatch(a: &Compiled, b: &Compiled) -> Option<String> {
    if a.netlist != b.netlist {
        return Some("netlist differs".to_string());
    }
    if a.edif != b.edif {
        return Some("edif text differs".to_string());
    }
    if a.qmasm != b.qmasm {
        return Some("qmasm text differs".to_string());
    }
    if a.stdcell != b.stdcell {
        return Some("stdcell text differs".to_string());
    }
    if a.program != b.program {
        return Some("parsed program differs".to_string());
    }
    if a.assembled != b.assembled {
        if a.assembled.ising != b.assembled.ising {
            return Some("assembled ising differs".to_string());
        }
        return Some("assembled metadata differs".to_string());
    }
    if a.expected_ground_energy.to_bits() != b.expected_ground_energy.to_bits() {
        return Some(format!(
            "expected ground energy differs: {} vs {}",
            a.expected_ground_energy, b.expected_ground_energy
        ));
    }
    if a.analysis != b.analysis {
        return Some("analysis report differs".to_string());
    }
    if a.certificate != b.certificate {
        return Some("compile certificate differs".to_string());
    }
    if a.stats != b.stats {
        return Some("pipeline stats differ".to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, compile_netlist};
    use qac_netlist::Builder;

    const MUX_ADD_SUB: &str = r#"
        module circuit (s, a, b, c);
          input s, a, b;
          output [1:0] c;
          assign c = s ? a+b : a-b;
        endmodule
    "#;

    fn demo_netlist() -> Netlist {
        let mut b = Builder::new("demo");
        let a = b.input("a", 1)[0];
        let c = b.input("b", 1)[0];
        let d = b.input("d", 1)[0];
        let x = b.xor(a, c);
        let y = b.and(x, d);
        let z = b.or(y, a);
        b.output("z", &[z]);
        b.finish()
    }

    #[test]
    fn identical_source_skips_every_stage() {
        let options = CompileOptions::default();
        let cold = compile(MUX_ADD_SUB, "circuit", &options).unwrap();
        let (warm, report) = compile_incremental(&cold, MUX_ADD_SUB, "circuit", &options).unwrap();
        assert_eq!(report.stages.len(), 10);
        assert!(report
            .stages
            .iter()
            .all(|(_, d)| *d == StageDisposition::Skipped));
        assert!(!report.full_rebuild);
        assert_eq!(artifact_mismatch(&cold, &warm), None);
        assert!(warm.trace.stages().iter().all(|s| s.skipped));
    }

    #[test]
    fn comment_edit_runs_the_front_end_and_replays_the_back_end() {
        let options = CompileOptions::default();
        let cold = compile(MUX_ADD_SUB, "circuit", &options).unwrap();
        let edited = MUX_ADD_SUB.replace(
            "assign c",
            "// the mux, now with a comment\n          assign c",
        );
        let (warm, report) = compile_incremental(&cold, &edited, "circuit", &options).unwrap();
        assert_eq!(
            report.disposition("verilog-parse"),
            Some(StageDisposition::Full)
        );
        assert_eq!(report.disposition("optimize"), Some(StageDisposition::Full));
        assert_eq!(
            report.disposition("edif-write"),
            Some(StageDisposition::Skipped)
        );
        assert_eq!(
            report.disposition("assemble"),
            Some(StageDisposition::Skipped)
        );
        assert_eq!(
            report.disposition("analyze"),
            Some(StageDisposition::Skipped)
        );
        let recold = compile(&edited, "circuit", &options).unwrap();
        assert_eq!(artifact_mismatch(&recold, &warm), None);
    }

    #[test]
    fn changed_options_force_a_full_rebuild() {
        let cold = compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap();
        let options = CompileOptions {
            merge_chains: false,
            ..Default::default()
        };
        let (warm, report) = compile_incremental(&cold, MUX_ADD_SUB, "circuit", &options).unwrap();
        assert!(report.full_rebuild);
        assert!(report
            .stages
            .iter()
            .all(|(_, d)| *d == StageDisposition::Full));
        let recold = compile(MUX_ADD_SUB, "circuit", &options).unwrap();
        assert_eq!(artifact_mismatch(&recold, &warm), None);
    }

    #[test]
    fn embed_options_do_not_perturb_the_compile_key() {
        let mut options = CompileOptions::default();
        let cold = compile(MUX_ADD_SUB, "circuit", &options).unwrap();
        options.embed.tries += 3;
        let (warm, report) = compile_incremental(&cold, MUX_ADD_SUB, "circuit", &options).unwrap();
        assert!(report
            .stages
            .iter()
            .all(|(_, d)| *d == StageDisposition::Skipped));
        assert_eq!(warm.options.embed.tries, options.embed.tries);
    }

    #[test]
    fn gate_edit_splices_generation_and_assembly_byte_identically() {
        let options = CompileOptions {
            opt_level: 0,
            ..Default::default()
        };
        let old = demo_netlist();
        let prev = compile_netlist(old.clone(), &options).unwrap();
        let mut new = old.clone();
        new.set_cell_kind(1, qac_netlist::CellKind::Or);
        let cold = compile_netlist(new.clone(), &options).unwrap();
        let (warm, report) = compile_netlist_incremental(&prev, new, &options).unwrap();
        assert_eq!(artifact_mismatch(&cold, &warm), None);
        assert!(!report.full_rebuild);
        assert!(matches!(
            report.disposition("qmasm-gen"),
            Some(StageDisposition::Spliced { .. })
        ));
        assert_eq!(report.changed_cells, vec![1]);
        assert!(report.dirty_cone.contains(&1));
    }

    #[test]
    fn retarget_edit_stays_byte_identical() {
        let options = CompileOptions {
            opt_level: 0,
            ..Default::default()
        };
        let old = demo_netlist();
        let prev = compile_netlist(old.clone(), &options).unwrap();
        let mut new = old.clone();
        // Feed the OR's second pin from `d` instead of `a`. (Both `a`
        // and `d` were interned earlier, so the symbol sequence holds.)
        let d_net = old.port("d").unwrap().bits[0];
        new.retarget_input(2, 1, d_net);
        let cold = compile_netlist(new.clone(), &options).unwrap();
        let (warm, report) = compile_netlist_incremental(&prev, new, &options).unwrap();
        assert_eq!(artifact_mismatch(&cold, &warm), None);
        assert!(!report.full_rebuild);
        // The retarget changes coupling support, so some chains dirty.
        let dirty = dirty_variables(&prev.assembled, &warm.assembled).unwrap();
        assert!(dirty.iter().any(|&d| d));
    }

    #[test]
    fn gate_swap_keeps_coupling_support_clean() {
        // AND→OR changes coefficient values but not the coupling graph:
        // no chain needs to move on the hardware.
        let options = CompileOptions {
            opt_level: 0,
            ..Default::default()
        };
        let old = demo_netlist();
        let prev = compile_netlist(old.clone(), &options).unwrap();
        let mut new = old;
        new.set_cell_kind(1, qac_netlist::CellKind::Or);
        let (warm, _) = compile_netlist_incremental(&prev, new, &options).unwrap();
        let dirty = dirty_variables(&prev.assembled, &warm.assembled).unwrap();
        assert!(dirty.iter().all(|&d| !d));
    }

    #[test]
    fn incomparable_netlists_fall_back_to_full_stages() {
        let options = CompileOptions {
            opt_level: 0,
            ..Default::default()
        };
        let prev = compile_netlist(demo_netlist(), &options).unwrap();
        // A different circuit entirely (different cell count).
        let mut b = Builder::new("demo");
        let a = b.input("a", 1)[0];
        let c = b.input("b", 1)[0];
        let x = b.and(a, c);
        b.output("z", &[x]);
        let other = b.finish();
        let cold = compile_netlist(other.clone(), &options).unwrap();
        let (warm, report) = compile_netlist_incremental(&prev, other, &options).unwrap();
        assert!(report.full_rebuild);
        assert_eq!(
            report.disposition("qmasm-gen"),
            Some(StageDisposition::Full)
        );
        assert_eq!(artifact_mismatch(&cold, &warm), None);
    }

    #[test]
    fn comment_edit_replays_the_certificate() {
        // Both the unrolled and the optimized netlists hold still, so
        // the proof obligations are all reusable verbatim.
        let options = CompileOptions::default();
        let cold = compile(MUX_ADD_SUB, "circuit", &options).unwrap();
        let edited = MUX_ADD_SUB.replace("assign c", "// mux\n          assign c");
        let (warm, report) = compile_incremental(&cold, &edited, "circuit", &options).unwrap();
        assert_eq!(
            report.disposition("certify"),
            Some(StageDisposition::Skipped)
        );
        assert_eq!(warm.certificate, cold.certificate);
    }

    #[test]
    fn optimizer_erased_edit_still_reproves_the_frontend() {
        // Edit a cell inside a *dead* cone the optimizer eliminates:
        // the optimized netlist (and the whole back end) replays, but
        // the *source* side of the front-end obligation moved, so the
        // certificate must be re-proved — skipping it would leave a
        // stale unrolled-netlist hash a cold compile would not produce.
        let dead_cone = |kind: qac_netlist::CellKind| {
            let mut b = Builder::new("demo");
            let a = b.input("a", 1)[0];
            let c = b.input("b", 1)[0];
            let d = b.input("d", 1)[0];
            let x = b.xor(a, c);
            let y = b.and(x, d);
            let z = b.or(y, a);
            let dead = b.and(a, d); // output never reaches a port
            b.output("z", &[z]);
            let mut netlist = b.finish();
            let dead_cell = netlist
                .cells()
                .iter()
                .position(|cell| cell.output == dead)
                .unwrap();
            netlist.set_cell_kind(dead_cell, kind);
            netlist
        };
        let options = CompileOptions::default();
        let prev = compile_netlist(dead_cone(qac_netlist::CellKind::And), &options).unwrap();
        let new = dead_cone(qac_netlist::CellKind::Or);
        let cold = compile_netlist(new.clone(), &options).unwrap();
        let (warm, report) = compile_netlist_incremental(&prev, new, &options).unwrap();
        assert_eq!(
            report.disposition("edif-write"),
            Some(StageDisposition::Skipped),
            "back end should replay"
        );
        assert!(
            !matches!(
                report.disposition("certify"),
                Some(StageDisposition::Skipped) | None
            ),
            "certify must re-run: {:?}",
            report.disposition("certify")
        );
        assert_eq!(artifact_mismatch(&cold, &warm), None);
    }

    #[test]
    fn symmetric_input_swap_replays_the_analyzer() {
        // Swapping the OR cell's inputs changes the QMASM text (so
        // parse and assemble re-run) but lands on a content-identical
        // model: the analysis key matches and the analyzer replays.
        let options = CompileOptions {
            opt_level: 0,
            ..Default::default()
        };
        let old = demo_netlist();
        let prev = compile_netlist(old.clone(), &options).unwrap();
        let mut new = old.clone();
        let a_net = old.port("a").unwrap().bits[0];
        let y_net = old.cells()[1].output;
        new.retarget_input(2, 0, a_net);
        new.retarget_input(2, 1, y_net);
        let cold = compile_netlist(new.clone(), &options).unwrap();
        let (warm, report) = compile_netlist_incremental(&prev, new, &options).unwrap();
        assert_ne!(warm.qmasm, prev.qmasm, "edit must reach the text");
        assert_eq!(
            report.disposition("qmasm-parse"),
            Some(StageDisposition::Full)
        );
        assert_eq!(
            report.disposition("analyze"),
            Some(StageDisposition::Skipped),
            "content-identical analyzer input should replay"
        );
        assert_eq!(artifact_mismatch(&cold, &warm), None);
    }

    #[test]
    fn warm_compile_chains_warm_again() {
        // A second identical-source recompile off a warm result must
        // still skip everything (the IncrState survives replay).
        let options = CompileOptions::default();
        let cold = compile(MUX_ADD_SUB, "circuit", &options).unwrap();
        let (warm1, _) = compile_incremental(&cold, MUX_ADD_SUB, "circuit", &options).unwrap();
        let (warm2, report) =
            compile_incremental(&warm1, MUX_ADD_SUB, "circuit", &options).unwrap();
        assert!(report
            .stages
            .iter()
            .all(|(_, d)| *d == StageDisposition::Skipped));
        assert_eq!(artifact_mismatch(&cold, &warm2), None);
    }
}
