//! Parsing EDIF text back into a netlist.

use std::collections::HashMap;
use std::fmt;

use qac_netlist::{CellKind, NetId, Netlist};

use crate::sexp::{self, Sexp, SexpError};

/// Errors from reading EDIF text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdifError {
    /// The text is not a well-formed s-expression.
    Syntax(SexpError),
    /// The s-expression is not a recognizable EDIF netlist.
    Structure(String),
    /// An instance references an unknown cell.
    UnknownCell(String),
    /// The reconstructed netlist is malformed.
    Malformed(String),
}

impl fmt::Display for EdifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdifError::Syntax(e) => write!(f, "{e}"),
            EdifError::Structure(m) => write!(f, "EDIF structure error: {m}"),
            EdifError::UnknownCell(c) => write!(f, "unknown cell `{c}`"),
            EdifError::Malformed(m) => write!(f, "reconstructed netlist malformed: {m}"),
        }
    }
}

impl std::error::Error for EdifError {}

impl From<SexpError> for EdifError {
    fn from(e: SexpError) -> EdifError {
        EdifError::Syntax(e)
    }
}

fn structure(msg: impl Into<String>) -> EdifError {
    EdifError::Structure(msg.into())
}

/// Resolves `(rename safe "orig")` to `(safe, orig)`; a bare atom maps to
/// itself.
fn resolve_name(s: &Sexp) -> Result<(String, String), EdifError> {
    match s {
        Sexp::Atom(a) => Ok((a.clone(), a.clone())),
        Sexp::List(items) => {
            if items.len() == 3 && items[0].as_atom() == Some("rename") {
                let safe = items[1]
                    .as_atom()
                    .ok_or_else(|| structure("rename without identifier"))?
                    .to_string();
                let orig = match &items[2] {
                    Sexp::Str(s) => s.clone(),
                    Sexp::Atom(a) => a.clone(),
                    _ => return Err(structure("rename with non-string original")),
                };
                Ok((safe, orig))
            } else {
                Err(structure(format!("expected a name, found {s}")))
            }
        }
        Sexp::Str(_) => Err(structure("expected a name, found a string")),
    }
}

/// One parsed `(portRef …)`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PortRef {
    port: String,
    member: Option<usize>,
    instance: Option<String>,
}

fn parse_port_ref(s: &Sexp) -> Result<PortRef, EdifError> {
    let items = s
        .as_list()
        .ok_or_else(|| structure("portRef is not a list"))?;
    if items.first().and_then(Sexp::as_atom) != Some("portRef") {
        return Err(structure("expected portRef"));
    }
    let (port, member) = match &items[1] {
        Sexp::Atom(a) => (a.clone(), None),
        Sexp::List(inner) if inner.len() == 3 && inner[0].as_atom() == Some("member") => {
            let name = inner[1]
                .as_atom()
                .ok_or_else(|| structure("member without name"))?
                .to_string();
            let idx = inner[2]
                .as_int()
                .ok_or_else(|| structure("member without index"))?;
            (name, Some(idx as usize))
        }
        other => return Err(structure(format!("bad portRef target {other}"))),
    };
    let instance = s
        .child("instanceRef")
        .map(|c| {
            c.as_list()
                .and_then(|l| l.get(1))
                .and_then(Sexp::as_atom)
                .map(str::to_string)
                .ok_or_else(|| structure("instanceRef without name"))
        })
        .transpose()?;
    Ok(PortRef {
        port,
        member,
        instance,
    })
}

/// Parses EDIF text into a [`Netlist`].
///
/// Only the conventions produced by [`crate::to_edif`] are required, which
/// mirror Yosys output closely enough for hand-written netlists too.
///
/// # Errors
/// [`EdifError`] describing the first problem found.
pub fn from_edif(text: &str) -> Result<Netlist, EdifError> {
    let root = sexp::parse(text)?;
    if root.head() != Some("edif") {
        return Err(structure("top-level form is not (edif …)"));
    }
    // The design cell is the first cell of the first non-external library.
    let library = root
        .children("library")
        .next()
        .ok_or_else(|| structure("no (library …) stanza"))?;
    let cell = library
        .child("cell")
        .ok_or_else(|| structure("library has no cell"))?;
    let cell_items = cell.as_list().unwrap();
    let (_, design_name) = resolve_name(&cell_items[1])?;
    let view = cell
        .child("view")
        .ok_or_else(|| structure("cell has no view"))?;
    let interface = view
        .child("interface")
        .ok_or_else(|| structure("view has no interface"))?;
    let contents = view
        .child("contents")
        .ok_or_else(|| structure("view has no contents"))?;

    let mut netlist = Netlist::new(design_name);

    // --- Interface: ports. ---
    // safe name → (original, width, is_input, net ids)
    struct PortInfo {
        original: String,
        width: usize,
        is_input: bool,
        bits: Vec<NetId>,
    }
    let mut ports: Vec<PortInfo> = Vec::new();
    let mut port_index: HashMap<String, usize> = HashMap::new();
    for p in interface.children("port") {
        let items = p.as_list().unwrap();
        let (safe, original, width) = match &items[1] {
            Sexp::List(inner) if inner.first().and_then(Sexp::as_atom) == Some("array") => {
                let (safe, orig) = resolve_name(&inner[1])?;
                let width = inner[2]
                    .as_int()
                    .ok_or_else(|| structure("array port without width"))?
                    as usize;
                (safe, orig, width)
            }
            name => {
                let (safe, orig) = resolve_name(name)?;
                (safe, orig, 1)
            }
        };
        let dir = p
            .child("direction")
            .and_then(|d| d.as_list())
            .and_then(|l| l.get(1))
            .and_then(Sexp::as_atom)
            .ok_or_else(|| structure(format!("port {safe} has no direction")))?;
        let bits: Vec<NetId> = (0..width).map(|_| netlist.add_net()).collect();
        port_index.insert(safe.clone(), ports.len());
        ports.push(PortInfo {
            original,
            width,
            is_input: dir.eq_ignore_ascii_case("INPUT"),
            bits,
        });
    }

    // --- Instances. ---
    // instance safe-name → cell name
    let mut instances: HashMap<String, String> = HashMap::new();
    let mut instance_order: Vec<String> = Vec::new();
    for inst in contents.children("instance") {
        let items = inst.as_list().unwrap();
        let (safe, _orig) = resolve_name(&items[1])?;
        let cell_name = inst
            .child("viewRef")
            .and_then(|v| v.child("cellRef"))
            .and_then(|c| c.as_list())
            .and_then(|l| l.get(1))
            .and_then(Sexp::as_atom)
            .ok_or_else(|| structure(format!("instance {safe} has no cellRef")))?
            .to_string();
        instances.insert(safe.clone(), cell_name);
        instance_order.push(safe);
    }

    // --- Nets. ---
    // Each (net …) allocates (or reuses, via module port bits) one net id.
    // pin assignment: (instance, port) → net id
    let mut pin_nets: HashMap<(String, String), NetId> = HashMap::new();
    for net in contents.children("net") {
        let joined = net
            .child("joined")
            .ok_or_else(|| structure("net without joined"))?;
        let refs: Result<Vec<PortRef>, EdifError> =
            joined.children("portRef").map(parse_port_ref).collect();
        let refs = refs?;
        // Prefer a module-port endpoint's pre-allocated net id. When
        // several port bits share the net, a module input is its driver
        // and must be the id (the other bits are buffered from it below);
        // otherwise the last port bit is kept.
        let mut net_id: Option<NetId> = None;
        let mut input_bit: Option<NetId> = None;
        for r in &refs {
            if r.instance.is_none() {
                let idx = *port_index
                    .get(&r.port)
                    .ok_or_else(|| structure(format!("unknown module port `{}`", r.port)))?;
                let bit = r.member.unwrap_or(0);
                let candidate = *ports[idx]
                    .bits
                    .get(bit)
                    .ok_or_else(|| structure(format!("bit {bit} out of range for `{}`", r.port)))?;
                if ports[idx].is_input {
                    input_bit = input_bit.or(Some(candidate));
                }
                net_id = Some(candidate);
            }
        }
        let id = input_bit.or(net_id).unwrap_or_else(|| netlist.add_net());
        // Record the net's name.
        if let Some(items) = net.as_list() {
            if let Ok((_, orig)) = resolve_name(&items[1]) {
                netlist.set_net_name(id, orig);
            }
        }
        for r in &refs {
            if let Some(inst) = &r.instance {
                pin_nets.insert((inst.clone(), r.port.clone()), id);
            }
        }
        // Aliased module-port bits (rare): connect with buffers.
        let mut port_bits: Vec<NetId> = refs
            .iter()
            .filter(|r| r.instance.is_none())
            .map(|r| ports[port_index[&r.port]].bits[r.member.unwrap_or(0)])
            .collect();
        port_bits.dedup();
        for &bit in &port_bits {
            if bit != id {
                netlist.add_cell(CellKind::Buf, vec![id], bit);
            }
        }
    }

    // --- Build cells. ---
    for inst in &instance_order {
        let cell_name = &instances[inst];
        match cell_name.as_str() {
            "GND" | "VCC" => {
                let net = *pin_nets
                    .get(&(inst.clone(), "Y".to_string()))
                    .ok_or_else(|| structure(format!("constant `{inst}` is unconnected")))?;
                netlist.add_constant(net, cell_name == "VCC");
            }
            other => {
                let kind = CellKind::from_name(other)
                    .ok_or_else(|| EdifError::UnknownCell(other.to_string()))?;
                let inputs: Result<Vec<NetId>, EdifError> = kind
                    .input_names()
                    .iter()
                    .map(|pin| {
                        pin_nets
                            .get(&(inst.clone(), pin.to_string()))
                            .copied()
                            .ok_or_else(|| {
                                structure(format!("instance `{inst}` pin `{pin}` unconnected"))
                            })
                    })
                    .collect();
                let output = *pin_nets
                    .get(&(inst.clone(), kind.output_name().to_string()))
                    .ok_or_else(|| structure(format!("instance `{inst}` output unconnected")))?;
                netlist.add_cell(kind, inputs?, output);
            }
        }
    }

    // --- Register ports. ---
    for p in &ports {
        if p.is_input {
            netlist.add_input_port(p.original.clone(), p.bits.clone());
        } else {
            netlist.add_output_port(p.original.clone(), p.bits.clone());
        }
        debug_assert_eq!(p.width, p.bits.len());
    }

    netlist
        .validate()
        .map_err(|e| EdifError::Malformed(e.to_string()))?;
    Ok(netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_edif;
    use qac_netlist::{Builder, CombSim};

    fn round_trip(netlist: &Netlist) -> Netlist {
        from_edif(&to_edif(netlist)).expect("round trip")
    }

    #[test]
    fn xor_round_trip_behaviour() {
        let mut b = Builder::new("x");
        let a = b.input("a", 1)[0];
        let c = b.input("b", 1)[0];
        let y = b.xor(a, c);
        b.output("y", &[y]);
        let original = b.finish();
        let back = round_trip(&original);
        let sim_a = CombSim::new(&original).unwrap();
        let sim_b = CombSim::new(&back).unwrap();
        for av in 0..2u64 {
            for bv in 0..2u64 {
                let ra = sim_a.eval_words(&[("a", av), ("b", bv)]).unwrap();
                let rb = sim_b.eval_words(&[("a", av), ("b", bv)]).unwrap();
                assert_eq!(ra, rb);
            }
        }
    }

    #[test]
    fn adder_round_trip_behaviour() {
        let mut b = Builder::new("add");
        let x = b.input("x", 4);
        let y = b.input("y", 4);
        let s = b.add(&x, &y);
        b.output("s", &s);
        let original = b.finish();
        let back = round_trip(&original);
        assert_eq!(back.cells().len(), original.cells().len());
        let sim_a = CombSim::new(&original).unwrap();
        let sim_b = CombSim::new(&back).unwrap();
        for xv in [0u64, 3, 9, 15] {
            for yv in [0u64, 1, 7, 15] {
                let ra = sim_a.eval_words(&[("x", xv), ("y", yv)]).unwrap();
                let rb = sim_b.eval_words(&[("x", xv), ("y", yv)]).unwrap();
                assert_eq!(ra, rb, "x={xv} y={yv}");
            }
        }
    }

    #[test]
    fn constants_round_trip() {
        let mut b = Builder::new("c");
        let a = b.input("a", 1)[0];
        let t = b.constant(true);
        let y = b.and(a, t);
        b.output("y", &[y]);
        let back = round_trip(&b.finish());
        assert_eq!(back.constants().len(), 1);
        assert!(back.constants()[0].1);
    }

    #[test]
    fn dff_round_trip() {
        let mut b = Builder::new("seq");
        let d = b.input("d", 1)[0];
        let q = b.dff(d);
        b.output("q", &[q]);
        let back = round_trip(&b.finish());
        assert_eq!(back.num_flip_flops(), 1);
    }

    #[test]
    fn renamed_ports_restored() {
        let mut b = Builder::new("r");
        let a = b.input("weird$name", 1)[0];
        let buffered = b.buf(a);
        b.output("y", &[buffered]);
        let back = round_trip(&b.finish());
        assert!(back.port("weird$name").is_some());
    }

    #[test]
    fn port_alias_is_buffered_from_the_input() {
        // `assign y = a;`: one EDIF net joins both ports. The input must
        // stay the net's driver, with the output buffered from it.
        let mut b = Builder::new("alias");
        let a = b.input("a", 1);
        b.output("y", &a);
        let back = round_trip(&b.finish());
        let a = back.port("a").unwrap().bits[0];
        let y = back.port("y").unwrap().bits[0];
        assert_eq!(back.cells().len(), 1);
        assert_eq!(back.cells()[0].kind, CellKind::Buf);
        assert_eq!((back.cells()[0].inputs[0], back.cells()[0].output), (a, y));
    }

    #[test]
    fn garbage_rejected() {
        assert!(from_edif("(not edif)").is_err());
        assert!(from_edif("junk").is_err());
        assert!(matches!(from_edif("(a (b"), Err(EdifError::Syntax(_))));
    }

    #[test]
    fn unknown_cell_rejected() {
        let text = r#"
            (edif t (edifVersion 2 0 0) (edifLevel 0) (keywordMap (keywordLevel 0))
              (library DESIGN (edifLevel 0) (technology (numberDefinition))
                (cell t (cellType GENERIC)
                  (view VIEW_NETLIST (viewType NETLIST)
                    (interface (port a (direction INPUT)) (port y (direction OUTPUT)))
                    (contents
                      (instance g1 (viewRef VIEW_NETLIST (cellRef MYSTERY (libraryRef LIB))))
                      (net n1 (joined (portRef a) (portRef A (instanceRef g1))))
                      (net n2 (joined (portRef y) (portRef Y (instanceRef g1))))))))
              (design t (cellRef t (libraryRef DESIGN))))
        "#;
        assert!(matches!(from_edif(text), Err(EdifError::UnknownCell(_))));
    }
}
