use std::fmt;

/// Errors produced by netlist construction, validation, and simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net is driven by more than one source.
    MultipleDrivers {
        /// The multiply-driven net.
        net: usize,
        /// Its source name (a port bit such as `y[0]`, else its net
        /// name), if it has one.
        name: Option<String>,
    },
    /// A net is read but never driven (and is not a module input).
    Undriven {
        /// The floating net.
        net: usize,
        /// Its source name, as for [`NetlistError::MultipleDrivers`].
        name: Option<String>,
    },
    /// The combinational logic contains a cycle (no flip-flop on the loop).
    CombinationalCycle,
    /// A referenced port does not exist.
    UnknownPort(String),
    /// A supplied value does not fit the port width.
    ValueTooWide {
        /// Port name.
        port: String,
        /// Port width in bits.
        width: usize,
    },
    /// A net index is out of range.
    NetOutOfRange(usize),
    /// A cell has the wrong number of input connections.
    ArityMismatch {
        /// Cell name.
        cell: String,
        /// Expected input count.
        expected: usize,
        /// Supplied input count.
        got: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::MultipleDrivers { net, name } => {
                write!(f, "{} has multiple drivers", net_label(*net, name))
            }
            NetlistError::Undriven { net, name } => {
                write!(f, "{} is read but never driven", net_label(*net, name))
            }
            NetlistError::CombinationalCycle => {
                write!(
                    f,
                    "combinational cycle detected (add a flip-flop to break the loop)"
                )
            }
            NetlistError::UnknownPort(name) => write!(f, "unknown port `{name}`"),
            NetlistError::ValueTooWide { port, width } => {
                write!(f, "value does not fit the {width}-bit port `{port}`")
            }
            NetlistError::NetOutOfRange(net) => write!(f, "net index {net} out of range"),
            NetlistError::ArityMismatch {
                cell,
                expected,
                got,
            } => {
                write!(f, "cell `{cell}` expects {expected} inputs, got {got}")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// "net `a` (#0)" for a named net, "net 0" for an anonymous one.
fn net_label(net: usize, name: &Option<String>) -> String {
    match name {
        Some(name) => format!("net `{name}` (#{net})"),
        None => format!("net {net}"),
    }
}
