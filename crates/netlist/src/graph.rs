use std::collections::HashMap;

use crate::{CellKind, NetlistError};

/// Identifier of a net (a wire in the netlist).
pub type NetId = usize;

/// Identifier of a cell instance.
pub type CellId = usize;

/// One gate instance: a kind, input nets (in [`CellKind::input_names`]
/// order), and the single output net it drives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// The gate kind.
    pub kind: CellKind,
    /// Input nets in port order.
    pub inputs: Vec<NetId>,
    /// The net driven by the cell's output.
    pub output: NetId,
    /// Instance name (unique within the netlist).
    pub name: String,
}

/// A module-level port: a named, ordered (LSB-first) group of nets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name as written in the source.
    pub name: String,
    /// The port's nets, least-significant bit first.
    pub bits: Vec<NetId>,
}

impl Port {
    /// Port width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }
}

/// A flat gate-level netlist: cells, ports, and constant ties over a pool
/// of nets.
///
/// Invariants (checked by [`Netlist::validate`]):
/// * every net has at most one driver (cell output, constant, or module
///   input);
/// * every net read by a cell or output port is driven;
/// * the combinational core is acyclic (cycles must pass through a DFF).
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    num_nets: usize,
    cells: Vec<Cell>,
    inputs: Vec<Port>,
    outputs: Vec<Port>,
    constants: Vec<(NetId, bool)>,
    net_names: HashMap<NetId, String>,
}

impl Netlist {
    /// Creates an empty netlist named `name`.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            num_nets: 0,
            cells: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            constants: Vec::new(),
            net_names: HashMap::new(),
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Allocates a fresh net.
    pub fn add_net(&mut self) -> NetId {
        self.num_nets += 1;
        self.num_nets - 1
    }

    /// Number of allocated nets.
    pub fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// Gives `net` a human-readable name (used in EDIF/QMASM output).
    pub fn set_net_name(&mut self, net: NetId, name: impl Into<String>) {
        self.net_names.insert(net, name.into());
    }

    /// The debug name of `net`, if any.
    pub fn net_name(&self, net: NetId) -> Option<&str> {
        self.net_names.get(&net).map(|s| s.as_str())
    }

    /// Adds a cell instance and returns its id.
    ///
    /// # Panics
    /// Panics if the input arity is wrong or any net is out of range.
    pub fn add_cell(&mut self, kind: CellKind, inputs: Vec<NetId>, output: NetId) -> CellId {
        assert_eq!(inputs.len(), kind.num_inputs(), "arity mismatch for {kind}");
        for &n in inputs.iter().chain(std::iter::once(&output)) {
            assert!(n < self.num_nets, "net {n} out of range");
        }
        let name = format!("{}${}", kind.name().to_ascii_lowercase(), self.cells.len());
        self.cells.push(Cell {
            kind,
            inputs,
            output,
            name,
        });
        self.cells.len() - 1
    }

    /// Ties `net` to a constant logic value.
    pub fn add_constant(&mut self, net: NetId, value: bool) {
        assert!(net < self.num_nets, "net {net} out of range");
        self.constants.push((net, value));
    }

    /// Declares an input port over existing nets (LSB first).
    pub fn add_input_port(&mut self, name: impl Into<String>, bits: Vec<NetId>) {
        self.inputs.push(Port {
            name: name.into(),
            bits,
        });
    }

    /// Declares an output port over existing nets (LSB first).
    pub fn add_output_port(&mut self, name: impl Into<String>, bits: Vec<NetId>) {
        self.outputs.push(Port {
            name: name.into(),
            bits,
        });
    }

    /// The cells in insertion order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Mutable access to cells (used by optimization passes).
    pub(crate) fn cells_mut(&mut self) -> &mut Vec<Cell> {
        &mut self.cells
    }

    /// The constant ties.
    pub fn constants(&self) -> &[(NetId, bool)] {
        &self.constants
    }

    /// Mutable access to constants (used by optimization passes).
    pub(crate) fn constants_mut(&mut self) -> &mut Vec<(NetId, bool)> {
        &mut self.constants
    }

    /// Input ports in declaration order.
    pub fn input_ports(&self) -> &[Port] {
        &self.inputs
    }

    /// Output ports in declaration order.
    pub fn output_ports(&self) -> &[Port] {
        &self.outputs
    }

    /// Finds a port (input or output) by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.inputs
            .iter()
            .chain(self.outputs.iter())
            .find(|p| p.name == name)
    }

    /// Rewrites every net reference through `map` (cell inputs/outputs,
    /// ports, constants, names). Used by optimization passes that merge
    /// nets.
    pub(crate) fn substitute_nets(&mut self, map: &[NetId]) {
        for cell in &mut self.cells {
            for input in &mut cell.inputs {
                *input = map[*input];
            }
            cell.output = map[cell.output];
        }
        for port in self.inputs.iter_mut().chain(self.outputs.iter_mut()) {
            for bit in &mut port.bits {
                *bit = map[*bit];
            }
        }
        for (net, _) in &mut self.constants {
            *net = map[*net];
        }
        // Re-key names in ascending net order: when two named nets merge,
        // the lowest-numbered one's name survives. (Iterating the HashMap
        // directly made the winner hash-order-dependent, which leaked all
        // the way into EDIF text and broke the incremental compiler's
        // cold-vs-warm byte-identity.)
        let mut names: Vec<(NetId, String)> = self.net_names.drain().collect();
        names.sort_unstable_by_key(|&(net, _)| net);
        for (net, name) in names {
            self.net_names.entry(map[net]).or_insert(name);
        }
    }

    /// For each net, who drives it: `Driver::Cell(id)`, a constant, a
    /// module input, or nothing.
    pub fn drivers(&self) -> Vec<Driver> {
        let mut drivers = vec![Driver::None; self.num_nets];
        for (id, cell) in self.cells.iter().enumerate() {
            drivers[cell.output] = match drivers[cell.output] {
                Driver::None => Driver::Cell(id),
                _ => Driver::Conflict,
            };
        }
        for &(net, value) in &self.constants {
            drivers[net] = match drivers[net] {
                Driver::None => Driver::Constant(value),
                // The same constant tie twice is harmless.
                Driver::Constant(v) if v == value => Driver::Constant(v),
                _ => Driver::Conflict,
            };
        }
        for port in &self.inputs {
            for &net in &port.bits {
                drivers[net] = match drivers[net] {
                    Driver::None => Driver::Input,
                    _ => Driver::Conflict,
                };
            }
        }
        drivers
    }

    /// Checks the structural invariants.
    ///
    /// # Errors
    /// [`NetlistError::MultipleDrivers`] for conflicting drivers,
    /// [`NetlistError::Undriven`] for floating reads, and
    /// [`NetlistError::CombinationalCycle`] if the combinational core is
    /// cyclic.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let drivers = self.drivers();
        for (net, d) in drivers.iter().enumerate() {
            if *d == Driver::Conflict {
                let name = self.source_name(net);
                return Err(NetlistError::MultipleDrivers { net, name });
            }
        }
        // Every read net must be driven.
        let mut read = vec![false; self.num_nets];
        for cell in &self.cells {
            for &n in &cell.inputs {
                read[n] = true;
            }
        }
        for port in &self.outputs {
            for &n in &port.bits {
                read[n] = true;
            }
        }
        for net in 0..self.num_nets {
            if read[net] && drivers[net] == Driver::None {
                let name = self.source_name(net);
                return Err(NetlistError::Undriven { net, name });
            }
        }
        self.topo_order().map(|_| ())
    }

    /// The name an error should give `net`: the first port bit on it
    /// (`a`, or `y[0]` for a bus), else its net name.
    fn source_name(&self, net: NetId) -> Option<String> {
        self.inputs
            .iter()
            .chain(&self.outputs)
            .find_map(|port| {
                let idx = port.bits.iter().position(|&bit| bit == net)?;
                Some(if port.width() == 1 {
                    port.name.clone()
                } else {
                    format!("{}[{idx}]", port.name)
                })
            })
            .or_else(|| self.net_name(net).map(str::to_string))
    }

    /// Topologically sorts the cells so that every combinational cell
    /// appears after the drivers of its inputs. Flip-flop outputs are
    /// sources (they carry the previous cycle's state).
    ///
    /// # Errors
    /// [`NetlistError::CombinationalCycle`] when no such order exists.
    pub fn topo_order(&self) -> Result<Vec<CellId>, NetlistError> {
        let drivers = self.drivers();
        let n = self.cells.len();
        // in-degree per combinational cell = number of inputs driven by
        // combinational cells.
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<CellId>> = vec![Vec::new(); n];
        for (id, cell) in self.cells.iter().enumerate() {
            if cell.kind.is_sequential() {
                continue; // DFFs impose no combinational ordering on their output
            }
            for &input in &cell.inputs {
                if let Driver::Cell(src) = drivers[input] {
                    if !self.cells[src].kind.is_sequential() {
                        indegree[id] += 1;
                        dependents[src].push(id);
                    }
                }
            }
        }
        let mut order: Vec<CellId> = Vec::with_capacity(n);
        // Sequential cells are emitted first (their outputs are state).
        let mut queue: std::collections::VecDeque<CellId> = (0..n)
            .filter(|&id| self.cells[id].kind.is_sequential())
            .collect();
        for (id, &deg) in indegree.iter().enumerate().take(n) {
            if !self.cells[id].kind.is_sequential() && deg == 0 {
                queue.push_back(id);
            }
        }
        while let Some(id) = queue.pop_front() {
            order.push(id);
            if self.cells[id].kind.is_sequential() {
                continue;
            }
            for &dep in &dependents[id] {
                indegree[dep] -= 1;
                if indegree[dep] == 0 {
                    queue.push_back(dep);
                }
            }
        }
        if order.len() != n {
            return Err(NetlistError::CombinationalCycle);
        }
        Ok(order)
    }

    /// Number of sequential (flip-flop) cells.
    pub fn num_flip_flops(&self) -> usize {
        self.cells.iter().filter(|c| c.kind.is_sequential()).count()
    }

    /// Whether the netlist contains any sequential logic.
    pub fn is_sequential(&self) -> bool {
        self.num_flip_flops() > 0
    }
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Nothing drives it.
    None,
    /// Driven by the output of the given cell.
    Cell(CellId),
    /// Tied to a constant.
    Constant(bool),
    /// Driven by a module input port.
    Input,
    /// More than one driver (invalid).
    Conflict,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and_netlist() -> Netlist {
        let mut n = Netlist::new("and2");
        let a = n.add_net();
        let b = n.add_net();
        let y = n.add_net();
        n.add_input_port("a", vec![a]);
        n.add_input_port("b", vec![b]);
        n.add_cell(CellKind::And, vec![a, b], y);
        n.add_output_port("y", vec![y]);
        n
    }

    #[test]
    fn valid_netlist_passes() {
        assert!(and_netlist().validate().is_ok());
    }

    #[test]
    fn multiple_drivers_detected() {
        let mut n = and_netlist();
        let a = n.input_ports()[0].bits[0];
        let b = n.input_ports()[1].bits[0];
        let y = n.output_ports()[0].bits[0];
        n.add_cell(CellKind::Or, vec![a, b], y); // second driver on y
        let err = n.validate().unwrap_err();
        assert_eq!(
            err,
            NetlistError::MultipleDrivers {
                net: y,
                name: Some("y".into())
            }
        );
        assert_eq!(err.to_string(), "net `y` (#2) has multiple drivers");
    }

    #[test]
    fn undriven_net_detected() {
        let mut n = Netlist::new("bad");
        let x = n.add_net();
        let y = n.add_net();
        n.add_cell(CellKind::Not, vec![x], y);
        n.add_output_port("y", vec![y]);
        let err = n.validate().unwrap_err();
        assert_eq!(err, NetlistError::Undriven { net: x, name: None });
        assert_eq!(err.to_string(), "net 0 is read but never driven");
        // A bus bit is named by its index, an internal net by its name.
        n.add_output_port("bus", vec![y, x]);
        let err = n.validate().unwrap_err();
        assert_eq!(
            err.to_string(),
            "net `bus[1]` (#0) is read but never driven"
        );
        let mut n = Netlist::new("named");
        let x = n.add_net();
        let y = n.add_net();
        n.set_net_name(x, "floating");
        n.add_cell(CellKind::Not, vec![x], y);
        n.add_output_port("y", vec![y]);
        assert_eq!(
            n.validate().unwrap_err().to_string(),
            "net `floating` (#0) is read but never driven"
        );
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut n = Netlist::new("loop");
        let a = n.add_net();
        let b = n.add_net();
        n.add_cell(CellKind::Not, vec![a], b);
        n.add_cell(CellKind::Not, vec![b], a);
        assert!(matches!(
            n.topo_order(),
            Err(NetlistError::CombinationalCycle)
        ));
    }

    #[test]
    fn dff_breaks_cycle() {
        let mut n = Netlist::new("counterish");
        let q = n.add_net();
        let d = n.add_net();
        n.add_cell(CellKind::Not, vec![q], d); // d = !q
        n.add_cell(CellKind::DffP, vec![d], q); // q <= d
        assert!(n.topo_order().is_ok());
        assert!(n.is_sequential());
        assert_eq!(n.num_flip_flops(), 1);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let mut n = Netlist::new("chain");
        let a = n.add_net();
        let b = n.add_net();
        let c = n.add_net();
        n.add_input_port("a", vec![a]);
        // Insert in reverse dependency order on purpose.
        let c2 = n.add_cell(CellKind::Not, vec![b], c);
        let c1 = n.add_cell(CellKind::Not, vec![a], b);
        let order = n.topo_order().unwrap();
        let pos = |id: CellId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(c1) < pos(c2));
    }

    #[test]
    fn substitute_nets_rewrites_everything() {
        let mut n = and_netlist();
        let map: Vec<NetId> = (0..n.num_nets())
            .map(|i| if i == 2 { 0 } else { i })
            .collect();
        n.substitute_nets(&map);
        assert_eq!(n.output_ports()[0].bits[0], 0);
        assert_eq!(n.cells()[0].output, 0);
    }

    #[test]
    fn drivers_reports_constants_and_inputs() {
        let mut n = Netlist::new("c");
        let k = n.add_net();
        let i = n.add_net();
        n.add_constant(k, true);
        n.add_input_port("i", vec![i]);
        let d = n.drivers();
        assert_eq!(d[k], Driver::Constant(true));
        assert_eq!(d[i], Driver::Input);
    }
}
