//! The netlist builder.
//!
//! A [`Circuit`] owns a node table and a list of [`Element`]s. Cells in
//! `nvpg-cells` are functions that take `&mut Circuit` and wire themselves
//! in; analyses in [`crate::dc`] and [`crate::transient`] then consume the
//! circuit by mutable reference (nonlinear devices carry state that
//! advances during transient runs).

use std::collections::HashMap;

use crate::element::{Element, NonlinearDevice, MAX_TERMINALS};
use crate::error::CircuitError;
use crate::node::{NodeId, NodeTable};
use crate::waveform::Waveform;

/// A flat netlist: nodes plus elements.
///
/// # Examples
///
/// A resistive divider:
///
/// ```
/// use nvpg_circuit::{Circuit, Waveform};
///
/// let mut ckt = Circuit::new();
/// let vdd = ckt.node("vdd");
/// let out = ckt.node("out");
/// ckt.vsource("v1", vdd, Circuit::GROUND, Waveform::Dc(1.0))?;
/// ckt.resistor("r1", vdd, out, 1e3)?;
/// ckt.resistor("r2", out, Circuit::GROUND, 3e3)?;
/// let op = nvpg_circuit::dc::operating_point(&mut ckt, &Default::default())?;
/// assert!((op.voltage(out) - 0.75).abs() < 1e-9);
/// # Ok::<(), nvpg_circuit::CircuitError>(())
/// ```
#[derive(Debug, Default)]
pub struct Circuit {
    pub(crate) nodes: NodeTable,
    pub(crate) elements: Vec<Element>,
    names: HashMap<String, usize>,
    /// Minimum conductance from every node to ground (SPICE GMIN).
    pub(crate) gmin: f64,
}

impl Circuit {
    /// The ground node.
    pub const GROUND: NodeId = NodeId::GROUND;

    /// Creates an empty circuit with the default `gmin = 1e-12 S`.
    pub fn new() -> Self {
        Circuit {
            nodes: NodeTable::new(),
            elements: Vec::new(),
            names: HashMap::new(),
            gmin: 1e-12,
        }
    }

    /// Sets the minimum node-to-ground conductance (SPICE `GMIN`).
    ///
    /// # Panics
    ///
    /// Panics if `gmin` is negative or not finite.
    pub fn set_gmin(&mut self, gmin: f64) {
        assert!(
            gmin.is_finite() && gmin >= 0.0,
            "gmin must be finite and >= 0"
        );
        self.gmin = gmin;
    }

    /// Returns (creating if necessary) the node with the given name.
    /// `"0"` and `"gnd"` are the ground node.
    pub fn node(&mut self, name: &str) -> NodeId {
        self.nodes.node(name)
    }

    /// Looks up an existing node.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.nodes.find(name)
    }

    /// The name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        self.nodes.name(id)
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Iterates over the elements.
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.elements.iter()
    }

    fn register(&mut self, element: Element) -> Result<(), CircuitError> {
        let name = element.name().to_owned();
        if self.names.contains_key(&name) {
            return Err(CircuitError::DuplicateName { name });
        }
        self.names.insert(name, self.elements.len());
        self.elements.push(element);
        Ok(())
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] unless `ohms` is finite and
    /// positive, or [`CircuitError::DuplicateName`].
    pub fn resistor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        ohms: f64,
    ) -> Result<(), CircuitError> {
        if !(ohms.is_finite() && ohms > 0.0) {
            return Err(CircuitError::InvalidValue {
                element: name.to_owned(),
                reason: format!("resistance must be finite and positive, got {ohms}"),
            });
        }
        self.register(Element::Resistor {
            name: name.to_owned(),
            a,
            b,
            ohms,
        })
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] unless `farads` is finite and
    /// positive, or [`CircuitError::DuplicateName`].
    pub fn capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        farads: f64,
    ) -> Result<(), CircuitError> {
        if !(farads.is_finite() && farads > 0.0) {
            return Err(CircuitError::InvalidValue {
                element: name.to_owned(),
                reason: format!("capacitance must be finite and positive, got {farads}"),
            });
        }
        self.register(Element::Capacitor {
            name: name.to_owned(),
            a,
            b,
            farads,
        })
    }

    /// Adds an independent voltage source (`v(pos) − v(neg)` follows the
    /// waveform).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::DuplicateName`] if `name` is taken.
    pub fn vsource(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        wave: impl Into<Waveform>,
    ) -> Result<(), CircuitError> {
        self.register(Element::VoltageSource {
            name: name.to_owned(),
            pos,
            neg,
            wave: wave.into(),
        })
    }

    /// Adds an independent current source driving current out of `from`
    /// into `to`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::DuplicateName`] if `name` is taken.
    pub fn isource(
        &mut self,
        name: &str,
        from: NodeId,
        to: NodeId,
        wave: impl Into<Waveform>,
    ) -> Result<(), CircuitError> {
        self.register(Element::CurrentSource {
            name: name.to_owned(),
            from,
            to,
            wave: wave.into(),
        })
    }

    /// Adds a voltage-controlled switch.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] unless both resistances are
    /// finite and positive, or [`CircuitError::DuplicateName`].
    #[allow(clippy::too_many_arguments)]
    pub fn switch(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        ctrl_pos: NodeId,
        ctrl_neg: NodeId,
        threshold: f64,
        r_on: f64,
        r_off: f64,
    ) -> Result<(), CircuitError> {
        if !(r_on.is_finite() && r_on > 0.0 && r_off.is_finite() && r_off > 0.0) {
            return Err(CircuitError::InvalidValue {
                element: name.to_owned(),
                reason: "switch resistances must be finite and positive".to_owned(),
            });
        }
        self.register(Element::Switch {
            name: name.to_owned(),
            a,
            b,
            ctrl_pos,
            ctrl_neg,
            threshold,
            r_on,
            r_off,
            smooth: 0.01,
        })
    }

    /// Adds a linear inductor.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] unless `henries` is finite
    /// and positive, or [`CircuitError::DuplicateName`].
    pub fn inductor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        henries: f64,
    ) -> Result<(), CircuitError> {
        if !(henries.is_finite() && henries > 0.0) {
            return Err(CircuitError::InvalidValue {
                element: name.to_owned(),
                reason: format!("inductance must be finite and positive, got {henries}"),
            });
        }
        self.register(Element::Inductor {
            name: name.to_owned(),
            a,
            b,
            henries,
        })
    }

    /// Adds a voltage-controlled voltage source (VCVS, SPICE `E`).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] for a non-finite gain, or
    /// [`CircuitError::DuplicateName`].
    #[allow(clippy::too_many_arguments)]
    pub fn vcvs(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        ctrl_pos: NodeId,
        ctrl_neg: NodeId,
        gain: f64,
    ) -> Result<(), CircuitError> {
        if !gain.is_finite() {
            return Err(CircuitError::InvalidValue {
                element: name.to_owned(),
                reason: format!("gain must be finite, got {gain}"),
            });
        }
        self.register(Element::Vcvs {
            name: name.to_owned(),
            pos,
            neg,
            ctrl_pos,
            ctrl_neg,
            gain,
        })
    }

    /// Adds a voltage-controlled current source (VCCS, SPICE `G`).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] for a non-finite
    /// transconductance, or [`CircuitError::DuplicateName`].
    #[allow(clippy::too_many_arguments)]
    pub fn vccs(
        &mut self,
        name: &str,
        from: NodeId,
        to: NodeId,
        ctrl_pos: NodeId,
        ctrl_neg: NodeId,
        gm: f64,
    ) -> Result<(), CircuitError> {
        if !gm.is_finite() {
            return Err(CircuitError::InvalidValue {
                element: name.to_owned(),
                reason: format!("transconductance must be finite, got {gm}"),
            });
        }
        self.register(Element::Vccs {
            name: name.to_owned(),
            from,
            to,
            ctrl_pos,
            ctrl_neg,
            gm,
        })
    }

    /// Adds a nonlinear compact-model device.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::DuplicateName`] if the device's name is
    /// taken, or [`CircuitError::InvalidValue`] if it has more than
    /// [`MAX_TERMINALS`] terminals.
    pub fn device(&mut self, device: Box<dyn NonlinearDevice + Send>) -> Result<(), CircuitError> {
        let terminals = device.nodes().len();
        if terminals > MAX_TERMINALS {
            return Err(CircuitError::InvalidValue {
                element: device.name().to_owned(),
                reason: format!("{terminals} terminals (at most {MAX_TERMINALS} supported)"),
            });
        }
        self.register(Element::Nonlinear(device))
    }

    /// Replaces the waveform of the named voltage or current source.
    ///
    /// This is how phase sequencing works: the same cell netlist is reused
    /// across read/write/store/… phases by reprogramming the drive
    /// waveforms between transient runs.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownSource`] if no source has that name.
    pub fn set_source(
        &mut self,
        name: &str,
        wave: impl Into<Waveform>,
    ) -> Result<(), CircuitError> {
        let idx = *self
            .names
            .get(name)
            .ok_or_else(|| CircuitError::UnknownSource {
                name: name.to_owned(),
            })?;
        match &mut self.elements[idx] {
            Element::VoltageSource { wave: w, .. } | Element::CurrentSource { wave: w, .. } => {
                *w = wave.into();
                Ok(())
            }
            _ => Err(CircuitError::UnknownSource {
                name: name.to_owned(),
            }),
        }
    }

    /// Current waveform of the named source, if it exists.
    pub fn source_wave(&self, name: &str) -> Option<&Waveform> {
        let idx = *self.names.get(name)?;
        match &self.elements[idx] {
            Element::VoltageSource { wave, .. } | Element::CurrentSource { wave, .. } => Some(wave),
            _ => None,
        }
    }

    /// Iterates `(id, name)` over all nodes, ground first.
    pub fn node_names_iter(&self) -> impl Iterator<Item = (NodeId, &str)> {
        self.nodes.iter()
    }

    /// Internal state snapshot of the named nonlinear device, if it
    /// exists (e.g. an MTJ's parallel/antiparallel flag).
    pub fn device_state(&self, name: &str) -> Option<Vec<(String, f64)>> {
        let idx = *self.names.get(name)?;
        match &self.elements[idx] {
            Element::Nonlinear(dev) => Some(dev.state()),
            _ => None,
        }
    }

    /// Names of all voltage sources, in insertion order (their branch
    /// currents are recorded by transient analysis under `i(<name>)`).
    pub fn vsource_names(&self) -> Vec<&str> {
        self.elements
            .iter()
            .filter_map(|e| match e {
                Element::VoltageSource { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Total number of MNA unknowns: node voltages + source branches.
    pub fn unknown_count(&self) -> usize {
        self.nodes.unknown_count() + self.branch_count()
    }

    /// Human-readable name of the `idx`-th MNA unknown: `v(<node>)` for a
    /// node voltage, `i(<element>)` for a branch current. Used by
    /// non-convergence diagnostics to name the worst-residual unknown.
    pub fn unknown_name(&self, idx: usize) -> String {
        let nv = self.nodes.unknown_count();
        if idx < nv {
            if let Some((_, name)) = self
                .nodes
                .iter()
                .find(|(id, _)| id.unknown_index() == Some(idx))
            {
                return format!("v({name})");
            }
        } else {
            let branches = self.branch_indices();
            if let Some(eidx) = branches.iter().position(|&b| b == Some(idx)) {
                return format!("i({})", self.elements[eidx].name());
            }
        }
        format!("x[{idx}]")
    }

    pub(crate) fn branch_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Element::VoltageSource { .. } | Element::Inductor { .. } | Element::Vcvs { .. }
                )
            })
            .count()
    }

    /// Assigns branch indices to voltage sources: returns, per element
    /// index, the branch unknown offset (after node unknowns) if any.
    pub(crate) fn branch_indices(&self) -> Vec<Option<usize>> {
        let nv = self.nodes.unknown_count();
        let mut next = nv;
        self.elements
            .iter()
            .map(|e| {
                if matches!(
                    e,
                    Element::VoltageSource { .. } | Element::Inductor { .. } | Element::Vcvs { .. }
                ) {
                    let idx = next;
                    next += 1;
                    Some(idx)
                } else {
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn devices_beyond_the_stamp_capacity_are_rejected() {
        #[derive(Debug)]
        struct Wide([NodeId; MAX_TERMINALS + 1]);
        impl NonlinearDevice for Wide {
            fn name(&self) -> &str {
                "x1"
            }
            fn nodes(&self) -> &[NodeId] {
                &self.0
            }
            fn load(&self, _v: &[f64], _stamp: &mut crate::element::DeviceStamp) {}
        }
        let mut ckt = Circuit::new();
        let err = ckt
            .device(Box::new(Wide([Circuit::GROUND; MAX_TERMINALS + 1])))
            .unwrap_err();
        assert!(matches!(err, CircuitError::InvalidValue { .. }), "{err}");
        assert_eq!(ckt.element_count(), 0);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor("r1", a, Circuit::GROUND, 1.0).unwrap();
        let err = ckt.resistor("r1", a, Circuit::GROUND, 2.0).unwrap_err();
        assert_eq!(err, CircuitError::DuplicateName { name: "r1".into() });
    }

    #[test]
    fn invalid_values_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        assert!(ckt.resistor("r1", a, Circuit::GROUND, 0.0).is_err());
        assert!(ckt.resistor("r2", a, Circuit::GROUND, -1.0).is_err());
        assert!(ckt.resistor("r3", a, Circuit::GROUND, f64::NAN).is_err());
        assert!(ckt.capacitor("c1", a, Circuit::GROUND, 0.0).is_err());
        assert!(ckt
            .switch("s1", a, Circuit::GROUND, a, Circuit::GROUND, 0.5, 0.0, 1e9)
            .is_err());
    }

    #[test]
    fn source_reprogramming() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("v1", a, Circuit::GROUND, 1.0).unwrap();
        assert_eq!(ckt.source_wave("v1"), Some(&Waveform::Dc(1.0)));
        ckt.set_source("v1", 2.0).unwrap();
        assert_eq!(ckt.source_wave("v1"), Some(&Waveform::Dc(2.0)));
        assert!(ckt.set_source("nope", 0.0).is_err());
        // A resistor is not a source.
        ckt.resistor("r1", a, Circuit::GROUND, 1.0).unwrap();
        assert!(ckt.set_source("r1", 0.0).is_err());
        assert_eq!(ckt.source_wave("r1"), None);
    }

    #[test]
    fn unknown_and_branch_counting() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("v1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.vsource("v2", b, Circuit::GROUND, 1.0).unwrap();
        ckt.resistor("r1", a, b, 1.0).unwrap();
        assert_eq!(ckt.unknown_count(), 4); // 2 nodes + 2 branches
        assert_eq!(ckt.branch_count(), 2);
        let idx = ckt.branch_indices();
        assert_eq!(idx[0], Some(2));
        assert_eq!(idx[1], Some(3));
        assert_eq!(idx[2], None);
        assert_eq!(ckt.vsource_names(), vec!["v1", "v2"]);
    }

    #[test]
    fn gmin_validation() {
        let mut ckt = Circuit::new();
        ckt.set_gmin(1e-14);
        assert_eq!(ckt.gmin, 1e-14);
    }

    #[test]
    #[should_panic(expected = "gmin")]
    fn negative_gmin_panics() {
        Circuit::new().set_gmin(-1.0);
    }
}
