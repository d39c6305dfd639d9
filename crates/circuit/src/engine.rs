//! MNA assembly: turns a [`Circuit`] plus an evaluation context into the
//! [`NonlinearSystem`] consumed by the Newton solver.
//!
//! Unknown ordering: the `nv` non-ground node voltages first, then one
//! branch current per voltage source (in element order). The residual is
//! Kirchhoff's current law per node (currents *leaving* the node sum to
//! zero) plus one constraint row per voltage source.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use nvpg_numeric::matrix::DenseMatrix;
use nvpg_numeric::newton::NonlinearSystem;
use nvpg_numeric::sparse::{CscMatrix, PatternBuilder, SparsePattern};

use crate::circuit::Circuit;
use crate::element::{DeviceStamp, Element, NonlinearDevice, ShareKey, MAX_TERMINALS};
use crate::fault::FaultKind;
use crate::node::NodeId;

/// Implicit integration scheme for the transient companion models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrationMethod {
    /// First-order, L-stable; damps numerical ringing on switching
    /// circuits. The default.
    #[default]
    BackwardEuler,
    /// Second-order, A-stable; more accurate on smooth waveforms but can
    /// ring on discontinuities. Applied to linear capacitors (device
    /// charge models always integrate with backward Euler).
    Trapezoidal,
}

/// Companion-model state for transient integration.
#[derive(Debug, Clone, Default)]
pub(crate) struct Integration {
    /// Integration scheme for linear capacitors.
    pub method: IntegrationMethod,
    /// Current step size.
    pub dt: f64,
    /// Previous accepted voltage across each linear capacitor (element
    /// order, capacitors only).
    pub cap_v_prev: Vec<f64>,
    /// Previous accepted current through each linear capacitor
    /// (trapezoidal history; zero at the DC starting point).
    pub cap_i_prev: Vec<f64>,
    /// Previous accepted terminal charges of the nonlinear devices, flat:
    /// device `d`'s terminals start at the system's `dev_off[d]`.
    pub dev_q_prev: Vec<f64>,
    /// Previous accepted branch current of each inductor (element order,
    /// inductors only).
    pub ind_i_prev: Vec<f64>,
}

/// Evaluation context: time, stepping scale factors, integration state.
#[derive(Debug, Clone, Default)]
pub(crate) struct MnaContext {
    /// Source evaluation time (transient) — DC uses each waveform's value
    /// at `t = 0`.
    pub time: f64,
    /// Scale factor on independent sources (source stepping).
    pub source_scale: f64,
    /// Additional gmin from every node to ground (gmin stepping).
    pub extra_gmin: f64,
    /// Transient integration state; `None` in DC (capacitors open).
    pub integ: Option<Integration>,
}

impl MnaContext {
    pub(crate) fn dc() -> Self {
        MnaContext {
            time: 0.0,
            source_scale: 1.0,
            extra_gmin: 0.0,
            integ: None,
        }
    }
}

/// State of a device's cached linearisation (its stamp and the terminal
/// voltages it was computed at).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Linearisation {
    /// Nothing cached yet: the next assembly evaluates.
    Invalid,
    /// The stamp was computed at the cached voltages.
    Ready,
    /// The cached voltages are current but the stamp is stale: a step was
    /// accepted (and the device's state advanced) since it was computed.
    /// The assembly reloads it at the cached voltages only if its bypass
    /// test reuses it; otherwise the device is evaluated at the new
    /// voltages anyway and the reload is never needed.
    Pending,
}

/// Assembly state shared by every system over one topology: the
/// Jacobian slot tapes and the share tables. One cache serves the lanes
/// of a batch (like the sparse symbolic schedule) and the systems of a DC
/// rescue ladder; it is single-threaded (`Rc`), like the systems.
#[derive(Debug, Default)]
pub(crate) struct AssemblyCache {
    /// Value-slot tapes, indexed by [`AssemblyCache::tape_index`]: for
    /// each assembly context (DC, transient) and Jacobian storage (dense
    /// row-major, CSC), the storage index of every Jacobian add, in
    /// assembly order. Every assembly in a given context makes the same
    /// adds in the same order — the stamped *positions* depend only on
    /// the topology — so the first full assembly records its slots and
    /// every later one replays them as `values[tape[k]] += g`, with no
    /// per-add position search.
    tapes: [OnceCell<Vec<u32>>; 4],
    /// One share table per sharing class index. A system's classes use
    /// the tables of the same index; entries carry the owning system, so
    /// systems whose classes differ (the lanes of a Monte-Carlo batch)
    /// never see each other's stamps. Lanes assemble one after another,
    /// so one set of tables serves the whole batch.
    tables: RefCell<Vec<ShareTable>>,
    /// Owner tags handed out so far.
    owners: Cell<u64>,
}

impl AssemblyCache {
    fn tape_index(transient: bool, csc: bool) -> usize {
        usize::from(transient) * 2 + usize::from(csc)
    }

    /// Registers a system whose class `c` has `instances[c]` members:
    /// makes sure each class has a table, and returns the system's owner
    /// tag.
    fn register(&self, instances: &[usize]) -> u64 {
        let mut tables = self.tables.borrow_mut();
        for (c, &n) in instances.iter().enumerate() {
            let slots = ShareTable::slots_for(n);
            match tables.get_mut(c) {
                Some(t) if t.entries.len() >= slots => {}
                Some(t) => *t = ShareTable::with_slots(slots),
                None => tables.push(ShareTable::with_slots(slots)),
            }
        }
        let owner = self.owners.get();
        self.owners.set(owner + 1);
        owner
    }
}

/// Bit patterns of up to [`MAX_TERMINALS`] terminal voltages (unused
/// trailing words zero).
type VoltageBits = [u64; MAX_TERMINALS];

fn voltage_bits(v: &[f64]) -> VoltageBits {
    let mut bits = [0; MAX_TERMINALS];
    for (b, x) in bits.iter_mut().zip(v) {
        *b = x.to_bits();
    }
    bits
}

/// A direct-mapped cache of stamps for one class of identical device
/// instances (equal [`ShareKey`]s), keyed exactly by the owning system
/// and the bit patterns of the terminal voltages. A hit returns exactly
/// the stamp `load` would compute; the hash only picks the slot, and a
/// collision merely evicts.
#[derive(Debug)]
struct ShareTable {
    entries: Vec<Option<(u64, VoltageBits, DeviceStamp)>>,
}

/// Slots per share table, at most: a class's distinct voltage tuples in
/// one assembly are the distinct cell states of a mostly uniform array.
const SHARE_TABLE_MAX: usize = 128;

impl ShareTable {
    fn slots_for(instances: usize) -> usize {
        instances.next_power_of_two().min(SHARE_TABLE_MAX)
    }

    fn with_slots(slots: usize) -> Self {
        ShareTable {
            entries: vec![None; slots],
        }
    }

    fn slot(&self, bits: &VoltageBits) -> usize {
        let h = bits.iter().fold(0u64, |h, &b| {
            (h ^ b).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
        });
        (h as usize) & (self.entries.len() - 1)
    }
}

/// Evaluates `dev` at `v` into `stamp`, through `table` (as `owner`) when
/// the device belongs to a sharing class. Returns `true` when the table
/// answered (no model call).
fn evaluate(
    dev: &dyn NonlinearDevice,
    table: Option<(&mut ShareTable, u64)>,
    v: &[f64],
    stamp: &mut DeviceStamp,
) -> bool {
    let Some((table, owner)) = table else {
        stamp.clear();
        dev.load(v, stamp);
        return false;
    };
    let bits = voltage_bits(v);
    let slot = table.slot(&bits);
    if let Some((o, key, hit)) = &table.entries[slot] {
        if *o == owner && *key == bits {
            stamp.clone_from(hit);
            return true;
        }
    }
    stamp.clear();
    dev.load(v, stamp);
    table.entries[slot] = Some((owner, bits, stamp.clone()));
    false
}

/// No sharing class.
const NO_CLASS: u32 = u32::MAX;

/// The assembled nonlinear system for one circuit + context.
pub(crate) struct MnaSystem<'a> {
    pub circuit: &'a mut Circuit,
    pub ctx: MnaContext,
    /// Fault to inject into the next solve's assemblies (set by the
    /// analysis driver from the active [`crate::fault::FaultPlan`]).
    pub fault: Option<FaultKind>,
    branch_idx: Vec<Option<usize>>,
    nv: usize,
    dim: usize,
    /// Offset of each nonlinear device's first terminal (ordinal order)
    /// in the flat per-terminal arrays; one extra entry holds the total.
    dev_off: Vec<usize>,
    /// Cached stamps, one per nonlinear device (ordinal order).
    stamps: Vec<DeviceStamp>,
    /// Device-eval bypass tolerance on terminal voltages; `0.0` disables
    /// bypass (the DC default). Set by the transient driver from
    /// [`crate::transient::TransientOptions::device_bypass_tol`].
    bypass_tol: f64,
    /// Terminal voltages at which each device's stamp was (or, when
    /// pending, will be) computed. Flat, indexed through `dev_off`.
    dev_v_cache: Vec<f64>,
    /// State of each device's cached linearisation.
    dev_lin: Vec<Linearisation>,
    /// Sharing class of each device (classes have at least two
    /// instances), or [`NO_CLASS`].
    dev_class: Vec<u32>,
    /// Slot tapes and share tables, shared with every system over this
    /// topology.
    cache: Rc<AssemblyCache>,
    /// This system's tag in the share tables.
    owner: u64,
    /// Model evaluations at the assembly's own voltages (bypass test
    /// failed and no share-table hit).
    device_evals: u64,
    /// Evaluations skipped by re-emitting the cached stamp.
    device_bypasses: u64,
    /// Evaluations answered by a share table instead of the model.
    device_shares: u64,
    /// Pending linearisations materialised because a bypass reused them.
    deferred_loads: u64,
}

/// Jacobian destination for [`MnaSystem::assemble`]. Monomorphised, so
/// the residual-only path pays nothing for the abstraction.
pub(crate) trait JacSink {
    /// `false` for the no-op sink — lets assembly skip derivative-only
    /// arithmetic.
    const ACTIVE: bool;
    fn add(&mut self, r: usize, c: usize, v: f64);
}

/// Discards Jacobian entries (residual-only assembly).
pub(crate) struct NoJac;

impl JacSink for NoJac {
    const ACTIVE: bool = false;
    #[inline]
    fn add(&mut self, _r: usize, _c: usize, _v: f64) {}
}

/// A Jacobian in either storage the Newton backends use.
enum Jacobian<'m> {
    Dense(&'m mut DenseMatrix),
    Csc(&'m mut CscMatrix),
}

impl Jacobian<'_> {
    fn values_mut(&mut self) -> &mut [f64] {
        match self {
            Jacobian::Dense(m) => m.values_mut(),
            Jacobian::Csc(m) => m.values_mut(),
        }
    }
}

/// First assembly in a context: resolves each add's value slot, stamps
/// through it, and records it on the tape.
struct TapeRecorder<'m> {
    jacobian: Jacobian<'m>,
    tape: Vec<u32>,
}

impl JacSink for TapeRecorder<'_> {
    const ACTIVE: bool = true;
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        let slot = match &mut self.jacobian {
            Jacobian::Dense(m) => r * m.cols() + c,
            Jacobian::Csc(m) => m
                .slot(r, c)
                .unwrap_or_else(|| panic!("stamp at ({r}, {c}) outside the sparse pattern")),
        };
        self.jacobian.values_mut()[slot] += v;
        self.tape
            .push(u32::try_from(slot).expect("Jacobian slot index exceeds u32"));
    }
}

/// Later assemblies: replays the recorded slots in order.
struct TapeReplay<'m, 't> {
    values: &'m mut [f64],
    tape: &'t [u32],
    next: usize,
}

impl JacSink for TapeReplay<'_, '_> {
    const ACTIVE: bool = true;
    #[inline]
    fn add(&mut self, _r: usize, _c: usize, v: f64) {
        self.values[self.tape[self.next] as usize] += v;
        self.next += 1;
    }
}

/// Collects Jacobian stamp *positions* (values discarded) — used once per
/// topology to build the sparse structural pattern.
struct PatternSink(PatternBuilder);

impl JacSink for PatternSink {
    const ACTIVE: bool = true;
    #[inline]
    fn add(&mut self, r: usize, c: usize, _v: f64) {
        self.0.add(r, c);
    }
}

/// Structural Jacobian pattern of `circuit`, valid for **every** analysis
/// context: the assembly runs once in a transient context (backward Euler,
/// `dt = 1`), whose stamp set is a superset of the DC one — capacitor
/// companion stamps and the inductor `(branch, branch)` term only exist in
/// transient, every other element stamps the same positions in both — and is
/// independent of gmin/source stepping (those only scale diagonal entries
/// already present). One symbolic analysis therefore serves DC, transient,
/// and the whole rescue ladder.
pub(crate) fn jacobian_pattern(circuit: &mut Circuit) -> SparsePattern {
    let dim = circuit.unknown_count();
    let mut sys = MnaSystem::new(circuit, MnaContext::dc());
    let x = vec![0.0; dim];
    sys.init_integration(&x, IntegrationMethod::BackwardEuler);
    if let Some(integ) = &mut sys.ctx.integ {
        integ.dt = 1.0;
    }
    let mut residual = vec![0.0; dim];
    let mut sink = PatternSink(PatternBuilder::new(dim));
    sys.assemble(&x, &mut residual, &mut sink);
    sink.0.build()
}

#[inline]
fn volt(x: &[f64], node: NodeId) -> f64 {
    match node.unknown_index() {
        Some(i) => x[i],
        None => 0.0,
    }
}

/// Smooth logistic used by the voltage-controlled switch.
#[inline]
fn logistic(z: f64) -> f64 {
    if z > 40.0 {
        1.0
    } else if z < -40.0 {
        0.0
    } else {
        1.0 / (1.0 + (-z).exp())
    }
}

impl<'a> MnaSystem<'a> {
    /// A system with its own assembly cache.
    pub(crate) fn new(circuit: &'a mut Circuit, ctx: MnaContext) -> Self {
        Self::with_cache(circuit, ctx, Rc::default())
    }

    /// A system using `cache`, which every system passed it must share
    /// one topology with.
    pub(crate) fn with_cache(
        circuit: &'a mut Circuit,
        ctx: MnaContext,
        cache: Rc<AssemblyCache>,
    ) -> Self {
        let branch_idx = circuit.branch_indices();
        let nv = circuit.nodes.unknown_count();
        let dim = circuit.unknown_count();
        let mut dev_off = vec![0];
        let mut stamps = Vec::new();
        let mut keys = Vec::new();
        for e in &circuit.elements {
            if let Element::Nonlinear(dev) = e {
                let nt = dev.nodes().len();
                stamps.push(DeviceStamp::new(nt));
                dev_off.push(dev_off[dev_off.len() - 1] + nt);
                keys.push(dev.share_key().map(|key| (nt, key)));
            }
        }
        // Group devices with equal model keys; only classes of two or more
        // instances get a share table.
        let mut counts: HashMap<&(usize, ShareKey), usize> = HashMap::new();
        for key in keys.iter().flatten() {
            *counts.entry(key).or_default() += 1;
        }
        let mut class_of: HashMap<&(usize, ShareKey), u32> = HashMap::new();
        let mut instances = Vec::new();
        let dev_class = keys
            .iter()
            .map(|key| match key {
                Some(key) if counts[key] >= 2 => *class_of.entry(key).or_insert_with(|| {
                    instances.push(counts[key]);
                    u32::try_from(instances.len() - 1).expect("share classes fit u32")
                }),
                _ => NO_CLASS,
            })
            .collect();
        let owner = cache.register(&instances);
        let n_devs = stamps.len();
        let terminals = dev_off[n_devs];
        MnaSystem {
            circuit,
            ctx,
            fault: None,
            branch_idx,
            nv,
            dim,
            dev_off,
            stamps,
            bypass_tol: 0.0,
            dev_v_cache: vec![0.0; terminals],
            dev_lin: vec![Linearisation::Invalid; n_devs],
            dev_class,
            cache,
            owner,
            device_evals: 0,
            device_bypasses: 0,
            device_shares: 0,
            deferred_loads: 0,
        }
    }

    /// Enables device-eval bypass: devices whose terminal voltages moved
    /// less than `tol` (scaled per device) since their last full
    /// evaluation re-emit the cached stamp, linearised at the cached
    /// point, instead of re-running the I–V model. `0.0` disables.
    pub(crate) fn set_bypass_tol(&mut self, tol: f64) {
        self.bypass_tol = tol;
    }

    /// Model evaluations at the assembly's own terminal voltages: the
    /// bypass test failed and no share table held the stamp.
    pub(crate) fn device_evals(&self) -> u64 {
        self.device_evals
    }

    /// Device evaluations skipped via the bypass cache.
    pub(crate) fn device_bypasses(&self) -> u64 {
        self.device_bypasses
    }

    /// Evaluations answered by a share table (an identical instance had
    /// already computed the stamp at bit-identical voltages).
    pub(crate) fn device_shares(&self) -> u64 {
        self.device_shares
    }

    /// Deferred accept-step reloads that a bypass actually needed.
    pub(crate) fn deferred_loads(&self) -> u64 {
        self.deferred_loads
    }

    /// Initialises integration state from a converged solution `x` at the
    /// start of a transient run.
    pub(crate) fn init_integration(&mut self, x: &[f64], method: IntegrationMethod) {
        let mut cap_v_prev = Vec::new();
        let mut ind_i_prev = Vec::new();
        let mut dev_q_prev = vec![0.0; self.dev_v_cache.len()];
        let mut dev_ord = 0usize;
        for (eidx, e) in self.circuit.elements.iter().enumerate() {
            match e {
                Element::Capacitor { a, b, .. } => {
                    cap_v_prev.push(volt(x, *a) - volt(x, *b));
                }
                // Inductor currents: take their DC branch solution as
                // history.
                Element::Inductor { .. } => {
                    let br = self.branch_idx[eidx].expect("inductor branch");
                    ind_i_prev.push(x[br]);
                }
                Element::Nonlinear(dev) => {
                    let range = self.dev_off[dev_ord]..self.dev_off[dev_ord + 1];
                    let cache = &mut self.dev_v_cache[range.clone()];
                    for (c, &n) in cache.iter_mut().zip(dev.nodes()) {
                        *c = volt(x, n);
                    }
                    dev.charge(cache, &mut dev_q_prev[range]);
                    self.dev_lin[dev_ord] = Linearisation::Pending;
                    dev_ord += 1;
                }
                _ => {}
            }
        }
        let n_caps = cap_v_prev.len();
        self.ctx.integ = Some(Integration {
            method,
            dt: 0.0,
            cap_v_prev,
            cap_i_prev: vec![0.0; n_caps],
            dev_q_prev,
            ind_i_prev,
        });
    }

    /// Commits an accepted transient step: updates companion-model history
    /// and lets devices advance their internal state.
    ///
    /// Devices contribute only their charges here. Their linearisations
    /// become pending at the accepted voltages, and the next assembly
    /// reloads one only if its bypass test reuses it.
    pub(crate) fn accept_step(&mut self, x: &[f64], t: f64, dt: f64) {
        let mut cap_ord = 0usize;
        let mut dev_ord = 0usize;
        let mut ind_ord = 0usize;
        let MnaSystem {
            circuit,
            ctx,
            branch_idx,
            dev_off,
            dev_v_cache,
            dev_lin,
            ..
        } = self;
        let integ = ctx.integ.as_mut().expect("accept_step without init");
        for (eidx, e) in circuit.elements.iter_mut().enumerate() {
            match e {
                Element::Inductor { .. } => {
                    let br = branch_idx[eidx].expect("inductor branch");
                    integ.ind_i_prev[ind_ord] = x[br];
                    ind_ord += 1;
                }
                Element::Capacitor { a, b, farads, .. } => {
                    let v_new = volt(x, *a) - volt(x, *b);
                    let v_prev = integ.cap_v_prev[cap_ord];
                    integ.cap_i_prev[cap_ord] = match integ.method {
                        IntegrationMethod::BackwardEuler => *farads / dt * (v_new - v_prev),
                        IntegrationMethod::Trapezoidal => {
                            2.0 * *farads / dt * (v_new - v_prev) - integ.cap_i_prev[cap_ord]
                        }
                    };
                    integ.cap_v_prev[cap_ord] = v_new;
                    cap_ord += 1;
                }
                Element::Nonlinear(dev) => {
                    let range = dev_off[dev_ord]..dev_off[dev_ord + 1];
                    let cache = &mut dev_v_cache[range.clone()];
                    for (c, &n) in cache.iter_mut().zip(dev.nodes().iter()) {
                        *c = volt(x, n);
                    }
                    dev.accept_step(cache, t, dt);
                    // Charges at the accepted voltages and post-advance
                    // state: the backward-Euler history.
                    let q = &mut integ.dev_q_prev[range];
                    q.fill(0.0);
                    dev.charge(cache, q);
                    dev_lin[dev_ord] = Linearisation::Pending;
                    dev_ord += 1;
                }
                _ => {}
            }
        }
    }

    /// Full assembly into `jacobian`: records the context's slot tape on
    /// first use, replays it afterwards.
    fn assemble_jacobian(&mut self, x: &[f64], residual: &mut [f64], mut jacobian: Jacobian<'_>) {
        let index = AssemblyCache::tape_index(
            self.ctx.integ.is_some(),
            matches!(jacobian, Jacobian::Csc(_)),
        );
        let cache = Rc::clone(&self.cache);
        let cell = &cache.tapes[index];
        match cell.get() {
            Some(tape) => {
                let mut sink = TapeReplay {
                    values: jacobian.values_mut(),
                    tape,
                    next: 0,
                };
                self.assemble(x, residual, &mut sink);
                assert_eq!(
                    sink.next,
                    tape.len(),
                    "assembly made a different number of Jacobian adds than its slot tape"
                );
            }
            None => {
                let mut sink = TapeRecorder {
                    jacobian,
                    tape: Vec::new(),
                };
                self.assemble(x, residual, &mut sink);
                let _ = cell.set(sink.tape);
            }
        }
    }
}

impl NonlinearSystem for MnaSystem<'_> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn eval(&mut self, x: &[f64], residual: &mut [f64], jacobian: &mut DenseMatrix) {
        self.assemble_jacobian(x, residual, Jacobian::Dense(jacobian));

        // Injected faults corrupt the assembled system at its natural
        // site; `RejectStep` and `Stall` are handled by the analysis
        // driver instead and never reach assembly.
        match self.fault {
            Some(FaultKind::NanResidual) => {
                if let Some(r) = residual.first_mut() {
                    *r = f64::NAN;
                }
            }
            Some(FaultKind::SingularMatrix) => jacobian.clear(),
            Some(FaultKind::Panic) => panic!("injected fault: panic during MNA assembly"),
            Some(FaultKind::RejectStep | FaultKind::Stall(_)) | None => {}
        }
    }

    fn eval_residual_only(&mut self, x: &[f64], residual: &mut [f64]) -> bool {
        // A pending fault must land on a full assembly, so every
        // corruption site (residual, Jacobian, panic) stays reachable on
        // the modified-Newton path.
        if self.fault.is_some() {
            return false;
        }
        self.assemble(x, residual, &mut NoJac);
        true
    }

    fn eval_sparse(&mut self, x: &[f64], residual: &mut [f64], jacobian: &mut CscMatrix) -> bool {
        self.assemble_jacobian(x, residual, Jacobian::Csc(jacobian));

        // Mirror `eval`'s fault handling exactly, so the fault-injection
        // suite exercises the same corruption sites on the sparse path.
        // `CscMatrix::clear` zeroes values while keeping the pattern, which
        // is precisely a singular (all-zero) Jacobian.
        match self.fault {
            Some(FaultKind::NanResidual) => {
                if let Some(r) = residual.first_mut() {
                    *r = f64::NAN;
                }
            }
            Some(FaultKind::SingularMatrix) => jacobian.clear(),
            Some(FaultKind::Panic) => panic!("injected fault: panic during MNA assembly"),
            Some(FaultKind::RejectStep | FaultKind::Stall(_)) | None => {}
        }
        true
    }
}

impl MnaSystem<'_> {
    /// Stamps the whole MNA system into `residual` and `jacobian`; the
    /// latter may be [`NoJac`], which turns this into the residual-only
    /// evaluation used by stale modified-Newton iterations. With an active
    /// sink, the sequence of `(row, col)` adds depends only on the
    /// topology and on whether the context is transient — the invariant
    /// the slot tapes rely on.
    fn assemble<J: JacSink>(&mut self, x: &[f64], residual: &mut [f64], jacobian: &mut J) {
        let cache = Rc::clone(&self.cache);
        let mut tables = cache.tables.borrow_mut();
        let gmin = self.circuit.gmin + self.ctx.extra_gmin;
        for i in 0..self.nv {
            residual[i] += gmin * x[i];
            jacobian.add(i, i, gmin);
        }

        let scale = self.ctx.source_scale;
        let time = self.ctx.time;
        let mut cap_ord = 0usize;
        let mut dev_ord = 0usize;
        let mut ind_ord = 0usize;

        for (eidx, e) in self.circuit.elements.iter().enumerate() {
            match e {
                Element::Resistor { a, b, ohms, .. } => {
                    let g = 1.0 / ohms;
                    stamp_conductance(residual, jacobian, x, *a, *b, g);
                }
                Element::Capacitor { a, b, farads, .. } => {
                    if let Some(integ) = &self.ctx.integ {
                        // Companion model: BE  i = (C/dt)·(v − v_prev);
                        // trapezoidal  i = (2C/dt)·(v − v_prev) − i_prev.
                        let vab = volt(x, *a) - volt(x, *b);
                        let (geq, hist) = match integ.method {
                            IntegrationMethod::BackwardEuler => (farads / integ.dt, 0.0),
                            IntegrationMethod::Trapezoidal => {
                                (2.0 * farads / integ.dt, integ.cap_i_prev[cap_ord])
                            }
                        };
                        let ieq = geq * (vab - integ.cap_v_prev[cap_ord]) - hist;
                        add_current(residual, *a, ieq);
                        add_current(residual, *b, -ieq);
                        stamp_g_only(jacobian, *a, *b, geq);
                    }
                    cap_ord += 1;
                }
                Element::VoltageSource { pos, neg, wave, .. } => {
                    let br = self.branch_idx[eidx].expect("vsource has branch");
                    let i_br = x[br];
                    add_current(residual, *pos, i_br);
                    add_current(residual, *neg, -i_br);
                    if let Some(p) = pos.unknown_index() {
                        jacobian.add(p, br, 1.0);
                        jacobian.add(br, p, 1.0);
                    }
                    if let Some(nn) = neg.unknown_index() {
                        jacobian.add(nn, br, -1.0);
                        jacobian.add(br, nn, -1.0);
                    }
                    residual[br] += volt(x, *pos) - volt(x, *neg) - wave.value(time) * scale;
                }
                Element::CurrentSource { from, to, wave, .. } => {
                    let i = wave.value(time) * scale;
                    // Current leaves `from` (into the source) and enters `to`.
                    add_current(residual, *from, i);
                    add_current(residual, *to, -i);
                }
                Element::Switch {
                    a,
                    b,
                    ctrl_pos,
                    ctrl_neg,
                    threshold,
                    r_on,
                    r_off,
                    smooth,
                    ..
                } => {
                    let vc = volt(x, *ctrl_pos) - volt(x, *ctrl_neg);
                    let z = (vc - threshold) / smooth;
                    let s = logistic(z);
                    // Interpolate conductance in log space for smoothness
                    // across many orders of magnitude.
                    let (ln_on, ln_off) = ((1.0 / r_on).ln(), (1.0 / r_off).ln());
                    let ln_g = ln_off + (ln_on - ln_off) * s;
                    let g = ln_g.exp();

                    let vab = volt(x, *a) - volt(x, *b);
                    let i = g * vab;
                    add_current(residual, *a, i);
                    add_current(residual, *b, -i);
                    stamp_g_only(jacobian, *a, *b, g);
                    // ∂i/∂vc terms (derivative-only work, skipped by the
                    // residual-only sink).
                    if J::ACTIVE {
                        let ds_dz = s * (1.0 - s);
                        let dg_dvc = g * (ln_on - ln_off) * ds_dz / smooth;
                        for (node, sign) in [(*a, 1.0), (*b, -1.0)] {
                            if let Some(r) = node.unknown_index() {
                                if let Some(cp) = ctrl_pos.unknown_index() {
                                    jacobian.add(r, cp, sign * vab * dg_dvc);
                                }
                                if let Some(cn) = ctrl_neg.unknown_index() {
                                    jacobian.add(r, cn, -sign * vab * dg_dvc);
                                }
                            }
                        }
                    }
                }
                Element::Inductor { a, b, henries, .. } => {
                    let br = self.branch_idx[eidx].expect("inductor branch");
                    let i_br = x[br];
                    add_current(residual, *a, i_br);
                    add_current(residual, *b, -i_br);
                    if let Some(ia) = a.unknown_index() {
                        jacobian.add(ia, br, 1.0);
                        jacobian.add(br, ia, 1.0);
                    }
                    if let Some(ib) = b.unknown_index() {
                        jacobian.add(ib, br, -1.0);
                        jacobian.add(br, ib, -1.0);
                    }
                    match &self.ctx.integ {
                        Some(integ) => {
                            // BE companion: v_ab = (L/dt)·(i − i_prev).
                            let req = henries / integ.dt;
                            residual[br] += volt(x, *a) - volt(x, *b) - req * i_br
                                + req * integ.ind_i_prev[ind_ord];
                            jacobian.add(br, br, -req);
                        }
                        None => {
                            // DC: a short — v(a) = v(b).
                            residual[br] += volt(x, *a) - volt(x, *b);
                        }
                    }
                    ind_ord += 1;
                }
                Element::Vcvs {
                    pos,
                    neg,
                    ctrl_pos,
                    ctrl_neg,
                    gain,
                    ..
                } => {
                    let br = self.branch_idx[eidx].expect("vcvs branch");
                    let i_br = x[br];
                    add_current(residual, *pos, i_br);
                    add_current(residual, *neg, -i_br);
                    if let Some(p) = pos.unknown_index() {
                        jacobian.add(p, br, 1.0);
                        jacobian.add(br, p, 1.0);
                    }
                    if let Some(n) = neg.unknown_index() {
                        jacobian.add(n, br, -1.0);
                        jacobian.add(br, n, -1.0);
                    }
                    residual[br] += volt(x, *pos)
                        - volt(x, *neg)
                        - gain * (volt(x, *ctrl_pos) - volt(x, *ctrl_neg));
                    if let Some(cp) = ctrl_pos.unknown_index() {
                        jacobian.add(br, cp, -gain);
                    }
                    if let Some(cn) = ctrl_neg.unknown_index() {
                        jacobian.add(br, cn, *gain);
                    }
                }
                Element::Vccs {
                    from,
                    to,
                    ctrl_pos,
                    ctrl_neg,
                    gm,
                    ..
                } => {
                    let i = gm * (volt(x, *ctrl_pos) - volt(x, *ctrl_neg));
                    add_current(residual, *from, i);
                    add_current(residual, *to, -i);
                    for (node, sign) in [(*from, 1.0), (*to, -1.0)] {
                        if let Some(r) = node.unknown_index() {
                            if let Some(cp) = ctrl_pos.unknown_index() {
                                jacobian.add(r, cp, sign * gm);
                            }
                            if let Some(cn) = ctrl_neg.unknown_index() {
                                jacobian.add(r, cn, -sign * gm);
                            }
                        }
                    }
                }
                Element::Nonlinear(dev) => {
                    let nodes = dev.nodes();
                    let nt = nodes.len();
                    let off = self.dev_off[dev_ord];
                    let mut v_now = [0.0; MAX_TERMINALS];
                    for (s, &n) in v_now.iter_mut().zip(nodes) {
                        *s = volt(x, n);
                    }
                    let vs = &v_now[..nt];

                    // Device-eval bypass: if every terminal voltage is
                    // within tolerance of the cached linearisation point,
                    // re-emit the cached stamp instead of re-running the
                    // I–V model. Devices veto by scaling the tolerance to
                    // zero (e.g. an MTJ mid-switching).
                    let tol = self.bypass_tol * dev.bypass_tolerance_scale();
                    let cache = &mut self.dev_v_cache[off..off + nt];
                    let lin = self.dev_lin[dev_ord];
                    let bypass = tol > 0.0
                        && lin != Linearisation::Invalid
                        && vs
                            .iter()
                            .zip(cache.iter())
                            .all(|(s, c)| (s - c).abs() <= tol);
                    let stamp = &mut self.stamps[dev_ord];
                    let table = match self.dev_class[dev_ord] {
                        NO_CLASS => None,
                        class => Some((&mut tables[class as usize], self.owner)),
                    };
                    if bypass {
                        self.device_bypasses += 1;
                        if lin == Linearisation::Pending {
                            // The deferred accept-step reload, at the
                            // voltages (and device state) it was due at.
                            evaluate(&**dev, table, cache, stamp);
                            self.deferred_loads += 1;
                        }
                    } else {
                        if evaluate(&**dev, table, vs, stamp) {
                            self.device_shares += 1;
                        } else {
                            self.device_evals += 1;
                        }
                        cache.copy_from_slice(vs);
                    }
                    self.dev_lin[dev_ord] = Linearisation::Ready;

                    // Linearise the stamp at the cached point:
                    // i(v) ≈ i(v_c) + G·(v − v_c), q(v) ≈ q(v_c) + C·(v − v_c).
                    // After a fresh evaluation dv is identically zero, so
                    // this is exact; under bypass the model error is
                    // bounded by the curvature over a ≤ tol interval, and
                    // the stamped Jacobian G stays consistent with the
                    // residual, so Newton sees a genuinely linear device.
                    let mut dv = [0.0; MAX_TERMINALS];
                    for ((d, s), c) in dv.iter_mut().zip(vs.iter()).zip(cache.iter()) {
                        *d = s - c;
                    }
                    let dv = &dv[..nt];
                    for (t, &node_t) in nodes.iter().enumerate() {
                        let mut i_t = stamp.current[t];
                        let mut q_t = stamp.charge[t];
                        for (u, d) in dv.iter().enumerate() {
                            i_t += stamp.conductance[t][u] * d;
                            q_t += stamp.capacitance[t][u] * d;
                        }
                        // Charge contribution (backward Euler) in transient.
                        if let Some(integ) = &self.ctx.integ {
                            i_t += (q_t - integ.dev_q_prev[off + t]) / integ.dt;
                        }
                        add_current(residual, node_t, i_t);
                        if J::ACTIVE {
                            if let Some(r) = node_t.unknown_index() {
                                for (u, &nu) in nodes.iter().enumerate() {
                                    if let Some(c) = nu.unknown_index() {
                                        let mut g = stamp.conductance[t][u];
                                        if let Some(integ) = &self.ctx.integ {
                                            g += stamp.capacitance[t][u] / integ.dt;
                                        }
                                        jacobian.add(r, c, g);
                                    }
                                }
                            }
                        }
                    }
                    dev_ord += 1;
                }
            }
        }
    }
}

#[inline]
fn add_current(residual: &mut [f64], node: NodeId, i: f64) {
    if let Some(idx) = node.unknown_index() {
        residual[idx] += i;
    }
}

/// Stamps a two-terminal conductance's current and Jacobian.
#[inline]
fn stamp_conductance<J: JacSink>(
    residual: &mut [f64],
    jacobian: &mut J,
    x: &[f64],
    a: NodeId,
    b: NodeId,
    g: f64,
) {
    let i = g * (volt(x, a) - volt(x, b));
    add_current(residual, a, i);
    add_current(residual, b, -i);
    stamp_g_only(jacobian, a, b, g);
}

/// Stamps only the Jacobian entries of a two-terminal conductance.
#[inline]
fn stamp_g_only<J: JacSink>(jacobian: &mut J, a: NodeId, b: NodeId, g: f64) {
    if let Some(ia) = a.unknown_index() {
        jacobian.add(ia, ia, g);
        if let Some(ib) = b.unknown_index() {
            jacobian.add(ia, ib, -g);
            jacobian.add(ib, ia, -g);
            jacobian.add(ib, ib, g);
        }
    } else if let Some(ib) = b.unknown_index() {
        jacobian.add(ib, ib, g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stateless junction diode with a linear charge: shareable.
    #[derive(Debug)]
    struct Diode {
        name: String,
        nodes: [NodeId; 2],
    }

    impl NonlinearDevice for Diode {
        fn name(&self) -> &str {
            &self.name
        }

        fn nodes(&self) -> &[NodeId] {
            &self.nodes
        }

        fn load(&self, v: &[f64], stamp: &mut DeviceStamp) {
            let e = ((v[0] - v[1]) / 0.025).exp();
            let (i, g) = (1e-14 * (e - 1.0), 1e-14 / 0.025 * e);
            stamp.current[..2].copy_from_slice(&[i, -i]);
            stamp.conductance[0][..2].copy_from_slice(&[g, -g]);
            stamp.conductance[1][..2].copy_from_slice(&[-g, g]);
            let c = 1e-15;
            stamp.charge[..2].copy_from_slice(&[c * (v[0] - v[1]), c * (v[1] - v[0])]);
            stamp.capacitance[0][..2].copy_from_slice(&[c, -c]);
            stamp.capacitance[1][..2].copy_from_slice(&[-c, c]);
        }

        fn share_key(&self) -> Option<ShareKey> {
            Some(ShareKey::new("test-diode", Vec::new()))
        }
    }

    /// A source through a resistor into two identical diodes in parallel.
    fn circuit() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("v1", a, Circuit::GROUND, 0.7).unwrap();
        ckt.resistor("r1", a, b, 1e3).unwrap();
        ckt.capacitor("c1", b, Circuit::GROUND, 1e-15).unwrap();
        for name in ["d1", "d2"] {
            ckt.device(Box::new(Diode {
                name: name.into(),
                nodes: [b, Circuit::GROUND],
            }))
            .unwrap();
        }
        ckt
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn replayed_tapes_stamp_what_recording_stamped() {
        let mut ckt = circuit();
        let pattern = jacobian_pattern(&mut ckt);
        let dim = ckt.unknown_count();
        let x: Vec<f64> = (0..dim).map(|i| 0.3 + 0.1 * i as f64).collect();
        for transient in [false, true] {
            let mut sys = MnaSystem::new(&mut ckt, MnaContext::dc());
            if transient {
                sys.init_integration(&x, IntegrationMethod::BackwardEuler);
                sys.ctx.integ.as_mut().unwrap().dt = 1e-12;
            }
            let mut dense = Vec::new();
            let mut csc = Vec::new();
            for _ in 0..2 {
                let mut r = vec![0.0; dim];
                let mut j = DenseMatrix::zeros(dim, dim);
                sys.eval(&x, &mut r, &mut j);
                dense.push((bits(&r), bits(j.values_mut())));
                let mut r = vec![0.0; dim];
                let mut j = CscMatrix::from_pattern(&pattern);
                assert!(sys.eval_sparse(&x, &mut r, &mut j));
                csc.push((bits(&r), bits(j.to_dense().values_mut())));
            }
            // The second pass replays the first pass's tapes.
            let index = AssemblyCache::tape_index(transient, false);
            assert!(sys.cache.tapes[index].get().is_some());
            assert_eq!(dense[0], dense[1], "dense replay (transient: {transient})");
            assert_eq!(csc[0], csc[1], "CSC replay (transient: {transient})");
            assert_eq!(dense[0], csc[0], "dense vs CSC (transient: {transient})");
        }
    }

    #[test]
    fn identical_instances_share_one_evaluation() {
        let mut ckt = circuit();
        let dim = ckt.unknown_count();
        let mut sys = MnaSystem::new(&mut ckt, MnaContext::dc());
        assert_eq!(sys.cache.tables.borrow().len(), 1);
        let x = vec![0.6; dim];
        let mut r = vec![0.0; dim];
        sys.eval_residual_only(&x, &mut r);
        assert_eq!((sys.device_evals(), sys.device_shares()), (1, 1));
        assert_eq!(sys.stamps[0], sys.stamps[1]);
    }

    #[test]
    fn accepted_steps_defer_reloads_until_a_bypass_needs_them() {
        let mut ckt = circuit();
        let dim = ckt.unknown_count();
        let mut sys = MnaSystem::new(&mut ckt, MnaContext::dc());
        sys.set_bypass_tol(1e-3);
        let x = vec![0.6; dim];
        sys.init_integration(&x, IntegrationMethod::BackwardEuler);
        sys.ctx.integ.as_mut().unwrap().dt = 1e-12;
        sys.accept_step(&x, 1e-12, 1e-12);
        assert_eq!(sys.deferred_loads(), 0, "accepting a step loads nothing");
        let mut r = vec![0.0; dim];
        // Within tolerance of the accepted point: the bypass reuses the
        // pending linearisation, which is materialised once per device
        // (the twin through the share table).
        sys.eval_residual_only(&x, &mut r);
        assert_eq!(sys.device_bypasses(), 2);
        assert_eq!(sys.deferred_loads(), 2);
        assert_eq!((sys.device_evals(), sys.device_shares()), (0, 0));
        // Far from it: evaluated afresh, no reload.
        sys.accept_step(&x, 2e-12, 1e-12);
        let moved = vec![0.5; dim];
        sys.eval_residual_only(&moved, &mut r);
        assert_eq!(sys.deferred_loads(), 2);
        assert_eq!((sys.device_evals(), sys.device_shares()), (1, 1));
    }
}
