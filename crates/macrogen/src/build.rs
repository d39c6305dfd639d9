//! Macro netlist construction and phase sequencing.
//!
//! [`MacroBuilder::prepare`] emits the full macro netlist — cell array
//! plus periphery — and [`MacroBuilder::solve`] settles the normal-mode
//! operating point, yielding an [`NvMacro`] whose phase methods mirror
//! the `DomainArray` sequencing but act on individual gating groups.
//!
//! ## Netlist topology
//!
//! * **Cell array** — the `DomainArray` cell composition (6T core,
//!   PS-FinFETs, retention elements via the design's
//!   [`RetentionKind`](nvpg_cells::design::RetentionKind)), except that
//!   each cell hangs from its gating group's virtual rail, its wordline
//!   tap and its bitline row tap.
//! * **Headers** — one high-V_th pFinFET per gating group, sized
//!   `N_FSW × cells-in-group`, gated by a per-group `vpg{g}` source. NV
//!   groups get their own `vsr{g}`/`vctrl{g}` broadcast pair so banks
//!   store and restore independently.
//! * **Row path** — per row, a 3-inverter decoder/driver chain (input
//!   high = deselected, wordline low) feeding a distributed wordline RC
//!   ladder with one tap per column.
//! * **Column path** — per column, a distributed bitline RC ladder (one
//!   tap per row, `C_BL` per cell), precharge + equalise pFinFETs, and
//!   column-mux pass nFinFETs onto the shared sense lines.
//! * **Sense/write** — per mux group, a latch-type sense amp
//!   (cross-coupled pair behind sense-enable header/footer switches) and
//!   nFinFET write pulldowns on the sense lines.
//! * **Replica column** — a cell-less bitline ladder with its own
//!   precharge and a replica-enable pulldown, for sense-timing studies.

use nvpg_circuit::batched::{batched_operating_point, BatchMode};
use nvpg_circuit::dc::{operating_point, DcOptions};
use nvpg_circuit::transient::{transient, TransientOptions};
use nvpg_circuit::{Circuit, CircuitError, DcSolution, NodeId, SolverChoice, StepStats, Waveform};
use nvpg_devices::finfet::FinFet;
use nvpg_devices::mtj::MtjState;
use nvpg_units::{Joules, Seconds};

use crate::spec::MacroSpec;

/// Wordline segment resistance per cell pitch (Ω).
const R_WL_SEGMENT: f64 = 50.0;
/// Wordline segment capacitance per cell pitch (F).
const C_WL_SEGMENT: f64 = 0.2e-15;
/// Bitline segment resistance per cell pitch (Ω).
const R_BL_SEGMENT: f64 = 20.0;
/// Wordline driver (third decoder stage) fin count.
const WL_DRIVER_FINS: u32 = 2;

/// Energy/duration result of one macro phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacroPhase {
    /// Total energy delivered by every source during the phase.
    pub energy: Joules,
    /// Phase duration.
    pub duration: Seconds,
}

impl MacroPhase {
    fn zero() -> Self {
        MacroPhase {
            energy: Joules(0.0),
            duration: Seconds(0.0),
        }
    }

    fn add(&mut self, other: MacroPhase) {
        self.energy += other.energy;
        self.duration += other.duration;
    }
}

#[derive(Debug, Clone, Copy)]
struct MacroCellNodes {
    q: NodeId,
    qb: NodeId,
}

/// A fully-built macro netlist whose operating point has not been solved
/// yet (same split as `DomainBuilder`, for batch-shaped drivers).
#[derive(Debug)]
pub struct MacroBuilder {
    ckt: Circuit,
    opts: DcOptions,
    spec: MacroSpec,
    solver: SolverChoice,
    cells: Vec<Vec<MacroCellNodes>>,
    source_names: Vec<String>,
    levels: Vec<f64>,
}

impl MacroBuilder {
    /// Builds the macro netlist and pattern-seeded DC options without
    /// solving.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] for degenerate specs (see
    /// [`MacroSpec::validate`]) and otherwise propagates netlist errors.
    pub fn prepare(
        spec: MacroSpec,
        solver: SolverChoice,
        pattern: impl Fn(usize, usize) -> bool,
    ) -> Result<MacroBuilder, CircuitError> {
        spec.validate()?;
        let design = spec.design;
        let c = design.conditions;
        let gnd = Circuit::GROUND;
        let nv = spec.kind.is_nonvolatile();
        let groups = spec.groups();
        let mut ckt = Circuit::new();
        let mut source_names = Vec::new();
        let mut levels = Vec::new();
        let mut add_source = |ckt: &mut Circuit,
                              name: String,
                              pos: NodeId,
                              level: f64|
         -> Result<(), CircuitError> {
            ckt.vsource(&name, pos, gnd, level)?;
            source_names.push(name);
            levels.push(level);
            Ok(())
        };

        // Always-on rail powering the periphery and feeding the headers.
        let vdd_rail = ckt.node("vdd_rail");
        add_source(&mut ckt, "vdd".into(), vdd_rail, c.vdd)?;

        // Per-group headers and (NV) store/restore broadcast lines.
        let mut vvdd = Vec::with_capacity(groups);
        let mut sr = Vec::new();
        let mut ctrl = Vec::new();
        for g in 0..groups {
            let pg = ckt.node(&format!("pg{g}"));
            let rail = ckt.node(&format!("vvdd{g}"));
            add_source(&mut ckt, format!("vpg{g}"), pg, 0.0)?;
            let group_cells = spec.group_rows(g).len() * spec.cols;
            let mut sw = design
                .pmos
                .with_fins(design.fins_power_switch * group_cells as u32);
            sw.vth0 += design.power_switch_vth_boost;
            ckt.device(Box::new(FinFet::new(
                format!("msw{g}"),
                rail,
                pg,
                vdd_rail,
                sw,
            )))?;
            vvdd.push(rail);
            if nv {
                let s = ckt.node(&format!("sr{g}"));
                let ct = ckt.node(&format!("ctrl{g}"));
                add_source(&mut ckt, format!("vsr{g}"), s, 0.0)?;
                add_source(&mut ckt, format!("vctrl{g}"), ct, c.v_ctrl_normal)?;
                sr.push(s);
                ctrl.push(ct);
            }
        }

        // Row-select inputs: the active row (row 0) has its own source,
        // every other row shares the deselect line. Inputs are active-low
        // through the 3-stage chain (input high ⇒ wordline low).
        let rowsel = ckt.node("rowsel");
        let rowoff = ckt.node("rowoff");
        add_source(&mut ckt, "vrowsel".into(), rowsel, c.vdd)?;
        add_source(&mut ckt, "vrowoff".into(), rowoff, c.vdd)?;

        // Shared periphery control lines.
        let pre = ckt.node("pre");
        add_source(&mut ckt, "vpre".into(), pre, 0.0)?; // active low: on
        let mut ysel = Vec::with_capacity(spec.mux);
        for j in 0..spec.mux {
            let y = ckt.node(&format!("y{j}"));
            // Column 0 of each mux group starts selected.
            add_source(
                &mut ckt,
                format!("vy{j}"),
                y,
                if j == 0 { c.vdd } else { 0.0 },
            )?;
            ysel.push(y);
        }
        let saeb = ckt.node("saeb");
        let sae = ckt.node("sae");
        add_source(&mut ckt, "vsaeb".into(), saeb, c.vdd)?; // SA disabled
        add_source(&mut ckt, "vsae".into(), sae, 0.0)?;
        let wd = ckt.node("wd");
        let wdb = ckt.node("wdb");
        add_source(&mut ckt, "vwd".into(), wd, 0.0)?;
        add_source(&mut ckt, "vwdb".into(), wdb, 0.0)?;
        let rble = ckt.node("rble");
        add_source(&mut ckt, "vrble".into(), rble, 0.0)?;

        let inv_p = design.pmos.with_fins(1);
        let inv_n = design.nmos.with_fins(1);
        let drv_p = design.pmos.with_fins(WL_DRIVER_FINS);
        let drv_n = design.nmos.with_fins(WL_DRIVER_FINS);
        let inverter = |ckt: &mut Circuit,
                        tag: &str,
                        input: NodeId,
                        out: NodeId,
                        p: nvpg_devices::finfet::FinFetParams,
                        n: nvpg_devices::finfet::FinFetParams|
         -> Result<(), CircuitError> {
            ckt.device(Box::new(FinFet::new(
                format!("mp_{tag}"),
                out,
                input,
                vdd_rail,
                p,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("mn_{tag}"),
                out,
                input,
                gnd,
                n,
            )))?;
            Ok(())
        };

        // Row decoder/driver chains and wordline ladders.
        let mut wl_taps: Vec<Vec<NodeId>> = Vec::with_capacity(spec.rows);
        for r in 0..spec.rows {
            let input = if r == 0 { rowsel } else { rowoff };
            let d1 = ckt.node(&format!("dec1_r{r}"));
            let d2 = ckt.node(&format!("dec2_r{r}"));
            let head = ckt.node(&format!("wlh_r{r}"));
            inverter(&mut ckt, &format!("dec1_r{r}"), input, d1, inv_p, inv_n)?;
            inverter(&mut ckt, &format!("dec2_r{r}"), d1, d2, inv_p, inv_n)?;
            inverter(&mut ckt, &format!("wld_r{r}"), d2, head, drv_p, drv_n)?;
            let mut taps = Vec::with_capacity(spec.cols);
            let mut prev = head;
            for col in 0..spec.cols {
                let tap = ckt.node(&format!("wl_r{r}c{col}"));
                ckt.resistor(&format!("rwl_r{r}c{col}"), prev, tap, R_WL_SEGMENT)?;
                ckt.capacitor(&format!("cwl_r{r}c{col}"), tap, gnd, C_WL_SEGMENT)?;
                taps.push(tap);
                prev = tap;
            }
            wl_taps.push(taps);
        }

        // Column bitline ladders, precharge/equalise and column mux.
        let mut bl_taps: Vec<Vec<NodeId>> = Vec::with_capacity(spec.cols);
        let mut blb_taps: Vec<Vec<NodeId>> = Vec::with_capacity(spec.cols);
        let mut sa_lines = Vec::with_capacity(spec.cols / spec.mux);
        for gm in 0..spec.cols / spec.mux {
            let sa = ckt.node(&format!("sa{gm}"));
            let sab = ckt.node(&format!("sab{gm}"));
            sa_lines.push((sa, sab));
        }
        let pre_p = design.pmos.with_fins(2);
        let mux_n = design.nmos.with_fins(2);
        for col in 0..spec.cols {
            let top = ckt.node(&format!("bl_c{col}t"));
            let topb = ckt.node(&format!("blb_c{col}t"));
            ckt.device(Box::new(FinFet::new(
                format!("mpc_c{col}"),
                top,
                pre,
                vdd_rail,
                pre_p,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("mpcb_c{col}"),
                topb,
                pre,
                vdd_rail,
                pre_p,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("mpeq_c{col}"),
                top,
                pre,
                topb,
                pre_p,
            )))?;
            let (sa, sab) = sa_lines[col / spec.mux];
            let y = ysel[col % spec.mux];
            ckt.device(Box::new(FinFet::new(
                format!("mmux_c{col}"),
                top,
                y,
                sa,
                mux_n,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("mmuxb_c{col}"),
                topb,
                y,
                sab,
                mux_n,
            )))?;
            let mut taps = Vec::with_capacity(spec.rows);
            let mut tapsb = Vec::with_capacity(spec.rows);
            let (mut prev, mut prevb) = (top, topb);
            for r in 0..spec.rows {
                let t = ckt.node(&format!("bl_c{col}r{r}"));
                let tb = ckt.node(&format!("blb_c{col}r{r}"));
                ckt.resistor(&format!("rbl_c{col}r{r}"), prev, t, R_BL_SEGMENT)?;
                ckt.resistor(&format!("rblb_c{col}r{r}"), prevb, tb, R_BL_SEGMENT)?;
                ckt.capacitor(&format!("cbl_c{col}r{r}"), t, gnd, design.c_bitline)?;
                ckt.capacitor(&format!("cblb_c{col}r{r}"), tb, gnd, design.c_bitline)?;
                taps.push(t);
                tapsb.push(tb);
                prev = t;
                prevb = tb;
            }
            bl_taps.push(taps);
            blb_taps.push(tapsb);
        }

        // Sense amps and write drivers, one per mux group.
        for (gm, &(sa, sab)) in sa_lines.iter().enumerate() {
            let sap = ckt.node(&format!("sap{gm}"));
            let san = ckt.node(&format!("san{gm}"));
            ckt.device(Box::new(FinFet::new(
                format!("msah_{gm}"),
                sap,
                saeb,
                vdd_rail,
                pre_p,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("msaf_{gm}"),
                san,
                sae,
                gnd,
                mux_n,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("msapl_{gm}"),
                sa,
                sab,
                sap,
                inv_p,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("msapr_{gm}"),
                sab,
                sa,
                sap,
                inv_p,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("msanl_{gm}"),
                sa,
                sab,
                san,
                inv_n,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("msanr_{gm}"),
                sab,
                sa,
                san,
                inv_n,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("mwd_{gm}"),
                sa,
                wd,
                gnd,
                mux_n,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("mwdb_{gm}"),
                sab,
                wdb,
                gnd,
                mux_n,
            )))?;
        }

        // Replica-timing bitline: a cell-less ladder with full column
        // loading, its own precharge, and a replica-enable pulldown at the
        // far end.
        let rbl_top = ckt.node("rbl_t");
        ckt.device(Box::new(FinFet::new(
            "mpc_rbl", rbl_top, pre, vdd_rail, pre_p,
        )))?;
        let mut prev = rbl_top;
        for r in 0..spec.rows {
            let t = ckt.node(&format!("rbl_r{r}"));
            ckt.resistor(&format!("rrbl_r{r}"), prev, t, R_BL_SEGMENT)?;
            ckt.capacitor(&format!("crbl_r{r}"), t, gnd, design.c_bitline)?;
            prev = t;
        }
        ckt.device(Box::new(FinFet::new("mrble", prev, rble, gnd, mux_n)))?;

        // The cell array.
        let pu = design.pmos.with_fins(design.fins_load);
        let pd = design.nmos.with_fins(design.fins_driver);
        let pa = design.nmos.with_fins(design.fins_access);
        let ps = design.nmos.with_fins(design.fins_ps);
        let mut cells = Vec::with_capacity(spec.rows);
        for row in 0..spec.rows {
            let g = spec.group_of_row(row);
            let rail = vvdd[g];
            let mut row_cells = Vec::with_capacity(spec.cols);
            for col in 0..spec.cols {
                let tag = format!("r{row}c{col}");
                let q = ckt.node(&format!("q_{tag}"));
                let qb = ckt.node(&format!("qb_{tag}"));
                let wl = wl_taps[row][col];
                let bl = bl_taps[col][row];
                let blb = blb_taps[col][row];
                ckt.device(Box::new(FinFet::new(
                    format!("mpul_{tag}"),
                    q,
                    qb,
                    rail,
                    pu,
                )))?;
                ckt.device(Box::new(FinFet::new(
                    format!("mpur_{tag}"),
                    qb,
                    q,
                    rail,
                    pu,
                )))?;
                ckt.device(Box::new(FinFet::new(format!("mpdl_{tag}"), q, qb, gnd, pd)))?;
                ckt.device(Box::new(FinFet::new(format!("mpdr_{tag}"), qb, q, gnd, pd)))?;
                ckt.device(Box::new(FinFet::new(format!("mpgl_{tag}"), bl, wl, q, pa)))?;
                ckt.device(Box::new(FinFet::new(
                    format!("mpgr_{tag}"),
                    blb,
                    wl,
                    qb,
                    pa,
                )))?;
                if nv {
                    let ml = ckt.node(&format!("ml_{tag}"));
                    let mr = ckt.node(&format!("mr_{tag}"));
                    ckt.device(Box::new(FinFet::new(
                        format!("mpsl_{tag}"),
                        q,
                        sr[g],
                        ml,
                        ps,
                    )))?;
                    ckt.device(Box::new(FinFet::new(
                        format!("mpsr_{tag}"),
                        qb,
                        sr[g],
                        mr,
                        ps,
                    )))?;
                    // Elements start in the OPPOSITE pattern so a store
                    // genuinely switches them (DomainArray convention).
                    let (l0, r0) = if pattern(row, col) {
                        (MtjState::Parallel, MtjState::AntiParallel)
                    } else {
                        (MtjState::AntiParallel, MtjState::Parallel)
                    };
                    let nvdev = design.retention_device();
                    nvdev.attach(&mut ckt, &format!("xl_{tag}"), ctrl[g], ml, l0.into())?;
                    nvdev.attach(&mut ckt, &format!("xr_{tag}"), ctrl[g], mr, r0.into())?;
                }
                row_cells.push(MacroCellNodes { q, qb });
            }
            cells.push(row_cells);
        }

        // Operating-point seeding: pattern in the cells, rails up,
        // bitlines and sense lines precharged, wordlines low.
        let mut opts = DcOptions {
            solver,
            ..DcOptions::default()
        };
        for (row, row_cells) in cells.iter().enumerate() {
            for (col, cell) in row_cells.iter().enumerate() {
                let (vq, vqb) = if pattern(row, col) {
                    (c.vdd, 0.0)
                } else {
                    (0.0, c.vdd)
                };
                opts = opts.with_nodeset(cell.q, vq).with_nodeset(cell.qb, vqb);
            }
        }
        for &rail in &vvdd {
            opts = opts.with_nodeset(rail, c.vdd);
        }
        for col in 0..spec.cols {
            for r in 0..spec.rows {
                opts = opts
                    .with_nodeset(bl_taps[col][r], c.vdd)
                    .with_nodeset(blb_taps[col][r], c.vdd);
            }
        }
        for &(sa, sab) in &sa_lines {
            opts = opts.with_nodeset(sa, c.vdd).with_nodeset(sab, c.vdd);
        }
        Ok(MacroBuilder {
            ckt,
            opts,
            spec,
            solver,
            cells,
            source_names,
            levels,
        })
    }

    /// MNA unknown count of the prepared netlist.
    pub fn unknown_count(&self) -> usize {
        self.ckt.unknown_count()
    }

    /// The DC options (pattern nodesets) the solve will use.
    pub fn dc_options(&self) -> &DcOptions {
        &self.opts
    }

    /// Consumes the builder, returning the bare netlist (registry decks).
    pub fn into_circuit(self) -> Circuit {
        self.ckt
    }

    /// Solves the operating point serially and finishes the macro.
    ///
    /// # Errors
    ///
    /// Propagates DC non-convergence.
    pub fn solve(mut self) -> Result<NvMacro, CircuitError> {
        let state = operating_point(&mut self.ckt, &self.opts)?;
        Ok(self.finish(state))
    }

    fn finish(self, state: DcSolution) -> NvMacro {
        NvMacro {
            ckt: self.ckt,
            spec: self.spec,
            solver: self.solver,
            cells: self.cells,
            state,
            source_names: self.source_names,
            levels: self.levels,
            stats: StepStats::default(),
        }
    }

    /// Solves a batch of prepared macros in lock-step lanes (same
    /// contract as `DomainBuilder::solve_batch`: one topology and seed
    /// pattern per chunk, parameter values may differ).
    pub fn solve_batch(
        builders: Vec<MacroBuilder>,
        batch: BatchMode,
    ) -> Vec<Result<NvMacro, CircuitError>> {
        let lanes = batch.lanes();
        let mut out = Vec::with_capacity(builders.len());
        let mut iter = builders.into_iter();
        loop {
            let chunk: Vec<MacroBuilder> = iter.by_ref().take(lanes).collect();
            if chunk.is_empty() {
                break;
            }
            let opts = chunk[0].opts.clone();
            let (mut circuits, seeds): (Vec<Circuit>, Vec<MacroBuilder>) = chunk
                .into_iter()
                .map(|mut b| (std::mem::replace(&mut b.ckt, Circuit::new()), b))
                .unzip();
            let results = batched_operating_point(&mut circuits, &opts);
            for ((ckt, mut seed), res) in circuits.into_iter().zip(seeds).zip(results) {
                seed.ckt = ckt;
                out.push(res.map(|(state, _stats)| seed.finish(state)));
            }
        }
        out
    }
}

/// A solved macro: cell array + periphery with per-group phase control.
#[derive(Debug)]
pub struct NvMacro {
    ckt: Circuit,
    spec: MacroSpec,
    solver: SolverChoice,
    cells: Vec<Vec<MacroCellNodes>>,
    state: DcSolution,
    source_names: Vec<String>,
    levels: Vec<f64>,
    stats: StepStats,
}

impl NvMacro {
    /// Builds and solves a macro holding `pattern(r, c)` with the default
    /// (`Auto`) solver choice.
    ///
    /// # Errors
    ///
    /// Propagates spec-validation, netlist and DC-convergence errors.
    pub fn new(
        spec: MacroSpec,
        pattern: impl Fn(usize, usize) -> bool,
    ) -> Result<Self, CircuitError> {
        MacroBuilder::prepare(spec, SolverChoice::Auto, pattern)?.solve()
    }

    /// Builds and solves with an explicit solver choice.
    ///
    /// # Errors
    ///
    /// Propagates spec-validation, netlist and DC-convergence errors.
    pub fn with_solver(
        spec: MacroSpec,
        solver: SolverChoice,
        pattern: impl Fn(usize, usize) -> bool,
    ) -> Result<Self, CircuitError> {
        MacroBuilder::prepare(spec, solver, pattern)?.solve()
    }

    /// The macro specification.
    pub fn spec(&self) -> &MacroSpec {
        &self.spec
    }

    /// MNA unknown count.
    pub fn unknown_count(&self) -> usize {
        self.ckt.unknown_count()
    }

    /// The current DC state.
    pub fn state(&self) -> &DcSolution {
        &self.state
    }

    /// Total static power delivered by every source in the current state
    /// (W).
    pub fn static_power(&self) -> f64 {
        self.source_names
            .iter()
            .zip(&self.levels)
            .map(|(n, &v)| self.state.source_power(n, v).unwrap_or(0.0))
            .sum()
    }

    /// Step/solver telemetry accumulated over every phase run so far.
    pub fn step_stats(&self) -> &StepStats {
        &self.stats
    }

    /// The latched data of cell `(row, col)` in the current state.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn data(&self, row: usize, col: usize) -> bool {
        let cell = &self.cells[row][col];
        self.state.voltage(cell.q) > self.state.voltage(cell.qb)
    }

    /// The whole data pattern.
    pub fn pattern(&self) -> Vec<Vec<bool>> {
        (0..self.spec.rows)
            .map(|r| (0..self.spec.cols).map(|c| self.data(r, c)).collect())
            .collect()
    }

    /// Smallest `|V(Q) − V(QB)|` over all cells (V).
    pub fn min_storage_margin(&self) -> f64 {
        self.cells
            .iter()
            .flatten()
            .map(|cell| (self.state.voltage(cell.q) - self.state.voltage(cell.qb)).abs())
            .fold(f64::INFINITY, f64::min)
    }

    /// Retention-element states of cell `(row, col)` (`None` for OSR).
    pub fn mtj_states(&self, row: usize, col: usize) -> Option<(MtjState, MtjState)> {
        let decode = |name: String| -> Option<MtjState> {
            let st = self.ckt.device_state(&name)?;
            let v = st.iter().find(|(l, _)| l == "state")?.1;
            Some(if v > 0.5 {
                MtjState::AntiParallel
            } else {
                MtjState::Parallel
            })
        };
        Some((
            decode(format!("xl_r{row}c{col}"))?,
            decode(format!("xr_r{row}c{col}"))?,
        ))
    }

    /// Terminal bias (V) across cell `(row, col)`'s Q-side retention
    /// element in the current state, `v(ctrl) − v(ml)` — the disturb
    /// drive the technology's retention model takes.
    pub fn element_bias(&self, row: usize, col: usize) -> Option<f64> {
        if !self.spec.kind.is_nonvolatile() {
            return None;
        }
        let g = self.spec.group_of_row(row);
        let ctrl = self.ckt.find_node(&format!("ctrl{g}"))?;
        let ml = self.ckt.find_node(&format!("ml_r{row}c{col}"))?;
        Some(self.state.voltage(ctrl) - self.state.voltage(ml))
    }

    fn level_of(&self, name: &str) -> f64 {
        let idx = self
            .source_names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("unknown source {name}"));
        self.levels[idx]
    }

    fn ramp(&self, name: &str, to: f64) -> (String, Waveform) {
        let from = self.level_of(name);
        let e = self.spec.design.conditions.edge_time;
        (name.to_owned(), Waveform::Pwl(vec![(0.0, from), (e, to)]))
    }

    /// Runs a phase of `duration` with waveform overrides (the
    /// `DomainArray` phase contract: sources freeze at their end values,
    /// energy integrates over every source).
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn phase(
        &mut self,
        duration: f64,
        waves: &[(String, Waveform)],
    ) -> Result<MacroPhase, CircuitError> {
        for (src, wave) in waves {
            self.ckt.set_source(src, wave.clone())?;
        }
        let opts = TransientOptions {
            t_stop: duration,
            dt_max: (duration / 100.0).clamp(1e-12, 200e-12),
            dt_init: 1e-12,
            device_bypass_tol: 1e-6,
            solver: self.solver,
            ..TransientOptions::default()
        };
        let result = transient(&mut self.ckt, &opts, &self.state)?;
        self.stats += result.steps;
        self.state = result.final_state;
        for (src, wave) in waves {
            let end = wave.value(duration);
            self.ckt.set_source(src, end)?;
            let idx = self
                .source_names
                .iter()
                .position(|n| n == src)
                .expect("known source");
            self.levels[idx] = end;
        }
        let mut energy = 0.0;
        for name in &self.source_names {
            energy += result
                .trace
                .integral(&format!("p({name})"))
                .expect("power signal recorded");
        }
        Ok(MacroPhase {
            energy: Joules(energy),
            duration: Seconds(duration),
        })
    }

    fn check_nv(&self, what: &str) -> Result<(), CircuitError> {
        if self.spec.kind.is_nonvolatile() {
            return Ok(());
        }
        Err(CircuitError::InvalidValue {
            element: "macro".to_owned(),
            reason: format!("OSR macros have no retention elements to {what}"),
        })
    }

    fn check_groups(&self, groups: &[usize]) -> Result<(), CircuitError> {
        let n = self.spec.groups();
        match groups.iter().find(|&&g| g >= n) {
            None => Ok(()),
            Some(g) => Err(CircuitError::InvalidValue {
                element: "macro".to_owned(),
                reason: format!("gating group {g} out of range (macro has {n})"),
            }),
        }
    }

    /// Two-step store of the listed gating groups (H-store, L-store,
    /// lines back down) — same waveform shape as `DomainArray::store`,
    /// applied only to those groups' SR/CTRL pairs.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidValue`] on an OSR macro or an out-of-range
    /// group index; otherwise propagates transient non-convergence.
    pub fn store(&mut self, groups: &[usize]) -> Result<MacroPhase, CircuitError> {
        self.check_nv("store")?;
        self.check_groups(groups)?;
        let c = self.spec.design.conditions;
        let t = c.store_duration;
        // Each phase's ramps must read the *current* source levels, so
        // the waveform lists are built just before each phase runs.
        let mut total = MacroPhase::zero();
        let w1: Vec<_> = groups
            .iter()
            .flat_map(|&g| {
                [
                    self.ramp(&format!("vsr{g}"), c.v_sr),
                    self.ramp(&format!("vctrl{g}"), 0.0),
                ]
            })
            .collect();
        total.add(self.phase(t, &w1)?);
        let w2: Vec<_> = groups
            .iter()
            .map(|&g| self.ramp(&format!("vctrl{g}"), c.v_ctrl_store))
            .collect();
        total.add(self.phase(t, &w2)?);
        let w3: Vec<_> = groups
            .iter()
            .flat_map(|&g| {
                [
                    self.ramp(&format!("vsr{g}"), 0.0),
                    self.ramp(&format!("vctrl{g}"), 0.0),
                ]
            })
            .collect();
        total.add(self.phase(1e-9, &w3)?);
        Ok(total)
    }

    /// Powers the listed gating groups off (super cutoff when
    /// `super_cutoff`). Bitlines stay precharged — awake banks keep using
    /// them.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidValue`] on an OSR macro or an out-of-range
    /// group index; otherwise propagates transient non-convergence.
    pub fn shutdown(
        &mut self,
        groups: &[usize],
        super_cutoff: bool,
    ) -> Result<MacroPhase, CircuitError> {
        self.check_nv("power off")?;
        self.check_groups(groups)?;
        let c = self.spec.design.conditions;
        let v_pg = if super_cutoff {
            c.v_pg_super
        } else {
            c.v_pg_off
        };
        let waves: Vec<_> = groups
            .iter()
            .map(|&g| self.ramp(&format!("vpg{g}"), v_pg))
            .collect();
        self.phase(2e-9, &waves)
    }

    /// Lets the macro sit for `duration` in its current mode.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn hold(&mut self, duration: f64) -> Result<MacroPhase, CircuitError> {
        self.phase(duration, &[])
    }

    /// Enters the low-voltage retention (sleep) mode macro-wide.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn sleep(&mut self) -> Result<MacroPhase, CircuitError> {
        let c = self.spec.design.conditions;
        let mut waves = vec![self.ramp("vdd", c.vdd_sleep)];
        if self.spec.kind.is_nonvolatile() {
            for g in 0..self.spec.groups() {
                waves.push(self.ramp(&format!("vctrl{g}"), c.v_ctrl_sleep));
            }
        }
        self.phase(2e-9, &waves)
    }

    /// Returns from sleep to normal mode macro-wide.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn wake(&mut self) -> Result<MacroPhase, CircuitError> {
        let c = self.spec.design.conditions;
        let mut waves = vec![self.ramp("vdd", c.vdd)];
        if self.spec.kind.is_nonvolatile() {
            for g in 0..self.spec.groups() {
                waves.push(self.ramp(&format!("vctrl{g}"), c.v_ctrl_normal));
            }
        }
        self.phase(2e-9, &waves)
    }

    /// Restores the listed gating groups: SR on, slow header turn-on, SR
    /// off, CTRL back to normal (the `DomainArray::restore` recipe, per
    /// group).
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidValue`] on an OSR macro or an out-of-range
    /// group index; otherwise propagates transient non-convergence.
    pub fn restore(&mut self, groups: &[usize]) -> Result<MacroPhase, CircuitError> {
        self.check_nv("restore")?;
        self.check_groups(groups)?;
        let c = self.spec.design.conditions;
        let dur = c.restore_duration;
        let e = c.edge_time;
        let mut waves = Vec::new();
        for &g in groups {
            let sr = Waveform::Pwl(vec![
                (0.0, self.level_of(&format!("vsr{g}"))),
                (e, c.v_sr),
                (0.7 * dur, c.v_sr),
                (0.7 * dur + e, 0.0),
            ]);
            let pg = Waveform::Pwl(vec![
                (0.0, self.level_of(&format!("vpg{g}"))),
                (0.05 * dur, self.level_of(&format!("vpg{g}"))),
                (0.45 * dur, 0.0),
            ]);
            let ctrl = Waveform::Pwl(vec![
                (0.0, self.level_of(&format!("vctrl{g}"))),
                (0.7 * dur, self.level_of(&format!("vctrl{g}"))),
                (0.7 * dur + e, c.v_ctrl_normal),
            ]);
            waves.push((format!("vsr{g}"), sr));
            waves.push((format!("vpg{g}"), pg));
            waves.push((format!("vctrl{g}"), ctrl));
        }
        self.phase(dur, &waves)
    }

    /// Pulses the selected row's wordline (a read access): row select
    /// drops, sense amps fire, then everything returns to normal-mode
    /// levels. Returns the access energy — the wake-on-access cost input
    /// for partial-shutdown policies.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn access_read(&mut self) -> Result<MacroPhase, CircuitError> {
        let c = self.spec.design.conditions;
        let t = c.cycle_time();
        let e = c.edge_time;
        // Row select is active-low into the 3-stage chain.
        let sel = Waveform::Pwl(vec![
            (0.0, c.vdd),
            (e, 0.0),
            (0.6 * t, 0.0),
            (0.6 * t + e, c.vdd),
        ]);
        // Precharge releases while the wordline is up, sense amp fires in
        // the second half of the cycle.
        let pre = Waveform::Pwl(vec![
            (0.0, 0.0),
            (e, c.vdd),
            (0.7 * t, c.vdd),
            (0.7 * t + e, 0.0),
        ]);
        let sae = Waveform::Pwl(vec![
            (0.4 * t, 0.0),
            (0.4 * t + e, c.vdd),
            (0.7 * t, c.vdd),
            (0.7 * t + e, 0.0),
        ]);
        let saeb = Waveform::Pwl(vec![
            (0.4 * t, c.vdd),
            (0.4 * t + e, 0.0),
            (0.7 * t, 0.0),
            (0.7 * t + e, c.vdd),
        ]);
        let rble = Waveform::Pwl(vec![
            (0.0, 0.0),
            (e, c.vdd),
            (0.7 * t, c.vdd),
            (0.7 * t + e, 0.0),
        ]);
        self.phase(
            t,
            &[
                ("vrowsel".to_owned(), sel),
                ("vpre".to_owned(), pre),
                ("vsae".to_owned(), sae),
                ("vsaeb".to_owned(), saeb),
                ("vrble".to_owned(), rble),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Granularity;
    use nvpg_cells::domain::DomainKind;

    fn checkerboard(r: usize, c: usize) -> bool {
        (r + c).is_multiple_of(2)
    }

    #[test]
    fn small_macro_builds_and_holds_pattern() {
        let spec = MacroSpec::new(4, 4, 2).with_granularity(Granularity::PerRow);
        let m = NvMacro::new(spec, checkerboard).unwrap();
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(m.data(r, c), checkerboard(r, c), "cell ({r},{c})");
            }
        }
        assert!(m.min_storage_margin() > 0.5);
        assert!(m.static_power() > 0.0);
        // Cells + periphery: comfortably more unknowns than the bare
        // 4×4 DomainArray (~70).
        assert!(m.unknown_count() > 150, "unknowns = {}", m.unknown_count());
    }

    #[test]
    fn degenerate_specs_error_out() {
        let err = NvMacro::new(MacroSpec::new(0, 4, 2), checkerboard).unwrap_err();
        assert!(matches!(err, CircuitError::InvalidValue { .. }));
    }

    #[test]
    fn partial_bank_power_cycle_preserves_both_halves() {
        // 4×4, two banks: gate bank 0 only; bank 1 stays up. After
        // restore, both banks hold the original pattern.
        let spec = MacroSpec::new(4, 4, 2).with_granularity(Granularity::PerBank(2));
        let mut m = NvMacro::new(spec, checkerboard).unwrap();
        m.store(&[0]).unwrap();
        m.shutdown(&[0], true).unwrap();
        m.hold(20e-9).unwrap();
        // The awake bank keeps its data while bank 0 is dark.
        for r in 2..4 {
            for c in 0..4 {
                assert_eq!(m.data(r, c), checkerboard(r, c), "awake cell ({r},{c})");
            }
        }
        m.restore(&[0]).unwrap();
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(m.data(r, c), checkerboard(r, c), "cell ({r},{c})");
            }
        }
    }

    #[test]
    fn store_on_an_osr_macro_is_a_typed_error() {
        let spec = MacroSpec::new(2, 2, 1).with_kind(DomainKind::Osr);
        let mut m = NvMacro::new(spec, checkerboard).unwrap();
        let err = m.store(&[0]).unwrap_err();
        match err {
            CircuitError::InvalidValue { element, reason } => {
                assert_eq!(element, "macro");
                assert!(reason.contains("OSR"), "{reason}");
            }
            other => panic!("expected InvalidValue, got {other:?}"),
        }
    }

    #[test]
    fn restore_of_an_out_of_range_group_is_a_typed_error() {
        let spec = MacroSpec::new(2, 2, 1).with_granularity(Granularity::PerRow);
        let mut m = NvMacro::new(spec, checkerboard).unwrap();
        let err = m.restore(&[0, spec.groups()]).unwrap_err();
        match err {
            CircuitError::InvalidValue { element, reason } => {
                assert_eq!(element, "macro");
                assert!(reason.contains("out of range"), "{reason}");
            }
            other => panic!("expected InvalidValue, got {other:?}"),
        }
    }

    #[test]
    fn access_read_runs_and_costs_energy() {
        let spec = MacroSpec::new(4, 4, 2);
        let mut m = NvMacro::new(spec, checkerboard).unwrap();
        let p = m.access_read().unwrap();
        assert!(p.energy.value() > 0.0);
        // The access must not corrupt any cell.
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(m.data(r, c), checkerboard(r, c), "cell ({r},{c})");
            }
        }
    }
}
