//! `retention16` — the paper's NVPG power domain at array and macro
//! scale: a 16×16 checkerboard `DomainArray` store → shutdown (super
//! cutoff) → restore, then a 16×16 mux-4 `MacroSpec` macro store →
//! shutdown → hold → restore.
//!
//! Large sparse transients, single-threaded and unbatched: device
//! evaluation, stamping and transient bookkeeping do almost all of the
//! work. The inputs are the paper's fixed checkerboard, so the seed
//! drives only the traced run's probe inputs.

use nvpg_cells::{ArrayPhase, CellDesign, DomainArray, DomainKind};
use nvpg_circuit::element::Element;
use nvpg_circuit::{CircuitError, SolverChoice, StepStats};
use nvpg_core::Tolerance;
use nvpg_devices::MtjState;
use nvpg_macro::{Granularity, MacroBuilder, MacroPhase, MacroSpec, NvMacro};

use crate::layers::{self, Probes, Round};
use crate::probes;
use crate::util::{self, checkerboard, median, peak_rss_mb, Report, Tracer};
use crate::Args;

const EDGE: usize = 16;
/// Column-mux ratio and power-gating banks of the macro.
const MUX: usize = 4;
const BANKS: usize = 4;
/// Dark time between the macro's shutdown and restore, seconds.
const HOLD_S: f64 = 20e-9;
/// Set-ups before the first cycle: `setup_s` is the median of these and
/// of the one before each later cycle.
const SETUPS: usize = 5;
/// Rounds per run at least: a round is one array cycle and one macro
/// cycle, and a run repeats rounds until it has this many and
/// `--seconds` have passed. One 16×16 cycle takes seconds, and the
/// host's speed drifts on that scale, so a single round would be too
/// noisy.
const MIN_ROUNDS: usize = 2;

/// Cycle energies and normal-mode static powers recorded at the commit
/// that introduced this benchmark; a run must reproduce them within the
/// goldens' transient relative tolerance.
const REF_ARRAY_ENERGY_J: f64 = 1.1389614232078483e-10;
const REF_ARRAY_STATIC_W: f64 = 1.9282333262772635e-6;
const REF_MACRO_ENERGY_J: f64 = 1.128256332293002e-10;
const REF_MACRO_STATIC_W: f64 = 2.117472838949136e-6;

/// Relative agreement demanded of energies and powers: the committed
/// transient goldens' relative bound. Their absolute floor is in volts
/// and would swallow femtojoule energies, so it is not used.
const TOL: Tolerance = Tolerance {
    abs: 0.0,
    rel: Tolerance::TRAN.rel,
};

/// Transistors and retention devices in the NVPG domain: per cell a 6T
/// latch, two store transistors and two MTJs, plus one shared header.
const ARRAY_FETS: usize = 8 * EDGE * EDGE + 1;
const ARRAY_MTJS: usize = 2 * EDGE * EDGE;

fn macro_spec() -> MacroSpec {
    MacroSpec::new(EDGE, EDGE, MUX).with_granularity(Granularity::PerBank(BANKS))
}

/// One set-up and its time, scaled to the reference host.
struct Setup {
    array: DomainArray,
    nv_macro: NvMacro,
    scaled_s: f64,
}

fn setup(tracer: &Tracer) -> Result<Setup, CircuitError> {
    let design = CellDesign::table1();
    let (builder, _, array_build_s) = tracer.scaled_span("cells.domain.build", || {
        DomainArray::prepare(
            design,
            DomainKind::Nvpg,
            EDGE,
            EDGE,
            SolverChoice::Auto,
            checkerboard,
        )
    });
    let (array, _, array_dc_s) = tracer.scaled_span("circuit.dc.array", || builder?.solve());
    let (builder, _, macro_build_s) = tracer.scaled_span("macrogen.build", || {
        MacroBuilder::prepare(macro_spec(), SolverChoice::Auto, checkerboard)
    });
    let (nv_macro, _, macro_dc_s) = tracer.scaled_span("circuit.dc.macro", || builder?.solve());
    Ok(Setup {
        array: array?,
        nv_macro: nv_macro?,
        scaled_s: array_build_s + array_dc_s + macro_build_s + macro_dc_s,
    })
}

/// Per-cycle measurements.
struct Cycle {
    total_s: f64,
    /// Wall time of each phase, in cycle order.
    phases_s: Vec<f64>,
    /// The same, scaled to the reference host.
    scaled_s: Vec<f64>,
    stats: StepStats,
}

/// Checks that the stored retention states are one consistent pair per
/// data value, with different pairs for 0 and 1.
fn states_consistent(
    expected: &[Vec<bool>],
    states: impl Fn(usize, usize) -> Option<(MtjState, MtjState)>,
) -> bool {
    let mut pair = [None, None];
    for (r, row) in expected.iter().enumerate() {
        for (c, &bit) in row.iter().enumerate() {
            let Some(s) = states(r, c) else {
                return false;
            };
            let slot = &mut pair[usize::from(bit)];
            match slot {
                None => *slot = Some(s),
                Some(p) if *p != s => return false,
                Some(_) => {}
            }
        }
    }
    pair[0] != pair[1]
}

fn preserved_bits(expected: &[Vec<bool>], data: impl Fn(usize, usize) -> bool) -> usize {
    expected
        .iter()
        .enumerate()
        .map(|(r, row)| {
            row.iter()
                .enumerate()
                .filter(|&(c, &b)| data(r, c) == b)
                .count()
        })
        .sum()
}

fn check_value(problems: &mut Vec<String>, what: &str, actual: f64, reference: f64) {
    if !TOL.within(actual, reference) {
        problems.push(format!(
            "{what} {actual:e} differs from the recorded {reference:e} beyond rel {:e}",
            TOL.rel
        ));
    }
}

fn array_cycle(
    dom: &mut DomainArray,
    tracer: &Tracer,
    problems: &mut Vec<String>,
) -> Option<Cycle> {
    let expected: Vec<Vec<bool>> = (0..EDGE)
        .map(|r| (0..EDGE).map(|c| checkerboard(r, c)).collect())
        .collect();
    if dom.pattern() != expected {
        problems.push("array does not hold the checkerboard after DC".to_owned());
    }
    check_value(
        problems,
        "array static power (W)",
        dom.static_power(),
        REF_ARRAY_STATIC_W,
    );
    dom.reset_step_stats();
    let mut energy = 0.0;
    let mut phases_s = Vec::with_capacity(3);
    let mut scaled_s = Vec::with_capacity(3);
    type Step<'a> = &'a dyn Fn(&mut DomainArray) -> Result<ArrayPhase, CircuitError>;
    let steps: [(&str, Step); 3] = [
        ("store", &|d| d.store()),
        ("shutdown", &|d| d.shutdown(true)),
        ("restore", &|d| d.restore()),
    ];
    for (i, (name, step)) in steps.iter().enumerate() {
        let span = format!("cells.domain.{name}");
        let (r, dt, scaled) = tracer.scaled_span(&span, || step(dom));
        match r {
            Ok(p) => energy += p.energy.0,
            Err(e) => {
                problems.push(format!("array {name}: {e}"));
                return None;
            }
        }
        phases_s.push(dt);
        scaled_s.push(scaled);
        if i == 0 && !states_consistent(&expected, |r, c| dom.mtj_states(r, c)) {
            problems.push("array MTJ states after store are not a function of the data".into());
        }
    }
    let kept = preserved_bits(&expected, |r, c| dom.data(r, c));
    if kept != EDGE * EDGE {
        problems.push(format!("array kept {kept}/{} bits", EDGE * EDGE));
    }
    check_value(
        problems,
        "array cycle energy (J)",
        energy,
        REF_ARRAY_ENERGY_J,
    );
    Some(Cycle {
        total_s: phases_s.iter().sum(),
        phases_s,
        scaled_s,
        stats: *dom.step_stats(),
    })
}

fn macro_cycle(m: &mut NvMacro, tracer: &Tracer, problems: &mut Vec<String>) -> Option<Cycle> {
    let expected: Vec<Vec<bool>> = (0..EDGE)
        .map(|r| (0..EDGE).map(|c| checkerboard(r, c)).collect())
        .collect();
    if m.pattern() != expected {
        problems.push("macro does not hold the checkerboard after DC".to_owned());
    }
    check_value(
        problems,
        "macro static power (W)",
        m.static_power(),
        REF_MACRO_STATIC_W,
    );
    let before = *m.step_stats();
    let groups: Vec<usize> = (0..m.spec().groups()).collect();
    let mut energy = 0.0;
    let mut phases_s = Vec::with_capacity(4);
    let mut scaled_s = Vec::with_capacity(4);
    type Step<'a> = &'a dyn Fn(&mut NvMacro) -> Result<MacroPhase, CircuitError>;
    let steps: [(&str, Step); 4] = [
        ("store", &|m| m.store(&groups)),
        ("shutdown", &|m| m.shutdown(&groups, true)),
        ("hold", &|m| m.hold(HOLD_S)),
        ("restore", &|m| m.restore(&groups)),
    ];
    for (i, (name, step)) in steps.iter().enumerate() {
        let span = format!("macrogen.{name}");
        let (r, dt, scaled) = tracer.scaled_span(&span, || step(m));
        match r {
            Ok(p) => energy += p.energy.0,
            Err(e) => {
                problems.push(format!("macro {name}: {e}"));
                return None;
            }
        }
        phases_s.push(dt);
        scaled_s.push(scaled);
        if i == 0 && !states_consistent(&expected, |r, c| m.mtj_states(r, c)) {
            problems.push("macro MTJ states after store are not a function of the data".into());
        }
    }
    let kept = preserved_bits(&expected, |r, c| m.data(r, c));
    if kept != EDGE * EDGE {
        problems.push(format!("macro kept {kept}/{} bits", EDGE * EDGE));
    }
    check_value(
        problems,
        "macro cycle energy (J)",
        energy,
        REF_MACRO_ENERGY_J,
    );
    let after = *m.step_stats();
    Some(Cycle {
        total_s: phases_s.iter().sum(),
        phases_s,
        scaled_s,
        stats: stats_delta(&after, &before),
    })
}

fn stats_delta(a: &StepStats, b: &StepStats) -> StepStats {
    StepStats {
        accepted_steps: a.accepted_steps - b.accepted_steps,
        rejected_newton: a.rejected_newton - b.rejected_newton,
        rejected_lte: a.rejected_lte - b.rejected_lte,
        newton_iterations: a.newton_iterations - b.newton_iterations,
        newton_solves: a.newton_solves - b.newton_solves,
        jacobian_refactorizations: a.jacobian_refactorizations - b.jacobian_refactorizations,
        refactorizations_avoided: a.refactorizations_avoided - b.refactorizations_avoided,
        device_evals: a.device_evals - b.device_evals,
        device_bypasses: a.device_bypasses - b.device_bypasses,
        max_lte_ratio: a.max_lte_ratio,
    }
}

/// FinFETs and two-terminal retention devices in the macro netlist.
fn macro_device_mix() -> Result<(usize, usize), CircuitError> {
    let ckt = MacroBuilder::prepare(macro_spec(), SolverChoice::Auto, checkerboard)?.into_circuit();
    let mut mix = (0, 0);
    for e in ckt.elements() {
        if let Element::Nonlinear(dev) = e {
            match dev.nodes().len() {
                3 => mix.0 += 1,
                _ => mix.1 += 1,
            }
        }
    }
    Ok(mix)
}

/// One timed set-up, counted as an operation.
fn timed_setup(tracer: &Tracer, report: &mut Report, setup_s: &mut Vec<f64>) -> Option<Setup> {
    match setup(tracer) {
        Ok(s) => {
            report.op(Vec::new());
            setup_s.push(s.scaled_s);
            Some(s)
        }
        Err(e) => {
            report.op(vec![format!("set-up: {e}")]);
            None
        }
    }
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Report, String> {
    match util::pin_to_current_cpu() {
        Ok(cpu) => eprintln!("retention16: pinned to CPU {cpu}"),
        Err(e) => eprintln!("retention16: running unpinned ({e})"),
    }
    if tracer.on() {
        // The engine's counters record only when metrics are enabled;
        // the untraced run leaves the registry off, as users run it.
        nvpg_obs::enable_metrics();
    }
    let t_start = std::time::Instant::now();
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut arrays: Vec<Cycle> = Vec::new();
    let mut macros: Vec<Cycle> = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut unknowns = (0, 0);
    // Each round needs a fresh domain and macro (their MTJs start
    // opposite to the data, so the store really switches them). The
    // last of the first SETUPS set-ups runs the first round; each later
    // round gets a set-up of its own.
    let mut next = None;
    for _ in 0..SETUPS {
        next = timed_setup(tracer, &mut report, &mut setup_s);
        if next.is_none() {
            return Ok(report);
        }
    }
    while let Some(mut s) = next.take() {
        unknowns = (s.array.unknown_count(), s.nv_macro.unknown_count());
        let (cpu0, counts0) = (layers::cpu_s("self")?, layers::counts_self());
        let mut problems = Vec::new();
        let array = array_cycle(&mut s.array, tracer, &mut problems);
        report.op(problems);
        let mut problems = Vec::new();
        let nv_macro = macro_cycle(&mut s.nv_macro, tracer, &mut problems);
        report.op(problems);
        let (cpu1, counts1) = (layers::cpu_s("self")?, layers::counts_self());
        drop(s);
        let (Some(a), Some(m)) = (array, nv_macro) else {
            return Ok(report);
        };
        rounds.push(Round {
            parts: a.scaled_s.iter().chain(&m.scaled_s).copied().collect(),
            cpu_s: cpu1 - cpu0,
            counts: layers::delta(&counts1, &counts0),
        });
        arrays.push(a);
        macros.push(m);
        let more = rounds.len() < MIN_ROUNDS || t_start.elapsed() < args.seconds;
        if more && report.failed == 0 {
            next = timed_setup(tracer, &mut report, &mut setup_s);
        }
    }
    let array_cycle_s = median(&arrays.iter().map(|c| c.total_s).collect::<Vec<_>>());
    let macro_cycle_s = median(&macros.iter().map(|c| c.total_s).collect::<Vec<_>>());
    report.detail("array_cycle_s", array_cycle_s, "s");
    report.detail("macro_cycle_s", macro_cycle_s, "s");
    if !tracer.on() {
        layers::end_to_end(&mut report, &setup_s, peak_rss_mb("self")?, &rounds);
        return Ok(report);
    }
    let measured_s = t_start.elapsed().as_secs_f64();
    let p = layers::probe(args.seed)?;
    let computed_s = traced_details(
        args,
        tracer,
        &mut report,
        &p,
        (&arrays, &macros),
        setup_s.len(),
        unknowns,
        (array_cycle_s, macro_cycle_s),
    )?;
    layers::per_layer(&mut report, tracer, &p, &rounds, computed_s, measured_s);
    Ok(report)
}

/// The workload's details from the traced run: build, DC and phase
/// times, and the array and macro cycles split into device evaluation,
/// LU and the rest, each from its own exact counts × unit costs. Returns
/// one round's computed seconds in device evaluation and in LU.
#[allow(clippy::too_many_arguments)]
fn traced_details(
    args: &Args,
    tracer: &Tracer,
    report: &mut Report,
    p: &Probes,
    (arrays, macros): (&[Cycle], &[Cycle]),
    setups: usize,
    unknowns: (usize, usize),
    cycle_s: (f64, f64),
) -> Result<(f64, f64), String> {
    let builds = |name: &str| tracer.total(name) / setups as f64;
    report.detail("cells.domain.build_s", builds("cells.domain.build"), "s");
    report.detail("circuit.dc_s", builds("circuit.dc.array"), "s");
    report.detail("macrogen.build_s", builds("macrogen.build"), "s");
    report.detail("circuit.macro_dc_s", builds("circuit.dc.macro"), "s");
    let phase = |cycles: &[Cycle], i: usize| {
        median(&cycles.iter().map(|c| c.phases_s[i]).collect::<Vec<_>>())
    };
    for (i, name) in ["store", "shutdown", "restore"].iter().enumerate() {
        report.detail(format!("cells.domain.{name}_s"), phase(arrays, i), "s");
    }
    for (i, name) in ["store", "shutdown", "hold", "restore"].iter().enumerate() {
        report.detail(format!("macrogen.{name}_s"), phase(macros, i), "s");
    }

    let (macro_fets, macro_mtjs) = macro_device_mix().map_err(|e| format!("macro netlist: {e}"))?;
    let (ref_m, sol_m) = probes::sparse_lu_us(unknowns.1, EDGE, args.seed)?;
    report.detail("circuit.unknowns", unknowns.0 as f64, "count");
    report.detail("circuit.macro_unknowns", unknowns.1 as f64, "count");
    report.detail("numeric.macro_sparse_refactor_us", ref_m, "us");
    report.detail("numeric.macro_sparse_solve_us", sol_m, "us");

    let parts = [
        (
            "array_",
            &arrays[arrays.len() - 1].stats,
            cycle_s.0,
            (ARRAY_FETS, ARRAY_MTJS),
            (p.sparse_refactor_us, p.sparse_solve_us),
        ),
        (
            "macro_",
            &macros[macros.len() - 1].stats,
            cycle_s.1,
            (macro_fets, macro_mtjs),
            (ref_m, sol_m),
        ),
    ];
    let mut computed_s = (0.0, 0.0);
    for (prefix, s, cycle, (fets, mtjs), (refactor_us, solve_us)) in parts {
        let count = |name: &str, v: u64| (format!("solve.{prefix}{name}"), v as f64);
        for (name, v) in [
            count("accepted_steps", s.accepted_steps),
            count("device_evals", s.device_evals),
            count("device_bypasses", s.device_bypasses),
        ] {
            report.detail(name, v, "count");
        }
        let load_ns =
            (fets as f64 * p.finfet_load_ns + mtjs as f64 * p.mtj_load_ns) / (fets + mtjs) as f64;
        let eval_s = s.device_evals as f64 * load_ns * 1e-9;
        let lu_s = (s.jacobian_refactorizations as f64 * refactor_us
            + s.newton_iterations as f64 * solve_us)
            * 1e-6;
        computed_s.0 += eval_s;
        computed_s.1 += lu_s;
        report.detail(
            format!("devices.{prefix}eval_share"),
            eval_s / cycle,
            "computed_frac",
        );
        report.detail(
            format!("numeric.{prefix}lu_share"),
            lu_s / cycle,
            "computed_frac",
        );
        report.detail(
            format!("circuit.{prefix}other_share"),
            1.0 - (eval_s + lu_s) / cycle,
            "computed_frac",
        );
        report.detail(
            format!("circuit.{prefix}us_per_step"),
            cycle * 1e6 / s.accepted_steps as f64,
            "us",
        );
    }
    Ok(computed_s)
}
