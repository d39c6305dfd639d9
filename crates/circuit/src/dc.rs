//! DC analyses: operating point (with gmin and source stepping) and DC
//! sweeps.
//!
//! SRAM cells are bistable, so the operating point accepts *nodesets* —
//! initial guesses for selected node voltages — exactly as HSPICE's
//! `.nodeset` does. The cell builders in `nvpg-cells` always seed the
//! storage nodes to pick the intended state.

use std::collections::HashMap;

use std::rc::Rc;

use nvpg_numeric::newton::{NewtonOptions, NewtonOutcome, NewtonSolver};

use crate::circuit::Circuit;
use crate::engine::{AssemblyCache, MnaContext, MnaSystem};
use crate::error::CircuitError;
use crate::fault::{self, FaultKind};
use crate::node::NodeId;
use crate::rescue::RescueStats;
use crate::solution::DcSolution;
use crate::solver::SolverChoice;

/// Options for [`operating_point`] and [`sweep`].
#[derive(Debug, Clone)]
pub struct DcOptions {
    /// Newton iteration settings.
    pub newton: NewtonOptions,
    /// Initial node-voltage guesses (nodesets). Unlisted nodes start at 0.
    pub nodesets: HashMap<NodeId, f64>,
    /// Enable gmin stepping if plain Newton fails (default true).
    pub gmin_stepping: bool,
    /// Enable source stepping if gmin stepping also fails (default true).
    pub source_stepping: bool,
    /// Linear-solver backend (default [`SolverChoice::Auto`]: dense for
    /// cell-sized systems, sparse above [`crate::SPARSE_THRESHOLD`]).
    pub solver: SolverChoice,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions {
            newton: NewtonOptions {
                max_iter: 500,
                ..NewtonOptions::default()
            },
            nodesets: HashMap::new(),
            gmin_stepping: true,
            source_stepping: true,
            solver: SolverChoice::Auto,
        }
    }
}

impl DcOptions {
    /// Adds a nodeset (initial guess) for `node`.
    #[must_use]
    pub fn with_nodeset(mut self, node: NodeId, volts: f64) -> Self {
        self.nodesets.insert(node, volts);
        self
    }
}

pub(crate) fn initial_vector(circuit: &Circuit, opts: &DcOptions) -> Vec<f64> {
    let mut x = vec![0.0; circuit.unknown_count()];
    for (&node, &v) in &opts.nodesets {
        if let Some(i) = node.unknown_index() {
            x[i] = v;
        }
    }
    x
}

/// Runs one Newton solve with the thread's fault plan applied: consults
/// the plan, stamps the chosen corruption into the assembly, and demotes a
/// converged solve to failure when a `RejectStep` fault fired.
pub(crate) fn solve_with_faults(
    solver: &mut NewtonSolver,
    sys: &mut MnaSystem<'_>,
    x: &mut [f64],
    stats: &mut RescueStats,
) -> NewtonOutcome {
    let action = fault::begin_solve();
    if action.is_some() {
        stats.injected_faults += 1;
    }
    // A Stall fault burns deterministic wall-clock *before* the solve —
    // exercising the watchdog and deadline paths — without corrupting the
    // assembly, so the numerical outcome is unchanged (jobs-invariant).
    if let Some(FaultKind::Stall(pause)) = action {
        std::thread::sleep(pause);
        sys.fault = None;
    } else {
        sys.fault = action;
    }
    let outcome = solver.solve(sys, x);
    sys.fault = None;
    if action == Some(FaultKind::RejectStep) && outcome.is_converged() {
        return NewtonOutcome::IterationLimit {
            last_delta: f64::INFINITY,
            last_residual: f64::INFINITY,
            worst_index: 0,
        };
    }
    outcome
}

/// Computes the DC operating point of `circuit`.
///
/// Strategy: plain Newton from the nodeset-seeded guess; on failure, gmin
/// stepping (extra conductance to ground swept from 1 mS down to 1 pS); on
/// failure again, source stepping (independent sources ramped from 0 to
/// 100 %).
///
/// # Errors
///
/// Returns [`CircuitError::DcNonConvergence`] if all strategies fail, or
/// [`CircuitError::SingularMatrix`] if the topology itself is singular
/// (floating node without gmin, voltage-source loop).
pub fn operating_point(
    circuit: &mut Circuit,
    opts: &DcOptions,
) -> Result<DcSolution, CircuitError> {
    let x0 = initial_vector(circuit, opts);
    operating_point_from(circuit, opts, &x0)
}

/// [`operating_point`] plus the [`RescueStats`] describing which rungs of
/// the convergence ladder (damped retry, gmin stepping, source stepping)
/// the solve needed.
///
/// # Errors
///
/// Same as [`operating_point`].
pub fn operating_point_report(
    circuit: &mut Circuit,
    opts: &DcOptions,
) -> Result<(DcSolution, RescueStats), CircuitError> {
    let x0 = initial_vector(circuit, opts);
    operating_point_from_report(circuit, opts, &x0)
}

/// Like [`operating_point`] but starting from an explicit full unknown
/// vector (warm start), e.g. the previous point of a sweep.
///
/// # Errors
///
/// Same as [`operating_point`].
///
/// # Panics
///
/// Panics if `x0.len() != circuit.unknown_count()`.
pub fn operating_point_from(
    circuit: &mut Circuit,
    opts: &DcOptions,
    x0: &[f64],
) -> Result<DcSolution, CircuitError> {
    operating_point_from_report(circuit, opts, x0).map(|(sol, _)| sol)
}

/// [`operating_point_from`] plus the [`RescueStats`] for the solve.
///
/// The rescue ladder, in order: plain Newton from the warm start; a
/// damped retry with backtracking line search; gmin stepping; source
/// stepping. The first rung to converge wins; the stats record which
/// rungs ran.
///
/// # Errors
///
/// Same as [`operating_point`], plus [`CircuitError::InvalidOptions`] for
/// malformed Newton settings.
///
/// # Panics
///
/// Panics if `x0.len() != circuit.unknown_count()`.
pub fn operating_point_from_report(
    circuit: &mut Circuit,
    opts: &DcOptions,
    x0: &[f64],
) -> Result<(DcSolution, RescueStats), CircuitError> {
    let _span = nvpg_obs::span_labeled("solve", "dc");
    let result = operating_point_ladder(circuit, opts, x0);
    if let Ok((_, stats)) = &result {
        // One registry deposit per successful solve, from the aggregated
        // stats, so global metrics reconcile with returned RescueStats.
        stats.record_metrics();
        nvpg_obs::metrics::counters::DC_SOLVES.add(1);
    }
    result
}

/// The rescue ladder itself (see [`operating_point_from_report`]).
fn operating_point_ladder(
    circuit: &mut Circuit,
    opts: &DcOptions,
    x0: &[f64],
) -> Result<(DcSolution, RescueStats), CircuitError> {
    assert_eq!(
        x0.len(),
        circuit.unknown_count(),
        "warm-start vector has wrong length"
    );
    opts.newton.validate()?;
    let mut stats = RescueStats::default();
    let mut solver = crate::solver::build_newton(circuit, opts.newton, opts.solver);
    // Every rung assembles the same topology in the DC context.
    let cache = Rc::new(AssemblyCache::default());
    let mut saw_nonfinite = false;

    // 1. Plain Newton.
    let mut x = x0.to_vec();
    {
        let mut sys = MnaSystem::with_cache(circuit, MnaContext::dc(), Rc::clone(&cache));
        let outcome = solve_with_faults(&mut solver, &mut sys, &mut x, &mut stats);
        if outcome.is_converged() {
            return Ok((DcSolution::new(circuit, x), stats));
        }
        if matches!(outcome, NewtonOutcome::Cancelled { .. }) {
            return Err(CircuitError::cancelled_at("dc (plain Newton)".to_owned()));
        }
        saw_nonfinite |= matches!(outcome, NewtonOutcome::NonFiniteState { .. });
    }

    // 2. Damped retry: quarter the step cap and enable the backtracking
    // line search — the standard cure when plain Newton overshoots an
    // exponential device model and oscillates.
    {
        stats.damped_retries += 1;
        let damped = NewtonOptions {
            max_step: if opts.newton.max_step.is_finite() {
                opts.newton.max_step * 0.25
            } else {
                0.25
            },
            backtrack: 4,
            max_iter: opts.newton.max_iter * 2,
            ..opts.newton
        };
        solver.set_options(damped);
        let mut x = x0.to_vec();
        let mut sys = MnaSystem::with_cache(circuit, MnaContext::dc(), Rc::clone(&cache));
        let outcome = solve_with_faults(&mut solver, &mut sys, &mut x, &mut stats);
        if outcome.is_converged() {
            stats.rescued_solves += 1;
            return Ok((DcSolution::new(circuit, x), stats));
        }
        if matches!(outcome, NewtonOutcome::Cancelled { .. }) {
            return Err(CircuitError::cancelled_at("dc (damped retry)".to_owned()));
        }
        saw_nonfinite |= matches!(outcome, NewtonOutcome::NonFiniteState { .. });
        solver.set_options(opts.newton);
    }

    // 3. Gmin stepping: relax with a large shunt conductance, then tighten.
    if opts.gmin_stepping {
        stats.gmin_ramps += 1;
        let mut x = x0.to_vec();
        let mut ok = true;
        let mut exp = -3;
        while exp >= -12 {
            let extra = 10f64.powi(exp);
            let ctx = MnaContext {
                extra_gmin: extra,
                ..MnaContext::dc()
            };
            let mut sys = MnaSystem::with_cache(circuit, ctx, Rc::clone(&cache));
            let outcome = solve_with_faults(&mut solver, &mut sys, &mut x, &mut stats);
            if matches!(outcome, NewtonOutcome::Cancelled { .. }) {
                return Err(CircuitError::cancelled_at(format!(
                    "dc (gmin stepping at 1e{exp} S)"
                )));
            }
            if !outcome.is_converged() {
                ok = false;
                break;
            }
            exp -= 1;
        }
        if ok {
            // Final polish without the extra gmin.
            let mut sys = MnaSystem::with_cache(circuit, MnaContext::dc(), Rc::clone(&cache));
            let outcome = solve_with_faults(&mut solver, &mut sys, &mut x, &mut stats);
            if matches!(outcome, NewtonOutcome::Cancelled { .. }) {
                return Err(CircuitError::cancelled_at("dc (gmin polish)".to_owned()));
            }
            if outcome.is_converged() {
                stats.rescued_solves += 1;
                return Ok((DcSolution::new(circuit, x), stats));
            }
        }
    }

    // 4. Source stepping: ramp all independent sources from 0.
    if opts.source_stepping {
        let mut x = vec![0.0; x0.len()];
        let mut scale = 0.0_f64;
        let mut step = 0.1_f64;
        let mut failures = 0;
        while scale < 1.0 {
            let next = (scale + step).min(1.0);
            let ctx = MnaContext {
                source_scale: next,
                ..MnaContext::dc()
            };
            let mut backup = x.clone();
            let mut sys = MnaSystem::with_cache(circuit, ctx, Rc::clone(&cache));
            let outcome = solve_with_faults(&mut solver, &mut sys, &mut x, &mut stats);
            if matches!(outcome, NewtonOutcome::Cancelled { .. }) {
                return Err(CircuitError::cancelled_at(format!(
                    "dc (source stepping at scale {scale:.4})"
                )));
            }
            if outcome.is_converged() {
                scale = next;
                step = (step * 1.5).min(0.25);
            } else {
                x = std::mem::take(&mut backup);
                step *= 0.25;
                failures += 1;
                if step < 1e-6 || failures > 60 {
                    return Err(CircuitError::DcNonConvergence {
                        detail: format!(
                            "source stepping stalled at scale {scale:.4} (step {step:e}) \
                             after rescue ladder [{stats}]"
                        ),
                    });
                }
            }
        }
        stats.rescued_solves += 1;
        return Ok((DcSolution::new(circuit, x), stats));
    }

    if saw_nonfinite {
        return Err(CircuitError::NonFiniteSolution {
            analysis: "dc",
            time: 0.0,
        });
    }
    Err(CircuitError::DcNonConvergence {
        detail: format!("Newton failed and fallback strategies are disabled [{stats}]"),
    })
}

/// Sweeps the named source over `values`, computing an operating point at
/// each (warm-started from the previous point).
///
/// The source's waveform is restored afterwards.
///
/// # Errors
///
/// Returns [`CircuitError::UnknownSource`] for a bad name, or the first
/// convergence error encountered.
pub fn sweep(
    circuit: &mut Circuit,
    source: &str,
    values: &[f64],
    opts: &DcOptions,
) -> Result<Vec<DcSolution>, CircuitError> {
    let saved =
        circuit
            .source_wave(source)
            .cloned()
            .ok_or_else(|| CircuitError::UnknownSource {
                name: source.to_owned(),
            })?;
    let mut out = Vec::with_capacity(values.len());
    let mut prev: Option<Vec<f64>> = None;
    for &v in values {
        circuit.set_source(source, v)?;
        let res = match &prev {
            Some(x0) => operating_point_from(circuit, opts, x0),
            None => operating_point(circuit, opts),
        };
        match res {
            Ok(sol) => {
                prev = Some(sol.as_slice().to_vec());
                out.push(sol);
            }
            Err(e) => {
                circuit.set_source(source, saved)?;
                return Err(e);
            }
        }
    }
    circuit.set_source(source, saved)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    #[test]
    fn divider() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        ckt.vsource("v1", vin, Circuit::GROUND, 1.0).unwrap();
        ckt.resistor("r1", vin, out, 1e3).unwrap();
        ckt.resistor("r2", out, Circuit::GROUND, 1e3).unwrap();
        let op = operating_point(&mut ckt, &DcOptions::default()).unwrap();
        assert!((op.voltage(out) - 0.5).abs() < 1e-6);
        // Source current: 1 V across 2 kΩ = 0.5 mA, flowing out of `+`.
        assert!((op.source_current("v1").unwrap() + 0.5e-3).abs() < 1e-9);
        // Power delivered by the source.
        assert!((op.source_power("v1", 1.0).unwrap() - 0.5e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        // 1 mA pushed into `n` from ground.
        ckt.isource("i1", Circuit::GROUND, n, 1e-3).unwrap();
        ckt.resistor("r1", n, Circuit::GROUND, 1e3).unwrap();
        let op = operating_point(&mut ckt, &DcOptions::default()).unwrap();
        assert!((op.voltage(n) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn floating_node_held_by_gmin() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("v1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.resistor("r1", a, b, 1e3).unwrap();
        // `b` only connects through r1; gmin ties it weakly to ground, so
        // it floats to ≈ v(a).
        let op = operating_point(&mut ckt, &DcOptions::default()).unwrap();
        assert!((op.voltage(b) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn switch_follows_control_voltage() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        let ctl = ckt.node("ctl");
        ckt.vsource("v1", vin, Circuit::GROUND, 1.0).unwrap();
        ckt.vsource("vc", ctl, Circuit::GROUND, 0.0).unwrap();
        ckt.switch("s1", vin, out, ctl, Circuit::GROUND, 0.5, 1.0, 1e12)
            .unwrap();
        ckt.resistor("rl", out, Circuit::GROUND, 1e3).unwrap();
        // Off: output pulled to ground.
        let op = operating_point(&mut ckt, &DcOptions::default()).unwrap();
        assert!(op.voltage(out).abs() < 1e-3, "off: {}", op.voltage(out));
        // On: output ≈ vin.
        ckt.set_source("vc", 1.0).unwrap();
        let op = operating_point(&mut ckt, &DcOptions::default()).unwrap();
        assert!(
            (op.voltage(out) - 1.0).abs() < 1e-2,
            "on: {}",
            op.voltage(out)
        );
    }

    #[test]
    fn nodesets_select_bistable_state() {
        // Cross-coupled switch latch: two states, selected by nodeset.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let q = ckt.node("q");
        let qb = ckt.node("qb");
        ckt.vsource("v1", vdd, Circuit::GROUND, 1.0).unwrap();
        // Pull-ups controlled by the opposite node being low.
        ckt.switch("pu_q", vdd, q, vdd, qb, 0.5, 1e3, 1e12).unwrap();
        ckt.switch("pu_qb", vdd, qb, vdd, q, 0.5, 1e3, 1e12)
            .unwrap();
        // Pull-downs controlled by the opposite node being high.
        ckt.switch(
            "pd_q",
            q,
            Circuit::GROUND,
            qb,
            Circuit::GROUND,
            0.5,
            1e3,
            1e12,
        )
        .unwrap();
        ckt.switch(
            "pd_qb",
            qb,
            Circuit::GROUND,
            q,
            Circuit::GROUND,
            0.5,
            1e3,
            1e12,
        )
        .unwrap();
        let opts_q_high = DcOptions::default()
            .with_nodeset(q, 1.0)
            .with_nodeset(qb, 0.0);
        let op = operating_point(&mut ckt, &opts_q_high).unwrap();
        assert!(op.voltage(q) > 0.9, "q = {}", op.voltage(q));
        assert!(op.voltage(qb) < 0.1, "qb = {}", op.voltage(qb));

        let opts_q_low = DcOptions::default()
            .with_nodeset(q, 0.0)
            .with_nodeset(qb, 1.0);
        let op = operating_point(&mut ckt, &opts_q_low).unwrap();
        assert!(op.voltage(q) < 0.1);
        assert!(op.voltage(qb) > 0.9);
    }

    #[test]
    fn sweep_warm_starts_and_restores_wave() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        ckt.vsource("v1", vin, Circuit::GROUND, Waveform::Dc(0.25))
            .unwrap();
        ckt.resistor("r1", vin, out, 1e3).unwrap();
        ckt.resistor("r2", out, Circuit::GROUND, 1e3).unwrap();
        let sols = sweep(&mut ckt, "v1", &[0.0, 0.5, 1.0], &DcOptions::default()).unwrap();
        assert_eq!(sols.len(), 3);
        assert!((sols[1].voltage(out) - 0.25).abs() < 1e-6);
        assert!((sols[2].voltage(out) - 0.5).abs() < 1e-6);
        assert_eq!(ckt.source_wave("v1"), Some(&Waveform::Dc(0.25)));
    }

    #[test]
    fn sweep_unknown_source_is_error() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor("r1", a, Circuit::GROUND, 1.0).unwrap();
        assert!(matches!(
            sweep(&mut ckt, "vx", &[0.0], &DcOptions::default()),
            Err(CircuitError::UnknownSource { .. })
        ));
    }

    #[test]
    fn voltage_by_name() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        ckt.vsource("v1", vin, Circuit::GROUND, 0.7).unwrap();
        ckt.resistor("r1", vin, Circuit::GROUND, 1e3).unwrap();
        let op = operating_point(&mut ckt, &DcOptions::default()).unwrap();
        assert!((op.voltage_by_name("vin").unwrap() - 0.7).abs() < 1e-9);
        assert_eq!(op.voltage_by_name("gnd"), Some(0.0));
        assert_eq!(op.voltage_by_name("missing"), None);
        assert_eq!(op.node_unknowns(), 1);
    }
}
