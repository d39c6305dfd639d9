//! Batched DC operating points: many same-topology circuits, one lock-step
//! Newton solve.
//!
//! The engine's batch-shaped workloads (Monte-Carlo variation, thermal
//! sweeps, BET design-space scans) solve the *same topology* at different
//! parameter values. [`batched_operating_point`] runs one point per lane of
//! an [`nvpg_numeric::batched`] stack:
//!
//! * on the **dense** backend, each lane shares the serial LU kernels and
//!   the serial Newton arithmetic, so a converged batched point is
//!   **bit-identical** to the serial plain-Newton rung for that circuit;
//! * on the **sparse** backend, one symbolic analysis (ordering, pivot
//!   sequence, L/U patterns) computed from lane 0 serves every lane — the
//!   structural cost the serial path pays per point is paid once per batch;
//! * any lane that does not converge in lock-step (singular or unstable
//!   factorisation, non-finite state, iteration limit, cancellation)
//!   **peels off** and is resolved by the serial rescue ladder from its
//!   original starting point, so fail-soft semantics, error taxonomy, and
//!   `RescueStats` are exactly those of a serial run of that point.
//!
//! The batched path steps aside entirely (per-point serial solving) when a
//! fault plan is installed or when the options request rescue-path features
//! (backtracking, Jacobian reuse), keeping the fault schedule and iteration
//! history identical to the serial engine's.

use std::fmt;
use std::rc::Rc;
use std::str::FromStr;

use nvpg_numeric::batched::{
    BatchedDenseLu, BatchedNewton, BatchedSolver, BatchedSparseLu, LaneOutcome, PeelReason,
};

use crate::circuit::Circuit;
use crate::dc::{initial_vector, operating_point_from_report, operating_point_report, DcOptions};
use crate::engine::{self, AssemblyCache, MnaContext, MnaSystem};
use crate::error::CircuitError;
use crate::fault;
use crate::rescue::RescueStats;
use crate::solution::DcSolution;

/// Default lane count for [`BatchMode::Auto`]: wide enough to amortise the
/// symbolic analysis and keep the factor stacks hot, small enough that a
/// batch of array-scale systems stays cache- and memory-friendly per
/// worker thread.
pub const DEFAULT_BATCH_LANES: usize = 64;

/// How a sweep/Monte-Carlo driver should batch its points
/// (`--batch auto|serial|N`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// Batch with [`DEFAULT_BATCH_LANES`] lanes. The default.
    #[default]
    Auto,
    /// Solve every point serially (the pre-batching behaviour).
    Serial,
    /// Batch with exactly `N` lanes per batch.
    Fixed(usize),
}

impl BatchMode {
    /// Lanes per batch this mode resolves to (≥ 1; `Serial` is 1).
    /// `Auto` defers to the process default ([`set_default_batch`], the
    /// `--batch` flag) and falls back to [`DEFAULT_BATCH_LANES`].
    pub fn lanes(self) -> usize {
        match self {
            BatchMode::Auto => match default_batch() {
                BatchMode::Auto => DEFAULT_BATCH_LANES,
                other => other.lanes(),
            },
            BatchMode::Serial => 1,
            BatchMode::Fixed(n) => n.max(1),
        }
    }

    /// `true` when points should bypass the batched path entirely.
    pub fn is_serial(self) -> bool {
        self.lanes() == 1
    }
}

/// The process-wide default consulted by `BatchMode::Auto`, encoded as a
/// lane count: `0` = unset (auto), `1` = serial, `n` = fixed `n` lanes.
static DEFAULT_BATCH: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Sets the process-wide default consulted by `BatchMode::Auto`. Intended
/// to be called once at CLI startup (the `--batch auto|serial|N` flag on
/// `figures` and `nvpg-serve`); scan drivers that want a specific width
/// regardless of the process default should pass `Serial`/`Fixed`
/// explicitly.
pub fn set_default_batch(mode: BatchMode) {
    let v = match mode {
        BatchMode::Auto => 0,
        BatchMode::Serial => 1,
        BatchMode::Fixed(n) => n.max(1),
    };
    DEFAULT_BATCH.store(v, std::sync::atomic::Ordering::Relaxed);
}

/// The process-wide default batch mode (`Auto` when never set).
pub fn default_batch() -> BatchMode {
    match DEFAULT_BATCH.load(std::sync::atomic::Ordering::Relaxed) {
        0 => BatchMode::Auto,
        1 => BatchMode::Serial,
        n => BatchMode::Fixed(n),
    }
}

impl fmt::Display for BatchMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchMode::Auto => f.write_str("auto"),
            BatchMode::Serial => f.write_str("serial"),
            BatchMode::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// A string was not `auto`, `serial`, or a positive lane count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBatchModeError(pub String);

impl fmt::Display for ParseBatchModeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown batch mode `{}` (expected auto, serial, or a positive lane count)",
            self.0
        )
    }
}

impl std::error::Error for ParseBatchModeError {}

impl FromStr for BatchMode {
    type Err = ParseBatchModeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim().to_ascii_lowercase();
        match t.as_str() {
            "auto" => Ok(BatchMode::Auto),
            "serial" => Ok(BatchMode::Serial),
            _ => match t.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(BatchMode::Fixed(n)),
                _ => Err(ParseBatchModeError(s.trim().to_owned())),
            },
        }
    }
}

/// Computes the DC operating point of every circuit in `circuits` — one
/// lane per circuit — returning per-point results in input order.
///
/// All circuits must share one topology (same elements in the same order,
/// hence the same unknown count and Jacobian pattern); only parameter
/// *values* may differ between lanes. The backend follows
/// [`DcOptions::solver`] exactly as the serial path does: dense below the
/// sparse threshold, sparse above it, with the sparse symbolic analysis
/// computed once from lane 0 and shared by every lane.
///
/// Falls back to per-point serial solving (identical results, no batching
/// win) when batching cannot preserve serial semantics: a fault plan is
/// installed on this thread, the options enable backtracking or
/// modified-Newton reuse, the unknown counts disagree, or the batch has a
/// single lane.
///
/// Per-point failures surface in that point's `Result` slot; one bad lane
/// never poisons its neighbours (fail-soft, as the serial sweep drivers
/// expect).
pub fn batched_operating_point(
    circuits: &mut [Circuit],
    opts: &DcOptions,
) -> Vec<Result<(DcSolution, RescueStats), CircuitError>> {
    if circuits.is_empty() {
        return Vec::new();
    }
    let n = circuits[0].unknown_count();
    let serial_only = circuits.len() == 1
        || circuits.iter().any(|c| c.unknown_count() != n)
        || opts.newton.backtrack > 0
        || opts.newton.reuse_jacobian
        || opts.newton.validate().is_err()
        || fault::plan_active();
    if serial_only {
        return circuits
            .iter_mut()
            .map(|c| operating_point_report(c, opts))
            .collect();
    }

    let lanes = circuits.len();
    let mut x = Vec::with_capacity(lanes * n);
    for c in circuits.iter() {
        x.extend_from_slice(&initial_vector(c, opts));
    }
    // Keep the starting points: peeled lanes restart the serial ladder
    // from exactly where a serial run of that point would have.
    let x0 = x.clone();
    let mut outcomes = vec![
        LaneOutcome::Peeled {
            iteration: 0,
            reason: PeelReason::IterationLimit,
        };
        lanes
    ];

    {
        let _span = nvpg_obs::span_labeled("solve", "dc_batched");
        if opts.solver.use_sparse(n) {
            let pattern = engine::jacobian_pattern(&mut circuits[0]);
            let backend = BatchedSparseLu::new(&pattern, lanes);
            run_batch(backend, circuits, opts, &mut x, &mut outcomes);
        } else {
            let backend = BatchedDenseLu::new(n, lanes);
            run_batch(backend, circuits, opts, &mut x, &mut outcomes);
        }
    }

    circuits
        .iter_mut()
        .enumerate()
        .map(|(lane, circuit)| match outcomes[lane] {
            LaneOutcome::Converged { .. } => {
                // Plain lock-step Newton converged: no rescue rungs ran.
                // Deposit the same per-solve metrics as the serial path.
                let stats = RescueStats::default();
                stats.record_metrics();
                nvpg_obs::metrics::counters::DC_SOLVES.add(1);
                nvpg_obs::metrics::counters::ENGINE_BATCHED_POINTS.add(1);
                let sol = DcSolution::new(circuit, x[lane * n..(lane + 1) * n].to_vec());
                Ok((sol, stats))
            }
            LaneOutcome::Peeled { .. } => {
                // Serial rescue from the lane's original start: outcome,
                // error taxonomy, and RescueStats match a serial run of
                // this point (a cancelled token short-circuits there too).
                nvpg_obs::metrics::counters::ENGINE_BATCHED_PEELS.add(1);
                operating_point_from_report(circuit, opts, &x0[lane * n..(lane + 1) * n])
            }
        })
        .collect()
}

fn run_batch<B: BatchedSolver>(
    backend: B,
    circuits: &mut [Circuit],
    opts: &DcOptions,
    x: &mut [f64],
    outcomes: &mut [LaneOutcome],
) {
    let mut newton = BatchedNewton::new(backend, opts.newton);
    // One assembly cache (slot tapes, share tables) per topology, shared
    // by every lane like the sparse symbolic schedule.
    let cache = Rc::new(AssemblyCache::default());
    let mut systems: Vec<MnaSystem<'_>> = circuits
        .iter_mut()
        .map(|c| MnaSystem::with_cache(c, MnaContext::dc(), Rc::clone(&cache)))
        .collect();
    newton.solve(&mut systems, x, outcomes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc;
    use crate::solver::SolverChoice;

    /// A nonlinear deck (smooth switch ⇒ real Newton iterations) whose
    /// drive level varies per lane.
    fn deck(drive: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        let ctl = ckt.node("ctl");
        ckt.vsource("v1", vin, Circuit::GROUND, 1.0).unwrap();
        ckt.vsource("vc", ctl, Circuit::GROUND, drive).unwrap();
        ckt.switch("s1", vin, out, ctl, Circuit::GROUND, 0.5, 1.0, 1e12)
            .unwrap();
        ckt.resistor("rl", out, Circuit::GROUND, 1e3).unwrap();
        ckt
    }

    #[test]
    fn batch_mode_parses_and_round_trips() {
        assert_eq!("auto".parse::<BatchMode>().unwrap(), BatchMode::Auto);
        assert_eq!("SERIAL".parse::<BatchMode>().unwrap(), BatchMode::Serial);
        assert_eq!(" 16 ".parse::<BatchMode>().unwrap(), BatchMode::Fixed(16));
        assert!("0".parse::<BatchMode>().is_err());
        assert!("gpu".parse::<BatchMode>().is_err());
        for m in [BatchMode::Auto, BatchMode::Serial, BatchMode::Fixed(7)] {
            assert_eq!(m.to_string().parse::<BatchMode>().unwrap(), m);
        }
        assert_eq!(BatchMode::Serial.lanes(), 1);
        assert_eq!(BatchMode::Auto.lanes(), DEFAULT_BATCH_LANES);
        assert_eq!(BatchMode::Fixed(0).lanes(), 1);
        assert!(BatchMode::Fixed(1).is_serial());
        assert!(!BatchMode::Auto.is_serial());

        // `Auto` defers to the process default (the `--batch` flag); the
        // overrides live in this one test so parallel tests never observe
        // a transient default.
        set_default_batch(BatchMode::Serial);
        assert!(BatchMode::Auto.is_serial());
        assert_eq!(default_batch(), BatchMode::Serial);
        set_default_batch(BatchMode::Fixed(5));
        assert_eq!(BatchMode::Auto.lanes(), 5);
        assert_eq!(BatchMode::Fixed(9).lanes(), 9, "explicit width wins");
        set_default_batch(BatchMode::Auto);
        assert_eq!(BatchMode::Auto.lanes(), DEFAULT_BATCH_LANES);
        assert_eq!(default_batch(), BatchMode::Auto);
    }

    #[test]
    fn batched_dense_is_bit_identical_to_serial() {
        let drives = [0.0, 0.3, 0.45, 0.55, 0.8, 1.0];
        let mut circuits: Vec<Circuit> = drives.iter().map(|&d| deck(d)).collect();
        let opts = DcOptions::default();
        let batched = batched_operating_point(&mut circuits, &opts);
        for (k, &d) in drives.iter().enumerate() {
            let mut ckt = deck(d);
            let serial = dc::operating_point_report(&mut ckt, &opts).unwrap();
            let (sol, stats) = batched[k].as_ref().unwrap();
            assert_eq!(*stats, serial.1, "lane {k} rescue stats");
            let xs = serial.0.as_slice();
            let xb = sol.as_slice();
            assert_eq!(xs.len(), xb.len());
            for (i, (a, b)) in xb.iter().zip(xs.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "lane {k} unknown {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn batched_sparse_matches_serial_within_tolerance() {
        let drives = [0.1, 0.4, 0.6, 0.9];
        let mut circuits: Vec<Circuit> = drives.iter().map(|&d| deck(d)).collect();
        let opts = DcOptions {
            solver: SolverChoice::Sparse,
            ..DcOptions::default()
        };
        let batched = batched_operating_point(&mut circuits, &opts);
        for (k, &d) in drives.iter().enumerate() {
            let mut ckt = deck(d);
            let serial = dc::operating_point_report(&mut ckt, &opts).unwrap();
            let (sol, _) = batched[k].as_ref().unwrap();
            for (i, (a, b)) in sol.as_slice().iter().zip(serial.0.as_slice()).enumerate() {
                let tol = 1e-7 + 1e-6 * b.abs();
                assert!((a - b).abs() <= tol, "lane {k} unknown {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn rescue_options_fall_back_to_serial() {
        // Backtracking is a rescue-path feature the lock-step driver
        // refuses; the wrapper must route around it, not panic.
        let mut circuits: Vec<Circuit> = [0.2, 0.7].iter().map(|&d| deck(d)).collect();
        let mut opts = DcOptions::default();
        opts.newton.backtrack = 2;
        let results = batched_operating_point(&mut circuits, &opts);
        assert!(results.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn single_lane_and_empty_batches() {
        assert!(batched_operating_point(&mut [], &DcOptions::default()).is_empty());
        let mut one = vec![deck(0.8)];
        let results = batched_operating_point(&mut one, &DcOptions::default());
        assert_eq!(results.len(), 1);
        assert!(results[0].is_ok());
    }

    #[test]
    fn fault_plan_forces_serial_path() {
        use crate::fault::{FaultKind, FaultPlan};
        let plan = FaultPlan::at_solves(FaultKind::RejectStep, &[0]);
        let mut circuits: Vec<Circuit> = [0.3, 0.6].iter().map(|&d| deck(d)).collect();
        let (results, fired) = crate::fault::with_fault_plan_logged(&plan, || {
            batched_operating_point(&mut circuits, &DcOptions::default())
        });
        // The fault fired (so the serial fault-aware path really ran) and
        // the ladder still rescued both points.
        assert!(!fired.is_empty());
        assert!(results.iter().all(|r| r.is_ok()));
        assert!(results[0].as_ref().unwrap().1.injected_faults >= 1);
    }
}
