//! Bit-identity guard for the transient engine.
//!
//! Device-evaluation shortcuts (deferred accept-step reloads, sharing
//! stamps across identical model instances, slot-tape stamping) are only
//! admissible because they are exact: every phase energy, static power
//! and final MNA state must match the plain evaluate-everything engine
//! bit for bit, and so must the step-control and solver counters.
//!
//! The reference words below were recorded from that plain engine. They
//! pin exact floating-point results, so they depend on the SIMD arm the
//! dense/sparse kernels dispatch to (AVX2 fuses multiply–adds, the
//! scalar arm does not); one table per arm.

use nvpg_cells::{CellDesign, DomainArray, DomainKind};
use nvpg_circuit::{SolverChoice, StepStats};
use nvpg_macro::{MacroSpec, NvMacro};
use nvpg_numeric::simd::{self, SimdLevel};

/// Dark time between the macro's shutdown and restore, seconds.
const HOLD_S: f64 = 20e-9;

fn checkerboard(r: usize, c: usize) -> bool {
    (r + c).is_multiple_of(2)
}

/// Order-sensitive fold of a slice's bit patterns (FNV-1a over words).
fn digest(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The counters an exact evaluation shortcut must leave untouched.
/// `device_evals` is deliberately absent: skipping model calls is the
/// point.
fn counters(s: &StepStats) -> [u64; 7] {
    [
        s.accepted_steps,
        s.rejected_lte,
        s.rejected_newton,
        s.newton_iterations,
        s.newton_solves,
        s.jacobian_refactorizations,
        s.refactorizations_avoided,
    ]
}

/// One recorded cycle: static power after DC, then per phase the energy
/// and the cumulative counters (plus bypasses), then the final state.
#[derive(Debug, PartialEq)]
struct Record {
    static_power: u64,
    phases: Vec<(u64, [u64; 7], u64)>,
    final_state: u64,
}

fn domain_cycle(solver: SolverChoice) -> Record {
    let mut dom = DomainArray::with_solver(
        CellDesign::table1(),
        DomainKind::Nvpg,
        4,
        4,
        solver,
        checkerboard,
    )
    .expect("domain solves");
    let static_power = dom.static_power().to_bits();
    dom.reset_step_stats();
    let mut phases = Vec::new();
    for k in 0..3 {
        let phase = match k {
            0 => dom.store(),
            1 => dom.shutdown(true),
            _ => dom.restore(),
        }
        .expect("phase converges");
        let s = dom.step_stats();
        phases.push((phase.energy.0.to_bits(), counters(s), s.device_bypasses));
    }
    assert_eq!(dom.pattern().len(), 4);
    Record {
        static_power,
        phases,
        final_state: digest(dom.state().as_slice()),
    }
}

fn macro_cycle() -> Record {
    let spec = MacroSpec::new(4, 4, 2);
    let mut m = NvMacro::new(spec, checkerboard).expect("macro solves");
    let static_power = m.static_power().to_bits();
    let groups: Vec<usize> = (0..spec.groups()).collect();
    let mut phases = Vec::new();
    for k in 0..4 {
        let phase = match k {
            0 => m.store(&groups),
            1 => m.shutdown(&groups, true),
            2 => m.hold(HOLD_S),
            _ => m.restore(&groups),
        }
        .expect("phase converges");
        let s = m.step_stats();
        phases.push((phase.energy.0.to_bits(), counters(s), s.device_bypasses));
    }
    Record {
        static_power,
        phases,
        final_state: digest(m.state().as_slice()),
    }
}

/// Compares against the table for the active SIMD arm, printing the
/// observed record in full on a mismatch.
fn check(what: &str, got: &Record, avx2: &Record, scalar: &Record) {
    let want = match simd::level() {
        SimdLevel::Avx2 => avx2,
        SimdLevel::Scalar => scalar,
    };
    assert_eq!(
        got,
        want,
        "{what} on the {} arm is no longer bit-identical; observed {got:#?}",
        simd::level().name()
    );
}

#[test]
fn nvpg_domain_4x4_cycle_is_bit_identical() {
    for (solver, avx2, scalar) in [
        (SolverChoice::Dense, DOMAIN_DENSE_AVX2, DOMAIN_DENSE_SCALAR),
        (
            SolverChoice::Sparse,
            DOMAIN_SPARSE_AVX2,
            DOMAIN_SPARSE_SCALAR,
        ),
    ] {
        let got = domain_cycle(solver);
        check(
            &format!("4x4 domain ({solver})"),
            &got,
            &avx2.record(),
            &scalar.record(),
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "4x4 macro transient cycle; run with --release"
)]
fn nvpg_macro_4x4_cycle_is_bit_identical() {
    check(
        "4x4 macro",
        &macro_cycle(),
        &MACRO_AVX2.record(),
        &MACRO_SCALAR.record(),
    );
}

/// A recorded table in `const` form.
#[derive(Clone, Copy)]
struct Table<const P: usize> {
    static_power: u64,
    phases: [(u64, [u64; 7], u64); P],
    final_state: u64,
}

impl<const P: usize> Table<P> {
    fn record(&self) -> Record {
        Record {
            static_power: self.static_power,
            phases: self.phases.to_vec(),
            final_state: self.final_state,
        }
    }
}

// Phase rows: (energy bits, cumulative [accepted, rejected_lte,
// rejected_newton, newton_iterations, newton_solves, refactorisations,
// LU reuses], cumulative device bypasses).

const DOMAIN_DENSE_AVX2: Table<3> = Table {
    static_power: 0x3e802d28a8589021,
    phases: [
        (0x3d999a278718315e, [811, 55, 0, 1545, 866, 587, 958], 69238),
        (
            0xbd25b71f59412bd3,
            [1304, 81, 0, 2418, 1385, 923, 1495],
            129904,
        ),
        (
            0x3d76d888014b4633,
            [2461, 158, 0, 4978, 2619, 2010, 2968],
            237147,
        ),
    ],
    final_state: 0x75162b5c8569122e,
};

const DOMAIN_DENSE_SCALAR: Table<3> = Table {
    static_power: 0x3e802d28a8589021,
    phases: [
        (0x3d999a278718317a, [811, 55, 0, 1545, 866, 587, 958], 69238),
        (
            0xbd25b71f59412bbc,
            [1304, 81, 0, 2418, 1385, 923, 1495],
            129904,
        ),
        (
            0x3d76d888014b470e,
            [2461, 158, 0, 4978, 2619, 2010, 2968],
            237147,
        ),
    ],
    final_state: 0x7df856a04ec15441,
};

const DOMAIN_SPARSE_AVX2: Table<3> = Table {
    static_power: 0x3e802d28a8589023,
    phases: [
        (0x3d999a27871842ad, [811, 55, 0, 1545, 866, 587, 958], 69238),
        (
            0xbd25b71f59412ba3,
            [1304, 81, 0, 2418, 1385, 923, 1495],
            129904,
        ),
        (
            0x3d76d888014b455b,
            [2461, 158, 0, 4978, 2619, 2010, 2968],
            237147,
        ),
    ],
    final_state: 0x441cb72dd1ee1e54,
};

const DOMAIN_SPARSE_SCALAR: Table<3> = Table {
    static_power: 0x3e802d28a8589023,
    phases: [
        (0x3d999a27871842ad, [811, 55, 0, 1545, 866, 587, 958], 69238),
        (
            0xbd25b71f59412ba3,
            [1304, 81, 0, 2418, 1385, 923, 1495],
            129904,
        ),
        (
            0x3d76d888014b455b,
            [2461, 158, 0, 4978, 2619, 2010, 2968],
            237147,
        ),
    ],
    final_state: 0x441cb72dd1ee1e54,
};

const MACRO_AVX2: Table<4> = Table {
    static_power: 0x3e88ad8315300b2d,
    phases: [
        (
            0x3d999e0b63856844,
            [886, 51, 0, 1700, 937, 658, 1042],
            169202,
        ),
        (
            0xbcd14aaa00311a52,
            [1117, 71, 0, 2127, 1188, 816, 1311],
            214968,
        ),
        (
            0x3ce9f559e9a26a2b,
            [1223, 71, 0, 2335, 1294, 827, 1508],
            241273,
        ),
        (
            0x3d75a973cd2ef94f,
            [2170, 136, 0, 4536, 2306, 1784, 2752],
            447858,
        ),
    ],
    final_state: 0xd21a39449a6befec,
};

const MACRO_SCALAR: Table<4> = Table {
    static_power: 0x3e88ad8315300b2b,
    phases: [
        (
            0x3d999e0b63856007,
            [886, 51, 0, 1700, 937, 658, 1042],
            169202,
        ),
        (
            0xbcd14aaa00311a2b,
            [1117, 71, 0, 2127, 1188, 816, 1311],
            214968,
        ),
        (
            0x3ce9f559e9a26a20,
            [1223, 71, 0, 2335, 1294, 827, 1508],
            241273,
        ),
        (
            0x3d75a973cd2ef945,
            [2170, 136, 0, 4536, 2306, 1784, 2752],
            447858,
        ),
    ],
    final_state: 0xa9402fc8ea44a65e,
};
