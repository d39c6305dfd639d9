//! Array-scale NVPG power domains on both linear-solver backends.
//!
//! * An 8×8 checkerboard domain reaches the same data pattern and the
//!   same MTJ states on the dense and the sparse backend.
//! * A 16×16 domain, large enough to cross [`SPARSE_THRESHOLD`], keeps
//!   every bit through a store → super-cutoff shutdown → restore cycle on
//!   the sparse backend, and its step/solver counters stay inside the
//!   bounds below. The counters are exact integers, identical on every
//!   host: the bounds catch a disabled optimisation yet survive benign
//!   solver tweaks.

use nvpg_cells::design::CellDesign;
use nvpg_cells::domain::{DomainArray, DomainKind};
use nvpg_circuit::{SolverChoice, SPARSE_THRESHOLD};

/// Accepted steps of the full 16×16 cycle (seven transient phases, dt
/// capped at duration/100 per phase).
const CYCLE_STEPS: (u64, u64) = (1000, 5000);
/// Mean Newton iterations per solve over the same cycle.
const ITERATIONS_PER_SOLVE: (f64, f64) = (1.0, 8.0);

fn checkerboard(r: usize, c: usize) -> bool {
    (r + c).is_multiple_of(2)
}

fn nvpg_domain(size: usize, solver: SolverChoice) -> DomainArray {
    DomainArray::with_solver(
        CellDesign::table1(),
        DomainKind::Nvpg,
        size,
        size,
        solver,
        checkerboard,
    )
    .expect("domain solves")
}

#[test]
fn dense_and_sparse_8x8_domains_agree_cell_for_cell() {
    let dense = nvpg_domain(8, SolverChoice::Dense);
    let sparse = nvpg_domain(8, SolverChoice::Sparse);
    assert_eq!(dense.pattern(), sparse.pattern());
    for r in 0..8 {
        for c in 0..8 {
            assert_eq!(
                dense.mtj_states(r, c),
                sparse.mtj_states(r, c),
                "MTJ state mismatch at ({r}, {c})"
            );
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "16x16 transient cycle; run with --release")]
fn sparse_16x16_retention_cycle_keeps_data_within_counter_bounds() {
    let mut dom = nvpg_domain(16, SolverChoice::Sparse);
    assert!(
        dom.unknown_count() > SPARSE_THRESHOLD,
        "{} unknowns do not exercise the sparse path",
        dom.unknown_count()
    );
    let before = dom.pattern();
    dom.reset_step_stats();
    dom.store().expect("store");
    dom.shutdown(true).expect("shutdown");
    dom.restore().expect("restore");
    assert_eq!(dom.pattern(), before, "checkerboard lost through the cycle");

    let steps = *dom.step_stats();
    let (lo, hi) = CYCLE_STEPS;
    assert!(
        (lo..=hi).contains(&steps.accepted_steps),
        "accepted_steps {} outside [{lo}, {hi}]",
        steps.accepted_steps
    );
    let ips = steps.iterations_per_solve();
    let (lo, hi) = ITERATIONS_PER_SOLVE;
    assert!(
        (lo..=hi).contains(&ips),
        "iterations_per_solve {ips:.3} outside [{lo}, {hi}]"
    );
    assert!(
        steps.refactorizations_avoided > 0,
        "modified Newton is dead on the sparse backend"
    );
    assert!(
        steps.device_bypasses > 0,
        "the device-eval bypass is dead on the domain"
    );
}
