//! A full nonvolatile power cycle on a generated 16×16 NV-SRAM macro
//! (mux 4, four gating banks) on the sparse backend: store → super-cutoff
//! shutdown → hold → restore must keep all 256 bits, the written
//! retention states must be one consistent pair per data value, and the
//! restored latches must keep a healthy storage margin.

use nvpg_circuit::SolverChoice;
use nvpg_macro::{Granularity, MacroSpec, NvMacro};

/// Dark time between shutdown and restore, seconds.
const HOLD_S: f64 = 20e-9;
/// Worst post-restore |v(Q) − v(QB)| the cycle must leave, volts.
const MIN_MARGIN_V: f64 = 0.3;

fn checkerboard(r: usize, c: usize) -> bool {
    (r + c).is_multiple_of(2)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "16x16 macro transient cycle; run with --release"
)]
fn macro_16x16_power_cycle_keeps_every_bit() {
    let spec = MacroSpec::new(16, 16, 4).with_granularity(Granularity::PerBank(4));
    let mut m = NvMacro::with_solver(spec, SolverChoice::Sparse, checkerboard).expect("macro");
    let before = m.pattern();
    let groups: Vec<usize> = (0..spec.groups()).collect();

    m.store(&groups).expect("store");
    // Checked against the pre-cycle data, so a latch flip cannot hide.
    let mut one_state = None;
    let mut zero_state = None;
    for (r, row) in before.iter().enumerate() {
        for (c, &bit) in row.iter().enumerate() {
            let pair = m.mtj_states(r, c).expect("macro has NV elements");
            let slot = if bit { &mut one_state } else { &mut zero_state };
            assert_eq!(
                *slot.get_or_insert(pair),
                pair,
                "inconsistent retention state at ({r}, {c})"
            );
        }
    }
    assert_ne!(one_state, zero_state, "data=1 and data=0 stored alike");

    m.shutdown(&groups, true).expect("shutdown");
    m.hold(HOLD_S).expect("hold");
    m.restore(&groups).expect("restore");

    let preserved = before
        .iter()
        .enumerate()
        .flat_map(|(r, row)| row.iter().enumerate().map(move |(c, &bit)| (r, c, bit)))
        .filter(|&(r, c, bit)| m.data(r, c) == bit)
        .count();
    assert_eq!(preserved, 256, "bits lost through the shutdown cycle");
    let margin = m.min_storage_margin();
    assert!(
        margin >= MIN_MARGIN_V,
        "post-restore storage margin {margin:.3} V (must be >= {MIN_MARGIN_V} V)"
    );
}
