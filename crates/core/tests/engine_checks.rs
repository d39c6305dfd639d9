//! Engine-level checks on deterministic outputs: solver counters, the
//! macro break-even scan, and the serial-vs-batched differential contract
//! of the engine scans.
//!
//! The step counters are exact integers, identical on every host. Their
//! bounds catch a disabled optimisation (LTE step control, modified-Newton
//! Jacobian reuse, the device-eval bypass) yet survive benign solver
//! tweaks.

use nvpg_cells::cell::{build_cell, CellKind, MtjConfig};
use nvpg_cells::design::{CellDesign, RetentionKind};
use nvpg_cells::domain::DomainKind;
use nvpg_circuit::dc::{operating_point, DcOptions};
use nvpg_circuit::transient::{transient, TransientOptions};
use nvpg_circuit::Circuit;
use nvpg_core::{
    bet_design_scan, bet_macro_scan, run_domain_variation, run_sequence, Architecture, BatchMode,
    BenchmarkParams, Granularity, SequenceParams, VariationSpec,
};

/// Accepted steps of the 100 ns NV-SRAM hold transient: the LTE
/// controller grows dt to the 2 ns cap and lands near 58.
const HOLD_STEPS: (u64, u64) = (45, 200);
/// Mean Newton iterations per solve over the same transient.
const HOLD_ITERATIONS_PER_SOLVE: (f64, f64) = (1.0, 6.0);

#[test]
fn nvsram_hold_transient_counters_stay_in_bounds() {
    let design = CellDesign::table1();
    let mut ckt = Circuit::new();
    let nodes = build_cell(&mut ckt, &design, CellKind::NvSram, MtjConfig::stored(true))
        .expect("cell builds");
    let dc_opts = DcOptions::default()
        .with_nodeset(nodes.q, 0.9)
        .with_nodeset(nodes.qb, 0.0)
        .with_nodeset(nodes.vvdd, 0.9)
        .with_nodeset(nodes.bl, 0.9)
        .with_nodeset(nodes.blb, 0.9);
    let op = operating_point(&mut ckt, &dc_opts).expect("operating point");
    // The knobs production cell phases run with.
    let topts = TransientOptions {
        t_stop: 100e-9,
        dt_max: 2e-9,
        dt_init: 1e-12,
        device_bypass_tol: 1e-6,
        ..TransientOptions::default()
    };
    let steps = transient(&mut ckt, &topts, &op).expect("transient").steps;

    let (lo, hi) = HOLD_STEPS;
    assert!(
        (lo..=hi).contains(&steps.accepted_steps),
        "accepted_steps {} outside [{lo}, {hi}]",
        steps.accepted_steps
    );
    let ips = steps.iterations_per_solve();
    let (lo, hi) = HOLD_ITERATIONS_PER_SOLVE;
    assert!(
        (lo..=hi).contains(&ips),
        "iterations_per_solve {ips:.3} outside [{lo}, {hi}]"
    );
    assert!(
        steps.refactorizations_avoided > 0,
        "modified Newton is dead"
    );
    assert!(steps.device_bypasses > 0, "the device-eval bypass is dead");
}

#[test]
fn nvpg_sequence_reuses_jacobians_and_bypasses_devices() {
    let seq = run_sequence(
        &CellDesign::table1(),
        Architecture::Nvpg,
        &SequenceParams::default(),
    )
    .expect("sequence");
    assert!(
        seq.steps.refactorizations_avoided > 0,
        "modified Newton is dead"
    );
    assert!(
        seq.steps.device_bypasses > 0,
        "the device-eval bypass is dead"
    );
}

#[test]
fn macro_bet_scan_prices_every_technology_and_architecture() {
    let granularities = [
        Granularity::PerDomain,
        Granularity::PerBank(2),
        Granularity::PerRow,
    ];
    let points = bet_macro_scan(
        4,
        4,
        2,
        &granularities,
        &RetentionKind::LABELS,
        &BenchmarkParams::fig7_default(),
        1,
        BatchMode::Auto,
    )
    .expect("scan");
    assert_eq!(
        points.len(),
        granularities.len() * RetentionKind::LABELS.len() * 2
    );
    for p in &points {
        assert!(
            p.static_power.is_finite() && p.static_power > 0.0 && p.unknowns > 0,
            "degenerate scan point {}/{}/{}: {} unknowns, {:e} W",
            p.arch,
            p.technology,
            p.granularity,
            p.unknowns,
            p.static_power
        );
    }
    for tech in RetentionKind::LABELS {
        for arch in [Architecture::Nvpg, Architecture::Nof] {
            assert!(
                points
                    .iter()
                    .any(|p| p.technology == tech && p.arch == arch && p.bet.is_some()),
                "no finite BET for {arch}/{tech} at any granularity"
            );
        }
    }
}

#[test]
fn domain_monte_carlo_is_identical_serial_and_batched() {
    let spec = VariationSpec {
        samples: 16,
        ..VariationSpec::default()
    };
    let run = |batch| {
        run_domain_variation(
            &CellDesign::table1(),
            &spec,
            DomainKind::Nvpg,
            4,
            4,
            None,
            batch,
            1,
        )
        .expect("domain Monte-Carlo")
        .0
    };
    assert_eq!(run(BatchMode::Serial), run(BatchMode::Auto));
}

#[test]
fn bet_design_grid_is_identical_serial_and_batched() {
    let design = CellDesign::table1();
    let ch = nvpg_cells::characterize(&design).expect("characterisation");
    let params = BenchmarkParams::fig7_default();
    let shifts: Vec<f64> = (-3..=3).map(|i| f64::from(i) * 0.01).collect();
    let fins = [1u32, 2, 4, 8];
    let scan = |batch| {
        bet_design_scan(&design, &ch, &shifts, &fins, 4, 4, &params, batch, 1)
            .expect("BET design scan")
    };
    assert_eq!(scan(BatchMode::Serial), scan(BatchMode::Auto));
}
