//! The evaluation-sharing contract: sharing stamps between identical
//! FinFET instances is exact.
//!
//! A bank of identical inverters, plus two same-model taps whose
//! terminal voltages agree only in part, is simulated twice: once as is, and once
//! with every FinFET wrapped in a device that opts out of sharing
//! (`share_key() == None`) and computes its accepted-step charges through
//! a full `load` (the trait's default `charge`). The operating point and
//! every trace column must agree bit for bit, the bypass must make the
//! same decisions, and only the unwrapped run may report share-table hits.

use nvpg_circuit::dc::{operating_point, DcOptions};
use nvpg_circuit::transient::{transient, TransientOptions, TransientResult};
use nvpg_circuit::{Circuit, DcSolution, DeviceStamp, NodeId, NonlinearDevice, Waveform};
use nvpg_devices::{FinFet, FinFetParams};

/// A FinFET that never shares and uses the default `charge`.
#[derive(Debug)]
struct Unshared(FinFet);

impl NonlinearDevice for Unshared {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn nodes(&self) -> &[NodeId] {
        self.0.nodes()
    }

    fn load(&self, v: &[f64], stamp: &mut DeviceStamp) {
        self.0.load(v, stamp);
    }
}

/// Inverters sharing one input and supply, each with its own load.
const STAGES: usize = 4;

fn bank(share: bool) -> Circuit {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    ckt.vsource("vdd", vdd, Circuit::GROUND, 0.9).unwrap();
    ckt.vsource(
        "vin",
        inp,
        Circuit::GROUND,
        Waveform::Pwl(vec![
            (0.0, 0.0),
            (100e-12, 0.9),
            (400e-12, 0.9),
            (500e-12, 0.0),
        ]),
    )
    .unwrap();
    let n = FinFetParams::nmos_20nm();
    let p = FinFetParams::pmos_20nm().with_fins(2);
    for k in 0..STAGES {
        let out = ckt.node(&format!("out{k}"));
        let fets = [
            FinFet::new(format!("mp{k}"), out, inp, vdd, p),
            FinFet::new(format!("mn{k}"), out, inp, Circuit::GROUND, n),
        ];
        for fet in fets {
            let dev: Box<dyn NonlinearDevice + Send> = if share {
                Box::new(fet)
            } else {
                Box::new(Unshared(fet))
            };
            ckt.device(dev).unwrap();
        }
        ckt.capacitor(&format!("cl{k}"), out, Circuit::GROUND, 0.5e-15)
            .unwrap();
    }
    // Two taps on one output: same class, same drain node, different
    // gates, so their voltages agree in one terminal but not all.
    let out0 = ckt.find_node("out0").unwrap();
    for (j, gate) in [vdd, inp].into_iter().enumerate() {
        let tap = ckt.node(&format!("tap{j}"));
        let fet = FinFet::new(format!("mt{j}"), out0, gate, tap, n);
        let dev: Box<dyn NonlinearDevice + Send> = if share {
            Box::new(fet)
        } else {
            Box::new(Unshared(fet))
        };
        ckt.device(dev).unwrap();
        ckt.capacitor(&format!("ct{j}"), tap, Circuit::GROUND, 0.2e-15)
            .unwrap();
    }
    ckt
}

fn simulate(share: bool) -> (DcSolution, TransientResult) {
    let mut ckt = bank(share);
    let op = operating_point(&mut ckt, &DcOptions::default()).unwrap();
    let opts = TransientOptions {
        device_bypass_tol: 1e-4,
        ..TransientOptions::to(1e-9)
    };
    let tr = transient(&mut ckt, &opts, &op).unwrap();
    (op, tr)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn sharing_identical_finfets_is_bit_exact() {
    let (op_shared, shared) = simulate(true);
    let (op_plain, plain) = simulate(false);

    assert_eq!(bits(op_shared.as_slice()), bits(op_plain.as_slice()));
    assert_eq!(bits(shared.trace.time()), bits(plain.trace.time()));
    for name in shared.trace.signal_names() {
        assert_eq!(
            bits(shared.trace.signal(name).unwrap()),
            bits(plain.trace.signal(name).unwrap()),
            "{name} differs with sharing on"
        );
    }
    assert_eq!(
        bits(shared.final_state.as_slice()),
        bits(plain.final_state.as_slice())
    );

    // Same steps and bypass decisions; sharing only replaces model calls.
    let (s, p) = (shared.steps, plain.steps);
    assert_eq!(s.accepted_steps, p.accepted_steps);
    assert_eq!(s.newton_iterations, p.newton_iterations);
    assert_eq!(s.device_bypasses, p.device_bypasses);
    assert!(p.device_bypasses > 0, "the bypass never engaged");
    assert_eq!(
        s.device_evals + shared.evals.device_shares,
        p.device_evals,
        "every evaluation is either a model call or a share"
    );
    assert_eq!(shared.evals.deferred_loads, plain.evals.deferred_loads);
    assert!(
        plain.evals.deferred_loads > 0,
        "no accept-step reload was deferred"
    );
    assert!(
        shared.evals.device_shares > 0,
        "identical inverters never shared"
    );
    assert_eq!(plain.evals.device_shares, 0, "an opted-out device shared");
}
