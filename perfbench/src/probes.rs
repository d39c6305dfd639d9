//! Unit-cost probes for the traced runs: one device evaluation, one
//! sparse refactorisation and solve, one dense factor-and-solve. Each
//! times a public function of `nvpg-devices` or `nvpg-numeric` on
//! seeded inputs; multiplied by the engine's own counts they give the
//! computed per-layer shares of a cycle.

use std::hint::black_box;
use std::time::Instant;

use nvpg_circuit::{Circuit, DeviceStamp, NonlinearDevice};
use nvpg_devices::{FinFet, FinFetParams, Mtj, MtjParams, MtjState};
use nvpg_numeric::{CscMatrix, DenseMatrix, LuWorkspace, PatternBuilder, Rng64, SparseLu};

use crate::util::median;

/// Repetitions per probe; the median of the per-repetition means is
/// reported.
const REPS: usize = 5;

/// Seconds per `load` on `dev`, averaged over `voltages`.
fn time_loads(dev: &dyn NonlinearDevice, voltages: &[Vec<f64>]) -> f64 {
    const ROUNDS: usize = 200;
    let mut stamp = DeviceStamp::new(dev.nodes().len());
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..ROUNDS {
                for v in voltages {
                    stamp.clear();
                    dev.load(black_box(v), &mut stamp);
                    black_box(&stamp);
                }
            }
            t0.elapsed().as_secs_f64() / (ROUNDS * voltages.len()) as f64
        })
        .collect();
    median(&samples)
}

/// Nanoseconds per `NonlinearDevice::load` of the public FinFET (NMOS
/// and PMOS alternating) and MTJ models at seeded terminal voltages
/// inside the 0–0.9 V rails.
pub fn device_load_ns(seed: u64) -> (f64, f64) {
    let mut ckt = Circuit::new();
    let (a, b, c) = (ckt.node("a"), ckt.node("b"), ckt.node("c"));
    let mut rng = Rng64::seed_from_u64(seed);
    let mut draw = |n: usize| -> Vec<Vec<f64>> {
        (0..256)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0..0.9)).collect())
            .collect()
    };
    let v3 = draw(3);
    let v2 = draw(2);
    let nfet = FinFet::new("mn", a, b, c, FinFetParams::nmos_20nm());
    let pfet = FinFet::new("mp", a, b, c, FinFetParams::pmos_20nm());
    let fet_s = 0.5 * (time_loads(&nfet, &v3) + time_loads(&pfet, &v3));
    let mtj = Mtj::new("mtj", a, b, MtjParams::table1(), MtjState::Parallel);
    let mtj_s = time_loads(&mtj, &v2);
    (fet_s * 1e9, mtj_s * 1e9)
}

/// The nonzero positions of an `n`-unknown matrix shaped like a
/// `edge × edge` SRAM array's MNA Jacobian: four unknowns per cell
/// (Q, QB and the two retention-branch nodes) coupled to a shared
/// virtual rail and to the cell's column bitlines, two bitline unknowns
/// per column, and the remaining unknowns (periphery, source branches,
/// distributed wire RC) as a chain hanging off the rail.
fn array_pattern(n: usize, edge: usize) -> Vec<(usize, usize)> {
    let cells = edge * edge;
    let bl0 = 1 + 4 * cells;
    let chain0 = bl0 + 2 * edge;
    assert!(
        n >= chain0,
        "{n} unknowns cannot hold a {edge}x{edge} array"
    );
    let mut entries: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
    let mut couple = |i: usize, j: usize| {
        entries.push((i, j));
        entries.push((j, i));
    };
    for k in 0..cells {
        let (q, qb, ml, mr) = (1 + 4 * k, 2 + 4 * k, 3 + 4 * k, 4 + 4 * k);
        let col = k % edge;
        couple(q, qb);
        couple(q, ml);
        couple(qb, mr);
        couple(q, 0);
        couple(qb, 0);
        couple(q, bl0 + 2 * col);
        couple(qb, bl0 + 2 * col + 1);
    }
    for line in bl0..chain0 {
        couple(line, 0);
    }
    for i in chain0..n {
        couple(i, if i == chain0 { 0 } else { i - 1 });
    }
    entries
}

/// Fills `csc` with seeded, diagonally dominant values on `entries`.
fn fill(csc: &mut CscMatrix, entries: &[(usize, usize)], rng: &mut Rng64) {
    csc.clear();
    let mut diag = vec![1.0; csc.dim()];
    for &(r, c) in entries {
        if r != c {
            let g = rng.gen_range(1e-6..1e-3);
            csc.add(r, c, -g);
            diag[r] += g;
        }
    }
    for (i, d) in diag.into_iter().enumerate() {
        csc.add(i, i, d);
    }
}

/// Microseconds per `SparseLu` refactorisation (numeric refill of an
/// already-analysed pattern) and per triangular solve on the
/// array-shaped pattern with `n` unknowns.
pub fn sparse_lu_us(n: usize, edge: usize, seed: u64) -> Result<(f64, f64), String> {
    const ROUNDS: usize = 40;
    let entries = array_pattern(n, edge);
    let mut pb = PatternBuilder::new(n);
    for &(r, c) in &entries {
        pb.add(r, c);
    }
    let mut csc = CscMatrix::from_pattern(&pb.build());
    let mut rng = Rng64::seed_from_u64(seed);
    let mut lu = SparseLu::new();
    fill(&mut csc, &entries, &mut rng);
    lu.factor(&csc)
        .map_err(|e| format!("sparse probe factor: {e:?}"))?;
    let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut x = vec![0.0; n];
    let mut refactor = Vec::with_capacity(REPS);
    let mut solve = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut spent = 0.0;
        for _ in 0..ROUNDS {
            fill(&mut csc, &entries, &mut rng);
            let t0 = Instant::now();
            lu.factor(black_box(&csc))
                .map_err(|e| format!("sparse probe refactor: {e:?}"))?;
            spent += t0.elapsed().as_secs_f64();
        }
        refactor.push(spent / ROUNDS as f64);
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            lu.solve_into(black_box(&b), &mut x);
            black_box(&x);
        }
        solve.push(t0.elapsed().as_secs_f64() / ROUNDS as f64);
    }
    if lu.refactorizations() == 0 {
        return Err("sparse probe never took the refactor path".to_owned());
    }
    Ok((median(&refactor) * 1e6, median(&solve) * 1e6))
}

/// Microseconds per dense LU factor plus solve at `n` unknowns (the
/// dense backend's per-Newton-iteration linear work at cell size).
pub fn dense_lu_us(n: usize, seed: u64) -> Result<f64, String> {
    const ROUNDS: usize = 2000;
    let mut rng = Rng64::seed_from_u64(seed);
    let mut m = DenseMatrix::zeros(n, n);
    for r in 0..n {
        let mut sum = 0.0;
        for c in 0..n {
            if r != c {
                let g = rng.gen_range(-1e-3..1e-3);
                m.add(r, c, g);
                sum += g.abs();
            }
        }
        m.add(r, r, 1.0 + sum);
    }
    let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut x = vec![0.0; n];
    let mut ws = LuWorkspace::with_dim(n);
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            ws.factor_from(black_box(&m))
                .map_err(|e| format!("dense probe factor: {e:?}"))?;
            ws.solve_into(black_box(&b), &mut x);
            black_box(&x);
        }
        samples.push(t0.elapsed().as_secs_f64() / ROUNDS as f64);
    }
    Ok(median(&samples) * 1e6)
}
