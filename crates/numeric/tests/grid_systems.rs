//! Sparse and batched solves of grid-connected systems shaped like the
//! domain netlists: nearest-neighbour (±1) plus grid (±√n) coupling over
//! a fixed topology.
//!
//! * A refill of a factored grid matrix takes the `SparseLu` refactor
//!   path rather than a full re-analysis.
//! * 1 000 Monte-Carlo samples solved serially (fresh pattern, symbolic
//!   analysis and `NewtonSolver` per point) and on one shared-symbolic
//!   `BatchedSparseLu` stack agree to 1e-6, with no lane peeled off the
//!   lock-step batch.

use nvpg_numeric::batched::{BatchedNewton, BatchedSparseLu, LaneOutcome, PeelReason};
use nvpg_numeric::{
    CscMatrix, DenseMatrix, NewtonOptions, NewtonOutcome, NewtonSolver, NonlinearSystem,
    PatternBuilder, Rng64, SparseLu, SparsePattern,
};

/// Unknowns of the Monte-Carlo system: an 18×18 grid in MNA order.
const MC_UNKNOWNS: usize = 324;
/// Monte-Carlo samples.
const MC_LANES: usize = 1000;
/// Lock-step lanes per batch chunk (the production batch width).
const MC_CHUNK: usize = 64;
/// Seed of the Monte-Carlo variation stream.
const MC_SEED: u64 = 0x6d63505238;

/// Grid coupling stride of an `n`-unknown system.
fn stride(n: usize) -> usize {
    (n as f64).sqrt().ceil() as usize
}

/// The structural pattern every sample of [`GridMc`] shares.
fn grid_pattern(n: usize) -> SparsePattern {
    let k = stride(n);
    let mut b = PatternBuilder::new(n);
    for i in 0..n {
        b.add(i, i);
        if i + 1 < n {
            b.add(i, i + 1);
            b.add(i + 1, i);
        }
        if i + k < n {
            b.add(i, i + k);
            b.add(i + k, i);
        }
    }
    b.build()
}

/// A grid-connected nonlinear network: a diagonally dominant linear part
/// plus a cubic diagonal nonlinearity, so Newton takes a few genuine
/// iterations. Each sample perturbs the diagonal conductances and the
/// sources, as device variation perturbs MNA stamps over a fixed
/// topology.
struct GridMc {
    n: usize,
    k: usize,
    gdiag: Vec<f64>,
    src: Vec<f64>,
}

impl GridMc {
    /// Sample `i` of the split variation stream: the lane count never
    /// changes the draw.
    fn sample(n: usize, seed: u64, i: u64) -> Self {
        let mut rng = Rng64::split(seed, i);
        GridMc {
            n,
            k: stride(n),
            gdiag: (0..n).map(|_| 4.0 + 0.2 * rng.normal()).collect(),
            src: (0..n).map(|_| 0.5 + 0.1 * rng.normal()).collect(),
        }
    }

    fn residual(&self, x: &[f64], residual: &mut [f64]) {
        let (n, k) = (self.n, self.k);
        for i in 0..n {
            let mut r = self.gdiag[i] * x[i] + 0.1 * x[i] * x[i] * x[i] - self.src[i];
            for j in [i.wrapping_sub(1), i + 1, i.wrapping_sub(k), i + k] {
                if j < n {
                    r += 0.9 * (x[i] - x[j]);
                }
            }
            residual[i] = r;
        }
    }

    fn stamp(&self, x: &[f64], mut add: impl FnMut(usize, usize, f64)) {
        let (n, k) = (self.n, self.k);
        for (i, (&g, &xi)) in self.gdiag.iter().zip(x).enumerate() {
            let mut diag = g + 0.3 * xi * xi;
            for j in [i.wrapping_sub(1), i + 1, i.wrapping_sub(k), i + k] {
                if j < n {
                    diag += 0.9;
                    add(i, j, -0.9);
                }
            }
            add(i, i, diag);
        }
    }
}

impl NonlinearSystem for GridMc {
    fn dim(&self) -> usize {
        self.n
    }

    fn eval(&mut self, x: &[f64], residual: &mut [f64], jacobian: &mut DenseMatrix) {
        self.residual(x, residual);
        self.stamp(x, |r, c, v| jacobian.add(r, c, v));
    }

    fn eval_sparse(&mut self, x: &[f64], residual: &mut [f64], jacobian: &mut CscMatrix) -> bool {
        self.residual(x, residual);
        jacobian.clear();
        self.stamp(x, |r, c, v| jacobian.add(r, c, v));
        true
    }
}

#[test]
fn sparse_lu_grid_refill_takes_the_refactor_path() {
    let n = 512;
    let mut csc = CscMatrix::from_pattern(&grid_pattern(n));
    let fill = |csc: &mut CscMatrix| {
        csc.clear();
        GridMc::sample(n, 1, 0).stamp(&vec![0.0; n], |r, c, v| csc.add(r, c, v));
    };
    let mut lu = SparseLu::new();
    fill(&mut csc);
    lu.factor(&csc).expect("nonsingular");
    fill(&mut csc);
    lu.factor(&csc).expect("nonsingular");
    assert_eq!(lu.full_factorizations(), 1);
    assert!(
        lu.refactorizations() > 0,
        "SparseLu refill took a full factorisation, not the refactor path"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "1 000 sparse Newton solves twice; run with --release"
)]
fn batched_monte_carlo_at_1k_lanes_matches_serial() {
    let n = MC_UNKNOWNS;
    let opts = NewtonOptions::default();

    let mut serial = vec![0.0f64; MC_LANES * n];
    for (p, x) in serial.chunks_mut(n).enumerate() {
        let mut solver = NewtonSolver::with_sparse(opts, &grid_pattern(n));
        let mut system = GridMc::sample(n, MC_SEED, p as u64);
        let outcome = solver.solve(&mut system, x);
        assert!(
            matches!(outcome, NewtonOutcome::Converged { .. }),
            "serial point {p}: {outcome:?}"
        );
    }

    let mut batched = vec![0.0f64; MC_LANES * n];
    let mut outcomes = vec![
        LaneOutcome::Peeled {
            iteration: 0,
            reason: PeelReason::IterationLimit,
        };
        MC_LANES
    ];
    let mut newton = BatchedNewton::new(BatchedSparseLu::new(&grid_pattern(n), MC_CHUNK), opts);
    for (chunk, (x, out)) in batched
        .chunks_mut(MC_CHUNK * n)
        .zip(outcomes.chunks_mut(MC_CHUNK))
        .enumerate()
    {
        let first = chunk * MC_CHUNK;
        let mut systems: Vec<GridMc> = (first..first + out.len())
            .map(|i| GridMc::sample(n, MC_SEED, i as u64))
            .collect();
        newton.solve(&mut systems, x, out);
    }

    let peeled = outcomes
        .iter()
        .filter(|o| matches!(o, LaneOutcome::Peeled { .. }))
        .count();
    assert_eq!(peeled, 0, "well-conditioned lanes peeled off the batch");
    let max_dev = serial
        .iter()
        .zip(&batched)
        .map(|(s, b)| (s - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_dev < 1e-6,
        "batched and serial solutions deviate by {max_dev:.3e}"
    );
}
