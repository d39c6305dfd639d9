//! The metrics every workload reports, whatever it runs.
//!
//! Each workload repeats a fixed *round* of work and reports, untraced,
//! `setup_s`, `peak_rss_mb` and `work_s` (the median round, part by
//! part); traced, the
//! same per-layer set: the unit-cost probes of every layer, the engine's
//! exact counts per round, and the shares of a round's CPU time computed
//! from counts × unit costs. What a workload measures beyond that (cycle
//! phases, per-figure times, per-route latencies) it prints on stderr as
//! details.

use std::collections::BTreeMap;

use nvpg_cells::{CellDesign, DomainArray, DomainKind};
use nvpg_circuit::SolverChoice;

use crate::util::{checkerboard, median, Report, Tracer};
use crate::{probes, serve};

/// The `nvpg-obs` counters reported per round, in report order.
pub const COUNTERS: [&str; 9] = [
    "solve.accepted_steps",
    "solve.rejected_lte",
    "solve.newton_iterations",
    "solve.lu_refactorizations",
    "solve.lu_reuses",
    "solve.device_evals",
    "solve.device_bypasses",
    "engine.batched_points",
    "engine.batched_peels",
];

/// Counter values, indexed like [`COUNTERS`].
pub type Counts = [f64; COUNTERS.len()];

fn index(name: &str) -> usize {
    COUNTERS
        .iter()
        .position(|&c| c == name)
        .expect("a reported counter")
}

/// This process's counters (they record only while metrics are on).
pub fn counts_self() -> Counts {
    let snap = nvpg_obs::metrics::snapshot();
    COUNTERS.map(|name| snap.counter(name).unwrap_or(0) as f64)
}

/// Counters scraped from a daemon's `/metrics`.
pub fn counts_of(scraped: &BTreeMap<String, f64>) -> Counts {
    COUNTERS.map(|name| scraped.get(name).copied().unwrap_or(0.0))
}

pub fn delta(after: &Counts, before: &Counts) -> Counts {
    std::array::from_fn(|i| after[i] - before[i])
}

/// One round of a workload's fixed work.
pub struct Round {
    /// The round's work in parts, seconds, the same parts in every round,
    /// scaled to the reference host ([`Tracer::scaled_span`]): the wall
    /// time of each timed call, or, on `serve_mixed`, the daemon's CPU
    /// time serving the round (the wall time of an open-loop round is
    /// its schedule's).
    pub parts: Vec<f64>,
    /// CPU time (user + system, every thread) of the process doing the
    /// work over the round, seconds.
    pub cpu_s: f64,
    /// Engine counts over the round (traced runs; zero untraced).
    pub counts: Counts,
}

/// The unit costs every traced run measures, one or more per layer, on
/// inputs drawn from the seed.
pub struct Probes {
    pub finfet_load_ns: f64,
    pub mtj_load_ns: f64,
    pub sparse_refactor_us: f64,
    pub sparse_solve_us: f64,
    pub dense_lu_us: f64,
    pub request_key_us: f64,
    pub cache_get_ns: f64,
}

/// Unknowns of the NVPG domain at `edge × edge` with the checkerboard.
pub fn domain_unknowns(edge: usize) -> Result<usize, String> {
    DomainArray::prepare(
        CellDesign::table1(),
        DomainKind::Nvpg,
        edge,
        edge,
        SolverChoice::Auto,
        checkerboard,
    )
    .map(|b| b.unknown_count())
    .map_err(|e| format!("{edge}x{edge} domain: {e}"))
}

/// Runs the probes: device loads at seeded voltages, sparse LU on the
/// 16×16 array-shaped pattern, dense LU at cell size, and the serving
/// hit path (canonical request key, cache lookup) on a seeded
/// `serve_mixed` request plan.
pub fn probe(seed: u64) -> Result<Probes, String> {
    let (finfet_load_ns, mtj_load_ns) = probes::device_load_ns(seed);
    let (sparse_refactor_us, sparse_solve_us) =
        probes::sparse_lu_us(domain_unknowns(16)?, 16, seed)?;
    let dense_lu_us = probes::dense_lu_us(domain_unknowns(1)?, seed)?;
    let (request_key_us, cache_get_ns) = serve::hit_path_floor(seed);
    Ok(Probes {
        finfet_load_ns,
        mtj_load_ns,
        sparse_refactor_us,
        sparse_solve_us,
        dense_lu_us,
        request_key_us,
        cache_get_ns,
    })
}

/// CPU time (user + system, all threads) of process `pid` ("self" for
/// this one), seconds.
pub fn cpu_s(pid: &str) -> Result<f64, String> {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("reading /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    let (Some(utime), Some(stime)) = (ticks(11), ticks(12)) else {
        return Err(format!("no utime/stime in /proc/{pid}/stat"));
    };
    // SAFETY: `sysconf` only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz <= 0 {
        return Err("sysconf(_SC_CLK_TCK) failed".to_owned());
    }
    Ok((utime + stime) / hz as f64)
}

/// The end-to-end metrics: the median set-up (scaled like the rounds),
/// the peak resident set and [`work_s`].
pub fn end_to_end(report: &mut Report, setup_s: &[f64], rss_mb: f64, rounds: &[Round]) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mb", rss_mb, "MB");
    report.metric("work_s", work_s(rounds), "s");
}

/// The median round: the sum over its parts of each part's median
/// across the rounds.
pub fn work_s(rounds: &[Round]) -> f64 {
    (0..rounds[0].parts.len())
        .map(|j| median(&rounds.iter().map(|r| r.parts[j]).collect::<Vec<_>>()))
        .sum()
}

/// Ratio `num / den`, 0 when nothing was counted.
fn rate(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics. `computed_s` is the workload's estimate of one
/// round's seconds in device evaluation and in LU, from its counts × the
/// probes' unit costs; the shares divide it by the round's CPU time.
pub fn per_layer(
    report: &mut Report,
    tracer: &Tracer,
    p: &Probes,
    rounds: &[Round],
    computed_s: (f64, f64),
    measured_s: f64,
) {
    report.metric("host.speed_factor", tracer.speed_factor(), "ratio");
    report.metric("trace.work_s", work_s(rounds), "s");
    report.metric(
        "trace.overhead_frac",
        tracer.count() as f64 * Tracer::span_cost_s() / measured_s,
        "computed_frac",
    );
    report.metric("devices.finfet_load_ns", p.finfet_load_ns, "ns");
    report.metric("devices.mtj_load_ns", p.mtj_load_ns, "ns");
    report.metric("numeric.sparse_refactor_us", p.sparse_refactor_us, "us");
    report.metric("numeric.sparse_solve_us", p.sparse_solve_us, "us");
    report.metric("numeric.dense_lu_us", p.dense_lu_us, "us");
    report.metric("core.canon.request_key_us", p.request_key_us, "us");
    report.metric("serve.cache_get_ns", p.cache_get_ns, "ns");

    let n = rounds.len() as f64;
    let counts: Counts =
        std::array::from_fn(|i| rounds.iter().map(|r| r.counts[i]).sum::<f64>() / n);
    for (name, v) in COUNTERS.iter().zip(counts) {
        report.metric(*name, v, "count");
    }
    let c = |name: &str| counts[index(name)];
    report.metric(
        "solve.bypass_rate",
        rate(
            c("solve.device_bypasses"),
            c("solve.device_evals") + c("solve.device_bypasses"),
        ),
        "ratio",
    );
    report.metric(
        "solve.reuse_rate",
        rate(
            c("solve.lu_reuses"),
            c("solve.lu_refactorizations") + c("solve.lu_reuses"),
        ),
        "ratio",
    );
    let cpu = rounds.iter().map(|r| r.cpu_s).sum::<f64>() / n;
    report.metric("round.cpu_s", cpu, "s");
    let (eval_share, lu_share) = (computed_s.0 / cpu, computed_s.1 / cpu);
    report.metric("devices.eval_share", eval_share, "computed_frac");
    report.metric("numeric.lu_share", lu_share, "computed_frac");
    report.metric(
        "circuit.other_share",
        1.0 - eval_share - lu_share,
        "computed_frac",
    );
    report.metric(
        "circuit.us_per_step",
        rate(cpu * 1e6, c("solve.accepted_steps")),
        "us",
    );
}

/// Mean of counter `name` over the rounds.
pub fn mean_count(rounds: &[Round], name: &str) -> f64 {
    let i = index(name);
    rounds.iter().map(|r| r.counts[i]).sum::<f64>() / rounds.len() as f64
}
