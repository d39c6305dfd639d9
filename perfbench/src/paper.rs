//! `paper_batch` — the paper's figures and Monte-Carlo at batch scale:
//! regenerate all 19 default figures and tables through
//! `nvpg_core::experiments` at `jobs = 2`, then run
//! `run_domain_variation` on 4×4 and 8×8 NVPG domains with
//! `BatchMode::Auto`.
//!
//! Small dense cell-level circuits plus `exec` fan-out, and the batched
//! engine on both sides of its break-even size: batching loses on 4×4
//! and wins on 8×8, so a batching-threshold change shows on one metric
//! and must leave the other alone. The seed drives the Monte-Carlo
//! sample streams.

use std::time::Instant;

use nvpg_cells::{characterize, CellDesign, DomainKind};
use nvpg_core::{
    run_domain_variation, BatchMode, DomainVariationOutcome, Experiments, Figure, VariationSpec,
    BET_FIGURE_IDS, EXTENSION_IDS, FIGURE_IDS,
};

use crate::layers::{self, Round};
use crate::util::{self, fnv1a, median, peak_rss_mb, Report, Tracer, FNV_START};
use crate::Args;

/// Worker-pool width of the figure fan-out.
const JOBS: usize = 2;
/// Monte-Carlo domains (edge) and samples per run.
const MC: [(usize, u32); 2] = [(4, 128), (8, 64)];
/// Uncached Table I characterisations per run after the first (cold)
/// `Experiments::new`; `setup_s` is the median of all of them.
const EXTRA_CHARACTERIZATIONS: usize = 4;
/// Samples re-solved serially on every run to cross-check the batched
/// outcome at any seed.
const CROSS_CHECK_SAMPLES: u32 = 2;

/// FNV-1a digest of the Table I rows and every figure's CSV, recorded at
/// the commit that introduced this benchmark.
const REF_FIGURES_DIGEST: u64 = 0x458a_333b_39aa_19a7;

/// Monte-Carlo outcome digests recorded at the default and the
/// held-out seed: `(seed, 4×4 digest, 8×8 digest)`.
const REF_MC_DIGESTS: [(u64, u64, u64); 2] = [
    (1, 0x36a5_4f0e_3b73_1d43, 0x6eb6_a972_dd6e_005e),
    (2, 0x8144_1220_4bbe_d1ed, 0x6ad3_2835_2e7d_95af),
];

/// The 18 plot figures of a bare `figures` run; with the Table I echo
/// they are the 19 default figures and tables.
fn figure_ids() -> Vec<&'static str> {
    FIGURE_IDS
        .iter()
        .chain(BET_FIGURE_IDS.iter())
        .chain(EXTENSION_IDS.iter())
        .copied()
        .filter(|&id| id != "table1")
        .collect()
}

/// A figure as the `figures --csv` CLI writes it: one `series,x,y` row
/// per point.
fn to_csv(fig: &Figure) -> String {
    let mut out = String::from("series,x,y\n");
    for s in &fig.series {
        for &(x, y) in &s.points {
            out.push_str(&format!("{},{x:e},{y:e}\n", s.label.replace(',', ";")));
        }
    }
    out
}

fn figures_digest(exp: &Experiments, figs: &[Figure]) -> u64 {
    let mut h = FNV_START;
    for (k, v) in exp.table1_rows() {
        h = fnv1a(h, k.as_bytes());
        h = fnv1a(h, v.as_bytes());
    }
    for f in figs {
        h = fnv1a(h, f.id.as_bytes());
        h = fnv1a(h, to_csv(f).as_bytes());
    }
    h
}

fn mc_digest(o: &DomainVariationOutcome) -> u64 {
    let mut h = fnv1a(FNV_START, &o.simulation_failures.to_le_bytes());
    for s in &o.samples {
        h = fnv1a(h, &s.static_power.to_bits().to_le_bytes());
        h = fnv1a(h, &s.margin.to_bits().to_le_bytes());
        h = fnv1a(h, &[u8::from(s.pattern_ok)]);
        h = fnv1a(h, &s.bet.map_or(u64::MAX, f64::to_bits).to_le_bytes());
    }
    h
}

/// One figure pass: every figure over the worker pool, each timed.
fn figure_pass(exp: &Experiments, ids: &[&str]) -> Result<(Vec<Figure>, Vec<f64>, f64), String> {
    let t0 = Instant::now();
    let figs = nvpg_exec::par_try_map(JOBS, ids, |_, &id| {
        let t = Instant::now();
        let fig = exp
            .figure_by_id(id)
            .ok_or_else(|| format!("unknown figure id {id}"))?
            .map_err(|e| format!("{id}: {e}"))?;
        Ok::<_, String>((fig, t.elapsed().as_secs_f64()))
    })?;
    let wall = t0.elapsed().as_secs_f64();
    let (figs, times) = figs.into_iter().unzip();
    Ok((figs, times, wall))
}

fn mc_run(
    design: &CellDesign,
    edge: usize,
    samples: u32,
    seed: u64,
    batch: BatchMode,
) -> Result<DomainVariationOutcome, String> {
    let spec = VariationSpec {
        samples,
        seed,
        ..VariationSpec::default()
    };
    run_domain_variation(design, &spec, DomainKind::Nvpg, edge, edge, None, batch, 1)
        .map(|(outcome, _)| outcome)
        .map_err(|e| format!("{edge}x{edge} Monte-Carlo: {e}"))
}

/// Checks one batched Monte-Carlo outcome.
fn check_mc(
    o: &DomainVariationOutcome,
    edge: usize,
    samples: u32,
    seed: u64,
    first: &mut Option<u64>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if o.simulation_failures != 0 || o.samples.len() != samples as usize {
        problems.push(format!(
            "{edge}x{edge} MC: {} simulation failures, {} of {samples} samples",
            o.simulation_failures,
            o.samples.len()
        ));
    }
    if let Some(bad) = o.samples.iter().position(|s| !s.pattern_ok) {
        problems.push(format!("{edge}x{edge} MC sample {bad} lost its pattern"));
    }
    let digest = mc_digest(o);
    if *first.get_or_insert(digest) != digest {
        problems.push(format!(
            "{edge}x{edge} MC outcome changed between repetitions"
        ));
    }
    for &(s, d4, d8) in &REF_MC_DIGESTS {
        let want = if edge == 4 { d4 } else { d8 };
        if s == seed && digest != want {
            problems.push(format!(
                "{edge}x{edge} MC digest {digest:016x} != recorded {want:016x} at seed {seed}"
            ));
        }
    }
    problems
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Report, String> {
    // Both figure workers and the Monte-Carlo inherit the pin: on the
    // defining host the two vCPUs ran at different, changing speeds, and
    // unpinned, each round's parts landed on either.
    match util::pin_to_current_cpu() {
        Ok(cpu) => eprintln!("paper_batch: pinned to CPU {cpu}"),
        Err(e) => eprintln!("paper_batch: running unpinned ({e})"),
    }
    let mut report = Report::default();
    if tracer.on() {
        // The engine's counters record only when metrics are enabled;
        // the untraced run leaves the registry off, as users run it.
        nvpg_obs::enable_metrics();
    }
    let design = CellDesign::table1();

    // Set-up: the Table I characterisation. The first sample is the
    // cold `Experiments::new` the figures use; the others re-run the
    // uncached characterisation and must reproduce it.
    let (exp, t, scaled) = tracer.scaled_span("cells.characterize", || Experiments::new(design));
    let exp = exp.map_err(|e| format!("Table I characterisation: {e}"))?;
    report.op(Vec::new());
    let mut setup_s = vec![scaled];
    let mut characterize_s = vec![t];
    for _ in 0..EXTRA_CHARACTERIZATIONS {
        let (ch, t, scaled) = tracer.scaled_span("cells.characterize", || characterize(&design));
        let same = matches!(&ch, Ok(ch) if ch == exp.characterization());
        report.op(if same {
            Vec::new()
        } else {
            vec!["repeated Table I characterisation differs from the first".to_owned()]
        });
        setup_s.push(scaled);
        characterize_s.push(t);
    }

    let ids = figure_ids();
    // Warm-up pass: fills the second design point's characterisation
    // cache (Fig. 9(b)) so every timed pass does the same work.
    let (figs, _, _) = figure_pass(&exp, &ids)?;
    let check_figs = |figs: &[Figure]| -> Vec<String> {
        let d = figures_digest(&exp, figs);
        if d == REF_FIGURES_DIGEST {
            Vec::new()
        } else {
            vec![format!(
                "figure digest {d:016x} != recorded {REF_FIGURES_DIGEST:016x}"
            )]
        }
    };
    report.op(check_figs(&figs));

    // Every run cross-checks the first samples against a serial solve,
    // so seeds without a recorded digest are still verified.
    for (edge, _) in MC {
        let serial = mc_run(
            &design,
            edge,
            CROSS_CHECK_SAMPLES,
            args.seed,
            BatchMode::Serial,
        )?;
        let batched = mc_run(
            &design,
            edge,
            CROSS_CHECK_SAMPLES,
            args.seed,
            BatchMode::Auto,
        )?;
        report.op(if serial == batched {
            Vec::new()
        } else {
            vec![format!(
                "{edge}x{edge} MC: batched samples differ from serial"
            )]
        });
    }

    let t_start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut figures_s = Vec::new();
    let mut per_figure: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];
    let mut efficiency = Vec::new();
    let mut points_per_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut digests = [None, None];
    let mut batched: [Option<DomainVariationOutcome>; 2] = [None, None];
    // A round is one figure pass and both Monte-Carlo runs; rounds
    // interleave the three so slow phases of a shared host spread over
    // all of them.
    while rounds.len() < 3 || t_start.elapsed() < args.seconds {
        let (cpu0, counts0) = (layers::cpu_s("self")?, layers::counts_self());
        let (pass, _, scaled) =
            tracer.scaled_span("core.experiments.figures", || figure_pass(&exp, &ids));
        let (figs, times, wall) = pass?;
        report.op(check_figs(&figs));
        efficiency.push(times.iter().sum::<f64>() / (wall * JOBS as f64));
        for (acc, t) in per_figure.iter_mut().zip(times) {
            acc.push(t);
        }
        figures_s.push(wall);
        let mut parts = vec![scaled];
        for (k, (edge, samples)) in MC.into_iter().enumerate() {
            let (o, t, scaled) = tracer.scaled_span(&format!("core.batch.mc{edge}"), || {
                mc_run(&design, edge, samples, args.seed, BatchMode::Auto)
            });
            let o = o?;
            report.op(check_mc(&o, edge, samples, args.seed, &mut digests[k]));
            points_per_s[k].push(f64::from(samples) / t);
            parts.push(scaled);
            batched[k] = Some(o);
        }
        let (cpu1, counts1) = (layers::cpu_s("self")?, layers::counts_self());
        rounds.push(Round {
            parts,
            cpu_s: cpu1 - cpu0,
            counts: layers::delta(&counts1, &counts0),
        });
    }
    for (k, (edge, _)) in MC.into_iter().enumerate() {
        if let Some(d) = digests[k] {
            eprintln!("{edge}x{edge} MC digest at seed {}: {d:016x}", args.seed);
        }
    }
    eprintln!("figure digest: {:016x}", figures_digest(&exp, &figs));

    report.detail("figures_s", median(&figures_s), "s");
    for (k, (edge, _)) in MC.into_iter().enumerate() {
        report.detail(
            format!("mc{edge}_points_per_s"),
            median(&points_per_s[k]),
            "1/s",
        );
    }
    if !tracer.on() {
        layers::end_to_end(&mut report, &setup_s, peak_rss_mb("self")?, &rounds);
        return Ok(report);
    }
    let measured_s = characterize_s.iter().sum::<f64>() + t_start.elapsed().as_secs_f64();

    report.detail("cells.characterize_s", median(&characterize_s[1..]), "s");
    for name in ["fig6a", "fig6b", "fig9b", "ext_thermal", "ext_policy"] {
        let k = ids
            .iter()
            .position(|&id| id == name)
            .expect("default figure id");
        report.detail(
            format!("core.experiments.{name}_s"),
            median(&per_figure[k]),
            "s",
        );
    }
    report.detail("exec.parallel_efficiency", median(&efficiency), "ratio");
    // Serial references, after the rounds so they stay out of them; the
    // whole serial outcome must equal the batched one.
    for (k, (edge, samples)) in MC.into_iter().enumerate() {
        let (serial, t) = tracer.span(&format!("core.batch.mc{edge}_serial"), || {
            mc_run(&design, edge, samples, args.seed, BatchMode::Serial)
        });
        let same = Some(serial?) == batched[k];
        report.op(if same {
            Vec::new()
        } else {
            vec![format!(
                "{edge}x{edge} MC: batched outcome differs from serial"
            )]
        });
        let serial = f64::from(samples) / t;
        report.detail(
            format!("core.batch.mc{edge}_serial_points_per_s"),
            serial,
            "1/s",
        );
        report.detail(
            format!("core.batch.mc{edge}_gain"),
            median(&points_per_s[k]) / serial,
            "ratio",
        );
    }

    // One round's computed device-evaluation and LU seconds: cell-level
    // circuits, so the device mix of an NVPG cell (six latch and two
    // store FinFETs, two MTJs) and a dense factor-and-solve per LU
    // refactorisation. Batched lanes are not in the serial counters.
    let p = layers::probe(args.seed)?;
    let load_ns = (8.0 * p.finfet_load_ns + 2.0 * p.mtj_load_ns) / 10.0;
    let computed_s = (
        layers::mean_count(&rounds, "solve.device_evals") * load_ns * 1e-9,
        layers::mean_count(&rounds, "solve.lu_refactorizations") * p.dense_lu_us * 1e-6,
    );
    layers::per_layer(&mut report, tracer, &p, &rounds, computed_s, measured_s);
    Ok(report)
}
