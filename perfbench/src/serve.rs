//! `serve_mixed` — the serving path: spawn `nvpg-serve`, warm its cache,
//! then drive it with rounds of open-loop Poisson arrivals, one
//! connection per request (as curl does) and at most `nproc` connections
//! open at once. A round's work is the daemon's CPU time serving it,
//! scaled to the reference host.
//!
//! The route mix is 80 % `GET /figures/{id}` cache hits, 15 %
//! `POST /sweep` `vth_shift` with a unique jitter point (misses through
//! single-flight, the coalescing batcher and a batched solve) and 5 %
//! `POST /simulate` small transient decks with a unique parameter
//! (serial misses). Hits beside misses load the same cache both ways.
//! The seed drives the order of the mix and the arrival instants.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nvpg_core::canon::{canonical_json, canonicalize_sweep_body, request_key_raw};
use nvpg_numeric::Rng64;
use nvpg_obs::json::{parse, Json};
use nvpg_serve::cache::ResponseCache;
use nvpg_serve::Response;

use crate::layers::{self, Round};
use crate::util::{fnv1a, median, peak_rss_mb, percentile, Report, Tracer, FNV_START};
use crate::Args;

/// Figures the hits read, with the FNV-1a digest and length of each
/// one's CSV as the `figures --csv` CLI writes it (recorded at the
/// commit that introduced this benchmark).
const HITS: [(&str, u64, usize); 6] = [
    ("fig7a", 0x793c_b8d8_28b7_0616, 9325),
    ("fig7b", 0xcbe3_32d6_4030_c28d, 8304),
    ("fig8a", 0x8a21_96fd_d488_92bd, 5939),
    ("fig8b", 0xc3fe_5b75_ff36_1035, 20377),
    ("fig9a", 0x7544_771a_f677_9fc9, 2126),
    ("ext_policy", 0x7a3a_762a_6483_d828, 21511),
];

/// Route mix: shares of hits and sweeps; the rest simulate.
const HIT_SHARE: f64 = 0.80;
const SWEEP_SHARE: f64 = 0.15;

/// Shared `vth_shift` grid of every sweep, volts; each request adds one
/// unique jitter point, so requests share a topology but never a key.
const SWEEP_GRID: usize = 2;

/// Daemons per run, each booted and warmed once: `setup_s` is the
/// median boot-to-warm time and `peak_rss_mb` the median peak.
const DAEMONS: usize = 4;

/// Offered rate and size of a round (3 s at that rate). Each daemon
/// serves as many whole rounds as fit its share of `--seconds`, at
/// least one.
const FIXED_RPS: f64 = 200.0;
const ROUND_REQUESTS: usize = 600;

/// The `max_rps` ladder: `LADDER_RUNGS` offered rates spaced by
/// `LADDER_RATIO` from `LADDER_BASE_RPS`, each tried for
/// `STEP_REQUESTS` requests. A rung passes when its p99 stays within
/// `P99_LIMIT_MS`, no request fails and no backlog builds.
const LADDER_BASE_RPS: f64 = 200.0;
const LADDER_RATIO: f64 = 1.1;
const LADDER_RUNGS: usize = 16;
const STEP_REQUESTS: usize = 800;
const P99_LIMIT_MS: f64 = 250.0;
/// A step builds a backlog when it carries less than this share of the
/// rate it offered.
const MIN_CARRIED: f64 = 0.95;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Route {
    Hit,
    Sweep,
    Simulate,
}

impl Route {
    fn name(self) -> &'static str {
        match self {
            Route::Hit => "figures_hit",
            Route::Sweep => "sweep",
            Route::Simulate => "simulate",
        }
    }
}

/// One scheduled request.
struct Planned {
    due_s: f64,
    route: Route,
    method: &'static str,
    path: String,
    body: String,
    /// Index into `HITS` for a hit; the sent point count for a sweep.
    detail: usize,
}

/// What the generator saw for one request.
struct Outcome {
    route: Route,
    /// Due time to last response byte, seconds.
    latency_s: f64,
    /// Send start minus due time, seconds.
    lateness_s: f64,
    /// Last response byte, seconds after the schedule's origin.
    done_s: f64,
    problem: Option<String>,
}

fn sweep_body(unique: u64) -> (String, usize) {
    let mut values: Vec<String> = (0..SWEEP_GRID)
        .map(|i| format!("{}", (i as f64 - (SWEEP_GRID / 2) as f64) * 1e-3))
        .collect();
    values.push(format!("{}", 0.05 + unique as f64 * 1e-7));
    (
        format!(
            "{{\"arch\":\"NVPG\",\"var\":\"vth_shift\",\"values\":[{}]}}",
            values.join(",")
        ),
        values.len(),
    )
}

fn simulate_body(unique: u64) -> String {
    format!(
        "{{\"deck\":\"V1 in 0 PULSE(0 0.9 0.1n 0.05n 0.05n 1n 2n)\\nR1 in mid {}\\n\
         C1 mid 0 2f\\nR2 mid out 2k\\nC2 out 0 1f\\n\",\"analysis\":\"tran\",\"t_stop\":4e-9}}",
        1000 + unique
    )
}

/// The seeded open-loop schedule: `n` Poisson arrivals at `rps`. The
/// route mix is exact (the shares of `n`, rounded) and the seed shuffles
/// it, so every plan of the same size carries the same work. `unique`
/// numbers the misses so no two requests of a run share a cache key.
fn plan(rng: &mut Rng64, rps: f64, n: usize, unique: &mut u64) -> Vec<Planned> {
    let hits = (HIT_SHARE * n as f64).round() as usize;
    let sweeps = (SWEEP_SHARE * n as f64).round() as usize;
    let mut routes: Vec<Route> = (0..n)
        .map(|i| match i {
            _ if i < hits => Route::Hit,
            _ if i < hits + sweeps => Route::Sweep,
            _ => Route::Simulate,
        })
        .collect();
    for i in (1..n).rev() {
        routes.swap(i, rng.gen_range_u64(0..i as u64 + 1) as usize);
    }
    let mut due_s = 0.0;
    routes
        .into_iter()
        .map(|route| {
            due_s += -(1.0 - rng.gen_f64()).ln() / rps;
            *unique += 1;
            match route {
                Route::Hit => {
                    let k = rng.gen_range_u64(0..HITS.len() as u64) as usize;
                    Planned {
                        due_s,
                        route,
                        method: "GET",
                        path: format!("/figures/{}?format=csv", HITS[k].0),
                        body: String::new(),
                        detail: k,
                    }
                }
                Route::Sweep => {
                    let (body, points) = sweep_body(*unique);
                    Planned {
                        due_s,
                        route,
                        method: "POST",
                        path: "/sweep".to_owned(),
                        body,
                        detail: points,
                    }
                }
                Route::Simulate => Planned {
                    due_s,
                    route,
                    method: "POST",
                    path: "/simulate".to_owned(),
                    body: simulate_body(*unique),
                    detail: 0,
                },
            }
        })
        .collect()
}

/// One request on a fresh connection: `(status, body)`.
fn request(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n");
    if !body.is_empty() {
        head.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    head.push_str("\r\n");
    head.push_str(body);
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line `{}`", line.trim_end()))?;
    let mut length = None;
    loop {
        line.clear();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                length = v.trim().parse::<usize>().ok();
            }
        }
    }
    let length = length.ok_or("response without Content-Length")?;
    let mut out = vec![0u8; length];
    reader
        .read_exact(&mut out)
        .map_err(|e| format!("body: {e}"))?;
    Ok((status, out))
}

fn json_array<'a>(obj: &'a Json, key: &str) -> Option<&'a [Json]> {
    match obj.as_obj()?.get(key)? {
        Json::Arr(items) => Some(items),
        _ => None,
    }
}

/// Validates a 200 body against what the request asked for.
fn validate(p: &Planned, body: &[u8]) -> Option<String> {
    match p.route {
        Route::Hit => {
            let (id, digest, len) = HITS[p.detail];
            let got = fnv1a(FNV_START, body);
            (body.len() != len || got != digest).then(|| {
                format!(
                    "{id}: body ({} B, {got:016x}) is not the CLI CSV ({len} B, {digest:016x})",
                    body.len()
                )
            })
        }
        Route::Sweep => {
            let points = std::str::from_utf8(body)
                .ok()
                .and_then(|t| parse(t).ok())
                .and_then(|j| {
                    let items = json_array(&j, "points")?;
                    items
                        .iter()
                        .all(|pt| {
                            pt.as_obj()
                                .is_some_and(|o| o.get("value").is_some() && o.get("bet").is_some())
                        })
                        .then_some(items.len())
                });
            (points != Some(p.detail))
                .then(|| format!("sweep: {points:?} valid points, expected {}", p.detail))
        }
        Route::Simulate => {
            let shape = std::str::from_utf8(body)
                .ok()
                .and_then(|t| parse(t).ok())
                .and_then(|j| {
                    let n = json_array(&j, "time")?.len();
                    let signals = j.as_obj()?.get("signals")?.as_obj()?;
                    let ok = n >= 2
                        && !signals.is_empty()
                        && signals
                            .values()
                            .all(|s| matches!(s, Json::Arr(v) if v.len() == n));
                    ok.then_some(n)
                });
            shape
                .is_none()
                .then(|| "simulate: body does not parse as a transient".to_owned())
        }
    }
}

/// Runs `plan` open-loop from `conns` connection slots and returns the
/// outcomes plus the most connections that were open at once.
fn drive(addr: &str, plan: &[Planned], conns: usize) -> (Vec<Outcome>, usize) {
    let next = AtomicUsize::new(0);
    let open = AtomicUsize::new(0);
    let max_open = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::with_capacity(plan.len()));
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(p) = plan.get(i) else { break };
                let due = start + Duration::from_secs_f64(p.due_s);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let now_open = open.fetch_add(1, Ordering::SeqCst) + 1;
                max_open.fetch_max(now_open, Ordering::SeqCst);
                let result = request(addr, p.method, &p.path, &p.body);
                open.fetch_sub(1, Ordering::SeqCst);
                let done = Instant::now();
                let problem = match result {
                    Ok((200, body)) => validate(p, &body),
                    Ok((status, body)) => Some(format!(
                        "{} {} -> {status}: {}",
                        p.method,
                        p.path,
                        String::from_utf8_lossy(&body).trim_end()
                    )),
                    Err(e) => Some(format!("{} {}: {e}", p.method, p.path)),
                };
                outcomes
                    .lock()
                    .expect("outcome lock poisoned")
                    .push(Outcome {
                        route: p.route,
                        latency_s: (done - due).as_secs_f64(),
                        lateness_s: sent.saturating_duration_since(due).as_secs_f64(),
                        done_s: (done - start).as_secs_f64(),
                        problem,
                    });
            });
        }
    });
    (
        outcomes.into_inner().expect("outcome lock poisoned"),
        max_open.load(Ordering::SeqCst),
    )
}

/// Latencies in ms; a failed request counts as missing every limit.
fn latencies_ms(outcomes: &[&Outcome]) -> Vec<f64> {
    outcomes
        .iter()
        .map(|o| match o.problem {
            None => o.latency_s * 1e3,
            Some(_) => f64::INFINITY,
        })
        .collect()
}

/// A running `nvpg-serve` child and the thread draining its stdout.
/// Dropping it kills the child and waits for it, so no error path leaves
/// a daemon behind; [`Daemon::stop`] is the clean shutdown.
struct Daemon {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    fn spawn() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let bin = exe.with_file_name("nvpg-serve");
        let mut child = Command::new(&bin)
            .args(["--listen", "127.0.0.1:0"])
            .env_remove("NVPG_SIMD")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take();
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            drain: None,
        };
        let mut reader = BufReader::new(stdout.ok_or("daemon without stdout")?);
        // "nvpg-serve listening on 127.0.0.1:PORT (...)"
        let mut line = String::new();
        let read = reader.read_line(&mut line);
        daemon.addr = line
            .split_whitespace()
            .find(|t| t.starts_with("127.0.0.1:"))
            .unwrap_or_default()
            .to_owned();
        daemon.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        }));
        if read.is_err() || daemon.addr.is_empty() {
            return Err(format!(
                "no listen address from nvpg-serve: `{}`",
                line.trim_end()
            ));
        }
        Ok(daemon)
    }

    /// Peak resident set size of the daemon, MB.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// SIGTERMs the daemon and waits for it; a clean drain exits 0.
    fn stop(mut self) -> Result<(), String> {
        let pid = self.child.id().to_string();
        let signalled = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .is_ok_and(|s| s.success());
        let t0 = Instant::now();
        while signalled && t0.elapsed() < Duration::from_secs(30) {
            match self.child.try_wait() {
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                _ => break,
            }
        }
        let status = self.reap();
        match status {
            Ok(s) if s.success() && signalled => Ok(()),
            Ok(s) => Err(format!("nvpg-serve did not drain cleanly: {s}")),
            Err(e) => Err(format!("waiting for nvpg-serve: {e}")),
        }
    }

    /// Kills the child unless it has exited, waits for it and joins the
    /// stdout drain.
    fn reap(&mut self) -> std::io::Result<std::process::ExitStatus> {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let status = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        status
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.drain.is_some() || matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.reap();
        }
    }
}

/// Boots a daemon and fills its cache with every hit figure; returns it
/// with the boot-to-warm time, scaled to the reference host.
fn boot_warm(tracer: &Tracer, report: &mut Report) -> Result<(Daemon, f64), String> {
    let (booted, _, t) = tracer.scaled_span("serve.boot_warm", || -> Result<_, String> {
        let daemon = Daemon::spawn()?;
        let mut problems = Vec::new();
        for (k, (id, ..)) in HITS.iter().enumerate() {
            let p = Planned {
                due_s: 0.0,
                route: Route::Hit,
                method: "GET",
                path: format!("/figures/{id}?format=csv"),
                body: String::new(),
                detail: k,
            };
            match request(&daemon.addr, p.method, &p.path, "") {
                Ok((200, body)) => problems.extend(validate(&p, &body)),
                Ok((status, _)) => problems.push(format!("warm {id} -> {status}")),
                Err(e) => problems.push(format!("warm {id}: {e}")),
            }
        }
        Ok((daemon, problems))
    });
    let (daemon, problems) = booted?;
    report.op(problems);
    Ok((daemon, t))
}

fn scrape(addr: &str) -> Result<BTreeMap<String, f64>, String> {
    let (status, body) = request(addr, "GET", "/metrics", "")?;
    if status != 200 {
        return Err(format!("/metrics -> {status}"));
    }
    Ok(String::from_utf8_lossy(&body)
        .lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_owned(), v.trim().parse().ok()?))
        })
        .collect())
}

fn ladder_rps(rung: usize) -> f64 {
    LADDER_BASE_RPS * LADDER_RATIO.powi(rung as i32)
}

/// The rate a step actually carried: its requests over the span from
/// the first due time to the last response.
fn carried_rps(plan: &[Planned], outcomes: &[Outcome]) -> f64 {
    let last_done = outcomes.iter().map(|o| o.done_s).fold(0.0, f64::max);
    plan.len() as f64 / (last_done - plan[0].due_s)
}

/// A rung's verdict: `(p99_ms, backlog)`.
fn step_verdict(plan: &[Planned], outcomes: &[Outcome]) -> (f64, bool) {
    let all: Vec<&Outcome> = outcomes.iter().collect();
    let p99 = percentile(&latencies_ms(&all), 0.99);
    let offered = plan.len() as f64 / (plan[plan.len() - 1].due_s - plan[0].due_s);
    (p99, carried_rps(plan, outcomes) < MIN_CARRIED * offered)
}

/// The `max_rps` search: the highest ladder rung whose p99 stays within
/// the limit with no failed request and no backlog, found by bisection
/// (p99 and backlog grow with the offered rate). Returns the rate that
/// rung carried, if any rung passed, and the most connections open.
fn ladder(
    addr: &str,
    conns: usize,
    next_plan: &mut dyn FnMut(f64, usize) -> Vec<Planned>,
    tracer: &Tracer,
    report: &mut Report,
) -> (Option<f64>, usize) {
    let mut max_rps = None;
    let mut max_open = 0;
    let (mut lo, mut hi) = (None, LADDER_RUNGS);
    while lo.map_or(0, |l| l + 1) < hi {
        let rung = (lo.map_or(0, |l| l + 1) + hi) / 2;
        let rps = ladder_rps(rung);
        let step_plan = next_plan(rps, STEP_REQUESTS);
        let ((outcomes, open), wall) =
            tracer.span("serve.ladder_step", || drive(addr, &step_plan, conns));
        max_open = max_open.max(open);
        let (p99, backlog) = step_verdict(&step_plan, &outcomes);
        let failed = outcomes.iter().filter(|o| o.problem.is_some()).count();
        for o in &outcomes {
            report.op(o.problem.clone().into_iter().collect());
        }
        let pass = p99 <= P99_LIMIT_MS && !backlog && failed == 0;
        eprintln!(
            "ladder {rps:>7.1} rps: p99 {p99:.1} ms, backlog {backlog}, failed {failed}, \
             wall {wall:.2} s -> {}",
            if pass { "pass" } else { "miss" }
        );
        if pass {
            lo = Some(rung);
            max_rps = Some(carried_rps(&step_plan, &outcomes));
        } else {
            hi = rung;
        }
    }
    (max_rps, max_open)
}

/// One daemon's share of the run: its rounds, its peak resident set,
/// and what the generator saw.
struct DaemonRun {
    rounds: Vec<Round>,
    outcomes: Vec<Outcome>,
    /// Serve-layer counter deltas summed over the rounds.
    serve_counts: BTreeMap<&'static str, f64>,
    max_open: usize,
    peak_rss_mb: f64,
}

/// Serve-layer counters scraped around each round, reported as details.
const SERVE_COUNTERS: [&str; 7] = [
    "serve.requests",
    "serve.cache_hits",
    "serve.solves",
    "serve.rejected",
    "serve.deadline_exceeded",
    "serve.batch.batches",
    "serve.batch.coalesced",
];

/// Serves `rounds` rounds of `ROUND_REQUESTS` open-loop requests on
/// `daemon`. A round's work is the daemon's CPU time over it, scaled by
/// the host's speed read around the round.
fn serve_rounds(
    daemon: &Daemon,
    rounds: usize,
    conns: usize,
    next_plan: &mut dyn FnMut(f64, usize) -> Vec<Planned>,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<DaemonRun, String> {
    let pid = daemon.child.id().to_string();
    let mut run = DaemonRun {
        rounds: Vec::new(),
        outcomes: Vec::new(),
        serve_counts: BTreeMap::new(),
        max_open: 0,
        peak_rss_mb: 0.0,
    };
    for _ in 0..rounds {
        let round_plan = next_plan(FIXED_RPS, ROUND_REQUESTS);
        let (before, cpu0) = (scrape(&daemon.addr)?, layers::cpu_s(&pid)?);
        let ((outcomes, open), ..) =
            tracer.scaled_span("serve.round", || drive(&daemon.addr, &round_plan, conns));
        let (cpu1, after) = (layers::cpu_s(&pid)?, scrape(&daemon.addr)?);
        for o in &outcomes {
            report.op(o.problem.clone().into_iter().collect());
        }
        for name in SERVE_COUNTERS {
            let d = after.get(name).unwrap_or(&0.0) - before.get(name).unwrap_or(&0.0);
            // The second scrape counts itself as a request.
            let d = if name == "serve.requests" { d - 1.0 } else { d };
            *run.serve_counts.entry(name).or_default() += d;
        }
        run.rounds.push(Round {
            parts: vec![(cpu1 - cpu0) * tracer.last_speed()],
            cpu_s: cpu1 - cpu0,
            counts: layers::delta(&layers::counts_of(&after), &layers::counts_of(&before)),
        });
        run.outcomes.extend(outcomes);
        run.max_open = run.max_open.max(open);
    }
    run.peak_rss_mb = daemon.peak_rss_mb()?;
    Ok(run)
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let conns = nvpg_exec::available_parallelism();
    let mut rng = Rng64::seed_from_u64(args.seed);
    let mut unique = 0;
    let mut next_plan = |rps: f64, n: usize| plan(&mut rng, rps, n, &mut unique);

    // Each daemon is booted and warmed (a set-up), serves its share of
    // the run in rounds, and is drained; the run reports the median
    // set-up, round and peak resident set over the daemons.
    let round_s = ROUND_REQUESTS as f64 / FIXED_RPS;
    let rounds = ((args.seconds.as_secs_f64() / (DAEMONS as f64 * round_s)) as usize).max(1);
    let mut setup_s = Vec::new();
    let mut runs = Vec::new();
    let mut max_rps = None;
    let mut max_open = 0;
    for d in 0..DAEMONS {
        let (daemon, t) = boot_warm(tracer, &mut report)?;
        setup_s.push(t);
        let run = serve_rounds(&daemon, rounds, conns, &mut next_plan, tracer, &mut report)?;
        max_open = max_open.max(run.max_open);
        if tracer.on() && d + 1 == DAEMONS {
            let (found, open) = ladder(&daemon.addr, conns, &mut next_plan, tracer, &mut report);
            max_rps = found;
            max_open = max_open.max(open);
        }
        report.op(daemon.stop().err().into_iter().collect());
        runs.push(run);
    }
    let rounds: Vec<Round> = runs.iter_mut().flat_map(|r| r.rounds.drain(..)).collect();
    let outcomes: Vec<&Outcome> = runs.iter().flat_map(|r| &r.outcomes).collect();
    let rss = median(&runs.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>());

    // Generator health and latency, on every run: timed from each
    // request's due time, a failed request counting as infinitely late.
    // From run to run of the same code on a shared 2-vCPU host their
    // medians moved by more than any bound allows, so they are details.
    let lat = latencies_ms(&outcomes);
    let p50 = percentile(&lat, 0.50);
    let p99 = percentile(&lat, 0.99);
    let beyond_p99 = lat.iter().filter(|&&l| l > p99).count();
    let lateness: Vec<f64> = outcomes.iter().map(|o| o.lateness_s * 1e3).collect();
    report.detail("p50_ms", p50, "ms");
    report.detail("p99_ms", p99, "ms");
    report.detail("loadgen.requests", outcomes.len() as f64, "count");
    report.detail("loadgen.beyond_p99", beyond_p99 as f64, "count");
    report.detail("loadgen.lateness_p50_ms", percentile(&lateness, 0.5), "ms");
    report.detail("loadgen.lateness_p99_ms", percentile(&lateness, 0.99), "ms");
    report.detail("loadgen.max_open_conns", max_open as f64, "count");
    report.detail("loadgen.conn_limit", conns as f64, "count");
    let mut hit_p50 = f64::NAN;
    for route in [Route::Hit, Route::Sweep, Route::Simulate] {
        let mine: Vec<&Outcome> = outcomes
            .iter()
            .copied()
            .filter(|o| o.route == route)
            .collect();
        let lat = latencies_ms(&mine);
        let route_p50 = percentile(&lat, 0.5);
        if route == Route::Hit {
            hit_p50 = route_p50;
        }
        report.detail(format!("serve.{}_p50_ms", route.name()), route_p50, "ms");
        report.detail(
            format!("serve.{}_p99_ms", route.name()),
            percentile(&lat, 0.99),
            "ms",
        );
        report.detail(
            format!("serve.{}_count", route.name()),
            mine.len() as f64,
            "count",
        );
    }
    let mut served = BTreeMap::new();
    for run in &runs {
        for (name, v) in &run.serve_counts {
            *served.entry(*name).or_insert(0.0) += v;
        }
    }
    for (name, v) in &served {
        report.detail(*name, *v, "count");
    }
    report.detail(
        "serve.hit_ratio",
        served["serve.cache_hits"] / served["serve.requests"],
        "ratio",
    );
    let joined = served["serve.batch.coalesced"];
    report.detail(
        "serve.coalesce_ratio",
        joined / (joined + served["serve.batch.batches"]),
        "ratio",
    );

    if !tracer.on() {
        layers::end_to_end(&mut report, &setup_s, rss, &rounds);
        return Ok(report);
    }
    match max_rps {
        Some(r) => report.detail("max_rps", r, "1/s"),
        None => report.op(vec![format!(
            "no ladder rung met p99 <= {P99_LIMIT_MS} ms without backlog"
        )]),
    }
    let p = layers::probe(args.seed)?;
    report.detail(
        "serve.accept_http_ms",
        hit_p50 - p.request_key_us * 1e-3 - p.cache_get_ns * 1e-6,
        "computed_ms",
    );
    // The daemon's engine work is cell-level (4×4 domain sweeps through
    // the batched engine, small transients): the NVPG cell's device mix
    // and a dense factor-and-solve per LU refactorisation.
    let load_ns = (8.0 * p.finfet_load_ns + 2.0 * p.mtj_load_ns) / 10.0;
    let computed_s = (
        layers::mean_count(&rounds, "solve.device_evals") * load_ns * 1e-9,
        layers::mean_count(&rounds, "solve.lu_refactorizations") * p.dense_lu_us * 1e-6,
    );
    let measured_s = setup_s.iter().sum::<f64>() + args.seconds.as_secs_f64();
    layers::per_layer(&mut report, tracer, &p, &rounds, computed_s, measured_s);
    Ok(report)
}

/// The in-process floor of a cache hit, measured on the workload's
/// requests at `seed` (the first rounds' plan): canonicalising and keying
/// each request as the server does (`core.canon`), and a response-cache
/// lookup of each hit (`serve`). Returns µs per key and ns per lookup.
pub fn hit_path_floor(seed: u64) -> (f64, f64) {
    const ROUNDS: usize = 20;
    let plan = plan(
        &mut Rng64::seed_from_u64(seed),
        FIXED_RPS,
        5 * ROUND_REQUESTS,
        &mut 0,
    );
    let key_of = |p: &Planned| {
        let mut body = if p.body.is_empty() {
            Json::Null
        } else {
            parse(&p.body).unwrap_or(Json::Null)
        };
        if p.route == Route::Sweep {
            body = canonicalize_sweep_body(&body);
        }
        let (path, query) = p.path.split_once('?').unwrap_or((&p.path, ""));
        let path = if query.is_empty() {
            path.to_owned()
        } else {
            format!("{path}?{query}")
        };
        request_key_raw(p.method, &path, &canonical_json(&body))
    };
    let t0 = Instant::now();
    let mut keys = Vec::with_capacity(plan.len());
    for _ in 0..ROUNDS {
        keys.clear();
        keys.extend(plan.iter().map(|p| std::hint::black_box(key_of(p))));
    }
    let key_us = t0.elapsed().as_secs_f64() * 1e6 / (ROUNDS * plan.len()) as f64;

    let cache = ResponseCache::new(64 << 20);
    let hits: Vec<u128> = plan
        .iter()
        .zip(&keys)
        .filter(|(p, _)| p.route == Route::Hit)
        .map(|(_, &k)| k)
        .collect();
    for &k in &hits {
        cache.put(
            k,
            std::sync::Arc::new(Response::ok("text/csv", vec![b'x'; 4096])),
        );
    }
    let t0 = Instant::now();
    for _ in 0..ROUNDS * 10 {
        for &k in &hits {
            std::hint::black_box(cache.get(k));
        }
    }
    let get_ns = t0.elapsed().as_secs_f64() * 1e9 / (ROUNDS * 10 * hits.len().max(1)) as f64;
    (key_us, get_ns)
}
