//! Shared pieces: the result report, the span recorder with its
//! host-speed calibration, order statistics, a content digest,
//! peak-memory readings and CPU pinning.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and whether its outputs were right.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (cycles, figure passes, MC runs, requests).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// One line per failed check, printed to stderr.
    pub failures: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Workload-specific measurements, printed on stderr only.
    pub details: Vec<Metric>,
}

impl Report {
    /// Counts one attempted operation; it failed when any of its output
    /// checks reported a problem.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.details.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Human-readable summary on stderr, including `failed_frac`.
    pub fn summarize(&self, workload: &str) {
        eprintln!(
            "{workload}: attempted {}, failed {} (failed_frac {:.4})",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for f in &self.failures {
            eprintln!("  CHECK FAILED: {f}");
        }
        for m in &self.metrics {
            eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        if !self.details.is_empty() {
            eprintln!("{workload} details:");
        }
        for m in &self.details {
            eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }

    /// The result line. Rust's `Display` for `f64` prints the shortest
    /// string that round-trips, so every measured digit is kept; a
    /// non-finite value (which `correct()` already rejects) prints as
    /// `null` so the line stays valid JSON.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_owned()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Seconds one [`calibrate`] kernel took, median over a long run, on the
/// host the benchmark was defined on (2 vCPUs, shared).
pub const CAL_REF_S: f64 = 0.005_36;

/// Kernel runs on each side of a scaled span; their median is that
/// side's reading (one run is a few milliseconds and scatters).
const CALIBRATIONS: usize = 3;

/// Runs a fixed floating-point kernel (the exp/ln/sqrt mix of a compact
/// device model over a 32 KiB working set, independent of the program
/// under test) and returns its wall time in seconds.
pub fn calibrate() -> f64 {
    let t0 = Instant::now();
    let mut v: Vec<f64> = (0..4096).map(|i| f64::from(i) * 1e-3).collect();
    for r in 0..60 {
        for (i, x) in v.iter_mut().enumerate() {
            let y = (*x - 0.3).mul_add(1.7, (i & 7) as f64 * 0.01);
            *x = (1.0 + y.exp()).ln().sqrt() * 0.5 + f64::from(r) * 1e-6;
        }
    }
    black_box(&v);
    t0.elapsed().as_secs_f64()
}

/// The host's speed right now, in reference-host seconds per second.
fn speed_now() -> f64 {
    let readings: Vec<f64> = (0..CALIBRATIONS).map(|_| calibrate()).collect();
    CAL_REF_S / median(&readings)
}

/// Spans recorded by the benchmark around its calls into each layer,
/// and the host's speed measured around the scaled ones. Disabled
/// (untraced runs) it records no spans.
pub struct Tracer {
    on: bool,
    origin: Instant,
    depth: Cell<usize>,
    spans: RefCell<Vec<Span>>,
    speeds: RefCell<Vec<f64>>,
}

struct Span {
    name: String,
    depth: usize,
    start_s: f64,
    end_s: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            depth: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            speeds: RefCell::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Like [`Tracer::span`], and also returns the wall time scaled to
    /// the reference host: multiplied by the host's speed, read with the
    /// calibration kernel just before and just after the call (outside
    /// the timed interval, traced or not).
    ///
    /// The shared host switches between speed states that last tens of
    /// seconds (the kernel's time then moves by half, the program's by
    /// a third), so a run's raw times depend on how long it spent in
    /// each. A reading local to each call tracks the switches; one
    /// factor for the whole run did not.
    pub fn scaled_span<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = speed_now();
        let (out, raw) = self.span(name, f);
        let speed = 0.5 * (before + speed_now());
        self.speeds.borrow_mut().push(speed);
        (out, raw, raw * speed)
    }

    /// The host speed read around the last scaled span.
    pub fn last_speed(&self) -> f64 {
        *self.speeds.borrow().last().expect("a scaled span ran")
    }

    /// Median host speed over the scaled spans so far, reference-host
    /// seconds per second.
    pub fn speed_factor(&self) -> f64 {
        median(&self.speeds.borrow())
    }

    /// Runs `f`, returning its result and wall time in seconds; records a
    /// span named `name` when tracing.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let depth = self.depth.get();
        self.depth.set(depth + 1);
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.depth.set(depth);
        if self.on {
            self.record(name, depth, t0, t1);
        }
        (out, (t1 - t0).as_secs_f64())
    }

    fn record(&self, name: &str, depth: usize, t0: Instant, t1: Instant) {
        self.spans.borrow_mut().push(Span {
            name: name.to_owned(),
            depth,
            start_s: t0.saturating_duration_since(self.origin).as_secs_f64(),
            end_s: t1.saturating_duration_since(self.origin).as_secs_f64(),
        });
    }

    /// Total seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    /// Spans recorded so far.
    pub fn count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Measured cost of recording one span, in seconds: the benchmark's
    /// own tracing overhead, calibrated on empty spans.
    pub fn span_cost_s() -> f64 {
        const N: usize = 20_000;
        let probe = Tracer::new(true);
        let t0 = Instant::now();
        for _ in 0..N {
            probe.record("probe", 0, t0, t0);
        }
        t0.elapsed().as_secs_f64() / N as f64
    }

    /// Per-span-name totals on stderr (the written-out trace).
    pub fn summarize(&self) {
        if !self.on {
            return;
        }
        let mut by_name: BTreeMap<(usize, &str), (usize, f64)> = BTreeMap::new();
        let spans = self.spans.borrow();
        for s in spans.iter() {
            let e = by_name.entry((s.depth, &s.name)).or_default();
            e.0 += 1;
            e.1 += s.end_s - s.start_s;
        }
        eprintln!("trace: {} spans", spans.len());
        for ((depth, name), (n, total)) in by_name {
            eprintln!(
                "  {:indent$}{name:<32} x{n:<5} {total:>10.4} s",
                "",
                indent = depth * 2
            );
        }
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p` in (0, 1] of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() as f64 * p).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

/// 64-bit FNV-1a over `bytes`, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set size (`VmHWM`) of process `pid` ("self" for this
/// one), in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))?;
    Ok(kb / 1024.0)
}

/// The seed data pattern of the array workloads: both cell polarities
/// and both retention states are exercised.
pub fn checkerboard(r: usize, c: usize) -> bool {
    (r + c).is_multiple_of(2)
}

/// Pins the calling thread to the CPU it is running on; threads and
/// processes it starts afterwards inherit the pin. The two vCPUs of the
/// defining host ran at different, changing speeds: pinned, every round
/// of a single-threaded workload runs on the same one.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reports which
    // CPU the calling thread is on.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_owned())?;
    // glibc's `cpu_set_t`: a 1024-bit mask.
    let mut mask = [0u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} beyond a 1024-bit mask"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, which is `cpu_set_t`'s; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}
