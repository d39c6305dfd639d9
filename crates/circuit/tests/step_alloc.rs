//! The transient step loop is allocation-free.
//!
//! A fixed-step run (`lte_control: false`, `dt_init = dt_max`) of a FinFET
//! inverter with an MTJ load and device-state recording on is simulated
//! for N and for 2N steps. Everything a run allocates outside the step
//! loop (netlist scratch, solver buffers, the trace's signal table) is the
//! same for both lengths, and the trace's columns grow geometrically, so
//! the longer run may allocate at most one more growth per trace column
//! (and one for the time axis). A per-step allocation anywhere in the loop
//! — step acceptance, assembly, device-state sampling — adds N.
//!
//! The count uses a per-thread counting global allocator, so this lives
//! in its own integration-test binary; the transient runs on the calling
//! thread, so allocations made by the test harness or by sibling tests
//! running in parallel do not reach it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nvpg_circuit::dc::{operating_point, DcOptions};
use nvpg_circuit::transient::{transient, TransientOptions};
use nvpg_circuit::{Circuit, Waveform};
use nvpg_devices::{FinFet, FinFetParams, Mtj, MtjParams, MtjState};

thread_local! {
    // `const`-initialised and drop-free, so touching it never allocates
    // and needs no thread-exit destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the current thread. `try_with` keeps the
/// allocator safe while a thread's locals are being torn down.
fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the current thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged;
// only a counter is added.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Fixed step, seconds.
const DT: f64 = 1e-12;

/// Runs the inverter for `steps` fixed steps; returns the allocations the
/// transient call made, the trace's column count, and its sample count.
fn run(steps: u32) -> (u64, usize, usize) {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.vsource("vdd", vdd, Circuit::GROUND, 0.9).unwrap();
    // One input edge, early enough that every run sees all of it.
    ckt.vsource(
        "vin",
        inp,
        Circuit::GROUND,
        Waveform::Pwl(vec![(0.0, 0.0), (50e-12, 0.9)]),
    )
    .unwrap();
    let n = FinFetParams::nmos_20nm();
    let p = FinFetParams::pmos_20nm();
    ckt.device(Box::new(FinFet::new("mp", out, inp, vdd, p)))
        .unwrap();
    ckt.device(Box::new(FinFet::new("mn", out, inp, Circuit::GROUND, n)))
        .unwrap();
    ckt.device(Box::new(Mtj::new(
        "mtj",
        out,
        Circuit::GROUND,
        MtjParams::table1(),
        MtjState::AntiParallel,
    )))
    .unwrap();
    ckt.capacitor("cl", out, Circuit::GROUND, 1e-15).unwrap();
    let op = operating_point(&mut ckt, &DcOptions::default()).unwrap();
    let opts = TransientOptions {
        t_stop: f64::from(steps) * DT,
        dt_max: DT,
        dt_init: DT,
        lte_control: false,
        record_device_state: true,
        device_bypass_tol: 1e-4,
        ..TransientOptions::default()
    };
    let before = allocations();
    let result = transient(&mut ckt, &opts, &op).unwrap();
    let allocated = allocations() - before;
    (
        allocated,
        result.trace.signal_names().len(),
        result.trace.len(),
    )
}

#[test]
fn transient_step_loop_does_not_allocate() {
    const N: u32 = 200;
    let (short, columns, short_len) = run(N);
    let (long, _, long_len) = run(2 * N);
    assert!(
        long_len >= 2 * (short_len - 1),
        "the long run took {long_len} samples, the short one {short_len}"
    );
    // Signals plus the time axis.
    let growths = columns as u64 + 1;
    assert!(
        long <= short + growths,
        "{} steps allocated {long} times, {N} steps {short} times: more than \
         {growths} extra trace-column growths, so the step loop allocates",
        2 * N
    );
}
