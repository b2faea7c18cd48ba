//! Proves the zero-allocation steady-state contract of the hot path: once
//! buffers, queues, scratch, and the event wheel have reached their
//! working capacities, `Simulator::run` performs **zero** heap
//! allocations, and neither does opening the measurement window. A
//! counting global allocator measures exact spans on a fixed seed, so this
//! is deterministic — any regression (a per-cycle `Vec`, a histogram
//! (re)allocated at window open, a forgotten scratch buffer) fails loudly.
//!
//! This file holds exactly one test so no concurrent test can perturb the
//! allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use chiplet_graph::gen;
use nocsim::{Probe, SimConfig, Simulator};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_step_never_allocates() {
    let g = gen::grid(4, 4);
    let config = SimConfig { injection_rate: 0.1, seed: 42, ..SimConfig::paper_defaults() };
    let mut sim = Simulator::new(&g, config).expect("valid config");

    // Run probe-attached: the observability contract says sampling lives
    // inside preallocated buffers, so it must not break this test. The
    // capacity covers the full run with headroom.
    sim.attach_probe(Probe::new(100, 256));

    // Warm up traffic and open the window. The counters and the latency
    // histogram were allocated at construction, so opening the window
    // allocates nothing. Then let every growable buffer reach its working
    // capacity before measuring.
    sim.run(3_000);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sim.open_measurement_window();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "opening the window allocated {} times", after - before);
    sim.run(3_000);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sim.run(4_000);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state run() must not allocate (got {} allocations over 4000 cycles)",
        after - before
    );

    // The run did real work (this is a busy network, not a no-op window).
    let stats = sim.stats();
    assert!(stats.received_packets > 1_000, "unexpectedly idle: {stats:?}");

    // And the probe recorded the whole run without reallocating: 10_000
    // cycles at one sample per 100 cycles.
    assert_eq!(sim.obs_windows().len(), 100, "probe sampled every boundary");
}
