//! The sharded sibling of `alloc_steady_state.rs`: once every shard's
//! buffers have reached their working capacities, a sharded
//! `ShardedSimulator::run` performs **zero** heap allocations — across
//! *all* threads. Worker threads are spawned at construction and the
//! boundary handoff buffers (outboxes and mailboxes) are preallocated to
//! the bounded-lag window, so the barrier-post-apply cycle is pure buffer
//! swapping. Opening the measurement window allocates nothing either. The
//! counting allocator is global, so a single stray `Vec` in any worker
//! fails the test.
//!
//! This file holds exactly one test so no concurrent test can perturb the
//! allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use chiplet_graph::gen;
use nocsim::{ShardedSimulator, SimConfig};

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
fn sharded_steady_state_run_never_allocates() {
    let g = gen::grid(4, 4);
    let config = SimConfig { injection_rate: 0.1, seed: 42, ..SimConfig::paper_defaults() };
    let mut sim = ShardedSimulator::new(&g, config, 4).expect("valid config");

    // Warm up traffic and open the window. Every shard's counters and
    // latency histogram were allocated at construction, so opening the
    // window allocates nothing. Then let every growable buffer in every
    // shard reach its working capacity before measuring.
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
        "sharded steady-state run() must not allocate (got {} allocations over 4000 cycles)",
        after - before
    );

    // The run did real work (this is a busy network, not a no-op window),
    // and the result is the serial one bit for bit.
    let stats = sim.stats();
    assert!(stats.received_packets > 1_000, "unexpectedly idle: {stats:?}");
    let mut serial = nocsim::Simulator::new(&g, config).expect("valid config");
    serial.run(3_000);
    serial.open_measurement_window();
    serial.run(7_000);
    assert_eq!(stats, serial.stats());
}
