//! Pins the allocation count of a routing-table build. The tables hold a
//! few flat arrays, so building them for `n` routers makes O(n)
//! allocations: per-source BFS scratch and the escape tree's adjacency
//! lists, not one vector per (router, destination) pair. A counting global
//! allocator makes the check deterministic, with no timing involved.
//!
//! This file holds exactly one test so no concurrent test can perturb the
//! allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use chiplet_graph::gen;
use nocsim::routing::RoutingTables;
use nocsim::RoutingKind;

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
fn routing_table_build_allocates_linearly_in_routers() {
    let g = gen::grid(32, 32);
    let n = g.num_vertices();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let tables = RoutingTables::new(&g, RoutingKind::MinimalAdaptiveEscape).expect("connected");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    // The all-pairs BFS takes about seven a source as its queue grows; one
    // vector per pair would add n² ≈ 1 M.
    assert!(
        allocations <= 8 * n,
        "{allocations} allocations building tables for {n} routers (bound {})",
        8 * n
    );
    // The build did real work: the opposite corners of the grid are 62
    // hops apart, with two minimal ports from either.
    assert_eq!(tables.distance(0, n - 1), 62);
    assert_eq!(tables.minimal_ports(0, n - 1).len(), 2);
}
