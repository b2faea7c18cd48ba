//! Pins the simulator's heap footprint at the paper's scale: HexaMesh at
//! n = 1027 with paper defaults. A byte-counting global allocator measures
//! what construction leaves live; the bound catches a buffer reserved past
//! its occupancy bound, or a shard reserving buffers for routers it does
//! not step. The capacity walk `heap_bytes()` must agree with the
//! allocator, so the figure simperf reports is the one measured here.
//!
//! This file holds exactly one test so no concurrent test can perturb the
//! byte counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use chiplet_graph::Graph;
use nocsim::{ShardedSimulator, SimConfig, Simulator};

struct CountingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The regular HexaMesh with `rings` rings, numbered as
/// `hexamesh::arrangement` numbers it: rows `-rings..=rings`, row `i`
/// holding `2 * rings + 1 - |i|` bricks, each touching its row neighbours
/// and the bricks of the adjacent rows it overlaps by half a brick.
fn hexamesh(rings: i64) -> Graph {
    // Bricks are two half-units wide; brick `j` of `row` starts here.
    let start = |row: i64, j: i64| -(2 * rings + 1) + row.abs() + 2 * j;
    let bricks: Vec<(i64, i64)> = (-rings..=rings)
        .flat_map(|row| (0..2 * rings + 1 - row.abs()).map(move |j| (row, start(row, j))))
        .collect();
    let mut edges = Vec::new();
    for (a, &(row_a, at_a)) in bricks.iter().enumerate() {
        for (b, &(row_b, at_b)) in bricks.iter().enumerate().skip(a + 1) {
            let beside = row_a == row_b && at_b - at_a == 2;
            let stacked = (row_a - row_b).abs() == 1 && (at_a - at_b).abs() == 1;
            if beside || stacked {
                edges.push((a, b));
            }
        }
    }
    Graph::from_edges(bricks.len(), &edges).expect("valid HexaMesh")
}

fn live_mb() -> f64 {
    LIVE.load(Ordering::Relaxed) as f64 / 1e6
}

/// `heap_bytes()` agrees with the counted growth within 2%.
fn assert_walk_agrees(what: &str, counted_mb: f64, walked_bytes: usize) {
    let walked_mb = walked_bytes as f64 / 1e6;
    assert!(
        (walked_mb - counted_mb).abs() <= 0.02 * counted_mb,
        "{what}: heap_bytes() {walked_mb:.2} MB, counting allocator {counted_mb:.2} MB"
    );
}

#[test]
fn construction_footprint_at_n_1027() {
    let g = hexamesh(18);
    assert_eq!((g.num_vertices(), g.num_edges()), (1027, 2970));
    let config = SimConfig::paper_defaults();

    // Serial: the routing tables (14.8 MB) plus buffers sized to each
    // line's occupancy bound, 24-byte flits throughout.
    let before = live_mb();
    let sim = Simulator::new(&g, config).expect("valid configuration");
    let serial_mb = live_mb() - before;
    assert!(serial_mb <= 59.0, "Simulator::new left {serial_mb:.2} MB live");
    assert_walk_agrees("serial", serial_mb, sim.heap_bytes());
    drop(sim);

    // Eight shards share one table build, and each reserves buffers only
    // for what it steps, so the run costs well under eight serial ones.
    let before = live_mb();
    let sharded = ShardedSimulator::new(&g, config, 8).expect("valid configuration");
    let sharded_mb = live_mb() - before;
    assert!(sharded_mb <= 132.0, "ShardedSimulator::new(.., 8) left {sharded_mb:.2} MB live");
    assert_walk_agrees("8 shards", sharded_mb, sharded.heap_bytes());
}
