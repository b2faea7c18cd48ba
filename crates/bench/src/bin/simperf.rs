//! EXP-SP — simulator hot-path performance: simulated Mcycles/s and
//! flit-hops/s of `nocsim` on the paper-defaults 8×8 grid, at light load
//! (rate 0.05, the event-driven sweet spot) and past the saturation knee
//! (rate 0.30, where every router is busy each cycle) — plus a `large_n`
//! scenario (n = 1027 HexaMesh near saturation) that sweeps the `--shards`
//! axis of the bounded-lag parallel engine and reports each shard count's
//! `speedup_vs_serial`.
//!
//! Each grid scenario is measured twice — on the event-driven hot path and
//! on the forced poll-every-cycle reference path. Every row also records
//! `heap_mb`, the heap the simulator holds after its measured run
//! ([`Simulator::heap_bytes`], summed over shards and sharing one routing
//! table for a sharded run). Shard speedups are
//! wall-clock numbers, so compare them only to runs on comparable
//! hardware; the JSON manifest records `git describe` and `host_cpus` for
//! every run so regressions (and single-core runs, where sharding cannot
//! win) are attributable.
//!
//! Usage:
//! ```text
//! cargo run --release -p hexamesh-bench --bin simperf \
//!     [--quick] [--cycles N] [--side S] [--shards 1,2,4,8] \
//!     [--out DIR] [--format csv|json|both]
//! ```
//! Writes `BENCH_nocsim.{csv,json}` (to the repository root by default —
//! pass `--out` to redirect). Scenarios always run serially, whatever
//! `--workers` says: interleaved timing would measure the scheduler, not
//! the simulator.

use std::time::Instant;

use chiplet_graph::{gen, Graph};
use hexamesh::arrangement::{Arrangement, ArrangementKind};
use nocsim::{ShardedSimulator, SimConfig, Simulator};
use xp::cli::{arg_flag, arg_u64, arg_usize};
use xp::json::Value;
use xp::table::{f3, Table};
use xp::{Campaign, CampaignArgs};

/// The grid scenarios: (name, injection rate).
const GRID_SCENARIOS: &[(&str, f64)] = &[("low_load", 0.05), ("near_saturation", 0.30)];

/// The sharded scenario: a paper-scale HexaMesh (a valid centered-hex
/// count, k = 18) near the saturation knee.
const LARGE_N: usize = 1_027;
const LARGE_N_RATE: f64 = 0.30;

struct Measured {
    scenario: &'static str,
    path: &'static str,
    shards: usize,
    rate: f64,
    cycles: u64,
    wall_s: f64,
    mcycles_per_s: f64,
    mflit_hops_per_s: f64,
    heap_mb: f64,
}

fn measure(
    side: usize,
    rate: f64,
    cycles: u64,
    reference: bool,
    scenario: &'static str,
) -> Measured {
    let g = gen::grid(side, side);
    let config = SimConfig { injection_rate: rate, ..SimConfig::paper_defaults() };
    let mut sim = Simulator::new(&g, config).expect("valid configuration");
    sim.set_reference_stepping(reference);
    sim.run(2_000);
    sim.open_measurement_window();
    let hops_before: u64 = sim.channel_loads().iter().map(|&(_, _, c)| c).sum();
    let t0 = Instant::now();
    sim.run(cycles);
    let wall_s = t0.elapsed().as_secs_f64();
    let hops: u64 = sim.channel_loads().iter().map(|&(_, _, c)| c).sum::<u64>() - hops_before;
    assert!(sim.stats().received_packets > 0, "perf scenario moved no traffic");
    Measured {
        scenario,
        path: if reference { "reference" } else { "event" },
        shards: 1,
        rate,
        cycles,
        wall_s,
        mcycles_per_s: cycles as f64 / wall_s / 1e6,
        mflit_hops_per_s: hops as f64 / wall_s / 1e6,
        heap_mb: sim.heap_bytes() as f64 / 1e6,
    }
}

fn measure_sharded(graph: &Graph, rate: f64, cycles: u64, shards: usize) -> Measured {
    let config = SimConfig { injection_rate: rate, ..SimConfig::paper_defaults() };
    let mut sim = ShardedSimulator::new(graph, config, shards).expect("valid configuration");
    sim.run(2_000);
    sim.open_measurement_window();
    let hops_before: u64 = sim.channel_loads().iter().map(|&(_, _, c)| c).sum();
    let t0 = Instant::now();
    sim.run(cycles);
    let wall_s = t0.elapsed().as_secs_f64();
    let hops: u64 = sim.channel_loads().iter().map(|&(_, _, c)| c).sum::<u64>() - hops_before;
    assert!(sim.stats().received_packets > 0, "perf scenario moved no traffic");
    Measured {
        scenario: "large_n",
        // One shard is the serial event engine itself (no threads).
        path: if shards == 1 { "event" } else { "sharded" },
        shards,
        rate,
        cycles,
        wall_s,
        mcycles_per_s: cycles as f64 / wall_s / 1e6,
        mflit_hops_per_s: hops as f64 / wall_s / 1e6,
        heap_mb: sim.heap_bytes() as f64 / 1e6,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    xp::cli::reject_unknown_flags(
        &args,
        &xp::cli::with_shared(&["--side", "--cycles", "--shards"]),
    );
    let side = arg_usize(&args, "--side", 8);
    let mut shared = CampaignArgs::parse(&args);
    // `BENCH_nocsim` is a tracked baseline: it lives at the repository
    // root unless `--out` redirects it.
    if !arg_flag(&args, "--out") {
        shared.out = std::path::PathBuf::from(".");
    }
    let default_cycles = if shared.quick { 20_000 } else { 100_000 };
    let cycles = arg_u64(&args, "--cycles", default_cycles);
    let default_shards: &[usize] = if shared.quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let mut shard_counts = xp::cli::arg_list(&args, "--shards", default_shards);
    if !shard_counts.contains(&1) {
        // The serial row anchors every speedup_vs_serial value.
        shard_counts.insert(0, 1);
    }
    // The n = 1027 network does ~16× the per-cycle work of the 8×8 grid;
    // a shorter window keeps the sweep's wall time comparable.
    let large_n_cycles = (cycles / 10).max(1_000);
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let campaign = Campaign::new("BENCH_nocsim", shared);

    eprintln!(
        "simperf: {side}x{side} grid x 2 paths @ {cycles} cycles, \
         large_n (n={LARGE_N} hexamesh) x shards {shard_counts:?} @ {large_n_cycles} cycles, \
         {host_cpus} host cpus"
    );
    let mut rows: Vec<Measured> = Vec::new();
    for &(scenario, rate) in GRID_SCENARIOS {
        for reference in [false, true] {
            let m = measure(side, rate, cycles, reference, scenario);
            eprintln!(
                "  {scenario:>16} {:>9}: {:.3} Mcycles/s, {:.3} Mflit-hops/s, {:.1} MB",
                m.path, m.mcycles_per_s, m.mflit_hops_per_s, m.heap_mb
            );
            rows.push(m);
        }
    }
    let arrangement =
        Arrangement::build(ArrangementKind::HexaMesh, LARGE_N).expect("valid hex count");
    for &shards in &shard_counts {
        let m = measure_sharded(arrangement.graph(), LARGE_N_RATE, large_n_cycles, shards);
        eprintln!(
            "  {:>16} shards={shards}: {:.4} Mcycles/s, {:.3} Mflit-hops/s, {:.1} MB",
            m.scenario, m.mcycles_per_s, m.mflit_hops_per_s, m.heap_mb
        );
        rows.push(m);
    }

    let serial_wall = rows
        .iter()
        .find(|m| m.scenario == "large_n" && m.shards == 1)
        .map(|m| m.wall_s)
        .expect("serial large_n row present");
    let mut table = Table::new(&[
        "scenario",
        "path",
        "shards",
        "rate",
        "cycles",
        "wall_s",
        "mcycles_per_s",
        "mflit_hops_per_s",
        "speedup_vs_serial",
        "heap_mb",
    ]);
    for m in &rows {
        let speedup_serial =
            if m.scenario == "large_n" { f3(serial_wall / m.wall_s) } else { String::new() };
        table.row(&[
            &m.scenario,
            &m.path,
            &m.shards,
            &f3(m.rate),
            &m.cycles,
            &f3(m.wall_s),
            &f3(m.mcycles_per_s),
            &f3(m.mflit_hops_per_s),
            &speedup_serial,
            &f3(m.heap_mb),
        ]);
    }

    let mut config = Value::object();
    config.set("side", side);
    config.set("cycles", cycles);
    config.set("large_n", LARGE_N);
    config.set("large_n_cycles", large_n_cycles);
    config.set("shards", Value::Arr(shard_counts.iter().map(|&s| Value::from(s)).collect()));
    config.set("host_cpus", host_cpus);
    let written = campaign.finish(&table, config).expect("write sinks");

    println!("large_n (n={LARGE_N}, rate {LARGE_N_RATE}) self-speedup vs serial:");
    for m in rows.iter().filter(|m| m.scenario == "large_n") {
        println!(
            "  shards={}: {:.2}x ({:.4} Mcycles/s)",
            m.shards,
            serial_wall / m.wall_s,
            m.mcycles_per_s
        );
    }
    for path in &written {
        println!("wrote {}", path.display());
    }
}
