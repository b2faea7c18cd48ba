//! Drive the cycle-accurate simulator directly: one HexaMesh under three
//! traffic patterns, reporting latency and delivered throughput — the level
//! of control a NoC researcher needs below the figure-regeneration harness.
//!
//! Run with: `cargo run --release --example simulate_noc`

use hexamesh_repro::hexamesh::arrangement::{Arrangement, ArrangementKind};
use hexamesh_repro::nocsim::{measure, SimConfig, Simulator, TrafficPattern};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arrangement = Arrangement::build(ArrangementKind::HexaMesh, 19)?;
    let graph = arrangement.graph();

    println!("HexaMesh N=19 under the paper's router configuration");
    println!("(8 VCs, 8-flit buffers, 3-cycle routers, 27-cycle links)\n");

    let patterns: [(&str, TrafficPattern); 3] = [
        ("uniform random", TrafficPattern::UniformRandom),
        ("complement", TrafficPattern::Complement),
        ("neighbor shift", TrafficPattern::NeighborShift { shift: 2 }),
    ];

    println!(
        "{:<16} {:>12} {:>16} {:>14}",
        "pattern", "lat [cyc]", "accepted [f/c/e]", "packets"
    );
    for (name, pattern) in patterns {
        let config = SimConfig { pattern, injection_rate: 0.10, ..SimConfig::paper_defaults() };
        let mut sim = Simulator::new(graph, config)?;
        sim.run(3_000); // warmup
        sim.open_measurement_window();
        sim.run(6_000);
        let stats = sim.stats();
        println!(
            "{:<16} {:>12.1} {:>16.4} {:>14}",
            name,
            stats.avg_packet_latency.unwrap_or(f64::NAN),
            stats.accepted_flits_per_cycle_per_endpoint,
            stats.received_packets
        );
    }

    // Zero-load latency and the saturation point under uniform traffic.
    let config = SimConfig::paper_defaults();
    let zero_load = measure::zero_load_latency(graph, &config)?;
    println!("\nzero-load latency (structural): {zero_load:.1} cycles");
    let schedule = hexamesh_repro::nocsim::MeasureConfig::quick();
    let sat = measure::saturation_search(graph, &config, &schedule, zero_load)?;
    println!(
        "saturation: rate {:.3} flits/cycle/endpoint, accepted {:.3} ({}% of capacity)",
        sat.rate,
        sat.throughput,
        (sat.throughput * 100.0).round()
    );
    Ok(())
}
