//! The observability probe's zero-perturbation contract: attaching a
//! probe changes no reported statistic, and per-shard window series merge
//! to the serial run's series for any shard count.

use chiplet_graph::gen;
use nocsim::{Probe, ShardedSimulator, SimConfig, Simulator};

fn config(rate: f64) -> SimConfig {
    SimConfig {
        vcs: 4,
        buffer_depth: 4,
        injection_rate: rate,
        seed: 0xB0B,
        source_queue_cap: 16,
        ..SimConfig::paper_defaults()
    }
}

#[test]
fn probe_attached_stats_bit_identical_to_probe_free() {
    let g = gen::grid(4, 4);
    let cfg = config(0.12);

    let mut plain = Simulator::new(&g, cfg).unwrap();
    let plain_stats = plain.run_to_window(600, 2_400);

    let mut probed = Simulator::new(&g, cfg).unwrap();
    probed.attach_probe(Probe::new(200, 64));
    let probed_stats = probed.run_to_window(600, 2_400);

    assert_eq!(probed_stats, plain_stats, "probe must not perturb NetworkStats");
    assert_eq!(probed.channel_loads(), plain.channel_loads());
    assert_eq!(
        probed.latency_percentiles(&[0.5, 0.95, 0.99]),
        plain.latency_percentiles(&[0.5, 0.95, 0.99])
    );
    assert_eq!(probed.flits_in_network(), plain.flits_in_network());

    // And the probe actually recorded: 3_000 cycles at one sample per
    // 200 cycles is 15 windows, ascending and contiguous.
    let windows = probed.obs_windows();
    assert_eq!(windows.len(), 15, "3000 cycles / 200 = 15 windows");
    for (i, w) in windows.iter().enumerate() {
        assert_eq!(w.window, i as u64);
        assert_eq!(w.end_cycle, (i as u64 + 1) * 200);
        assert_eq!(w.start_cycle, i as u64 * 200);
    }
    let received: u64 = windows.iter().map(|w| w.received_flits).sum();
    assert!(received > 0, "a loaded network must deliver in some window");
    let moved: u64 = windows.iter().map(|w| w.link_flits).sum();
    assert!(moved > 0, "flits must traverse links");
    assert!(windows.iter().any(|w| w.avg_latency().is_some()));
}

#[test]
fn probe_attached_reference_stepping_matches_event_path() {
    let g = gen::grid(3, 3);
    let cfg = config(0.1);

    let mut event = Simulator::new(&g, cfg).unwrap();
    event.attach_probe(Probe::new(150, 64));
    let event_stats = event.run_to_window(450, 1_500);

    let mut reference = Simulator::new(&g, cfg).unwrap();
    reference.set_reference_stepping(true);
    reference.attach_probe(Probe::new(150, 64));
    let reference_stats = reference.run_to_window(450, 1_500);

    assert_eq!(event_stats, reference_stats);
    assert_eq!(event.obs_windows(), reference.obs_windows());

    // The event path's drain fast-forwards idle stretches; the probe still
    // samples at every boundary the polling drain steps through.
    assert_eq!(event.drain(20_000), reference.drain(20_000));
    assert_eq!(event.cycle(), reference.cycle());
    assert_eq!(event.obs_windows(), reference.obs_windows());
}

#[test]
fn window_series_merges_to_serial_under_shard_counts() {
    let g = gen::grid(4, 4);
    // (seed, sample period). Each run measures, then drains: to cycle
    // 4 744 with seed 0xB0B and 4 397 with seed 7. A sharded drain runs
    // whole lookahead windows past that cycle before rewinding to it, so
    // it passes the next sample boundary (4 750, 4 400) that the serial
    // drain never reaches.
    for (seed, every) in [(0xB0B, 250), (7, 50)] {
        let cfg = SimConfig { seed, ..config(0.1) };
        let probe = Probe::new(every, Probe::capacity_for(every, 22_600));

        let mut serial = Simulator::new(&g, cfg).unwrap();
        serial.attach_probe(probe);
        let serial_stats = serial.run_to_window(600, 2_000);
        assert!(serial.drain(20_000), "seed {seed}");
        let serial_windows = serial.obs_windows().to_vec();
        assert_eq!(
            serial_windows.len() as u64,
            serial.cycle() / every,
            "seed {seed}: the drain samples every boundary it passes"
        );

        for shards in [1, 2, 4, 8] {
            let case = format!("seed {seed}, period {every}, {shards} shards");
            let mut sharded = ShardedSimulator::new(&g, cfg, shards).unwrap();
            sharded.attach_probe(probe);
            let stats = sharded.run_to_window(600, 2_000);
            assert_eq!(stats, serial_stats, "{case}");
            assert!(sharded.drain(20_000), "{case}");
            assert_eq!(sharded.cycle(), serial.cycle(), "{case}");

            let merged = sharded.obs_windows();
            if shards == 1 {
                // One shard is the serial engine itself: everything is
                // equal, the in-network gauge included.
                assert_eq!(merged, serial_windows);
                assert_eq!(sharded.channel_loads(), serial.channel_loads());
                assert_eq!(
                    sharded.latency_percentiles(&[0.5, 0.95, 0.99]),
                    serial.latency_percentiles(&[0.5, 0.95, 0.99])
                );
                assert_eq!(sharded.deadlock_suspected(), serial.deadlock_suspected());
            }
            assert_eq!(merged.len(), serial_windows.len(), "{case}");
            for (m, s) in merged.iter().zip(&serial_windows) {
                // Merge order: ascending window index, aligned boundaries.
                assert_eq!(m.window, s.window, "{case}");
                assert_eq!(m.start_cycle, s.start_cycle, "{case}");
                assert_eq!(m.end_cycle, s.end_cycle, "{case}");
                // Endpoint-local counters and per-router / per-link
                // tallies are exact: every endpoint, router, and
                // (source-counted) link lives in exactly one shard and
                // evolves bit-identically to the serial run.
                assert_eq!(m.offered_packets, s.offered_packets, "{case}");
                assert_eq!(m.accepted_packets, s.accepted_packets, "{case}");
                assert_eq!(m.received_flits, s.received_flits, "{case}");
                assert_eq!(m.received_packets, s.received_packets, "{case}");
                assert_eq!(m.measured_packets, s.measured_packets, "{case}");
                assert_eq!(m.latency_sum, s.latency_sum, "{case}");
                assert_eq!(m.stalls, s.stalls, "{case}");
                assert_eq!(m.link_flits, s.link_flits, "{case}");
                assert_eq!(m.max_link_flits, s.max_link_flits, "{case}");
                assert_eq!(m.buffered_flits, s.buffered_flits, "{case}");
                // The in-network gauge sums each shard's owned region; a
                // flit mid-handoff between shards is attributed to
                // neither, so the merged gauge can only undercount the
                // serial one.
                assert!(m.flits_in_network <= s.flits_in_network, "{case}");
            }
        }
    }
}

#[test]
fn detach_returns_series_and_stops_recording() {
    let g = gen::grid(3, 3);
    let mut sim = Simulator::new(&g, config(0.1)).unwrap();
    sim.attach_probe(Probe::new(100, 8));
    sim.run(500);
    let series = sim.detach_probe();
    assert_eq!(series.len(), 5);
    assert!(sim.obs_windows().is_empty());
    sim.run(500);
    assert!(sim.obs_windows().is_empty(), "detached probe must not record");
}

#[test]
fn capacity_caps_the_series() {
    let g = gen::grid(3, 3);
    let mut sim = Simulator::new(&g, config(0.1)).unwrap();
    sim.attach_probe(Probe::new(100, 3));
    sim.run(1_000);
    let windows = sim.obs_windows();
    assert_eq!(windows.len(), 3, "capacity bounds the series");
    assert_eq!(windows.last().unwrap().end_cycle, 300);
}

#[test]
fn stall_counters_accumulate_under_heavy_load() {
    let g = gen::grid(3, 3);
    let mut sim = Simulator::new(&g, config(0.9)).unwrap();
    sim.run(3_000);
    let stalls = sim.stall_counters();
    assert!(
        stalls.vc_starved + stalls.credit_starved + stalls.switch_lost > 0,
        "an overloaded grid must stall somewhere: {stalls:?}"
    );
}
