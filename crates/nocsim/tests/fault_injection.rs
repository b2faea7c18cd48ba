//! Behavioural suite for live fault injection: the event-driven path must
//! stay bit-identical to the poll-every-cycle reference under faults, no
//! flit may be lost without being counted as a fault drop, source
//! retransmission must eventually deliver every packet on a network that
//! stays connected, and a partitioned network must squelch cut-off
//! traffic and still drain instead of wedging the watchdog.

use chiplet_graph::{gen, Graph};
use nocsim::{
    FaultEvent, FaultPlan, FaultSchedule, FaultTarget, RetransmitConfig, SimConfig, Simulator,
};

fn config(rate: f64) -> SimConfig {
    SimConfig {
        vcs: 4,
        buffer_depth: 4,
        injection_rate: rate,
        seed: 0xFA117,
        source_queue_cap: 16,
        ..SimConfig::paper_defaults()
    }
}

fn link_fault(a: usize, b: usize, cycle: u64) -> FaultEvent {
    FaultEvent { cycle, target: FaultTarget::Link { a, b } }
}

fn router_fault(r: usize, cycle: u64) -> FaultEvent {
    FaultEvent { cycle, target: FaultTarget::Router(r) }
}

/// Run 2,000 cycles with `plan` installed and the measurement window
/// open from cycle 0 (so the window counters see every accepted packet
/// and every drop — exact conservation), then drain.
fn faulted_drained(
    g: &Graph,
    config: SimConfig,
    plan: FaultPlan,
    reference: bool,
) -> Simulator {
    let mut sim = Simulator::new(g, config).expect("valid config");
    sim.set_reference_stepping(reference);
    sim.install_fault_plan(plan);
    sim.open_measurement_window();
    sim.run(2_000);
    assert!(sim.drain(200_000), "faulted network failed to drain");
    sim
}

#[test]
fn event_path_matches_reference_under_faults() {
    let g = gen::grid(4, 4);
    let plan = FaultPlan::new(FaultSchedule::new(vec![
        link_fault(5, 6, 700),
        router_fault(10, 1_100),
    ]));
    let event = faulted_drained(&g, config(0.12), plan.clone(), false);
    let reference = faulted_drained(&g, config(0.12), plan, true);
    assert_eq!(event.stats(), reference.stats());
    assert_eq!(event.cycle(), reference.cycle());
    assert_eq!(event.channel_loads(), reference.channel_loads());
    assert!(event.stats().fault_dropped_packets > 0, "faults must actually bite");
}

#[test]
fn every_accepted_packet_is_delivered_or_counted_dropped() {
    // Without retransmission, drain completion means each accepted packet
    // either arrived whole or lost flits to a fault — nothing vanishes.
    let g = gen::grid(4, 4);
    let plan = FaultPlan::new(FaultSchedule::new(vec![
        link_fault(1, 2, 600),
        link_fault(9, 13, 900),
        router_fault(6, 1_200),
    ]));
    let sim = faulted_drained(&g, config(0.15), plan, false);
    let stats = sim.stats();
    assert_eq!(sim.flits_in_network(), 0);
    assert!(stats.link_fault_dropped_flits > 0);
    assert!(stats.router_fault_dropped_flits > 0);
    assert_eq!(
        stats.received_packets + stats.fault_dropped_packets,
        stats.accepted_packets,
        "conservation: delivered + dropped must cover every accepted packet"
    );
}

#[test]
fn retransmission_delivers_every_packet_on_connected_network() {
    // Killing one grid link leaves the network connected, so with source
    // retransmission enabled every accepted packet must eventually arrive.
    let g = gen::grid(4, 4);
    let plan = FaultPlan::new(FaultSchedule::new(vec![link_fault(5, 6, 700)]))
        .with_retransmit(RetransmitConfig { timeout: 512, max_attempts: 16 });
    let sim = faulted_drained(&g, config(0.12), plan, false);
    let stats = sim.stats();
    assert!(stats.fault_dropped_packets > 0, "fault must drop something to retransmit");
    assert!(stats.retransmitted_packets > 0);
    assert_eq!(
        stats.received_packets, stats.accepted_packets,
        "retransmission must recover every dropped packet"
    );
}

#[test]
fn partitioned_network_squelches_and_still_drains() {
    // Two triangles joined by one bridge; killing the bridge partitions
    // the network. Cross-partition flits die, sources stop sampling cut
    // destinations (counted as squelched), and drain must still succeed.
    let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
        .expect("simple graph");
    let plan = FaultPlan::new(FaultSchedule::new(vec![link_fault(2, 3, 500)]));
    let sim = faulted_drained(&g, config(0.2), plan, false);
    let stats = sim.stats();
    assert!(stats.squelched_packets > 0, "cut-off generation must be squelched");
    assert_eq!(stats.received_packets + stats.fault_dropped_packets, stats.accepted_packets);
}

#[test]
fn retransmission_gives_up_across_a_partition() {
    // With retransmission on, packets severed by a partition must be
    // abandoned (the destination is unreachable) rather than retried
    // forever — otherwise the drain watchdog would wedge.
    let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
        .expect("simple graph");
    let plan = FaultPlan::new(FaultSchedule::new(vec![link_fault(2, 3, 500)]))
        .with_retransmit(RetransmitConfig { timeout: 256, max_attempts: 16 });
    let sim = faulted_drained(&g, config(0.2), plan, false);
    let stats = sim.stats();
    assert!(stats.fault_dropped_packets > 0);
    assert!(
        stats.received_packets < stats.accepted_packets,
        "cross-partition packets cannot be delivered"
    );
}

#[test]
fn dead_router_endpoints_stop_offering() {
    // After a router dies its endpoints neither inject nor eject; traffic
    // among the survivors keeps flowing.
    let g = gen::grid(3, 3);
    let plan = FaultPlan::new(FaultSchedule::new(vec![router_fault(4, 500)]));
    let mut sim = Simulator::new(&g, config(0.1)).expect("valid config");
    sim.install_fault_plan(plan);
    sim.open_measurement_window();
    sim.run(2_000);
    let before = sim.stats().received_packets;
    assert!(sim.drain(200_000));
    let stats = sim.stats();
    assert!(stats.received_packets > before, "survivors must keep delivering");
    assert!(stats.router_fault_dropped_flits > 0);
    assert!(stats.squelched_packets > 0, "survivors must stop sampling the dead endpoints");
}

#[test]
fn same_cycle_fault_batch_applies_atomically() {
    // Several failures at one cycle replay in schedule order and the run
    // still satisfies conservation.
    let g = gen::grid(4, 4);
    let plan = FaultPlan::new(FaultSchedule::new(vec![
        link_fault(0, 1, 800),
        link_fault(10, 11, 800),
        router_fault(5, 800),
    ]));
    let sim = faulted_drained(&g, config(0.12), plan, false);
    let stats = sim.stats();
    assert!(stats.fault_dropped_packets > 0);
    assert_eq!(stats.received_packets + stats.fault_dropped_packets, stats.accepted_packets);
}

#[test]
fn fault_before_window_only_counts_window_drops() {
    // A fault during warmup biases nothing inside the window: the window
    // counters only record drops that happen after it opens.
    let g = gen::grid(4, 4);
    let plan = FaultPlan::new(FaultSchedule::new(vec![link_fault(5, 6, 200)]));
    let mut sim = Simulator::new(&g, config(0.1)).expect("valid config");
    sim.install_fault_plan(plan);
    sim.run(400);
    sim.open_measurement_window();
    sim.run(1_000);
    let stats = sim.stats();
    assert_eq!(stats.link_fault_dropped_flits, 0);
    assert_eq!(stats.fault_dropped_packets, 0);
    assert!(stats.received_packets > 0, "degraded network still delivers");
}

#[test]
fn faulted_load_point_is_identical_across_shard_counts() {
    use nocsim::measure::{load_point, zero_load_latency};
    use nocsim::{MeasureConfig, ShardedSimulator};

    let g = gen::grid(4, 4);
    let base = config(0.1);
    let plan = FaultPlan::new(FaultSchedule::random_links(&g, 2, 2_500, 7));
    let schedule = MeasureConfig::quick();
    let mut serial = Simulator::new(&g, base).expect("valid");
    serial.install_fault_plan(plan.clone());
    let serial_stats = serial.run_to_window(schedule.warmup_cycles, schedule.measure_cycles);
    assert!(serial_stats.fault_dropped_packets > 0, "plan must bite inside the window");
    let zero_load = zero_load_latency(&g, &base).expect("connected");
    for shards in [1, 2, 4, 8] {
        let mut sim = ShardedSimulator::new(&g, base, shards).expect("valid");
        sim.install_fault_plan(plan.clone());
        let point = load_point(&mut sim, &schedule, zero_load);
        assert_eq!(point.stats, serial_stats, "{shards} shards vs serial");
        assert_eq!(point.deadlock, serial.deadlock_suspected(), "{shards} shards");
    }
}
