//! Golden determinism suite for the sharded engine: a
//! [`ShardedSimulator`] run must produce *bit-identical* results to the
//! serial [`Simulator`] — same `NetworkStats`, same per-channel loads,
//! same latency percentiles, same flits in flight — across routing
//! kinds, router models, traffic patterns, heterogeneous link specs, and
//! shard counts 1/2/4/8. Plus a property test pinning that *any*
//! contiguous partition of the router ids (not just the balanced cuts)
//! yields identical statistics.

use chiplet_graph::{gen, Graph};
use nocsim::{
    LinkSpec, RouterModelKind, RoutingKind, ShardedSimulator, SimConfig, Simulator,
    TrafficPattern,
};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn base_config(rate: f64) -> SimConfig {
    SimConfig {
        vcs: 4,
        buffer_depth: 4,
        injection_rate: rate,
        seed: 0xBEEF,
        source_queue_cap: 16,
        ..SimConfig::paper_defaults()
    }
}

/// Everything serial and sharded must agree on, bit for bit.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    cycle: u64,
    stats: nocsim::NetworkStats,
    channel_loads: Vec<(usize, usize, u64)>,
    percentiles: Vec<Option<f64>>,
    in_network: usize,
}

fn serial_fingerprint(
    g: &Graph,
    config: SimConfig,
    spec: impl Fn(usize, usize) -> LinkSpec,
) -> Fingerprint {
    let mut sim = Simulator::with_link_specs(g, config, spec).expect("valid config");
    sim.run(600);
    sim.open_measurement_window();
    sim.run(2_500);
    Fingerprint {
        cycle: sim.cycle(),
        stats: sim.stats(),
        channel_loads: sim.channel_loads(),
        percentiles: sim.latency_percentiles(&[0.5, 0.9, 0.95, 0.99]),
        in_network: sim.flits_in_network(),
    }
}

fn sharded_fingerprint(
    g: &Graph,
    config: SimConfig,
    spec: impl Fn(usize, usize) -> LinkSpec,
    shards: usize,
) -> Fingerprint {
    let mut sim = ShardedSimulator::with_link_specs(g, config, spec, shards).expect("valid");
    sim.run(600);
    sim.open_measurement_window();
    sim.run(2_500);
    Fingerprint {
        cycle: sim.cycle(),
        stats: sim.stats(),
        channel_loads: sim.channel_loads(),
        percentiles: sim.latency_percentiles(&[0.5, 0.9, 0.95, 0.99]),
        in_network: sim.flits_in_network(),
    }
}

fn assert_equivalent(
    g: &Graph,
    config: SimConfig,
    spec: impl Fn(usize, usize) -> LinkSpec + Copy,
    label: &str,
) {
    let serial = serial_fingerprint(g, config, spec);
    for shards in SHARD_COUNTS {
        let sharded = sharded_fingerprint(g, config, spec, shards);
        assert_eq!(sharded, serial, "sharded ({shards}) vs serial mismatch: {label}");
    }
}

fn uniform_spec(config: &SimConfig) -> impl Fn(usize, usize) -> LinkSpec + Copy {
    let latency = config.link_latency;
    move |_, _| LinkSpec::uniform(latency)
}

#[test]
fn sharded_golden_across_routing_kinds() {
    let g = gen::grid(4, 4);
    for routing in [
        RoutingKind::MinimalAdaptiveEscape,
        RoutingKind::MinimalDeterministic,
        RoutingKind::UpDownOnly,
    ] {
        let config = SimConfig { routing, ..base_config(0.08) };
        assert_equivalent(&g, config, uniform_spec(&config), &format!("{routing:?}"));
    }
}

#[test]
fn sharded_golden_across_traffic_patterns() {
    let g = gen::grid(3, 3);
    for pattern in [
        TrafficPattern::UniformRandom,
        TrafficPattern::Complement,
        TrafficPattern::NeighborShift { shift: 3 },
        TrafficPattern::BitComplement,
        TrafficPattern::BitReverse,
        TrafficPattern::Tornado,
        TrafficPattern::Hotspot { num_hotspots: 2, fraction_permille: 700 },
    ] {
        let config = SimConfig { pattern, ..base_config(0.07) };
        assert_equivalent(&g, config, uniform_spec(&config), &format!("{pattern:?}"));
    }
}

#[test]
fn sharded_golden_under_heterogeneous_link_specs() {
    // A ring cut by any contiguous partition has boundary links of
    // different latencies: exercises the min-latency lookahead window.
    let g = gen::cycle(6);
    let config = base_config(0.08);
    let spec = |u: usize, v: usize| {
        if (u, v) == (0, 1) || (u, v) == (1, 0) {
            LinkSpec { latency: 41, interval: 5 }
        } else if (u, v) == (2, 3) || (u, v) == (3, 2) {
            LinkSpec { latency: 3, interval: 1 }
        } else {
            LinkSpec { latency: 27, interval: 2 }
        }
    };
    assert_equivalent(&g, config, spec, "heterogeneous links");
}

#[test]
fn sharded_golden_across_router_models() {
    // Every router model must shard bit-identically: per-router policy
    // RNG state lives with the owning shard, boundary replays re-apply
    // the crossbar-deepened pipeline, and arbitration keys carry no
    // global state.
    let g = gen::grid(4, 4);
    for kind in RouterModelKind::ALL {
        let config = SimConfig { router: kind.model(), ..base_config(0.12) };
        assert_equivalent(&g, config, uniform_spec(&config), kind.name());
    }
}

#[test]
fn sharded_golden_at_fast_forward_loads() {
    // So little traffic that idle stretches dominate: per-shard
    // fast-forward must still stop at every window boundary handoff.
    let g = gen::grid(3, 3);
    let config = base_config(0.004);
    assert_equivalent(&g, config, uniform_spec(&config), "fast-forward");
}

#[test]
fn sharded_golden_on_irregular_topology() {
    let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6)])
        .expect("simple graph");
    let config = base_config(0.1);
    assert_equivalent(&g, config, uniform_spec(&config), "irregular");
}

#[test]
fn sharded_golden_on_dense_topology() {
    // A complete graph puts every link on some shard boundary — the
    // worst case for handoff volume relative to local work.
    let g = gen::complete(6);
    let config = base_config(0.1);
    assert_equivalent(&g, config, uniform_spec(&config), "complete");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any contiguous partition — not just the balanced default cuts —
    /// yields statistics bit-identical to the serial run.
    #[test]
    fn any_contiguous_partition_is_bit_identical(
        raw_cuts in proptest::collection::vec(1usize..16, 1..5),
        rate in 0.02f64..0.2,
    ) {
        let g = gen::grid(4, 4);
        let n = g.num_vertices();
        let mut cuts: Vec<usize> = raw_cuts.into_iter().filter(|&c| c < n).collect();
        cuts.push(0);
        cuts.push(n);
        cuts.sort_unstable();
        cuts.dedup();
        let config = base_config(rate);
        let latency = config.link_latency;
        let spec = move |_: usize, _: usize| LinkSpec::uniform(latency);

        let mut serial = Simulator::new(&g, config).expect("valid");
        let serial_stats = serial.run_to_window(400, 1_200);

        let mut sharded =
            ShardedSimulator::with_partition(&g, config, spec, &cuts).expect("valid cuts");
        let sharded_stats = sharded.run_to_window(400, 1_200);

        prop_assert_eq!(sharded_stats, serial_stats, "cuts {:?}", cuts);
        prop_assert_eq!(sharded.flits_in_network(), serial.flits_in_network());
        prop_assert_eq!(sharded.channel_loads(), serial.channel_loads());
    }

    /// A run that loses at least one link mid-flight stays bit-identical
    /// across shard counts: failure events replay in global order at the
    /// sync barriers, so the doomed set, the rebuilt tables, and the
    /// post-fault traffic all match the serial engine exactly.
    #[test]
    fn mid_run_link_failure_is_bit_identical(
        rate in 0.03f64..0.2,
        fault_seed in 0u64..500,
        fault_cycle in 450u64..1_400,
        extra in 0u8..2,
        extra_cycle in 1_450u64..2_400,
    ) {
        use nocsim::{FaultPlan, FaultSchedule};

        let g = gen::grid(4, 4);
        let mut events =
            FaultSchedule::random_links(&g, 1, fault_cycle, fault_seed).events().to_vec();
        if extra == 1 {
            events.extend(
                FaultSchedule::random_links(&g, 1, extra_cycle, fault_seed ^ 0x5A5A)
                    .events()
                    .iter()
                    .copied(),
            );
        }
        let plan = FaultPlan::new(FaultSchedule::new(events));
        let config = base_config(rate);

        let mut serial = Simulator::new(&g, config).expect("valid");
        serial.install_fault_plan(plan.clone());
        let serial_stats = serial.run_to_window(400, 2_200);

        for shards in SHARD_COUNTS {
            let latency = config.link_latency;
            let mut sharded = ShardedSimulator::with_link_specs(
                &g,
                config,
                move |_, _| LinkSpec::uniform(latency),
                shards,
            )
            .expect("valid");
            sharded.install_fault_plan(plan.clone());
            let sharded_stats = sharded.run_to_window(400, 2_200);
            prop_assert_eq!(&sharded_stats, &serial_stats, "{} shards", shards);
            prop_assert_eq!(sharded.cycle(), serial.cycle());
            prop_assert_eq!(sharded.flits_in_network(), serial.flits_in_network());
            prop_assert_eq!(sharded.channel_loads(), serial.channel_loads());
        }
    }
}
