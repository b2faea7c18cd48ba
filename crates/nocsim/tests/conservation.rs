//! Property-based tests of the simulator's conservation and determinism
//! invariants on randomised topologies and loads: no flit is ever lost,
//! duplicated, or delivered faster than physically possible.

use chiplet_graph::{gen, Graph};
use nocsim::{MeasureConfig, RoutingKind, SimConfig, Simulator, TrafficPattern};
use proptest::prelude::*;

/// Random connected topology with 2..=12 routers.
fn arb_topology() -> impl Strategy<Value = Graph> {
    (2usize..=12).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec(0u8..100, max_edges).prop_map(move |coins| {
            let mut k = 0;
            let g = gen::from_coin(n, |_, _| {
                let edge = coins[k] < 35;
                k += 1;
                edge
            });
            let mut edges: Vec<_> = g.edges().collect();
            for i in 1..n {
                if !g.has_edge(i - 1, i) {
                    edges.push((i - 1, i));
                }
            }
            Graph::from_edges(n, &edges).expect("still simple")
        })
    })
}

fn config(rate: f64, seed: u64, routing: RoutingKind) -> SimConfig {
    SimConfig {
        vcs: 4,
        buffer_depth: 4,
        routing,
        injection_rate: rate,
        seed,
        source_queue_cap: 8,
        ..SimConfig::paper_defaults()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn no_flit_lost_or_duplicated(
        g in arb_topology(),
        rate in 0.02f64..0.5,
        seed in 0u64..1000,
    ) {
        let mut sim =
            Simulator::new(&g, config(rate, seed, RoutingKind::MinimalAdaptiveEscape))
                .expect("valid");
        sim.open_measurement_window();
        sim.run(1_500);
        let drained = sim.drain(60_000);
        prop_assert!(drained, "network failed to drain");
        let stats = sim.stats();
        prop_assert_eq!(stats.received_packets, stats.accepted_packets);
        prop_assert_eq!(
            stats.received_flits,
            stats.accepted_packets * sim.config().packet_size as u64
        );
    }

    #[test]
    fn latency_at_least_structural_minimum(
        g in arb_topology(),
        seed in 0u64..1000,
    ) {
        let cfg = config(0.05, seed, RoutingKind::MinimalAdaptiveEscape);
        let mut sim = Simulator::new(&g, cfg).expect("valid");
        sim.open_measurement_window();
        sim.run(4_000);
        sim.drain(60_000);
        let stats = sim.stats();
        prop_assume!(stats.measured_packets > 0);
        // Cheapest possible packet: sibling endpoints, H = 0.
        let min = cfg.zero_load_cycles(0, cfg.packet_size);
        prop_assert!(stats.avg_packet_latency.expect("measured") >= min as f64);
    }

    #[test]
    fn determinism_across_identical_runs(
        g in arb_topology(),
        rate in 0.05f64..0.4,
        seed in 0u64..1000,
    ) {
        let run = || {
            let mut sim =
                Simulator::new(&g, config(rate, seed, RoutingKind::MinimalAdaptiveEscape))
                    .expect("valid");
            sim.run(200);
            sim.open_measurement_window();
            sim.run(1_200);
            sim.stats()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn updown_routing_also_conserves(
        g in arb_topology(),
        seed in 0u64..1000,
    ) {
        let mut sim =
            Simulator::new(&g, config(0.15, seed, RoutingKind::UpDownOnly)).expect("valid");
        sim.open_measurement_window();
        sim.run(1_500);
        prop_assert!(sim.drain(60_000));
        let stats = sim.stats();
        prop_assert_eq!(stats.received_packets, stats.accepted_packets);
    }

    #[test]
    fn throughput_monotone_in_offered_load_below_saturation(
        g in arb_topology(),
        seed in 0u64..1000,
    ) {
        // Accepted throughput at 4% offered must not be lower than at 2%
        // (both far below saturation for any topology here).
        let measure = |rate: f64| {
            let mut sim =
                Simulator::new(&g, config(rate, seed, RoutingKind::MinimalAdaptiveEscape))
                    .expect("valid");
            sim.run(1_000);
            sim.open_measurement_window();
            sim.run(6_000);
            sim.stats().accepted_flits_per_cycle_per_endpoint
        };
        let low = measure(0.02);
        let high = measure(0.04);
        prop_assert!(high >= low * 0.8, "low {low} high {high}");
    }
}

/// The escape mechanism must keep heavily loaded cyclic topologies live
/// where purely deterministic minimal routing is allowed to deadlock or
/// starve; run well past saturation and require continued ejection.
#[test]
fn adaptive_escape_stays_live_past_saturation() {
    // A ring of 8 routers: minimal routing has cyclic channel dependencies.
    let g = gen::cycle(8);
    let cfg = SimConfig {
        injection_rate: 1.0,
        vcs: 4,
        buffer_depth: 4,
        source_queue_cap: 8,
        pattern: TrafficPattern::Complement,
        ..SimConfig::paper_defaults()
    };
    let mut sim = Simulator::new(&g, cfg).expect("valid");
    sim.run(2_000);
    sim.open_measurement_window();
    sim.run(10_000);
    let stats = sim.stats();
    assert!(!sim.deadlock_suspected(), "escape VC must prevent deadlock");
    assert!(
        stats.received_packets > 100,
        "network must keep delivering past saturation (got {})",
        stats.received_packets
    );
}

/// Quick schedule sanity for the measurement harness on a fixed topology.
#[test]
fn measure_quick_schedule_is_usable() {
    let g = gen::grid(3, 3);
    let schedule = MeasureConfig::quick();
    let cfg = config(0.1, 7, RoutingKind::MinimalAdaptiveEscape);
    let point = nocsim::measure::run_load_point(&g, &cfg, &schedule).expect("valid");
    assert!(point.stats.received_packets > 0);
}

/// Regression: a 4-packet credit cycle found by `no_flit_lost_or_duplicated`
/// (8-router graph, rate ≈ 0.495, seed 986). Before output-VC allocation
/// required a credit, all four packets bound zero-credit adaptive VCs,
/// never returned to the allocation point, and the escape VC could not
/// save them. Must drain fully.
#[test]
fn regression_zero_credit_binding_deadlock() {
    let edges = [
        (0usize, 1usize),
        (0, 2),
        (0, 3),
        (0, 4),
        (0, 5),
        (0, 6),
        (1, 2),
        (2, 3),
        (2, 7),
        (3, 4),
        (4, 5),
        (4, 7),
        (5, 6),
        (6, 7),
    ];
    let g = Graph::from_edges(8, &edges).unwrap();
    let cfg = SimConfig {
        injection_rate: 0.49506137459632826,
        ..config(0.0, 986, RoutingKind::MinimalAdaptiveEscape)
    };
    let mut sim = Simulator::new(&g, cfg).unwrap();
    sim.open_measurement_window();
    sim.run(1_500);
    let drained = sim.drain(60_000);
    assert!(drained, "deadlock regression:\n{}", sim.blocked_packet_report());
    let stats = sim.stats();
    assert_eq!(stats.received_packets, stats.accepted_packets);
}
