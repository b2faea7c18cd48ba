//! Golden equivalence suite: the event-driven hot path must produce
//! *bit-identical* results to the forced poll-every-cycle reference path
//! ([`Simulator::set_reference_stepping`]) — same `NetworkStats`, same
//! per-channel loads, same latency percentiles — across routing kinds,
//! traffic patterns, heterogeneous link specs, and the drain schedule.
//! Plus a property test pinning the new cached-`next_due` [`DelayLine`]
//! to a naive model of the original semantics.

use std::collections::VecDeque;

use chiplet_graph::{gen, Graph};
use nocsim::channel::{DelayLine, IDLE};
use nocsim::{LinkSpec, RouterModelKind, RoutingKind, SimConfig, Simulator, TrafficPattern};
use proptest::prelude::*;

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

/// Everything the two paths must agree on, bit for bit.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    cycle: u64,
    stats: nocsim::NetworkStats,
    channel_loads: Vec<(usize, usize, u64)>,
    percentiles: Vec<Option<f64>>,
    in_network: usize,
    drained: Option<bool>,
}

/// Runs warmup + measurement (+ optional drain) under one stepping mode.
fn fingerprint(
    g: &Graph,
    config: SimConfig,
    spec: impl Fn(usize, usize) -> LinkSpec,
    reference: bool,
    drain: bool,
) -> Fingerprint {
    let mut sim = Simulator::with_link_specs(g, config, spec).expect("valid config");
    sim.set_reference_stepping(reference);
    sim.run(600);
    sim.open_measurement_window();
    sim.run(2_500);
    let drained = drain.then(|| sim.drain(40_000));
    Fingerprint {
        cycle: sim.cycle(),
        stats: sim.stats(),
        channel_loads: sim.channel_loads(),
        percentiles: sim.latency_percentiles(&[0.5, 0.9, 0.95, 0.99]),
        in_network: sim.flits_in_network(),
        drained,
    }
}

fn assert_equivalent(
    g: &Graph,
    config: SimConfig,
    spec: impl Fn(usize, usize) -> LinkSpec + Copy,
    drain: bool,
    label: &str,
) {
    let event = fingerprint(g, config, spec, false, drain);
    let reference = fingerprint(g, config, spec, true, drain);
    assert_eq!(event, reference, "event vs reference mismatch: {label}");
}

fn uniform_spec(config: &SimConfig) -> impl Fn(usize, usize) -> LinkSpec + Copy {
    let latency = config.link_latency;
    move |_, _| LinkSpec::uniform(latency)
}

#[test]
fn golden_across_routing_kinds() {
    let g = gen::grid(4, 4);
    for routing in [
        RoutingKind::MinimalAdaptiveEscape,
        RoutingKind::MinimalDeterministic,
        RoutingKind::UpDownOnly,
    ] {
        let config = SimConfig { routing, ..base_config(0.08) };
        assert_equivalent(&g, config, uniform_spec(&config), false, &format!("{routing:?}"));
    }
}

#[test]
fn golden_across_traffic_patterns() {
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
        assert_equivalent(&g, config, uniform_spec(&config), false, &format!("{pattern:?}"));
    }
}

#[test]
fn golden_under_heterogeneous_link_specs() {
    // A ring with one serialized slow link and one fast link: exercises
    // per-line event horizons that differ per link.
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
    assert_equivalent(&g, config, spec, false, "heterogeneous links");
}

#[test]
fn golden_through_drain() {
    let g = gen::grid(3, 3);
    // High enough load that drain starts with real backlog everywhere.
    let config = base_config(0.25);
    assert_equivalent(&g, config, uniform_spec(&config), true, "drain");
}

#[test]
fn golden_at_fast_forward_loads() {
    // So little traffic that idle stretches dominate: exercises the
    // cycle fast-forward against exhaustive stepping.
    let g = gen::grid(3, 3);
    let config = base_config(0.004);
    assert_equivalent(&g, config, uniform_spec(&config), true, "fast-forward");
}

#[test]
fn golden_on_irregular_topology() {
    let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6)])
        .expect("simple graph");
    let config = base_config(0.1);
    assert_equivalent(&g, config, uniform_spec(&config), true, "irregular");
}

#[test]
fn golden_across_router_models() {
    // Every router model — not just the default — must keep the
    // event-driven and reference paths bit-identical: the policy RNG and
    // the arbitration keys are pure functions of router state, never of
    // the stepping mode.
    let g = gen::grid(4, 4);
    for kind in RouterModelKind::ALL {
        let config = SimConfig { router: kind.model(), ..base_config(0.12) };
        assert_equivalent(&g, config, uniform_spec(&config), true, kind.name());
    }
}

#[test]
fn default_router_model_is_pinned_to_pre_axis_output() {
    // The exact statistics the pre-rmodel simulator produced for this
    // configuration (captured before the router axis landed). Any drift
    // in the default model — a reordered draw, a changed tie-break —
    // fails here even if event/reference stay self-consistent.
    let g = gen::grid(4, 4);
    let config = base_config(0.12);
    let fp = fingerprint(&g, config, uniform_spec(&config), false, false);
    assert_eq!(config.router, nocsim::RouterModel::default());
    assert_eq!(
        (fp.cycle, fp.stats.received_packets, fp.stats.received_flits, fp.in_network),
        PRE_AXIS_FINGERPRINT,
        "default router model drifted from the pre-axis simulator"
    );
    assert_eq!(fp.stats.avg_packet_latency.map(f64::to_bits), Some(PRE_AXIS_AVG_LATENCY_BITS));
}

/// `(cycle, received_packets, received_flits, flits_in_network)` of the
/// pre-axis simulator for `base_config(0.12)` on the 4×4 grid above.
const PRE_AXIS_FINGERPRINT: (u64, u64, u64, usize) = (3_100, 777, 3_107, 1_079);

/// Bit pattern of the pre-axis mean packet latency for the same run.
const PRE_AXIS_AVG_LATENCY_BITS: u64 = 4_650_781_536_326_259_343;

#[test]
fn switching_modes_mid_run_is_seamless() {
    // event → reference → event must equal a pure reference run: leaving
    // reference mode rebuilds the event wheel and active sets exactly.
    let g = gen::grid(3, 3);
    let config = base_config(0.12);
    let mut mixed = Simulator::new(&g, config).expect("valid");
    mixed.run(700);
    mixed.set_reference_stepping(true);
    mixed.run(700);
    mixed.set_reference_stepping(false);
    mixed.open_measurement_window();
    mixed.run(1_400);

    let mut pure = Simulator::new(&g, config).expect("valid");
    pure.set_reference_stepping(true);
    pure.run(1_400);
    pure.open_measurement_window();
    pure.run(1_400);

    assert_eq!(mixed.stats(), pure.stats());
    assert_eq!(mixed.channel_loads(), pure.channel_loads());
    assert_eq!(mixed.flits_in_network(), pure.flits_in_network());
}

#[test]
fn delivery_logs_match_per_cycle() {
    // Both paths log the same deliveries in each cycle. The order within a
    // cycle is unspecified (the event path follows its wheel), so each
    // cycle's entries are compared sorted.
    let g = gen::grid(4, 4);
    let log = |reference: bool| {
        let mut sim = Simulator::new(&g, base_config(0.0)).expect("valid");
        sim.set_reference_stepping(reference);
        sim.set_delivery_log(true);
        let endpoints = sim.num_endpoints();
        let mut log = Vec::new();
        // Bursts from every endpoint at once make deliveries share cycles.
        for burst in 1..=6 {
            for src in 0..endpoints {
                let _ = sim.offer_packet(src, (src + 5 * burst) % endpoints, 4);
            }
            let until = sim.cycle() + 150;
            while sim.run_until_deliveries(until) {
                sim.take_deliveries(&mut log);
            }
        }
        assert!(sim.drain(10_000), "network drains");
        sim.take_deliveries(&mut log);
        assert!(log.windows(2).all(|w| w[0].cycle <= w[1].cycle), "log not in cycle order");
        log.sort_by_key(|d| (d.cycle, d.dest, d.packet));
        log
    };
    let event = log(false);
    assert!(event.windows(2).any(|w| w[0].cycle == w[1].cycle), "no cycle with two deliveries");
    assert_eq!(event, log(true));
}

// ── DelayLine vs naive model ────────────────────────────────────────────

/// The pre-optimization delay line, reimplemented as the obvious model:
/// a sorted queue scanned on every pop, no cached `next_due`.
struct ModelLine {
    latency: u64,
    interval: u64,
    queue: VecDeque<(u64, u32)>,
    last_delivery: Option<u64>,
}

impl ModelLine {
    fn new(latency: u64, interval: u64) -> Self {
        Self { latency, interval, queue: VecDeque::new(), last_delivery: None }
    }

    fn push(&mut self, cycle: u64, extra: u64, item: u32) {
        let mut deliver_at = cycle + self.latency + extra;
        if let Some(last) = self.last_delivery {
            deliver_at = deliver_at.max(last + self.interval);
        }
        self.last_delivery = Some(deliver_at);
        self.queue.push_back((deliver_at, item));
    }

    fn pop_due(&mut self, cycle: u64) -> Option<u32> {
        match self.queue.front() {
            Some(&(due, _)) if due <= cycle => self.queue.pop_front().map(|(_, x)| x),
            _ => None,
        }
    }

    fn next_due(&self) -> u64 {
        self.queue.front().map_or(IDLE, |&(due, _)| due)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn delay_line_matches_old_semantics(
        latency in 1u64..30,
        interval in 1u64..5,
        extra in 0u64..4,
        ops in proptest::collection::vec((proptest::bool::ANY, 0usize..3), 1..150),
    ) {
        let mut line: DelayLine<u32> = DelayLine::with_interval(latency, interval);
        let mut model = ModelLine::new(latency, interval);
        let mut next_item = 0u32;
        for (t, &(push, pops)) in ops.iter().enumerate() {
            let t = t as u64;
            if push {
                line.push(t, extra, next_item);
                model.push(t, extra, next_item);
                next_item += 1;
            }
            for _ in 0..pops {
                prop_assert_eq!(line.pop_due(t), model.pop_due(t));
            }
            prop_assert_eq!(line.in_flight(), model.queue.len());
            prop_assert_eq!(line.next_due(), model.next_due());
        }
        // Drain both far in the future; order and contents must agree.
        let late = ops.len() as u64 * (interval + 1) + latency + extra + 10;
        loop {
            let (a, b) = (line.pop_due(late), model.pop_due(late));
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert!(line.is_empty());
    }
}
