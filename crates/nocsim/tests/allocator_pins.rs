//! Allocator pins: every router model under every routing kind, on a
//! regular and an irregular graph, at a saturating and a moderate rate,
//! must reproduce a recorded digest of its simulated outputs. Each digest
//! covers the rendered `NetworkStats`, the stall counters and the
//! per-channel loads, so a change to VC or switch allocation that is meant
//! to save host time only must leave every entry equal. The table was
//! recorded from the scan-based allocator that walked every input and
//! output VC on each pass; do not re-record it to make a change pass.
//!
//! A few faulted runs pin the fault purge too: it releases bindings and
//! swaps in degraded routing tables under routers that may hold waiting
//! heads.

use chiplet_graph::{gen, Graph};
use nocsim::{
    FaultEvent, FaultPlan, FaultSchedule, FaultTarget, RouterModelKind, RoutingKind, SimConfig,
    Simulator,
};

const ROUTINGS: [RoutingKind; 3] = [
    RoutingKind::MinimalAdaptiveEscape,
    RoutingKind::MinimalDeterministic,
    RoutingKind::UpDownOnly,
];

/// A connected irregular graph on 12 routers: each pair is linked with
/// probability 0.35 from a fixed splitmix64 stream, and the chain
/// `0-1-…-11` is added where missing, as `tests/conservation.rs` draws its
/// topologies.
fn irregular() -> Graph {
    let n = 12;
    let mut state: u64 = 0x0005_EEDA_110C;
    let g = gen::from_coin(n, |_, _| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % 100 < 35
    });
    let mut edges: Vec<_> = g.edges().collect();
    for i in 1..n {
        if !g.has_edge(i - 1, i) {
            edges.push((i - 1, i));
        }
    }
    Graph::from_edges(n, &edges).expect("still simple")
}

fn config(model: RouterModelKind, routing: RoutingKind, rate: f64) -> SimConfig {
    SimConfig {
        vcs: 4,
        buffer_depth: 4,
        routing,
        injection_rate: rate,
        seed: 0x000A_110C,
        source_queue_cap: 16,
        router: model.model(),
        ..SimConfig::paper_defaults()
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Runs a short warmup and measurement window and digests every output
/// the allocator can move.
fn digest(g: &Graph, config: SimConfig, plan: Option<FaultPlan>) -> u64 {
    let mut sim = Simulator::new(g, config).expect("valid config");
    if let Some(plan) = plan {
        sim.install_fault_plan(plan);
    }
    sim.run(200);
    sim.open_measurement_window();
    sim.run(700);
    let rendered =
        format!("{:?}|{:?}|{:?}", sim.stats(), sim.stall_counters(), sim.channel_loads());
    fnv1a(rendered.as_bytes())
}

/// `(label, digest)` for every case, in a fixed order.
fn digests() -> Vec<(String, u64)> {
    let graphs = [("grid4x4", gen::grid(4, 4)), ("irregular12", irregular())];
    let mut out = Vec::new();
    for (gname, g) in &graphs {
        for routing in ROUTINGS {
            for model in RouterModelKind::ALL {
                for rate in [1.0, 0.3] {
                    let label = format!("{gname}/{routing:?}/{}/{rate}", model.name());
                    out.push((label, digest(g, config(model, routing, rate), None)));
                }
            }
        }
    }
    // A link dies inside the warmup and a router inside the window, both
    // while the grid is saturated.
    let grid = gen::grid(4, 4);
    let plan = FaultPlan::new(FaultSchedule::new(vec![
        FaultEvent { cycle: 150, target: FaultTarget::Link { a: 5, b: 6 } },
        FaultEvent { cycle: 500, target: FaultTarget::Router(10) },
    ]));
    for routing in ROUTINGS {
        for model in RouterModelKind::ALL {
            let label = format!("grid4x4-faulted/{routing:?}/{}/1", model.name());
            out.push((label, digest(&grid, config(model, routing, 1.0), Some(plan.clone()))));
        }
    }
    out
}

const PINNED: &[(&str, u64)] = &[
    ("grid4x4/MinimalAdaptiveEscape/baseline/1", 0xc503cc92dff0b92c),
    ("grid4x4/MinimalAdaptiveEscape/baseline/0.3", 0xb83a57dcaceb33a8),
    ("grid4x4/MinimalAdaptiveEscape/randomvc/1", 0x5b2264cdbdc0b7f0),
    ("grid4x4/MinimalAdaptiveEscape/randomvc/0.3", 0xffb83987611ead59),
    ("grid4x4/MinimalAdaptiveEscape/leastloaded/1", 0x0c90330e5905a0f1),
    ("grid4x4/MinimalAdaptiveEscape/leastloaded/0.3", 0x471bca866f7a7225),
    ("grid4x4/MinimalAdaptiveEscape/oldest/1", 0xdcb4094341c8fa95),
    ("grid4x4/MinimalAdaptiveEscape/oldest/0.3", 0x8be33328c010d23c),
    ("grid4x4/MinimalAdaptiveEscape/transit/1", 0x959733abada0854a),
    ("grid4x4/MinimalAdaptiveEscape/transit/0.3", 0x478469af9d83faae),
    ("grid4x4/MinimalAdaptiveEscape/bubble/1", 0x9291b9be67298bb8),
    ("grid4x4/MinimalAdaptiveEscape/bubble/0.3", 0x1a7c3e5494ebf126),
    ("grid4x4/MinimalAdaptiveEscape/deepxbar/1", 0xfd3f219e12d85a96),
    ("grid4x4/MinimalAdaptiveEscape/deepxbar/0.3", 0xe13b7483a149a040),
    ("grid4x4/MinimalAdaptiveEscape/fortified/1", 0xc4241a9339c197df),
    ("grid4x4/MinimalAdaptiveEscape/fortified/0.3", 0x956bf76d031e7745),
    ("grid4x4/MinimalDeterministic/baseline/1", 0x1293451c863cec9a),
    ("grid4x4/MinimalDeterministic/baseline/0.3", 0x7946d0de35f43f51),
    ("grid4x4/MinimalDeterministic/randomvc/1", 0x5277b93d8fa00e2a),
    ("grid4x4/MinimalDeterministic/randomvc/0.3", 0xb2df2880af19ffa0),
    ("grid4x4/MinimalDeterministic/leastloaded/1", 0x1293451c863cec9a),
    ("grid4x4/MinimalDeterministic/leastloaded/0.3", 0x7946d0de35f43f51),
    ("grid4x4/MinimalDeterministic/oldest/1", 0x91cb692760219c1d),
    ("grid4x4/MinimalDeterministic/oldest/0.3", 0x18300070d3cde705),
    ("grid4x4/MinimalDeterministic/transit/1", 0xe6b168a89b20a311),
    ("grid4x4/MinimalDeterministic/transit/0.3", 0x8f383807c02da8a6),
    ("grid4x4/MinimalDeterministic/bubble/1", 0x1293451c863cec9a),
    ("grid4x4/MinimalDeterministic/bubble/0.3", 0x7946d0de35f43f51),
    ("grid4x4/MinimalDeterministic/deepxbar/1", 0xd58eb4ae31eaa0d7),
    ("grid4x4/MinimalDeterministic/deepxbar/0.3", 0x19a42d00cd390e7b),
    ("grid4x4/MinimalDeterministic/fortified/1", 0x91cb692760219c1d),
    ("grid4x4/MinimalDeterministic/fortified/0.3", 0x18300070d3cde705),
    ("grid4x4/UpDownOnly/baseline/1", 0x683b532f6f998768),
    ("grid4x4/UpDownOnly/baseline/0.3", 0xf088d2cad8df339f),
    ("grid4x4/UpDownOnly/randomvc/1", 0xcd83a1feb903a6d3),
    ("grid4x4/UpDownOnly/randomvc/0.3", 0xd0931a21990d98ca),
    ("grid4x4/UpDownOnly/leastloaded/1", 0x683b532f6f998768),
    ("grid4x4/UpDownOnly/leastloaded/0.3", 0xf088d2cad8df339f),
    ("grid4x4/UpDownOnly/oldest/1", 0x6f6ead9e8b4044cf),
    ("grid4x4/UpDownOnly/oldest/0.3", 0xe98d851c312fd923),
    ("grid4x4/UpDownOnly/transit/1", 0x167cad58baed2c30),
    ("grid4x4/UpDownOnly/transit/0.3", 0x94a4a6c6dc403add),
    ("grid4x4/UpDownOnly/bubble/1", 0x683b532f6f998768),
    ("grid4x4/UpDownOnly/bubble/0.3", 0xf088d2cad8df339f),
    ("grid4x4/UpDownOnly/deepxbar/1", 0xfb6efdaf5c0fd6a3),
    ("grid4x4/UpDownOnly/deepxbar/0.3", 0x7df4a2fb0bbabd66),
    ("grid4x4/UpDownOnly/fortified/1", 0x6f6ead9e8b4044cf),
    ("grid4x4/UpDownOnly/fortified/0.3", 0xe98d851c312fd923),
    ("irregular12/MinimalAdaptiveEscape/baseline/1", 0x72f59e8c5c39430e),
    ("irregular12/MinimalAdaptiveEscape/baseline/0.3", 0x582149cc306418c6),
    ("irregular12/MinimalAdaptiveEscape/randomvc/1", 0xf10af8e432450c6c),
    ("irregular12/MinimalAdaptiveEscape/randomvc/0.3", 0x4bb194600e566a52),
    ("irregular12/MinimalAdaptiveEscape/leastloaded/1", 0x2f821df39fe2553d),
    ("irregular12/MinimalAdaptiveEscape/leastloaded/0.3", 0x006073b5fd17c566),
    ("irregular12/MinimalAdaptiveEscape/oldest/1", 0x0f7b4c1125d2880a),
    ("irregular12/MinimalAdaptiveEscape/oldest/0.3", 0xadff62a2fff01328),
    ("irregular12/MinimalAdaptiveEscape/transit/1", 0x63098c07c9f120ca),
    ("irregular12/MinimalAdaptiveEscape/transit/0.3", 0x67ae7073a454372e),
    ("irregular12/MinimalAdaptiveEscape/bubble/1", 0xaf65e02bb31f3c51),
    ("irregular12/MinimalAdaptiveEscape/bubble/0.3", 0x7a9c5dd14c1637c2),
    ("irregular12/MinimalAdaptiveEscape/deepxbar/1", 0x4bf8b9cc8e32a0bf),
    ("irregular12/MinimalAdaptiveEscape/deepxbar/0.3", 0xf86cd7f0843b2c09),
    ("irregular12/MinimalAdaptiveEscape/fortified/1", 0xe118f2980b3d6740),
    ("irregular12/MinimalAdaptiveEscape/fortified/0.3", 0x3df9a97891cbebaf),
    ("irregular12/MinimalDeterministic/baseline/1", 0x141a722ad0c066ac),
    ("irregular12/MinimalDeterministic/baseline/0.3", 0x6a553da43a80252c),
    ("irregular12/MinimalDeterministic/randomvc/1", 0x40dd9f0ad35f13d6),
    ("irregular12/MinimalDeterministic/randomvc/0.3", 0xd3c71331f6424d19),
    ("irregular12/MinimalDeterministic/leastloaded/1", 0x141a722ad0c066ac),
    ("irregular12/MinimalDeterministic/leastloaded/0.3", 0x6a553da43a80252c),
    ("irregular12/MinimalDeterministic/oldest/1", 0x3f931af6ee71e408),
    ("irregular12/MinimalDeterministic/oldest/0.3", 0x0faa7e56d7823b05),
    ("irregular12/MinimalDeterministic/transit/1", 0xce46a44b71b373c4),
    ("irregular12/MinimalDeterministic/transit/0.3", 0xb81716953c0f812e),
    ("irregular12/MinimalDeterministic/bubble/1", 0x141a722ad0c066ac),
    ("irregular12/MinimalDeterministic/bubble/0.3", 0x6a553da43a80252c),
    ("irregular12/MinimalDeterministic/deepxbar/1", 0xfbddf69cfa6971c6),
    ("irregular12/MinimalDeterministic/deepxbar/0.3", 0x1b0bb583f2816478),
    ("irregular12/MinimalDeterministic/fortified/1", 0x3f931af6ee71e408),
    ("irregular12/MinimalDeterministic/fortified/0.3", 0x0faa7e56d7823b05),
    ("irregular12/UpDownOnly/baseline/1", 0x93610301cf608435),
    ("irregular12/UpDownOnly/baseline/0.3", 0x304fa7e2137b9c9f),
    ("irregular12/UpDownOnly/randomvc/1", 0x3713b76ea2e0af1c),
    ("irregular12/UpDownOnly/randomvc/0.3", 0x920bf9863c4f1930),
    ("irregular12/UpDownOnly/leastloaded/1", 0x93610301cf608435),
    ("irregular12/UpDownOnly/leastloaded/0.3", 0x304fa7e2137b9c9f),
    ("irregular12/UpDownOnly/oldest/1", 0xcaf10fded5011564),
    ("irregular12/UpDownOnly/oldest/0.3", 0x4a9fb3d5aae12a3d),
    ("irregular12/UpDownOnly/transit/1", 0xfb1d351a696ad08d),
    ("irregular12/UpDownOnly/transit/0.3", 0xbc1352cd2fafb643),
    ("irregular12/UpDownOnly/bubble/1", 0x93610301cf608435),
    ("irregular12/UpDownOnly/bubble/0.3", 0x304fa7e2137b9c9f),
    ("irregular12/UpDownOnly/deepxbar/1", 0xbb802e33b77dfa22),
    ("irregular12/UpDownOnly/deepxbar/0.3", 0x141edf666c844a08),
    ("irregular12/UpDownOnly/fortified/1", 0xcaf10fded5011564),
    ("irregular12/UpDownOnly/fortified/0.3", 0x4a9fb3d5aae12a3d),
    ("grid4x4-faulted/MinimalAdaptiveEscape/baseline/1", 0x0120de66e4b3484b),
    ("grid4x4-faulted/MinimalAdaptiveEscape/randomvc/1", 0x73a85a493aec7c89),
    ("grid4x4-faulted/MinimalAdaptiveEscape/leastloaded/1", 0xb3db3a876771a95c),
    ("grid4x4-faulted/MinimalAdaptiveEscape/oldest/1", 0xcb0c20061cf07b8f),
    ("grid4x4-faulted/MinimalAdaptiveEscape/transit/1", 0x1f759e363a38ae48),
    ("grid4x4-faulted/MinimalAdaptiveEscape/bubble/1", 0x87f07b2a7e3b185d),
    ("grid4x4-faulted/MinimalAdaptiveEscape/deepxbar/1", 0xb79d1b631248d156),
    ("grid4x4-faulted/MinimalAdaptiveEscape/fortified/1", 0x5ed773cdd9f1e093),
    ("grid4x4-faulted/MinimalDeterministic/baseline/1", 0xeeff9b7b0fc07635),
    ("grid4x4-faulted/MinimalDeterministic/randomvc/1", 0xdb3526bf9be0a770),
    ("grid4x4-faulted/MinimalDeterministic/leastloaded/1", 0xeeff9b7b0fc07635),
    ("grid4x4-faulted/MinimalDeterministic/oldest/1", 0x8c2db3faa4f60e62),
    ("grid4x4-faulted/MinimalDeterministic/transit/1", 0xc87e7d1098897262),
    ("grid4x4-faulted/MinimalDeterministic/bubble/1", 0xeeff9b7b0fc07635),
    ("grid4x4-faulted/MinimalDeterministic/deepxbar/1", 0x8ba71087a6063e25),
    ("grid4x4-faulted/MinimalDeterministic/fortified/1", 0x8c2db3faa4f60e62),
    ("grid4x4-faulted/UpDownOnly/baseline/1", 0x2770aedd56425fee),
    ("grid4x4-faulted/UpDownOnly/randomvc/1", 0xf2f6d7638cd89491),
    ("grid4x4-faulted/UpDownOnly/leastloaded/1", 0x2770aedd56425fee),
    ("grid4x4-faulted/UpDownOnly/oldest/1", 0xe7d38e34bcbddf80),
    ("grid4x4-faulted/UpDownOnly/transit/1", 0x0b7648e0202f65a7),
    ("grid4x4-faulted/UpDownOnly/bubble/1", 0x2770aedd56425fee),
    ("grid4x4-faulted/UpDownOnly/deepxbar/1", 0x2fb7aeb40a0294d7),
    ("grid4x4-faulted/UpDownOnly/fortified/1", 0xe7d38e34bcbddf80),
];

#[test]
fn allocator_outputs_match_the_pinned_digests() {
    let got = digests();
    let table: String =
        got.iter().map(|(label, d)| format!("    (\"{label}\", {d:#018x}),\n")).collect();
    let pinned: Vec<(String, u64)> =
        PINNED.iter().map(|&(label, d)| (label.to_string(), d)).collect();
    assert!(got == pinned, "allocator outputs moved; this run's table:\n{table}");
}
