//! Golden-determinism suite for the workload path, extending the PR-2
//! golden-equivalence contract to closed-loop runs:
//!
//! * event-driven vs forced poll-every-cycle stepping
//!   (`set_reference_stepping`) produce bit-identical `WorkloadStats` —
//!   makespan, per-tag completion rows, network statistics, channel
//!   loads;
//! * results are byte-identical for any worker count (the driver is a
//!   pure function of its inputs, so a pool sweep returns the same rows
//!   serial and parallel);
//! * trace record → replay reproduces a run's statistics bit for bit;
//! * the traffic seed reaches a closed-loop run only through the
//!   `randomvc` router model.

use chiplet_graph::{gen, Graph};
use chiplet_workload::{trace, Workload, WorkloadDriver, WorkloadKind, WorkloadStats};
use nocsim::{RouterModelKind, SimConfig};

fn config() -> SimConfig {
    SimConfig {
        vcs: 4,
        buffer_depth: 4,
        source_queue_cap: 16,
        seed: 0xABCD,
        ..SimConfig::paper_defaults()
    }
}

/// Runs `workload` to completion and fingerprints everything the two
/// stepping modes must agree on.
fn fingerprint(
    g: &Graph,
    workload: &Workload,
    reference: bool,
) -> (WorkloadStats, Vec<(usize, usize, u64)>, u64) {
    let mut driver = WorkloadDriver::new(g, config(), workload).expect("valid driver");
    driver.set_reference_stepping(reference);
    let stats = driver.run(10_000_000);
    assert!(stats.completed, "workload must finish under both modes");
    (stats, driver.sim().channel_loads(), driver.sim().cycle())
}

#[test]
fn golden_across_stepping_modes_for_every_kernel() {
    let g = gen::grid(3, 3); // 18 endpoints
    for kind in WorkloadKind::ALL {
        let w = kind.build(18);
        let event = fingerprint(&g, &w, false);
        let reference = fingerprint(&g, &w, true);
        assert_eq!(event, reference, "event vs reference mismatch for {kind}");
    }
}

#[test]
fn golden_on_irregular_topology() {
    let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6)])
        .expect("simple graph");
    let w = WorkloadKind::Stencil.build(14);
    assert_eq!(fingerprint(&g, &w, false), fingerprint(&g, &w, true), "irregular");
}

#[test]
fn identical_rows_for_any_worker_count() {
    // The shape workload_comparison sweeps: one driver per kernel, run
    // serially vs concurrently — rows must be identical. (The engine's
    // pool-level guarantee is pinned in crates/xp; this pins that the
    // driver itself shares no hidden state across instances.)
    let g = gen::grid(3, 3);
    let row = |kind: WorkloadKind| -> (String, u64, u64) {
        let w = kind.build(18);
        let mut driver = WorkloadDriver::new(&g, config(), &w).expect("valid");
        let stats = driver.run(10_000_000);
        (kind.label().to_owned(), stats.makespan, stats.delivered_flits)
    };
    let serial: Vec<_> = WorkloadKind::ALL.iter().map(|&k| row(k)).collect();
    let row = &row;
    let parallel: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            WorkloadKind::ALL.iter().map(|&k| scope.spawn(move || row(k))).collect();
        handles.into_iter().map(|h| h.join().expect("no panic")).collect()
    });
    assert_eq!(serial, parallel);
}

#[test]
fn trace_record_replay_reproduces_stats_bit_identically() {
    let g = gen::grid(3, 3);
    for kind in [WorkloadKind::RingAllReduce, WorkloadKind::ClientServer] {
        let original = kind.build(18);
        let replayed = trace::from_str(&trace::to_string(&original)).expect("round trip");
        assert_eq!(
            fingerprint(&g, &original, false),
            fingerprint(&g, &replayed, false),
            "replayed {kind} diverged from the recorded run"
        );
    }
}

#[test]
fn reruns_are_bit_identical() {
    let g = gen::grid(3, 3);
    let w = WorkloadKind::RdAllReduce.build(18);
    assert_eq!(fingerprint(&g, &w, false), fingerprint(&g, &w, false));
}

/// Endpoint RNGs are drawn only by open-loop generation, and kernels are
/// built without a seed, so `SimConfig::seed` reaches a closed-loop run
/// only through the `randomvc` model's VC choice: under every other
/// model, two seeds give equal statistics.
#[test]
fn closed_loop_runs_ignore_the_seed_outside_randomvc() {
    let g = gen::grid(3, 3);
    for kind in WorkloadKind::ALL {
        let w = kind.build(18);
        let run = |router: RouterModelKind, seed: u64| -> WorkloadStats {
            let config = SimConfig { router: router.model(), seed, ..config() };
            WorkloadDriver::new(&g, config, &w).expect("valid driver").run(10_000_000)
        };
        for router in RouterModelKind::ALL {
            if router != RouterModelKind::RandomVc {
                assert_eq!(run(router, 1), run(router, 2), "{kind} under {router}");
            }
        }
    }
}
