//! The engine's headline guarantee: a campaign's result rows are identical
//! for any `--workers` value — including when the jobs are real
//! cycle-accurate simulations — because job seeds derive from coordinates
//! and results return in cell order.

use chiplet_workload::{WorkloadDriver, WorkloadKind};
use hexamesh::arrangement::{Arrangement, ArrangementKind};
use nocsim::{SimConfig, Simulator, TrafficPattern};
use xp::cli::{CampaignArgs, OutputFormat};
use xp::grid::{kind_code, point_coords};
use xp::Campaign;

fn args(workers: usize, seeds: u64) -> CampaignArgs {
    CampaignArgs {
        workers,
        seeds,
        quick: true,
        full: false,
        out: std::env::temp_dir().join("xp_determinism"),
        format: OutputFormat::Csv,
        campaign_seed: 0xD2D_11CC,
        progress: false,
    }
}

/// Runs a small real-simulation campaign and returns its rows.
fn simulate_campaign(workers: usize, seeds: u64) -> Vec<(String, usize, u64, u64, String)> {
    let mut cells = Vec::new();
    for kind in ArrangementKind::EVALUATED {
        for n in [2, 4, 7] {
            cells.extend([0.05, 0.2].map(|rate| (kind, n, rate)));
        }
    }
    let campaign = Campaign::new("determinism", args(workers, seeds));
    let results = campaign.run_cells(
        &cells,
        1,
        |&(kind, n, rate)| {
            point_coords(
                kind_code(kind),
                n,
                Some(rate),
                TrafficPattern::UniformRandom,
                None,
                None,
            )
        },
        |&(_, n, _)| n as u64,
        |cell| format!("{cell:?}"),
        |&(kind, n, rate), seed| {
            let arrangement = Arrangement::build(kind, n).expect("builds");
            let config = SimConfig {
                injection_rate: rate,
                seed,
                vcs: 4,
                buffer_depth: 4,
                ..SimConfig::paper_defaults()
            };
            let mut sim = Simulator::new(arrangement.graph(), config).expect("valid");
            let stats = sim.run_to_window(300, 1_200);
            (stats.received_flits, stats.offered_packets)
        },
    );
    let mut rows = Vec::new();
    for ((kind, n, rate), replicates) in cells.iter().zip(results) {
        for (replicate, (flits, offered)) in replicates.into_iter().enumerate() {
            // Rate formatted to survive float equality concerns in the
            // row comparison.
            rows.push((
                kind.label().to_owned(),
                *n,
                replicate as u64,
                flits,
                format!("{rate:.3}|{offered}"),
            ));
        }
    }
    rows
}

#[test]
fn rows_identical_for_any_worker_count() {
    let one = simulate_campaign(1, 1);
    let eight = simulate_campaign(8, 1);
    assert_eq!(one, eight);
}

#[test]
fn rows_identical_for_any_worker_count_with_replicates() {
    let mut one = simulate_campaign(1, 3);
    let mut eight = simulate_campaign(8, 3);
    assert_eq!(one, eight, "cell order must already match");
    // And after sorting (the acceptance criterion's framing).
    one.sort();
    eight.sort();
    assert_eq!(one, eight);
}

/// Runs a closed-loop workload campaign (the `workload_comparison`
/// shape) and returns its makespan/completion rows.
fn workload_campaign(workers: usize) -> Vec<(String, String, u64, u64)> {
    let mut cells = Vec::new();
    for kind in ArrangementKind::ALL {
        cells.extend([WorkloadKind::RingAllReduce, WorkloadKind::Stencil].map(|w| (kind, w)));
    }
    let campaign = Campaign::new("workload_determinism", args(workers, 1));
    let results = campaign.run_cells(
        &cells,
        1,
        |&(kind, w)| {
            point_coords(kind_code(kind), 7, None, TrafficPattern::UniformRandom, Some(w), None)
        },
        |_| 7,
        |cell| format!("{cell:?}"),
        |&(kind, w), seed| {
            let arrangement = Arrangement::build(kind, 7).expect("builds");
            let config = SimConfig { seed, ..SimConfig::paper_defaults() };
            let workload = w.build(7 * 2);
            let mut driver =
                WorkloadDriver::new(arrangement.graph(), config, &workload).expect("valid");
            let stats = driver.run(10_000_000);
            assert!(stats.completed);
            (stats.makespan, stats.delivered_flits)
        },
    );
    cells
        .iter()
        .zip(results)
        .map(|((kind, w), reps)| {
            let (makespan, flits) = reps[0];
            (kind.label().to_owned(), w.label().to_owned(), makespan, flits)
        })
        .collect()
}

#[test]
fn workload_rows_identical_for_any_worker_count() {
    let one = workload_campaign(1);
    let eight = workload_campaign(8);
    assert_eq!(one, eight, "workload makespan rows must not depend on --workers");
}

#[test]
fn replicates_differ_but_are_reproducible() {
    let rows = simulate_campaign(4, 2);
    // Replicates of the same point use different seeds, so their traffic
    // differs...
    let r0: Vec<_> = rows.iter().filter(|r| r.2 == 0).collect();
    let r1: Vec<_> = rows.iter().filter(|r| r.2 == 1).collect();
    assert_eq!(r0.len(), r1.len());
    assert_ne!(r0, r1, "replicate seeds must vary the measured traffic");
    // ...while the whole campaign is reproducible run to run.
    assert_eq!(rows, simulate_campaign(4, 2));
}
