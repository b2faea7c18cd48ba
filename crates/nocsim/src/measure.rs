//! Measurement methodology: zero-load latency and saturation throughput.
//!
//! Mirrors the BookSim2 workflow the paper uses (§VI-A): warm the network up,
//! measure over a window, report average packet latency and accepted
//! throughput; find the saturation point by bisecting the injection rate.
//!
//! [`load_point`] is the one place a point is measured and classified, and
//! [`saturation_search_with`] the one search: the caller says how one
//! probe is simulated and supplies the zero-load baseline of its latency
//! guard. [`saturation_search`] is that search over uniform links.

use chiplet_graph::{metrics, Graph};

use crate::flit::RouterId;
use crate::routing::RoutingError;
use crate::shard::ShardedSimulator;
use crate::sim::{LinkSpec, NetworkStats, SimConfig, SimError, Simulator};

/// A load point is *saturated* when accepted throughput falls below this
/// fraction of offered …
const ACCEPTED_RATIO_THRESHOLD: f64 = 0.95;
/// … or when its average latency exceeds this multiple of the zero-load
/// latency.
const LATENCY_GUARD: f64 = 4.0;

/// Warmup/measurement schedule of a load point and resolution of the
/// saturation search. A point counts as saturated when it accepts less than
/// 95% of the offered load, or its average latency exceeds four times the
/// zero-load latency.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive] // new fields ride in via Default/mutation, not literals
pub struct MeasureConfig {
    /// Cycles simulated before the measurement window opens.
    pub warmup_cycles: u64,
    /// Cycles in the measurement window.
    pub measure_cycles: u64,
    /// Binary-search resolution on the injection rate (flits/cycle/endpoint).
    pub rate_resolution: f64,
    /// Worker threads one [`ShardedSimulator`] run is split across (`1` =
    /// the serial engine, run inline; every count gives bit-identical
    /// results).
    pub shards: usize,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        Self { warmup_cycles: 5_000, measure_cycles: 10_000, rate_resolution: 0.01, shards: 1 }
    }
}

impl MeasureConfig {
    /// A faster schedule for tests and smoke runs (shorter windows, coarser
    /// rate resolution).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            warmup_cycles: 1_500,
            measure_cycles: 3_000,
            rate_resolution: 0.02,
            ..Self::default()
        }
    }
}

/// Result of simulating one load point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPointResult {
    /// Offered load (flits/cycle/endpoint) this point was run at.
    pub offered: f64,
    /// Raw network statistics of the measurement window.
    pub stats: NetworkStats,
    /// Whether the point met a saturation criterion.
    pub saturated: bool,
    /// Whether the deadlock watchdog fired.
    pub deadlock: bool,
}

/// Outcome of the saturation search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaturationResult {
    /// Highest stable injection rate found (flits/cycle/endpoint).
    pub rate: f64,
    /// Accepted throughput at that rate (flits/cycle/endpoint). This is the
    /// paper's *saturation throughput* relative to full global bandwidth.
    pub throughput: f64,
    /// Average packet latency at the stable point, if measured.
    pub latency_at_saturation: Option<f64>,
}

/// Structural (contention-free) zero-load packet latency in cycles, averaged
/// over all ordered endpoint pairs.
///
/// A packet between endpoints whose routers are `H` hops apart costs
/// [`SimConfig::zero_load_cycles`], linear in `H`, so the average over
/// pairs is that cost at the average hop count. Matches what the
/// simulator measures at vanishing load (validated in the crate's tests).
///
/// # Errors
///
/// The routing-table errors for an empty graph
/// ([`RoutingError::EmptyTopology`]) and a disconnected one
/// ([`RoutingError::DisconnectedTopology`]), then
/// [`SimError::InvalidConfig`] for fewer than two endpoints.
pub fn zero_load_latency(g: &Graph, config: &SimConfig) -> Result<f64, SimError> {
    if g.is_empty() {
        return Err(RoutingError::EmptyTopology.into());
    }
    let (router_hops, _) =
        metrics::distance_sum_and_diameter(g).ok_or(RoutingError::DisconnectedTopology)?;
    let epr = config.endpoints_per_router;
    let endpoints = g.num_vertices() * epr;
    if endpoints < 2 {
        return Err(SimError::InvalidConfig("need at least two endpoints"));
    }
    let per_hop = config.hop_cycles() as f64;
    let constant = config.zero_load_cycles(0, config.packet_size) as f64;
    // Average router-to-router hop distance over ordered endpoint pairs:
    // each router pair carries epr² of them, and a same-router pair, the
    // endpoint itself included, adds 0 hops.
    let total_hops = (epr * epr) as u64 * router_hops;
    let pairs = (endpoints * (endpoints - 1)) as f64;
    let avg_hops = total_hops as f64 / pairs;
    Ok(constant + avg_hops * per_hop)
}

/// Zero-load latency measured by simulation at a vanishing injection rate.
///
/// The analytic [`zero_load_latency`] assumes every link costs
/// `config.link_latency`; for heterogeneous topologies (per-link specs) the
/// structural latency depends on which physical links the minimal routes
/// take, so we measure it instead: a long window at 1% load.
///
/// # Errors
///
/// Propagates simulator construction failures, and returns
/// [`SimError::InvalidConfig`] if the window measured no packets.
pub fn simulated_zero_load_latency(
    g: &Graph,
    config: &SimConfig,
    spec: impl Fn(RouterId, RouterId) -> LinkSpec,
) -> Result<f64, SimError> {
    let probe = SimConfig { injection_rate: 0.01, ..*config };
    let mut sim = Simulator::with_link_specs(g, probe, spec)?;
    sim.run_to_window(2_000, 30_000)
        .avg_packet_latency
        .ok_or(SimError::InvalidConfig("zero-load probe measured no packets"))
}

/// The one place a load point is measured: warms `sim` up over `schedule`,
/// measures one window, and classifies the point against the saturation
/// criteria (see [`MeasureConfig`]). The offered rate is
/// `sim.config().injection_rate`, and `zero_load` is the latency-guard
/// baseline ([`zero_load_latency`], [`simulated_zero_load_latency`], or an
/// analytic value).
///
/// Build the engine first to measure a heterogeneous, faulted, or
/// observed point ([`ShardedSimulator::with_link_specs`],
/// [`ShardedSimulator::install_fault_plan`],
/// [`ShardedSimulator::attach_probe`]), and read observations back from
/// it afterwards. Pass a faulted point the *healthy* zero-load latency, so
/// a degraded network saturates earlier; its squelched packets count as
/// offered but never accepted, so a partition reads as lost throughput
/// rather than wedging the run.
#[must_use]
pub fn load_point(
    sim: &mut ShardedSimulator,
    schedule: &MeasureConfig,
    zero_load: f64,
) -> LoadPointResult {
    let stats = sim.run_to_window(schedule.warmup_cycles, schedule.measure_cycles);
    let deadlock = sim.deadlock_suspected();
    let accepted_ratio = if stats.offered_flits_per_cycle_per_endpoint > 0.0 {
        stats.accepted_flits_per_cycle_per_endpoint / stats.offered_flits_per_cycle_per_endpoint
    } else {
        1.0
    };
    let latency_blown = match stats.avg_packet_latency {
        Some(l) => l > LATENCY_GUARD * zero_load,
        // Offered load but nothing measured: the network is not delivering.
        None => stats.offered_packets > 0,
    };
    let saturated = deadlock || accepted_ratio < ACCEPTED_RATIO_THRESHOLD || latency_blown;
    LoadPointResult { offered: sim.config().injection_rate, stats, saturated, deadlock }
}

/// Simulates one load point over uniform links: [`load_point`] on a fresh
/// engine with the analytic zero-load baseline.
///
/// # Errors
///
/// Propagates routing-table and simulator construction failures.
pub fn run_load_point(
    g: &Graph,
    config: &SimConfig,
    schedule: &MeasureConfig,
) -> Result<LoadPointResult, SimError> {
    let zero_load = zero_load_latency(g, config)?;
    let mut sim = ShardedSimulator::new(g, *config, schedule.shards)?;
    Ok(load_point(&mut sim, schedule, zero_load))
}

/// Finds the saturation throughput over uniform links:
/// [`saturation_search_with`] at [`MeasureConfig::rate_resolution`], each
/// probe a [`load_point`] on a fresh engine against the caller's
/// latency-guard baseline `zero_load` (usually [`zero_load_latency`]).
///
/// # Errors
///
/// Propagates routing-table and simulator construction failures.
pub fn saturation_search(
    g: &Graph,
    base: &SimConfig,
    schedule: &MeasureConfig,
    zero_load: f64,
) -> Result<SaturationResult, SimError> {
    saturation_search_with(schedule.rate_resolution, |rate| {
        let config = SimConfig { injection_rate: rate, ..*base };
        let mut sim = ShardedSimulator::new(g, config, schedule.shards)?;
        Ok(load_point(&mut sim, schedule, zero_load))
    })
}

/// The one saturation search: a bisection over injection rates (§VI-A).
///
/// `probe(rate)` simulates one load point at `rate` — how (link specs,
/// a fault plan, an observer) is the caller's business, and so is the
/// zero-load baseline of its latency guard. The search probes rate 1.0
/// first and returns it if stable, since some tiny networks never
/// saturate. Otherwise it bisects `(0, 1)` while the bracket is wider
/// than `resolution`, and returns the highest stable probe; if every
/// probe saturated, it returns one more probe at `resolution / 2`.
///
/// # Errors
///
/// Returns the first error of `probe`; no probe runs after it.
pub fn saturation_search_with<E>(
    resolution: f64,
    mut probe: impl FnMut(f64) -> Result<LoadPointResult, E>,
) -> Result<SaturationResult, E> {
    let result = |point: LoadPointResult| SaturationResult {
        rate: point.offered,
        throughput: point.stats.accepted_flits_per_cycle_per_endpoint,
        latency_at_saturation: point.stats.avg_packet_latency,
    };

    let top = probe(1.0)?;
    if !top.saturated {
        return Ok(SaturationResult { rate: 1.0, ..result(top) });
    }

    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    let mut best = None;
    while hi - lo > resolution {
        let rate = lo + (hi - lo) / 2.0;
        let point = probe(rate)?;
        if point.saturated {
            hi = rate;
        } else {
            lo = rate;
            best = Some(point);
        }
    }
    let point = match best {
        Some(point) => point,
        // Saturated even at the smallest probed rate (`lo` is still 0):
        // report the boundary.
        None => probe(lo.max(resolution / 2.0))?,
    };
    Ok(result(point))
}

/// The benchmark's batch-shaped entry to [`saturation_search_with`], until
/// it calls that search itself: `run_points` gets one rate per call.
///
/// # Errors
///
/// Propagates failures from `run_points`.
///
/// # Panics
///
/// Panics unless `fanout == 1` (the bisection probes one rate at a
/// time), or if `run_points` returns other than one point.
pub fn saturation_search_batched<E, F>(
    resolution: f64,
    fanout: usize,
    mut run_points: F,
) -> Result<SaturationResult, E>
where
    F: FnMut(&[f64]) -> Result<Vec<LoadPointResult>, E>,
{
    assert_eq!(fanout, 1, "the saturation search probes one rate at a time");
    saturation_search_with(resolution, |rate| {
        let points = run_points(&[rate])?;
        assert_eq!(points.len(), 1, "one point per requested rate");
        Ok(points[0])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_graph::gen;

    fn config(rate: f64) -> SimConfig {
        SimConfig {
            vcs: 4,
            buffer_depth: 4,
            injection_rate: rate,
            seed: 7,
            ..SimConfig::paper_defaults()
        }
    }

    #[test]
    fn zero_load_matches_low_rate_simulation() {
        let g = gen::grid(2, 2);
        let cfg = config(0.01);
        let analytic = zero_load_latency(&g, &cfg).unwrap();
        let mut sim = Simulator::new(&g, cfg).unwrap();
        sim.run(1_000);
        sim.open_measurement_window();
        sim.run(30_000);
        let measured = sim.stats().avg_packet_latency.expect("packets measured");
        let rel_err = (measured - analytic).abs() / analytic;
        assert!(
            rel_err < 0.08,
            "analytic {analytic:.1} vs measured {measured:.1} (err {rel_err:.3})"
        );
    }

    #[test]
    fn zero_load_errors_on_tiny_network() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let cfg = SimConfig { endpoints_per_router: 1, ..config(0.1) };
        assert!(matches!(zero_load_latency(&g, &cfg), Err(SimError::InvalidConfig(_))));
        let empty = Graph::from_edges(0, &[]).unwrap();
        let err = zero_load_latency(&empty, &cfg).unwrap_err();
        assert_eq!(err, SimError::Routing(RoutingError::EmptyTopology));
        let disconnected = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let err = zero_load_latency(&disconnected, &config(0.1)).unwrap_err();
        assert_eq!(err, SimError::Routing(RoutingError::DisconnectedTopology));
    }

    #[test]
    fn light_load_is_stable() {
        let g = gen::grid(3, 3);
        let point = run_load_point(&g, &config(0.03), &MeasureConfig::quick()).unwrap();
        assert!(!point.saturated, "3% load must not saturate a 3x3 grid");
        assert!(!point.deadlock);
    }

    #[test]
    fn absurd_load_saturates() {
        let g = gen::grid(3, 3);
        let point = run_load_point(&g, &config(1.0), &MeasureConfig::quick()).unwrap();
        assert!(point.saturated, "100% load must saturate");
    }

    #[test]
    fn simulated_zero_load_matches_analytic_for_uniform_links() {
        let g = gen::grid(2, 2);
        let cfg = config(0.01);
        let analytic = zero_load_latency(&g, &cfg).unwrap();
        let latency = cfg.link_latency;
        let simulated =
            simulated_zero_load_latency(&g, &cfg, |_, _| LinkSpec::uniform(latency)).unwrap();
        let rel = (simulated - analytic).abs() / analytic;
        assert!(rel < 0.08, "analytic {analytic:.1} vs simulated {simulated:.1}");
    }

    #[test]
    fn heterogeneous_saturation_search_runs() {
        // A 2x2 grid where one link direction is serialized: the search
        // completes and finds a lower knee than the uniform network.
        let g = gen::grid(2, 2);
        let base = config(0.0);
        let spec = |u: usize, v: usize| {
            if (u, v) == (0, 1) || (u, v) == (1, 0) {
                LinkSpec { latency: 27, interval: 4 }
            } else {
                LinkSpec::uniform(27)
            }
        };
        let zero_load = simulated_zero_load_latency(&g, &base, spec).unwrap();
        let schedule = MeasureConfig::quick();
        let hetero = saturation_search_with(schedule.rate_resolution, |rate| {
            let config = SimConfig { injection_rate: rate, ..base };
            let mut sim = ShardedSimulator::with_link_specs(&g, config, spec, 1)?;
            Ok::<_, SimError>(load_point(&mut sim, &schedule, zero_load))
        })
        .unwrap();
        let uniform_zero_load = zero_load_latency(&g, &base).unwrap();
        let uniform = saturation_search(&g, &base, &schedule, uniform_zero_load).unwrap();
        assert!(hetero.rate > 0.0);
        assert!(
            hetero.throughput <= uniform.throughput + 0.02,
            "hetero {} vs uniform {}",
            hetero.throughput,
            uniform.throughput
        );
    }

    #[test]
    fn sharded_schedule_matches_serial_load_point() {
        let g = gen::grid(3, 3);
        let schedule = MeasureConfig::quick();
        let serial = run_load_point(&g, &config(0.1), &schedule).unwrap();
        let sharded =
            run_load_point(&g, &config(0.1), &MeasureConfig { shards: 4, ..schedule }).unwrap();
        assert_eq!(serial, sharded, "sharded load point must be bit-identical");
    }

    #[test]
    fn saturation_search_brackets_the_knee() {
        let g = gen::grid(3, 3);
        let zero_load = zero_load_latency(&g, &config(0.0)).unwrap();
        let result =
            saturation_search(&g, &config(0.0), &MeasureConfig::quick(), zero_load).unwrap();
        assert!(result.rate > 0.0 && result.rate < 1.0, "rate {}", result.rate);
        assert!(result.throughput > 0.0);
        // Accepted throughput at the stable point tracks the offered rate.
        assert!(
            result.throughput >= 0.8 * result.rate,
            "throughput {} vs rate {}",
            result.throughput,
            result.rate
        );
    }

    /// A synthetic probe that saturates above `knee`, accepts what it is
    /// offered below it, and records every rate it is asked for.
    fn knee_probe(
        knee: f64,
        asked: &mut Vec<f64>,
    ) -> impl FnMut(f64) -> Result<LoadPointResult, SimError> + '_ {
        let mut sim = Simulator::new(&gen::grid(1, 2), config(0.0)).unwrap();
        sim.open_measurement_window();
        let idle = sim.stats();
        move |rate| {
            asked.push(rate);
            let stats = NetworkStats {
                accepted_flits_per_cycle_per_endpoint: rate,
                avg_packet_latency: Some(100.0 + rate),
                ..idle
            };
            Ok(LoadPointResult {
                offered: rate,
                stats,
                saturated: rate > knee,
                deadlock: false,
            })
        }
    }

    #[test]
    fn bisection_probes_the_expected_rates() {
        let mut asked = Vec::new();
        let result = saturation_search_with(0.02, knee_probe(0.37, &mut asked)).unwrap();
        let expected = [1.0, 0.5, 0.25, 0.375, 0.3125, 0.34375, 0.359375];
        assert_eq!(asked, expected);
        let knee = SaturationResult {
            rate: 0.359375,
            throughput: 0.359375,
            latency_at_saturation: Some(100.359375),
        };
        assert_eq!(result, knee);
        // The benchmark's batch adaptor asks for the same rates.
        let mut batched = Vec::new();
        let mut probe = knee_probe(0.37, &mut batched);
        let adapted = saturation_search_batched(0.02, 1, |rates: &[f64]| {
            rates.iter().map(|&rate| probe(rate)).collect()
        })
        .unwrap();
        drop(probe);
        assert_eq!(adapted, knee);
        assert_eq!(batched, expected);
    }

    #[test]
    fn stable_full_rate_ends_the_search() {
        let mut asked = Vec::new();
        let result = saturation_search_with(0.02, knee_probe(1.0, &mut asked)).unwrap();
        assert_eq!(asked, [1.0]);
        assert_eq!(result.rate, 1.0);
        assert_eq!(result.throughput, 1.0);
    }

    #[test]
    fn all_saturated_probes_the_boundary() {
        let mut asked = Vec::new();
        let result = saturation_search_with(0.02, knee_probe(0.0, &mut asked)).unwrap();
        assert_eq!(asked, [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.01]);
        assert_eq!(result.rate, 0.01);
    }

    #[test]
    fn probe_error_stops_the_search() {
        let mut asked = Vec::new();
        let mut probe = knee_probe(0.37, &mut asked);
        let mut calls = 0;
        let result = saturation_search_with(0.02, |rate| {
            calls += 1;
            if calls == 3 {
                return Err(SimError::InvalidConfig("third probe"));
            }
            probe(rate)
        });
        drop(probe);
        assert_eq!(result, Err(SimError::InvalidConfig("third probe")));
        assert_eq!(calls, 3);
        assert_eq!(asked, [1.0, 0.5]);
    }

    #[test]
    #[should_panic(expected = "one rate at a time")]
    fn batched_search_rejects_fanout_above_one() {
        let mut asked = Vec::new();
        let mut probe = knee_probe(0.37, &mut asked);
        let _ = saturation_search_batched(0.02, 2, |rates: &[f64]| {
            rates.iter().map(|&rate| probe(rate)).collect()
        });
    }
}
