//! Measurement methodology: zero-load latency and saturation throughput.
//!
//! Mirrors the BookSim2 workflow the paper uses (§VI-A): warm the network up,
//! measure over a window, report average packet latency and accepted
//! throughput; find the saturation point by searching over injection rates.

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
/// `inj + H·(router + link) + router + inj + (P − 1)` cycles: injection
/// link, `H` router-and-link traversals, the destination router, the
/// ejection link, and tail serialisation. Matches what the simulator
/// measures at vanishing load (validated in the crate's tests).
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
    let per_hop = (config.pipeline_cycles() + config.link_latency) as f64;
    let constant = 2.0 * config.injection_latency as f64
        + config.pipeline_cycles() as f64
        + (config.packet_size as f64 - 1.0);
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

/// Finds the saturation throughput by bisecting the injection rate over
/// uniform links ([`saturation_search_batched`] at `fanout = 1`, each
/// probe a [`load_point`] on a fresh engine).
///
/// Returns the highest stable rate (to within
/// [`MeasureConfig::rate_resolution`]) and the accepted throughput there.
///
/// # Errors
///
/// Propagates routing-table and simulator construction failures.
pub fn saturation_search(
    g: &Graph,
    base: &SimConfig,
    schedule: &MeasureConfig,
) -> Result<SaturationResult, SimError> {
    let zero_load = zero_load_latency(g, base)?;
    saturation_search_batched(schedule.rate_resolution, 1, |rates| {
        rates
            .iter()
            .map(|&rate| {
                let config = SimConfig { injection_rate: rate, ..*base };
                let mut sim = ShardedSimulator::new(g, config, schedule.shards)?;
                Ok(load_point(&mut sim, schedule, zero_load))
            })
            .collect()
    })
}

/// The `fanout` equally spaced probe rates of one search round inside the
/// open bracket `(lo, hi)` — all independent simulation jobs.
fn round_rates(lo: f64, hi: f64, fanout: usize) -> Vec<f64> {
    let k = fanout.max(1);
    (1..=k).map(|i| lo + (hi - lo) * i as f64 / (k + 1) as f64).collect()
}

/// The one knee-bracketing algorithm behind every saturation search.
///
/// Each round asks `run_points` to simulate `fanout` equally spaced rates
/// inside the open bracket — independent jobs the caller may run serially
/// or on any number of workers — then narrows the bracket around the
/// knee. With `fanout = 1` the probe sequence is the classic bisection
/// ([`saturation_search`] is exactly this); larger fanouts trade ~2×
/// total simulation work for fanout-way parallelism inside a single
/// search. The outcome depends only on the returned points, never on how
/// the batch was scheduled.
///
/// `run_points` must return one [`LoadPointResult`] per requested rate,
/// in order.
///
/// # Errors
///
/// Propagates failures from `run_points`.
///
/// # Panics
///
/// Panics if `run_points` returns the wrong number of points.
pub fn saturation_search_batched<E, F>(
    resolution: f64,
    fanout: usize,
    mut run_points: F,
) -> Result<SaturationResult, E>
where
    F: FnMut(&[f64]) -> Result<Vec<LoadPointResult>, E>,
{
    let result = |point: LoadPointResult| SaturationResult {
        rate: point.offered,
        throughput: point.stats.accepted_flits_per_cycle_per_endpoint,
        latency_at_saturation: point.stats.avg_packet_latency,
    };

    // The full-capacity point first: some tiny networks never saturate.
    let top = run_points(&[1.0])?.pop().expect("one point per rate");
    if !top.saturated {
        return Ok(SaturationResult { rate: 1.0, ..result(top) });
    }

    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    let mut best: Option<LoadPointResult> = None;
    while hi - lo > resolution {
        let rates = round_rates(lo, hi, fanout);
        let points = run_points(&rates)?;
        assert_eq!(points.len(), rates.len(), "one point per requested rate");
        // Highest stable prefix: the knee lies between the last stable
        // rate and the first saturated one.
        let stable = points.iter().take_while(|p| !p.saturated).count();
        if stable > 0 {
            lo = rates[stable - 1];
            best = points.get(stable - 1).copied();
        }
        if stable < rates.len() {
            hi = rates[stable];
        }
    }
    match best {
        Some(point) => Ok(result(point)),
        // Saturated even at the smallest probed rate; report the boundary.
        None => {
            let rate = lo.max(resolution / 2.0);
            let point = run_points(&[rate])?.pop().expect("one point per rate");
            Ok(result(point))
        }
    }
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
        let hetero = saturation_search_batched(schedule.rate_resolution, 1, |rates| {
            rates
                .iter()
                .map(|&rate| {
                    let config = SimConfig { injection_rate: rate, ..base };
                    let mut sim = ShardedSimulator::with_link_specs(&g, config, spec, 1)?;
                    Ok::<_, SimError>(load_point(&mut sim, &schedule, zero_load))
                })
                .collect()
        })
        .unwrap();
        let uniform = saturation_search(&g, &base, &MeasureConfig::quick()).unwrap();
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
        let result = saturation_search(&g, &config(0.0), &MeasureConfig::quick()).unwrap();
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
}
