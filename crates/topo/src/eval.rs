//! Evaluation pipeline for length-aware topologies.
//!
//! For each link: physical length (pitches × pitch-mm) → sustainable bit
//! rate from the signal-integrity model → serialization interval and
//! latency for the cycle-accurate simulator. Then: zero-load latency by
//! low-rate simulation and saturation throughput by
//! [`nocsim::measure::saturation_search_with`], the one bisection, whose
//! probe builds each rate's engine with the per-link specs and whose
//! latency guard uses that simulated zero-load latency.
//!
//! This is the machinery that makes HexaMesh-vs-Kite comparisons fair: the
//! mesh and HexaMesh pay nothing (all links adjacent, full rate), while
//! express and torus links pay the derating their length incurs.

use std::collections::HashMap;
use std::fmt;

use chiplet_phy::{capacity, SignalBudget, Technology};
use nocsim::measure::{
    load_point, saturation_search_with, simulated_zero_load_latency, MeasureConfig,
};
use nocsim::{LinkSpec, SaturationResult, ShardedSimulator, SimConfig, SimError};

use crate::topology::Topology;

/// Options of the topology evaluation.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Base simulator configuration (VCs, buffers, router latency, traffic).
    /// `link_latency` is used as the latency of every link — wire
    /// time-of-flight differences at chiplet scale are sub-cycle — while
    /// the serialization interval is derived per link.
    pub sim: SimConfig,
    /// Warmup/measurement schedule for the saturation search.
    pub schedule: MeasureConfig,
    /// Wiring technology of the package (substrate or interposer).
    pub tech: Technology,
    /// Transceiver budget for the BER analysis.
    pub signal: SignalBudget,
    /// Chiplet pitch in mm: physical length of a one-pitch link.
    pub pitch_mm: f64,
    /// Nominal per-wire bit rate in Gb/s (the paper's 16).
    pub nominal_rate_gbps: f64,
    /// BER target as `log₁₀` (the UCIe-class −15).
    pub log10_ber_target: f64,
}

impl EvalOptions {
    /// Paper-flavoured defaults over a given technology: §VI-A simulator
    /// settings, 16 Gb/s nominal rate, BER 1e−15, 4 mm pitch (a 16 mm²
    /// chiplet).
    #[must_use]
    pub fn paper_defaults(tech: Technology) -> Self {
        Self {
            sim: SimConfig::paper_defaults(),
            schedule: MeasureConfig::default(),
            tech,
            signal: SignalBudget::default(),
            pitch_mm: 4.0,
            nominal_rate_gbps: 16.0,
            log10_ber_target: -15.0,
        }
    }

    /// A faster schedule for tests and smoke runs.
    #[must_use]
    pub fn quick(tech: Technology) -> Self {
        Self { schedule: MeasureConfig::quick(), ..Self::paper_defaults(tech) }
    }
}

/// Errors from topology evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum TopoEvalError {
    /// A link cannot run at any rate at the BER target.
    InfeasibleLink {
        /// Link endpoints.
        u: usize,
        /// Link endpoints.
        v: usize,
        /// Its physical length in mm.
        length_mm: f64,
    },
    /// The simulator rejected the configuration or topology.
    Sim(SimError),
}

impl fmt::Display for TopoEvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoEvalError::InfeasibleLink { u, v, length_mm } => write!(
                f,
                "link ({u}, {v}) of {length_mm:.2} mm sustains no rate at the BER target"
            ),
            TopoEvalError::Sim(e) => write!(f, "simulation: {e}"),
        }
    }
}

impl std::error::Error for TopoEvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TopoEvalError::Sim(e) => Some(e),
            TopoEvalError::InfeasibleLink { .. } => None,
        }
    }
}

impl From<SimError> for TopoEvalError {
    fn from(e: SimError) -> Self {
        TopoEvalError::Sim(e)
    }
}

/// Physical operating point of one link after derating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkOperatingPoint {
    /// Link endpoints (`u < v`).
    pub u: usize,
    /// Upper endpoint.
    pub v: usize,
    /// Physical length in mm.
    pub length_mm: f64,
    /// Sustained per-wire bit rate in Gb/s.
    pub rate_gbps: f64,
    /// Serialization interval in router cycles (1 = full bandwidth).
    pub interval: u64,
}

/// Result of evaluating one topology.
#[derive(Debug, Clone)]
pub struct TopoEval {
    /// Topology name.
    pub name: String,
    /// Zero-load latency in cycles (measured at 1% load).
    pub zero_load_latency: f64,
    /// Saturation point of the heterogeneous network.
    pub saturation: SaturationResult,
    /// Per-link operating points after derating.
    pub links: Vec<LinkOperatingPoint>,
    /// The slowest link's rate in Gb/s.
    pub min_rate_gbps: f64,
    /// The largest serialization interval (1 = nothing derated).
    pub max_interval: u64,
}

impl TopoEval {
    /// Fraction of links running below the nominal rate.
    #[must_use]
    pub fn derated_fraction(&self) -> f64 {
        if self.links.is_empty() {
            return 0.0;
        }
        let derated = self.links.iter().filter(|l| l.interval > 1).count();
        derated as f64 / self.links.len() as f64
    }
}

/// Evaluates a topology end to end: derate every link, then simulate.
///
/// # Errors
///
/// * [`TopoEvalError::InfeasibleLink`] if some link sustains no rate at the
///   BER target (its length exceeds the technology's reach);
/// * [`TopoEvalError::Sim`] for simulator construction failures
///   (disconnected topology, bad configuration).
pub fn evaluate(topo: &Topology, opts: &EvalOptions) -> Result<TopoEval, TopoEvalError> {
    let mut links = Vec::with_capacity(topo.edges().len());
    let mut spec_by_pair: HashMap<(usize, usize), LinkSpec> = HashMap::new();
    for e in topo.edges() {
        let length_mm = e.length_pitch * opts.pitch_mm;
        let rate = capacity::derated_bit_rate_gbps(
            &opts.tech,
            &opts.signal,
            length_mm,
            opts.nominal_rate_gbps,
            opts.log10_ber_target,
        );
        if rate <= 0.0 {
            return Err(TopoEvalError::InfeasibleLink { u: e.u, v: e.v, length_mm });
        }
        // A flit that crosses a full-rate link in one cycle needs
        // nominal/rate cycles on a derated one.
        let interval = (opts.nominal_rate_gbps / rate).ceil().max(1.0) as u64;
        links.push(LinkOperatingPoint { u: e.u, v: e.v, length_mm, rate_gbps: rate, interval });
        spec_by_pair.insert((e.u, e.v), LinkSpec { latency: opts.sim.link_latency, interval });
    }

    let spec = |a: usize, b: usize| -> LinkSpec {
        let key = if a < b { (a, b) } else { (b, a) };
        spec_by_pair.get(&key).copied().unwrap_or(LinkSpec::uniform(opts.sim.link_latency))
    };

    let zero_load = simulated_zero_load_latency(topo.graph(), &opts.sim, spec)?;
    let schedule = &opts.schedule;
    let saturation = saturation_search_with(schedule.rate_resolution, |rate| {
        let config = SimConfig { injection_rate: rate, ..opts.sim };
        let mut sim =
            ShardedSimulator::with_link_specs(topo.graph(), config, spec, schedule.shards)?;
        Ok::<_, SimError>(load_point(&mut sim, schedule, zero_load))
    })?;

    let min_rate_gbps =
        links.iter().map(|l| l.rate_gbps).fold(opts.nominal_rate_gbps, f64::min);
    let max_interval = links.iter().map(|l| l.interval).max().unwrap_or(1);
    Ok(TopoEval {
        name: topo.name().to_owned(),
        zero_load_latency: zero_load,
        saturation,
        links,
        min_rate_gbps,
        max_interval,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::express::{express, ExpressOptions};
    use crate::generators::{ftorus, mesh};

    fn quick_opts() -> EvalOptions {
        let mut o = EvalOptions::quick(Technology::organic_substrate());
        o.sim.vcs = 4;
        o.sim.buffer_depth = 4;
        o
    }

    #[test]
    fn mesh_runs_at_full_rate() {
        // 4 mm pitch on substrate: adjacent links are within reach.
        let result = evaluate(&mesh(3, 3), &quick_opts()).unwrap();
        assert_eq!(result.max_interval, 1);
        assert_eq!(result.min_rate_gbps, 16.0);
        assert_eq!(result.derated_fraction(), 0.0);
        assert!(result.zero_load_latency > 0.0);
        assert!(result.saturation.throughput > 0.0);
    }

    #[test]
    fn express_links_get_derated() {
        // Three-pitch express links (12 mm) are far beyond the substrate's
        // ~4.5 mm reach at 16 Gb/s: they must run slower.
        let kite = express(4, 4, &ExpressOptions::default()).unwrap();
        let result = evaluate(&kite, &quick_opts()).unwrap();
        assert!(result.max_interval > 1, "no link derated");
        assert!(result.min_rate_gbps < 16.0);
        assert!(result.derated_fraction() > 0.0);
    }

    #[test]
    fn interposer_mesh_at_wide_pitch_is_infeasible() {
        // A 4 mm pitch exceeds the interposer's ~2 mm reach: adjacent links
        // still run (derated), but only because derating can slow them.
        // Push the pitch beyond even that.
        let mut opts = quick_opts();
        opts.tech = Technology::silicon_interposer();
        opts.signal.rx_noise_sigma_v = 0.2; // hopeless noise: no feasible rate
        let err = evaluate(&mesh(2, 2), &opts).unwrap_err();
        assert!(matches!(err, TopoEvalError::InfeasibleLink { .. }), "{err}");
    }

    #[test]
    fn ftorus_trades_latency_for_derating() {
        let opts = quick_opts();
        let m = evaluate(&mesh(3, 3), &opts).unwrap();
        let ft = evaluate(&ftorus(3, 3), &opts).unwrap();
        // Two-pitch links (8 mm) on a 4 mm-pitch substrate are derated.
        assert!(ft.max_interval > 1);
        // The torus still delivers packets and a positive saturation point.
        assert!(ft.saturation.throughput > 0.0);
        assert!(m.saturation.throughput > 0.0);
    }

    #[test]
    fn shrinking_the_pitch_removes_derating() {
        // At a 1 mm pitch even 3-pitch express links are 3 mm — within the
        // substrate's reach, so nothing is derated.
        let kite = express(4, 4, &ExpressOptions::default()).unwrap();
        let mut opts = quick_opts();
        opts.pitch_mm = 1.0;
        let result = evaluate(&kite, &opts).unwrap();
        assert_eq!(result.max_interval, 1);
        assert_eq!(result.derated_fraction(), 0.0);
    }
}
