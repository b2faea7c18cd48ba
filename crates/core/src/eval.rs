//! The end-to-end evaluation pipeline (§VI): arrangement → ICI graph →
//! link-bandwidth estimate → cycle-accurate simulation → absolute and
//! grid-normalised latency/throughput.

use std::fmt;

use nocsim::measure;
use nocsim::{MeasureConfig, SimConfig, SimError};

use crate::arrangement::{Arrangement, ArrangementKind, Regularity};
use crate::link::{self, estimate_link, LinkEstimate, LinkModelError, LinkParams};
use crate::proxies;
use crate::shape::{self, ShapeError, ShapeParams};

/// Errors from the evaluation pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvalError {
    /// Shape solving failed (honeycomb, or invalid parameters).
    Shape(ShapeError),
    /// Link-bandwidth estimation failed.
    Link(LinkModelError),
    /// Simulation failed (disconnected topology or invalid configuration).
    Sim(SimError),
    /// Evaluation needs at least two endpoints (`N ≥ 1` and
    /// `N × endpoints ≥ 2`).
    TooFewEndpoints(usize),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Shape(e) => write!(f, "shape: {e}"),
            EvalError::Link(e) => write!(f, "link model: {e}"),
            EvalError::Sim(e) => write!(f, "simulation: {e}"),
            EvalError::TooFewEndpoints(n) => {
                write!(f, "evaluation needs at least 2 endpoints, got {n}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ShapeError> for EvalError {
    fn from(e: ShapeError) -> Self {
        EvalError::Shape(e)
    }
}
impl From<LinkModelError> for EvalError {
    fn from(e: LinkModelError) -> Self {
        EvalError::Link(e)
    }
}
impl From<SimError> for EvalError {
    fn from(e: SimError) -> Self {
        EvalError::Sim(e)
    }
}

/// Arrangements with at most this many chiplets get hand-optimised bump
/// sectors (§VI-B).
pub(crate) const HAND_OPTIMIZE_THRESHOLD: usize = 7;

/// The settable parameters of the §VI evaluation. The rest are the paper's
/// §VI-B constants in [`crate::link`]: 800 mm² of compute-chiplet area
/// ([`link::UCIE_TOTAL_AREA_MM2`]), a power bump fraction of 0.4
/// ([`link::UCIE_POWER_FRACTION`]), 12 non-data wires per link
/// ([`link::UCIE_NON_DATA_WIRES`]) and 16 GHz links
/// ([`link::UCIE_FREQUENCY_GHZ`]).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive] // construct via paper_defaults()/quick() and mutate
pub struct EvalParams {
    /// Bump pitch `P_B` in mm (§VI-B: 0.15).
    pub bump_pitch_mm: f64,
    /// Simulator configuration (§VI-A values by default).
    pub sim: SimConfig,
    /// Measurement schedule and saturation-search resolution.
    pub measure: MeasureConfig,
}

impl EvalParams {
    /// The paper's parameters (§VI-A and §VI-B).
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            bump_pitch_mm: link::UCIE_BUMP_PITCH_MM,
            sim: SimConfig::paper_defaults(),
            measure: MeasureConfig::default(),
        }
    }

    /// Paper parameters with a fast measurement schedule (tests, smoke runs).
    #[must_use]
    pub fn quick() -> Self {
        Self { measure: MeasureConfig::quick(), ..Self::paper_defaults() }
    }
}

impl Default for EvalParams {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// The per-arrangement link budget: chiplet area, sector area, and the
/// resulting per-link and full-global bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    /// Chiplet area `A_C = A_all / N` in mm².
    pub chiplet_area_mm2: f64,
    /// Link bump-sector area `A_B` in mm².
    pub link_sector_area_mm2: f64,
    /// Per-link estimate from the §V model.
    pub estimate: LinkEstimate,
    /// Full global bandwidth in Tb/s: `N × endpoints/chiplet × B` (§VI-A).
    pub full_global_bandwidth_tbps: f64,
}

/// Computes the link budget of an arrangement (§VI-B).
///
/// Arrangements of up to 7 chiplets use the hand-optimised sector area
/// (all non-power bump area split across the busiest chiplet's links);
/// larger ones use the closed-form sector areas of §IV-B.
///
/// # Errors
///
/// * [`EvalError::Shape`] for the honeycomb (no rectangular shape),
/// * [`EvalError::Link`] for invalid link-model parameters,
/// * [`EvalError::TooFewEndpoints`] for `N = 1` hand-optimised arrangements
///   with no links at all.
pub fn link_budget(
    arrangement: &Arrangement,
    params: &EvalParams,
) -> Result<LinkBudget, EvalError> {
    let n = arrangement.num_chiplets();
    let chiplet_area = link::UCIE_TOTAL_AREA_MM2 / n as f64;
    let shape_params = ShapeParams::new(chiplet_area, link::UCIE_POWER_FRACTION)?;
    let sector_area = if n <= HAND_OPTIMIZE_THRESHOLD {
        shape::hand_optimized_sector_area(arrangement, &shape_params)
            .ok_or(EvalError::TooFewEndpoints(n))?
    } else {
        shape::shape_for(arrangement.kind(), &shape_params)?.link_sector_area
    };
    let estimate = estimate_link(&LinkParams {
        bump_pitch: params.bump_pitch_mm,
        ..LinkParams::ucie_c4(sector_area)
    })?;
    let endpoints = params.sim.endpoints_per_router as f64;
    let full_global = n as f64 * endpoints * estimate.bandwidth_tbps();
    Ok(LinkBudget {
        chiplet_area_mm2: chiplet_area,
        link_sector_area_mm2: sector_area,
        estimate,
        full_global_bandwidth_tbps: full_global,
    })
}

/// A fully evaluated arrangement: one row of Fig. 7's underlying data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Arrangement family.
    pub kind: ArrangementKind,
    /// Regularity class used for this `N`.
    pub regularity: Regularity,
    /// Chiplet count.
    pub n: usize,
    /// Chiplet area in mm².
    pub chiplet_area_mm2: f64,
    /// Per-link bump-sector area in mm².
    pub link_sector_area_mm2: f64,
    /// Per-link bandwidth in Gb/s.
    pub link_bandwidth_gbps: f64,
    /// Full global bandwidth in Tb/s.
    pub full_global_bandwidth_tbps: f64,
    /// Average zero-load packet latency in cycles (Fig. 7a).
    pub zero_load_latency_cycles: f64,
    /// Saturation throughput as a fraction of full global bandwidth.
    pub saturation_fraction: f64,
    /// Saturation throughput in Tb/s (Fig. 7b).
    pub saturation_throughput_tbps: f64,
    /// Network diameter of the ICI graph.
    pub diameter: u32,
}

/// Evaluates an arrangement end to end: link budget, zero-load latency, and
/// simulated saturation throughput ([`evaluate_analytic`] followed by
/// [`measure::saturation_search`], the paper's bisection over injection
/// rates at the resolution of `params.measure`). This runs the
/// cycle-accurate simulator several times — seconds per call at `N ≈ 100`
/// in release builds.
///
/// # Errors
///
/// See [`link_budget`]; additionally [`EvalError::Sim`] if the simulator
/// rejects the topology or configuration.
pub fn evaluate(
    arrangement: &Arrangement,
    params: &EvalParams,
) -> Result<EvalResult, EvalError> {
    let analytic = evaluate_analytic(arrangement, params)?;
    let saturation =
        measure::saturation_search(arrangement.graph(), &params.sim, &params.measure)?;
    Ok(EvalResult {
        saturation_fraction: saturation.throughput,
        saturation_throughput_tbps: saturation.throughput * analytic.full_global_bandwidth_tbps,
        ..analytic
    })
}

/// Evaluates everything except the saturation simulation (cheap; used for
/// latency-only sweeps and tests). `saturation_*` fields are zero.
///
/// # Errors
///
/// See [`evaluate`].
pub fn evaluate_analytic(
    arrangement: &Arrangement,
    params: &EvalParams,
) -> Result<EvalResult, EvalError> {
    let n = arrangement.num_chiplets();
    if n * params.sim.endpoints_per_router < 2 {
        return Err(EvalError::TooFewEndpoints(n * params.sim.endpoints_per_router));
    }
    let budget = link_budget(arrangement, params)?;
    let zero_load = measure::zero_load_latency(arrangement.graph(), &params.sim)?;
    Ok(EvalResult {
        kind: arrangement.kind(),
        regularity: arrangement.regularity(),
        n,
        chiplet_area_mm2: budget.chiplet_area_mm2,
        link_sector_area_mm2: budget.link_sector_area_mm2,
        link_bandwidth_gbps: budget.estimate.bandwidth_gbps(),
        full_global_bandwidth_tbps: budget.full_global_bandwidth_tbps,
        zero_load_latency_cycles: zero_load,
        saturation_fraction: 0.0,
        saturation_throughput_tbps: 0.0,
        diameter: proxies::measured_diameter(arrangement).unwrap_or(0),
    })
}

/// One point of Fig. 7c/7d: a variant's latency and throughput relative to
/// the grid baseline at the same `N` (100 = parity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalizedPoint {
    /// Chiplet count.
    pub n: usize,
    /// Zero-load latency as % of the grid's (lower is better).
    pub latency_pct: f64,
    /// Saturation throughput as % of the grid's (higher is better).
    pub throughput_pct: f64,
}

/// Normalises `results` against `baseline` by matching chiplet counts
/// (§VI-C, Fig. 7c/d). Points without a matching baseline `N` are skipped.
#[must_use]
pub fn normalize(results: &[EvalResult], baseline: &[EvalResult]) -> Vec<NormalizedPoint> {
    results
        .iter()
        .filter_map(|r| {
            let base = baseline.iter().find(|b| b.n == r.n)?;
            if base.zero_load_latency_cycles <= 0.0 {
                return None;
            }
            let latency_pct =
                100.0 * r.zero_load_latency_cycles / base.zero_load_latency_cycles;
            let throughput_pct = if base.saturation_throughput_tbps > 0.0 {
                100.0 * r.saturation_throughput_tbps / base.saturation_throughput_tbps
            } else {
                0.0
            };
            Some(NormalizedPoint { n: r.n, latency_pct, throughput_pct })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrangement::Arrangement;

    fn quick_params() -> EvalParams {
        let mut p = EvalParams::quick();
        // Keep unit tests fast: small router buffers, coarse search.
        p.sim.vcs = 4;
        p.sim.buffer_depth = 4;
        p.measure.warmup_cycles = 800;
        p.measure.measure_cycles = 1_500;
        p.measure.rate_resolution = 0.05;
        p
    }

    #[test]
    fn link_budget_matches_hand_computation() {
        // N = 16 grid: A_C = 50 mm², A_B = 0.6·50/4 = 7.5 mm²,
        // N_w = ⌊7.5/0.0225⌋ = 333, N_dw = 321, B = 5136 Gb/s,
        // full global = 16 · 2 · 5.136 Tb/s.
        let a = Arrangement::build(ArrangementKind::Grid, 16).unwrap();
        let budget = link_budget(&a, &EvalParams::paper_defaults()).unwrap();
        assert!((budget.chiplet_area_mm2 - 50.0).abs() < 1e-12);
        assert!((budget.link_sector_area_mm2 - 7.5).abs() < 1e-12);
        assert_eq!(budget.estimate.wires, 333);
        assert_eq!(budget.estimate.data_wires, 321);
        assert!((budget.estimate.bandwidth_gbps() - 5_136.0).abs() < 1e-9);
        assert!((budget.full_global_bandwidth_tbps - 16.0 * 2.0 * 5.136).abs() < 1e-9);
    }

    #[test]
    fn grid_links_fatter_than_hexamesh_links() {
        // Same N: the grid splits bump area over 4 sectors, BW/HM over 6 —
        // the discrepancy §VI-C highlights.
        let params = EvalParams::paper_defaults();
        let g = Arrangement::build(ArrangementKind::Grid, 64).unwrap();
        let hm = Arrangement::build(ArrangementKind::HexaMesh, 64).unwrap();
        let bg = link_budget(&g, &params).unwrap();
        let bhm = link_budget(&hm, &params).unwrap();
        assert!(bg.estimate.bandwidth_gbps() > bhm.estimate.bandwidth_gbps());
        let ratio = bg.link_sector_area_mm2 / bhm.link_sector_area_mm2;
        assert!((ratio - 1.5).abs() < 1e-9, "4 vs 6 sectors ⇒ 1.5x area ratio");
    }

    #[test]
    fn small_n_uses_hand_optimized_sectors() {
        let params = EvalParams::paper_defaults();
        let a = Arrangement::build(ArrangementKind::Grid, 2).unwrap();
        let budget = link_budget(&a, &params).unwrap();
        // N = 2: A_C = 400, max degree 1, A_B = 0.6·400 = 240 mm².
        assert!((budget.link_sector_area_mm2 - 240.0).abs() < 1e-9);
    }

    #[test]
    fn single_chiplet_rejected() {
        let params = EvalParams::paper_defaults();
        let a = Arrangement::build(ArrangementKind::Grid, 1).unwrap();
        assert!(matches!(link_budget(&a, &params), Err(EvalError::TooFewEndpoints(1))));
    }

    #[test]
    fn analytic_evaluation_orders_latency_correctly() {
        // HexaMesh must beat the grid on zero-load latency at N = 37.
        let params = quick_params();
        let g = Arrangement::build(ArrangementKind::Grid, 37).unwrap();
        let hm = Arrangement::build(ArrangementKind::HexaMesh, 37).unwrap();
        let rg = evaluate_analytic(&g, &params).unwrap();
        let rhm = evaluate_analytic(&hm, &params).unwrap();
        assert!(
            rhm.zero_load_latency_cycles < rg.zero_load_latency_cycles,
            "HM {} !< G {}",
            rhm.zero_load_latency_cycles,
            rg.zero_load_latency_cycles
        );
        assert!(rhm.diameter < rg.diameter);
    }

    #[test]
    fn full_evaluation_small_case() {
        let params = quick_params();
        let a = Arrangement::build(ArrangementKind::Grid, 9).unwrap();
        let r = evaluate(&a, &params).unwrap();
        assert!(r.saturation_fraction > 0.0 && r.saturation_fraction <= 1.0);
        assert!(r.saturation_throughput_tbps > 0.0);
        assert!(r.zero_load_latency_cycles > 0.0);
        assert_eq!(r.n, 9);
    }

    #[test]
    fn normalization_is_100_for_self() {
        let params = quick_params();
        let a = Arrangement::build(ArrangementKind::Grid, 16).unwrap();
        let r = evaluate_analytic(&a, &params).unwrap();
        let points = normalize(&[r], &[r]);
        assert_eq!(points.len(), 1);
        assert!((points[0].latency_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn normalization_skips_unmatched_counts() {
        let params = quick_params();
        let a = Arrangement::build(ArrangementKind::Grid, 16).unwrap();
        let b = Arrangement::build(ArrangementKind::Grid, 25).unwrap();
        let ra = evaluate_analytic(&a, &params).unwrap();
        let rb = evaluate_analytic(&b, &params).unwrap();
        assert!(normalize(&[ra], &[rb]).is_empty());
    }

    #[test]
    fn error_conversions_display() {
        let e: EvalError = ShapeError::InvalidArea(-1.0).into();
        assert!(e.to_string().contains("shape"));
        let e: EvalError = LinkModelError::InvalidPitch(0.0).into();
        assert!(e.to_string().contains("link model"));
    }
}
