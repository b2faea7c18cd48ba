//! Sweep runners shared by the study stages — the engine-pool
//! decompositions of the paper's evaluation pipeline.

use chiplet_partition::BisectionConfig;
use hexamesh::arrangement::{Arrangement, ArrangementKind};
use hexamesh::eval::{self, EvalParams, EvalResult};
use hexamesh::proxies;
use nocsim::MeasureConfig;

use crate::cli::CampaignArgs;
use crate::pool;

/// Competition ranking ("1224"): ranks `values` ascending — lower is
/// better — with exact ties sharing the better rank. Ties are routine,
/// not hypothetical: brickwall and honeycomb realise the same graph, so
/// the comparison stages share this one implementation to keep tie
/// handling uniform.
#[must_use]
pub fn competition_rank(values: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut rank = vec![0usize; values.len()];
    for (place, &idx) in order.iter().enumerate() {
        let tied = place > 0 && values[order[place - 1]] == values[idx];
        rank[idx] = if tied { rank[order[place - 1]] } else { place + 1 };
    }
    rank
}

/// The measurement schedule selected by the shared flags: `--quick`
/// (short windows, coarse resolution), `--full` (the paper-scale
/// [`MeasureConfig::default`] schedule), or — when neither is given —
/// the middle-ground windows the simulation binaries have always used.
#[must_use]
pub fn schedule_for(args: &CampaignArgs) -> MeasureConfig {
    if args.quick {
        MeasureConfig::quick()
    } else if args.full {
        MeasureConfig::default()
    } else {
        let mut schedule = MeasureConfig::default();
        schedule.warmup_cycles = 3_000;
        schedule.measure_cycles = 6_000;
        schedule
    }
}

/// One row of the Fig. 6 proxy sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProxyPoint {
    /// Arrangement family.
    pub kind: ArrangementKind,
    /// Regularity used at this `n`.
    pub regularity: hexamesh::Regularity,
    /// Chiplet count.
    pub n: usize,
    /// Diameter measured on the constructed graph.
    pub diameter: u32,
    /// Bisection bandwidth following the paper's methodology (formula for
    /// regular, partitioner otherwise).
    pub bisection: f64,
}

/// Computes the Fig. 6 proxies for all chiplet counts in `ns`, for every
/// kind in `kinds` (n-major, kinds inner — the figure's row order).
#[must_use]
pub fn proxy_sweep_over(kinds: &[ArrangementKind], ns: &[usize]) -> Vec<ProxyPoint> {
    let config = BisectionConfig::default();
    let mut out = Vec::new();
    for &n in ns {
        for &kind in kinds {
            let a = Arrangement::build(kind, n).expect("n >= 1 always builds");
            out.push(ProxyPoint {
                kind,
                regularity: a.regularity(),
                n,
                diameter: proxies::measured_diameter(&a).expect("connected"),
                bisection: proxies::paper_bisection(&a, &config),
            });
        }
    }
    out
}

/// Full [`eval::evaluate`] with each round of the saturation search
/// spreading its `fanout` rate points over `workers` threads on the engine
/// pool. Results are independent of `workers`: only the fanout changes
/// the probe sequence, and the caller fixes it. Used by the saturation
/// stage's `saturation.fanout` spec field.
///
/// # Panics
///
/// Panics if a simulation point fails (connected arrangements with valid
/// parameters never do).
#[must_use]
pub fn evaluate_pooled(
    arrangement: &Arrangement,
    params: &EvalParams,
    fanout: usize,
    workers: usize,
) -> EvalResult {
    eval::evaluate_with(arrangement, params, fanout.max(1), |zero_load, rates| {
        Ok(pool::run_jobs(
            rates,
            workers,
            |_| 1,
            |&rate| {
                eval::measure_load_point(arrangement, params, rate, zero_load)
                    .unwrap_or_else(|e| panic!("load point at rate {rate}: {e}"))
            },
            None,
        ))
    })
    .unwrap_or_else(|e| panic!("evaluate n={}: {e}", arrangement.num_chiplets()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_sweep_covers_all_kinds() {
        let points = proxy_sweep_over(&ArrangementKind::EVALUATED, &[7, 16]);
        assert_eq!(points.len(), 6);
        // HexaMesh at n=7 is regular with diameter 2 and bisection 5.
        let hm7 =
            points.iter().find(|p| p.kind == ArrangementKind::HexaMesh && p.n == 7).unwrap();
        assert_eq!(hm7.diameter, 2);
        assert_eq!(hm7.bisection, 5.0);
    }

    #[test]
    fn competition_rank_shares_tied_ranks() {
        assert_eq!(competition_rank(&[3.0, 1.0, 2.0]), vec![3, 1, 2]);
        // "1224": both middle values share rank 2, the next rank is 4.
        assert_eq!(competition_rank(&[1.0, 2.0, 2.0, 5.0]), vec![1, 2, 2, 4]);
        assert_eq!(competition_rank(&[]), Vec::<usize>::new());
    }

    fn tiny_params() -> EvalParams {
        let mut params = EvalParams::quick();
        params.sim.vcs = 4;
        params.sim.buffer_depth = 4;
        params.measure.warmup_cycles = 500;
        params.measure.measure_cycles = 1_000;
        params.measure.rate_resolution = 0.1;
        params
    }

    #[test]
    fn pooled_evaluation_matches_serial_at_fanout_one() {
        let params = tiny_params();
        let a = Arrangement::build(ArrangementKind::Grid, 4).unwrap();
        let serial = eval::evaluate(&a, &params).unwrap();
        let bisection =
            nocsim::measure::saturation_search(a.graph(), &params.sim, &params.measure)
                .unwrap();
        assert!(bisection.throughput > 0.0);
        assert_eq!(serial.saturation_fraction, bisection.throughput);
        for workers in [1, 4] {
            let pooled = evaluate_pooled(&a, &params, 1, workers);
            assert_eq!(serial, pooled, "fanout-1 batched search must equal bisection");
        }
        // Wider fanout probes different rates but must land near the same
        // knee.
        let wide = evaluate_pooled(&a, &params, 4, 4);
        assert!(
            (wide.saturation_fraction - serial.saturation_fraction).abs()
                <= 2.0 * params.measure.rate_resolution
        );
    }
}
