//! Frequency-binning revenue: the per-chiplet binning advantage.
//!
//! §I of the paper: "In binning, chips are grouped into different bins
//! (e.g., based on power consumption or maximum clock frequency) which are
//! then priced differently. In 2.5D integration, binning is done on a
//! per-chiplet scale, increasing the total revenue."
//!
//! The mechanism: a die's maximum frequency is a random variable
//! (parametric variation). A monolithic chip containing `m` compute blocks
//! clocks at the *slowest* block — the minimum of `m` samples — while
//! disaggregated chiplets are binned individually before assembly and can
//! be matched into same-bin systems. Since the minimum of `m` samples is
//! stochastically dominated by a single sample, per-chiplet binning always
//! earns at least as much per compute unit, and the gap grows with `m` and
//! with process variation.

use crate::CostError;

/// One price bin: sold at `price` if the unit clocks at `min_ghz` or above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyBin {
    /// Lower frequency edge of the bin in GHz.
    pub min_ghz: f64,
    /// Selling price per compute unit in dollars.
    pub price: f64,
}

/// Parametric-variation and price-ladder inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct BinningParams {
    /// Mean maximum frequency of one compute unit in GHz.
    pub mean_ghz: f64,
    /// Standard deviation of the maximum frequency in GHz.
    pub sigma_ghz: f64,
    /// Price ladder, strictly descending in `min_ghz`; a unit sells in the
    /// first bin whose threshold it meets.
    pub bins: Vec<FrequencyBin>,
    /// Revenue for units below every bin (scrap/salvage).
    pub salvage_price: f64,
}

impl BinningParams {
    /// A laptop-CPU-flavoured ladder around a 3 GHz mean with 150 MHz
    /// sigma: premium, standard, and value bins.
    #[must_use]
    pub fn consumer_cpu() -> Self {
        Self {
            mean_ghz: 3.0,
            sigma_ghz: 0.15,
            bins: vec![
                FrequencyBin { min_ghz: 3.2, price: 450.0 },
                FrequencyBin { min_ghz: 3.0, price: 320.0 },
                FrequencyBin { min_ghz: 2.7, price: 220.0 },
            ],
            salvage_price: 40.0,
        }
    }

    /// Validates ordering and ranges.
    ///
    /// # Errors
    ///
    /// [`CostError::NonPositive`] naming the offending field; the bin
    /// ladder must be non-empty, strictly descending in threshold, with
    /// non-negative prices.
    pub fn validated(&self) -> Result<(), CostError> {
        if !(self.mean_ghz.is_finite() && self.mean_ghz > 0.0) {
            return Err(CostError::NonPositive("mean frequency"));
        }
        if !(self.sigma_ghz.is_finite() && self.sigma_ghz >= 0.0) {
            return Err(CostError::NonPositive("frequency sigma"));
        }
        if self.bins.is_empty() {
            return Err(CostError::NonPositive("bin count"));
        }
        for w in self.bins.windows(2) {
            if w[1].min_ghz >= w[0].min_ghz {
                return Err(CostError::NonPositive("bin ladder ordering"));
            }
        }
        for b in &self.bins {
            if !(b.price.is_finite() && b.price >= 0.0 && b.min_ghz.is_finite()) {
                return Err(CostError::NonPositive("bin price/threshold"));
            }
        }
        if !(self.salvage_price.is_finite() && self.salvage_price >= 0.0) {
            return Err(CostError::NonPositive("salvage price"));
        }
        Ok(())
    }

    /// `P[unit frequency ≥ f]` for a single compute unit.
    fn survival(&self, f_ghz: f64) -> f64 {
        if self.sigma_ghz == 0.0 {
            return if self.mean_ghz >= f_ghz { 1.0 } else { 0.0 };
        }
        let z = (f_ghz - self.mean_ghz) / self.sigma_ghz;
        1.0 - normal_cdf(z)
    }

    /// Expected revenue per compute unit when units are binned
    /// **individually** (the 2.5D case: each chiplet is tested and binned
    /// before assembly, and same-bin chiplets are matched).
    ///
    /// # Errors
    ///
    /// See [`BinningParams::validated`].
    pub fn per_unit_revenue_individual(&self) -> Result<f64, CostError> {
        self.validated()?;
        Ok(self.expected_revenue(|f| self.survival(f)))
    }

    /// Expected revenue per compute unit when `m` units share one die (the
    /// monolithic case): the die clocks at the slowest of `m` samples, so
    /// every unit sells in the bin of the *minimum*.
    ///
    /// # Errors
    ///
    /// [`CostError::NonPositive`] for `m == 0` or invalid parameters.
    pub fn per_unit_revenue_monolithic(&self, m: u32) -> Result<f64, CostError> {
        self.validated()?;
        if m == 0 {
            return Err(CostError::NonPositive("compute units per die"));
        }
        // P[min of m ≥ f] = P[single ≥ f]^m.
        Ok(self.expected_revenue(|f| self.survival(f).powi(m as i32)))
    }

    /// Expected revenue given the survival function `P[frequency ≥ f]`.
    fn expected_revenue(&self, survival: impl Fn(f64) -> f64) -> f64 {
        let mut revenue = 0.0;
        let mut prob_higher = 0.0; // P[selling in a better bin already]
        for bin in &self.bins {
            let p_at_least = survival(bin.min_ghz);
            let p_this_bin = (p_at_least - prob_higher).max(0.0);
            revenue += p_this_bin * bin.price;
            prob_higher = p_at_least.max(prob_higher);
        }
        revenue + (1.0 - prob_higher).max(0.0) * self.salvage_price
    }
}

/// The binning comparison for an `m`-unit product.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinningComparison {
    /// Per-compute-unit revenue with per-chiplet binning.
    pub individual: f64,
    /// Per-compute-unit revenue with monolithic (min-of-m) binning.
    pub monolithic: f64,
}

impl BinningComparison {
    /// Relative revenue uplift of per-chiplet binning (`≥ 0`).
    #[must_use]
    pub fn uplift_fraction(&self) -> f64 {
        if self.monolithic <= 0.0 {
            return 0.0;
        }
        self.individual / self.monolithic - 1.0
    }
}

/// Compares per-chiplet and monolithic binning revenue for a product with
/// `m` compute units.
///
/// # Errors
///
/// Propagates parameter validation failures.
pub fn binning_comparison(
    params: &BinningParams,
    m: u32,
) -> Result<BinningComparison, CostError> {
    Ok(BinningComparison {
        individual: params.per_unit_revenue_individual()?,
        monolithic: params.per_unit_revenue_monolithic(m)?,
    })
}

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 `erf`
/// approximation (absolute error ≤ 1.5e−7 — ample for revenue fractions).
fn normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let erf = |x: f64| -> f64 {
        let sign = if x < 0.0 { -1.0 } else { 1.0 };
        let x = x.abs();
        const P: f64 = 0.327_591_1;
        const A: [f64; 5] =
            [0.254_829_592, -0.284_496_736, 1.421_413_741, -1.453_152_027, 1.061_405_429];
        let t = 1.0 / (1.0 + P * x);
        let poly = t * (A[0] + t * (A[1] + t * (A[2] + t * (A[3] + t * A[4]))));
        sign * (1.0 - poly * (-x * x).exp())
    };
    0.5 * (1.0 + erf(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_bad_ladders() {
        let mut p = BinningParams::consumer_cpu();
        p.bins[0].min_ghz = 2.0; // no longer descending
        assert!(p.validated().is_err());
        let mut p = BinningParams::consumer_cpu();
        p.bins.clear();
        assert!(p.validated().is_err());
        let mut p = BinningParams::consumer_cpu();
        p.bins[1].price = -5.0;
        assert!(p.validated().is_err());
        let mut p = BinningParams::consumer_cpu();
        p.sigma_ghz = f64::NAN;
        assert!(p.validated().is_err());
        assert!(BinningParams::consumer_cpu().validated().is_ok());
    }

    #[test]
    fn zero_variation_equalises_the_two_schemes() {
        let p = BinningParams { sigma_ghz: 0.0, ..BinningParams::consumer_cpu() };
        let cmp = binning_comparison(&p, 8).unwrap();
        assert!((cmp.individual - cmp.monolithic).abs() < 1e-12);
        assert_eq!(cmp.uplift_fraction(), 0.0);
        // Every die clocks exactly at the 3.0 GHz mean: the standard bin.
        assert!((cmp.individual - 320.0).abs() < 1e-9);
    }

    #[test]
    fn single_bin_at_mean_checkpoint() {
        // One bin at exactly the mean: a single sample passes with
        // probability ½; the min of two with probability ¼.
        let p = BinningParams {
            mean_ghz: 3.0,
            sigma_ghz: 0.2,
            bins: vec![FrequencyBin { min_ghz: 3.0, price: 100.0 }],
            salvage_price: 0.0,
        };
        let single = p.per_unit_revenue_individual().unwrap();
        let duo = p.per_unit_revenue_monolithic(2).unwrap();
        assert!((single - 50.0).abs() < 1e-3, "{single}");
        assert!((duo - 25.0).abs() < 1e-3, "{duo}");
    }

    #[test]
    fn uplift_is_nonnegative_and_grows_with_m() {
        let p = BinningParams::consumer_cpu();
        let mut last = 0.0;
        for m in [1u32, 2, 4, 8, 16] {
            let cmp = binning_comparison(&p, m).unwrap();
            let uplift = cmp.uplift_fraction();
            assert!(uplift >= last - 1e-12, "uplift shrank at m={m}");
            assert!(uplift >= 0.0);
            last = uplift;
        }
        // m = 1: the two schemes coincide.
        let cmp = binning_comparison(&p, 1).unwrap();
        assert!(cmp.uplift_fraction().abs() < 1e-12);
    }

    #[test]
    fn more_variation_more_uplift() {
        let narrow = BinningParams { sigma_ghz: 0.05, ..BinningParams::consumer_cpu() };
        let wide = BinningParams { sigma_ghz: 0.30, ..BinningParams::consumer_cpu() };
        let u_narrow = binning_comparison(&narrow, 8).unwrap().uplift_fraction();
        let u_wide = binning_comparison(&wide, 8).unwrap().uplift_fraction();
        assert!(u_wide > u_narrow, "wide {u_wide} !> narrow {u_narrow}");
    }

    #[test]
    fn revenue_bounded_by_ladder_extremes() {
        let p = BinningParams::consumer_cpu();
        for m in [1u32, 4, 32] {
            let cmp = binning_comparison(&p, m).unwrap();
            for r in [cmp.individual, cmp.monolithic] {
                assert!(r >= p.salvage_price - 1e-9);
                assert!(r <= p.bins[0].price + 1e-9);
            }
        }
    }

    #[test]
    fn zero_units_rejected() {
        let p = BinningParams::consumer_cpu();
        assert!(p.per_unit_revenue_monolithic(0).is_err());
    }
}
