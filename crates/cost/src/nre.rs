//! Non-recurring engineering cost: mask sets and design effort, amortised
//! over production volume.
//!
//! Section I of the paper: "the non-recurring cost almost doubles whenever
//! we transition to a more advanced technology node", and chiplet **reuse**
//! "avoids redesigning components, further reducing the non-recurring cost".

use crate::CostError;

/// NRE inputs for one die design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NreParams {
    /// Mask-set cost for the node, dollars.
    pub mask_set: f64,
    /// Design/verification cost for the die, dollars.
    pub design: f64,
    /// Number of products (SKUs) this die is reused across (§I "Reuse");
    /// the NRE is split across them.
    pub reuse_products: u32,
    /// Production volume per product (units) the NRE amortises over.
    pub volume_per_product: u64,
}

impl NreParams {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// [`CostError::NonPositive`] for zero volumes/products or negative
    /// costs.
    pub fn validated(self) -> Result<Self, CostError> {
        if !(self.mask_set.is_finite() && self.mask_set >= 0.0) {
            return Err(CostError::NonPositive("mask-set cost"));
        }
        if !(self.design.is_finite() && self.design >= 0.0) {
            return Err(CostError::NonPositive("design cost"));
        }
        if self.reuse_products == 0 {
            return Err(CostError::NonPositive("reuse product count"));
        }
        if self.volume_per_product == 0 {
            return Err(CostError::NonPositive("production volume"));
        }
        Ok(self)
    }

    /// NRE dollars attributed to each unit shipped.
    ///
    /// # Errors
    ///
    /// See [`NreParams::validated`].
    pub fn per_unit(&self) -> Result<f64, CostError> {
        let p = self.validated()?;
        let total_units = u128::from(p.reuse_products) * u128::from(p.volume_per_product);
        Ok((p.mask_set + p.design) / total_units as f64)
    }
}

/// Per-unit NRE of a full system built from several die designs.
///
/// # Errors
///
/// Propagates per-die validation errors.
pub fn system_nre_per_unit(designs: &[NreParams]) -> Result<f64, CostError> {
    designs.iter().map(NreParams::per_unit).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> NreParams {
        NreParams {
            mask_set: 30.0e6,
            design: 100.0e6,
            reuse_products: 1,
            volume_per_product: 1_000_000,
        }
    }

    #[test]
    fn per_unit_amortization() {
        // (30M + 100M) / 1M units = $130/unit.
        assert!((base().per_unit().unwrap() - 130.0).abs() < 1e-9);
    }

    #[test]
    fn reuse_divides_nre() {
        // §I "Reuse": the same compute chiplet in 4 products quarters the
        // per-unit NRE.
        let reused = NreParams { reuse_products: 4, ..base() };
        assert!((reused.per_unit().unwrap() - 32.5).abs() < 1e-9);
    }

    #[test]
    fn system_nre_sums_designs() {
        // A 2.5D system: one reused compute chiplet + one cheap IO chiplet
        // on a mature node vs. one monolithic design.
        let compute = NreParams { reuse_products: 4, ..base() };
        let io = NreParams {
            mask_set: 5.0e6,
            design: 20.0e6,
            reuse_products: 8,
            volume_per_product: 1_000_000,
        };
        let mcm = system_nre_per_unit(&[compute, io]).unwrap();
        let monolithic = system_nre_per_unit(&[base()]).unwrap();
        assert!(mcm < monolithic, "mcm {mcm} !< monolithic {monolithic}");
    }

    #[test]
    fn validation() {
        assert!(NreParams { reuse_products: 0, ..base() }.validated().is_err());
        assert!(NreParams { volume_per_product: 0, ..base() }.validated().is_err());
        assert!(NreParams { mask_set: -1.0, ..base() }.validated().is_err());
    }
}
