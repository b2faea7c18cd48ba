//! A quantitative cost model for 2.5D integration, in the spirit of
//! *Chiplet Actuary* (Feng & Ma, 2022), which the HexaMesh paper names as
//! the complementary methodology to its performance analysis (§VII): "This
//! cost model could be applied together with our evaluation methodology to
//! compare architectures both in terms of cost and performance."
//!
//! The model covers the recurring cost mechanics §I of the paper argues
//! motivate disaggregation:
//!
//! * [`wafer`] — wafer geometry: gross dies per wafer,
//! * [`yield_model`] — fabrication yield vs. die area (Poisson, Murphy,
//!   negative-binomial clustering),
//! * [`die`] — recurring die cost including known-good-die (KGD) testing,
//! * [`packaging`] — package substrate / silicon interposer and bonding
//!   yield,
//! * [`system`] — putting it together: monolithic vs. 2.5D system cost and
//!   the disaggregation break-even.
//!
//! # Example
//!
//! ```
//! use chiplet_cost::system::{CostParams, system_cost_comparison};
//!
//! let params = CostParams::default_5nm();
//! let cmp = system_cost_comparison(&params, 800.0, 16)?;
//! // An 800 mm² system at 5 nm defect densities: disaggregation wins.
//! assert!(cmp.mcm_total < cmp.monolithic_total);
//! # Ok::<(), chiplet_cost::CostError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binning;
pub mod die;
pub mod packaging;
pub mod system;
pub mod wafer;
pub mod yield_model;

use std::fmt;

/// Errors from cost-model computations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostError {
    /// A parameter that must be positive (area, diameter, cost, volume…)
    /// was not. The message names it.
    NonPositive(&'static str),
    /// The die is too large to fit the wafer at all.
    DieLargerThanWafer {
        /// Die area in mm².
        die_area: f64,
        /// Wafer diameter in mm.
        wafer_diameter: f64,
    },
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::NonPositive(what) => write!(f, "{what} must be positive"),
            CostError::DieLargerThanWafer { die_area, wafer_diameter } => write!(
                f,
                "die of {die_area} mm² cannot be cut from a {wafer_diameter} mm wafer"
            ),
        }
    }
}

impl std::error::Error for CostError {}
