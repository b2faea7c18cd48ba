//! The D2D link-bandwidth model (§V, Table I).
//!
//! ```text
//! N_w  = A_B / P_B²          (wires that fit the bump sector)
//! N_dw = N_w − N_ndw         (minus handshake/clock/sideband wires)
//! B    = N_dw · f            (link bandwidth)
//! ```
//!
//! The wire count is floored to an integer (a regular bump layout cannot
//! hold fractional wires; the paper notes a staggered layout would fit
//! slightly more).

use std::fmt;

/// Errors from the link model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkModelError {
    /// Bump-sector area must be non-negative and finite.
    InvalidArea(f64),
    /// Bump pitch must be positive and finite.
    InvalidPitch(f64),
    /// Frequency must be positive and finite.
    InvalidFrequency(f64),
}

impl fmt::Display for LinkModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkModelError::InvalidArea(a) => write!(f, "bump area {a} must be >= 0"),
            LinkModelError::InvalidPitch(p) => write!(f, "bump pitch {p} must be > 0"),
            LinkModelError::InvalidFrequency(hz) => write!(f, "frequency {hz} must be > 0"),
        }
    }
}

impl std::error::Error for LinkModelError {}

/// Architectural parameters of Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// `A_B`: area (mm²) available for the bumps of one D2D link.
    pub bump_area: f64,
    /// `P_B`: bump pitch (mm).
    pub bump_pitch: f64,
    /// `N_ndw`: non-data wires per link (handshake, clock, sideband).
    pub non_data_wires: u32,
    /// `f`: link operating frequency in GHz.
    pub frequency_ghz: f64,
}

impl LinkParams {
    /// The paper's UCIe-derived constants (§VI-B): C4 bumps at 0.15 mm
    /// pitch, 12 non-data wires, 16 GHz operation. `bump_area` is filled in
    /// per-arrangement by the caller.
    #[must_use]
    pub fn ucie_c4(bump_area: f64) -> Self {
        Self {
            bump_area,
            bump_pitch: UCIE_BUMP_PITCH_MM,
            non_data_wires: UCIE_NON_DATA_WIRES,
            frequency_ghz: UCIE_FREQUENCY_GHZ,
        }
    }

    /// Silicon-interposer micro-bumps (§II: 30–60 µm pitch; we take the
    /// 45 µm midpoint). The ~11× bump-density advantage over C4 is the
    /// reason interposers exist despite their cost and their ≤ 2 mm link
    /// reach.
    #[must_use]
    pub fn ucie_microbump(bump_area: f64) -> Self {
        Self {
            bump_area,
            bump_pitch: MICROBUMP_PITCH_MM,
            non_data_wires: UCIE_NON_DATA_WIRES,
            frequency_ghz: UCIE_FREQUENCY_GHZ,
        }
    }
}

/// §VI-B: C4 bump pitch `P_B` = 0.15 mm.
pub const UCIE_BUMP_PITCH_MM: f64 = 0.15;
/// §II: micro-bump pitch midpoint (30–60 µm range) for silicon interposers.
pub const MICROBUMP_PITCH_MM: f64 = 0.045;
/// §VI-B: `N_ndw` = 12 (2 clock, 1 valid, 1 track per direction + 4
/// sideband).
pub const UCIE_NON_DATA_WIRES: u32 = 12;
/// §VI-B: 16 GHz operation (UCIe's 32 GT/s maximum data rate).
pub const UCIE_FREQUENCY_GHZ: f64 = 16.0;
/// §VI-B: combined compute-chiplet area, just below the reticle limit.
pub const UCIE_TOTAL_AREA_MM2: f64 = 800.0;
/// §VI-B: fraction of bumps used for power supply.
pub const UCIE_POWER_FRACTION: f64 = 0.4;

/// Output of the link model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEstimate {
    /// `N_w`: wires that fit the sector.
    pub wires: u64,
    /// `N_dw`: data wires (`N_w − N_ndw`, floored at zero).
    pub data_wires: u64,
    /// `B`: link bandwidth in Gbit/s (`N_dw · f`); integral for integral
    /// frequencies but stored ×1000 as Mbit/s to stay exact.
    pub bandwidth_mbps: u64,
}

impl LinkEstimate {
    /// Link bandwidth in Gbit/s.
    #[must_use]
    pub fn bandwidth_gbps(&self) -> f64 {
        self.bandwidth_mbps as f64 / 1_000.0
    }

    /// Link bandwidth in Tbit/s.
    #[must_use]
    pub fn bandwidth_tbps(&self) -> f64 {
        self.bandwidth_mbps as f64 / 1_000_000.0
    }
}

/// Estimates the bandwidth of one D2D link (§V-B).
///
/// # Errors
///
/// Returns a [`LinkModelError`] for non-finite or non-positive parameters.
///
/// # Example
///
/// ```
/// use hexamesh::link::{estimate_link, LinkParams};
///
/// // A 2.4 mm² sector of 0.15 mm-pitch C4 bumps at 16 GHz:
/// let est = estimate_link(&LinkParams::ucie_c4(2.4))?;
/// assert_eq!(est.wires, 106);       // ⌊2.4 / 0.0225⌋
/// assert_eq!(est.data_wires, 94);   // 106 − 12
/// assert_eq!(est.bandwidth_gbps(), 1504.0);
/// # Ok::<(), hexamesh::link::LinkModelError>(())
/// ```
pub fn estimate_link(params: &LinkParams) -> Result<LinkEstimate, LinkModelError> {
    if !(params.bump_area.is_finite() && params.bump_area >= 0.0) {
        return Err(LinkModelError::InvalidArea(params.bump_area));
    }
    if !(params.bump_pitch.is_finite() && params.bump_pitch > 0.0) {
        return Err(LinkModelError::InvalidPitch(params.bump_pitch));
    }
    if !(params.frequency_ghz.is_finite() && params.frequency_ghz > 0.0) {
        return Err(LinkModelError::InvalidFrequency(params.frequency_ghz));
    }
    let wires = (params.bump_area / (params.bump_pitch * params.bump_pitch)).floor() as u64;
    let data_wires = wires.saturating_sub(u64::from(params.non_data_wires));
    let bandwidth_mbps = (data_wires as f64 * params.frequency_ghz * 1_000.0).round() as u64;
    Ok(LinkEstimate { wires, data_wires, bandwidth_mbps })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        let bad_area = LinkParams { bump_area: f64::NAN, ..LinkParams::ucie_c4(1.0) };
        assert!(matches!(estimate_link(&bad_area), Err(LinkModelError::InvalidArea(_))));
        let bad_pitch = LinkParams { bump_pitch: 0.0, ..LinkParams::ucie_c4(1.0) };
        assert!(matches!(estimate_link(&bad_pitch), Err(LinkModelError::InvalidPitch(_))));
        let bad_freq = LinkParams { frequency_ghz: -16.0, ..LinkParams::ucie_c4(1.0) };
        assert!(matches!(estimate_link(&bad_freq), Err(LinkModelError::InvalidFrequency(_))));
    }

    #[test]
    fn wire_count_floors() {
        // 1 mm² at 0.15 mm pitch: 1 / 0.0225 = 44.4 → 44 wires.
        let est = estimate_link(&LinkParams::ucie_c4(1.0)).unwrap();
        assert_eq!(est.wires, 44);
        assert_eq!(est.data_wires, 32);
    }

    #[test]
    fn non_data_wires_saturate_at_zero() {
        // A sector too small for even the non-data wires yields zero
        // bandwidth, not a negative count.
        let est = estimate_link(&LinkParams::ucie_c4(0.1)).unwrap();
        assert!(est.wires < 12);
        assert_eq!(est.data_wires, 0);
        assert_eq!(est.bandwidth_mbps, 0);
    }

    #[test]
    fn zero_area_is_valid_and_zero_bandwidth() {
        let est = estimate_link(&LinkParams::ucie_c4(0.0)).unwrap();
        assert_eq!(est.wires, 0);
        assert_eq!(est.bandwidth_gbps(), 0.0);
    }

    #[test]
    fn bandwidth_monotone_in_area() {
        let mut last = 0;
        for area in [0.5, 1.0, 2.0, 4.0, 8.0] {
            let est = estimate_link(&LinkParams::ucie_c4(area)).unwrap();
            assert!(est.bandwidth_mbps >= last, "area {area}");
            last = est.bandwidth_mbps;
        }
    }

    #[test]
    fn bandwidth_scales_with_frequency() {
        let base = LinkParams::ucie_c4(2.0);
        let double = LinkParams { frequency_ghz: 32.0, ..base };
        let b1 = estimate_link(&base).unwrap().bandwidth_mbps;
        let b2 = estimate_link(&double).unwrap().bandwidth_mbps;
        assert_eq!(b2, 2 * b1);
    }

    #[test]
    fn microbumps_pack_an_order_of_magnitude_more_wires() {
        // (0.15 / 0.045)² ≈ 11.1× the wire count for the same sector.
        let c4 = estimate_link(&LinkParams::ucie_c4(2.4)).unwrap();
        let micro = estimate_link(&LinkParams::ucie_microbump(2.4)).unwrap();
        let ratio = micro.wires as f64 / c4.wires as f64;
        assert!((10.0..12.5).contains(&ratio), "wire ratio {ratio}");
        assert!(micro.bandwidth_mbps > 10 * c4.bandwidth_mbps);
    }

    #[test]
    fn unit_conversions() {
        let est = LinkEstimate { wires: 0, data_wires: 0, bandwidth_mbps: 1_504_000 };
        assert_eq!(est.bandwidth_gbps(), 1_504.0);
        assert!((est.bandwidth_tbps() - 1.504).abs() < 1e-12);
    }
}
