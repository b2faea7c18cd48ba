//! Chiplet shape and bump-sector optimisation (§IV-B, Fig. 5).
//!
//! Each chiplet's C4-bump/micro-bump field is divided into sectors: one
//! central sector powers the chiplet (fraction `p_p` of all bumps) and the
//! remaining sectors feed the D2D links. The shape of the chiplet is chosen
//! so that all link sectors have equal area `A_B` and equal maximum
//! bump-to-edge distance `D_B`:
//!
//! * **Grid** (Fig. 5a): square chiplets, four link sectors,
//!   `A_B = (1 − p_p)·A_C / 4`.
//! * **Brickwall / HexaMesh** (Fig. 5b): 2:1-ish rectangles from the system
//!   of equations (1)–(5), six link sectors, `A_B = (1 − p_p)·A_C / 6`.

use std::fmt;

use crate::arrangement::{Arrangement, ArrangementKind};

/// Errors from shape computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShapeError {
    /// Chiplet area must be positive and finite.
    InvalidArea(f64),
    /// Power fraction must lie in `[0, 1)` — `p_p = 1` leaves no bumps for
    /// links.
    InvalidPowerFraction(f64),
    /// The honeycomb has no rectangular shape solution.
    NonRectangularKind(ArrangementKind),
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::InvalidArea(a) => write!(f, "chiplet area {a} must be positive"),
            ShapeError::InvalidPowerFraction(p) => {
                write!(f, "power fraction {p} must be in [0, 1)")
            }
            ShapeError::NonRectangularKind(kind) => {
                write!(f, "{kind} chiplets are not rectangular; no shape solution")
            }
        }
    }
}

impl std::error::Error for ShapeError {}

/// Inputs to the shape solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeParams {
    /// Chiplet area `A_C` in mm².
    pub chiplet_area: f64,
    /// Fraction `p_p ∈ [0, 1)` of bumps used for the power supply.
    pub power_fraction: f64,
}

impl ShapeParams {
    /// Validates and constructs shape parameters.
    ///
    /// # Errors
    ///
    /// [`ShapeError::InvalidArea`] or [`ShapeError::InvalidPowerFraction`].
    pub fn new(chiplet_area: f64, power_fraction: f64) -> Result<Self, ShapeError> {
        if !(chiplet_area.is_finite() && chiplet_area > 0.0) {
            return Err(ShapeError::InvalidArea(chiplet_area));
        }
        if !(0.0..1.0).contains(&power_fraction) {
            return Err(ShapeError::InvalidPowerFraction(power_fraction));
        }
        Ok(Self { chiplet_area, power_fraction })
    }
}

/// A solved chiplet shape with its bump-sector geometry (all lengths mm,
/// areas mm²).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipletShape {
    /// Chiplet width `W_C`.
    pub width: f64,
    /// Chiplet height `H_C`.
    pub height: f64,
    /// Number of D2D-link bump sectors (4 for grid, 6 for BW/HM).
    pub link_sectors: usize,
    /// Area `A_B` of each link sector.
    pub link_sector_area: f64,
    /// Maximum distance `D_B` between a link bump and the chiplet edge.
    pub max_bump_distance: f64,
    /// Width `W_P` of the central power sector.
    pub power_width: f64,
    /// Height `H_P` of the central power sector.
    pub power_height: f64,
}

impl ChipletShape {
    /// Aspect ratio `W_C / H_C`.
    #[must_use]
    pub fn aspect_ratio(&self) -> f64 {
        self.width / self.height
    }

    /// Area check: `W_C · H_C` (equals `A_C` up to rounding).
    #[must_use]
    pub fn area(&self) -> f64 {
        self.width * self.height
    }
}

/// Shape of a grid-arrangement chiplet (Fig. 5a): a square with the power
/// sector centred and one link sector per side.
///
/// # Errors
///
/// Never fails for validated [`ShapeParams`]; signature kept fallible for
/// API uniformity with [`shape_for`].
pub fn grid_shape(params: &ShapeParams) -> Result<ChipletShape, ShapeError> {
    let ac = params.chiplet_area;
    let pp = params.power_fraction;
    let wc = ac.sqrt();
    let wp = (pp * ac).sqrt();
    Ok(ChipletShape {
        width: wc,
        height: wc,
        link_sectors: 4,
        link_sector_area: 0.25 * (1.0 - pp) * ac,
        max_bump_distance: 0.5 * (wc - wp),
        power_width: wp,
        power_height: wp,
    })
}

/// Shape of a brickwall/HexaMesh chiplet (Fig. 5b): the solution of the
/// system of equations (1)–(5):
///
/// ```text
/// W_C = √(A_C (2 + 4 p_p) / 3)      H_C = A_C / W_C
/// D_B = (1 − p_p) A_C / √(A_C (6 + 12 p_p))
/// ```
///
/// # Errors
///
/// Never fails for validated [`ShapeParams`]; signature kept fallible for
/// API uniformity with [`shape_for`].
pub fn brickwall_shape(params: &ShapeParams) -> Result<ChipletShape, ShapeError> {
    let ac = params.chiplet_area;
    let pp = params.power_fraction;
    let wc = (ac * (2.0 + 4.0 * pp) / 3.0).sqrt();
    let hc = ac / wc;
    let db = (1.0 - pp) * ac / (ac * (6.0 + 12.0 * pp)).sqrt();
    let lb = wc / 2.0;
    let wp = wc - 2.0 * db;
    Ok(ChipletShape {
        width: wc,
        height: hc,
        link_sectors: 6,
        link_sector_area: (1.0 - pp) * ac / 6.0,
        max_bump_distance: db,
        power_width: wp,
        power_height: lb,
    })
}

/// Shape solution for an arrangement kind.
///
/// # Errors
///
/// [`ShapeError::NonRectangularKind`] for the honeycomb.
pub fn shape_for(
    kind: ArrangementKind,
    params: &ShapeParams,
) -> Result<ChipletShape, ShapeError> {
    match kind {
        ArrangementKind::Grid => grid_shape(params),
        ArrangementKind::Brickwall | ArrangementKind::HexaMesh => brickwall_shape(params),
        ArrangementKind::Honeycomb => Err(ShapeError::NonRectangularKind(kind)),
    }
}

/// The paper's §V link-length proxy: the worst-case distance `D_B` from a
/// link bump to the chiplet edge (the partner bump is assumed staggered near
/// the boundary). At the paper's 800 mm² total area this stays "below 4 mm
/// in general, for N ≥ 10 chiplets even below 2 mm" — verified in tests.
#[must_use]
pub fn paper_link_length(shape: &ChipletShape) -> f64 {
    shape.max_bump_distance
}

/// Conservative worst-case D2D link length: both endpoint bumps sit at the
/// maximal distance `D_B` from the shared edge, so the wire spans `2 · D_B`.
/// Twice [`paper_link_length`]; useful as an upper bound when budgeting
/// insertion loss.
#[must_use]
pub fn estimated_link_length(shape: &ChipletShape) -> f64 {
    2.0 * shape.max_bump_distance
}

/// Hand-optimised link-sector area for tiny arrangements (§VI-B: "except
/// for arrangements with N ≤ 7 chiplets which are hand-optimized"): all
/// non-power bump area is split across the links of the busiest chiplet, so
/// no bump area lies fallow. Returns `None` when the arrangement has no
/// links at all (`N = 1`).
#[must_use]
pub fn hand_optimized_sector_area(
    arrangement: &Arrangement,
    params: &ShapeParams,
) -> Option<f64> {
    let max_degree = arrangement.degree_stats().max;
    (max_degree > 0)
        .then(|| (1.0 - params.power_fraction) * params.chiplet_area / max_degree as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrangement::Regularity;

    fn params(ac: f64, pp: f64) -> ShapeParams {
        ShapeParams::new(ac, pp).expect("valid test params")
    }

    #[test]
    fn validation() {
        assert!(matches!(ShapeParams::new(0.0, 0.4), Err(ShapeError::InvalidArea(_))));
        assert!(matches!(ShapeParams::new(-1.0, 0.4), Err(ShapeError::InvalidArea(_))));
        assert!(matches!(
            ShapeParams::new(16.0, 1.0),
            Err(ShapeError::InvalidPowerFraction(_))
        ));
        assert!(matches!(
            ShapeParams::new(16.0, -0.1),
            Err(ShapeError::InvalidPowerFraction(_))
        ));
        assert!(ShapeParams::new(16.0, 0.0).is_ok());
    }

    #[test]
    fn paper_worked_example() {
        // §IV-B: A_C = 16 mm², p_p = 0.4 ⇒ W_C = 4.38, H_C = 3.65,
        // D_B = 0.73 (mm).
        let shape = brickwall_shape(&params(16.0, 0.4)).unwrap();
        assert!((shape.width - 4.38).abs() < 0.01, "W_C = {}", shape.width);
        assert!((shape.height - 3.65).abs() < 0.01, "H_C = {}", shape.height);
        assert!(
            (shape.max_bump_distance - 0.73).abs() < 0.01,
            "D_B = {}",
            shape.max_bump_distance
        );
    }

    #[test]
    fn grid_shape_is_square() {
        let shape = grid_shape(&params(16.0, 0.4)).unwrap();
        assert_eq!(shape.width, shape.height);
        assert_eq!(shape.width, 4.0);
        assert_eq!(shape.link_sectors, 4);
        // A_B = (1 − 0.4) · 16 / 4 = 2.4.
        assert!((shape.link_sector_area - 2.4).abs() < 1e-12);
    }

    #[test]
    fn sector_areas_tile_the_chiplet() {
        for pp in [0.0, 0.2, 0.4, 0.6, 0.8] {
            let p = params(20.0, pp);
            let g = grid_shape(&p).unwrap();
            let total_g = g.link_sectors as f64 * g.link_sector_area + pp * p.chiplet_area;
            assert!((total_g - p.chiplet_area).abs() < 1e-9, "grid pp={pp}");
            let b = brickwall_shape(&p).unwrap();
            let total_b = b.link_sectors as f64 * b.link_sector_area + pp * p.chiplet_area;
            assert!((total_b - p.chiplet_area).abs() < 1e-9, "bw pp={pp}");
        }
    }

    #[test]
    fn equation_system_identities_hold() {
        // Check Eqs. (1)–(5) of §IV-B on the solved shape.
        for (ac, pp) in [(16.0, 0.4), (8.0, 0.25), (32.0, 0.6), (5.0, 0.0)] {
            let p = params(ac, pp);
            let s = brickwall_shape(&p).unwrap();
            let lb = s.width / 2.0; // Eq. (2): W_C = 2 L_B
                                    // Eq. (1): H_C = 2 D_B + L_B.
            assert!(
                (s.height - (2.0 * s.max_bump_distance + lb)).abs() < 1e-9,
                "eq1 ac={ac} pp={pp}"
            );
            // Eq. (3): W_P = W_C − 2 D_B.
            assert!(
                (s.power_width - (s.width - 2.0 * s.max_bump_distance)).abs() < 1e-9,
                "eq3 ac={ac} pp={pp}"
            );
            // Eq. (4): H_C · W_C = A_C.
            assert!((s.area() - ac).abs() < 1e-9, "eq4 ac={ac} pp={pp}");
            // Eq. (5): W_P · L_B = A_C · p_p.
            assert!((s.power_width * lb - ac * pp).abs() < 1e-9, "eq5 ac={ac} pp={pp}");
        }
    }

    #[test]
    fn bump_distances_comparable_between_layouts() {
        // For the paper's parameters both layouts keep D_B well below 1 mm,
        // enabling short (high-frequency) D2D links.
        let p = params(16.0, 0.4);
        assert!(grid_shape(&p).unwrap().max_bump_distance < 1.0);
        assert!(brickwall_shape(&p).unwrap().max_bump_distance < 1.0);
    }

    #[test]
    fn honeycomb_has_no_shape() {
        let err = shape_for(ArrangementKind::Honeycomb, &params(16.0, 0.4)).unwrap_err();
        assert!(matches!(err, ShapeError::NonRectangularKind(_)));
    }

    #[test]
    fn hand_optimized_area_uses_max_degree() {
        let p = params(100.0, 0.4);
        // N = 2 grid: each chiplet has one link; all 60 mm² of link bump
        // area feeds it.
        let a2 = Arrangement::build(ArrangementKind::Grid, 2).unwrap();
        assert!((hand_optimized_sector_area(&a2, &p).unwrap() - 60.0).abs() < 1e-9);
        // N = 7 HexaMesh: centre chiplet has 6 links.
        let a7 = Arrangement::build(ArrangementKind::HexaMesh, 7).unwrap();
        assert!((hand_optimized_sector_area(&a7, &p).unwrap() - 10.0).abs() < 1e-9);
        // N = 1: no links.
        let a1 =
            Arrangement::build_with_regularity(ArrangementKind::Grid, 1, Regularity::Regular)
                .unwrap();
        assert!(hand_optimized_sector_area(&a1, &p).is_none());
    }

    #[test]
    fn paper_link_length_claim_holds() {
        // §V: at A_all = 800 mm², link lengths are below 4 mm for all N >= 2
        // and below 2 mm for N >= 10 — for both bump layouts.
        for n in 2..=100usize {
            let ac = 800.0 / n as f64;
            let p = params(ac, 0.4);
            for shape in [grid_shape(&p).unwrap(), brickwall_shape(&p).unwrap()] {
                let length = paper_link_length(&shape);
                assert!(length < 4.0, "n={n}: link length {length:.2} mm");
                if n >= 10 {
                    assert!(length < 2.0, "n={n}: link length {length:.2} mm");
                }
                // The conservative two-sided bound is exactly twice that.
                assert!((estimated_link_length(&shape) - 2.0 * length).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn link_length_shrinks_with_chiplet_count() {
        let mut last = f64::INFINITY;
        for n in [2usize, 10, 50, 100, 200] {
            let p = params(800.0 / n as f64, 0.4);
            let length = paper_link_length(&brickwall_shape(&p).unwrap());
            assert!(length < last, "n={n}");
            last = length;
        }
    }

    #[test]
    fn zero_power_fraction_extremes() {
        let s = brickwall_shape(&params(12.0, 0.0)).unwrap();
        // With no power bumps, W_P = 0 and everything feeds links.
        assert!(s.power_width.abs() < 1e-9);
        assert!((s.link_sector_area * 6.0 - 12.0).abs() < 1e-9);
    }

    #[test]
    fn error_display() {
        assert!(ShapeError::InvalidArea(-3.0).to_string().contains("-3"));
        assert!(ShapeError::InvalidPowerFraction(2.0).to_string().contains('2'));
    }
}
