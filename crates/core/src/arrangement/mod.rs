//! Chiplet arrangements: grid, brickwall, honeycomb, HexaMesh (§IV).
//!
//! Each arrangement is generated as a physical [`Placement`] of rectangles
//! on an integer lattice (bricks are 2×1, grid cells 1×1 — proportions do
//! not affect the contact graph) and converted to its ICI graph by
//! shared-edge adjacency. The honeycomb uses hexagonal chiplets, which
//! violates the rectangular-chiplet constraint; it is generated graph-only
//! to verify the paper's claim that the brickwall realises the same graph.

mod brickwall;
mod grid;
mod hexamesh;
mod honeycomb;

use std::fmt;

use chiplet_graph::{metrics, Graph};
use chiplet_layout::{LayoutError, PlacedChiplet, Placement, Rect};

pub use hexamesh::{hexamesh_count, ring_radius};

/// The four arrangement families of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrangementKind {
    /// 2D grid — the paper's baseline (Fig. 4a).
    Grid,
    /// Honeycomb of hexagonal chiplets (Fig. 4b; violates constraints).
    Honeycomb,
    /// Brickwall of rectangular chiplets (Fig. 4c).
    Brickwall,
    /// HexaMesh: rings around a central chiplet (Fig. 4d; the contribution).
    HexaMesh,
}

impl ArrangementKind {
    /// All four kinds, in the paper's presentation order.
    pub const ALL: [ArrangementKind; 4] = [
        ArrangementKind::Grid,
        ArrangementKind::Honeycomb,
        ArrangementKind::Brickwall,
        ArrangementKind::HexaMesh,
    ];

    /// The three kinds evaluated in §VI (the honeycomb is excluded because
    /// it violates the rectangular-chiplet constraint).
    pub const EVALUATED: [ArrangementKind; 3] =
        [ArrangementKind::Grid, ArrangementKind::Brickwall, ArrangementKind::HexaMesh];

    /// Number of D2D-link bump sectors per chiplet (§IV-B): 4 for the grid
    /// layout of Fig. 5a, 6 for the brickwall/HexaMesh layout of Fig. 5b.
    #[must_use]
    pub fn link_sectors(&self) -> usize {
        match self {
            ArrangementKind::Grid => 4,
            _ => 6,
        }
    }

    /// Short label used in CSV output ("G", "HC", "BW", "HM").
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ArrangementKind::Grid => "G",
            ArrangementKind::Honeycomb => "HC",
            ArrangementKind::Brickwall => "BW",
            ArrangementKind::HexaMesh => "HM",
        }
    }

    /// Canonical lower-case name, as accepted by the [`std::str::FromStr`]
    /// parser and used in study-spec files: `grid`, `honeycomb`,
    /// `brickwall`, `hexamesh`. Round-trips through `parse`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ArrangementKind::Grid => "grid",
            ArrangementKind::Honeycomb => "honeycomb",
            ArrangementKind::Brickwall => "brickwall",
            ArrangementKind::HexaMesh => "hexamesh",
        }
    }
}

impl std::str::FromStr for ArrangementKind {
    type Err = String;

    /// Parses an arrangement-kind name, case-insensitively: the canonical
    /// [`ArrangementKind::name`] (`grid`, …), the CSV
    /// [`ArrangementKind::label`] (`G`, `HC`, `BW`, `HM`), and the
    /// [`std::fmt::Display`] form (`Grid`, `HexaMesh`, …) all parse back
    /// to the kind they came from.
    fn from_str(s: &str) -> Result<Self, String> {
        let lower = s.to_ascii_lowercase();
        ArrangementKind::ALL
            .into_iter()
            .find(|k| lower == k.name() || lower == k.label().to_ascii_lowercase())
            .ok_or_else(|| {
                format!("unknown arrangement kind {s:?} (expected grid|honeycomb|brickwall|hexamesh)")
            })
    }
}

impl fmt::Display for ArrangementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ArrangementKind::Grid => "Grid",
            ArrangementKind::Honeycomb => "Honeycomb",
            ArrangementKind::Brickwall => "Brickwall",
            ArrangementKind::HexaMesh => "HexaMesh",
        };
        write!(f, "{name}")
    }
}

/// How closely an arrangement matches its ideal pattern (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regularity {
    /// Grid/brickwall/honeycomb: `N` is a perfect square. HexaMesh:
    /// `N = 1 + 3r(r+1)`.
    Regular,
    /// Grid/brickwall/honeycomb only: `R × C = N` with `R ≠ C`, both ≥ 2 and
    /// similar (aspect ratio bounded).
    SemiRegular,
    /// Closest smaller regular arrangement plus an incomplete row / circle.
    Irregular,
}

impl fmt::Display for Regularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Regularity::Regular => "regular",
            Regularity::SemiRegular => "semi-regular",
            Regularity::Irregular => "irregular",
        };
        write!(f, "{name}")
    }
}

/// Errors from arrangement construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrangementError {
    /// `n == 0` or the requested regularity cannot realise `n` chiplets for
    /// this kind.
    UnsupportedCount {
        /// Arrangement family.
        kind: ArrangementKind,
        /// Requested chiplet count.
        n: usize,
        /// Requested regularity.
        regularity: Regularity,
    },
    /// Internal geometric failure (should not occur; kept for diagnosis).
    Layout(LayoutError),
}

impl fmt::Display for ArrangementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrangementError::UnsupportedCount { kind, n, regularity } => {
                write!(f, "{kind} cannot realise {n} chiplets as a {regularity} arrangement")
            }
            ArrangementError::Layout(e) => write!(f, "layout: {e}"),
        }
    }
}

impl std::error::Error for ArrangementError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArrangementError::Layout(e) => Some(e),
            ArrangementError::UnsupportedCount { .. } => None,
        }
    }
}

impl From<LayoutError> for ArrangementError {
    fn from(e: LayoutError) -> Self {
        ArrangementError::Layout(e)
    }
}

/// A concrete arrangement: its (optional) physical placement and ICI graph.
///
/// Honeycomb arrangements carry no rectangle placement (hexagons are not
/// representable in `chiplet-layout`); every other kind always has one.
#[derive(Debug, Clone)]
pub struct Arrangement {
    kind: ArrangementKind,
    regularity: Regularity,
    n: usize,
    placement: Option<Placement>,
    graph: Graph,
}

impl Arrangement {
    /// Builds the canonical arrangement of `n` chiplets of the given kind,
    /// choosing the best applicable regularity: regular when `n` permits,
    /// then semi-regular (grid/brickwall/honeycomb), then irregular.
    ///
    /// # Errors
    ///
    /// [`ArrangementError::UnsupportedCount`] if `n == 0`.
    ///
    /// # Example
    ///
    /// ```
    /// use hexamesh::arrangement::{Arrangement, ArrangementKind, Regularity};
    ///
    /// let hm = Arrangement::build(ArrangementKind::HexaMesh, 19)?;
    /// assert_eq!(hm.regularity(), Regularity::Regular); // 19 = 1 + 3·2·3
    /// assert_eq!(hm.graph().num_vertices(), 19);
    /// # Ok::<(), hexamesh::arrangement::ArrangementError>(())
    /// ```
    pub fn build(kind: ArrangementKind, n: usize) -> Result<Self, ArrangementError> {
        Self::build_with_regularity(kind, n, classify(kind, n))
    }

    /// Builds an arrangement with an explicit regularity.
    ///
    /// # Errors
    ///
    /// [`ArrangementError::UnsupportedCount`] if the regularity cannot
    /// realise `n` chiplets for this kind (e.g. regular grid with non-square
    /// `n`, or semi-regular HexaMesh, which does not exist).
    pub fn build_with_regularity(
        kind: ArrangementKind,
        n: usize,
        regularity: Regularity,
    ) -> Result<Self, ArrangementError> {
        let unsupported = ArrangementError::UnsupportedCount { kind, n, regularity };
        if n == 0 {
            return Err(unsupported);
        }
        match kind {
            ArrangementKind::Grid => {
                let rects = grid::generate(n, regularity).ok_or(unsupported)?;
                Self::from_rects(kind, regularity, rects)
            }
            ArrangementKind::Brickwall => {
                let rects = brickwall::generate(n, regularity).ok_or(unsupported)?;
                Self::from_rects(kind, regularity, rects)
            }
            ArrangementKind::HexaMesh => {
                if regularity == Regularity::SemiRegular {
                    return Err(unsupported);
                }
                let rects = hexamesh::generate(n, regularity).ok_or(unsupported)?;
                Self::from_rects(kind, regularity, rects)
            }
            ArrangementKind::Honeycomb => {
                let graph = honeycomb::generate(n, regularity).ok_or(unsupported)?;
                Ok(Self { kind, regularity, n, placement: None, graph })
            }
        }
    }

    fn from_rects(
        kind: ArrangementKind,
        regularity: Regularity,
        rects: Vec<Rect>,
    ) -> Result<Self, ArrangementError> {
        let n = rects.len();
        let mut placement = Placement::new();
        for rect in rects {
            placement.push(PlacedChiplet::compute(rect))?;
        }
        let graph = placement.compute_adjacency_graph();
        debug_assert!(
            n <= 1 || metrics::is_connected(&graph),
            "{kind} arrangement of {n} chiplets must be connected"
        );
        Ok(Self { kind, regularity, n, placement: Some(placement), graph })
    }

    /// Arrangement family.
    #[must_use]
    pub fn kind(&self) -> ArrangementKind {
        self.kind
    }

    /// Regularity class.
    #[must_use]
    pub fn regularity(&self) -> Regularity {
        self.regularity
    }

    /// Number of compute chiplets.
    #[must_use]
    pub fn num_chiplets(&self) -> usize {
        self.n
    }

    /// Physical placement (absent for the honeycomb).
    #[must_use]
    pub fn placement(&self) -> Option<&Placement> {
        self.placement.as_ref()
    }

    /// The inter-chiplet-interconnect graph (§III-C).
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Degree statistics — the "neighbours per chiplet" numbers of Fig. 4.
    ///
    /// # Panics
    ///
    /// Never panics: arrangements have at least one chiplet.
    #[must_use]
    pub fn degree_stats(&self) -> metrics::DegreeStats {
        metrics::degree_stats(&self.graph).expect("arrangements are non-empty")
    }
}

/// The canonical regularity for `n` chiplets of the given kind, following
/// §IV-C: regular when the count permits, semi-regular for
/// grid/brickwall/honeycomb when a similar-sided factorisation exists
/// (aspect ratio at most [`MAX_SEMI_REGULAR_ASPECT`]), irregular otherwise.
#[must_use]
pub fn classify(kind: ArrangementKind, n: usize) -> Regularity {
    match kind {
        ArrangementKind::HexaMesh => {
            if hexamesh::is_regular_count(n) {
                Regularity::Regular
            } else {
                Regularity::Irregular
            }
        }
        _ => {
            if is_perfect_square(n) {
                Regularity::Regular
            } else if best_factor_pair(n).is_some() {
                Regularity::SemiRegular
            } else {
                Regularity::Irregular
            }
        }
    }
}

/// Largest row/column aspect ratio still considered "similar" for a
/// semi-regular arrangement (§IV-C: "semi-regular arrangements make only
/// sense if R and C are similar").
pub const MAX_SEMI_REGULAR_ASPECT: f64 = 2.5;

pub(crate) fn is_perfect_square(n: usize) -> bool {
    let s = (n as f64).sqrt().round() as usize;
    s * s == n
}

/// The most-square non-trivial factorisation `R × C = n` with `R < C`,
/// `R ≥ 2`, and aspect ratio `C / R ≤` [`MAX_SEMI_REGULAR_ASPECT`] — the
/// "similar R and C" rule of §IV-C. `None` if no such pair exists (primes,
/// perfect squares, and elongated-only counts).
#[must_use]
pub fn best_factor_pair(n: usize) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize)> = None;
    let mut r = (n as f64).sqrt() as usize;
    while r >= 2 {
        if n.is_multiple_of(r) {
            let c = n / r;
            if c != r {
                best = Some((r, c));
                break; // descending from sqrt(n): first hit is most square
            }
        }
        r -= 1;
    }
    let (r, c) = best?;
    (c as f64 / r as f64 <= MAX_SEMI_REGULAR_ASPECT).then_some((r, c))
}

/// The row-major `(row, col)` lattice positions of a grid, brickwall or
/// honeycomb of `n` chiplets, or `None` if the regularity cannot realise
/// `n`. The three families differ only in the cell each position draws.
fn positions(n: usize, regularity: Regularity) -> Option<Vec<(i64, i64)>> {
    match regularity {
        Regularity::Regular => {
            if !is_perfect_square(n) {
                return None;
            }
            let side = (n as f64).sqrt().round() as usize;
            Some(rows_by_cols(side, side))
        }
        Regularity::SemiRegular => {
            let (r, c) = best_factor_pair(n)?;
            Some(rows_by_cols(r, c))
        }
        Regularity::Irregular => Some(irregular(n)),
    }
}

/// A full `rows × cols` position block.
fn rows_by_cols(rows: usize, cols: usize) -> Vec<(i64, i64)> {
    let mut out = Vec::with_capacity(rows * cols);
    for row in 0..rows {
        for col in 0..cols {
            out.push((row as i64, col as i64));
        }
    }
    out
}

/// Irregular positions (§IV-C): the closest smaller regular `k × k` block
/// plus the remaining chiplets as incomplete rows on top.
fn irregular(n: usize) -> Vec<(i64, i64)> {
    let k = (n as f64).sqrt() as usize; // floor
    let k = if k * k > n { k - 1 } else { k };
    if k == 0 {
        // n == 0 is rejected upstream; n < 4 lands here with k = 1.
        return rows_by_cols(1, n);
    }
    let mut out = rows_by_cols(k, k);
    let mut remaining = n - k * k;
    let mut row = k as i64;
    while remaining > 0 {
        let in_this_row = remaining.min(k);
        for col in 0..in_this_row {
            out.push((row, col as i64));
        }
        remaining -= in_this_row;
        row += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_squares_as_regular() {
        for n in [1usize, 4, 9, 16, 25, 100] {
            assert_eq!(classify(ArrangementKind::Grid, n), Regularity::Regular);
            assert_eq!(classify(ArrangementKind::Brickwall, n), Regularity::Regular);
        }
    }

    #[test]
    fn classify_hexamesh_counts() {
        for n in [1usize, 7, 19, 37, 61, 91] {
            assert_eq!(classify(ArrangementKind::HexaMesh, n), Regularity::Regular);
        }
        for n in [2usize, 8, 20, 50, 100] {
            assert_eq!(classify(ArrangementKind::HexaMesh, n), Regularity::Irregular);
        }
    }

    #[test]
    fn classify_factorable_as_semi_regular() {
        assert_eq!(classify(ArrangementKind::Grid, 12), Regularity::SemiRegular); // 3x4
        assert_eq!(classify(ArrangementKind::Grid, 6), Regularity::SemiRegular); // 2x3
                                                                                 // 7 is prime: no factorisation, not square.
        assert_eq!(classify(ArrangementKind::Grid, 7), Regularity::Irregular);
        // 26 = 2x13 is too elongated.
        assert_eq!(classify(ArrangementKind::Grid, 26), Regularity::Irregular);
    }

    #[test]
    fn semi_regular_picks_most_square_pair() {
        assert_eq!(best_factor_pair(12), Some((3, 4)));
        assert_eq!(best_factor_pair(24), Some((4, 6)));
        assert_eq!(best_factor_pair(2), None); // 1x2 is trivial
        assert_eq!(best_factor_pair(13), None); // prime
        assert_eq!(best_factor_pair(26), None); // 2x13 too elongated
        assert_eq!(best_factor_pair(16), None); // 2x8 too elongated (4x4 is regular)
        assert_eq!(best_factor_pair(18), Some((3, 6)));
    }

    #[test]
    fn irregular_position_counts_match() {
        for n in 1..=60 {
            assert_eq!(irregular(n).len(), n, "n={n}");
        }
    }

    #[test]
    fn zero_chiplets_rejected() {
        let err = Arrangement::build(ArrangementKind::Grid, 0).unwrap_err();
        assert!(matches!(err, ArrangementError::UnsupportedCount { n: 0, .. }));
    }

    #[test]
    fn semi_regular_hexamesh_rejected() {
        let err = Arrangement::build_with_regularity(
            ArrangementKind::HexaMesh,
            12,
            Regularity::SemiRegular,
        )
        .unwrap_err();
        assert!(matches!(err, ArrangementError::UnsupportedCount { .. }));
    }

    #[test]
    fn single_chiplet_arrangements() {
        for kind in ArrangementKind::ALL {
            let a = Arrangement::build(kind, 1).unwrap();
            assert_eq!(a.num_chiplets(), 1);
            assert_eq!(a.graph().num_vertices(), 1);
            assert_eq!(a.graph().num_edges(), 0);
        }
    }

    #[test]
    fn kind_metadata() {
        assert_eq!(ArrangementKind::Grid.link_sectors(), 4);
        assert_eq!(ArrangementKind::HexaMesh.link_sectors(), 6);
        assert_eq!(ArrangementKind::Brickwall.label(), "BW");
        assert_eq!(ArrangementKind::Honeycomb.to_string(), "Honeycomb");
        assert_eq!(Regularity::SemiRegular.to_string(), "semi-regular");
    }

    #[test]
    fn all_kinds_build_across_counts() {
        for kind in ArrangementKind::ALL {
            for n in 1..=40 {
                let a =
                    Arrangement::build(kind, n).unwrap_or_else(|e| panic!("{kind} n={n}: {e}"));
                assert_eq!(a.num_chiplets(), n, "{kind} n={n}");
                assert_eq!(a.graph().num_vertices(), n);
                if n > 1 {
                    assert!(
                        chiplet_graph::metrics::is_connected(a.graph()),
                        "{kind} n={n} disconnected"
                    );
                }
                assert!(
                    chiplet_graph::metrics::satisfies_planar_edge_bound(a.graph()),
                    "{kind} n={n} violates planarity bound"
                );
            }
        }
    }
}
