//! Mutable placement state for the arrangement search: identical
//! rectangular tiles on the brick lattice, with swap/rotate/relocate moves
//! that are validated against the two search invariants before they take
//! effect:
//!
//! 1. **overlap-freedom** — no two tiles overlap with positive area;
//! 2. **connectivity** — the geometric-adjacency graph (shared edge of
//!    positive length, §III-C) stays connected.
//!
//! [`SearchState::try_move`] applies a move only if both invariants hold
//! and hands the caller the resulting adjacency graph (which the annealer
//! needs for scoring anyway) plus an undo token; an invalid move leaves
//! the state untouched. It derives that graph from the one before the
//! move, re-testing only the moved tiles' pairs.

use chiplet_graph::{metrics, Graph};
use chiplet_layout::{contact_graph, Placement, Rect};
use rand::rngs::StdRng;
use rand::Rng;

use crate::ArrangeError;

/// Tile width in layout units — the brickwall/HexaMesh brick of the
/// `hexamesh` generators, so fixed-arrangement placements seed the search
/// directly.
pub const TILE_W: i64 = 4;
/// Tile height in layout units.
pub const TILE_H: i64 = 2;
/// Lattice step for anchors and relocation slots: half a brick, the offset
/// granularity the brickwall and HexaMesh patterns are built from.
pub const STEP: i64 = 2;

/// One candidate modification of a [`SearchState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Rotate tile `i` 90° in place (4×2 ↔ 2×4), keeping its lower-left
    /// anchor.
    Rotate {
        /// Tile to rotate.
        i: usize,
    },
    /// Swap the anchors of tiles `i` and `j`, keeping each tile's own
    /// orientation. A no-op (and therefore invalid) when both have the
    /// same orientation.
    Swap {
        /// First tile.
        i: usize,
        /// Second tile.
        j: usize,
    },
    /// Detach tile `i` and re-attach it edge-to-edge against tile
    /// `anchor`, at contact slot `slot` (an index into the deterministic
    /// candidate list enumerated by [`SearchState::relocate_slot_count`]).
    Relocate {
        /// Tile to move.
        i: usize,
        /// Tile to attach to.
        anchor: usize,
        /// Contact-slot index around the anchor.
        slot: usize,
    },
}

/// A move that has been applied: the new state's adjacency graph plus the
/// undo token that restores the previous rectangles.
#[derive(Debug)]
pub struct Applied {
    /// Adjacency graph of the state *after* the move (connected by
    /// construction).
    pub graph: Graph,
    restore: Vec<(usize, Rect)>,
}

/// An overlap-free, connected placement of `n` identical tiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchState {
    rects: Vec<Rect>,
}

impl SearchState {
    /// Builds a state from raw rectangles, validating tile extents,
    /// overlap-freedom, and connectivity.
    ///
    /// # Errors
    ///
    /// [`ArrangeError::BadTile`] if a rectangle is not a `TILE_W × TILE_H`
    /// tile (in either orientation) or off the `STEP` lattice;
    /// [`ArrangeError::Overlap`] / [`ArrangeError::Disconnected`] if the
    /// invariants fail.
    pub fn from_rects(rects: Vec<Rect>) -> Result<Self, ArrangeError> {
        for r in &rects {
            let extent_ok = (r.width() == TILE_W && r.height() == TILE_H)
                || (r.width() == TILE_H && r.height() == TILE_W);
            if !extent_ok || r.x() % STEP != 0 || r.y() % STEP != 0 {
                return Err(ArrangeError::BadTile { width: r.width(), height: r.height() });
            }
        }
        let state = Self { rects };
        if !state.is_overlap_free() {
            return Err(ArrangeError::Overlap);
        }
        if !metrics::is_connected(&state.graph()) {
            return Err(ArrangeError::Disconnected);
        }
        Ok(state)
    }

    /// Seeds a state from an existing placement (compute chiplets only).
    ///
    /// # Errors
    ///
    /// As [`SearchState::from_rects`].
    pub fn from_placement(placement: &Placement) -> Result<Self, ArrangeError> {
        let rects = placement
            .compute_indices()
            .into_iter()
            .map(|i| placement.chiplets()[i].rect)
            .collect();
        Self::from_rects(rects)
    }

    /// The aligned-rows grid of `n` tiles (near-square, row-major): the
    /// grid-graph seed of the search, realised with the same 4×2 tiles as
    /// every other state.
    ///
    /// # Errors
    ///
    /// [`ArrangeError::TooFewChiplets`] when `n == 0`.
    pub fn aligned_grid(n: usize) -> Result<Self, ArrangeError> {
        if n == 0 {
            return Err(ArrangeError::TooFewChiplets(n));
        }
        let cols = (n as f64).sqrt().round().max(1.0) as usize;
        let mut rects = Vec::with_capacity(n);
        for k in 0..n {
            let (row, col) = (k / cols, k % cols);
            rects.push(
                Rect::new(col as i64 * TILE_W, row as i64 * TILE_H, TILE_W, TILE_H)
                    .expect("positive tile"),
            );
        }
        Self::from_rects(rects)
    }

    /// A random connected, overlap-free accretion of `n` tiles: starting
    /// from one tile at the origin, each new tile attaches edge-to-edge to
    /// a randomly chosen placed tile. Deterministic given `rng`.
    ///
    /// # Errors
    ///
    /// [`ArrangeError::TooFewChiplets`] when `n == 0`.
    pub fn random_compact(n: usize, rng: &mut StdRng) -> Result<Self, ArrangeError> {
        if n == 0 {
            return Err(ArrangeError::TooFewChiplets(n));
        }
        let mut state =
            Self { rects: vec![Rect::new(0, 0, TILE_W, TILE_H).expect("positive tile")] };
        while state.rects.len() < n {
            let next = state.sample_free_slot(rng);
            state.rects.push(next);
        }
        debug_assert!(state.is_overlap_free());
        Ok(state)
    }

    /// A free contact slot against a random anchor; falls back to a
    /// deterministic scan (a free hull slot always exists) if random
    /// probing keeps hitting occupied slots.
    fn sample_free_slot(&self, rng: &mut StdRng) -> Rect {
        for _ in 0..64 {
            let anchor = rng.gen_range(0..self.rects.len());
            let (w, h) = if rng.gen_bool(0.5) { (TILE_W, TILE_H) } else { (TILE_H, TILE_W) };
            let count = slot_count(self.rects[anchor], w, h);
            let slot = rng.gen_range(0..count);
            let candidate = slot_rect(self.rects[anchor], w, h, slot);
            if self.fits(candidate, usize::MAX) {
                return candidate;
            }
        }
        for &anchor_rect in &self.rects {
            for (w, h) in [(TILE_W, TILE_H), (TILE_H, TILE_W)] {
                for slot in 0..slot_count(anchor_rect, w, h) {
                    let candidate = slot_rect(anchor_rect, w, h, slot);
                    if self.fits(candidate, usize::MAX) {
                        return candidate;
                    }
                }
            }
        }
        unreachable!("a growing placement always has a free hull slot")
    }

    /// Number of tiles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// `true` when the state holds no tiles (never, for constructed states).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// The tile rectangles, in state order (vertex `i` of [`Self::graph`]
    /// is `rects()[i]`).
    #[must_use]
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// The geometric-adjacency graph over all tiles: their
    /// [`contact_graph`].
    #[must_use]
    pub fn graph(&self) -> Graph {
        contact_graph(&self.rects)
    }

    /// `true` if no two tiles overlap.
    #[must_use]
    pub fn is_overlap_free(&self) -> bool {
        for i in 0..self.rects.len() {
            for j in (i + 1)..self.rects.len() {
                if self.rects[i].overlaps(&self.rects[j]) {
                    return false;
                }
            }
        }
        true
    }

    /// `true` if the adjacency graph is connected.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        metrics::is_connected(&self.graph())
    }

    /// `rect` fits without overlapping any tile other than `skip`.
    fn fits(&self, rect: Rect, skip: usize) -> bool {
        self.rects.iter().enumerate().all(|(k, r)| k == skip || !r.overlaps(&rect))
    }

    /// Number of contact slots for re-attaching tile `i` against `anchor`
    /// (both in their current orientations): every `STEP`-aligned position
    /// where the moved tile shares a boundary edge of positive length with
    /// the anchor.
    #[must_use]
    pub fn relocate_slot_count(&self, i: usize, anchor: usize) -> usize {
        let r = self.rects[i];
        slot_count(self.rects[anchor], r.width(), r.height())
    }

    /// Applies `mv` if it preserves both invariants, returning the new
    /// adjacency graph and an undo token; returns `None` (state untouched)
    /// for out-of-range indices, no-op swaps, overlaps, or moves that
    /// disconnect the graph.
    ///
    /// `graph` must be this state's adjacency graph ([`Self::graph`]). The
    /// new graph keeps its edges among unmoved tiles and re-tests only the
    /// moved tiles against the others ([`Graph::rewired`]), `O(n + E)`
    /// where [`Self::graph`] tests all `n²/2` pairs; it equals
    /// [`Self::graph`] of the new state.
    pub fn try_move(&mut self, mv: &Move, graph: &Graph) -> Option<Applied> {
        let restore = match *mv {
            Move::Rotate { i } => {
                let old = *self.rects.get(i)?;
                let rotated =
                    Rect::new(old.x(), old.y(), old.height(), old.width()).expect("positive");
                if !self.fits(rotated, i) {
                    return None;
                }
                self.rects[i] = rotated;
                vec![(i, old)]
            }
            Move::Swap { i, j } => {
                if i == j {
                    return None;
                }
                let (a, b) = (*self.rects.get(i)?, *self.rects.get(j)?);
                if a.width() == b.width() && a.height() == b.height() {
                    return None; // identical tiles: swapping anchors is a no-op
                }
                let new_a = Rect::new(b.x(), b.y(), a.width(), a.height()).expect("positive");
                let new_b = Rect::new(a.x(), a.y(), b.width(), b.height()).expect("positive");
                self.rects[i] = new_a;
                self.rects[j] = new_b;
                // Both rects are written before validation, so fits(new_a, i)
                // already checks new_a against new_b (at index j) and vice
                // versa — the pair needs no separate overlap check.
                if !self.fits(new_a, i) || !self.fits(new_b, j) {
                    self.rects[i] = a;
                    self.rects[j] = b;
                    return None;
                }
                vec![(i, a), (j, b)]
            }
            Move::Relocate { i, anchor, slot } => {
                if i == anchor {
                    return None;
                }
                let old = *self.rects.get(i)?;
                let anchor_rect = *self.rects.get(anchor)?;
                if slot >= slot_count(anchor_rect, old.width(), old.height()) {
                    return None;
                }
                let moved = slot_rect(anchor_rect, old.width(), old.height(), slot);
                if moved == old || !self.fits(moved, i) {
                    return None;
                }
                self.rects[i] = moved;
                vec![(i, old)]
            }
        };
        let moved: Vec<usize> = restore.iter().map(|&(k, _)| k).collect();
        let rects = &self.rects;
        let graph = graph.rewired(&moved, |a, b| rects[a].is_adjacent(&rects[b]));
        if metrics::is_connected(&graph) {
            Some(Applied { graph, restore })
        } else {
            for &(k, r) in &restore {
                self.rects[k] = r;
            }
            None
        }
    }

    /// Reverts a move applied by [`Self::try_move`].
    pub fn undo(&mut self, applied: Applied) {
        for (k, r) in applied.restore {
            self.rects[k] = r;
        }
    }

    /// The canonical form of this state: translated so the bounding box
    /// starts at the origin and tiles sorted by `(y, x, width)`. Two states
    /// that are translations/reorderings of the same floorplan canonicalise
    /// identically, which is what the golden determinism tests compare and
    /// what candidate archives score.
    #[must_use]
    pub fn canonical(&self) -> Self {
        let min_x = self.rects.iter().map(Rect::x).min().unwrap_or(0);
        let min_y = self.rects.iter().map(Rect::y).min().unwrap_or(0);
        let mut rects: Vec<Rect> =
            self.rects.iter().map(|r| r.translated(-min_x, -min_y)).collect();
        rects.sort_by_key(|r| (r.y(), r.x(), r.width()));
        Self { rects }
    }
}

/// Number of `STEP`-aligned contact slots a `w × h` tile has against
/// `anchor`: positions along each of the four sides with a shared edge of
/// positive length.
fn slot_count(anchor: Rect, w: i64, h: i64) -> usize {
    let vertical = ((anchor.height() + h) / STEP - 1).max(0) as usize; // left + right sides
    let horizontal = ((anchor.width() + w) / STEP - 1).max(0) as usize; // top + bottom sides
    2 * vertical + 2 * horizontal
}

/// The `slot`-th contact rectangle of a `w × h` tile against `anchor`.
/// Slots enumerate the right side bottom-to-top, then the left side, then
/// the top side left-to-right, then the bottom side.
fn slot_rect(anchor: Rect, w: i64, h: i64, slot: usize) -> Rect {
    let vertical = ((anchor.height() + h) / STEP - 1).max(0) as usize;
    let horizontal = ((anchor.width() + w) / STEP - 1).max(0) as usize;
    let (x, y) = if slot < vertical {
        // Right side: x fixed, y sweeps so the shared edge stays positive.
        (anchor.right(), anchor.y() - h + STEP * (slot as i64 + 1))
    } else if slot < 2 * vertical {
        let k = (slot - vertical) as i64;
        (anchor.x() - w, anchor.y() - h + STEP * (k + 1))
    } else if slot < 2 * vertical + horizontal {
        let k = (slot - 2 * vertical) as i64;
        (anchor.x() - w + STEP * (k + 1), anchor.top())
    } else {
        let k = (slot - 2 * vertical - horizontal) as i64;
        (anchor.x() - w + STEP * (k + 1), anchor.y() - h)
    };
    Rect::new(x, y, w, h).expect("positive tile extent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn slots_all_touch_the_anchor() {
        let anchor = Rect::new(0, 0, TILE_W, TILE_H).unwrap();
        for (w, h) in [(TILE_W, TILE_H), (TILE_H, TILE_W)] {
            let count = slot_count(anchor, w, h);
            assert!(count > 0);
            let mut seen = std::collections::HashSet::new();
            for slot in 0..count {
                let r = slot_rect(anchor, w, h, slot);
                assert!(r.is_adjacent(&anchor), "slot {slot} ({w}x{h}) not adjacent");
                assert!(!r.overlaps(&anchor));
                assert!(seen.insert((r.x(), r.y())), "duplicate slot {slot}");
            }
        }
    }

    #[test]
    fn aligned_grid_matches_grid_graph() {
        let s = SearchState::aligned_grid(9).unwrap();
        let g = s.graph();
        // 3×3 grid: 12 edges, diameter 4.
        assert_eq!(g.num_edges(), 12);
        assert_eq!(metrics::diameter(&g), Some(4));
    }

    #[test]
    fn random_compact_is_valid_for_many_seeds() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = SearchState::random_compact(24, &mut rng).unwrap();
            assert_eq!(s.len(), 24);
            assert!(s.is_overlap_free());
            assert!(s.is_connected());
        }
    }

    #[test]
    fn rotate_into_overlap_is_rejected() {
        // Two bricks stacked: rotating the lower one would hit the upper.
        let rects = vec![
            Rect::new(0, 0, TILE_W, TILE_H).unwrap(),
            Rect::new(0, TILE_H, TILE_W, TILE_H).unwrap(),
        ];
        let mut s = SearchState::from_rects(rects.clone()).unwrap();
        assert!(s.try_move(&Move::Rotate { i: 0 }, &s.graph()).is_none());
        assert_eq!(s.rects(), &rects[..], "rejected move must not change the state");
    }

    #[test]
    fn relocate_that_disconnects_is_rejected() {
        // A 1×3 row: moving the middle tile to the far end of tile 0 keeps
        // overlap-freedom but disconnects tile 2 — must be rejected.
        let mut s = SearchState::from_rects(vec![
            Rect::new(0, 0, TILE_W, TILE_H).unwrap(),
            Rect::new(TILE_W, 0, TILE_W, TILE_H).unwrap(),
            Rect::new(2 * TILE_W, 0, TILE_W, TILE_H).unwrap(),
        ])
        .unwrap();
        let before = s.rects().to_vec();
        let count = s.relocate_slot_count(1, 0);
        let mut any_rejected = false;
        for slot in 0..count {
            if s.try_move(&Move::Relocate { i: 1, anchor: 0, slot }, &s.graph()).is_none() {
                any_rejected = true;
            } else {
                // Accepted moves must keep both invariants.
                assert!(s.is_overlap_free() && s.is_connected());
                s = SearchState::from_rects(before.clone()).unwrap();
            }
        }
        assert!(any_rejected, "some slot around tile 0 must strand tile 2");
    }

    #[test]
    fn undo_restores_exactly() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = SearchState::random_compact(12, &mut rng).unwrap();
        let before = s.clone();
        let applied = loop {
            let i = rng.gen_range(0..s.len());
            let anchor = rng.gen_range(0..s.len());
            if i == anchor {
                continue;
            }
            let slot = rng.gen_range(0..s.relocate_slot_count(i, anchor));
            if let Some(a) = s.try_move(&Move::Relocate { i, anchor, slot }, &s.graph()) {
                break a;
            }
        };
        assert_ne!(s, before);
        s.undo(applied);
        assert_eq!(s, before);
    }

    #[test]
    fn swap_requires_differing_orientations() {
        let mut s = SearchState::aligned_grid(4).unwrap();
        let g = s.graph();
        assert!(s.try_move(&Move::Swap { i: 0, j: 1 }, &g).is_none(), "same-orientation no-op");
    }

    #[test]
    fn canonical_is_translation_and_order_invariant() {
        let a = SearchState::from_rects(vec![
            Rect::new(0, 0, TILE_W, TILE_H).unwrap(),
            Rect::new(TILE_W, 0, TILE_W, TILE_H).unwrap(),
        ])
        .unwrap();
        let b = SearchState::from_rects(vec![
            Rect::new(TILE_W + 10, 6, TILE_W, TILE_H).unwrap(),
            Rect::new(10, 6, TILE_W, TILE_H).unwrap(),
        ])
        .unwrap();
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn from_rects_rejects_bad_tiles_and_overlap() {
        let bad = SearchState::from_rects(vec![Rect::new(0, 0, 3, 3).unwrap()]);
        assert!(matches!(bad, Err(ArrangeError::BadTile { .. })));
        let overlap = SearchState::from_rects(vec![
            Rect::new(0, 0, TILE_W, TILE_H).unwrap(),
            Rect::new(STEP, 0, TILE_W, TILE_H).unwrap(),
        ]);
        assert!(matches!(overlap, Err(ArrangeError::Overlap)));
        let disconnected = SearchState::from_rects(vec![
            Rect::new(0, 0, TILE_W, TILE_H).unwrap(),
            Rect::new(3 * TILE_W, 0, TILE_W, TILE_H).unwrap(),
        ]);
        assert!(matches!(disconnected, Err(ArrangeError::Disconnected)));
    }
}
