//! Property tests for the optimizer's move invariants: any sequence of
//! proposed moves, whatever mix is accepted or rejected, leaves the
//! placement overlap-free and its adjacency graph connected.

use chiplet_arrange::state::{Move, SearchState};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Decodes one raw move descriptor against the current state size. Raw
/// values are drawn by proptest; reduction happens here so every decoded
/// move is well-formed (in-range indices; slots may still be invalid,
/// which `try_move` must reject cleanly).
fn decode(raw: (u8, usize, usize, usize), n: usize) -> Move {
    let (kind, a, b, slot) = raw;
    let i = a % n;
    let j = b % n;
    match kind % 3 {
        0 => Move::Rotate { i },
        1 => Move::Swap { i, j },
        _ => Move::Relocate { i, anchor: j, slot: slot % 32 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accepted_moves_preserve_invariants(
        seed in 0u64..1_000,
        n in 2usize..24,
        raw_moves in proptest::collection::vec(
            (0u8..6, 0usize..1024, 0usize..1024, 0usize..32),
            1..60,
        ),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = SearchState::random_compact(n, &mut rng).expect("n >= 2");
        prop_assert!(state.is_overlap_free());
        prop_assert!(state.is_connected());
        let mut graph = state.graph();
        for raw in raw_moves {
            let mv = decode(raw, n);
            let before = state.clone();
            match state.try_move(&mv, &graph) {
                Some(applied) => {
                    // Accepted: both invariants must hold, and the graph
                    // derived from the previous one must equal a full
                    // rebuild of the new state.
                    prop_assert!(state.is_overlap_free(), "overlap after {mv:?}");
                    prop_assert!(state.is_connected(), "disconnected after {mv:?}");
                    prop_assert_eq!(&applied.graph, &state.graph());
                    prop_assert_eq!(state.len(), n);
                    graph = applied.graph;
                }
                None => {
                    // Rejected: the state must be untouched.
                    prop_assert_eq!(&state, &before);
                }
            }
        }
    }

    #[test]
    fn undo_round_trips(
        seed in 0u64..1_000,
        n in 2usize..20,
        raw in (0u8..6, 0usize..1024, 0usize..1024, 0usize..32),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = SearchState::random_compact(n, &mut rng).expect("n >= 2");
        let before = state.clone();
        if let Some(applied) = state.try_move(&decode(raw, n), &state.graph()) {
            state.undo(applied);
        }
        prop_assert_eq!(state, before);
    }
}
