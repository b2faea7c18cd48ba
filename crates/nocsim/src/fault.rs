//! Deterministic fault injection: permanent link and router failures on a
//! cycle schedule, plus an optional source-retransmission policy.
//!
//! A [`FaultSchedule`] is a list of [`FaultEvent`]s sorted by cycle. The
//! simulator applies each event *atomically at the start of its cycle*: the
//! component dies, every flit it holds (and every flit belonging to a packet
//! severed by it) is dropped, routing tables are rebuilt over the surviving
//! topology, and endpoints cut off from a destination stop generating
//! toward it. Because the application point is a pure function of the event
//! cycle, faulted runs stay bit-identical across `--workers` and across
//! [`crate::ShardedSimulator`] shard counts — the sharded engine simply caps
//! its bounded-lag windows so every shard reaches the fault cycle before any
//! shard passes it.

use chiplet_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::flit::RouterId;

/// A component that fails permanently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultTarget {
    /// The undirected link between routers `a` and `b`; both directions die.
    Link {
        /// One incident router.
        a: RouterId,
        /// The other incident router.
        b: RouterId,
    },
    /// Router `r` dies, along with every link incident to it. The endpoints
    /// attached to `r` are cut off: they stop injecting and never eject
    /// again.
    Router(RouterId),
}

/// One scheduled failure: `target` dies at the start of `cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulation cycle at which the failure takes effect. The component
    /// behaves normally through cycle `cycle - 1`.
    pub cycle: u64,
    /// The component that fails.
    pub target: FaultTarget,
}

/// A deterministic list of failures, sorted by cycle (stable: same-cycle
/// events apply in the order given, and that order is part of the contract).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Builds a schedule from an explicit event list. Events are stably
    /// sorted by cycle; the relative order of same-cycle events is kept.
    #[must_use]
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.cycle);
        Self { events }
    }

    /// Samples `count` distinct links of `g` uniformly without replacement
    /// (seeded, deterministic) and schedules all of them to fail at
    /// `at_cycle`. If `count` exceeds the number of links, every link fails.
    #[must_use]
    pub fn random_links(g: &Graph, count: usize, at_cycle: u64, seed: u64) -> Self {
        // Undirected edge list in the graph's canonical (sorted CSR) order.
        let mut edges: Vec<(usize, usize)> = g.edges().filter(|&(u, v)| u < v).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFAC7_0000_0000_0000);
        let picks = count.min(edges.len());
        // Partial Fisher–Yates: the first `picks` entries are the sample.
        for i in 0..picks {
            let j = rng.gen_range(i..edges.len());
            edges.swap(i, j);
        }
        let events = edges[..picks]
            .iter()
            .map(|&(a, b)| FaultEvent { cycle: at_cycle, target: FaultTarget::Link { a, b } })
            .collect();
        Self::new(events)
    }

    /// The events, sorted by cycle.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` if no failures are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled failures.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

/// Source-retransmission policy: a packet whose flits were dropped by a
/// fault is re-offered by its source after a timeout, with exponential
/// backoff between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitConfig {
    /// Cycles a source waits after offering a packet before assuming loss
    /// and re-offering it. Attempt `k` (zero-based) waits `timeout << k`,
    /// saturating.
    pub timeout: u64,
    /// Attempts after which the source gives up on a packet (counted from
    /// the first transmission; `max_attempts == 1` means never retransmit).
    pub max_attempts: u32,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        Self { timeout: 2_048, max_attempts: 16 }
    }
}

impl RetransmitConfig {
    /// Backoff delay before re-offering a packet on zero-based retry
    /// `attempt`: `timeout << attempt`, saturating.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> u64 {
        self.timeout.saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
    }
}

/// Everything a faulted run needs: the failure schedule and, optionally,
/// the retransmission policy. Installed on a built simulator via
/// [`crate::Simulator::install_fault_plan`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// When which components die.
    pub schedule: FaultSchedule,
    /// `Some` enables source retransmission of fault-dropped packets.
    pub retransmit: Option<RetransmitConfig>,
}

impl FaultPlan {
    /// A plan that kills the given links/routers with no retransmission.
    #[must_use]
    pub fn new(schedule: FaultSchedule) -> Self {
        Self { schedule, retransmit: None }
    }

    /// Adds a retransmission policy.
    #[must_use]
    pub fn with_retransmit(mut self, config: RetransmitConfig) -> Self {
        self.retransmit = Some(config);
        self
    }

    /// Heap bytes of the schedule's event list.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.schedule.events.capacity() * size_of::<FaultEvent>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_graph::gen;

    #[test]
    fn schedule_sorts_stably_by_cycle() {
        let s = FaultSchedule::new(vec![
            FaultEvent { cycle: 9, target: FaultTarget::Router(2) },
            FaultEvent { cycle: 3, target: FaultTarget::Link { a: 0, b: 1 } },
            FaultEvent { cycle: 9, target: FaultTarget::Router(1) },
        ]);
        let cycles: Vec<u64> = s.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, [3, 9, 9]);
        // Same-cycle order preserved (router 2 listed before router 1).
        assert_eq!(s.events()[1].target, FaultTarget::Router(2));
        assert_eq!(s.events()[2].target, FaultTarget::Router(1));
    }

    #[test]
    fn random_links_is_deterministic_and_distinct() {
        let g = gen::grid(4, 4);
        let a = FaultSchedule::random_links(&g, 5, 100, 7);
        let b = FaultSchedule::random_links(&g, 5, 100, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        let mut targets: Vec<_> = a.events().iter().map(|e| e.target).collect();
        targets.sort();
        targets.dedup();
        assert_eq!(targets.len(), 5, "sampled links must be distinct");
        for e in a.events() {
            assert_eq!(e.cycle, 100);
            match e.target {
                FaultTarget::Link { a, b } => assert!(g.has_edge(a, b)),
                FaultTarget::Router(_) => panic!("random_links only kills links"),
            }
        }
    }

    #[test]
    fn random_links_caps_at_edge_count() {
        let g = gen::cycle(4);
        let s = FaultSchedule::random_links(&g, 100, 0, 1);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn backoff_is_exponential_and_saturates() {
        let r = RetransmitConfig { timeout: 100, max_attempts: 8 };
        assert_eq!(r.backoff(0), 100);
        assert_eq!(r.backoff(1), 200);
        assert_eq!(r.backoff(3), 800);
        assert_eq!(r.backoff(200), u64::MAX);
    }
}
