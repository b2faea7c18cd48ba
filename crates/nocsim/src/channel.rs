//! Fixed-latency delay-line channels for flits and credits.

use std::collections::VecDeque;

use crate::flit::{Flit, VcId};

/// A unidirectional channel that delivers items `latency` cycles after they
/// are pushed, spaced at least `interval` cycles apart. At most one item may
/// be pushed per cycle; `interval == 1` (the default) gives BookSim2's
/// standard full-bandwidth channel, while `interval > 1` models a narrower
/// serialized link that sustains one flit every `interval` cycles.
#[derive(Debug, Clone)]
pub struct DelayLine<T> {
    latency: u64,
    interval: u64,
    queue: VecDeque<(u64, T)>,
    last_delivery: Option<u64>,
    /// Cached delivery cycle of the front item (`IDLE` when empty) — the
    /// event-driven simulator keys its wheel on this instead of polling
    /// the queue every cycle.
    next_due: u64,
    /// Cycle of the last push, for the one-push-per-cycle check. Like
    /// `bound`, only debug builds keep it: only their assertions read it.
    #[cfg(debug_assertions)]
    last_push_cycle: Option<u64>,
    /// Occupancy bound recorded by [`DelayLine::reserve`] (0 on a line
    /// never reserved); debug builds check every push against it.
    #[cfg(debug_assertions)]
    bound: usize,
}

/// Sentinel [`DelayLine::next_due`] value for an empty line.
pub const IDLE: u64 = u64::MAX;

impl<T> DelayLine<T> {
    /// Creates a full-bandwidth channel with the given latency (≥ 1 cycle).
    ///
    /// # Panics
    ///
    /// Panics if `latency == 0`; combinational channels are not modelled.
    #[must_use]
    pub fn new(latency: u64) -> Self {
        Self::with_interval(latency, 1)
    }

    /// Creates a channel delivering at most one item every `interval` cycles
    /// (a link whose bandwidth is `1/interval` flits per cycle).
    ///
    /// # Panics
    ///
    /// Panics if `latency == 0` or `interval == 0`.
    #[must_use]
    pub fn with_interval(latency: u64, interval: u64) -> Self {
        assert!(latency >= 1, "channel latency must be at least 1 cycle");
        assert!(interval >= 1, "channel interval must be at least 1 cycle");
        Self {
            latency,
            interval,
            queue: VecDeque::new(),
            last_delivery: None,
            next_due: IDLE,
            #[cfg(debug_assertions)]
            last_push_cycle: None,
            #[cfg(debug_assertions)]
            bound: 0,
        }
    }

    /// Channel latency in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Minimum spacing between deliveries in cycles.
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Reserves queue capacity for `items` in-flight items, the line's
    /// occupancy bound. The simulator reserves each line it pops to the
    /// line's bound once, at construction, so the steady-state hot path
    /// never reallocates; debug builds record the bound and assert on
    /// every push that it holds.
    pub fn reserve(&mut self, items: usize) {
        self.queue.reserve_exact(items);
        #[cfg(debug_assertions)]
        {
            self.bound = items;
        }
    }

    /// Heap bytes the queue holds: its capacity, not its occupancy.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.queue.capacity() * size_of::<(u64, T)>()
    }

    /// Pushes an item at `cycle`; it becomes available at `cycle + latency`,
    /// delayed further if the serialization interval requires spacing from
    /// the previous delivery. `extra_delay` adds pipeline stages upstream of
    /// the wire (used to model the router traversal latency without a
    /// separate structure).
    ///
    /// # Panics
    ///
    /// Panics (debug) if two items are pushed in the same cycle — each
    /// channel carries at most one flit per cycle — or if the push would
    /// take a reserved line past its bound ([`DelayLine::reserve`]).
    pub fn push(&mut self, cycle: u64, extra_delay: u64, item: T) {
        #[cfg(debug_assertions)]
        {
            assert!(
                self.last_push_cycle != Some(cycle),
                "channel accepted two items in cycle {cycle}"
            );
            assert!(
                self.bound == 0 || self.queue.len() < self.bound,
                "line would hold {} items in cycle {cycle}, past its reserved bound {}",
                self.queue.len() + 1,
                self.bound
            );
            self.last_push_cycle = Some(cycle);
        }
        let mut deliver_at = cycle + self.latency + extra_delay;
        if let Some(last) = self.last_delivery {
            deliver_at = deliver_at.max(last + self.interval);
        }
        self.last_delivery = Some(deliver_at);
        // Items with extra pipeline delay must still be delivered in order;
        // insertion keeps the queue sorted by delivery time (extra_delay is
        // constant per channel in practice, so this is O(1)).
        debug_assert!(self.queue.back().is_none_or(|(t, _)| *t <= deliver_at));
        if self.queue.is_empty() {
            self.next_due = deliver_at;
        }
        self.queue.push_back((deliver_at, item));
    }

    /// Pops the next item if it is due at `cycle`.
    pub fn pop_due(&mut self, cycle: u64) -> Option<T> {
        if self.next_due > cycle {
            return None;
        }
        let (_, item) = self.queue.pop_front().expect("next_due set implies non-empty");
        self.next_due = self.queue.front().map_or(IDLE, |&(due, _)| due);
        Some(item)
    }

    /// Delivery cycle of the front item, or [`IDLE`] when nothing is in
    /// flight. A push to an empty line sets this; pushes to a non-empty
    /// line never move it (the queue is sorted), so a scheduler only needs
    /// to look at it on push-to-empty and after each pop.
    #[must_use]
    pub fn next_due(&self) -> u64 {
        self.next_due
    }

    /// Removes every in-flight item for which `doomed` returns `true` and
    /// recomputes the cached front delivery cycle. Returns the number
    /// removed. Serialization history (`last_delivery`) is deliberately
    /// kept: a fault does not rewrite the wire's past, and for a dead line
    /// nothing is ever pushed again.
    pub fn purge(&mut self, mut doomed: impl FnMut(&T) -> bool) -> usize {
        let before = self.queue.len();
        self.queue.retain(|(_, item)| !doomed(item));
        self.next_due = self.queue.front().map_or(IDLE, |&(due, _)| due);
        before - self.queue.len()
    }

    /// Iterates over the in-flight items in delivery order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.queue.iter().map(|(_, item)| item)
    }

    /// Number of items in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// `true` if nothing is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// A credit message: one buffer slot freed for `vc` at the downstream input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Credit {
    /// Virtual channel whose buffer slot was freed.
    pub vc: VcId,
}

/// The pair of delay lines that make up one physical link direction:
/// a forward flit wire and a reverse credit wire.
#[derive(Debug, Clone)]
pub struct Link {
    /// Forward direction: flits.
    pub flits: DelayLine<Flit>,
    /// Reverse direction: credits for the upstream sender.
    pub credits: DelayLine<Credit>,
}

impl Link {
    /// Creates a link with symmetric flit/credit latency.
    #[must_use]
    pub fn new(latency: u64) -> Self {
        Self { flits: DelayLine::new(latency), credits: DelayLine::new(latency) }
    }

    /// Creates a link whose forward flit wire sustains one flit every
    /// `interval` cycles (a serialized, narrower D2D link). Credits travel a
    /// dedicated sideband wire and are never serialized.
    #[must_use]
    pub fn with_interval(latency: u64, interval: u64) -> Self {
        Self {
            flits: DelayLine::with_interval(latency, interval),
            credits: DelayLine::new(latency),
        }
    }

    /// `true` if no flit or credit is in flight.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.flits.is_empty() && self.credits.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_after_latency() {
        let mut c: DelayLine<u32> = DelayLine::new(3);
        c.push(10, 0, 99);
        assert_eq!(c.pop_due(12), None);
        assert_eq!(c.pop_due(13), Some(99));
        assert_eq!(c.pop_due(14), None);
        assert!(c.is_empty());
    }

    #[test]
    fn extra_delay_adds_pipeline_stages() {
        let mut c: DelayLine<u32> = DelayLine::new(2);
        c.push(0, 3, 1);
        assert_eq!(c.pop_due(4), None);
        assert_eq!(c.pop_due(5), Some(1));
    }

    #[test]
    fn preserves_order() {
        let mut c: DelayLine<u32> = DelayLine::new(1);
        c.push(0, 0, 1);
        c.push(1, 0, 2);
        c.push(2, 0, 3);
        assert_eq!(c.pop_due(5), Some(1));
        assert_eq!(c.pop_due(5), Some(2));
        assert_eq!(c.pop_due(5), Some(3));
    }

    #[test]
    #[should_panic(expected = "latency must be at least 1")]
    fn zero_latency_rejected() {
        let _ = DelayLine::<u32>::new(0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two items")]
    fn double_push_same_cycle_panics() {
        let mut c: DelayLine<u32> = DelayLine::new(1);
        c.push(0, 0, 1);
        c.push(0, 0, 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "past its reserved bound 2")]
    fn push_past_the_reserved_bound_panics() {
        let mut c: DelayLine<u32> = DelayLine::new(5);
        c.reserve(2);
        assert_eq!(c.heap_bytes(), 2 * size_of::<(u64, u32)>());
        for t in 0..3 {
            c.push(t, 0, 1);
        }
    }

    #[test]
    fn interval_spaces_deliveries() {
        // Three back-to-back flits over an interval-3 link: arrivals at
        // latency, latency + 3, latency + 6.
        let mut c: DelayLine<u32> = DelayLine::with_interval(5, 3);
        c.push(0, 0, 1);
        c.push(1, 0, 2);
        c.push(2, 0, 3);
        assert_eq!(c.pop_due(4), None);
        assert_eq!(c.pop_due(5), Some(1));
        assert_eq!(c.pop_due(7), None);
        assert_eq!(c.pop_due(8), Some(2));
        assert_eq!(c.pop_due(10), None);
        assert_eq!(c.pop_due(11), Some(3));
    }

    #[test]
    fn interval_idle_link_recovers_full_latency() {
        // After a long idle gap the next flit sees only the base latency.
        let mut c: DelayLine<u32> = DelayLine::with_interval(2, 4);
        c.push(0, 0, 1);
        assert_eq!(c.pop_due(2), Some(1));
        c.push(100, 0, 2);
        assert_eq!(c.pop_due(102), Some(2));
    }

    #[test]
    fn interval_one_matches_plain_channel() {
        let mut a: DelayLine<u32> = DelayLine::new(3);
        let mut b: DelayLine<u32> = DelayLine::with_interval(3, 1);
        for t in 0..5 {
            a.push(t, 0, t as u32);
            b.push(t, 0, t as u32);
        }
        for t in 0..20 {
            assert_eq!(a.pop_due(t), b.pop_due(t));
        }
    }

    #[test]
    #[should_panic(expected = "interval must be at least 1")]
    fn zero_interval_rejected() {
        let _ = DelayLine::<u32>::with_interval(1, 0);
    }

    #[test]
    fn serialized_link_keeps_credits_fast() {
        let link = Link::with_interval(27, 4);
        assert_eq!(link.flits.interval(), 4);
        assert_eq!(link.credits.interval(), 1);
        assert_eq!(link.credits.latency(), 27);
    }

    #[test]
    fn purge_removes_matching_items_and_fixes_next_due() {
        let mut c: DelayLine<u32> = DelayLine::new(1);
        c.push(0, 0, 1);
        c.push(1, 0, 2);
        c.push(2, 0, 3);
        assert_eq!(c.purge(|&x| x != 2), 2);
        assert_eq!(c.next_due(), 2);
        assert_eq!(c.pop_due(2), Some(2));
        assert_eq!(c.purge(|_| true), 0);
        assert_eq!(c.next_due(), IDLE);
    }

    #[test]
    fn link_idle_tracking() {
        let mut link = Link::new(2);
        assert!(link.is_idle());
        link.credits.push(0, 0, Credit { vc: 1 });
        assert!(!link.is_idle());
        assert_eq!(link.credits.pop_due(2), Some(Credit { vc: 1 }));
        assert!(link.is_idle());
    }
}
