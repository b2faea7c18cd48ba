//! Traffic endpoints: packet sources and sinks.
//!
//! Each chiplet hosts a router and (in the paper's configuration) two
//! endpoints. An endpoint generates packets with a Bernoulli (or bursty
//! on/off) process, queues their flits in a bounded source queue, and
//! injects them into its router's injection port under credit flow
//! control. Arriving flits are sunk by the simulator, which also does all
//! measurement-window counting; an endpoint keeps only source state.
//!
//! Generation is *arrival-scheduled*: instead of flipping a coin every
//! cycle, the endpoint samples the cycle of its next packet with
//! [`InjectionProcess::next_arrival`] (geometric skip-ahead) and is only
//! touched at those cycles — the key to the simulator's O(active
//! components) stepping.
//!
//! Closed-loop drivers (the workload engine) bypass the stochastic
//! generator entirely: [`Endpoint::offer_packet`] enqueues one explicit
//! packet, and the source-queue occupancy integral ([`Endpoint::
//! queue_occupancy`]) is maintained incrementally at queue mutations so
//! per-cycle sampling is never needed.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::channel::IDLE;
use crate::flit::{EndpointId, Flit, PacketId, VcId};
use crate::heap::HeapBytes;
use crate::traffic::{InjectionProcess, ProcessState, TrafficPattern};

/// What became of one scheduled packet generation
/// ([`Endpoint::generate_due`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generated {
    /// The source queue was full (the network is saturated); no
    /// destination was drawn.
    Refused,
    /// The drawn destination was not deliverable; nothing was enqueued.
    Squelched,
    /// The packet `id` of `size` flits toward `dest` was enqueued.
    Accepted {
        /// Assigned packet id.
        id: PacketId,
        /// Destination endpoint.
        dest: EndpointId,
        /// Packet length in flits.
        size: usize,
    },
}

/// A packet source attached to one router.
#[derive(Debug, Clone)]
pub struct Endpoint {
    id: EndpointId,
    num_endpoints: usize,
    source_queue: VecDeque<Flit>,
    source_queue_cap_flits: usize,
    /// Credits toward the router's injection-port input VCs.
    credits: Vec<usize>,
    /// VC bound for the packet currently being injected.
    bound_vc: Option<VcId>,
    /// Packets this endpoint has sourced. Packet ids are endpoint-strided
    /// (`id + num_endpoints * seq`): globally unique without any shared
    /// counter, so a sharded run — where each shard generates
    /// independently — assigns every packet the exact id the serial run
    /// does. Fault handling relies on this: the doomed-set union exchanged
    /// at failure barriers identifies packets *by id across shards*.
    next_seq: u64,
    rng: StdRng,
    process_state: ProcessState,
    /// Cycle of the next scheduled packet generation ([`IDLE`] when the
    /// process never fires again).
    next_arrival: u64,
    /// Time-weighted source-queue occupancy integral (Σ flits · cycles)
    /// since the window opened, maintained incrementally at every queue
    /// mutation — exact even across idle fast-forward, because a skipped
    /// stretch never mutates any queue.
    queue_integral: u64,
    /// Largest source-queue occupancy (flits) seen inside the window.
    queue_max: u64,
    /// Cycle of the last occupancy-integral update.
    queue_mark: u64,
}

impl Endpoint {
    /// Creates an endpoint.
    ///
    /// `vcs`/`buffer_depth` size the credit counters toward the router;
    /// `source_queue_cap_packets` bounds the source queue (packets generated
    /// while it is full count as offered but are refused — at that point the
    /// network is saturated anyway). The queue starts without capacity;
    /// the simulator reserves it for the endpoints it steps.
    #[must_use]
    pub fn new(
        id: EndpointId,
        num_endpoints: usize,
        vcs: usize,
        buffer_depth: usize,
        source_queue_cap_packets: usize,
        packet_size: usize,
        seed: u64,
    ) -> Self {
        let cap_flits = source_queue_cap_packets * packet_size;
        Self {
            id,
            num_endpoints,
            source_queue: VecDeque::new(),
            source_queue_cap_flits: cap_flits,
            credits: vec![buffer_depth; vcs],
            bound_vc: None,
            next_seq: 0,
            rng: StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            process_state: ProcessState::default(),
            next_arrival: IDLE,
            queue_integral: 0,
            queue_max: 0,
            queue_mark: 0,
        }
    }

    /// Reserves the source queue to its capacity, a hard bound (offers
    /// beyond it are refused), so generation and injection never allocate.
    /// The simulator calls this once, at construction, for each endpoint
    /// it steps; a shard leaves the endpoints it does not own empty.
    pub(crate) fn reserve_source_queue(&mut self) {
        self.source_queue.reserve_exact(self.source_queue_cap_flits);
    }

    /// Heap bytes the endpoint holds: its source queue's capacity and its
    /// credit counters.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.source_queue.heap_bytes() + self.credits.heap_bytes()
    }

    /// Opens the measurement window at `cycle`: the source-queue occupancy
    /// statistics ([`Endpoint::queue_occupancy`]) restart.
    pub fn open_window(&mut self, cycle: u64) {
        self.queue_integral = 0;
        self.queue_max = self.source_queue.len() as u64;
        self.queue_mark = cycle;
    }

    /// Advances the occupancy integral to `now` at the current queue
    /// length. Call *before* any queue mutation.
    fn note_queue(&mut self, now: u64) {
        let len = self.source_queue.len() as u64;
        self.queue_integral += len * (now - self.queue_mark);
        self.queue_mark = now;
    }

    /// Source-queue occupancy over the measurement window, finalized at
    /// `now`: `(max_flits, flit_cycles)` where `flit_cycles` is the
    /// time-weighted integral Σ len·dt — divide by the window length for
    /// the mean occupancy. Both reset when a window opens.
    #[must_use]
    pub fn queue_occupancy(&self, now: u64) -> (u64, u64) {
        let len = self.source_queue.len() as u64;
        (self.queue_max, self.queue_integral + len * (now - self.queue_mark))
    }

    /// Cycle of the next scheduled packet generation, or
    /// [`crate::channel::IDLE`] if none is scheduled.
    #[must_use]
    pub fn next_arrival(&self) -> u64 {
        self.next_arrival
    }

    /// Samples and schedules the first packet arrival at or after `from`.
    /// Endpoints with fewer than two reachable peers never generate.
    pub fn schedule_arrival(&mut self, from: u64, process: InjectionProcess) {
        self.next_arrival = if self.num_endpoints < 2 {
            IDLE
        } else {
            process.next_arrival(from, &mut self.process_state, &mut self.rng).unwrap_or(IDLE)
        };
    }

    /// Generates the packet scheduled for `cycle` (offering it to the
    /// source queue, which refuses it when full), samples the next arrival
    /// ([`Endpoint::next_arrival`]), and returns what became of the packet.
    ///
    /// The destination is drawn only when the queue has room, and then
    /// whatever the network state, so the RNG consumes the same draws on a
    /// healthy and a degraded network, and a run whose fault plan never
    /// fires stays bit-identical to an unfaulted one. It is then checked
    /// against `deliverable`: packets toward a dead or partitioned
    /// destination are [`Generated::Squelched`] (never enqueued). A healthy
    /// network passes `|_| true`.
    ///
    /// # Panics
    ///
    /// Debug-panics if `cycle` is not the scheduled arrival cycle.
    pub fn generate_due(
        &mut self,
        cycle: u64,
        process: InjectionProcess,
        pattern: TrafficPattern,
        deliverable: impl FnOnce(EndpointId) -> bool,
    ) -> Generated {
        debug_assert_eq!(cycle, self.next_arrival, "generation fired off schedule");
        let size = process.packet_size;
        let outcome = if self.source_queue.len() + size > self.source_queue_cap_flits {
            Generated::Refused
        } else {
            let dest = pattern.destination(self.id, self.num_endpoints, &mut self.rng);
            if deliverable(dest) {
                Generated::Accepted { id: self.enqueue(cycle, dest, size), dest, size }
            } else {
                Generated::Squelched
            }
        };
        self.schedule_arrival(cycle + 1, process);
        outcome
    }

    /// Offers one explicit packet to the source queue at `cycle` — the
    /// closed-loop entry point workload drivers use instead of the
    /// stochastic generator. Returns the assigned packet id, or `None`
    /// when the source queue cannot take `size_flits` more flits (the
    /// caller retries once the queue drains).
    ///
    /// # Panics
    ///
    /// Debug-panics on self-traffic or a zero-length packet.
    pub fn offer_packet(
        &mut self,
        cycle: u64,
        dest: EndpointId,
        size_flits: usize,
    ) -> Option<PacketId> {
        debug_assert_ne!(dest, self.id, "self-traffic does not exercise the interconnect");
        debug_assert!(size_flits >= 1, "packets need at least one flit");
        if self.source_queue.len() + size_flits > self.source_queue_cap_flits {
            return None;
        }
        Some(self.enqueue(cycle, dest, size_flits))
    }

    /// Enqueues a new packet under the next id. Capacity was checked by
    /// the caller. The assigned id is endpoint-strided (see
    /// [`Endpoint::next_seq`]), so `id % num_endpoints` recovers the
    /// source.
    fn enqueue(&mut self, cycle: u64, dest: EndpointId, size_flits: usize) -> PacketId {
        let id = self.id as PacketId + self.num_endpoints as PacketId * self.next_seq;
        self.next_seq += 1;
        self.push_packet(cycle, id, dest, size_flits, cycle);
        id
    }

    /// Segments packet `id` into `size_flits` flits at the back of the
    /// source queue, maintaining the occupancy integral. The flits carry a
    /// placeholder `vc`; injection assigns the real one.
    fn push_packet(
        &mut self,
        now: u64,
        id: PacketId,
        dest: EndpointId,
        size_flits: usize,
        created_at: u64,
    ) {
        self.note_queue(now);
        // Every endpoint id fits `u32`: the simulator refuses larger networks.
        let dest = dest as u32;
        self.source_queue.extend((0..size_flits).map(|i| Flit {
            packet: id,
            is_head: i == 0,
            is_tail: i + 1 == size_flits,
            dest,
            created_at,
            vc: 0,
            escape: false,
        }));
        self.queue_max = self.queue_max.max(self.source_queue.len() as u64);
    }

    /// Attempts to inject one flit at cycle `now`. Returns the flit to
    /// place on the injection link, or `None` if blocked (no flit, or no
    /// credit).
    pub fn try_inject(&mut self, now: u64) -> Option<Flit> {
        let head = *self.source_queue.front()?;
        let vc = match self.bound_vc {
            Some(vc) => vc,
            None => {
                debug_assert!(head.is_head, "unbound endpoint queue must start at a head flit");
                // Bind the VC with the most credits (and at least one).
                let vc = (0..self.credits.len())
                    .filter(|&v| self.credits[v] > 0)
                    .max_by_key(|&v| self.credits[v])?;
                self.bound_vc = Some(vc);
                vc
            }
        };
        if self.credits[vc] == 0 {
            return None;
        }
        self.note_queue(now);
        let mut flit = self.source_queue.pop_front().expect("checked above");
        flit.vc = vc as u8;
        self.credits[vc] -= 1;
        if flit.is_tail {
            self.bound_vc = None;
        }
        Some(flit)
    }

    /// Returns an injection credit for `vc` (one router buffer slot freed).
    pub fn receive_credit(&mut self, vc: VcId) {
        self.credits[vc] += 1;
    }

    /// Re-offers a previously accepted packet whose flits were dropped by a
    /// fault (source retransmission). The packet keeps its original id and
    /// `created_at` — a latency sample on eventual delivery then covers the
    /// loss and backoff, which is the honest degraded-network metric. The
    /// packet was counted as accepted when first enqueued. Returns `false` when the source queue has no room; the
    /// caller backs off and retries.
    pub fn requeue_packet(
        &mut self,
        now: u64,
        id: PacketId,
        dest: EndpointId,
        size_flits: usize,
        created_at: u64,
    ) -> bool {
        if self.source_queue.len() + size_flits > self.source_queue_cap_flits {
            return false;
        }
        self.push_packet(now, id, dest, size_flits, created_at);
        true
    }

    /// Fault handling for a *surviving* endpoint: discards source-queue
    /// flits of packets that are globally doomed (`is_doomed`) and whole
    /// queued packets whose destination died or was partitioned away
    /// (`dest_cut`). The partially injected front packet (bound VC held) is
    /// exempt from the `dest_cut` rule — if it must die, the simulator has
    /// already doomed it globally, which also releases the VC binding here.
    /// Each packet dropped by `dest_cut` alone (its flits never entered the
    /// network) is reported once through `queue_dropped`.
    pub fn purge_faulted(
        &mut self,
        now: u64,
        mut is_doomed: impl FnMut(PacketId) -> bool,
        mut dest_cut: impl FnMut(EndpointId) -> bool,
        mut queue_dropped: impl FnMut(PacketId),
    ) {
        self.note_queue(now);
        let bound_packet = if self.bound_vc.is_some() {
            self.source_queue.front().map(|f| f.packet)
        } else {
            None
        };
        let mut last_reported = None;
        self.source_queue.retain(|flit| {
            if is_doomed(flit.packet) {
                return false;
            }
            if Some(flit.packet) != bound_packet && dest_cut(flit.dest as usize) {
                if last_reported != Some(flit.packet) {
                    last_reported = Some(flit.packet);
                    queue_dropped(flit.packet);
                }
                return false;
            }
            true
        });
        if bound_packet.is_some_and(&mut is_doomed) {
            self.bound_vc = None;
        }
    }

    /// Fault handling for a *dying* endpoint (its router was killed): the
    /// source queue is abandoned, generation stops for good, and any VC
    /// binding is forgotten. Reports each discarded packet id once through
    /// `dropped`. A partially injected front packet
    /// ([`Endpoint::partially_injected`]) has flits in the network, which
    /// the simulator dooms separately.
    pub fn kill(&mut self, now: u64, mut dropped: impl FnMut(PacketId)) {
        self.note_queue(now);
        let mut last = None;
        for flit in &self.source_queue {
            if last != Some(flit.packet) {
                last = Some(flit.packet);
                dropped(flit.packet);
            }
        }
        self.source_queue.clear();
        self.bound_vc = None;
        self.next_arrival = IDLE;
    }

    /// The front packet's `(id, dest)` when it is partially injected (an
    /// injection VC is bound, so some of its flits are already in the
    /// network), `None` otherwise. Fault handling seeds the doomed set
    /// from this: a half-injected packet cannot simply be dropped from
    /// the queue.
    #[must_use]
    pub fn partially_injected(&self) -> Option<(PacketId, EndpointId)> {
        if self.bound_vc.is_some() {
            self.source_queue.front().map(|f| (f.packet, f.dest as usize))
        } else {
            None
        }
    }

    /// Flits waiting in the source queue.
    #[must_use]
    pub fn backlog_flits(&self) -> usize {
        self.source_queue.len()
    }

    /// `true` if nothing is queued for injection.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.source_queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoint() -> Endpoint {
        Endpoint::new(0, 4, 2, 4, 8, 2, 42)
    }

    fn process(rate: f64) -> InjectionProcess {
        InjectionProcess::bernoulli(rate, 2)
    }

    /// Drives the generator over `cycles` cycles, firing scheduled
    /// arrivals (the per-cycle shape the simulator's reference path uses),
    /// and returns each generation's outcome.
    fn drive(e: &mut Endpoint, proc: InjectionProcess, cycles: u64) -> Vec<Generated> {
        e.schedule_arrival(0, proc);
        let mut outcomes = Vec::new();
        for cycle in 0..cycles {
            if e.next_arrival() == cycle {
                outcomes.push(e.generate_due(
                    cycle,
                    proc,
                    TrafficPattern::UniformRandom,
                    |_| true,
                ));
            }
        }
        outcomes
    }

    #[test]
    fn generates_and_injects_in_order() {
        let mut e = endpoint();
        // Force generation by running many cycles at rate 1.0.
        drive(&mut e, process(1.0), 8);
        assert!(e.backlog_flits() > 0);
        let f0 = e.try_inject(100).expect("credit available");
        assert!(f0.is_head);
        let f1 = e.try_inject(100).expect("credit available");
        assert_eq!(f1.packet, f0.packet);
        assert!(f1.is_tail);
        assert_eq!(f1.vc, f0.vc, "a packet stays on its bound VC");
    }

    #[test]
    fn single_flit_packet_is_head_and_tail() {
        let mut e = endpoint();
        let id = e.offer_packet(42, 3, 1).expect("room in the queue");
        let flits: Vec<Flit> = e.source_queue.iter().copied().collect();
        assert_eq!(flits.len(), 1);
        assert!(flits[0].is_head && flits[0].is_tail);
        assert_eq!(flits[0].packet, id);
    }

    #[test]
    fn multi_flit_packet_structure() {
        // A new packet and a retransmitted one segment alike.
        let mut e = endpoint();
        let id = e.offer_packet(42, 3, 4).expect("room in the queue");
        assert!(e.requeue_packet(50, 9, 3, 4, 42));
        let flits: Vec<Flit> = e.source_queue.iter().copied().collect();
        assert_eq!(flits.len(), 8);
        for (packet, want) in flits.chunks(4).zip([id, 9]) {
            assert!(packet[0].is_head && !packet[0].is_tail);
            assert!(packet[1..3].iter().all(|f| !f.is_head && !f.is_tail));
            assert!(!packet[3].is_head && packet[3].is_tail);
            assert!(packet
                .iter()
                .all(|f| f.packet == want && f.dest == 3 && f.created_at == 42));
        }
    }

    #[test]
    fn injection_blocks_without_credits() {
        let mut e = endpoint();
        drive(&mut e, process(1.0), 20);
        // Drain all credits: 2 VCs x 4 slots = 8 flits.
        let mut sent = 0;
        while e.try_inject(100).is_some() {
            sent += 1;
        }
        assert_eq!(sent, 8);
        e.receive_credit(0);
        assert!(e.try_inject(100).is_some());
        assert!(e.try_inject(100).is_none());
    }

    #[test]
    fn generate_due_reports_each_outcome() {
        // Cap: 2 packets = 4 flits. The first packet is accepted, and at
        // rate 1.0 the full queue soon refuses.
        let mut e = Endpoint::new(0, 4, 2, 4, 2, 2, 7);
        let outcomes = drive(&mut e, process(1.0), 100);
        assert!(
            matches!(outcomes[0], Generated::Accepted { id: 0, dest, size: 2 } if dest != 0)
        );
        assert!(outcomes.contains(&Generated::Refused));
        assert_eq!(e.backlog_flits(), 4);

        // An undeliverable destination is squelched after the same draws:
        // both endpoints schedule the same next arrival.
        let proc = process(0.5);
        let mut healthy = endpoint();
        let mut severed = endpoint();
        healthy.schedule_arrival(0, proc);
        severed.schedule_arrival(0, proc);
        let due = healthy.next_arrival();
        let pattern = TrafficPattern::UniformRandom;
        assert!(matches!(
            healthy.generate_due(due, proc, pattern, |_| true),
            Generated::Accepted { .. }
        ));
        assert_eq!(severed.generate_due(due, proc, pattern, |_| false), Generated::Squelched);
        assert!(severed.is_drained());
        assert_eq!(severed.next_arrival(), healthy.next_arrival());
    }

    #[test]
    fn purge_and_requeue_round_trip() {
        let mut e = endpoint();
        // Two 2-flit packets: one to endpoint 1, one to endpoint 2. Ids are
        // endpoint-strided: endpoint 0 of 4 assigns 0, 4, 8, ...
        assert_eq!(e.offer_packet(0, 1, 2), Some(0));
        assert_eq!(e.offer_packet(0, 2, 2), Some(4));
        // Inject one flit of packet 0 so it becomes the bound front packet.
        assert!(e.try_inject(1).is_some());
        // Cutting destination 1 must NOT drop the partially injected front
        // packet; cutting destination 2 drops the queued packet 4 wholesale.
        let mut dropped = Vec::new();
        e.purge_faulted(2, |_| false, |d| d == 1 || d == 2, |p| dropped.push(p));
        assert_eq!(dropped, [4]);
        assert_eq!(e.backlog_flits(), 1, "only packet 4's two flits leave the queue");
        assert_eq!(e.partially_injected(), Some((0, 1)));
        // Now doom packet 0 globally: its tail leaves, binding released.
        e.purge_faulted(3, |p| p == 0, |_| false, |_| ());
        assert!(e.is_drained());
        assert_eq!(e.partially_injected(), None);
        // Retransmission: packet 0 re-offered with its original identity.
        assert!(e.requeue_packet(10, 0, 1, 2, 0));
        let f = e.try_inject(11).expect("credits available");
        assert_eq!(f.packet, 0);
        assert_eq!(f.created_at, 0, "original creation time preserved");
    }

    #[test]
    fn kill_reports_queued_packets_and_stops_generation() {
        let mut e = endpoint();
        drive(&mut e, process(1.0), 6);
        assert!(e.backlog_flits() >= 4, "rate-1.0 generation produced packets");
        assert!(e.try_inject(50).is_some(), "head of first packet injected");
        assert!(
            matches!(e.partially_injected(), Some((0, _))),
            "front packet is mid-injection"
        );
        let mut dropped = Vec::new();
        e.kill(50, |p| dropped.push(p));
        assert!(dropped.contains(&0));
        assert!(e.is_drained());
        assert_eq!(e.partially_injected(), None, "the VC binding is forgotten");
        assert_eq!(e.next_arrival(), IDLE, "a dead endpoint never generates");
    }

    #[test]
    fn no_traffic_with_single_endpoint() {
        let mut e = Endpoint::new(0, 1, 2, 4, 8, 2, 3);
        e.schedule_arrival(0, process(1.0));
        assert_eq!(e.next_arrival(), IDLE, "single endpoint never generates");
        drive(&mut e, process(1.0), 100);
        assert!(e.is_drained());
    }
}
