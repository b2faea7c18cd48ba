//! The cycle-accurate simulator: wiring, event-driven evaluation,
//! statistics.
//!
//! The hot path is *event-driven*: per-cycle cost is O(active components),
//! not O(network). Delay lines carry a cached `next_due` cycle and feed a
//! bucketed event wheel (at most one entry per line), routers sit on an
//! active worklist only while they hold buffered flits, endpoints sample
//! their next packet arrival with geometric skip-ahead, and fully idle
//! stretches fast-forward the cycle counter straight to the next event.
//! A poll-every-cycle reference path ([`Simulator::set_reference_stepping`])
//! drives the exact same component operations exhaustively; golden tests
//! prove both produce bit-identical statistics.

use chiplet_graph::Graph;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::sync::Arc;

use crate::channel::{Credit, DelayLine, Link, IDLE};
use crate::endpoint::{Endpoint, Generated};
use crate::fault::{FaultPlan, FaultTarget};
use crate::flit::{Flit, PacketId, RouterId};
use crate::heap::{arc_block, HeapBytes};
use crate::obs::{ObsState, Probe, WindowSample};
use crate::rmodel::RouterModel;
use crate::router::{RouteContext, Router, RouterParams, SentCredit, SentFlit, StallCounters};
use crate::routing::{RoutingError, RoutingKind, RoutingTables};
use crate::traffic::{InjectionProcess, ProcessKind, TrafficPattern};

/// Full simulator configuration.
///
/// [`SimConfig::paper_defaults`] reproduces §VI-A of the paper: 8 virtual
/// channels, 8-flit buffers, 3-cycle routers, 27-cycle links, two endpoints
/// per chiplet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Virtual channels per port.
    pub vcs: usize,
    /// Buffer depth in flits per VC.
    pub buffer_depth: usize,
    /// Router pipeline latency in cycles.
    pub router_latency: u64,
    /// Router-to-router link latency in cycles (PHY + D2D wire + PHY).
    pub link_latency: u64,
    /// Endpoint-to-router (and back) link latency in cycles.
    pub injection_latency: u64,
    /// Endpoints attached to each router.
    pub endpoints_per_router: usize,
    /// Packet length in flits.
    pub packet_size: usize,
    /// Routing algorithm.
    pub routing: RoutingKind,
    /// Spatial traffic pattern.
    pub pattern: TrafficPattern,
    /// Temporal injection process (Bernoulli or bursty on/off).
    pub process: ProcessKind,
    /// Offered load in flits/cycle/endpoint.
    pub injection_rate: f64,
    /// RNG seed (traffic is reproducible given the seed).
    pub seed: u64,
    /// Source-queue capacity in packets per endpoint.
    pub source_queue_cap: usize,
    /// Watchdog: cycles without any flit movement (while flits are in the
    /// network) before deadlock is suspected.
    pub deadlock_watchdog: u64,
    /// Router microarchitecture (defaults to the paper's router; see
    /// [`crate::rmodel`]).
    pub router: RouterModel,
}

impl SimConfig {
    /// The configuration of §VI-A of the paper.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            vcs: 8,
            buffer_depth: 8,
            router_latency: 3,
            link_latency: 27,
            injection_latency: 1,
            endpoints_per_router: 2,
            packet_size: 4,
            routing: RoutingKind::MinimalAdaptiveEscape,
            pattern: TrafficPattern::UniformRandom,
            process: ProcessKind::Bernoulli,
            injection_rate: 0.1,
            seed: 0xD2D_11CC,
            source_queue_cap: 64,
            deadlock_watchdog: 5_000,
            router: RouterModel::default(),
        }
    }

    /// Total per-hop pipeline cycles: the base router latency plus the
    /// model's extra crossbar stages. Every path that delays a traversing
    /// flit (serial, sharded replay, analytic zero-load) must use this.
    #[must_use]
    pub fn pipeline_cycles(&self) -> u64 {
        self.router_latency + self.router.crossbar_depth
    }

    /// Checks every field against the range the engine supports. The
    /// simulator constructors run it; callers that take a configuration
    /// from outside the process run it before building anything.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] naming the first bad field.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.vcs == 0 {
            return Err(SimError::InvalidConfig("vcs must be at least 1"));
        }
        if self.routing == RoutingKind::MinimalAdaptiveEscape && self.vcs < 2 {
            return Err(SimError::InvalidConfig(
                "adaptive routing with escape needs at least 2 VCs (VC 0 is the escape)",
            ));
        }
        if self.buffer_depth == 0 {
            return Err(SimError::InvalidConfig("buffer_depth must be at least 1"));
        }
        if self.packet_size == 0 {
            return Err(SimError::InvalidConfig("packet_size must be at least 1"));
        }
        if self.injection_latency == 0 {
            return Err(SimError::InvalidConfig("injection_latency must be at least 1"));
        }
        if self.endpoints_per_router == 0 {
            return Err(SimError::InvalidConfig("endpoints_per_router must be at least 1"));
        }
        if !(0.0..=1.0).contains(&self.injection_rate) {
            return Err(SimError::InvalidConfig("injection_rate must be within [0, 1]"));
        }
        if self.source_queue_cap == 0 {
            return Err(SimError::InvalidConfig("source_queue_cap must be at least 1"));
        }
        if self.router.bubble_escape && self.buffer_depth < 2 {
            return Err(SimError::InvalidConfig(
                "bubble flow control needs buffer_depth >= 2 (entry requires two free slots)",
            ));
        }
        // VC buffers and the event wheel's horizon are sized from these;
        // cap them so a typo cannot allocate an absurd amount of memory.
        if self.vcs > 64 {
            return Err(SimError::InvalidConfig("vcs must be at most 64"));
        }
        if self.buffer_depth > 256 {
            return Err(SimError::InvalidConfig("buffer_depth must be at most 256"));
        }
        if self.router.crossbar_depth > 256 {
            return Err(SimError::InvalidConfig("crossbar_depth must be at most 256"));
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Errors from simulator construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// Routing tables could not be built.
    Routing(RoutingError),
    /// A configuration field is invalid; the message names it.
    InvalidConfig(&'static str),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Routing(e) => write!(f, "routing: {e}"),
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Routing(e) => Some(e),
            SimError::InvalidConfig(_) => None,
        }
    }
}

impl From<RoutingError> for SimError {
    fn from(e: RoutingError) -> Self {
        SimError::Routing(e)
    }
}

/// Aggregated network statistics over the open measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkStats {
    /// Cycles elapsed since the window opened.
    pub window_cycles: u64,
    /// Packets offered by all sources (including refused ones).
    pub offered_packets: u64,
    /// Packets accepted into source queues.
    pub accepted_packets: u64,
    /// Flits delivered to destinations.
    pub received_flits: u64,
    /// Packets fully delivered.
    pub received_packets: u64,
    /// Packets measured for latency (created inside the window).
    pub measured_packets: u64,
    /// Mean packet latency over measured packets (`None` if none measured).
    pub avg_packet_latency: Option<f64>,
    /// Maximum measured packet latency.
    pub max_packet_latency: u64,
    /// Delivered throughput in flits/cycle/endpoint.
    pub accepted_flits_per_cycle_per_endpoint: f64,
    /// Offered load in flits/cycle/endpoint (from generation counters).
    pub offered_flits_per_cycle_per_endpoint: f64,
    /// Largest source-queue occupancy (flits) any endpoint reached inside
    /// the window — the congestion signal closed-loop runs watch.
    pub max_source_queue_flits: u64,
    /// Mean source-queue occupancy in flits, averaged over time and over
    /// endpoints (time-weighted integral / window / endpoints).
    pub avg_source_queue_flits: f64,
    /// Flits dropped inside the window because the link carrying (or about
    /// to carry) them died.
    pub link_fault_dropped_flits: u64,
    /// Flits dropped inside the window because a router — and with it its
    /// endpoints — died.
    pub router_fault_dropped_flits: u64,
    /// Distinct packets that lost at least one flit to a fault inside the
    /// window, including queued packets abandoned at a dead or
    /// partitioned-away source.
    pub fault_dropped_packets: u64,
    /// Packets re-offered by source retransmission inside the window.
    pub retransmitted_packets: u64,
    /// Packets whose generation was squelched inside the window because
    /// the sampled destination was dead or unreachable.
    pub squelched_packets: u64,
}

/// One delivered packet, reported through the delivery log
/// ([`Simulator::take_deliveries`]): closed-loop drivers use this to
/// resolve message dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Packet id (assigned at generation/offer time).
    pub packet: PacketId,
    /// Destination endpoint the tail flit arrived at.
    pub dest: usize,
    /// Cycle of tail-flit arrival.
    pub cycle: u64,
}

/// Physical properties of one directed router-to-router link, for
/// topologies with heterogeneous links (e.g. Kite-style express links that
/// are longer and narrower than neighbour links).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkSpec {
    /// One-way flit latency in cycles (PHY + wire + PHY).
    pub latency: u64,
    /// Serialization interval: the link sustains one flit every `interval`
    /// cycles (`1` = full bandwidth).
    pub interval: u64,
}

impl LinkSpec {
    /// A full-bandwidth link of the given latency.
    #[must_use]
    pub fn uniform(latency: u64) -> Self {
        Self { latency, interval: 1 }
    }
}

/// One end of a link: a router port or an endpoint.
#[derive(Debug, Clone, Copy)]
enum End {
    /// `(router, port)`.
    Router(u32, u32),
    /// An endpoint id.
    Endpoint(u32),
}

/// Sentinel for "this link's pushes stay local" in [`ShardRole::outbox`].
const NO_OUTBOX: u32 = u32::MAX;

/// Partition bookkeeping for one shard of a conservative parallel run
/// (see [`crate::shard::ShardedSimulator`]).
///
/// A shard is a full `Simulator` over the whole graph that *owns* the
/// contiguous router range `[first_router, last_router)` plus those
/// routers' endpoints. For a boundary link (src and dst owned by
/// different shards), the flit delay line lives in the **destination**
/// shard and the credit delay line in the **source** shard — whichever
/// side pops it. The pushing side intercepts its pushes into a per-link
/// outbox instead; the owning side replays them at the next window
/// barrier with the original push cycle, so the line's serialization
/// state (`last_delivery`) evolves exactly as in the serial run.
#[derive(Debug)]
struct ShardRole {
    /// Owned routers `[first_router, last_router)`.
    first_router: usize,
    last_router: usize,
    /// Per net link: its outbox slot, or [`NO_OUTBOX`]. Only owned routers
    /// push, so a slot is a flit outbox for an out link (owned source)
    /// and a credit outbox for an in link (owned destination).
    outbox: Vec<u32>,
    /// Outgoing boundary messages `(push_cycle, item)`, one buffer per
    /// intercepted line, preallocated to the window bound (a delay line
    /// takes at most one push per cycle).
    flit_outboxes: Vec<Vec<(u64, Flit)>>,
    credit_outboxes: Vec<Vec<(u64, Credit)>>,
    /// Boundary links from an owned to a foreign router, ascending: this
    /// shard pushes their flits into `flit_outboxes` (slot = position)
    /// and owns their credit lines.
    out_links: Vec<usize>,
    /// Boundary links from a foreign to an owned router, ascending: this
    /// shard pushes their credits into `credit_outboxes` (slot =
    /// position) and owns their flit lines.
    in_links: Vec<usize>,
}

impl ShardRole {
    /// Heap bytes of the boxed role, its outboxes included.
    fn heap_bytes(&self) -> usize {
        let flits: usize = self.flit_outboxes.iter().map(HeapBytes::heap_bytes).sum();
        let credits: usize = self.credit_outboxes.iter().map(HeapBytes::heap_bytes).sum();
        size_of::<Self>()
            + self.outbox.heap_bytes()
            + self.flit_outboxes.heap_bytes()
            + flits
            + self.credit_outboxes.heap_bytes()
            + credits
            + self.out_links.heap_bytes()
            + self.in_links.heap_bytes()
    }
}

/// Number of exact one-cycle buckets in a simulator's latency histogram;
/// longer latencies share the last bucket.
pub const LATENCY_HISTOGRAM_BUCKETS: usize = 4096;

/// Raw measurement-window sums. Integer counters only, so cross-shard
/// aggregation is order-independent and the final float arithmetic
/// ([`stats_from_sums`]) is bit-identical to the serial path.
///
/// A simulator keeps one, counted in place where each event happens and
/// reset by [`Simulator::open_measurement_window`]. Packet and latency
/// counters count inside the window only, fault counters since the last
/// reset. The source-queue fields stay zero there: they are per-queue
/// state that [`Simulator::window_sums`] folds in from the endpoints.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WindowSums {
    pub(crate) offered_packets: u64,
    pub(crate) accepted_packets: u64,
    pub(crate) received_flits: u64,
    pub(crate) received_packets: u64,
    pub(crate) measured: u64,
    pub(crate) latency_sum: u64,
    pub(crate) latency_max: u64,
    pub(crate) queue_max: u64,
    pub(crate) queue_integral: u64,
    pub(crate) link_fault_dropped_flits: u64,
    pub(crate) router_fault_dropped_flits: u64,
    pub(crate) fault_dropped_packets: u64,
    pub(crate) retransmitted_packets: u64,
    pub(crate) squelched_packets: u64,
}

impl WindowSums {
    pub(crate) fn merge(&mut self, o: &WindowSums) {
        self.offered_packets += o.offered_packets;
        self.accepted_packets += o.accepted_packets;
        self.received_flits += o.received_flits;
        self.received_packets += o.received_packets;
        self.measured += o.measured;
        self.latency_sum += o.latency_sum;
        self.latency_max = self.latency_max.max(o.latency_max);
        self.queue_max = self.queue_max.max(o.queue_max);
        self.queue_integral += o.queue_integral;
        self.link_fault_dropped_flits += o.link_fault_dropped_flits;
        self.router_fault_dropped_flits += o.router_fault_dropped_flits;
        self.fault_dropped_packets += o.fault_dropped_packets;
        self.retransmitted_packets += o.retransmitted_packets;
        self.squelched_packets += o.squelched_packets;
    }
}

/// The one place window sums become [`NetworkStats`] — shared by the
/// serial and sharded paths so both produce bit-identical floats.
pub(crate) fn stats_from_sums(
    sums: &WindowSums,
    window_cycles: u64,
    num_endpoints: usize,
    packet_size: usize,
) -> NetworkStats {
    let denom = (window_cycles.max(1) as f64) * num_endpoints as f64;
    NetworkStats {
        window_cycles,
        offered_packets: sums.offered_packets,
        accepted_packets: sums.accepted_packets,
        received_flits: sums.received_flits,
        received_packets: sums.received_packets,
        measured_packets: sums.measured,
        avg_packet_latency: (sums.measured > 0)
            .then(|| sums.latency_sum as f64 / sums.measured as f64),
        max_packet_latency: sums.latency_max,
        accepted_flits_per_cycle_per_endpoint: sums.received_flits as f64 / denom,
        offered_flits_per_cycle_per_endpoint: (sums.offered_packets * packet_size as u64)
            as f64
            / denom,
        max_source_queue_flits: sums.queue_max,
        avg_source_queue_flits: sums.queue_integral as f64 / denom,
        link_fault_dropped_flits: sums.link_fault_dropped_flits,
        router_fault_dropped_flits: sums.router_fault_dropped_flits,
        fault_dropped_packets: sums.fault_dropped_packets,
        retransmitted_packets: sums.retransmitted_packets,
        squelched_packets: sums.squelched_packets,
    }
}

/// Percentile sweep over a latency histogram (one simulator's, or the sum
/// of a sharded run's) — the algorithm of
/// [`Simulator::latency_percentiles`], shared with the sharded path.
///
/// # Panics
///
/// Panics if any `p` is outside `(0, 1]`.
pub(crate) fn percentiles_from_histogram(ps: &[f64], merged: &[u64]) -> Vec<Option<f64>> {
    for &p in ps {
        assert!(p > 0.0 && p <= 1.0, "percentile must be in (0, 1]");
    }
    let total: u64 = merged.iter().sum();
    let mut out = vec![None; ps.len()];
    if total == 0 || ps.is_empty() {
        return out;
    }
    // One cumulative sweep serves every requested percentile in
    // ascending target order.
    let mut order: Vec<usize> = (0..ps.len()).collect();
    order.sort_by(|&a, &b| ps[a].total_cmp(&ps[b]));
    let mut k = 0;
    let mut seen = 0u64;
    for (latency, &count) in merged.iter().enumerate() {
        seen += count;
        while k < order.len() {
            let idx = order[k];
            let target = (ps[idx] * total as f64).ceil() as u64;
            if seen < target {
                break;
            }
            out[idx] = Some(latency as f64);
            k += 1;
        }
        if k == order.len() {
            break;
        }
    }
    // p == 1.0 rounding can leave a straggler: saturate into the top
    // bucket, matching the single-percentile behaviour.
    for &idx in &order[k..] {
        out[idx] = Some((merged.len() - 1) as f64);
    }
    out
}

/// A source-retransmission record: everything needed to re-offer a packet
/// after its flits were dropped by a fault.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    src: u32,
    dest: u32,
    size: u32,
    /// Original creation cycle — preserved across retransmissions so
    /// eventual-delivery latency samples include the loss and backoff time.
    created_at: u64,
    /// Retransmissions scheduled so far (the initial send is not counted).
    attempt: u32,
}

/// All state behind [`Simulator::install_fault_plan`]. Boxed behind an
/// `Option` so the unfaulted common case pays one branch, not cache space.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    /// Next unapplied event index into `plan.schedule.events()`.
    cursor: usize,
    /// Reconstructed router graph — [`RoutingTables::new_degraded`] needs
    /// the adjacency to rebuild tables over the surviving topology.
    graph: Graph,
    /// Dead links, by index into `Simulator::links`: both directions of a
    /// net link die together, and a router's endpoint links die with it.
    dead_link: Vec<bool>,
    /// Dead routers; their endpoints die with them. Everything else asks
    /// the degraded tables, which mark every pair involving a dead router
    /// unreachable.
    dead_router: Vec<bool>,
    /// Undelivered packets eligible for retransmission, by id. Empty when
    /// the plan has no [`crate::RetransmitConfig`].
    outstanding: HashMap<PacketId, Outstanding>,
    /// Pending re-offers: min-heap of `(due_cycle, source_endpoint,
    /// packet)` — the tuple order makes same-cycle processing
    /// deterministic.
    retx_heap: BinaryHeap<Reverse<(u64, u32, PacketId)>>,
}

impl FaultState {
    /// Heap bytes of the boxed state (its hash map estimated).
    fn heap_bytes(&self) -> usize {
        size_of::<Self>()
            + self.plan.heap_bytes()
            + self.graph.heap_bytes()
            + self.dead_link.heap_bytes()
            + self.dead_router.heap_bytes()
            + self.outstanding.heap_bytes()
            + self.retx_heap.heap_bytes()
    }

    /// The one retransmission rule: gives outstanding packet `p` up once
    /// its attempts are spent, else schedules another re-offer after the
    /// exponential backoff.
    fn retry_later(&mut self, t: u64, p: PacketId) {
        let cfg = self.plan.retransmit.expect("outstanding packets imply a retransmit config");
        let entry = self.outstanding.get_mut(&p).expect("packet is outstanding");
        if entry.attempt + 1 >= cfg.max_attempts {
            self.outstanding.remove(&p);
        } else {
            let delay = cfg.backoff(entry.attempt).max(1);
            entry.attempt += 1;
            self.retx_heap.push(Reverse((t.saturating_add(delay), entry.src, p)));
        }
    }
}

/// A cycle-accurate NoC simulator over an arbitrary router graph.
///
/// # Example
///
/// ```
/// use chiplet_graph::gen;
/// use nocsim::{SimConfig, Simulator};
///
/// let g = gen::grid(3, 3);
/// let mut config = SimConfig::paper_defaults();
/// config.injection_rate = 0.05;
/// let mut sim = Simulator::new(&g, config)?;
/// let stats = sim.run_to_window(2_000, 4_000);
/// assert!(stats.received_packets > 0);
/// # Ok::<(), nocsim::SimError>(())
/// ```
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
    /// Shared by every shard of a sharded run; a fault swaps in this
    /// simulator's own degraded tables.
    tables: Arc<RoutingTables>,
    routers: Vec<Router>,
    endpoints: Vec<Endpoint>,
    /// Every link: the `N` directed router-to-router (net) links first,
    /// then endpoint `e`'s injection link at `N + 2e` and its ejection
    /// link at `N + 2e + 1`.
    links: Vec<Link>,
    /// `link_src[l]`: the end feeding flits into link `l`, which its
    /// credits return to.
    link_src: Vec<End>,
    /// `link_dst[l]`: the end receiving flits of link `l`.
    link_dst: Vec<End>,
    /// `link_out[r][p] = l`: link fed by output port `p` of router `r`.
    link_out: Vec<Vec<usize>>,
    /// `link_in[r][p] = l`: link feeding input port `p` of router `r`.
    link_in: Vec<Vec<usize>>,
    /// Flits that traversed each net link (since construction); its length
    /// is `N`.
    link_flit_counts: Vec<u64>,
    cycle: u64,
    /// Cycle the measurement window opened (`u64::MAX` before the first).
    window_start: u64,
    /// This simulator's measurement-window counters, updated in place.
    window: WindowSums,
    /// Measured packet latencies: bucket `i` counts latencies of exactly
    /// `i` cycles, the last bucket everything longer. Allocated once at
    /// construction, zeroed when a window opens.
    latency_histogram: Vec<u64>,
    last_progress: u64,
    /// Set by [`Simulator::drain`]: endpoints stop generating traffic while
    /// the configured injection rate stays untouched in `config`.
    generation_stopped: bool,
    /// Flits inside the network (router buffers + links in flight),
    /// maintained incrementally: +1 per injected flit, −1 per ejected one.
    in_flight: usize,
    /// Bucketed event wheel for delay lines, keyed on due cycle.
    /// Invariant: every non-empty delay line has exactly one entry, keyed
    /// on its `next_due`; empty lines have none (an entry is consumed when
    /// its deliveries are processed and re-armed from the new front).
    line_events: EventWheel,
    /// Reused drain buffer for the wheel's due slot.
    wheel_scratch: Vec<u32>,
    /// Scheduled packet generations: min-heap of `(arrival_cycle,
    /// endpoint)`, one entry per endpoint with a pending arrival.
    arrival_events: BinaryHeap<Reverse<(u64, u32)>>,
    /// Routers holding buffered flits — the only ones whose allocation
    /// phases can do anything. `router_active` mirrors membership.
    active_routers: Vec<u32>,
    router_active: Vec<bool>,
    /// Endpoints with a non-empty source queue — the only ones whose
    /// injection can do anything. `endpoint_injecting` mirrors membership.
    inject_list: Vec<u32>,
    endpoint_injecting: Vec<bool>,
    /// Reusable out-param buffers for [`Router::allocate_switch`].
    sent_scratch: Vec<SentFlit>,
    credit_scratch: Vec<SentCredit>,
    /// Forced poll-every-cycle stepping (the golden-test reference path).
    reference_stepping: bool,
    /// Sharding role when this simulator is one shard of a
    /// [`crate::shard::ShardedSimulator`] (`None` for a whole-network
    /// simulator — the common case, costing one branch per sent flit).
    shard: Option<Box<ShardRole>>,
    /// When enabled, tail-flit arrivals are appended here until drained by
    /// [`Simulator::take_deliveries`]. Preallocated to one delivery per
    /// endpoint — the per-cycle bound, which is also the log's high-water
    /// mark when the caller drains at delivery granularity
    /// ([`Simulator::run_until_deliveries`]).
    delivery_log: Vec<Delivery>,
    log_deliveries: bool,
    /// Fault-injection state ([`Simulator::install_fault_plan`]); `None`
    /// in the common unfaulted case.
    faults: Option<Box<FaultState>>,
    /// Observability probe state ([`Simulator::attach_probe`]); `None` —
    /// the default — costs one branch per `run` iteration.
    obs: Option<Box<ObsState>>,
}

// The experiment engine (`crates/xp`) moves simulators onto worker
// threads; this assertion turns an accidental `!Send` field into a compile
// error here rather than a confusing one at a spawn site.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Simulator>();
};

impl Simulator {
    /// Builds a simulator for the router graph `g`.
    ///
    /// # Errors
    ///
    /// * [`SimError::Routing`] if `g` is empty or disconnected,
    /// * [`SimError::InvalidConfig`] for out-of-range parameters (zero VCs or
    ///   buffers, adaptive routing with fewer than 2 VCs, injection rate
    ///   outside `[0, 1]`, …; see [`SimConfig::validate`]).
    pub fn new(g: &Graph, config: SimConfig) -> Result<Self, SimError> {
        let latency = config.link_latency;
        Self::with_link_specs(g, config, |_, _| LinkSpec::uniform(latency))
    }

    /// Builds a simulator whose router-to-router links have per-link latency
    /// and serialization interval, supplied by `spec` for each directed link
    /// `(src, dst)`. `config.link_latency` is ignored for net links (it
    /// still applies to injection/ejection links).
    ///
    /// Use this for topologies with physically heterogeneous links: longer
    /// express links run at lower frequency, so they both take more cycles
    /// to cross and sustain fewer flits per router cycle.
    ///
    /// # Errors
    ///
    /// As [`Simulator::new`], plus [`SimError::InvalidConfig`] if any spec
    /// has a zero latency or interval.
    pub fn with_link_specs(
        g: &Graph,
        config: SimConfig,
        spec: impl Fn(RouterId, RouterId) -> LinkSpec,
    ) -> Result<Self, SimError> {
        let tables = Self::checked_tables(g, &config)?;
        Self::build(g, config, spec, tables, None)
    }

    /// Validates `config`, then builds its routing tables over `g`: every
    /// constructor's first two checks, in this order. The shards of one
    /// sharded run share the result.
    pub(crate) fn checked_tables(
        g: &Graph,
        config: &SimConfig,
    ) -> Result<Arc<RoutingTables>, SimError> {
        config.validate()?;
        Ok(Arc::new(RoutingTables::new(g, config.routing)?))
    }

    /// Builds one shard of a conservative parallel run: a full simulator
    /// owning routers `[first, last)` and their endpoints. Non-owned
    /// endpoints never generate traffic; pushes onto boundary lines whose
    /// pop side is foreign are intercepted into outboxes of capacity
    /// `outbox_capacity` (the window length — at most one push per cycle
    /// per line, so a barrier every window keeps them in bounds). `tables`
    /// come from [`Simulator::checked_tables`] over the same `g` and
    /// `config`.
    pub(crate) fn new_shard(
        g: &Graph,
        config: SimConfig,
        spec: impl Fn(RouterId, RouterId) -> LinkSpec,
        tables: Arc<RoutingTables>,
        owned: (usize, usize),
        outbox_capacity: usize,
    ) -> Result<Self, SimError> {
        Self::build(g, config, spec, tables, Some((owned, outbox_capacity)))
    }

    fn build(
        g: &Graph,
        config: SimConfig,
        spec: impl Fn(RouterId, RouterId) -> LinkSpec,
        tables: Arc<RoutingTables>,
        shard: Option<((usize, usize), usize)>,
    ) -> Result<Self, SimError> {
        let n = g.num_vertices();
        let params = RouterParams {
            vcs: config.vcs,
            buffer_depth: config.buffer_depth,
            model: config.router,
            seed: config.seed,
        };

        let epr = config.endpoints_per_router;
        let num_endpoints = n.saturating_mul(epr);
        let num_net_links = 2 * g.num_edges();
        let num_links = num_net_links.saturating_add(num_endpoints.saturating_mul(2));
        // Endpoints, and the event wheel's two delay lines per link, are
        // keyed by `u32`, with `u32::MAX` kept as the wheel's sentinel.
        if num_links >= (u32::MAX / 2) as usize {
            return Err(SimError::InvalidConfig(
                "the network has too many links and endpoints for 32-bit ids",
            ));
        }
        let mut routers = Vec::with_capacity(n);
        let mut links = Vec::with_capacity(num_links);
        let mut link_src = Vec::with_capacity(num_links);
        let mut link_dst = Vec::with_capacity(num_links);
        let mut max_latency = config.injection_latency;
        let mut max_interval = 1;
        for r in 0..n {
            let neighbors = g.neighbors(r);
            routers.push(Router::new(r, neighbors.len(), epr, params));
            for (out_port, &u) in neighbors.iter().enumerate() {
                let s = spec(r, u);
                if s.latency == 0 || s.interval == 0 {
                    return Err(SimError::InvalidConfig(
                        "link specs need latency >= 1 and interval >= 1",
                    ));
                }
                max_latency = max_latency.max(s.latency);
                max_interval = max_interval.max(s.interval);
                links.push(Link::with_interval(s.latency, s.interval));
                let in_port = g.neighbors(u).binary_search(&r).expect("symmetric adjacency");
                link_src.push(End::Router(r as u32, out_port as u32));
                link_dst.push(End::Router(u as u32, in_port as u32));
            }
        }
        debug_assert_eq!(links.len(), num_net_links, "one net link per edge direction");
        for e in 0..num_endpoints {
            let router =
                End::Router((e / epr) as u32, routers[e / epr].endpoint_port(e % epr) as u32);
            let endpoint = End::Endpoint(e as u32);
            for (src, dst) in [(endpoint, router), (router, endpoint)] {
                links.push(Link::new(config.injection_latency));
                link_src.push(src);
                link_dst.push(dst);
            }
        }
        let mut link_out: Vec<Vec<usize>> =
            routers.iter().map(|router| vec![usize::MAX; router.num_ports()]).collect();
        let mut link_in = link_out.clone();
        for l in 0..num_links {
            if let End::Router(r, port) = link_src[l] {
                link_out[r as usize][port as usize] = l;
            }
            if let End::Router(r, port) = link_dst[l] {
                link_in[r as usize][port as usize] = l;
            }
        }

        let max_ports = routers.iter().map(Router::num_ports).max().unwrap_or(1);
        let endpoints = (0..num_endpoints)
            .map(|e| {
                Endpoint::new(
                    e,
                    num_endpoints,
                    config.vcs,
                    config.buffer_depth,
                    config.source_queue_cap,
                    config.packet_size,
                    config.seed,
                )
            })
            .collect();

        let mut sim = Self {
            config,
            tables,
            routers,
            endpoints,
            links,
            link_src,
            link_dst,
            link_out,
            link_in,
            link_flit_counts: vec![0; num_net_links],
            cycle: 0,
            window_start: u64::MAX,
            window: WindowSums::default(),
            latency_histogram: vec![0; LATENCY_HISTOGRAM_BUCKETS],
            last_progress: 0,
            generation_stopped: false,
            in_flight: 0,
            // Scheduling distance is bounded by latency + pipeline (or the
            // serialization interval), so this horizon always fits.
            line_events: EventWheel::new(
                config.pipeline_cycles() + max_latency + max_interval + 2,
                2 * num_links,
            ),
            wheel_scratch: Vec::with_capacity(2 * num_links),
            arrival_events: BinaryHeap::with_capacity(num_endpoints + 1),
            active_routers: Vec::with_capacity(n),
            router_active: vec![false; n],
            inject_list: Vec::with_capacity(num_endpoints),
            endpoint_injecting: vec![false; num_endpoints],
            sent_scratch: Vec::with_capacity(max_ports),
            credit_scratch: Vec::with_capacity(max_ports),
            reference_stepping: false,
            shard: None,
            delivery_log: Vec::with_capacity(num_endpoints),
            log_deliveries: false,
            faults: None,
            obs: None,
        };
        if let Some(((first, last), cap)) = shard {
            assert!(first < last && last <= n, "shard range out of bounds");
            let mut role = ShardRole {
                first_router: first,
                last_router: last,
                outbox: vec![NO_OUTBOX; num_net_links],
                flit_outboxes: Vec::new(),
                credit_outboxes: Vec::new(),
                out_links: Vec::new(),
                in_links: Vec::new(),
            };
            let owned = first..last;
            for l in 0..num_net_links {
                let (src, dst) = sim.net_link_ends(l);
                match (owned.contains(&src), owned.contains(&dst)) {
                    // We feed the link but its flit line is popped by the
                    // destination's shard; credits come back to us.
                    (true, false) => {
                        role.outbox[l] =
                            u32::try_from(role.out_links.len()).expect("outbox count fits u32");
                        role.flit_outboxes.push(Vec::with_capacity(cap));
                        role.out_links.push(l);
                    }
                    // We pop the flit line; the credits we push back are
                    // popped by the source's shard.
                    (false, true) => {
                        role.outbox[l] =
                            u32::try_from(role.in_links.len()).expect("outbox count fits u32");
                        role.credit_outboxes.push(Vec::with_capacity(cap));
                        role.in_links.push(l);
                    }
                    _ => {}
                }
            }
            sim.shard = Some(Box::new(role));
        }
        let process = sim.injection_process();
        // Only owned endpoints ever generate traffic; foreign ones stay
        // idle forever (their routers are serviced by another shard).
        for e in sim.owned_endpoints() {
            sim.endpoints[e].schedule_arrival(0, process);
        }
        sim.reserve_stepped();
        sim.rebuild_event_state();
        Ok(sim)
    }

    /// The routers this simulator steps: all of them, or a shard's range.
    fn owned_routers(&self) -> std::ops::Range<usize> {
        self.shard.as_deref().map_or(0..self.routers.len(), |r| r.first_router..r.last_router)
    }

    /// The endpoints this simulator steps: those of its routers.
    fn owned_endpoints(&self) -> std::ops::Range<usize> {
        let (routers, epr) = (self.owned_routers(), self.config.endpoints_per_router);
        routers.start * epr..routers.end * epr
    }

    /// The one reservation pass: sizes every buffer this simulator steps
    /// to its occupancy bound at construction, which keeps the hot path
    /// allocation-free from cycle 0. A delay line is reserved by the
    /// simulator that pops it (a flit line by its destination's owner, a
    /// credit line by its source's owner) to [`line_bound`], and input VCs
    /// and source queues only for owned routers and endpoints. A shard
    /// leaves everything it does not step at zero capacity. No decision
    /// reads a capacity, so sizing changes no result.
    fn reserve_stepped(&mut self) {
        let owned = self.owned_routers();
        let epr = self.config.endpoints_per_router;
        let owns = |end: End| match end {
            End::Router(r, _) => owned.contains(&(r as usize)),
            End::Endpoint(e) => owned.contains(&(e as usize / epr)),
        };
        let credit_bound = self.config.vcs * self.config.buffer_depth;
        let pipeline = self.config.pipeline_cycles();
        for (l, link) in self.links.iter_mut().enumerate() {
            if owns(self.link_dst[l]) {
                // Routers delay what they send by their pipeline; an
                // endpoint injects straight onto the wire.
                let extra = match self.link_src[l] {
                    End::Router(..) => pipeline,
                    End::Endpoint(_) => 0,
                };
                link.flits.reserve(line_bound(&link.flits, extra, credit_bound));
            }
            if owns(self.link_src[l]) {
                link.credits.reserve(line_bound(&link.credits, 0, credit_bound));
            }
        }
        for r in owned {
            self.routers[r].reserve_buffers();
        }
        for e in self.owned_endpoints() {
            self.endpoints[e].reserve_source_queue();
        }
    }

    /// Heap bytes this simulator holds: a walk over the capacities of its
    /// routers, links, endpoints, event wheel, scratch buffers, shard,
    /// fault and probe state, and its routing tables. A counting allocator
    /// agrees with it (`tests/alloc_footprint.rs`); only a fault plan's
    /// packet map is estimated.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.heap_bytes_without_tables() + tables_heap_bytes(&self.tables)
    }

    /// [`Simulator::heap_bytes`] less the routing tables, which the shards
    /// of one run share.
    pub(crate) fn heap_bytes_without_tables(&self) -> usize {
        let routers: usize = self.routers.iter().map(Router::heap_bytes).sum();
        let endpoints: usize = self.endpoints.iter().map(Endpoint::heap_bytes).sum();
        let lines: usize =
            self.links.iter().map(|l| l.flits.heap_bytes() + l.credits.heap_bytes()).sum();
        let ports: usize =
            self.link_out.iter().chain(&self.link_in).map(HeapBytes::heap_bytes).sum();
        let obs = self.obs.as_deref().map_or(0, |o| {
            size_of::<ObsState>() + o.windows.heap_bytes() + o.prev_links.heap_bytes()
        });
        self.routers.heap_bytes()
            + routers
            + self.endpoints.heap_bytes()
            + endpoints
            + self.links.heap_bytes()
            + lines
            + self.link_src.heap_bytes()
            + self.link_dst.heap_bytes()
            + self.link_out.heap_bytes()
            + self.link_in.heap_bytes()
            + ports
            + self.link_flit_counts.heap_bytes()
            + self.latency_histogram.heap_bytes()
            + self.line_events.slot_head.heap_bytes()
            + self.line_events.next.heap_bytes()
            + self.wheel_scratch.heap_bytes()
            + self.arrival_events.heap_bytes()
            + self.active_routers.heap_bytes()
            + self.router_active.heap_bytes()
            + self.inject_list.heap_bytes()
            + self.endpoint_injecting.heap_bytes()
            + self.sent_scratch.heap_bytes()
            + self.credit_scratch.heap_bytes()
            + self.delivery_log.heap_bytes()
            + self.shard.as_deref().map_or(0, ShardRole::heap_bytes)
            + self.faults.as_deref().map_or(0, FaultState::heap_bytes)
            + obs
    }

    /// The routing tables in use (shared by a sharded run's shards until
    /// a fault swaps in a shard's own).
    pub(crate) fn routing_tables(&self) -> &Arc<RoutingTables> {
        &self.tables
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of endpoints.
    #[must_use]
    pub fn num_endpoints(&self) -> usize {
        self.endpoints.len()
    }

    /// Opens the measurement window at the current cycle. Allocates
    /// nothing: the counters and the latency histogram are reset in place.
    pub fn open_measurement_window(&mut self) {
        self.window_start = self.cycle;
        self.window = WindowSums::default();
        self.latency_histogram.fill(0);
        for e in &mut self.endpoints {
            e.open_window(self.cycle);
        }
        // The window counters just reset; re-zero the probe's delta
        // snapshot so the next window's deltas stay exact. Stall and link
        // counters are never reset, so their snapshots stand.
        if let Some(o) = self.obs.as_deref_mut() {
            o.prev = WindowSums::default();
        }
    }

    /// The injection process implied by the configuration.
    fn injection_process(&self) -> InjectionProcess {
        InjectionProcess {
            rate: self.config.injection_rate,
            packet_size: self.config.packet_size,
            kind: self.config.process,
        }
    }

    /// Forces (or lifts) poll-every-cycle stepping: the reference path
    /// visits every link, router, and endpoint each cycle instead of
    /// consulting the event wheel and active sets. Both paths drive the
    /// same component operations, so statistics are bit-identical — the
    /// golden-equivalence tests rely on exactly this switch.
    ///
    /// Switching back to event-driven stepping rebuilds the event wheel
    /// and active sets from the network state (the reference path does not
    /// maintain them).
    pub fn set_reference_stepping(&mut self, on: bool) {
        if self.reference_stepping == on {
            return;
        }
        self.reference_stepping = on;
        if !on {
            self.rebuild_event_state();
        }
    }

    /// Rebuilds the event wheel and active sets from scratch (used at
    /// construction and when leaving reference stepping).
    fn rebuild_event_state(&mut self) {
        self.line_events.clear();
        self.arrival_events.clear();
        self.active_routers.clear();
        self.router_active.fill(false);
        self.inject_list.clear();
        self.endpoint_injecting.fill(false);
        for (l, link) in self.links.iter().enumerate() {
            arm_line(&mut self.line_events, &link.flits, flit_line(l));
            arm_line(&mut self.line_events, &link.credits, credit_line(l));
        }
        for r in 0..self.routers.len() {
            if self.routers[r].has_buffered() {
                self.router_active[r] = true;
                self.active_routers.push(r as u32);
            }
        }
        for e in 0..self.endpoints.len() {
            if !self.generation_stopped && self.endpoints[e].next_arrival() != IDLE {
                self.arrival_events.push(Reverse((self.endpoints[e].next_arrival(), e as u32)));
            }
            if !self.endpoints[e].is_drained() {
                self.endpoint_injecting[e] = true;
                self.inject_list.push(e as u32);
            }
        }
    }

    /// Puts `r` on the active worklist (no-op while reference stepping —
    /// the reference path services every buffered router anyway).
    fn activate_router(&mut self, r: usize) {
        if !self.reference_stepping && !self.router_active[r] {
            self.router_active[r] = true;
            self.active_routers.push(r as u32);
        }
    }

    /// Puts endpoint `e` on the injection worklist (no-op while reference
    /// stepping, which polls every endpoint anyway).
    fn activate_endpoint(&mut self, e: usize) {
        if !self.reference_stepping && !self.endpoint_injecting[e] {
            self.endpoint_injecting[e] = true;
            self.inject_list.push(e as u32);
        }
    }

    // ── Delivery (shared by both stepping paths) ────────────────────────
    //
    // Each pops everything due at `t` from one line of link `l` and
    // dispatches it; in event mode the caller's wheel entry is consumed
    // and the line is re-armed here from its new front.

    fn deliver_flits(&mut self, t: u64, l: usize) {
        let (r, port) = match self.link_dst[l] {
            End::Router(r, port) => (r as usize, port as usize),
            End::Endpoint(e) => return self.eject_flits(t, l, e as usize),
        };
        while let Some(flit) = self.links[l].flits.pop_due(t) {
            self.routers[r].receive_flit(port, flit);
            self.activate_router(r);
            self.last_progress = t;
        }
        if !self.reference_stepping {
            arm_line(&mut self.line_events, &self.links[l].flits, flit_line(l));
        }
    }

    /// Sinks the flits due at endpoint `e` from its ejection link `l`:
    /// endpoints consume immediately (infinite ejection bandwidth at the
    /// terminal, as in BookSim2). A tail delivers its packet, whose latency
    /// is measured when the packet was created inside the window.
    fn eject_flits(&mut self, t: u64, l: usize, e: usize) {
        let event = !self.reference_stepping;
        while let Some(flit) = self.links[l].flits.pop_due(t) {
            debug_assert_eq!(flit.dest as usize, e, "flit delivered to wrong endpoint");
            self.in_flight -= 1;
            let counted = u64::from(t >= self.window_start);
            self.window.received_flits += counted;
            if flit.is_tail {
                self.window.received_packets += counted;
                if flit.created_at >= self.window_start {
                    let latency = t - flit.created_at;
                    self.window.measured += 1;
                    self.window.latency_sum += latency;
                    self.window.latency_max = self.window.latency_max.max(latency);
                    let bucket = (latency as usize).min(LATENCY_HISTOGRAM_BUCKETS - 1);
                    self.latency_histogram[bucket] += 1;
                }
                if self.log_deliveries {
                    self.delivery_log.push(Delivery { packet: flit.packet, dest: e, cycle: t });
                }
                // Delivered: the packet no longer needs retransmission
                // cover (no-op unless a retransmitting fault plan is
                // installed — the map stays empty otherwise).
                if let Some(f) = self.faults.as_deref_mut() {
                    f.outstanding.remove(&flit.packet);
                }
            }
            // Endpoint consumes immediately; return the buffer slot.
            push_line(
                &mut self.links[l].credits,
                event.then(|| (&mut self.line_events, credit_line(l))),
                t,
                0,
                Credit { vc: usize::from(flit.vc) },
            );
            self.last_progress = t;
        }
        if event {
            arm_line(&mut self.line_events, &self.links[l].flits, flit_line(l));
        }
    }

    fn deliver_credits(&mut self, t: u64, l: usize) {
        while let Some(credit) = self.links[l].credits.pop_due(t) {
            match self.link_src[l] {
                End::Router(r, port) => {
                    self.routers[r as usize].receive_credit(port as usize, credit);
                }
                End::Endpoint(e) => self.endpoints[e as usize].receive_credit(credit.vc),
            }
        }
        if !self.reference_stepping {
            arm_line(&mut self.line_events, &self.links[l].credits, credit_line(l));
        }
    }

    /// Decodes and processes one event-wheel entry.
    fn dispatch_line_event(&mut self, t: u64, id: u32) {
        let l = (id / 2) as usize;
        if id.is_multiple_of(2) {
            self.deliver_flits(t, l);
        } else {
            self.deliver_credits(t, l);
        }
    }

    /// Runs both allocation phases for router `r` and routes its outputs
    /// onto the links. Allocation-free in steady state: the router reuses
    /// its own nomination/grant scratch and the simulator's `sent`/`credit`
    /// buffers are recycled across calls.
    fn service_router(&mut self, t: u64, r: usize) {
        let epr = self.config.endpoints_per_router;
        let ctx = RouteContext { tables: &self.tables, endpoints_per_router: epr };
        self.routers[r].allocate_vcs(ctx);
        let mut sent = std::mem::take(&mut self.sent_scratch);
        let mut credits = std::mem::take(&mut self.credit_scratch);
        self.routers[r].allocate_switch(&mut sent, &mut credits);
        if !sent.is_empty() {
            self.last_progress = t;
        }
        let pipeline = self.config.pipeline_cycles();
        let num_net_ports = self.routers[r].num_net_ports();
        let event = !self.reference_stepping;
        for &SentFlit { out_port, flit } in &sent {
            let l = self.link_out[r][out_port];
            if out_port < num_net_ports {
                self.link_flit_counts[l] += 1;
                if let Some(role) = self.shard.as_deref_mut() {
                    let slot = role.outbox[l];
                    if slot != NO_OUTBOX {
                        // Boundary link: the flit line lives in the
                        // destination's shard. Record the push for the
                        // next window barrier; the flit leaves this
                        // shard's in-flight accounting now and enters the
                        // receiver's when the message is applied.
                        role.flit_outboxes[slot as usize].push((t, flit));
                        self.in_flight -= 1;
                        continue;
                    }
                }
            }
            push_line(
                &mut self.links[l].flits,
                event.then(|| (&mut self.line_events, flit_line(l))),
                t,
                pipeline,
                flit,
            );
        }
        for &SentCredit { in_port, credit } in &credits {
            let l = self.link_in[r][in_port];
            if in_port < num_net_ports {
                if let Some(role) = self.shard.as_deref_mut() {
                    let slot = role.outbox[l];
                    if slot != NO_OUTBOX {
                        // Boundary link: the credit line lives in the
                        // source's shard; hand the push over at the next
                        // window barrier.
                        role.credit_outboxes[slot as usize].push((t, credit));
                        continue;
                    }
                }
            }
            push_line(
                &mut self.links[l].credits,
                event.then(|| (&mut self.line_events, credit_line(l))),
                t,
                0,
                credit,
            );
        }
        self.sent_scratch = sent;
        self.credit_scratch = credits;
    }

    /// Fires endpoint `e`'s scheduled packet generation at `t` and
    /// re-arms its next arrival.
    fn generate_endpoint(&mut self, t: u64, e: usize) {
        let process = self.injection_process();
        self.window.offered_packets += u64::from(t >= self.window_start);
        // With a fault plan installed the RNG draws stay identical, but
        // destinations that are dead or partitioned away are squelched
        // instead of enqueued: sources on a severed island go quiet rather
        // than wedging the drain watchdog.
        let faulted = self.faults.is_some();
        let tables = &self.tables;
        let epr = self.config.endpoints_per_router;
        match self.endpoints[e].generate_due(t, process, self.config.pattern, |dest| {
            !faulted || tables.reachable(e / epr, dest / epr)
        }) {
            Generated::Accepted { id, dest, size } => self.accept_packet(t, e, id, dest, size),
            Generated::Squelched => self.window.squelched_packets += 1,
            Generated::Refused => {} // source queue full: the network is saturated
        }
        let next = self.endpoints[e].next_arrival();
        if !self.reference_stepping && next != IDLE {
            self.arrival_events.push(Reverse((next, e as u32)));
        }
    }

    /// Books a packet `src` has just enqueued: counts it accepted inside
    /// the window, registers it for retransmission when the fault plan
    /// retransmits, and puts `src` on the injection worklist.
    fn accept_packet(&mut self, t: u64, src: usize, id: PacketId, dest: usize, size: usize) {
        self.window.accepted_packets += u64::from(t >= self.window_start);
        if let Some(f) = self.faults.as_deref_mut() {
            if f.plan.retransmit.is_some() {
                let entry = Outstanding {
                    src: src as u32,
                    dest: dest as u32,
                    size: size as u32,
                    created_at: t,
                    attempt: 0,
                };
                let prev = f.outstanding.insert(id, entry);
                debug_assert!(prev.is_none(), "packet id reused");
            }
        }
        self.activate_endpoint(src);
    }

    /// Attempts one flit injection for endpoint `e` at `t`.
    fn try_inject_endpoint(&mut self, t: u64, e: usize) {
        if let Some(flit) = self.endpoints[e].try_inject(t) {
            // Endpoint links follow the `N` net links that
            // `link_flit_counts` covers.
            let l = self.link_flit_counts.len() + 2 * e;
            let event = !self.reference_stepping;
            push_line(
                &mut self.links[l].flits,
                event.then(|| (&mut self.line_events, flit_line(l))),
                t,
                0,
                flit,
            );
            self.in_flight += 1;
            self.last_progress = t;
        }
    }

    /// One event-driven cycle: deliveries due now, scheduled generations,
    /// the active-router worklist, and backlogged injections.
    fn step_event(&mut self) {
        let t = self.cycle;

        // ── 1. Deliver everything due on the event wheel ────────────────
        let mut batch = std::mem::take(&mut self.wheel_scratch);
        self.line_events.take_due(t, &mut batch);
        for &id in &batch {
            self.dispatch_line_event(t, id);
        }
        batch.clear();
        self.wheel_scratch = batch;

        // ── 2. Scheduled packet generations (ascending endpoint order
        //       within the cycle: packet ids match the reference path) ───
        while let Some(&Reverse((due, e))) = self.arrival_events.peek() {
            if due > t {
                break;
            }
            self.arrival_events.pop();
            if !self.generation_stopped {
                self.generate_endpoint(t, e as usize);
            }
        }

        // ── 3. Allocation and traversal for active routers only ─────────
        let mut i = 0;
        while i < self.active_routers.len() {
            let r = self.active_routers[i] as usize;
            self.service_router(t, r);
            if self.routers[r].has_buffered() {
                i += 1;
            } else {
                self.router_active[r] = false;
                self.active_routers.swap_remove(i);
            }
        }

        // ── 4. Injection for backlogged endpoints only ──────────────────
        let mut i = 0;
        while i < self.inject_list.len() {
            let e = self.inject_list[i] as usize;
            self.try_inject_endpoint(t, e);
            if self.endpoints[e].is_drained() {
                self.endpoint_injecting[e] = false;
                self.inject_list.swap_remove(i);
            } else {
                i += 1;
            }
        }

        self.cycle = t + 1;
    }

    /// One poll-every-cycle reference cycle: visits every link, router,
    /// and endpoint unconditionally, driving the same operations as
    /// [`Simulator::step_event`].
    fn step_reference(&mut self) {
        let t = self.cycle;
        for l in 0..self.links.len() {
            self.deliver_flits(t, l);
            self.deliver_credits(t, l);
        }
        for r in 0..self.routers.len() {
            // Quiescent routers are skipped in both paths: with no
            // buffered flit neither allocation phase can act, and skipping
            // keeps the round-robin pointers bit-identical between paths.
            if self.routers[r].has_buffered() {
                self.service_router(t, r);
            }
        }
        for e in 0..self.endpoints.len() {
            if !self.generation_stopped && self.endpoints[e].next_arrival() == t {
                self.generate_endpoint(t, e);
            }
            self.try_inject_endpoint(t, e);
        }
        self.cycle = t + 1;
    }

    /// The earliest cycle at which anything is scheduled to happen
    /// ([`IDLE`] if nothing is).
    fn next_event_cycle(&self) -> u64 {
        let line = self.line_events.next_at_or_after(self.cycle);
        let arrival = self.arrival_events.peek().map_or(IDLE, |&Reverse((due, _))| due);
        let mut next = line.min(arrival);
        if let Some(f) = self.faults.as_deref() {
            // Idle fast-forward must not skip a scheduled failure or a
            // pending retransmission.
            if let Some(ev) = f.plan.schedule.events().get(f.cursor) {
                next = next.min(ev.cycle);
            }
            if let Some(&Reverse((due, _, _))) = f.retx_heap.peek() {
                next = next.min(due);
            }
        }
        next
    }

    /// Runs `cycles` simulation cycles. Idle stretches (no active router,
    /// no backlogged endpoint) fast-forward straight to the next scheduled
    /// event — skipped cycles have nothing to do by construction, so
    /// statistics are unaffected.
    pub fn run(&mut self, cycles: u64) {
        self.advance(self.cycle.saturating_add(cycles), |_| false);
    }

    /// The one cycle loop behind [`Simulator::run`],
    /// [`Simulator::run_until_deliveries`] and [`Simulator::drain`]: steps
    /// until `target` (an absolute cycle) or until `done` holds at the top
    /// of a cycle, sampling an attached probe at every boundary it passes.
    /// `done` must not change over idle cycles, which are fast-forwarded.
    fn advance(&mut self, target: u64, done: impl Fn(&Self) -> bool) {
        while self.cycle < target {
            self.obs_sample_if_due();
            if done(self) {
                return;
            }
            self.service_faults();
            if self.reference_stepping {
                self.step_reference();
                continue;
            }
            if self.active_routers.is_empty() && self.inject_list.is_empty() {
                let next = self.next_event_cycle();
                if next > self.cycle {
                    // An attached probe clamps the jump to its next sample
                    // boundary: the extra cycles stepped are idle by
                    // construction, so the sample lands at the exact
                    // boundary without perturbing any statistic.
                    self.cycle = next.min(target).min(self.obs_next_sample());
                    if self.cycle >= target {
                        break;
                    }
                    self.obs_sample_if_due();
                    // Failures or retransmissions may be due exactly at
                    // the landing cycle — before its step.
                    self.service_faults();
                }
            }
            self.step_event();
        }
        // A boundary landing exactly on `target` samples here, so e.g. a
        // measurement window whose length is a multiple of `sample_every`
        // records its final window.
        self.obs_sample_if_due();
    }

    // ── Closed-loop driver interface ────────────────────────────────────
    //
    // Workload engines (crates/workload) bypass the stochastic traffic
    // generator: they offer explicit packets when dependencies resolve and
    // observe tail-flit deliveries through the delivery log. The hot path
    // is unchanged — offers land in the same source queues, and deliveries
    // are recorded inside the existing ejection handler.

    /// Enables (or disables) the delivery log. While enabled, every
    /// tail-flit arrival is recorded until drained with
    /// [`Simulator::take_deliveries`]; drain at delivery granularity
    /// (see [`Simulator::run_until_deliveries`]) to keep the log inside
    /// its preallocated capacity.
    pub fn set_delivery_log(&mut self, on: bool) {
        self.log_deliveries = on;
        if !on {
            self.delivery_log.clear();
        }
    }

    /// Moves all logged deliveries into `out`, appended in cycle order.
    /// Allocation-free when `out` has capacity.
    ///
    /// Both stepping paths log the same deliveries in each cycle, but the
    /// order within a cycle is unspecified: the reference path logs them
    /// by endpoint id, the event path in event-wheel order. Callers must
    /// not depend on it; the closed-loop `WorkloadDriver` does not.
    pub fn take_deliveries(&mut self, out: &mut Vec<Delivery>) {
        out.append(&mut self.delivery_log);
    }

    /// Offers one explicit packet at the current cycle: `size_flits` flits
    /// from endpoint `src` to endpoint `dest`. Returns the assigned packet
    /// id, or `None` when `src`'s source queue cannot take the packet —
    /// the caller retries after the queue drains (deliveries are the
    /// natural wake-up).
    ///
    /// With a fault plan installed, offers whose source or destination is
    /// dead — or whose destination sits on a severed partition — are also
    /// refused with `None`: such a packet could never be delivered, and
    /// routing a flit toward an unreachable destination is unsound.
    ///
    /// The packet's `created_at` is the current cycle, so closed-loop
    /// packets are measured by the normal latency machinery.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`dest` are out of range, equal, or `size_flits`
    /// is 0.
    pub fn offer_packet(
        &mut self,
        src: usize,
        dest: usize,
        size_flits: usize,
    ) -> Option<PacketId> {
        assert!(src < self.endpoints.len(), "source endpoint out of range");
        assert!(dest < self.endpoints.len(), "destination endpoint out of range");
        assert_ne!(src, dest, "self-traffic does not exercise the interconnect");
        assert!(size_flits >= 1, "packets need at least one flit");
        let epr = self.config.endpoints_per_router;
        if self.faults.is_some() && !self.tables.reachable(src / epr, dest / epr) {
            return None;
        }
        let t = self.cycle;
        let id = self.endpoints[src].offer_packet(t, dest, size_flits)?;
        // A refusal is not counted as offered: closed-loop callers re-offer
        // the same message until it fits, so counting attempts would
        // inflate the offered load by the retry count.
        self.window.offered_packets += u64::from(t >= self.window_start);
        self.accept_packet(t, src, id, dest, size_flits);
        Some(id)
    }

    /// Runs until the delivery log is non-empty or `target` (an absolute
    /// cycle) is reached, fast-forwarding idle stretches exactly like
    /// [`Simulator::run`]. Returns `true` when deliveries are pending in
    /// the log.
    ///
    /// This is the closed-loop driver's pacing primitive: it wakes the
    /// driver at each dependency resolution (a delivery) and at its own
    /// scheduled injection times (`target`), without ever polling cycles
    /// in between.
    pub fn run_until_deliveries(&mut self, target: u64) -> bool {
        self.advance(target, |sim| !sim.delivery_log.is_empty());
        !self.delivery_log.is_empty()
    }

    /// Flits currently inside the network (router buffers + links in
    /// flight), excluding source-queue backlogs. O(1): maintained
    /// incrementally (+1 per injected flit, −1 per ejected one — buffer
    /// and wire occupancy between those two points is conserved).
    #[must_use]
    pub fn flits_in_network(&self) -> usize {
        debug_assert_eq!(
            self.in_flight,
            self.recount_flits_in_network(),
            "incremental in-flight counter out of sync"
        );
        self.in_flight
    }

    /// O(routers + links) recount backing the `debug_assert` in
    /// [`Simulator::flits_in_network`].
    fn recount_flits_in_network(&self) -> usize {
        let buffered: usize = self.routers.iter().map(Router::buffered_flits).sum();
        let wires: usize = self.links.iter().map(|l| l.flits.in_flight()).sum();
        buffered + wires
    }

    /// `true` if flits are stuck: nothing has moved for the watchdog period
    /// while the network still holds flits.
    #[must_use]
    pub fn deadlock_suspected(&self) -> bool {
        self.flits_in_network() > 0
            && self.cycle.saturating_sub(self.last_progress) > self.config.deadlock_watchdog
    }

    /// Aggregated statistics since the measurement window opened.
    ///
    /// # Panics
    ///
    /// Panics if no measurement window was opened.
    #[must_use]
    pub fn stats(&self) -> NetworkStats {
        assert!(self.window_start != u64::MAX, "open a measurement window first");
        let window_cycles = self.cycle - self.window_start;
        stats_from_sums(
            &self.window_sums(),
            window_cycles,
            self.endpoints.len(),
            self.config.packet_size,
        )
    }

    /// This simulator's window counters plus the source-queue occupancy
    /// folded over its endpoints. For a shard, foreign endpoints never
    /// generate or receive, so this is exactly the owned part — summable
    /// across shards.
    pub(crate) fn window_sums(&self) -> WindowSums {
        let mut sums = self.window;
        for e in &self.endpoints {
            let (m, integral) = e.queue_occupancy(self.cycle);
            sums.queue_max = sums.queue_max.max(m);
            sums.queue_integral += integral;
        }
        sums
    }

    /// Latency percentile estimates for every `p` in `ps` (e.g. `0.5`,
    /// `0.95`, `0.99`, in matching order) over the measured packets, from a
    /// single cumulative sweep of the latency histogram. Entries are `None`
    /// when nothing was measured. Resolution is one cycle up to
    /// [`LATENCY_HISTOGRAM_BUCKETS`] cycles; longer latencies saturate into
    /// the top bucket (reported as that bucket's lower edge).
    ///
    /// # Panics
    ///
    /// Panics if any `p` is outside `(0, 1]`.
    #[must_use]
    pub fn latency_percentiles(&self, ps: &[f64]) -> Vec<Option<f64>> {
        percentiles_from_histogram(ps, &self.latency_histogram)
    }

    /// The measured-latency histogram of the open window
    /// ([`LATENCY_HISTOGRAM_BUCKETS`] buckets), for the sharded merge.
    pub(crate) fn latency_histogram(&self) -> &[u64] {
        &self.latency_histogram
    }

    /// Human-readable report of every router holding flits or bindings —
    /// the first thing to read when [`Simulator::deadlock_suspected`]
    /// fires. One line per occupied input VC and per owned output VC.
    #[must_use]
    pub fn blocked_packet_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (r, router) in self.routers.iter().enumerate() {
            let inputs = router.occupancy_report();
            let outputs = router.output_report();
            if inputs.is_empty() && outputs.is_empty() {
                continue;
            }
            let _ = writeln!(out, "router {r}:");
            for (port, vc, buffered, bound, escape, dest) in inputs {
                let _ = writeln!(
                    out,
                    "  in  port {port} vc {vc}: {buffered} flits, bound {bound:?}, escape {escape}, head_dest {dest:?}"
                );
            }
            for (port, vc, credits, owner) in outputs {
                let _ = writeln!(
                    out,
                    "  out port {port} vc {vc}: {credits} credits, owner {owner:?}"
                );
            }
        }
        out
    }

    /// Per-channel traffic counts since construction: one entry per
    /// *directed* router-to-router link, `(src, dst, flits)`.
    ///
    /// Under uniform traffic the hottest channels concentrate on the
    /// topology's bisection — the structural reason bisection bandwidth
    /// predicts saturation throughput (§III-C).
    #[must_use]
    pub fn channel_loads(&self) -> Vec<(RouterId, RouterId, u64)> {
        self.link_flit_counts
            .iter()
            .enumerate()
            .map(|(l, &count)| {
                let (src, dst) = self.net_link_ends(l);
                (src, dst, count)
            })
            .collect()
    }

    /// The `(src, dst)` routers of net link `l`.
    fn net_link_ends(&self, l: usize) -> (RouterId, RouterId) {
        match (self.link_src[l], self.link_dst[l]) {
            (End::Router(src, _), End::Router(dst, _)) => (src as usize, dst as usize),
            _ => unreachable!("link {l} is not a net link"),
        }
    }

    /// The link from router `a` to router `b`, if they are neighbours.
    fn link_between(&self, a: RouterId, b: RouterId) -> Option<usize> {
        self.link_out[a]
            .iter()
            .copied()
            .find(|&l| matches!(self.link_dst[l], End::Router(dst, _) if dst as usize == b))
    }

    // ── Observability probes (crate::obs) ───────────────────────────────

    /// Attaches an observability probe: every `probe.sample_every` cycles
    /// (at absolute-cycle multiples, so serial and sharded runs sample at
    /// identical boundaries) a [`WindowSample`] is recorded into a series
    /// preallocated for `probe.capacity` windows. Recording stops when the
    /// series is full; re-attaching replaces it.
    ///
    /// Probes observe, never perturb: all buffers are allocated here,
    /// sampling reads counters the simulator already maintains, and
    /// nothing recorded feeds back into simulation decisions — statistics
    /// are bit-identical to a probe-free run (see [`crate::obs`]).
    pub fn attach_probe(&mut self, probe: Probe) {
        let mut state = ObsState::new(probe, self.cycle, self.link_flit_counts.len());
        state.prev = self.window;
        state.prev_stalls = self.stall_counters();
        state.prev_links.copy_from_slice(&self.link_flit_counts);
        self.obs = Some(Box::new(state));
    }

    /// The probe's recorded window series so far (empty without a probe).
    #[must_use]
    pub fn obs_windows(&self) -> &[WindowSample] {
        self.obs.as_deref().map_or(&[], |o| &o.windows)
    }

    /// Detaches the probe (if any), returning the recorded series.
    pub fn detach_probe(&mut self) -> Vec<WindowSample> {
        self.obs.take().map_or_else(Vec::new, |o| o.windows)
    }

    /// Network-wide stall-cause tallies since construction (observability
    /// only — see [`StallCounters`]).
    #[must_use]
    pub fn stall_counters(&self) -> StallCounters {
        let mut stalls = StallCounters::default();
        for r in &self.routers {
            stalls.absorb(r.stall_counters());
        }
        stalls
    }

    /// The next sample boundary, or `u64::MAX` without an attached (and
    /// non-full) probe — [`Simulator::advance`] clamps idle fast-forward
    /// here.
    #[inline]
    fn obs_next_sample(&self) -> u64 {
        self.obs.as_deref().map_or(u64::MAX, |o| o.next_sample)
    }

    /// Takes a window sample if the current cycle reached the boundary.
    #[inline]
    fn obs_sample_if_due(&mut self) {
        if self.cycle >= self.obs_next_sample() {
            self.obs_sample();
        }
    }

    /// Records one [`WindowSample`]: deltas of the window / stall / link
    /// counters against the previous sample's snapshots (updated in
    /// place), plus instantaneous occupancy gauges. Allocation-free: the
    /// series and snapshots were preallocated at attach time.
    fn obs_sample(&mut self) {
        let sums = self.window;
        let stalls = self.stall_counters();
        let buffered: u64 = self.routers.iter().map(|r| r.buffered_flits() as u64).sum();
        let flits_in_network = self.in_flight as u64;
        let cycle = self.cycle;
        let Some(obs) = self.obs.as_deref_mut() else { return };
        if obs.windows.len() == obs.windows.capacity() {
            obs.next_sample = u64::MAX;
            return;
        }
        let mut link_flits = 0u64;
        let mut max_link_flits = 0u64;
        for (prev, &cur) in obs.prev_links.iter_mut().zip(&self.link_flit_counts) {
            let d = cur - *prev;
            *prev = cur;
            link_flits += d;
            max_link_flits = max_link_flits.max(d);
        }
        // Window counters reset at `open_measurement_window` (which also
        // resets `obs.prev`); between resets they are monotone, so plain
        // subtraction is exact.
        obs.windows.push(WindowSample {
            window: obs.windows.len() as u64,
            start_cycle: obs.last_sample_cycle,
            end_cycle: cycle,
            offered_packets: sums.offered_packets - obs.prev.offered_packets,
            accepted_packets: sums.accepted_packets - obs.prev.accepted_packets,
            received_flits: sums.received_flits - obs.prev.received_flits,
            received_packets: sums.received_packets - obs.prev.received_packets,
            measured_packets: sums.measured - obs.prev.measured,
            latency_sum: sums.latency_sum - obs.prev.latency_sum,
            flits_in_network,
            buffered_flits: buffered,
            stalls: StallCounters {
                vc_starved: stalls.vc_starved - obs.prev_stalls.vc_starved,
                credit_starved: stalls.credit_starved - obs.prev_stalls.credit_starved,
                switch_lost: stalls.switch_lost - obs.prev_stalls.switch_lost,
            },
            link_flits,
            max_link_flits,
        });
        obs.prev = sums;
        obs.prev_stalls = stalls;
        obs.last_sample_cycle = cycle;
        obs.next_sample = (cycle / obs.sample_every + 1) * obs.sample_every;
    }

    /// Runs `warmup` cycles, opens the measurement window, then runs
    /// `measure` cycles and returns the window's statistics — the standard
    /// warmup/measure schedule every load point uses.
    pub fn run_to_window(&mut self, warmup: u64, measure: u64) -> NetworkStats {
        self.run(warmup);
        self.open_measurement_window();
        self.run(measure);
        self.stats()
    }

    /// `true` once nothing is left to move: no flit in the network, no
    /// source-queue backlog, and no retransmission still pending. O(1) in
    /// event mode (incremental in-flight counter + injection worklist).
    fn fully_drained(&self) -> bool {
        self.flits_in_network() == 0
            && self.faults.as_deref().is_none_or(|f| f.retx_heap.is_empty())
            && if self.reference_stepping {
                self.endpoints.iter().all(Endpoint::is_drained)
            } else {
                self.inject_list.is_empty()
            }
    }

    /// Stops traffic generation and runs until the network drains or
    /// `max_cycles` pass. Returns `true` if fully drained. Like
    /// [`Simulator::run`], it fast-forwards idle stretches and samples an
    /// attached probe.
    ///
    /// The configured [`SimConfig::injection_rate`] is *not* modified:
    /// [`Simulator::config`] keeps reporting the rate the simulation ran
    /// at before the drain.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        self.generation_stopped = true;
        self.advance(self.cycle.saturating_add(max_cycles), Self::fully_drained);
        self.fully_drained()
    }

    // ── Fault injection (crate::fault) ──────────────────────────────────
    //
    // Failures are applied atomically at the start of their scheduled
    // cycle, in two halves so the sharded coordinator can interpose a
    // barrier between them: `fault_begin` marks the dying components,
    // rebuilds the routing tables over the survivors, and returns the
    // locally visible *doomed* packet ids; `fault_commit` then purges a
    // (globally agreed, sorted) doomed set everywhere, returns each freed
    // buffer slot's credit to whoever holds it upstream, and schedules
    // retransmissions. The standalone path simply commits its own seeds.

    /// Installs a fault plan: scheduled permanent link/router failures and
    /// optional source retransmission. Must be called on a freshly built
    /// simulator (cycle 0). Installing a plan — even an empty one —
    /// switches generation to the fault-aware path, which draws the exact
    /// same RNG sequence and only squelches destinations that are actually
    /// dead or unreachable.
    ///
    /// # Panics
    ///
    /// Panics if the simulator has already run, a plan is already
    /// installed, or an event targets a link or router absent from the
    /// topology.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        assert_eq!(self.cycle, 0, "install the fault plan before running");
        assert!(self.faults.is_none(), "a fault plan is already installed");
        let n = self.routers.len();
        for ev in plan.schedule.events() {
            match ev.target {
                FaultTarget::Router(r) => {
                    assert!(r < n, "fault targets router {r}, but the topology has {n}");
                }
                FaultTarget::Link { a, b } => {
                    assert!(
                        a < n && b < n && self.link_between(a, b).is_some(),
                        "fault targets link ({a}, {b}) absent from the topology"
                    );
                }
            }
        }
        // Reconstruct the router graph from the wiring: every post-failure
        // table rebuild needs the adjacency.
        let edges: Vec<(usize, usize)> = (0..self.link_flit_counts.len())
            .map(|l| self.net_link_ends(l))
            .filter(|&(a, b)| a < b)
            .collect();
        let graph = Graph::from_edges(n, &edges).expect("simulator wiring is a valid graph");
        self.faults = Some(Box::new(FaultState {
            plan,
            cursor: 0,
            graph,
            dead_link: vec![false; self.links.len()],
            dead_router: vec![false; n],
            outstanding: HashMap::new(),
            retx_heap: BinaryHeap::new(),
        }));
    }

    /// Cycle of the next unapplied failure event ([`IDLE`] when none).
    pub(crate) fn next_fault_cycle(&self) -> u64 {
        self.faults
            .as_deref()
            .and_then(|f| f.plan.schedule.events().get(f.cursor))
            .map_or(IDLE, |ev| ev.cycle)
    }

    /// First half of applying the failure event at the cursor: marks the
    /// dying components dead, rebuilds the routing tables over the
    /// surviving topology, and returns the sorted, deduplicated ids of
    /// every packet this simulator can see is doomed:
    ///
    /// * flits on a dying wire, and flits buffered in (or bound through) a
    ///   dying router;
    /// * a dying endpoint's in-transit flits and partially injected front
    ///   packet;
    /// * the bound packet of any input VC aimed at a dead link — the
    ///   upstream remnant of a packet severed mid-link;
    /// * flits at (or en route to) a router from which their destination
    ///   is no longer reachable, and flits to a dead endpoint;
    /// * every packet committed to the escape sub-network, whose per-
    ///   component trees are rebuilt from scratch (mixing old- and
    ///   new-tree hops could cycle the escape VC, so the escape layer is
    ///   flushed wholesale — rare in practice, and retransmission
    ///   re-offers the flushed packets).
    ///
    /// In a sharded run every physical flit lives in exactly one shard, so
    /// the union of the shards' seed sets equals the serial set.
    pub(crate) fn fault_begin(&mut self) -> Vec<PacketId> {
        let mut f = self.faults.take().expect("no fault plan installed");
        let epr = self.config.endpoints_per_router;
        let ev = f.plan.schedule.events()[f.cursor];
        debug_assert!(ev.cycle <= self.cycle, "fault event serviced early");
        match ev.target {
            FaultTarget::Link { a, b } => {
                for (u, v) in [(a, b), (b, a)] {
                    let l = self.link_between(u, v).expect("checked at install");
                    f.dead_link[l] = true;
                }
            }
            FaultTarget::Router(r) => {
                f.dead_router[r] = true;
                // Every link into or out of `r`, its endpoint links included.
                for &l in self.link_in[r].iter().chain(&self.link_out[r]) {
                    f.dead_link[l] = true;
                }
            }
        }
        let dead_link = &f.dead_link;
        let tables = RoutingTables::new_degraded(
            &f.graph,
            self.config.routing,
            &f.dead_router,
            |u, v| self.link_between(u, v).is_some_and(|l| dead_link[l]),
        );

        let mut seeds: Vec<PacketId> = Vec::new();
        // A dead link loses every flit on it. On a live one, a flit is
        // doomed when it rides the escape layer or the router it reaches
        // can no longer reach its destination; ejection-link flits are at
        // their live destination and always deliverable.
        for (l, link) in self.links.iter().enumerate() {
            let dead = f.dead_link[l];
            let next = self.link_dst[l];
            let lost = |flit: &&Flit| {
                dead || match next {
                    End::Router(r, _) => {
                        flit.escape || !tables.reachable(r as usize, flit.dest as usize / epr)
                    }
                    End::Endpoint(_) => false,
                }
            };
            seeds.extend(link.flits.iter().filter(lost).map(|flit| flit.packet));
        }
        for r in 0..self.routers.len() {
            if f.dead_router[r] {
                self.routers[r].for_each_flit(|flit| seeds.push(flit.packet));
                self.routers[r].for_each_bound_packet(|_, p, _| seeds.push(p));
            } else {
                self.routers[r].for_each_flit(|flit| {
                    if flit.escape || !tables.reachable(r, flit.dest as usize / epr) {
                        seeds.push(flit.packet);
                    }
                });
                let link_out = &self.link_out[r];
                self.routers[r].for_each_bound_packet(|out_port, p, escape| {
                    if escape || f.dead_link[link_out[out_port]] {
                        seeds.push(p);
                    }
                });
            }
        }
        // A source mid-way through injecting a packet toward a destination
        // it can no longer reach, or whose own router died, abandons that
        // packet: its flits would have nowhere to route.
        for (e, endpoint) in self.endpoints.iter().enumerate() {
            if let Some((p, dest)) = endpoint.partially_injected() {
                if f.dead_router[e / epr] || !tables.reachable(e / epr, dest / epr) {
                    seeds.push(p);
                }
            }
        }
        seeds.sort_unstable();
        seeds.dedup();
        self.tables = Arc::new(tables);
        self.faults = Some(f);
        seeds
    }

    /// Second half: purges the agreed doomed set from every component,
    /// returns freed buffer slots' credits upstream, drops dead or
    /// unreachable source-queue packets, schedules retransmissions for
    /// doomed packets this simulator sourced, and advances the event
    /// cursor. `count_doomed` attributes the doomed-set cardinality to
    /// this simulator's packet-drop counter (true for standalone runs and
    /// exactly one shard, so cross-shard sums match the serial count).
    ///
    /// Returns `(link, vc)` credit returns owed to routers this shard does
    /// not own (always empty for standalone runs); the coordinator routes
    /// them to the owning shard's
    /// [`Simulator::apply_foreign_fault_credits`].
    ///
    /// Credit sidebands are never purged: credits in flight on a dead link
    /// keep draining so surviving packets that already crossed release
    /// upstream state cleanly, and stale credits toward a dead output are
    /// harmless because nothing routes onto a dead link again.
    pub(crate) fn fault_commit(
        &mut self,
        doomed: &[PacketId],
        count_doomed: bool,
    ) -> Vec<(u32, u32)> {
        debug_assert!(
            doomed.windows(2).all(|w| w[0] < w[1]),
            "doomed set must be sorted and deduplicated"
        );
        let t = self.cycle;
        let epr = self.config.endpoints_per_router;
        let mut f = self.faults.take().expect("no fault plan installed");
        let ev = f.plan.schedule.events()[f.cursor];
        let is_doomed = |p: PacketId| doomed.binary_search(&p).is_ok();
        let owned = self.owned_routers();

        // Every purged flit, on a link or in a router buffer, held a buffer
        // slot at the receiving end of a link: `freed` records `(link, vc)`
        // so the slot's credit goes back to that link's sender. A dead link
        // loses everything on it, a live one exactly the doomed flits, and
        // a dead router everything it buffers.
        let mut freed: Vec<(usize, usize)> = Vec::new();
        for (l, link) in self.links.iter_mut().enumerate() {
            let dead = f.dead_link[l];
            link.flits.purge(|flit| {
                let purged = dead || is_doomed(flit.packet);
                if purged {
                    freed.push((l, usize::from(flit.vc)));
                }
                purged
            });
        }
        for r in 0..self.routers.len() {
            let dead = f.dead_router[r];
            let link_in = &self.link_in[r];
            self.routers[r].purge_doomed(
                |p| dead || is_doomed(p),
                |port, flit| freed.push((link_in[port], usize::from(flit.vc))),
            );
        }
        let mut foreign: Vec<(u32, u32)> = Vec::new();
        for &(l, vc) in &freed {
            match self.link_src[l] {
                End::Router(src, port) if owned.contains(&(src as usize)) => {
                    self.routers[src as usize].receive_credit(port as usize, Credit { vc });
                }
                End::Router(..) => foreign.push((l as u32, vc as u32)),
                End::Endpoint(e) => self.endpoints[e as usize].receive_credit(vc),
            }
        }
        let dropped = freed.len();

        // Source queues (endpoint-local, so never across a shard boundary).
        for e in 0..self.endpoints.len() {
            let r = e / epr;
            let dead_e = f.dead_router[r];
            let window = &mut self.window;
            let outstanding = &mut f.outstanding;
            if dead_e {
                self.endpoints[e].kill(t, |p| {
                    if !is_doomed(p) {
                        window.fault_dropped_packets += 1;
                    }
                    outstanding.remove(&p);
                });
            } else {
                let tables = &self.tables;
                self.endpoints[e].purge_faulted(
                    t,
                    &is_doomed,
                    |dest| !tables.reachable(r, dest / epr),
                    |p| {
                        window.fault_dropped_packets += 1;
                        outstanding.remove(&p);
                    },
                );
            }
        }

        if count_doomed {
            self.window.fault_dropped_packets += doomed.len() as u64;
        }
        match ev.target {
            FaultTarget::Link { .. } => self.window.link_fault_dropped_flits += dropped as u64,
            FaultTarget::Router(_) => self.window.router_fault_dropped_flits += dropped as u64,
        }
        self.in_flight -= dropped;
        // The purge itself is movement; don't let the watchdog misread
        // the quiet right after a mass drop.
        self.last_progress = t;

        // Source retransmission: re-offer each doomed packet we sourced
        // after an exponential-backoff timeout, unless its destination is
        // now out of reach. Only a retransmitting plan tracks outstanding
        // packets, and in a sharded run only the source shard holds the
        // entry, so exactly one shard schedules each packet.
        for &p in doomed {
            let Some(entry) = f.outstanding.get(&p) else { continue };
            if self.tables.reachable(entry.src as usize / epr, entry.dest as usize / epr) {
                f.retry_later(t, p);
            } else {
                f.outstanding.remove(&p);
            }
        }

        f.cursor += 1;
        self.faults = Some(f);
        if !self.reference_stepping {
            self.rebuild_event_state();
        }
        foreign
    }

    /// Applies credit returns computed by another shard's
    /// [`Simulator::fault_commit`]; entries for routers this shard does
    /// not own are skipped (the list is broadcast to all shards).
    pub(crate) fn apply_foreign_fault_credits(&mut self, items: &[(u32, u32)]) {
        let Some(role) = self.shard.as_deref() else { return };
        let owned = role.first_router..role.last_router;
        for &(l, vc) in items {
            if let End::Router(src, port) = self.link_src[l as usize] {
                if owned.contains(&(src as usize)) {
                    self.routers[src as usize]
                        .receive_credit(port as usize, Credit { vc: vc as usize });
                }
            }
        }
    }

    /// Per-step fault pump: applies every failure event due at the current
    /// cycle, then performs due retransmissions. Sharded runs skip the
    /// application half — the coordinator drives `fault_begin`/
    /// `fault_commit` at window barriers so all shards purge in lockstep.
    fn service_faults(&mut self) {
        if self.faults.is_none() {
            return;
        }
        if self.shard.is_none() {
            while self.next_fault_cycle() <= self.cycle {
                let seeds = self.fault_begin();
                let foreign = self.fault_commit(&seeds, true);
                debug_assert!(foreign.is_empty(), "standalone runs own every router");
            }
        }
        self.process_due_retx();
    }

    /// Re-offers every retransmission due at the current cycle. A packet
    /// whose source or destination died — or whose destination is no
    /// longer reachable — is given up; a full source queue backs off
    /// again.
    fn process_due_retx(&mut self) {
        let t = self.cycle;
        let due_now = match self.faults.as_deref() {
            Some(fs) => matches!(fs.retx_heap.peek(), Some(&Reverse((d, _, _))) if d <= t),
            None => return,
        };
        if !due_now {
            return;
        }
        let mut f = self.faults.take().expect("peeked above");
        let epr = self.config.endpoints_per_router;
        while let Some(&Reverse((d, src, p))) = f.retx_heap.peek() {
            if d > t {
                break;
            }
            f.retx_heap.pop();
            let Some(entry) = f.outstanding.get(&p).copied() else { continue };
            let src_e = src as usize;
            let dest = entry.dest as usize;
            if !self.tables.reachable(src_e / epr, dest / epr) {
                f.outstanding.remove(&p);
            } else if self.endpoints[src_e].requeue_packet(
                t,
                p,
                dest,
                entry.size as usize,
                entry.created_at,
            ) {
                self.window.retransmitted_packets += 1;
                self.activate_endpoint(src_e);
            } else {
                f.retry_later(t, p);
            }
        }
        self.faults = Some(f);
    }

    // ── Shard-coordination hooks (crate::shard) ─────────────────────────
    //
    // Everything the bounded-lag coordinator needs: posting/applying
    // boundary messages at window barriers, drain bookkeeping, and raw
    // accessors for bit-exact cross-shard stat aggregation.

    /// Boundary links from an owned to a foreign router (ascending link
    /// id): this shard sends their flits, through flit outbox slot `i`
    /// for entry `i`, and owns their credit lines.
    pub(crate) fn out_links(&self) -> &[usize] {
        self.shard.as_ref().map_or(&[], |r| &r.out_links)
    }

    /// Boundary links from a foreign to an owned router (ascending link
    /// id): this shard sends their credits, through credit outbox slot
    /// `i` for entry `i`, and owns their flit lines.
    pub(crate) fn in_links(&self) -> &[usize] {
        self.shard.as_ref().map_or(&[], |r| &r.in_links)
    }

    /// Swaps outbox slot `i` (flit direction) with the empty, equally
    /// preallocated `mailbox` — O(1), allocation-free handoff.
    pub(crate) fn post_flit_outbox(&mut self, i: usize, mailbox: &mut Vec<(u64, Flit)>) {
        debug_assert!(mailbox.is_empty(), "mailbox not drained by its receiver");
        let role = self.shard.as_deref_mut().expect("sharded simulator");
        std::mem::swap(&mut role.flit_outboxes[i], mailbox);
    }

    /// Swaps outbox slot `i` (credit direction) with the empty `mailbox`.
    pub(crate) fn post_credit_outbox(&mut self, i: usize, mailbox: &mut Vec<(u64, Credit)>) {
        debug_assert!(mailbox.is_empty(), "mailbox not drained by its receiver");
        let role = self.shard.as_deref_mut().expect("sharded simulator");
        std::mem::swap(&mut role.credit_outboxes[i], mailbox);
    }

    /// Replays boundary flit pushes onto link `l`'s flit line. Each
    /// message re-runs the exact `push(cycle, pipeline)` the sending
    /// router performed, so delivery cycles and the line's serialization
    /// state are bit-identical to the serial run. Clears `msgs` (capacity
    /// kept).
    pub(crate) fn apply_boundary_flits(&mut self, l: usize, msgs: &mut Vec<(u64, Flit)>) {
        debug_assert!(!self.reference_stepping, "sharded runs are event-driven");
        // Must match `service_router` exactly: boundary replays re-run the
        // sending router's push, crossbar stages included.
        let pipeline = self.config.pipeline_cycles();
        for &(cycle, flit) in msgs.iter() {
            push_line(
                &mut self.links[l].flits,
                Some((&mut self.line_events, flit_line(l))),
                cycle,
                pipeline,
                flit,
            );
            self.in_flight += 1;
        }
        msgs.clear();
    }

    /// Replays boundary credit pushes onto link `l`'s credit line; see
    /// [`Simulator::apply_boundary_flits`].
    pub(crate) fn apply_boundary_credits(&mut self, l: usize, msgs: &mut Vec<(u64, Credit)>) {
        debug_assert!(!self.reference_stepping, "sharded runs are event-driven");
        for &(cycle, credit) in msgs.iter() {
            push_line(
                &mut self.links[l].credits,
                Some((&mut self.line_events, credit_line(l))),
                cycle,
                0,
                credit,
            );
        }
        msgs.clear();
    }

    /// Stops traffic generation without running (the sharded drain's
    /// per-worker half of [`Simulator::drain`]).
    pub(crate) fn stop_generation(&mut self) {
        self.generation_stopped = true;
    }

    /// Whether nothing is left to move locally (see
    /// [`Simulator::fully_drained`]).
    pub(crate) fn is_fully_drained(&self) -> bool {
        self.fully_drained()
    }

    /// Last cycle any flit moved in this shard.
    pub(crate) fn last_progress_cycle(&self) -> u64 {
        self.last_progress
    }

    /// Rewinds the cycle counter to the exact global drain cycle. Sound
    /// only after a global drain: the cycles being unwound moved no flit
    /// anywhere (only residual credit deliveries, which no reported stat
    /// observes), and generation is stopped.
    ///
    /// Probe windows ending in the unwound cycles are dropped, as the
    /// serial drain never reaches them. The probe's counter snapshots
    /// stay: nothing they count changed in those cycles.
    pub(crate) fn rewind_cycle(&mut self, to: u64) {
        debug_assert!(self.generation_stopped, "rewind is a drain-only operation");
        debug_assert!(to <= self.cycle, "rewind must not advance the clock");
        self.cycle = to;
        if let Some(obs) = self.obs.as_deref_mut() {
            let kept = obs.windows.partition_point(|w| w.end_cycle <= to);
            if let Some(first_dropped) = obs.windows.get(kept) {
                obs.last_sample_cycle = first_dropped.start_cycle;
                obs.next_sample = first_dropped.end_cycle;
                obs.windows.truncate(kept);
            }
        }
    }

    /// Per-link flit counts since construction (boundary links count on
    /// the sending shard only, so cross-shard sums match the serial run).
    pub(crate) fn link_flit_counts(&self) -> &[u64] {
        &self.link_flit_counts
    }
}

// ── Event-wheel plumbing ────────────────────────────────────────────────
//
// Delay lines are identified by a dense `u32` id: link `l`'s flit line is
// `2l` and its credit line `2l + 1`, so ids ascend in the reference path's
// polling order (every link in index order, flits before credits).

/// A bucketed event wheel keyed on due cycle: slot `due % horizon` chains
/// the ids of the delay lines whose front item is due then. Sound because
/// a line's scheduling distance (`due − now` at scheduling time) is
/// bounded by its latency plus the router pipeline, or its serialization
/// interval — all strictly below `horizon` — so a slot never mixes cycles.
///
/// Slots are intrusive singly-linked lists threaded through a per-line
/// `next` pointer: every line has at most one pending event, so one slot
/// of pointer storage per line suffices and scheduling/draining never
/// allocates — part of the hot path's zero-allocation contract.
#[derive(Debug)]
struct EventWheel {
    /// Per slot: first line id in the chain, or `WHEEL_NONE`.
    slot_head: Vec<u32>,
    /// Per line id: next line in its slot's chain, or `WHEEL_NONE`.
    next: Vec<u32>,
    horizon: u64,
    len: usize,
}

const WHEEL_NONE: u32 = u32::MAX;

impl EventWheel {
    fn new(horizon: u64, num_lines: usize) -> Self {
        Self {
            slot_head: vec![WHEEL_NONE; horizon as usize],
            next: vec![WHEEL_NONE; num_lines],
            horizon,
            len: 0,
        }
    }

    fn schedule(&mut self, due: u64, id: u32) {
        let slot = (due % self.horizon) as usize;
        self.next[id as usize] = self.slot_head[slot];
        self.slot_head[slot] = id;
        self.len += 1;
    }

    /// Earliest pending due cycle at or after `now`, or [`IDLE`].
    fn next_at_or_after(&self, now: u64) -> u64 {
        if self.len == 0 {
            return IDLE;
        }
        for d in 0..self.horizon {
            if self.slot_head[((now + d) % self.horizon) as usize] != WHEEL_NONE {
                return now + d;
            }
        }
        unreachable!("non-empty wheel with no slot inside the horizon");
    }

    /// Moves the ids due at `t` into `out` (cleared first).
    fn take_due(&mut self, t: u64, out: &mut Vec<u32>) {
        out.clear();
        let slot = (t % self.horizon) as usize;
        let mut id = self.slot_head[slot];
        self.slot_head[slot] = WHEEL_NONE;
        while id != WHEEL_NONE {
            out.push(id);
            id = self.next[id as usize];
        }
        self.len -= out.len();
    }

    fn clear(&mut self) {
        self.slot_head.fill(WHEEL_NONE);
        self.len = 0;
    }
}

/// Event-wheel id of link `l`'s flit line.
fn flit_line(l: usize) -> u32 {
    (2 * l) as u32
}

/// Event-wheel id of link `l`'s credit line.
fn credit_line(l: usize) -> u32 {
    (2 * l + 1) as u32
}

/// Arms the event wheel for `line` if anything is in flight (used when
/// (re)building the wheel and after processing a line's deliveries).
fn arm_line<T>(wheel: &mut EventWheel, line: &DelayLine<T>, id: u32) {
    let due = line.next_due();
    if due != IDLE {
        wheel.schedule(due, id);
    }
}

/// The most items `line` can hold at once, the bound the simulator reserves
/// it to. Flow control bounds every line by the `credit_bound` = vcs ×
/// buffer_depth buffer slots at its link's downstream end: each flit in
/// flight holds one, and each credit in flight returns one. A line with
/// `interval == 1` is bound tighter: it takes at most one push per cycle
/// and releases each item at its due cycle, `latency + extra` cycles after
/// its push (`extra` is the router pipeline on a router-fed flit line, 0
/// elsewhere). It thus holds the pushes of the last `latency + extra`
/// cycles, plus one when a push precedes the pop of the item due in the
/// same cycle (an ejection's credit). A serialized line's deliveries drift
/// behind its pushes, so it keeps the credit bound.
fn line_bound<T>(line: &DelayLine<T>, extra: u64, credit_bound: usize) -> usize {
    if line.interval() > 1 {
        return credit_bound;
    }
    usize::try_from(line.latency().saturating_add(extra + 1))
        .map_or(credit_bound, |b| b.min(credit_bound))
}

/// Heap bytes of a routing-table `Arc`: its block and the tables' arrays.
pub(crate) fn tables_heap_bytes(tables: &Arc<RoutingTables>) -> usize {
    arc_block::<RoutingTables>() + tables.heap_bytes()
}

/// Pushes `item` onto `line`; when `events` is supplied (event-driven
/// stepping) and the line was empty, schedules its new delivery on the
/// wheel. Pushes to a non-empty line never change the front, so no entry
/// is needed then — the line already has one.
fn push_line<T>(
    line: &mut DelayLine<T>,
    events: Option<(&mut EventWheel, u32)>,
    cycle: u64,
    extra: u64,
    item: T,
) {
    let was_empty = line.is_empty();
    line.push(cycle, extra, item);
    if was_empty {
        if let Some((wheel, id)) = events {
            wheel.schedule(line.next_due(), id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_graph::gen;

    fn small_config(rate: f64) -> SimConfig {
        SimConfig {
            vcs: 4,
            buffer_depth: 4,
            router_latency: 3,
            link_latency: 27,
            injection_latency: 1,
            endpoints_per_router: 2,
            packet_size: 4,
            routing: RoutingKind::MinimalAdaptiveEscape,
            pattern: TrafficPattern::UniformRandom,
            process: ProcessKind::Bernoulli,
            injection_rate: rate,
            seed: 99,
            source_queue_cap: 16,
            deadlock_watchdog: 2_000,
            router: RouterModel::default(),
        }
    }

    #[test]
    fn config_validation() {
        let g = gen::grid(2, 2);
        let bad = SimConfig { vcs: 0, ..small_config(0.1) };
        assert!(matches!(Simulator::new(&g, bad), Err(SimError::InvalidConfig(_))));
        let bad = SimConfig { vcs: 1, ..small_config(0.1) };
        assert!(matches!(Simulator::new(&g, bad), Err(SimError::InvalidConfig(_))));
        let bad = SimConfig { injection_rate: 1.5, ..small_config(0.1) };
        assert!(matches!(Simulator::new(&g, bad), Err(SimError::InvalidConfig(_))));
        // Buffers are sized from these, so absurd values are refused
        // before anything is allocated.
        assert!(SimConfig { vcs: 64, buffer_depth: 256, ..small_config(0.1) }
            .validate()
            .is_ok());
        let bad = SimConfig { vcs: 65, ..small_config(0.1) };
        assert!(matches!(Simulator::new(&g, bad), Err(SimError::InvalidConfig(_))));
        let bad = SimConfig { buffer_depth: 1_000_000_000_000, ..small_config(0.1) };
        assert!(matches!(Simulator::new(&g, bad), Err(SimError::InvalidConfig(_))));
        let disconnected = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(matches!(
            Simulator::new(&disconnected, small_config(0.1)),
            Err(SimError::Routing(RoutingError::DisconnectedTopology))
        ));
        // Flits carry `u32` endpoint ids: a network past that is refused
        // before its endpoints are allocated.
        let huge = SimConfig { endpoints_per_router: 1 << 31, ..small_config(0.1) };
        assert_eq!(
            Simulator::new(&g, huge).err(),
            Some(SimError::InvalidConfig(
                "the network has too many links and endpoints for 32-bit ids"
            ))
        );
    }

    #[test]
    fn zero_injection_latency_is_rejected() {
        // Endpoint links are delay lines of this latency, and a delay line
        // needs at least one cycle.
        let bad = SimConfig { injection_latency: 0, ..small_config(0.1) };
        let expected = SimError::InvalidConfig("injection_latency must be at least 1");
        assert_eq!(bad.validate(), Err(expected));
        assert_eq!(Simulator::new(&gen::grid(2, 2), bad).err(), Some(expected));
    }

    #[test]
    fn packets_flow_end_to_end() {
        let g = gen::grid(2, 2);
        let mut sim = Simulator::new(&g, small_config(0.1)).unwrap();
        sim.run(500);
        sim.open_measurement_window();
        sim.run(2_000);
        let stats = sim.stats();
        assert!(stats.received_packets > 0, "no packets delivered");
        assert!(stats.avg_packet_latency.is_some());
        assert!(!sim.deadlock_suspected());
    }

    #[test]
    fn no_flit_loss_after_drain() {
        let g = gen::grid(3, 3);
        let mut sim = Simulator::new(&g, small_config(0.2)).unwrap();
        sim.open_measurement_window();
        sim.run(2_000);
        let drained = sim.drain(20_000);
        assert!(drained, "network failed to drain");
        let stats = sim.stats();
        // Conservation: every accepted packet is eventually delivered.
        assert_eq!(stats.received_packets, stats.accepted_packets);
        assert_eq!(
            stats.received_flits,
            stats.accepted_packets * sim.config().packet_size as u64
        );
    }

    #[test]
    fn drain_preserves_configured_rate() {
        let g = gen::grid(2, 2);
        let mut sim = Simulator::new(&g, small_config(0.2)).unwrap();
        sim.open_measurement_window();
        sim.run(1_000);
        assert!(sim.drain(20_000), "network failed to drain");
        // The drain stops generation without clobbering the config.
        assert_eq!(sim.config().injection_rate, 0.2);
        // And generation really is stopped.
        let offered_before = sim.stats().offered_packets;
        sim.run(1_000);
        assert_eq!(sim.stats().offered_packets, offered_before);
    }

    #[test]
    fn run_to_window_matches_manual_schedule() {
        let g = gen::grid(2, 2);
        let mut manual = Simulator::new(&g, small_config(0.1)).unwrap();
        manual.run(500);
        manual.open_measurement_window();
        manual.run(2_000);
        let mut helper = Simulator::new(&g, small_config(0.1)).unwrap();
        assert_eq!(helper.run_to_window(500, 2_000), manual.stats());
    }

    #[test]
    fn latency_bounded_below_by_structural_minimum() {
        let g = gen::grid(2, 2);
        let cfg = small_config(0.02);
        let mut sim = Simulator::new(&g, cfg).unwrap();
        sim.open_measurement_window();
        sim.run(6_000);
        sim.drain(20_000);
        let stats = sim.stats();
        assert!(stats.measured_packets > 0);
        // Minimum possible latency: same-router pair, H = 0:
        // inj 1 + router 3 + ej 1 + (P-1) 3 = 8 cycles.
        let min = 1 + cfg.router_latency + 1 + (cfg.packet_size as u64 - 1);
        assert!(
            stats.avg_packet_latency.unwrap() >= min as f64,
            "avg latency below structural minimum"
        );
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let g = gen::grid(2, 2);
        let mut sim = Simulator::new(&g, small_config(0.0)).unwrap();
        sim.open_measurement_window();
        sim.run(1_000);
        let stats = sim.stats();
        assert_eq!(stats.offered_packets, 0);
        assert_eq!(stats.received_flits, 0);
        assert_eq!(sim.flits_in_network(), 0);
    }

    #[test]
    fn single_router_sibling_traffic() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let mut sim = Simulator::new(&g, small_config(0.3)).unwrap();
        sim.open_measurement_window();
        sim.run(2_000);
        let stats = sim.stats();
        assert!(stats.received_packets > 0, "sibling endpoints must exchange traffic");
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gen::grid(3, 3);
        let run = || {
            let mut sim = Simulator::new(&g, small_config(0.15)).unwrap();
            sim.run(300);
            sim.open_measurement_window();
            sim.run(1_500);
            sim.stats()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn channel_loads_concentrate_on_the_bisection() {
        // 2x4 grid: the two middle column-crossing links carry the most
        // traffic under uniform random load.
        let g = gen::grid(2, 4);
        let mut sim = Simulator::new(&g, small_config(0.1)).unwrap();
        sim.run(8_000);
        let loads = sim.channel_loads();
        assert_eq!(loads.len(), 2 * g.num_edges());
        let load_of = |a: usize, b: usize| -> u64 {
            loads
                .iter()
                .filter(|&&(s, d, _)| (s, d) == (a, b) || (s, d) == (b, a))
                .map(|&(_, _, c)| c)
                .sum()
        };
        // Vertices: row-major, cols 0..4. Bisection edges: (1,2) and (5,6).
        let bisection = load_of(1, 2) + load_of(5, 6);
        let edge_links = load_of(0, 1) + load_of(4, 5);
        assert!(bisection > edge_links, "bisection {bisection} !> outer {edge_links}");
    }

    #[test]
    fn source_queue_cap_refuses_packets() {
        // Rate 1.0 into a 2-packet source queue: the full queue refuses
        // packets, which count as offered but not accepted.
        let g = gen::grid(2, 2);
        let cfg = SimConfig { source_queue_cap: 2, ..small_config(1.0) };
        let mut sim = Simulator::new(&g, cfg).unwrap();
        sim.open_measurement_window();
        sim.run(2_000);
        let stats = sim.stats();
        assert!(stats.accepted_packets > 0);
        assert!(
            stats.offered_packets > stats.accepted_packets,
            "offered {} !> accepted {}",
            stats.offered_packets,
            stats.accepted_packets
        );
    }

    #[test]
    fn latency_recorded_on_tail_only_inside_window() {
        let g = gen::grid(2, 2);
        let mut sim = Simulator::new(&g, small_config(0.0)).unwrap();
        sim.set_delivery_log(true);
        let mut deliveries = Vec::new();
        // Created before the window opens: received inside it, not measured.
        sim.offer_packet(0, 3, 4).expect("queue has room");
        sim.run(2);
        sim.open_measurement_window();
        assert!(sim.drain(1_000));
        let stats = sim.stats();
        assert_eq!((stats.received_packets, stats.received_flits), (1, 4));
        assert_eq!((stats.offered_packets, stats.accepted_packets), (0, 0));
        assert_eq!(stats.measured_packets, 0);
        assert_eq!(sim.latency_percentiles(&[0.5]), [None]);
        sim.take_deliveries(&mut deliveries);
        // Created inside the window: measured with its exact latency.
        let created = sim.cycle();
        let id = sim.offer_packet(0, 3, 4).expect("queue has room");
        assert!(sim.drain(1_000));
        sim.take_deliveries(&mut deliveries);
        assert_eq!(deliveries.len(), 2);
        assert_eq!(deliveries[1].packet, id);
        let latency = deliveries[1].cycle - created;
        let stats = sim.stats();
        assert_eq!((stats.received_packets, stats.received_flits), (2, 8));
        assert_eq!((stats.offered_packets, stats.accepted_packets), (1, 1));
        assert_eq!(stats.measured_packets, 1);
        assert_eq!(stats.avg_packet_latency, Some(latency as f64));
        assert_eq!(stats.max_packet_latency, latency);
        assert_eq!(sim.latency_percentiles(&[0.5, 1.0]), [Some(latency as f64); 2]);
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let g = gen::grid(3, 3);
        let mut sim = Simulator::new(&g, small_config(0.15)).unwrap();
        sim.run(1_000);
        sim.open_measurement_window();
        sim.run(6_000);
        let ps = sim.latency_percentiles(&[0.50, 0.95, 0.99]);
        let [p50, p95, p99] = [0, 1, 2].map(|i| ps[i].unwrap());
        let stats = sim.stats();
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p99 <= stats.max_packet_latency as f64);
        // Median within a factor of the mean at moderate load.
        let mean = stats.avg_packet_latency.unwrap();
        assert!(p50 < 2.0 * mean && p50 > 0.3 * mean, "p50 {p50} vs mean {mean}");
    }

    #[test]
    fn latency_percentile_none_without_samples() {
        let g = gen::grid(2, 2);
        let mut sim = Simulator::new(&g, small_config(0.0)).unwrap();
        sim.open_measurement_window();
        sim.run(100);
        assert_eq!(sim.latency_percentiles(&[0.5, 0.99]), [None, None]);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn latency_percentile_rejects_zero() {
        let g = gen::grid(2, 2);
        let sim = Simulator::new(&g, small_config(0.1)).unwrap();
        let _ = sim.latency_percentiles(&[0.5, 0.0]);
    }

    #[test]
    fn percentile_histogram_empty_yields_all_none() {
        let merged = vec![0u64; 16];
        assert_eq!(percentiles_from_histogram(&[0.01, 0.5, 0.99, 1.0], &merged), vec![None; 4]);
        // No requested percentiles is fine too.
        assert_eq!(percentiles_from_histogram(&[], &merged), Vec::<Option<f64>>::new());
    }

    #[test]
    fn percentile_histogram_single_sample_answers_every_p() {
        // One sample at latency 7: every percentile in (0, 1] is 7.
        let mut merged = vec![0u64; 16];
        merged[7] = 1;
        let out = percentiles_from_histogram(&[0.001, 0.5, 1.0], &merged);
        assert_eq!(out, vec![Some(7.0); 3]);
    }

    #[test]
    fn percentile_histogram_p_one_is_the_maximum() {
        // p = 1.0 must land on the largest observed latency, and rounding
        // stragglers saturate instead of returning None.
        let mut merged = vec![0u64; 32];
        merged[3] = 10;
        merged[12] = 5;
        let out = percentiles_from_histogram(&[0.5, 1.0], &merged);
        assert_eq!(out[0], Some(3.0));
        assert_eq!(out[1], Some(12.0));
    }

    #[test]
    fn percentile_histogram_output_is_nan_free_and_monotone() {
        let mut merged = vec![0u64; 64];
        for (latency, count) in [(2usize, 7u64), (5, 3), (9, 1), (40, 2)] {
            merged[latency] = count;
        }
        let ps = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let out = percentiles_from_histogram(&ps, &merged);
        let values: Vec<f64> = out.iter().map(|v| v.expect("total > 0")).collect();
        assert!(values.iter().all(|v| v.is_finite()), "{values:?}");
        assert!(values.windows(2).all(|w| w[0] <= w[1]), "not monotone: {values:?}");
    }

    #[test]
    fn heterogeneous_latency_shows_up_in_packet_latency() {
        // Two-router line with slow vs. fast links: average latency tracks
        // the link latency.
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let latency_with = |link_cycles: u64| -> f64 {
            let cfg = SimConfig { pattern: TrafficPattern::Complement, ..small_config(0.05) };
            let mut sim = Simulator::with_link_specs(&g, cfg, |_, _| LinkSpec {
                latency: link_cycles,
                interval: 1,
            })
            .unwrap();
            sim.run(1_000);
            sim.open_measurement_window();
            sim.run(6_000);
            sim.drain(20_000);
            sim.stats().avg_packet_latency.unwrap()
        };
        let fast = latency_with(5);
        let slow = latency_with(55);
        // Complement traffic (2 endpoints/router) keeps half the pairs
        // local; crossing pairs add exactly the extra wire cycles.
        assert!(slow > fast + 20.0, "slow {slow} vs fast {fast}");
    }

    #[test]
    fn serialized_link_caps_throughput() {
        // Two routers, all traffic crossing the single link. Short 5-cycle
        // wires keep the credit loop from binding first; with interval 8 the
        // wire sustains 1/8 flit per cycle in each direction, shared by two
        // endpoints → 1/16 flit/cycle/endpoint at best.
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let cfg = SimConfig {
            pattern: TrafficPattern::Complement,
            link_latency: 5,
            injection_rate: 0.9,
            ..small_config(0.9)
        };
        let mut sim =
            Simulator::with_link_specs(&g, cfg, |_, _| LinkSpec { latency: 5, interval: 8 })
                .unwrap();
        sim.run(4_000);
        sim.open_measurement_window();
        sim.run(12_000);
        let stats = sim.stats();
        let per_endpoint = stats.accepted_flits_per_cycle_per_endpoint;
        assert!(per_endpoint <= 0.0626, "throughput {per_endpoint} above serialized cap");
        assert!(per_endpoint > 0.04, "throughput {per_endpoint} suspiciously low");
        // The same setup with full-bandwidth links must push much more.
        let mut fast = Simulator::new(&g, cfg).unwrap();
        fast.run(4_000);
        fast.open_measurement_window();
        fast.run(12_000);
        let fast_tp = fast.stats().accepted_flits_per_cycle_per_endpoint;
        assert!(fast_tp > 2.0 * per_endpoint, "fast {fast_tp} vs serialized {per_endpoint}");
    }

    #[test]
    fn saturated_serialized_links_stay_within_their_reserved_bounds() {
        // Interval-3 wires queue flits behind one another, so their lines
        // fill toward the credit bound (8 × 8 = 64 here) rather than the
        // latency bound (27 + 3 + 1 = 31). At rate 1.0 from construction
        // every line runs at its worst case; debug builds assert each push
        // against the line's bound, and no buffer grows past what
        // construction reserved.
        let g = gen::grid(4, 4);
        let cfg = SimConfig { vcs: 8, buffer_depth: 8, ..small_config(1.0) };
        let mut sim =
            Simulator::with_link_specs(&g, cfg, |_, _| LinkSpec { latency: 27, interval: 3 })
                .unwrap();
        let reserved = sim.heap_bytes();
        sim.open_measurement_window();
        sim.run(6_000);
        let stats = sim.stats();
        assert!(stats.offered_packets > stats.accepted_packets, "the network saturated");
        assert!(stats.received_packets > 0);
        assert_eq!(sim.heap_bytes(), reserved, "a buffer grew past its reservation");
    }

    #[test]
    fn invalid_link_specs_rejected() {
        let g = gen::grid(2, 2);
        let cfg = small_config(0.1);
        let zero_latency =
            Simulator::with_link_specs(&g, cfg, |_, _| LinkSpec { latency: 0, interval: 1 });
        assert!(matches!(zero_latency, Err(SimError::InvalidConfig(_))));
        let zero_interval =
            Simulator::with_link_specs(&g, cfg, |_, _| LinkSpec { latency: 27, interval: 0 });
        assert!(matches!(zero_interval, Err(SimError::InvalidConfig(_))));
    }

    #[test]
    fn new_traffic_patterns_deliver_packets() {
        let g = gen::grid(3, 3);
        for pattern in [
            TrafficPattern::BitComplement,
            TrafficPattern::BitReverse,
            TrafficPattern::Tornado,
            TrafficPattern::Hotspot { num_hotspots: 2, fraction_permille: 600 },
        ] {
            let cfg = SimConfig { pattern, ..small_config(0.05) };
            let mut sim = Simulator::new(&g, cfg).unwrap();
            sim.run(1_000);
            sim.open_measurement_window();
            sim.run(5_000);
            let stats = sim.stats();
            assert!(stats.received_packets > 0, "{pattern:?} delivered nothing");
            assert!(!sim.deadlock_suspected(), "{pattern:?} deadlocked");
        }
    }

    #[test]
    fn onoff_process_delivers_packets() {
        let g = gen::grid(2, 2);
        let cfg = SimConfig {
            process: ProcessKind::OnOff { alpha: 0.02, beta: 0.05 },
            ..small_config(0.1)
        };
        let mut sim = Simulator::new(&g, cfg).unwrap();
        sim.run(1_000);
        sim.open_measurement_window();
        sim.run(8_000);
        let stats = sim.stats();
        assert!(stats.received_packets > 0);
        // Long-run offered rate stays near the configured one.
        let ratio = stats.offered_flits_per_cycle_per_endpoint / 0.1;
        assert!((0.6..=1.4).contains(&ratio), "offered ratio {ratio}");
    }

    #[test]
    fn accepted_tracks_offered_below_saturation() {
        let g = gen::grid(3, 3);
        let mut sim = Simulator::new(&g, small_config(0.05)).unwrap();
        sim.run(2_000);
        sim.open_measurement_window();
        sim.run(8_000);
        let stats = sim.stats();
        let ratio = stats.accepted_flits_per_cycle_per_endpoint
            / stats.offered_flits_per_cycle_per_endpoint;
        assert!(ratio > 0.9, "accepted/offered {ratio} too low at light load");
    }
}
