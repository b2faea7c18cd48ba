//! Input-queued virtual-channel router.
//!
//! Microarchitecture (per §VI-A of the paper, matching the BookSim2
//! configuration used there):
//!
//! * per-input-port virtual channels with fixed-depth flit buffers,
//! * credit-based flow control toward every downstream buffer,
//! * per-packet VC allocation (wormhole switching: the head flit routes and
//!   allocates; body flits inherit the allocation; the tail releases it),
//! * separable input-first switch allocation with round-robin arbiters,
//! * a configurable pipeline latency applied to every traversing flit (the
//!   simulator schedules it, from [`crate::SimConfig::pipeline_cycles`]).
//!
//! The router never drops flits; credits make buffer overflow impossible and
//! an assertion enforces it.

use crate::channel::Credit;
use crate::flit::{Flit, PacketId, RouterId, VcId};
use crate::heap::HeapBytes;
use crate::rmodel::{OutputArbPolicy, RouterModel, VcAllocPolicy};
use crate::routing::{RoutingKind, RoutingTables};

/// Static router parameters shared by the whole network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterParams {
    /// Virtual channels per port.
    pub vcs: usize,
    /// Buffer depth (flits) per virtual channel.
    pub buffer_depth: usize,
    /// Microarchitecture policies (see [`crate::rmodel`]).
    pub model: RouterModel,
    /// Run seed; each router derives its own deterministic policy-RNG
    /// stream from it (only the [`VcAllocPolicy::Random`] model draws).
    pub seed: u64,
}

/// A flit leaving the router this cycle through `out_port`.
#[derive(Debug, Clone, Copy)]
pub struct SentFlit {
    /// Output port the flit leaves through.
    pub out_port: usize,
    /// The flit itself (with its next-hop VC already assigned).
    pub flit: Flit,
}

/// A credit to return upstream through `in_port`.
#[derive(Debug, Clone, Copy)]
pub struct SentCredit {
    /// Input port whose upstream sender receives the credit.
    pub in_port: usize,
    /// The credit (carries the freed VC).
    pub credit: Credit,
}

/// Per-input-VC state.
#[derive(Debug, Clone)]
struct InputVc {
    buffer: std::collections::VecDeque<Flit>,
    /// Output (port, vc) held by the packet currently at the head.
    bound: Option<(usize, VcId)>,
    /// Id of the packet holding the binding. Kept alongside `bound` so
    /// fault handling can identify the owning packet even when the VC is
    /// momentarily empty (all its flits already forwarded downstream).
    bound_packet: Option<PacketId>,
    /// The bound packet committed to the escape network at this hop.
    escape_committed: bool,
}

impl InputVc {
    /// An empty VC whose buffer holds no capacity yet: only the simulator
    /// stepping the router reserves it ([`Router::reserve_buffers`]).
    fn new() -> Self {
        Self {
            buffer: std::collections::VecDeque::new(),
            bound: None,
            bound_packet: None,
            escape_committed: false,
        }
    }
}

/// Per-output-VC state.
#[derive(Debug, Clone)]
struct OutputVc {
    credits: usize,
    /// Input (port, vc) currently holding this output VC, if any.
    owner: Option<(usize, VcId)>,
}

/// One row of [`Router::occupancy_report`]: `(in_port, vc,
/// buffered_flits, bound_output, escape_committed, head_dest)`.
pub type OccupancyEntry = (usize, VcId, usize, Option<(usize, VcId)>, bool, Option<usize>);

/// Routing context the simulator passes into the allocation phases.
#[derive(Debug, Clone, Copy)]
pub struct RouteContext<'a> {
    /// Shared routing tables.
    pub tables: &'a RoutingTables,
    /// Endpoints attached to every router.
    pub endpoints_per_router: usize,
}

impl RouteContext<'_> {
    /// Router that hosts endpoint `e`.
    #[must_use]
    pub fn router_of(&self, e: usize) -> RouterId {
        e / self.endpoints_per_router
    }
}

/// A switch-allocation nominee: input (port, vc) bound to output
/// (port, vc), plus the head flit's creation cycle so age-based output
/// arbitration can rank nominees without touching the buffers again.
#[derive(Debug, Clone, Copy)]
struct Nominee {
    in_port: u32,
    vc: u32,
    out_port: u32,
    out_vc: u32,
    age: u64,
}

/// Cumulative stall-cause counters, maintained since construction.
///
/// Diagnostic only: probes read them, nothing feeds them back into
/// [`crate::NetworkStats`], so attaching a probe cannot perturb reported
/// results. Each counter is a plain integer increment on a path the
/// allocator already walks, keeping the hot path allocation-free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct StallCounters {
    /// Head flits that found no allocatable output VC during VC
    /// allocation (every candidate port's VCs owned or credit-less).
    pub vc_starved: u64,
    /// Bound input VCs with buffered flits passed over during switch
    /// allocation because their bound output VC held zero credits.
    pub credit_starved: u64,
    /// Switch-allocation nominees that lost output-port arbitration to
    /// another input this cycle.
    pub switch_lost: u64,
}

impl StallCounters {
    /// Field-wise sum (used to aggregate across routers and shards).
    pub fn absorb(&mut self, other: Self) {
        self.vc_starved += other.vc_starved;
        self.credit_starved += other.credit_starved;
        self.switch_lost += other.switch_lost;
    }
}

/// Allocation state of one port, in both of its roles: as an input (the
/// heads it holds that await VC allocation, its switch-allocation
/// candidates and VC pointer) and as an output (its allocatable VCs and
/// its input-port pointer). One flat vector of these per router keeps the
/// receive paths on a single heap block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PortState {
    /// Output role: bit `v` is set while output VC `v` is unowned and holds
    /// at least one credit, i.e. a head could bind it.
    free_vcs: u64,
    /// Input role: bit `v` is set while input VC `v` is non-empty and
    /// unbound, i.e. its head flit awaits VC allocation.
    waiting: u64,
    /// Output role: switch-allocation round-robin pointer over input ports.
    sa_in_rr: u32,
    /// Input role: switch-allocation round-robin pointer over this port's
    /// VCs.
    sa_vc_rr: u16,
    /// Input role: bound input VCs holding at least one flit (switch
    /// allocation candidates before the credit check).
    sa_candidates: u16,
}

/// An input-queued VC router.
///
/// Input and output VC state is stored flat (`port * vcs + vc`) for cache
/// locality. Per-port bitmasks and counts (`PortState`) and two router
/// fields let the allocation phases skip work that cannot do anything:
///
/// * `unbound_heads` counts the heads awaiting VC allocation: VC
///   allocation exits immediately at zero, and otherwise visits only the
///   set bits of the `waiting` masks.
/// * `va_dirty` records whether anything that can let a head bind has
///   happened since the last full VC-allocation pass: a credit reaching an
///   unowned output VC, a tail releasing an output VC that still holds a
///   credit, a new head (a flit landing in an empty unbound VC, or the one
///   behind a departed tail) or a fault purge. Without one, every waiting
///   head failed in that pass against at least the VCs free now — binding
///   and sending only shrink the allocatable set — so it fails again under
///   every routing kind and VC policy, and the pass reduces to its side
///   effects: one round-robin step and one `vc_starved` per waiting head
///   (a failing head never draws from the policy RNG).
#[derive(Debug, Clone)]
pub struct Router {
    id: RouterId,
    params: RouterParams,
    num_net_ports: usize,
    num_ports: usize,
    inputs: Vec<InputVc>,
    outputs: Vec<OutputVc>,
    ports: Vec<PortState>,
    /// VC-allocation round-robin start offset over `port * vcs + vc`.
    va_rr: usize,
    /// Flits currently buffered across all input VCs (incremental; the
    /// active-set scheduler polls this every cycle).
    buffered: usize,
    /// Input VCs that are non-empty and unbound (the set bits of every
    /// port's `waiting` mask).
    unbound_heads: usize,
    /// Something may let a waiting head bind since the last full
    /// VC-allocation pass (see the type docs).
    va_dirty: bool,
    /// Switch-allocation scratch (reused every cycle so the steady-state
    /// hot path never allocates).
    nominees: Vec<Nominee>,
    /// Cumulative stall-cause tallies (observability only).
    stalls: StallCounters,
    /// Policy-RNG state (splitmix64); a per-router stream derived from
    /// the run seed. Only [`VcAllocPolicy::Random`] draws from it, and
    /// only while a head awaits allocation, so the draw sequence is a
    /// pure function of router state — identical under event-driven,
    /// reference, and sharded stepping.
    rng: u64,
}

/// Indices of the set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

impl Router {
    /// Creates a router with `num_net_ports` network ports followed by
    /// `num_endpoint_ports` injection/ejection ports.
    ///
    /// Output credits start at `buffer_depth` for every output VC (paired
    /// buffers are sized identically network-wide).
    ///
    /// # Panics
    ///
    /// Panics unless `params.vcs` is within `1..=64` (one bit per VC in the
    /// per-port masks; [`crate::SimConfig::validate`] enforces the same
    /// range).
    #[must_use]
    pub fn new(
        id: RouterId,
        num_net_ports: usize,
        num_endpoint_ports: usize,
        params: RouterParams,
    ) -> Self {
        assert!((1..=64).contains(&params.vcs), "a router needs 1 to 64 VCs per port");
        let num_ports = num_net_ports + num_endpoint_ports;
        let inputs = (0..num_ports * params.vcs).map(|_| InputVc::new()).collect();
        let outputs = (0..num_ports * params.vcs)
            .map(|_| OutputVc { credits: params.buffer_depth, owner: None })
            .collect();
        let all_vcs = u64::MAX >> (64 - params.vcs);
        let port = PortState {
            free_vcs: if params.buffer_depth > 0 { all_vcs } else { 0 },
            waiting: 0,
            sa_in_rr: 0,
            sa_vc_rr: 0,
            sa_candidates: 0,
        };
        Self {
            id,
            params,
            num_net_ports,
            num_ports,
            inputs,
            outputs,
            ports: vec![port; num_ports],
            va_rr: 0,
            buffered: 0,
            unbound_heads: 0,
            va_dirty: false,
            nominees: Vec::with_capacity(num_ports),
            stalls: StallCounters::default(),
            rng: params.seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// One splitmix64 draw from the router's policy-RNG stream.
    fn next_rand(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Reserves every input VC's buffer to the buffer depth, a hard bound
    /// (credits enforce it), so receiving and traversal never allocate.
    /// The simulator calls this once, at construction, for each router it
    /// steps; a shard leaves the routers it does not own empty.
    pub(crate) fn reserve_buffers(&mut self) {
        for vc in &mut self.inputs {
            vc.buffer.reserve_exact(self.params.buffer_depth);
        }
    }

    /// Heap bytes the router holds: its VC and port state, its switch
    /// scratch and every input buffer's capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        let buffers: usize = self.inputs.iter().map(|vc| vc.buffer.heap_bytes()).sum();
        self.inputs.heap_bytes()
            + buffers
            + self.outputs.heap_bytes()
            + self.ports.heap_bytes()
            + self.nominees.heap_bytes()
    }

    /// Number of network (router-to-router) ports.
    #[must_use]
    pub fn num_net_ports(&self) -> usize {
        self.num_net_ports
    }

    /// Total ports (network + endpoint).
    #[must_use]
    pub fn num_ports(&self) -> usize {
        self.num_ports
    }

    /// Ejection/injection port index for local endpoint slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a valid local endpoint slot.
    #[must_use]
    pub fn endpoint_port(&self, slot: usize) -> usize {
        let port = self.num_net_ports + slot;
        assert!(port < self.num_ports, "endpoint slot {slot} out of range");
        port
    }

    /// Accepts a flit arriving on `in_port`.
    ///
    /// # Panics
    ///
    /// Panics if the VC buffer would overflow — credits upstream must make
    /// this impossible, so an overflow is a flow-control bug.
    pub fn receive_flit(&mut self, in_port: usize, flit: Flit) {
        let vc = usize::from(flit.vc);
        let idx = in_port * self.params.vcs + vc;
        assert!(
            self.inputs[idx].buffer.len() < self.params.buffer_depth,
            "router {} port {in_port} vc {} buffer overflow",
            self.id,
            flit.vc
        );
        if self.inputs[idx].buffer.is_empty() {
            if self.inputs[idx].bound.is_some() {
                self.ports[in_port].sa_candidates += 1;
            } else {
                self.ports[in_port].waiting |= 1 << vc;
                self.unbound_heads += 1;
                self.va_dirty = true;
            }
        }
        self.inputs[idx].buffer.push_back(flit);
        self.buffered += 1;
    }

    /// Accepts a credit for `out_port`.
    ///
    /// # Panics
    ///
    /// Panics if credits would exceed the downstream buffer depth.
    pub fn receive_credit(&mut self, out_port: usize, credit: Credit) {
        let out = &mut self.outputs[out_port * self.params.vcs + credit.vc];
        out.credits += 1;
        assert!(
            out.credits <= self.params.buffer_depth,
            "router {} port {out_port} vc {} credit overflow",
            self.id,
            credit.vc
        );
        if out.owner.is_none() {
            // Only the first credit makes the VC allocatable. Testing for
            // it keeps the common light-load credit, which lands on a VC
            // that already has credits, off the port state.
            if out.credits == 1 {
                self.ports[out_port].free_vcs |= 1 << credit.vc;
            }
            self.va_dirty = true;
        }
    }

    /// Virtual-channel allocation: every input VC whose head flit is a
    /// packet head without an output binding tries to claim an output VC,
    /// in round-robin order from `va_rr`.
    ///
    /// Exits immediately when no head awaits a binding (the common steady
    /// state for a busy router streaming body flits), costs O(1) when no
    /// waiting head can bind (see [`Router`]), and otherwise visits only
    /// the waiting heads.
    pub fn allocate_vcs(&mut self, ctx: RouteContext<'_>) {
        if self.unbound_heads == 0 {
            return;
        }
        let vcs = self.params.vcs;
        let start = self.va_rr;
        self.va_rr += 1;
        if self.va_rr == self.num_ports * vcs {
            self.va_rr = 0;
        }
        if !self.va_dirty {
            self.stalls.vc_starved += self.unbound_heads as u64;
            return;
        }
        self.va_dirty = false;
        // Cyclic order over `port * vcs + vc` from `start`: the start
        // port's VCs from `start_vc` up, the following ports, the ports
        // before it, then the start port's VCs below `start_vc`.
        let (start_port, start_vc) = (start / vcs, start % vcs);
        let upper = u64::MAX << start_vc;
        self.allocate_port_vcs(ctx, start_port, upper);
        for port in (start_port + 1..self.num_ports).chain(0..start_port) {
            self.allocate_port_vcs(ctx, port, u64::MAX);
        }
        self.allocate_port_vcs(ctx, start_port, !upper);
    }

    /// VC allocation for the waiting heads of input `port` selected by
    /// `filter`, lowest VC first.
    fn allocate_port_vcs(&mut self, ctx: RouteContext<'_>, port: usize, filter: u64) {
        let vcs = self.params.vcs;
        for vc in bits(self.ports[port].waiting & filter) {
            let idx = port * vcs + vc;
            let head = *self.inputs[idx].buffer.front().expect("a waiting VC holds a flit");
            // A packet's allocation is only released by its tail leaving,
            // so this state is a flow-control bug — abort in release too
            // rather than route corrupt state.
            assert!(head.is_head, "body flit at head of an unbound VC");
            let Some((out_port, out_vc, escape)) = self.select_output(ctx, &head) else {
                self.stalls.vc_starved += 1;
                continue;
            };
            self.outputs[out_port * vcs + out_vc].owner = Some((port, vc));
            self.ports[out_port].free_vcs &= !(1 << out_vc);
            let state = &mut self.inputs[idx];
            state.bound = Some((out_port, out_vc));
            state.bound_packet = Some(head.packet);
            state.escape_committed = escape;
            self.ports[port].waiting &= !(1 << vc);
            self.ports[port].sa_candidates += 1;
            self.unbound_heads -= 1;
        }
    }

    /// Chooses a free output (port, vc) for a head flit, or `None` to stall.
    /// Returns `(port, vc, escape_committed)`.
    ///
    /// `&mut self` only for the policy-RNG stream; the default model
    /// performs the exact pre-axis selection and never draws.
    fn select_output(
        &mut self,
        ctx: RouteContext<'_>,
        head: &Flit,
    ) -> Option<(usize, VcId, bool)> {
        let dest = head.dest as usize;
        let dest_router = ctx.router_of(dest);
        // Ejection at the destination router.
        if dest_router == self.id {
            let slot = dest % ctx.endpoints_per_router;
            let port = self.num_net_ports + slot;
            let vc = self.pick_free_vc(port, 0)?;
            return Some((port, vc, false));
        }
        let escape_port = ctx.tables.escape_port(self.id, dest_router);
        match (ctx.tables.kind(), head.escape) {
            // Already committed to the escape network: stay on it (VC 0).
            // A single credit suffices even under bubble flow control —
            // the bubble rule restricts *entry*, never progress.
            (RoutingKind::MinimalAdaptiveEscape, true) => {
                self.free_output(escape_port, 0).then_some((escape_port, 0, true))
            }
            (RoutingKind::MinimalAdaptiveEscape, false) => {
                if let Some((port, vc)) = self.pick_adaptive(ctx, dest_router) {
                    return Some((port, vc, false));
                }
                // No adaptive VC free: commit to escape if possible. Under
                // bubble flow control entry needs two free slots so the
                // escape ring always keeps a deadlock-breaking bubble.
                let need = if self.params.model.bubble_escape { 2 } else { 1 };
                let out = &self.outputs[escape_port * self.params.vcs];
                (out.owner.is_none() && out.credits >= need).then_some((escape_port, 0, true))
            }
            (RoutingKind::MinimalDeterministic, _) => {
                let port =
                    usize::from(*ctx.tables.minimal_ports(self.id, dest_router).first()?);
                let vc = self.pick_free_vc(port, 0)?;
                Some((port, vc, false))
            }
            (RoutingKind::UpDownOnly, _) => {
                let vc = self.pick_free_vc(escape_port, 0)?;
                Some((escape_port, vc, false))
            }
        }
    }

    /// Adaptive output selection among the minimal ports' VCs `1..`,
    /// dispatched on the model's VC-allocation policy.
    fn pick_adaptive(
        &mut self,
        ctx: RouteContext<'_>,
        dest_router: usize,
    ) -> Option<(usize, VcId)> {
        let vcs = self.params.vcs;
        match self.params.model.vc_alloc {
            // The paper's allocator: the (port, vc) with the most
            // downstream credits, first-found port winning ties.
            VcAllocPolicy::RoundRobin => {
                let mut best: Option<(usize, VcId, usize)> = None;
                for &p in ctx.tables.minimal_ports(self.id, dest_router) {
                    let port = usize::from(p);
                    if let Some(vc) = self.best_free_vc(port, 1) {
                        let credits = self.outputs[port * vcs + vc].credits;
                        if best.is_none_or(|(_, _, c)| credits > c) {
                            best = Some((port, vc, credits));
                        }
                    }
                }
                best.map(|(port, vc, _)| (port, vc))
            }
            // Uniform-random among all allocatable (port, vc) pairs, by
            // reservoir sampling (one draw per candidate — a pure
            // function of router state, so stepping-mode independent).
            VcAllocPolicy::Random => {
                let mut chosen: Option<(usize, VcId)> = None;
                let mut seen: u64 = 0;
                for &p in ctx.tables.minimal_ports(self.id, dest_router) {
                    let port = usize::from(p);
                    for v in bits(self.ports[port].free_vcs & !1) {
                        seen += 1;
                        if self.next_rand().is_multiple_of(seen) {
                            chosen = Some((port, v));
                        }
                    }
                }
                chosen
            }
            // Occupancy-aware: the minimal port with the most total free
            // credits across its adaptive VCs (the least-loaded
            // direction), first-found winning ties; best VC within it.
            VcAllocPolicy::LeastLoaded => {
                let mut best: Option<(usize, usize)> = None;
                for &p in ctx.tables.minimal_ports(self.id, dest_router) {
                    let port = usize::from(p);
                    let free_vcs = self.ports[port].free_vcs & !1;
                    if free_vcs == 0 {
                        continue;
                    }
                    // Owned and credit-less VCs would add nothing here.
                    let free: usize =
                        bits(free_vcs).map(|v| self.outputs[port * vcs + v].credits).sum();
                    if best.is_none_or(|(_, f)| free > f) {
                        best = Some((port, free));
                    }
                }
                let (port, _) = best?;
                self.best_free_vc(port, 1).map(|vc| (port, vc))
            }
        }
    }

    /// Policy-dispatched free-VC choice on one port: the default and
    /// least-loaded models take the most-credits VC; the random model
    /// draws uniformly among the allocatable ones.
    fn pick_free_vc(&mut self, port: usize, min_vc: usize) -> Option<VcId> {
        match self.params.model.vc_alloc {
            VcAllocPolicy::RoundRobin | VcAllocPolicy::LeastLoaded => {
                self.best_free_vc(port, min_vc)
            }
            VcAllocPolicy::Random => {
                let mut chosen = None;
                let mut seen: u64 = 0;
                for v in bits(self.ports[port].free_vcs & (u64::MAX << min_vc)) {
                    seen += 1;
                    if self.next_rand().is_multiple_of(seen) {
                        chosen = Some(v);
                    }
                }
                chosen
            }
        }
    }

    /// Allocatable output VC on `port` with the most credits, searching
    /// VCs `min_vc..`; the highest such VC wins a tie.
    ///
    /// An output VC is allocatable only when it is unowned **and** holds at
    /// least one credit. Binding a header to a channel whose downstream
    /// buffer is full would anchor the packet to a channel it cannot enter
    /// while `bound.is_some()` suppresses any further allocation — the
    /// header would never again reach the decision point where the escape
    /// VC is offered, voiding Duato's waiting condition. The conservation
    /// property tests caught exactly that: a 4-packet credit cycle over
    /// zero-credit adaptive bindings, deadlocked despite the escape layer.
    fn best_free_vc(&self, port: usize, min_vc: usize) -> Option<VcId> {
        let base = port * self.params.vcs;
        bits(self.ports[port].free_vcs & (u64::MAX << min_vc))
            .max_by_key(|&v| self.outputs[base + v].credits)
    }

    fn free_output(&self, port: usize, vc: VcId) -> bool {
        self.ports[port].free_vcs >> vc & 1 == 1
    }

    /// Diagnostic snapshot of every non-empty input VC: `(in_port, vc,
    /// buffered_flits, bound_output, escape_committed, head_dest)`. Used by
    /// [`crate::Simulator::blocked_packet_report`] to explain stalls.
    #[must_use]
    pub fn occupancy_report(&self) -> Vec<OccupancyEntry> {
        let mut out = Vec::new();
        for (idx, state) in self.inputs.iter().enumerate() {
            if state.buffer.is_empty() && state.bound.is_none() {
                continue;
            }
            out.push((
                idx / self.params.vcs,
                idx % self.params.vcs,
                state.buffer.len(),
                state.bound,
                state.escape_committed,
                state.buffer.front().map(|f| f.dest as usize),
            ));
        }
        out
    }

    /// Diagnostic snapshot of owned output VCs: `(out_port, vc, credits,
    /// owner_input)`.
    #[must_use]
    pub fn output_report(&self) -> Vec<(usize, VcId, usize, (usize, VcId))> {
        let mut out = Vec::new();
        for (idx, state) in self.outputs.iter().enumerate() {
            if let Some(owner) = state.owner {
                out.push((idx / self.params.vcs, idx % self.params.vcs, state.credits, owner));
            }
        }
        out
    }

    /// Switch allocation and traversal: up to one flit leaves per output
    /// port (and per input port) per cycle. The flits sent and the credits
    /// to return upstream are appended to the cleared out-params — callers
    /// own (and reuse) those buffers, and the router reuses its own
    /// nomination/grant scratch, so the steady-state hot path is
    /// allocation-free.
    pub fn allocate_switch(&mut self, sent: &mut Vec<SentFlit>, credits: &mut Vec<SentCredit>) {
        self.debug_check_counters();
        sent.clear();
        credits.clear();
        let vcs = self.params.vcs;

        // Phase 1 (input arbitration): each input port nominates one VC —
        // ports without a bound, non-empty VC are skipped outright.
        self.nominees.clear();
        for port in 0..self.num_ports {
            if self.ports[port].sa_candidates == 0 {
                continue;
            }
            let mut vc = usize::from(self.ports[port].sa_vc_rr);
            for _ in 0..vcs {
                let ivc = &self.inputs[port * vcs + vc];
                if let Some((out_port, out_vc)) = ivc.bound {
                    if let Some(front) = ivc.buffer.front() {
                        if self.outputs[out_port * vcs + out_vc].credits > 0 {
                            self.nominees.push(Nominee {
                                in_port: port as u32,
                                vc: vc as u32,
                                out_port: out_port as u32,
                                out_vc: out_vc as u32,
                                age: front.created_at,
                            });
                            break;
                        }
                        self.stalls.credit_starved += 1;
                    }
                }
                vc += 1;
                if vc == vcs {
                    vc = 0;
                }
            }
        }

        // Phase 2 (output arbitration) + traversal, per nominated output
        // port: grant the nominee closest to the port's round-robin
        // pointer and move its flit. Only nominated ports are visited —
        // the old all-ports × all-inputs scan did the same grants.
        let mut granted = 0;
        for i in 0..self.nominees.len() {
            let op = self.nominees[i].out_port;
            if self.nominees[..i].iter().any(|n| n.out_port == op) {
                continue; // this output port was already arbitrated
            }
            granted += 1;
            let out_port = op as usize;
            let start = self.ports[out_port].sa_in_rr as usize;
            let p = self.num_ports;
            // Policy-dispatched grant: minimise a per-nominee rank key.
            // Round-robin ranks by distance from the port's pointer;
            // oldest-first by head-flit age (input port breaks ties);
            // transit-first by input class (network beats injection),
            // round-robin within each class.
            let arb = self.params.model.output_arb;
            let net_ports = self.num_net_ports;
            let mut best = ((u64::MAX, usize::MAX), i);
            for (j, n) in self.nominees.iter().enumerate() {
                if n.out_port != op {
                    continue;
                }
                let in_port = n.in_port as usize;
                let rank = (in_port + p - start) % p;
                let key = match arb {
                    OutputArbPolicy::RoundRobin => (rank as u64, in_port),
                    OutputArbPolicy::OldestFirst => (n.age, in_port),
                    OutputArbPolicy::TransitFirst => (u64::from(in_port >= net_ports), rank),
                };
                if key < best.0 {
                    best = (key, j);
                }
            }
            let n = self.nominees[best.1];
            self.ports[out_port].sa_in_rr = (n.in_port + 1) % p as u32;

            // Traversal: move the granted flit.
            let (in_port, vc) = (n.in_port as usize, n.vc as usize);
            let (out_vc, out_idx) = (n.out_vc as usize, out_port * vcs + n.out_vc as usize);
            let in_idx = in_port * vcs + vc;
            let escape = self.inputs[in_idx].escape_committed;
            let mut flit =
                self.inputs[in_idx].buffer.pop_front().expect("granted VC non-empty");
            self.buffered -= 1;
            self.ports[in_port].sa_vc_rr = if vc + 1 == vcs { 0 } else { vc as u16 + 1 };

            // Rewrite per-hop flit fields.
            let in_vc = usize::from(flit.vc);
            flit.vc = out_vc as u8;
            flit.escape = escape;
            let out = &mut self.outputs[out_idx];
            out.credits -= 1;
            if flit.is_tail {
                out.owner = None;
                if out.credits > 0 {
                    self.ports[out_port].free_vcs |= 1 << out_vc;
                    self.va_dirty = true;
                }
                self.inputs[in_idx].bound = None;
                self.inputs[in_idx].bound_packet = None;
                self.inputs[in_idx].escape_committed = false;
                self.ports[in_port].sa_candidates -= 1;
                if !self.inputs[in_idx].buffer.is_empty() {
                    // Wormhole invariant: the flit behind a departed tail
                    // is the next packet's head, now awaiting allocation.
                    self.ports[in_port].waiting |= 1 << vc;
                    self.unbound_heads += 1;
                    self.va_dirty = true;
                }
            } else if self.inputs[in_idx].buffer.is_empty() {
                // Bound but starved mid-packet; receive_flit re-arms the
                // candidate count when the next body flit lands.
                self.ports[in_port].sa_candidates -= 1;
            }
            sent.push(SentFlit { out_port, flit });
            credits.push(SentCredit { in_port, credit: Credit { vc: in_vc } });
        }
        self.stalls.switch_lost += (self.nominees.len() - granted) as u64;
    }

    /// Debug-only audit of the incremental allocation counters and masks
    /// against a full recount.
    fn debug_check_counters(&self) {
        #[cfg(debug_assertions)]
        {
            for port in 0..self.num_ports {
                debug_assert_eq!(
                    self.ports[port],
                    self.recount_port(port),
                    "allocation state of port {port} out of sync"
                );
            }
            let heads: u32 = self.ports.iter().map(|p| p.waiting.count_ones()).sum();
            debug_assert_eq!(
                heads as usize, self.unbound_heads,
                "unbound-head counter out of sync"
            );
        }
    }

    /// Visits every flit buffered in any input VC. Fault handling uses this
    /// to seed the doomed-packet set (e.g. flits inside a dying router, or
    /// flits whose destination just became unreachable).
    pub fn for_each_flit(&self, mut f: impl FnMut(&Flit)) {
        for state in &self.inputs {
            for flit in &state.buffer {
                f(flit);
            }
        }
    }

    /// Visits `(bound_out_port, packet_id, escape_committed)` for every
    /// input VC holding an output binding. A packet severed by a dying link
    /// necessarily holds a binding onto that link's output port at the
    /// router feeding it, so this is how fault handling finds the ids of
    /// packets whose remaining flits are stranded upstream of a failure —
    /// and which packets are committed to the (about to be rebuilt)
    /// escape tree.
    pub fn for_each_bound_packet(&self, mut f: impl FnMut(usize, PacketId, bool)) {
        for state in &self.inputs {
            if let (Some((out_port, _)), Some(packet)) = (state.bound, state.bound_packet) {
                f(out_port, packet, state.escape_committed);
            }
        }
    }

    /// Fault handling: removes every buffered flit whose packet id is
    /// doomed and releases every binding (input side and output owner)
    /// held by a doomed packet, then recounts the incremental allocation
    /// counters and masks from scratch. `removed` is called with `(in_port, flit)`
    /// for each dropped flit so the simulator can return the freed buffer
    /// slot's credit to whoever holds it upstream. Returns the number of
    /// flits removed.
    pub fn purge_doomed(
        &mut self,
        mut is_doomed: impl FnMut(PacketId) -> bool,
        mut removed: impl FnMut(usize, &Flit),
    ) -> usize {
        let vcs = self.params.vcs;
        let mut count = 0;
        for idx in 0..self.inputs.len() {
            let port = idx / vcs;
            let state = &mut self.inputs[idx];
            let before = state.buffer.len();
            state.buffer.retain(|flit| {
                if is_doomed(flit.packet) {
                    removed(port, flit);
                    false
                } else {
                    true
                }
            });
            count += before - state.buffer.len();
            if let Some(packet) = state.bound_packet {
                if is_doomed(packet) {
                    let (out_port, out_vc) = state.bound.expect("bound_packet implies bound");
                    state.bound = None;
                    state.bound_packet = None;
                    state.escape_committed = false;
                    self.outputs[out_port * vcs + out_vc].owner = None;
                }
            }
        }
        self.recount_counters();
        // Released bindings free output VCs and may expose new heads. The
        // simulator also purges every router right after `fault_begin`
        // swaps in degraded routing tables, under which a head that failed
        // may now find a port: this flag covers that swap too.
        self.va_dirty = true;
        count
    }

    /// `port`'s counts and masks recomputed from the VC state; the
    /// switch-allocation pointers are copied, not recounted.
    fn recount_port(&self, port: usize) -> PortState {
        let vcs = self.params.vcs;
        let mut state =
            PortState { free_vcs: 0, waiting: 0, sa_candidates: 0, ..self.ports[port] };
        for v in 0..vcs {
            let input = &self.inputs[port * vcs + v];
            if !input.buffer.is_empty() {
                if input.bound.is_some() {
                    state.sa_candidates += 1;
                } else {
                    state.waiting |= 1 << v;
                }
            }
            let output = &self.outputs[port * vcs + v];
            if output.owner.is_none() && output.credits > 0 {
                state.free_vcs |= 1 << v;
            }
        }
        state
    }

    /// Recomputes `buffered`, `unbound_heads` and the per-port counts and
    /// masks from the VC state (the non-debug twin of
    /// [`Self::debug_check_counters`], used after a fault purge invalidates
    /// the incremental ones).
    fn recount_counters(&mut self) {
        self.buffered = self.inputs.iter().map(|s| s.buffer.len()).sum();
        self.unbound_heads = 0;
        for port in 0..self.num_ports {
            self.ports[port] = self.recount_port(port);
            self.unbound_heads += self.ports[port].waiting.count_ones() as usize;
        }
    }

    /// Total flits currently buffered (O(1): maintained incrementally on
    /// receive and traversal).
    #[must_use]
    pub fn buffered_flits(&self) -> usize {
        debug_assert_eq!(
            self.buffered,
            self.inputs.iter().map(|vc| vc.buffer.len()).sum::<usize>(),
            "incremental buffered-flit counter out of sync"
        );
        self.buffered
    }

    /// Cumulative stall-cause counters since construction (observability
    /// only; see [`StallCounters`]).
    #[must_use]
    pub fn stall_counters(&self) -> StallCounters {
        self.stalls
    }

    /// `true` while any input VC holds a flit — the router may be able to
    /// make progress and must stay on the simulator's active worklist.
    /// Quiescent routers (no buffered flits) have nothing to nominate in
    /// either allocation phase and are skipped entirely.
    #[must_use]
    pub fn has_buffered(&self) -> bool {
        self.buffered > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_graph::gen;

    fn params() -> RouterParams {
        RouterParams { vcs: 2, buffer_depth: 4, model: RouterModel::default(), seed: 0xBEEF }
    }

    fn tables(g: &chiplet_graph::Graph, kind: RoutingKind) -> RoutingTables {
        RoutingTables::new(g, kind).expect("valid topology")
    }

    fn head_flit(dest: u32, vc: u8) -> Flit {
        Flit { packet: 1, is_head: true, is_tail: true, dest, created_at: 0, vc, escape: false }
    }

    #[test]
    fn single_flit_packet_traverses() {
        // Path 0-1-2; router 1 has 2 net ports + 1 endpoint port.
        let g = gen::path(3);
        let t = tables(&g, RoutingKind::MinimalDeterministic);
        let ctx = RouteContext { tables: &t, endpoints_per_router: 1 };
        let mut r = Router::new(1, 2, 1, params());

        // Flit destined for endpoint 2 (router 2) arrives on port 0 (from 0).
        r.receive_flit(0, head_flit(2, 0));
        r.allocate_vcs(ctx);
        let (mut sent, mut credits) = (Vec::new(), Vec::new());
        r.allocate_switch(&mut sent, &mut credits);
        assert_eq!(sent.len(), 1);
        // Port 1 is the neighbour list position of router 2 in neighbors(1).
        assert_eq!(sent[0].out_port, 1);
        assert_eq!(credits.len(), 1);
        assert_eq!(credits[0].in_port, 0);
        assert!(!r.has_buffered());
    }

    #[test]
    fn ejection_at_destination_router() {
        let g = gen::path(3);
        let t = tables(&g, RoutingKind::MinimalDeterministic);
        let ctx = RouteContext { tables: &t, endpoints_per_router: 2 };
        let mut r = Router::new(1, 2, 2, params());

        // Endpoint 3 = router 1, slot 1 -> ejection port 2 + 1 = 3.
        r.receive_flit(0, head_flit(3, 1));
        r.allocate_vcs(ctx);
        let (mut sent, mut credits) = (Vec::new(), Vec::new());
        r.allocate_switch(&mut sent, &mut credits);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].out_port, 3);
    }

    #[test]
    fn credits_limit_forwarding() {
        let g = gen::path(3);
        let t = tables(&g, RoutingKind::MinimalDeterministic);
        let ctx = RouteContext { tables: &t, endpoints_per_router: 1 };
        let mut r = Router::new(1, 2, 1, params());

        // Drain all credits of the output VCs of port 1.
        let (mut sent, mut credits) = (Vec::new(), Vec::new());
        for _ in 0..4 {
            r.receive_flit(0, head_flit(2, 0));
            r.allocate_vcs(ctx);
            r.allocate_switch(&mut sent, &mut credits);
        }
        // VC 0 and VC 1 of output port 1 now hold 4 fewer credits combined;
        // keep pushing until nothing can move.
        let mut total_sent = 0;
        for _ in 0..8 {
            if r.inputs[0].buffer.len() < 4 {
                r.receive_flit(0, head_flit(2, 0));
            }
            r.allocate_vcs(ctx);
            r.allocate_switch(&mut sent, &mut credits);
            total_sent += sent.len();
        }
        // 2 VCs x 4 credits = 8 flits max through port 1 without credit
        // returns; 4 were sent in the first loop.
        assert_eq!(total_sent, 4);
        // Returning credits unblocks (the head may be bound to either VC, so
        // return one credit per VC).
        r.receive_credit(1, Credit { vc: 0 });
        r.receive_credit(1, Credit { vc: 1 });
        r.allocate_vcs(ctx);
        r.allocate_switch(&mut sent, &mut credits);
        assert_eq!(sent.len(), 1);
    }

    #[test]
    fn one_flit_per_output_port_per_cycle() {
        // Two inputs competing for the same output.
        let g = gen::path(3);
        let t = tables(&g, RoutingKind::MinimalDeterministic);
        let ctx = RouteContext { tables: &t, endpoints_per_router: 1 };
        let mut r = Router::new(1, 2, 1, params());
        // Two different packets on different VCs of port 0, same dest.
        let mut f0 = head_flit(2, 0);
        f0.packet = 10;
        let mut f1 = head_flit(2, 1);
        f1.packet = 11;
        r.receive_flit(0, f0);
        r.receive_flit(0, f1);
        r.allocate_vcs(ctx);
        let (mut sent, mut credits) = (Vec::new(), Vec::new());
        r.allocate_switch(&mut sent, &mut credits);
        assert_eq!(sent.len(), 1, "single input port sends one flit per cycle");
        r.allocate_vcs(ctx);
        r.allocate_switch(&mut sent, &mut credits);
        assert_eq!(sent.len(), 1);
    }

    #[test]
    fn tail_releases_output_vc() {
        let g = gen::path(2);
        let t = tables(&g, RoutingKind::MinimalDeterministic);
        let ctx = RouteContext { tables: &t, endpoints_per_router: 1 };
        let mut r = Router::new(0, 1, 1, params());

        // Two-flit packet destined to endpoint 1 (router 1).
        let mut head = head_flit(1, 0);
        head.is_tail = false;
        let mut tail = head;
        tail.is_head = false;
        tail.is_tail = true;

        r.receive_flit(1, head); // arrives from local endpoint port
        r.allocate_vcs(ctx);
        let (mut sent, mut credits) = (Vec::new(), Vec::new());
        r.allocate_switch(&mut sent, &mut credits);
        assert_eq!(sent.len(), 1);
        // Output VC still owned between head and tail.
        assert!(r.outputs[usize::from(sent[0].flit.vc)].owner.is_some());
        r.receive_flit(1, tail);
        r.allocate_vcs(ctx);
        r.allocate_switch(&mut sent, &mut credits);
        assert_eq!(sent.len(), 1);
        assert!(r.outputs[usize::from(sent[0].flit.vc)].owner.is_none());
        assert!(!r.has_buffered());
    }

    #[test]
    #[should_panic(expected = "buffer overflow")]
    fn buffer_overflow_asserts() {
        let mut r = Router::new(0, 1, 1, params());
        for _ in 0..5 {
            r.receive_flit(0, head_flit(1, 0));
        }
    }

    #[test]
    fn adaptive_escape_commitment_sticks() {
        // Cycle topology so escape differs from minimal sometimes.
        let g = gen::cycle(4);
        let t = tables(&g, RoutingKind::MinimalAdaptiveEscape);
        let ctx = RouteContext { tables: &t, endpoints_per_router: 1 };
        let mut r = Router::new(0, 2, 1, params());
        let mut f = head_flit(2, 0);
        f.escape = true; // already committed upstream
        r.receive_flit(2, f);
        r.allocate_vcs(ctx);
        let (mut sent, mut credits) = (Vec::new(), Vec::new());
        r.allocate_switch(&mut sent, &mut credits);
        assert_eq!(sent.len(), 1);
        assert!(sent[0].flit.escape, "escape commitment must persist");
        assert_eq!(sent[0].flit.vc, 0, "escape traffic rides VC 0");
        assert_eq!(sent[0].out_port, t.escape_port(0, 2));
    }

    #[test]
    fn purge_doomed_releases_bindings_and_recounts() {
        let g = gen::path(3);
        let t = tables(&g, RoutingKind::MinimalDeterministic);
        let ctx = RouteContext { tables: &t, endpoints_per_router: 1 };
        let mut r = Router::new(1, 2, 1, params());

        // Packet 10: two flits, head forwarded, body still buffered (binding
        // held). Packet 11: single-flit head queued behind on the same VC.
        let mut head = head_flit(2, 0);
        head.packet = 10;
        head.is_tail = false;
        let mut body = head;
        body.is_head = false;
        body.is_tail = true;
        r.receive_flit(0, head);
        r.allocate_vcs(ctx);
        let (mut sent, mut credits) = (Vec::new(), Vec::new());
        r.allocate_switch(&mut sent, &mut credits);
        assert_eq!(sent.len(), 1, "head forwarded");
        r.receive_flit(0, body);
        let mut queued = head_flit(2, 0);
        queued.packet = 11;
        r.receive_flit(0, queued);

        let mut seen = Vec::new();
        r.for_each_bound_packet(|out_port, packet, _| seen.push((out_port, packet)));
        assert_eq!(seen, [(1, 10)]);

        // Dooming packet 10 removes its body, frees the output VC, and
        // leaves packet 11's head as a fresh unbound head.
        let mut freed = Vec::new();
        assert_eq!(r.purge_doomed(|p| p == 10, |port, flit| freed.push((port, flit.vc))), 1);
        assert_eq!(freed.len(), 1);
        assert_eq!(r.buffered_flits(), 1);
        assert!(r.output_report().is_empty(), "output VC released");
        r.allocate_vcs(ctx);
        r.allocate_switch(&mut sent, &mut credits);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].flit.packet, 11);
        assert!(!r.has_buffered());
    }

    #[test]
    fn starved_head_skips_passes_until_a_vc_is_released() {
        let g = gen::path(3);
        let t = tables(&g, RoutingKind::MinimalDeterministic);
        let ctx = RouteContext { tables: &t, endpoints_per_router: 1 };
        let mut r = Router::new(1, 2, 1, params());
        let (mut sent, mut credits) = (Vec::new(), Vec::new());
        // Packets 10 and 11 send their heads toward router 2 and hold
        // both VCs of that output until their tails pass.
        for (vc, packet) in [(0, 10), (1, 11)] {
            let mut head = head_flit(2, vc);
            head.packet = packet;
            head.is_tail = false;
            r.receive_flit(0, head);
            r.allocate_vcs(ctx);
            r.allocate_switch(&mut sent, &mut credits);
            assert_eq!(sent.len(), 1);
        }
        let mut waiting = head_flit(2, 0);
        waiting.packet = 12;
        r.receive_flit(2, waiting);
        for pass in 1..=3 {
            r.allocate_vcs(ctx);
            assert!(!r.va_dirty, "a failed pass leaves nothing to retry");
            assert_eq!(r.stall_counters().vc_starved, pass, "every pass counts the stall");
            r.allocate_switch(&mut sent, &mut credits);
            assert!(sent.is_empty());
        }
        // Packet 10's tail leaves and frees its VC: the next pass binds.
        let mut tail = head_flit(2, 0);
        tail.packet = 10;
        tail.is_head = false;
        r.receive_flit(0, tail);
        r.allocate_vcs(ctx);
        r.allocate_switch(&mut sent, &mut credits);
        assert_eq!(sent.len(), 1);
        assert!(r.va_dirty, "the released VC re-arms allocation");
        r.allocate_vcs(ctx);
        assert_eq!(r.stall_counters().vc_starved, 4);
        r.allocate_switch(&mut sent, &mut credits);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].flit.packet, 12);
    }

    #[test]
    fn adaptive_prefers_non_escape_vcs() {
        let g = gen::cycle(4);
        let t = tables(&g, RoutingKind::MinimalAdaptiveEscape);
        let ctx = RouteContext { tables: &t, endpoints_per_router: 1 };
        let mut r = Router::new(0, 2, 1, params());
        r.receive_flit(2, head_flit(1, 0));
        r.allocate_vcs(ctx);
        let (mut sent, mut credits) = (Vec::new(), Vec::new());
        r.allocate_switch(&mut sent, &mut credits);
        assert_eq!(sent.len(), 1);
        assert!(!sent[0].flit.escape);
        assert!(sent[0].flit.vc >= 1, "adaptive traffic avoids the escape VC");
    }
}
