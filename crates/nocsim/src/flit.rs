//! Flow-control units (flits) and the ids the simulator names things by.
//!
//! A packet exists only as its flits: an endpoint segments it straight into
//! its source queue ([`crate::endpoint::Endpoint`]), and every flit carries
//! what the routers and the sink need. The head routes, body flits follow
//! their packet's allocated path, and the tail's arrival at the destination
//! endpoint completes the packet, whose latency runs from `created_at`
//! (BookSim2's packet latency).

/// Unique packet identifier, assigned at generation time.
pub type PacketId = u64;

/// Index of an endpoint (terminal) in the network.
pub type EndpointId = usize;

/// Index of a router in the network.
pub type RouterId = usize;

/// Index of a virtual channel within a port.
pub type VcId = usize;

/// One flow-control unit of a packet.
///
/// Flits are small and `Copy`; routing state for the packet as a whole lives
/// in the routers' input-VC state, not in the flit (wormhole switching: only
/// the head flit routes, body flits follow their packet's allocated path).
///
/// Flits fill every buffer and delay line, so they are kept to 24 bytes:
/// the two `u64`s, a `u32` destination (the simulator keys endpoints by
/// `u32` throughout), a `u8` VC (`SimConfig::validate` caps `vcs` at 64)
/// and the three flags in what would otherwise be padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Id of the packet this flit belongs to.
    pub packet: PacketId,
    /// Cycle the packet was created (for latency accounting).
    pub created_at: u64,
    /// Destination endpoint (carried by every flit for ejection checks).
    pub dest: u32,
    /// Virtual channel the flit currently travels on. Rewritten at each hop
    /// when the packet's VC allocation changes.
    pub vc: u8,
    /// `true` for the first flit of the packet.
    pub is_head: bool,
    /// `true` for the last flit of the packet (a 1-flit packet is both).
    pub is_tail: bool,
    /// `true` once the packet has committed to the escape (up*/down*)
    /// sub-network; it must then stay there until ejection (Duato's
    /// conservative rule, keeps the escape network acyclic).
    pub escape: bool,
}

const _: () = assert!(size_of::<Flit>() == 24);
