//! Packets and flow-control units (flits).

/// Unique packet identifier, assigned at generation time.
pub type PacketId = u64;

/// Index of an endpoint (terminal) in the network.
pub type EndpointId = usize;

/// Index of a router in the network.
pub type RouterId = usize;

/// Index of a virtual channel within a port.
pub type VcId = usize;

/// A packet as generated by a traffic source.
///
/// Packets are segmented into [`Flit`]s for transport; the simulator
/// reassembles them at the destination endpoint and records latency from
/// `created_at` to tail-flit arrival (BookSim2's packet latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// Source endpoint.
    pub src: EndpointId,
    /// Destination endpoint.
    pub dest: EndpointId,
    /// Length in flits (≥ 1).
    pub size_flits: usize,
    /// Cycle at which the source generated the packet (enters source queue).
    pub created_at: u64,
}

/// One flow-control unit of a packet.
///
/// Flits are small and `Copy`; routing state for the packet as a whole lives
/// in the routers' input-VC state, not in the flit (wormhole switching: only
/// the head flit routes, body flits follow their packet's allocated path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Id of the packet this flit belongs to.
    pub packet: PacketId,
    /// Position within the packet (`0` = head).
    pub index: usize,
    /// `true` for the first flit of the packet.
    pub is_head: bool,
    /// `true` for the last flit of the packet (a 1-flit packet is both).
    pub is_tail: bool,
    /// Destination endpoint (carried by every flit for ejection checks).
    pub dest: EndpointId,
    /// Cycle the packet was created (for latency accounting).
    pub created_at: u64,
    /// Virtual channel the flit currently travels on. Rewritten at each hop
    /// when the packet's VC allocation changes.
    pub vc: VcId,
    /// `true` once the packet has committed to the escape (up*/down*)
    /// sub-network; it must then stay there until ejection (Duato's
    /// conservative rule, keeps the escape network acyclic).
    pub escape: bool,
}

impl Packet {
    /// Iterates over the packet's flits, in order, without allocating —
    /// the steady-state injection path segments packets straight into the
    /// source queue through this.
    ///
    /// The initial `vc` is a placeholder; injection assigns the real one.
    pub fn flits(&self) -> impl Iterator<Item = Flit> + '_ {
        (0..self.size_flits).map(move |i| Flit {
            packet: self.id,
            index: i,
            is_head: i == 0,
            is_tail: i + 1 == self.size_flits,
            dest: self.dest,
            created_at: self.created_at,
            vc: 0,
            escape: false,
        })
    }

    /// Splits the packet into its flits, in order (allocating convenience
    /// wrapper around [`Packet::flits`]).
    #[must_use]
    pub fn to_flits(&self) -> Vec<Flit> {
        self.flits().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(size: usize) -> Packet {
        Packet { id: 7, src: 0, dest: 3, size_flits: size, created_at: 42 }
    }

    #[test]
    fn single_flit_packet_is_head_and_tail() {
        let flits = packet(1).to_flits();
        assert_eq!(flits.len(), 1);
        assert!(flits[0].is_head && flits[0].is_tail);
    }

    #[test]
    fn multi_flit_packet_structure() {
        let flits = packet(4).to_flits();
        assert_eq!(flits.len(), 4);
        assert!(flits[0].is_head && !flits[0].is_tail);
        assert!(!flits[3].is_head && flits[3].is_tail);
        assert!(flits.iter().all(|f| f.dest == 3 && f.created_at == 42));
        assert_eq!(flits.iter().map(|f| f.index).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }
}
