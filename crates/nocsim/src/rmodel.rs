//! Pluggable router microarchitectures.
//!
//! The paper fixes a single router design (§VI-A); this module turns the
//! four knobs that distinguish real NoC routers into a configuration
//! axis, [`RouterModel`]:
//!
//! * **VC allocation policy** ([`VcAllocPolicy`]) — how a head flit picks
//!   its output virtual channel: the paper's credit-greedy round-robin,
//!   a seeded uniform-random pick, or occupancy-aware "least-loaded"
//!   port selection.
//! * **Output arbitration policy** ([`OutputArbPolicy`]) — how an output
//!   port breaks ties between competing inputs: round-robin, age-based
//!   oldest-first, or in-transit-priority (network inputs beat local
//!   injection).
//! * **Bubble flow control** on the escape VC — a packet may only
//!   *enter* the escape network when its first escape buffer holds ≥ 2
//!   free slots, so one slot always stays free as a deadlock-breaking
//!   bubble and escape entry never fills the ring solid.
//! * **Crossbar pipeline depth** — extra cycles between switch
//!   allocation and link traversal, modelling deeper-pipelined (higher
//!   frequency, higher latency) switch fabrics.
//!
//! Policies dispatch through plain enum `match`es on the hot path — no
//! trait objects, no per-cycle allocation — and the default model is
//! bit-identical to the pre-axis router, which the golden fixtures pin.
//! [`RouterModelKind`] names the configurations studies sweep; its codes
//! are append-only because they fold into job seeds (see `xp::grid`).

use std::fmt;
use std::str::FromStr;

/// How a head flit picks its output virtual channel during VC
/// allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VcAllocPolicy {
    /// The paper's allocator: among allocatable VCs (and, under adaptive
    /// routing, minimal ports) take the one with the most downstream
    /// credits, first-found winning ties.
    #[default]
    RoundRobin,
    /// Uniform-random pick among the allocatable candidates, drawn from
    /// a per-router deterministic stream seeded by the run seed.
    Random,
    /// Occupancy-aware: under adaptive routing, pick the minimal port
    /// with the most *total* free credits across its adaptive VCs (the
    /// least-loaded direction), then the best VC within it.
    LeastLoaded,
}

impl VcAllocPolicy {
    /// Every policy, in code order.
    pub const ALL: [VcAllocPolicy; 3] =
        [VcAllocPolicy::RoundRobin, VcAllocPolicy::Random, VcAllocPolicy::LeastLoaded];

    /// Canonical lower-case name, as parsed by [`FromStr`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            VcAllocPolicy::RoundRobin => "roundrobin",
            VcAllocPolicy::Random => "random",
            VcAllocPolicy::LeastLoaded => "leastloaded",
        }
    }
}

impl fmt::Display for VcAllocPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for VcAllocPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "roundrobin" => Ok(VcAllocPolicy::RoundRobin),
            "random" => Ok(VcAllocPolicy::Random),
            "leastloaded" => Ok(VcAllocPolicy::LeastLoaded),
            other => Err(format!(
                "unknown vc_alloc {other:?} (expected roundrobin|random|leastloaded)"
            )),
        }
    }
}

/// How an output port breaks ties between competing input nominees
/// during switch allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OutputArbPolicy {
    /// The paper's arbiter: per-output-port round-robin over input
    /// ports.
    #[default]
    RoundRobin,
    /// Age-based: the nominee whose head flit was created earliest wins
    /// (lower input port breaks ties) — bounds worst-case packet age.
    OldestFirst,
    /// In-transit priority: nominees arriving from network ports beat
    /// local injection, round-robin within each class — drains the
    /// network before admitting new traffic.
    TransitFirst,
}

impl OutputArbPolicy {
    /// Every policy, in code order.
    pub const ALL: [OutputArbPolicy; 3] = [
        OutputArbPolicy::RoundRobin,
        OutputArbPolicy::OldestFirst,
        OutputArbPolicy::TransitFirst,
    ];

    /// Canonical lower-case name, as parsed by [`FromStr`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OutputArbPolicy::RoundRobin => "roundrobin",
            OutputArbPolicy::OldestFirst => "oldest",
            OutputArbPolicy::TransitFirst => "transit",
        }
    }
}

impl fmt::Display for OutputArbPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for OutputArbPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "roundrobin" => Ok(OutputArbPolicy::RoundRobin),
            "oldest" => Ok(OutputArbPolicy::OldestFirst),
            "transit" => Ok(OutputArbPolicy::TransitFirst),
            other => Err(format!(
                "unknown output_arb {other:?} (expected roundrobin|oldest|transit)"
            )),
        }
    }
}

/// A complete router-microarchitecture configuration.
///
/// `Default` reproduces the paper's router exactly: round-robin VC
/// allocation, round-robin output arbitration, no bubble restriction,
/// no extra crossbar stages. Every golden fixture pins that the default
/// model's output is byte-identical to the pre-axis simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RouterModel {
    /// VC allocation policy.
    pub vc_alloc: VcAllocPolicy,
    /// Output arbitration policy.
    pub output_arb: OutputArbPolicy,
    /// Bubble flow control on the escape VC: a packet may only *commit*
    /// to the escape network when the escape buffer it would enter has
    /// at least 2 free slots. Packets already on the escape network
    /// still advance on a single credit, so the escape ring always keeps
    /// one bubble and drains. Requires `buffer_depth >= 2`.
    pub bubble_escape: bool,
    /// Extra pipeline cycles between switch allocation and link
    /// traversal, added on top of the base `router_latency`.
    pub crossbar_depth: u64,
}

impl RouterModel {
    /// `true` when this is the default (paper) model.
    #[must_use]
    pub fn is_default(&self) -> bool {
        *self == RouterModel::default()
    }
}

/// Named router-model configurations — the points studies sweep on the
/// router axis.
///
/// The [`code`](RouterModelKind::code) of each kind folds into job seeds
/// (see `xp::grid`), so the list is **append-only**: new kinds take the
/// next code, existing codes never move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouterModelKind {
    /// The paper's router (the default model).
    Baseline,
    /// Uniform-random VC allocation.
    RandomVc,
    /// Occupancy-aware least-loaded port selection.
    LeastLoaded,
    /// Age-based oldest-first output arbitration.
    OldestFirst,
    /// In-transit-priority output arbitration.
    TransitFirst,
    /// Bubble flow control on the escape VC.
    Bubble,
    /// Two extra crossbar pipeline stages.
    DeepCrossbar,
    /// The "everything on" adaptive configuration: least-loaded VC
    /// allocation + oldest-first arbitration + escape bubble.
    Fortified,
}

impl RouterModelKind {
    /// Every kind, in code order.
    pub const ALL: [RouterModelKind; 8] = [
        RouterModelKind::Baseline,
        RouterModelKind::RandomVc,
        RouterModelKind::LeastLoaded,
        RouterModelKind::OldestFirst,
        RouterModelKind::TransitFirst,
        RouterModelKind::Bubble,
        RouterModelKind::DeepCrossbar,
        RouterModelKind::Fortified,
    ];

    /// Canonical lower-case name, as parsed by [`FromStr`] and accepted
    /// by spec files and `--routers`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RouterModelKind::Baseline => "baseline",
            RouterModelKind::RandomVc => "randomvc",
            RouterModelKind::LeastLoaded => "leastloaded",
            RouterModelKind::OldestFirst => "oldest",
            RouterModelKind::TransitFirst => "transit",
            RouterModelKind::Bubble => "bubble",
            RouterModelKind::DeepCrossbar => "deepxbar",
            RouterModelKind::Fortified => "fortified",
        }
    }

    /// Append-only seed-coordinate code (see `xp::grid`).
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            RouterModelKind::Baseline => 0,
            RouterModelKind::RandomVc => 1,
            RouterModelKind::LeastLoaded => 2,
            RouterModelKind::OldestFirst => 3,
            RouterModelKind::TransitFirst => 4,
            RouterModelKind::Bubble => 5,
            RouterModelKind::DeepCrossbar => 6,
            RouterModelKind::Fortified => 7,
        }
    }

    /// The concrete model this kind names.
    #[must_use]
    pub fn model(self) -> RouterModel {
        let base = RouterModel::default();
        match self {
            RouterModelKind::Baseline => base,
            RouterModelKind::RandomVc => {
                RouterModel { vc_alloc: VcAllocPolicy::Random, ..base }
            }
            RouterModelKind::LeastLoaded => {
                RouterModel { vc_alloc: VcAllocPolicy::LeastLoaded, ..base }
            }
            RouterModelKind::OldestFirst => {
                RouterModel { output_arb: OutputArbPolicy::OldestFirst, ..base }
            }
            RouterModelKind::TransitFirst => {
                RouterModel { output_arb: OutputArbPolicy::TransitFirst, ..base }
            }
            RouterModelKind::Bubble => RouterModel { bubble_escape: true, ..base },
            RouterModelKind::DeepCrossbar => RouterModel { crossbar_depth: 2, ..base },
            RouterModelKind::Fortified => RouterModel {
                vc_alloc: VcAllocPolicy::LeastLoaded,
                output_arb: OutputArbPolicy::OldestFirst,
                bubble_escape: true,
                crossbar_depth: 0,
            },
        }
    }
}

impl fmt::Display for RouterModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for RouterModelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        RouterModelKind::ALL.into_iter().find(|k| k.name() == s).ok_or_else(|| {
            let names: Vec<&str> = RouterModelKind::ALL.iter().map(|k| k.name()).collect();
            format!("unknown router model {s:?} (expected {})", names.join("|"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_the_paper_router() {
        let m = RouterModel::default();
        assert_eq!(m.vc_alloc, VcAllocPolicy::RoundRobin);
        assert_eq!(m.output_arb, OutputArbPolicy::RoundRobin);
        assert!(!m.bubble_escape);
        assert_eq!(m.crossbar_depth, 0);
        assert!(m.is_default());
        assert_eq!(RouterModelKind::Baseline.model(), m);
    }

    #[test]
    fn kind_codes_are_append_only_and_distinct() {
        // Codes fold into job seeds: they must stay exactly these values.
        let codes: Vec<u64> = RouterModelKind::ALL.iter().map(|k| k.code()).collect();
        assert_eq!(codes, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn every_kind_names_a_distinct_model() {
        for (i, a) in RouterModelKind::ALL.iter().enumerate() {
            for b in &RouterModelKind::ALL[i + 1..] {
                assert_ne!(a.model(), b.model(), "{a} and {b} collapse to one model");
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in RouterModelKind::ALL {
            assert_eq!(kind.name().parse::<RouterModelKind>().unwrap(), kind);
            assert_eq!(kind.to_string().parse::<RouterModelKind>().unwrap(), kind);
        }
        for p in VcAllocPolicy::ALL {
            assert_eq!(p.name().parse::<VcAllocPolicy>().unwrap(), p);
        }
        for p in OutputArbPolicy::ALL {
            assert_eq!(p.name().parse::<OutputArbPolicy>().unwrap(), p);
        }
        assert!("escape".parse::<RouterModelKind>().is_err());
        assert!("rr".parse::<VcAllocPolicy>().is_err());
        assert!("fifo".parse::<OutputArbPolicy>().is_err());
    }
}
