//! A cycle-accurate network-on-chip simulator — the workspace's BookSim2
//! substitute.
//!
//! The HexaMesh paper evaluates chiplet arrangements with BookSim2 [Jiang et
//! al., ISPASS 2013]: each chiplet contributes one router and two endpoints,
//! routers have 3-cycle latency, 8 virtual channels and 8-flit buffers, and
//! every D2D link costs 27 cycles (PHY + wire + PHY). This crate implements
//! that machinery from scratch:
//!
//! * [`flit`] — packets and flow-control units,
//! * [`channel`] — fixed-latency flit/credit delay lines,
//! * [`routing`] — shortest-path tables plus a deadlock-free up*/down*
//!   escape layer for arbitrary topologies,
//! * [`router`] — input-queued virtual-channel routers with credit-based
//!   flow control and separable round-robin allocation,
//! * [`rmodel`] — pluggable router microarchitectures (VC allocation and
//!   output arbitration policies, escape-VC bubble flow control,
//!   crossbar pipeline depth),
//! * [`endpoint`] / [`traffic`] — traffic patterns and Bernoulli sources,
//! * [`fault`] — deterministic link/router failure schedules and
//!   source retransmission,
//! * [`sim`] — the cycle loop and statistics,
//! * [`shard`] — conservative bounded-lag parallel execution of one run,
//! * [`measure`] — zero-load latency and saturation-throughput methodology,
//! * [`obs`] — windowed observability probes (time-series sampling that
//!   never perturbs the run it measures).
//!
//! # Example: latency/throughput of a 4×4 chiplet grid
//!
//! ```
//! use chiplet_graph::gen;
//! use nocsim::{measure, SimConfig};
//!
//! let topology = gen::grid(4, 4);
//! let config = SimConfig::paper_defaults();
//! let zero_load = measure::zero_load_latency(&topology, &config)?;
//! assert!(zero_load > 0.0);
//! # Ok::<(), nocsim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod endpoint;
pub mod fault;
pub mod flit;
mod heap;
pub mod measure;
pub mod obs;
pub mod rmodel;
pub mod router;
pub mod routing;
pub mod shard;
pub mod sim;
pub mod traffic;

pub use fault::{FaultEvent, FaultPlan, FaultSchedule, FaultTarget, RetransmitConfig};
pub use measure::{LoadPointResult, MeasureConfig, SaturationResult};
pub use obs::{Probe, WindowSample};
pub use rmodel::{OutputArbPolicy, RouterModel, RouterModelKind, VcAllocPolicy};
pub use router::StallCounters;
pub use routing::{RoutingError, RoutingKind};
pub use shard::ShardedSimulator;
pub use sim::{Delivery, LinkSpec, NetworkStats, SimConfig, SimError, Simulator};
pub use traffic::TrafficPattern;
