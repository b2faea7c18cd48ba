//! The closed-loop workload driver: executes a message DAG on a `nocsim`
//! simulator.
//!
//! The driver offers a message to its source endpoint when every
//! dependency has been delivered (plus the compute delay), retires it on
//! tail-flit delivery, and unlocks its dependents — so congestion feeds
//! back into the offered load, unlike memoryless synthetic injection.
//!
//! The event-driven fast path is preserved: the driver paces the
//! simulator with [`nocsim::Simulator::run_until_deliveries`], waking
//! only at dependency resolutions (deliveries) and at its own scheduled
//! injection times; idle stretches between them fast-forward inside the
//! simulator. All driver state is preallocated at construction
//! (dependents in CSR form, the ready heap and blocked queue at message
//! capacity), so steady-state execution performs no heap allocation —
//! the same contract the simulator's hot path holds, pinned by
//! `tests/alloc_steady_state.rs`.
//!
//! Determinism: given `(workload, topology, SimConfig)` the run is a
//! pure function — offers happen in `(ready time, message id)` order,
//! and all per-delivery updates are order-independent within a cycle —
//! so statistics are bit-identical across worker counts and under
//! [`nocsim::Simulator::set_reference_stepping`] (pinned by
//! `tests/determinism.rs`).
//!
//! The traffic seed barely enters that function: endpoint RNGs are drawn
//! only by open-loop generation, which a workload run switches off, and
//! kernels are built without a seed. `SimConfig::seed` reaches a run only
//! through the `randomvc` router model's VC choice, so under every other
//! model two seeds give equal statistics (pinned by
//! `tests/determinism.rs`), and replicates of a makespan are identical.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;

use chiplet_graph::{bfs, Graph};
use nocsim::sim::Delivery;
use nocsim::{NetworkStats, SimConfig, SimError, Simulator};

use crate::ir::{MsgId, Workload, WorkloadError};

/// Errors from driver construction.
#[derive(Debug, Clone, PartialEq)]
pub enum DriverError {
    /// The workload failed validation.
    Workload(WorkloadError),
    /// The simulator rejected the configuration.
    Sim(SimError),
    /// The workload addresses a different endpoint count than the
    /// topology provides.
    EndpointMismatch {
        /// Endpoints the workload addresses.
        workload: usize,
        /// Endpoints the topology provides.
        sim: usize,
    },
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Workload(e) => write!(f, "workload: {e}"),
            DriverError::Sim(e) => write!(f, "simulator: {e}"),
            DriverError::EndpointMismatch { workload, sim } => write!(
                f,
                "workload addresses {workload} endpoints but the topology provides {sim}"
            ),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<WorkloadError> for DriverError {
    fn from(e: WorkloadError) -> Self {
        DriverError::Workload(e)
    }
}

impl From<SimError> for DriverError {
    fn from(e: SimError) -> Self {
        DriverError::Sim(e)
    }
}

/// Application-level results of a workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadStats {
    /// `true` once every message was delivered (a `false` means the cycle
    /// budget ran out or a deadlock was suspected).
    pub completed: bool,
    /// Cycle of the last delivery — the application completion time the
    /// `workload_comparison` ranking uses.
    pub makespan: u64,
    /// Messages delivered so far.
    pub delivered_messages: u64,
    /// Total payload delivered so far, in flits.
    pub delivered_flits: u64,
    /// Analytic zero-load critical path of the DAG on this topology:
    /// the longest dependency chain, each message costed at its
    /// contention-free latency. `makespan / critical_path` ≥ 1 measures
    /// the congestion (and serialization) overhead the arrangement adds.
    pub critical_path_cycles: u64,
    /// Completion cycle of each phase tag, in tag order — per-collective
    /// (step / iteration / microbatch / round) completion times. `None`
    /// while any of the tag's messages is still undelivered (possible
    /// only on incomplete runs).
    pub per_tag_completion: Vec<(u32, Option<u64>)>,
    /// The simulator's aggregate view of the run (latencies, throughput,
    /// source-queue occupancy; the measurement window spans the whole
    /// run).
    pub network: NetworkStats,
}

/// Per-message static data, flattened from the IR for the hot loop.
#[derive(Debug, Clone, Copy)]
struct MsgMeta {
    src: usize,
    dest: usize,
    size_flits: usize,
    compute_delay: u64,
    tag: u32,
}

/// Executes one [`Workload`] on one simulator instance.
#[derive(Debug)]
pub struct WorkloadDriver {
    sim: Simulator,
    msgs: Vec<MsgMeta>,
    /// CSR of the dependency graph's forward edges: message m's
    /// dependents are `dep_targets[dep_offsets[m]..dep_offsets[m + 1]]`.
    dep_offsets: Vec<u32>,
    dep_targets: Vec<u32>,
    /// Unresolved dependency count per message.
    remaining: Vec<u32>,
    /// Messages whose dependencies resolved, keyed by injection
    /// eligibility cycle; ties pop in message-id order.
    ready: BinaryHeap<Reverse<(u64, MsgId)>>,
    /// Eligible messages not yet accepted by their source queue, in
    /// offer order (per-endpoint order is preserved across refusals).
    blocked: VecDeque<MsgId>,
    /// Epoch marks: endpoint e refused an offer during pass `epoch`.
    endpoint_full: Vec<u64>,
    epoch: u64,
    /// Packet id → message id (offers are the only packet source).
    /// Ids are endpoint-strided, not dense, so this is a map.
    packet_msgs: HashMap<u64, MsgId>,
    /// Delivery cycle per message (`u64::MAX` until delivered).
    completion: Vec<u64>,
    /// Reused drain buffer for the simulator's delivery log.
    deliveries: Vec<Delivery>,
    /// Max delivery cycle per phase tag (index = tag), meaningful once
    /// the tag's `tag_done` count reaches its `tag_total`.
    tag_completion: Vec<u64>,
    /// Messages per phase tag / delivered so far per phase tag.
    tag_total: Vec<u32>,
    tag_done: Vec<u32>,
    delivered: usize,
    delivered_flits: u64,
    makespan: u64,
    critical_path: u64,
}

impl WorkloadDriver {
    /// Builds a driver for `workload` on the router graph `g`.
    ///
    /// `config.injection_rate` is forced to zero — the workload is the
    /// only packet source — and the measurement window opens at cycle 0,
    /// so every delivered message is latency-measured.
    ///
    /// # Errors
    ///
    /// [`DriverError`] when the workload is invalid, the endpoint counts
    /// disagree, or the simulator rejects the configuration.
    pub fn new(g: &Graph, config: SimConfig, workload: &Workload) -> Result<Self, DriverError> {
        workload.validate()?;
        let mut config = config;
        config.injection_rate = 0.0;
        let mut sim = Simulator::new(g, config)?;
        if sim.num_endpoints() != workload.num_endpoints {
            return Err(DriverError::EndpointMismatch {
                workload: workload.num_endpoints,
                sim: sim.num_endpoints(),
            });
        }
        sim.set_delivery_log(true);
        sim.open_measurement_window();

        let n = workload.len();
        let msgs: Vec<MsgMeta> = workload
            .messages
            .iter()
            .map(|m| MsgMeta {
                src: m.src,
                dest: m.dest,
                size_flits: m.size_flits,
                compute_delay: m.compute_delay,
                tag: m.tag,
            })
            .collect();

        // Forward (dependents) edges in CSR form.
        let mut dep_offsets = vec![0u32; n + 1];
        for m in &workload.messages {
            for &d in &m.deps {
                dep_offsets[d + 1] += 1;
            }
        }
        for i in 0..n {
            dep_offsets[i + 1] += dep_offsets[i];
        }
        let mut fill = dep_offsets.clone();
        let mut dep_targets = vec![0u32; dep_offsets[n] as usize];
        for (id, m) in workload.messages.iter().enumerate() {
            for &d in &m.deps {
                dep_targets[fill[d] as usize] = id as u32;
                fill[d] += 1;
            }
        }

        let remaining: Vec<u32> =
            workload.messages.iter().map(|m| m.deps.len() as u32).collect();
        let mut ready = BinaryHeap::with_capacity(n);
        for (id, m) in workload.messages.iter().enumerate() {
            if m.deps.is_empty() {
                ready.push(Reverse((m.compute_delay, id)));
            }
        }

        let max_tag = workload.messages.iter().map(|m| m.tag).max().unwrap_or(0);
        let mut tag_total = vec![0u32; max_tag as usize + 1];
        for m in &workload.messages {
            tag_total[m.tag as usize] += 1;
        }
        let critical_path =
            critical_path_cycles(g, &config, workload, &dep_offsets, &dep_targets, &remaining);
        let num_endpoints = sim.num_endpoints();
        Ok(Self {
            sim,
            msgs,
            dep_offsets,
            dep_targets,
            remaining,
            ready,
            blocked: VecDeque::with_capacity(n),
            endpoint_full: vec![0; num_endpoints],
            epoch: 0,
            packet_msgs: HashMap::with_capacity(n),
            completion: vec![u64::MAX; n],
            deliveries: Vec::with_capacity(num_endpoints),
            tag_completion: vec![0; max_tag as usize + 1],
            tag_done: vec![0; tag_total.len()],
            tag_total,
            delivered: 0,
            delivered_flits: 0,
            makespan: 0,
            critical_path,
        })
    }

    /// Forces (or lifts) the simulator's poll-every-cycle reference
    /// stepping — the driver's behaviour is bit-identical either way
    /// (the golden-determinism tests rely on this switch).
    pub fn set_reference_stepping(&mut self, on: bool) {
        self.sim.set_reference_stepping(on);
    }

    /// The underlying simulator (read-only).
    #[must_use]
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Installs a fault plan on the underlying simulator. Must be called
    /// before the first [`advance`](Self::advance). Pair with
    /// [`nocsim::RetransmitConfig`] when the workload must complete on a
    /// degraded-but-connected network: without retransmission a flit lost
    /// to a fault retires its message as undeliverable and the run stalls.
    pub fn install_fault_plan(&mut self, plan: nocsim::FaultPlan) {
        self.sim.install_fault_plan(plan);
    }

    /// `true` once every message has been delivered.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.delivered == self.msgs.len()
    }

    /// Runs for at most `budget` further cycles, returning `true` once
    /// the workload is complete. Steady-state allocation-free; bails out
    /// early when the simulator suspects a deadlock.
    pub fn advance(&mut self, budget: u64) -> bool {
        let deadline = self.sim.cycle().saturating_add(budget);
        while self.delivered < self.msgs.len() && self.sim.cycle() < deadline {
            let now = self.sim.cycle();
            // Eligible messages move into the offer queue in
            // (ready time, id) order.
            while let Some(&Reverse((t, m))) = self.ready.peek() {
                if t > now {
                    break;
                }
                self.ready.pop();
                self.blocked.push_back(m);
            }
            // One offer pass. A refusal parks every later message of the
            // same endpoint for this pass, preserving per-endpoint order.
            self.epoch += 1;
            for _ in 0..self.blocked.len() {
                let m = self.blocked.pop_front().expect("counted");
                let meta = self.msgs[m];
                if self.endpoint_full[meta.src] == self.epoch {
                    self.blocked.push_back(m);
                    continue;
                }
                match self.sim.offer_packet(meta.src, meta.dest, meta.size_flits) {
                    Some(packet) => {
                        let prev = self.packet_msgs.insert(packet, m);
                        debug_assert!(prev.is_none(), "packet id reused");
                    }
                    None => {
                        self.endpoint_full[meta.src] = self.epoch;
                        self.blocked.push_back(m);
                    }
                }
            }
            // Wake at the next scheduled eligibility or the next
            // delivery, whichever comes first.
            let next_ready = self.ready.peek().map_or(u64::MAX, |&Reverse((t, _))| t);
            let target = next_ready.min(deadline);
            if self.sim.run_until_deliveries(target) {
                self.sim.take_deliveries(&mut self.deliveries);
                for i in 0..self.deliveries.len() {
                    let d = self.deliveries[i];
                    self.retire(d);
                }
                self.deliveries.clear();
            }
            if self.sim.deadlock_suspected() {
                break;
            }
        }
        self.is_complete()
    }

    /// Marks one delivery: records completion and unlocks dependents.
    fn retire(&mut self, d: Delivery) {
        let m = self.packet_msgs[&d.packet];
        debug_assert_eq!(self.msgs[m].dest, d.dest, "delivery at the wrong endpoint");
        debug_assert_eq!(self.completion[m], u64::MAX, "message retired twice");
        self.completion[m] = d.cycle;
        self.delivered += 1;
        self.delivered_flits += self.msgs[m].size_flits as u64;
        self.makespan = self.makespan.max(d.cycle);
        let tag = self.msgs[m].tag as usize;
        self.tag_completion[tag] = self.tag_completion[tag].max(d.cycle);
        self.tag_done[tag] += 1;
        let (lo, hi) = (self.dep_offsets[m] as usize, self.dep_offsets[m + 1] as usize);
        for i in lo..hi {
            let child = self.dep_targets[i] as usize;
            self.remaining[child] -= 1;
            if self.remaining[child] == 0 {
                self.ready.push(Reverse((d.cycle + self.msgs[child].compute_delay, child)));
            }
        }
    }

    /// Runs the workload to completion (or for `max_cycles`, whichever
    /// comes first) and returns the application-level statistics.
    pub fn run(&mut self, max_cycles: u64) -> WorkloadStats {
        self.advance(max_cycles);
        self.stats()
    }

    /// Application-level statistics of the run so far.
    #[must_use]
    pub fn stats(&self) -> WorkloadStats {
        let per_tag_completion = self
            .tag_completion
            .iter()
            .enumerate()
            .map(|(tag, &cycle)| {
                (tag as u32, (self.tag_done[tag] == self.tag_total[tag]).then_some(cycle))
            })
            .collect();
        WorkloadStats {
            completed: self.is_complete(),
            makespan: self.makespan,
            delivered_messages: self.delivered as u64,
            delivered_flits: self.delivered_flits,
            critical_path_cycles: self.critical_path,
            per_tag_completion,
            network: self.sim.stats(),
        }
    }
}

/// Analytic zero-load critical path: longest dependency chain with each
/// message costed at its contention-free latency on this topology
/// (injection + per-hop wire/router + ejection + serialization) plus its
/// compute delay. Walks the driver's CSR dependents
/// (`dep_offsets`/`dep_targets`) with `dep_counts` as the initial Kahn
/// indegrees — the workload already validated acyclic, and message ids
/// are not guaranteed topological, hence the front.
fn critical_path_cycles(
    g: &Graph,
    config: &SimConfig,
    workload: &Workload,
    dep_offsets: &[u32],
    dep_targets: &[u32],
    dep_counts: &[u32],
) -> u64 {
    let n = g.num_vertices();
    let hops = bfs::all_pairs_distances(g);
    let epr = config.endpoints_per_router;
    let ideal = |m: &crate::ir::Message| -> u64 {
        let h = u64::from(hops[(m.src / epr) * n + m.dest / epr]);
        config.zero_load_cycles(h, m.size_flits)
    };
    let count = workload.len();
    let mut indegree = dep_counts.to_vec();
    let mut cp = vec![0u64; count];
    let mut front: Vec<MsgId> = (0..count).filter(|&i| indegree[i] == 0).collect();
    let mut best = 0;
    while let Some(id) = front.pop() {
        let m = &workload.messages[id];
        let base = m.deps.iter().map(|&d| cp[d]).max().unwrap_or(0);
        cp[id] = base + m.compute_delay + ideal(m);
        best = best.max(cp[id]);
        for &t in &dep_targets[dep_offsets[id] as usize..dep_offsets[id + 1] as usize] {
            let child = t as usize;
            indegree[child] -= 1;
            if indegree[child] == 0 {
                front.push(child);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::WorkloadKind;
    use chiplet_graph::gen;

    fn config() -> SimConfig {
        SimConfig {
            vcs: 4,
            buffer_depth: 4,
            source_queue_cap: 16,
            ..SimConfig::paper_defaults()
        }
    }

    #[test]
    fn ring_all_reduce_completes_on_a_grid() {
        let g = gen::grid(3, 3); // 18 endpoints
        let w = WorkloadKind::RingAllReduce.build(18);
        let mut driver = WorkloadDriver::new(&g, config(), &w).expect("valid");
        let stats = driver.run(2_000_000);
        assert!(stats.completed, "all-reduce did not finish");
        assert_eq!(stats.delivered_messages, w.len() as u64);
        assert_eq!(stats.delivered_flits, w.total_flits());
        assert_eq!(stats.network.received_packets, w.len() as u64);
        assert!(stats.makespan > 0);
        assert!(
            stats.makespan >= stats.critical_path_cycles,
            "makespan {} below the zero-load critical path {}",
            stats.makespan,
            stats.critical_path_cycles
        );
        // The reduce-scatter phase (tag 0) finishes before the
        // all-gather (tag 1).
        let phase0 = stats.per_tag_completion[0].1.expect("phase 0 complete");
        let phase1 = stats.per_tag_completion[1].1.expect("phase 1 complete");
        assert!(phase0 < phase1);
    }

    #[test]
    fn every_kernel_completes_on_a_small_grid() {
        let g = gen::grid(2, 3); // 12 endpoints
        for kind in WorkloadKind::ALL {
            let w = kind.build(12);
            let mut driver = WorkloadDriver::new(&g, config(), &w).expect("valid");
            let stats = driver.run(5_000_000);
            assert!(stats.completed, "{kind} did not finish");
            assert_eq!(stats.delivered_messages, w.len() as u64, "{kind}");
            assert!(!driver.sim().deadlock_suspected(), "{kind} deadlocked");
        }
    }

    #[test]
    fn endpoint_mismatch_is_rejected() {
        let g = gen::grid(2, 2); // 8 endpoints
        let w = WorkloadKind::Pipeline.build(12);
        assert!(matches!(
            WorkloadDriver::new(&g, config(), &w),
            Err(DriverError::EndpointMismatch { workload: 12, sim: 8 })
        ));
    }

    #[test]
    fn invalid_workload_is_rejected() {
        let g = gen::grid(2, 2);
        let w = Workload { name: "empty".into(), num_endpoints: 8, messages: vec![] };
        assert!(matches!(
            WorkloadDriver::new(&g, config(), &w),
            Err(DriverError::Workload(WorkloadError::Empty))
        ));
    }

    #[test]
    fn budget_exhaustion_reports_incomplete() {
        let g = gen::grid(3, 3);
        let w = WorkloadKind::RingAllReduce.build(18);
        let mut driver = WorkloadDriver::new(&g, config(), &w).expect("valid");
        let stats = driver.run(50); // far too few cycles
        assert!(!stats.completed);
        assert!(stats.delivered_messages < w.len() as u64);
        // Unfinished phases are None, not a phantom cycle-0 completion.
        assert_eq!(stats.per_tag_completion.last().expect("tags exist").1, None);
        // Resuming finishes the job.
        assert!(driver.advance(2_000_000));
        assert!(driver.stats().completed);
    }

    #[test]
    fn queue_occupancy_is_visible_in_closed_loop_runs() {
        let g = gen::grid(2, 3);
        let w = WorkloadKind::AllToAll.build(12);
        let mut driver = WorkloadDriver::new(&g, config(), &w).expect("valid");
        let stats = driver.run(5_000_000);
        assert!(stats.completed);
        // Sends queue behind each other, so the peak occupancy must be
        // visible and the mean non-zero.
        assert!(stats.network.max_source_queue_flits > 0);
        assert!(stats.network.avg_source_queue_flits > 0.0);
        // Closed-loop accounting: re-offered (refused) messages must not
        // inflate the offered counter — one logical message, one offer.
        assert_eq!(stats.network.offered_packets, w.len() as u64);
        assert_eq!(stats.network.accepted_packets, w.len() as u64);
    }
}
