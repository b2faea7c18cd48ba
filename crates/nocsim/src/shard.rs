//! Conservative bounded-lag parallel simulation: one run sharded across
//! cores, bit-identical to the serial event path.
//!
//! The mesh is cut into contiguous router-id ranges — one worker thread
//! per shard, each running a full [`Simulator`] that owns its range's
//! routers and endpoints. Inter-shard links give the lookahead: a flit
//! pushed onto a boundary link at cycle `t` cannot be delivered before
//! `t + link_latency`, so every shard can safely advance a bounded-lag
//! window of `W = min_boundary_link_latency` cycles before exchanging
//! boundary messages at a barrier.
//!
//! **Determinism contract.** For every reported statistic —
//! [`NetworkStats`], latency percentiles, channel loads, the deadlock
//! watchdog — a sharded run is *bit-identical* to the serial
//! [`Simulator`], for any contiguous partition and any shard count. Two
//! properties carry the proof: (1) all cross-shard influence flows
//! through delay lines, and boundary pushes are *replayed* on the owning
//! side with their original push cycle, in (cycle, source link id) order,
//! so every delivery cycle and serialization decision is exactly the
//! serial one; (2) within a cycle, deliveries on distinct lines commute
//! (each input port has exactly one feeding line, and allocation runs
//! after all deliveries) — the same argument the event wheel's golden
//! equivalence against reference stepping already pins down.
//!
//! Worker threads are persistent (spawned at construction) and boundary
//! buffers are preallocated from the window bound, so the sharded steady
//! state performs zero heap allocations — the same contract as the serial
//! hot path.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use chiplet_graph::Graph;

use crate::channel::Credit;
use crate::fault::FaultPlan;
use crate::flit::{Flit, PacketId, RouterId};
use crate::heap::{arc_block, HeapBytes};
use crate::obs::{merge_window_series, Probe, WindowSample};
use crate::router::StallCounters;
use crate::sim::{
    percentiles_from_histogram, stats_from_sums, tables_heap_bytes, LinkSpec, NetworkStats,
    SimConfig, SimError, Simulator, WindowSums, LATENCY_HISTOGRAM_BUCKETS,
};

/// Commands the coordinator hands to the shard workers.
#[derive(Debug, Clone, Copy)]
enum Command {
    /// Advance to the absolute cycle `target` in bounded-lag windows.
    Run { target: u64 },
    /// Exit the worker loop.
    Stop,
}

/// A reusable rendezvous barrier that can be *poisoned*: when any worker
/// panics, every current and future waiter panics too instead of hanging
/// the run. (`std::sync::Barrier` would deadlock the survivors.)
struct PoisonBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
    parties: usize,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

impl PoisonBarrier {
    fn new(parties: usize) -> Self {
        Self {
            state: Mutex::new(BarrierState { arrived: 0, generation: 0, poisoned: false }),
            cv: Condvar::new(),
            parties,
        }
    }

    fn wait(&self) {
        let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(!st.poisoned, "a shard worker panicked");
        st.arrived += 1;
        if st.arrived == self.parties {
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
            return;
        }
        let generation = st.generation;
        while st.generation == generation && !st.poisoned {
            st = self.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        assert!(!st.poisoned, "a shard worker panicked");
    }

    fn poison(&self) {
        let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        st.poisoned = true;
        self.cv.notify_all();
    }

    fn is_poisoned(&self) -> bool {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).poisoned
    }
}

/// State shared between the coordinator and the shard workers.
struct Shared {
    /// Command slot: written by the coordinator before `start`.
    command: Mutex<Command>,
    /// Coordinator + workers rendezvous delimiting one command.
    start: PoisonBarrier,
    done: PoisonBarrier,
    /// Workers-only barrier inside windows (two per window: end-of-
    /// compute and end-of-post).
    sync: PoisonBarrier,
    /// One mailbox per boundary link and direction, preallocated to the
    /// window bound; posted and drained by O(1) buffer swaps.
    flit_mail: Vec<Mutex<Vec<(u64, Flit)>>>,
    credit_mail: Vec<Mutex<Vec<(u64, Credit)>>>,
    /// Per-shard fault-exchange slots: at a failure barrier each shard
    /// publishes the doomed packet ids it can see locally, then the
    /// credit returns it owes routers owned by other shards.
    fault_seeds: Vec<Mutex<Vec<PacketId>>>,
    fault_credits: Vec<Mutex<Vec<(u32, u32)>>>,
}

impl Shared {
    /// Heap bytes of the shared block: mailboxes and fault exchange slots.
    fn heap_bytes(&self) -> usize {
        fn slots<T>(v: &[Mutex<Vec<T>>]) -> usize {
            v.iter().map(|m| lock(m).heap_bytes()).sum()
        }
        arc_block::<Self>()
            + self.flit_mail.heap_bytes()
            + slots(&self.flit_mail)
            + self.credit_mail.heap_bytes()
            + slots(&self.credit_mail)
            + self.fault_seeds.heap_bytes()
            + slots(&self.fault_seeds)
            + self.fault_credits.heap_bytes()
            + slots(&self.fault_credits)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One worker's wiring: its shard plus precomputed `(link, mailbox)`
/// pairs in ascending global link id order — the boundary handoff
/// ordering the determinism contract specifies. A pair's position in its
/// list is its outbox slot.
struct Worker {
    index: usize,
    sim: Arc<Mutex<Simulator>>,
    shared: Arc<Shared>,
    /// Bounded-lag window length `W` in cycles.
    window: u64,
    /// Boundary links leaving the shard ([`Simulator::out_links`]): flits
    /// posted, credits applied.
    out_links: Vec<(usize, usize)>,
    /// Boundary links entering the shard ([`Simulator::in_links`]):
    /// credits posted, flits applied.
    in_links: Vec<(usize, usize)>,
}

impl Worker {
    fn run(&mut self) {
        loop {
            self.shared.start.wait();
            let command = *lock(&self.shared.command);
            match command {
                Command::Run { target } => self.advance(target),
                Command::Stop => {
                    self.shared.done.wait();
                    return;
                }
            }
            self.shared.done.wait();
        }
    }

    /// Swaps every filled outbox into its mailbox.
    fn post(&self, sim: &mut Simulator) {
        for (slot, &(_, m)) in self.out_links.iter().enumerate() {
            sim.post_flit_outbox(slot, &mut lock(&self.shared.flit_mail[m]));
        }
        for (slot, &(_, m)) in self.in_links.iter().enumerate() {
            sim.post_credit_outbox(slot, &mut lock(&self.shared.credit_mail[m]));
        }
    }

    /// Replays every owned mailbox onto its delay line, in ascending
    /// link id order (messages within a line are already cycle-ordered).
    fn apply(&self, sim: &mut Simulator) {
        for &(l, m) in &self.in_links {
            sim.apply_boundary_flits(l, &mut lock(&self.shared.flit_mail[m]));
        }
        for &(l, m) in &self.out_links {
            sim.apply_boundary_credits(l, &mut lock(&self.shared.credit_mail[m]));
        }
    }

    /// One bounded-lag window: compute, barrier, post, barrier, apply.
    /// The next window's posts are gated by its own compute barrier, so
    /// no third barrier is needed before looping.
    fn window(&self, sim: &mut Simulator, to: u64) {
        sim.run(to - sim.cycle());
        self.shared.sync.wait();
        self.post(sim);
        self.shared.sync.wait();
        self.apply(sim);
    }

    /// Applies every failure event due at the current cycle, in lockstep
    /// across shards: each shard publishes the doomed packet ids it can
    /// see locally, every shard unions all published sets (sorted and
    /// deduplicated, so the result is identical everywhere), every shard
    /// purges that same set, and the credit returns owed across shard
    /// boundaries are exchanged. Two `sync` barriers per event; same-cycle
    /// events replay sequentially in schedule order, exactly mirroring the
    /// serial `service_faults` loop. Windows are capped at the next
    /// failure cycle, so when an event is due *all* shards sit at its
    /// cycle and execute the same barrier sequence.
    fn exchange_faults(&self, sim: &mut Simulator) {
        while sim.next_fault_cycle() <= sim.cycle() {
            let seeds = sim.fault_begin();
            *lock(&self.shared.fault_seeds[self.index]) = seeds;
            self.shared.sync.wait();
            let mut doomed: Vec<PacketId> = Vec::new();
            for slot in &self.shared.fault_seeds {
                doomed.extend_from_slice(&lock(slot));
            }
            doomed.sort_unstable();
            doomed.dedup();
            // Exactly one shard accounts the agreed doomed set, so the
            // cross-shard sum matches the serial drop counter.
            let credits = sim.fault_commit(&doomed, self.index == 0);
            *lock(&self.shared.fault_credits[self.index]) = credits;
            self.shared.sync.wait();
            for (k, slot) in self.shared.fault_credits.iter().enumerate() {
                if k != self.index {
                    sim.apply_foreign_fault_credits(&lock(slot));
                }
            }
        }
    }

    fn advance(&self, target: u64) {
        let sim = &mut *lock(&self.sim);
        while sim.cycle() < target {
            self.exchange_faults(sim);
            let to =
                sim.cycle().saturating_add(self.window).min(target).min(sim.next_fault_cycle());
            self.window(sim, to);
        }
    }
}

/// A [`Simulator`]-compatible front end that runs one simulation as a
/// conservative bounded-lag parallel discrete-event simulation across
/// `shards` worker threads, producing bit-identical statistics.
///
/// With `shards = 1` no threads are spawned and calls go straight to the
/// underlying serial simulator. The closed-loop driver interface
/// ([`Simulator::offer_packet`] / the delivery log) is not available on
/// the sharded path.
///
/// # Example
///
/// ```
/// use chiplet_graph::gen;
/// use nocsim::{ShardedSimulator, SimConfig, Simulator};
///
/// let g = gen::grid(4, 4);
/// let mut config = SimConfig::paper_defaults();
/// config.injection_rate = 0.05;
/// let mut serial = Simulator::new(&g, config)?;
/// let mut sharded = ShardedSimulator::new(&g, config, 4)?;
/// assert_eq!(sharded.run_to_window(500, 1_000), serial.run_to_window(500, 1_000));
/// # Ok::<(), nocsim::SimError>(())
/// ```
pub struct ShardedSimulator {
    config: SimConfig,
    shards: Vec<Arc<Mutex<Simulator>>>,
    /// `None` in single-shard inline mode.
    shared: Option<Arc<Shared>>,
    workers: Vec<JoinHandle<()>>,
    /// Shard `k` owns routers `cuts[k]..cuts[k + 1]`.
    cuts: Vec<usize>,
    cycle: u64,
    window_start: u64,
    num_endpoints: usize,
}

impl std::fmt::Debug for ShardedSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimulator")
            .field("shards", &self.shards.len())
            .field("cuts", &self.cuts)
            .field("cycle", &self.cycle)
            .finish_non_exhaustive()
    }
}

impl ShardedSimulator {
    /// Builds a sharded simulator over `shards` balanced contiguous
    /// router-id ranges (clamped to the router count).
    ///
    /// # Errors
    ///
    /// As [`Simulator::new`].
    pub fn new(g: &Graph, config: SimConfig, shards: usize) -> Result<Self, SimError> {
        let latency = config.link_latency;
        Self::with_link_specs(g, config, |_, _| LinkSpec::uniform(latency), shards)
    }

    /// [`ShardedSimulator::new`] over heterogeneous links (the sharded
    /// sibling of [`Simulator::with_link_specs`]).
    ///
    /// # Errors
    ///
    /// As [`Simulator::with_link_specs`].
    pub fn with_link_specs(
        g: &Graph,
        config: SimConfig,
        spec: impl Fn(RouterId, RouterId) -> LinkSpec,
        shards: usize,
    ) -> Result<Self, SimError> {
        let n = g.num_vertices();
        let k = shards.clamp(1, n.max(1));
        let cuts: Vec<usize> = (0..=k).map(|i| i * n / k).collect();
        Self::with_partition(g, config, spec, &cuts)
    }

    /// Builds a sharded simulator over an explicit contiguous partition:
    /// shard `k` owns routers `cuts[k]..cuts[k + 1]`. `cuts` must start
    /// at 0, end at the router count, and be strictly increasing.
    ///
    /// # Errors
    ///
    /// As [`Simulator::with_link_specs`], plus
    /// [`SimError::InvalidConfig`] for a malformed partition.
    pub fn with_partition(
        g: &Graph,
        config: SimConfig,
        spec: impl Fn(RouterId, RouterId) -> LinkSpec,
        cuts: &[usize],
    ) -> Result<Self, SimError> {
        let n = g.num_vertices();
        let valid = cuts.len() >= 2
            && cuts.first() == Some(&0)
            && cuts.last() == Some(&n)
            && cuts.windows(2).all(|w| w[0] < w[1]);
        if !valid {
            return Err(SimError::InvalidConfig(
                "shard cuts must rise strictly from 0 to the router count",
            ));
        }
        let k = cuts.len() - 1;
        if k == 1 {
            // Single shard: the serial simulator itself, no threads.
            let sim = Simulator::with_link_specs(g, config, spec)?;
            return Ok(Self {
                config,
                num_endpoints: sim.num_endpoints(),
                shards: vec![Arc::new(Mutex::new(sim))],
                shared: None,
                workers: Vec::new(),
                cuts: cuts.to_vec(),
                cycle: 0,
                window_start: u64::MAX,
            });
        }

        // Lookahead: a boundary push at cycle t is due no earlier than
        // t + latency, so W = min boundary latency keeps every handoff
        // inside the next window.
        let shard_of = |r: usize| cuts.partition_point(|&c| c <= r) - 1;
        let mut window = u64::MAX;
        for r in 0..n {
            for &u in g.neighbors(r) {
                if shard_of(r) != shard_of(u) {
                    window = window.min(spec(r, u).latency.max(1));
                }
            }
        }
        // A connected graph with k >= 2 contiguous ranges always has a
        // boundary link; guard the degenerate case anyway.
        let capacity = if window == u64::MAX { 1 } else { window as usize };

        let tables = Simulator::checked_tables(g, &config)?;
        let mut shards = Vec::with_capacity(k);
        for w in cuts.windows(2) {
            let tables = Arc::clone(&tables);
            let sim = Simulator::new_shard(g, config, &spec, tables, (w[0], w[1]), capacity)?;
            shards.push(Arc::new(Mutex::new(sim)));
        }
        let num_endpoints = lock(&shards[0]).num_endpoints();

        // Dense mailbox index per boundary link, ascending link id: the
        // union of all shards' outgoing flit links (each boundary link
        // crosses exactly one cut, in one direction).
        let mut boundary: Vec<usize> =
            shards.iter().flat_map(|s| lock(s).out_links().to_vec()).collect();
        boundary.sort_unstable();
        let mail_of = |l: usize| boundary.binary_search(&l).expect("boundary link registered");
        let shared = Arc::new(Shared {
            command: Mutex::new(Command::Stop),
            start: PoisonBarrier::new(k + 1),
            done: PoisonBarrier::new(k + 1),
            sync: PoisonBarrier::new(k),
            flit_mail: (0..boundary.len())
                .map(|_| Mutex::new(Vec::with_capacity(capacity)))
                .collect(),
            credit_mail: (0..boundary.len())
                .map(|_| Mutex::new(Vec::with_capacity(capacity)))
                .collect(),
            fault_seeds: (0..k).map(|_| Mutex::new(Vec::new())).collect(),
            fault_credits: (0..k).map(|_| Mutex::new(Vec::new())).collect(),
        });

        let mut workers = Vec::with_capacity(k);
        for (index, sim) in shards.iter().enumerate() {
            let wire = |links: &[usize]| -> Vec<(usize, usize)> {
                links.iter().map(|&l| (l, mail_of(l))).collect()
            };
            let mut worker = {
                let s = lock(sim);
                Worker {
                    index,
                    sim: Arc::clone(sim),
                    shared: Arc::clone(&shared),
                    window,
                    out_links: wire(s.out_links()),
                    in_links: wire(s.in_links()),
                }
            };
            let handle = std::thread::Builder::new()
                .name(format!("nocsim-shard-{index}"))
                .spawn(move || {
                    let shared = Arc::clone(&worker.shared);
                    let outcome =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.run()));
                    if outcome.is_err() {
                        // The panic hook already printed the message;
                        // poison the barriers so nobody waits forever.
                        shared.start.poison();
                        shared.done.poison();
                        shared.sync.poison();
                    }
                })
                .expect("spawn shard worker");
            workers.push(handle);
        }

        Ok(Self {
            config,
            shards,
            shared: Some(shared),
            workers,
            cuts: cuts.to_vec(),
            cycle: 0,
            window_start: u64::MAX,
            num_endpoints,
        })
    }

    /// Issues one command and waits for every worker to finish it.
    fn command(&self, command: Command) {
        let shared = self.shared.as_ref().expect("threaded mode");
        *lock(&shared.command) = command;
        shared.start.wait();
        shared.done.wait();
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Installs a fault plan on every shard; see
    /// [`Simulator::install_fault_plan`]. Each shard holds the complete
    /// schedule, and failure events are applied in lockstep at window
    /// barriers — a faulted run is bit-identical for any shard count.
    ///
    /// # Panics
    ///
    /// As [`Simulator::install_fault_plan`], and if the simulation has
    /// already run.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        assert_eq!(self.cycle, 0, "install the fault plan before running");
        for shard in &self.shards {
            lock(shard).install_fault_plan(plan.clone());
        }
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of endpoints.
    #[must_use]
    pub fn num_endpoints(&self) -> usize {
        self.num_endpoints
    }

    /// Runs `cycles` simulation cycles across all shards.
    pub fn run(&mut self, cycles: u64) {
        let target = self.cycle.saturating_add(cycles);
        if self.shared.is_none() {
            lock(&self.shards[0]).run(cycles);
        } else {
            self.command(Command::Run { target });
        }
        self.cycle = target;
    }

    /// Opens the measurement window at the current cycle on every shard.
    pub fn open_measurement_window(&mut self) {
        self.window_start = self.cycle;
        for shard in &self.shards {
            lock(shard).open_measurement_window();
        }
    }

    /// Runs `warmup` cycles, opens the measurement window, then runs
    /// `measure` cycles and returns the window's statistics — the sharded
    /// [`Simulator::run_to_window`].
    pub fn run_to_window(&mut self, warmup: u64, measure: u64) -> NetworkStats {
        self.run(warmup);
        self.open_measurement_window();
        self.run(measure);
        self.stats()
    }

    /// Aggregated statistics since the measurement window opened —
    /// bit-identical to the serial run's [`Simulator::stats`].
    ///
    /// # Panics
    ///
    /// Panics if no measurement window was opened.
    #[must_use]
    pub fn stats(&self) -> NetworkStats {
        assert!(self.window_start != u64::MAX, "open a measurement window first");
        let mut sums = WindowSums::default();
        for shard in &self.shards {
            sums.merge(&lock(shard).window_sums());
        }
        let window_cycles = self.cycle - self.window_start;
        stats_from_sums(&sums, window_cycles, self.num_endpoints, self.config.packet_size)
    }

    /// Latency percentile estimates over the sum of the shards' latency
    /// histograms; see [`Simulator::latency_percentiles`].
    ///
    /// # Panics
    ///
    /// Panics if any `p` is outside `(0, 1]`.
    #[must_use]
    pub fn latency_percentiles(&self, ps: &[f64]) -> Vec<Option<f64>> {
        let mut merged = vec![0u64; LATENCY_HISTOGRAM_BUCKETS];
        for shard in &self.shards {
            for (m, &c) in merged.iter_mut().zip(lock(shard).latency_histogram()) {
                *m += c;
            }
        }
        percentiles_from_histogram(ps, &merged)
    }

    /// Per-channel traffic counts since construction, summed across
    /// shards (a boundary link counts on its sending shard only); see
    /// [`Simulator::channel_loads`].
    #[must_use]
    pub fn channel_loads(&self) -> Vec<(RouterId, RouterId, u64)> {
        let mut out = lock(&self.shards[0]).channel_loads();
        for shard in &self.shards[1..] {
            let sim = lock(shard);
            for (slot, &count) in out.iter_mut().zip(sim.link_flit_counts()) {
                slot.2 += count;
            }
        }
        out
    }

    /// Attaches an observability probe to every shard; see
    /// [`Simulator::attach_probe`]. Shards sample at the same
    /// absolute-cycle boundaries, so the per-shard series line up window
    /// for window and [`ShardedSimulator::obs_windows`] merges them
    /// deterministically.
    pub fn attach_probe(&mut self, probe: Probe) {
        for shard in &self.shards {
            lock(shard).attach_probe(probe);
        }
    }

    /// The probe's recorded series, merged across shards by window index
    /// in ascending shard order (integer sums — deterministic regardless
    /// of how the shards interleaved in wall time). Empty without a probe.
    ///
    /// Endpoint-local counters (offered/accepted/received/latency) merge
    /// to exactly the serial run's values; occupancy gauges sum each
    /// shard's owned region, so a flit mid-handoff between shards at a
    /// boundary is attributed to neither until applied.
    #[must_use]
    pub fn obs_windows(&self) -> Vec<WindowSample> {
        let per_shard: Vec<Vec<WindowSample>> =
            self.shards.iter().map(|s| lock(s).obs_windows().to_vec()).collect();
        let views: Vec<&[WindowSample]> = per_shard.iter().map(Vec::as_slice).collect();
        merge_window_series(&views)
    }

    /// Network-wide stall-cause tallies, summed across shards; see
    /// [`Simulator::stall_counters`].
    #[must_use]
    pub fn stall_counters(&self) -> StallCounters {
        let mut stalls = StallCounters::default();
        for shard in &self.shards {
            stalls.absorb(lock(shard).stall_counters());
        }
        stalls
    }

    /// Heap bytes the run holds: every shard's simulator (see
    /// [`Simulator::heap_bytes`]), each distinct routing table once (the
    /// shards share one until a fault gives each its own degraded copy),
    /// the boundary mailboxes and the workers' wiring lists.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let mut bytes = self.shards.heap_bytes()
            + self.workers.heap_bytes()
            + self.cuts.heap_bytes()
            + self.shared.as_deref().map_or(0, Shared::heap_bytes);
        let mut tables: Vec<*const crate::routing::RoutingTables> = Vec::new();
        for shard in &self.shards {
            let sim = lock(shard);
            bytes += arc_block::<Mutex<Simulator>>() + sim.heap_bytes_without_tables();
            if self.shared.is_some() {
                // A worker's `(link, mailbox)` pair per boundary link.
                bytes += (sim.out_links().len() + sim.in_links().len())
                    * size_of::<(usize, usize)>();
            }
            let t = sim.routing_tables();
            if !tables.contains(&Arc::as_ptr(t)) {
                tables.push(Arc::as_ptr(t));
                bytes += tables_heap_bytes(t);
            }
        }
        bytes
    }

    /// Flits currently inside the network, summed across shards.
    #[must_use]
    pub fn flits_in_network(&self) -> usize {
        self.shards.iter().map(|s| lock(s).flits_in_network()).sum()
    }

    /// The deadlock watchdog, aggregated across shards: flits are in the
    /// network and *no* shard has moved one for the watchdog period.
    /// Matches the serial [`Simulator::deadlock_suspected`] bit for bit.
    #[must_use]
    pub fn deadlock_suspected(&self) -> bool {
        let mut in_flight = 0usize;
        let mut last_progress = 0u64;
        for shard in &self.shards {
            let sim = lock(shard);
            in_flight += sim.flits_in_network();
            last_progress = last_progress.max(sim.last_progress_cycle());
        }
        in_flight > 0
            && self.cycle.saturating_sub(last_progress) > self.config.deadlock_watchdog
    }
}

impl Drop for ShardedSimulator {
    fn drop(&mut self) {
        let Some(shared) = self.shared.take() else { return };
        if shared.start.is_poisoned() {
            // A worker already died; joining reaps the rest (their next
            // barrier wait panics too).
            for handle in self.workers.drain(..) {
                let _ = handle.join();
            }
            return;
        }
        *lock(&shared.command) = Command::Stop;
        shared.start.wait();
        shared.done.wait();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_graph::gen;

    fn config(rate: f64) -> SimConfig {
        SimConfig {
            vcs: 4,
            buffer_depth: 4,
            injection_rate: rate,
            seed: 0x5EED,
            source_queue_cap: 16,
            ..SimConfig::paper_defaults()
        }
    }

    #[test]
    fn sharded_matches_serial_stats() {
        let g = gen::grid(4, 4);
        let cfg = config(0.1);
        let mut serial = Simulator::new(&g, cfg).unwrap();
        let serial_stats = serial.run_to_window(600, 2_000);
        for shards in [1, 2, 3, 4, 8] {
            let mut sharded = ShardedSimulator::new(&g, cfg, shards).unwrap();
            let stats = sharded.run_to_window(600, 2_000);
            assert_eq!(stats, serial_stats, "{shards} shards");
            assert_eq!(sharded.flits_in_network(), serial.flits_in_network());
            assert_eq!(sharded.channel_loads(), serial.channel_loads());
            assert_eq!(
                sharded.latency_percentiles(&[0.5, 0.99]),
                serial.latency_percentiles(&[0.5, 0.99])
            );
        }
    }

    #[test]
    fn sharded_faulted_run_matches_serial() {
        use crate::fault::{FaultEvent, FaultPlan, FaultSchedule, FaultTarget};
        let g = gen::grid(4, 4);
        let cfg = config(0.1);
        let plan = FaultPlan::new(FaultSchedule::new(vec![
            FaultEvent { cycle: 700, target: FaultTarget::Link { a: 5, b: 6 } },
            FaultEvent { cycle: 1_200, target: FaultTarget::Router(10) },
        ]));
        let mut serial = Simulator::new(&g, cfg).unwrap();
        serial.install_fault_plan(plan.clone());
        let serial_stats = serial.run_to_window(600, 2_000);
        assert!(
            serial_stats.link_fault_dropped_flits + serial_stats.router_fault_dropped_flits > 0,
            "scenario expected to drop flits: {serial_stats:?}"
        );
        for shards in [1, 2, 3, 4, 8] {
            let mut sharded = ShardedSimulator::new(&g, cfg, shards).unwrap();
            sharded.install_fault_plan(plan.clone());
            let stats = sharded.run_to_window(600, 2_000);
            assert_eq!(stats, serial_stats, "{shards} shards");
            assert_eq!(
                sharded.flits_in_network(),
                serial.flits_in_network(),
                "{shards} shards"
            );
            assert_eq!(sharded.channel_loads(), serial.channel_loads(), "{shards} shards");
        }
    }

    #[test]
    fn shard_count_clamps_to_router_count() {
        let g = gen::grid(2, 2);
        let mut sim = ShardedSimulator::new(&g, config(0.1), 64).unwrap();
        assert_eq!(sim.num_shards(), 4);
        let stats = sim.run_to_window(300, 600);
        assert!(stats.received_packets > 0);
    }

    #[test]
    fn invalid_partitions_rejected() {
        let g = gen::grid(2, 2);
        let cfg = config(0.1);
        let spec = |_, _| LinkSpec::uniform(cfg.link_latency);
        for cuts in [&[0usize, 4][..0], &[1, 4][..], &[0, 2][..], &[0, 2, 2, 4][..]] {
            assert!(
                ShardedSimulator::with_partition(&g, cfg, spec, cuts).is_err(),
                "{cuts:?} accepted"
            );
        }
    }

    #[test]
    fn watchdog_quiet_on_healthy_network() {
        let g = gen::grid(3, 3);
        let mut sim = ShardedSimulator::new(&g, config(0.1), 3).unwrap();
        sim.run_to_window(500, 1_500);
        assert!(!sim.deadlock_suspected());
    }
}
