//! Windowed observability probes.
//!
//! A [`Probe`] attached to a [`crate::Simulator`] (or a
//! [`crate::ShardedSimulator`]) samples a fixed-capacity time-series of
//! [`WindowSample`]s: per-window throughput and latency counters plus
//! instantaneous occupancy gauges and the router stall-cause tallies of
//! [`crate::router::StallCounters`].
//!
//! # Zero-perturbation contract
//!
//! Probes observe, never perturb:
//!
//! * every buffer is preallocated at attach time and recording stops when
//!   the capacity is reached, so the steady-state hot path stays
//!   allocation-free (the counting-allocator tests run probe-attached);
//! * samples read counters the simulator already maintains — nothing a
//!   probe records feeds back into simulation decisions, so
//!   [`crate::NetworkStats`] and every golden suite are bit-identical
//!   whether a probe is attached or not;
//! * sampling only clamps idle fast-forward to the next window boundary —
//!   the extra cycles stepped are idle by construction and change no
//!   state.
//!
//! Samples are integer-only deltas and gauges; derived floats (average
//! latency, utilization) are computed at export time, keeping per-shard
//! series mergeable in any order without float drift.

use crate::router::StallCounters;
use crate::sim::WindowSums;

/// Attach-time probe configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct Probe {
    /// Window length in cycles between samples.
    pub sample_every: u64,
    /// Maximum number of windows recorded; sampling stops (and idle
    /// fast-forward is no longer clamped) once the series is full.
    pub capacity: usize,
}

impl Probe {
    /// A probe sampling every `sample_every` cycles into a series of at
    /// most `capacity` windows.
    ///
    /// # Panics
    ///
    /// Panics if `sample_every` is 0 or `capacity` is 0.
    #[must_use]
    pub fn new(sample_every: u64, capacity: usize) -> Self {
        assert!(sample_every > 0, "sample_every must be at least 1 cycle");
        assert!(capacity > 0, "a probe needs capacity for at least one window");
        Self { sample_every, capacity }
    }

    /// Capacity covering `cycles` simulated cycles at this probe's rate
    /// (rounded up, minimum 1).
    #[must_use]
    pub fn capacity_for(sample_every: u64, cycles: u64) -> usize {
        usize::try_from(cycles.div_ceil(sample_every.max(1)).max(1)).unwrap_or(usize::MAX)
    }
}

/// One sampled window: integer deltas over `[start_cycle, end_cycle)`
/// plus instantaneous gauges read at `end_cycle`.
///
/// All fields are integers so per-shard samples merge exactly (see
/// [`WindowSample::absorb`]); ratios and averages are derived lazily.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct WindowSample {
    /// Sequential window index (merge key across shards).
    pub window: u64,
    /// First cycle covered by this window's deltas.
    pub start_cycle: u64,
    /// Cycle the sample was taken at (exclusive end of the deltas).
    pub end_cycle: u64,
    /// Packets offered by sources in the window.
    pub offered_packets: u64,
    /// Packets fully accepted into source queues in the window.
    pub accepted_packets: u64,
    /// Flits delivered to destinations in the window.
    pub received_flits: u64,
    /// Packets (tail flits) delivered in the window.
    pub received_packets: u64,
    /// Packets whose latency was measured in the window.
    pub measured_packets: u64,
    /// Sum of measured packet latencies (cycles) in the window.
    pub latency_sum: u64,
    /// Gauge: flits inside the network at `end_cycle` (for a shard, the
    /// flits inside its owned region).
    pub flits_in_network: u64,
    /// Gauge: flits buffered across all router input VCs at `end_cycle`.
    pub buffered_flits: u64,
    /// Router stall-cause deltas over the window.
    pub stalls: StallCounters,
    /// Flits that traversed any router-to-router link in the window.
    pub link_flits: u64,
    /// Maximum per-link flit count over the window (a congestion peak:
    /// `max_link_flits * interval / window` approaches 1 on a saturated
    /// wire).
    pub max_link_flits: u64,
}

impl WindowSample {
    /// Average packet latency over the window, or `None` if nothing was
    /// measured.
    #[must_use]
    pub fn avg_latency(&self) -> Option<f64> {
        (self.measured_packets > 0)
            .then(|| self.latency_sum as f64 / self.measured_packets as f64)
    }

    /// Accepted-throughput gauge: received flits per cycle per endpoint
    /// (`num_endpoints` is the whole network's endpoint count).
    #[must_use]
    pub fn received_flits_per_cycle_per_endpoint(&self, num_endpoints: usize) -> f64 {
        let cycles = self.end_cycle.saturating_sub(self.start_cycle).max(1);
        self.received_flits as f64 / (cycles as f64 * num_endpoints as f64)
    }

    /// Merges another shard's sample for the same window into this one:
    /// counters and gauges sum, `max_link_flits` takes the max.
    ///
    /// # Panics
    ///
    /// Debug-asserts that both samples cover the same window.
    pub fn absorb(&mut self, other: &WindowSample) {
        debug_assert_eq!(self.window, other.window, "merging different windows");
        debug_assert_eq!(self.start_cycle, other.start_cycle);
        debug_assert_eq!(self.end_cycle, other.end_cycle);
        self.offered_packets += other.offered_packets;
        self.accepted_packets += other.accepted_packets;
        self.received_flits += other.received_flits;
        self.received_packets += other.received_packets;
        self.measured_packets += other.measured_packets;
        self.latency_sum += other.latency_sum;
        self.flits_in_network += other.flits_in_network;
        self.buffered_flits += other.buffered_flits;
        self.stalls.absorb(other.stalls);
        self.link_flits += other.link_flits;
        self.max_link_flits = self.max_link_flits.max(other.max_link_flits);
    }
}

/// Live probe state boxed behind `Option` on the simulator (`None` — the
/// default — costs one branch per `run` iteration and no cache space).
///
/// Everything here is preallocated by [`crate::Simulator::attach_probe`];
/// sampling pushes into spare `Vec` capacity and updates `prev_*`
/// snapshots in place, so the hot path never allocates.
#[derive(Debug)]
pub(crate) struct ObsState {
    pub(crate) sample_every: u64,
    /// Absolute cycle of the next sample; `u64::MAX` once full.
    pub(crate) next_sample: u64,
    /// The recorded series (len < capacity ⇒ still recording).
    pub(crate) windows: Vec<WindowSample>,
    /// Cycle the previous sample was taken at (window start for the next).
    pub(crate) last_sample_cycle: u64,
    /// Window-counter snapshot at the previous sample.
    pub(crate) prev: WindowSums,
    /// Stall-counter snapshot at the previous sample.
    pub(crate) prev_stalls: StallCounters,
    /// Per-link flit-count snapshot at the previous sample (updated in
    /// place while diffing).
    pub(crate) prev_links: Vec<u64>,
}

impl ObsState {
    pub(crate) fn new(probe: Probe, now: u64, num_links: usize) -> Self {
        Self {
            sample_every: probe.sample_every,
            // First boundary strictly after the attach cycle, aligned to
            // absolute multiples so serial and sharded runs sample at
            // identical cycles.
            next_sample: (now / probe.sample_every + 1) * probe.sample_every,
            windows: Vec::with_capacity(probe.capacity),
            last_sample_cycle: now,
            prev: WindowSums::default(),
            prev_stalls: StallCounters::default(),
            prev_links: vec![0; num_links],
        }
    }
}

/// Merges per-shard window series (each ascending in `window`) into one,
/// deterministically: samples with the same window index are absorbed in
/// ascending shard order ([`WindowSample::absorb`] — integer sums, so the
/// result is identical however the shards interleaved in wall time).
#[must_use]
pub fn merge_window_series(per_shard: &[&[WindowSample]]) -> Vec<WindowSample> {
    let mut merged: Vec<WindowSample> = Vec::new();
    for series in per_shard {
        for s in *series {
            match merged.binary_search_by_key(&s.window, |m| m.window) {
                Ok(i) => merged[i].absorb(s),
                Err(i) => merged.insert(i, *s),
            }
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_validation() {
        let p = Probe::new(100, 8);
        assert_eq!(p.sample_every, 100);
        assert_eq!(Probe::capacity_for(100, 1_000), 10);
        assert_eq!(Probe::capacity_for(100, 1_001), 11);
        assert_eq!(Probe::capacity_for(100, 0), 1);
    }

    #[test]
    #[should_panic(expected = "sample_every")]
    fn zero_window_rejected() {
        let _ = Probe::new(0, 8);
    }

    #[test]
    fn absorb_sums_counters_and_maxes_peaks() {
        let mut a = WindowSample {
            window: 3,
            start_cycle: 300,
            end_cycle: 400,
            received_flits: 10,
            max_link_flits: 4,
            ..WindowSample::default()
        };
        let b = WindowSample { received_flits: 5, max_link_flits: 9, ..a };
        a.absorb(&b);
        assert_eq!(a.received_flits, 15);
        assert_eq!(a.max_link_flits, 9);
        assert_eq!(a.window, 3);
    }

    #[test]
    fn merge_is_keyed_on_window_index() {
        let s = |w: u64, flits: u64| WindowSample {
            window: w,
            start_cycle: w * 100,
            end_cycle: (w + 1) * 100,
            received_flits: flits,
            ..WindowSample::default()
        };
        let shard0 = [s(0, 1), s(1, 2)];
        let shard1 = [s(0, 10), s(1, 20), s(2, 30)];
        let merged = merge_window_series(&[&shard0, &shard1]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].received_flits, 11);
        assert_eq!(merged[1].received_flits, 22);
        assert_eq!(merged[2].received_flits, 30);
        assert!(merged.windows(2).all(|w| w[0].window < w[1].window));
    }
}
