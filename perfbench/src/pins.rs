//! Canonical text of every simulated output, and the pinned digests it is
//! checked against.
//!
//! Each checked output (a *record*) is rendered field by field into text in
//! which every float is written in Rust's shortest round-trip form, so two
//! records have equal text exactly when every value is bit-identical. The
//! pins file of a workload holds, per seed, the SHA-256 prefix of each
//! record's text; `--record` rewrites the entries of one seed.

use std::collections::BTreeMap;
use std::fmt::{Debug, Write as _};
use std::path::Path;

use chiplet_arrange::{AnnealStats, ProxyScore, SearchState};
use chiplet_workload::WorkloadStats;
use nocsim::{LoadPointResult, NetworkStats, SaturationResult};

/// One checked output of an operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// What produced it (`probe hexamesh 0.5`, `window 2`, …).
    pub label: String,
    /// Canonical text of every value it produced.
    pub text: String,
    /// The operation returned an error or stopped before completing.
    pub failed: bool,
}

impl Record {
    /// A completed operation's record.
    pub fn ok(label: impl Into<String>, text: Canon) -> Self {
        Self { label: label.into(), text: text.0, failed: false }
    }

    /// A failed operation's record; `why` becomes its text.
    pub fn failed(label: impl Into<String>, why: impl Into<String>) -> Self {
        Self { label: label.into(), text: why.into(), failed: true }
    }

    /// The digest pinned for this record.
    pub fn digest(&self) -> String {
        xp::hash::sha256_hex(self.text.as_bytes())[..16].to_owned()
    }
}

/// Builder of a record's canonical text: one `key=value` line per field.
#[derive(Debug, Default)]
pub struct Canon(String);

impl Canon {
    /// An empty record text.
    pub fn new() -> Self {
        Self::default()
    }

    /// The text built so far.
    pub fn into_text(self) -> String {
        self.0
    }

    /// Appends one field (`Debug` form: shortest round-trip floats).
    pub fn kv(&mut self, key: &str, value: impl Debug) -> &mut Self {
        let _ = writeln!(self.0, "{key}={value:?}");
        self
    }

    /// Appends every field of a [`NetworkStats`] under `prefix`.
    pub fn network(&mut self, prefix: &str, s: &NetworkStats) -> &mut Self {
        let p = |field: &str| format!("{prefix}.{field}");
        self.kv(&p("window_cycles"), s.window_cycles)
            .kv(&p("offered_packets"), s.offered_packets)
            .kv(&p("accepted_packets"), s.accepted_packets)
            .kv(&p("received_flits"), s.received_flits)
            .kv(&p("received_packets"), s.received_packets)
            .kv(&p("measured_packets"), s.measured_packets)
            .kv(&p("avg_packet_latency"), s.avg_packet_latency)
            .kv(&p("max_packet_latency"), s.max_packet_latency)
            .kv(
                &p("accepted_flits_per_cycle_per_endpoint"),
                s.accepted_flits_per_cycle_per_endpoint,
            )
            .kv(
                &p("offered_flits_per_cycle_per_endpoint"),
                s.offered_flits_per_cycle_per_endpoint,
            )
            .kv(&p("max_source_queue_flits"), s.max_source_queue_flits)
            .kv(&p("avg_source_queue_flits"), s.avg_source_queue_flits)
            .kv(&p("link_fault_dropped_flits"), s.link_fault_dropped_flits)
            .kv(&p("router_fault_dropped_flits"), s.router_fault_dropped_flits)
            .kv(&p("fault_dropped_packets"), s.fault_dropped_packets)
            .kv(&p("retransmitted_packets"), s.retransmitted_packets)
            .kv(&p("squelched_packets"), s.squelched_packets)
    }

    /// Appends a probe's [`LoadPointResult`].
    pub fn load_point(&mut self, p: &LoadPointResult) -> &mut Self {
        self.kv("offered", p.offered).kv("saturated", p.saturated).kv("deadlock", p.deadlock);
        self.network("stats", &p.stats)
    }

    /// Appends a search's [`SaturationResult`].
    pub fn saturation(&mut self, s: &SaturationResult) -> &mut Self {
        self.kv("rate", s.rate)
            .kv("throughput", s.throughput)
            .kv("latency_at_saturation", s.latency_at_saturation)
    }

    /// Appends a kernel run's [`WorkloadStats`], per-tag completion included.
    pub fn workload(&mut self, s: &WorkloadStats) -> &mut Self {
        let tags: Vec<String> = s
            .per_tag_completion
            .iter()
            .map(|(tag, done)| {
                format!("{tag}:{}", done.map_or("none".to_owned(), |c| c.to_string()))
            })
            .collect();
        self.kv("completed", s.completed)
            .kv("makespan", s.makespan)
            .kv("delivered_messages", s.delivered_messages)
            .kv("delivered_flits", s.delivered_flits)
            .kv("critical_path_cycles", s.critical_path_cycles)
            .kv("per_tag_completion", tags.join(" "))
            .network("network", &s.network)
    }

    /// Appends a restart's [`AnnealStats`].
    pub fn anneal_stats(&mut self, s: &AnnealStats) -> &mut Self {
        self.kv("proposed", s.proposed)
            .kv("invalid", s.invalid)
            .kv("accepted", s.accepted)
            .kv("improved", s.improved)
    }

    /// Appends a [`ProxyScore`].
    pub fn proxy(&mut self, s: &ProxyScore) -> &mut Self {
        self.kv("score.avg_distance", s.avg_distance)
            .kv("score.diameter", s.diameter)
            .kv("score.bisection_cut", s.bisection_cut)
            .kv("score.value", s.value)
    }

    /// Appends a state's tiles as `x,y,w,h` quadruples.
    pub fn state(&mut self, key: &str, s: &SearchState) -> &mut Self {
        let rects: Vec<String> = s
            .rects()
            .iter()
            .map(|r| format!("{},{},{},{}", r.x(), r.y(), r.width(), r.height()))
            .collect();
        self.kv(key, rects.join(" "))
    }
}

/// Pinned digests of one workload: seed → `(label, digest)` per record.
#[derive(Debug, Default)]
pub struct Pins(BTreeMap<u64, Vec<(String, String)>>);

const HEADER: &str =
    "# seed record digest label — sha256 prefix of each record's canonical text\n";

impl Pins {
    /// Reads a pins file; a missing file pins nothing.
    ///
    /// # Errors
    ///
    /// Unreadable files and malformed lines.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Self::default()),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let mut pins = Self::default();
        for (no, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let bad = || format!("{}:{}: malformed pin line", path.display(), no + 1);
            let mut parts = line.splitn(4, ' ');
            let seed: u64 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            let index: usize = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            let digest = parts.next().ok_or_else(bad)?.to_owned();
            let label = parts.next().ok_or_else(bad)?.to_owned();
            let records = pins.0.entry(seed).or_default();
            if index != records.len() {
                return Err(bad());
            }
            records.push((label, digest));
        }
        Ok(pins)
    }

    /// The pinned `(label, digest)` list of `seed`, if any.
    pub fn get(&self, seed: u64) -> Option<&[(String, String)]> {
        self.0.get(&seed).map(Vec::as_slice)
    }

    /// Replaces the pins of `seed` with `records` and rewrites the file.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn record(&mut self, path: &Path, seed: u64, records: &[Record]) -> Result<(), String> {
        self.0.insert(seed, records.iter().map(|r| (r.label.clone(), r.digest())).collect());
        let mut out = String::from(HEADER);
        for (seed, records) in &self.0 {
            for (i, (label, digest)) in records.iter().enumerate() {
                let _ = writeln!(out, "{seed} {i} {digest} {label}");
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Renders records as a readable dump (the reviewable form of the pins).
pub fn dump(records: &[Record]) -> String {
    let mut out = String::new();
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(out, "## {i} {} [{}]", r.label, r.digest());
        out.push_str(&r.text);
    }
    out
}
