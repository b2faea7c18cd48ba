//! In-memory spans around the public calls the workloads make, and the
//! per-layer metrics derived from them.
//!
//! A span is either an *operation* (one unit of workload work: a probe, a
//! measurement window, a kernel run, a restart, or a pass's set-up) or a
//! *layer call* made on that operation's behalf. Every span carries the id
//! of the operation it serves, so the spans of one operation share an id.
//! With tracing off, [`Tracer::op`] and [`Tracer::call`] only run their
//! closure.

use std::time::Instant;

use obs::{ArgValue, TraceBuilder, TraceSpan};

use crate::heap;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer prefix (`nocsim.routing`, …) or operation kind (`probe`, …).
    pub name: &'static str,
    /// `true` for an operation span, `false` for a layer call.
    pub is_op: bool,
    /// Id of the operation this span is or serves.
    pub op: u64,
    /// Pass of the run the span belongs to.
    pub pass: usize,
    /// Sample of the run the span belongs to: one set-up, or one pass's
    /// run.
    pub sample: usize,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Heap bytes still held after the call returned, minus before it.
    pub heap_delta: i64,
    /// Simulated facts attached to an operation (`saturated`, …).
    pub notes: Vec<(&'static str, f64)>,
}

/// Records spans while on; a pass-through while off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pass: usize,
    sample: usize,
    op: u64,
    next_op: u64,
    notes: Vec<(&'static str, f64)>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            on: false,
            epoch,
            pass: 0,
            sample: 0,
            op: 0,
            next_op: 0,
            notes: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts pass `pass`, recording spans only if `on`.
    pub fn begin_pass(&mut self, pass: usize, on: bool) {
        self.pass = pass;
        self.on = on;
    }

    /// Starts the next sample: a set-up, or a pass's run.
    pub fn begin_sample(&mut self) {
        self.sample += 1;
    }

    /// Runs one operation: `f` gets the tracer back to record the layer
    /// calls it makes.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.next_op;
        self.next_op += 1;
        let outer = std::mem::replace(&mut self.op, id);
        let notes = std::mem::take(&mut self.notes);
        let (start, heap_before) = (self.now_ns(), heap::live());
        let out = f(self);
        let span = self.finish(name, true, start, heap_before);
        self.spans.push(span);
        self.notes = notes;
        self.op = outer;
        out
    }

    /// Runs one public call into layer `layer` on behalf of the current
    /// operation.
    pub fn call<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let (start, heap_before) = (self.now_ns(), heap::live());
        let out = f();
        let span = self.finish(layer, false, start, heap_before);
        self.spans.push(span);
        out
    }

    /// Attaches a simulated fact to the current operation's span.
    pub fn note(&mut self, key: &'static str, value: f64) {
        if self.on {
            self.notes.push((key, value));
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn finish(
        &mut self,
        name: &'static str,
        is_op: bool,
        start_ns: u64,
        heap_before: usize,
    ) -> Span {
        let end = self.now_ns();
        // Two's-complement difference: the heap may shrink across a call.
        let heap_delta = heap::live().wrapping_sub(heap_before) as isize as i64;
        Span {
            name,
            is_op,
            op: self.op,
            pass: self.pass,
            sample: self.sample,
            start_ns,
            dur_ns: end.saturating_sub(start_ns),
            heap_delta,
            notes: if is_op { std::mem::take(&mut self.notes) } else { Vec::new() },
        }
    }
}

/// Renders spans as a Chrome-trace document (Perfetto loads it).
pub fn chrome_trace(spans: &[Span], track: &str) -> String {
    let mut trace = TraceBuilder::new();
    trace.name_thread(0, track);
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let mut span = TraceSpan::new(
            s.name,
            if s.is_op { "op" } else { "layer" },
            0,
            s.start_ns,
            s.dur_ns,
        );
        span.args.push(("op", ArgValue::from(s.op)));
        span.args.push(("pass", ArgValue::from(s.pass)));
        span.args.push(("self_us", ArgValue::Float(self_ns as f64 / 1e3)));
        span.args.push(("heap_delta_bytes", ArgValue::Int(s.heap_delta)));
        for &(key, value) in &s.notes {
            span.args.push((key, ArgValue::Float(value)));
        }
        trace.push(span);
    }
    trace.to_json()
}

/// Self time of every span: its duration minus the part its children
/// (layer calls inside an operation) cover. Layer calls are leaves.
fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|s| {
            if !s.is_op {
                return s.dur_ns;
            }
            let end = s.start_ns + s.dur_ns;
            let children: u64 = spans
                .iter()
                .filter(|c| !c.is_op && c.op == s.op && c.pass == s.pass)
                .filter(|c| c.start_ns >= s.start_ns && c.start_ns + c.dur_ns <= end)
                .map(|c| c.dur_ns)
                .sum();
            s.dur_ns.saturating_sub(children)
        })
        .collect()
}
