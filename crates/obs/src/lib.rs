//! Observability sinks: serialization of engine-level traces.
//!
//! The simulator-side probes live in `nocsim::obs` (they must see
//! simulator internals); this crate holds the dependency-free *sinks*
//! that turn recorded spans into files — currently the Chrome trace
//! event format, loadable by Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing`.
//!
//! The JSON emitter is hand-rolled (the workspace has no serialization
//! dependency) and deterministic: span order, key order, and number
//! formatting are all fixed, so traces diff cleanly across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// One argument value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// A string argument (escaped on output).
    Str(String),
    /// An integer argument.
    Int(i64),
    /// A float argument (must be finite; NaN/inf are not valid JSON).
    Float(f64),
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::Int(v)
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Float(v)
    }
}

/// One complete ("ph": "X") trace event: a named span on a track.
///
/// Times are nanoseconds relative to the trace epoch (the containing
/// run's start); the emitter converts to the microsecond `ts`/`dur`
/// fields the format requires, keeping sub-microsecond precision as
/// fractional digits.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Span name (shown on the slice).
    pub name: String,
    /// Comma-separated category list (Perfetto filter key).
    pub cat: &'static str,
    /// Process id track; one logical engine per trace, so usually 1.
    pub pid: u64,
    /// Thread id track: worker slot index, or 0 for the coordinator.
    pub tid: u64,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Extra key/value payload rendered under "args".
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceSpan {
    /// A span with no arguments; fill `args` afterwards as needed.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        cat: &'static str,
        tid: u64,
        start_ns: u64,
        dur_ns: u64,
    ) -> Self {
        Self { name: name.into(), cat, pid: 1, tid, start_ns, dur_ns, args: Vec::new() }
    }
}

/// Collects [`TraceSpan`]s and renders them as one Chrome-trace JSON
/// document.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    spans: Vec<TraceSpan>,
    /// Optional human-readable names for thread tracks (tid -> name),
    /// emitted as `thread_name` metadata events.
    thread_names: Vec<(u64, String)>,
}

impl TraceBuilder {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a span. Spans may arrive in any order; the emitter sorts
    /// by start time so output is deterministic regardless of how worker
    /// threads interleaved.
    pub fn push(&mut self, span: TraceSpan) {
        self.spans.push(span);
    }

    /// Appends spans recorded elsewhere (e.g. a per-worker buffer).
    pub fn extend(&mut self, spans: impl IntoIterator<Item = TraceSpan>) {
        self.spans.extend(spans);
    }

    /// Names a thread track (rendered as `thread_name` metadata).
    pub fn name_thread(&mut self, tid: u64, name: impl Into<String>) {
        self.thread_names.push((tid, name.into()));
    }

    /// Number of spans collected so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no spans have been collected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Renders the trace as a Chrome trace event JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut spans: Vec<&TraceSpan> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.tid, s.dur_ns));

        let mut out = String::with_capacity(64 + 160 * spans.len());
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for (tid, name) in &self.thread_names {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
            let _ = write!(out, "{tid}");
            out.push_str(",\"args\":{\"name\":");
            push_json_string(&mut out, name);
            out.push_str("}}");
        }
        for s in spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            push_json_string(&mut out, &s.name);
            out.push_str(",\"cat\":");
            push_json_string(&mut out, s.cat);
            out.push_str(",\"ph\":\"X\",\"ts\":");
            push_us(&mut out, s.start_ns);
            out.push_str(",\"dur\":");
            push_us(&mut out, s.dur_ns);
            let _ = write!(out, ",\"pid\":{},\"tid\":{}", s.pid, s.tid);
            if !s.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (key, value)) in s.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_string(&mut out, key);
                    out.push(':');
                    match value {
                        ArgValue::Str(v) => push_json_string(&mut out, v),
                        ArgValue::Int(v) => {
                            let _ = write!(out, "{v}");
                        }
                        ArgValue::Float(v) => {
                            if v.is_finite() {
                                let _ = write!(out, "{v}");
                            } else {
                                out.push_str("null");
                            }
                        }
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Writes `ns` nanoseconds as a microsecond JSON number with fixed
/// three-digit fractional precision (`1234567` → `1234.567`).
fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Appends `s` as a JSON string literal, escaping per RFC 8259.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_is_a_valid_document() {
        let trace = TraceBuilder::new();
        assert!(trace.is_empty());
        assert_eq!(trace.to_json(), "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
    }

    #[test]
    fn spans_render_with_microsecond_times_and_args() {
        let mut trace = TraceBuilder::new();
        let mut span = TraceSpan::new("job 3", "pool", 2, 1_234_567, 2_000);
        span.args.push(("coord", ArgValue::from("HexaMesh n=37")));
        span.args.push(("shards", ArgValue::from(4u64)));
        trace.push(span);
        let json = trace.to_json();
        assert!(json.contains("\"name\":\"job 3\""), "{json}");
        assert!(json.contains("\"ts\":1234.567"), "{json}");
        assert!(json.contains("\"dur\":2.000"), "{json}");
        assert!(json.contains("\"tid\":2"), "{json}");
        assert!(json.contains("\"coord\":\"HexaMesh n=37\""), "{json}");
        assert!(json.contains("\"shards\":4"), "{json}");
    }

    #[test]
    fn output_is_sorted_by_start_time_not_insertion_order() {
        let mut trace = TraceBuilder::new();
        trace.push(TraceSpan::new("late", "t", 0, 500, 1));
        trace.push(TraceSpan::new("early", "t", 0, 100, 1));
        let json = trace.to_json();
        let early = json.find("early").unwrap();
        let late = json.find("late").unwrap();
        assert!(early < late, "{json}");
    }

    #[test]
    fn strings_are_escaped() {
        let mut trace = TraceBuilder::new();
        trace.push(TraceSpan::new("quote \" slash \\ tab \t", "t", 0, 0, 1));
        let json = trace.to_json();
        assert!(json.contains("quote \\\" slash \\\\ tab \\t"), "{json}");
    }

    #[test]
    fn thread_names_emit_metadata_events() {
        let mut trace = TraceBuilder::new();
        trace.name_thread(3, "worker 3");
        let json = trace.to_json();
        assert!(json.contains("\"thread_name\""), "{json}");
        assert!(json.contains("\"worker 3\""), "{json}");
    }

    #[test]
    fn nonfinite_floats_degrade_to_null() {
        let mut trace = TraceBuilder::new();
        let mut span = TraceSpan::new("s", "t", 0, 0, 1);
        span.args.push(("bad", ArgValue::Float(f64::NAN)));
        let json = trace.to_json();
        drop(json);
        trace.push(span);
        assert!(trace.to_json().contains("\"bad\":null"));
    }
}
