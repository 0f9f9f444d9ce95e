//! Structured event recording with Chrome trace-event export.
//!
//! An [`EventRecorder`] is shared (via `Arc`) by every thread of a run.
//! Each thread obtains a [`LaneBuf`] — an owned, append-only buffer keyed
//! by a Chrome `(pid, tid)` lane — and records spans and instants into it
//! with no synchronization at all; the buffer is drained into the
//! recorder exactly once, when the lane is dropped (thread teardown).
//! [`EventRecorder::chrome_trace_json`] then merges every lane, sorts by
//! `(pid, tid, ts)` and writes the Chrome trace-event JSON format that
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing` load
//! directly.
//!
//! All timestamps are nanoseconds since the recorder's creation, taken
//! from one shared monotonic epoch so lanes recorded on different threads
//! line up in the viewer.

use std::fmt::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::escape_into;

/// Chrome trace-event phase of a [`TraceEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// A complete span (`ph: "X"`, with a duration).
    Complete,
    /// A point event (`ph: "i"`, thread-scoped).
    Instant,
}

/// One recorded event. Names and categories are static strings so
/// recording never allocates.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Event name (shown on the slice).
    pub name: &'static str,
    /// Category (Perfetto filter).
    pub cat: &'static str,
    /// Span or instant.
    pub ph: Phase,
    /// Start, nanoseconds since the recorder epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Chrome process id (EasyHPS: rank; 0 = master).
    pub pid: u32,
    /// Chrome thread id within the pid.
    pub tid: u32,
    /// Optional single numeric argument, shown in the details pane.
    pub arg: Option<(&'static str, u64)>,
}

#[derive(Debug, Default)]
struct RecorderState {
    events: Vec<TraceEvent>,
    /// `(pid, Some(tid) for thread_name / None for process_name, name)`.
    names: Vec<(u32, Option<u32>, String)>,
}

/// Shared event recorder; see the module docs.
#[derive(Debug)]
pub struct EventRecorder {
    t0: Instant,
    state: Mutex<RecorderState>,
}

impl Default for EventRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl EventRecorder {
    /// A recorder whose epoch is now.
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            state: Mutex::new(RecorderState::default()),
        }
    }

    /// Nanoseconds since the recorder epoch.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// An owned per-thread buffer writing to lane `(pid, tid)`.
    pub fn lane(self: &Arc<Self>, pid: u32, tid: u32) -> LaneBuf {
        LaneBuf {
            rec: Some(self.clone()),
            pid,
            tid,
            buf: Vec::new(),
        }
    }

    /// Label process `pid` in the trace viewer (metadata event).
    pub fn name_process(&self, pid: u32, name: impl Into<String>) {
        let mut s = self.state.lock().expect("recorder mutex");
        s.names.push((pid, None, name.into()));
    }

    /// Label thread `(pid, tid)` in the trace viewer (metadata event).
    pub fn name_thread(&self, pid: u32, tid: u32, name: impl Into<String>) {
        let mut s = self.state.lock().expect("recorder mutex");
        s.names.push((pid, Some(tid), name.into()));
    }

    fn absorb(&self, mut events: Vec<TraceEvent>) {
        if events.is_empty() {
            return;
        }
        let mut s = self.state.lock().expect("recorder mutex");
        s.events.append(&mut events);
    }

    /// Number of events drained so far (flushed lanes only).
    pub fn len(&self) -> usize {
        self.state.lock().expect("recorder mutex").events.len()
    }

    /// Whether no events have been drained yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render every drained lane as Chrome trace-event JSON. Events are
    /// sorted by `(pid, tid, ts)`, so timestamps are monotone within each
    /// lane. Timestamps are microseconds with nanosecond fractions, as
    /// the format requires.
    pub fn chrome_trace_json(&self) -> String {
        let s = self.state.lock().expect("recorder mutex");
        let mut events = s.events.clone();
        events.sort_by_key(|e| (e.pid, e.tid, e.ts_ns));
        let mut out = String::with_capacity(128 + events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for (pid, tid, name) in &s.names {
            push_sep(&mut out, &mut first);
            let (kind, tid) = match tid {
                Some(t) => ("thread_name", *t),
                None => ("process_name", 0),
            };
            let _ = write!(
                out,
                "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\""
            );
            escape_into(&mut out, name);
            out.push_str("\"}}");
        }
        for e in &events {
            push_sep(&mut out, &mut first);
            write_event(&mut out, e);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

fn push_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

/// Append `123456789 ns` as `123456.789` (µs with ns fraction, always
/// three decimals). Writing to a `String` cannot fail.
fn write_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

fn write_event(out: &mut String, e: &TraceEvent) {
    out.push_str("{\"name\":\"");
    escape_into(out, e.name);
    out.push_str("\",\"cat\":\"");
    escape_into(out, e.cat);
    out.push_str("\",\"ph\":\"");
    match e.ph {
        Phase::Complete => {
            out.push_str("X\",\"ts\":");
            write_us(out, e.ts_ns);
            out.push_str(",\"dur\":");
            // A zero-width span is invisible; clamp to 1 ns.
            write_us(out, e.dur_ns.max(1));
        }
        Phase::Instant => {
            out.push_str("i\",\"s\":\"t\",\"ts\":");
            write_us(out, e.ts_ns);
        }
    }
    let _ = write!(out, ",\"pid\":{},\"tid\":{}", e.pid, e.tid);
    if let Some((k, v)) = e.arg {
        out.push_str(",\"args\":{\"");
        escape_into(out, k);
        let _ = write!(out, "\":{v}}}");
    }
    out.push('}');
}

/// An owned, unsynchronized event buffer bound to one `(pid, tid)` lane.
/// Dropping it flushes the buffered events into the recorder. A
/// [`LaneBuf::disabled`] lane accepts the same calls and discards them,
/// so instrumented code needs no `Option` plumbing.
#[derive(Debug)]
pub struct LaneBuf {
    rec: Option<Arc<EventRecorder>>,
    pid: u32,
    tid: u32,
    buf: Vec<TraceEvent>,
}

impl LaneBuf {
    /// A lane that drops everything (tracing off).
    pub fn disabled() -> Self {
        Self {
            rec: None,
            pid: 0,
            tid: 0,
            buf: Vec::new(),
        }
    }

    /// Whether events are actually recorded.
    pub fn is_enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Nanoseconds since the recorder epoch (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.rec.as_ref().map_or(0, |r| r.now_ns())
    }

    /// Record an instant event happening now.
    pub fn instant(
        &mut self,
        name: &'static str,
        cat: &'static str,
        arg: Option<(&'static str, u64)>,
    ) {
        if self.rec.is_some() {
            let ts_ns = self.now_ns();
            self.push(name, cat, Phase::Instant, ts_ns, 0, arg);
        }
    }

    /// Record a complete span from `start_ns` (a previous [`Self::now_ns`])
    /// to now.
    pub fn span_since(
        &mut self,
        name: &'static str,
        cat: &'static str,
        start_ns: u64,
        arg: Option<(&'static str, u64)>,
    ) {
        if self.rec.is_some() {
            let end = self.now_ns();
            self.push(
                name,
                cat,
                Phase::Complete,
                start_ns,
                end.saturating_sub(start_ns),
                arg,
            );
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        cat: &'static str,
        ph: Phase,
        ts_ns: u64,
        dur_ns: u64,
        arg: Option<(&'static str, u64)>,
    ) {
        self.buf.push(TraceEvent {
            name,
            cat,
            ph,
            ts_ns,
            dur_ns,
            pid: self.pid,
            tid: self.tid,
            arg,
        });
    }

    /// Drain buffered events into the recorder now (also done on drop).
    pub fn flush(&mut self) {
        if let Some(rec) = &self.rec {
            rec.absorb(std::mem::take(&mut self.buf));
        }
    }
}

impl Drop for LaneBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Convert an [`easyhps_core::Trace`] (ASCII-Gantt spans, e.g. from the
/// cluster simulator's virtual clock) into Chrome trace-event JSON. Lanes
/// become threads of one process, in the trace's natural lane order, each
/// labelled with its lane name; span labels become event names.
pub fn chrome_json_from_trace(trace: &easyhps_core::Trace) -> String {
    let lanes = trace.lane_names();
    let tid_of = |lane: &str| lanes.iter().position(|l| l == lane).unwrap_or(0) as u32;
    let mut out = String::with_capacity(128 + trace.spans.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    push_sep(&mut out, &mut first);
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"easyhps\"}}",
    );
    for (tid, lane) in lanes.iter().enumerate() {
        push_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\""
        );
        escape_into(&mut out, lane);
        out.push_str("\"}}");
    }
    let mut spans: Vec<&easyhps_core::Span> = trace.spans.iter().collect();
    spans.sort_by(|a, b| {
        (tid_of(&a.lane), a.start_ns)
            .partial_cmp(&(tid_of(&b.lane), b.start_ns))
            .expect("total order")
    });
    for s in spans {
        push_sep(&mut out, &mut first);
        out.push_str("{\"name\":\"");
        escape_into(&mut out, if s.label.is_empty() { "span" } else { &s.label });
        out.push_str("\",\"cat\":\"gantt\",\"ph\":\"X\",\"ts\":");
        write_us(&mut out, s.start_ns);
        out.push_str(",\"dur\":");
        write_us(&mut out, (s.end_ns - s.start_ns).max(1));
        let _ = write!(out, ",\"pid\":0,\"tid\":{}}}", tid_of(&s.lane));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_chrome_trace;

    #[test]
    fn lanes_flush_on_drop_and_export_sorted() {
        let rec = Arc::new(EventRecorder::new());
        rec.name_process(1, "slave0");
        rec.name_thread(1, 1, "worker0");
        {
            let mut lane = rec.lane(1, 1);
            let start = lane.now_ns();
            lane.instant("dispatch", "sched", Some(("task", 3)));
            lane.span_since("compute", "tile", start, Some(("task", 3)));
            assert_eq!(rec.len(), 0, "not flushed until drop");
        }
        assert_eq!(rec.len(), 2);
        let json = rec.chrome_trace_json();
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.events, 2);
        assert!(json.contains("\"thread_name\""), "{json}");
        assert!(json.contains("slave0"));
    }

    #[test]
    fn disabled_lane_is_a_no_op() {
        let mut lane = LaneBuf::disabled();
        lane.instant("x", "y", None);
        lane.span_since("x", "y", 0, None);
        lane.flush();
        assert!(!lane.is_enabled());
        assert_eq!(lane.now_ns(), 0);
    }

    #[test]
    fn timestamps_are_monotone_within_a_lane() {
        let rec = Arc::new(EventRecorder::new());
        {
            let mut a = rec.lane(0, 0);
            let mut b = rec.lane(0, 1);
            for _ in 0..50 {
                a.instant("a", "t", None);
                b.instant("b", "t", None);
            }
        }
        let json = rec.chrome_trace_json();
        validate_chrome_trace(&json).expect("monotone per lane");
    }

    #[test]
    fn converter_handles_core_traces() {
        let mut t = easyhps_core::Trace::new();
        t.record("slave10", "b", 500, 900);
        t.record("slave2", "a", 0, 1000);
        t.record("master", "m", 0, 100);
        let json = chrome_json_from_trace(&t);
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.events, 3);
        assert_eq!(summary.lanes, 3);
        // Natural lane order: slave2 gets a lower tid than slave10.
        let s2 = json.find("\"name\":\"slave2\"").unwrap();
        let s10 = json.find("\"name\":\"slave10\"").unwrap();
        assert!(s2 < s10, "slave2 thread named before slave10");
    }

    /// The exact bytes of an export, over a recorder whose events carry
    /// fixed timestamps: names (one needing escapes), a span with an
    /// argument, a zero-width span, instants with and without one.
    #[test]
    fn export_bytes_are_pinned() {
        let rec = EventRecorder::new();
        rec.name_process(1, "slave0");
        rec.name_thread(1, 2, "w\"0");
        let ev = |ph, ts_ns, dur_ns, tid, arg| TraceEvent {
            name: "sub",
            cat: "compute",
            ph,
            ts_ns,
            dur_ns,
            pid: 1,
            tid,
            arg,
        };
        rec.absorb(vec![
            ev(Phase::Complete, 123_456_789, 1_000, 2, Some(("sub", 7))),
            ev(Phase::Instant, 5, 0, 0, None),
            ev(Phase::Complete, 1, 0, 2, None),
            ev(Phase::Instant, u64::MAX, 0, 99, Some(("peer", u64::MAX))),
        ]);
        assert_eq!(
            rec.chrome_trace_json(),
            concat!(
                r#"{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"#,
                r#""args":{"name":"slave0"}},{"name":"thread_name","ph":"M","pid":1,"#,
                r#""tid":2,"args":{"name":"w\"0"}},{"name":"sub","cat":"compute","#,
                r#""ph":"i","s":"t","ts":0.005,"pid":1,"tid":0},{"name":"sub","#,
                r#""cat":"compute","ph":"X","ts":0.001,"dur":0.001,"pid":1,"tid":2},"#,
                r#"{"name":"sub","cat":"compute","ph":"X","ts":123456.789,"#,
                r#""dur":1.000,"pid":1,"tid":2,"args":{"sub":7}},{"name":"sub","#,
                r#""cat":"compute","ph":"i","s":"t","ts":18446744073709551.615,"#,
                r#""pid":1,"tid":99,"args":{"peer":18446744073709551615}}],"#,
                r#""displayTimeUnit":"ms"}"#,
            )
        );
        let mut t = easyhps_core::Trace::new();
        t.record("slave1", "a", 1_500, 2_000);
        t.record("master", "", 0, 0);
        assert_eq!(
            chrome_json_from_trace(&t),
            concat!(
                r#"{"traceEvents":[{"name":"process_name","ph":"M","pid":0,"tid":0,"#,
                r#""args":{"name":"easyhps"}},{"name":"thread_name","ph":"M","pid":0,"#,
                r#""tid":0,"args":{"name":"master"}},{"name":"thread_name","ph":"M","#,
                r#""pid":0,"tid":1,"args":{"name":"slave1"}},{"name":"span","#,
                r#""cat":"gantt","ph":"X","ts":0.000,"dur":0.001,"pid":0,"tid":0},"#,
                r#"{"name":"a","cat":"gantt","ph":"X","ts":1.500,"dur":0.500,"pid":0,"#,
                r#""tid":1}],"displayTimeUnit":"ms"}"#,
            )
        );
    }

    #[test]
    fn microsecond_rendering() {
        let us = |ns| {
            let mut out = String::new();
            write_us(&mut out, ns);
            out
        };
        assert_eq!(us(0), "0.000");
        assert_eq!(us(1), "0.001");
        assert_eq!(us(123_456_789), "123456.789");
    }
}
