//! The harness's own spans, recorded around its calls into each layer
//! (spans inside the program are a later change). Spans stay in memory and
//! are written once, as Chrome trace-event JSON, when the run ends. A
//! disabled tracer records nothing, which is how the end-to-end run pays
//! nothing for it.

use easyhps_obs::json::JsonValue;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; `ROOT` is "no parent".
pub type SpanId = usize;
/// Parent of top-level spans.
pub const ROOT: SpanId = usize::MAX;

#[derive(Debug)]
struct SpanRec {
    name: &'static str,
    parent: SpanId,
    /// Thread lane (0 = main; serve_mix clients use 1 and 2).
    lane: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder shared by the threads of one benchmark run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<SpanRec>>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Run `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so it can parent its own children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        lane: u32,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let Some(spans) = &self.spans else {
            return f(ROOT);
        };
        let id = {
            let mut spans = spans.lock().expect("no span holder panics");
            spans.push(SpanRec {
                name,
                parent,
                lane,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.epoch.elapsed().as_nanos() as u64;
        spans.lock().expect("no span holder panics")[id].end_ns = end;
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans
            .as_ref()
            .map_or(0, |s| s.lock().expect("no span holder panics").len())
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Self time per span name in ms: each span's duration minus the part
    /// its direct children cover, summed by name, in first-seen order.
    pub fn self_time_ms(&self) -> Vec<(&'static str, f64)> {
        let Some(spans) = &self.spans else {
            return Vec::new();
        };
        let spans = spans.lock().expect("no span holder panics");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if s.parent != ROOT {
                child_ns[s.parent] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, covered) in spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered) as f64 / 1e6;
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, ms)) => *ms += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// The spans as a Chrome trace-event document (complete `X` events;
    /// `args.id` / `args.parent` carry the causal links).
    pub fn chrome_json(&self) -> String {
        let Some(spans) = &self.spans else {
            return "[]".into();
        };
        let spans = spans.lock().expect("no span holder panics");
        let num = |v: f64| JsonValue::Num(v);
        let events = spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = if s.parent == ROOT {
                    JsonValue::Null
                } else {
                    num(s.parent as f64)
                };
                JsonValue::Obj(vec![
                    ("name".into(), s.name.into()),
                    ("ph".into(), "X".into()),
                    ("pid".into(), num(1.0)),
                    ("tid".into(), num(s.lane as f64)),
                    ("ts".into(), num(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                    ),
                    (
                        "args".into(),
                        JsonValue::Obj(vec![
                            ("id".into(), num(id as f64)),
                            ("parent".into(), parent),
                        ]),
                    ),
                ])
            })
            .collect();
        JsonValue::Arr(events).to_string()
    }
}
