//! Spans recorded around the benchmark's calls into each layer, written
//! out as Chrome trace-event JSON — the event shape
//! `ktiler::Timeline::to_chrome_trace` uses for simulated kernel time, so
//! host spans and a simulated timeline open together in Perfetto.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ktiler::{SliceKind, Timeline};

use crate::json;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `kgraph.analyze` or `gateway`.
    pub name: &'static str,
    /// The request (or spec) the span served.
    pub req: u64,
    /// This span's id.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Start, from the recorder's origin.
    pub start: Duration,
    /// Duration.
    pub dur: Duration,
}

/// An in-memory span recorder. When off, [`Spans::record`] still returns
/// durations (the callers' metrics need them) but keeps nothing, which is
/// what the tracing-overhead measurement compares against.
pub struct Spans {
    origin: Instant,
    on: bool,
    next_id: u64,
    /// Spans recorded so far, in completion order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose time origin is now.
    pub fn new(on: bool) -> Spans {
        Spans { origin: Instant::now(), on, next_id: 1, spans: Vec::new() }
    }

    /// Switches recording on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// A fresh span id, for a root span whose end is recorded later with
    /// [`Spans::record_id`].
    pub fn id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Closes a span that started at `start`; returns its duration.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        start: Instant,
    ) -> Duration {
        let id = self.id();
        self.record_id(id, name, req, parent, start)
    }

    /// Like [`Spans::record`] for a span whose id was taken earlier.
    pub fn record_id(
        &mut self,
        id: u64,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        start: Instant,
    ) -> Duration {
        let end = Instant::now();
        let dur = end - start;
        if self.on {
            self.spans.push(Span {
                name,
                req,
                id,
                parent,
                start: start.saturating_duration_since(self.origin),
                dur,
            });
        }
        dur
    }

    /// Chrome trace-event JSON of the recorded spans (process 1, one
    /// thread lane per request) plus, when given, a simulated kernel
    /// timeline (process 2).
    pub fn to_chrome_trace(&self, sim: Option<&Timeline>) -> String {
        let mut events = Vec::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            events.push(format!(
                "{{\"name\": {}, \"cat\": \"host\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": {}, \"args\": {{\"req\": {}, \"span\": {}, \"parent\": {}}}}}",
                json::string(s.name),
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                s.req,
                s.req,
                s.id,
                parent
            ));
        }
        for s in sim.map_or(&[][..], |t| &t.slices) {
            let cat = match s.kind {
                SliceKind::Kernel => "kernel",
                SliceKind::Dma => "dma",
                SliceKind::Gap => "gap",
            };
            events.push(format!(
                "{{\"name\": {}, \"cat\": \"{cat}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 2, \"tid\": 1}}",
                json::string(&s.name),
                s.start_ns / 1000.0,
                s.dur_ns / 1000.0
            ));
        }
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, e) in events.iter().enumerate() {
            let sep = if i + 1 == events.len() { "" } else { "," };
            let _ = writeln!(out, "  {e}{sep}");
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_links_children_to_parents() {
        let mut spans = Spans::new(true);
        let root = spans.id();
        let t = Instant::now();
        spans.record("child", 7, Some(root), t);
        spans.record_id(root, "root", 7, None, t);
        let doc = json::parse(&spans.to_chrome_trace(None)).unwrap();
        let events = doc.get("traceEvents").and_then(json::Value::arr).unwrap();
        assert_eq!(events.len(), 2);
        let child = &events[0];
        assert_eq!(child.get("ph").and_then(json::Value::str), Some("X"));
        let args = child.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(json::Value::num), Some(root as f64));
        assert_eq!(args.get("req").and_then(json::Value::num), Some(7.0));
        assert_eq!(events[1].get("args").and_then(|a| a.get("parent")), Some(&json::Value::Null));
    }

    #[test]
    fn switched_off_recorder_keeps_nothing_but_times() {
        let mut spans = Spans::new(false);
        let d = spans.record("x", 1, None, Instant::now());
        assert!(d < Duration::from_secs(1));
        assert!(spans.spans.is_empty());
    }
}
