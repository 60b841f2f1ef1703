//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a crate's public function is
//! wrapped in a span: name, start, end, the span that caused it, and —
//! for serve requests — the request id its spans share. Spans stay in
//! memory and are written out as Chrome-trace JSONL (through
//! `rip_obs::TraceEvent`) when the run ends. A layer's self time is its
//! span's duration minus the time its child spans cover.
//!
//! With tracing off the recorder keeps nothing and only runs the closure,
//! so untraced runs measure the program alone.

use rip_obs::{ArgValue, TraceEvent};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span; times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: Option<u64>,
}

impl SpanRecord {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans from the benchmark thread.
pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<SpanRecord>>,
    open: RefCell<Vec<u64>>,
    next_id: RefCell<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            next_id: RefCell::new(1),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Turns recording on or off (a traced run times its first half
    /// untraced, to measure the tracing overhead).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    /// Nanoseconds since the recorder's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The recorder's time origin (to place foreign spans on its axis).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_request(name, None, f)
    }

    /// [`Tracer::span`] tagged with a serve request id.
    pub fn span_request<T>(
        &self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled() {
            return f();
        }
        let id = self.fresh_id();
        let parent = self.open.borrow().last().copied();
        self.open.borrow_mut().push(id);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut().push(SpanRecord {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            request,
        });
        out
    }

    /// Records a span whose start and end the caller took, under an
    /// explicit parent: a serve request lives from its submit to the end
    /// of the round that completed it, which no single call brackets, and
    /// the service's own round spans are read back after the fact.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        start_ns: u64,
        end_ns: u64,
        request: Option<u64>,
    ) -> Option<u64> {
        if !self.enabled() {
            return None;
        }
        let id = self.fresh_id();
        self.spans.borrow_mut().push(SpanRecord {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            request,
        });
        Some(id)
    }

    /// The innermost open span.
    pub fn current(&self) -> Option<u64> {
        self.open.borrow().last().copied()
    }

    fn fresh_id(&self) -> u64 {
        let mut next = self.next_id.borrow_mut();
        let id = *next;
        *next += 1;
        id
    }

    /// Per span name: (spans, total duration ns, total self time ns).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = self.spans.borrow();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_default() += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for span in spans.iter() {
            let children = child_ns.get(&span.id).copied().unwrap_or(0);
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns();
            entry.2 += span.duration_ns().saturating_sub(children);
        }
        out
    }

    /// The recorded spans as Chrome-trace JSONL, one event per line.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.spans.borrow().iter() {
            let mut args = vec![("id".to_string(), ArgValue::U64(span.id))];
            if let Some(parent) = span.parent {
                args.push(("parent".to_string(), ArgValue::U64(parent)));
            }
            if let Some(request) = span.request {
                args.push(("request".to_string(), ArgValue::U64(request)));
            }
            let (cat, _) = span.name.split_once('.').unwrap_or(("bench", span.name));
            let event = TraceEvent {
                ph: 'X',
                cat: cat.to_string(),
                name: span.name.to_string(),
                ts_us: span.start_ns / 1_000,
                dur_us: Some(span.duration_ns() / 1_000),
                tid: 0,
                args,
            };
            out.push_str(&event.to_json(std::process::id()));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::new(true);
        tracer.span("outer", || {
            tracer.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let summary = tracer.summary();
        let (_, outer_total, outer_self) = summary["outer"];
        let (_, inner_total, inner_self) = summary["inner"];
        assert_eq!(inner_total, inner_self);
        assert_eq!(outer_self, outer_total - inner_total);
        assert!(inner_total >= 5_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", || 7), 7);
        assert!(tracer.summary().is_empty());
        assert!(tracer.export_jsonl().is_empty());
    }
}
