//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around the benchmark's own calls into each
//! layer's public functions, timed on the process CPU clock. They are kept
//! in memory and written out once, when the run ends. A disabled tracer
//! reads no clock and records nothing, so the untraced run pays only for
//! the branch.

use std::collections::BTreeMap;
use std::io::Write;

use crate::clock::process_cpu_ns;

/// One timed call: name, CPU-clock interval, the span that caused it and
/// the request it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the request id the following spans carry.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        self.begin_at(name, process_cpu_ns)
    }

    fn begin_at(&mut self, name: &'static str, now: impl Fn() -> u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        // Read the clock last, so bookkeeping lands in the parent.
        self.spans[id].start_ns = now();
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        self.end_at(open, process_cpu_ns);
    }

    fn end_at(&mut self, open: Open, now: impl Fn() -> u64) {
        let Some(id) = open.0 else { return };
        let t = now();
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = t;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the durations of its
    /// direct children (children of one span never overlap, since spans
    /// are recorded from one thread and close innermost first).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.duration_ns();
            }
        }
        own
    }

    /// Per name: (span count, total duration ns, total self ns).
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            let e = out.entry(span.name).or_default();
            e.0 += 1;
            e.1 += span.duration_ns();
            e.2 += own;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_its_children() {
        let mut tr = Tracer::new(true);
        let root = tr.begin_at("request", || 100);
        let a = tr.begin_at("decode", || 110);
        tr.end_at(a, || 150);
        let b = tr.begin_at("step", || 160);
        let c = tr.begin_at("inner", || 170);
        tr.end_at(c, || 180);
        tr.end_at(b, || 190);
        tr.end_at(root, || 200);
        // request: 100 long, children 40 + 30, so 30 of its own;
        // step: 30 long, child 10, so 20 of its own.
        assert_eq!(tr.self_ns(), vec![30, 40, 20, 10]);
        assert_eq!(tr.totals()["step"], (1, 30, 20));
        assert_eq!(tr.spans()[2].parent, Some(0));
        assert_eq!(tr.spans()[3].parent, Some(2));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.begin("request");
        tr.end(s);
        assert!(tr.spans().is_empty());
    }
}
