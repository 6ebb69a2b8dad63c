//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (name, start, end, parent, request id), kept in memory while the
//! replay runs, and written out once at the end as Chrome trace-event
//! JSON, which Perfetto and `chrome://tracing` open offline.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `engine.select`.
    pub name: &'static str,
    /// Request (or pipeline repetition) every span of one unit shares.
    pub req: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch; equals `start_ns` while open.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-layer aggregate over every span of one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerStats {
    /// Spans recorded.
    pub count: usize,
    /// Summed wall time, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (wall minus time covered by child spans).
    pub self_ns: u64,
    /// Self time of each span, nanoseconds, in recording order.
    pub self_samples: Vec<u64>,
}

impl LayerStats {
    /// Mean self time per span in microseconds; 0 when none recorded.
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Mean wall time per span in microseconds; 0 when none recorded.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// The recorder: a flat span list plus the stack of open spans.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, req: u64) {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let idx = self.open.pop().expect("close matches an open span");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, req);
        let out = f();
        self.close();
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that
    /// its direct children cover (children never overlap: one thread).
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Aggregate spans by name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerStats> {
        assert!(self.open.is_empty(), "every span closed before aggregating");
        let mut out: BTreeMap<&'static str, LayerStats> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let l = out.entry(s.name).or_default();
            l.count += 1;
            l.total_ns += s.dur_ns();
            l.self_ns += self_ns;
            l.self_samples.push(self_ns);
        }
        out
    }

    /// Chrome trace-event JSON ("X" complete events, microsecond
    /// timestamps) for every span whose request id passes `keep`.
    pub fn chrome_json(&self, keep: impl Fn(u64) -> bool) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        for s in self.spans.iter().filter(|s| keep(s.req)) {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or("", |p| self.spans[p].name);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"spbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"req\":{},\"parent\":\"{}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.req,
                parent
            );
        }
        out.push_str("]}");
        out
    }
}

/// [`Tracer::span`] when tracing, a plain call of `f` otherwise.
pub fn maybe_span<R>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    req: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        Some(t) => t.span(name, req, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            req: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = Tracer {
            epoch: Instant::now(),
            spans: vec![
                span("request", None, 0, 100),
                span("decode", Some(0), 0, 10),
                span("select", Some(0), 10, 90),
                span("resolve", Some(2), 10, 40),
            ],
            open: Vec::new(),
        };
        assert_eq!(t.self_times(), vec![10, 10, 50, 30]);
        let layers = t.layers();
        assert_eq!(layers["select"].self_ns, 50);
        assert_eq!(layers["request"].total_ns, 100);
    }

    #[test]
    fn nested_recording_and_chrome_output() {
        let mut t = Tracer::new();
        t.span("outer", 7, || ());
        t.open("outer", 8);
        t.span("inner", 8, || std::hint::black_box(3));
        t.close();
        assert_eq!(t.spans()[2].parent, Some(1));
        let json = t.chrome_json(|req| req == 8);
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"parent\":\"outer\""));
        assert!(!json.contains("\"req\":7"));
    }
}
