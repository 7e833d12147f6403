//! In-memory spans recorded around calls into the crates, from this package
//! only: name, start, end, the span that caused it, and the repetition it
//! belongs to, plus the row and byte counts at the same boundary.
//!
//! The timing helpers always take their `Instant` pair, so an untraced
//! repetition runs the same code as a traced one minus the `Vec` push.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use datasynth::telemetry::json;

use crate::sinks::SinkCall;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// The crate module the time belongs to (`schema`, `core.sink`, ...).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Shared by every span of one repetition.
    pub rep: u32,
    pub rows: u64,
    pub bytes: u64,
    /// Shares of this span's self time that belong to other layers (work
    /// done inside the call by layers that have no span of their own yet).
    pub split: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; give it back to [`Tracer::exit`].
#[must_use]
pub struct Timer {
    start: Instant,
    span: Option<usize>,
}

impl Timer {
    /// Index of the recorded span, when the tracer is recording.
    pub fn span(&self) -> Option<usize> {
        self.span
    }
}

pub struct Tracer {
    epoch: Instant,
    recording: bool,
    rep: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            recording: false,
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Start the next repetition; spans are kept only when `recording`.
    pub fn start_rep(&mut self, recording: bool) {
        self.rep += 1;
        self.recording = recording;
        self.open.clear();
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    pub fn rep(&self) -> u32 {
        self.rep
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn enter(&mut self, name: &str, layer: &'static str) -> Timer {
        let start = Instant::now();
        let span = self.recording.then(|| {
            let start_ns = self.ns(start);
            self.spans.push(Span {
                name: name.to_owned(),
                layer,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                rep: self.rep,
                rows: 0,
                bytes: 0,
                split: Vec::new(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Timer { start, span }
    }

    pub fn exit(&mut self, timer: Timer) -> Duration {
        self.exit_counted(timer, 0, 0)
    }

    /// Close a span, attaching the rows and bytes that crossed its boundary.
    pub fn exit_counted(&mut self, timer: Timer, rows: u64, bytes: u64) -> Duration {
        let elapsed = timer.start.elapsed();
        if let Some(i) = timer.span {
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(i), "spans close innermost first");
            let span = &mut self.spans[i];
            span.end_ns = span.start_ns + u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            span.rows = rows;
            span.bytes = bytes;
        }
        elapsed
    }

    /// Time a leaf call.
    pub fn time<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let timer = self.enter(name, layer);
        let value = f();
        (value, self.exit(timer))
    }

    /// Record sink callbacks (timed by a `TimedSink` while the tracer was
    /// borrowed elsewhere) as children of the innermost open span.
    pub fn adopt(&mut self, layer: &'static str, calls: &[SinkCall]) {
        if !self.recording {
            return;
        }
        let parent = self.open.last().copied();
        for call in calls {
            let start_ns = self.ns(call.start);
            self.spans.push(Span {
                name: format!("{}({})", call.callback, call.table),
                layer,
                start_ns,
                end_ns: start_ns + u64::try_from(call.elapsed.as_nanos()).unwrap_or(u64::MAX),
                parent,
                rep: self.rep,
                rows: call.rows,
                bytes: 0,
                split: Vec::new(),
            });
        }
    }

    /// Attribute shares of span `i`'s self time to other layers.
    pub fn split_self(&mut self, i: Option<usize>, split: Vec<(&'static str, f64)>) {
        if let Some(i) = i {
            self.spans[i].split = split;
        }
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its child spans cover (overlapping children count once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children.entry(p).or_default().push((lo, hi));
                }
            }
        }
        let mut out: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for (p, mut intervals) in children {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (lo, hi) in intervals {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            out[p] -= covered.min(out[p]);
        }
        out
    }

    /// Self time per layer over the spans of repetition `rep`, in ns. The
    /// values sum to the duration of the repetition's root span.
    pub fn layer_self_ns(&self, rep: u32) -> BTreeMap<&'static str, f64> {
        let selfs = self.self_times();
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            if s.rep != rep {
                continue;
            }
            let own = own as f64;
            let mut rest = own;
            for (layer, share) in &s.split {
                let part = own * share;
                *out.entry(layer).or_default() += part;
                rest -= part;
            }
            *out.entry(s.layer).or_default() += rest.max(0.0);
        }
        out
    }

    /// Chrome-trace ("Trace Event Format") document: one complete event per
    /// line between a first `{"traceEvents":[` and a last `]}` line, so
    /// several documents merge by concatenating their middle lines.
    pub fn chrome_json(&self, pid: usize, process: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
            json::escape(process)
        );
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{pid},\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{},\"rows\":{},\"bytes\":{}}}}}",
                json::escape(&s.name),
                s.layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.rep,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.rows,
                s.bytes,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Merge Chrome-trace documents written by [`Tracer::chrome_json`].
pub fn merge_chrome_json(docs: &[String]) -> String {
    let events: Vec<&str> = docs
        .iter()
        .flat_map(|d| d.lines())
        .filter(|l| l.starts_with("{\"name\""))
        .map(|l| l.trim_end_matches(','))
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 1,
            rows: 0,
            bytes: 0,
            split: Vec::new(),
        }
    }

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        let mut t = Tracer::new();
        t.spans = spans;
        t
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let t = tracer_with(vec![
            span("rep", "bench", 0, 100, None),
            span("generate", "core.runner", 10, 70, Some(0)),
            span("sink a", "core.sink", 20, 30, Some(1)),
            span("sink b", "core.sink", 40, 55, Some(1)),
            span("read", "engine.reader", 70, 95, Some(0)),
        ]);
        assert_eq!(t.self_times(), vec![15, 35, 10, 15, 25]);
        let layers = t.layer_self_ns(1);
        assert_eq!(layers["bench"], 15.0);
        assert_eq!(layers["core.runner"], 35.0);
        assert_eq!(layers["core.sink"], 25.0);
        assert_eq!(layers["engine.reader"], 25.0);
        assert_eq!(layers.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let t = tracer_with(vec![
            span("parent", "bench", 0, 100, None),
            span("a", "x", 10, 60, Some(0)),
            span("b", "x", 40, 80, Some(0)),
            span("c", "x", 90, 130, Some(0)),
        ]);
        // Covered: [10, 80) and [90, 100) = 80.
        assert_eq!(t.self_times()[0], 20);
    }

    #[test]
    fn split_moves_self_time_between_layers_and_keeps_the_sum() {
        let mut t = tracer_with(vec![
            span("rep", "bench", 0, 100, None),
            span("generate", "core.runner", 0, 100, Some(0)),
            span("sink", "core.sink", 0, 20, Some(1)),
        ]);
        t.split_self(Some(1), vec![("structure", 0.5), ("matching", 0.25)]);
        let layers = t.layer_self_ns(1);
        assert_eq!(layers["structure"], 40.0);
        assert_eq!(layers["matching"], 20.0);
        assert_eq!(layers["core.runner"], 20.0);
        assert_eq!(layers["core.sink"], 20.0);
        assert_eq!(layers.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn untraced_repetitions_time_but_record_nothing() {
        let mut t = Tracer::new();
        t.start_rep(false);
        let (v, dt) = t.time("work", "bench", || 7);
        assert_eq!(v, 7);
        assert!(dt >= Duration::ZERO);
        assert!(t.spans().is_empty());

        t.start_rep(true);
        let outer = t.enter("outer", "bench");
        let _ = t.time("inner", "schema", || ());
        t.exit_counted(outer, 3, 4);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].rows, 3);
        assert_eq!(t.spans()[0].rep, 2);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }

    #[test]
    fn chrome_documents_merge() {
        let t = tracer_with(vec![span("a \"q\"", "x", 0, 1500, None)]);
        let doc = t.chrome_json(3, "w");
        let merged = merge_chrome_json(&[doc.clone(), doc]);
        let parsed = json::Json::parse(&merged).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(1.5));
    }
}
