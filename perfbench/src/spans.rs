//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A span has a name, a start, an end and a parent; every span of
//! one packet (or one tick, or one sync call) shares a packet id. Spans
//! stay in memory while the run measures and are written out at its end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Layer operation, e.g. `store.push` or `module.packet`.
    name: &'static str,
    /// The module the span belongs to (empty for non-module spans).
    module: &'static str,
    /// Shared by every span of one packet, tick or sync call.
    packet: u64,
    /// 1-based index of the enclosing span in the log (0 = root).
    parent: u32,
    /// Nanoseconds since the log's epoch.
    start_ns: u64,
    /// Nanoseconds since the log's epoch.
    end_ns: u64,
}

/// Totals for one span key.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed self time: each span's duration minus the time covered by
    /// its child spans.
    pub self_ns: u64,
}

/// Span totals keyed by `(root, name, module)`, summable across runs.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals(BTreeMap<(&'static str, &'static str, &'static str), Totals>);

impl SpanTotals {
    /// Add another run's totals.
    pub fn merge(&mut self, other: &SpanTotals) {
        for (key, t) in &other.0 {
            let entry = self.0.entry(*key).or_default();
            entry.calls += t.calls;
            entry.self_ns += t.self_ns;
        }
    }

    /// Summed totals of every key matching the filters (`None` = any).
    pub fn sum(&self, root: Option<&str>, name: &str, module: Option<&str>) -> Totals {
        let mut out = Totals::default();
        for ((r, n, m), t) in &self.0 {
            if *n == name && root.is_none_or(|x| x == *r) && module.is_none_or(|x| x == *m) {
                out.calls += t.calls;
                out.self_ns += t.self_ns;
            }
        }
        out
    }
}

/// The span recorder: an append-only list plus the stack of open spans.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    packet: u64,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            packet: 0,
        }
    }

    /// Start a new packet id; spans opened from now on carry it.
    pub fn next_packet(&mut self) {
        self.packet += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, module: &'static str) {
        let parent = self.open.last().map_or(0, |&i| i as u32 + 1);
        self.open.push(self.spans.len());
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            module,
            packet: self.packet,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now_ns();
        let index = self.open.pop().expect("exit matches an enter");
        self.spans[index].end_ns = end;
    }

    /// Call counts and self time per `(root, name, module)`, where
    /// `root` is the name of the span's outermost ancestor (itself for a
    /// root span): it tells a module's work under `ingest` from its work
    /// under `tick`.
    pub fn totals(&self) -> SpanTotals {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut root: Vec<&'static str> = Vec::with_capacity(self.spans.len());
        for span in &self.spans {
            if span.parent > 0 {
                let parent = span.parent as usize - 1;
                child_ns[parent] += span.end_ns - span.start_ns;
                root.push(root[parent]);
            } else {
                root.push(span.name);
            }
        }
        let mut out = SpanTotals::default();
        for ((span, children), root) in self.spans.iter().zip(child_ns).zip(root) {
            let duration = span.end_ns - span.start_ns;
            let entry = out.0.entry((root, span.name, span.module)).or_default();
            entry.calls += 1;
            entry.self_ns += duration.saturating_sub(children);
        }
        out
    }

    /// The spans as JSON lines: `{"id","parent","packet","name","module",
    /// "start_ns","end_ns"}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"packet\":{},\"name\":\"{}\",\"module\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                s.packet,
                s.name,
                s.module,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// Run `f` inside a span on `log`.
#[inline]
pub fn span<R>(
    log: &std::cell::RefCell<SpanLog>,
    name: &'static str,
    module: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    log.borrow_mut().enter(name, module);
    let out = f();
    log.borrow_mut().exit();
    out
}
