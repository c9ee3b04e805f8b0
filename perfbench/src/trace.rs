//! In-memory spans recorded around calls into the system's layers.
//!
//! A span is (name, start, end, parent). Spans are kept in memory and
//! written out once, when the run ends. With tracing off, [`Tracer::span`]
//! only calls its closure: the timed runs pay no clock reads for it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread, innermost last: the parent of a new span.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn reserve(&self) -> usize {
        let mut spans = self.spans.lock().expect("span log poisoned");
        let id = spans.len();
        spans.push(Span { id, parent: None, name: "", start_ns: 0, end_ns: 0 });
        id
    }

    /// Run `f` inside a span named `name`, a child of the innermost span
    /// open on this thread.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.reserve();
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let p = o.last().copied();
            o.push(id);
            p
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|o| o.borrow_mut().pop());
        self.spans.lock().expect("span log poisoned")[id] =
            Span { id, parent, name, start_ns, end_ns };
        out
    }

    /// Record a span whose bounds were measured elsewhere (on another
    /// thread), as a child of the innermost span open on this thread.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let id = self.reserve();
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.lock().expect("span log poisoned")[id] =
            Span { id, parent, name, start_ns: ns(start), end_ns: ns(end) };
    }

    /// Total milliseconds spent in spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span log poisoned");
        spans.iter().filter(|s| s.name == name).map(|s| (s.end_ns - s.start_ns) as f64 / 1e6).sum()
    }

    /// Per-name span totals: (count, total ms, self ms). Self time is a
    /// span's duration minus the time its direct children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e6;
            e.2 += dur.saturating_sub(child_ns[s.id]) as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
