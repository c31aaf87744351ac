//! In-memory span and counter recording for the traced run.
//!
//! Every span is recorded from the benchmark's own code around a call
//! into one layer's public API: name, start, end, the enclosing span on
//! the same thread, and the op it belongs to. Spans stay in
//! thread-local buffers while the run is timed and are merged when the
//! thread ends; [`drain`] hands them out once the run is over. With
//! tracing off, [`span`] is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Sink> = Mutex::new(Sink {
    spans: Vec::new(),
    counts: BTreeMap::new(),
});

struct Sink {
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call name, e.g. `gpusim.coalesce`.
    pub name: &'static str,
    /// Start, in ns since the process's first span.
    pub start: u64,
    /// End, in ns since the process's first span.
    pub end: u64,
    /// Unique span id.
    pub id: u64,
    /// Enclosing span on the same thread (0 = none).
    pub parent: u64,
    /// The op this span belongs to.
    pub op: u64,
    /// Recording thread.
    pub thread: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

struct Local {
    thread: u64,
    op: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Local {
    fn flush(&mut self) {
        if self.spans.is_empty() && self.counts.is_empty() {
            return;
        }
        // A poisoned sink only means another recording thread panicked;
        // the buffers themselves are always left consistent.
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        sink.spans.append(&mut self.spans);
        for (k, v) in std::mem::take(&mut self.counts) {
            *sink.counts.entry(k).or_insert(0.0) += v;
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        op: 0,
        stack: Vec::new(),
        spans: Vec::new(),
        counts: BTreeMap::new(),
    });
}

/// Turns recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the recording epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Tags the calling thread's subsequent spans with `op`.
pub fn set_op(op: u64) {
    LOCAL.with(|l| l.borrow_mut().op = op);
}

/// Runs `f` inside a span named `name` (nested under the thread's
/// current span).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().copied().unwrap_or(0);
        l.stack.push(id);
        parent
    });
    let start = now_ns();
    let out = f();
    let end = now_ns();
    LOCAL.with(|l| l.borrow_mut().stack.pop());
    push(name, start, end, id, parent);
    out
}

/// Records an already-measured interval under the thread's current
/// span (for intervals that are not a single closure, such as a client
/// round trip).
pub fn record(name: &'static str, start: u64, end: u64) {
    if !enabled() {
        return;
    }
    let parent = LOCAL.with(|l| l.borrow().stack.last().copied().unwrap_or(0));
    push(
        name,
        start,
        end,
        NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
    );
}

fn push(name: &'static str, start: u64, end: u64, id: u64, parent: u64) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let (op, thread) = (l.op, l.thread);
        l.spans.push(Span {
            name,
            start,
            end,
            id,
            parent,
            op,
            thread,
        });
    });
}

/// Adds `v` to the counter `name`.
pub fn count(name: &'static str, v: f64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| *l.borrow_mut().counts.entry(name).or_insert(0.0) += v);
}

/// Merges the calling thread's buffers into the process sink (threads
/// that end flush themselves).
fn flush_thread() {
    LOCAL.with(|l| l.borrow_mut().flush());
}

/// Takes every merged span and counter out of the sink.
pub fn drain() -> (Vec<Span>, BTreeMap<&'static str, f64>) {
    flush_thread();
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    (
        std::mem::take(&mut sink.spans),
        std::mem::take(&mut sink.counts),
    )
}

/// Per-name totals derived from a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed self time: each span's duration minus the part covered by
    /// its child spans.
    pub self_ns: u64,
}

/// Self time per span: duration minus the durations of its direct
/// children (children of one span never overlap: they run one after
/// another on the parent's thread).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            own[p] = own[p].saturating_sub(s.ns());
        }
    }
    own
}

/// Totals per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let own = self_ns(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += own;
    }
    out
}

/// Writes spans as tab-separated lines (name, start, end, id, parent,
/// op, thread) — at most `limit` of them, earliest first.
pub fn write_tsv(path: &std::path::Path, spans: &[Span], limit: usize) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start, s.id));
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name\tstart_ns\tend_ns\tid\tparent\top\tthread")?;
    for s in sorted.into_iter().take(limit) {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.start, s.end, s.id, s.parent, s.op, s.thread
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, id: u64, parent: u64) -> Span {
        Span {
            name,
            start,
            end,
            id,
            parent,
            op: 1,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            sp("op", 0, 100, 1, 0),
            sp("a", 10, 40, 2, 1),
            sp("b", 50, 90, 3, 1),
            sp("c", 55, 65, 4, 3),
        ];
        assert_eq!(self_ns(&spans), vec![30, 30, 30, 10]);
        let t = totals(&spans);
        assert_eq!(t["op"].calls, 1);
        assert_eq!(t["b"].self_ns, 30);
    }
}
