//! Hierarchical spans with monotonic timing and thread-aware aggregation.
//!
//! A span is a named interval of wall-clock time. Spans aggregate by
//! *path* — the stack of names from the root — not by instance: the 22
//! `core.campaign.probe_ixp` calls of a campaign fold into one node with
//! `count = 22`. Aggregation is two-level:
//!
//! 1. Every thread owns a local collector (a path → stats map). Opening a
//!    span pushes its name on the thread's stack; closing records the
//!    elapsed time under the full path.
//! 2. When the *outermost* span on a thread closes (its stack empties),
//!    the local collector merges into the process-wide aggregate under one
//!    short mutex hold. Hot span opens/closes therefore never contend.
//!
//! Worker threads spawned inside a parallel region start with an empty
//! stack; [`span_under`] hands them the parent's path explicitly, so their
//! spans land at the same tree position as they would serially. With one
//! worker the region runs on the calling thread, whose stack already holds
//! the parent — `span_under` then nests naturally and the aggregated paths
//! are **identical at every thread count**.
//!
//! ## Aggregated statistics
//!
//! Per node: `count` (closes), `total_ns` (busy time summed across calls
//! *and threads* — CPU-style, so parallel children may sum past their
//! parent's wall time), and a wall-clock *window* `[first_start, last_end]`.
//! Every child interval nests inside some parent interval, so the child's
//! aggregated window always sits inside the parent's — the well-formedness
//! invariant `tests/report_schema.rs` checks. `self_ns` (total minus
//! children's totals, saturating at zero under parallel children) is
//! derived at snapshot time.
//!
//! Guards must drop in LIFO order (bind them to scopes); an out-of-order
//! drop misattributes timings but cannot corrupt memory or results.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A cloneable, thread-safe handle to a span's position in the tree; hand
/// it to worker threads via [`span_under`].
pub type SpanPath = Arc<Vec<&'static str>>;

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Copy)]
struct Agg {
    count: u64,
    busy_ns: u64,
    first_start_ns: u64,
    last_end_ns: u64,
}

impl Agg {
    fn new() -> Agg {
        Agg {
            count: 0,
            busy_ns: 0,
            first_start_ns: u64::MAX,
            last_end_ns: 0,
        }
    }

    fn record(&mut self, start_ns: u64, end_ns: u64) {
        self.count += 1;
        self.busy_ns += end_ns.saturating_sub(start_ns);
        self.first_start_ns = self.first_start_ns.min(start_ns);
        self.last_end_ns = self.last_end_ns.max(end_ns);
    }

    fn merge(&mut self, other: &Agg) {
        self.count += other.count;
        self.busy_ns += other.busy_ns;
        self.first_start_ns = self.first_start_ns.min(other.first_start_ns);
        self.last_end_ns = self.last_end_ns.max(other.last_end_ns);
    }
}

#[derive(Default)]
struct Local {
    /// Path prefix inherited from a cross-thread parent ([`span_under`]).
    base: Vec<&'static str>,
    /// Names of the spans currently open on this thread.
    stack: Vec<&'static str>,
    /// Locally aggregated stats, merged into [`GLOBAL`] when `stack`
    /// empties.
    agg: HashMap<Vec<&'static str>, Agg>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

static ORIGIN: OnceLock<Instant> = OnceLock::new();
static GLOBAL: OnceLock<Mutex<HashMap<Vec<&'static str>, Agg>>> = OnceLock::new();

/// Fix the process-wide monotonic origin (called by [`crate::enable`]).
pub(crate) fn init_origin() {
    ORIGIN.get_or_init(Instant::now);
}

fn offset_ns(at: Instant) -> u64 {
    let origin = *ORIGIN.get_or_init(Instant::now);
    at.saturating_duration_since(origin).as_nanos() as u64
}

fn global() -> &'static Mutex<HashMap<Vec<&'static str>, Agg>> {
    GLOBAL.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Clear the process-wide aggregate and the current thread's collector.
pub(crate) fn reset() {
    global().lock().expect("span aggregate lock").clear();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.base.clear();
        l.stack.clear();
        l.agg.clear();
    });
}

/// RAII guard for an open span; records on drop.
#[must_use = "a span measures the scope its guard lives in"]
pub struct SpanGuard {
    start: Option<Instant>,
}

impl SpanGuard {
    /// The full path of this span, for parenting work on other threads
    /// (see [`span_under`]). Empty when collection was off at open time.
    pub fn path(&self) -> SpanPath {
        if self.start.is_none() {
            return Arc::new(Vec::new());
        }
        LOCAL.with(|l| {
            let l = l.borrow();
            Arc::new(l.base.iter().chain(l.stack.iter()).copied().collect())
        })
    }
}

/// Open a span as a child of the thread's innermost open span (a root if
/// none). Inert while collection is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    open(None, name)
}

/// Open a span under an explicit parent path. On a thread with no open
/// span (a parallel worker) the parent's path is adopted as the prefix; on
/// a thread that already holds open spans (the serial or single-worker
/// case) this nests naturally and `parent` is ignored — both give the same
/// aggregated path. Inert while collection is disabled.
pub fn span_under(parent: &SpanPath, name: &'static str) -> SpanGuard {
    open(Some(parent), name)
}

#[inline(always)]
fn open(parent: Option<&SpanPath>, name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { start: None };
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        match parent {
            Some(parent) if l.stack.is_empty() => l.base = parent.as_ref().clone(),
            _ => {}
        }
        l.stack.push(name);
        if crate::profile::armed() {
            let path: Vec<&'static str> = l.base.iter().chain(l.stack.iter()).copied().collect();
            crate::profile::record_stack(&path);
        }
    });
    SpanGuard {
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let start_ns = offset_ns(start);
        let end_ns = offset_ns(Instant::now());
        crate::metrics::span_duration_histogram()
            .observe(end_ns.saturating_sub(start_ns) as f64 / 1_000.0);
        let flush = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            // The full path, built once: streamed, mirrored to the profiler
            // without this (now closed) span, then moved into the aggregate.
            let path: Vec<&'static str> = l.base.iter().chain(l.stack.iter()).copied().collect();
            crate::trace::span_event(&path, start_ns, end_ns);
            if crate::profile::armed() {
                crate::profile::record_stack(&path[..path.len().saturating_sub(1)]);
            }
            l.agg
                .entry(path)
                .or_insert_with(Agg::new)
                .record(start_ns, end_ns);
            l.stack.pop();
            if l.stack.is_empty() {
                l.base.clear();
                Some(l.agg.drain().collect::<Vec<_>>())
            } else {
                None
            }
        });
        if let Some(entries) = flush {
            let mut g = global().lock().expect("span aggregate lock");
            for (key, agg) in entries {
                g.entry(key).or_insert_with(Agg::new).merge(&agg);
            }
        }
    }
}

/// One aggregated node of the span tree snapshot.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Last path element (the span's own name).
    pub name: String,
    /// Number of closes recorded at this path.
    pub count: u64,
    /// Busy time summed over all calls and threads, ns.
    pub total_ns: u64,
    /// `total_ns` minus the children's `total_ns`, saturating at zero
    /// (parallel children can sum past the parent's wall time).
    pub self_ns: u64,
    /// Wall-clock window `last_end - first_start`, ns. Children's windows
    /// nest inside their parent's.
    pub window_ns: u64,
    /// First open, ns since the collection origin (drives display order).
    pub first_start_ns: u64,
    /// Child nodes, ordered by first open.
    pub children: Vec<SpanNode>,
}

#[derive(Default)]
struct TreeTmp {
    agg: Option<Agg>,
    children: BTreeMap<&'static str, TreeTmp>,
}

fn finish(name: &str, tmp: TreeTmp) -> SpanNode {
    let mut children: Vec<SpanNode> = tmp
        .children
        .into_iter()
        .map(|(n, t)| finish(n, t))
        .collect();
    children.sort_by_key(|c| c.first_start_ns);
    // A node observed only through its children (its own closes raced a
    // process exit, or instrumentation skipped the intermediate level)
    // synthesizes its stats from them so the tree stays well-formed.
    let agg = tmp.agg.unwrap_or_else(|| {
        let mut a = Agg::new();
        for c in &children {
            a.count += c.count;
            a.busy_ns += c.total_ns;
            a.first_start_ns = a.first_start_ns.min(c.first_start_ns);
            a.last_end_ns = a.last_end_ns.max(c.first_start_ns + c.window_ns);
        }
        a
    });
    let children_busy: u64 = children.iter().map(|c| c.total_ns).sum();
    SpanNode {
        name: name.to_string(),
        count: agg.count,
        total_ns: agg.busy_ns,
        self_ns: agg.busy_ns.saturating_sub(children_busy),
        window_ns: agg.last_end_ns.saturating_sub(agg.first_start_ns),
        first_start_ns: if agg.first_start_ns == u64::MAX {
            0
        } else {
            agg.first_start_ns
        },
        children,
    }
}

/// Snapshot the aggregated span tree (roots ordered by first open).
///
/// Only *flushed* collectors contribute: take the snapshot after the
/// outermost span of interest has closed.
pub fn snapshot_tree() -> Vec<SpanNode> {
    let g = global().lock().expect("span aggregate lock");
    let mut root = TreeTmp::default();
    for (path, agg) in g.iter() {
        let mut node = &mut root;
        for &part in path {
            node = node.children.entry(part).or_default();
        }
        node.agg = Some(*agg);
    }
    drop(g);
    let mut roots: Vec<SpanNode> = root
        .children
        .into_iter()
        .map(|(n, t)| finish(n, t))
        .collect();
    roots.sort_by_key(|c| c.first_start_ns);
    roots
}
