//! The traced pass's span recorder and the layer budget built from it.
//!
//! Spans are kept in memory (name, start, end, parent, pass, thread) and
//! written out once the run ends. Counters recorded beside them carry the
//! per-layer work counts. Nothing here reaches into the program: spans
//! wrap calls into the crates' public functions from the benchmark's own
//! code.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a span within its tracer.
pub type SpanId = u32;

/// Name of the root span every traced pass opens.
pub const ROOT: &str = "pass";

/// Budget row that collects the root span's self time.
pub const UNATTRIBUTED: &str = "unattributed";

/// One closed span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the pass, assigned when the span opens (a parent's
    /// id is always lower than its children's).
    pub id: SpanId,
    /// Enclosing span, possibly on another thread (pool workers).
    pub parent: Option<SpanId>,
    /// Layer name, e.g. `plan.build`.
    pub name: &'static str,
    /// Pass the span belongs to.
    pub pass: u32,
    /// Benchmark-assigned thread number.
    pub thread: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: Cell<u32> = const { Cell::new(u32::MAX) };
}

fn thread_number() -> u32 {
    THREAD.with(|t| {
        if t.get() == u32::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// How a counter combines within one pass.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fold {
    /// Work done: summed over the pass.
    Sum,
    /// A shape of one campaign run (jobs, ranges, workers): the largest
    /// value seen.
    Max,
}

/// Records the spans and counters of one pass. A disabled tracer runs
/// the wrapped closures and records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pass: u32,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, (Fold, f64)>>,
}

impl Tracer {
    /// A recording tracer for pass `pass`, timing against `epoch`.
    pub fn new(epoch: Instant, pass: u32) -> Self {
        Tracer {
            enabled: true,
            epoch,
            pass,
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer { enabled: false, ..Tracer::new(Instant::now(), 0) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id to parent its own children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        let span =
            Span { id, parent, name, pass: self.pass, thread: thread_number(), start_ns, end_ns };
        self.spans.lock().expect("span log poisoned by a panicking pass").push(span);
        out
    }

    /// Add `v` to a work counter.
    pub fn add(&self, name: &'static str, v: f64) {
        self.fold(name, Fold::Sum, v);
    }

    /// Record a shape counter (the pass keeps the largest value).
    pub fn shape(&self, name: &'static str, v: f64) {
        self.fold(name, Fold::Max, v);
    }

    fn fold(&self, name: &'static str, how: Fold, v: f64) {
        if !self.enabled {
            return;
        }
        let mut counters = self.counters.lock().expect("counter log poisoned by a panicking pass");
        let entry = counters.entry(name).or_insert((how, if how == Fold::Sum { 0.0 } else { v }));
        match how {
            Fold::Sum => entry.1 += v,
            Fold::Max => entry.1 = entry.1.max(v),
        }
    }

    /// The recorded spans (in close order) and counters.
    pub fn finish(self) -> (Vec<Span>, BTreeMap<&'static str, f64>) {
        let spans = self.spans.into_inner().expect("span log poisoned by a panicking pass");
        let counters =
            self.counters.into_inner().expect("counter log poisoned by a panicking pass");
        (spans, counters.into_iter().map(|(k, (_, v))| (k, v)).collect())
    }
}

/// Total busy time (ns) of the spans named `name`.
pub fn busy_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum()
}

/// One row of a layer budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    /// Layer (span name), or [`UNATTRIBUTED`].
    pub layer: String,
    /// Share of the pass wall time, ns.
    pub wall_ns: u64,
    /// Summed span durations, ns (exceeds the wall share when threads
    /// overlap).
    pub busy_ns: u64,
    /// Spans of this layer.
    pub spans: usize,
}

/// A pass's wall time split over layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    /// Wall time of the root span, ns.
    pub wall_ns: u64,
    /// Rows, largest wall share first; [`UNATTRIBUTED`] is one of them.
    pub rows: Vec<BudgetRow>,
}

impl Budget {
    /// Wall share of a row, ns (0 when absent).
    pub fn row_ns(&self, layer: &str) -> u64 {
        self.rows.iter().find(|r| r.layer == layer).map_or(0, |r| r.wall_ns)
    }

    /// Unattributed share of the wall time.
    pub fn unattributed_frac(&self) -> f64 {
        self.row_ns(UNATTRIBUTED) as f64 / self.wall_ns.max(1) as f64
    }

    /// The same split with rows merged by crate layer: the span name up
    /// to its first `.` (`des.prefix` and `des.resume` become `des`).
    pub fn by_layer(&self) -> Budget {
        let mut rows: BTreeMap<String, BudgetRow> = BTreeMap::new();
        for r in &self.rows {
            let layer = r.layer.split('.').next().unwrap_or(&r.layer).to_string();
            let row = rows.entry(layer.clone()).or_insert_with(|| BudgetRow {
                layer,
                wall_ns: 0,
                busy_ns: 0,
                spans: 0,
            });
            row.wall_ns += r.wall_ns;
            row.busy_ns += r.busy_ns;
            row.spans += r.spans;
        }
        let mut rows: Vec<BudgetRow> = rows.into_values().collect();
        rows.sort_by(|a, b| b.wall_ns.cmp(&a.wall_ns).then_with(|| a.layer.cmp(&b.layer)));
        Budget { wall_ns: self.wall_ns, rows }
    }

    /// Markdown table: one row per layer, then the total.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {title}\n");
        let _ = writeln!(out, "| layer | wall ms | share | busy ms | spans |");
        let _ = writeln!(out, "|---|---:|---:|---:|---:|");
        let ms = |ns: u64| ns as f64 / 1e6;
        for r in &self.rows {
            let _ = writeln!(
                out,
                "| {} | {:.3} | {:.1}% | {:.3} | {} |",
                r.layer,
                ms(r.wall_ns),
                100.0 * r.wall_ns as f64 / self.wall_ns.max(1) as f64,
                ms(r.busy_ns),
                r.spans
            );
        }
        let sum: u64 = self.rows.iter().map(|r| r.wall_ns).sum();
        let _ = writeln!(out, "| **total** | {:.3} | 100.0% | | |", ms(sum));
        let _ = writeln!(out, "\nPass wall time: {:.3} ms.", ms(self.wall_ns));
        out
    }
}

/// Split the wall time of the pass rooted at the span named [`ROOT`]
/// over layers. At every instant the time goes, in equal parts, to the
/// innermost open spans (those with no open child on any thread); the
/// root's own share is the [`UNATTRIBUTED`] row. Shares are whole
/// nanoseconds, so the rows sum to the root's duration exactly.
pub fn budget(spans: &[Span]) -> Budget {
    let Some(root) = spans.iter().position(|s| s.name == ROOT && s.parent.is_none()) else {
        return Budget { wall_ns: 0, rows: Vec::new() };
    };
    let (lo, hi) = (spans[root].start_ns, spans[root].end_ns);
    let index: BTreeMap<SpanId, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let parent_of: Vec<Option<usize>> =
        spans.iter().map(|s| s.parent.and_then(|p| index.get(&p).copied())).collect();

    // Boundary events: at equal times, opens before closes; opens by id
    // ascending (parents first), closes by id descending (children first).
    let mut events: Vec<(u64, u8, i64, usize)> = Vec::with_capacity(2 * spans.len());
    for (i, s) in spans.iter().enumerate() {
        events.push((s.start_ns.clamp(lo, hi), 0, s.id as i64, i));
        events.push((s.end_ns.clamp(lo, hi), 1, -(s.id as i64), i));
    }
    events.sort_unstable();

    let mut open_children = vec![0usize; spans.len()];
    let mut open = vec![false; spans.len()];
    // The parent each open span registered with (if it was open then).
    let mut registered: Vec<Option<usize>> = vec![None; spans.len()];
    let mut leaves: Vec<usize> = Vec::new();
    let mut share = vec![0u64; spans.len()];
    let mut last = lo;
    for &(t, kind, _, i) in &events {
        if t > last && !leaves.is_empty() {
            let d = t - last;
            let k = leaves.len() as u64;
            for (n, &leaf) in leaves.iter().enumerate() {
                share[leaf] += d / k + if n == 0 { d % k } else { 0 };
            }
        }
        last = last.max(t);
        if kind == 0 {
            open[i] = true;
            registered[i] = parent_of[i].filter(|&p| open[p]);
            if let Some(p) = registered[i] {
                if open_children[p] == 0 {
                    leaves.retain(|&l| l != p);
                }
                open_children[p] += 1;
            }
            leaves.push(i);
        } else {
            open[i] = false;
            leaves.retain(|&l| l != i);
            if let Some(p) = registered[i] {
                open_children[p] -= 1;
                if open_children[p] == 0 && open[p] {
                    leaves.push(p);
                }
            }
        }
    }

    let mut rows: BTreeMap<&str, BudgetRow> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let layer = if i == root { UNATTRIBUTED } else { s.name };
        let row = rows.entry(layer).or_insert_with(|| BudgetRow {
            layer: layer.to_string(),
            wall_ns: 0,
            busy_ns: 0,
            spans: 0,
        });
        row.wall_ns += share[i];
        if i != root {
            row.busy_ns += s.dur_ns();
            row.spans += 1;
        }
    }
    let mut rows: Vec<BudgetRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.wall_ns.cmp(&a.wall_ns).then_with(|| a.layer.cmp(&b.layer)));
    Budget { wall_ns: hi - lo, rows }
}

/// The spans of one pass as a Chrome trace-event document (opens in
/// Perfetto or `chrome://tracing`; one track per benchmark thread).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (n, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"pass\": {}}}}}",
            if n == 0 { "" } else { ",\n" },
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            parent,
            s.pass,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, thread: u32, s: u64, e: u64) -> Span {
        Span { id, parent, name, pass: 1, thread, start_ns: s, end_ns: e }
    }

    #[test]
    fn nested_and_parallel_spans_split_the_wall_exactly() {
        let spans = vec![
            span(0, None, ROOT, 0, 0, 100),
            span(1, Some(0), "plan.build", 0, 10, 30),
            span(2, Some(0), "pool.run", 0, 30, 90),
            span(3, Some(2), "des.run", 1, 35, 85),
            span(4, Some(2), "analytic.eval", 2, 40, 60),
        ];
        let b = budget(&spans);
        assert_eq!(b.wall_ns, 100);
        assert_eq!(b.rows.iter().map(|r| r.wall_ns).sum::<u64>(), 100);
        assert_eq!(b.row_ns("plan.build"), 20);
        assert_eq!(b.row_ns(UNATTRIBUTED), 20);
        // pool.run alone for 30..35 and 85..90; des.run alone for 35..40
        // and 60..85, shared with analytic.eval for 40..60.
        assert_eq!(b.row_ns("pool.run"), 10);
        assert_eq!(b.row_ns("des.run"), 5 + 10 + 25);
        assert_eq!(b.row_ns("analytic.eval"), 10);
        assert!(b.render("t").contains("| **total** | 0.000 |"));
    }

    #[test]
    fn odd_splits_keep_whole_nanoseconds() {
        let spans = vec![
            span(0, None, ROOT, 0, 0, 7),
            span(1, Some(0), "a", 1, 0, 7),
            span(2, Some(0), "b", 2, 0, 7),
            span(3, Some(0), "c", 3, 0, 7),
        ];
        let b = budget(&spans);
        assert_eq!(b.rows.iter().map(|r| r.wall_ns).sum::<u64>(), 7);
    }

    #[test]
    fn tracer_records_parents_and_folds_counters() {
        let tr = Tracer::new(Instant::now(), 3);
        tr.span(ROOT, None, |root| {
            tr.span("child", root, |_| tr.add("work", 2.0));
            tr.add("work", 1.0);
            tr.shape("jobs", 4.0);
            tr.shape("jobs", 2.0);
        });
        let (spans, counters) = tr.finish();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        let root = spans.iter().find(|s| s.name == ROOT).unwrap();
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(counters["work"], 3.0);
        assert_eq!(counters["jobs"], 4.0);
        let disabled = Tracer::disabled();
        assert_eq!(disabled.span("x", None, |id| id), None);
        assert!(disabled.finish().0.is_empty());
    }
}
