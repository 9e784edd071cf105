//! The traced run: spans kept in memory and written when the run ends,
//! kernel counters gathered by a timing [`Distance`] wrapper, and the
//! self-time accounting that splits the run's wall time among layers.
//!
//! Every span is recorded by the benchmark around a call into a layer's
//! public API; nothing inside the crates is instrumented.
//!
//! **Self time.** Spans on the benchmark's main thread nest: a span's
//! own time is its duration minus its direct children's. When a span's
//! work ran on other threads (a parallel study pass, a batched query
//! call, a serve rung), the busy thread-time measured for the layers
//! inside it is converted to wall time by dividing by the host's cores,
//! scaled down if it would exceed the span, and subtracted from the
//! span's own time; the span's layer keeps the rest. The root span's
//! own time is the unattributed remainder, so the layer self times plus
//! that remainder equal the traced wall time exactly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use tsdist_core::measure::Distance;
use tsdist_core::{IndexProfile, MetricRegime, Workspace};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id; `0` is the root.
    pub id: usize,
    /// The enclosing span (`0` for top-level spans; the root's own id).
    pub parent: usize,
    /// What was called.
    pub name: &'static str,
    /// The layer the span's own time belongs to.
    pub layer: &'static str,
    /// The request, cell, batch or pass the span served.
    pub subject: String,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Whether the span ran off the main thread (per-request spans of
    /// the serve sender/receiver); such spans are written out but do
    /// not nest into the self-time accounting.
    pub concurrent: bool,
}

impl Span {
    fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// The root span's layer: whatever no recorded span covers.
pub const UNATTRIBUTED: &str = "unattributed";

/// Span store. Cheap to call when disabled: closures still run and are
/// still timed (workloads need the durations either way), but nothing
/// is stored.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicUsize,
    /// Busy thread-seconds measured inside concurrent spans, by span id.
    busy: Mutex<BTreeMap<usize, Vec<(&'static str, f64)>>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicUsize::new(1),
            busy: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Stores a span (no-op when disabled), giving it a fresh id when
    /// it has none, and returns its id.
    pub fn record(&self, mut span: Span) -> usize {
        if span.id == 0 {
            span.id = self.next_id.fetch_add(1, Ordering::Relaxed);
        }
        let id = span.id;
        if self.enabled {
            self.spans.lock().expect("span store poisoned").push(span);
        }
        id
    }

    /// Opens a main-thread span; close it with [`Tracer::close`]. Its id
    /// is fixed now, so children can name it as their parent.
    pub fn open(&self, parent: usize, name: &'static str, layer: &'static str) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            layer,
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open` with `subject`; returns the span id and its
    /// duration in seconds.
    pub fn close(&self, open: Open, subject: impl Into<String>) -> (usize, f64) {
        let end_ns = self.now_ns();
        let id = self.record(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            layer: open.layer,
            subject: subject.into(),
            start_ns: open.start_ns,
            end_ns,
            concurrent: false,
        });
        (id, end_ns.saturating_sub(open.start_ns) as f64 / 1e9)
    }

    /// Runs `f` inside a main-thread span; returns its value and the
    /// span's duration in seconds.
    pub fn time<R>(
        &self,
        parent: usize,
        name: &'static str,
        layer: &'static str,
        subject: impl Into<String>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.open(parent, name, layer);
        let out = f();
        let (_, secs) = self.close(open, subject);
        (out, secs)
    }

    /// Declares `thread_seconds` of busy time of `layer` inside the
    /// concurrent span `span`.
    pub fn busy(&self, span: usize, layer: &'static str, thread_seconds: f64) {
        if self.enabled && span != 0 && thread_seconds > 0.0 {
            self.busy
                .lock()
                .expect("busy store poisoned")
                .entry(span)
                .or_default()
                .push((layer, thread_seconds));
        }
    }

    /// Closes the run: records the root span over everything so far and
    /// returns the self-time accounting.
    pub fn finish(&self, cores: usize) -> SelfTimes {
        let end_ns = self.now_ns();
        let spans = self.spans.lock().expect("span store poisoned").clone();
        let busy = self.busy.lock().expect("busy store poisoned").clone();
        self_times(&spans, &busy, end_ns, cores)
    }

    /// Writes every span, one tab-separated line each, to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\tname\tlayer\tsubject\tstart_ns\tend_ns\tthread"
        )?;
        for s in spans.iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.name,
                s.layer,
                s.subject,
                s.start_ns,
                s.end_ns,
                if s.concurrent { "worker" } else { "main" }
            )?;
        }
        out.flush()
    }
}

/// A main-thread span that has started.
pub struct Open {
    id: usize,
    parent: usize,
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
}

impl Open {
    /// The span's id.
    pub fn id(&self) -> usize {
        self.id
    }
}

/// The run's wall time split among layers.
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    /// Traced wall time (the root span), seconds.
    pub wall_s: f64,
    /// Self seconds per layer, [`UNATTRIBUTED`] included.
    pub by_layer: BTreeMap<&'static str, f64>,
    /// Spans whose children outlasted them (a nesting bug): their ids.
    pub overlapping: Vec<usize>,
}

impl SelfTimes {
    /// Layer self times plus the unattributed remainder.
    pub fn covered_s(&self) -> f64 {
        self.by_layer.values().sum()
    }
}

/// The accounting described in the module docs.
fn self_times(
    spans: &[Span],
    busy: &BTreeMap<usize, Vec<(&'static str, f64)>>,
    end_ns: u64,
    cores: usize,
) -> SelfTimes {
    let cores = cores.max(1) as f64;
    let main: Vec<&Span> = spans.iter().filter(|s| !s.concurrent).collect();
    let mut child_s: BTreeMap<usize, f64> = BTreeMap::new();
    for s in &main {
        *child_s.entry(s.parent).or_default() += s.seconds();
    }
    let wall_s = end_ns as f64 / 1e9;
    let mut out = SelfTimes {
        wall_s,
        ..SelfTimes::default()
    };
    let root_own = wall_s - child_s.get(&0).copied().unwrap_or(0.0);
    *out.by_layer.entry(UNATTRIBUTED).or_default() += root_own;
    for s in &main {
        let mut own = s.seconds() - child_s.get(&s.id).copied().unwrap_or(0.0);
        if own < -1e-6 {
            out.overlapping.push(s.id);
        }
        own = own.max(0.0);
        if let Some(parts) = busy.get(&s.id) {
            let total: f64 = parts.iter().map(|(_, t)| t / cores).sum();
            let scale = if total > own && total > 0.0 {
                own / total
            } else {
                1.0
            };
            for (layer, t) in parts {
                let wall = t / cores * scale;
                *out.by_layer.entry(layer).or_default() += wall;
                own -= wall;
            }
        }
        *out.by_layer.entry(s.layer).or_default() += own.max(0.0);
    }
    out
}

// ---------------------------------------------------------------------
// Kernel counters
// ---------------------------------------------------------------------

/// Totals gathered by [`Timed`] for one measure.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelTotals {
    /// Full evaluations (`distance`, `distance_ws`).
    pub full_calls: u64,
    /// Thread-nanoseconds in full evaluations.
    pub full_ns: u64,
    /// DP cells of the full evaluations, computed from the series
    /// lengths and the band (not counted by the kernel).
    pub full_cells: u64,
    /// Early-abandoning evaluations (`distance_upto`).
    pub upto_calls: u64,
    /// Thread-nanoseconds in early-abandoning evaluations.
    pub upto_ns: u64,
}

impl KernelTotals {
    /// All calls.
    pub fn calls(&self) -> u64 {
        self.full_calls + self.upto_calls
    }

    /// All thread-seconds.
    pub fn seconds(&self) -> f64 {
        (self.full_ns + self.upto_ns) as f64 / 1e9
    }

    fn add(&mut self, o: &KernelTotals) {
        self.full_calls += o.full_calls;
        self.full_ns += o.full_ns;
        self.full_cells += o.full_cells;
        self.upto_calls += o.upto_calls;
        self.upto_ns += o.upto_ns;
    }
}

/// One thread's totals for one wrapper. Only its own thread writes it,
/// so its lock is never contended; readers sum every slot.
type Slot = Arc<Mutex<KernelTotals>>;

/// Every slot ever created, by wrapper id. Slots outlive their threads,
/// so totals are complete as soon as the evaluator's workers return —
/// nothing waits on thread-exit destructors.
fn registry() -> &'static Mutex<BTreeMap<usize, Vec<Slot>>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<usize, Vec<Slot>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

thread_local! {
    static LOCAL: RefCell<Vec<(usize, Slot)>> = const { RefCell::new(Vec::new()) };
}

fn note(id: usize, f: impl FnOnce(&mut KernelTotals)) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let slot = match l.iter().find(|(i, _)| *i == id) {
            Some((_, slot)) => Arc::clone(slot),
            None => {
                let slot = Slot::default();
                registry()
                    .lock()
                    .expect("kernel registry poisoned")
                    .entry(id)
                    .or_default()
                    .push(Arc::clone(&slot));
                l.push((id, Arc::clone(&slot)));
                slot
            }
        };
        f(&mut slot.lock().expect("kernel slot poisoned"));
    });
}

/// DP cells of one evaluation of `x` against `y`.
pub type CellCount = fn(usize, usize) -> u64;

/// Full `m × n` table (MSM, TWE).
pub fn full_table(m: usize, n: usize) -> u64 {
    (m * n) as u64
}

/// Sakoe–Chiba band at 10% (DTW(δ=10)): cells `(i, j)` with
/// `|i - j| <= r`, `r` from the kernel's own band rule.
pub fn dtw10_band(m: usize, n: usize) -> u64 {
    let r = tsdist_core::elastic::dtw::band_radius(10.0, m, n);
    (0..m)
        .map(|i| (i + r + 1).min(n).saturating_sub(i.saturating_sub(r)) as u64)
        .sum()
}

/// No DP table (lock-step and sliding measures).
pub fn no_cells(_: usize, _: usize) -> u64 {
    0
}

/// Times every kernel call of the wrapped measure into thread-local
/// totals. Pure delegation otherwise — every trait method forwards, so
/// planners and batch engines take the same paths as on the bare
/// measure and answers stay bit-identical.
pub struct Timed {
    inner: Box<dyn Distance>,
    id: usize,
    cells: CellCount,
}

impl Timed {
    /// Wraps `inner`; `cells` computes the DP cells of one full call.
    pub fn new(inner: Box<dyn Distance>, cells: CellCount) -> Timed {
        static NEXT: AtomicUsize = AtomicUsize::new(1);
        Timed {
            inner,
            id: NEXT.fetch_add(1, Ordering::Relaxed),
            cells,
        }
    }

    /// A handle reading this wrapper's totals.
    pub fn handle(&self) -> KernelHandle {
        KernelHandle { id: self.id }
    }

    fn full(&self, x: &[f64], y: &[f64], f: impl FnOnce() -> f64) -> f64 {
        let t = Instant::now();
        let v = f();
        let ns = t.elapsed().as_nanos() as u64;
        let cells = (self.cells)(x.len(), y.len());
        note(self.id, |k| {
            k.full_calls += 1;
            k.full_ns += ns;
            k.full_cells += cells;
        });
        v
    }
}

/// Reads a [`Timed`] wrapper's totals.
#[derive(Debug, Clone, Copy)]
pub struct KernelHandle {
    id: usize,
}

impl KernelHandle {
    /// Totals over every thread so far.
    pub fn totals(&self) -> KernelTotals {
        let mut total = KernelTotals::default();
        if let Some(slots) = registry()
            .lock()
            .expect("kernel registry poisoned")
            .get(&self.id)
        {
            for slot in slots {
                total.add(&slot.lock().expect("kernel slot poisoned"));
            }
        }
        total
    }
}

impl Distance for Timed {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn distance(&self, x: &[f64], y: &[f64]) -> f64 {
        self.full(x, y, || self.inner.distance(x, y))
    }
    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        self.full(x, y, || self.inner.distance_ws(x, y, ws))
    }
    fn distance_upto(&self, x: &[f64], y: &[f64], ws: &mut Workspace, cutoff: f64) -> f64 {
        let t = Instant::now();
        let v = self.inner.distance_upto(x, y, ws, cutoff);
        let ns = t.elapsed().as_nanos() as u64;
        note(self.id, |k| {
            k.upto_calls += 1;
            k.upto_ns += ns;
        });
        v
    }
    fn is_symmetric(&self) -> bool {
        self.inner.is_symmetric()
    }
    fn lanes_hint(&self) -> usize {
        self.inner.lanes_hint()
    }
    fn metric_regime(&self) -> MetricRegime {
        self.inner.metric_regime()
    }
    fn index_profile(&self) -> IndexProfile {
        self.inner.index_profile()
    }
}

/// Wraps `inner` in a [`Timed`] when tracing, and leaves it bare
/// otherwise; returns the measure and, when traced, its counter handle.
pub fn maybe_timed(
    inner: Box<dyn Distance>,
    cells: CellCount,
    traced: bool,
) -> (Box<dyn Distance>, Option<KernelHandle>) {
    if traced {
        let t = Timed::new(inner, cells);
        let h = t.handle();
        (Box::new(t), Some(h))
    } else {
        (inner, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdist_core::elastic::Dtw;
    use tsdist_core::lockstep::Euclidean;

    fn span(id: usize, parent: usize, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            layer,
            subject: String::new(),
            start_ns: start,
            end_ns: end,
            concurrent: false,
        }
    }

    #[test]
    fn self_times_cover_the_wall_exactly() {
        // root [0, 10s]; a [1, 5] with child b [2, 3]; c [6, 9] with
        // 4 thread-seconds of kernel busy time on 2 cores.
        let s = 1_000_000_000;
        let spans = vec![
            span(1, 0, "a", s, 5 * s),
            span(2, 1, "b", 2 * s, 3 * s),
            span(3, 0, "c", 6 * s, 9 * s),
        ];
        let mut busy = BTreeMap::new();
        busy.insert(3, vec![("kernel", 4.0)]);
        let t = self_times(&spans, &busy, 10 * s, 2);
        assert_eq!(t.by_layer["a"], 3.0);
        assert_eq!(t.by_layer["b"], 1.0);
        assert_eq!(t.by_layer["kernel"], 2.0);
        assert_eq!(t.by_layer["c"], 1.0);
        assert_eq!(t.by_layer[UNATTRIBUTED], 3.0);
        assert!((t.covered_s() - 10.0).abs() < 1e-12);
        assert!(t.overlapping.is_empty());
    }

    #[test]
    fn busy_time_beyond_the_span_is_scaled_not_double_counted() {
        let s = 1_000_000_000;
        let spans = vec![span(1, 0, "region", 0, 2 * s)];
        let mut busy = BTreeMap::new();
        busy.insert(1, vec![("k1", 6.0), ("k2", 2.0)]);
        let t = self_times(&spans, &busy, 2 * s, 2);
        assert_eq!(t.by_layer["k1"], 1.5);
        assert_eq!(t.by_layer["k2"], 0.5);
        assert_eq!(t.by_layer["region"], 0.0);
        assert!((t.covered_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn children_outlasting_their_parent_are_flagged() {
        let s = 1_000_000_000;
        let spans = vec![span(1, 0, "p", 0, s), span(2, 1, "c", 0, 2 * s)];
        let t = self_times(&spans, &BTreeMap::new(), 3 * s, 1);
        assert_eq!(t.overlapping, vec![1]);
    }

    #[test]
    fn timed_wrapper_is_transparent_and_counts_calls() {
        let x: Vec<f64> = (0..50).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..50).map(|i| (i as f64 * 0.9).cos()).collect();
        let bare = Dtw::with_window_pct(10.0);
        let timed = Timed::new(Box::new(Dtw::with_window_pct(10.0)), dtw10_band);
        let h = timed.handle();
        let mut ws = Workspace::new();
        assert_eq!(
            timed.distance(&x, &y).to_bits(),
            bare.distance(&x, &y).to_bits()
        );
        assert_eq!(
            timed
                .distance_upto(&x, &y, &mut ws, f64::INFINITY)
                .to_bits(),
            bare.distance(&x, &y).to_bits()
        );
        assert_eq!(timed.index_profile(), bare.index_profile());
        let k = h.totals();
        assert_eq!((k.full_calls, k.upto_calls), (1, 1));
        // Band radius 5 over 50×50: 50 rows of up to 11 cells, minus
        // the clipped corners (2 × (5+4+3+2+1)).
        assert_eq!(k.full_cells, 50 * 11 - 30);
        let e = Timed::new(Box::new(Euclidean), no_cells);
        assert_eq!(e.metric_regime(), Euclidean.metric_regime());
    }
}
