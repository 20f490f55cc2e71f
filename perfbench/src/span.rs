//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer: its name, host start and end, the
//! span that was open when it began (its parent), the repetition it
//! belongs to, and a work count taken at the same boundary. Spans stay
//! in memory until the run ends; self times are derived from them
//! afterwards, never while the simulation runs.
//!
//! Spans are recorded from the benchmark's driving thread only (the
//! open-span stack is a single stack). The cluster's worker threads
//! run inside one `Cluster::advance_to` call and record nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, such as `faas.run_until`.
    pub name: &'static str,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span open when this one began.
    pub parent: Option<usize>,
    /// Repetition the span belongs to.
    pub run: u32,
    /// Work done inside the span, in the layer's own unit.
    pub count: u64,
}

impl Span {
    /// Host seconds the span covers.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
    counters: BTreeMap<&'static str, u64>,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A cheap, cloneable handle on the recorder. The disabled tracer
/// records nothing and costs one branch per call site.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<Recorder>>>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        #[allow(clippy::disallowed_methods)]
        // tidy:allow(wall-clock) -- spans time host calls; wall time never enters simulation state
        let origin = Instant::now();
        Tracer(Some(Arc::new(Mutex::new(Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            counters: BTreeMap::new(),
        }))))
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    fn with<R>(&self, f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
        self.0.as_ref().map(|m| {
            f(&mut m
                .lock()
                .expect("span recorder poisoned by a panicking span"))
        })
    }

    /// Tags every span recorded from now on with repetition `run`.
    pub fn set_run(&self, run: u32) {
        self.with(|r| r.run = run);
    }

    /// Runs `f` inside a span named `name`; `f` returns its result and
    /// the work count to record with the span.
    pub fn counted<R>(&self, name: &'static str, f: impl FnOnce() -> (R, u64)) -> R {
        let Some(idx) = self.with(|r| {
            let idx = r.spans.len();
            let start_ns = r.now_ns();
            r.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: r.open.last().copied(),
                run: r.run,
                count: 0,
            });
            r.open.push(idx);
            idx
        }) else {
            return f().0;
        };
        let (out, count) = f();
        self.with(|r| {
            let end_ns = r.now_ns();
            let closed = r.open.pop();
            debug_assert_eq!(closed, Some(idx), "spans must nest");
            let span = &mut r.spans[idx];
            span.end_ns = end_ns;
            span.count = count;
        });
        out
    }

    /// Runs `f` inside a span named `name` with a work count of one.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.counted(name, || (f(), 1))
    }

    /// Adds `n` to the named counter (counts that are not a span's own
    /// work, such as instances picked by a selection call).
    pub fn add(&self, name: &'static str, n: u64) {
        self.with(|r| *r.counters.entry(name).or_insert(0) += n);
    }

    /// The recorded spans and counters (empty when disabled).
    pub fn finish(&self) -> (Vec<Span>, BTreeMap<&'static str, u64>) {
        self.with(|r| (r.spans.clone(), r.counters.clone()))
            .unwrap_or_default()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of span durations, children included.
    pub total_s: f64,
    /// Sum of span durations minus the time their direct children
    /// cover.
    pub self_s: f64,
    /// Sum of the spans' work counts.
    pub count: u64,
}

/// Self-time attribution of the spans below roots named `root`.
///
/// Only spans that descend from a `root` span are counted; the roots
/// themselves appear under their own name, so the root's self time is
/// the time no layer span covers. The self times of every name in the
/// result add up to the roots' total duration.
pub fn attribute(spans: &[Span], root: &str) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_s = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_s[p] += s.secs();
        }
    }
    let mut under_root = vec![false; spans.len()];
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        // Parents precede their children, so one forward pass settles
        // every span's ancestry.
        under_root[i] = s.name == root || s.parent.is_some_and(|p| under_root[p]);
        if !under_root[i] {
            continue;
        }
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_s += s.secs();
        t.self_s += s.secs() - child_s[i];
        t.count += s.count;
    }
    out
}

/// Writes spans as tab-separated lines: index, parent, run, name,
/// start, end, count.
pub fn write_spans(w: &mut impl Write, spans: &[Span]) -> std::io::Result<()> {
    writeln!(w, "idx\tparent\trun\tname\tstart_ns\tend_ns\tcount")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            s.run, s.name, s.start_ns, s.end_ns, s.count
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("bench.rep", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 40, Some(1)),
            span("c", 70, 80, Some(0)),
            span("setup", 200, 300, None),
        ];
        let t = attribute(&spans, "bench.rep");
        let ns = |name: &str| (t[name].self_s * 1e9).round() as u64;
        assert_eq!(ns("bench.rep"), 40);
        assert_eq!(ns("a"), 30);
        assert_eq!(ns("b"), 20);
        assert_eq!(ns("c"), 10);
        assert!(!t.contains_key("setup"));
        let sum: f64 = t.values().map(|l| l.self_s).sum();
        assert!((sum - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("x", || 7), 7);
        t.add("y", 3);
        let (spans, counters) = t.finish();
        assert!(spans.is_empty() && counters.is_empty());
    }

    #[test]
    fn nested_spans_get_parents_and_counts() {
        let t = Tracer::on();
        t.set_run(3);
        t.span("outer", || t.counted("inner", || ((), 5)));
        let (spans, _) = t.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].run, spans[1].count), (3, 5));
    }
}
