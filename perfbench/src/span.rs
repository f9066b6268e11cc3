//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public API, and around the kernel closures it hands to the runtime. A
//! span's parent is whichever span was open when it started, so a kernel
//! effect that the simulator runs lazily inside a drain is charged to the
//! call that drained it. Recording is off unless [`set_enabled`] turned it
//! on; then [`span`] is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The run this span belongs to (one root span per run).
    pub run: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        run: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().enabled = on);
}

pub fn enabled() -> bool {
    REC.with(|r| r.borrow().enabled)
}

/// Run `f` inside a span named `name` (a plain call while disabled).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let Some(idx) = open(name) else {
        return f();
    };
    let out = f();
    close(idx);
    out
}

/// Start a new run: later spans carry `run` as their run id.
pub fn begin_run(run: u64) {
    REC.with(|r| r.borrow_mut().run = run);
}

/// Hand over every span recorded so far, emptying the recorder.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

fn open(name: &'static str) -> Option<usize> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let now = r.epoch.elapsed().as_nanos() as u64;
        let idx = r.spans.len();
        let span = Span {
            run: r.run,
            name,
            parent: r.open.last().copied(),
            start_ns: now,
            end_ns: now,
        };
        r.spans.push(span);
        r.open.push(idx);
        Some(idx)
    })
}

fn close(idx: usize) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let now = r.epoch.elapsed().as_nanos() as u64;
        r.spans[idx].end_ns = now;
        let top = r.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    })
}

/// Self time of every span: its duration minus the part of it that the
/// union of its children's intervals covers. Children may overlap each
/// other; only the covered length counts, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (lo, hi) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (lo, hi) in kids {
                match cur {
                    Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
                    _ => {
                        if let Some((clo, chi)) = cur {
                            covered += chi - clo;
                        }
                        cur = Some((lo, hi));
                    }
                }
            }
            if let Some((clo, chi)) = cur {
                covered += chi - clo;
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals of one run's spans: (summed self time, summed
/// duration), in nanoseconds.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += own;
        e.1 += s.duration_ns();
    }
    out
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto) document.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                s.name,
                s.run,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3
            )
        })
        .collect();
    format!("{{\"traceEvents\":[{}]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            run: 0,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) > a [10,40) > b [20,30); c [50,60) under root.
        let spans = vec![
            sp("root", None, 0, 100),
            sp("a", Some(0), 10, 40),
            sp("b", Some(1), 20, 30),
            sp("c", Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,50) and [30,70) overlap on [30,50): covered 60, not
        // 80. A child running past its parent is clipped to it.
        let spans = vec![
            sp("root", None, 0, 100),
            sp("x", Some(0), 10, 50),
            sp("y", Some(0), 30, 70),
            sp("z", Some(0), 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
        let by = totals_by_name(&spans);
        assert_eq!(by["root"], (30, 100));
        assert_eq!(by["z"], (40, 40));
    }

    #[test]
    fn recorder_parents_spans_to_the_open_span() {
        set_enabled(true);
        begin_run(7);
        let v = span("outer", || span("inner", || 5));
        set_enabled(false);
        let plain = span("ignored", || 6);
        let spans = take();
        assert_eq!((v, plain), (5, 6));
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].run),
            ("inner", Some(0), 7)
        );
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
