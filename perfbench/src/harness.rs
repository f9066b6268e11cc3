//! The measurement loop shared by every workload: timed set-up, one
//! verification pass, then timed runs for the requested seconds, checked
//! one by one, and the report.

use crate::alloc;
use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::span;
use crate::stats::{median, quiet_runs, tail};
use crate::workload::{take_cell_updates, Layers, Sim, Verdict, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups per process; `setup_s` is their median. The first comes
/// before the verification pass, the others are spread evenly over the
/// timed set, so they meet the same host load as the runs. Time spent in
/// them does not count against the set's budget.
pub const SETUPS: usize = 5;

/// The timed set is cut into consecutive windows of at least this long
/// and at least [`WINDOW_RUNS`] runs; `host_run_ms.p50` and
/// `host_run_ms.tail` are taken over the fastest windows (by mean run
/// time) that together hold [`QUIET_RUNS`] runs. Load from other tenants
/// of a shared host comes in bursts of tens of milliseconds to seconds
/// and only ever slows runs down, so the fastest windows estimate the
/// simulator's own cost.
/// Windows must be short enough to fit between bursts: with 0.25 s
/// windows nearly every window of a millisecond-run workload held some
/// slowed runs, and its p90 followed the host's load.
const WINDOW: Duration = Duration::from_millis(5);
const WINDOW_RUNS: usize = 5;
/// Runs the metrics are taken over: enough for a p90 with 10 runs beyond it.
const QUIET_RUNS: usize = 101;

pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Attempts and failures over a set of runs.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few problems, for the report.
    pub problems: Vec<String>,
}

/// Problems kept for the report; the count covers the rest.
const KEPT_PROBLEMS: usize = 5;

impl Tally {
    pub fn add(&mut self, v: &Verdict) {
        self.attempted += v.attempts;
        self.failed += v.failures;
        let room = KEPT_PROBLEMS.saturating_sub(self.problems.len());
        self.problems.extend(v.problems.iter().take(room).cloned());
    }

    /// A check that failed outside any run (the verification pass).
    pub fn fail(&mut self, problem: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(problem);
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.problems.is_empty()
    }
}

/// Wall time of a fixed integer loop, in ms: printed
/// beside each set so a slower host can be told apart from a regression.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One timed, untraced run: wall ms, allocation window and verdict.
fn timed_run<W: Workload>(w: &mut W) -> (f64, alloc::AllocSample, Verdict) {
    let base = alloc::reset();
    let t = Instant::now();
    let outcome = w.run(false);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let a = alloc::sample(base);
    let v = w.check(&outcome);
    (ms, a, v)
}

/// Build a workload and run its warm-up run: one timed set-up.
fn setup<W: Workload>(make: &impl Fn() -> W) -> (W, f64) {
    let t = Instant::now();
    let mut w = make();
    drop(w.run(false));
    (w, t.elapsed().as_secs_f64())
}

/// Run the whole benchmark for one workload. Prints the report and the
/// result line; returns whether every check passed.
pub fn bench<W: Workload>(s: &Settings, make: impl Fn() -> W) -> bool {
    let calib_before = calibrate();
    let (mut w, first_setup) = setup(&make);
    let mut tally = Tally::default();
    if let Err(e) = w.verify() {
        tally.fail(e);
        return finish(s, &tally, Vec::new());
    }
    let budget = Duration::from_secs_f64(s.seconds);
    let mut metrics = if s.trace {
        traced_set(s, &mut w, &mut tally, Instant::now() + budget)
    } else {
        timed_set(&mut w, &make, first_setup, &mut tally, budget)
    };
    let calib_after = calibrate();
    println!(
        "# {} seed {}: nproc {}, calibration loop {calib_before:.3} ms before / {calib_after:.3} ms after",
        s.workload,
        s.seed,
        nproc()
    );
    if s.trace {
        metrics.push(("host.calibration_ms", (calib_before + calib_after) / 2.0));
    }
    finish(s, &tally, metrics)
}

/// The end-to-end set: untraced runs filling `budget`, cut into windows,
/// with the remaining set-ups spread in between.
fn timed_set<W: Workload>(
    w: &mut W,
    make: &impl Fn() -> W,
    first_setup: f64,
    tally: &mut Tally,
    budget: Duration,
) -> Vec<(&'static str, f64)> {
    let mut setup_s = vec![first_setup];
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut window = (Instant::now(), Vec::new());
    let mut peak_mb = Vec::new();
    let mut sims = Vec::new();
    let start = Instant::now();
    let mut in_setups = Duration::ZERO;
    loop {
        let measured = start.elapsed() - in_setups;
        if measured >= budget {
            break;
        }
        if setup_s.len() < SETUPS && measured >= budget * setup_s.len() as u32 / SETUPS as u32 {
            let (_, secs) = setup(make);
            setup_s.push(secs);
            in_setups += Duration::from_secs_f64(secs);
            continue;
        }
        let (ms, a, v) = timed_run(w);
        window.1.push(ms);
        peak_mb.push(a.peak_bytes as f64 / 1e6);
        tally.add(&v);
        sims.push(v.sim);
        if window.1.len() >= WINDOW_RUNS && window.0.elapsed() >= WINDOW {
            windows.push(std::mem::take(&mut window.1));
            window.0 = Instant::now();
        }
    }
    // A short last window joins the one before it.
    match windows.last_mut() {
        Some(last) => last.append(&mut window.1),
        None => windows.push(window.1),
    }
    let quiet = quiet_runs(&windows, QUIET_RUNS);
    let t = tail(&quiet);
    let sim = |f: fn(&Sim) -> f64| median(&sims.iter().map(f).collect::<Vec<_>>());
    let all: Vec<f64> = windows.concat();
    println!("# {} timed runs; set-ups (s): {setup_s:?}", all.len());
    println!(
        "# host_run_ms.p50 and .tail are taken over the {} runs of the fastest of {} windows; \
         over all runs the median is {:.6} ms",
        quiet.len(),
        windows.len(),
        median(&all)
    );
    println!(
        "# host_run_ms.tail is p{} ({} beyond); fail_ratio = {} ({} of {} attempts)",
        t.permille as f64 / 10.0,
        t.beyond,
        tally.fail_ratio(),
        tally.failed,
        tally.attempted
    );
    vec![
        ("setup_s", median(&setup_s)),
        ("host_run_ms.p50", median(&quiet)),
        ("host_run_ms.tail", t.value),
        ("heap_peak_mb", median(&peak_mb)),
        ("ok_ratio", 1.0 - tally.fail_ratio()),
        ("sim_makespan_ms", sim(|s| s.makespan_ms)),
        ("sim_jobs_per_s", sim(|s| s.jobs_per_s)),
        ("sim_job_latency_ms.p50", sim(|s| s.job_latency_p50_ms)),
        ("sim_job_latency_ms.p99", sim(|s| s.job_latency_p99_ms)),
    ]
}

/// Span names of the calls into `tida-acc` during a time step.
const STEP_SPANS: &[&str] = &[
    "tida-acc.register",
    "tida-acc.begin_step",
    "tida-acc.fill_boundary",
    "tida-acc.compute2",
    "tida-acc.compute_fused",
];

/// The per-layer set: untraced and traced runs alternate until
/// `deadline`. Host per-layer values are medians over the traced runs;
/// simulated and count values repeat exactly, so the last run's stand.
fn traced_set<W: Workload>(
    s: &Settings,
    w: &mut W,
    tally: &mut Tally,
    deadline: Instant,
) -> Vec<(&'static str, f64)> {
    let mut untraced_ms = Vec::new();
    let mut alloc_count = Vec::new();
    let mut alloc_mb = Vec::new();
    let mut host: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut layers = Layers::new();
    let mut first_spans = None;
    for run in 0u64.. {
        let (ms, a, v) = timed_run(w);
        untraced_ms.push(ms);
        alloc_count.push(a.count as f64);
        alloc_mb.push(a.bytes as f64 / 1e6);
        tally.add(&v);

        span::set_enabled(true);
        span::begin_run(run);
        let mut outcome = span::span("run", || w.run(true));
        span::set_enabled(false);
        let spans = span::take();
        let cells = take_cell_updates();
        tally.add(&w.check(&outcome));
        w.layers(&mut outcome, &mut layers);
        drop(outcome);

        let by = span::totals_by_name(&spans);
        let self_ms = |names: &[&str]| -> f64 {
            names
                .iter()
                .filter_map(|n| by.get(n))
                .map(|t| t.0)
                .sum::<u64>() as f64
                / 1e6
        };
        let effect_ms = by.get("kernels.effect").map_or(0, |t| t.1) as f64 / 1e6;
        let root_ms = by.get("run").map_or(0, |t| t.1) as f64 / 1e6;
        for (name, v) in [
            ("run", root_ms),
            ("tida.build_ms", self_ms(&["tida.build"])),
            ("tida-acc.step_ms", self_ms(STEP_SPANS)),
            (
                "tida-acc.sync_ms",
                self_ms(&["tida-acc.sync_to_host", "gpu-sim.finish"]),
            ),
            ("kernels.effect_ms", effect_ms),
            ("cluster.step_ms", self_ms(&["cluster.step"])),
            ("serving.submit_ms", self_ms(&["serving.submit"])),
            ("serving.serve_ms", self_ms(&["serving.run_until_idle"])),
        ] {
            host.entry(name).or_default().push(v);
        }
        layers.insert("kernels.cell_updates", cells as f64);
        if first_spans.is_none() {
            first_spans = Some(spans);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    if let Some(spans) = first_spans {
        write_trace(s, &spans);
    }
    let med = |name: &str| median(&host[name]);
    let untraced_p50 = median(&untraced_ms);
    let effect_ms = med("kernels.effect_ms");
    let decisions = layers.get("desim.decisions").copied().unwrap_or(0.0);
    let cells = layers["kernels.cell_updates"];
    for name in [
        "tida.build_ms",
        "tida-acc.step_ms",
        "tida-acc.sync_ms",
        "kernels.effect_ms",
        "cluster.step_ms",
        "serving.submit_ms",
        "serving.serve_ms",
    ] {
        layers.insert(name, med(name));
    }
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    layers.insert(
        "desim.ns_per_decision",
        per((untraced_p50 - effect_ms).max(0.0) * 1e6, decisions),
    );
    layers.insert("kernels.ns_per_cell", per(effect_ms * 1e6, cells));
    layers.insert("alloc.count", median(&alloc_count));
    layers.insert("alloc.mb", median(&alloc_mb));
    layers.insert("trace.overhead_ratio", per(med("run"), untraced_p50));
    layers.insert("host.nproc", nproc() as f64);
    println!(
        "# {} untraced + {} traced runs; untraced host_run_ms.p50 {untraced_p50:.4}, traced {:.4}",
        untraced_ms.len(),
        host["run"].len(),
        med("run")
    );
    PER_LAYER
        .iter()
        .filter(|(n, _)| *n != "host.calibration_ms")
        .map(|(n, _)| (*n, layers.get(n).copied().unwrap_or(0.0)))
        .collect()
}

/// Write the first traced run's spans as a Chrome trace next to the
/// benchmark's sources (`out/`, ignored by git).
fn write_trace(s: &Settings, spans: &[span::Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{}.trace.json", s.workload, s.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, span::to_chrome_json(spans)));
    match written {
        Ok(()) => println!("# spans of the first traced run: {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// Print the metrics, one per line, then the result line; returns
/// whether every check passed.
fn finish(s: &Settings, tally: &Tally, metrics: Vec<(&'static str, f64)>) -> bool {
    for p in &tally.problems {
        println!("# FAILED CHECK: {p}");
    }
    for (name, v) in &metrics {
        println!("{:<30} {:>16} {}", name, fmt_num(*v), unit_of(name));
    }
    let expected = if s.trace {
        PER_LAYER.len()
    } else {
        END_TO_END.len()
    };
    debug_assert!(metrics.is_empty() || metrics.len() == expected);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                fmt_num(*v),
                unit_of(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    tally.correct()
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns the -0 of an empty float sum into 0.
        format!("{}", v + 0.0)
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Sim;

    fn verdict(attempts: u64, failures: u64) -> Verdict {
        Verdict {
            attempts,
            failures,
            problems: (0..failures).map(|i| format!("p{i}")).collect(),
            sim: Sim::single_job(1_000_000),
        }
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ratio(), 0.0);
        assert!(!t.correct(), "nothing attempted is not a pass");
        t.add(&verdict(1, 0));
        t.add(&verdict(1, 0));
        assert!(t.correct());
        // A flood of 1000 offered jobs with 3 failures.
        t.add(&verdict(1000, 3));
        assert_eq!((t.attempted, t.failed), (1002, 3));
        assert_eq!(t.fail_ratio(), 3.0 / 1002.0);
        assert!(!t.correct());
        // Problems are kept up to a cap; the count keeps going.
        t.add(&verdict(10, 10));
        assert_eq!(t.problems.len(), KEPT_PROBLEMS);
        assert_eq!(t.failed, 13);
        let mut v = Tally::default();
        v.fail("verification failed".into());
        assert_eq!((v.attempted, v.failed, v.fail_ratio()), (1, 1, 1.0));
    }

    #[test]
    fn numbers_print_as_json() {
        assert_eq!(fmt_num(1.25), "1.25");
        assert_eq!(fmt_num(1e-7), "0.0000001");
        assert_eq!(fmt_num(f64::NAN), "0");
        assert_eq!(fmt_num(-0.0), "0");
    }
}
