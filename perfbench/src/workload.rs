//! What every workload provides to the harness, and the pieces the
//! workloads share.

use crate::span;
use gpu_sim::RunReport;
use std::cell::Cell;
use std::collections::BTreeMap;
use tida_acc::AccStats;

/// Per-layer values of one traced run, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Simulated end-to-end figures of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    pub makespan_ms: f64,
    /// Completed jobs per simulated second. A heat or cluster run is one
    /// job submitted at t=0, so this is `1000 / makespan_ms` there.
    pub jobs_per_s: f64,
    pub job_latency_p50_ms: f64,
    pub job_latency_p99_ms: f64,
}

impl Sim {
    /// A run that is a single job: its latency is the makespan.
    pub fn single_job(makespan_ns: u64) -> Sim {
        let ms = makespan_ns as f64 / 1e6;
        Sim {
            makespan_ms: ms,
            jobs_per_s: 1e3 / ms,
            job_latency_p50_ms: ms,
            job_latency_p99_ms: ms,
        }
    }
}

/// The checked result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Attempts the run made: 1 for a heat or cluster run, the offered
    /// jobs for a serving flood.
    pub attempts: u64,
    /// Attempts that failed (an error, a hazard, a shed or wrong job, or a
    /// simulated outcome that differs from the verified pass).
    pub failures: u64,
    /// Why each failure happened, for the report.
    pub problems: Vec<String>,
    pub sim: Sim,
}

impl Verdict {
    /// The verdict of a run that is one attempt.
    pub fn single(problems: Vec<String>, sim: Sim) -> Verdict {
        Verdict {
            attempts: 1,
            failures: u64::from(!problems.is_empty()),
            problems,
            sim,
        }
    }
}

/// One benchmark workload. The harness builds it with its constructor
/// (the timed set-up), calls [`Workload::verify`] once, then times
/// [`Workload::run`] repeatedly and checks each outcome untimed.
pub trait Workload {
    /// Everything a run leaves behind for checking and per-layer metrics.
    type Outcome;

    /// The untimed verification pass: a backed run compared against a
    /// host-only reference (heat, cluster) or against golden digests
    /// (serving). It fixes the simulated outcome every later run must
    /// reproduce.
    fn verify(&mut self) -> Result<(), String>;

    /// One run with a cold runtime. `traced` selects the simulator's full
    /// trace level, which records engine spans for the per-layer report.
    fn run(&mut self, traced: bool) -> Self::Outcome;

    /// Check one outcome against the verified pass.
    fn check(&self, outcome: &Self::Outcome) -> Verdict;

    /// Simulated and count per-layer metrics of a traced run's outcome.
    fn layers(&self, outcome: &mut Self::Outcome, out: &mut Layers);
}

thread_local! {
    static CELLS: Cell<u64> = const { Cell::new(0) };
}

/// Run a kernel effect over `cells` cells. While spans are recorded, the
/// effect gets a `kernels.effect` span and its cells are counted.
pub fn kernel_effect<R>(cells: u64, f: impl FnOnce() -> R) -> R {
    if !span::enabled() {
        return f();
    }
    CELLS.with(|c| c.set(c.get() + cells));
    span::span("kernels.effect", f)
}

/// Cells updated by kernel effects since the last call, then reset.
pub fn take_cell_updates() -> u64 {
    CELLS.with(|c| c.replace(0))
}

/// The paper's K40m behind a PCIe Gen3 x4-class link, where staging
/// dominates: the machine of the overlap, simspeed and temporal benches.
pub fn x4_machine() -> gpu_sim::MachineConfig {
    let mut m = gpu_sim::MachineConfig::k40m();
    m.name = "Tesla K40m / PCIe Gen3 x4".to_string();
    m.h2d_pinned_bw = 3.3e9;
    m.d2h_pinned_bw = 3.5e9;
    m.host_stage_bw = 3.0e9;
    m
}

/// Bit-for-bit comparison of two fields; the first differing cell index
/// on mismatch.
pub fn first_difference(a: &[f64], b: &[f64]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
}

/// Critical-path time of one category, in simulated ms.
pub fn crit_ms(report: &RunReport, category: &str) -> f64 {
    report
        .critical_by_category
        .get(category)
        .map_or(0.0, |t| t.as_ms_f64())
}

/// Engine busy times and H2D/compute overlap summed over `reports` (one
/// per device), and the critical-path split of `crit`.
pub fn engine_layers(reports: &[RunReport], crit: &RunReport, out: &mut Layers) {
    let busy = |suffix: &str| -> f64 {
        reports
            .iter()
            .flat_map(|r| &r.engines)
            .filter(|(name, _, _)| name.ends_with(suffix))
            .map(|(_, t, _)| t.as_ms_f64())
            .sum()
    };
    let h2d_busy = busy("h2d");
    let overlap: f64 = reports
        .iter()
        .map(|r| r.h2d_compute_overlap.as_ms_f64())
        .sum();
    out.insert("gpu-sim.h2d_busy_ms", h2d_busy);
    out.insert("gpu-sim.d2h_busy_ms", busy("d2h"));
    out.insert("gpu-sim.compute_busy_ms", busy("compute"));
    out.insert("net.nic_busy_ms", busy("nic"));
    out.insert("gpu-sim.h2d_overlap", ratio(overlap, h2d_busy));
    for (name, cat) in [
        ("gpu-sim.crit_h2d_ms", "h2d"),
        ("gpu-sim.crit_d2h_ms", "d2h"),
        ("gpu-sim.crit_kernel_ms", "kernel"),
        ("gpu-sim.crit_host_ms", "host"),
        ("gpu-sim.crit_net_ms", "net"),
    ] {
        out.insert(name, crit_ms(crit, cat));
    }
}

/// Cache-list counters of a `TileAcc`-style runtime.
pub fn cache_layers(st: &AccStats, out: &mut Layers) {
    let hits = (st.hits + st.prefetch_hits) as f64;
    out.insert("tida-acc.loads", st.loads as f64);
    out.insert("tida-acc.evictions", st.evictions as f64);
    out.insert("tida-acc.hit_ratio", ratio(hits, hits + st.loads as f64));
    out.insert(
        "tida-acc.prefetch_accuracy",
        ratio(st.prefetch_hits as f64, st.prefetch_loads as f64),
    );
    out.insert("tida-acc.ghost_gpu", st.ghost_gpu as f64);
    out.insert("tida-acc.ghost_host", st.ghost_host as f64);
    out.insert("tida-acc.fused_substeps", st.fused_substeps as f64);
    out.insert("gpu-sim.hazards", st.hazards as f64);
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
