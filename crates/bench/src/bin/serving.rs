//! `serving` — the multi-tenant serving-runtime bench and regression gate.
//!
//! Floods the serving runtime with an open-loop job mix (≥1000 queued jobs
//! across ≥4 tenants) and reports throughput (jobs per simulated second)
//! plus the virtual-time latency distribution, for a clean platform and a
//! transiently faulted one.
//!
//! ```text
//! cargo run --release -p tida-bench --bin serving -- --quick --json BENCH_serving.json
//! cargo run --release -p tida-bench --bin serving -- --quick --check results/BENCH_serving_baseline.json
//! cargo run --release -p tida-bench --bin serving -- --soak
//! ```
//!
//! `--check BASELINE.json` is the CI gate: the run fails (exit 1) if clean
//! throughput drops, or p99 latency rises, more than 5% against the
//! committed baseline. Virtual-time metrics are deterministic, so any trip
//! of the gate is a real scheduling change, not noise.
//!
//! `--soak` is the nightly chaos lane: a matrix of tenant-scoped fault
//! plans (transient, dead-lane, corruption, crash, device-death,
//! link-flap) × seeds, each cell checked for the full isolation contract —
//! an isolation violation or a lost admitted job fails the run.
//! `FAULT_SEED_OFFSET` displaces the seed window; `--soak-cells N` sets
//! the per-class cell count.

use tida_bench::serving::{serving_bench, soak_cell, ServingBench, ServingRun};
use tida_bench::{flag_value, read_baseline, write_outputs};

/// Regressions beyond this fraction fail the gate.
const TOLERANCE: f64 = 0.05;

fn render_run(r: &ServingRun) -> String {
    format!(
        "{:<16} {:>5} jobs / {} tenants | {:>9.1} jobs/s | lat p50 {:>7.3} ms, p99 {:>7.3} ms, \
         mean {:>7.3} ms | makespan {:>8.3} ms | ok {} fail {} | xfer-faults {}, job-retries {}, \
         preemptions {} | cross-tenant {}, hazards {}",
        r.label,
        r.jobs,
        r.tenants,
        r.jobs_per_sec,
        r.p50_ms,
        r.p99_ms,
        r.mean_ms,
        r.makespan_ms,
        r.completed,
        r.failed,
        r.transfer_fault_events,
        r.job_retries,
        r.preemptions,
        r.cross_tenant_touches,
        r.hazards,
    )
}

fn render(b: &ServingBench) -> String {
    let mut out = String::new();
    out.push_str(&format!("# BENCH_serving — {}\n", b.workload));
    out.push_str(&format!("{}\n", render_run(&b.clean)));
    out.push_str(&format!("{}\n", render_run(&b.faulted)));
    out
}

fn baseline_metric(path: &str, field: &str) -> f64 {
    read_baseline(path)["clean"][field]
        .as_f64()
        .unwrap_or_else(|| panic!("baseline {path} lacks clean.{field}"))
}

fn seed_offset() -> u64 {
    std::env::var("FAULT_SEED_OFFSET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn run_soak(cells_per_class: u64) -> bool {
    let offset = seed_offset();
    let mut failures = 0u64;
    let mut fault_events = 0u64;
    let classes = [
        "transient",
        "dead-d2h",
        "corruption",
        "crash",
        "device-death",
        "link-flap",
    ];
    for (kind, name) in classes.iter().enumerate() {
        for s in 0..cells_per_class {
            let seed = 1 + offset + s;
            match soak_cell(kind, seed) {
                Ok(events) => fault_events += events,
                Err(msg) => {
                    eprintln!("SOAK FAIL [{name}]: {msg}");
                    failures += 1;
                }
            }
        }
    }
    println!(
        "soak: {} cells ({} per fault class, seed offset {offset}), {} injected fault events, \
         {failures} isolation violations",
        classes.len() as u64 * cells_per_class,
        cells_per_class,
        fault_events,
    );
    failures == 0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "--soak") {
        let cells: u64 = flag_value(&args, "--soak-cells")
            .map(|v| v.parse().expect("--soak-cells takes an integer"))
            .unwrap_or(12);
        if !run_soak(cells) {
            std::process::exit(1);
        }
        return;
    }

    let quick = args.iter().any(|a| a == "--quick");
    let bench = serving_bench(quick);
    let text = render(&bench);
    print!("{text}");

    write_outputs(&args, &bench, &text);

    let mut failed = false;
    if let Some(path) = flag_value(&args, "--check") {
        let base_tput = baseline_metric(&path, "jobs_per_sec");
        let base_p99 = baseline_metric(&path, "p99_ms");
        let tput = bench.clean.jobs_per_sec;
        let p99 = bench.clean.p99_ms;
        let tput_floor = base_tput * (1.0 - TOLERANCE);
        let p99_ceil = base_p99 * (1.0 + TOLERANCE);
        if tput < tput_floor {
            eprintln!(
                "FAIL: clean throughput {tput:.1} jobs/s dropped more than {:.0}% below the \
                 committed baseline {base_tput:.1} (floor {tput_floor:.1}; baseline file {path})",
                TOLERANCE * 100.0
            );
            failed = true;
        }
        if p99 > p99_ceil {
            eprintln!(
                "FAIL: clean p99 {p99:.3} ms rose more than {:.0}% over the committed baseline \
                 {base_p99:.3} ms (ceiling {p99_ceil:.3} ms; baseline file {path})",
                TOLERANCE * 100.0
            );
            failed = true;
        }
        if !failed {
            eprintln!(
                "perf gate OK: {tput:.1} jobs/s (floor {tput_floor:.1}), p99 {p99:.3} ms \
                 (ceiling {p99_ceil:.3} ms)"
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
}
