//! `temporal` — the temporal-blocking perf harness and regression gate.
//!
//! Runs out-of-core heat through the fused planner path twice (depth 1 vs
//! the automatically selected fusion depth) on the interconnect-starved
//! machine, and reports makespan, the staged bytes per computed step, and
//! the fused-launch amortization counters.
//!
//! ```text
//! cargo run --release -p tida-bench --bin temporal -- --quick --json BENCH_temporal.json
//! cargo run --release -p tida-bench --bin temporal -- --quick --check results/BENCH_temporal_baseline.json
//! cargo run --release -p tida-bench --bin temporal -- --sweep
//! ```
//!
//! `--check BASELINE.json` is the CI perf gate: the run fails (exit 1) if
//! the fused run's makespan regressed more than 5% against the committed
//! baseline, or if fusion no longer stages at least 1.5× fewer bytes per
//! computed step than the depth-1 baseline.

use tida_bench::experiments::{temporal_bench, Scale, TemporalBench, TemporalRun};
use tida_bench::{flag_value, read_baseline, write_outputs};

/// Makespan regressions beyond this fraction fail the gate.
const TOLERANCE: f64 = 0.05;
/// Fusion must stage at least this many times fewer bytes per computed
/// step than the depth-1 baseline (the PR's acceptance criterion).
const MIN_AMORTIZATION_X: f64 = 1.5;

fn render_run(r: &TemporalRun) -> String {
    format!(
        "{:<14} k={} makespan {:>9.3} ms | staged {:>12.0} B/step (h2d {:>11} B, d2h {:>11} B) \
         | xfer {:>8.3} ms, compute {:>8.3} ms | loads {:>3}, hits {:>3} \
         | fused {}x{}",
        r.label,
        r.depth,
        r.makespan_ms,
        r.staged_bytes_per_step,
        r.staged_bytes_h2d,
        r.staged_bytes_d2h,
        r.transfer_critical_ms,
        r.compute_critical_ms,
        r.loads,
        r.hits,
        r.fused_launches,
        r.fused_substeps.checked_div(r.fused_launches).unwrap_or(0),
    )
}

fn render(b: &TemporalBench) -> String {
    let mut out = String::new();
    out.push_str(&format!("# BENCH_temporal — {}\n", b.workload));
    out.push_str(&format!("{}\n", render_run(&b.baseline)));
    out.push_str(&format!("{}\n", render_run(&b.fused)));
    out.push_str(&format!(
        "auto depth: {} (halo cap {}) | staged-byte amortization: {:.2}x \
         (gate: >= {MIN_AMORTIZATION_X:.1}x) | makespan speedup: {:.2}x\n",
        b.auto_depth, b.halo_cap, b.staging_amortization_x, b.makespan_speedup_x
    ));
    for r in &b.sweep {
        out.push_str(&format!("{}\n", render_run(r)));
    }
    out
}

/// Pull `fused.makespan_ms` out of a previously emitted payload.
fn baseline_makespan(path: &str) -> f64 {
    read_baseline(path)["fused"]["makespan_ms"]
        .as_f64()
        .unwrap_or_else(|| panic!("baseline {path} lacks fused.makespan_ms"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let sweep = args.iter().any(|a| a == "--sweep");
    let scale = if quick { Scale::Quick } else { Scale::Paper };

    let bench = temporal_bench(scale, sweep);
    let text = render(&bench);
    print!("{text}");

    write_outputs(&args, &bench, &text);

    let mut failed = false;
    if bench.staging_amortization_x < MIN_AMORTIZATION_X {
        eprintln!(
            "FAIL: staged-byte amortization {:.2}x is below the {MIN_AMORTIZATION_X:.1}x gate",
            bench.staging_amortization_x
        );
        failed = true;
    }
    if let Some(path) = flag_value(&args, "--check") {
        let committed = baseline_makespan(&path);
        let current = bench.fused.makespan_ms;
        let limit = committed * (1.0 + TOLERANCE);
        if current > limit {
            eprintln!(
                "FAIL: fused makespan {current:.3} ms regressed more than {:.0}% over the \
                 committed baseline {committed:.3} ms (limit {limit:.3} ms; baseline file {path})",
                TOLERANCE * 100.0
            );
            failed = true;
        } else {
            eprintln!(
                "perf gate OK: fused makespan {current:.3} ms vs committed baseline \
                 {committed:.3} ms (limit {limit:.3} ms)"
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
}
