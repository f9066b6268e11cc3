//! `simspeed` — simulator-throughput harness and CI regression gate.
//!
//! Times repeated deterministic out-of-core heat runs (the overlap bench's
//! workload) at every trace level, sequential and fanned out over OS
//! threads, and reports runs/sec and ns per scheduler decision point.
//!
//! ```text
//! cargo run --release -p tida-bench --bin simspeed -- --json BENCH_simspeed.json
//! cargo run --release -p tida-bench --bin simspeed -- --quick --check results/BENCH_simspeed_baseline.json
//! ```
//!
//! `--check BASELINE.json` is the CI gate: the run fails (exit 1) if the
//! sequential `TraceLevel::Off` runs/sec regressed more than 10% against
//! the committed baseline. Every timed run is also asserted bit-identical
//! to the Full/sequential reference, so a "speedup" that changes the
//! simulation fails loudly instead of passing quietly.

use tida_bench::experiments::Scale;
use tida_bench::simspeed::{simspeed_bench, SimspeedBench};
use tida_bench::{flag_value, read_baseline, write_outputs};

/// runs/sec regressions beyond this fraction fail the gate. Wider than the
/// overlap gate's 5% because wall-clock throughput on shared CI runners is
/// noisier than simulated makespans.
const TOLERANCE: f64 = 0.10;

fn render(b: &SimspeedBench) -> String {
    let mut out = String::new();
    out.push_str(&format!("# BENCH_simspeed — {}\n", b.workload));
    out.push_str(&format!(
        "host parallelism {} (fanout rows use {} threads)\n",
        b.host_parallelism, b.fanout_threads
    ));
    for c in &b.configs {
        out.push_str(&format!(
            "trace {:<8} x{:<2} threads: {:>8.1} runs/sec ({:>7.3} ms/run, {:>6.0} ns/decision, \
             {} decisions, {} ops, makespan {:.3} ms)\n",
            c.trace_level,
            c.threads,
            c.runs_per_sec,
            1e3 / c.runs_per_sec.max(1e-9),
            c.ns_per_decision_point,
            c.decision_points_per_run,
            c.ops_per_run,
            c.makespan_ms,
        ));
    }
    out.push_str(&format!(
        "gate (sequential, trace Off): {:.1} runs/sec | best: {:.1} runs/sec\n",
        b.gate_runs_per_sec, b.best_runs_per_sec,
    ));
    if let Some(speedup) = b.speedup_vs_pre_overhaul {
        out.push_str(&format!(
            "{speedup:.1}x vs pre-overhaul {:.1} runs/sec (paper scale, sequential)\n",
            b.pre_overhaul_runs_per_sec,
        ));
    }
    out
}

/// Pull `gate_runs_per_sec` out of a previously emitted payload.
fn baseline_gate(path: &str) -> f64 {
    read_baseline(path)["gate_runs_per_sec"]
        .as_f64()
        .unwrap_or_else(|| panic!("baseline {path} lacks gate_runs_per_sec"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Paper };
    let threads: usize = flag_value(&args, "--threads")
        .map(|v| v.parse().expect("--threads takes an integer"))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    let runs: u64 = flag_value(&args, "--runs")
        .map(|v| v.parse().expect("--runs takes an integer"))
        .unwrap_or(if quick { 60 } else { 40 });

    let bench = simspeed_bench(scale, threads, runs);
    let text = render(&bench);
    print!("{text}");

    write_outputs(&args, &bench, &text);

    if let Some(path) = flag_value(&args, "--check") {
        let committed = baseline_gate(&path);
        let current = bench.gate_runs_per_sec;
        let limit = committed * (1.0 - TOLERANCE);
        if current < limit {
            eprintln!(
                "FAIL: {current:.1} runs/sec regressed more than {:.0}% below the committed \
                 baseline {committed:.1} runs/sec (limit {limit:.1}; baseline file {path})",
                TOLERANCE * 100.0
            );
            std::process::exit(1);
        }
        eprintln!(
            "simspeed gate OK: {current:.1} runs/sec vs committed {committed:.1} (limit {limit:.1})"
        );
    }
}
