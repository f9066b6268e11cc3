//! `cluster` — the multi-node scaling harness and regression gate.
//!
//! Sweeps the cluster heat workload over node counts twice: strong
//! scaling (fixed domain, more nodes) and weak scaling (fixed per-node
//! work), and reports makespans, speedups, wire traffic and the curve
//! shape.
//!
//! ```text
//! cargo run --release -p tida-bench --bin cluster -- --quick --json BENCH_cluster.json
//! cargo run --release -p tida-bench --bin cluster -- --check results/BENCH_cluster_baseline.json
//! ```
//!
//! The gate (always evaluated) asserts the scaling-curve *shape*: the
//! strong sweep must reach its peak speedup past a single node, speed up
//! by at least `MIN_PEAK_SPEEDUP_X` somewhere, and flatten by the end of
//! the sweep (the last doubling gains less than `MAX_TAIL_GAIN_X`) — the
//! signature of a fabric-limited stencil. Weak efficiency must stay above
//! `MIN_WEAK_EFFICIENCY`. `--check BASELINE.json` additionally fails the
//! run (exit 1) if the max-node strong makespan regressed more than 5%
//! against the committed baseline.

use tida_bench::cluster::{cluster_bench, ClusterBench, ClusterPoint};
use tida_bench::experiments::Scale;
use tida_bench::{flag_value, read_baseline, write_outputs};

/// Makespan regressions beyond this fraction fail the gate.
const TOLERANCE: f64 = 0.05;
/// The strong sweep must speed up at least this much at its peak.
const MIN_PEAK_SPEEDUP_X: f64 = 2.0;
/// ...and the last doubling must gain less than this (flattening knee).
const MAX_TAIL_GAIN_X: f64 = 1.6;
/// Weak-scaling efficiency floor across the sweep.
const MIN_WEAK_EFFICIENCY: f64 = 0.5;

fn render_point(p: &ClusterPoint) -> String {
    format!(
        "  {:>3} nodes ({:>3} regions): makespan {:>9.3} ms | speedup {:>5.2}x, eff {:>4.2} \
         | net {:>10} B ({:>4} inter, {:>4} local msgs) | pcie {:>11} B",
        p.nodes,
        p.regions,
        p.makespan_ms,
        p.speedup_x,
        p.efficiency,
        p.bytes_net,
        p.msgs_inter,
        p.msgs_local,
        p.bytes_pcie,
    )
}

fn render(b: &ClusterBench) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# BENCH_cluster — {} ({} steps, fabric {} B/us)\n",
        b.workload, b.steps, b.fabric_bytes_per_us
    ));
    out.push_str("strong scaling (fixed domain):\n");
    for p in &b.strong {
        out.push_str(&format!("{}\n", render_point(p)));
    }
    out.push_str("weak scaling (fixed per-node work):\n");
    for p in &b.weak {
        out.push_str(&format!("{}\n", render_point(p)));
    }
    out.push_str(&format!(
        "peak speedup {:.2}x at {} nodes | tail doubling gain {:.2}x \
         (flat < {MAX_TAIL_GAIN_X:.1}x) | weak efficiency floor {:.2}\n",
        b.peak_speedup_x, b.peak_speedup_nodes, b.tail_doubling_gain_x, b.weak_floor_efficiency
    ));
    out
}

/// Pull the max-node strong makespan out of a previously emitted payload.
fn baseline_makespan(path: &str) -> f64 {
    read_baseline(path)["strong"]
        .as_array()
        .and_then(|pts| pts.last())
        .and_then(|p| p["makespan_ms"].as_f64())
        .unwrap_or_else(|| panic!("baseline {path} lacks strong[last].makespan_ms"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Paper };

    let bench = cluster_bench(scale);
    let text = render(&bench);
    print!("{text}");

    let mut failed = false;
    if bench.peak_speedup_x < MIN_PEAK_SPEEDUP_X {
        eprintln!(
            "FAIL: peak strong-scaling speedup {:.2}x is below the {MIN_PEAK_SPEEDUP_X:.1}x gate",
            bench.peak_speedup_x
        );
        failed = true;
    }
    if bench.peak_speedup_nodes <= 1 {
        eprintln!("FAIL: strong-scaling curve never rises (peak at 1 node)");
        failed = true;
    }
    if bench.tail_doubling_gain_x >= MAX_TAIL_GAIN_X {
        eprintln!(
            "FAIL: strong curve does not flatten: last doubling gained {:.2}x \
             (gate < {MAX_TAIL_GAIN_X:.1}x)",
            bench.tail_doubling_gain_x
        );
        failed = true;
    }
    if bench.weak_floor_efficiency < MIN_WEAK_EFFICIENCY {
        eprintln!(
            "FAIL: weak-scaling efficiency floor {:.2} is below the {MIN_WEAK_EFFICIENCY:.1} gate",
            bench.weak_floor_efficiency
        );
        failed = true;
    }

    write_outputs(&args, &bench, &text);

    if let Some(path) = flag_value(&args, "--check") {
        let committed = baseline_makespan(&path);
        let current = bench.strong.last().unwrap().makespan_ms;
        let limit = committed * (1.0 + TOLERANCE);
        if current > limit {
            eprintln!(
                "FAIL: max-node strong makespan {current:.3} ms regressed more than {:.0}% over \
                 the committed baseline {committed:.3} ms (limit {limit:.3} ms; baseline {path})",
                TOLERANCE * 100.0
            );
            failed = true;
        } else {
            eprintln!(
                "perf gate OK: max-node strong makespan {current:.3} ms vs committed baseline \
                 {committed:.3} ms (limit {limit:.3} ms)"
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
}
