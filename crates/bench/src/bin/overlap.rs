//! `overlap` — the overlap-scheduler perf harness and regression gate.
//!
//! Runs out-of-core heat twice (plain LRU pool with no prefetching vs the
//! automatic lookahead-prefetch scheduler) and reports makespan, the
//! overlap fractions, the critical-path split, and the caching counters.
//!
//! ```text
//! cargo run --release -p tida-bench --bin overlap -- --quick --json BENCH_overlap.json
//! cargo run --release -p tida-bench --bin overlap -- --quick --check results/BENCH_overlap_baseline.json
//! cargo run --release -p tida-bench --bin overlap -- --sweep
//! ```
//!
//! `--check BASELINE.json` is the CI perf gate: the run fails (exit 1) if
//! the automatic scheduler's makespan regressed more than 5% against the
//! committed baseline, or if it no longer beats the LRU baseline by at
//! least 15%.

use tida_bench::experiments::{overlap_bench, OverlapBench, OverlapRun, Scale};
use tida_bench::{flag_value, read_baseline, write_outputs};

/// Makespan regressions beyond this fraction fail the gate.
const TOLERANCE: f64 = 0.05;
/// The automatic scheduler must beat the LRU no-prefetch baseline by at
/// least this many percent (the PR's acceptance criterion).
const MIN_REDUCTION_PCT: f64 = 15.0;

fn render_run(r: &OverlapRun) -> String {
    format!(
        "{:<18} L={} makespan {:>8.3} ms | xfer {:>8.3} ms, compute {:>6.3} ms, host {:>5.3} ms \
         | h2d-overlap {:>4.1}% | loads {:>3} (prefetch {}, hits {}/{}), evictions {}, \
         fallbacks {}, deferred-wb {}",
        r.label,
        r.lookahead,
        r.makespan_ms,
        r.transfer_critical_ms,
        r.compute_critical_ms,
        r.host_critical_ms,
        r.h2d_overlap_fraction * 100.0,
        r.loads,
        r.prefetch_loads,
        r.prefetch_hits,
        r.hits + r.prefetch_hits,
        r.evictions,
        r.prefetch_fallbacks,
        r.writebacks_deferred,
    )
}

fn render(b: &OverlapBench) -> String {
    let mut out = String::new();
    out.push_str(&format!("# BENCH_overlap — {}\n", b.workload));
    out.push_str(&format!("{}\n", render_run(&b.baseline)));
    out.push_str(&format!("{}\n", render_run(&b.auto_sched)));
    out.push_str(&format!(
        "makespan reduction: {:.1}% (gate: >= {MIN_REDUCTION_PCT:.0}%)\n",
        b.reduction_pct
    ));
    for r in &b.sweep {
        out.push_str(&format!("{}\n", render_run(r)));
    }
    out
}

/// Pull `auto_sched.makespan_ms` out of a previously emitted payload.
fn baseline_makespan(path: &str) -> f64 {
    read_baseline(path)["auto_sched"]["makespan_ms"]
        .as_f64()
        .unwrap_or_else(|| panic!("baseline {path} lacks auto_sched.makespan_ms"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let sweep = args.iter().any(|a| a == "--sweep");
    let scale = if quick { Scale::Quick } else { Scale::Paper };
    let lookahead: usize = flag_value(&args, "--lookahead")
        .map(|v| v.parse().expect("--lookahead takes an integer"))
        .unwrap_or(2);

    let bench = overlap_bench(scale, lookahead, sweep);
    let text = render(&bench);
    print!("{text}");

    write_outputs(&args, &bench, &text);

    let mut failed = false;
    if bench.reduction_pct < MIN_REDUCTION_PCT {
        eprintln!(
            "FAIL: automatic scheduler reduction {:.1}% is below the {MIN_REDUCTION_PCT:.0}% gate",
            bench.reduction_pct
        );
        failed = true;
    }
    if let Some(path) = flag_value(&args, "--check") {
        let committed = baseline_makespan(&path);
        let current = bench.auto_sched.makespan_ms;
        let limit = committed * (1.0 + TOLERANCE);
        if current > limit {
            eprintln!(
                "FAIL: makespan {current:.3} ms regressed more than {:.0}% over the committed \
                 baseline {committed:.3} ms (limit {limit:.3} ms; baseline file {path})",
                TOLERANCE * 100.0
            );
            failed = true;
        } else {
            eprintln!(
                "perf gate OK: makespan {current:.3} ms vs committed baseline {committed:.3} ms \
                 (limit {limit:.3} ms)"
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
}
