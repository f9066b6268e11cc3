//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <ooc-heat|fused-heat|cluster-halo|serving-flood>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload: timed set-up, one untimed verification pass, then
//! timed runs for `--seconds`, each checked against the verified pass.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones from a separate traced set. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. The
//! exit code is 0 only when every check passed.

mod alloc;
mod cluster_halo;
mod harness;
mod heat;
mod metrics;
mod serving_flood;
mod span;
mod stats;
mod workload;

#[cfg(test)]
mod crosscheck;

use harness::{bench, Settings};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload <ooc-heat|fused-heat|cluster-halo|serving-flood> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Settings, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Settings {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let s = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let seed = s.seed;
    let ok = match s.workload.as_str() {
        "ooc-heat" => bench(&s, || heat::Heat::ooc(seed)),
        "fused-heat" => bench(&s, || heat::Heat::fused(seed)),
        "cluster-halo" => bench(&s, || cluster_halo::ClusterHalo::new(seed)),
        "serving-flood" => bench(&s, || serving_flood::ServingFlood::new(seed)),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if !ok {
        std::process::exit(1);
    }
}
