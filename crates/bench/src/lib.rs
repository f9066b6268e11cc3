//! `tida-bench` — the evaluation harness.
//!
//! [`experiments`] regenerates every figure of the paper's evaluation
//! (Figs. 1, 5, 6, 7, 8) plus the ablations listed in DESIGN.md;
//! [`report`] renders them as tables and bar charts. The `figures` binary is
//! the command-line front end; the Criterion benches under `benches/` wrap
//! the same runners.

pub mod cluster;
pub mod experiments;
pub mod report;
pub mod serving;
pub mod simspeed;

/// The argument following `flag` on a command line (`--json out.json`
/// yields `out.json`).
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// With `--json PATH`, write `bench` as pretty JSON to `PATH` and the
/// rendered `text` beside it as `PATH` minus `.json` plus `.txt`.
pub fn write_outputs(args: &[String], bench: &impl serde::Serialize, text: &str) {
    if let Some(path) = flag_value(args, "--json") {
        let json = serde_json::to_string_pretty(bench).expect("serialize bench");
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        let txt_path = format!("{}.txt", path.trim_end_matches(".json"));
        std::fs::write(&txt_path, text).unwrap_or_else(|e| panic!("cannot write {txt_path}: {e}"));
        eprintln!("wrote {path} and {txt_path}");
    }
}

/// A committed `--check` baseline, parsed as untyped JSON.
pub fn read_baseline(path: &str) -> serde_json::Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("baseline {path} is not JSON: {e}"))
}
