//! Every metric the benchmark prints, with its unit, in the order of
//! `BENCHMARK.json`. Units say the kind: `ms` and `s` are host wall time,
//! `sim_ms` and `jobs/sim_s` are simulated time on the modelled K40m +
//! PCIe system, `MB` are 10^6 bytes.

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_run_ms.p50", "ms"),
    ("host_run_ms.tail", "ms"),
    ("heap_peak_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("sim_makespan_ms", "sim_ms"),
    ("sim_jobs_per_s", "jobs/sim_s"),
    ("sim_job_latency_ms.p50", "sim_ms"),
    ("sim_job_latency_ms.p99", "sim_ms"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("desim.decisions", "count"),
    ("desim.ns_per_decision", "ns"),
    ("gpu-sim.ops", "count"),
    ("alloc.count", "count"),
    ("alloc.mb", "MB"),
    ("tida.build_ms", "ms"),
    ("tida-acc.step_ms", "ms"),
    ("tida-acc.sync_ms", "ms"),
    ("tida-acc.loads", "count"),
    ("tida-acc.evictions", "count"),
    ("tida-acc.hit_ratio", "ratio"),
    ("tida-acc.prefetch_accuracy", "ratio"),
    ("tida-acc.ghost_gpu", "count"),
    ("tida-acc.ghost_host", "count"),
    ("tida-acc.fusion_depth", "count"),
    ("tida-acc.fused_substeps", "count"),
    ("gpu-sim.h2d_mb", "MB"),
    ("gpu-sim.d2h_mb", "MB"),
    ("gpu-sim.h2d_busy_ms", "sim_ms"),
    ("gpu-sim.d2h_busy_ms", "sim_ms"),
    ("gpu-sim.compute_busy_ms", "sim_ms"),
    ("gpu-sim.h2d_overlap", "ratio"),
    ("gpu-sim.crit_h2d_ms", "sim_ms"),
    ("gpu-sim.crit_d2h_ms", "sim_ms"),
    ("gpu-sim.crit_kernel_ms", "sim_ms"),
    ("gpu-sim.crit_host_ms", "sim_ms"),
    ("gpu-sim.crit_net_ms", "sim_ms"),
    ("gpu-sim.kernels", "count"),
    ("gpu-sim.integrity_verified", "count"),
    ("gpu-sim.hazards", "count"),
    ("gpu-sim.xfer_faults", "count"),
    ("kernels.effect_ms", "ms"),
    ("kernels.cell_updates", "count"),
    ("kernels.ns_per_cell", "ns"),
    ("cluster.step_ms", "ms"),
    ("cluster.pcie_mb", "MB"),
    ("net.msgs_inter", "count"),
    ("net.msgs_local", "count"),
    ("net.inter_mb", "MB"),
    ("net.nic_busy_ms", "sim_ms"),
    ("net.drops", "count"),
    ("serving.submit_ms", "ms"),
    ("serving.serve_ms", "ms"),
    ("serving.queue_wait_ms.p50", "sim_ms"),
    ("serving.queue_wait_ms.p99", "sim_ms"),
    ("serving.service_ms.p50", "sim_ms"),
    ("serving.retries", "count"),
    ("serving.preemptions", "count"),
    ("serving.shed", "count"),
    ("serving.goodput_ratio", "ratio"),
    ("serving.cross_tenant_touches", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("host.calibration_ms", "ms"),
    ("host.nproc", "count"),
];

/// Unit of a metric listed above.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(v: &serde_json::Value, key: &str) -> Vec<(String, String)> {
        v[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    }

    fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn lists_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let v: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&v, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(&v, "per_layer"), own(PER_LAYER));
    }
}
