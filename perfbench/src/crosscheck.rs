//! Cross-checks: at the shapes the committed benches share with this one,
//! the simulated metrics equal the committed results
//! (`results/BENCH_simspeed.txt`, `BENCH_cluster_baseline.txt`,
//! `BENCH_serving_baseline.txt`, `BENCH_temporal_baseline.txt`).

use crate::cluster_halo::{cluster_run, EDGE, REGIONS};
use crate::heat::{heat_run, probe_depth, Heat, HeatShape, Path, OOC_HEAT};
use crate::serving_flood::{job_list, ServingFlood, JOBS, TENANTS};
use crate::workload::Workload;
use gpu_sim::TraceLevel;
use std::sync::Arc;
use tida::{tiles_of, Decomposition, Domain, RegionSpec, TileSpec};

fn ms3(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn inputs(shape: HeatShape) -> (Arc<Decomposition>, Vec<tida::Tile>) {
    let decomp = Arc::new(Decomposition::new(
        Domain::periodic_cube(shape.n),
        RegionSpec::Count(shape.regions),
    ));
    let tiles = tiles_of(&decomp, TileSpec::RegionSized);
    (decomp, tiles)
}

#[test]
fn ooc_heat_matches_the_simspeed_row() {
    let (decomp, tiles) = inputs(OOC_HEAT);
    let o = heat_run(
        OOC_HEAT,
        &decomp,
        &tiles,
        Path::Tiles,
        None,
        TraceLevel::Off,
    );
    assert!(o.error.is_none());
    assert_eq!(ms3(o.sim.makespan_ns), "258.734");
    assert_eq!((o.sim.decisions, o.sim.ops), (2684, 4021));
}

#[test]
fn ooc_heat_verified_pass_fixes_the_timed_outcome() {
    let mut w = Heat::ooc(3);
    w.verify().expect("backed run equals the host reference");
    let o = w.run(false);
    let v = w.check(&o);
    assert_eq!((v.attempts, v.failures), (1, 0), "{:?}", v.problems);
}

#[test]
fn fused_path_matches_the_temporal_baseline() {
    // The temporal bench's quick shape: the probe picks depth 8 and the
    // fused run takes 24.912 ms, staging 49152000 B host-to-device.
    let shape = HeatShape {
        n: 64,
        steps: 24,
        regions: 8,
        slots: 4,
        lookahead: 2,
    };
    let (decomp, tiles) = inputs(shape);
    let k = probe_depth(shape, &decomp, &tiles);
    assert_eq!(k, 8);
    let o = heat_run(
        shape,
        &decomp,
        &tiles,
        Path::Fused(k),
        None,
        TraceLevel::Off,
    );
    assert_eq!(ms3(o.sim.makespan_ns), "24.912");
    assert_eq!(o.acc.gpu().stats_bytes_h2d(), 49_152_000);
}

#[test]
fn cluster_halo_matches_the_strong_sweep_at_8_nodes() {
    let decomp = Arc::new(Decomposition::new(
        Domain::periodic_cube(EDGE),
        RegionSpec::Count(REGIONS),
    ));
    let o = cluster_run(&decomp, None, TraceLevel::Off);
    assert!(o.error.is_none());
    assert_eq!(ms3(o.sim.makespan_ns), "0.666");
    assert_eq!((o.sim.msgs_inter, o.sim.msgs_local), (64, 704));
    assert_eq!(o.sim.bytes_net, 8_912_896);
    assert_eq!(o.sim.bytes_pcie, 35_684_352);
}

#[test]
fn serving_flood_matches_the_faulted_serving_row() {
    let mut w = ServingFlood::new(0);
    w.verify().expect("every job golden");
    let o = w.run(false);
    let v = w.check(&o);
    assert_eq!((v.attempts, v.failures), (1000, 0), "{:?}", v.problems);
    assert_eq!(format!("{:.1}", v.sim.jobs_per_s), "29168.4");
    assert_eq!(format!("{:.3}", v.sim.job_latency_p50_ms), "17.088");
    assert_eq!(format!("{:.3}", v.sim.job_latency_p99_ms), "33.991");
    let fs = o.rt.fault_stats();
    assert_eq!(fs.h2d_faults + fs.d2h_faults, 123);
}

#[test]
fn job_list_seed_zero_is_the_serving_bench_mix() {
    let jobs = job_list(0);
    assert_eq!(jobs.len(), JOBS);
    for (i, j) in jobs.iter().enumerate() {
        let (regions, len, steps) = [(1, 64, 2), (2, 512, 4), (1, 4096, 8)][i % 3];
        let want =
            serving::JobSpec::new(i as u32 % TENANTS, regions, len, steps, 0x5e21 + i as u64);
        assert_eq!(j.golden_digest(), want.golden_digest(), "job {i}");
        assert_eq!(j.bytes(), want.bytes(), "job {i}");
    }
    // Another seed reorders the sizes but keeps the mix.
    let bytes = |jobs: &[serving::JobSpec]| {
        let mut b: Vec<u64> = jobs.iter().map(|j| j.bytes()).collect();
        b.sort_unstable();
        b
    };
    let other = job_list(5);
    assert_eq!(bytes(&other), bytes(&jobs));
    assert_ne!(
        other.iter().map(|j| j.bytes()).collect::<Vec<_>>(),
        jobs.iter().map(|j| j.bytes()).collect::<Vec<_>>()
    );
}
