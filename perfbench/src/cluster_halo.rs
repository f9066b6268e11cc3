//! `cluster-halo`: the committed strong-scaling sweep's 8-node point.
//!
//! Heat 64³ cut into 32 thin z-slabs over 8 simulated nodes joined by a
//! 1 GB/s fabric, 4 steps, timing-only. Per-node PCIe staging, ghost-face
//! launch overhead and the constrained fabric are all on the critical
//! path; the cache list and planner are bypassed.

use crate::heat::{host_reference, seeded_field};
use crate::span::span;
use crate::workload::{
    cache_layers, engine_layers, first_difference, kernel_effect, Layers, Sim, Verdict, Workload,
};
use cluster::{Cluster, ClusterConfig, ClusterError, NetConfig};
use gpu_sim::{FaultPlan, TraceLevel};
use kernels::heat;
use std::sync::Arc;
use tida::{Decomposition, Domain, ExchangeMode, RegionSpec, TileArray};
use tida_acc::AccStats;

pub const EDGE: i64 = 64;
pub const REGIONS: usize = 32;
pub const NODES: usize = 8;
pub const STEPS: usize = 4;
/// Inter-node fabric bandwidth, bytes per µs (1 GB/s).
pub const FABRIC_BYTES_PER_US: u64 = 1_000;

/// The simulated outcome every run must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSim {
    pub makespan_ns: u64,
    pub stats: AccStats,
    pub decisions: u64,
    pub ops: u64,
    pub hazards: u64,
    pub msgs_inter: u64,
    pub msgs_local: u64,
    pub bytes_net: u64,
    pub bytes_pcie: u64,
}

pub struct ClusterOutcome {
    pub cluster: Cluster,
    pub result: TileArray,
    pub error: Option<ClusterError>,
    pub sim: ClusterSim,
}

fn heat_effect(
    d: &mut tida::ViewMut<'_>,
    s: &tida::View<'_>,
    _aux: Option<&tida::View<'_>>,
    bx: tida::Box3,
) {
    kernel_effect(bx.num_cells(), || {
        heat::step_tile(d, s, &bx, heat::DEFAULT_FAC)
    })
}

/// One run on a cold cluster. `field` makes it backed and synced back to
/// the host after the simulated outcome is taken.
pub fn cluster_run(
    decomp: &Arc<Decomposition>,
    field: Option<&[f64]>,
    level: TraceLevel,
) -> ClusterOutcome {
    let backed = field.is_some();
    let (ua, ub) = span("tida.build", || {
        let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, backed);
        let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, backed);
        if let Some(f) = field {
            ua.from_dense(f);
        }
        (ua, ub)
    });
    let mut cl = Cluster::new(
        ClusterConfig::new(NODES)
            .net(NetConfig::default().constrained(FABRIC_BYTES_PER_US))
            .fault(FaultPlan::none())
            .backed(backed),
    );
    for n in 0..NODES {
        cl.node_mut(n).set_trace_level(level);
    }
    let a = span("cluster.register", || cl.register(&ua));
    let b = span("cluster.register", || cl.register(&ub));
    let (mut src, mut dst) = (a, b);
    let mut error = None;
    for _ in 0..STEPS {
        let step = span("cluster.step", || {
            cl.step(dst, src, None, heat::cost, "heat", heat_effect)
        });
        if let Err(e) = step {
            error = Some(e);
            break;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    let makespan = span("gpu-sim.finish", || cl.finish());
    let ns = cl.net_stats();
    let sim = ClusterSim {
        makespan_ns: makespan.as_ns(),
        stats: cl.stats(),
        decisions: (0..NODES).map(|n| cl.node(n).decision_points()).sum(),
        ops: (0..NODES).map(|n| cl.node(n).ops_executed()).sum(),
        hazards: cl.hazard_total(),
        msgs_inter: ns.msgs_inter,
        msgs_local: ns.msgs_local,
        bytes_net: cl.bytes_net(),
        bytes_pcie: cl.bytes_h2d() + cl.bytes_d2h(),
    };
    if backed && error.is_none() {
        error = cl.sync_to_host(src).err();
    }
    ClusterOutcome {
        cluster: cl,
        result: if src == a { ua } else { ub },
        error,
        sim,
    }
}

pub struct ClusterHalo {
    seed: u64,
    decomp: Arc<Decomposition>,
    expected: Option<ClusterSim>,
}

impl ClusterHalo {
    pub fn new(seed: u64) -> ClusterHalo {
        let decomp = span("tida.build", || {
            Arc::new(Decomposition::new(
                Domain::periodic_cube(EDGE),
                RegionSpec::Count(REGIONS),
            ))
        });
        ClusterHalo {
            seed,
            decomp,
            expected: None,
        }
    }
}

impl Workload for ClusterHalo {
    type Outcome = ClusterOutcome;

    fn verify(&mut self) -> Result<(), String> {
        let field = seeded_field(&self.decomp, self.seed);
        let o = cluster_run(&self.decomp, Some(&field), TraceLevel::Off);
        if let Some(e) = &o.error {
            return Err(format!("verification run failed: {e}"));
        }
        if o.sim.hazards != 0 || o.cluster.integrity_detected() != 0 {
            return Err("verification run is not clean".to_string());
        }
        let got = o.result.to_dense().expect("verification arrays are backed");
        let want = host_reference(&self.decomp, &field, STEPS);
        if let Some(i) = first_difference(&got, &want) {
            return Err(format!(
                "cluster result differs from the host reference at cell {i}"
            ));
        }
        self.expected = Some(o.sim);
        Ok(())
    }

    fn run(&mut self, traced: bool) -> ClusterOutcome {
        let level = if traced {
            TraceLevel::Full
        } else {
            TraceLevel::Off
        };
        cluster_run(&self.decomp, None, level)
    }

    fn check(&self, o: &ClusterOutcome) -> Verdict {
        let mut problems = Vec::new();
        if let Some(e) = &o.error {
            problems.push(format!("run failed: {e}"));
        }
        if o.sim.hazards != 0 {
            problems.push(format!("{} stream-ordering hazards", o.sim.hazards));
        }
        let expected = self.expected.as_ref().expect("verify() runs first");
        if &o.sim != expected {
            problems.push(format!(
                "simulated outcome differs from the verified pass: {:?} != {expected:?}",
                o.sim
            ));
        }
        Verdict::single(problems, Sim::single_job(o.sim.makespan_ns))
    }

    fn layers(&self, o: &mut ClusterOutcome, out: &mut Layers) {
        let cl = &mut o.cluster;
        // Busy times add up over nodes; the critical path is the one of
        // the node that finishes last.
        let reports: Vec<_> = (0..NODES).map(|n| cl.node_mut(n).report()).collect();
        let last = reports
            .iter()
            .max_by_key(|r| r.elapsed)
            .expect("at least one node");
        engine_layers(&reports, last, out);
        cache_layers(&o.sim.stats, out);
        let ns = cl.net_stats();
        out.insert("desim.decisions", o.sim.decisions as f64);
        out.insert("gpu-sim.ops", o.sim.ops as f64);
        out.insert("tida-acc.fusion_depth", 1.0);
        out.insert("gpu-sim.h2d_mb", cl.bytes_h2d() as f64 / 1e6);
        out.insert("gpu-sim.d2h_mb", cl.bytes_d2h() as f64 / 1e6);
        out.insert("gpu-sim.kernels", cl.kernels_launched() as f64);
        out.insert("gpu-sim.hazards", o.sim.hazards as f64);
        out.insert("cluster.pcie_mb", o.sim.bytes_pcie as f64 / 1e6);
        out.insert("net.msgs_inter", ns.msgs_inter as f64);
        out.insert("net.msgs_local", ns.msgs_local as f64);
        out.insert("net.inter_mb", ns.bytes_inter as f64 / 1e6);
        out.insert("net.drops", ns.drops as f64);
        out.insert(
            "gpu-sim.integrity_verified",
            (0..NODES)
                .map(|n| cl.node(n).integrity_stats().verified)
                .sum::<u64>() as f64,
        );
    }
}
