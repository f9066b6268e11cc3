//! The two single-device heat workloads on `TileAcc`.
//!
//! * `ooc-heat` is the simspeed paper row: 7-point heat 128³, 24 steps,
//!   8 regions × 2 arrays on 7 device slots, `ReuseDistance` with
//!   lookahead-2 prefetch, timing-only slabs. The cache list, planner,
//!   copy engines and scheduler do the work; kernels never run.
//! * `fused-heat` is the temporal bench's regime with real data: heat 64³,
//!   24 steps, 8 regions × 2 arrays on 4 slots, `compute_fused` at the
//!   depth the temporal probe rule picks.

use crate::span::span;
use crate::workload::{
    cache_layers, crit_ms, engine_layers, first_difference, kernel_effect, x4_machine, Layers, Sim,
    Verdict, Workload,
};
use gpu_sim::{GpuSystem, TraceLevel};
use kernels::heat;
use std::sync::Arc;
use tida::{
    tiles_of, with_dst_src, Decomposition, Domain, ExchangeMode, Layout, RegionSpec, Tile,
    TileArray, TileSpec,
};
use tida_acc::{AccError, AccOptions, AccStats, ArrayId, SlotPolicy, TileAcc};

/// Hash seed of the shared heat initial condition
/// (`baselines::heat::heat_init`); workload seed 0 reproduces it.
const FIELD_HASH_SEED: u64 = 11;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeatShape {
    pub n: i64,
    pub steps: usize,
    pub regions: usize,
    pub slots: usize,
    pub lookahead: usize,
}

pub const OOC_HEAT: HeatShape = HeatShape {
    n: 128,
    steps: 24,
    regions: 8,
    slots: 7,
    lookahead: 2,
};

pub const FUSED_HEAT: HeatShape = HeatShape {
    n: 48,
    steps: 4,
    regions: 8,
    slots: 4,
    lookahead: 2,
};

/// How a run issues its kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `compute2` over region-sized tiles, one time step per residency.
    Tiles,
    /// `compute_fused` per region at the given depth.
    Fused(usize),
}

impl Path {
    fn depth(self) -> usize {
        match self {
            Path::Tiles => 1,
            Path::Fused(k) => k,
        }
    }
}

/// The simulated outcome every run of a shape must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    pub makespan_ns: u64,
    pub stats: AccStats,
    pub decisions: u64,
    pub ops: u64,
}

pub struct HeatOutcome {
    pub acc: TileAcc,
    /// The array holding the final field.
    pub result: TileArray,
    pub error: Option<AccError>,
    pub sim: SimOutcome,
}

/// The dense initial field of workload seed `seed` over `decomp`'s domain.
pub fn seeded_field(decomp: &Decomposition, seed: u64) -> Vec<f64> {
    let f = kernels::init::hash_field(FIELD_HASH_SEED.wrapping_add(seed));
    let l = Layout::new(decomp.domain().bx);
    (0..l.len()).map(|o| f(l.cell_at(o))).collect()
}

/// Host-only reference: `steps` heat steps with `kernels::heat::step_tile`
/// over the regions of `decomp`, ghosts exchanged on the host.
pub fn host_reference(decomp: &Arc<Decomposition>, field: &[f64], steps: usize) -> Vec<f64> {
    let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
    let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
    ua.from_dense(field);
    let (mut src, mut dst) = (&ua, &ub);
    for _ in 0..steps {
        src.fill_boundary();
        for r in 0..decomp.num_regions() {
            let (d, s) = (dst.region(r), src.region(r));
            with_dst_src((&d.slab, d.layout), (&s.slab, s.layout), |mut dv, sv| {
                heat::step_tile(&mut dv, &sv, &d.valid, heat::DEFAULT_FAC)
            });
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src.to_dense().expect("reference arrays are backed")
}

/// One run with a cold runtime: fresh arrays (filled from `field` when
/// backed), a fresh device and cache list.
pub fn heat_run(
    shape: HeatShape,
    decomp: &Arc<Decomposition>,
    tiles: &[Tile],
    path: Path,
    field: Option<&[f64]>,
    level: TraceLevel,
) -> HeatOutcome {
    let depth = path.depth();
    let mode = if depth == 1 {
        ExchangeMode::Faces
    } else {
        ExchangeMode::Full
    };
    let backed = field.is_some();
    let (ua, ub) = span("tida.build", || {
        let ua = TileArray::new(decomp.clone(), depth as i64, mode, backed);
        let ub = TileArray::new(decomp.clone(), depth as i64, mode, backed);
        if let Some(f) = field {
            ua.from_dense(f);
        }
        (ua, ub)
    });
    let mut gpu = GpuSystem::with_backing(x4_machine(), backed);
    gpu.set_trace_level(level);
    let mut opts = AccOptions::paper()
        .with_policy(SlotPolicy::ReuseDistance)
        .with_lookahead(shape.lookahead);
    opts.max_slots = Some(shape.slots);
    let mut acc = TileAcc::new(gpu, opts);
    let a = span("tida-acc.register", || acc.register(&ua));
    let b = span("tida-acc.register", || acc.register(&ub));
    let (result, error) = match drive(&mut acc, shape, decomp, tiles, path, a, b) {
        Ok(r) => (r, None),
        Err(e) => (a, Some(e)),
    };
    let makespan = span("gpu-sim.finish", || acc.gpu_mut().finish());
    let sim = SimOutcome {
        makespan_ns: makespan.as_ns(),
        stats: acc.stats(),
        decisions: acc.gpu().decision_points(),
        ops: acc.gpu().ops_executed(),
    };
    HeatOutcome {
        acc,
        result: if result == a { ua } else { ub },
        error,
        sim,
    }
}

/// The kernel closure handed to the runtime: one heat step over `bx`.
fn heat_effect(d: &mut tida::ViewMut<'_>, s: &tida::View<'_>, bx: tida::Box3) {
    kernel_effect(bx.num_cells(), || {
        heat::step_tile(d, s, &bx, heat::DEFAULT_FAC)
    })
}

/// The time loop and final host sync; returns the array holding the result.
fn drive(
    acc: &mut TileAcc,
    shape: HeatShape,
    decomp: &Decomposition,
    tiles: &[Tile],
    path: Path,
    a: ArrayId,
    b: ArrayId,
) -> Result<ArrayId, AccError> {
    let (mut src, mut dst) = (a, b);
    for _ in 0..shape.steps / path.depth() {
        span("tida-acc.begin_step", || acc.begin_step())?;
        span("tida-acc.fill_boundary", || acc.fill_boundary(src))?;
        match path {
            Path::Tiles => {
                for &t in tiles {
                    let cost = heat::cost(t.num_cells());
                    span("tida-acc.compute2", || {
                        acc.compute2(t, dst, src, cost, "heat", heat_effect)
                    })?;
                }
            }
            Path::Fused(k) => {
                for r in 0..decomp.num_regions() {
                    let cost = heat::fused_cost(k, &decomp.region_box(r));
                    span("tida-acc.compute_fused", || {
                        acc.compute_fused(r, dst, src, k, cost, "heat-fused", heat_effect)
                    })?;
                }
            }
        }
        if path.depth() % 2 == 1 {
            std::mem::swap(&mut src, &mut dst);
        }
    }
    span("tida-acc.sync_to_host", || acc.sync_to_host(src))?;
    Ok(src)
}

/// A heat workload: its generated inputs and the verified outcome.
pub struct Heat {
    shape: HeatShape,
    path: Path,
    seed: u64,
    decomp: Arc<Decomposition>,
    tiles: Vec<Tile>,
    /// Initial field of the timed runs; `None` runs them timing-only.
    field: Option<Vec<f64>>,
    expected: Option<SimOutcome>,
    verified_field: Option<Vec<f64>>,
}

fn decomposition(shape: HeatShape) -> (Arc<Decomposition>, Vec<Tile>) {
    span("tida.build", || {
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(shape.n),
            RegionSpec::Count(shape.regions),
        ));
        let tiles = tiles_of(&decomp, TileSpec::RegionSized);
        (decomp, tiles)
    })
}

impl Heat {
    /// `ooc-heat`: timing-only runs of the tiled path.
    pub fn ooc(seed: u64) -> Heat {
        let (decomp, tiles) = decomposition(OOC_HEAT);
        Heat {
            shape: OOC_HEAT,
            path: Path::Tiles,
            seed,
            decomp,
            tiles,
            field: None,
            expected: None,
            verified_field: None,
        }
    }

    /// `fused-heat`: backed runs of the fused path at the probed depth.
    pub fn fused(seed: u64) -> Heat {
        let shape = FUSED_HEAT;
        let (decomp, tiles) = decomposition(shape);
        let field = seeded_field(&decomp, seed);
        let depth = probe_depth(shape, &decomp, &tiles);
        Heat {
            shape,
            path: Path::Fused(depth),
            seed,
            decomp,
            tiles,
            field: Some(field),
            expected: None,
            verified_field: None,
        }
    }
}

/// The temporal bench's depth rule: a depth-1 probe measures the
/// transfer/compute critical-path split, and
/// `tida_acc::recommend_fusion_depth` turns it into a depth capped by the
/// halo limit and the step count's divisors.
pub fn probe_depth(shape: HeatShape, decomp: &Arc<Decomposition>, tiles: &[Tile]) -> usize {
    let mut probe = heat_run(shape, decomp, tiles, Path::Fused(1), None, TraceLevel::Full);
    let report = probe.acc.report();
    let crit = |cat: &str| crit_ms(&report, cat);
    let mut cap = (decomp.max_ghost_depth() as usize).min(shape.steps);
    while cap > 1 && !shape.steps.is_multiple_of(cap) {
        cap -= 1;
    }
    tida_acc::recommend_fusion_depth(crit("h2d") + crit("d2h"), crit("kernel"), cap)
}

impl Workload for Heat {
    type Outcome = HeatOutcome;

    fn verify(&mut self) -> Result<(), String> {
        let field = match &self.field {
            Some(f) => f.clone(),
            None => seeded_field(&self.decomp, self.seed),
        };
        let (shape, path) = (self.shape, self.path);
        let o = heat_run(
            shape,
            &self.decomp,
            &self.tiles,
            path,
            Some(&field),
            TraceLevel::Off,
        );
        if let Some(e) = &o.error {
            return Err(format!("verification run failed: {e}"));
        }
        if o.sim.stats.hazards != 0 || o.sim.stats.integrity_detected != 0 {
            return Err(format!("verification run is not clean: {}", o.sim.stats));
        }
        let got = o.result.to_dense().expect("verification arrays are backed");
        let want = host_reference(&self.decomp, &field, shape.steps);
        if let Some(i) = first_difference(&got, &want) {
            return Err(format!(
                "device result differs from the host reference at cell {i}: {} != {}",
                got.get(i).copied().unwrap_or(f64::NAN),
                want.get(i).copied().unwrap_or(f64::NAN)
            ));
        }
        self.expected = Some(o.sim);
        self.verified_field = self.field.is_some().then_some(got);
        Ok(())
    }

    fn run(&mut self, traced: bool) -> HeatOutcome {
        let level = if traced {
            TraceLevel::Full
        } else {
            TraceLevel::Off
        };
        heat_run(
            self.shape,
            &self.decomp,
            &self.tiles,
            self.path,
            self.field.as_deref(),
            level,
        )
    }

    fn check(&self, o: &HeatOutcome) -> Verdict {
        let mut problems = Vec::new();
        if let Some(e) = &o.error {
            problems.push(format!("run failed: {e}"));
        }
        if o.sim.stats.hazards != 0 {
            problems.push(format!("{} stream-ordering hazards", o.sim.stats.hazards));
        }
        let expected = self.expected.as_ref().expect("verify() runs first");
        if &o.sim != expected {
            problems.push(format!(
                "simulated outcome differs from the verified pass: {:?} != {expected:?}",
                o.sim
            ));
        }
        if let Some(want) = &self.verified_field {
            let got = o.result.to_dense().unwrap_or_default();
            if let Some(i) = first_difference(&got, want) {
                problems.push(format!("result differs from the verified pass at cell {i}"));
            }
        }
        Verdict::single(problems, Sim::single_job(o.sim.makespan_ns))
    }

    fn layers(&self, o: &mut HeatOutcome, out: &mut Layers) {
        let report = o.acc.report();
        engine_layers(std::slice::from_ref(&report), &report, out);
        cache_layers(&o.sim.stats, out);
        let gpu = o.acc.gpu();
        out.insert("desim.decisions", o.sim.decisions as f64);
        out.insert("gpu-sim.ops", o.sim.ops as f64);
        out.insert("tida-acc.fusion_depth", self.path.depth() as f64);
        out.insert("gpu-sim.h2d_mb", gpu.stats_bytes_h2d() as f64 / 1e6);
        out.insert("gpu-sim.d2h_mb", gpu.stats_bytes_d2h() as f64 / 1e6);
        out.insert("gpu-sim.kernels", gpu.stats_kernels() as f64);
        out.insert(
            "gpu-sim.integrity_verified",
            gpu.integrity_stats().verified as f64,
        );
        out.insert(
            "serving.cross_tenant_touches",
            gpu.cross_tenant_touches() as f64,
        );
    }
}
