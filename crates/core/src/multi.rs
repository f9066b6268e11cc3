//! Multi-GPU extension: regions distributed across devices.
//!
//! The paper's related work points at multi-GPU systems (dCUDA, XACC) and
//! its model extends naturally: regions are already the unit of transfer
//! and execution, so distributing them over several devices only adds one
//! mechanism — cross-device halo exchange. [`MultiAcc`] implements the
//! standard pack / peer-copy / unpack pipeline for ghost patches whose
//! source and destination regions live on different GPUs:
//!
//! 1. a *pack* kernel on the source device gathers the patch's source cells
//!    into a contiguous staging buffer,
//! 2. a peer copy (`cudaMemcpyPeerAsync`) moves the staging buffer to the
//!    destination device,
//! 3. an *unpack* kernel scatters it into the destination region's ghosts.
//!
//! Each region gets its own stream on its owner device, so kernels and halo
//! traffic pipeline exactly as in the single-GPU runtime. Unlike
//! [`crate::TileAcc`], `MultiAcc` keeps every region resident on its owner
//! (the point of multiple GPUs is aggregate memory); combining distribution
//! with slot staging is future work.

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::error::{AccError, IntegrityKind};
use crate::health::HealthMonitor;
use crate::options::{RetryPolicy, TransferFailure};
use crate::recovery::RecoveryError;
use crate::stats::AccStats;
use crate::tileacc::ArrayId;
use gpu_sim::{
    DeviceBuffer, GpuSystem, HostBuffer, HostMemKind, KernelCost, KernelLaunch, SimTime, StreamId,
};
use std::sync::Arc;
use tida::{with_dst_src, with_view_mut, Box3, GhostPatch, Tile, TileArray};

/// One array registered with a runtime that keeps every region on an owner
/// device ([`MultiAcc`], the cluster layer). Vectors are indexed by region.
pub struct OwnedArray {
    pub array: TileArray,
    /// Host buffer handle per region on its owner's platform.
    pub host: Vec<HostBuffer>,
    /// Device buffer per region on its owner device.
    pub dev: Vec<DeviceBuffer>,
    pub resident: Vec<bool>,
    pub dirty: Vec<bool>,
}

impl OwnedArray {
    /// Append `array` (with its per-region `host` handles, possibly empty
    /// until placement) to `arrays`. All registered arrays must share one
    /// decomposition.
    pub fn register(
        arrays: &mut Vec<OwnedArray>,
        array: &TileArray,
        host: Vec<HostBuffer>,
    ) -> ArrayId {
        if let Some(first) = arrays.first() {
            assert!(
                Arc::ptr_eq(first.array.decomp(), array.decomp()),
                "all registered arrays must share one decomposition"
            );
        }
        arrays.push(OwnedArray {
            array: array.clone(),
            host,
            dev: Vec::new(),
            resident: Vec::new(),
            dirty: Vec::new(),
        });
        ArrayId(arrays.len() - 1)
    }

    /// Regions of the shared decomposition (panics before registration).
    pub fn num_regions(arrays: &[OwnedArray]) -> usize {
        let first = arrays.first().expect("no arrays");
        first.array.decomp().num_regions()
    }

    /// Drop every region's residency: the host copies are authoritative.
    pub fn drop_residency(&mut self) {
        self.resident.fill(false);
        self.dirty.fill(false);
    }
}

/// Per-cross-device-patch staging buffers (source-side and destination-side).
#[derive(Clone, Copy)]
struct PatchStaging {
    src_stage: DeviceBuffer,
    dst_stage: DeviceBuffer,
}

/// The multi-GPU runtime. See the module docs.
pub struct MultiAcc {
    gpu: GpuSystem,
    arrays: Vec<OwnedArray>,
    /// Owner device per region (contiguous blocks).
    owner: Vec<usize>,
    /// One stream per region, on its owner device.
    streams: Vec<StreamId>,
    kernel_efficiency: f64,
    initialized: bool,
    /// Staging-buffer cache for cross-device patches, keyed by patch
    /// geometry.
    staging_keys: Vec<(usize, usize, Box3)>,
    staging: Vec<PatchStaging>,
    /// Retry budget for injected transient transfer faults. `MultiAcc`
    /// keeps every region device-resident, so it has no host-fallback path:
    /// exhausting the budget surfaces [`AccError::TransferExhausted`].
    retry: RetryPolicy,
    /// Per-device health scores fed by the retry loops; quarantined devices
    /// are skipped when migration picks new owners.
    health: HealthMonitor,
    stats: AccStats,
}

impl MultiAcc {
    /// Wrap a multi-device platform (see [`GpuSystem::multi`]).
    pub fn new(gpu: GpuSystem) -> Self {
        let health = HealthMonitor::with_defaults(gpu.num_devices());
        MultiAcc {
            gpu,
            arrays: Vec::new(),
            owner: Vec::new(),
            streams: Vec::new(),
            kernel_efficiency: 0.95,
            initialized: false,
            staging_keys: Vec::new(),
            staging: Vec::new(),
            // Historical budget: 8 retries, 20 µs base backoff doubling per
            // attempt — now expressed through the shared policy.
            retry: RetryPolicy::new(8, SimTime::from_us(20)),
            health,
            stats: AccStats::default(),
        }
    }

    /// Override the transfer retry budget (see [`RetryPolicy`]).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Register an array (all arrays must share one decomposition).
    pub fn register(&mut self, array: &TileArray) -> ArrayId {
        assert!(!self.initialized, "register arrays before first use");
        let host: Vec<HostBuffer> = array
            .regions()
            .iter()
            .map(|r| {
                self.gpu
                    .adopt_host_slab(r.slab.clone(), HostMemKind::Pinned)
            })
            .collect();
        OwnedArray::register(&mut self.arrays, array, host)
    }

    /// Device owning a region.
    pub fn owner(&self, region: usize) -> usize {
        self.owner[region]
    }

    pub fn gpu(&self) -> &GpuSystem {
        &self.gpu
    }

    pub fn gpu_mut(&mut self) -> &mut GpuSystem {
        &mut self.gpu
    }

    pub fn finish(&mut self) -> SimTime {
        self.gpu.finish()
    }

    /// Post-run report (API parity with [`crate::TileAcc::report`]).
    /// `MultiAcc` keeps every region resident on its owner, so the
    /// prefetch/overlap-scheduler counters are always zero here. Health
    /// transitions (quarantine/readmission/device loss) and migration
    /// accounting are merged in from this runtime's monitor.
    pub fn report(&mut self) -> gpu_sim::RunReport {
        let mut h = self.health.counters();
        h.regions_migrated += self.stats.regions_migrated;
        h.migration_restage_bytes += self.stats.migration_restage_bytes;
        self.gpu.report().with_health(h)
    }

    /// Runtime counters (API parity with [`crate::TileAcc::stats`]).
    pub fn stats(&self) -> AccStats {
        self.stats
    }

    /// The per-device health monitor feeding quarantine decisions.
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    fn num_regions(&self) -> usize {
        OwnedArray::num_regions(&self.arrays)
    }

    /// Fail fast when the simulated platform has crashed (see
    /// [`crate::TileAcc`]'s equivalent): everything submitted after a crash
    /// is refused, and device-resident data is lost.
    fn check_alive(&self) -> Result<(), AccError> {
        if self.gpu.crashed() {
            Err(AccError::Crashed)
        } else {
            Ok(())
        }
    }

    /// Fail fast when the platform crashed *or* the owner device of region
    /// `r` was lost: either way nothing submitted toward it will complete,
    /// but a device loss is survivable — the caller can
    /// [`failover`](MultiAcc::failover) onto the survivors.
    fn check_region(&self, r: usize) -> Result<(), AccError> {
        self.check_alive()?;
        let device = self.owner[r];
        if self.gpu.device_lost(device) {
            Err(AccError::DeviceLost { device })
        } else {
            Ok(())
        }
    }

    /// Allocate device buffers and streams: region `r` goes to device
    /// `r * D / R` (contiguous blocks minimize cross-device faces for slab
    /// decompositions).
    fn ensure_init(&mut self) -> Result<(), AccError> {
        if self.initialized {
            return Ok(());
        }
        let regions = self.num_regions();
        let devices = self.gpu.num_devices();
        self.owner = (0..regions).map(|r| r * devices / regions).collect();
        self.streams = self
            .owner
            .iter()
            .map(|&d| self.gpu.create_stream_on(d))
            .collect();
        for ai in 0..self.arrays.len() {
            for r in 0..regions {
                let len = self.arrays[ai].array.region(r).slab.len();
                let dev = self.gpu.malloc_device_on(self.owner[r], len).map_err(|_| {
                    AccError::DeviceAlloc {
                        bytes: (len * std::mem::size_of::<f64>()) as u64,
                    }
                })?;
                self.arrays[ai].dev.push(dev);
            }
            self.arrays[ai].resident = vec![false; regions];
            self.arrays[ai].dirty = vec![false; regions];
        }
        self.initialized = true;
        Ok(())
    }

    /// Upload a region to its owner if the host copy is authoritative.
    fn ensure_resident(&mut self, a: ArrayId, r: usize, write_all: bool) -> Result<(), AccError> {
        self.ensure_init()?;
        if self.arrays[a.0].resident[r] {
            return Ok(());
        }
        if !write_all {
            let len = self.arrays[a.0].array.region(r).slab.len();
            let (dev, host) = (self.arrays[a.0].dev[r], self.arrays[a.0].host[r]);
            let (device, stream, retry) = (self.owner[r], self.streams[r], self.retry);
            self.stats.loads += 1;
            let t = retry.transfer(&mut self.gpu, device, "h2d-retry-backoff", |g| {
                g.memcpy_h2d_async(dev, 0, host, 0, len, stream)
            });
            self.stats.transfer_retries += u64::from(t.retries);
            self.health.observe_transfer(device, &t);
            // No host fallback: every failure surfaces typed. On a device
            // loss the host mirror is intact and the caller can fail over.
            t.outcome.map_err(|f| f.acc_error(device, r))?;
        } else {
            self.stats.write_allocs += 1;
        }
        self.arrays[a.0].resident[r] = true;
        self.arrays[a.0].dirty[r] = write_all;
        Ok(())
    }

    /// Bring a region back to the host (blocking), releasing residency.
    fn acquire_host(&mut self, a: ArrayId, r: usize) -> Result<(), AccError> {
        if !self.initialized || !self.arrays[a.0].resident[r] {
            return Ok(());
        }
        if self.arrays[a.0].dirty[r] {
            let len = self.arrays[a.0].array.region(r).slab.len();
            let (dev, host) = (self.arrays[a.0].dev[r], self.arrays[a.0].host[r]);
            let (device, stream, retry) = (self.owner[r], self.streams[r], self.retry);
            self.stats.host_syncs += 1;
            let t = retry.transfer(&mut self.gpu, device, "d2h-retry-backoff", |g| {
                g.memcpy_d2h_async(host, 0, dev, 0, len, stream)
            });
            self.stats.transfer_retries += u64::from(t.retries);
            self.health.observe_transfer(device, &t);
            match t.outcome {
                Ok(_) => {}
                // Last resort: the fault-exempt salvage path still gets the
                // data home (slowly).
                Err(TransferFailure::Exhausted) => {
                    self.stats.salvaged_regions += 1;
                    self.gpu.memcpy_d2h_salvage(host, 0, dev, 0, len, stream);
                }
                // A crash, or the dirty device copy died with its device:
                // only a checkpoint taken before this step can rebuild it.
                Err(f) => return Err(f.acc_error(device, r)),
            }
        }
        self.gpu.stream_synchronize(self.streams[r]);
        let dev_struck = self.gpu.device_poisoned(self.arrays[a.0].dev[r]);
        self.arrays[a.0].resident[r] = false;
        self.arrays[a.0].dirty[r] = false;
        // The host copy is authoritative from here on: an unrepairable
        // corruption that made it into the mirror has no degradation path
        // (MultiAcc keeps no second copy) — surface it for checkpoint
        // recovery.
        if self.gpu.host_poisoned(self.arrays[a.0].host[r]) {
            self.stats.integrity_detected += 1;
            self.health.observe_integrity(self.owner[r]);
            return Err(AccError::Integrity {
                region: r,
                kind: if dev_struck {
                    IntegrityKind::DirtySlot
                } else {
                    IntegrityKind::HostMirror
                },
            });
        }
        Ok(())
    }

    /// Bring every region of `array` home (pipelined per-stream drain).
    pub fn sync_to_host(&mut self, array: ArrayId) -> Result<(), AccError> {
        for r in 0..self.num_regions() {
            self.acquire_host(array, r)?;
        }
        Ok(())
    }

    /// In-place kernel over one tile (distributed `compute1`).
    pub fn compute1(
        &mut self,
        tile: Tile,
        array: ArrayId,
        cost: KernelCost,
        label: &'static str,
        f: impl FnOnce(&mut tida::ViewMut<'_>, Box3) + 'static,
    ) -> Result<(), AccError> {
        self.check_alive()?;
        let r = tile.region;
        self.ensure_resident(array, r, false)?;
        let slab = self.gpu.device_slab(self.arrays[array.0].dev[r]);
        let layout = self.arrays[array.0].array.region(r).layout;
        let bx = tile.bx;
        let dev = self.arrays[array.0].dev[r];
        self.gpu.launch_kernel(
            self.streams[r],
            KernelLaunch::new(label, cost)
                .efficiency(self.kernel_efficiency)
                .writes(dev.into())
                .exec(move || {
                    with_view_mut(&slab, layout, |mut v| f(&mut v, bx));
                }),
        );
        self.arrays[array.0].dirty[r] = true;
        self.stats.kernels_gpu += 1;
        // A crash or device-death trigger may have fired on this launch.
        self.check_region(r)
    }

    /// Two-operand kernel over matching regions (distributed `compute2`).
    /// Both operands live on the same device (same region), in one stream —
    /// no cross-stream ordering needed.
    pub fn compute2(
        &mut self,
        tile: Tile,
        dst: ArrayId,
        src: ArrayId,
        cost: KernelCost,
        label: &'static str,
        f: impl FnOnce(&mut tida::ViewMut<'_>, &tida::View<'_>, Box3) + 'static,
    ) -> Result<(), AccError> {
        assert_ne!(dst, src, "compute2 operands must be distinct arrays");
        self.check_alive()?;
        let r = tile.region;
        let write_all = tile.bx == self.arrays[dst.0].array.region(r).valid;
        self.ensure_resident(src, r, false)?;
        self.ensure_resident(dst, r, write_all)?;
        let dslab = self.gpu.device_slab(self.arrays[dst.0].dev[r]);
        let sslab = self.gpu.device_slab(self.arrays[src.0].dev[r]);
        let dl = self.arrays[dst.0].array.region(r).layout;
        let sl = self.arrays[src.0].array.region(r).layout;
        let bx = tile.bx;
        let (ddev, sdev) = (self.arrays[dst.0].dev[r], self.arrays[src.0].dev[r]);
        self.gpu.launch_kernel(
            self.streams[r],
            KernelLaunch::new(label, cost)
                .efficiency(self.kernel_efficiency)
                .reads(sdev.into())
                .writes(ddev.into())
                .exec(move || {
                    with_dst_src((&dslab, dl), (&sslab, sl), |mut d, s| f(&mut d, &s, bx));
                }),
        );
        self.arrays[dst.0].dirty[r] = true;
        self.stats.kernels_gpu += 1;
        // A crash or device-death trigger may have fired on this launch.
        self.check_region(r)
    }

    /// General multi-operand kernel over matching regions (distributed
    /// counterpart of [`crate::TileAcc::compute`]). All operands of one
    /// region live on its owner device, in its stream.
    pub fn compute(
        &mut self,
        tile: Tile,
        writes: &[ArrayId],
        reads: &[ArrayId],
        cost: KernelCost,
        label: &'static str,
        f: impl FnOnce(&mut [tida::ViewMut<'_>], &[tida::View<'_>], Box3) + 'static,
    ) -> Result<(), AccError> {
        assert!(!writes.is_empty(), "compute needs at least one write array");
        self.check_alive()?;
        let r = tile.region;
        let write_all = tile
            .bx
            .contains_box(&self.arrays[writes[0].0].array.region(r).valid);
        for &a in reads {
            self.ensure_resident(a, r, false)?;
        }
        for (i, &a) in writes.iter().enumerate() {
            self.ensure_resident(a, r, i == 0 && write_all && !reads.contains(&a))?;
        }
        let wpairs: Vec<(memslab::Slab, tida::Layout)> = writes
            .iter()
            .map(|a| {
                (
                    self.gpu.device_slab(self.arrays[a.0].dev[r]),
                    self.arrays[a.0].array.region(r).layout,
                )
            })
            .collect();
        let rpairs: Vec<(memslab::Slab, tida::Layout)> = reads
            .iter()
            .map(|a| {
                (
                    self.gpu.device_slab(self.arrays[a.0].dev[r]),
                    self.arrays[a.0].array.region(r).layout,
                )
            })
            .collect();
        let bx = tile.bx;
        let mut launch = KernelLaunch::new(label, cost)
            .efficiency(self.kernel_efficiency)
            .exec(move || {
                let wrefs: Vec<(&memslab::Slab, tida::Layout)> =
                    wpairs.iter().map(|(s, l)| (s, *l)).collect();
                let rrefs: Vec<(&memslab::Slab, tida::Layout)> =
                    rpairs.iter().map(|(s, l)| (s, *l)).collect();
                tida::with_many(&wrefs, &rrefs, |ws, rs| f(ws, rs, bx));
            });
        for &a in reads {
            launch = launch.reads(self.arrays[a.0].dev[r].into());
        }
        for &a in writes {
            launch = launch.writes(self.arrays[a.0].dev[r].into());
        }
        self.gpu.launch_kernel(self.streams[r], launch);
        for &a in writes {
            self.arrays[a.0].dirty[r] = true;
        }
        self.stats.kernels_gpu += 1;
        // A crash or device-death trigger may have fired on this launch.
        self.check_region(r)
    }

    /// Reduce `map(cell)` over every valid cell of `array` with `combine`
    /// (distributed counterpart of [`crate::TileAcc::reduce`]): one
    /// reduction kernel per region on its owner device, partials combined
    /// on the host. Blocking. `None` for virtual runs.
    pub fn reduce<M, C>(
        &mut self,
        array: ArrayId,
        label: &'static str,
        identity: f64,
        map: M,
        combine: C,
    ) -> Result<Option<f64>, AccError>
    where
        M: Fn(f64) -> f64 + Clone + 'static,
        C: Fn(f64, f64) -> f64 + Clone + 'static,
    {
        self.check_alive()?;
        self.ensure_init()?;
        let regions = self.num_regions();
        let partials = std::sync::Arc::new(parking_lot::Mutex::new(vec![identity; regions]));
        let virtual_run = self.array_ref(array).is_virtual();
        for r in 0..regions {
            let reg = self.array_ref(array).region(r).clone();
            let cells = reg.valid.num_cells();
            if self.arrays[array.0].resident[r] {
                let slab = self.gpu.device_slab(self.arrays[array.0].dev[r]);
                let (m, c, out) = (map.clone(), combine.clone(), partials.clone());
                let dev = self.arrays[array.0].dev[r];
                self.gpu.launch_kernel(
                    self.streams[r],
                    KernelLaunch::new(label, KernelCost::Bytes(cells * 8))
                        .efficiency(self.kernel_efficiency)
                        .reads(dev.into())
                        .exec(move || {
                            tida::with_view(&slab, reg.layout, |v| {
                                let mut acc = identity;
                                for iv in reg.valid.iter() {
                                    acc = c(acc, m(v.at(iv)));
                                }
                                out.lock()[reg.id] = acc;
                            });
                        }),
                );
            } else {
                let (m, c, out) = (map.clone(), combine.clone(), partials.clone());
                tida::with_view(&reg.slab, reg.layout, |v| {
                    let mut acc = identity;
                    for iv in reg.valid.iter() {
                        acc = c(acc, m(v.at(iv)));
                    }
                    out.lock()[reg.id] = acc;
                });
                let cost = KernelCost::Bytes(cells * 8);
                let d = cost.duration_on_host(self.gpu.config());
                self.gpu.host_work(d, label);
            }
        }
        self.gpu.device_synchronize();
        if virtual_run {
            return Ok(None);
        }
        let partials = partials.lock();
        Ok(Some(partials.iter().copied().fold(identity, combine)))
    }

    /// Ghost exchange across all regions, using device gathers within a
    /// device and pack → peer-copy → unpack across devices.
    pub fn fill_boundary(&mut self, array: ArrayId) -> Result<(), AccError> {
        self.check_alive()?;
        self.ensure_init()?;
        let patches: Vec<GhostPatch> = self.array_ref(array).patches().to_vec();
        if patches.is_empty() {
            return Ok(());
        }
        // The paper's `acc wait` before the update phase.
        self.gpu.device_synchronize();

        for p in &patches {
            let dst_res = self.arrays[array.0].resident[p.dst_region];
            let src_res = self.arrays[array.0].resident[p.src_region];
            if !dst_res && !src_res {
                // Both authoritative on the host: update in place.
                self.host_patch(array, p)?;
                continue;
            }
            self.ensure_resident(array, p.src_region, false)?;
            self.ensure_resident(array, p.dst_region, false)?;
            if self.owner[p.src_region] == self.owner[p.dst_region] {
                self.same_device_patch(array, p)?;
            } else {
                self.cross_device_patch(array, p)?;
            }
        }
        Ok(())
    }

    fn array_ref(&self, a: ArrayId) -> &TileArray {
        &self.arrays[a.0].array
    }

    fn host_patch(&mut self, array: ArrayId, p: &GhostPatch) -> Result<(), AccError> {
        self.acquire_host(array, p.src_region)?;
        self.acquire_host(array, p.dst_region)?;
        let cells = p.num_cells();
        let cfg = self.gpu.config();
        let cost = cfg.host_index_time(cells) + cfg.host_copy_time(cells * 16);
        self.array_ref(array).apply_patch(p);
        self.gpu.host_work(cost, desim::sym!("ghost-host"));
        self.stats.ghost_host += 1;
        Ok(())
    }

    fn same_device_patch(&mut self, array: ArrayId, p: &GhostPatch) -> Result<(), AccError> {
        let cells = p.num_cells();
        let idx_time = self.gpu.config().host_index_time(cells);
        self.gpu.host_work(idx_time, desim::sym!("ghost-idx"));
        if p.src_region != p.dst_region {
            let ev = self.gpu.record_event(self.streams[p.src_region]);
            self.gpu.stream_wait_event(self.streams[p.dst_region], ev);
        }
        let dst_slab = self.gpu.device_slab(self.arrays[array.0].dev[p.dst_region]);
        let src_slab = self.gpu.device_slab(self.arrays[array.0].dev[p.src_region]);
        let dst_layout = self.array_ref(array).region(p.dst_region).layout;
        let src_layout = self.array_ref(array).region(p.src_region).layout;
        let patch = *p;
        let (sdev, ddev) = (
            self.arrays[array.0].dev[p.src_region],
            self.arrays[array.0].dev[p.dst_region],
        );
        self.gpu.launch_kernel(
            self.streams[p.dst_region],
            KernelLaunch::new("ghost", KernelCost::Bytes(cells * 16))
                .efficiency(self.kernel_efficiency)
                .reads(sdev.into())
                .writes(ddev.into())
                .exec(move || {
                    if dst_slab.is_virtual() || src_slab.is_virtual() {
                        return;
                    }
                    let dst_idx = dst_layout.offsets_of(&patch.dst_box);
                    let src_idx: Vec<usize> = patch
                        .dst_box
                        .iter()
                        .map(|c| src_layout.offset(c - patch.shift))
                        .collect();
                    memslab::gather(&dst_slab, &dst_idx, &src_slab, &src_idx);
                }),
        );
        self.arrays[array.0].dirty[p.dst_region] = true;
        self.stats.ghost_gpu += 1;
        // A crash or device-death trigger may have fired on this launch.
        self.check_region(p.dst_region)
    }

    /// Pack on the source device, peer-copy, unpack on the destination.
    fn cross_device_patch(&mut self, array: ArrayId, p: &GhostPatch) -> Result<(), AccError> {
        let cells = p.num_cells() as usize;
        let idx_time = self.gpu.config().host_index_time(cells as u64);
        self.gpu.host_work(idx_time, desim::sym!("ghost-idx"));

        let staging = self.patch_staging(p, cells)?;
        let src_layout = self.array_ref(array).region(p.src_region).layout;
        let dst_layout = self.array_ref(array).region(p.dst_region).layout;
        let patch = *p;

        // 1. Pack on the source device, in the source region's stream.
        let src_slab = self.gpu.device_slab(self.arrays[array.0].dev[p.src_region]);
        let stage_src_slab = self.gpu.device_slab(staging.src_stage);
        let (srdev, ssdev) = (self.arrays[array.0].dev[p.src_region], staging.src_stage);
        self.gpu.launch_kernel(
            self.streams[p.src_region],
            KernelLaunch::new("pack", KernelCost::Bytes(cells as u64 * 16))
                .efficiency(self.kernel_efficiency)
                .reads(srdev.into())
                .writes(ssdev.into())
                .exec(move || {
                    if src_slab.is_virtual() || stage_src_slab.is_virtual() {
                        return;
                    }
                    let src_idx: Vec<usize> = patch
                        .dst_box
                        .iter()
                        .map(|c| src_layout.offset(c - patch.shift))
                        .collect();
                    let lin: Vec<usize> = (0..src_idx.len()).collect();
                    memslab::gather(&stage_src_slab, &lin, &src_slab, &src_idx);
                }),
        );

        // 2. Peer copy, ordered after the pack, in the destination stream.
        let ev = self.gpu.record_event(self.streams[p.src_region]);
        self.gpu.stream_wait_event(self.streams[p.dst_region], ev);
        self.gpu.memcpy_p2p_async(
            staging.dst_stage,
            0,
            staging.src_stage,
            0,
            cells,
            self.streams[p.dst_region],
        );

        // 3. Unpack into the destination ghosts.
        let dst_slab = self.gpu.device_slab(self.arrays[array.0].dev[p.dst_region]);
        let stage_dst_slab = self.gpu.device_slab(staging.dst_stage);
        let (ddev, dsdev) = (self.arrays[array.0].dev[p.dst_region], staging.dst_stage);
        self.gpu.launch_kernel(
            self.streams[p.dst_region],
            KernelLaunch::new("unpack", KernelCost::Bytes(cells as u64 * 16))
                .efficiency(self.kernel_efficiency)
                .reads(dsdev.into())
                .writes(ddev.into())
                .exec(move || {
                    if dst_slab.is_virtual() || stage_dst_slab.is_virtual() {
                        return;
                    }
                    let dst_idx = dst_layout.offsets_of(&patch.dst_box);
                    let lin: Vec<usize> = (0..dst_idx.len()).collect();
                    memslab::gather(&dst_slab, &dst_idx, &stage_dst_slab, &lin);
                }),
        );
        self.arrays[array.0].dirty[p.dst_region] = true;

        // The next pack into the source staging buffer must wait for this
        // peer copy; serialize via an event back onto the source stream.
        let ev2 = self.gpu.record_event(self.streams[p.dst_region]);
        self.gpu.stream_wait_event(self.streams[p.src_region], ev2);
        self.stats.ghost_gpu += 1;
        // A crash or device-death trigger may have fired anywhere on the
        // pack/copy/unpack chain — either endpoint device counts.
        self.check_region(p.src_region)?;
        self.check_region(p.dst_region)
    }

    /// Get (allocating on first use) the staging pair for a patch. Staging
    /// buffers are keyed by (src_region, dst_region, box) — patch geometry
    /// is static, so each exchange reuses its pair.
    fn patch_staging(&mut self, p: &GhostPatch, cells: usize) -> Result<PatchStaging, AccError> {
        // Staging buffers are small; allocate fresh per call would leak
        // device memory across steps, so cache by key.
        let key = (p.src_region, p.dst_region, p.dst_box);
        if let Some(idx) = self.staging_keys.iter().position(|k| *k == key) {
            return Ok(self.staging[idx]);
        }
        let stage_err = || AccError::DeviceAlloc {
            bytes: (cells * std::mem::size_of::<f64>()) as u64,
        };
        let src_stage = self
            .gpu
            .malloc_device_on(self.owner[p.src_region], cells)
            .map_err(|_| stage_err())?;
        let dst_stage = self
            .gpu
            .malloc_device_on(self.owner[p.dst_region], cells)
            .map_err(|_| stage_err())?;
        let entry = PatchStaging {
            src_stage,
            dst_stage,
        };
        self.staging_keys.push(key);
        self.staging.push(entry);
        Ok(entry)
    }

    // ------------------------------------------------------------------
    // Live region migration / failover.
    // ------------------------------------------------------------------

    /// Re-own every region of `from` onto the surviving devices: fresh
    /// streams and device buffers on the new owners, residency dropped (the
    /// host mirrors are the reconstruction source), and the cross-device
    /// staging cache entries touching moved regions rebuilt lazily. Works
    /// for a dead device (its buffers are simply abandoned — the hardware
    /// is gone) and for a quarantine evacuation alike; quarantined devices
    /// are skipped when picking new owners as long as a healthy survivor
    /// exists.
    ///
    /// The caller must make the host mirrors authoritative before resuming
    /// — on a device loss the dirty device copies are unrecoverable, so
    /// that means [`restore`](MultiAcc::restore) from a snapshot (see
    /// [`failover`](MultiAcc::failover) for the combined protocol).
    pub fn migrate_off(&mut self, from: usize) -> Result<(), AccError> {
        if self.gpu.device_lost(from) {
            self.health.note_dead(from);
        }
        if !self.initialized {
            return Ok(());
        }
        let survivors = self
            .health
            .survivors(|d| d != from && !self.gpu.device_lost(d));
        if survivors.is_empty() {
            return Err(AccError::DeviceLost { device: from });
        }
        let mut moved = vec![false; self.owner.len()];
        let mut next = 0usize;
        for (r, was_moved) in moved.iter_mut().enumerate() {
            if self.owner[r] != from {
                continue;
            }
            let new_owner = survivors[next % survivors.len()];
            next += 1;
            self.owner[r] = new_owner;
            self.streams[r] = self.gpu.create_stream_on(new_owner);
            *was_moved = true;
            self.stats.regions_migrated += 1;
            for ai in 0..self.arrays.len() {
                let len = self.arrays[ai].array.region(r).slab.len();
                let bytes = (len * std::mem::size_of::<f64>()) as u64;
                // The old buffer is stranded on `from`; nothing to free —
                // the device (or its trustworthiness) is gone.
                let dev = self
                    .gpu
                    .malloc_device_on(new_owner, len)
                    .map_err(|_| AccError::DeviceAlloc { bytes })?;
                self.arrays[ai].dev[r] = dev;
                self.arrays[ai].resident[r] = false;
                self.arrays[ai].dirty[r] = false;
                // Credit the re-stage this move owes: the region must come
                // back from its host mirror onto the new owner.
                self.stats.migration_restage_loads += 1;
                self.stats.migration_restage_bytes += bytes;
            }
        }
        // Drop staging pairs whose geometry involves a moved region: their
        // buffers sit on the wrong devices now. Pairs entirely on healthy
        // devices are freed; a stranded buffer on `from` is abandoned.
        let mut i = 0;
        while i < self.staging_keys.len() {
            let (src, dst, _) = self.staging_keys[i];
            if moved[src] || moved[dst] {
                let entry = self.staging.swap_remove(i);
                self.staging_keys.swap_remove(i);
                if self.gpu.device_of(entry.src_stage) != from {
                    self.gpu.free_device(entry.src_stage);
                }
                if self.gpu.device_of(entry.dst_stage) != from {
                    self.gpu.free_device(entry.dst_stage);
                }
            } else {
                i += 1;
            }
        }
        Ok(())
    }

    /// The full device-loss recovery protocol: restore the snapshot (host
    /// mirrors authoritative again, all residency dropped), then migrate
    /// every lost device's regions onto the survivors. Returns the step to
    /// resume from; replaying the workload from there is bit-identical to a
    /// failure-free run because reconstruction happens purely from the
    /// snapshot's host data.
    pub fn failover(&mut self, ck: &Checkpoint) -> Result<u64, RecoveryError> {
        self.restore(ck).map_err(RecoveryError::Checkpoint)?;
        for d in self.gpu.lost_devices() {
            self.migrate_off(d).map_err(RecoveryError::Fatal)?;
        }
        self.stats.checkpoints_restored += 1;
        Ok(ck.step)
    }

    // ------------------------------------------------------------------
    // Checkpoint / restore (shared [`Checkpoint`] type with `TileAcc`).
    // ------------------------------------------------------------------

    /// Capture a crash-consistent snapshot: all regions are drained home
    /// first, so host slabs are authoritative. `MultiAcc` carries no LRU
    /// clock, so that snapshot field stays at its default.
    pub fn checkpoint(&mut self, step: u64) -> Result<Checkpoint, AccError> {
        self.check_alive()?;
        for a in 0..self.arrays.len() {
            self.sync_to_host(ArrayId(a))?;
        }
        self.check_alive()?;
        self.stats.checkpoints_taken += 1;
        Ok(Checkpoint::capture(
            step,
            self.stats,
            self.arrays.iter().map(|e| &e.array),
        ))
    }

    /// Rebuild this runtime's host state from a snapshot; all residency is
    /// dropped (the host copies are authoritative afterwards).
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        ck.write_back(self.arrays.iter().map(|e| &e.array))?;
        for a in self.arrays.iter_mut() {
            a.drop_residency();
        }
        // The snapshot's host data just overwrote the mirrors, so any host
        // poison recorded against them is cured.
        for a in &self.arrays {
            for &h in &a.host {
                self.gpu.clear_host_poison(h);
            }
        }
        // Counters resume from the snapshot's view of the run; work done
        // since (and discarded by this restore) stays discarded.
        self.stats = ck.stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrayId, HealthState};
    use gpu_sim::{GpuSystem, MachineConfig, SimTime};
    use kernels::{busy, heat, init};
    use tida::{tiles_of, Decomposition, Domain, ExchangeMode, RegionSpec, TileSpec};

    fn heat_drive(
        acc: &mut MultiAcc,
        decomp: &Arc<Decomposition>,
        mut src: ArrayId,
        mut dst: ArrayId,
        steps: usize,
    ) -> ArrayId {
        let tiles = tiles_of(decomp, TileSpec::RegionSized);
        for _ in 0..steps {
            acc.fill_boundary(src).unwrap();
            for &t in &tiles {
                acc.compute2(
                    t,
                    dst,
                    src,
                    heat::cost(t.num_cells()),
                    "heat",
                    |d, s, bx| heat::step_tile(d, s, &bx, heat::DEFAULT_FAC),
                )
                .unwrap();
            }
            std::mem::swap(&mut src, &mut dst);
        }
        acc.sync_to_host(src).unwrap();
        src
    }

    #[test]
    fn heat_across_two_devices_matches_golden() {
        let n = 8i64;
        let steps = 4;
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(n),
            RegionSpec::Count(4),
        ));
        let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        ua.fill_valid(init::hash_field(31));

        let mut acc = MultiAcc::new(GpuSystem::multi(MachineConfig::k40m(), 2, true));
        let a = acc.register(&ua);
        let b = acc.register(&ub);
        let last = heat_drive(&mut acc, &decomp, a, b, steps);
        acc.finish();

        // Regions 0-1 on device 0, regions 2-3 on device 1.
        assert_eq!(acc.owner(0), 0);
        assert_eq!(acc.owner(3), 1);
        assert!(
            acc.gpu().stats_bytes_p2p() > 0,
            "cross-device halos used P2P"
        );

        let golden = heat::golden_run(init::hash_field(31), n, steps, heat::DEFAULT_FAC);
        let arr = if last == a { &ua } else { &ub };
        assert_eq!(arr.to_dense().unwrap(), golden);
    }

    #[test]
    fn heat_across_four_devices_matches_golden() {
        let n = 8i64;
        let steps = 3;
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(n),
            RegionSpec::Count(8),
        ));
        let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        ua.fill_valid(init::hash_field(32));

        let mut acc = MultiAcc::new(GpuSystem::multi(MachineConfig::k40m(), 4, true));
        let a = acc.register(&ua);
        let b = acc.register(&ub);
        let last = heat_drive(&mut acc, &decomp, a, b, steps);
        acc.finish();
        let golden = heat::golden_run(init::hash_field(32), n, steps, heat::DEFAULT_FAC);
        let arr = if last == a { &ua } else { &ub };
        assert_eq!(arr.to_dense().unwrap(), golden);
    }

    #[test]
    fn single_device_multiacc_equals_golden_too() {
        let n = 8i64;
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(n),
            RegionSpec::Count(4),
        ));
        let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        ua.fill_valid(init::hash_field(33));
        let mut acc = MultiAcc::new(GpuSystem::multi(MachineConfig::k40m(), 1, true));
        let a = acc.register(&ua);
        let b = acc.register(&ub);
        let last = heat_drive(&mut acc, &decomp, a, b, 3);
        acc.finish();
        assert_eq!(
            acc.gpu().stats_bytes_p2p(),
            0,
            "one device, no peer traffic"
        );
        let golden = heat::golden_run(init::hash_field(33), n, 3, heat::DEFAULT_FAC);
        let arr = if last == a { &ua } else { &ub };
        assert_eq!(arr.to_dense().unwrap(), golden);
    }

    #[test]
    fn compute_bound_work_scales_with_devices() {
        let run = |devices: usize| {
            let decomp = Arc::new(Decomposition::new(
                Domain::periodic_cube(64),
                RegionSpec::Count(8),
            ));
            let u = TileArray::new(decomp.clone(), 0, ExchangeMode::Faces, false);
            let mut acc = MultiAcc::new(GpuSystem::multi(MachineConfig::k40m(), devices, false));
            let a = acc.register(&u);
            for _ in 0..4 {
                for t in tiles_of(&decomp, TileSpec::RegionSized) {
                    acc.compute1(
                        t,
                        a,
                        busy::cost(
                            t.num_cells(),
                            busy::DEFAULT_KERNEL_ITERATION,
                            busy::MathImpl::PgiLibm,
                        ),
                        "busy",
                        |_, _| {},
                    )
                    .unwrap();
                }
            }
            acc.sync_to_host(a).unwrap();
            acc.finish()
        };
        let one = run(1);
        let two = run(2);
        let four = run(4);
        let s2 = one.as_secs_f64() / two.as_secs_f64();
        let s4 = one.as_secs_f64() / four.as_secs_f64();
        assert!(s2 > 1.8, "2-device speedup {s2}");
        assert!(s4 > 3.2, "4-device speedup {s4}");
    }

    #[test]
    fn prop_style_sweep_devices_regions_steps() {
        // Exhaustive small sweep (deterministic stand-in for a proptest:
        // the space is tiny). Every (devices, regions, steps) combination
        // must be bitwise golden.
        for devices in [1usize, 2, 3] {
            for regions in [2usize, 4] {
                for steps in [1usize, 3] {
                    let n = 8i64;
                    let decomp = Arc::new(Decomposition::new(
                        Domain::periodic_cube(n),
                        RegionSpec::Count(regions),
                    ));
                    let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
                    let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
                    ua.fill_valid(init::hash_field(devices as u64 * 100 + regions as u64));
                    let mut acc =
                        MultiAcc::new(GpuSystem::multi(MachineConfig::k40m(), devices, true));
                    let a = acc.register(&ua);
                    let b = acc.register(&ub);
                    let last = heat_drive(&mut acc, &decomp, a, b, steps);
                    acc.finish();
                    let golden = heat::golden_run(
                        init::hash_field(devices as u64 * 100 + regions as u64),
                        n,
                        steps,
                        heat::DEFAULT_FAC,
                    );
                    let arr = if last == a { &ua } else { &ub };
                    assert_eq!(
                        arr.to_dense().unwrap(),
                        golden,
                        "devices={devices} regions={regions} steps={steps}"
                    );
                }
            }
        }
    }

    #[test]
    fn in_place_kernel_after_exchange_correct() {
        // compute1 + ghost exchange across devices in one flow.
        let n = 6i64;
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(n),
            RegionSpec::Count(2),
        ));
        let u = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        u.fill_valid(|iv| iv.z() as f64);
        let mut acc = MultiAcc::new(GpuSystem::multi(MachineConfig::k40m(), 2, true));
        let a = acc.register(&u);
        acc.fill_boundary(a).unwrap();
        for t in tiles_of(&decomp, TileSpec::RegionSized) {
            acc.compute1(t, a, gpu_sim::KernelCost::Flops(1e3), "noop", |_, _| {})
                .unwrap();
        }
        acc.sync_to_host(a).unwrap();
        let elapsed = acc.finish();
        assert!(elapsed > SimTime::ZERO);
        assert_eq!(u.value(tida::IntVect::new(0, 0, 5)), Some(5.0));
    }

    /// `heat_drive` with a snapshot every `ck_interval` steps and
    /// device-loss failover: on [`AccError::DeviceLost`] the run migrates
    /// the lost device's regions onto the survivors, restores the latest
    /// snapshot, and replays. Returns the array holding the final result.
    fn heat_drive_failover(
        acc: &mut MultiAcc,
        decomp: &Arc<Decomposition>,
        a: ArrayId,
        b: ArrayId,
        steps: usize,
        ck_interval: usize,
    ) -> ArrayId {
        let tiles = tiles_of(decomp, TileSpec::RegionSized);
        let mut ck = acc.checkpoint(0).unwrap();
        let mut step = 0usize;
        while step < steps {
            let (src, dst) = if step.is_multiple_of(2) {
                (a, b)
            } else {
                (b, a)
            };
            let result: Result<(), AccError> = (|| {
                acc.fill_boundary(src)?;
                for &t in &tiles {
                    acc.compute2(
                        t,
                        dst,
                        src,
                        heat::cost(t.num_cells()),
                        "heat",
                        |d, s, bx| heat::step_tile(d, s, &bx, heat::DEFAULT_FAC),
                    )?;
                }
                Ok(())
            })();
            match result {
                Ok(()) => {}
                Err(AccError::DeviceLost { .. }) => {
                    step = acc.failover(&ck).unwrap() as usize;
                    continue;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
            step += 1;
            if step.is_multiple_of(ck_interval) || step == steps {
                match acc.checkpoint(step as u64) {
                    Ok(c) => ck = c,
                    Err(AccError::DeviceLost { .. }) => {
                        step = acc.failover(&ck).unwrap() as usize;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
        // The final checkpoint's sync already drained everything home.
        if steps.is_multiple_of(2) {
            a
        } else {
            b
        }
    }

    #[test]
    fn device_death_mid_run_fails_over_bit_identical() {
        let n = 8i64;
        let steps = 4usize;
        let mk = || {
            let decomp = Arc::new(Decomposition::new(
                Domain::periodic_cube(n),
                RegionSpec::Count(4),
            ));
            let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
            let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
            ua.fill_valid(init::hash_field(77));
            (decomp, ua, ub)
        };

        // Failure-free golden through the same checkpointed driver.
        let (decomp, ua, ub) = mk();
        let mut acc = MultiAcc::new(GpuSystem::multi(MachineConfig::k40m(), 2, true));
        let a = acc.register(&ua);
        let b = acc.register(&ub);
        let last = heat_drive_failover(&mut acc, &decomp, a, b, steps, 2);
        acc.finish();
        let golden = if last == a {
            ua.to_dense().unwrap()
        } else {
            ub.to_dense().unwrap()
        };

        // Device 1 dies on its 7th transfer — mid-run, past the step-2
        // snapshot. The run must migrate regions 2-3 onto device 0, restore
        // the snapshot, replay, and land on the exact same grid.
        let (decomp, ua, ub) = mk();
        let mut cfg = MachineConfig::k40m();
        cfg.faults =
            gpu_sim::FaultPlan::none().with_device_death(gpu_sim::DeviceDeath::at_transfer(1, 7));
        let mut acc = MultiAcc::new(GpuSystem::multi(cfg, 2, true));
        let a = acc.register(&ua);
        let b = acc.register(&ub);
        let last = heat_drive_failover(&mut acc, &decomp, a, b, steps, 2);
        acc.finish();
        let resumed = if last == a {
            ua.to_dense().unwrap()
        } else {
            ub.to_dense().unwrap()
        };
        assert_eq!(resumed, golden, "failover must be bit-identical");

        // Every region of every array now lives on the survivor, and the
        // migration re-stage is accounted separately from organic loads.
        assert_eq!(acc.owner(2), 0);
        assert_eq!(acc.owner(3), 0);
        let st = acc.stats();
        assert_eq!(st.regions_migrated, 2, "{st}");
        assert_eq!(st.migration_restage_loads, 4, "2 regions x 2 arrays");
        assert!(st.migration_restage_bytes > 0);
        assert!(st.checkpoints_restored >= 1);
        assert_eq!(acc.gpu().fault_stats().device_deaths, 1);
        let report = acc.report();
        assert_eq!(report.health.devices_lost, 1);
        assert_eq!(report.health.regions_migrated, 2);
        assert!(report.health.migration_restage_bytes > 0);
        assert_eq!(
            acc.health().state(1),
            HealthState::Dead,
            "the monitor pins the loss"
        );
    }

    #[test]
    fn flapping_link_quarantines_then_readmits_without_oscillation() {
        // One down window on device 1's link early in the run: the retry
        // loop eats the faults (backoff outlasts the window), the health
        // monitor quarantines the device, and the clean traffic afterwards
        // readmits it — exactly one transition each way, pinned through
        // RunReport's health counters.
        let n = 8i64;
        let steps = 8usize;
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(n),
            RegionSpec::Count(4),
        ));
        let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        ua.fill_valid(init::hash_field(78));
        let mut cfg = MachineConfig::k40m();
        cfg.faults = gpu_sim::FaultPlan::none().with_link_flap(gpu_sim::LinkFlap::new(
            1,
            SimTime::ZERO,
            SimTime::from_us(100_000),
            SimTime::from_us(2_000),
            1,
        ));
        let mut acc = MultiAcc::new(GpuSystem::multi(cfg, 2, true));
        let a = acc.register(&ua);
        let b = acc.register(&ub);
        let last = heat_drive_failover(&mut acc, &decomp, a, b, steps, 1);
        acc.finish();

        let golden = heat::golden_run(init::hash_field(78), n, steps, heat::DEFAULT_FAC);
        let arr = if last == a { &ua } else { &ub };
        assert_eq!(arr.to_dense().unwrap(), golden, "flap must not corrupt");
        assert!(
            acc.stats().transfer_retries > 0,
            "the retry loop absorbed the flap"
        );
        let report = acc.report();
        assert_eq!(report.health.quarantines, 1, "one quarantine transition");
        assert_eq!(report.health.readmissions, 1, "one readmission, no churn");
        assert_eq!(report.health.devices_lost, 0);
        assert_eq!(acc.health().state(1), HealthState::Healthy);
        assert!(acc.gpu().fault_stats().flap_faults > 0);
    }

    #[test]
    fn multiacc_checkpoint_resume_is_bit_identical() {
        let n = 8i64;
        let mk = || {
            let decomp = Arc::new(Decomposition::new(
                Domain::periodic_cube(n),
                RegionSpec::Count(4),
            ));
            let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
            let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
            ua.fill_valid(init::hash_field(55));
            (decomp, ua, ub)
        };

        // Uninterrupted 4-step run.
        let (decomp, ua, ub) = mk();
        let mut acc = MultiAcc::new(GpuSystem::multi(MachineConfig::k40m(), 2, true));
        let a = acc.register(&ua);
        let b = acc.register(&ub);
        let last = heat_drive(&mut acc, &decomp, a, b, 4);
        acc.finish();
        let golden = if last == a {
            ua.to_dense().unwrap()
        } else {
            ub.to_dense().unwrap()
        };

        // 2 steps, snapshot, discard the accelerator, restore into a fresh
        // one, 2 more steps: same devices, same grid.
        let (decomp, ua, ub) = mk();
        let mut acc = MultiAcc::new(GpuSystem::multi(MachineConfig::k40m(), 2, true));
        let a = acc.register(&ua);
        let b = acc.register(&ub);
        let mid = heat_drive(&mut acc, &decomp, a, b, 2);
        let ck = acc.checkpoint(2).unwrap();
        acc.finish();
        drop(acc);

        let mut acc2 = MultiAcc::new(GpuSystem::multi(MachineConfig::k40m(), 2, true));
        let a2 = acc2.register(&ua);
        let b2 = acc2.register(&ub);
        acc2.restore(&ck).unwrap();
        // The snapshot was taken with `mid` holding the latest state.
        let (src, dst) = if mid == a { (a2, b2) } else { (b2, a2) };
        let last2 = heat_drive(&mut acc2, &decomp, src, dst, 2);
        acc2.finish();
        let resumed = if last2 == a2 {
            ua.to_dense().unwrap()
        } else {
            ub.to_dense().unwrap()
        };
        assert_eq!(resumed, golden, "restored run must be bit-identical");
    }
}
