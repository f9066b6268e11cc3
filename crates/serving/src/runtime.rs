//! The multi-tenant serving runtime.
//!
//! One [`ServingRuntime`] owns one simulated platform ([`GpuSystem`]) and
//! serves jobs from many tenants concurrently:
//!
//! * **Admission** — jobs pass the bounded, quota-enforcing
//!   [`crate::queue::AdmissionQueue`] or are shed with a typed error
//!   before any device resource is touched.
//! * **Fair-share batching** — up to `max_active` jobs hold device slots
//!   at once, each with its own stream and *disjoint* buffers. The pump
//!   loop interleaves their asynchronous submissions weighted
//!   round-robin, so tenant A's H2D runs on the copy engine while tenant
//!   B's kernel holds the compute engine — the paper's overlap argument
//!   applied across tenants instead of across regions.
//! * **Preemption** — when the queue holds a strictly higher-priority job
//!   and every slot is taken, the lowest-priority active job is evicted
//!   at its next step boundary: its regions are drained, snapshotted
//!   through the TACK checkpoint codec, and the job is requeued carrying
//!   the blob; on re-dispatch it resumes from the saved step,
//!   bit-identical to an uninterrupted run.
//! * **Fault isolation** — each job's buffers belong to its tenant alone
//!   (asserted by [`GpuSystem::cross_tenant_touches`]), injected faults
//!   are absorbed by per-transfer retries, job-level resubmission, and
//!   salvage drains, and a platform crash is survived by rebuilding the
//!   system and restarting every in-flight job from its last durable
//!   state (checkpoint or seed) — other tenants' results stay
//!   bit-identical to solo runs throughout.

use std::collections::HashMap;

use gpu_sim::{
    BufKey, DeviceBuffer, FaultPlan, FaultStats, GpuSystem, HazardCounters, HostBuffer,
    HostMemKind, KernelCost, KernelLaunch, MachineConfig, SimTime, StreamId,
};
use memslab::{fnv1a64_f64s, Slab};
use tida_acc::{AccError, Checkpoint, IntegrityKind, RetryPolicy, TransferFailure};

use crate::job::{JobId, JobResult, JobSpec};
use crate::queue::{AdmissionQueue, QueuedJob};

/// Configuration of a [`ServingRuntime`].
#[derive(Debug, Clone)]
pub struct ServingConfig {
    pub machine: MachineConfig,
    /// Real (backed) data. Timing-only runs (`false`) keep the identical
    /// schedule but report the host-computed golden digest, since no
    /// bytes exist to hash.
    pub backed: bool,
    /// Global admission-queue depth; beyond it jobs are shed.
    pub max_queue_depth: usize,
    /// Per-tenant cap on queued jobs.
    pub per_tenant_quota: usize,
    /// Device slots: jobs resident and interleaving at once.
    pub max_active: usize,
    /// Devices in the platform. Slot `s` lives on device `s % num_devices`,
    /// so a multi-device runtime spreads concurrent jobs across devices —
    /// and a device death takes out only the slots mapped to it.
    pub num_devices: usize,
    /// Per-transfer retry budget inside a running job.
    pub transfer_retry: RetryPolicy,
    /// Job-level resubmission budget after a device-path failure.
    pub job_retry: RetryPolicy,
    /// Seeded fault schedule installed into the platform.
    pub fault_plan: FaultPlan,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            machine: MachineConfig::k40m(),
            backed: true,
            max_queue_depth: 4096,
            per_tenant_quota: 2048,
            max_active: 4,
            num_devices: 1,
            transfer_retry: RetryPolicy::default(),
            job_retry: RetryPolicy::new(2, SimTime::from_us(200)),
            fault_plan: FaultPlan::none(),
        }
    }
}

/// Per-tenant service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Jobs offered to [`ServingRuntime::submit`].
    pub submitted: u64,
    /// Jobs accepted into the queue.
    pub admitted: u64,
    /// Jobs shed because the global queue was full.
    pub shed_queue_full: u64,
    /// Jobs shed at the tenant's quota.
    pub shed_quota: u64,
    /// Jobs finished with a digest.
    pub completed: u64,
    /// Jobs finished with a typed error (excluding deadline misses).
    pub failed: u64,
    /// Jobs that missed their deadline (queued or running).
    pub deadline_missed: u64,
    /// Job-level resubmissions performed on the tenant's behalf.
    pub retries: u64,
    /// Jobs drained off a lost device and rescheduled onto survivors.
    /// A device loss is the platform's fault, not the job's, so these do
    /// not consume the job-level retry budget.
    pub evacuated: u64,
    /// Evictions of the tenant's jobs by higher-priority work.
    pub preemptions: u64,
}

/// Where a running job is in its load → compute → drain pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Next region to upload.
    Load { next: usize },
    /// Kernels submitted so far == `step`.
    Compute,
    /// Next region to drain.
    Drain { next: usize },
    /// Everything submitted; sync, verify, digest.
    Finalize,
}

struct ActiveJob {
    id: JobId,
    spec: JobSpec,
    submitted: SimTime,
    started: SimTime,
    retries: u32,
    preemptions: u32,
    slot: usize,
    host: Vec<HostBuffer>,
    dev: Vec<DeviceBuffer>,
    host_slabs: Vec<Slab>,
    /// Device steps already submitted (== completed once synced).
    step: u64,
    phase: Phase,
    /// TACK blob of the last durable snapshot (crash restart point).
    checkpoint: Option<Vec<u8>>,
    preempt_requested: bool,
}

impl ActiveJob {
    /// The queue entry that brings this job back no earlier than `now`,
    /// resuming from `resume` (a TACK blob, or `None` for the seed) with its
    /// identity, submit time and budgets intact.
    fn requeue_entry(self, now: SimTime, resume: Option<Vec<u8>>) -> QueuedJob {
        QueuedJob {
            id: self.id,
            spec: self.spec,
            submitted: self.submitted,
            not_before: now,
            retries: self.retries,
            preemptions: self.preemptions,
            resume,
        }
    }
}

enum Pump {
    /// Submitted work; call again later.
    Progress,
    /// Job left the runtime with this outcome.
    Done(Result<u64, AccError>),
    /// Job was evicted and requeued (entry already back in the queue).
    Preempted,
    /// The platform died mid-pump; the job is still active.
    Crashed,
    /// The job's device died mid-pump (the platform survives); the job is
    /// still active and must be evacuated onto a surviving device.
    Lost { device: usize },
}

/// See the module docs.
pub struct ServingRuntime {
    cfg: ServingConfig,
    gpu: GpuSystem,
    queue: AdmissionQueue,
    active: Vec<ActiveJob>,
    /// Lazily created stream per slot; slots are reused across jobs.
    streams: Vec<Option<StreamId>>,
    slot_busy: Vec<bool>,
    /// Slots retired because their device died. Never refilled until a
    /// platform rebuild brings fresh hardware.
    slot_dead: Vec<bool>,
    results: Vec<JobResult>,
    stats: HashMap<u32, TenantStats>,
    weights: HashMap<u32, u32>,
    rr_cursor: usize,
    /// Virtual time consumed by platforms already discarded after a crash;
    /// `now() = clock_base + gpu.host_now()` stays monotone across rebuilds.
    clock_base: SimTime,
    crashes_survived: u64,
    /// Fault counters accumulated from crashed platforms, folded into
    /// [`ServingRuntime::fault_stats`].
    lost_fault_events: u64,
}

impl ServingRuntime {
    pub fn new(cfg: ServingConfig) -> Self {
        let mut gpu = GpuSystem::multi(cfg.machine.clone(), cfg.num_devices.max(1), cfg.backed);
        gpu.set_fault_plan(cfg.fault_plan.clone());
        let queue = AdmissionQueue::new(cfg.max_queue_depth, cfg.per_tenant_quota);
        let max_active = cfg.max_active.max(1);
        ServingRuntime {
            gpu,
            queue,
            active: Vec::new(),
            streams: vec![None; max_active],
            slot_busy: vec![false; max_active],
            slot_dead: vec![false; max_active],
            results: Vec::new(),
            stats: HashMap::new(),
            weights: HashMap::new(),
            rr_cursor: 0,
            clock_base: SimTime::ZERO,
            crashes_survived: 0,
            lost_fault_events: 0,
            cfg,
        }
    }

    /// Fair-share weight of a tenant (default 1): how many pump actions it
    /// receives per scheduler rotation.
    pub fn set_weight(&mut self, tenant: u32, weight: u32) {
        self.weights.insert(tenant, weight.max(1));
    }

    /// Monotone virtual time, continuous across crash rebuilds.
    pub fn now(&self) -> SimTime {
        self.clock_base + self.gpu.host_now()
    }

    /// Offer a job. Shedding verdicts come back immediately; accepted jobs
    /// produce a [`JobResult`] once [`ServingRuntime::run_until_idle`]
    /// processes them.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, AccError> {
        let tenant = spec.tenant;
        let st = self.stats.entry(tenant).or_default();
        st.submitted += 1;
        let now = self.now();
        match self.queue.admit(spec, now) {
            Ok(id) => {
                self.stats.entry(tenant).or_default().admitted += 1;
                Ok(id)
            }
            Err(e) => {
                let st = self.stats.entry(tenant).or_default();
                match e {
                    AccError::QueueFull { .. } => st.shed_queue_full += 1,
                    AccError::QuotaExceeded { .. } => st.shed_quota += 1,
                    _ => {}
                }
                Err(e)
            }
        }
    }

    /// Drive the platform until every admitted job has a result.
    pub fn run_until_idle(&mut self) {
        while self.round() {}
    }

    /// Drive at most `n` scheduler rounds (dispatch, preemption checks,
    /// one pump rotation each); returns `false` once the runtime is idle.
    /// Callers use this to interleave submissions with service — an
    /// open-loop load generator, or a client whose high-priority job must
    /// arrive while lower-priority work already holds the device.
    pub fn run_rounds(&mut self, n: usize) -> bool {
        for _ in 0..n {
            if !self.round() {
                return false;
            }
        }
        true
    }

    /// One scheduler round; `false` means nothing is queued or active.
    fn round(&mut self) -> bool {
        if self.gpu.crashed() {
            self.recover_from_crash();
        }
        self.evacuate_lost_devices();
        let now = self.now();
        for e in self.queue.expire_deadlines(now) {
            self.finish_entry_expired(e, now);
        }
        if self.live_slot_count() == 0 {
            // Every device is gone: nothing can ever run again. Fail the
            // backlog with a typed verdict instead of idling forever —
            // an admitted job is never silently dropped.
            let device = self.gpu.lost_devices().first().copied().unwrap_or(0);
            for e in self.queue.drain_all() {
                self.record_result(
                    e.id,
                    e.spec.tenant,
                    Err(AccError::DeviceLost { device }),
                    e.submitted,
                    None,
                    e.retries,
                    e.preemptions,
                );
            }
            return false;
        }
        self.fill_slots();
        self.request_preemptions();
        if self.active.is_empty() {
            if self.queue.is_empty() {
                return false;
            }
            // Everything admitted is in retry backoff: idle the host
            // forward to the earliest eligible entry. (A non-empty queue
            // always has an earliest entry; treat the impossible case as
            // idle rather than panicking.)
            let Some(ready) = self.queue.earliest_ready() else {
                return false;
            };
            let now = self.now();
            if ready > now {
                self.gpu.host_work(ready - now, "serving-idle");
            }
            return true;
        }
        self.pump_rotation();
        true
    }

    /// Results accumulated so far (completed and failed jobs, in
    /// completion order).
    pub fn results(&self) -> &[JobResult] {
        &self.results
    }

    pub fn take_results(&mut self) -> Vec<JobResult> {
        std::mem::take(&mut self.results)
    }

    /// Jobs currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    pub fn tenant_stats(&self, tenant: u32) -> TenantStats {
        self.stats.get(&tenant).copied().unwrap_or_default()
    }

    /// Cross-tenant buffer touches observed by the platform — the
    /// isolation invariant; a correctly partitioned runtime holds this at
    /// zero (see [`GpuSystem::cross_tenant_touches`]).
    pub fn cross_tenant_touches(&self) -> u64 {
        self.gpu.cross_tenant_touches()
    }

    /// Scheduler-level hazard counters of the current platform.
    pub fn hazard_counters(&self) -> HazardCounters {
        self.gpu.hazard_counters()
    }

    /// Injected-fault counters of the current platform (post-crash
    /// platforms start fresh; [`ServingRuntime::crashes_survived`] plus
    /// this tells the whole story).
    pub fn fault_stats(&self) -> FaultStats {
        self.gpu.fault_stats()
    }

    /// Platform crashes absorbed by rebuild-and-restart.
    pub fn crashes_survived(&self) -> u64 {
        self.crashes_survived
    }

    /// Devices of the current platform the fault plan has killed.
    pub fn lost_devices(&self) -> Vec<usize> {
        self.gpu.lost_devices()
    }

    /// Injected fault events across all platforms this runtime has owned,
    /// including ones discarded after a crash.
    pub fn total_fault_events(&self) -> u64 {
        self.lost_fault_events + self.gpu.fault_stats().events()
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn weight(&self, tenant: u32) -> u32 {
        self.weights.get(&tenant).copied().unwrap_or(1)
    }

    /// Device a slot's stream and buffers live on.
    fn slot_device(&self, slot: usize) -> usize {
        slot % self.cfg.num_devices.max(1)
    }

    /// Slots still backed by live hardware.
    fn live_slot_count(&self) -> usize {
        self.slot_dead.iter().filter(|d| !**d).count()
    }

    /// First slot that is neither occupied nor retired by a device loss.
    fn live_free_slot(&self) -> Option<usize> {
        (0..self.slot_busy.len()).find(|&s| !self.slot_busy[s] && !self.slot_dead[s])
    }

    fn fill_slots(&mut self) {
        // A dead device retires its slots, so free capacity is the count
        // of live free slots — `active < max_active` alone no longer
        // implies a usable slot exists.
        while let Some(slot) = self.live_free_slot() {
            let now = self.now();
            let Some(entry) = self.queue.pop_dispatchable(now) else {
                break;
            };
            if let Err(entry) = self.activate(entry, slot) {
                // Device allocation refused (injected cudaMalloc fault):
                // treat as a job-level device failure — retry or fail.
                let bytes = (entry.spec.region_len * std::mem::size_of::<f64>()) as u64;
                self.retry_or_fail(entry, AccError::DeviceAlloc { bytes }, None);
            }
        }
    }

    /// Bring a queued entry onto `slot`'s device: fresh host slabs seeded
    /// from the spec or its checkpoint, device buffers, a slot stream.
    fn activate(&mut self, entry: QueuedJob, slot: usize) -> Result<(), QueuedJob> {
        let device = self.slot_device(slot);
        let spec = entry.spec.clone();
        // Resume point: a preempted job restarts at its checkpointed step
        // with the checkpointed bytes; a fresh (or retried) job restarts
        // from the seed. A blob that fails validation is treated as no
        // durable state — restart from the seed, which is always correct,
        // rather than panicking the runtime over one tenant's snapshot.
        let (start_step, region_data): (u64, Option<Vec<Vec<f64>>>) = match &entry.resume {
            Some(blob) => match Checkpoint::decode(blob) {
                Ok(ck) => (ck.step, Some(ck.region_data()[0].clone())),
                Err(_) => (0, None),
            },
            None => (0, None),
        };
        self.gpu.set_tenant(Some(spec.tenant));
        let mut host = Vec::with_capacity(spec.regions);
        let mut dev = Vec::with_capacity(spec.regions);
        let mut host_slabs = Vec::with_capacity(spec.regions);
        for r in 0..spec.regions {
            let slab = Slab::new(spec.region_len, self.cfg.backed);
            slab.with_mut(|data| {
                if let Some(data) = data {
                    match &region_data {
                        Some(rd) => data.copy_from_slice(&rd[r]),
                        None => spec.seed_region(r, data),
                    }
                }
            });
            match self.gpu.malloc_device_on(device, spec.region_len) {
                Ok(d) => dev.push(d),
                Err(_) => {
                    for d in dev {
                        self.gpu.free_device(d);
                    }
                    self.gpu.set_tenant(None);
                    return Err(entry);
                }
            }
            host.push(self.gpu.adopt_host_slab(slab.clone(), HostMemKind::Pinned));
            host_slabs.push(slab);
        }
        if self.streams[slot].is_none() {
            self.streams[slot] = Some(self.gpu.create_stream_on(device));
        }
        self.gpu.set_tenant(None);
        self.slot_busy[slot] = true;
        let started = self.now();
        self.active.push(ActiveJob {
            id: entry.id,
            spec,
            submitted: entry.submitted,
            started,
            retries: entry.retries,
            preemptions: entry.preemptions,
            slot,
            host,
            dev,
            host_slabs,
            step: start_step,
            phase: Phase::Load { next: 0 },
            checkpoint: entry.resume,
            preempt_requested: false,
        });
        Ok(())
    }

    /// Flag the lowest-priority active job for eviction when the queue
    /// holds strictly higher-priority work and every slot is taken. Jobs
    /// already draining are left to finish — their slot frees shortly.
    fn request_preemptions(&mut self) {
        if self.active.len() < self.cfg.max_active.max(1) {
            return;
        }
        let now = self.now();
        let Some(best_queued) = self.queue.best_priority(now) else {
            return;
        };
        let victim = self
            .active
            .iter_mut()
            .filter(|j| {
                !j.preempt_requested && matches!(j.phase, Phase::Load { .. } | Phase::Compute)
            })
            .min_by_key(|j| (j.spec.priority, std::cmp::Reverse(j.started)));
        if let Some(v) = victim {
            if v.spec.priority < best_queued {
                v.preempt_requested = true;
            }
        }
    }

    // ------------------------------------------------------------------
    // Pumping
    // ------------------------------------------------------------------

    /// One weighted round-robin rotation over the active set. Each job
    /// receives `weight(tenant)` pump actions; submissions from different
    /// tenants therefore interleave into different streams, which is what
    /// overlaps one tenant's transfers with another's compute.
    fn pump_rotation(&mut self) {
        let mut i = 0;
        let len = self.active.len();
        self.rr_cursor %= len.max(1);
        let mut order: Vec<usize> = (0..len).collect();
        order.rotate_left(self.rr_cursor);
        self.rr_cursor = (self.rr_cursor + 1) % len.max(1);
        // Indices shift as jobs retire, so walk by job id.
        let ids: Vec<JobId> = order.into_iter().map(|k| self.active[k].id).collect();
        while i < ids.len() {
            let id = ids[i];
            i += 1;
            let Some(idx) = self.active.iter().position(|j| j.id == id) else {
                continue;
            };
            let weight = self.weight(self.active[idx].spec.tenant);
            for _ in 0..weight {
                let Some(idx) = self.active.iter().position(|j| j.id == id) else {
                    break;
                };
                match self.pump_job(idx) {
                    Pump::Progress => {}
                    Pump::Preempted => break,
                    Pump::Done(outcome) => {
                        let job = self.active.remove(idx);
                        self.finish_active(job, outcome);
                        break;
                    }
                    Pump::Crashed => return,
                    Pump::Lost { device } => {
                        // Retire every slot on the dead device and requeue
                        // its jobs (this one included) from their durable
                        // state. Survivor slots keep pumping: the walk is
                        // by job id, so evacuated jobs are skipped.
                        self.retire_device(device);
                        break;
                    }
                }
            }
        }
    }

    /// Advance one job by one pipeline action.
    fn pump_job(&mut self, idx: usize) -> Pump {
        if self.gpu.crashed() {
            return Pump::Crashed;
        }
        let device = self.slot_device(self.active[idx].slot);
        if self.gpu.device_lost(device) {
            // The slot's device died between pumps (timed death, or a
            // sibling slot's transfer tripped the trigger): evacuate
            // instead of submitting to dead hardware.
            return Pump::Lost { device };
        }
        if self.active[idx].preempt_requested {
            return self.preempt(idx);
        }
        let tenant = self.active[idx].spec.tenant;
        self.gpu.set_tenant(Some(tenant));
        let out = self.pump_tagged(idx);
        self.gpu.set_tenant(None);
        out
    }

    fn pump_tagged(&mut self, idx: usize) -> Pump {
        let device = self.slot_device(self.active[idx].slot);
        // A slot's stream disappears only when the slot was retired by a
        // device loss; surface the loss instead of panicking.
        let Some(stream) = self.streams[self.active[idx].slot] else {
            return Pump::Lost { device };
        };
        let regions = self.active[idx].spec.regions;
        match self.active[idx].phase {
            Phase::Load { next } => {
                if let Err(e) = self.copy_region(idx, next, device, stream, true) {
                    return e;
                }
                self.active[idx].phase = if next + 1 < regions {
                    Phase::Load { next: next + 1 }
                } else {
                    Phase::Compute
                };
                Pump::Progress
            }
            Phase::Compute => {
                let j = &self.active[idx];
                if j.step >= j.spec.steps {
                    self.active[idx].phase = Phase::Drain { next: 0 };
                    return Pump::Progress;
                }
                let spec = j.spec.clone();
                let slabs: Vec<Slab> = j.dev.iter().map(|d| self.gpu.device_slab(*d)).collect();
                let mut launch = KernelLaunch::new("serving-step", KernelCost::Bytes(spec.bytes()))
                    .exec_if(self.cfg.backed, move || {
                        for slab in &slabs {
                            slab.with_mut(|data| {
                                if let Some(data) = data {
                                    for x in data.iter_mut() {
                                        *x = spec.step_value(*x);
                                    }
                                }
                            });
                        }
                    });
                for d in &self.active[idx].dev {
                    let key: BufKey = (*d).into();
                    launch = launch.reads(key).writes(key);
                }
                self.gpu.launch_kernel(stream, launch);
                if self.gpu.crashed() {
                    return Pump::Crashed;
                }
                if self.gpu.device_lost(device) {
                    // A timed death landed on the kernel submission: the
                    // step did not execute, so don't count it — the job
                    // recomputes it after evacuation.
                    return Pump::Lost { device };
                }
                self.active[idx].step += 1;
                Pump::Progress
            }
            Phase::Drain { next } => {
                if let Err(e) = self.copy_region(idx, next, device, stream, false) {
                    return e;
                }
                self.active[idx].phase = if next + 1 < regions {
                    Phase::Drain { next: next + 1 }
                } else {
                    Phase::Finalize
                };
                Pump::Progress
            }
            Phase::Finalize => self.finalize(idx, stream),
        }
    }

    /// Copy region `r` of job `idx` host→device (`to_device`) or back
    /// through the shared retry loop. A drain past the budget is salvaged
    /// instead of losing the computed bytes; a load past it fails the job.
    /// A device death surfaces as [`Pump::Lost`] so the job evacuates.
    fn copy_region(
        &mut self,
        idx: usize,
        r: usize,
        device: usize,
        stream: StreamId,
        to_device: bool,
    ) -> Result<(), Pump> {
        let j = &self.active[idx];
        let (h, d, len) = (j.host[r], j.dev[r], j.spec.region_len);
        let retry = self.cfg.transfer_retry;
        let t = if to_device {
            retry.transfer(&mut self.gpu, device, "serving-retry", |g| {
                g.memcpy_h2d_async(d, 0, h, 0, len, stream)
            })
        } else {
            retry.transfer(&mut self.gpu, device, "serving-retry", |g| {
                g.memcpy_d2h_async(h, 0, d, 0, len, stream)
            })
        };
        match t.outcome {
            Ok(_) => Ok(()),
            Err(TransferFailure::Crashed) => Err(Pump::Crashed),
            Err(TransferFailure::DeviceLost) => Err(Pump::Lost { device }),
            Err(f) if to_device => Err(Pump::Done(Err(f.acc_error(device, r)))),
            Err(TransferFailure::Exhausted) => {
                self.gpu.memcpy_d2h_salvage(h, 0, d, 0, len, stream);
                Ok(())
            }
        }
    }

    /// Sync the job's stream, verify its host mirrors, digest, release.
    fn finalize(&mut self, idx: usize, stream: StreamId) -> Pump {
        self.gpu.stream_synchronize(stream);
        if self.gpu.crashed() {
            return Pump::Crashed;
        }
        let j = &self.active[idx];
        for (r, h) in j.host.iter().enumerate() {
            if self.gpu.host_poisoned(*h) {
                return Pump::Done(Err(AccError::Integrity {
                    region: r,
                    kind: IntegrityKind::HostMirror,
                }));
            }
        }
        let digest = if self.cfg.backed {
            JobSpec::combine_digests(
                j.host_slabs
                    .iter()
                    .map(|s| s.with(|data| fnv1a64_f64s(data.expect("backed slab has data")))),
            )
        } else {
            // Timing-only platform: no bytes moved, report the reference.
            j.spec.golden_digest()
        };
        Pump::Done(Ok(digest))
    }

    // ------------------------------------------------------------------
    // Preemption
    // ------------------------------------------------------------------

    /// Evict a job at its current step boundary: drain its regions,
    /// snapshot through the TACK codec, free its slot, requeue.
    fn preempt(&mut self, idx: usize) -> Pump {
        let tenant = self.active[idx].spec.tenant;
        let device = self.slot_device(self.active[idx].slot);
        // As in pump_tagged: a missing stream means the slot was retired
        // by a device loss — evacuate rather than panic.
        let Some(stream) = self.streams[self.active[idx].slot] else {
            return Pump::Lost { device };
        };
        self.gpu.set_tenant(Some(tenant));
        // Make every submitted kernel's effect real before reading bytes.
        self.gpu.stream_synchronize(stream);
        if self.gpu.crashed() {
            self.gpu.set_tenant(None);
            return Pump::Crashed;
        }
        let regions = self.active[idx].spec.regions;
        // A job still loading has nothing new on the device; one that has
        // computed must drain. Either way the host slabs end up holding
        // the state at step `job.step`.
        if matches!(self.active[idx].phase, Phase::Compute | Phase::Drain { .. }) {
            for r in 0..regions {
                if let Err(e) = self.copy_region(idx, r, device, stream, false) {
                    self.gpu.set_tenant(None);
                    return e;
                }
            }
            self.gpu.stream_synchronize(stream);
            if self.gpu.crashed() {
                self.gpu.set_tenant(None);
                return Pump::Crashed;
            }
        }
        self.gpu.set_tenant(None);
        let mut job = self.active.remove(idx);
        let blob = if self.cfg.backed {
            let data: Vec<Vec<f64>> = job
                .host_slabs
                .iter()
                .map(|s| s.with(|d| d.expect("backed slab has data").to_vec()))
                .collect();
            Some(Checkpoint::from_region_data(job.step, vec![data]).encode())
        } else {
            // Timing-only: the "state" is just the step cursor.
            Some(Checkpoint::from_region_data(job.step, vec![vec![Vec::new(); regions]]).encode())
        };
        self.release_device(&mut job);
        self.stats.entry(job.spec.tenant).or_default().preemptions += 1;
        let mut entry = job.requeue_entry(self.now(), blob);
        entry.preemptions += 1;
        self.queue.requeue(entry);
        Pump::Preempted
    }

    // ------------------------------------------------------------------
    // Completion, failure, crash recovery
    // ------------------------------------------------------------------

    /// Sweep for devices the fault plan has killed since the last round
    /// and retire them. Idempotent: already-retired devices have no live
    /// slots or active jobs left to touch.
    fn evacuate_lost_devices(&mut self) {
        for d in self.gpu.lost_devices() {
            self.retire_device(d);
        }
    }

    /// A device died: retire its slots permanently (hardware gone until a
    /// platform rebuild) and drain-reschedule every job mapped to it.
    fn retire_device(&mut self, device: usize) {
        for s in 0..self.slot_dead.len() {
            if self.slot_device(s) == device {
                self.slot_dead[s] = true;
                self.streams[s] = None;
            }
        }
        let mut i = 0;
        while i < self.active.len() {
            if self.slot_device(self.active[i].slot) == device {
                let job = self.active.remove(i);
                self.evacuate_job(job);
            } else {
                i += 1;
            }
        }
    }

    /// Requeue a job whose device died, preserving its identity, submit
    /// time, and retry budget. The job's device buffers died with the
    /// hardware (nothing to free); its durable state is the last
    /// checkpoint blob or the seed, exactly as in crash recovery.
    fn evacuate_job(&mut self, mut job: ActiveJob) {
        job.dev.clear();
        self.slot_busy[job.slot] = false;
        self.stats.entry(job.spec.tenant).or_default().evacuated += 1;
        let resume = job.checkpoint.take();
        self.queue.requeue(job.requeue_entry(self.now(), resume));
    }

    fn release_device(&mut self, job: &mut ActiveJob) {
        for d in job.dev.drain(..) {
            self.gpu.free_device(d);
        }
        self.slot_busy[job.slot] = false;
    }

    fn finish_active(&mut self, mut job: ActiveJob, outcome: Result<u64, AccError>) {
        self.release_device(&mut job);
        let now = self.now();
        // A success that arrives after the deadline is still a miss.
        let outcome = match outcome {
            Ok(_) if job.spec.deadline.is_some_and(|d| now > d) => {
                Err(AccError::DeadlineExceeded {
                    tenant: job.spec.tenant,
                    job: job.id,
                })
            }
            other => other,
        };
        if let Err(
            e @ (AccError::TransferExhausted { .. }
            | AccError::Integrity { .. }
            | AccError::DeviceAlloc { .. }),
        ) = outcome
        {
            // Device-path failure: the job itself is fine — resubmit it
            // from scratch under the job-level retry budget.
            self.retry_or_fail(job.requeue_entry(now, None), e, None);
            return;
        }
        self.record_result(
            job.id,
            job.spec.tenant,
            outcome,
            job.submitted,
            Some(job.started),
            job.retries,
            job.preemptions,
        );
    }

    /// Resubmit a failed entry under the job retry budget, or emit its
    /// failure.
    fn retry_or_fail(&mut self, mut entry: QueuedJob, err: AccError, started: Option<SimTime>) {
        if self.cfg.job_retry.exhausted(entry.retries) {
            self.record_result(
                entry.id,
                entry.spec.tenant,
                Err(err),
                entry.submitted,
                started,
                entry.retries,
                entry.preemptions,
            );
            return;
        }
        let backoff = self.cfg.job_retry.backoff(entry.retries);
        entry.retries += 1;
        entry.not_before = self.now() + backoff;
        entry.resume = None;
        self.stats.entry(entry.spec.tenant).or_default().retries += 1;
        self.queue.requeue(entry);
    }

    fn finish_entry_expired(&mut self, e: QueuedJob, _now: SimTime) {
        self.record_result(
            e.id,
            e.spec.tenant,
            Err(AccError::DeadlineExceeded {
                tenant: e.spec.tenant,
                job: e.id,
            }),
            e.submitted,
            None,
            e.retries,
            e.preemptions,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn record_result(
        &mut self,
        job: JobId,
        tenant: u32,
        outcome: Result<u64, AccError>,
        submitted: SimTime,
        started: Option<SimTime>,
        retries: u32,
        preemptions: u32,
    ) {
        let st = self.stats.entry(tenant).or_default();
        match &outcome {
            Ok(_) => st.completed += 1,
            Err(AccError::DeadlineExceeded { .. }) => st.deadline_missed += 1,
            Err(_) => st.failed += 1,
        }
        self.results.push(JobResult {
            job,
            tenant,
            outcome,
            submitted,
            started,
            finished: self.now(),
            retries,
            preemptions,
        });
    }

    /// The platform died: fold its clock and counters into the runtime's,
    /// requeue every in-flight job from its last durable state (checkpoint
    /// blob or the seed), and bring up a fresh platform. The crash trigger
    /// is disarmed — a plan's crash fires once — while every other
    /// injection in the plan carries over.
    fn recover_from_crash(&mut self) {
        self.crashes_survived += 1;
        self.lost_fault_events += self.gpu.fault_stats().events();
        self.clock_base += self.gpu.host_now();
        let now = self.now();
        let jobs: Vec<ActiveJob> = self.active.drain(..).collect();
        for mut job in jobs {
            // Device state is gone and host slabs may hold a partial
            // drain; the durable state is the last checkpoint (or the
            // seed). Activation rebuilds host data from it.
            let resume = job.checkpoint.take();
            self.queue.requeue(job.requeue_entry(now, resume));
        }
        self.cfg.fault_plan.crash = None;
        let mut gpu = GpuSystem::multi(
            self.cfg.machine.clone(),
            self.cfg.num_devices.max(1),
            self.cfg.backed,
        );
        gpu.set_fault_plan(self.cfg.fault_plan.clone());
        self.gpu = gpu;
        self.streams = vec![None; self.cfg.max_active.max(1)];
        self.slot_busy = vec![false; self.cfg.max_active.max(1)];
        // Fresh platform, fresh hardware: retired slots come back.
        self.slot_dead = vec![false; self.cfg.max_active.max(1)];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ServingConfig {
        ServingConfig {
            max_active: 2,
            ..ServingConfig::default()
        }
    }

    #[test]
    fn clean_jobs_complete_with_golden_digests() {
        let mut rt = ServingRuntime::new(tiny_cfg());
        let specs: Vec<JobSpec> = (0..6)
            .map(|i| JobSpec::new(i % 3, 2, 64, 3, 100 + i as u64))
            .collect();
        for s in &specs {
            rt.submit(s.clone()).unwrap();
        }
        rt.run_until_idle();
        let results = rt.results();
        assert_eq!(results.len(), 6);
        for r in results {
            let spec = specs
                .iter()
                .find(|s| s.tenant == r.tenant && r.outcome == Ok(s.golden_digest()));
            assert!(
                spec.is_some(),
                "job {} of tenant {} must match a golden digest: {:?}",
                r.job,
                r.tenant,
                r.outcome
            );
            assert!(r.finished >= r.submitted);
        }
        assert_eq!(rt.cross_tenant_touches(), 0);
        assert_eq!(rt.hazard_counters().total(), 0);
        let t0 = rt.tenant_stats(0);
        assert_eq!(t0.completed, 2);
        assert_eq!(t0.failed, 0);
    }

    #[test]
    fn shedding_and_quota_protect_the_queue() {
        let mut rt = ServingRuntime::new(ServingConfig {
            max_queue_depth: 4,
            per_tenant_quota: 2,
            ..tiny_cfg()
        });
        assert!(rt.submit(JobSpec::new(0, 1, 16, 1, 1)).is_ok());
        assert!(rt.submit(JobSpec::new(0, 1, 16, 1, 2)).is_ok());
        assert_eq!(
            rt.submit(JobSpec::new(0, 1, 16, 1, 3)),
            Err(AccError::QuotaExceeded { tenant: 0 })
        );
        assert!(rt.submit(JobSpec::new(1, 1, 16, 1, 4)).is_ok());
        assert!(rt.submit(JobSpec::new(2, 1, 16, 1, 5)).is_ok());
        assert_eq!(
            rt.submit(JobSpec::new(3, 1, 16, 1, 6)),
            Err(AccError::QueueFull { tenant: 3 })
        );
        let st = rt.tenant_stats(0);
        assert_eq!(st.shed_quota, 1);
        assert_eq!(rt.tenant_stats(3).shed_queue_full, 1);
        rt.run_until_idle();
        assert_eq!(rt.results().len(), 4, "shed jobs never produce results");
    }

    #[test]
    fn impossible_deadline_fails_without_device_time() {
        let mut rt = ServingRuntime::new(tiny_cfg());
        // Fill both slots with real work, then queue a job whose deadline
        // is already hopeless.
        rt.submit(JobSpec::new(0, 2, 4096, 8, 1)).unwrap();
        rt.submit(JobSpec::new(0, 2, 4096, 8, 2)).unwrap();
        rt.submit(JobSpec::new(1, 1, 16, 1, 3).with_deadline(SimTime::from_ns(1)))
            .unwrap();
        rt.run_until_idle();
        let miss = rt
            .results()
            .iter()
            .find(|r| r.tenant == 1)
            .expect("deadline job has a result");
        assert!(matches!(
            miss.outcome,
            Err(AccError::DeadlineExceeded { tenant: 1, .. })
        ));
        assert_eq!(rt.tenant_stats(1).deadline_missed, 1);
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        let mut rt = ServingRuntime::new(ServingConfig {
            fault_plan: FaultPlan::none().with_seed(11).with_transient(0.2),
            ..tiny_cfg()
        });
        let specs: Vec<JobSpec> = (0..4)
            .map(|i| JobSpec::new(i % 2, 2, 64, 3, 500 + i as u64))
            .collect();
        for s in &specs {
            rt.submit(s.clone()).unwrap();
        }
        rt.run_until_idle();
        assert_eq!(rt.results().len(), 4);
        for r in rt.results() {
            assert!(r.outcome.is_ok(), "retries absorb transients: {r:?}");
        }
        assert!(
            rt.fault_stats().h2d_faults + rt.fault_stats().d2h_faults > 0,
            "the schedule did inject faults"
        );
    }

    #[test]
    fn priority_preempts_and_restores_bit_identically() {
        let mut rt = ServingRuntime::new(ServingConfig {
            max_active: 1,
            ..ServingConfig::default()
        });
        let long = JobSpec::new(0, 2, 256, 12, 7);
        let hot = JobSpec::new(1, 1, 64, 2, 8).with_priority(9);
        let golden_long = long.golden_digest();
        let long_id = rt.submit(long).unwrap();
        // Let the long job get onto the device before the VIP arrives.
        assert!(rt.run_rounds(6), "the long job alone keeps the device busy");
        rt.submit(hot.clone()).unwrap();
        rt.run_until_idle();
        let long_res = rt
            .results()
            .iter()
            .find(|r| r.job == long_id)
            .unwrap()
            .clone();
        assert_eq!(long_res.outcome, Ok(golden_long), "restored run matches");
        assert!(
            long_res.preemptions >= 1,
            "the VIP must have evicted the long job: {long_res:?}"
        );
        assert_eq!(rt.tenant_stats(0).preemptions, long_res.preemptions as u64);
        let hot_res = rt.results().iter().find(|r| r.tenant == 1).unwrap();
        assert_eq!(hot_res.outcome, Ok(hot.golden_digest()));
    }

    #[test]
    fn device_death_mid_flood_loses_no_admitted_jobs() {
        // Acceptance (b): 4 tenants flood a 2-device runtime open-loop;
        // device 1 dies mid-flood. Every admitted job must end golden (the
        // survivors absorb the evacuated work) — never silently dropped —
        // and no job-retry budget is consumed by the loss.
        let mut rt = ServingRuntime::new(ServingConfig {
            num_devices: 2,
            max_active: 4,
            fault_plan: FaultPlan::none()
                .with_device_death(gpu_sim::DeviceDeath::at_transfer(1, 6)),
            ..ServingConfig::default()
        });
        let mut admitted: Vec<(JobId, JobSpec)> = Vec::new();
        for wave in 0..4u64 {
            for t in 0..4u32 {
                let spec = JobSpec::new(t, 2, 64, 3, 1000 + wave * 4 + t as u64);
                let id = rt.submit(spec.clone()).unwrap();
                admitted.push((id, spec));
            }
            rt.run_rounds(3);
        }
        rt.run_until_idle();
        assert_eq!(rt.fault_stats().device_deaths, 1, "the seeded death fired");
        assert_eq!(rt.lost_devices(), vec![1]);
        assert_eq!(
            rt.results().len(),
            admitted.len(),
            "every admitted job has a terminal result"
        );
        for (id, spec) in &admitted {
            let r = rt.results().iter().find(|r| r.job == *id).unwrap();
            // The digest is a pure function of the spec, so golden here is
            // bit-identical to a solo run of the same job — bystander
            // tenants included.
            assert_eq!(r.outcome, Ok(spec.golden_digest()), "job {id} is golden");
            assert_eq!(r.retries, 0, "device loss must not burn retry budget");
        }
        let evacuated: u64 = (0..4).map(|t| rt.tenant_stats(t).evacuated).sum();
        assert!(evacuated > 0, "the death caught jobs mid-run");
        assert_eq!(rt.cross_tenant_touches(), 0);
        assert_eq!(rt.hazard_counters().total(), 0);
    }

    #[test]
    fn total_device_loss_fails_the_backlog_typed() {
        // Single device dies: nothing can ever run again. The backlog must
        // come back as typed DeviceLost failures, not hang or vanish.
        let mut rt = ServingRuntime::new(ServingConfig {
            fault_plan: FaultPlan::none()
                .with_device_death(gpu_sim::DeviceDeath::at_transfer(0, 3)),
            ..tiny_cfg()
        });
        for t in 0..3u32 {
            rt.submit(JobSpec::new(t, 2, 64, 3, 70 + t as u64)).unwrap();
        }
        rt.run_until_idle();
        assert_eq!(rt.results().len(), 3, "no admitted job is silently lost");
        let lost = rt
            .results()
            .iter()
            .filter(|r| matches!(r.outcome, Err(AccError::DeviceLost { device: 0 })))
            .count();
        assert!(lost > 0, "the loss surfaces typed");
        for r in rt.results() {
            assert!(
                r.outcome.is_ok() || matches!(r.outcome, Err(AccError::DeviceLost { .. })),
                "golden or typed, never anything else: {r:?}"
            );
        }
    }

    #[test]
    fn platform_crash_is_survived_and_results_stay_golden() {
        let mut rt = ServingRuntime::new(ServingConfig {
            fault_plan: FaultPlan::none().with_crash(gpu_sim::CrashFault::at_transfer(5)),
            ..tiny_cfg()
        });
        let specs: Vec<JobSpec> = (0..4)
            .map(|i| JobSpec::new(i, 2, 64, 3, 900 + i as u64))
            .collect();
        for s in &specs {
            rt.submit(s.clone()).unwrap();
        }
        rt.run_until_idle();
        assert_eq!(rt.crashes_survived(), 1, "the seeded crash fired");
        assert_eq!(rt.results().len(), 4);
        for (r, s) in rt.results().iter().map(|r| {
            let s = specs.iter().find(|s| s.tenant == r.tenant).unwrap();
            (r, s)
        }) {
            assert_eq!(r.outcome, Ok(s.golden_digest()), "rebuilt run is golden");
        }
    }
}
