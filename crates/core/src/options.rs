//! Runtime configuration of the accelerator layer.

use crate::error::AccError;
use gpu_sim::{GpuSystem, OpId, SimTime};

/// How regions are mapped to device memory slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotPolicy {
    /// The paper's scheme: region `r` of array `a` statically maps to slot
    /// `(r * num_arrays + a) % num_slots`. Interleaving by array keeps the
    /// source and destination regions of one kernel in distinct slots
    /// whenever `num_slots >= num_arrays`.
    StaticInterleaved,
    /// Extension: any free slot, evicting the least-recently-used occupant
    /// when none is free. Avoids static collisions at the cost of a lookup.
    Lru,
    /// Extension: plan-aware eviction. When the step-plan recorder has
    /// detected a stable period (see `TileAcc::begin_step`), the victim is
    /// the resident region with the farthest predicted next use — Belady's
    /// algorithm over the predicted window. Falls back to LRU whenever no
    /// plan exists.
    ReuseDistance,
}

/// Bounded retry-with-backoff: how many times a transiently failed
/// operation is reattempted, and how long the host backs off before each
/// retry (doubling per attempt, capped at 16 doublings so the shift can
/// never overflow).
///
/// [`RetryPolicy::transfer`] is the stack's one transfer retry loop; the
/// serving layer's job-level admission retries use the same policy type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt before the operation is declared
    /// dead (0 = fail on the first fault).
    pub max_retries: u32,
    /// Host-side backoff charged before the first retry; doubles on each
    /// further attempt.
    pub base_backoff: SimTime,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: SimTime::from_us(20),
        }
    }
}

impl RetryPolicy {
    pub const fn new(max_retries: u32, base_backoff: SimTime) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff,
        }
    }

    /// A policy that never retries: the first fault is final.
    pub const fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: SimTime::ZERO,
        }
    }

    /// Whether `attempt` (0-based count of retries already spent) has
    /// exhausted the budget.
    pub fn exhausted(&self, attempt: u32) -> bool {
        attempt >= self.max_retries
    }

    /// Backoff charged before retry number `attempt` (0-based): the base
    /// doubled `attempt` times, capped at 16 doublings.
    pub fn backoff(&self, attempt: u32) -> SimTime {
        SimTime::from_ns(self.base_backoff.as_ns() << attempt.min(16))
    }

    /// Submit a transfer through `submit`, resubmitting each faulted attempt
    /// after [`RetryPolicy::backoff`] of host time (labelled `label`) until
    /// one goes through or the budget is spent. A fault on a crashed
    /// platform or a lost `device` is final: retrying dead hardware would
    /// misdiagnose it as transient. Callers keep what differs: salvage or
    /// host fallback, their typed error, and feeding a health monitor.
    pub fn transfer(
        &self,
        gpu: &mut GpuSystem,
        device: usize,
        label: &'static str,
        mut submit: impl FnMut(&mut GpuSystem) -> OpId,
    ) -> Retried {
        let mut retries = 0;
        loop {
            let op = submit(gpu);
            // Dead hardware faults every submission: clean ops are live.
            let failure = if !gpu.op_faulted(op) {
                None
            } else if gpu.crashed() {
                Some(TransferFailure::Crashed)
            } else if gpu.device_lost(device) {
                Some(TransferFailure::DeviceLost)
            } else if self.exhausted(retries) {
                Some(TransferFailure::Exhausted)
            } else {
                gpu.backoff_work(self.backoff(retries), label);
                retries += 1;
                continue;
            };
            return Retried {
                outcome: failure.map_or(Ok(op), Err),
                retries,
                faults: retries + u32::from(failure == Some(TransferFailure::Exhausted)),
            };
        }
    }
}

/// Why [`RetryPolicy::transfer`] gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferFailure {
    /// The platform crashed: nothing submitted to it will complete.
    Crashed,
    /// The transfer's device was lost; the rest of the platform runs on.
    DeviceLost,
    /// Every attempt the budget allows faulted.
    Exhausted,
}

impl TransferFailure {
    /// The runtime error this failure surfaces as for `region` on `device`.
    pub fn acc_error(self, device: usize, region: usize) -> AccError {
        match self {
            TransferFailure::Crashed => AccError::Crashed,
            TransferFailure::DeviceLost => AccError::DeviceLost { device },
            TransferFailure::Exhausted => AccError::TransferExhausted { region },
        }
    }
}

/// What [`RetryPolicy::transfer`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retried {
    /// The op that carried the data, or why no attempt did.
    pub outcome: Result<OpId, TransferFailure>,
    /// Attempts resubmitted after a backoff.
    pub retries: u32,
    /// Attempts that faulted on live hardware: every retried one, plus the
    /// last when the budget ran out.
    pub faults: u32,
}

/// When an evicted region's device data is copied back to the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritebackPolicy {
    /// The paper's behaviour: every eviction queues a device→host transfer.
    Always,
    /// Extension: skip the transfer when no kernel has written the slot
    /// since it was loaded (the host copy is still current).
    DirtyOnly,
}

/// Options for [`crate::TileAcc`].
#[derive(Debug, Clone)]
pub struct AccOptions {
    pub policy: SlotPolicy,
    pub writeback: WritebackPolicy,
    /// Artificial cap on the number of device slots, regardless of free
    /// memory — how the paper limits the GPU to two regions in Fig. 7/8.
    pub max_slots: Option<usize>,
    /// Fraction of free device memory the slot pool may claim.
    pub mem_fraction: f64,
    /// Initial execution mode (the tile iterator's `reset(GPU=...)`).
    pub gpu: bool,
    /// Efficiency of the library's kernels. TiDA-acc kernels are generated
    /// by the OpenACC compiler from the `compute` lambda (§IV-B-5); the
    /// library supplies `collapse`/`deviceptr` hints and launches one kernel
    /// per region, which the cost model credits as near-tuned (0.95) rather
    /// than hand-tuned CUDA (1.0).
    pub kernel_efficiency: f64,
    /// Upload a region that the next kernel fully overwrites. `false`
    /// (default) skips the host→device copy when `compute`'s destination
    /// tile covers the region's whole valid box — without this, the heat
    /// solver moves twice the necessary data and the paper's low-iteration
    /// wins (Fig. 5) are impossible, so the original library must have had
    /// an equivalent. Set `true` to measure the difference (ablation).
    pub upload_written_regions: bool,
    /// Run ghost-cell updates on the device when regions are resident
    /// (§IV-B-6). `false` forces every ghost patch onto the host path —
    /// the ablation for the paper's device-update design choice.
    pub ghost_on_device: bool,
    /// Synchronize the whole device before each ghost exchange, as the
    /// paper does (`acc wait`, §IV-B-6). `false` is the barrier-free
    /// extension: per-slot event ordering replaces the global barrier, so
    /// the exchange of one region overlaps compute still draining on
    /// others.
    pub ghost_barrier: bool,
    /// Launch one combined gather kernel per destination region instead of
    /// one kernel per patch (extension): same traffic, ~6× fewer launches
    /// for face exchanges.
    pub ghost_batching: bool,
    /// Lookahead window (in steps) of the automatic overlap scheduler:
    /// while step `k`'s kernels drain, `TileAcc::begin_step` issues the
    /// predicted host→device loads for steps `k..k+lookahead` into idle
    /// slot streams, capped at free-slot capacity. `0` (default) disables
    /// automatic prefetching; the step-plan recorder still runs so
    /// `SlotPolicy::ReuseDistance` can victimize by reuse distance.
    pub lookahead: usize,
    /// Retry-with-backoff budget for transient transfer faults; exhausting
    /// it declares the device path dead and degrades to the host.
    pub retry: RetryPolicy,
}

impl Default for AccOptions {
    fn default() -> Self {
        AccOptions {
            policy: SlotPolicy::StaticInterleaved,
            writeback: WritebackPolicy::Always,
            max_slots: None,
            mem_fraction: 0.95,
            gpu: true,
            kernel_efficiency: 0.95,
            upload_written_regions: false,
            ghost_on_device: true,
            ghost_barrier: true,
            ghost_batching: false,
            lookahead: 0,
            retry: RetryPolicy::default(),
        }
    }
}

impl AccOptions {
    /// The paper's configuration (static slots, unconditional write-back).
    pub fn paper() -> Self {
        Self::default()
    }

    pub fn with_max_slots(mut self, n: usize) -> Self {
        self.max_slots = Some(n);
        self
    }

    pub fn with_policy(mut self, p: SlotPolicy) -> Self {
        self.policy = p;
        self
    }

    pub fn with_writeback(mut self, w: WritebackPolicy) -> Self {
        self.writeback = w;
        self
    }

    pub fn with_transfer_retries(mut self, n: u32) -> Self {
        self.retry.max_retries = n;
        self
    }

    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    pub fn with_lookahead(mut self, steps: usize) -> Self {
        self.lookahead = steps;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{CrashFault, DeviceDeath, FaultPlan, HostMemKind, MachineConfig, TransferFaults};

    #[test]
    fn defaults_match_paper() {
        let o = AccOptions::paper();
        assert_eq!(o.policy, SlotPolicy::StaticInterleaved);
        assert_eq!(o.writeback, WritebackPolicy::Always);
        assert_eq!(o.max_slots, None);
        assert!(o.gpu);
        assert_eq!(o.lookahead, 0, "automatic prefetch is opt-in");
    }

    #[test]
    fn builders_apply() {
        let o = AccOptions::default()
            .with_max_slots(2)
            .with_policy(SlotPolicy::ReuseDistance)
            .with_writeback(WritebackPolicy::DirtyOnly)
            .with_lookahead(2);
        assert_eq!(o.max_slots, Some(2));
        assert_eq!(o.policy, SlotPolicy::ReuseDistance);
        assert_eq!(o.writeback, WritebackPolicy::DirtyOnly);
        assert_eq!(o.lookahead, 2);
    }

    #[test]
    fn retry_defaults_are_bounded() {
        let o = AccOptions::default();
        assert_eq!(o.retry.max_retries, 3);
        assert!(o.retry.base_backoff > SimTime::ZERO);
        assert_eq!(o.with_transfer_retries(9).retry.max_retries, 9);
    }

    /// One table row: a seeded fault plan and what one H2D transfer under
    /// the default policy (3 retries, 20 µs base) must report.
    struct Case {
        name: &'static str,
        plan: FaultPlan,
        outcome: Result<(), TransferFailure>,
        retries: u32,
        faults: u32,
    }

    /// Plan whose H2D lane faults transiently at rate 0.5. Under these
    /// seeds the leading attempts fault exactly this many times in a row:
    /// seed 6 → 2, seed 13 → 3, seed 7 → 5.
    fn transient(seed: u64) -> FaultPlan {
        FaultPlan {
            h2d: TransferFaults {
                transient_rate: 0.5,
                ..TransferFaults::default()
            },
            ..FaultPlan::none().with_seed(seed)
        }
    }

    #[test]
    fn transfer_retries_transients_and_stops_on_dead_hardware() {
        let cases = [
            Case {
                name: "clean copy",
                plan: FaultPlan::none(),
                outcome: Ok(()),
                retries: 0,
                faults: 0,
            },
            Case {
                name: "two transients",
                plan: transient(6),
                outcome: Ok(()),
                retries: 2,
                faults: 2,
            },
            Case {
                name: "three transients, the whole budget",
                plan: transient(13),
                outcome: Ok(()),
                retries: 3,
                faults: 3,
            },
            Case {
                name: "five transients exhaust three retries",
                plan: transient(7),
                outcome: Err(TransferFailure::Exhausted),
                retries: 3,
                faults: 4,
            },
            Case {
                name: "dead lane",
                plan: FaultPlan {
                    h2d: TransferFaults {
                        fail_after: Some(0),
                        ..TransferFaults::default()
                    },
                    ..FaultPlan::none()
                },
                outcome: Err(TransferFailure::Exhausted),
                retries: 3,
                faults: 4,
            },
            Case {
                name: "crash on the third attempt",
                plan: transient(6).with_crash(CrashFault::at_transfer(3)),
                outcome: Err(TransferFailure::Crashed),
                retries: 2,
                faults: 2,
            },
            Case {
                name: "device death on the third attempt",
                plan: transient(6).with_device_death(DeviceDeath::at_transfer(1, 3)),
                outcome: Err(TransferFailure::DeviceLost),
                retries: 2,
                faults: 2,
            },
        ];
        let policy = RetryPolicy::default();
        for c in cases {
            let mut gpu = GpuSystem::multi(MachineConfig::k40m().with_faults(c.plan), 2, false);
            gpu.set_tracing(true);
            let host = gpu.malloc_host(4096, HostMemKind::Pinned);
            let dev = gpu.malloc_device_on(1, 4096).unwrap();
            let stream = gpu.create_stream_on(1);
            let t = policy.transfer(&mut gpu, 1, "h2d-retry-backoff", |g| {
                g.memcpy_h2d_async(dev, 0, host, 0, 4096, stream)
            });
            assert_eq!(t.outcome.map(|_| ()), c.outcome, "{}", c.name);
            assert_eq!((t.retries, t.faults), (c.retries, c.faults), "{}", c.name);
            // Retry i waits base·2^i of host time before resubmitting.
            let backoff: u64 = (gpu.trace().spans.iter())
                .filter(|s| s.category == "backoff")
                .map(|s| (s.end - s.start).as_ns())
                .sum();
            let expected: u64 = (0..c.retries).map(|i| 20_000 << i).sum();
            assert_eq!(backoff, expected, "{}", c.name);
        }
    }

    #[test]
    fn retry_policy_backoff_doubles_and_caps() {
        let p = RetryPolicy::new(3, SimTime::from_us(20));
        assert_eq!(p.backoff(0), SimTime::from_us(20));
        assert_eq!(p.backoff(1), SimTime::from_us(40));
        assert_eq!(p.backoff(2), SimTime::from_us(80));
        // The doubling caps at 16 shifts so huge attempt counts can't
        // overflow the nanosecond arithmetic.
        assert_eq!(p.backoff(16), p.backoff(40));
        assert!(!p.exhausted(2));
        assert!(p.exhausted(3));
        assert!(RetryPolicy::none().exhausted(0));
        assert_eq!(RetryPolicy::none().backoff(0), SimTime::ZERO);
    }
}
