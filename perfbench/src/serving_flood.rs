//! `serving-flood`: 1000 jobs of three sizes from 4 tenants, all offered
//! at t=0 to a `ServingRuntime` with `max_active` = 4 and 5% transient
//! transfer faults.
//!
//! This is a closed batch, not an open loop: `ServingRuntime` has no
//! public way to advance the simulated clock to a future arrival while it
//! is idle, so every job is submitted before service starts. Admission,
//! fair-share rotation and per-transfer retry do the work; `tida` and the
//! cache list are bypassed.

use crate::span::span;
use crate::stats::percentile;
use crate::workload::{ratio, Layers, Sim, Verdict, Workload};
use gpu_sim::FaultPlan;
use serving::{JobId, JobSpec, ServingConfig, ServingRuntime};
use std::collections::HashMap;
use tida_acc::AccError;

pub const JOBS: usize = 1000;
pub const TENANTS: u32 = 4;
pub const MAX_ACTIVE: usize = 4;
pub const FAULT_RATE: f64 = 0.05;
/// Seed 0 reproduces the serving bench: job `i` has data seed
/// `0x5e21 + i` and the fault plan seed `0xFA`.
const JOB_SEED_BASE: u64 = 0x5e21;
const FAULT_SEED: u64 = 0xFA;

/// SplitMix64: the seeded stream behind the job-mix shuffle.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The offered jobs of workload seed `seed`. Sizes cycle through three
/// classes (the serving bench's mix); a nonzero seed permutes the classes
/// within each consecutive triple of jobs, so the order changes while the
/// mix stays balanced at every point of the flood, and shifts every job's
/// data seed. Tenants rotate.
pub fn job_list(seed: u64) -> Vec<JobSpec> {
    let mut classes: Vec<usize> = (0..JOBS).map(|i| i % 3).collect();
    if seed != 0 {
        let mut state = seed;
        for triple in classes.chunks_mut(3) {
            for i in (1..triple.len()).rev() {
                let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
                triple.swap(i, j);
            }
        }
    }
    classes
        .iter()
        .enumerate()
        .map(|(i, &class)| {
            let tenant = i as u32 % TENANTS;
            let data_seed = JOB_SEED_BASE + i as u64 + seed.wrapping_mul(JOBS as u64);
            match class {
                0 => JobSpec::new(tenant, 1, 64, 2, data_seed),
                1 => JobSpec::new(tenant, 2, 512, 4, data_seed),
                _ => JobSpec::new(tenant, 1, 4096, 8, data_seed),
            }
        })
        .collect()
}

/// The transient-fault plan of workload seed `seed`.
pub fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::none()
        .with_seed(FAULT_SEED.wrapping_add(seed))
        .with_transient(FAULT_RATE)
}

/// Simulated outcome of one flood, which every run must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct FloodSim {
    pub sim: Sim,
    pub xfer_faults: u64,
}

pub struct FloodOutcome {
    pub rt: ServingRuntime,
    /// `submit`'s answer for each offered job, in offer order.
    pub admitted: Vec<Result<JobId, AccError>>,
}

pub struct ServingFlood {
    specs: Vec<JobSpec>,
    golden: Vec<u64>,
    plan: FaultPlan,
    expected: Option<FloodSim>,
}

impl ServingFlood {
    pub fn new(seed: u64) -> ServingFlood {
        let specs = job_list(seed);
        let golden = specs.iter().map(JobSpec::golden_digest).collect();
        ServingFlood {
            specs,
            golden,
            plan: fault_plan(seed),
            expected: None,
        }
    }

    /// Check `o` against the golden digests: the simulated outcome, the
    /// failed jobs, and every problem found. Flood-wide problems (hazards,
    /// cross-tenant touches) fail every offered job.
    fn judge(&self, o: &FloodOutcome) -> (FloodSim, u64, Vec<String>) {
        let mut problems = Vec::new();
        let mut failures = 0u64;
        let mut index: HashMap<JobId, usize> = HashMap::new();
        for (i, a) in o.admitted.iter().enumerate() {
            match a {
                Ok(id) => {
                    index.insert(*id, i);
                }
                Err(e) => {
                    failures += 1;
                    problems.push(format!("job {i} shed: {e}"));
                }
            }
        }
        let results = o.rt.results();
        if results.len() != index.len() {
            failures += index.len().abs_diff(results.len()) as u64;
            problems.push(format!(
                "{} jobs admitted, {} results",
                index.len(),
                results.len()
            ));
        }
        let mut lat = Vec::with_capacity(results.len());
        for r in results {
            let ok = match (&r.outcome, index.get(&r.job)) {
                (Ok(d), Some(&i)) => *d == self.golden[i],
                _ => false,
            };
            if ok {
                lat.push(r.latency().as_ns() as f64 / 1e6);
            } else {
                failures += 1;
                problems.push(format!(
                    "job {:?}: {:?} is not its golden digest",
                    r.job, r.outcome
                ));
            }
        }
        if o.rt.cross_tenant_touches() != 0 {
            problems.push(format!(
                "{} cross-tenant touches",
                o.rt.cross_tenant_touches()
            ));
        }
        if o.rt.hazard_counters().total() != 0 {
            problems.push(format!("{} hazards", o.rt.hazard_counters().total()));
        }
        lat.sort_by(f64::total_cmp);
        let makespan = o.rt.now();
        let at = |permille| {
            if lat.is_empty() {
                0.0
            } else {
                percentile(&lat, permille)
            }
        };
        let fs = o.rt.fault_stats();
        let sim = FloodSim {
            sim: Sim {
                makespan_ms: makespan.as_ms_f64(),
                jobs_per_s: lat.len() as f64 / makespan.as_secs_f64(),
                job_latency_p50_ms: at(500),
                job_latency_p99_ms: at(990),
            },
            xfer_faults: fs.h2d_faults + fs.d2h_faults,
        };
        (sim, failures, problems)
    }
}

impl Workload for ServingFlood {
    type Outcome = FloodOutcome;

    fn verify(&mut self) -> Result<(), String> {
        let o = self.run(false);
        let (sim, _, problems) = self.judge(&o);
        if let Some(p) = problems.first() {
            return Err(format!("verification flood failed: {p}"));
        }
        self.expected = Some(sim);
        Ok(())
    }

    fn run(&mut self, _traced: bool) -> FloodOutcome {
        let mut rt = ServingRuntime::new(ServingConfig {
            max_queue_depth: JOBS + 8,
            per_tenant_quota: JOBS,
            max_active: MAX_ACTIVE,
            fault_plan: self.plan.clone(),
            ..ServingConfig::default()
        });
        let admitted = self
            .specs
            .iter()
            .map(|s| span("serving.submit", || rt.submit(s.clone())))
            .collect();
        span("serving.run_until_idle", || rt.run_until_idle());
        FloodOutcome { rt, admitted }
    }

    fn check(&self, o: &FloodOutcome) -> Verdict {
        let (sim, mut failures, mut problems) = self.judge(o);
        let expected = self.expected.as_ref().expect("verify() runs first");
        if &sim != expected {
            // A flood that schedules differently fails every offered job.
            failures = o.admitted.len() as u64;
            problems.push(format!(
                "simulated outcome differs from the verified flood: {sim:?} != {expected:?}"
            ));
        }
        Verdict {
            attempts: o.admitted.len() as u64,
            failures,
            problems,
            sim: sim.sim,
        }
    }

    fn layers(&self, o: &mut FloodOutcome, out: &mut Layers) {
        let results = o.rt.results();
        let mut wait = Vec::with_capacity(results.len());
        let mut service = Vec::with_capacity(results.len());
        for r in results {
            if let Some(started) = r.started {
                wait.push((started - r.submitted).as_ms_f64());
                service.push((r.finished - started).as_ms_f64());
            }
        }
        wait.sort_by(f64::total_cmp);
        service.sort_by(f64::total_cmp);
        if !wait.is_empty() {
            out.insert("serving.queue_wait_ms.p50", percentile(&wait, 500));
            out.insert("serving.queue_wait_ms.p99", percentile(&wait, 990));
            out.insert("serving.service_ms.p50", percentile(&service, 500));
        }
        let (mut retries, mut preemptions, mut shed, mut completed) = (0, 0, 0, 0);
        for t in 0..TENANTS {
            let st = o.rt.tenant_stats(t);
            retries += st.retries;
            preemptions += st.preemptions;
            shed += st.shed_queue_full + st.shed_quota;
            completed += st.completed;
        }
        let fs = o.rt.fault_stats();
        out.insert("serving.retries", retries as f64);
        out.insert("serving.preemptions", preemptions as f64);
        out.insert("serving.shed", shed as f64);
        out.insert(
            "serving.goodput_ratio",
            ratio(completed as f64, (completed + retries) as f64),
        );
        out.insert(
            "gpu-sim.xfer_faults",
            (fs.h2d_faults + fs.d2h_faults) as f64,
        );
        out.insert(
            "serving.cross_tenant_touches",
            o.rt.cross_tenant_touches() as f64,
        );
        out.insert("gpu-sim.hazards", o.rt.hazard_counters().total() as f64);
    }
}
