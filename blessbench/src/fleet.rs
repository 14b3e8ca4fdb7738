//! `fleet`: the fleet10k shape, scaled down, through the streaming runner.
//!
//! Diurnal (Twitter-like) open-loop tenants, two per GPU, cycling the
//! 0.6/0.6/0.4/0.4 quota pattern on the per-resource interference arm,
//! served by `cluster::run_cluster_stream` on the shard pool. Exercises
//! placement, per-GPU assembly, the streaming fold and arrival generation.
//! Squads rarely span two tenants here, so it is the no-change control
//! for `core.predict` work.
//!
//! The untraced path exposes only a `FleetSummary`; the replay re-runs
//! every GPU sequentially from the same placement, with the same local
//! workload, seed offset and deployment, and must fold to the same digest.
//! Latency percentiles and deviation come from that replay.

use std::time::Instant;

use bless::{BlessDriver, BlessParams, DeployedApp};
use cluster::{
    place_with, run_cluster_stream, ClusterOptions, FleetSummary, Placement, PlacementError,
    PlacementPolicy, PlacementRequest,
};
use dnn_models::{AppModel, ModelKind, Phase};
use gpu_sim::{Gpu, GpuSpec, HostCosts, Simulation};
use metrics::Fnv;
use profiler::{AdmissionPolicy, ProfiledApp, SharedProfile};
use sim_core::{SimDuration, SimTime};
use workloads::{ArrivalPattern, TenantSpec, WorkloadSet};

use crate::probe::{timed_notices, SquadSink, SquadTotals, TimedDriver};
use crate::span::{span, Layer};
use crate::stats::{median, percentile_sorted, SimLatency};
use crate::{
    inputs_offered, log_counts, mean_deviation_ms, push_latencies, tenant_means, Check, Outcome,
    Replay, Workload,
};

/// The tenant cycle of the fleet10k experiment.
const CYCLE: [(ModelKind, f64); 4] = [
    (ModelKind::Bert, 0.6),
    (ModelKind::Vgg11, 0.6),
    (ModelKind::ResNet101, 0.4),
    (ModelKind::ResNet50, 0.4),
];

/// Equal resident footprint, so placement keeps the cycle interleaved.
const EQUAL_MEMORY_MIB: u64 = 1_200;

/// Simulated span of the diurnal trace.
const TRACE_SPAN: SimDuration = SimDuration::from_secs(60);

/// Horizon: twice the trace span, so every GPU drains.
const HORIZON: SimTime = SimTime::from_secs(120);

/// Fleet size and load.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// GPUs the tenants need (two tenants per GPU).
    pub gpus: usize,
    /// Mean requests per tenant over the trace span.
    pub reqs_per_tenant: usize,
}

impl Scale {
    /// The benchmark's scale: about 12k requests.
    pub const FULL: Scale = Scale {
        gpus: 120,
        reqs_per_tenant: 50,
    };
    /// A few hundred requests, for tests.
    pub const SMALL: Scale = Scale {
        gpus: 6,
        reqs_per_tenant: 6,
    };
}

/// Built inputs.
pub struct Setup {
    /// The GPU model (per-resource interference).
    pub spec: GpuSpec,
    /// Fleet tenants.
    pub ws: WorkloadSet,
    /// One shared profile per tenant.
    pub profiles: Vec<SharedProfile>,
    /// GPUs in the fleet.
    pub fleet_size: usize,
}

/// The `fleet` workload.
pub struct Fleet {
    /// Fleet size and load.
    pub scale: Scale,
}

/// One untraced `run_cluster_stream` call at `workers`.
pub fn stream(s: &Setup, workers: usize) -> FleetSummary {
    let opts = ClusterOptions {
        parallel: workers > 1,
        workers: Some(workers),
        ..ClusterOptions::default()
    };
    // The inputs are fixed to be placeable; a failure is a program error
    // and shows as a digest mismatch.
    run_cluster_stream(
        &s.ws,
        s.profiles.clone(),
        s.fleet_size,
        &s.spec,
        &BlessParams::default(),
        HORIZON,
        &opts,
    )
    .unwrap_or_else(|e| panic!("fleet placement failed: {e}"))
}

/// One placement request per tenant, in tenant order.
fn requests(s: &Setup) -> Vec<PlacementRequest> {
    s.profiles
        .iter()
        .zip(&s.ws.tenants)
        .map(|(p, t)| PlacementRequest {
            profile: SharedProfile::clone(p),
            quota: t.quota,
        })
        .collect()
}

/// First-fit placement of `requests`, as the streaming runner places them.
fn place(s: &Setup, requests: &[PlacementRequest]) -> Result<Placement, PlacementError> {
    place_with(
        requests,
        s.fleet_size,
        s.spec.memory_mib,
        &AdmissionPolicy::default(),
        &PlacementPolicy::FirstFit,
    )
}

/// GPU `g`'s local workload: its `tenants`' specs and the fleet seed
/// offset by `g`, as the runner assembles it.
fn local_workload(s: &Setup, tenants: &[usize], g: usize) -> WorkloadSet {
    WorkloadSet::new(
        tenants
            .iter()
            .map(|&t| {
                let spec = &s.ws.tenants[t];
                TenantSpec::new(spec.model.clone(), spec.quota, spec.pattern.clone())
            })
            .collect(),
        s.ws.seed.wrapping_add(g as u64),
    )
}

impl Workload for Fleet {
    type Setup = Setup;

    fn setup(&self, seed: u64) -> Setup {
        let spec = GpuSpec::a100_per_resource();
        let models: Vec<AppModel> = span(Layer::Models, || {
            CYCLE
                .iter()
                .map(|&(kind, _)| {
                    let mut m = AppModel::build(kind, Phase::Inference);
                    m.memory_mib = EQUAL_MEMORY_MIB;
                    m
                })
                .collect()
        });
        let kind_profiles: Vec<SharedProfile> = span(Layer::Profile, || {
            models
                .iter()
                .map(|m| ProfiledApp::profile_shared(m, &spec))
                .collect()
        });
        let n = 2 * self.scale.gpus;
        let mean_interval = SimDuration::from_nanos(
            TRACE_SPAN.as_nanos() / self.scale.reqs_per_tenant.max(1) as u64,
        );
        let tenants = (0..n)
            .map(|i| {
                TenantSpec::new(
                    models[i % CYCLE.len()].clone(),
                    CYCLE[i % CYCLE.len()].1,
                    ArrivalPattern::TwitterLike {
                        mean_interval,
                        cycle: SimDuration::from_secs(15),
                        horizon: SimTime::ZERO + TRACE_SPAN,
                    },
                )
            })
            .collect();
        let profiles = (0..n)
            .map(|i| SharedProfile::clone(&kind_profiles[i % CYCLE.len()]))
            .collect();
        Setup {
            spec,
            ws: WorkloadSet { tenants, seed },
            profiles,
            fleet_size: self.scale.gpus,
        }
    }

    /// Arrivals each placed GPU's local workload generates. They depend on
    /// the placement through the per-GPU seed offset.
    fn offered(&self, s: &Setup) -> u64 {
        let Ok(placement) = place(s, &requests(s)) else {
            return 0;
        };
        (0..placement.gpus_used)
            .map(|g| {
                let ws = local_workload(s, &placement.tenants_of(g), g);
                inputs_offered(&ws, &ws.initial_arrivals())
            })
            .sum()
    }

    fn run(&self, s: &Setup, workers: usize) -> Outcome {
        let sum = stream(s, workers);
        Outcome {
            offered: sum.arrived_requests,
            completed: sum.completed_requests,
            shed: 0,
            // Unfinished at the horizon.
            stranded: sum.arrived_requests.saturating_sub(sum.completed_requests),
            digest: sum.digest,
            latency: None,
            deviation_ms: None,
            recovery_max_ms: None,
        }
    }

    fn replay_workers(&self, _workers: usize) -> usize {
        1
    }

    fn replay(&self, s: &Setup, _workers: usize, reference: &Outcome) -> Replay {
        let requests = requests(s);
        let placed_at = Instant::now();
        let placement = span(Layer::Placement, || place(s, &requests));
        let place_s = placed_at.elapsed().as_secs_f64();
        let Ok(placement) = placement else {
            return Replay {
                checks: vec![Check::new("fleet: replay placement succeeds", false)],
                ..Replay::default()
            };
        };

        let mut fold = Fnv::new();
        let (mut offered, mut completed) = (0u64, 0u64);
        let mut latencies = Vec::new();
        let mut means = Vec::new();
        let mut gpu_ms = Vec::with_capacity(placement.gpus_used);
        let mut squads = SquadTotals::default();
        let mut kernels = 0u64;
        for g in 0..placement.gpus_used {
            let t0 = Instant::now();
            let tenants = placement.tenants_of(g);
            let (local_ws, apps) = span(Layer::Assembly, || {
                let local_ws = local_workload(s, &tenants, g);
                let apps: Vec<DeployedApp> = tenants
                    .iter()
                    .map(|&t| {
                        DeployedApp::new(
                            SharedProfile::clone(&requests[t].profile),
                            s.ws.tenants[t].quota,
                            None,
                        )
                    })
                    .collect();
                (local_ws, apps)
            });
            let arrivals = span(Layer::Arrivals, || local_ws.initial_arrivals());
            let driver = span(Layer::Runtime, || {
                TimedDriver::new(BlessDriver::new(apps.clone(), BlessParams::default()))
            });
            let sink = SquadSink::new(false);
            let mut sim = span(Layer::Engine, || {
                let mut gpu = Gpu::new(s.spec.clone(), HostCosts::paper());
                gpu.set_trace_sink(Box::new(sink.clone()));
                Simulation::new(gpu, driver, arrivals)
                    .with_notice_handler(timed_notices(local_ws.notice_handler()))
            });
            span(Layer::Engine, || sim.run(HORIZON));
            kernels += sim.driver.kernels;
            span(Layer::Assembly, || {
                let log = &sim.driver.inner.log;
                fold.write_u64(log.digest());
                let (o, c) = log_counts(log);
                offered += o;
                completed += c;
                push_latencies(log, &mut latencies);
                means.extend(tenant_means(log, &apps));
            });
            drop(sim);
            gpu_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            squads.add(&sink.take(), &apps, &s.spec);
        }
        let outcome = Outcome {
            offered,
            completed,
            shed: 0,
            stranded: offered.saturating_sub(completed),
            digest: fold.finish(),
            latency: Some(SimLatency::new(latencies)),
            deviation_ms: Some(mean_deviation_ms(&means)),
            recovery_max_ms: None,
        };
        let checks = vec![Check::new(
            "fleet: replay digest fold equals FleetSummary.digest",
            outcome.digest == reference.digest && outcome.offered == reference.offered,
        )];
        let p50 = median(&mut gpu_ms);
        let p99 = percentile_sorted(&gpu_ms, 0.99);
        let mut counters = squads.counters();
        counters.extend([
            ("gpu-sim.engine.kernels", kernels as f64),
            ("gpu-sim.engine.run_calls", placement.gpus_used as f64),
            (
                "cluster.placement.tenants_per_s",
                requests.len() as f64 / place_s.max(1e-9),
            ),
            ("cluster.run.gpus", placement.gpus_used as f64),
            ("cluster.run.gpu_ms_p50", p50),
            ("cluster.run.gpu_ms_p99", p99),
        ]);
        Replay {
            outcome,
            checks,
            counters,
        }
    }
}
