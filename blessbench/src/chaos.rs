//! `chaos`: `cluster::run_chaos` on a periodic open-loop fleet under
//! seeded GPU kills and hangs.
//!
//! Tenants mix 0.6- and 0.1-quota VGG-11 inference services, so
//! first-fit placement leaves a gap on every device: most evacuees of a
//! killed GPU re-place, the large ones strand. Exercises quiesce, checkpoint,
//! evacuation and restore; the only workload where requests fail by
//! design. `run_chaos` is one opaque call from outside, so its host time
//! is one layer.

use std::time::Instant;

use bless::BlessParams;
use cluster::{run_chaos, ChaosOptions, ChaosRun, FaultKind};
use dnn_models::{AppModel, ModelKind, Phase};
use gpu_sim::GpuSpec;
use metrics::RequestLog;
use profiler::{ProfiledApp, SharedProfile};
use sim_core::{FaultSpec, SimDuration, SimRng, SimTime};
use workloads::{ArrivalPattern, TenantSpec, WorkloadSet};

use crate::span::{span, Layer};
use crate::stats::{ratio, SimLatency};
use crate::{
    inputs_offered, log_counts, mean_deviation_ms, push_latencies, Check, Outcome, Replay, Workload,
};

/// The tenant cycle: `(quota, inter-arrival period)`. One large tenant
/// opens each device and two small ones share it, leaving a fifth of it
/// free: small evacuees fit in those gaps, large ones strand.
const CYCLE: [(f64, SimDuration); 3] = [
    (0.6, SimDuration::from_millis(25)),
    (0.1, SimDuration::from_millis(100)),
    (0.1, SimDuration::from_millis(100)),
];

/// Virtual span every tenant's periodic arrivals cover.
const SPAN: SimDuration = SimDuration::from_secs(10);

/// Simulated horizon; surviving devices drain well before it.
const HORIZON: SimTime = SimTime::from_secs(120);

/// Fleet size, load and fault counts.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// GPUs in the fleet; placement may leave some unused.
    pub gpus: usize,
    /// Tenants placed on the fleet.
    pub tenants: usize,
    /// Share of [`SPAN`] the arrivals cover (1 = the whole span).
    pub span_frac: f64,
    /// Permanent device failures.
    pub fails: u32,
    /// Transient device hangs.
    pub hangs: u32,
}

impl Scale {
    /// The benchmark's scale: 30k requests.
    pub const FULL: Scale = Scale {
        gpus: 64,
        tenants: 150,
        span_frac: 1.0,
        fails: 6,
        hangs: 6,
    };
    /// A few hundred requests, for tests.
    pub const SMALL: Scale = Scale {
        gpus: 8,
        tenants: 15,
        span_frac: 0.05,
        fails: 1,
        hangs: 1,
    };
}

/// Built inputs.
pub struct Setup {
    /// The GPU model.
    pub spec: GpuSpec,
    /// Fleet tenants.
    pub ws: WorkloadSet,
    /// One shared profile per tenant.
    pub profiles: Vec<SharedProfile>,
    /// ISO latency target per tenant.
    pub iso: Vec<SimDuration>,
    /// GPUs in the fleet.
    pub fleet_size: usize,
    /// The kill/hang schedule's parameters.
    pub faults: FaultSpec,
    /// Seed of the kill/hang schedule.
    pub fault_seed: u64,
}

/// The `chaos` workload.
pub struct Chaos {
    /// Fleet size, load and fault counts.
    pub scale: Scale,
}

/// One `run_chaos` call at `workers` under `faults`.
pub fn chaos_run(s: &Setup, workers: usize, faults: &FaultSpec) -> ChaosRun {
    let opts = ChaosOptions {
        parallel: workers > 1,
        workers: Some(workers),
        ..ChaosOptions::default()
    };
    run_chaos(
        &s.ws,
        s.profiles.clone(),
        s.fleet_size,
        &s.spec,
        &BlessParams::default(),
        HORIZON,
        s.fault_seed,
        faults,
        &opts,
    )
    .unwrap_or_else(|e| panic!("chaos placement failed: {e}"))
}

/// Offset of tenant `i`'s first arrival: a low-discrepancy point of the
/// period (golden-ratio sequence), jittered by up to 5% of it from the
/// seed. Tenants sharing a device never start in lockstep, so no single
/// device's phase luck sets the fleet's tail.
fn stagger(i: usize, period: SimDuration, rng: &mut SimRng) -> SimDuration {
    let phase = (i as f64 * 0.618_033_988_749_895).fract();
    let jitter = rng.uniform(0.0, 0.05);
    period.mul_f64((phase + jitter).fract())
}

/// The outcome of one chaos run. Stranded requests are the stranded
/// tenants' reported losses plus the other tenants' requests unfinished at
/// the horizon, so conservation checks the reported losses against the log.
fn outcome(s: &Setup, run: &ChaosRun) -> Outcome {
    let log: &RequestLog = &run.log;
    let (offered, completed) = log_counts(log);
    let lost: usize = run.stranded.iter().map(|t| t.lost_requests).sum();
    let unfinished: usize = (0..log.apps())
        .filter(|&a| run.stranded.iter().all(|t| t.tenant != a))
        .map(|a| log.records(a).len() - log.completed_count(a))
        .sum();
    let mut latencies = Vec::new();
    push_latencies(log, &mut latencies);
    let means: Vec<_> = (0..log.apps())
        .filter_map(|a| log.stats(a).mean.map(|m| (m, s.iso[a])))
        .collect();
    let recovery = run
        .migrations
        .iter()
        .map(|m| m.recovery().as_nanos())
        .max()
        .unwrap_or(0);
    Outcome {
        offered,
        completed,
        shed: 0,
        stranded: (lost + unfinished) as u64,
        digest: log.digest(),
        latency: Some(SimLatency::new(latencies)),
        deviation_ms: Some(mean_deviation_ms(&means)),
        recovery_max_ms: Some(recovery as f64 / 1e6),
    }
}

impl Workload for Chaos {
    type Setup = Setup;

    fn setup(&self, seed: u64) -> Setup {
        let spec = GpuSpec::a100();
        let model = span(Layer::Models, || {
            AppModel::build(ModelKind::Vgg11, Phase::Inference)
        });
        let profile = span(Layer::Profile, || {
            ProfiledApp::profile_shared(&model, &spec)
        });
        let sc = self.scale;
        let span_end = SimTime::ZERO + SPAN.mul_f64(sc.span_frac);
        let tenants: Vec<TenantSpec> = span(Layer::Arrivals, || {
            let mut rng = SimRng::new(seed);
            (0..sc.tenants)
                .map(|i| {
                    let (quota, period) = CYCLE[i % CYCLE.len()];
                    TenantSpec::new(
                        model.clone(),
                        quota,
                        ArrivalPattern::Periodic {
                            period,
                            count: (span_end.as_nanos() / period.as_nanos()) as usize,
                            offset: stagger(i, period, &mut rng),
                        },
                    )
                })
                .collect()
        });
        let iso = tenants
            .iter()
            .map(|t| profile.iso_latency_for_quota(t.quota))
            .collect();
        let window = (
            SimTime::from_nanos(span_end.as_nanos() / 5),
            SimTime::from_nanos(span_end.as_nanos() * 4 / 5),
        );
        let faults = FaultSpec {
            gpu_fail_count: sc.fails,
            gpu_fail_window: window,
            gpu_hang_count: sc.hangs,
            gpu_hang_window: window,
            gpu_hang_len: SimDuration::from_millis(3),
            ..FaultSpec::default()
        };
        Setup {
            spec,
            profiles: vec![profile; tenants.len()],
            ws: WorkloadSet { tenants, seed },
            iso,
            fleet_size: sc.gpus,
            faults,
            fault_seed: seed,
        }
    }

    fn offered(&self, s: &Setup) -> u64 {
        inputs_offered(&s.ws, &s.ws.initial_arrivals())
    }

    fn run(&self, s: &Setup, workers: usize) -> Outcome {
        outcome(s, &chaos_run(s, workers, &s.faults))
    }

    fn replay(&self, s: &Setup, workers: usize, reference: &Outcome) -> Replay {
        let t0 = Instant::now();
        let run = span(Layer::Chaos, || chaos_run(s, workers, &s.faults));
        let faulted_s = t0.elapsed().as_secs_f64();
        let out = outcome(s, &run);
        let mut checks = vec![Check::new(
            "chaos: digest repeats",
            out.digest == reference.digest,
        )];
        let other = if workers == 1 { 2 } else { 1 };
        let twin = span(Layer::Check, || outcome(s, &chaos_run(s, other, &s.faults)));
        checks.push(Check::new(
            "chaos: digests identical at workers 1 and 2",
            twin.digest == out.digest,
        ));
        let stranded_losses: usize = run.stranded.iter().map(|t| t.lost_requests).sum();
        checks.push(Check::new(
            "chaos: only stranded tenants lose requests",
            run.lost_requests() == stranded_losses,
        ));
        let t1 = Instant::now();
        span(Layer::Check, || {
            chaos_run(s, workers, &FaultSpec::default())
        });
        let control_s = t1.elapsed().as_secs_f64();

        let replaced = run
            .migrations
            .iter()
            .filter(|m| m.kind == FaultKind::Failure)
            .count() as u64;
        let counters = vec![
            ("cluster.chaos.migrations", run.migrations.len() as f64),
            ("cluster.chaos.stranded", run.stranded.len() as f64),
            (
                "cluster.chaos.replaced_ratio",
                ratio(replaced, replaced + run.stranded.len() as u64),
            ),
            (
                "cluster.chaos.fault_overhead",
                faulted_s / control_s.max(1e-9),
            ),
            (
                "cluster.chaos.recovery_max_ms",
                out.recovery_max_ms.unwrap_or(0.0),
            ),
        ];
        Replay {
            outcome: out,
            checks,
            counters,
        }
    }
}
