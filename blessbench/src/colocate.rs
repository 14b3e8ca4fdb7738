//! `colocate`: BLESS on one scalar-model A100 across Table-2 scenarios.
//!
//! Closed-loop A/B/C pairs at each of the seven 2-model quota splits,
//! Twitter- and Azure-like open-loop trace pairs, and the 4- and 8-app
//! co-locations. Scheduler-heavy: multi-tenant squads go through the
//! config determiner, so `core.runtime`, `core.squad` and `core.predict`
//! do most of their work here, on the engine's scalar interference arm.
//! Never enters `cluster` or `core.ingest`.

use bless::{BlessDriver, BlessParams, DeployedApp};
use dnn_models::{AppModel, ModelKind, Phase};
use gpu_sim::{Gpu, GpuSpec, HostCosts, RequestArrival, Simulation};
use metrics::{Fnv, RequestLog, TraceValidator, ValidatorConfig};
use profiler::{ProfiledApp, SharedProfile};
use sim_core::SimTime;
use workloads::{
    multi_workload, pair_workload, PaperWorkload, WorkloadSet, EIGHT_MODEL_QUOTAS,
    FOUR_MODEL_QUOTAS, TWO_MODEL_QUOTAS,
};

use crate::probe::{timed_notices, SquadSink, SquadTotals, TimedDriver};
use crate::span::{span, Layer};
use crate::stats::SimLatency;
use crate::{
    inputs_offered, log_counts, mean_deviation_ms, push_latencies, tenant_means, Check, Outcome,
    Replay, Workload,
};

/// The model pair run at each of the seven 2-model quota splits.
const PAIRS: [(ModelKind, ModelKind); 7] = [
    (ModelKind::Vgg11, ModelKind::ResNet50),
    (ModelKind::ResNet50, ModelKind::ResNet101),
    (ModelKind::NasNet, ModelKind::Bert),
    (ModelKind::Vgg11, ModelKind::Bert),
    (ModelKind::ResNet101, ModelKind::NasNet),
    (ModelKind::ResNet50, ModelKind::Bert),
    (ModelKind::Vgg11, ModelKind::NasNet),
];

/// Pairs run under the two real-world trace patterns.
const TRACE_PAIRS: [(ModelKind, ModelKind); 2] = [
    (ModelKind::Vgg11, ModelKind::ResNet101),
    (ModelKind::ResNet50, ModelKind::NasNet),
];

/// The 4-app co-location; the 8-app one runs it twice.
const FOUR: [ModelKind; 4] = [
    ModelKind::Vgg11,
    ModelKind::ResNet50,
    ModelKind::ResNet101,
    ModelKind::Bert,
];

/// Simulated horizon; every scenario drains well before it.
const HORIZON: SimTime = SimTime::from_secs(3_600);

/// Request budget of the workload.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Requests per tenant in each closed-loop pair.
    pub pair_requests: usize,
    /// Span of the open-loop trace pairs, in ms. One 2 s diurnal cycle:
    /// over two cycles the Twitter-like pairs' peak-overload tail held
    /// anywhere from 0 to 1% of all requests depending on the seed, and
    /// the pooled p99 flipped between that tail and the 8-app one.
    pub trace_ms: u64,
    /// Requests per tenant in the 4- and 8-app co-locations.
    pub multi_requests: usize,
}

impl Scale {
    /// The benchmark's scale: about 11k requests.
    pub const FULL: Scale = Scale {
        pair_requests: 210,
        trace_ms: 2_000,
        multi_requests: 150,
    };
    /// A few hundred requests, for tests.
    pub const SMALL: Scale = Scale {
        pair_requests: 6,
        trace_ms: 120,
        multi_requests: 4,
    };
}

/// One single-GPU scenario.
pub struct Scenario {
    /// Tenants and their arrival patterns.
    pub ws: WorkloadSet,
    /// Deployment (profile + quota per tenant).
    pub apps: Vec<DeployedApp>,
    /// Pre-generated open-loop arrivals (closed loops: the first request).
    pub arrivals: Vec<RequestArrival>,
}

/// Built inputs.
pub struct Setup {
    /// The GPU model.
    pub spec: GpuSpec,
    /// Every scenario, in run order.
    pub scenarios: Vec<Scenario>,
}

/// The `colocate` workload.
pub struct Colocate {
    /// Request budget.
    pub scale: Scale,
}

/// The seed of scenario `label`, derived from the workload seed.
fn sub_seed(seed: u64, label: u64) -> u64 {
    sim_core::SimRng::new(seed).fork(label).next_u64()
}

fn kind_index(kind: ModelKind) -> usize {
    ModelKind::ALL.iter().position(|&k| k == kind).unwrap_or(0)
}

impl Workload for Colocate {
    type Setup = Setup;

    fn setup(&self, seed: u64) -> Setup {
        let spec = GpuSpec::a100();
        let models: Vec<AppModel> = span(Layer::Models, || {
            ModelKind::ALL
                .iter()
                .map(|&k| AppModel::build(k, Phase::Inference))
                .collect()
        });
        let profiles: Vec<SharedProfile> = span(Layer::Profile, || {
            models
                .iter()
                .map(|m| ProfiledApp::profile_shared(m, &spec))
                .collect()
        });
        let model = |k: ModelKind| models[kind_index(k)].clone();
        let s = self.scale;
        let mut sets = Vec::new();
        for (i, (&(a, b), &quotas)) in PAIRS.iter().zip(&TWO_MODEL_QUOTAS).enumerate() {
            for (j, load) in [
                PaperWorkload::HighLoad,
                PaperWorkload::MediumLoad,
                PaperWorkload::LowLoad,
            ]
            .into_iter()
            .enumerate()
            {
                let seed = sub_seed(seed, (i * 3 + j) as u64);
                sets.push(pair_workload(
                    model(a),
                    model(b),
                    quotas,
                    load,
                    s.pair_requests,
                    HORIZON,
                    seed,
                ));
            }
        }
        let trace_horizon = SimTime::from_millis(s.trace_ms);
        for (i, &(a, b)) in TRACE_PAIRS.iter().enumerate() {
            for (j, load) in [PaperWorkload::TraceTwitter, PaperWorkload::TraceAzure]
                .into_iter()
                .enumerate()
            {
                let seed = sub_seed(seed, (100 + i * 2 + j) as u64);
                sets.push(pair_workload(
                    model(a),
                    model(b),
                    (0.5, 0.5),
                    load,
                    0,
                    trace_horizon,
                    seed,
                ));
            }
        }
        let four: Vec<AppModel> = FOUR.iter().map(|&k| model(k)).collect();
        let eight: Vec<AppModel> = four.iter().chain(&four).cloned().collect();
        sets.push(multi_workload(
            four,
            &FOUR_MODEL_QUOTAS,
            PaperWorkload::MediumLoad,
            s.multi_requests,
            HORIZON,
            sub_seed(seed, 200),
        ));
        sets.push(multi_workload(
            eight,
            &EIGHT_MODEL_QUOTAS,
            PaperWorkload::MediumLoad,
            s.multi_requests,
            HORIZON,
            sub_seed(seed, 201),
        ));
        let scenarios = sets
            .into_iter()
            .map(|ws| {
                let apps = ws
                    .tenants
                    .iter()
                    .map(|t| {
                        let p = SharedProfile::clone(&profiles[kind_index(t.model.kind)]);
                        DeployedApp::new(p, t.quota, None)
                    })
                    .collect();
                let arrivals = span(Layer::Arrivals, || ws.initial_arrivals());
                Scenario { ws, apps, arrivals }
            })
            .collect();
        Setup { spec, scenarios }
    }

    fn offered(&self, s: &Setup) -> u64 {
        s.scenarios
            .iter()
            .map(|sc| inputs_offered(&sc.ws, &sc.arrivals))
            .sum()
    }

    fn run(&self, s: &Setup, _workers: usize) -> Outcome {
        let mut acc = Acc::default();
        for sc in &s.scenarios {
            let mut gpu = Gpu::new(s.spec.clone(), HostCosts::paper());
            gpu.set_slot_recycling(true);
            let driver = BlessDriver::new(sc.apps.clone(), BlessParams::default());
            let mut sim = Simulation::new(gpu, driver, sc.arrivals.clone())
                .with_notice_handler(sc.ws.notice_handler());
            sim.run(HORIZON);
            acc.add(&sim.driver.log, &sc.apps);
        }
        acc.finish()
    }

    fn replay(&self, s: &Setup, _workers: usize, reference: &Outcome) -> Replay {
        let mut acc = Acc::default();
        let mut checks = Vec::new();
        let mut squads = SquadTotals::default();
        let (mut kernels, mut run_calls, mut events) = (0u64, 0u64, 0u64);
        let mut clean = true;
        for sc in &s.scenarios {
            let sink = SquadSink::new(true);
            let driver = span(Layer::Runtime, || {
                TimedDriver::new(BlessDriver::new(sc.apps.clone(), BlessParams::default()))
            });
            let mut sim = span(Layer::Engine, || {
                let mut gpu = Gpu::new(s.spec.clone(), HostCosts::paper());
                gpu.set_slot_recycling(true);
                gpu.set_trace_sink(Box::new(sink.clone()));
                Simulation::new(gpu, driver, sc.arrivals.clone())
                    .with_notice_handler(timed_notices(sc.ws.notice_handler()))
            });
            span(Layer::Engine, || sim.run(HORIZON));
            run_calls += 1;
            kernels += sim.driver.kernels;
            acc.add(&sim.driver.inner.log, &sc.apps);
            let tally = sink.take();
            squads.add(&tally, &sc.apps, &s.spec);
            let stream = tally.events.unwrap_or_default();
            events += stream.len() as u64;
            let config = ValidatorConfig {
                num_sms: s.spec.num_sms,
                iso_targets: Some(
                    sc.apps
                        .iter()
                        .map(|a| a.iso_latency().as_nanos() as f64)
                        .collect(),
                ),
                fairness_spread: None,
                max_recovery_ns: None,
            };
            let report = span(Layer::Validate, || {
                TraceValidator::new(config).validate(&stream)
            });
            clean &= report.is_clean();
        }
        let outcome = acc.finish();
        checks.push(Check::new(
            "colocate: traced digest equals untraced digest",
            outcome.digest == reference.digest,
        ));
        checks.push(Check::new("colocate: trace validator clean", clean));
        let mut counters = squads.counters();
        counters.extend([
            ("gpu-sim.engine.kernels", kernels as f64),
            ("gpu-sim.engine.run_calls", run_calls as f64),
            ("metrics.validate.events", events as f64),
        ]);
        Replay {
            outcome,
            checks,
            counters,
        }
    }
}

/// Folds scenario logs into one outcome.
#[derive(Default)]
struct Acc {
    digest: Fnv,
    offered: u64,
    completed: u64,
    latencies: Vec<u64>,
    means: Vec<(sim_core::SimDuration, sim_core::SimDuration)>,
}

impl Acc {
    fn add(&mut self, log: &RequestLog, apps: &[DeployedApp]) {
        self.digest.write_u64(log.digest());
        let (o, c) = log_counts(log);
        self.offered += o;
        self.completed += c;
        push_latencies(log, &mut self.latencies);
        self.means.extend(tenant_means(log, apps));
    }

    fn finish(self) -> Outcome {
        Outcome {
            offered: self.offered,
            completed: self.completed,
            shed: 0,
            // Unfinished at the horizon.
            stranded: self.offered.saturating_sub(self.completed),
            digest: self.digest.finish(),
            latency: Some(SimLatency::new(self.latencies)),
            deviation_ms: Some(mean_deviation_ms(&self.means)),
            recovery_max_ms: None,
        }
    }
}
