//! `serve`: one `ServeDaemon`, three tenants, open loop in virtual time.
//!
//! Every tenant has the same token-bucket rate and outstanding bound; the
//! offered loads differ. Tenant 0 stays under the rate, tenant 1 is
//! offered twice the rate and is rate-shed, tenant 2 arrives in bursts
//! and hits backpressure. Exercises `core.ingest`, and drives the engine
//! *incrementally*: thousands of short `Simulation::run` advances with
//! injected arrivals rather than one batch run.
//!
//! The replay is a twin of the daemon built from public parts: an
//! `IngestStage` feeding a benchmark-owned `IngestSink` over a timed
//! simulation, mirroring the daemon's own sink. Its request-log digest
//! must equal the daemon's.

use bless::{
    BlessDriver, BlessParams, DeployedApp, IngestConfig, IngestSink, IngestStage, RateLimit,
    ServeDaemon, TenantStream,
};
use dnn_models::{AppModel, ModelKind, Phase};
use gpu_sim::{Gpu, GpuSpec, HostCosts, RequestArrival, Simulation};
use metrics::{TraceValidator, ValidatorConfig};
use profiler::{admit, AdmissionPolicy, ProfiledApp, SharedProfile};
use sim_core::{SimDuration, SimRng, SimTime, TraceEvent};
use workloads::ArrivalPattern;

use crate::probe::{SquadSink, SquadTotals, TimedDriver};
use crate::span::{span, Layer};
use crate::stats::{ratio, SimLatency};
use crate::{
    log_counts, mean_deviation_ms, push_latencies, tenant_means, Check, Outcome, Replay, Workload,
};

/// The three tenants' models.
const MODELS: [ModelKind; 3] = [ModelKind::Vgg11, ModelKind::ResNet50, ModelKind::Bert];

/// Device memory the daemon admits against (A100 40 GB, in MiB).
const CAPACITY_MIB: u64 = 40 * 1024;

/// Simulated horizon for the final drain.
const HORIZON: SimTime = SimTime::from_secs(3_600);

/// Offered load.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Length of the arrival window, in ms of virtual time.
    pub window_ms: u64,
}

impl Scale {
    /// The benchmark's scale: about 11k admitted requests.
    pub const FULL: Scale = Scale { window_ms: 150_000 };
    /// A few hundred requests, for tests.
    pub const SMALL: Scale = Scale { window_ms: 3_000 };
}

/// Per-tenant token-bucket rate, in requests per virtual second.
const RATE: u64 = 40;

/// Outstanding admitted-but-incomplete requests per tenant before new
/// arrivals are shed.
const MAX_OUTSTANDING: u32 = 6;

/// Bucket depth, in requests.
const BURST: u64 = 12;

/// Built inputs.
pub struct Setup {
    /// The GPU model.
    pub spec: GpuSpec,
    /// Deployment, one third of the GPU per tenant.
    pub apps: Vec<DeployedApp>,
    /// Ingest configuration.
    pub cfg: IngestConfig,
    /// Every offered arrival `(time, tenant)`, in global time order
    /// (ties toward the lower tenant).
    pub offers: Vec<(SimTime, usize)>,
}

/// The `serve` workload.
pub struct Serve {
    /// Offered load.
    pub scale: Scale,
}

/// Offers every arrival in global virtual-time order, as independent
/// open-loop clients sharing one clock would: each offer also promises
/// the other streams' next arrival is no earlier, a stream closes after
/// its last arrival, and the stage is pumped after every offer.
fn drive(offers: &[(SimTime, usize)], streams: Vec<TenantStream>, mut pump: impl FnMut()) {
    let mut left = vec![0usize; streams.len()];
    for &(_, app) in offers {
        left[app] += 1;
    }
    let mut streams: Vec<Option<TenantStream>> = streams.into_iter().map(Some).collect();
    for &(at, app) in offers {
        span(Layer::Ingest, || {
            for (i, s) in streams.iter_mut().enumerate() {
                let Some(s) = s else { continue };
                if i == app {
                    s.offer_blocking(at);
                } else {
                    s.advance(at);
                }
            }
            left[app] -= 1;
            if left[app] == 0 {
                if let Some(s) = streams[app].take() {
                    s.close();
                }
            }
        });
        pump();
    }
    span(Layer::Ingest, || streams.clear());
}

impl Workload for Serve {
    type Setup = Setup;

    fn setup(&self, seed: u64) -> Setup {
        let spec = GpuSpec::a100();
        let models: Vec<AppModel> = span(Layer::Models, || {
            MODELS
                .iter()
                .map(|&k| AppModel::build(k, Phase::Inference))
                .collect()
        });
        let apps = span(Layer::Profile, || {
            models
                .iter()
                .map(|m| {
                    let p: SharedProfile = ProfiledApp::profile_shared(m, &spec);
                    DeployedApp::new(p, 1.0 / 3.0, None)
                })
                .collect()
        });
        let window = SimTime::from_millis(self.scale.window_ms);
        let per_sec = |x: f64| SimDuration::from_secs_f64(1.0 / (x * RATE as f64));
        let patterns = [
            // Under the rate.
            ArrivalPattern::Poisson {
                mean_interval: per_sec(0.6),
                horizon: window,
            },
            // Twice the rate: the token bucket sheds about half.
            ArrivalPattern::Poisson {
                mean_interval: per_sec(2.0),
                horizon: window,
            },
            // About the rate on average, in bursts deeper than the
            // outstanding bound.
            ArrivalPattern::AzureLike {
                mean_gap: per_sec(0.1),
                max_burst: 19,
                intra_burst: SimDuration::from_micros(200),
                horizon: window,
            },
        ];
        let offers = span(Layer::Arrivals, || {
            let mut rng = SimRng::new(seed);
            let mut offers: Vec<(SimTime, usize)> = patterns
                .iter()
                .enumerate()
                .flat_map(|(app, p)| {
                    p.initial_arrivals(app, &mut rng.fork(app as u64))
                        .into_iter()
                        .map(move |a| (a.at, app))
                })
                .collect();
            offers.sort_unstable();
            offers
        });
        let cfg = IngestConfig {
            rate: Some(RateLimit {
                tokens_per_sec: RATE,
                burst: BURST,
            }),
            max_outstanding: Some(MAX_OUTSTANDING),
            ..IngestConfig::default()
        };
        Setup {
            spec,
            apps,
            cfg,
            offers,
        }
    }

    fn offered(&self, s: &Setup) -> u64 {
        s.offers.len() as u64
    }

    fn run(&self, s: &Setup, _workers: usize) -> Outcome {
        let daemon = ServeDaemon::new(
            s.apps.clone(),
            BlessParams::default(),
            gpu(&s.spec),
            &s.cfg,
            CAPACITY_MIB,
            &AdmissionPolicy::default(),
        );
        let Ok((mut daemon, streams)) = daemon else {
            return Outcome::default();
        };
        drive(&s.offers, streams, || {
            daemon.pump();
        });
        daemon.run_to_completion(HORIZON);
        let stats: Vec<_> = (0..s.apps.len()).map(|a| daemon.tenant_stats(a)).collect();
        let sim = daemon.into_sim();
        outcome(&sim.driver.log, &s.apps, &stats)
    }

    fn replay(&self, s: &Setup, _workers: usize, reference: &Outcome) -> Replay {
        let mut checks = Vec::new();
        let profiles: Vec<&ProfiledApp> = s.apps.iter().map(|a| &*a.profile).collect();
        checks.push(Check::new(
            "serve: deployment passes placement admission",
            admit(&profiles, CAPACITY_MIB, &AdmissionPolicy::default()).is_ok(),
        ));
        let trace = SquadSink::new(true);
        let mut sink = span(Layer::Runtime, || {
            let driver = TimedDriver::new(BlessDriver::new(s.apps.clone(), BlessParams::default()));
            let mut gpu = gpu(&s.spec);
            gpu.set_trace_sink(Box::new(trace.clone()));
            TimedSink {
                sim: Simulation::new(gpu, driver, Vec::new()),
                done_ptr: vec![0; s.apps.len()],
                run_calls: 0,
                bp_since: vec![None; s.apps.len()],
                bp_ns: 0,
            }
        });
        let (mut stage, streams) = span(Layer::Ingest, || IngestStage::new(s.apps.len(), &s.cfg));
        let (mut pumps, mut idle) = (0u64, 0u64);
        drive(&s.offers, streams, || {
            let p = span(Layer::Ingest, || stage.pump(&mut sink));
            pumps += 1;
            idle += u64::from(p.processed == 0);
        });
        // The daemon's `run_to_completion`: pump until drained, then run
        // out to the horizon.
        loop {
            let p = span(Layer::Ingest, || stage.pump(&mut sink));
            pumps += 1;
            idle += u64::from(p.processed == 0);
            if p.drained {
                break;
            }
        }
        span(Layer::Engine, || sink.sim.run(HORIZON));
        sink.run_calls += 1;
        let end_ns = sink.sim.gpu.now().as_nanos();
        let open: u64 = sink
            .bp_since
            .iter()
            .flatten()
            .map(|&t| end_ns.saturating_sub(t))
            .sum();
        let bp_ns = sink.bp_ns + open;

        let stats: Vec<_> = (0..s.apps.len()).map(|a| stage.tenant_stats(a)).collect();
        let out = outcome(&sink.sim.driver.inner.log, &s.apps, &stats);
        checks.push(Check::new(
            "serve: benchmark-sink twin digest equals ServeDaemon digest",
            out.digest == reference.digest,
        ));
        checks.push(Check::new(
            "serve: admitted + shed = offered per tenant",
            stats.iter().all(|t| t.admitted + t.shed() == t.offered),
        ));
        let mut stream = trace.take();
        let events = stream.events.take().unwrap_or_default();
        let mut squads = SquadTotals::default();
        squads.add(&stream, &s.apps, &s.spec);
        let report = span(Layer::Validate, || {
            TraceValidator::new(ValidatorConfig::structural(s.spec.num_sms)).validate(&events)
        });
        checks.push(Check::new(
            "serve: trace validator clean",
            report.is_clean(),
        ));

        let sum = |f: fn(&bless::TenantIngestStats) -> u64| stats.iter().map(f).sum::<u64>();
        let (offered_n, admitted) = (sum(|t| t.offered), sum(|t| t.admitted));
        let mut counters = squads.counters();
        counters.extend([
            ("gpu-sim.engine.kernels", sink.sim.driver.kernels as f64),
            ("gpu-sim.engine.run_calls", sink.run_calls as f64),
            ("core.ingest.offered", offered_n as f64),
            ("core.ingest.admitted", admitted as f64),
            (
                "core.ingest.shed_rate_limited",
                sum(|t| t.shed_rate_limited) as f64,
            ),
            (
                "core.ingest.shed_backpressure",
                sum(|t| t.shed_backpressure) as f64,
            ),
            ("core.ingest.admit_ratio", ratio(admitted, offered_n)),
            ("core.ingest.idle_pump_ratio", ratio(idle, pumps)),
            (
                "core.ingest.backpressure_sim_frac",
                ratio(bp_ns, end_ns * s.apps.len() as u64),
            ),
            ("metrics.validate.events", events.len() as f64),
        ]);
        Replay {
            outcome: out,
            checks,
            counters,
        }
    }
}

/// The daemon's device. A long-lived daemon retires millions of kernels;
/// its driver never looks at a finished kernel's slot again, so slots are
/// recycled rather than kept for the whole run.
fn gpu(spec: &GpuSpec) -> Gpu {
    let mut gpu = Gpu::new(spec.clone(), HostCosts::paper());
    gpu.set_slot_recycling(true);
    gpu
}

/// The outcome of one serve run: offered and shed counts from the ingest
/// stage's per-tenant stats, the rest from the request log of admitted
/// requests.
fn outcome(
    log: &metrics::RequestLog,
    apps: &[DeployedApp],
    stats: &[bless::TenantIngestStats],
) -> Outcome {
    let (admitted, completed) = log_counts(log);
    let mut latencies = Vec::new();
    push_latencies(log, &mut latencies);
    Outcome {
        offered: stats.iter().map(|t| t.offered).sum(),
        completed,
        shed: stats.iter().map(|t| t.shed()).sum(),
        // Admitted but unfinished at the horizon.
        stranded: admitted.saturating_sub(completed),
        digest: log.digest(),
        latency: Some(SimLatency::new(latencies)),
        deviation_ms: Some(mean_deviation_ms(&tenant_means(log, apps))),
        recovery_max_ms: None,
    }
}

/// The benchmark's mirror of the daemon's sink: admitted arrivals go into
/// a timed simulation, completions are read from the driver's request log
/// through a per-tenant cursor, trace events go to the GPU's sink.
struct TimedSink {
    sim: Simulation<TimedDriver<BlessDriver>>,
    done_ptr: Vec<usize>,
    run_calls: u64,
    /// Virtual time each tenant entered backpressure, while it lasts.
    bp_since: Vec<Option<u64>>,
    /// Closed backpressure intervals, summed over tenants.
    bp_ns: u64,
}

impl IngestSink for TimedSink {
    fn run_until_before(&mut self, t: SimTime) {
        let ns = t.as_nanos();
        if ns > 0 {
            self.run_calls += 1;
            span(Layer::Engine, || self.sim.run(SimTime::from_nanos(ns - 1)));
        }
    }

    fn accept(&mut self, arrival: RequestArrival) {
        span(Layer::Engine, || self.sim.inject_arrival(arrival));
    }

    fn completed_prefix(&mut self, app: usize) -> u64 {
        span(Layer::Runtime, || {
            let recs = self.sim.driver.inner.log.records(app);
            let p = &mut self.done_ptr[app];
            while *p < recs.len() && recs[*p].completion.is_some() {
                *p += 1;
            }
            *p as u64
        })
    }

    fn emit(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::BackpressureOn { at, app, .. } => {
                self.bp_since[app as usize] = Some(at.as_nanos());
            }
            TraceEvent::BackpressureOff { at, app } => {
                if let Some(t) = self.bp_since[app as usize].take() {
                    self.bp_ns += at.as_nanos() - t;
                }
            }
            _ => {}
        }
        span(Layer::Engine, || {
            if self.sim.gpu.tracing_enabled() {
                self.sim.gpu.trace_emit(ev);
            }
        });
    }
}
