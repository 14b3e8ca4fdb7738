//! Benchmark-owned probes around the program's public seams: a timing
//! [`HostDriver`] wrapper, a squad-counting [`TraceSink`], a timed
//! closed-loop client, and the determiner replay.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use bless::{determine_config_memo_model, ConfigMemo, DeployedApp, Squad, SquadEntry};
use gpu_sim::{FailedKernel, Gpu, GpuSpec, HostDriver, KernelDone, NoticeHandler, RequestArrival};
use sim_core::{SimTime, TraceEvent, TraceSink};

use crate::span::{span, Layer};
use crate::stats::ratio;

/// Times every host callback of the wrapped driver as [`Layer::Runtime`].
pub struct TimedDriver<D> {
    /// The driver under test.
    pub inner: D,
    /// Kernel completions delivered to the driver.
    pub kernels: u64,
}

impl<D> TimedDriver<D> {
    /// Wraps `inner`.
    pub fn new(inner: D) -> Self {
        TimedDriver { inner, kernels: 0 }
    }
}

impl<D: HostDriver> HostDriver for TimedDriver<D> {
    fn on_start(&mut self, gpu: &mut Gpu) {
        span(Layer::Runtime, || self.inner.on_start(gpu));
    }

    fn on_request(&mut self, gpu: &mut Gpu, req: RequestArrival) {
        span(Layer::Runtime, || self.inner.on_request(gpu, req));
    }

    fn on_kernel_done(&mut self, gpu: &mut Gpu, done: KernelDone) {
        self.kernels += 1;
        span(Layer::Runtime, || self.inner.on_kernel_done(gpu, done));
    }

    fn on_wake(&mut self, gpu: &mut Gpu, token: u64) {
        span(Layer::Runtime, || self.inner.on_wake(gpu, token));
    }

    fn on_crash(&mut self, gpu: &mut Gpu, app: u32, failed: &[FailedKernel]) {
        span(Layer::Runtime, || self.inner.on_crash(gpu, app, failed));
    }
}

/// Times the closed-loop client (a workload's notice handler) as
/// [`Layer::Arrivals`].
pub fn timed_notices(mut inner: NoticeHandler) -> NoticeHandler {
    Box::new(move |notice, now: SimTime| span(Layer::Arrivals, || inner(notice, now)))
}

/// What [`SquadSink`] saw.
#[derive(Debug, Default)]
pub struct SquadTally {
    /// Squads formed.
    pub formed: u64,
    /// Kernels across formed squads.
    pub kernels: u64,
    /// Squads with more than one tenant (the ones the runtime sends
    /// through the config determiner).
    pub multi_app: Vec<Squad>,
    /// Every event, when the sink keeps the stream for validation.
    pub events: Option<Vec<TraceEvent>>,
}

/// Counts `SquadFormed` events and keeps the multi-tenant squads for the
/// determiner replay; optionally keeps the whole stream.
#[derive(Clone, Default)]
pub struct SquadSink {
    tally: Arc<Mutex<SquadTally>>,
}

impl SquadSink {
    /// A sink that keeps the full event stream too when `keep_events`.
    pub fn new(keep_events: bool) -> Self {
        let sink = SquadSink::default();
        if keep_events {
            sink.lock().events = Some(Vec::new());
        }
        sink
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SquadTally> {
        self.tally.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes what was recorded, leaving the sink empty.
    pub fn take(&self) -> SquadTally {
        let mut t = self.lock();
        let keep = t.events.is_some();
        let out = std::mem::take(&mut *t);
        if keep {
            t.events = Some(Vec::new());
        }
        out
    }
}

impl TraceSink for SquadSink {
    fn record(&mut self, ev: &TraceEvent) {
        let mut t = self.lock();
        if let TraceEvent::SquadFormed { entries, .. } = ev {
            t.formed += 1;
            t.kernels += entries.iter().map(|e| e.count as u64).sum::<u64>();
            if entries.len() > 1 {
                let squad = Squad {
                    entries: entries
                        .iter()
                        .map(|e| SquadEntry {
                            app: e.app as usize,
                            kernels: (e.first_kernel as usize..(e.first_kernel + e.count) as usize)
                                .collect(),
                        })
                        .collect(),
                };
                t.multi_app.push(squad);
            }
        }
        if let Some(events) = &mut t.events {
            events.push(ev.clone());
        }
    }
}

/// Squad and determiner totals over every deployment a replay ran.
#[derive(Debug, Default)]
pub struct SquadTotals {
    formed: u64,
    kernels: u64,
    multi_app: u64,
    predict_ns: u64,
    evaluated: u64,
    memo_hits: u64,
    memo_misses: u64,
}

impl SquadTotals {
    /// Folds in one deployment's tally, replaying its multi-tenant squads
    /// through `determine_config_memo_model` with a fresh memo, as the
    /// deployment's runtime would have called it.
    pub fn add(&mut self, tally: &SquadTally, apps: &[DeployedApp], spec: &GpuSpec) {
        self.formed += tally.formed;
        self.kernels += tally.kernels;
        self.multi_app += tally.multi_app.len() as u64;
        let mut memo = ConfigMemo::new();
        let t0 = Instant::now();
        span(Layer::Predict, || {
            for squad in &tally.multi_app {
                let choice = determine_config_memo_model(
                    &mut memo,
                    squad,
                    apps,
                    spec.num_sms,
                    &spec.channel_model,
                );
                self.evaluated += choice.evaluated as u64;
            }
        });
        self.predict_ns += t0.elapsed().as_nanos() as u64;
        self.memo_hits += memo.hits;
        self.memo_misses += memo.misses;
    }

    /// The `core.squad.*` and `core.predict.*` counters.
    pub fn counters(&self) -> Vec<(&'static str, f64)> {
        let calls = self.multi_app;
        vec![
            ("core.squad.formed", self.formed as f64),
            (
                "core.squad.kernels_per_squad",
                ratio(self.kernels, self.formed),
            ),
            (
                "core.squad.multi_app_frac",
                ratio(self.multi_app, self.formed),
            ),
            ("core.predict.calls", calls as f64),
            ("core.predict.ns_per_call", ratio(self.predict_ns, calls)),
            (
                "core.predict.evaluated_per_call",
                ratio(self.evaluated, calls),
            ),
            (
                "core.predict.memo_hit_ratio",
                ratio(self.memo_hits, self.memo_hits + self.memo_misses),
            ),
        ]
    }
}
