//! End-to-end benchmark of the BLESS reproduction.
//!
//! Four workloads drive the program through its public entry points:
//! [`colocate`] (single-GPU Table-2 scenarios), [`fleet`] (the streaming
//! multi-GPU runner), [`serve`] (the open-loop serving daemon) and
//! [`chaos`] (fleet fault injection and migration). Each builds its inputs
//! from a seed ([`Workload::setup`]), runs the program untraced
//! ([`Workload::run`]) and then replays the same inputs along a
//! benchmark-owned path ([`Workload::replay`]) whose calls into the
//! program are wrapped in [`span`]s. The replay cross-checks the untraced
//! outputs (digests, conservation, trace invariants) and, with spans on,
//! splits host time across the program's layers.
//!
//! See `NOTES.md` beside this crate for why each workload exists and
//! which layer metric should move which end-to-end metric.

pub mod chaos;
pub mod colocate;
pub mod fleet;
pub mod heap;
pub mod probe;
pub mod report;
pub mod serve;
pub mod span;
pub mod stats;

use stats::SimLatency;

/// What one run of a workload produced, in simulated terms. Every count
/// is the program's own; [`Workload::offered`] counts the inputs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Requests the program saw offered.
    pub offered: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Requests refused at admission (rate limit or backpressure).
    pub shed: u64,
    /// Requests lost to faults or unfinished at the horizon.
    pub stranded: u64,
    /// FNV-1a digest of the request logs; pins simulated behaviour.
    pub digest: u64,
    /// Simulated latency of completed requests, where the path exposes it.
    pub latency: Option<SimLatency>,
    /// Mean over tenants of `max(mean latency − ISO target, 0)`, in ms
    /// (the §6.2 deviation, per tenant), where the path exposes it.
    pub deviation_ms: Option<f64>,
    /// Worst onset-to-resume recovery time, in ms (fault workloads only).
    pub recovery_max_ms: Option<f64>,
}

impl Outcome {
    /// Every one of the `inputs` requests was offered and is accounted
    /// for exactly once: completed + shed + stranded = offered = inputs.
    pub fn conserved(&self, inputs: u64) -> bool {
        let total = self
            .completed
            .checked_add(self.shed)
            .and_then(|n| n.checked_add(self.stranded));
        self.offered == inputs && total == Some(inputs)
    }

    /// Share of offered requests that did not complete.
    pub fn failed_frac(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.offered.saturating_sub(self.completed) as f64 / self.offered as f64
    }
}

/// One named correctness check.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// What was compared.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
}

impl Check {
    /// A check named `name` that holds when `ok`.
    pub fn new(name: impl Into<String>, ok: bool) -> Self {
        Check {
            name: name.into(),
            ok,
        }
    }
}

/// Result of the benchmark-owned replay of a workload.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// The replay's outcome, with every simulated metric filled in.
    pub outcome: Outcome,
    /// Cross-checks against the untraced run and the program's invariants.
    pub checks: Vec<Check>,
    /// Per-layer counters (name, value), named as in `BENCHMARK.json`.
    pub counters: Vec<(&'static str, f64)>,
}

/// A benchmark workload.
pub trait Workload {
    /// Inputs built before the timed phase.
    type Setup;

    /// Builds models, profiles, deployments and arrivals from `seed`.
    fn setup(&self, seed: u64) -> Self::Setup;

    /// Requests the inputs offer, counted from the inputs alone, not from
    /// anything the program reports.
    fn offered(&self, setup: &Self::Setup) -> u64;

    /// The untraced run through the program's public entry point.
    fn run(&self, setup: &Self::Setup, workers: usize) -> Outcome;

    /// The benchmark-owned replay: same inputs, probes around each call,
    /// cross-checks against `reference` (an untraced outcome).
    fn replay(&self, setup: &Self::Setup, workers: usize, reference: &Outcome) -> Replay;

    /// Worker count the replay's pipeline runs at, so its untraced
    /// baseline runs at the same count.
    fn replay_workers(&self, workers: usize) -> usize {
        workers
    }
}

/// Merges per-tenant `(mean latency, ISO target)` pairs into the §6.2
/// deviation averaged over tenants, in ms.
pub fn mean_deviation_ms(pairs: &[(sim_core::SimDuration, sim_core::SimDuration)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let sum: f64 = pairs
        .iter()
        .map(|&(mean, iso)| mean.saturating_sub(iso).as_nanos() as f64 / 1e6)
        .sum();
    sum / pairs.len() as f64
}

/// Per-tenant `(mean latency, ISO target)` pairs of one request log, for
/// tenants with at least one completion.
pub fn tenant_means(
    log: &metrics::RequestLog,
    apps: &[bless::DeployedApp],
) -> Vec<(sim_core::SimDuration, sim_core::SimDuration)> {
    apps.iter()
        .enumerate()
        .filter_map(|(a, app)| log.stats(a).mean.map(|m| (m, app.iso_latency())))
        .collect()
}

/// Every completed latency of `log`, in nanoseconds, appended to `out`.
pub fn push_latencies(log: &metrics::RequestLog, out: &mut Vec<u64>) {
    for a in 0..log.apps() {
        out.extend(
            log.records(a)
                .iter()
                .filter_map(|r| r.latency())
                .map(|l| l.as_nanos()),
        );
    }
}

/// Requests `ws` offers: each closed-loop tenant's budget plus the
/// pre-generated open-loop `arrivals` (closed loops pre-generate only
/// their first request).
pub fn inputs_offered(ws: &workloads::WorkloadSet, arrivals: &[gpu_sim::RequestArrival]) -> u64 {
    let closed = |app: usize| ws.tenants[app].pattern.closed_loop_params();
    let budgets: usize = (0..ws.len()).filter_map(closed).map(|(_, n)| n).sum();
    let open = arrivals.iter().filter(|a| closed(a.app).is_none()).count();
    (budgets + open) as u64
}

/// `(offered, completed)` counts of `log`.
pub fn log_counts(log: &metrics::RequestLog) -> (u64, u64) {
    (0..log.apps()).fold((0, 0), |(o, c), a| {
        (
            o + log.records(a).len() as u64,
            c + log.completed_count(a) as u64,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_fails_on_any_mismatch() {
        let o = Outcome {
            offered: 10,
            completed: 6,
            shed: 3,
            stranded: 1,
            ..Outcome::default()
        };
        assert!(o.conserved(10));
        assert!(
            !o.conserved(11),
            "the program saw fewer requests than the inputs offer"
        );
        let lost = Outcome {
            stranded: 0,
            ..o.clone()
        };
        assert!(!lost.conserved(10), "a request went missing");
        let wraps = Outcome {
            completed: u64::MAX,
            ..o
        };
        assert!(!wraps.conserved(10), "the sum must not wrap");
    }
}
