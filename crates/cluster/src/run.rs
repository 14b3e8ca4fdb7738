//! Running a placed multi-GPU deployment: one replicated BLESS runtime
//! per GPU, each driving its own simulated device.
//!
//! GPUs are mutually independent once placed — each gets its own
//! [`Gpu`], [`BlessDriver`], arrival stream, and (optionally) trace sink,
//! all built by one assembly that the chaos runner shares — so the fleet
//! is simulated on the shared worker pool ([`sim_core::pool`], DESIGN.md
//! §5k): contiguous GPU shards with back-stealing. Each GPU's result is
//! written into its own slot by index, so the placement-order merge is a
//! pure move and the merged [`ClusterRun`] is byte-identical to the
//! sequential run (`parallel: false`, the pool's inline path) at any
//! worker count.
//!
//! At fleet scale, materializing every [`GpuRun`] is the memory
//! bottleneck, not the simulation: [`run_cluster_stream`] folds each
//! GPU's result into a [`FleetSummary`] the moment it finishes and drops
//! the per-GPU buffers, keeping resident memory O(workers) instead of
//! O(fleet) while the summary (including its request-log digest) stays
//! byte-identical across worker counts.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use bless::{BlessDriver, BlessParams, DeployedApp};
use gpu_sim::{BufferSink, Gpu, GpuSpec, HostCosts, RequestArrival, RunOutcome, Simulation};
use metrics::{Fnv, RequestLog, ShareMode};
use profiler::SharedProfile;
use sim_core::trace::TraceEvent;
use sim_core::{pool, SimTime};
use workloads::{ArrivalPattern, WorkloadSet};

use crate::placement::{
    fleet_requests, place_with, Placement, PlacementError, PlacementPolicy, PlacementRequest,
};

/// Result of one GPU's run within the cluster.
#[derive(Debug)]
pub struct GpuRun {
    /// This GPU's index within the placement.
    pub gpu: usize,
    /// Request indices (into the cluster's tenant list) served here.
    pub tenants: Vec<usize>,
    /// The GPU-local request log (indexed by local tenant position).
    pub log: RequestLog,
    /// Simulation outcome.
    pub outcome: RunOutcome,
    /// GPU utilization over its makespan.
    pub utilization: f64,
    /// Number of engine lanes this GPU ran on. `1` is the monolithic
    /// engine; more means the tenancy was fully sharded
    /// ([`bless::LaneHints::is_fully_sharded`]) and each tenant ran on
    /// its own isolated lane.
    pub lanes: usize,
    /// High-water of the engine's instance slots
    /// ([`Gpu::instance_slots`]), summed over lanes. Slots are recycled,
    /// so this tracks peak concurrently live kernels, not kernels run.
    pub instance_slots: usize,
    /// This GPU's structured trace stream (empty unless
    /// [`ClusterOptions::capture_trace`] was set). Events are GPU-local:
    /// app ids index into `tenants`.
    pub trace: Vec<TraceEvent>,
}

/// Result of a whole cluster run.
#[derive(Debug)]
pub struct ClusterRun {
    /// The placement used.
    pub placement: Placement,
    /// Per-GPU results, in placement order.
    pub gpus: Vec<GpuRun>,
}

impl ClusterRun {
    /// Mean latency (ms) of one cluster-level tenant.
    pub fn tenant_mean_ms(&self, tenant: usize) -> Option<f64> {
        let gpu = *self.placement.assignments.get(tenant)?;
        let local = self.gpus[gpu].tenants.iter().position(|&t| t == tenant)?;
        self.gpus[gpu]
            .log
            .stats(local)
            .mean
            .map(|d| d.as_millis_f64())
    }

    /// True when every GPU completed all its requests.
    pub fn all_completed(&self) -> bool {
        self.gpus.iter().all(|g| g.outcome == RunOutcome::Completed)
    }
}

/// Knobs for [`run_cluster_opts`].
#[derive(Clone, Debug)]
pub struct ClusterOptions {
    /// Simulate GPUs on a worker pool (`false` forces the sequential
    /// loop). Output is byte-identical either way.
    pub parallel: bool,
    /// Record each GPU's structured trace stream into
    /// [`GpuRun::trace`].
    pub capture_trace: bool,
    /// Worker-pool size, resolved by [`sim_core::pool::workers`]: `None`
    /// means one worker per available CPU.
    pub workers: Option<usize>,
    /// Shard a GPU into per-tenant lanes automatically when its
    /// [`BlessDriver::lane_hints`] report a fully sharded tenancy (every
    /// tenant strict-spatial behind its own hard SM cap). Per DESIGN.md
    /// §5h the split is exact for decoupled physics and drops only the
    /// cross-partition memory-interference term otherwise; it never
    /// triggers for tenancies that can reach the shared pool. On by
    /// default — a freshly deployed fleet starts semi-spatial, so the
    /// hint only holds when [`ClusterOptions::initial_modes`] (or a
    /// checkpoint restore) pins every tenant strict-spatial.
    pub lane_sharding: bool,
    /// Initial degradation-ladder position per fleet tenant, restored
    /// into each GPU's driver before the first arrival (the same
    /// mechanism a migration uses to carry ladder state). `None` deploys
    /// everyone semi-spatial as usual.
    /// A list whose length differs from the tenant count is rejected with
    /// [`PlacementError::InitialModesMismatch`] before placement.
    pub initial_modes: Option<Vec<ShareMode>>,
    /// How tenants are matched to GPUs during placement
    /// ([`PlacementPolicy::FirstFit`] by default;
    /// [`PlacementPolicy::ContentionAware`] scores candidates by
    /// predicted bottleneck-channel overlap).
    pub placement_policy: PlacementPolicy,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            parallel: true,
            capture_trace: false,
            workers: None,
            lane_sharding: true,
            initial_modes: None,
            placement_policy: PlacementPolicy::FirstFit,
        }
    }
}

/// Places the workload's tenants onto a fleet and serves each GPU with a
/// replicated BLESS runtime, simulating GPUs in parallel.
///
/// `profiles` must align with `ws.tenants` (one profile per tenant, on the
/// fleet's GPU spec). Pass [`SharedProfile`] handles to avoid deep-copying
/// kernel tables; plain [`profiler::ProfiledApp`] values are accepted and
/// interned on entry.
pub fn run_cluster<P: Into<SharedProfile>>(
    ws: &WorkloadSet,
    profiles: Vec<P>,
    fleet_size: usize,
    spec: &GpuSpec,
    params: &BlessParams,
    horizon: SimTime,
) -> Result<ClusterRun, PlacementError> {
    run_cluster_opts(
        ws,
        profiles,
        fleet_size,
        spec,
        params,
        horizon,
        &ClusterOptions::default(),
    )
}

/// [`run_cluster`] with explicit [`ClusterOptions`].
pub fn run_cluster_opts<P: Into<SharedProfile>>(
    ws: &WorkloadSet,
    profiles: Vec<P>,
    fleet_size: usize,
    spec: &GpuSpec,
    params: &BlessParams,
    horizon: SimTime,
    opts: &ClusterOptions,
) -> Result<ClusterRun, PlacementError> {
    let (placement, gpus) = run_fleet(
        ws,
        profiles,
        fleet_size,
        spec,
        params,
        horizon,
        opts,
        false,
        |run, slot: &mut Option<GpuRun>| *slot = Some(run),
    )?;
    let gpus = gpus
        .into_iter()
        .map(|run| run.unwrap_or_else(|| unreachable!("the pool visits every GPU")))
        .collect();
    Ok(ClusterRun { placement, gpus })
}

/// The prologue and pool both fleet entry points share: interns the
/// tenants ([`fleet_requests`]), refuses trace capture when `streaming`
/// (before anything is placed), places them, and simulates every placed
/// GPU on the pool. GPU `g`'s run is handed to `per_gpu` with element `g`
/// of the returned vector, in any order; dropping the run there is what
/// keeps the streaming path at O(workers) live runs.
#[allow(clippy::too_many_arguments)]
fn run_fleet<P: Into<SharedProfile>, T: Default + Send>(
    ws: &WorkloadSet,
    profiles: Vec<P>,
    fleet_size: usize,
    spec: &GpuSpec,
    params: &BlessParams,
    horizon: SimTime,
    opts: &ClusterOptions,
    streaming: bool,
    per_gpu: impl Fn(GpuRun, &mut T) + Sync,
) -> Result<(Placement, Vec<T>), PlacementError> {
    let requests = fleet_requests(ws, profiles, opts.initial_modes.as_deref())?;
    if streaming && opts.capture_trace {
        return Err(PlacementError::StreamTraceCapture);
    }
    let placement = place_with(
        &requests,
        fleet_size,
        spec.memory_mib,
        &profiler::AdmissionPolicy::default(),
        &opts.placement_policy,
    )?;
    let mut out: Vec<T> = (0..placement.gpus_used).map(|_| T::default()).collect();
    let workers = pool::workers(
        if opts.parallel { opts.workers } else { Some(1) },
        placement.gpus_used,
    );
    pool::for_each_mut(&mut out, workers, |g, slot| {
        let run = run_one_gpu(g, &placement, ws, &requests, spec, params, horizon, opts);
        per_gpu(run, slot);
    });
    Ok((placement, out))
}

/// Streaming summary of a fleet run — everything the fleet-scale
/// experiments need, at O(1) size per GPU (two words: digest and
/// utilization) instead of a materialized [`GpuRun`].
///
/// All fields are byte-stable across worker counts: counters are exact
/// integer sums (commutative), and the two order-sensitive folds (the
/// fleet digest and the utilization mean) run over the per-GPU words in
/// GPU index order after the pool returns.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSummary {
    /// The placement that was simulated.
    pub placement: Placement,
    /// GPUs whose simulation completed every request.
    pub completed_gpus: usize,
    /// Requests that arrived fleet-wide.
    pub arrived_requests: u64,
    /// Requests that completed fleet-wide.
    pub completed_requests: u64,
    /// Exact sum of completed-request latencies, in nanoseconds.
    pub latency_sum_ns: u64,
    /// Worst completed-request latency, in nanoseconds.
    pub max_latency_ns: u64,
    /// Mean per-GPU utilization (folded in GPU order).
    pub mean_utilization: f64,
    /// Largest per-GPU instance-slot high-water ([`GpuRun::instance_slots`]).
    pub max_instance_slots: usize,
    /// FNV-1a fold of every GPU's request-log digest, in GPU order —
    /// byte-identical to hashing the sequential run's logs.
    pub digest: u64,
}

impl FleetSummary {
    /// Mean completed-request latency in milliseconds, if any completed.
    pub fn mean_latency_ms(&self) -> Option<f64> {
        if self.completed_requests == 0 {
            return None;
        }
        Some(self.latency_sum_ns as f64 / self.completed_requests as f64 / 1e6)
    }

    /// True when every GPU completed all its requests.
    pub fn all_completed(&self) -> bool {
        self.completed_gpus == self.placement.gpus_used
    }
}

/// The commutative part of a [`FleetSummary`], folded in by whichever
/// worker finishes a GPU: exact integer sums and maxima, which completion
/// order cannot change.
#[derive(Default)]
struct FleetCounters {
    completed_gpus: AtomicUsize,
    arrived: AtomicU64,
    completed: AtomicU64,
    latency_ns: AtomicU64,
    max_latency_ns: AtomicU64,
    max_instance_slots: AtomicUsize,
}

impl FleetCounters {
    /// Folds one GPU's result in; the caller drops the run (and its log,
    /// trace, and tenant buffers) immediately after.
    fn fold(&self, run: &GpuRun) {
        let mut arrived = 0u64;
        let mut completed = 0u64;
        let mut latency = 0u64;
        let mut max_latency = 0u64;
        for app in 0..run.tenants.len() {
            for r in run.log.records(app) {
                arrived += 1;
                if let Some(l) = r.latency() {
                    completed += 1;
                    latency += l.as_nanos();
                    max_latency = max_latency.max(l.as_nanos());
                }
            }
        }
        self.arrived.fetch_add(arrived, Ordering::Relaxed);
        self.completed.fetch_add(completed, Ordering::Relaxed);
        self.latency_ns.fetch_add(latency, Ordering::Relaxed);
        self.max_latency_ns
            .fetch_max(max_latency, Ordering::Relaxed);
        self.max_instance_slots
            .fetch_max(run.instance_slots, Ordering::Relaxed);
        if run.outcome == RunOutcome::Completed {
            self.completed_gpus.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// [`run_cluster_opts`] for fleets too big to materialize: each GPU's
/// result folds into a [`FleetSummary`] the moment it finishes and its
/// buffers are freed, so resident memory stays O(workers) GPU results
/// (plus two words per GPU) instead of O(fleet). The summary — including
/// its fleet digest — is byte-identical across worker counts and to
/// summarizing a materialized sequential run (`parallel: false`).
///
/// Trace capture is refused with
/// [`PlacementError::StreamTraceCapture`] (a fleet-wide trace is exactly
/// the O(fleet) buffer this path exists to avoid); use
/// [`run_cluster_opts`] for that.
pub fn run_cluster_stream<P: Into<SharedProfile>>(
    ws: &WorkloadSet,
    profiles: Vec<P>,
    fleet_size: usize,
    spec: &GpuSpec,
    params: &BlessParams,
    horizon: SimTime,
    opts: &ClusterOptions,
) -> Result<FleetSummary, PlacementError> {
    // Per GPU, the two order-sensitive words — request-log digest and
    // utilization — written through the pool element and folded in GPU
    // order after the pool returns.
    let counters = FleetCounters::default();
    let (placement, words) = run_fleet(
        ws,
        profiles,
        fleet_size,
        spec,
        params,
        horizon,
        opts,
        true,
        |run, (digest, utilization): &mut (u64, f64)| {
            counters.fold(&run);
            *digest = run.log.digest();
            *utilization = run.utilization;
        },
    )?;
    let mut h = Fnv::new();
    let mut util_sum = 0.0f64;
    for &(digest, utilization) in &words {
        h.write_u64(digest);
        util_sum += utilization;
    }
    Ok(FleetSummary {
        placement,
        completed_gpus: counters.completed_gpus.into_inner(),
        arrived_requests: counters.arrived.into_inner(),
        completed_requests: counters.completed.into_inner(),
        latency_sum_ns: counters.latency_ns.into_inner(),
        max_latency_ns: counters.max_latency_ns.into_inner(),
        max_instance_slots: counters.max_instance_slots.into_inner(),
        mean_utilization: if words.is_empty() {
            0.0
        } else {
            util_sum / words.len() as f64
        },
        digest: h.finish(),
    })
}

/// GPU `g`'s local workload: its `tenants`' specs, app ids remapped to
/// local positions, under the fleet seed offset by `g`. Every runner that
/// assembles GPU `g` draws its arrival schedule from this.
pub(crate) fn gpu_workload(ws: &WorkloadSet, tenants: &[usize], g: usize) -> WorkloadSet {
    WorkloadSet::new(
        tenants.iter().map(|&t| ws.tenants[t].clone()).collect(),
        ws.seed.wrapping_add(g as u64),
    )
}

/// One GPU's replicated BLESS runtime (§4.2.2), the assembly every fleet
/// runner shares: a driver over `tenants` (fleet ids; deployment shares
/// the interned profiles, so no kernel table is copied) with local app
/// `a`'s degradation-ladder position `ladder(a) = (mode, clean_squads)`
/// restored before the first arrival, on a fresh device. The driver only
/// consumes completion tags, so retired instance slots are recycled:
/// engine memory tracks live kernels, not simulated time.
pub(crate) fn gpu_runtime(
    tenants: &[usize],
    ladder: impl Fn(usize) -> (ShareMode, u32),
    arrivals: Vec<RequestArrival>,
    requests: &[PlacementRequest],
    spec: &GpuSpec,
    params: &BlessParams,
) -> Simulation<BlessDriver> {
    let apps = tenants
        .iter()
        .map(|&t| {
            DeployedApp::new(
                SharedProfile::clone(&requests[t].profile),
                requests[t].quota,
                None,
            )
        })
        .collect();
    let mut driver = BlessDriver::new(apps, params.clone());
    for a in 0..tenants.len() {
        let (mode, clean_squads) = ladder(a);
        driver.restore_share_mode(a, mode, clean_squads);
    }
    let mut gpu = Gpu::new(spec.clone(), HostCosts::paper());
    gpu.set_slot_recycling(true);
    Simulation::new(gpu, driver, arrivals)
}

/// The ladder of a freshly placed GPU's `tenants`: each at its pinned
/// initial mode (semi-spatial when none is pinned), with no clean squads.
pub(crate) fn initial_ladder<'a>(
    modes: Option<&'a [ShareMode]>,
    tenants: &'a [usize],
) -> impl Fn(usize) -> (ShareMode, u32) + 'a {
    move |a| (modes.map_or(ShareMode::SemiSpatial, |m| m[tenants[a]]), 0)
}

/// Simulates one GPU's tenants to completion — the unit of work the
/// fleet pool hands out.
#[allow(clippy::too_many_arguments)]
fn run_one_gpu(
    g: usize,
    placement: &Placement,
    ws: &WorkloadSet,
    requests: &[PlacementRequest],
    spec: &GpuSpec,
    params: &BlessParams,
    horizon: SimTime,
    opts: &ClusterOptions,
) -> GpuRun {
    let tenants = placement.tenants_of(g);
    let local_ws = gpu_workload(ws, &tenants, g);
    let mut sim = gpu_runtime(
        &tenants,
        initial_ladder(opts.initial_modes.as_deref(), &tenants),
        local_ws.initial_arrivals(),
        requests,
        spec,
        params,
    );
    // When the runtime's own lane hints certify the tenancy as fully
    // sharded, promote the hint into an actual lane split — each tenant
    // simulates on its own isolated engine. Trace capture stays
    // monolithic (lane streams have per-lane queue/seq namespaces), as do
    // closed-loop tenants (their client state lives in one shared notice
    // handler).
    let open_loop = local_ws
        .tenants
        .iter()
        .all(|t| !matches!(t.pattern, ArrivalPattern::ClosedLoop { .. }));
    if opts.lane_sharding && !opts.capture_trace && open_loop {
        let hints = sim.driver.lane_hints(spec.num_sms);
        if hints.is_fully_sharded() && hints.num_lanes() > 1 {
            let modes: Vec<ShareMode> = (0..tenants.len())
                .map(|a| sim.driver.share_mode(a))
                .collect();
            return run_one_gpu_sharded(
                g, tenants, &local_ws, requests, &modes, spec, params, horizon,
            );
        }
    }
    let sink = opts.capture_trace.then(|| {
        let s = BufferSink::new();
        sim.gpu.set_trace_sink(Box::new(s.clone()));
        s
    });
    let mut sim = sim.with_notice_handler(local_ws.notice_handler());
    let outcome = sim.run(horizon);
    let makespan = sim.gpu.now().as_secs_f64();
    let utilization = if makespan > 0.0 {
        sim.gpu.busy_sm_seconds() / (spec.num_sms as f64 * makespan)
    } else {
        0.0
    };
    GpuRun {
        gpu: g,
        tenants,
        log: sim.driver.log,
        outcome,
        utilization,
        lanes: 1,
        instance_slots: sim.gpu.instance_slots(),
        trace: sink.map(|s| s.take()).unwrap_or_default(),
    }
}

/// Simulates a fully-sharded GPU as per-tenant lanes: every tenant runs
/// on its own engine (its hard SM cap makes the partition structurally
/// isolated — see DESIGN.md §5h), and the per-lane logs merge back into
/// local tenant order. Arrivals come from the *same* per-app forks the
/// monolithic path draws, so the schedules coincide; only the
/// cross-partition memory-interference term is dropped.
#[allow(clippy::too_many_arguments)]
fn run_one_gpu_sharded(
    g: usize,
    tenants: Vec<usize>,
    local_ws: &WorkloadSet,
    requests: &[PlacementRequest],
    modes: &[ShareMode],
    spec: &GpuSpec,
    params: &BlessParams,
    horizon: SimTime,
) -> GpuRun {
    // Canonical arrival schedule (per-app forks of the GPU seed),
    // partitioned by tenant and renumbered to each lane's app 0.
    let mut per_lane: Vec<Vec<RequestArrival>> = vec![Vec::new(); tenants.len()];
    for a in local_ws.initial_arrivals() {
        per_lane[a.app].push(RequestArrival { app: 0, ..a });
    }

    let mut log = RequestLog::new(tenants.len());
    let mut outcome = RunOutcome::Completed;
    let mut busy = 0.0;
    let mut makespan = 0.0f64;
    let mut instance_slots = 0;
    for (lane, arrivals) in per_lane.into_iter().enumerate() {
        let ladder = |_| (modes[lane], 0);
        let mut sim = gpu_runtime(
            &tenants[lane..=lane],
            ladder,
            arrivals,
            requests,
            spec,
            params,
        );
        let lane_outcome = sim.run(horizon);
        instance_slots += sim.gpu.instance_slots();
        if outcome == RunOutcome::Completed {
            outcome = lane_outcome;
        }
        busy += sim.gpu.busy_sm_seconds();
        makespan = makespan.max(sim.gpu.now().as_secs_f64());
        for (req, r) in sim.driver.log.records(0).iter().enumerate() {
            log.arrived(lane, req, r.arrival);
            if let Some(c) = r.completion {
                log.completed(lane, req, c);
            }
        }
    }
    let lanes = tenants.len();
    let utilization = if makespan > 0.0 {
        busy / (spec.num_sms as f64 * makespan)
    } else {
        0.0
    };
    GpuRun {
        gpu: g,
        tenants,
        log,
        outcome,
        utilization,
        lanes,
        instance_slots,
        trace: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::{AppModel, ModelKind, Phase};
    use profiler::ProfiledApp;
    use sim_core::SimDuration;
    use workloads::{ArrivalPattern, TenantSpec};

    /// Options forcing the sequential path: the pool runs inline.
    fn sequential() -> ClusterOptions {
        ClusterOptions {
            parallel: false,
            ..ClusterOptions::default()
        }
    }

    fn four_tenant_fixture() -> (GpuSpec, WorkloadSet, Vec<SharedProfile>) {
        let spec = GpuSpec::a100();
        let kinds = [
            ModelKind::Vgg11,
            ModelKind::ResNet50,
            ModelKind::ResNet101,
            ModelKind::Bert,
        ];
        let tenants: Vec<TenantSpec> = kinds
            .iter()
            .map(|&k| {
                TenantSpec::new(
                    AppModel::build(k, Phase::Inference),
                    0.5,
                    ArrivalPattern::ClosedLoop {
                        think: SimDuration::from_millis(10),
                        count: 4,
                    },
                )
            })
            .collect();
        let profiles: Vec<SharedProfile> = kinds
            .iter()
            .map(|&k| ProfiledApp::profile_shared(&AppModel::build(k, Phase::Inference), &spec))
            .collect();
        // Quotas sum to 2.0: WorkloadSet normally rejects oversubscription,
        // so build per-GPU sets through the cluster API instead.
        (spec, WorkloadSet { tenants, seed: 5 }, profiles)
    }

    #[test]
    fn four_tenants_on_two_gpus_all_complete() {
        let (spec, ws, profiles) = four_tenant_fixture();
        let run = run_cluster(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(60),
        )
        .unwrap();
        assert_eq!(run.placement.gpus_used, 2);
        assert!(run.all_completed());
        for t in 0..4 {
            let ms = run.tenant_mean_ms(t).expect("tenant served");
            assert!(ms.is_finite() && ms > 0.0);
        }
    }

    #[test]
    fn parallel_and_sequential_runs_are_identical() {
        let (spec, ws, profiles) = four_tenant_fixture();
        let horizon = SimTime::from_secs(60);
        let params = BlessParams::default();
        // Force a real worker pool: on a single-core host the default
        // would degrade to the sequential loop and compare it to itself.
        let opts = ClusterOptions {
            workers: Some(3),
            ..ClusterOptions::default()
        };
        let par =
            run_cluster_opts(&ws, profiles.clone(), 4, &spec, &params, horizon, &opts).unwrap();
        let seq =
            run_cluster_opts(&ws, profiles, 4, &spec, &params, horizon, &sequential()).unwrap();
        assert_eq!(par.placement, seq.placement);
        assert_eq!(par.gpus.len(), seq.gpus.len());
        for (p, s) in par.gpus.iter().zip(&seq.gpus) {
            assert_eq!(p.gpu, s.gpu);
            assert_eq!(p.tenants, s.tenants);
            assert_eq!(p.outcome, s.outcome);
            assert_eq!(p.utilization.to_bits(), s.utilization.to_bits());
            for app in 0..p.tenants.len() {
                let pr: Vec<_> = p
                    .log
                    .records(app)
                    .iter()
                    .map(|r| (r.arrival, r.completion))
                    .collect();
                let sr: Vec<_> = s
                    .log
                    .records(app)
                    .iter()
                    .map(|r| (r.arrival, r.completion))
                    .collect();
                assert_eq!(pr, sr, "gpu {} app {app}", p.gpu);
            }
        }
    }

    #[test]
    fn trace_capture_covers_every_gpu() {
        let (spec, ws, profiles) = four_tenant_fixture();
        let run = run_cluster_opts(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(60),
            &ClusterOptions {
                capture_trace: true,
                ..ClusterOptions::default()
            },
        )
        .unwrap();
        for g in &run.gpus {
            assert!(!g.trace.is_empty(), "gpu {} captured no events", g.gpu);
        }
        // Capture is purely observational: the uncaptured run matches.
        let (spec, ws, profiles) = four_tenant_fixture();
        let plain = run_cluster(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(60),
        )
        .unwrap();
        for (a, b) in run.gpus.iter().zip(&plain.gpus) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
        }
    }

    #[test]
    fn fleet_errors_propagate() {
        let spec = GpuSpec::a100();
        let tenants: Vec<TenantSpec> = (0..2)
            .map(|_| {
                TenantSpec::new(
                    AppModel::build(ModelKind::ResNet50, Phase::Inference),
                    0.9,
                    ArrivalPattern::Simultaneous {
                        count: 1,
                        at: SimTime::ZERO,
                    },
                )
            })
            .collect();
        let profiles: Vec<SharedProfile> = (0..2)
            .map(|_| {
                ProfiledApp::profile_shared(
                    &AppModel::build(ModelKind::ResNet50, Phase::Inference),
                    &spec,
                )
            })
            .collect();
        let ws = WorkloadSet { tenants, seed: 1 };
        let err = run_cluster(
            &ws,
            profiles,
            1,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(10),
        )
        .unwrap_err();
        assert!(matches!(err, PlacementError::FleetTooSmall { .. }));
    }

    #[test]
    fn empty_workload_is_a_typed_error() {
        let spec = GpuSpec::a100();
        let ws = WorkloadSet {
            tenants: vec![],
            seed: 1,
        };
        let err = run_cluster::<SharedProfile>(
            &ws,
            vec![],
            4,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(10),
        )
        .unwrap_err();
        assert_eq!(err, PlacementError::EmptyWorkload);
    }

    #[test]
    fn profile_count_mismatch_is_a_typed_error() {
        let (spec, ws, mut profiles) = four_tenant_fixture();
        profiles.pop();
        let err = run_cluster(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(10),
        )
        .unwrap_err();
        assert_eq!(
            err,
            PlacementError::ProfileCountMismatch {
                profiles: 3,
                tenants: 4
            }
        );
    }

    /// Options pinning one share mode too few for the four-tenant fixture.
    fn short_modes() -> ClusterOptions {
        ClusterOptions {
            initial_modes: Some(vec![ShareMode::StrictSpatial; 3]),
            ..ClusterOptions::default()
        }
    }

    const MODES_MISMATCH: PlacementError = PlacementError::InitialModesMismatch {
        modes: 3,
        tenants: 4,
    };

    #[test]
    fn initial_modes_mismatch_is_a_typed_error() {
        let (spec, ws, profiles) = four_tenant_fixture();
        let params = BlessParams::default();
        let horizon = SimTime::from_secs(10);
        let err = run_cluster_opts(&ws, profiles, 4, &spec, &params, horizon, &short_modes())
            .unwrap_err();
        assert_eq!(err, MODES_MISMATCH);
        assert_eq!(
            err.to_string(),
            "3 initial share modes supplied for 4 tenants"
        );
    }

    #[test]
    fn streaming_initial_modes_mismatch_is_a_typed_error() {
        let (spec, ws, profiles) = four_tenant_fixture();
        let params = BlessParams::default();
        let horizon = SimTime::from_secs(10);
        let err = run_cluster_stream(&ws, profiles, 4, &spec, &params, horizon, &short_modes())
            .unwrap_err();
        assert_eq!(err, MODES_MISMATCH);
    }

    #[test]
    fn streaming_trace_capture_is_a_typed_error() {
        let (spec, ws, profiles) = four_tenant_fixture();
        let opts = ClusterOptions {
            capture_trace: true,
            ..ClusterOptions::default()
        };
        let err = run_cluster_stream(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(10),
            &opts,
        )
        .unwrap_err();
        assert_eq!(err, PlacementError::StreamTraceCapture);
        assert_eq!(
            err.to_string(),
            "run_cluster_stream cannot capture traces; use run_cluster_opts"
        );
    }

    fn strict_pair_fixture() -> (GpuSpec, WorkloadSet, Vec<SharedProfile>) {
        let spec = GpuSpec::a100();
        let kinds = [ModelKind::Vgg11, ModelKind::ResNet50];
        let tenants: Vec<TenantSpec> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                TenantSpec::new(
                    AppModel::build(k, Phase::Inference),
                    0.45,
                    ArrivalPattern::Periodic {
                        period: SimDuration::from_millis(5),
                        count: 6,
                        offset: SimDuration::from_millis(i as u64),
                    },
                )
            })
            .collect();
        let profiles = kinds
            .iter()
            .map(|&k| ProfiledApp::profile_shared(&AppModel::build(k, Phase::Inference), &spec))
            .collect();
        (spec, WorkloadSet { tenants, seed: 9 }, profiles)
    }

    #[test]
    fn fully_sharded_tenancy_runs_on_per_tenant_lanes() {
        let (spec, ws, profiles) = strict_pair_fixture();
        let horizon = SimTime::from_secs(60);
        let params = BlessParams::default();
        let opts = ClusterOptions {
            initial_modes: Some(vec![ShareMode::StrictSpatial; 2]),
            ..ClusterOptions::default()
        };
        let run =
            run_cluster_opts(&ws, profiles.clone(), 1, &spec, &params, horizon, &opts).unwrap();
        assert_eq!(run.gpus.len(), 1);
        let g = &run.gpus[0];
        assert_eq!(g.lanes, 2, "strict-spatial pair must shard onto 2 lanes");
        assert_eq!(g.outcome, RunOutcome::Completed);
        assert!(g.utilization > 0.0);
        for app in 0..2 {
            assert_eq!(g.log.records(app).len(), 6);
            assert_eq!(g.log.completed_count(app), 6, "app {app} lost requests");
        }

        // The sharded run is deterministic…
        let again =
            run_cluster_opts(&ws, profiles.clone(), 1, &spec, &params, horizon, &opts).unwrap();
        for app in 0..2 {
            let a: Vec<_> = run.gpus[0]
                .log
                .records(app)
                .iter()
                .map(|r| (r.arrival, r.completion))
                .collect();
            let b: Vec<_> = again.gpus[0]
                .log
                .records(app)
                .iter()
                .map(|r| (r.arrival, r.completion))
                .collect();
            assert_eq!(a, b, "app {app}");
        }

        // …and draws the exact arrival schedule the monolithic engine
        // uses (same per-app forks), so only completion physics differ.
        let mono = run_cluster_opts(
            &ws,
            profiles,
            1,
            &spec,
            &params,
            horizon,
            &ClusterOptions {
                lane_sharding: false,
                initial_modes: Some(vec![ShareMode::StrictSpatial; 2]),
                ..ClusterOptions::default()
            },
        )
        .unwrap();
        assert_eq!(mono.gpus[0].lanes, 1);
        for app in 0..2 {
            let sharded: Vec<_> = run.gpus[0]
                .log
                .records(app)
                .iter()
                .map(|r| r.arrival)
                .collect();
            let monolithic: Vec<_> = mono.gpus[0]
                .log
                .records(app)
                .iter()
                .map(|r| r.arrival)
                .collect();
            assert_eq!(sharded, monolithic, "app {app} arrival schedules diverge");
            assert_eq!(mono.gpus[0].log.completed_count(app), 6);
        }
    }

    #[test]
    fn pool_reachable_tenancies_stay_monolithic() {
        // Without mode pinning every tenant deploys semi-spatial — the
        // hint never certifies the split, even with sharding enabled.
        let (spec, ws, profiles) = strict_pair_fixture();
        let run = run_cluster(
            &ws,
            profiles,
            1,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(60),
        )
        .unwrap();
        assert_eq!(run.gpus[0].lanes, 1);
        assert!(run.all_completed());
    }

    #[test]
    fn streaming_summary_matches_materialized_run_at_any_worker_count() {
        let (spec, ws, profiles) = four_tenant_fixture();
        let horizon = SimTime::from_secs(60);
        let params = BlessParams::default();
        // Ground truth: the materialized sequential run, folded by hand.
        let seq = run_cluster_opts(
            &ws,
            profiles.clone(),
            4,
            &spec,
            &params,
            horizon,
            &sequential(),
        )
        .unwrap();
        let mut h = Fnv::new();
        for g in &seq.gpus {
            h.write_u64(g.log.digest());
        }
        let want_digest = h.finish();

        let mut summaries = Vec::new();
        for workers in [1usize, 2, 4] {
            let opts = ClusterOptions {
                workers: Some(workers),
                ..ClusterOptions::default()
            };
            let s = run_cluster_stream(&ws, profiles.clone(), 4, &spec, &params, horizon, &opts)
                .unwrap();
            assert_eq!(s.digest, want_digest, "workers={workers}");
            assert_eq!(s.placement, seq.placement);
            assert!(s.all_completed());
            summaries.push(s);
        }
        // The whole summary — not just the digest — is byte-stable.
        assert_eq!(summaries[0], summaries[1]);
        assert_eq!(summaries[0], summaries[2]);
        // And the commutative counters agree with the materialized logs.
        let arrived: u64 = seq
            .gpus
            .iter()
            .map(|g| {
                (0..g.tenants.len())
                    .map(|a| g.log.records(a).len() as u64)
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(summaries[0].arrived_requests, arrived);
        assert_eq!(summaries[0].completed_requests, arrived);
        assert!(summaries[0].mean_latency_ms().is_some());
    }

    #[test]
    fn contention_aware_fleet_runs_end_to_end() {
        let (spec, ws, profiles) = four_tenant_fixture();
        let opts = ClusterOptions {
            placement_policy: PlacementPolicy::contention_aware(),
            ..ClusterOptions::default()
        };
        let run = run_cluster_opts(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(60),
            &opts,
        )
        .unwrap();
        assert!(run.all_completed());
        // Every tenant still lands somewhere valid.
        for t in 0..4 {
            assert!(run.tenant_mean_ms(t).is_some());
        }
    }

    #[test]
    fn oom_tenant_is_a_typed_error() {
        // BERT cannot fit a 512 MiB device: placement rejects it with the
        // admission reason instead of panicking mid-deployment.
        let spec = GpuSpec {
            memory_mib: 512,
            ..GpuSpec::a100()
        };
        let model = AppModel::build(ModelKind::Bert, Phase::Inference);
        let ws = WorkloadSet {
            tenants: vec![TenantSpec::new(
                model.clone(),
                0.5,
                ArrivalPattern::Simultaneous {
                    count: 1,
                    at: SimTime::ZERO,
                },
            )],
            seed: 1,
        };
        let profiles = vec![ProfiledApp::profile_shared(&model, &spec)];
        let err = run_cluster(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(10),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            PlacementError::Unplaceable { request: 0, .. }
        ));
    }

    /// Instance storage tracks live kernels, not simulated time: twice
    /// the periodic trace span runs twice the kernels on every GPU but
    /// leaves each engine's instance-slot high-water where it was.
    #[test]
    fn instance_slots_do_not_grow_with_the_trace_span() {
        let spec = GpuSpec::a100();
        let kinds = [ModelKind::Vgg11, ModelKind::ResNet50, ModelKind::Bert];
        let profiles: Vec<SharedProfile> = kinds
            .iter()
            .map(|&k| ProfiledApp::profile_shared(&AppModel::build(k, Phase::Inference), &spec))
            .collect();
        let run = |count: usize| {
            let tenants = kinds
                .iter()
                .enumerate()
                .map(|(i, &k)| {
                    TenantSpec::new(
                        AppModel::build(k, Phase::Inference),
                        0.5,
                        ArrivalPattern::Periodic {
                            period: SimDuration::from_millis(20),
                            count,
                            offset: SimDuration::from_millis(i as u64),
                        },
                    )
                })
                .collect();
            let ws = WorkloadSet { tenants, seed: 5 };
            let opts = ClusterOptions::default();
            let params = BlessParams::default();
            let horizon = SimTime::from_secs(60);
            let summary =
                run_cluster_stream(&ws, profiles.clone(), 4, &spec, &params, horizon, &opts)
                    .unwrap();
            assert!(summary.all_completed());
            let seq = run_cluster_opts(
                &ws,
                profiles.clone(),
                4,
                &spec,
                &params,
                horizon,
                &sequential(),
            )
            .unwrap();
            let kernels: usize = seq
                .gpus
                .iter()
                .flat_map(|g| {
                    g.tenants.iter().enumerate().map(|(local, &t)| {
                        g.log.completed_count(local) * profiles[t].kernel_count()
                    })
                })
                .sum();
            let slots: Vec<usize> = seq.gpus.iter().map(|g| g.instance_slots).collect();
            assert_eq!(
                summary.max_instance_slots,
                slots.iter().copied().max().unwrap()
            );
            (kernels, slots)
        };
        let (kernels, slots) = run(10);
        let (kernels_2x, slots_2x) = run(20);
        assert_eq!(kernels_2x, 2 * kernels);
        assert_eq!(slots_2x, slots, "instance slots grew with the trace span");
        assert!(slots.iter().all(|&s| s > 0 && s * 10 < kernels));
    }
}
