//! Allocation-regression gate: measures steady-state heap allocations per
//! simulated kernel for the raw engine loop and for a single-GPU BLESS
//! run, plus table-launch engine throughput and how the chaos fleet's
//! peak live heap grows with its simulated horizon, then writes
//! `BENCH_alloc.json` at the repo root.
//!
//! Run with `cargo bench -p bench --bench alloc_stats --features
//! count-alloc`; set `BENCH_QUICK=1` for the CI smoke variant, which
//! compares against the checked-in snapshot and fails on regression
//! instead of rewriting it.
//!
//! The BLESS figure is *marginal*: two runs differing only in request
//! count, so (ΔA)/(ΔK) cancels one-time setup allocations (contexts,
//! profiles, logs) and isolates the steady-state scheduling loop. Before
//! the zero-allocation work this was ~2.46 allocs/kernel; the scratch
//! buffers and kernel tables bring it under 0.25 (see `BEFORE_BLESS`).

use std::time::Instant;

use cluster::{ChaosOptions, ClusterOptions};
use dnn_models::{AppModel, ModelKind, Phase};
use gpu_sim::{
    CtxKind, Gpu, GpuSpec, HostCosts, HwPolicy, KernelDesc, KernelTableId, LaneEngine,
    MergedOutput, QueueId,
};
use harness::cache;
use harness::experiments::fleet10k;
use harness::runner::System;
use profiler::ProfiledApp;
use sim_core::{FaultSpec, SimDuration, SimTime};
use workloads::{ArrivalPattern, PaperWorkload, TenantSpec, WorkloadSet};

/// Measured marginal allocs/kernel for single-GPU BLESS before the
/// zero-allocation work (same workload pair, same request counts).
const BEFORE_BLESS: f64 = 2.4602;

/// Engine-loop allocs/kernel before this PR (slot recycling and stable
/// queue capacities already made the clone-launch loop allocation-free).
const BEFORE_ENGINE: f64 = 0.0;

/// Quick-mode regression slack on the BLESS marginal: absolute headroom
/// over the checked-in baseline before the gate fails (tolerates drain
/// jitter between runs of different machines).
const GATE_SLACK: f64 = 0.05;

/// Allowed steady-state allocs/kernel for the *threaded* lane drain.
/// `std::thread::scope` allocates per spawned worker per drain round; that
/// constant amortizes over the round's kernels but cannot reach zero.
const LANE_THREADED_EPSILON: f64 = 0.5;

/// Largest allowed ratio of the chaos fleet's peak live heap at horizon
/// 2H over the peak at horizon H, on one trace that outlasts both. The
/// trace's arrival and completion tables are the same size either way;
/// per-kernel engine state would double.
const CHAOS_GROWTH_CAP: f64 = 1.25;

const MIB: f64 = 1024.0 * 1024.0;

fn quick() -> bool {
    std::env::var_os("BENCH_QUICK").is_some()
}

/// A warmed engine with two contending default-context queues and a
/// registered one-entry kernel table.
fn engine_setup() -> (Gpu, Vec<QueueId>, KernelTableId) {
    engine_setup_with(GpuSpec::a100(), 1, 54)
}

/// [`engine_setup`] under an explicit spec (the per-resource channel model
/// and the `FairShare` policy reuse the same harness), with
/// `queues_per_ctx` queues on each of the two contexts and kernels capped
/// at `max_sms` SMs.
fn engine_setup_with(
    spec: GpuSpec,
    queues_per_ctx: usize,
    max_sms: u32,
) -> (Gpu, Vec<QueueId>, KernelTableId) {
    let mut gpu = Gpu::new(spec, HostCosts::free());
    gpu.set_slot_recycling(true);
    let mut queues = Vec::new();
    for _ in 0..2 {
        let ctx = gpu.create_context(CtxKind::Default).expect("ctx");
        for _ in 0..queues_per_ctx {
            queues.push(gpu.create_queue(ctx).expect("queue"));
        }
    }
    let desc = KernelDesc::compute("k", SimDuration::from_micros(5), max_sms, 0.2)
        .with_demand(gpu_sim::ChannelDemand::new(0.2, 0.3, 0.4, 0.1));
    let table = gpu.register_kernel_table(vec![desc].into());
    (gpu, queues, table)
}

/// Launches `n` short compute kernels by table reference round-robin
/// across the queues and drains every 8 — the steady-state engine hot loop.
fn engine_batch(gpu: &mut Gpu, queues: &[QueueId], table: KernelTableId, n: usize) {
    for i in 0..n {
        let q = queues[i % queues.len()];
        gpu.launch_table(q, table, 0, i as u64).expect("launch");
        if i % 8 == 7 {
            gpu.drain();
        }
    }
    gpu.drain();
}

/// Steady-state allocations per kernel for the engine loop under `spec`:
/// warm the arena (slots, event heap, queue rings, allocator scratch) with
/// one batch, then count. Rows run the default spec, the per-resource
/// channel model (its 4-channel pressure gather runs on stack arrays) and
/// the `FairShare` hardware policy (its two-level waterfill works in
/// engine-held scratch). `queues_per_ctx` and `max_sms` shape the
/// contention, as in [`engine_setup_with`].
fn engine_allocs_per_kernel(spec: GpuSpec, queues_per_ctx: usize, max_sms: u32, n: usize) -> f64 {
    let (mut gpu, queues, table) = engine_setup_with(spec, queues_per_ctx, max_sms);
    engine_batch(&mut gpu, &queues, table, 4096); // warmup
    let before = bench::alloc_count();
    engine_batch(&mut gpu, &queues, table, n);
    (bench::alloc_count() - before) as f64 / n as f64
}

/// Table-launch engine throughput in kernels/second (best of `reps`
/// batches on a warmed engine).
fn engine_kernels_per_sec(batch: usize, reps: usize) -> f64 {
    let (mut gpu, queues, table) = engine_setup();
    engine_batch(&mut gpu, &queues, table, 4096); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        engine_batch(&mut gpu, &queues, table, batch);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    batch as f64 / best
}

/// A warmed 4-lane engine: per-lane contending queues and a one-entry
/// kernel table, slot recycling on — the lane analogue of `engine_setup`.
fn lane_setup(lanes: usize) -> (LaneEngine, Vec<[QueueId; 2]>, Vec<KernelTableId>) {
    let mut eng = LaneEngine::homogeneous(GpuSpec::a100(), HostCosts::free(), lanes);
    let mut queues = Vec::new();
    let mut tables = Vec::new();
    for lane in 0..lanes {
        let gpu = eng.lane_mut(lane);
        gpu.set_slot_recycling(true);
        let qs = [0u8, 1].map(|_| {
            let ctx = gpu.create_context(CtxKind::Default).expect("ctx");
            gpu.create_queue(ctx).expect("queue")
        });
        let desc = KernelDesc::compute("k", SimDuration::from_micros(5), 54, 0.2);
        tables.push(gpu.register_kernel_table(vec![desc].into()));
        queues.push(qs);
    }
    (eng, queues, tables)
}

/// Launches `n` table kernels per lane and drains every 8 launch rounds
/// through the chosen lane path, reusing one merged-output buffer — the
/// steady-state lane hot loop.
fn lane_batch(
    eng: &mut LaneEngine,
    queues: &[[QueueId; 2]],
    tables: &[KernelTableId],
    n: usize,
    par: bool,
    out: &mut Vec<MergedOutput>,
) {
    let drain = |eng: &mut LaneEngine, out: &mut Vec<MergedOutput>| {
        out.clear();
        if par {
            eng.drain_par_into(out);
        } else {
            eng.drain_seq_into(out);
        }
    };
    for i in 0..n {
        for (lane, qs) in queues.iter().enumerate() {
            eng.lane_mut(lane)
                .launch_table(qs[i % 2], tables[lane], 0, i as u64)
                .expect("launch");
        }
        if i % 8 == 7 {
            drain(eng, out);
        }
    }
    drain(eng, out);
}

/// Steady-state allocations per kernel for the 4-lane engine: warm every
/// lane's arena and the merge scratch with one batch, then count.
fn lane_allocs_per_kernel(n: usize, par: bool, workers: usize) -> f64 {
    let (mut eng, queues, tables) = lane_setup(4);
    eng.set_workers(workers);
    let mut out = Vec::new();
    lane_batch(&mut eng, &queues, &tables, 1024, par, &mut out); // warmup
    let before = bench::alloc_count();
    lane_batch(&mut eng, &queues, &tables, n, par, &mut out);
    (bench::alloc_count() - before) as f64 / (n * queues.len()) as f64
}

/// Total allocations for one streamed fleet run at the given size and
/// worker count (workload construction and profiling excluded).
fn cluster_stream_allocs(gpus: usize, workers: usize) -> u64 {
    let (ws, profiles) = fleet10k::workload(gpus, 2);
    let spec = fleet10k::gpu_spec();
    let horizon = SimTime::ZERO + fleet10k::TRACE_SPAN + fleet10k::TRACE_SPAN;
    let before = bench::alloc_count();
    let summary = cluster::run_cluster_stream(
        &ws,
        profiles,
        gpus,
        &spec,
        &bless::BlessParams::default(),
        horizon,
        &ClusterOptions {
            parallel: workers > 1,
            workers: Some(workers),
            ..ClusterOptions::default()
        },
    )
    .expect("fleet placement");
    std::hint::black_box(summary.digest);
    bench::alloc_count() - before
}

/// Marginal allocations per GPU-step for the streamed fleet runner, for
/// the sequential fold and the sharded worker pool. Two fleet sizes
/// cancel per-run setup (thread spawns, shard deques, accumulator
/// arrays); the sharded marginal minus the sequential marginal is the
/// steady-state cost of the sharding machinery itself — work-stealing
/// dispatch plus streaming aggregation — which must be allocation-free
/// per GPU.
fn cluster_marginals(n1: usize, n2: usize) -> (f64, f64) {
    let d = (n2 - n1) as f64;
    let seq = (cluster_stream_allocs(n2, 1) - cluster_stream_allocs(n1, 1)) as f64 / d;
    let sharded = (cluster_stream_allocs(n2, 2) - cluster_stream_allocs(n1, 2)) as f64 / d;
    (seq, sharded)
}

/// Peak live heap bytes of one `run_chaos` call cut at `horizon`
/// (workload and profiles built before the window opens) plus the
/// requests it completed. The fleet cycles one 0.6-quota VGG-11 tenant at
/// 40 req/s and two 0.1-quota ones at 10 req/s per device over `span`,
/// under one kill and one hang drawn in the first 400 ms, so horizons
/// differ only in how much simulated time the devices cover.
fn chaos_peak_live_bytes(gpus: usize, span: SimDuration, horizon: SimTime) -> (u64, usize) {
    let spec = GpuSpec::a100();
    let model = AppModel::build(ModelKind::Vgg11, Phase::Inference);
    let profile = ProfiledApp::profile_shared(&model, &spec);
    let cycle = [(0.6, 25u64), (0.1, 100), (0.1, 100)];
    let tenants: Vec<TenantSpec> = (0..3 * gpus)
        .map(|i| {
            let (quota, period_ms) = cycle[i % cycle.len()];
            let period = SimDuration::from_millis(period_ms);
            TenantSpec::new(
                model.clone(),
                quota,
                ArrivalPattern::Periodic {
                    period,
                    count: (span.as_nanos() / period.as_nanos()) as usize,
                    offset: SimDuration::from_micros(i as u64 * 617 % (period_ms * 1000)),
                },
            )
        })
        .collect();
    let ws = WorkloadSet { tenants, seed: 11 };
    let profiles = vec![profile; ws.len()];
    let window = (SimTime::from_millis(100), SimTime::from_millis(400));
    let faults = FaultSpec {
        gpu_fail_count: 1,
        gpu_fail_window: window,
        gpu_hang_count: 1,
        gpu_hang_window: window,
        gpu_hang_len: SimDuration::from_millis(20),
        ..FaultSpec::default()
    };
    bench::reset_peak_live_bytes();
    let base = bench::live_bytes();
    let run = cluster::run_chaos(
        &ws,
        profiles,
        gpus,
        &spec,
        &bless::BlessParams::default(),
        horizon,
        3,
        &faults,
        &ChaosOptions {
            parallel: false,
            ..ChaosOptions::default()
        },
    )
    .expect("chaos placement");
    assert!(
        !run.migrations.is_empty(),
        "the chaos row must recover work"
    );
    let peak = bench::peak_live_bytes() - base;
    let completed = (0..run.log.apps())
        .map(|a| run.log.completed_count(a))
        .sum();
    (peak, completed)
}

/// (total allocations, simulated kernels) for one single-GPU BLESS run.
fn bless_run(requests: usize) -> (u64, u64) {
    let spec = GpuSpec::a100();
    let ws = bench::small_pair(
        ModelKind::NasNet,
        ModelKind::Bert,
        PaperWorkload::MediumLoad,
        requests,
    );
    let per_app: Vec<u64> = ws
        .tenants
        .iter()
        .map(|t| cache::profile(t.model.kind, t.model.phase, &spec).kernel_count() as u64)
        .collect();
    let before = bench::alloc_count();
    let r = bench::run(&System::Bless(bless::BlessParams::default()), &ws);
    let allocs = bench::alloc_count() - before;
    let mut kernels = 0u64;
    for (app, &per) in per_app.iter().enumerate() {
        let done = r
            .log
            .records(app)
            .iter()
            .filter(|x| x.completion.is_some())
            .count();
        kernels += done as u64 * per;
    }
    (allocs, kernels)
}

/// Extracts the number following `"key":` from a flat JSON snapshot.
/// (No JSON dependency in this workspace; the file is machine-written
/// with known formatting.)
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    bench::warm_profiles();
    let counting = bench::alloc_counting_enabled();
    println!("alloc counter active: {counting}");

    let engine_n = if quick() { 8192 } else { 65536 };
    let engine = engine_allocs_per_kernel(GpuSpec::a100(), 1, 54, engine_n);
    println!("engine steady-state allocs/kernel: {engine:.4}");
    if counting {
        assert!(
            engine == 0.0,
            "engine hot loop must stay allocation-free in steady state (got {engine:.4}/kernel)"
        );
    }

    let engine_pr = engine_allocs_per_kernel(GpuSpec::a100_per_resource(), 1, 54, engine_n);
    println!("engine steady-state allocs/kernel (per-resource model): {engine_pr:.4}");
    if counting {
        assert!(
            engine_pr == 0.0,
            "per-resource hot loop must stay allocation-free in steady state (got {engine_pr:.4}/kernel)"
        );
    }

    let fair_share = GpuSpec {
        hw_policy: HwPolicy::FairShare,
        ..GpuSpec::a100()
    };
    // Two contexts of two queues each, running full-device kernels: the
    // contexts' demand (4 × 108 SMs) oversubscribes the pool and each
    // context's two kernels oversubscribe its share, so both waterfill
    // levels take the sorted, contended path rather than "everyone fits".
    let engine_fs = engine_allocs_per_kernel(fair_share, 2, 108, engine_n);
    println!("engine steady-state allocs/kernel (FairShare policy): {engine_fs:.4}");
    if counting {
        assert!(
            engine_fs == 0.0,
            "FairShare hot loop must stay allocation-free in steady state (got {engine_fs:.4}/kernel)"
        );
    }

    let (batch, reps) = if quick() { (10_000, 5) } else { (10_000, 20) };
    let kps = engine_kernels_per_sec(batch, reps);
    println!(
        "engine table-launch throughput: {:.2}M kernels/s",
        kps / 1e6
    );

    // Lane engine steady state: the sequential merge loop and the
    // single-worker parallel path (same merge machinery, no threads) must
    // stay allocation-free; the threaded path pays only the per-round
    // thread-spawn constant.
    let lane_n = if quick() { 2048 } else { 16384 };
    let lane_seq = lane_allocs_per_kernel(lane_n, false, 1);
    let lane_par = lane_allocs_per_kernel(lane_n, true, 1);
    let lane_threaded = lane_allocs_per_kernel(lane_n, true, 2);
    println!(
        "lane engine allocs/kernel: seq {lane_seq:.4}, par(1w) {lane_par:.4}, par(2w) {lane_threaded:.4}"
    );
    if counting {
        assert!(
            lane_seq == 0.0,
            "lane step_seq loop must stay allocation-free in steady state (got {lane_seq:.4}/kernel)"
        );
        assert!(
            lane_par == 0.0,
            "lane parallel merge path must stay allocation-free in steady state (got {lane_par:.4}/kernel)"
        );
        assert!(
            lane_threaded <= LANE_THREADED_EPSILON,
            "threaded lane drain exceeds the thread-spawn budget (got {lane_threaded:.4}/kernel, cap {LANE_THREADED_EPSILON})"
        );
    }

    // Sharded fleet runner: warm once (lazy globals, profile interning),
    // then compare per-GPU marginals of the sequential fold and the
    // 2-worker sharded pool. The difference is the sharding machinery's
    // own steady-state cost and must be zero allocations per GPU-step.
    let (c1, c2) = if quick() { (4, 12) } else { (8, 24) };
    std::hint::black_box(cluster_stream_allocs(c1, 2)); // warmup
    let (cluster_seq, cluster_sharded) = cluster_marginals(c1, c2);
    let shard_overhead = cluster_sharded - cluster_seq;
    println!(
        "fleet runner allocs/GPU-step: seq-fold {cluster_seq:.1}, sharded {cluster_sharded:.1}, \
         sharding overhead {shard_overhead:.4}"
    );
    if counting {
        assert!(
            shard_overhead <= 0.0,
            "sharded fleet runner must add 0 steady-state allocs/GPU-step over the sequential \
             fold (got {shard_overhead:.4}: seq {cluster_seq:.1} vs sharded {cluster_sharded:.1})"
        );
    }

    // Chaos memory growth: one fleet, trace and fault schedule, cut at
    // horizon H and at 2H. The devices run twice the kernels by 2H;
    // instance slots are recycled, so the peak must stay nearly flat.
    let (chaos_gpus, chaos_span) = if quick() {
        (8, SimDuration::from_secs(4))
    } else {
        (16, SimDuration::from_secs(8))
    };
    let chaos_h = SimTime::ZERO + chaos_span.mul_f64(0.25);
    let chaos_2h = SimTime::ZERO + chaos_span.mul_f64(0.5);
    let (chaos_peak_h, chaos_req_h) = chaos_peak_live_bytes(chaos_gpus, chaos_span, chaos_h);
    let (chaos_peak_2h, chaos_req_2h) = chaos_peak_live_bytes(chaos_gpus, chaos_span, chaos_2h);
    let chaos_growth = chaos_peak_2h as f64 / chaos_peak_h.max(1) as f64;
    println!(
        "chaos peak live heap: {:.2} MiB at H ({chaos_req_h} requests served), {:.2} MiB at 2H \
         ({chaos_req_2h} served): x{chaos_growth:.3}",
        chaos_peak_h as f64 / MIB,
        chaos_peak_2h as f64 / MIB,
    );
    if counting {
        assert!(
            chaos_growth <= CHAOS_GROWTH_CAP,
            "chaos peak live heap grew x{chaos_growth:.3} from horizon H to 2H (cap \
             x{CHAOS_GROWTH_CAP}): engine memory is tracking simulated time"
        );
    }

    // Marginal allocations per kernel: two runs differing only in request
    // count; the delta cancels per-run setup (driver, profiles, logs).
    let (a1, k1) = bless_run(8);
    let (a2, k2) = bless_run(24);
    let bless_marginal = (a2 - a1) as f64 / (k2 - k1) as f64;
    println!(
        "bless marginal allocs/kernel: {bless_marginal:.4}  (runs: {a1}/{k1} vs {a2}/{k2}, before: {BEFORE_BLESS:.4})"
    );
    if counting {
        assert!(
            bless_marginal <= BEFORE_BLESS / 10.0,
            "BLESS steady state must allocate >=10x less than the {BEFORE_BLESS:.4}/kernel baseline (got {bless_marginal:.4})"
        );
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_alloc.json");
    if quick() {
        // CI smoke: gate against the checked-in snapshot; never rewrite it.
        let Ok(snapshot) = std::fs::read_to_string(path) else {
            panic!("BENCH_alloc.json missing; regenerate with `cargo bench -p bench --bench alloc_stats --features count-alloc`");
        };
        if counting {
            let base = json_number(&snapshot, "allocs_per_kernel_bless")
                .expect("allocs_per_kernel_bless in BENCH_alloc.json");
            assert!(
                bless_marginal <= base + GATE_SLACK,
                "allocation regression: BLESS now at {bless_marginal:.4} allocs/kernel vs checked-in {base:.4} (+{GATE_SLACK} slack)"
            );
            println!("alloc gate passed: {bless_marginal:.4} <= {base:.4} + {GATE_SLACK}");
        } else {
            println!("alloc gate skipped: count-alloc feature off");
        }
        return;
    }

    if !counting {
        println!("not rewriting BENCH_alloc.json: count-alloc feature off, alloc figures would be meaningless");
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"alloc_stats\",\n  \"regenerate\": \"cargo bench -p bench --bench alloc_stats --features count-alloc\",\n  \"count_alloc\": {counting},\n  \"engine\": {{\n    \"kernels\": {engine_n},\n    \"allocs_per_kernel\": {engine:.4},\n    \"allocs_per_kernel_per_resource\": {engine_pr:.4},\n    \"allocs_per_kernel_fair_share\": {engine_fs:.4},\n    \"allocs_per_kernel_before\": {BEFORE_ENGINE:.4},\n    \"table_launch_kernels_per_sec\": {kps:.0}\n  }},\n  \"lanes\": {{\n    \"lanes\": 4,\n    \"kernels\": {},\n    \"allocs_per_kernel_seq\": {lane_seq:.4},\n    \"allocs_per_kernel_par\": {lane_par:.4},\n    \"allocs_per_kernel_par_threaded\": {lane_threaded:.4}\n  }},\n  \"cluster\": {{\n    \"gpus\": [{c1}, {c2}],\n    \"allocs_per_gpu_seq\": {cluster_seq:.1},\n    \"allocs_per_gpu_sharded\": {cluster_sharded:.1},\n    \"sharding_overhead_per_gpu\": {shard_overhead:.4}\n  }},\n  \"chaos\": {{\n    \"gpus\": {chaos_gpus},\n    \"span_s\": {},\n    \"horizon_s\": [{}, {}],\n    \"served\": [{chaos_req_h}, {chaos_req_2h}],\n    \"peak_live_mib\": [{:.3}, {:.3}],\n    \"growth_2x_horizon\": {chaos_growth:.3},\n    \"growth_cap\": {CHAOS_GROWTH_CAP}\n  }},\n  \"bless\": {{\n    \"allocs_per_kernel_bless\": {bless_marginal:.4},\n    \"allocs_per_kernel_before\": {BEFORE_BLESS:.4},\n    \"improvement_factor\": {:.1},\n    \"runs\": [[{a1}, {k1}], [{a2}, {k2}]]\n  }}\n}}\n",
        lane_n * 4,
        chaos_span.as_secs_f64(),
        chaos_h.as_secs_f64(),
        chaos_2h.as_secs_f64(),
        chaos_peak_h as f64 / MIB,
        chaos_peak_2h as f64 / MIB,
        BEFORE_BLESS / bless_marginal.max(1e-9),
    );
    std::fs::write(path, json).expect("write BENCH_alloc.json");
    println!("wrote {path}");
}
