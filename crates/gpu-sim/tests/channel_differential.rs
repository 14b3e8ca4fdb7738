//! Golden and property tests for the interference channels
//! (DESIGN.md §5j).
//!
//! Three pillars:
//!
//! 1. **One live channel is the paper's term** — the engine used to carry
//!    a separate scalar arm (one `mem_intensity` traffic sum with a
//!    spec-level α/base/cap). Its output and trace digests on a seeded
//!    workload matrix were recorded before that arm was deleted, and the
//!    one-channel [`ChannelParams`] curve must reproduce them bit for bit:
//!    on the monolithic [`Gpu`] with the curve and all demand on DRAM-BW
//!    (the default [`GpuSpec::a100`]) and on L2 (any single channel is
//!    the paper's term, not just the calibrated one), and on the lane
//!    engine at worker counts 1/2/4.
//! 2. **Property tests** — the channel slowdown formula is monotone in
//!    each channel's pressure, never below 1.0, capped per channel, and
//!    permutation-invariant across co-resident kernel order.
//! 3. **Divergence witness** — a genuinely multi-channel workload under
//!    the calibrated model *does* diverge from the paper's term, so the
//!    goldens are not vacuously reproduced by any parameter set.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use gpu_sim::lanes::{LaneEngine, MergedOutput};
use gpu_sim::spec::{GpuSpec, HostCosts};
use gpu_sim::{
    Channel, ChannelDemand, ChannelParams, CtxKind, Gpu, KernelDesc, StepOutput, NUM_CHANNELS,
};
use proptest::prelude::*;
use sim_core::trace::BufferSink;
use sim_core::{SimDuration, SimRng, SimTime};

const QUEUES: usize = 6;
const KERNELS_PER_QUEUE: usize = 40;

/// FNV-1a 64-bit, the workspace's stock digest for golden tests.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// One reproducible kernel plan: per queue, (desc, tag, extra delay).
/// Every spec variant launches exactly this, so digests are comparable.
struct Plan {
    queues: Vec<Vec<(KernelDesc, u64, SimDuration)>>,
}

/// A mixed, interference-heavy workload on shared contexts: compute
/// kernels of varying width and memory intensity (co-running across MPS
/// contexts, so the interference term is constantly exercised) plus DMA
/// transfers, with staggered arrivals. `collapse_on` routes each
/// kernel's memory-intensity demand onto the given channel so the same
/// plan can test the one-channel curve on any channel.
fn canonical_plan(seed: u64, collapse_on: Channel) -> Plan {
    let mut rng = SimRng::new(seed);
    let mut queues = Vec::new();
    for q in 0..QUEUES {
        let mut kernels = Vec::new();
        for k in 0..KERNELS_PER_QUEUE {
            let tag = ((q as u64) << 32) | k as u64;
            let extra = SimDuration::from_nanos(rng.next_below(500_000));
            let desc = if q == QUEUES - 1 && k % 3 == 0 {
                if k % 6 == 0 {
                    KernelDesc::memcpy_h2d("h2d", 1 << (16 + rng.next_below(6)))
                } else {
                    KernelDesc::memcpy_d2h("d2h", 1 << (16 + rng.next_below(6)))
                }
            } else {
                let dur = SimDuration::from_nanos(20_000 + rng.next_below(180_000));
                let sms = 4 + rng.next_below(60) as u32;
                let mem = match rng.next_below(4) {
                    0 => 0.0,
                    1 => 0.3,
                    2 => 0.7,
                    _ => 0.9,
                };
                KernelDesc::compute("c", dur, sms, mem)
                    .with_demand(ChannelDemand::collapsed(collapse_on, mem))
            };
            kernels.push((desc, tag, extra));
        }
        queues.push(kernels);
    }
    Plan { queues }
}

/// Builds a monolithic `Gpu` under `spec` — two MPS-affinity contexts
/// and one default context sharing the SM pool, queues spread across
/// them — and launches the plan.
fn build_gpu(plan: &Plan, spec: GpuSpec, sink: Option<BufferSink>) -> Gpu {
    let mut gpu = Gpu::new(spec, HostCosts::free());
    if let Some(s) = sink {
        gpu.set_trace_sink(Box::new(s));
    }
    let ctxs = [
        gpu.create_context(CtxKind::MpsAffinity { sm_cap: 54 })
            .expect("ctx"),
        gpu.create_context(CtxKind::MpsAffinity { sm_cap: 54 })
            .expect("ctx"),
        gpu.create_context(CtxKind::Default).expect("ctx"),
    ];
    for (q, kernels) in plan.queues.iter().enumerate() {
        let qid = gpu.create_queue(ctxs[q % ctxs.len()]).expect("queue");
        for (desc, tag, extra) in kernels {
            gpu.launch_delayed(qid, desc.clone(), *tag, *extra)
                .expect("launch");
        }
    }
    gpu
}

/// Builds a lane engine under `spec`: 2 lanes, each with one
/// MIG-partition context carrying half the plan's queues (intra-lane
/// interference stays live through the shared interference term).
fn build_lanes(plan: &Plan, spec: GpuSpec, traced: bool) -> LaneEngine {
    let mut eng = LaneEngine::homogeneous(spec, HostCosts::free(), 2);
    if traced {
        eng.enable_tracing();
    }
    for lane in 0..2 {
        let gpu = eng.lane_mut(lane);
        let ctx = gpu
            .create_context(CtxKind::MigPartition { sm_count: 54 })
            .expect("mig ctx");
        for (q, kernels) in plan.queues.iter().enumerate() {
            if q % 2 != lane {
                continue;
            }
            let qid = gpu.create_queue(ctx).expect("queue");
            for (desc, tag, extra) in kernels {
                gpu.launch_delayed(qid, desc.clone(), *tag, *extra)
                    .expect("launch");
            }
        }
    }
    eng
}

fn digest_gpu_outputs(outs: &[(SimTime, StepOutput)]) -> u64 {
    let mut h = Fnv::new();
    for (at, o) in outs {
        h.write_u64(at.as_nanos());
        match o {
            StepOutput::KernelDone { handle, queue, tag } => {
                h.write_u64(1);
                h.write_u64(handle.0);
                h.write_u64(queue.0 as u64);
                h.write_u64(*tag);
            }
            StepOutput::HostWake { token } => {
                h.write_u64(2);
                h.write_u64(*token);
            }
            StepOutput::ContextCrash { app } => {
                h.write_u64(3);
                h.write_u64(*app as u64);
            }
        }
    }
    h.0
}

fn digest_merged(outs: &[MergedOutput]) -> u64 {
    let mut h = Fnv::new();
    for m in outs {
        h.write_u64(m.at.as_nanos());
        h.write_u64(m.lane as u64);
        match m.output {
            StepOutput::KernelDone { handle, queue, tag } => {
                h.write_u64(1);
                h.write_u64(handle.0);
                h.write_u64(queue.0 as u64);
                h.write_u64(tag);
            }
            StepOutput::HostWake { token } => {
                h.write_u64(2);
                h.write_u64(token);
            }
            StepOutput::ContextCrash { app } => {
                h.write_u64(3);
                h.write_u64(app as u64);
            }
        }
    }
    h.0
}

fn digest_trace_events(events: &[sim_core::TraceEvent]) -> u64 {
    let mut h = Fnv::new();
    for ev in events {
        h.write(ev.to_json().as_bytes());
    }
    h.0
}

fn digest_lane_trace(trace: &[(u32, sim_core::TraceEvent)]) -> u64 {
    let mut h = Fnv::new();
    for (lane, ev) in trace {
        h.write_u64(*lane as u64);
        h.write(ev.to_json().as_bytes());
    }
    h.0
}

/// Runs the plan on the monolithic engine under `spec` and returns
/// (output stream, output digest, trace digest).
fn run_monolithic(plan: &Plan, spec: GpuSpec) -> (Vec<(SimTime, StepOutput)>, u64, u64) {
    let sink = BufferSink::new();
    let mut gpu = build_gpu(plan, spec, Some(sink.clone()));
    let mut out = Vec::new();
    gpu.drain_outputs_into(&mut out);
    drop(gpu.take_trace_sink());
    let events = sink.take();
    assert!(!out.is_empty());
    assert!(!events.is_empty());
    let od = digest_gpu_outputs(&out);
    let td = digest_trace_events(&events);
    (out, od, td)
}

/// The A100 with the paper's scalar curve (α 1.5, base 0.30, cap 2.0) as
/// the one live channel `ch`.
fn paper_curve_on(ch: Channel) -> GpuSpec {
    GpuSpec {
        channel_model: ChannelParams::one_channel(ch, 1.5, 0.30, 2.0),
        ..GpuSpec::a100()
    }
}

/// `(seed, output digest, trace digest)` of the deleted scalar arm on the
/// monolithic engine. The scalar arm read `mem_intensity` whatever
/// channel the demand sat on, so the DRAM-BW and L2 plans share one row.
const SCALAR_MONOLITHIC_GOLDENS: [(u64, u64, u64); 4] = [
    (0xC0FFEE, 0xf5a7_f022_f037_07d8, 0xdd0d_0b86_8b10_5567),
    (0xB1E55, 0x6009_724b_d249_cdfb, 0x446e_71af_3b2f_aec4),
    (7, 0x69e2_2fff_f608_591c, 0xb8ae_e477_4604_e0d8),
    (0xDEAD_BEEF, 0x4eae_5f44_6949_2d02, 0xb88c_3e6e_51ae_e602),
];

/// Merged output digest, trace digest and output count of the deleted
/// scalar arm on the two-lane engine (plan seed `0xB1E55`, DRAM-BW), the
/// same at every worker count.
const SCALAR_LANE_GOLDEN: (u64, u64, usize) = (0x3c52_46ef_3c1a_50bf, 0xeac5_bafe_7ad0_2b3b, 240);

#[test]
fn one_channel_curve_reproduces_scalar_goldens_on_monolithic_gpu() {
    assert_eq!(
        GpuSpec::a100().channel_model,
        paper_curve_on(Channel::DramBw).channel_model
    );
    for &(seed, od, td) in &SCALAR_MONOLITHIC_GOLDENS {
        for ch in [Channel::DramBw, Channel::L2] {
            let plan = canonical_plan(seed, ch);
            let (_, got_od, got_td) = run_monolithic(&plan, paper_curve_on(ch));
            assert_eq!(got_od, od, "output digest moved: seed={seed:#x} ch={ch:?}");
            assert_eq!(got_td, td, "trace digest moved: seed={seed:#x} ch={ch:?}");
        }
    }
}

#[test]
fn one_channel_curve_reproduces_scalar_goldens_across_worker_counts() {
    // Lane-sharded: the one-channel curve must reproduce the scalar arm's
    // deterministic (time, lane, seq) merge at every worker count.
    let (od, td, n) = SCALAR_LANE_GOLDEN;
    let plan = canonical_plan(0xB1E55, Channel::DramBw);
    let mut seq = build_lanes(&plan, GpuSpec::a100(), true);
    let mut seq_out = Vec::new();
    seq.drain_seq_into(&mut seq_out);
    assert_eq!(seq_out.len(), n);
    assert_eq!(digest_merged(&seq_out), od, "sequential digest moved");
    assert_eq!(
        digest_lane_trace(&seq.merged_trace()),
        td,
        "sequential trace digest moved"
    );

    for workers in [1usize, 2, 4] {
        let mut eng = build_lanes(&plan, GpuSpec::a100(), true);
        eng.set_workers(workers);
        let mut out = Vec::new();
        eng.drain_par_into(&mut out);
        assert_eq!(out, seq_out, "stream diverged at workers={workers}");
        assert_eq!(digest_merged(&out), od, "digest moved at workers={workers}");
        assert_eq!(
            digest_lane_trace(&eng.merged_trace()),
            td,
            "trace digest moved at workers={workers}"
        );
    }
}

#[test]
fn calibrated_model_diverges_from_scalar_on_multi_channel_demand() {
    // Witness that the goldens are not vacuous: a genuinely
    // multi-channel workload under the calibrated per-resource model
    // produces a different completion stream than the paper's term.
    let seed = 0xB1E55;
    let mut rng = SimRng::new(seed);
    let mut plan = Plan { queues: Vec::new() };
    for q in 0..4usize {
        let mut kernels = Vec::new();
        for k in 0..30usize {
            let dur = SimDuration::from_nanos(20_000 + rng.next_below(180_000));
            let sms = 4 + rng.next_below(60) as u32;
            let demand = ChannelDemand::new(0.3, 0.6, 0.5, 0.1);
            kernels.push((
                KernelDesc::compute("c", dur, sms, 0.5).with_demand(demand),
                ((q as u64) << 32) | k as u64,
                SimDuration::from_nanos(rng.next_below(500_000)),
            ));
        }
        plan.queues.push(kernels);
    }
    let (_, scalar_od, _) = run_monolithic(&plan, GpuSpec::a100());
    let (_, pr_od, _) = run_monolithic(&plan, GpuSpec::a100_per_resource());
    assert_ne!(
        scalar_od, pr_od,
        "per-resource model never diverged from scalar"
    );
}

// ---------------------------------------------------------------------------
// Property tests for the channel slowdown formula.
// ---------------------------------------------------------------------------

type DemandTuple = (f64, f64, f64, f64);

fn demand_of(d: DemandTuple) -> ChannelDemand {
    ChannelDemand::new(d.0, d.1, d.2, d.3)
}

const UNIT: std::ops::Range<f64> = 0.0f64..1.0;
const TRAFFIC: std::ops::Range<f64> = 0.0f64..4.0;

proptest! {
    /// Slowdown is never below 1.0 and never above the per-channel caps.
    #[test]
    fn slowdown_bounded_below_and_capped(
        d in (UNIT, UNIT, UNIT, UNIT),
        share in 0.0f64..1.0,
        t in (TRAFFIC, TRAFFIC, TRAFFIC, TRAFFIC),
    ) {
        let p = ChannelParams::a100();
        let traffic = [t.0, t.1, t.2, t.3];
        let s = p.slowdown(&demand_of(d), share, &traffic);
        prop_assert!(s >= 1.0, "slowdown {} below 1", s);
        let max_cap = p.cap.iter().cloned().fold(1.0f64, f64::max);
        prop_assert!(s <= max_cap, "slowdown {} above max cap {}", s, max_cap);
    }

    /// Slowdown is monotone (non-decreasing) in each channel's traffic.
    #[test]
    fn slowdown_monotone_in_each_channel_pressure(
        d in (UNIT, UNIT, UNIT, UNIT),
        share in 0.0f64..1.0,
        t in (TRAFFIC, TRAFFIC, TRAFFIC, TRAFFIC),
        bump in 0.0f64..2.0,
        ch in 0usize..NUM_CHANNELS,
    ) {
        let p = ChannelParams::a100();
        let demand = demand_of(d);
        let traffic = [t.0, t.1, t.2, t.3];
        let base = p.slowdown(&demand, share, &traffic);
        let mut more = traffic;
        more[ch] += bump;
        let bumped = p.slowdown(&demand, share, &more);
        prop_assert!(
            bumped >= base,
            "pressure bump on channel {} lowered slowdown: {} -> {}", ch, base, bumped
        );
    }

    /// Each channel respects its own cap: with pressure confined to one
    /// channel, the slowdown never exceeds that channel's cap even under
    /// absurd traffic.
    #[test]
    fn slowdown_capped_per_channel(
        intensity in 0.0f64..1.0,
        traffic_mag in 0.0f64..1000.0,
        ch in 0usize..NUM_CHANNELS,
    ) {
        let p = ChannelParams::a100();
        let demand = ChannelDemand::collapsed(Channel::ALL[ch], intensity);
        let mut traffic = [0.0; NUM_CHANNELS];
        traffic[ch] = traffic_mag;
        let s = p.slowdown(&demand, 0.0, &traffic);
        prop_assert!(s <= p.cap[ch], "channel {}: slowdown {} above its cap {}", ch, s, p.cap[ch]);
    }

    /// The slowdown a victim sees is invariant (to f64 accumulation
    /// noise) under permutation of its co-residents' order: traffic is a
    /// sum, so co-resident order must not matter.
    #[test]
    fn slowdown_permutation_invariant_across_co_residents(
        demands in proptest::collection::vec(((UNIT, UNIT, UNIT, UNIT), 0.0f64..0.5), 2..8),
        v in (UNIT, UNIT, UNIT, UNIT),
        rotation in 0usize..8,
    ) {
        let p = ChannelParams::a100();
        let victim = demand_of(v);
        let accumulate = |list: &[(DemandTuple, f64)]| {
            let mut t = [0.0f64; NUM_CHANNELS];
            for (d, share) in list {
                let d = demand_of(*d);
                for (tc, dc) in t.iter_mut().zip(d.0) {
                    *tc += dc * share;
                }
            }
            t
        };
        let forward = accumulate(&demands);
        let mut rotated_list = demands.clone();
        let len = rotated_list.len();
        rotated_list.rotate_left(rotation % len);
        let rotated = accumulate(&rotated_list);
        let a = p.slowdown(&victim, 0.25, &forward);
        let b = p.slowdown(&victim, 0.25, &rotated);
        prop_assert!((a - b).abs() <= 1e-9 * a.max(1.0), "permutation moved slowdown: {} vs {}", a, b);
    }
}
