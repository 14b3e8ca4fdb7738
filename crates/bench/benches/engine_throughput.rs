//! Simulation-core fast-path benchmarks: raw engine event throughput and
//! the configuration determiner's search cost (plain vs. memoized).
//!
//! These back the numbers in README's "Performance" section: the engine
//! figures divide kernels-per-iteration by the reported mean time (each
//! kernel is at least an Arrive and a Complete event).

use bench::warm_profiles;
use bless::{determine_config, determine_config_memo_model, ConfigMemo, DeployedApp};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dnn_models::{ModelKind, Phase};
use gpu_sim::{CtxKind, Gpu, GpuSpec, HostCosts, KernelDesc};
use harness::cache;
use harness::squadlab::slice_squad;
use sim_core::SimDuration;

/// Launches `n` short compute kernels interleaved across two contending
/// contexts and drains the device — the engine's hot loop (arrive, start,
/// reallocate, complete) with nothing else in the way.
fn drain_kernels(n: usize, recycle: bool) {
    let mut gpu = Gpu::new(GpuSpec::a100(), HostCosts::free());
    gpu.set_slot_recycling(recycle);
    let queues: Vec<_> = (0..2)
        .map(|_| {
            let ctx = gpu.create_context(CtxKind::Default).unwrap();
            gpu.create_queue(ctx).unwrap()
        })
        .collect();
    for i in 0..n {
        let q = queues[i % queues.len()];
        let k = KernelDesc::compute("k", SimDuration::from_micros(5), 54, 0.2);
        gpu.launch(q, k, i as u64).unwrap();
        // Keep the in-flight window small so arrivals and completions
        // interleave the way driver-fed workloads do.
        if i % 8 == 7 {
            gpu.drain();
        }
    }
    gpu.drain();
    black_box(gpu.now());
}

/// The same hot loop driven by table reference: the descriptor is
/// registered once and every launch passes `(table, index)` — the
/// steady-state path BLESS uses, with no per-launch descriptor values
/// constructed at all.
fn drain_kernels_table(n: usize) {
    let mut gpu = Gpu::new(GpuSpec::a100(), HostCosts::free());
    gpu.set_slot_recycling(true);
    let queues: Vec<_> = (0..2)
        .map(|_| {
            let ctx = gpu.create_context(CtxKind::Default).unwrap();
            gpu.create_queue(ctx).unwrap()
        })
        .collect();
    let desc = KernelDesc::compute("k", SimDuration::from_micros(5), 54, 0.2);
    let table = gpu.register_kernel_table(vec![desc].into());
    for i in 0..n {
        let q = queues[i % queues.len()];
        gpu.launch_table(q, table, 0, i as u64).unwrap();
        if i % 8 == 7 {
            gpu.drain();
        }
    }
    gpu.drain();
    black_box(gpu.now());
}

fn bench(c: &mut Criterion) {
    warm_profiles();
    let mut g = c.benchmark_group("engine_throughput");
    g.bench_function("drain_10k_kernels_recycled", |b| {
        b.iter(|| drain_kernels(10_000, true))
    });
    g.bench_function("drain_10k_kernels_no_recycle", |b| {
        b.iter(|| drain_kernels(10_000, false))
    });
    g.bench_function("drain_10k_kernels_table", |b| {
        b.iter(|| drain_kernels_table(10_000))
    });
    g.finish();

    let spec = GpuSpec::a100();
    let apps = vec![
        DeployedApp::new(
            cache::profile(ModelKind::NasNet, Phase::Inference, &spec),
            0.5,
            None,
        ),
        DeployedApp::new(
            cache::profile(ModelKind::ResNet50, Phase::Inference, &spec),
            0.5,
            None,
        ),
    ];
    let squad = slice_squad(&apps, &[1, 1], &[25, 25]);
    let mut g = c.benchmark_group("determiner_throughput");
    g.bench_function("determine_config_plain", |b| {
        b.iter(|| determine_config(black_box(&squad), &apps, 108, &spec.channel_model))
    });
    g.bench_function("determine_config_memoized", |b| {
        let mut memo = ConfigMemo::new();
        let model = &spec.channel_model;
        determine_config_memo_model(&mut memo, &squad, &apps, 108, model);
        b.iter(|| determine_config_memo_model(&mut memo, black_box(&squad), &apps, 108, model))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
