//! §4.4.2: predictor evaluation and the determiner's search cost.

use bench::warm_profiles;
use bless::{determine_config, DeployedApp};
use criterion::{criterion_group, criterion_main, Criterion};
use dnn_models::{ModelKind, Phase};
use gpu_sim::GpuSpec;
use harness::cache;
use harness::squadlab::slice_squad;

fn bench(c: &mut Criterion) {
    warm_profiles();
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
    let mut g = c.benchmark_group("predictor");
    g.bench_function("determine_config_2apps", |b| {
        b.iter(|| {
            determine_config(
                std::hint::black_box(&squad),
                &apps,
                108,
                &spec.channel_model,
            )
        })
    });
    g.bench_function("accuracy_sample", |b| {
        b.iter(|| harness::experiments::predictor::measure(5, 2))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
