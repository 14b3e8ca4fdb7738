//! End-to-end integration: profile → admit → deploy → serve → measure,
//! across all workspace crates.

use bless::{BlessDriver, BlessParams, DeployedApp};
use dnn_models::{AppModel, ModelKind, Phase};
use gpu_sim::{BufferSink, Gpu, GpuSpec, HostCosts, RunOutcome, Simulation};
use metrics::{TraceValidator, ValidatorConfig};
use profiler::{admit, AdmissionPolicy, ProfiledApp};
use sim_core::SimTime;
use std::sync::Arc;
use workloads::{pair_workload, PaperWorkload};

fn profiled(kind: ModelKind) -> Arc<ProfiledApp> {
    // Shared process-wide cache: avoids re-running the 19 profiling
    // passes in every test.
    harness::cache::profile(kind, Phase::Inference, &GpuSpec::a100())
}

/// Installs a trace sink on `gpu` so the run can be machine-checked
/// against the scheduler invariants afterwards (DESIGN.md §5e).
fn record(gpu: &mut Gpu) -> BufferSink {
    let sink = BufferSink::new();
    gpu.set_trace_sink(Box::new(sink.clone()));
    sink
}

/// Replays the recorded trace through the validator; any structural
/// invariant violation fails the test.
fn check(sink: &BufferSink, num_sms: u32) {
    TraceValidator::new(ValidatorConfig::structural(num_sms))
        .validate(&sink.take())
        .assert_clean();
}

#[test]
fn full_pipeline_serves_all_requests() {
    let spec = GpuSpec::a100();
    let vgg = profiled(ModelKind::Vgg11);
    let r50 = profiled(ModelKind::ResNet50);
    admit(&[&vgg, &r50], spec.memory_mib, &AdmissionPolicy::default()).unwrap();

    let apps = vec![
        DeployedApp::new(vgg, 0.5, None),
        DeployedApp::new(r50, 0.5, None),
    ];
    let ws = pair_workload(
        AppModel::build(ModelKind::Vgg11, Phase::Inference),
        AppModel::build(ModelKind::ResNet50, Phase::Inference),
        (0.5, 0.5),
        PaperWorkload::MediumLoad,
        15,
        SimTime::from_secs(10),
        5,
    );
    let driver = BlessDriver::new(apps, BlessParams::default());
    let mut gpu = Gpu::new(spec, HostCosts::paper());
    let num_sms = gpu.spec().num_sms;
    let sink = record(&mut gpu);
    let mut sim = Simulation::new(gpu, driver, ws.initial_arrivals())
        .with_notice_handler(ws.notice_handler());
    let outcome = sim.run(SimTime::from_secs(120));

    assert_eq!(outcome, RunOutcome::Completed);
    assert!(sim.gpu.is_device_idle(), "no kernels left behind");
    check(&sink, num_sms);
    for app in 0..2 {
        assert_eq!(
            sim.driver.log.completed_count(app),
            15,
            "every closed-loop request completes"
        );
        // Completions are strictly FIFO per app.
        let recs = sim.driver.log.records(app);
        for w in recs.windows(2) {
            assert!(w[0].completion.unwrap() <= w[1].completion.unwrap());
        }
    }
}

#[test]
fn quota_guarantee_holds_under_sustained_overlap() {
    // Medium load keeps the pair overlapped most of the time; each app's
    // mean latency must stay within a small envelope of its ISO target
    // (the envelope covers the calibrated ~7% interference, Fig. 9b).
    let spec = GpuSpec::a100();
    let apps = vec![
        DeployedApp::new(profiled(ModelKind::ResNet101), 1.0 / 3.0, None),
        DeployedApp::new(profiled(ModelKind::Bert), 2.0 / 3.0, None),
    ];
    let ws = pair_workload(
        AppModel::build(ModelKind::ResNet101, Phase::Inference),
        AppModel::build(ModelKind::Bert, Phase::Inference),
        (1.0 / 3.0, 2.0 / 3.0),
        PaperWorkload::HighLoad,
        12,
        SimTime::from_secs(10),
        17,
    );
    let driver = BlessDriver::new(apps, BlessParams::default());
    let mut gpu = Gpu::new(spec, HostCosts::paper());
    let num_sms = gpu.spec().num_sms;
    let sink = record(&mut gpu);
    let mut sim = Simulation::new(gpu, driver, ws.initial_arrivals())
        .with_notice_handler(ws.notice_handler());
    assert_eq!(sim.run(SimTime::from_secs(300)), RunOutcome::Completed);
    check(&sink, num_sms);
    for app in 0..2 {
        let mean = sim.driver.log.stats(app).mean.unwrap().as_nanos() as f64;
        let iso = sim.driver.apps[app].iso_latency().as_nanos() as f64;
        assert!(
            mean <= iso * 1.15,
            "app {app}: mean {:.2} ms vs ISO {:.2} ms",
            mean / 1e6,
            iso / 1e6
        );
    }
}

#[test]
fn solo_tenant_uses_whole_gpu_regardless_of_quota() {
    // A tenant with a tiny quota still gets the full GPU when alone —
    // the core "bubble squeezing" behaviour.
    let spec = GpuSpec::a100();
    let apps = vec![DeployedApp::new(profiled(ModelKind::Bert), 0.1, None)];
    let ws = pair_bert_solo();
    let driver = BlessDriver::new(apps, BlessParams::default());
    let mut gpu = Gpu::new(spec, HostCosts::paper());
    let num_sms = gpu.spec().num_sms;
    let sink = record(&mut gpu);
    let mut sim = Simulation::new(gpu, driver, ws.initial_arrivals())
        .with_notice_handler(ws.notice_handler());
    assert_eq!(sim.run(SimTime::from_secs(60)), RunOutcome::Completed);
    check(&sink, num_sms);
    let mean = sim.driver.log.stats(0).mean.unwrap().as_millis_f64();
    // BERT solo is ~12.8 ms; its 10%-quota ISO would be ~90 ms.
    assert!(mean < 15.0, "solo BERT at 10% quota: {mean:.2} ms");
}

fn pair_bert_solo() -> workloads::WorkloadSet {
    workloads::WorkloadSet::new(
        vec![workloads::TenantSpec::new(
            AppModel::build(ModelKind::Bert, Phase::Inference),
            0.1,
            workloads::ArrivalPattern::ClosedLoop {
                think: sim_core::SimDuration::from_millis(13),
                count: 8,
            },
        )],
        3,
    )
}

#[test]
fn memory_overcommit_is_rejected_at_admission() {
    let a = profiled(ModelKind::Vgg11);
    let b = profiled(ModelKind::Bert);
    // A hypothetical 3 GiB GPU cannot host both plus their MPS contexts.
    let err = admit(&[&a, &b], 3 * 1024, &AdmissionPolicy::default()).unwrap_err();
    assert!(matches!(err, profiler::AdmissionError::OutOfMemory { .. }));
}

#[test]
fn slo_mode_prioritizes_the_tight_tenant() {
    let spec = GpuSpec::a100();
    let r50a = profiled(ModelKind::ResNet50);
    let r50b = profiled(ModelKind::ResNet50);
    let iso = r50a.iso_latency[r50a.partition_for_quota(0.5)];
    let apps = vec![
        DeployedApp::new(r50a, 0.5, Some(iso.mul_f64(1.1))), // tight
        DeployedApp::new(r50b, 0.5, Some(iso.mul_f64(3.0))), // loose
    ];
    let ws = pair_workload(
        AppModel::build(ModelKind::ResNet50, Phase::Inference),
        AppModel::build(ModelKind::ResNet50, Phase::Inference),
        (0.5, 0.5),
        PaperWorkload::MediumLoad,
        10,
        SimTime::from_secs(10),
        29,
    );
    let driver = BlessDriver::new(apps, BlessParams::default());
    let mut gpu = Gpu::new(spec, HostCosts::paper());
    let num_sms = gpu.spec().num_sms;
    let sink = record(&mut gpu);
    let mut sim = Simulation::new(gpu, driver, ws.initial_arrivals())
        .with_notice_handler(ws.notice_handler());
    assert_eq!(sim.run(SimTime::from_secs(300)), RunOutcome::Completed);
    check(&sink, num_sms);
    let tight = sim.driver.log.stats(0).mean.unwrap();
    let targets = [
        sim.driver.apps[0].target_latency(),
        sim.driver.apps[1].target_latency(),
    ];
    // The tight tenant meets its SLO; violation rates stay near zero.
    assert!(
        tight <= targets[0],
        "tight tenant {tight} vs SLO {}",
        targets[0]
    );
    for (app, &target) in targets.iter().enumerate() {
        let v = sim.driver.log.violation_rate(app, target);
        assert!(v <= 0.2, "app {app} violation rate {v}");
    }
}
