//! SLO mode (§6.5): replace the isolated-latency targets with explicit
//! QoS targets and watch BLESS hold them where GSLICE and UNBOUND fail.
//!
//! Run with: `cargo run --release --example slo_guarantee`

use dnn_models::{ModelKind, Phase};
use gpu_sim::GpuSpec;
use harness::cache;
use harness::runner::{deployment, run_system, System};
use sim_core::SimTime;
use workloads::{pair_workload, PaperWorkload};

fn main() {
    let spec = GpuSpec::a100();
    let ws = pair_workload(
        cache::model(ModelKind::ResNet50, Phase::Inference),
        cache::model(ModelKind::ResNet50, Phase::Inference),
        (0.5, 0.5),
        PaperWorkload::MediumLoad,
        20,
        SimTime::from_secs(10),
        61,
    );

    // Tight targets: 1.2x and 2.0x the 50%-quota isolated latency.
    let apps = deployment(&ws, &spec, None);
    let targets = vec![
        apps[0].iso_latency().mul_f64(1.2),
        apps[1].iso_latency().mul_f64(2.0),
    ];
    println!(
        "QoS targets: app0 {} (1.2x ISO), app1 {} (2.0x ISO)\n",
        targets[0], targets[1]
    );

    println!(
        "{:<10} {:>12} {:>12} {:>14}",
        "system", "app0 p99 ms", "app1 p99 ms", "violations %"
    );
    for sys in [
        System::Unbound,
        System::Gslice,
        System::Bless(bless::BlessParams::default()),
    ] {
        let r = run_system(&sys, &ws, &spec, SimTime::from_secs(120), Some(&targets));
        let mut violations = 0.0;
        for (app, &target) in targets.iter().enumerate() {
            violations += r.log.violation_rate(app, target);
        }
        let p99 = |app: usize| r.log.stats(app).p99.map_or(f64::NAN, |d| d.as_millis_f64());
        println!(
            "{:<10} {:>12.2} {:>12.2} {:>14.1}",
            sys.name(),
            p99(0),
            p99(1),
            violations / 2.0 * 100.0
        );
    }
    println!("\nBLESS stretches each tenant's schedule to its QoS target (§4.3.1)");
    println!("and compensates any request that falls behind, so violations stay");
    println!("near zero (paper: 0.6% vs 38.8% UNBOUND / 50.1% GSLICE).");
}
