//! Substrate ablations (DESIGN.md §5): how sensitive are the headline
//! results to the simulator's hardware-model choices?
//!
//! Three knobs are swept:
//!
//! * **hardware policy** — the realistic greedy-sticky block-wave
//!   dispatcher vs the idealized fluid fair-share ablation;
//! * **contended dispatch gap** — the cross-stream arbitration cost that
//!   degrades unrestricted co-location (Fig. 3b / Fig. 7a);
//! * **interference strength α** — calibrated to Fig. 9(b)'s 7%.
//!
//! The table reports, for each setting, the Fig. 4(b)-style BLESS and
//! UNBOUND latencies and the Fig. 9(b) interference average, showing which
//! paper results are robust and which depend on the calibration.

use bless::BlessParams;
use dnn_models::{ModelKind, Phase};
use gpu_sim::{Channel, ChannelParams, GpuSpec, HwPolicy};
use metrics::Table;
use sim_core::{SimDuration, SimTime};
use workloads::{pair_workload, PaperWorkload};

use crate::cache;
use crate::runner::{run_system, System};

/// The A100 with the paper's DRAM-BW interference curve at strength
/// `alpha` (base 0.30 and cap 2.0 as calibrated).
fn with_alpha(alpha: f64) -> GpuSpec {
    GpuSpec {
        channel_model: ChannelParams::one_channel(Channel::DramBw, alpha, 0.30, 2.0),
        ..GpuSpec::a100()
    }
}

/// Runs the Fig. 4(b) pair under a custom GPU spec; returns
/// (BLESS ms, UNBOUND ms, GSLICE ms).
pub fn headline_under(spec: &GpuSpec) -> (f64, f64, f64) {
    let ws = pair_workload(
        cache::model(ModelKind::Vgg11, Phase::Inference),
        cache::model(ModelKind::ResNet50, Phase::Inference),
        (1.0 / 3.0, 2.0 / 3.0),
        PaperWorkload::LowLoad,
        12,
        SimTime::from_secs(10),
        1,
    );
    let horizon = SimTime::from_secs(300);
    let b = run_system(
        &System::Bless(BlessParams::default()),
        &ws,
        spec,
        horizon,
        None,
    );
    let u = run_system(&System::Unbound, &ws, spec, horizon, None);
    let g = run_system(&System::Gslice, &ws, spec, horizon, None);
    (b.mean_ms(), u.mean_ms(), g.mean_ms())
}

/// Regenerates the substrate-ablation table.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "Substrate ablation: hardware-model knobs vs the Fig. 4(b) headline",
        &["setting", "BLESS ms", "UNBOUND ms", "GSLICE ms"],
    );

    let mut row = |label: &str, spec: &GpuSpec| {
        let (b, u, g) = headline_under(spec);
        t.row(&[
            label.to_string(),
            format!("{b:.2}"),
            format!("{u:.2}"),
            format!("{g:.2}"),
        ]);
    };

    row(
        "default (greedy-sticky, gap 4us, alpha 1.5)",
        &GpuSpec::a100(),
    );

    let mut fair = GpuSpec::a100();
    fair.hw_policy = HwPolicy::FairShare;
    row("fair-share hardware (idealized)", &fair);

    let mut no_gap = GpuSpec::a100();
    no_gap.contended_dispatch_gap = SimDuration::ZERO;
    row("no dispatch gap", &no_gap);

    let mut big_gap = GpuSpec::a100();
    big_gap.contended_dispatch_gap = SimDuration::from_micros(20);
    row("dispatch gap 20us", &big_gap);

    row("no memory interference", &with_alpha(0.0));
    row("interference alpha 3.0 (~14% app level)", &with_alpha(3.0));

    t.note("BLESS's win over GSLICE is robust to every knob; the BLESS-vs-UNBOUND margin is calibration-sensitive (see EXPERIMENTS.md)");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bless_beats_gslice_under_every_substrate() {
        // The load-bearing claim must not depend on the hardware-model
        // calibration.
        for (label, spec) in [
            ("default", GpuSpec::a100()),
            ("fair-share", {
                let mut s = GpuSpec::a100();
                s.hw_policy = HwPolicy::FairShare;
                s
            }),
            ("no interference", with_alpha(0.0)),
        ] {
            let (b, _, g) = headline_under(&spec);
            assert!(b < g, "{label}: BLESS {b:.2} vs GSLICE {g:.2}");
        }
    }

    #[test]
    fn fair_share_removes_squad_level_nsp_inefficiency() {
        // At squad level, the idealized fluid policy packs unrestricted
        // kernels perfectly, so an NSP squad runs faster than under the
        // realistic greedy-sticky dispatcher. (At the *system* level
        // fair sharing is not faster — processor sharing keeps both
        // requests alive longer than alternation — which is why this is
        // a squad-level assertion.)
        use crate::squadlab::{run_squad, slice_squad, SquadScheme};
        use bless::{DeployedApp, ExecConfig};

        let mk_apps = |spec: &GpuSpec| {
            vec![
                DeployedApp::new(
                    cache::profile(ModelKind::NasNet, Phase::Inference, spec),
                    0.5,
                    None,
                ),
                DeployedApp::new(
                    cache::profile(ModelKind::Bert, Phase::Inference, spec),
                    0.5,
                    None,
                ),
            ]
        };
        let greedy = GpuSpec::a100();
        let mut fair = GpuSpec::a100();
        fair.hw_policy = HwPolicy::FairShare;

        let apps = mk_apps(&greedy);
        let squad = slice_squad(&apps, &[1, 1], &[25, 25]);
        let d_greedy = run_squad(&squad, &apps, &greedy, SquadScheme::Nsp, &ExecConfig::Nsp);
        let d_fair = run_squad(&squad, &apps, &fair, SquadScheme::Nsp, &ExecConfig::Nsp);
        assert!(
            d_fair < d_greedy,
            "fluid NSP squad {d_fair} must beat greedy-sticky {d_greedy}"
        );
    }
}
