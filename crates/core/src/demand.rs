//! Tenant-level channel-demand aggregation.
//!
//! The per-resource interference model (DESIGN.md §5j) attaches a
//! [`ChannelDemand`] vector to every kernel. Placement, however, decides
//! at *tenant* granularity: the controller needs one vector per profiled
//! application summarizing how hard the whole request pipeline leans on
//! each contended resource. This module folds a profile's kernel table
//! into that aggregate.
//!
//! The fold is work-weighted: a kernel contributes proportionally to its
//! total SM·ns of work, so a short cache-hot kernel does not drown out
//! the long DRAM-bound ones that actually shape co-location interference.
//! Memcpy descriptors carry zero work and zero demand, so they drop out
//! naturally (their PCIe pressure is modeled through the DMA coupling
//! weight at simulation time, not through placement).

use gpu_sim::{ChannelDemand, NUM_CHANNELS};
use profiler::ProfiledApp;

/// The work-weighted mean [`ChannelDemand`] of a profile's kernel table.
///
/// Each component is the average of the kernels' per-channel demand,
/// weighted by kernel work (SM·ns); the result is clamped into `[0, 1]`
/// component-wise (a pure weighted mean of in-range values can drift a
/// ULP past 1.0 in the division). Profiles with no compute work (e.g.
/// all-memcpy pipelines) aggregate to [`ChannelDemand::ZERO`].
pub fn aggregate_demand(profile: &ProfiledApp) -> ChannelDemand {
    let mut acc = [0.0f64; NUM_CHANNELS];
    let mut total_work = 0.0f64;
    for k in profile.kernels.iter() {
        if k.work <= 0.0 {
            continue;
        }
        total_work += k.work;
        for (c, a) in acc.iter_mut().enumerate() {
            *a += k.work * k.demand.0[c];
        }
    }
    if total_work <= 0.0 {
        return ChannelDemand::ZERO;
    }
    let mut out = [0.0f64; NUM_CHANNELS];
    for (c, o) in out.iter_mut().enumerate() {
        *o = (acc[c] / total_work).clamp(0.0, 1.0);
    }
    ChannelDemand(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::{AppModel, ModelKind, Phase};
    use gpu_sim::{Channel, GpuSpec};

    #[test]
    fn aggregate_is_work_weighted_and_in_range() {
        let spec = GpuSpec::a100();
        let profile = ProfiledApp::profile(
            &AppModel::build(ModelKind::ResNet50, Phase::Inference),
            &spec,
        );
        let d = aggregate_demand(&profile);
        for c in Channel::ALL {
            assert!(
                (0.0..=1.0).contains(&d.get(c)),
                "{}: {}",
                c.name(),
                d.get(c)
            );
        }
        // Default kernel constructors put their memory intensity on DramBw,
        // so the aggregate concentrates there and matches the hand fold.
        let mut want = 0.0;
        let mut work = 0.0;
        for k in profile.kernels.iter() {
            if k.work > 0.0 {
                want += k.work * k.demand.get(Channel::DramBw);
                work += k.work;
            }
        }
        assert!(work > 0.0);
        assert_eq!(d.get(Channel::DramBw).to_bits(), (want / work).to_bits());
        assert_eq!(d.get(Channel::L2), 0.0);
    }

    #[test]
    fn models_with_different_intensity_mixes_separate() {
        let spec = GpuSpec::a100();
        let a = aggregate_demand(&ProfiledApp::profile(
            &AppModel::build(ModelKind::Vgg11, Phase::Inference),
            &spec,
        ));
        let b = aggregate_demand(&ProfiledApp::profile(
            &AppModel::build(ModelKind::Bert, Phase::Inference),
            &spec,
        ));
        // The aggregate is a placement signal: distinct models must not
        // collapse to one indistinguishable vector.
        assert_ne!(
            a.get(Channel::DramBw).to_bits(),
            b.get(Channel::DramBw).to_bits()
        );
    }
}
