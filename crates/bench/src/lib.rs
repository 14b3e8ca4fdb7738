//! Criterion benchmark support: shared scaled-down scenario runners so
//! every paper table/figure has a `cargo bench` target. The benches time
//! the simulator+scheduler work for regenerating each artifact; the
//! `experiments` binary prints the full-size tables.

use dnn_models::{ModelKind, Phase};
use gpu_sim::GpuSpec;
use harness::cache;
use harness::runner::{run_system, RunResult, System};
use sim_core::SimTime;
use workloads::{pair_workload, PaperWorkload, WorkloadSet};

/// Counting global allocator for the allocation-regression gate
/// (`cargo bench --bench alloc_stats --features count-alloc`). Every heap
/// allocation bumps a relaxed atomic; the `alloc_stats` bench reads the
/// counter around a steady-state window to compute allocations per
/// simulated kernel. It also tracks live bytes and their peak, so the
/// bench can gate memory growth. Behind a feature so ordinary builds and
/// benches keep the system allocator untouched.
#[cfg(feature = "count-alloc")]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
    pub static BYTES: AtomicU64 = AtomicU64::new(0);
    pub static LIVE: AtomicU64 = AtomicU64::new(0);
    pub static PEAK: AtomicU64 = AtomicU64::new(0);

    /// Adds `n` live bytes and raises the peak to match.
    fn grow(n: u64) {
        let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    struct CountingAlloc;

    // SAFETY: delegates verbatim to `System`; the counters are
    // observational and touch no allocator state.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                grow(layout.size() as u64);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // A grow-in-place still traverses the allocator; count it.
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
                grow(new_size as u64);
            }
            p
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

/// True when the counting allocator is installed (`count-alloc` feature).
pub fn alloc_counting_enabled() -> bool {
    cfg!(feature = "count-alloc")
}

/// Total heap allocations since process start (0 without `count-alloc`).
pub fn alloc_count() -> u64 {
    #[cfg(feature = "count-alloc")]
    {
        counting_alloc::ALLOCS.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "count-alloc"))]
    {
        0
    }
}

/// Total bytes requested from the allocator (0 without `count-alloc`).
pub fn alloc_bytes() -> u64 {
    #[cfg(feature = "count-alloc")]
    {
        counting_alloc::BYTES.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "count-alloc"))]
    {
        0
    }
}

/// Heap bytes currently allocated (0 without `count-alloc`).
pub fn live_bytes() -> u64 {
    #[cfg(feature = "count-alloc")]
    {
        counting_alloc::LIVE.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "count-alloc"))]
    {
        0
    }
}

/// Highest [`live_bytes`] since the last [`reset_peak_live_bytes`] (0
/// without `count-alloc`).
pub fn peak_live_bytes() -> u64 {
    #[cfg(feature = "count-alloc")]
    {
        counting_alloc::PEAK.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "count-alloc"))]
    {
        0
    }
}

/// Restarts the peak at the current live bytes, opening a measurement
/// window for [`peak_live_bytes`].
pub fn reset_peak_live_bytes() {
    #[cfg(feature = "count-alloc")]
    {
        use std::sync::atomic::Ordering;
        counting_alloc::PEAK.store(
            counting_alloc::LIVE.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }
}

/// A small pair workload shared by several benches.
pub fn small_pair(a: ModelKind, b: ModelKind, load: PaperWorkload, requests: usize) -> WorkloadSet {
    pair_workload(
        cache::model(a, Phase::Inference),
        cache::model(b, Phase::Inference),
        (0.5, 0.5),
        load,
        requests,
        SimTime::from_secs(5),
        1,
    )
}

/// Runs one system on a workload with the standard horizon.
pub fn run(sys: &System, ws: &WorkloadSet) -> RunResult {
    run_system(sys, ws, &GpuSpec::a100(), SimTime::from_secs(120), None)
}

/// Pre-warms the profile cache so benches measure scheduling, not
/// profiling.
pub fn warm_profiles() {
    let spec = GpuSpec::a100();
    for kind in [
        ModelKind::Vgg11,
        ModelKind::ResNet50,
        ModelKind::ResNet101,
        ModelKind::NasNet,
        ModelKind::Bert,
    ] {
        let _ = cache::profile(kind, Phase::Inference, &spec);
    }
}
