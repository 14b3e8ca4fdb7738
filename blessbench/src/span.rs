//! Outside-in layer spans.
//!
//! Every span wraps one call into a public function of the program, from
//! benchmark-owned code; nothing inside the program is instrumented. A
//! layer's *self time* is the duration of its spans minus the part their
//! child spans cover, so nested layers (runtime callbacks inside an engine
//! run) never count twice.
//!
//! The recorder is per thread and off by default, so a span on an
//! untraced path costs one thread-local flag read.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// The program's layers, named after its modules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `dnn_models::AppModel::build`.
    Models,
    /// `profiler::ProfiledApp::profile_shared`.
    Profile,
    /// Arrival generation: `WorkloadSet::initial_arrivals`, the
    /// closed-loop notice handler and `ArrivalPattern::initial_arrivals`.
    Arrivals,
    /// `cluster::place_with`.
    Placement,
    /// Per-GPU assembly of a fleet replay: local workload, deployment,
    /// driver, simulation construction and the log fold.
    Assembly,
    /// `gpu_sim::Simulation::run` minus the runtime callbacks it makes.
    Engine,
    /// `bless::BlessDriver` host callbacks.
    Runtime,
    /// `bless::IngestStage` pump and stream offers, minus sink work.
    Ingest,
    /// `cluster::run_chaos`, which cannot be split from outside.
    Chaos,
    /// Replay of formed squads through the config determiner. Off the
    /// pipeline: it re-measures work the runtime already did.
    Predict,
    /// `metrics::TraceValidator::validate`. Off the pipeline.
    Validate,
    /// Extra runs made only to cross-check outputs (another worker
    /// count, a fault-free control). Off the pipeline.
    Check,
}

/// Number of layers.
pub const LAYERS: usize = 12;

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Models,
        Layer::Profile,
        Layer::Arrivals,
        Layer::Placement,
        Layer::Assembly,
        Layer::Engine,
        Layer::Runtime,
        Layer::Ingest,
        Layer::Chaos,
        Layer::Predict,
        Layer::Validate,
        Layer::Check,
    ];

    /// Report name: the module the layer's public functions live in.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Models => "dnn-models.build",
            Layer::Profile => "profiler.profile",
            Layer::Arrivals => "workloads.arrivals",
            Layer::Placement => "cluster.placement",
            Layer::Assembly => "cluster.run",
            Layer::Engine => "gpu-sim.engine",
            Layer::Runtime => "core.runtime",
            Layer::Ingest => "core.ingest",
            Layer::Chaos => "cluster.chaos",
            Layer::Predict => "core.predict",
            Layer::Validate => "metrics.validate",
            Layer::Check => "bench.check",
        }
    }

    /// Whether the layer's self time belongs to the traced workload's
    /// total. Replays and checks run beside the pipeline, not in it.
    pub fn on_pipeline(self) -> bool {
        !matches!(self, Layer::Predict | Layer::Validate | Layer::Check)
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated self time and span count per layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTimes {
    /// Self nanoseconds per layer, indexed like [`Layer::ALL`].
    pub ns: [u64; LAYERS],
    /// Spans closed per layer.
    pub calls: [u64; LAYERS],
}

impl LayerTimes {
    /// Self seconds of `layer`.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.ns[layer.index()] as f64 / 1e9
    }

    /// Spans closed for `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// Sum of the self times of every on-pipeline layer, in seconds.
    pub fn pipeline_secs(&self) -> f64 {
        Layer::ALL
            .iter()
            .filter(|l| l.on_pipeline())
            .map(|&l| self.secs(l))
            .sum()
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &LayerTimes) {
        for i in 0..LAYERS {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
    }
}

struct Open {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Recorder {
    times: LayerTimes,
    stack: Vec<Open>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Runs `f` inside a span of `layer` when recording is on.
#[inline]
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    if !ENABLED.with(Cell::get) {
        return f();
    }
    REC.with(|r| {
        r.borrow_mut().stack.push(Open {
            layer,
            start: Instant::now(),
            child_ns: 0,
        })
    });
    let out = f();
    let end = Instant::now();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if let Some(open) = r.stack.pop() {
            let dur = end.duration_since(open.start).as_nanos() as u64;
            let i = open.layer.index();
            r.times.ns[i] += dur.saturating_sub(open.child_ns);
            r.times.calls[i] += 1;
            if let Some(parent) = r.stack.last_mut() {
                parent.child_ns += dur;
            }
        }
    });
    out
}

/// Turns recording on for this thread and clears what was recorded.
pub fn start() {
    REC.with(|r| *r.borrow_mut() = Recorder::default());
    ENABLED.with(|e| e.set(true));
}

/// Turns recording off and returns what was recorded since [`start`].
pub fn stop() -> LayerTimes {
    ENABLED.with(|e| e.set(false));
    REC.with(|r| std::mem::take(&mut *r.borrow_mut()).times)
}

/// Cost of one empty span (open plus close), in nanoseconds: the median
/// over `rounds` rounds of `per_round` spans each.
pub fn calibrate(rounds: usize, per_round: usize) -> f64 {
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        start();
        let t0 = Instant::now();
        for _ in 0..per_round {
            span(Layer::Models, || std::hint::black_box(()));
        }
        let dt = t0.elapsed().as_nanos() as f64;
        stop();
        samples.push(dt / per_round.max(1) as f64);
    }
    crate::stats::median(&mut samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start();
        span(Layer::Engine, || {
            span(Layer::Runtime, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        let t = stop();
        assert_eq!(t.calls(Layer::Engine), 1);
        assert_eq!(t.calls(Layer::Runtime), 1);
        assert!(t.secs(Layer::Runtime) >= 0.002);
        assert!(t.secs(Layer::Engine) < t.secs(Layer::Runtime));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        span(Layer::Engine, || ());
        start();
        let t = stop();
        assert_eq!(t, LayerTimes::default());
    }
}
