//! Metric names, units and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test keeps the two in step.

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit, better)`, printed on untraced runs.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("peak_heap_mib", "MiB", "lower"),
    ("served_frac", "ratio", "higher"),
    ("sim_mean_ms", "ms", "lower"),
    ("sim_p99_ms", "ms", "lower"),
];

/// Per-layer metrics: `(name, unit, better)`, printed on traced runs.
/// Metrics of a layer a workload does not reach read 0. Counts of work
/// done read "higher" where more means more was exercised or reused.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("dnn-models.build.s", "s", "lower"),
    ("dnn-models.build.share", "ratio", "lower"),
    ("profiler.profile.s", "s", "lower"),
    ("profiler.profile.share", "ratio", "lower"),
    ("workloads.arrivals.s", "s", "lower"),
    ("workloads.arrivals.share", "ratio", "lower"),
    ("workloads.arrivals.count", "count", "higher"),
    ("cluster.placement.s", "s", "lower"),
    ("cluster.placement.share", "ratio", "lower"),
    ("cluster.placement.tenants_per_s", "1/s", "higher"),
    ("cluster.run.assembly_s", "s", "lower"),
    ("cluster.run.assembly_share", "ratio", "lower"),
    ("cluster.run.gpus", "count", "higher"),
    ("cluster.run.gpu_ms_p50", "ms", "lower"),
    ("cluster.run.gpu_ms_p99", "ms", "lower"),
    ("cluster.run.pool_speedup", "ratio", "higher"),
    ("cluster.run.pool_efficiency", "ratio", "higher"),
    ("gpu-sim.engine.s", "s", "lower"),
    ("gpu-sim.engine.share", "ratio", "lower"),
    ("gpu-sim.engine.kernels", "count", "higher"),
    ("gpu-sim.engine.ns_per_kernel", "ns", "lower"),
    ("gpu-sim.engine.run_calls", "count", "lower"),
    ("core.runtime.s", "s", "lower"),
    ("core.runtime.share", "ratio", "lower"),
    ("core.runtime.calls", "count", "lower"),
    ("core.runtime.ns_per_call", "ns", "lower"),
    ("core.squad.formed", "count", "higher"),
    ("core.squad.kernels_per_squad", "count", "higher"),
    ("core.squad.multi_app_frac", "ratio", "higher"),
    ("core.predict.calls", "count", "higher"),
    ("core.predict.ns_per_call", "ns", "lower"),
    ("core.predict.evaluated_per_call", "count", "lower"),
    ("core.predict.memo_hit_ratio", "ratio", "higher"),
    ("core.ingest.s", "s", "lower"),
    ("core.ingest.share", "ratio", "lower"),
    ("core.ingest.ns_per_arrival", "ns", "lower"),
    ("core.ingest.offered", "count", "higher"),
    ("core.ingest.admitted", "count", "higher"),
    ("core.ingest.shed_rate_limited", "count", "lower"),
    ("core.ingest.shed_backpressure", "count", "lower"),
    ("core.ingest.admit_ratio", "ratio", "higher"),
    ("core.ingest.idle_pump_ratio", "ratio", "lower"),
    ("core.ingest.backpressure_sim_frac", "ratio", "lower"),
    ("cluster.chaos.s", "s", "lower"),
    ("cluster.chaos.share", "ratio", "lower"),
    ("cluster.chaos.migrations", "count", "higher"),
    ("cluster.chaos.stranded", "count", "lower"),
    ("cluster.chaos.replaced_ratio", "ratio", "higher"),
    ("cluster.chaos.fault_overhead", "ratio", "lower"),
    ("cluster.chaos.recovery_max_ms", "ms", "lower"),
    ("metrics.validate.s", "s", "lower"),
    ("metrics.validate.events", "count", "higher"),
    ("trace.total_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.span_cost_ns", "ns", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("sim.failed_frac", "ratio", "lower"),
    ("sim.deviation_ms", "ms", "lower"),
    ("sim.latency_samples", "count", "higher"),
    ("bench.iterations", "count", "higher"),
    ("bench.workers", "count", "higher"),
    ("bench.available_parallelism", "count", "higher"),
];

/// The unit a metric is declared with.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.0 == name)
        .map_or("count", |m| m.1)
}

/// The last line of a run: the JSON result object, with `metrics` in the
/// order of `names` and missing metrics reading 0.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str, &str)],
    value: impl Fn(&str) -> Option<f64>,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, &(name, unit, _)) in names.iter().enumerate() {
        let v = value(name).filter(|v| v.is_finite()).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        );
    }
    out.push_str("}}");
    out
}

/// A finite `f64` as a JSON number with every digit Rust keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, END_TO_END, |n| (n == "run_s").then_some(1.25));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert!(line.ends_with("}}"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|p| p.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
