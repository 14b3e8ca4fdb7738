//! The benchmark command.
//!
//! ```text
//! blessbench --workload <colocate|fleet|serve|chaos> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every probe off;
//! `--trace 1` runs traced and untraced iterations in pairs and reports
//! per-layer self times, shares and counters. Both check outputs. Human-
//! readable lines go first; the last line of standard output is the JSON
//! result. Exits 1 when a check fails, 2 on bad arguments.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use blessbench::chaos::{self, Chaos};
use blessbench::colocate::{self, Colocate};
use blessbench::fleet::{self, Fleet};
use blessbench::report::{result_line, unit_of, END_TO_END, PER_LAYER};
use blessbench::serve::{self, Serve};
use blessbench::span::{self, Layer, LayerTimes};
use blessbench::stats::{available_parallelism, median};
use blessbench::{heap, Check, Outcome, Replay, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("blessbench: {e}");
            eprintln!(
                "usage: blessbench --workload <colocate|fleet|serve|chaos> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "colocate" => bench(
            &Colocate {
                scale: colocate::Scale::FULL,
            },
            &args,
        ),
        "fleet" => bench(
            &Fleet {
                scale: fleet::Scale::FULL,
            },
            &args,
        ),
        "serve" => bench(
            &Serve {
                scale: serve::Scale::FULL,
            },
            &args,
        ),
        "chaos" => bench(
            &Chaos {
                scale: chaos::Scale::FULL,
            },
            &args,
        ),
        other => {
            eprintln!("blessbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if result {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Collected metric values and checks of one run.
struct Sheet {
    values: Vec<(String, f64)>,
    checks: Vec<Check>,
}

impl Sheet {
    fn set(&mut self, name: impl Into<String>, v: f64) {
        self.values.push((name.into(), v));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|p| p.1)
    }
}

/// Runs one workload in the requested mode and prints the result; true
/// when every check held.
fn bench<W: Workload>(w: &W, a: &Args) -> bool {
    let workers = available_parallelism().min(2);
    let mut sheet = Sheet {
        values: Vec::new(),
        checks: Vec::new(),
    };
    let iterations = if a.trace {
        traced(w, a, workers, &mut sheet)
    } else {
        untraced(w, a, workers, &mut sheet)
    };
    let names = if a.trace { PER_LAYER } else { END_TO_END };

    println!(
        "# workload={} seed={} trace={} available_parallelism={} workers={} iterations={}",
        a.workload,
        a.seed,
        u8::from(a.trace),
        available_parallelism(),
        workers,
        iterations
    );
    for c in &sheet.checks {
        println!("# check {}: {}", if c.ok { "ok  " } else { "FAIL" }, c.name);
    }
    for (name, v) in &sheet.values {
        println!("{name:<36} {v:>16.6} {}", unit_of(name));
    }
    let failed = sheet.checks.iter().filter(|c| !c.ok).count() as u64;
    let correct = failed == 0;
    println!(
        "{}",
        result_line(correct, sheet.checks.len() as u64, failed, names, |n| {
            sheet.get(n)
        })
    );
    correct
}

/// Folds the per-run checks: every request of the inputs accounted for,
/// and the outcome repeating the first run's.
struct RunChecks {
    runs: usize,
    conserved: bool,
    repeats: bool,
}

impl RunChecks {
    fn new() -> Self {
        RunChecks {
            runs: 0,
            conserved: true,
            repeats: true,
        }
    }

    /// Adds run `o`; `inputs` is the workload's request count from its
    /// inputs, `reference` the first run's outcome.
    fn add(&mut self, o: &Outcome, inputs: u64, reference: &Outcome) {
        self.runs += 1;
        self.conserved &= o.conserved(inputs) && inputs > 0;
        self.repeats &= o.digest == reference.digest
            && o.offered == reference.offered
            && o.completed == reference.completed;
    }

    fn into_checks(self, label: &str) -> [Check; 2] {
        let n = self.runs;
        [
            Check::new(
                format!("{n} {label}: completed + shed + stranded = offered = inputs"),
                self.conserved,
            ),
            Check::new(format!("{n} {label}: digest repeats"), self.repeats),
        ]
    }
}

/// Simulated metrics shared by both modes, from the replay (which has
/// every one) after checking they agree with the untraced run where it
/// reports them.
fn sim_metrics(sheet: &mut Sheet, first: &Outcome, rep: &Replay) {
    let o = &rep.outcome;
    if let (Some(a), Some(b)) = (&first.latency, &o.latency) {
        sheet.checks.push(Check::new(
            "replay latencies equal untraced latencies",
            a == b && first.deviation_ms == o.deviation_ms,
        ));
    }
    sheet.checks.extend(rep.checks.iter().cloned());
    let lat = o.latency.clone().unwrap_or_default();
    sheet.set("sim_mean_ms", lat.mean_ms());
    sheet.set("sim_p99_ms", lat.pct_ms(0.99));
    sheet.set("sim.deviation_ms", o.deviation_ms.unwrap_or(0.0));
    sheet.set("served_frac", 1.0 - o.failed_frac());
    sheet.set("sim.failed_frac", o.failed_frac());
    sheet.set("sim.latency_samples", lat.count() as f64);
    println!(
        "# sim: offered={} completed={} shed={} stranded={} failed_frac={:.6} latency_samples={} beyond_p99={} recovery_max_ms={}",
        o.offered,
        o.completed,
        o.shed,
        o.stranded,
        o.failed_frac(),
        lat.count(),
        lat.beyond_p99(),
        o.recovery_max_ms.map_or("n/a".to_string(), |r| format!("{r:.3}")),
    );
}

fn untraced<W: Workload>(w: &W, a: &Args, workers: usize, sheet: &mut Sheet) -> usize {
    // Each iteration sets up afresh, then runs: set-up and run samples
    // interleave, so both medians see the same spell of host load. The
    // heap peak is taken over each run alone, with its inputs live.
    let deadline = Instant::now() + Duration::from_secs_f64(a.seconds);
    let mut setup_s = Vec::new();
    let mut run_s = Vec::new();
    let mut peak_heap = 0.0f64;
    let mut first: Option<(Outcome, u64)> = None;
    let mut runs = RunChecks::new();
    let mut setup = None;
    while run_s.is_empty() || Instant::now() < deadline {
        drop(setup.take());
        let t0 = Instant::now();
        let s = w.setup(a.seed);
        let t1 = Instant::now();
        heap::reset_peak();
        let o = w.run(&s, workers);
        let t2 = Instant::now();
        peak_heap = peak_heap.max(heap::peak_mib());
        setup_s.push(t1.duration_since(t0).as_secs_f64());
        run_s.push(t2.duration_since(t1).as_secs_f64());
        let (reference, inputs) = first.get_or_insert_with(|| (o.clone(), w.offered(&s)));
        runs.add(&o, *inputs, reference);
        setup = Some(s);
    }
    let Some(s) = setup else { return 0 };
    let first = first.map(|f| f.0).unwrap_or_default();
    let n = run_s.len();
    sheet.checks.extend(runs.into_checks("runs"));

    let rep = w.replay(&s, workers, &first);
    let run_med = median(&mut run_s);
    println!(
        "# {n} set-ups and runs: run_s min={:.6} median={run_med:.6} max={:.6}; setup_s min={:.6} max={:.6}",
        run_s[0],
        run_s[n - 1],
        setup_s.iter().cloned().fold(f64::MAX, f64::min),
        setup_s.iter().cloned().fold(0.0, f64::max),
    );
    sheet.set("setup_s", median(&mut setup_s));
    sheet.set("run_s", run_med);
    sheet.set(
        "requests_per_s",
        first.completed as f64 / run_med.max(1e-12),
    );
    sheet.set("peak_heap_mib", peak_heap);
    sim_metrics(sheet, &first, &rep);
    n
}

fn traced<W: Workload>(w: &W, a: &Args, workers: usize, sheet: &mut Sheet) -> usize {
    let span_cost = span::calibrate(9, 200_000);
    let replay_workers = w.replay_workers(workers);
    let deadline = Instant::now() + Duration::from_secs_f64(a.seconds);
    let mut base_s = Vec::new();
    let mut seq_run_s = Vec::new();
    let mut pool_run_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut layers = LayerTimes::default();
    let mut last: Option<(Outcome, Replay)> = None;
    let mut inputs = None;
    let mut runs = RunChecks::new();
    while traced_s.is_empty() || Instant::now() < deadline {
        // Untraced baseline at the replay's worker count.
        let t0 = Instant::now();
        let s = w.setup(a.seed);
        let t1 = Instant::now();
        let o = w.run(&s, replay_workers);
        let end = Instant::now();
        base_s.push(end.duration_since(t0).as_secs_f64());
        seq_run_s.push(end.duration_since(t1).as_secs_f64());
        if replay_workers != workers {
            let t = Instant::now();
            w.run(&s, workers);
            pool_run_s.push(t.elapsed().as_secs_f64());
        }
        let inputs = *inputs.get_or_insert_with(|| w.offered(&s));
        drop(s);

        span::start();
        let t0 = Instant::now();
        let s = w.setup(a.seed);
        let rep = w.replay(&s, workers, &o);
        let wall = t0.elapsed().as_secs_f64();
        let t = span::stop();
        let off: f64 = Layer::ALL
            .iter()
            .filter(|l| !l.on_pipeline())
            .map(|&l| t.secs(l))
            .sum();
        traced_s.push(wall - off);
        layers.add(&t);
        runs.add(&rep.outcome, inputs, &o);
        last = Some((o, rep));
    }
    let n = traced_s.len() as f64;
    let total: f64 = traced_s.iter().sum();
    let Some((first, rep)) = last else { return 0 };
    sheet.checks.extend(runs.into_checks("traced replays"));
    sim_metrics(sheet, &first, &rep);
    for &(name, v) in &rep.counters {
        sheet.set(name, v);
    }

    for layer in Layer::ALL {
        if matches!(layer, Layer::Predict | Layer::Check) {
            continue;
        }
        // `cluster.run` also has whole-GPU metrics; its self time is the
        // per-GPU assembly around the engine.
        let stem = match layer {
            Layer::Assembly => "cluster.run.assembly_".to_string(),
            _ => format!("{}.", layer.name()),
        };
        let secs = layers.secs(layer);
        sheet.set(format!("{stem}s"), secs / n);
        if layer.on_pipeline() {
            let share = if total > 0.0 { secs / total } else { 0.0 };
            sheet.set(format!("{stem}share"), share);
        }
    }
    let per_iter = |l: Layer| layers.calls(l) as f64 / n;
    let ns_per = |l: Layer, count: f64| {
        if count > 0.0 {
            layers.secs(l) / n * 1e9 / count
        } else {
            0.0
        }
    };
    sheet.set("core.runtime.calls", per_iter(Layer::Runtime));
    sheet.set(
        "core.runtime.ns_per_call",
        ns_per(Layer::Runtime, per_iter(Layer::Runtime)),
    );
    let kernels = sheet.get("gpu-sim.engine.kernels").unwrap_or(0.0);
    sheet.set(
        "gpu-sim.engine.ns_per_kernel",
        ns_per(Layer::Engine, kernels),
    );
    let offered = sheet.get("core.ingest.offered").unwrap_or(0.0);
    sheet.set("core.ingest.ns_per_arrival", ns_per(Layer::Ingest, offered));
    sheet.set("workloads.arrivals.count", rep.outcome.offered as f64);
    if !pool_run_s.is_empty() {
        let speedup = median(&mut seq_run_s) / median(&mut pool_run_s).max(1e-12);
        sheet.set("cluster.run.pool_speedup", speedup);
        sheet.set("cluster.run.pool_efficiency", speedup / workers as f64);
    }
    sheet.set("trace.total_s", total / n);
    sheet.set(
        "trace.overhead_ratio",
        median(&mut traced_s) / median(&mut base_s).max(1e-12),
    );
    sheet.set("trace.span_cost_ns", span_cost);
    sheet.set(
        "trace.unattributed_frac",
        if total > 0.0 {
            (total - layers.pipeline_secs()) / total
        } else {
            0.0
        },
    );
    sheet.set("bench.iterations", n);
    sheet.set("bench.workers", workers as f64);
    sheet.set(
        "bench.available_parallelism",
        available_parallelism() as f64,
    );
    traced_s.len()
}
