//! Tests of the benchmark itself, at small scale: simulated results and
//! digests repeat for a seed and across worker counts, the seed reaches
//! the inputs, every cross-check holds, and `BENCHMARK.json` declares
//! exactly the metrics the benchmark prints.

use blessbench::chaos::{self, Chaos};
use blessbench::colocate::{self, Colocate};
use blessbench::fleet::{self, Fleet};
use blessbench::report::{END_TO_END, PER_LAYER};
use blessbench::serve::{self, Serve};
use blessbench::{span, Outcome, Workload};

/// Runs `w` for `seed` at workers 1 and 2 plus the replay, asserting the
/// cross-checks hold; returns the outcome at 1 worker and the replay's.
fn exercise<W: Workload>(w: &W, seed: u64) -> (Outcome, Outcome) {
    let s = w.setup(seed);
    let one = w.run(&s, 1);
    let two = w.run(&s, 2);
    assert_eq!(one, two, "outcome differs between 1 and 2 workers");
    let inputs = w.offered(&s);
    assert!(inputs > 0);
    assert!(one.conserved(inputs), "requests not conserved: {one:?}");
    let rep = w.replay(&s, 2, &one);
    for c in &rep.checks {
        assert!(c.ok, "check failed: {}", c.name);
    }
    assert!(rep.outcome.conserved(inputs), "replay: {:?}", rep.outcome);
    assert_eq!(rep.outcome.digest, one.digest);
    if one.latency.is_some() {
        assert_eq!(rep.outcome.latency, one.latency);
    }
    (one, rep.outcome)
}

fn repeats_and_follows_seed<W: Workload>(w: &W) {
    let (a, ra) = exercise(w, 7);
    let (b, rb) = exercise(w, 7);
    assert_eq!(a, b, "same seed, different outcome");
    assert_eq!(ra, rb, "same seed, different replay");
    let (c, _) = exercise(w, 8);
    assert_ne!(a.digest, c.digest, "the seed does not reach the inputs");
}

#[test]
fn colocate_repeats_and_follows_seed() {
    repeats_and_follows_seed(&Colocate {
        scale: colocate::Scale::SMALL,
    });
}

#[test]
fn fleet_repeats_and_follows_seed() {
    repeats_and_follows_seed(&Fleet {
        scale: fleet::Scale::SMALL,
    });
}

#[test]
fn serve_repeats_and_follows_seed() {
    repeats_and_follows_seed(&Serve {
        scale: serve::Scale::SMALL,
    });
}

#[test]
fn chaos_repeats_and_follows_seed() {
    repeats_and_follows_seed(&Chaos {
        scale: chaos::Scale::SMALL,
    });
}

#[test]
fn serve_sheds_both_ways_and_chaos_strands() {
    let w = Serve {
        scale: serve::Scale::SMALL,
    };
    let s = w.setup(3);
    let o = w.run(&s, 1);
    let rep = w.replay(&s, 1, &o);
    let counter = |name: &str| {
        rep.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |p| p.1)
    };
    assert!(counter("core.ingest.shed_rate_limited") > 0.0);
    assert!(counter("core.ingest.shed_backpressure") > 0.0);

    let w = Chaos {
        scale: chaos::Scale::SMALL,
    };
    let s = w.setup(3);
    let o = w.run(&s, 1);
    assert!(o.stranded > 0 && o.completed > 0, "{o:?}");
}

#[test]
fn traced_replay_attributes_time_to_layers() {
    let w = Fleet {
        scale: fleet::Scale::SMALL,
    };
    let s = w.setup(5);
    let o = w.run(&s, 1);
    span::start();
    let rep = w.replay(&s, 1, &o);
    let t = span::stop();
    assert!(rep.checks.iter().all(|c| c.ok));
    for layer in [
        span::Layer::Placement,
        span::Layer::Assembly,
        span::Layer::Arrivals,
        span::Layer::Engine,
        span::Layer::Runtime,
    ] {
        assert!(t.calls(layer) > 0, "{} never timed", layer.name());
    }
    assert_eq!(t.calls(span::Layer::Ingest), 0);
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = json.matches("\"name\":").count();
    let workloads = ["colocate", "fleet", "serve", "chaos"];
    for w in workloads {
        assert!(json.contains(&format!("\"name\": \"{w}\", \"why\"")));
    }
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len() + workloads.len(),
        "BENCHMARK.json declares metrics the benchmark does not print"
    );
}
