//! Experiment runner: regenerates the paper's tables and figures.
//!
//! ```text
//! experiments list              # show all experiment ids
//! experiments <id> [...]        # run one or more experiments
//! experiments all               # run everything, in paper order
//! experiments --csv <dir> <id>  # additionally export each table as CSV
//! experiments --trace <dir> <id> # record every run: Perfetto JSON into
//!                                # <dir> + invariant validation (panics
//!                                # on any violation)
//! ```
//!
//! Multiple experiments run concurrently on the shared worker pool
//! ([`sim_core::pool`]; they are independent simulations sharing only
//! the profile cache). Rendered tables are buffered per experiment and
//! printed in the requested order once all have finished, so stdout is
//! byte-for-byte identical to a serial run; only stderr progress lines
//! interleave.

use harness::experiments::{find, registry, Experiment};
use sim_core::pool;

/// Everything one finished experiment wants on stdout/disk, in order.
#[derive(Default)]
struct ExpOutput {
    /// `(rendered, slug, csv)` per table.
    tables: Vec<(String, String, String)>,
    elapsed: std::time::Duration,
}

fn run_one(exp: &Experiment) -> ExpOutput {
    let start = std::time::Instant::now();
    // Trace files produced by this experiment's runs carry its id; the
    // label is thread-local so concurrent experiments don't mislabel.
    harness::tracectl::set_label(exp.id);
    let tables = (exp.run)()
        .into_iter()
        .map(|t| (t.render(), t.slug(), t.to_csv()))
        .collect();
    ExpOutput {
        tables,
        elapsed: start.elapsed(),
    }
}

fn emit(id: &str, out: &ExpOutput, csv_dir: Option<&std::path::Path>) {
    for (rendered, slug, csv) in &out.tables {
        println!("{rendered}");
        if let Some(dir) = csv_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("--csv: cannot create {}: {e}", dir.display());
                std::process::exit(2);
            }
            let path = dir.join(format!("{slug}.csv"));
            if let Err(e) = std::fs::write(&path, csv) {
                eprintln!("--csv: cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
            eprintln!("[experiments]   wrote {}", path.display());
        }
    }
    eprintln!("[experiments] {id} finished in {:.1?}\n", out.elapsed);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut csv_dir: Option<std::path::PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--csv") {
        if pos + 1 >= args.len() {
            eprintln!("--csv requires a directory argument");
            std::process::exit(2);
        }
        csv_dir = Some(std::path::PathBuf::from(args.remove(pos + 1)));
        args.remove(pos);
    }
    if let Some(pos) = args.iter().position(|a| a == "--trace") {
        if pos + 1 >= args.len() {
            eprintln!("--trace requires a directory argument");
            std::process::exit(2);
        }
        let dir = std::path::PathBuf::from(args.remove(pos + 1));
        args.remove(pos);
        if let Err(e) = harness::tracectl::enable(&dir) {
            eprintln!("--trace: cannot use {}: {e}", dir.display());
            std::process::exit(2);
        }
        eprintln!(
            "[experiments] tracing on: Perfetto JSON into {} (open in ui.perfetto.dev)",
            dir.display()
        );
    }
    if args.is_empty() || args[0] == "list" || args[0] == "--help" {
        println!("usage: experiments <id>... | all | list\n");
        println!("available experiments:");
        for e in registry() {
            println!("  {:<10} {}", e.id, e.describes);
        }
        return;
    }

    let ids: Vec<String> = if args[0] == "all" {
        registry().into_iter().map(|e| e.id.to_string()).collect()
    } else {
        args
    };

    let exps: Vec<Experiment> = ids
        .iter()
        .map(|id| {
            find(id).unwrap_or_else(|| {
                eprintln!("unknown experiment '{id}'; try 'experiments list'");
                std::process::exit(2);
            })
        })
        .collect();

    let total = std::time::Instant::now();
    let workers = pool::workers(None, exps.len());
    let mut outs: Vec<ExpOutput> = exps.iter().map(|_| ExpOutput::default()).collect();
    pool::for_each_mut(&mut outs, workers, |i, out| {
        let exp = &exps[i];
        eprintln!("[experiments] running {}: {}", exp.id, exp.describes);
        *out = run_one(exp);
    });
    for (exp, out) in exps.iter().zip(&outs) {
        emit(exp.id, out, csv_dir.as_deref());
    }
    eprintln!(
        "[experiments] total wall-clock: {:.1?} ({} experiments, {} workers)",
        total.elapsed(),
        exps.len(),
        workers
    );
}
