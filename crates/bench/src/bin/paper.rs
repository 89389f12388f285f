//! Regenerates the paper's evaluation (§7) and our own measurements over the
//! artifact registry in `restune_bench::paper`.
//!
//! ```text
//! paper <id> [--full]   run one artifact: print it, save its JSON
//! paper all [--full]    run every artifact, in EXPERIMENTS.md order
//! paper md              print EXPERIMENTS.md from the JSON
//! ```
//!
//! `--full` runs paper-scale budgets (and the committed baselines' sizes).
//! JSON goes to `$RESTUNE_RESULTS_DIR`, by default `results/`. Exit codes: 0
//! ok, 1 an in-run check failed or a result could not be saved, 2 usage
//! error.

use restune_bench::paper::{self, Runner, ARTIFACTS};
use restune_bench::report::results_dir;
use restune_bench::Scale;

/// Prints the usage, listing every artifact id, and exits 2.
fn usage() -> ! {
    let ids: Vec<&str> = ARTIFACTS.iter().map(|a| a.id).collect();
    eprintln!("usage: paper <id> [--full] | paper all [--full] | paper md\nids: {}", ids.join(" "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = results_dir();
    let (target, scale) = match args.as_slice() {
        [md] if md == "md" => {
            print!("{}", paper::markdown(&dir));
            return;
        }
        [target] => (target, Scale::Quick),
        [target, full] if full == "--full" => (target, Scale::Full),
        _ => usage(),
    };
    let artifacts: Vec<_> =
        ARTIFACTS.iter().filter(|a| target == "all" || a.id == target).collect();
    if artifacts.is_empty() {
        usage();
    }
    let runner = Runner::new(scale);
    for artifact in artifacts {
        if let Err(e) = runner.run(artifact, &dir) {
            eprintln!("paper: {}: {e}", artifact.id);
            std::process::exit(1);
        }
    }
}
