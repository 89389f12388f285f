//! `restune` — command-line driver for the tuning library.
//!
//! ```text
//! restune tune   --workload twitter --instance A --resource cpu --iters 40
//!                [--repo history.json] [--save-repo history.json] [--seed 7]
//!                [--knobs extended] [--project 16] [--quantize 64]
//!                [--trace run.trace.jsonl]
//! restune report run.trace.jsonl
//! restune grid   --workload twitter --instance A --levels 8
//! restune knobs  [--resource cpu|io|memory]
//! ```
//!
//! `tune` runs a ResTune session (meta-boosted when `--repo` points at a
//! saved data repository) and prints the SLA report and recommended knobs;
//! `--save-repo` appends the finished task so future runs transfer from it.
//! `--project D` installs a seeded HeSBO random projection so the session
//! searches `[0,1]^D` instead of the full knob space (DESIGN.md §14), with
//! hybrid sentinel knobs biased-sampled; `--quantize B` additionally snaps
//! wide numeric knobs onto `B` bin centers. `--knobs extended` tunes the
//! whole 200-knob catalogue (the setting projections exist for).
//! `--trace FILE` records the session's spans, counters and per-iteration
//! health events (DESIGN.md §10, §15) and writes them to `FILE` as JSONL;
//! the tuning output is the same with or without it. `report FILE` renders
//! such a file: the span tree, the Table-3 phase breakdown and the health
//! tables. Each command takes only its own flags, each with one value; an
//! unknown flag or a missing value prints an `error:` line and the usage.

use dbsim::{InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};
use restune::core::problem::ResourceKind;
use restune::core::repository::{DataRepository, TaskRecord, TransferMismatch};
use restune::core::tuner::{RestuneConfig, TuningEnvironment, TuningSession};
use restune::core::view;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

/// A command's parsed flags, by name without the leading `--`.
type Flags = HashMap<String, String>;

/// The flags each command takes; every flag takes one value.
const TUNE_FLAGS: &[&str] = &[
    "workload", "instance", "resource", "iters", "seed", "repo", "save-repo", "knobs", "project",
    "quantize", "trace",
];
const GRID_FLAGS: &[&str] = &["workload", "instance", "levels"];
const KNOBS_FLAGS: &[&str] = &["resource"];

/// Parses `--name value` pairs whose names are in `allowed`. An unknown
/// flag, a stray argument, or a value that is missing or starts with `--`
/// is an error.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
    let mut flags = HashMap::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(name) = arg.strip_prefix("--").filter(|name| allowed.contains(name)) else {
            return Err(format!("unknown argument {arg}"));
        };
        match args.next() {
            Some(value) if !value.starts_with("--") => {
                flags.insert(name.to_string(), value.clone());
            }
            _ => return Err(format!("--{name} needs a value")),
        }
    }
    Ok(flags)
}

fn workload_by_name(name: &str) -> Option<WorkloadSpec> {
    match name.to_ascii_lowercase().as_str() {
        "sysbench" => Some(WorkloadSpec::sysbench()),
        "tpcc" | "tpc-c" => Some(WorkloadSpec::tpcc()),
        "twitter" => Some(WorkloadSpec::twitter()),
        "hotel" => Some(WorkloadSpec::hotel()),
        "sales" => Some(WorkloadSpec::sales()),
        _ => None,
    }
}

fn instance_by_name(name: &str) -> Option<InstanceType> {
    InstanceType::ALL.iter().copied().find(|i| i.name().eq_ignore_ascii_case(name))
}

fn resource_by_name(name: &str) -> Option<ResourceKind> {
    match name.to_ascii_lowercase().as_str() {
        "cpu" => Some(ResourceKind::Cpu),
        "memory" | "mem" => Some(ResourceKind::Memory),
        "io" | "bps" | "io_bps" => Some(ResourceKind::IoBps),
        "iops" => Some(ResourceKind::Iops),
        _ => None,
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  restune tune  --workload <sysbench|tpcc|twitter|hotel|sales> \
         [--instance A..F] [--resource cpu|io|iops|memory] [--iters N] \
         [--seed N] [--repo FILE] [--save-repo FILE] [--knobs extended|expert] \
         [--project D] [--quantize B] [--trace FILE]\n  restune report FILE\n  \
         restune grid  --workload <name> [--instance A..F] [--levels N]\n  \
         restune knobs [--resource cpu|io|memory]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { return usage() };
    let rest = &args[1..];
    let (run, allowed): (fn(&Flags) -> ExitCode, _) = match command.as_str() {
        "tune" => (cmd_tune, TUNE_FLAGS),
        "report" => return cmd_report(rest),
        "grid" => (cmd_grid, GRID_FLAGS),
        "knobs" => (cmd_knobs, KNOBS_FLAGS),
        _ => return usage(),
    };
    match parse_flags(rest, allowed) {
        Ok(flags) => run(&flags),
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}

fn cmd_tune(flags: &Flags) -> ExitCode {
    let Some(workload) = flags.get("workload").and_then(|w| workload_by_name(w)) else {
        eprintln!("error: --workload is required (sysbench|tpcc|twitter|hotel|sales)");
        return ExitCode::FAILURE;
    };
    let instance = flags
        .get("instance")
        .and_then(|i| instance_by_name(i))
        .unwrap_or(InstanceType::A);
    let resource = flags
        .get("resource")
        .and_then(|r| resource_by_name(r))
        .unwrap_or(ResourceKind::Cpu);
    let iters: usize = flags.get("iters").and_then(|v| v.parse().ok()).unwrap_or(40);
    let seed: u64 = flags.get("seed").and_then(|v| v.parse().ok()).unwrap_or(7);

    let knob_set = match flags.get("knobs").map(String::as_str) {
        Some("extended") => Some(KnobSet::extended()),
        Some("expert") => Some(KnobSet::expert()),
        Some(other) if !other.is_empty() => {
            eprintln!("error: unknown --knobs value {other} (extended|expert)");
            return ExitCode::FAILURE;
        }
        _ => None,
    };
    let project: Option<usize> = flags.get("project").and_then(|v| v.parse().ok());
    let quantize: Option<usize> = flags.get("quantize").and_then(|v| v.parse().ok());

    println!("tuning {} on {} for {} ({} iterations)", workload.name, instance, resource.name(), iters);
    let mut builder = TuningEnvironment::builder()
        .instance(instance)
        .workload(workload.clone())
        .resource(resource)
        .seed(seed);
    let native_set = knob_set.unwrap_or_else(|| resource.default_knob_set());
    builder = builder.knob_set(native_set.clone());
    if let Some(d) = project {
        if d == 0 || d > native_set.dim() {
            eprintln!("error: --project must be in 1..={}", native_set.dim());
            return ExitCode::FAILURE;
        }
        let transform = restune::core::space::projected_space(
            &native_set,
            restune::core::space::Projection::Hesbo,
            d,
            seed,
            quantize,
            Some(0.2),
        );
        println!("search space: {} ({} -> {} dims)", transform.id(), native_set.dim(), d);
        builder = builder.space(transform);
    } else if quantize.is_some() {
        eprintln!("error: --quantize requires --project");
        return ExitCode::FAILURE;
    }
    let env = builder.build();
    let knob_set = env.knob_set.clone();
    let mut config = RestuneConfig { seed, ..Default::default() };
    let repo_path = flags.get("repo").filter(|p| !p.is_empty());
    let save_path = flags.get("save-repo").filter(|p| !p.is_empty());
    let trace_path = flags.get("trace").filter(|p| !p.is_empty());
    // The target's meta-feature, which a loaded history is weighted against
    // and a saved task carries: trained and embedded once for both.
    let meta_feature = (repo_path.is_some() || save_path.is_some()).then(|| {
        workload::WorkloadCharacterizer::train_default(seed).embed_workload(&workload, seed).probs
    });

    // Meta-boosted when a repository is supplied.
    let learners = match repo_path {
        Some(path) => match DataRepository::load(Path::new(path)) {
            Ok(repo) => {
                println!("loaded repository: {} tasks, {} observations", repo.len(), repo.n_observations());
                let gp_config = gp::GpConfig { restarts: 1, adam_iters: 25, ..Default::default() };
                let space = env.space_info();
                let transfer = |t: &TaskRecord| t.transfers_to(knob_set.names(), resource, &space);
                let malformed = repo
                    .tasks()
                    .iter()
                    .filter(|t| transfer(t) == Err(TransferMismatch::PointWidth))
                    .count();
                if malformed > 0 {
                    println!(
                        "skipped {malformed} repository task(s) whose points are not {}-dimensional",
                        space.dim
                    );
                }
                let learners = repo.base_learners(&gp_config, |t| transfer(t).is_ok());
                println!("usable base-learners in this search space: {}", learners.len());
                Some(learners)
            }
            Err(e) => {
                eprintln!("error: could not load repository {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    if trace_path.is_some() {
        trace::enable();
        config.diag = true;
    }
    let mut session = match (learners, meta_feature.clone()) {
        (Some(learners), Some(mf)) => TuningSession::with_base_learners(env, config, learners, mf),
        _ => TuningSession::new(env, config),
    };
    let outcome = session.run(iters);
    let snapshot = trace_path.map(|_| trace::snapshot());

    println!("\nSLA: tps >= {:.0} txn/s, p99 <= {:.2} ms", outcome.sla.min_tps, outcome.sla.max_p99_ms);
    println!("default {}: {:.2} {}", resource.name(), outcome.default_objective(), resource.unit());
    match outcome.best_objective {
        Some(best) => println!(
            "best feasible {}: {:.2} {} ({:.1}% reduction, found at iteration {:?})",
            resource.name(),
            best,
            resource.unit(),
            outcome.improvement() * 100.0,
            outcome.best_iteration
        ),
        None => println!("no feasible improvement found"),
    }
    println!();
    print!("{}", restune::core::advisor::report(&outcome, &knob_set, resource));

    if let (Some(path), Some(mf)) = (save_path, meta_feature) {
        let mut repo = DataRepository::load(Path::new(path)).unwrap_or_default();
        let task_id = format!("{}@{}", workload.name, instance.name());
        repo.add(session.engine().to_task_record(&task_id, mf));
        match repo.save(Path::new(path)) {
            Ok(()) => println!("\nsaved task history to {path} ({} tasks total)", repo.len()),
            Err(e) => eprintln!("warning: could not save repository: {e}"),
        }
    }
    if let (Some(path), Some(snapshot)) = (trace_path, snapshot) {
        if let Err(e) = snapshot.write_jsonl(Path::new(path)) {
            eprintln!("error: could not write trace {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\ntrace written to {path}");
    }
    ExitCode::SUCCESS
}

fn cmd_report(args: &[String]) -> ExitCode {
    let [path] = args else { return usage() };
    match view::load(Path::new(path)) {
        Ok(snapshot) => {
            print!("{}", view::render(&snapshot));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_grid(flags: &Flags) -> ExitCode {
    let Some(workload) = flags.get("workload").and_then(|w| workload_by_name(w)) else {
        eprintln!("error: --workload is required");
        return ExitCode::FAILURE;
    };
    let instance =
        flags.get("instance").and_then(|i| instance_by_name(i)).unwrap_or(InstanceType::A);
    let levels: usize = flags.get("levels").and_then(|v| v.parse().ok()).unwrap_or(8);
    let dbms = SimulatedDbms::new(instance, workload, 0).with_noise(0.0);
    let result =
        baselines::grid_search(&dbms, &KnobSet::case_study(), ResourceKind::Cpu, levels);
    println!(
        "grid {}^3 = {} cells, {} feasible; best feasible CPU {:.2}%",
        levels, result.evaluated, result.feasible, result.best_objective
    );
    for name in KnobSet::case_study().names() {
        println!("  {name:<34} {}", result.best_config.get(name));
    }
    ExitCode::SUCCESS
}

fn cmd_knobs(flags: &Flags) -> ExitCode {
    let set = match flags.get("resource").map(|s| s.as_str()) {
        Some("io") => KnobSet::io(),
        Some("memory" | "mem") => KnobSet::memory(),
        Some(_) | None => KnobSet::cpu(),
    };
    println!("{:<34} {:>10} {:>10} {:>10}  description", "knob", "min", "max", "default");
    for def in set.defs() {
        println!(
            "{:<34} {:>10} {:>10} {:>10}  {}",
            def.name, def.min, def.max, def.default, def.description
        );
    }
    ExitCode::SUCCESS
}
