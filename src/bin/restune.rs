//! `restune` — command-line driver for the tuning library.
//!
//! ```text
//! restune tune  --workload twitter --instance A --resource cpu --iters 40
//!               [--repo history.json] [--save-repo history.json] [--seed 7]
//!               [--knobs extended] [--project 16] [--quantize 64]
//! restune grid  --workload twitter --instance A --levels 8
//! restune knobs [--resource cpu|io|memory]
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

use dbsim::{InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};
use restune::core::problem::ResourceKind;
use restune::core::repository::{DataRepository, TaskObservation, TaskRecord};
use restune::core::tuner::{RestuneConfig, TuningEnvironment, TuningSession};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let value = args.get(i + 1).cloned().unwrap_or_default();
            flags.insert(name.to_string(), value);
            i += 2;
        } else {
            i += 1;
        }
    }
    flags
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
         [--project D] [--quantize B]\n  restune grid  \
         --workload <name> [--instance A..F] [--levels N]\n  restune knobs [--resource cpu|io|memory]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { return usage() };
    let flags = parse_flags(&args[1..]);

    match command.as_str() {
        "tune" => cmd_tune(&flags),
        "grid" => cmd_grid(&flags),
        "knobs" => cmd_knobs(&flags),
        _ => usage(),
    }
}

fn cmd_tune(flags: &HashMap<String, String>) -> ExitCode {
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
    let space_id = match &env.space {
        Some(t) => t.id(),
        None => "native".to_string(),
    };
    let knob_set = env.knob_set.clone();
    let config = RestuneConfig { seed, ..Default::default() };

    // Meta-boosted when a repository is supplied.
    let outcome = match flags.get("repo").filter(|p| !p.is_empty()) {
        Some(path) => match DataRepository::load(Path::new(path)) {
            Ok(repo) => {
                println!("loaded repository: {} tasks, {} observations", repo.len(), repo.n_observations());
                let characterizer = workload::WorkloadCharacterizer::train_default(seed);
                let mf = characterizer.embed_workload(&workload, seed).probs;
                let gp_config = gp::GpConfig { restarts: 1, adam_iters: 25, ..Default::default() };
                let search_dim = env.search_dim();
                let in_space = |t: &TaskRecord| {
                    t.knob_names == knob_set.names()
                        && t.space_id == space_id
                        && t.resource == resource
                };
                // A task can name this space and still hold points of another
                // length (a hand-edited or corrupted file); fitting it would
                // build a learner the session rejects.
                let well_formed =
                    |t: &TaskRecord| t.observations.iter().all(|o| o.point.len() == search_dim);
                let malformed =
                    repo.tasks().iter().filter(|t| in_space(t) && !well_formed(t)).count();
                if malformed > 0 {
                    println!(
                        "skipped {malformed} repository task(s) whose points are not {search_dim}-dimensional"
                    );
                }
                let learners = repo.base_learners(&gp_config, |t| in_space(t) && well_formed(t));
                println!("usable base-learners in this search space: {}", learners.len());
                TuningSession::with_base_learners(env, config, learners, mf).run(iters)
            }
            Err(e) => {
                eprintln!("error: could not load repository {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => TuningSession::new(env, config).run(iters),
    };

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

    if let Some(path) = flags.get("save-repo").filter(|p| !p.is_empty()) {
        let mut repo = DataRepository::load(Path::new(path)).unwrap_or_default();
        let characterizer = workload::WorkloadCharacterizer::train_default(seed);
        let meta_feature = characterizer.embed_workload(&workload, seed).probs;
        let observations: Vec<TaskObservation> = outcome
            .history
            .iter()
            .map(|r| TaskObservation {
                point: r.point.clone(),
                res: r.objective,
                tps: r.observation.tps,
                lat: r.observation.p99_ms,
                metrics: r.observation.internal.to_vec(),
            })
            .collect();
        repo.add(TaskRecord {
            task_id: format!("{}@{}", workload.name, instance.name()),
            workload: workload.name.clone(),
            instance,
            resource,
            knob_names: knob_set.names().to_vec(),
            space_id: space_id.clone(),
            meta_feature,
            observations,
        });
        match repo.save(Path::new(path)) {
            Ok(()) => println!("\nsaved task history to {path} ({} tasks total)", repo.len()),
            Err(e) => eprintln!("warning: could not save repository: {e}"),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_grid(flags: &HashMap<String, String>) -> ExitCode {
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

fn cmd_knobs(flags: &HashMap<String, String>) -> ExitCode {
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
