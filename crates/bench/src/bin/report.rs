//! One report surface over the trace layer (DESIGN.md §10, §15): renders a
//! trace JSONL file, or runs a seeded scenario, writes its trace, renders it
//! and self-checks it.
//!
//! Usage:
//!
//! ```text
//! report FILE
//! report session [ITERS] [--out F]
//! report baseline [ITERS] [--out F]
//! report fleet [--smoke] [--tenants N] [--iters K] [--workers W] [--out F]
//! report methods [ITERS]
//! ```
//!
//! - `FILE` renders every section the trace holds (`restune_bench::view`):
//!   the span tree and Table-3 breakdown, the per-iteration health table
//!   for untagged `tuner.health` events, and fleet digests with stragglers
//!   for task-tagged ones.
//! - `session` (30 iterations by default) runs a seeded, meta-boosted
//!   session with tracing and diagnostics on. Self-checks: span totals match
//!   the session's `IterationTiming` sums within 1 %, and the telemetry
//!   contract holds (one health event per iteration, in order, finite,
//!   calibrated, weighted, unchanged across the JSONL round trip).
//! - `baseline` (6 by default) runs CDBTune-w-Con through the shared
//!   `TuningDriver`. Self-check: one driver `iteration` root span per step.
//! - `fleet` runs 16 tenants × 5 iterations (64 tenants with `--smoke`) on
//!   `--workers` (default: every CPU), traced with diagnostics and seeded
//!   transient faults at rate 0.2; the last tenant is a planted failure
//!   storm at 0.9. `--smoke` adds the contracts: every tenant completes
//!   unpoisoned with one `iteration` span and one health event per
//!   iteration, every step counts one fit path (`gp.fit.full`,
//!   `.incremental` and `.skipped` sum to the steps, and every tenant's
//!   LHS bootstrap steps skip), the storm tenant is flagged, the aggregate
//!   survives the JSONL round trip, and per-tenant records are
//!   byte-identical at a second worker count.
//! - `methods` (12 by default) prints the six-method health table behind
//!   EXPERIMENTS.md (golden-methods setup: seeded transient faults, shared
//!   repository). Progress/failure columns come from each method's
//!   iteration history; calibration, weight entropy and fallback counts
//!   from telemetry, which only the ResTune variants emit.
//!
//! Scenario traces go to `--out`, by default `results/{session,baseline,
//! fleet}.trace.jsonl`.
//!
//! Exit codes: 0 ok, 1 self-check failed, 2 usage, read, parse or write
//! error.

use std::path::PathBuf;

use baselines::method::Setting;
use baselines::{run_method, Method, MethodContext};
use dbsim::{FaultPlan, InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};
use restune_bench::report::results_dir;
use restune_bench::view;
use restune_core::acquisition::AcquisitionOptimizer;
use restune_core::fleet::health::{FleetHealth, StragglerPolicy, TenantHealth};
use restune_core::fleet::{mix_seed, FleetConfig, FleetOutcome, FleetService, Tenant};
use restune_core::problem::ResourceKind;
use restune_core::repository::{DataRepository, TaskRecord};
use restune_core::tuner::{
    RestuneConfig, TuningEnvironment, TuningEnvironmentBuilder, TuningSession,
};
use trace::TraceSnapshot;
use workload::WorkloadCharacterizer;

const USAGE: &str = "usage: report FILE | report session [ITERS] [--out F] | \
    report baseline [ITERS] [--out F] | \
    report fleet [--smoke] [--tenants N] [--iters K] [--workers W] [--out F] | \
    report methods [ITERS]";

/// Prints `report: {msg}` and exits 2.
fn fail(msg: &str) -> ! {
    eprintln!("report: {msg}");
    std::process::exit(2);
}

/// A subcommand's arguments: positionals, `--flag value` pairs, `--smoke`.
struct Opts {
    positional: Vec<String>,
    values: Vec<(String, String)>,
    smoke: bool,
}

impl Opts {
    /// Parses `args`, accepting only the value flags in `flags` (and
    /// `--smoke` when `smoke_ok`).
    fn parse(args: &[String], flags: &[&str], smoke_ok: bool) -> Opts {
        let mut opts = Opts { positional: Vec::new(), values: Vec::new(), smoke: false };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--smoke" && smoke_ok {
                opts.smoke = true;
            } else if flags.contains(&a.as_str()) {
                let v = it.next().unwrap_or_else(|| fail(&format!("{a} needs a value")));
                opts.values.push((a.clone(), v.clone()));
            } else if a.starts_with("--") {
                fail(&format!("unknown flag {a}\n{USAGE}"));
            } else {
                opts.positional.push(a.clone());
            }
        }
        if opts.positional.len() > 1 {
            fail(USAGE);
        }
        opts
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values.iter().rev().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    /// The positional `ITERS`, or `default`.
    fn iters(&self, default: usize) -> usize {
        parse_count(self.positional.first().map(String::as_str), default)
    }

    /// The count after `flag`, or `default`.
    fn count(&self, flag: &str, default: usize) -> usize {
        parse_count(self.value(flag), default)
    }

    /// Writes the trace to `--out` (default `results/{default_name}`).
    fn write_trace(&self, snap: &TraceSnapshot, default_name: &str) -> PathBuf {
        let out = self
            .value("--out")
            .map(PathBuf::from)
            .unwrap_or_else(|| results_dir().join(default_name));
        if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", parent.display())));
        }
        snap.write_jsonl(&out)
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", out.display())));
        out
    }
}

fn parse_count(raw: Option<&str>, default: usize) -> usize {
    match raw {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| fail(&format!("expected a count, got {v}"))),
    }
}

/// Lists every self-check violation and exits 1, or prints `ok`.
fn finish(violations: &[String], ok: &str) {
    if violations.is_empty() {
        println!("\n{ok}");
        return;
    }
    for v in violations {
        eprintln!("report: SELF-CHECK FAILED: {v}");
    }
    std::process::exit(1);
}

/// Runs `f` with a fresh, enabled collector and returns its snapshot.
fn traced<T>(f: impl FnOnce() -> T) -> (T, TraceSnapshot) {
    trace::enable();
    trace::reset();
    let out = f();
    let snap = trace::snapshot();
    trace::disable();
    trace::reset();
    (out, snap)
}

/// The twitter workload on instance A, tuning CPU over the case-study knobs.
fn twitter_env(seed: u64) -> TuningEnvironmentBuilder {
    TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::case_study())
        .seed(seed)
}

/// Span totals the session's own `IterationTiming` sums must match.
const TIMED_PHASES: [&str; 5] =
    ["meta_data_processing", "model_update", "gp_fit", "weight_update", "recommendation"];

/// Runs a seeded, meta-boosted session with tracing and diagnostics on;
/// returns the per-phase `IterationTiming` sums and the snapshot.
fn traced_session(iters: usize) -> ([f64; 5], TraceSnapshot) {
    let characterizer = WorkloadCharacterizer::train_default(2);
    let mut repo = DataRepository::new();
    for (i, spec) in WorkloadSpec::twitter_variations().into_iter().take(3).enumerate() {
        let mut dbms = SimulatedDbms::new(InstanceType::A, spec, 30 + i as u64);
        repo.add(TaskRecord::collect(
            &mut dbms,
            &KnobSet::case_study(),
            ResourceKind::Cpu,
            &characterizer,
            15,
            40 + i as u64,
        ));
    }
    let learners = repo.base_learners(&gp::GpConfig::fixed(), |_| true);
    let mf = characterizer.embed_workload(&WorkloadSpec::twitter(), 1).probs;
    let config = RestuneConfig {
        optimizer: AcquisitionOptimizer { n_candidates: 400, n_local: 80, local_sigma: 0.08 },
        gp: gp::GpConfig { restarts: 1, adam_iters: 15, ..Default::default() },
        dynamic_samples: 12,
        init_iters: 3,
        seed: 7,
        trace: true,
        diag: true,
        ..Default::default()
    };
    traced(|| {
        let mut session =
            TuningSession::with_base_learners(twitter_env(7).build(), config, learners, mf);
        let mut sums = [0.0; 5];
        for _ in 0..iters {
            let t = session.step().timing;
            for (sum, phase) in sums.iter_mut().zip([
                t.meta_data_processing_s,
                t.model_update_s,
                t.gp_fit_s,
                t.weight_update_s,
                t.recommendation_s,
            ]) {
                *sum += phase;
            }
        }
        sums
    })
}

fn session(opts: &Opts) {
    let iters = opts.iters(30);
    let (sums, snap) = traced_session(iters);
    let out = opts.write_trace(&snap, "session.trace.jsonl");
    println!("traced {iters}-iteration diagnostic session -> {}\n", out.display());
    print!("{}", view::render(&snap));

    println!("\n== span totals vs IterationTiming sums ==");
    let mut violations = Vec::new();
    let mut max_rel = 0.0_f64;
    for (phase, timing_sum) in TIMED_PHASES.iter().zip(sums) {
        let span_total = snap.total_for(phase);
        let rel =
            if timing_sum > 0.0 { (span_total - timing_sum).abs() / timing_sum } else { 0.0 };
        max_rel = max_rel.max(rel);
        println!(
            "  {phase:<22} spans {span_total:>10.4}s   timing {timing_sum:>10.4}s   delta {:.3}%",
            100.0 * rel
        );
    }
    println!("  max delta: {:.3}% (acceptance bound: 1%)", 100.0 * max_rel);
    if max_rel >= 0.01 {
        violations.push(format!(
            "span totals diverge from IterationTiming sums by {:.3}% (bound 1%)",
            100.0 * max_rel
        ));
    }

    // The telemetry contract: one well-formed health event per iteration,
    // in order, unchanged across the JSONL round trip.
    let records = view::session_records(&snap);
    if records.len() != iters {
        violations.push(format!(
            "expected one tuner.health event per iteration ({iters}), got {}",
            records.len()
        ));
    }
    for (i, r) in records.iter().enumerate() {
        if r.iteration != i {
            violations.push(format!("event {i} carries iteration {}", r.iteration));
        }
        if !r.objective.is_finite() || !r.incumbent.is_finite() {
            violations.push(format!("iteration {i} has non-finite objective/incumbent"));
        }
    }
    if !records.iter().any(|r| r.calibration.is_some()) {
        violations.push("no iteration carried GP calibration".to_string());
    }
    if !records.iter().any(|r| r.weights.is_some()) {
        violations.push("no iteration carried ensemble weights".to_string());
    }
    match snap.to_jsonl().and_then(|text| TraceSnapshot::from_jsonl(&text)) {
        Ok(reparsed) if view::session_records(&reparsed) != records => {
            violations.push("health records changed across the JSONL round trip".to_string())
        }
        Ok(_) => {}
        Err(e) => violations.push(format!("snapshot JSONL failed to reparse: {e}")),
    }
    finish(
        &violations,
        &format!(
            "span totals within 1% of IterationTiming sums; \
             telemetry contract ok: {iters} events, in order, calibrated, round-trippable"
        ),
    );
}

/// Runs CDBTune-w-Con through the shared driver loop. The driver owns the
/// `iteration` root span for every method, so a ported baseline's trace
/// must show it with the baseline's own stages nested inside.
fn baseline(opts: &Opts) {
    let iters = opts.iters(6);
    let config = RestuneConfig { seed: 11, trace: true, ..Default::default() };
    let ((), snap) = traced(|| {
        let mut agent = baselines::CdbTuneWithConstraints::new(twitter_env(11).build(), config);
        for _ in 0..iters {
            agent.step();
        }
    });
    let out = opts.write_trace(&snap, "baseline.trace.jsonl");
    println!("traced {iters}-iteration baseline (CDBTune-w-Con) -> {}\n", out.display());
    print!("{}", view::render(&snap));
    let roots = snap.span_agg().get("iteration").map(|a| a.count).unwrap_or(0);
    let mut violations = Vec::new();
    if roots as usize != iters {
        violations.push(format!(
            "baseline must emit one driver `iteration` root span per step \
             (got {roots}, want {iters})"
        ));
    }
    finish(&violations, &format!("one driver iteration root span per step ({iters})"));
}

/// The fleet tenants' LHS bootstrap length: each tenant's first
/// `FLEET_INIT_ITERS` steps need no model, so they skip their fits.
const FLEET_INIT_ITERS: usize = 2;

/// A fleet tenant with tracing, diagnostics and seeded transient faults.
fn tenant(id: u64, iters: usize, transient_rate: f64) -> Tenant {
    let seed = mix_seed(0x5EED_F1EE7, id);
    let env = TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::fleet_tenant(id))
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::case_study())
        .seed(seed)
        .fault_plan(FaultPlan::none().with_transient_rate(transient_rate).with_seed(seed ^ 0xFA))
        .build();
    let config = RestuneConfig {
        optimizer: AcquisitionOptimizer { n_candidates: 80, n_local: 20, local_sigma: 0.1 },
        gp: gp::GpConfig { restarts: 1, adam_iters: 5, ..Default::default() },
        dynamic_samples: 4,
        init_iters: FLEET_INIT_ITERS,
        seed,
        trace: true,
        diag: true,
        ..Default::default()
    };
    Tenant::restune(id, format!("tenant-{id}"), env, config, iters)
}

/// Every tenant tolerates a steady 0.2 transient-fault rate; the last one
/// is a planted failure storm (0.9) the straggler policy must flag.
fn run_fleet(tenants: usize, iters: usize, workers: usize) -> (FleetOutcome, TraceSnapshot) {
    traced(|| {
        let service = FleetService::new(FleetConfig { workers, slice: 2, shards: 16 });
        service.run(
            (0..tenants as u64)
                .map(|id| tenant(id, iters, if id + 1 == tenants as u64 { 0.9 } else { 0.2 }))
                .collect(),
        )
    })
}

fn fleet(opts: &Opts) {
    let ncpu = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let tenants = opts.count("--tenants", if opts.smoke { 64 } else { 16 });
    let iters = opts.count("--iters", 5);
    let workers = opts.count("--workers", ncpu);
    if tenants == 0 {
        fail("--tenants must be positive");
    }
    let (out, snap) = run_fleet(tenants, iters, workers);
    let retries: usize = out.tenants.iter().map(|t| t.outcome.failures.retries).sum();
    let penalties: usize = out
        .tenants
        .iter()
        .map(|t| t.outcome.failures.crashes + t.outcome.failures.timeouts)
        .sum();
    println!(
        "fleet: {} tenants, {} workers, {:.3}s wall ({:.1} tenants/s)",
        out.tenants.len(),
        out.workers,
        out.wall_s,
        out.tenants_per_s()
    );
    println!("faults: {retries} transient retries, {penalties} penalized iterations");
    let path = opts.write_trace(&snap, "fleet.trace.jsonl");
    println!("trace -> {}\n", path.display());
    print!("{}", view::render(&snap));
    if !opts.smoke {
        return;
    }

    let mut violations = Vec::new();
    if out.tenants.len() != tenants {
        violations.push(format!("ran {} tenants, want {tenants}", out.tenants.len()));
    }
    let poisoned = out.poisoned().count();
    if poisoned != 0 {
        violations.push(format!("{poisoned} tenants poisoned by seeded faults, want 0"));
    }
    // Every tenant's span tree is complete: `iters` nested iteration spans.
    for t in &out.tenants {
        let spans = snap.spans_for_task(t.id);
        let n = spans.iter().filter(|ev| ev.path == "fleet/tenant/iteration").count();
        if n != iters {
            violations.push(format!("tenant {} trace has {n} iteration spans, want {iters}", t.id));
        }
    }
    let health = FleetHealth::from_snapshot(&snap, &StragglerPolicy::default());
    if health.tenants.len() != tenants {
        violations.push(format!(
            "expected health streams for {tenants} tenants, got {}",
            health.tenants.len()
        ));
    }
    for t in health.tenants.iter().filter(|t| t.iterations != iters) {
        let n = t.iterations;
        violations.push(format!("tenant {} has {n} health events, want {iters}", t.task));
    }
    // Every step counts exactly one fit path, and the LHS bootstrap steps
    // (at n <= 40, where the next step refits anyway) all skip.
    let [full, incremental, skipped] =
        ["gp.fit.full", "gp.fit.incremental", "gp.fit.skipped"].map(|c| snap.counter(c) as usize);
    if full + incremental + skipped != tenants * iters {
        violations.push(format!(
            "{full} full + {incremental} incremental + {skipped} skipped fits, want {} steps",
            tenants * iters
        ));
    }
    let bootstrap = tenants * FLEET_INIT_ITERS.min(iters);
    if skipped < bootstrap {
        violations.push(format!("{skipped} skipped fits, want at least {bootstrap} (LHS steps)"));
    }
    let storm = tenants as u64 - 1;
    if !health.stragglers.iter().any(|s| s.task == storm) {
        violations.push(format!("planted failure-storm tenant {storm} was not flagged"));
    }
    match snap.to_jsonl().and_then(|text| TraceSnapshot::from_jsonl(&text)) {
        Ok(reparsed)
            if FleetHealth::from_snapshot(&reparsed, &StragglerPolicy::default()) != health =>
        {
            violations.push("fleet aggregate changed across the JSONL round trip".to_string())
        }
        Ok(_) => {}
        Err(e) => violations.push(format!("snapshot JSONL failed to reparse: {e}")),
    }
    // The fleet determinism contract, end to end: a rerun at a different
    // worker count reproduces every tenant's records byte for byte.
    let other = if workers == 1 { 4 } else { 1 };
    if violations.is_empty() {
        let (again, _) = run_fleet(tenants, iters, other);
        for (a, b) in out.tenants.iter().zip(&again.tenants) {
            if a.id != b.id || a.record_json().ok() != b.record_json().ok() {
                violations.push(format!(
                    "tenant {} records diverged between workers={workers} and workers={other}",
                    a.id
                ));
            }
        }
    }
    finish(
        &violations,
        &format!(
            "smoke ok: {tenants} tenants x {iters} iterations, one fit path per step, storm \
             tenant flagged, round-trippable, bit-identical at workers={workers} and \
             workers={other}"
        ),
    );
}

/// Runs the six methods under the golden-methods setup (seed 17, 0.2
/// transient fault rate, two-task repository) with diagnostics on and prints
/// a markdown health-summary table. History-derived columns cover every
/// method; telemetry columns show `-` for methods that emit none.
fn methods_table(iters: usize) {
    let characterizer = WorkloadCharacterizer::train_default(0);
    let mut repo = DataRepository::new();
    for (i, w) in [WorkloadSpec::twitter(), WorkloadSpec::sysbench()].into_iter().enumerate() {
        let mut dbms = SimulatedDbms::new(InstanceType::A, w, 100 + i as u64);
        repo.add(TaskRecord::collect(
            &mut dbms,
            &KnobSet::case_study(),
            ResourceKind::Cpu,
            &characterizer,
            12,
            200 + i as u64,
        ));
    }
    let env = || {
        twitter_env(17)
            .fault_plan(FaultPlan::none().with_transient_rate(0.2).with_seed(0xFA))
            .build()
    };
    let ctx = MethodContext {
        config: RestuneConfig {
            optimizer: AcquisitionOptimizer { n_candidates: 250, n_local: 50, local_sigma: 0.1 },
            gp: gp::GpConfig { restarts: 1, adam_iters: 12, ..Default::default() },
            dynamic_samples: 8,
            init_iters: 4,
            seed: 17,
            trace: true,
            diag: true,
            ..Default::default()
        },
        repository: Some(&repo),
        prepared_learners: None,
        setting: Setting::Original,
        target_meta_feature: vec![0.2; 5],
    };
    let methods = [
        ("ResTune", Method::Restune),
        ("ResTune-w/o-ML", Method::RestuneWithoutML),
        ("ResTune-w/o-WC", Method::RestuneWithoutWorkload),
        ("iTuned", Method::ITuned),
        ("OtterTune-w-Con", Method::OtterTuneWithConstraints),
        ("CDBTune-w-Con", Method::CdbTuneWithConstraints),
    ];
    let fmt_opt = |v: Option<f64>| v.map(|x| format!("{x:.3}")).unwrap_or_else(|| "-".into());
    println!(
        "| method | final CPU% | mean regret | failed iters | retries | mean 1σ cov | mean \\|z\\| | final w-entropy | GP fallbacks |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for (label, method) in methods {
        let (outcome, snap) = traced(|| run_method(method, env(), iters, &ctx));
        // Progress/failure stats from the shared driver's history, so the
        // columns are method-agnostic.
        let mean_regret = outcome
            .history
            .iter()
            .map(|r| r.objective - r.best_feasible_objective)
            .sum::<f64>()
            / outcome.history.len().max(1) as f64;
        let failed = outcome.failures.failed_iterations();
        // Telemetry-only columns, folded with the same per-tenant reducer the
        // fleet aggregator uses.
        let telemetry = TenantHealth::from_records(0, &view::session_records(&snap));
        println!(
            "| {label} | {} | {mean_regret:.3} | {failed} | {} | {} | {} | {} | {} |",
            outcome
                .best_objective
                .map(|b| format!("{b:.2}"))
                .unwrap_or_else(|| "-".into()),
            outcome.failures.retries,
            fmt_opt(telemetry.as_ref().and_then(|t| t.mean_cov_1s)),
            fmt_opt(telemetry.as_ref().and_then(|t| t.mean_abs_z)),
            fmt_opt(telemetry.as_ref().and_then(|t| t.final_weight_entropy)),
            telemetry
                .as_ref()
                .map(|t| t.fallbacks.to_string())
                .unwrap_or_else(|| "-".into()),
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else { fail(USAGE) };
    match command.as_str() {
        "session" => session(&Opts::parse(rest, &["--out"], false)),
        "baseline" => baseline(&Opts::parse(rest, &["--out"], false)),
        "fleet" => fleet(&Opts::parse(rest, &["--tenants", "--iters", "--workers", "--out"], true)),
        "methods" => methods_table(Opts::parse(rest, &[], false).iters(12)),
        file if !file.starts_with("--") && rest.is_empty() => {
            let snap = view::load(file.as_ref()).unwrap_or_else(|e| fail(&e));
            print!("{}", view::render(&snap));
        }
        _ => fail(USAGE),
    }
}
