//! Drift sweep (DESIGN.md §16): re-tuning strategies under a scheduled
//! workload drift.
//!
//! Usage:
//!   drift_sweep [--out BENCH_drift.json]
//!
//! Every arm tunes the same twitter/instance-B environment whose workload
//! drifts into the OLAP reporting mix partway through the run (a seeded
//! [`dbsim::WorkloadSchedule`], so the traffic trajectory is bit-identical
//! across arms and runs):
//!
//! * `warm`      — drift controller with [`RestartPolicy::Warm`]: the
//!   pre-drift epoch is sealed as a base task and the restarted session
//!   transfers from it plus the historical repository (full ResTune).
//! * `cold`      — same detector, [`RestartPolicy::Cold`]: the epoch is
//!   sealed but the new epoch restarts without transfer (from-scratch
//!   bootstrap after the restart).
//! * `oblivious` — no controller: the session keeps conditioning on its
//!   stale pre-drift model and incumbent.
//! * `scratch`   — the reference: a fresh session tuned directly on the
//!   fully drifted workload with the same post-drift budget. Its final TCO
//!   is the target the re-tuning arms are measured against.
//!
//! Metric per arm: the running best SLA-feasible objective over the
//! *post-drift window* (iterations after the drift ramp completes) and the
//! 1-based iterations until it comes within 10 % of `scratch`'s final value
//! (censored at the window).
//!
//! Gates:
//! * two identically seeded `warm` runs produce bit-identical histories (the
//!   determinism digest recorded in `BENCH_drift.json`), the detector fires
//!   (≥ 1 drift detected, ≥ 1 restart), the `drift.*` counters/spans
//!   reached the trace, and checks re-embedded the live workload only when
//!   it moved (`0 < drift.embeds < drift.checks`);
//! * the acceptance line: `warm` reaches within 10 % of `scratch`'s final
//!   TCO, in at most half the post-drift iterations `cold` needs (censored
//!   at the window). The file records that ratio as `warm_vs_cold`.
//!
//! The file's `"gate"` block declares what `bench_gate` compares against
//! the committed baseline: the digest, a nonzero restart count, per-arm
//! quality (+5 pp) and convergence (+6 iterations) ceilings, and
//! `warm_vs_cold` ≤ 0.5.

use std::sync::Arc;

use dbsim::{InstanceType, KnobSet, WorkloadSchedule, WorkloadSpec};
use restune_bench::context::{build_repository_from, scale_rate_to_instance};
use restune_bench::gate::{Check, Gate, Rule};
use restune_core::acquisition::AcquisitionOptimizer;
use restune_core::drift::{DriftConfig, DriftController, LocalSealSink, RestartPolicy};
use restune_core::engine::IterationRecord;
use restune_core::problem::ResourceKind;
use restune_core::repository::DataRepository;
use restune_core::tuner::{RestuneConfig, TuningEnvironment, TuningSession};
use workload::WorkloadCharacterizer;

const SEED: u64 = 42;

struct Plan {
    total_iters: usize,
    drift_at: u64,
    drift_ramp: u64,
}

fn bo_config() -> RestuneConfig {
    RestuneConfig {
        optimizer: AcquisitionOptimizer { n_candidates: 300, n_local: 60, local_sigma: 0.1 },
        gp: gp::GpConfig { restarts: 1, adam_iters: 12, ..Default::default() },
        dynamic_samples: 8,
        init_iters: 8,
        // The sealed pre-drift profile sits far from the OLAP profile in
        // meta-feature space; a wide Epanechnikov bandwidth keeps the sealed
        // task's static weight nonzero so the transfer actually engages.
        static_bandwidth: 2.0,
        seed: SEED,
        ..Default::default()
    }
}

fn drift_config(policy: RestartPolicy) -> DriftConfig {
    DriftConfig {
        check_every: 2,
        threshold: 0.25,
        min_epoch_iters: 6,
        settle_tol: 0.05,
        embed_seed: 0,
        policy,
    }
}

/// The 8-core instance: OLAP CPU% has real knob headroom there (on the
/// 48-core A nearly every configuration lands within a few percent of
/// optimal, which would make every re-tuning arm look instantly converged).
const INSTANCE: InstanceType = InstanceType::B;

/// The pre-drift workload: twitter with its request rate scaled to what the
/// small instance sustains (as the repository builder does).
fn base_workload() -> WorkloadSpec {
    scale_rate_to_instance(&WorkloadSpec::twitter(), INSTANCE)
}

fn schedule(plan: &Plan) -> WorkloadSchedule {
    WorkloadSchedule::oltp_to_olap(SEED, plan.drift_at, plan.drift_ramp)
}

fn environment(plan: &Plan) -> TuningEnvironment {
    TuningEnvironment::builder()
        .instance(INSTANCE)
        .workload(base_workload())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::case_study())
        .seed(SEED)
        .schedule(schedule(plan))
        .build()
}

struct ArmRun {
    restarts: u64,
    sealed: usize,
    /// Engine `epoch_start` after the run (0 when no restart fired).
    restart_iter: usize,
    history: Vec<IterationRecord>,
}

/// One drifting session; `policy` = `None` is the oblivious arm.
fn drift_arm(
    plan: &Plan,
    policy: Option<RestartPolicy>,
    characterizer: &Arc<WorkloadCharacterizer>,
    repo: &DataRepository,
) -> ArmRun {
    let env = environment(plan);
    let session = TuningSession::new(env, bo_config());
    let session = match policy {
        Some(policy) => {
            let sink = Box::new(LocalSealSink::new(
                repo.clone(),
                gp::GpConfig { restarts: 1, adam_iters: 12, ..Default::default() },
            ));
            let controller = DriftController::for_workload(
                drift_config(policy),
                Arc::clone(characterizer),
                &base_workload(),
                "twitter@B",
                sink,
            );
            session.with_drift(controller)
        }
        None => session,
    };
    let mut driver = session.into_driver();
    for _ in 0..plan.total_iters {
        driver.step();
    }
    let restarts = driver.drift().map(|d| d.restarts()).unwrap_or(0);
    let sealed = driver.drift().map(|d| d.sealed_tasks()).unwrap_or(0);
    let restart_iter = driver.engine().epoch_start();
    let history = driver.into_outcome().history;
    ArmRun { restarts, sealed, restart_iter, history }
}

/// Fresh session on the fully drifted workload — the re-tuning target.
fn scratch_arm(plan: &Plan, post_iters: usize) -> ArmRun {
    let drifted = schedule(plan).effective(&base_workload(), u64::MAX - 1);
    let env = TuningEnvironment::builder()
        .instance(INSTANCE)
        .workload(drifted)
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::case_study())
        .seed(SEED)
        .build();
    let outcome = TuningSession::new(env, bo_config()).run_into_outcome(post_iters);
    ArmRun { restarts: 0, sealed: 0, restart_iter: 0, history: outcome.history }
}

/// Running best feasible objective over `history[from..]` (∞ until the
/// first feasible point lands).
fn post_curve(history: &[IterationRecord], from: usize) -> Vec<f64> {
    let mut best = f64::INFINITY;
    history[from.min(history.len())..]
        .iter()
        .map(|r| {
            if r.feasible && r.objective < best {
                best = r.objective;
            }
            best
        })
        .collect()
}

/// 1-based iterations until the curve comes within 10 % of `target`.
fn iters_to_10pct(curve: &[f64], target: f64) -> Option<usize> {
    curve.iter().position(|&b| b <= target * 1.10).map(|i| i + 1)
}

fn fnv1a64(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn run_digest(run: &ArmRun) -> u64 {
    let words = run
        .history
        .iter()
        .flat_map(|r| [r.objective.to_bits(), r.best_feasible_objective.to_bits()])
        .chain([run.restarts, run.restart_iter as u64]);
    fnv1a64(words.flat_map(|w| w.to_le_bytes()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_drift.json".to_string());

    let plan = Plan { total_iters: 34, drift_at: 10, drift_ramp: 6 };

    println!(
        "drift_sweep: {} iters, OLTP->OLAP drift at eval {} over {}",
        plan.total_iters, plan.drift_at, plan.drift_ramp,
    );

    trace::enable();
    let characterizer = Arc::new(WorkloadCharacterizer::train_default(SEED));
    // A small historical repository (same knob set, same space) so the warm
    // arm has genuine cross-task transfer sources beyond its own sealed
    // epoch: two OLTP tasks plus a previously tuned analytics task. The
    // drifted session's meta-features retrieve the OLAP history (the
    // schedule's jittered target is near, not identical to, the stock OLAP
    // mix); cold discards the learners either way.
    let repo = build_repository_from(
        &characterizer,
        &[
            (scale_rate_to_instance(&WorkloadSpec::sales(), INSTANCE), INSTANCE),
            (base_workload(), INSTANCE),
            (WorkloadSpec::olap(), INSTANCE),
        ],
        &KnobSet::case_study(),
        ResourceKind::Cpu,
        24,
        SEED,
    );

    // Determinism + detector gates on the warm arm: two identically seeded
    // runs must agree on every bit, and the drift machinery must actually
    // fire and trace.
    let before = trace::snapshot();
    let warm = drift_arm(&plan, Some(RestartPolicy::Warm), &characterizer, &repo);
    let after = trace::snapshot();
    let checks = after.counter("drift.checks") - before.counter("drift.checks");
    let embeds = after.counter("drift.embeds") - before.counter("drift.embeds");
    let detected = after.counter("drift.detected") - before.counter("drift.detected");
    let restarts = after.counter("drift.restarts") - before.counter("drift.restarts");
    let sealed_epochs =
        after.counter("drift.epochs.sealed") - before.counter("drift.epochs.sealed");
    assert!(detected >= 1 && restarts >= 1, "drift never detected (checks {checks})");
    // Checks re-embed only a workload that moved since the last embedding.
    assert!(0 < embeds && embeds < checks, "{embeds} embeddings over {checks} checks");
    assert!(
        after.spans.iter().any(|s| s.path.ends_with("drift_check"))
            && after.spans.iter().any(|s| s.path.ends_with("drift_restart")),
        "drift_check/drift_restart spans missing from the trace"
    );
    let warm_rerun = drift_arm(&plan, Some(RestartPolicy::Warm), &characterizer, &repo);
    let digest = run_digest(&warm);
    assert_eq!(
        digest,
        run_digest(&warm_rerun),
        "same-seed warm drift sessions diverged"
    );

    let cold = drift_arm(&plan, Some(RestartPolicy::Cold), &characterizer, &repo);
    assert_eq!(
        warm.restart_iter, cold.restart_iter,
        "warm/cold detectors disagree on the restart iteration"
    );
    let oblivious = drift_arm(&plan, None, &characterizer, &repo);
    assert_eq!(oblivious.restarts, 0);

    let restart_iter = warm.restart_iter;
    let post_iters = plan.total_iters - restart_iter;
    let scratch = scratch_arm(&plan, post_iters);

    let scratch_curve = post_curve(&scratch.history, 0);
    let scratch_final = *scratch_curve.last().expect("scratch curve");
    let arms = [
        ("warm", &warm, restart_iter),
        ("cold", &cold, restart_iter),
        ("oblivious", &oblivious, restart_iter),
        ("scratch", &scratch, 0),
    ];

    println!(
        "\n{:>10}  {:>8}  {:>6}  {:>10}  {:>8}",
        "arm", "restarts", "sealed", "final", "to-10%"
    );
    let mut rows = Vec::new();
    for (name, run, from) in &arms {
        let curve = post_curve(&run.history, *from);
        let final_obj = *curve.last().expect("non-empty post-drift window");
        let to10 = iters_to_10pct(&curve, scratch_final);
        println!(
            "{:>10}  {:>8}  {:>6}  {:>9.2}%  {:>8}",
            name,
            run.restarts,
            run.sealed,
            final_obj,
            to10.map(|i| i.to_string()).unwrap_or_else(|| format!(">{}", curve.len())),
        );
        rows.push(format!(
            "    {{\"arm\": \"{}\", \"restarts\": {}, \"sealed_tasks\": {}, \"final_cpu_pct\": {}, \"iters_to_10pct\": {}}}",
            name,
            run.restarts,
            run.sealed,
            // An arm with no feasible post-drift point (the oblivious arm's
            // stale SLA) has no final objective: null, not a bare `inf`.
            if final_obj.is_finite() { format!("{final_obj:.4}") } else { "null".to_string() },
            to10.map(|i| i.to_string()).unwrap_or_else(|| "null".to_string()),
        ));
    }

    // Acceptance line: the warm restart lands within 10 % of a from-scratch
    // retune's final TCO in at most half the post-drift iterations the cold
    // restart needs (censored at the window).
    let warm_curve = post_curve(&warm.history, restart_iter);
    let warm_needs = iters_to_10pct(&warm_curve, scratch_final)
        .expect("warm arm never reached within 10% of the scratch retune");
    let cold_needs = iters_to_10pct(&post_curve(&cold.history, restart_iter), scratch_final)
        .unwrap_or(post_iters);
    println!(
        "\ngate: warm hit 10% of scratch in {warm_needs} post-drift iters; cold needed {cold_needs}"
    );
    assert!(
        warm_needs * 2 <= cold_needs,
        "warm needed {warm_needs} post-drift iterations; not <= half of cold's {cold_needs}"
    );
    let warm_vs_cold = warm_needs as f64 / cold_needs as f64;

    let gate = Gate {
        same: vec!["total_iters".into(), "drift_at".into()],
        checks: vec![
            Check { path: "determinism_digest".into(), rule: Rule::Equal },
            Check { path: "drift_counters.restarts".into(), rule: Rule::Nonzero },
            Check { path: "arms[arm].final_cpu_pct".into(), rule: Rule::Ceiling { add: 5.0 } },
            Check { path: "arms[arm].iters_to_10pct".into(), rule: Rule::Ceiling { add: 6.0 } },
            Check { path: "warm_vs_cold".into(), rule: Rule::Max { bound: 0.5 } },
        ],
    };

    let json = format!(
        "{{\n  \"bench\": \"drift_sweep\",\n  \"total_iters\": {},\n  \"drift_at\": {},\n  \"drift_ramp\": {},\n  \"restart_iter\": {restart_iter},\n  \"post_drift_iters\": {post_iters},\n  \"scratch_final_cpu_pct\": {scratch_final:.4},\n  \"warm_vs_cold\": {warm_vs_cold:.4},\n  \"determinism_digest\": \"{:#018x}\",\n  \"drift_counters\": {{\"checks\": {checks}, \"detected\": {detected}, \"restarts\": {restarts}, \"epochs_sealed\": {sealed_epochs}}},\n  \"arms\": [\n{}\n  ],\n{}\n}}\n",
        plan.total_iters,
        plan.drift_at,
        plan.drift_ramp,
        digest,
        rows.join(",\n"),
        gate.render(),
    );
    std::fs::write(&out_path, json).expect("write bench json");
    println!("\nwrote {out_path}");
}
