//! Drift sweep (*ours*, DESIGN.md §16): re-tuning strategies under a
//! scheduled workload drift, saved as `BENCH_drift.json`.
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
//! *post-drift window* (iterations after the restart) and the 1-based
//! iterations until it comes within 10 % of `scratch`'s final value
//! (censored at the window).
//!
//! In-run checks: the detector fires (≥ 1 detection, ≥ 1 restart), checks
//! re-embed the live workload only when it moved (`0 < drift.embeds <
//! drift.checks`), the `drift_check` and `drift_restart` spans reach the
//! trace, two identically seeded `warm` runs share a digest, warm and cold
//! restart at the same iteration, the oblivious arm never restarts, and
//! `warm` reaches within 10 % of `scratch` in at most half the post-drift
//! iterations `cold` needs (censored at the window), recorded as
//! `warm_vs_cold`.

use std::sync::Arc;

use dbsim::{InstanceType, KnobSet, WorkloadSchedule, WorkloadSpec};
use restune_core::acquisition::AcquisitionOptimizer;
use restune_core::drift::{DriftConfig, DriftController, LocalSealSink, RestartPolicy};
use restune_core::engine::IterationRecord;
use restune_core::problem::ResourceKind;
use restune_core::repository::DataRepository;
use restune_core::tuner::{RestuneConfig, TuningEnvironment, TuningSession};
use workload::WorkloadCharacterizer;

use super::check;
use crate::context::{build_repository_from, scale_rate_to_instance};
use crate::gate::{Check, Gate, Rule};
use crate::report::{fnv1a, traced};

const SEED: u64 = 42;
/// The evaluation the drift ramp starts at.
const DRIFT_AT: u64 = 10;
/// Evaluations the ramp takes.
const DRIFT_RAMP: u64 = 6;

/// The drift counters of the first warm run.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftCounters {
    /// Drift checks run.
    pub checks: u64,
    /// Checks that saw the workload move.
    pub detected: u64,
    /// Restarts fired.
    pub restarts: u64,
    /// Epochs sealed into the repository.
    pub epochs_sealed: u64,
}

/// One arm's post-drift result.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftArm {
    /// `warm`, `cold`, `oblivious` or `scratch`.
    pub arm: String,
    /// Restarts the arm's detector fired.
    pub restarts: u64,
    /// Epochs the arm sealed.
    pub sealed_tasks: usize,
    /// Best feasible CPU% over the post-drift window; `None` when no
    /// post-drift point was feasible.
    pub final_cpu_pct: Option<f64>,
    /// 1-based post-drift iterations until within 10 % of scratch's final
    /// value; `None` when censored at the window.
    pub iters_to_10pct: Option<usize>,
}

/// The sweep, as `BENCH_drift.json` holds it.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftDoc {
    /// Always `drift_sweep`.
    pub bench: String,
    /// Iterations every drifting arm runs.
    pub total_iters: usize,
    /// The evaluation the drift ramp starts at.
    pub drift_at: u64,
    /// Evaluations the ramp takes.
    pub drift_ramp: u64,
    /// The iteration both detectors restarted at.
    pub restart_iter: usize,
    /// Iterations after the restart (scratch's whole budget).
    pub post_drift_iters: usize,
    /// Scratch's final best feasible CPU%.
    pub scratch_final_cpu_pct: f64,
    /// Warm's iterations to 10 % over cold's (censored at the window).
    pub warm_vs_cold: f64,
    /// FNV-1a over the warm run's history, `0x`-prefixed.
    pub determinism_digest: String,
    /// The drift counters of the first warm run.
    pub drift_counters: DriftCounters,
    /// Warm, cold, oblivious and scratch, in that order.
    pub arms: Vec<DriftArm>,
    /// What `bench_gate` compares.
    pub gate: Gate,
}

minjson::json_struct!(DriftCounters { checks, detected, restarts, epochs_sealed });
minjson::json_struct!(DriftArm { arm, restarts, sealed_tasks, final_cpu_pct, iters_to_10pct });
minjson::json_struct!(DriftDoc {
    bench,
    total_iters,
    drift_at,
    drift_ramp,
    restart_iter,
    post_drift_iters,
    scratch_final_cpu_pct,
    warm_vs_cold,
    determinism_digest,
    drift_counters,
    arms,
    gate
});

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

fn schedule() -> WorkloadSchedule {
    WorkloadSchedule::oltp_to_olap(SEED, DRIFT_AT, DRIFT_RAMP)
}

fn environment() -> TuningEnvironment {
    TuningEnvironment::builder()
        .instance(INSTANCE)
        .workload(base_workload())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::case_study())
        .seed(SEED)
        .schedule(schedule())
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
    total_iters: usize,
    policy: Option<RestartPolicy>,
    characterizer: &Arc<WorkloadCharacterizer>,
    repo: &DataRepository,
) -> ArmRun {
    let session = TuningSession::new(environment(), bo_config());
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
    for _ in 0..total_iters {
        driver.step();
    }
    let restarts = driver.drift().map(|d| d.restarts()).unwrap_or(0);
    let sealed = driver.drift().map(|d| d.sealed_tasks()).unwrap_or(0);
    let restart_iter = driver.engine().epoch_start();
    let history = driver.into_outcome().history;
    ArmRun { restarts, sealed, restart_iter, history }
}

/// Fresh session on the fully drifted workload — the re-tuning target.
fn scratch_arm(post_iters: usize) -> ArmRun {
    let drifted = schedule().effective(&base_workload(), u64::MAX - 1);
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

fn run_digest(run: &ArmRun) -> u64 {
    let words = run
        .history
        .iter()
        .flat_map(|r| [r.objective.to_bits(), r.best_feasible_objective.to_bits()])
        .chain([run.restarts, run.restart_iter as u64]);
    fnv1a(words.flat_map(u64::to_le_bytes).map(u64::from))
}

/// Runs every arm for `total_iters` iterations (the post-drift window is
/// what follows the restart) and its in-run checks; `Err` names the first
/// check that failed.
pub fn run(total_iters: usize) -> Result<DriftDoc, String> {
    eprintln!("[drift_sweep] {total_iters} iterations, OLTP->OLAP drift at eval {DRIFT_AT} ...");
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
    let arm = |policy| drift_arm(total_iters, policy, &characterizer, &repo);

    // Determinism and detector checks on the warm arm: two identically
    // seeded runs must agree on every bit, and the drift machinery must
    // actually fire and trace.
    let (warm, snap) = traced(|| arm(Some(RestartPolicy::Warm)));
    let counters = DriftCounters {
        checks: snap.counter("drift.checks"),
        detected: snap.counter("drift.detected"),
        restarts: snap.counter("drift.restarts"),
        epochs_sealed: snap.counter("drift.epochs.sealed"),
    };
    check(counters.detected >= 1 && counters.restarts >= 1, || {
        format!("drift never detected (checks {})", counters.checks)
    })?;
    // Checks re-embed only a workload that moved since the last embedding.
    let embeds = snap.counter("drift.embeds");
    check(0 < embeds && embeds < counters.checks, || {
        format!("{embeds} embeddings over {} checks", counters.checks)
    })?;
    let spanned = |leaf: &str| snap.spans.iter().any(|s| s.path.ends_with(leaf));
    check(spanned("drift_check") && spanned("drift_restart"), || {
        "drift_check/drift_restart spans missing from the trace".to_string()
    })?;
    let digest = run_digest(&warm);
    check(digest == run_digest(&arm(Some(RestartPolicy::Warm))), || {
        "same-seed warm drift sessions diverged".to_string()
    })?;

    let cold = arm(Some(RestartPolicy::Cold));
    check(warm.restart_iter == cold.restart_iter, || {
        format!(
            "warm/cold detectors disagree on the restart iteration ({} vs {})",
            warm.restart_iter, cold.restart_iter
        )
    })?;
    let oblivious = arm(None);
    check(oblivious.restarts == 0, || {
        format!("the oblivious arm restarted {} times", oblivious.restarts)
    })?;

    let restart_iter = warm.restart_iter;
    let post_iters = total_iters - restart_iter;
    let scratch = scratch_arm(post_iters);
    let scratch_final = *post_curve(&scratch.history, 0)
        .last()
        .ok_or("the restart left no post-drift window")?;

    let mut arms = Vec::new();
    for (name, run, from) in [
        ("warm", &warm, restart_iter),
        ("cold", &cold, restart_iter),
        ("oblivious", &oblivious, restart_iter),
        ("scratch", &scratch, 0),
    ] {
        let curve = post_curve(&run.history, from);
        arms.push(DriftArm {
            arm: name.to_string(),
            restarts: run.restarts,
            sealed_tasks: run.sealed,
            // An arm with no feasible post-drift point (the oblivious arm's
            // stale SLA) has no final objective.
            final_cpu_pct: curve.last().copied().filter(|v| v.is_finite()),
            iters_to_10pct: iters_to_10pct(&curve, scratch_final),
        });
    }

    // Acceptance line: the warm restart lands within 10 % of a from-scratch
    // retune's final TCO in at most half the post-drift iterations the cold
    // restart needs (censored at the window).
    let warm_needs = arms[0]
        .iters_to_10pct
        .ok_or("warm arm never reached within 10% of the scratch retune")?;
    let cold_needs = arms[1].iters_to_10pct.unwrap_or(post_iters);
    check(warm_needs * 2 <= cold_needs, || {
        format!(
            "warm needed {warm_needs} post-drift iterations; not <= half of cold's {cold_needs}"
        )
    })?;

    Ok(DriftDoc {
        bench: "drift_sweep".to_string(),
        total_iters,
        drift_at: DRIFT_AT,
        drift_ramp: DRIFT_RAMP,
        restart_iter,
        post_drift_iters: post_iters,
        scratch_final_cpu_pct: scratch_final,
        warm_vs_cold: warm_needs as f64 / cold_needs as f64,
        determinism_digest: format!("{digest:#018x}"),
        drift_counters: counters,
        arms,
        gate: Gate {
            same: vec!["total_iters".into(), "drift_at".into()],
            checks: vec![
                Check { path: "determinism_digest".into(), rule: Rule::Equal },
                Check { path: "drift_counters.restarts".into(), rule: Rule::Nonzero },
                Check { path: "arms[arm].final_cpu_pct".into(), rule: Rule::Ceiling { add: 5.0 } },
                Check { path: "arms[arm].iters_to_10pct".into(), rule: Rule::Ceiling { add: 6.0 } },
                Check { path: "warm_vs_cold".into(), rule: Rule::Max { bound: 0.5 } },
            ],
        },
    })
}
