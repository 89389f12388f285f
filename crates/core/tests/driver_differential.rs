//! Differential test for the shared tuning loop: a scripted proposer feeds a
//! fixed point sequence through [`TuningDriver`]/[`EvalEngine`], and every
//! field of the resulting records is checked against expectations computed
//! independently from the simulator primitives (noiseless replays, the SLA
//! rule, and a hand-rolled running-incumbent fold) — none of which go through
//! the engine. Any drift in the engine's apply/replay/bookkeeping path shows
//! up as a field-level mismatch here before it can silently shift the golden
//! digests.

use dbsim::{Configuration, InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};
use restune_core::driver::{Proposal, ProposalTiming, Proposer, TuningDriver};
use restune_core::engine::{EvalEngine, HistoryView};
use restune_core::problem::{ResourceKind, SlaConstraints};
use restune_core::tuner::TuningEnvironment;

/// Replays a fixed script of points, logging what the driver hands it.
struct ScriptedProposer {
    script: Vec<Vec<f64>>,
    /// `(iter, seed, columns_at_propose, history_at_propose)` per propose.
    propose_log: Vec<(usize, u64, usize, usize)>,
    /// `(columns_at_observe, history_at_observe)` per observe.
    observe_log: Vec<(usize, usize)>,
    /// Model seconds attributed after each replay (an RL-style train step).
    post_replay_model_s: f64,
}

impl Proposer for ScriptedProposer {
    fn propose(&mut self, view: &HistoryView<'_>, iter: usize, seed: u64) -> Proposal {
        self.propose_log.push((iter, seed, view.points.len(), view.history.len()));
        Proposal {
            point: self.script[iter].clone(),
            weights: None,
            timing: ProposalTiming {
                meta_data_processing_s: 0.5,
                model_update_s: 1.0,
                gp_fit_s: 0.25,
                weight_update_s: 0.125,
                recommendation_s: 2.0,
            },
        }
    }

    fn observe(
        &mut self,
        view: &HistoryView<'_>,
        _record: &restune_core::tuner::IterationRecord,
    ) -> f64 {
        self.observe_log.push((view.points.len(), view.history.len()));
        self.post_replay_model_s
    }
}

fn scripted_points() -> Vec<Vec<f64>> {
    vec![
        vec![0.25, 0.25, 0.25],
        vec![1.0, 1.0, 1.0],
        vec![0.1, 0.6, 0.3],
        KnobSet::case_study().default_point(),
        vec![0.0, 0.0, 0.0],
    ]
}

fn noiseless_env(seed: u64) -> TuningEnvironment {
    TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::case_study())
        .seed(seed)
        .noise(0.0)
        .build()
}

#[test]
fn scripted_sequence_matches_hand_computed_records() {
    let script = scripted_points();
    let engine = EvalEngine::new(noiseless_env(9), false);
    let proposer = ScriptedProposer {
        script: script.clone(),
        propose_log: Vec::new(),
        observe_log: Vec::new(),
        post_replay_model_s: 0.75,
    };
    let mut driver = TuningDriver::new(engine, proposer, 9);
    for _ in 0..script.len() {
        driver.step();
    }

    // Independent reference: a second noiseless simulator at the same seed,
    // the SLA rule applied directly, and a hand-rolled incumbent fold.
    let dbms = SimulatedDbms::new(InstanceType::A, WorkloadSpec::twitter(), 9).with_noise(0.0);
    let knob_set = KnobSet::case_study();
    let base = Configuration::dba_default();
    let default_obs = dbms.evaluate_noiseless(&base);
    let sla = SlaConstraints::from_default_observation(&default_obs);
    let default_objective = default_obs.resources.cpu_pct;

    let outcome = driver.into_outcome();
    assert_eq!(outcome.history.len(), script.len());
    assert_eq!(outcome.default_obj_value, default_objective);

    let mut best: Option<(usize, f64, Vec<f64>)> = None;
    for (iter, point) in script.iter().enumerate() {
        let obs = dbms.evaluate_noiseless(&knob_set.to_configuration(point, &base));
        let objective = obs.resources.cpu_pct;
        let feasible = sla.is_feasible(&obs);
        if feasible && objective < best.as_ref().map(|b| b.1).unwrap_or(default_objective) {
            best = Some((iter, objective, point.clone()));
        }

        let r = &outcome.history[iter];
        assert_eq!(r.iteration, iter);
        assert_eq!(&r.point, point, "iter {iter}");
        assert_eq!(r.objective, objective, "iter {iter}: objective drifted");
        assert_eq!(r.observation.tps, obs.tps, "iter {iter}: tps drifted");
        assert_eq!(r.observation.p99_ms, obs.p99_ms, "iter {iter}: latency drifted");
        assert_eq!(r.feasible, feasible, "iter {iter}: SLA verdict drifted");
        assert_eq!(
            r.best_feasible_objective,
            best.as_ref().map(|b| b.1).unwrap_or(default_objective),
            "iter {iter}: incumbent fold drifted"
        );
        assert!(r.failure.is_none(), "noiseless replay must not fail");
        assert_eq!(r.retries, 0);
        assert!(r.weights.is_none());
    }

    // The rendered outcome agrees with the reference fold.
    match best {
        Some((iter, objective, ref point)) => {
            assert_eq!(outcome.best_iteration, Some(iter));
            assert_eq!(outcome.best_objective, Some(objective));
            assert_eq!(outcome.best_config, knob_set.to_configuration(point, &base));
        }
        None => {
            assert_eq!(outcome.best_iteration, None);
            assert_eq!(outcome.best_objective, Some(default_objective));
            assert_eq!(outcome.best_config, Configuration::dba_default());
        }
    }
    // The script deliberately contains improving points, so the reference
    // fold must have found one — otherwise this test vacuously passes.
    assert!(best.is_some(), "script never improved on the default");
}

#[test]
fn driver_hands_proposers_the_documented_seeds_and_views() {
    let script = scripted_points();
    let n = script.len();
    let engine = EvalEngine::new(noiseless_env(3), true);
    let proposer = ScriptedProposer {
        script,
        propose_log: Vec::new(),
        observe_log: Vec::new(),
        post_replay_model_s: 0.75,
    };
    let driver_seed = 41u64;
    let mut driver = TuningDriver::new(engine, proposer, driver_seed);
    for _ in 0..n {
        driver.step();
    }

    let proposer = driver.proposer();
    assert_eq!(proposer.propose_log.len(), n);
    assert_eq!(proposer.observe_log.len(), n);
    for iter in 0..n {
        let (logged_iter, seed, columns, history) = proposer.propose_log[iter];
        assert_eq!(logged_iter, iter);
        // The per-iteration seed schedule is part of the driver's contract:
        // bit-identity of every ported method depends on it.
        assert_eq!(seed, driver_seed.wrapping_add(iter as u64).wrapping_mul(0x9E37));
        // At propose time the seeded default is the extra column and the
        // iteration itself is not yet visible.
        assert_eq!(columns, iter + 1);
        assert_eq!(history, iter);
        // At observe time the replay's column is in, but the record is not
        // yet committed — post-replay timing still lands in it.
        assert_eq!(proposer.observe_log[iter], (iter + 2, iter));
    }

    // Proposal-side timings pass through verbatim; observe()'s seconds are
    // folded into the committed record's model_update_s.
    let outcome = driver.into_outcome();
    for r in &outcome.history {
        assert_eq!(r.timing.meta_data_processing_s, 0.5);
        assert_eq!(r.timing.model_update_s, 1.0 + 0.75);
        assert_eq!(r.timing.gp_fit_s, 0.25);
        assert_eq!(r.timing.weight_update_s, 0.125);
        assert_eq!(r.timing.recommendation_s, 2.0);
        assert!(r.timing.replay_s > 0.0);
        assert_eq!(
            r.timing.total_s(),
            0.5 + 1.75 + 2.0 + r.timing.replay_s,
            "gp_fit/weight_update must not double-count"
        );
    }
}
