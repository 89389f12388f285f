//! CDBTune-w-Con (§7): CDBTune's DDPG agent with the reward function
//! modified for resource-oriented tuning.
//!
//! The paper's two modifications:
//! 1. latency in the original reward is replaced with resource utilization,
//! 2. rewards are gated by the SLA — a positive reward (resource decreased)
//!    that violates the SLA is zeroed, and a negative reward (resource
//!    increased) that still meets the SLA is zeroed.
//!
//! The state is the internal-metrics vector (normalized by the default
//! observation so the network sees O(1) inputs); the action is the
//! normalized knob vector.
//!
//! The agent is a [`CdbTuneProposer`] on the shared
//! [`TuningDriver`]/[`EvalEngine`] loop: `propose` runs the actor
//! (recommendation phase) and the post-replay training step happens in the
//! [`Proposer::observe`] hook, whose wall-clock is attributed to the
//! record's `model_update_s` *before* it is committed — no patching of
//! stored records.

use nn::{Ddpg, DdpgConfig, Transition};
use restune_core::driver::{Proposal, ProposalTiming, Proposer, TuningDriver};
use restune_core::engine::{EvalEngine, HistoryView, IterationRecord};
use restune_core::tuner::{RestuneConfig, TuningEnvironment};

/// The CDBTune strategy: a DDPG actor-critic proposing knob vectors, trained
/// on the SLA-gated resource reward after each replay.
pub struct CdbTuneProposer {
    agent: Ddpg,
    state_scale: Vec<f64>,
    default_state: Vec<f64>,
    default_objective: f64,
    prev: Option<(Vec<f64>, f64)>,
    /// The (state, action, prev_objective) of the in-flight proposal,
    /// consumed by `observe` once the replay resolves.
    pending: Option<(Vec<f64>, Vec<f64>, f64)>,
    /// Gradient steps per evaluation (CDBTune trains on each observation).
    train_steps: usize,
}

impl CdbTuneProposer {
    /// A CDBTune-w-Con run on `env`. `config` contributes the seed; the
    /// agent hyperparameters follow CDBTune's published defaults scaled down
    /// to the tuning budget.
    pub fn driver(env: TuningEnvironment, config: RestuneConfig) -> TuningDriver<CdbTuneProposer> {
        let action_dim = env.search_dim();
        // The RL agent has no surrogate to seed; its state stream starts
        // from the default observation instead.
        let engine = EvalEngine::new(env, false);
        let state_dim = dbsim::InternalMetrics::DIM;
        let agent = Ddpg::new(
            state_dim,
            action_dim,
            DdpgConfig {
                hidden: 48,
                batch: 16,
                noise: 0.5,
                noise_decay: 0.99,
                seed: config.seed,
                ..Default::default()
            },
        );
        // Normalize states by the default observation's metric magnitudes.
        let default_metrics = engine.default_observation().internal.to_vec();
        let state_scale: Vec<f64> =
            default_metrics.iter().map(|v| v.abs().max(1.0)).collect();
        let default_state: Vec<f64> = default_metrics
            .iter()
            .zip(&state_scale)
            .map(|(v, s)| (v / s).clamp(-5.0, 5.0))
            .collect();
        let proposer = CdbTuneProposer {
            agent,
            state_scale,
            default_state,
            default_objective: engine.default_objective(),
            prev: None,
            pending: None,
            train_steps: 4,
        };
        TuningDriver::new(engine, proposer, config.seed)
    }

    fn normalize_state(&self, metrics: &[f64]) -> Vec<f64> {
        metrics.iter().zip(&self.state_scale).map(|(v, s)| (v / s).clamp(-5.0, 5.0)).collect()
    }

    /// The modified CDBTune reward (§7): quadratic shaping on the improvement
    /// over the initial (default) resource usage, modulated by the
    /// step-over-step change, then SLA-gated.
    fn reward(&self, objective: f64, prev_objective: f64, feasible: bool) -> f64 {
        let initial = self.default_objective.max(1e-9);
        let delta0 = (initial - objective) / initial;
        let delta_prev = (prev_objective - objective) / prev_objective.max(1e-9);
        let r = if delta0 > 0.0 {
            ((1.0 + delta0).powi(2) - 1.0) * (1.0 + delta_prev).abs()
        } else {
            -(((1.0 - delta0).powi(2) - 1.0) * (1.0 - delta_prev).abs())
        };
        // SLA gating: zero out rewards whose sign disagrees with feasibility.
        if (r > 0.0 && !feasible) || (r < 0.0 && feasible) {
            0.0
        } else {
            r
        }
    }
}

impl Proposer for CdbTuneProposer {
    fn propose(&mut self, _view: &HistoryView<'_>, _iter: usize, _seed: u64) -> Proposal {
        let recommendation_span = trace::span!("recommendation");
        let state = match &self.prev {
            Some((s, _)) => s.clone(),
            None => self.default_state.clone(),
        };
        let action = self.agent.act_noisy(&state);
        let recommendation_s = recommendation_span.finish_s();
        let prev_objective =
            self.prev.as_ref().map(|(_, o)| *o).unwrap_or(self.default_objective);
        self.pending = Some((state, action.clone(), prev_objective));
        Proposal {
            point: action,
            weights: None,
            timing: ProposalTiming { recommendation_s, ..Default::default() },
        }
    }

    fn observe(&mut self, _view: &HistoryView<'_>, record: &IterationRecord) -> f64 {
        let Some((state, action, prev_objective)) = self.pending.take() else {
            return 0.0;
        };
        let next_state = self.normalize_state(&record.observation.internal.to_vec());

        let model_span = trace::span!("model_update");
        let reward = self.reward(record.objective, prev_objective, record.feasible);
        self.agent.observe(Transition {
            state,
            action,
            reward,
            next_state: next_state.clone(),
            done: false,
        });
        for _ in 0..self.train_steps {
            self.agent.train_step();
        }
        let model_update_s = model_span.finish_s();
        self.prev = Some((next_state, record.objective));
        model_update_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsim::{InstanceType, KnobSet, WorkloadSpec};
    use restune_core::problem::ResourceKind;

    fn env(seed: u64) -> TuningEnvironment {
        TuningEnvironment::builder()
            .instance(InstanceType::A)
            .workload(WorkloadSpec::twitter())
            .resource(ResourceKind::Cpu)
            .knob_set(KnobSet::case_study())
            .seed(seed)
            .build()
    }

    #[test]
    fn runs_and_records_history() {
        let mut driver = CdbTuneProposer::driver(env(1), RestuneConfig::default());
        let outcome = driver.run(12);
        assert_eq!(outcome.history.len(), 12);
        assert!(outcome.best_objective.is_some());
    }

    #[test]
    fn reward_gating_matches_the_paper() {
        let driver = CdbTuneProposer::driver(env(2), RestuneConfig::default());
        let proposer = driver.proposer();
        let initial = driver.engine().default_objective();
        // Resource decreased but SLA violated -> zero.
        assert_eq!(proposer.reward(initial * 0.5, initial, false), 0.0);
        // Resource increased but SLA fine -> zero.
        assert_eq!(proposer.reward(initial * 1.5, initial, true), 0.0);
        // Resource decreased and feasible -> positive.
        assert!(proposer.reward(initial * 0.5, initial, true) > 0.0);
        // Resource increased and infeasible -> negative.
        assert!(proposer.reward(initial * 1.5, initial, false) < 0.0);
    }
}
