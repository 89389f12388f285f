//! Deep deterministic policy gradient (Lillicrap et al., 2016), the learning
//! core of the CDBTune baseline.

use crate::mlp::{Activation, AdamOptimizer, Mlp};
use crate::replay::{ReplayBuffer, Transition};
use xrand::rngs::StdRng;
use xrand::{RngExt, SeedableRng};

/// DDPG hyperparameters.
#[derive(Debug, Clone)]
pub struct DdpgConfig {
    /// Hidden layer width (two hidden layers).
    pub hidden: usize,
    /// Discount factor.
    pub gamma: f64,
    /// Soft target-update rate.
    pub tau: f64,
    /// Actor learning rate.
    pub actor_lr: f64,
    /// Critic learning rate.
    pub critic_lr: f64,
    /// Minibatch size.
    pub batch: usize,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Initial exploration noise (std-dev on each action dim).
    pub noise: f64,
    /// Multiplicative noise decay per training step.
    pub noise_decay: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DdpgConfig {
    fn default() -> Self {
        DdpgConfig {
            hidden: 64,
            gamma: 0.95,
            tau: 0.01,
            actor_lr: 1e-3,
            critic_lr: 1e-3,
            batch: 32,
            replay_capacity: 4096,
            noise: 0.3,
            noise_decay: 0.995,
            seed: 0,
        }
    }
}

/// A DDPG agent with actions in `[0, 1]^a` (normalized knob space).
#[derive(Debug)]
pub struct Ddpg {
    actor: Mlp,
    actor_target: Mlp,
    critic: Mlp,
    critic_target: Mlp,
    actor_opt: AdamOptimizer,
    critic_opt: AdamOptimizer,
    replay: ReplayBuffer,
    config: DdpgConfig,
    noise: f64,
    rng: StdRng,
    state_dim: usize,
    action_dim: usize,
}

impl Ddpg {
    /// Creates an agent for `state_dim`-dimensional states and
    /// `action_dim`-dimensional `[0,1]` actions.
    pub fn new(state_dim: usize, action_dim: usize, config: DdpgConfig) -> Self {
        let h = config.hidden;
        let actor = Mlp::new(
            &[state_dim, h, h, action_dim],
            Activation::Tanh,
            Activation::Sigmoid,
            config.seed,
        );
        let critic = Mlp::new(
            &[state_dim + action_dim, h, h, 1],
            Activation::Tanh,
            Activation::Identity,
            config.seed ^ 0xABCD,
        );
        let actor_target = actor.clone();
        let critic_target = critic.clone();
        let actor_opt = AdamOptimizer::new(&actor, config.actor_lr);
        let critic_opt = AdamOptimizer::new(&critic, config.critic_lr);
        let replay = ReplayBuffer::new(config.replay_capacity);
        let rng = StdRng::seed_from_u64(config.seed.wrapping_add(17));
        let noise = config.noise;
        Ddpg {
            actor,
            actor_target,
            critic,
            critic_target,
            actor_opt,
            critic_opt,
            replay,
            config,
            noise,
            rng,
            state_dim,
            action_dim,
        }
    }

    /// Greedy action for `state`.
    pub fn act(&self, state: &[f64]) -> Vec<f64> {
        debug_assert_eq!(state.len(), self.state_dim);
        self.actor.forward(state)
    }

    /// Exploratory action: greedy plus decaying Gaussian noise, clamped to
    /// `[0, 1]`.
    pub fn act_noisy(&mut self, state: &[f64]) -> Vec<f64> {
        let mut a = self.actor.forward(state);
        for v in &mut a {
            // Box–Muller draw.
            let u1: f64 = 1.0 - self.rng.random::<f64>();
            let u2: f64 = self.rng.random::<f64>();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            *v = (*v + self.noise * z).clamp(0.0, 1.0);
        }
        a
    }

    /// Current exploration noise level.
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Stores a transition in the replay buffer.
    pub fn observe(&mut self, t: Transition) {
        debug_assert_eq!(t.state.len(), self.state_dim);
        debug_assert_eq!(t.action.len(), self.action_dim);
        self.replay.push(t);
    }

    /// One gradient step on critic and actor from a replay minibatch.
    /// Returns the critic's TD loss, or `None` when the buffer is too small.
    pub fn train_step(&mut self) -> Option<f64> {
        if self.replay.len() < self.config.batch {
            return None;
        }
        let batch: Vec<Transition> = self
            .replay
            .sample(self.config.batch, &mut self.rng)
            .into_iter()
            .cloned()
            .collect();
        let n = batch.len() as f64;

        // ---- critic update ------------------------------------------------
        let mut critic_grads = self.critic.zero_grads();
        let mut loss = 0.0;
        for t in &batch {
            let target_q = if t.done {
                t.reward
            } else {
                let next_a = self.actor_target.forward(&t.next_state);
                let mut sa = t.next_state.clone();
                sa.extend_from_slice(&next_a);
                t.reward + self.config.gamma * self.critic_target.forward(&sa)[0]
            };
            let mut sa = t.state.clone();
            sa.extend_from_slice(&t.action);
            let q = self.critic.forward(&sa)[0];
            let err = q - target_q;
            loss += err * err;
            let (g, _) = self.critic.backward(&sa, &[2.0 * err]);
            Mlp::accumulate(&mut critic_grads, &g);
        }
        Mlp::scale_grads(&mut critic_grads, 1.0 / n);
        self.critic_opt.step(&mut self.critic, &critic_grads);

        // ---- actor update (deterministic policy gradient) ------------------
        let mut actor_grads = self.actor.zero_grads();
        for t in &batch {
            let a = self.actor.forward(&t.state);
            let mut sa = t.state.clone();
            sa.extend_from_slice(&a);
            // dQ/da — gradient of the critic's output w.r.t. its action inputs.
            let dq_dsa = self.critic.input_gradient(&sa);
            let dq_da = &dq_dsa[self.state_dim..];
            // Ascend Q: backprop -dQ/da through the actor.
            let neg: Vec<f64> = dq_da.iter().map(|g| -g).collect();
            let (g, _) = self.actor.backward(&t.state, &neg);
            Mlp::accumulate(&mut actor_grads, &g);
        }
        Mlp::scale_grads(&mut actor_grads, 1.0 / n);
        self.actor_opt.step(&mut self.actor, &actor_grads);

        // ---- target networks + noise decay ---------------------------------
        self.actor_target.soft_update_from(&self.actor, self.config.tau);
        self.critic_target.soft_update_from(&self.critic, self.config.tau);
        self.noise *= self.config.noise_decay;

        Some(loss / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-step bandit: reward = 1 - |a - 0.7|, constant state. DDPG should
    /// steer its action toward 0.7.
    #[test]
    fn learns_a_one_step_bandit() {
        let config = DdpgConfig {
            hidden: 24,
            batch: 32,
            noise: 0.4,
            noise_decay: 0.998,
            actor_lr: 2e-3,
            critic_lr: 4e-3,
            seed: 5,
            ..Default::default()
        };
        let mut agent = Ddpg::new(2, 1, config);
        let state = vec![0.3, -0.3];
        for _ in 0..800 {
            let a = agent.act_noisy(&state);
            let reward = 1.0 - (a[0] - 0.7).abs();
            agent.observe(Transition {
                state: state.clone(),
                action: a,
                reward,
                next_state: state.clone(),
                done: true,
            });
            agent.train_step();
        }
        let final_a = agent.act(&state)[0];
        assert!(
            (final_a - 0.7).abs() < 0.2,
            "agent converged to {final_a}, expected near 0.7"
        );
    }

    #[test]
    fn actions_are_in_unit_interval() {
        let mut agent = Ddpg::new(3, 4, DdpgConfig::default());
        for i in 0..20 {
            let s = vec![i as f64, -(i as f64), 0.5];
            for v in agent.act_noisy(&s) {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn train_step_requires_enough_samples() {
        let mut agent = Ddpg::new(2, 1, DdpgConfig { batch: 8, ..Default::default() });
        assert!(agent.train_step().is_none());
        for _ in 0..8 {
            agent.observe(Transition {
                state: vec![0.0, 0.0],
                action: vec![0.5],
                reward: 0.0,
                next_state: vec![0.0, 0.0],
                done: true,
            });
        }
        assert!(agent.train_step().is_some());
    }

    #[test]
    fn noise_decays_with_training() {
        let mut agent = Ddpg::new(1, 1, DdpgConfig { batch: 4, ..Default::default() });
        for _ in 0..4 {
            agent.observe(Transition {
                state: vec![0.0],
                action: vec![0.5],
                reward: 1.0,
                next_state: vec![0.0],
                done: true,
            });
        }
        let before = agent.noise();
        for _ in 0..10 {
            agent.train_step();
        }
        assert!(agent.noise() < before);
    }
}
