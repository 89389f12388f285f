//! Shared experiment context: the workload characterizer, the historical
//! data repository (34 tasks = 17 workloads × instances A and B, as in §7
//! "Data Repository"), pre-fitted base-learners, and budget scaling.

use baselines::{Method, MethodContext, run_method};
use baselines::method::Setting;
use dbsim::{InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};
use restune_core::acquisition::AcquisitionOptimizer;
use restune_core::meta::BaseLearner;
use restune_core::problem::ResourceKind;
use restune_core::repository::{DataRepository, TaskRecord};
use restune_core::tuner::{RestuneConfig, TuningEnvironment, TuningOutcome};
use workload::WorkloadCharacterizer;

/// Experiment budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced budget: fast smoke-scale reproduction.
    Quick,
    /// Paper-scale budget (200 iterations, more observations per task).
    Full,
}

impl Scale {
    /// Observations collected per historical task (paper: ~188).
    pub fn task_observations(&self) -> usize {
        match self {
            Scale::Quick => 60,
            Scale::Full => 188,
        }
    }

    /// Random repeats averaged per experiment (paper: 3).
    pub fn repeats(&self) -> usize {
        match self {
            Scale::Quick => 1,
            Scale::Full => 3,
        }
    }
}

/// Everything the experiment runs share.
pub struct ExperimentContext {
    /// Budget scale.
    pub scale: Scale,
    /// The trained characterization pipeline.
    pub characterizer: WorkloadCharacterizer,
    /// The CPU-knob historical repository (34 tasks, instances A and B).
    pub repository: DataRepository,
    /// Pre-fitted base-learners for the CPU repository.
    pub learners: Vec<BaseLearner>,
    /// Base random seed.
    pub seed: u64,
}

impl ExperimentContext {
    /// Builds the standard context: 17 workloads × instances {A, B}, CPU
    /// knob set, LHS-sampled histories, base-learners pre-fitted.
    pub fn build(scale: Scale) -> Self {
        let seed = 42;
        let characterizer = WorkloadCharacterizer::train_default(seed);
        let repository =
            build_repository(&characterizer, &KnobSet::cpu(), ResourceKind::Cpu, scale, seed);
        let learners = fit_learners(&repository);
        ExperimentContext { scale, characterizer, repository, learners, seed }
    }

    /// The standard algorithm configuration at this scale.
    pub fn config(&self, seed: u64) -> RestuneConfig {
        standard_config(self.scale, seed)
    }

    /// A method context over the shared repository/learners.
    pub fn method_context(&self, setting: Setting, target: &WorkloadSpec, seed: u64) -> MethodContext<'_> {
        MethodContext {
            config: self.config(seed),
            repository: Some(&self.repository),
            prepared_learners: Some(&self.learners),
            setting,
            target_meta_feature: self.characterizer.embed_workload(target, seed).probs,
        }
    }

    /// Runs one method on one environment with the shared history.
    pub fn run(
        &self,
        method: Method,
        instance: InstanceType,
        workload: &WorkloadSpec,
        setting: Setting,
        iterations: usize,
        seed: u64,
    ) -> TuningOutcome {
        let env = TuningEnvironment::builder()
            .instance(instance)
            .workload(workload.clone())
            .resource(ResourceKind::Cpu)
            .seed(seed)
            .build();
        let ctx = self.method_context(setting, workload, seed);
        run_method(method, env, iterations, &ctx)
    }
}

/// The shared algorithm configuration for a scale.
pub fn standard_config(scale: Scale, seed: u64) -> RestuneConfig {
    match scale {
        Scale::Full => RestuneConfig { seed, ..Default::default() },
        Scale::Quick => RestuneConfig {
            optimizer: AcquisitionOptimizer { n_candidates: 600, n_local: 120, local_sigma: 0.08 },
            gp: gp::GpConfig { restarts: 1, adam_iters: 25, ..Default::default() },
            dynamic_samples: 16,
            max_rank_points: 40,
            seed,
            ..Default::default()
        },
    }
}

/// Builds a repository over `knob_set`/`resource` from the 17-workload
/// catalogue on instances A and B (34 tasks).
///
/// Request rates are scaled to each instance's cores: Table 2's rates target
/// the 48-core instance A and would saturate the 8-core instance B, leaving
/// its tuning histories with flat (uninformative) response surfaces. A
/// production workload on a small box runs at a rate the box sustains.
pub fn build_repository(
    characterizer: &WorkloadCharacterizer,
    knob_set: &KnobSet,
    resource: ResourceKind,
    scale: Scale,
    seed: u64,
) -> DataRepository {
    let mut repo = DataRepository::new();
    let n = scale.task_observations();
    for (wi, spec) in WorkloadSpec::repository_catalog().into_iter().enumerate() {
        for (ii, instance) in [InstanceType::A, InstanceType::B].into_iter().enumerate() {
            let task_seed = seed ^ ((wi as u64) << 8) ^ ((ii as u64) << 20);
            let spec = scale_rate_to_instance(&spec, instance);
            let mut dbms = SimulatedDbms::new(instance, spec, task_seed);
            repo.add(TaskRecord::collect(
                &mut dbms,
                knob_set,
                resource,
                characterizer,
                n,
                task_seed,
            ));
        }
    }
    repo
}

/// Scales a rate-bounded workload's request rate to what `instance` can
/// sustain (relative to instance A, keeping the workload name unchanged).
pub fn scale_rate_to_instance(spec: &WorkloadSpec, instance: InstanceType) -> WorkloadSpec {
    match spec.request_rate {
        Some(rate) if instance != InstanceType::A => {
            let factor = instance.cores() as f64 / InstanceType::A.cores() as f64;
            spec.clone().with_request_rate(rate * factor * 0.8).named(&spec.name)
        }
        _ => spec.clone(),
    }
}

/// Builds a repository from explicit (workload, instance) pairs.
pub fn build_repository_from(
    characterizer: &WorkloadCharacterizer,
    tasks: &[(WorkloadSpec, InstanceType)],
    knob_set: &KnobSet,
    resource: ResourceKind,
    n_observations: usize,
    seed: u64,
) -> DataRepository {
    let mut repo = DataRepository::new();
    for (i, (spec, instance)) in tasks.iter().enumerate() {
        let task_seed = seed ^ ((i as u64 + 1) << 10);
        let mut dbms = SimulatedDbms::new(*instance, spec.clone(), task_seed);
        repo.add(TaskRecord::collect(
            &mut dbms,
            knob_set,
            resource,
            characterizer,
            n_observations,
            task_seed,
        ));
    }
    repo
}

/// Fits base-learners for every repository task (done once, reused across
/// runs).
pub fn fit_learners(repo: &DataRepository) -> Vec<BaseLearner> {
    let gp_config = gp::GpConfig { restarts: 1, adam_iters: 25, ..Default::default() };
    repo.base_learners(&gp_config, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repository_has_34_tasks_on_two_instances() {
        let characterizer = WorkloadCharacterizer::train_default(0);
        // A tiny build just to validate the shape.
        let mut tiny = DataRepository::new();
        for (wi, spec) in
            WorkloadSpec::repository_catalog().into_iter().take(2).enumerate()
        {
            for instance in [InstanceType::A, InstanceType::B] {
                let mut dbms = SimulatedDbms::new(instance, spec.clone(), wi as u64);
                tiny.add(TaskRecord::collect(
                    &mut dbms,
                    &KnobSet::case_study(),
                    ResourceKind::Cpu,
                    &characterizer,
                    8,
                    wi as u64,
                ));
            }
        }
        assert_eq!(tiny.len(), 4);
        let learners = fit_learners(&tiny);
        assert_eq!(learners.len(), 4);
        // Full catalogue is 17 x 2 = 34 (checked structurally, not built here
        // to keep tests fast).
        assert_eq!(WorkloadSpec::repository_catalog().len() * 2, 34);
    }

    #[test]
    fn scale_budgets() {
        assert_eq!(Scale::Full.repeats(), 3);
    }
}
