//! Integration tests for the workload-characterization pipeline feeding the
//! meta-learner, and for the SHAP explainer over tuned configurations.

use dbsim::{Configuration, InstanceType, SimulatedDbms, WorkloadSpec};
use restune::core::meta::{epanechnikov, static_weights, BaseLearner};
use restune::core::shap::shap_path;
use restune::core::surrogate::GpTaskModel;
use restune::prelude::*;

#[test]
fn characterization_orders_similar_workloads_first() {
    let c = WorkloadCharacterizer::train_default(77);
    let target = c.embed_workload(&WorkloadSpec::twitter(), 1);
    let close = c.embed_workload(&WorkloadSpec::twitter_variations()[0], 1);
    let far = c.embed_workload(&WorkloadSpec::sales(), 1);
    assert!(target.distance(&close) < target.distance(&far));
    // Same-family variants sit within the static-weight bandwidth; foreign
    // families fall outside (weight 0 with the default 0.2 bandwidth).
    assert!(epanechnikov(target.distance(&close) / 0.2) > 0.0);
    assert!(epanechnikov(target.distance(&far) / 0.2) == 0.0);
}

#[test]
fn static_weights_pipeline_end_to_end() {
    let c = WorkloadCharacterizer::train_default(78);
    // Two base learners on trivially fitted models.
    let points = linalg::Matrix::from_fn(6, 1, |i, _| i as f64 / 5.0);
    let vals: Vec<f64> = points.iter_rows().map(|p| p[0]).collect();
    let model = GpTaskModel::fit(points, &vals, &vals, &vals, &gp::GpConfig::fixed()).unwrap();
    let mk = |name: &str, spec: &WorkloadSpec| BaseLearner {
        task_id: name.into(),
        workload: name.into(),
        instance: InstanceType::A,
        meta_feature: c.embed_workload(spec, 2).probs,
        promising_point: None,
        model: model.clone(),
    };
    let base = vec![
        mk("twitter-like", &WorkloadSpec::twitter_variations()[0]),
        mk("sales-like", &WorkloadSpec::sales()),
    ];
    let target_mf = c.embed_workload(&WorkloadSpec::twitter(), 2).probs;
    let w = static_weights(&base, &target_mf, 0.2);
    assert!(w[0] > w[1], "similar workload should out-weigh dissimilar: {w:?}");
    assert_eq!(w[2], 0.75);
}

#[test]
fn shap_explains_a_real_tuning_outcome() {
    // Tune briefly, then explain the recommendation; Shapley efficiency must
    // tie the attributions to the actual metric deltas.
    let env = TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(dbsim::KnobSet::case_study())
        .seed(5)
        .build();
    let mut config = RestuneConfig::default();
    config.optimizer.n_candidates = 300;
    config.gp.adam_iters = 15;
    let outcome = TuningSession::new(env, config).run(15);

    let dbms = SimulatedDbms::new(InstanceType::A, WorkloadSpec::twitter(), 5).with_noise(0.0);
    let knobs: Vec<String> = dbsim::KnobSet::case_study()
        .names()
        .iter()
        .map(|n| n.to_string())
        .collect();
    let path = shap_path(&dbms, &outcome.best_config, &knobs, 0);
    let cpu_sum: f64 = path.attributions.iter().map(|a| a.cpu).sum();
    let cpu_delta = path.current_metrics.0 - path.default_metrics.0;
    assert!((cpu_sum - cpu_delta).abs() < 1e-6);
    // Tuning reduced CPU, so attributions must sum negative.
    assert!(cpu_delta < 0.0);
}

#[test]
fn internal_metrics_differ_enough_for_ottertune_mapping() {
    // Sanity for the OtterTune baseline: different workloads produce
    // distinguishable internal-metric signatures on the same instance.
    let sig = |spec: WorkloadSpec| {
        let dbms = SimulatedDbms::new(InstanceType::A, spec, 0).with_noise(0.0);
        dbms.evaluate_noiseless(&Configuration::dba_default()).internal.to_vec()
    };
    let a = sig(WorkloadSpec::twitter());
    let b = sig(WorkloadSpec::sales());
    let dist = linalg::vector::euclidean_distance(&a, &b);
    assert!(dist > 1.0, "signatures indistinguishable: {dist}");
}
