//! Smoke-scale runs of every experiment pipeline, so `cargo bench` exercises
//! each table/figure regeneration path end to end. Budgets are tiny; the
//! paper's budgets run through the `paper` bin (`paper <id> --full`, see
//! `restune_bench::paper`).

use baselines::method::Setting;
use baselines::Method;
use dbsim::{InstanceType, WorkloadSpec};
use restune_bench::context::{standard_config, ExperimentContext, Scale};
use restune_bench::experiments::{efficiency, fig1};
use restune_bench::microbench::{black_box, suite, Bencher};
use std::sync::OnceLock;

/// A miniature shared context: 4 historical tasks, tiny budgets.
fn mini_context() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| {
        use restune_core::problem::ResourceKind;
        let characterizer = workload::WorkloadCharacterizer::train_default(1);
        let tasks: Vec<(WorkloadSpec, InstanceType)> = vec![
            (WorkloadSpec::twitter(), InstanceType::A),
            (WorkloadSpec::twitter(), InstanceType::B),
            (WorkloadSpec::sysbench(), InstanceType::A),
            (WorkloadSpec::hotel(), InstanceType::A),
        ];
        let repository = restune_bench::context::build_repository_from(
            &characterizer,
            &tasks,
            &dbsim::KnobSet::cpu(),
            ResourceKind::Cpu,
            30,
            1,
        );
        let learners = restune_bench::context::fit_learners(&repository);
        ExperimentContext { scale: Scale::Quick, characterizer, repository, learners, seed: 1 }
    })
}

fn main() {
    let b = Bencher::from_env();
    suite("experiments_smoke");

    b.bench("fig1_heatmap_6x6", || {
        black_box(fig1::run(6));
    });

    b.bench("fig3_one_panel_restune_8_iters", || {
        let ctx = mini_context();
        black_box(ctx.run(
            Method::Restune,
            InstanceType::A,
            &WorkloadSpec::twitter(),
            Setting::Original,
            8,
            7,
        ));
    });

    b.bench("fig4_transfer_varying_hardware_8_iters", || {
        let ctx = mini_context();
        black_box(ctx.run(
            Method::Restune,
            InstanceType::A,
            &WorkloadSpec::twitter(),
            Setting::VaryingHardware,
            8,
            7,
        ));
    });

    b.bench("fig5_varying_workloads_ottertune_8_iters", || {
        let ctx = mini_context();
        black_box(ctx.run(
            Method::OtterTuneWithConstraints,
            InstanceType::A,
            &WorkloadSpec::twitter(),
            Setting::VaryingWorkloads,
            8,
            7,
        ));
    });

    b.bench("cdbtune_ddpg_8_iters", || {
        let ctx = mini_context();
        black_box(ctx.run(
            Method::CdbTuneWithConstraints,
            InstanceType::A,
            &WorkloadSpec::twitter(),
            Setting::Original,
            8,
            7,
        ));
    });

    let curve: Vec<f64> = (0..200).map(|i| 100.0 / (1.0 + i as f64)).collect();
    b.bench("iterations_to_best_metric", || {
        black_box(efficiency::iterations_to_best(black_box(&curve)));
    });

    let dbms =
        dbsim::SimulatedDbms::new(InstanceType::A, WorkloadSpec::twitter(), 0).with_noise(0.0);
    let rec = dbsim::Configuration::dba_default()
        .with("innodb_thread_concurrency", 13.0)
        .with("innodb_spin_wait_delay", 0.0)
        .with("innodb_lru_scan_depth", 356.0);
    let knobs: Vec<String> =
        dbsim::KnobSet::case_study().names().iter().map(|n| n.to_string()).collect();
    b.bench("shap_path_3_knobs", || {
        black_box(restune_core::shap::shap_path(&dbms, &rec, &knobs, 0));
    });

    // Keep the config constructor honest (cheap, but it pins the API).
    b.bench("standard_config", || {
        black_box(standard_config(Scale::Quick, 3));
    });
}
