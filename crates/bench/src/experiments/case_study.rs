//! The §7.3 case study on the Twitter workload with 3 CPU knobs
//! (`innodb_thread_concurrency`, `innodb_spin_wait_delay`,
//! `innodb_lru_scan_depth`), regenerating:
//!
//! * Figure 6(a) — tuning curves of all methods,
//! * Figure 6(b) — the workload-characterization ablation,
//! * Figure 6(c) — ResTune's weight trajectory over iterations,
//! * Figure 6(d/e) — TPS response surfaces of the target and W1,
//! * Table 5 — distances / static weights / ranking losses of W1–W5,
//! * Table 6 — best configurations found per method (incl. grid search),
//! * Figure 7 — the SHAP path of ResTune's recommendation.

use crate::context::{build_repository_from, fit_learners, ExperimentContext};
use crate::report;
use baselines::method::Setting;
use baselines::{grid_search, run_method, Method, MethodContext};
use dbsim::{Configuration, InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};
use restune_core::meta::{ranking_loss, static_weights};
use restune_core::problem::ResourceKind;
use restune_core::shap::{shap_path, ShapPath};
use restune_core::tuner::TuningEnvironment;

/// Table 5 row.
#[derive(Debug, Clone)]
pub struct VariationRow {
    /// Variation name (W1–W5).
    pub name: String,
    /// R/W ratio, e.g. "32:1".
    pub rw_ratio: String,
    /// Meta-feature distance to the target.
    pub distance: f64,
    /// Static (Epanechnikov) weight.
    pub static_weight: f64,
    /// Posterior-mean ranking loss as a fraction of total pairs.
    pub ranking_loss_pct: f64,
}

/// Table 6 row.
#[derive(Debug, Clone)]
pub struct BestConfigRow {
    /// Method name.
    pub method: String,
    /// `innodb_thread_concurrency`.
    pub thread_concurrency: f64,
    /// `innodb_spin_wait_delay`.
    pub spin_wait_delay: f64,
    /// `innodb_lru_scan_depth`.
    pub lru_scan_depth: f64,
    /// Noiseless CPU of the configuration.
    pub cpu: f64,
    /// Whether it satisfies the SLA (noiseless check).
    pub feasible: bool,
}

/// A labelled tuning curve.
#[derive(Debug, Clone)]
pub struct NamedCurve {
    /// Legend label.
    pub label: String,
    /// Best-feasible CPU per iteration.
    pub values: Vec<f64>,
}

/// The whole case study.
#[derive(Debug, Clone)]
pub struct CaseStudyResult {
    /// Default CPU (flat line in Fig. 6a).
    pub default_cpu: f64,
    /// Figure 6(a) curves.
    pub fig6a: Vec<NamedCurve>,
    /// Figure 6(b) ablation curves.
    pub fig6b: Vec<NamedCurve>,
    /// Figure 6(c): per-iteration normalized weights, one series per learner
    /// (W1..W5 then the target WT).
    pub fig6c: Vec<NamedCurve>,
    /// Figure 6(d): target TPS surface over (spin, thread-concurrency).
    pub surface_target: Vec<Vec<f64>>,
    /// Figure 6(e): W1 TPS surface.
    pub surface_w1: Vec<Vec<f64>>,
    /// Table 5 rows.
    pub table5: Vec<VariationRow>,
    /// Table 6 rows.
    pub table6: Vec<BestConfigRow>,
    /// Figure 7 SHAP path for ResTune's recommendation.
    pub fig7: ShapPath,
}

const KNOBS: [&str; 3] =
    ["innodb_thread_concurrency", "innodb_spin_wait_delay", "innodb_lru_scan_depth"];

/// Runs the entire case study.
pub fn run(ctx: &ExperimentContext, iterations: usize) -> CaseStudyResult {
    let target = WorkloadSpec::twitter();
    let knob_set = KnobSet::case_study();
    let variations = WorkloadSpec::twitter_variations();

    // --- repository: LHS observations on each W1–W5 (and the target, for
    // the original-setting flavor the paper uses) --------------------------
    eprintln!("[case_study] building 3-knob repository over W1–W5 ...");
    let tasks: Vec<(WorkloadSpec, InstanceType)> =
        variations.iter().map(|w| (w.clone(), InstanceType::A)).collect();
    let repo = build_repository_from(
        &ctx.characterizer,
        &tasks,
        &knob_set,
        ResourceKind::Cpu,
        ctx.scale.task_observations(),
        ctx.seed + 400,
    );
    let learners = fit_learners(&repo);
    let target_mf = ctx.characterizer.embed_workload(&target, ctx.seed).probs;

    // --- Table 5 ----------------------------------------------------------
    let sw = static_weights(&learners, &target_mf, ctx.config(0).static_bandwidth);
    // Ranking loss of each learner's posterior mean against fresh target
    // observations.
    let probe_points = restune_core::lhs::latin_hypercube(30, knob_set.dim(), ctx.seed + 9);
    let mut probe_dbms = SimulatedDbms::new(InstanceType::A, target.clone(), ctx.seed + 5);
    let base_config = Configuration::dba_default();
    let mut actual_cpu = Vec::new();
    for p in probe_points.iter_rows() {
        let obs = probe_dbms.evaluate(&knob_set.to_configuration(p, &base_config));
        actual_cpu.push(obs.resources.cpu_pct);
    }
    let total_pairs = (probe_points.rows() * (probe_points.rows() - 1)) as f64;
    let mut table5 = Vec::new();
    for (i, learner) in learners.iter().enumerate() {
        let pred: Vec<f64> = match learner.model.res.predict_batch(&probe_points) {
            Ok(preds) => preds.iter().map(|q| q.mean).collect(),
            Err(_) => vec![0.0; probe_points.rows()],
        };
        let loss = ranking_loss(&pred, &actual_cpu) as f64 / total_pairs;
        let spec = &variations[i];
        table5.push(VariationRow {
            name: learner.workload.clone(),
            rw_ratio: format!("{:.0}:{:.0}", spec.read_parts, spec.write_parts),
            distance: linalg::vector::euclidean_distance(&learner.meta_feature, &target_mf),
            static_weight: sw[i],
            ranking_loss_pct: loss,
        });
    }

    // --- Figures 6(a) and 6(b): tuning curves ------------------------------
    let make_env = |seed: u64| {
        TuningEnvironment::builder()
            .instance(InstanceType::A)
            .workload(target.clone())
            .resource(ResourceKind::Cpu)
            .knob_set(knob_set.clone())
            .seed(seed)
            .build()
    };
    let make_ctx = |seed: u64| MethodContext {
        config: ctx.config(seed),
        repository: Some(&repo),
        prepared_learners: Some(&learners),
        setting: Setting::Original,
        target_meta_feature: target_mf.clone(),
    };

    let mut fig6a = Vec::new();
    let mut default_cpu = 0.0;
    let mut restune_best_config: Option<Configuration> = None;
    let mut table6 = Vec::new();
    let methods = [
        Method::Restune,
        Method::RestuneWithoutML,
        Method::ITuned,
        Method::OtterTuneWithConstraints,
        Method::CdbTuneWithConstraints,
        Method::RestuneWithoutWorkload,
    ];
    let mut restune_weights: Vec<Vec<f64>> = Vec::new();
    for method in methods {
        eprintln!("[case_study] running {} ...", method.name());
        let outcome =
            run_method(method, make_env(ctx.seed + 7), iterations, &make_ctx(ctx.seed + 7));
        default_cpu = outcome.default_obj_value;
        fig6a.push(NamedCurve {
            label: method.name().to_string(),
            values: outcome.best_curve(),
        });
        if method == Method::Restune {
            restune_best_config = Some(outcome.best_config.clone());
            restune_weights = outcome
                .history
                .iter()
                .filter_map(|r| r.weights.clone())
                .collect();
        }
        table6.push(best_config_row(method.name(), &outcome.best_config, &target));
    }
    let fig6b = vec![
        fig6a.iter().find(|c| c.label == "ResTune").unwrap().clone(),
        fig6a.iter().find(|c| c.label == "ResTune-w/o-Workload").unwrap().clone(),
    ];

    // --- Figure 6(c): weight trajectories ----------------------------------
    let mut fig6c = Vec::new();
    if !restune_weights.is_empty() {
        let n_learners = restune_weights[0].len();
        for li in 0..n_learners {
            let label = if li + 1 == n_learners {
                "WT (target)".to_string()
            } else {
                learners[li].workload.clone()
            };
            let values: Vec<f64> = restune_weights
                .iter()
                .map(|w| {
                    let sum: f64 = w.iter().sum();
                    if sum > 0.0 {
                        100.0 * w[li] / sum
                    } else {
                        0.0
                    }
                })
                .collect();
            fig6c.push(NamedCurve { label, values });
        }
    }

    // --- Figures 6(d/e): TPS response surfaces ------------------------------
    let surface = |spec: &WorkloadSpec| -> Vec<Vec<f64>> {
        let dbms = SimulatedDbms::new(InstanceType::A, spec.clone(), 0).with_noise(0.0);
        let levels = 8;
        (0..levels)
            .map(|i| {
                (0..levels)
                    .map(|j| {
                        let config = Configuration::dba_default()
                            .with(
                                "innodb_spin_wait_delay",
                                i as f64 / (levels - 1) as f64 * 64.0,
                            )
                            .with(
                                "innodb_thread_concurrency",
                                1.0 + j as f64 / (levels - 1) as f64 * 127.0,
                            );
                        dbms.evaluate_noiseless(&config).tps
                    })
                    .collect()
            })
            .collect()
    };
    let surface_target = surface(&target);
    let surface_w1 = surface(&variations[0]);

    // --- Table 6: grid-search ground truth ----------------------------------
    eprintln!("[case_study] grid search 8x8x8 ...");
    let grid_dbms = SimulatedDbms::new(InstanceType::A, target.clone(), ctx.seed).with_noise(0.0);
    let grid = grid_search(&grid_dbms, &knob_set, ResourceKind::Cpu, 8);
    table6.insert(0, best_config_row("Grid Search", &grid.best_config, &target));
    table6.insert(0, best_config_row("Default", &Configuration::dba_default(), &target));

    // --- Figure 7: SHAP path ------------------------------------------------
    let shap_dbms = SimulatedDbms::new(InstanceType::A, target.clone(), 0).with_noise(0.0);
    let recommended = restune_best_config.unwrap_or_else(Configuration::dba_default);
    let fig7 = shap_path(
        &shap_dbms,
        &recommended,
        &KNOBS.iter().map(|k| k.to_string()).collect::<Vec<_>>(),
        ctx.seed,
    );

    CaseStudyResult {
        default_cpu,
        fig6a,
        fig6b,
        fig6c,
        surface_target,
        surface_w1,
        table5,
        table6,
        fig7,
    }
}

fn best_config_row(method: &str, config: &Configuration, target: &WorkloadSpec) -> BestConfigRow {
    let dbms = SimulatedDbms::new(InstanceType::A, target.clone(), 0).with_noise(0.0);
    let default_obs = dbms.evaluate_noiseless(&Configuration::dba_default());
    let sla = restune_core::problem::SlaConstraints::from_default_observation(&default_obs);
    let obs = dbms.evaluate_noiseless(config);
    BestConfigRow {
        method: method.to_string(),
        thread_concurrency: config.get("innodb_thread_concurrency"),
        spin_wait_delay: config.get("innodb_spin_wait_delay"),
        lru_scan_depth: config.get("innodb_lru_scan_depth"),
        cpu: obs.resources.cpu_pct,
        feasible: sla.is_feasible(&obs),
    }
}

/// Prints every artifact of the case study.
pub fn render(r: &CaseStudyResult) {
    report::header("Figure 6(a) — case-study tuning curves (default CPU shown first)");
    println!("Default                {:.1}% (flat)", r.default_cpu);
    for c in &r.fig6a {
        report::series(&c.label, &c.values, 12);
    }

    report::header("Figure 6(b) — workload characterization ablation");
    for c in &r.fig6b {
        report::series(&c.label, &c.values, 12);
    }

    report::header("Figure 6(c) — ResTune weight assignment (% of total)");
    for c in &r.fig6c {
        report::series(&c.label, &c.values, 10);
    }

    report::header("Table 5 — workload variations");
    let widths = [8usize, 9, 11, 13, 13];
    report::row(
        &["Name".into(), "R/W".into(), "Distance".into(), "StaticWeight".into(), "RankLoss".into()],
        &widths,
    );
    for row in &r.table5 {
        report::row(
            &[
                row.name.clone(),
                row.rw_ratio.clone(),
                format!("{:.3}", row.distance),
                format!("{:.2}%", row.static_weight * 100.0),
                format!("{:.2}%", row.ranking_loss_pct * 100.0),
            ],
            &widths,
        );
    }

    report::header("Figure 6(d) — WT TPS surface / Figure 6(e) — W1 TPS surface");
    println!("(rows: spin_wait_delay 0..64, cols: thread_concurrency 1..128)");
    for (label, s) in [("WT", &r.surface_target), ("W1", &r.surface_w1)] {
        println!("{label}:");
        for row in s {
            println!(
                "  {}",
                row.iter().map(|v| format!("{:>7.0}", v)).collect::<Vec<_>>().join("")
            );
        }
    }

    report::header("Table 6 — best configurations found");
    let widths = [22usize, 12, 10, 10, 8, 9];
    report::row(
        &[
            "Method".into(),
            "thread_conc".into(),
            "spin_wait".into(),
            "lru_depth".into(),
            "CPU%".into(),
            "feasible".into(),
        ],
        &widths,
    );
    for row in &r.table6 {
        report::row(
            &[
                row.method.clone(),
                format!("{:.0}", row.thread_concurrency),
                format!("{:.0}", row.spin_wait_delay),
                format!("{:.0}", row.lru_scan_depth),
                format!("{:.2}", row.cpu),
                format!("{}", row.feasible),
            ],
            &widths,
        );
    }

    report::header("Figure 7 — SHAP path (contributions default -> recommended)");
    println!(
        "default:     CPU {:.1}%  TPS {:.0}  p99 {:.1} ms",
        r.fig7.default_metrics.0, r.fig7.default_metrics.1, r.fig7.default_metrics.2
    );
    println!(
        "recommended: CPU {:.1}%  TPS {:.0}  p99 {:.1} ms",
        r.fig7.current_metrics.0, r.fig7.current_metrics.1, r.fig7.current_metrics.2
    );
    for a in &r.fig7.attributions {
        println!(
            "  {:<28} {:>7.0} -> {:>6.0}   ΔCPU {:>7.2}pp  ΔTPS {:>9.0}  Δp99 {:>7.2}ms",
            a.knob, a.default_value, a.current_value, a.cpu, a.tps, a.p99_ms
        );
    }
}

minjson::json_struct!(VariationRow { name, rw_ratio, distance, static_weight, ranking_loss_pct });
minjson::json_struct!(BestConfigRow {
    method,
    thread_concurrency,
    spin_wait_delay,
    lru_scan_depth,
    cpu,
    feasible,
});
minjson::json_struct!(NamedCurve { label, values });
minjson::json_struct!(CaseStudyResult {
    default_cpu,
    fig6a,
    fig6b,
    fig6c,
    surface_target,
    surface_w1,
    table5,
    table6,
    fig7,
});
