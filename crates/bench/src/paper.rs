//! The paper-artifact registry behind the `paper` bin: one [`Artifact`] per
//! section of EXPERIMENTS.md, in that file's order.
//!
//! An artifact's run executes its experiment at quick or full scale and
//! saves its JSON under a results directory. Its markdown renders the
//! EXPERIMENTS.md section from that JSON, which [`Runner::run`] prints after
//! the run. [`markdown`] walks the registry: under each heading it prints
//! what the paper reports, then the measured section, or one missing marker
//! naming the file and `paper <id>` when that JSON is absent or unreadable.

use std::cell::OnceCell;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use baselines::method::Setting;
use baselines::Method;
use dbsim::{InstanceType, WorkloadSpec};

use crate::context::{scale_rate_to_instance, ExperimentContext, Scale};
use crate::experiments::{
    ablations, case_study, drift_sweep, efficiency, fault_sweep, fig1, fleet_scaling, gp_fit,
    methods_health, projection_sweep, resources, sensitivity, table3, table4, tco,
};
use crate::report::{save_json, SaveError};

/// `writeln!` into a `String`, which cannot fail.
macro_rules! md {
    ($out:expr, $($arg:tt)*) => {
        let _ = writeln!($out, $($arg)*);
    };
}

/// One generated EXPERIMENTS.md section and the run that feeds it.
pub struct Artifact {
    /// The `paper <id>` argument, and the stem of the JSON file(s) it saves.
    pub id: &'static str,
    /// The section's `## ` heading.
    title: &'static str,
    /// What the paper reports, printed under the heading.
    paper: Option<&'static str>,
    /// Iterations per run (Figure 1: grid levels per axis, fleet scaling:
    /// tenants, GP fit timing: the largest history) at quick and at full
    /// (paper) scale.
    budget: (usize, usize),
    /// Runs the experiment at this budget and saves its JSON under the
    /// directory.
    run: fn(&Runner, usize, &Path) -> Result<(), RunError>,
    /// Appends the section body rendered from the JSON under the directory,
    /// or, writing nothing, returns the path of a file it could not read.
    markdown: fn(&Path, &mut String) -> Result<(), PathBuf>,
}

/// Why an artifact run failed.
#[derive(Debug)]
pub enum RunError {
    /// An in-run check failed; the message says which.
    Check(String),
    /// The result was not saved.
    Save(SaveError),
}

impl From<SaveError> for RunError {
    fn from(e: SaveError) -> Self {
        RunError::Save(e)
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Check(message) => write!(f, "check failed: {message}"),
            RunError::Save(e) => e.fmt(f),
        }
    }
}

/// Runs artifacts at one scale, building the shared 34-task
/// [`ExperimentContext`] on first use, so at most once and only for the
/// artifacts that use it.
pub struct Runner {
    scale: Scale,
    context: OnceCell<ExperimentContext>,
}

impl Runner {
    /// A runner at `scale` that has built nothing yet.
    pub fn new(scale: Scale) -> Self {
        Runner { scale, context: OnceCell::new() }
    }

    /// Runs `artifact`, saving its JSON under `dir`, and prints its
    /// EXPERIMENTS.md section rendered from what it saved.
    pub fn run(&self, artifact: &Artifact, dir: &Path) -> Result<(), RunError> {
        let budget = match self.scale {
            Scale::Quick => artifact.budget.0,
            Scale::Full => artifact.budget.1,
        };
        (artifact.run)(self, budget, dir)?;
        let mut out = String::new();
        section(artifact, dir, &mut out);
        print!("{out}");
        Ok(())
    }

    fn context(&self) -> &ExperimentContext {
        self.context.get_or_init(|| {
            eprintln!("[paper] building shared context (34-task repository) ...");
            ExperimentContext::build(self.scale)
        })
    }
}

/// The methods Figures 4 and 5 compare.
const TRANSFER_METHODS: [Method; 3] =
    [Method::Restune, Method::RestuneWithoutML, Method::OtterTuneWithConstraints];

/// Saves a result as `<dir>/<file>.json`.
fn save<T: minjson::ToJson>(dir: &Path, file: &str, r: &T) -> Result<(), RunError> {
    Ok(save_json(dir, file, r)?)
}

/// Every artifact, in EXPERIMENTS.md order.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact {
        id: "fig1_heatmap",
        title: "Figure 1 — TPS & CPU over 2 knobs",
        paper: Some(
            "a wide range of (sync_spin_loops x table_open_cache) settings shares \
             the same request-rate-bounded throughput while CPU varies from ~15% to ~90%.",
        ),
        budget: (10, 20),
        run: |_, levels, dir| save(dir, "fig1_heatmap", &fig1::run(levels)),
        markdown: fig1_md,
    },
    Artifact {
        id: "table3_breakdown",
        title: "Table 3 — execution-time breakdown per iteration",
        paper: Some(
            "replay dominates every method (92.0–99.7% of each iteration; \
             ResTune's model update 0.3–2.3 s, recommendation ~5 s, replay ~182 s).",
        ),
        budget: (15, 15),
        run: |runner, iterations, dir| {
            save(dir, "table3_breakdown", &table3::run(runner.context(), iterations))
        },
        markdown: table3_md,
    },
    Artifact {
        id: "fig3_efficiency",
        title: "Figure 3 — efficiency comparison (original setting)",
        paper: Some(
            "ResTune reduces default CPU by ~50% on benchmarks / ~71% on the production \
             workloads, reaches ResTune-w/o-ML's best within its first iterations, and \
             beats OtterTune-w-Con (18.6x on SYSBENCH, 7.38x average) and the \
             RL/unconstrained baselines by a wide margin.",
        ),
        budget: (50, 200),
        run: |runner, iterations, dir| {
            let r = efficiency::run(
                runner.context(),
                "Figure 3",
                Setting::Original,
                InstanceType::A,
                &Method::FIGURE3,
                &WorkloadSpec::evaluation_suite(),
                iterations,
            );
            save(dir, "fig3_efficiency", &r)
        },
        markdown: |dir, out| efficiency_md(dir, out, "fig3_efficiency"),
    },
    Artifact {
        id: "fig4_hardware",
        title: "Figure 4 — hardware adaptation (B->A and A->B)",
        paper: Some(
            "With only instance-B history, ResTune still finds feasible configurations \
             faster and better than ResTune-w/o-ML; OtterTune-w-Con's absolute-distance \
             mapping slows it down on several workloads.",
        ),
        budget: (50, 200),
        run: |runner, iterations, dir| {
            let b_to_a = efficiency::run(
                runner.context(),
                "Figure 4 (B to A)",
                Setting::VaryingHardware,
                InstanceType::A,
                &TRANSFER_METHODS,
                &WorkloadSpec::evaluation_suite(),
                iterations,
            );
            save(dir, "fig4_hardware_b_to_a", &b_to_a)?;
            // Table 2's request rates target instance A. Instance B runs them
            // scaled to its cores, as the repository's instance-B tasks do;
            // unscaled, SYSBENCH and TPC-C stay near 100% CPU whatever the
            // knobs.
            let suite_b = WorkloadSpec::evaluation_suite()
                .iter()
                .map(|w| scale_rate_to_instance(w, InstanceType::B))
                .collect::<Vec<_>>();
            let a_to_b = efficiency::run(
                runner.context(),
                "Figure 4 (A to B)",
                Setting::VaryingHardware,
                InstanceType::B,
                &TRANSFER_METHODS,
                &suite_b,
                iterations,
            );
            save(dir, "fig4_hardware_a_to_b", &a_to_b)
        },
        markdown: |dir, out| {
            for (file, caption) in [
                ("fig4_hardware_b_to_a", "B->A: instance-B history, tuning on instance A"),
                ("fig4_hardware_a_to_b", "A->B: instance-A history, tuning on instance B"),
            ] {
                let r: efficiency::EfficiencyResult = load(dir, file)?;
                md!(out, "**{caption}**\n");
                efficiency_table(&r, out);
            }
            md!(
                out,
                "**Note:** on instance B, request rates are scaled to its cores, as for the \
                 repository's instance-B tasks. At the default knobs its 8 cores still \
                 saturate, so the default column reads 100%; Hotel and Sales set no \
                 request rate.\n"
            );
            Ok(())
        },
    },
    Artifact {
        id: "table4_instances",
        title: "Table 4 — adaptation to instances C–F",
        paper: Some(
            "ResTune improves 5–48% over the default and reaches its best 14–88% \
             faster (in iterations) than ResTune-w/o-ML on every instance.",
        ),
        budget: (50, 200),
        run: |runner, iterations, dir| {
            save(dir, "table4_instances", &table4::run(runner.context(), iterations))
        },
        markdown: table4_md,
    },
    Artifact {
        id: "fig5_workload",
        title: "Figure 5 — workload adaptation (varying workloads)",
        paper: Some(
            "Holding out the target workload's history, ResTune still improves \
             ResTune-w/o-ML's speed by 3.6x on average.",
        ),
        budget: (50, 200),
        run: |runner, iterations, dir| {
            let r = efficiency::run(
                runner.context(),
                "Figure 5",
                Setting::VaryingWorkloads,
                InstanceType::A,
                &TRANSFER_METHODS,
                &WorkloadSpec::evaluation_suite(),
                iterations,
            );
            save(dir, "fig5_workload", &r)
        },
        markdown: |dir, out| efficiency_md(dir, out, "fig5_workload"),
    },
    Artifact {
        id: "fig6_case_study",
        title: "§7.3 case study (Figure 6, Table 5, Table 6, Figure 7)",
        paper: Some(
            "default 75% CPU; grid-search ground truth 14.43%; ResTune 11.22% \
             (thread_concurrency 13, spin_wait_delay 0, lru_scan_depth 356), best of all \
             methods; W1 is the closest variation (distance 0.075, static weight 46%, \
             ranking loss 17.9%) and similarity degrades monotonically to W5; SHAP \
             attributes most of the CPU drop to thread_concurrency.",
        ),
        budget: (40, 100),
        run: |runner, iterations, dir| {
            save(dir, "fig6_case_study", &case_study::run(runner.context(), iterations))
        },
        markdown: case_study_md,
    },
    Artifact {
        id: "fig8_request_rate",
        title: "Figure 8 — request-rate sensitivity",
        paper: Some(
            "similar relative improvement at every request rate, and knobs tuned \
             at one rate transfer to the others (the red line).",
        ),
        budget: (30, 100),
        run: |runner, iterations, dir| {
            save(dir, "fig8_request_rate", &sensitivity::run_fig8(runner.context(), iterations))
        },
        markdown: fig8_md,
    },
    Artifact {
        id: "table7_data_size",
        title: "Table 7 — data-size sensitivity",
        paper: Some(
            "hit ratio falls from 0.996 (100 warehouses) to 0.946 (1000); default \
             CPU falls as the workload turns I/O-bound; improvements 35–59%, smaller at the \
             extremes.",
        ),
        budget: (30, 100),
        run: |runner, iterations, dir| {
            save(dir, "table7_data_size", &sensitivity::run_table7(runner.context(), iterations))
        },
        markdown: table7_md,
    },
    Artifact {
        id: "fig9_resources",
        title: "Figure 9 — tuning I/O (BPS, IOPS) and memory",
        paper: Some(
            "ResTune reduces 60–80% of BPS, 84–90% of IOPS, and shrinks memory \
             (SYSBENCH 25.4→12.64 GB, TPC-C 22.5→16.34 GB), outperforming all baselines and \
             converging within ~15 iterations thanks to the SYSBENCH↔TPC-C transfer.",
        ),
        budget: (30, 100),
        run: |runner, iterations, dir| {
            save(dir, "fig9_resources", &resources::run(runner.context(), iterations))
        },
        markdown: fig9_md,
    },
    Artifact {
        id: "table8_tco",
        title: "Tables 8–9 — 1-year TCO reduction",
        paper: Some(
            "freeing cores/GB translates to up to ~$9.9K/year per instance (Table \
             8) and $412–$2144/year for memory on instance E (Table 9), using AWS/Azure/\
             Aliyun calculator prices.",
        ),
        budget: (30, 100),
        run: |runner, iterations, dir| {
            save(dir, "table8_tco_cpu", &tco::run_table8(runner.context(), iterations))?;
            save(dir, "table9_tco_mem", &tco::run_table9(runner.context(), iterations))
        },
        markdown: tco_md,
    },
    Artifact {
        id: "ablations",
        title: "Ablations (ours — beyond the paper)",
        paper: None,
        budget: (40, 120),
        run: |runner, iterations, dir| {
            save(dir, "ablations", &ablations::run(runner.context(), iterations))
        },
        markdown: ablations_md,
    },
    Artifact {
        id: "fault_sweep",
        title: "Fault injection (ours — beyond the paper)",
        paper: None,
        budget: (fault_sweep::ITERS, fault_sweep::ITERS),
        run: |_, _, dir| save(dir, "fault_sweep", &fault_sweep::run()),
        markdown: fault_sweep_md,
    },
    Artifact {
        id: "fleet_scaling",
        title: "Fleet scaling (ours — beyond the paper)",
        paper: None,
        budget: fleet_scaling::TENANTS,
        run: |_, tenants, dir| {
            save(dir, "BENCH_fleet", &fleet_scaling::run(tenants).map_err(RunError::Check)?)
        },
        markdown: fleet_md,
    },
    Artifact {
        id: "gp_fit",
        title: "Surrogate layer: incremental vs. full refits (ours — beyond the paper)",
        paper: None,
        budget: gp_fit::LARGEST,
        run: |_, largest, dir| {
            save(dir, "BENCH_gp", &gp_fit::run(largest).map_err(RunError::Check)?)
        },
        markdown: gp_fit_md,
    },
    Artifact {
        id: "projection_sweep",
        title: "Search-space projection: 200 knobs through HeSBO (ours — beyond the paper)",
        paper: None,
        budget: (24, 24),
        run: |_, iterations, dir| {
            let r = projection_sweep::run(iterations).map_err(RunError::Check)?;
            save(dir, "BENCH_projection", &r)
        },
        markdown: projection_md,
    },
    Artifact {
        id: "methods_health",
        title: "Model-quality health summary — the six methods (ours — beyond the paper)",
        paper: None,
        budget: (12, 12),
        run: |_, iterations, dir| save(dir, "methods_health", &methods_health::run(iterations)),
        markdown: methods_health_md,
    },
    Artifact {
        id: "drift_sweep",
        title: "Dynamic workloads: warm-restart re-tuning under drift (ours — beyond the paper)",
        paper: None,
        budget: (34, 34),
        run: |_, iterations, dir| {
            save(dir, "BENCH_drift", &drift_sweep::run(iterations).map_err(RunError::Check)?)
        },
        markdown: drift_md,
    },
];

/// EXPERIMENTS.md, rendered from the JSON under `dir`.
pub fn markdown(dir: &Path) -> String {
    let mut out = String::new();
    md!(out, "# EXPERIMENTS — paper vs. measured\n");
    md!(
        out,
        "Generated by `cargo run -p restune-bench --bin paper -- md` from the JSON \
         artifacts under `results/` (produced by `paper all`, reduced budget unless \
         `--full` was passed). The substrate is an analytic simulator, so absolute \
         numbers are not expected to match the paper's MySQL-on-Alibaba-cloud testbed; \
         each section states the *shape* the paper reports and what we measure.\n"
    );
    for a in ARTIFACTS {
        section(a, dir, &mut out);
    }
    out
}

/// One artifact's section: its heading, what the paper reports, then the
/// measured section rendered from the JSON under `dir`, or one missing
/// marker when that JSON is absent or unreadable.
fn section(a: &Artifact, dir: &Path, out: &mut String) {
    md!(out, "## {}\n", a.title);
    if let Some(paper) = a.paper {
        md!(out, "**Paper:** {paper}\n");
    }
    if let Err(path) = (a.markdown)(dir, out) {
        md!(out, "*(missing {} — run `paper {}`)*\n", path.display(), a.id);
    }
}

/// Reads `<dir>/<file>.json`, or returns its path when it is absent or does
/// not parse as `T`.
fn load<T: minjson::FromJson>(dir: &Path, file: &str) -> Result<T, PathBuf> {
    let path = dir.join(format!("{file}.json"));
    std::fs::read_to_string(&path).ok().and_then(|json| minjson::from_str(&json).ok()).ok_or(path)
}

/// The smallest value, `+∞` for none: the low end of a stated range.
fn min(values: &[f64]) -> f64 {
    values.iter().cloned().fold(f64::INFINITY, f64::min)
}

/// The largest value, `-∞` for none: the high end of a stated range.
fn max(values: &[f64]) -> f64 {
    values.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
}

fn fig1_md(dir: &Path, out: &mut String) -> Result<(), PathBuf> {
    let r: fig1::Fig1Result = load(dir, "fig1_heatmap")?;
    let max_tps = r.tps.iter().flatten().cloned().fold(0.0, f64::max);
    let mut plateau: Vec<f64> = Vec::new();
    for i in 0..r.levels {
        for j in 0..r.levels {
            if r.tps[i][j] >= 0.98 * max_tps {
                plateau.push(r.cpu[i][j]);
            }
        }
    }
    let (lo, hi) = (min(&plateau), max(&plateau));
    md!(
        out,
        "**Measured:** {} of {} grid cells sit on the max-throughput plateau (±2%), with \
         CPU spanning {:.1}%–{:.1}% across that plateau — the same headroom structure.\n",
        plateau.len(),
        r.levels * r.levels,
        lo,
        hi
    );
    Ok(())
}

fn table3_md(dir: &Path, out: &mut String) -> Result<(), PathBuf> {
    let r: table3::Table3Result = load(dir, "table3_breakdown")?;
    md!(
        out,
        "| Method | MetaData (s) | Model (s) | GpFit (s) | Weights (s) | Recommend (s) \
         | Replay (s) | Replay share |"
    );
    md!(out, "|---|---|---|---|---|---|---|---|");
    for row in &r.rows {
        md!(
            out,
            "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.1} | {:.1}% |",
            row.method,
            row.meta_data_processing_s,
            row.model_update_s,
            row.gp_fit_s,
            row.weight_update_s,
            row.recommendation_s,
            row.replay_s,
            row.replay_share * 100.0
        );
    }
    md!(
        out,
        "\n**Measured shape:** replay dominates everywhere (algorithm phases are real \
         wall-clock on this machine at the reduced GP budget; replay is the simulated \
         182 s benchmark window).\n"
    );
    Ok(())
}

/// The section of one efficiency figure (Figures 3 and 5; Figure 4 has
/// one table per transfer direction).
fn efficiency_md(dir: &Path, out: &mut String, file: &str) -> Result<(), PathBuf> {
    efficiency_table(&load(dir, file)?, out);
    Ok(())
}

/// An efficiency figure's table: each workload's default CPU, then each
/// method's best feasible CPU and the iteration it was reached at.
fn efficiency_table(r: &efficiency::EfficiencyResult, out: &mut String) {
    md!(
        out,
        "| Workload | Default CPU | {} |",
        r.panels
            .first()
            .map(|p| p.curves.iter().map(|c| c.method.clone()).collect::<Vec<_>>().join(" | "))
            .unwrap_or_default()
    );
    let ncols = r.panels.first().map(|p| p.curves.len()).unwrap_or(0);
    md!(out, "|---|---|{}", "---|".repeat(ncols));
    for p in &r.panels {
        let cells: Vec<String> = p
            .curves
            .iter()
            .map(|c| format!("{:.1}% @ iter {:.0}", c.final_best, c.iterations_to_best))
            .collect();
        md!(out, "| {} | {:.1}% | {} |", p.workload, p.default_cpu, cells.join(" | "));
    }
    md!(out, "\n(cells: best feasible CPU @ iterations-to-best, averaged over repeats)\n");
}

fn table4_md(dir: &Path, out: &mut String) -> Result<(), PathBuf> {
    let r: table4::Table4Result = load(dir, "table4_instances")?;
    md!(
        out,
        "| Workload | Instance | ResTune impr | w/o-ML impr | RT iters | w/o iters | Speed-up |"
    );
    md!(out, "|---|---|---|---|---|---|---|");
    for c in &r.cells {
        md!(
            out,
            "| {} | {} | {:.1}% | {:.1}% | {:.0} | {:.0} | {:.0}% |",
            c.workload,
            c.instance,
            c.restune_improvement * 100.0,
            c.no_ml_improvement * 100.0,
            c.restune_iterations,
            c.no_ml_iterations,
            c.speed_up * 100.0
        );
    }
    md!(
        out,
        "\n**Note:** request rates are scaled to the instance's cores (Table 2's rates \
         target instance A; unscaled they saturate the small instances, pinning CPU at \
         100% with no tuning headroom).\n"
    );
    Ok(())
}

fn case_study_md(dir: &Path, out: &mut String) -> Result<(), PathBuf> {
    let r: case_study::CaseStudyResult = load(dir, "fig6_case_study")?;
    md!(out, "**Measured (Table 6):**\n");
    md!(out, "| Method | thread_concurrency | spin_wait_delay | lru_scan_depth | CPU |");
    md!(out, "|---|---|---|---|---|");
    for row in &r.table6 {
        md!(
            out,
            "| {} | {:.0} | {:.0} | {:.0} | {:.2}% |",
            row.method,
            row.thread_concurrency,
            row.spin_wait_delay,
            row.lru_scan_depth,
            row.cpu
        );
    }
    md!(out, "\n**Measured (Table 5):**\n");
    md!(out, "| Variation | R/W | Distance | Static weight | Ranking loss |");
    md!(out, "|---|---|---|---|---|");
    for row in &r.table5 {
        md!(
            out,
            "| {} | {} | {:.3} | {:.1}% | {:.1}% |",
            row.name,
            row.rw_ratio,
            row.distance,
            row.static_weight * 100.0,
            row.ranking_loss_pct * 100.0
        );
    }
    let f = &r.fig7;
    md!(
        out,
        "\n**Measured (Figure 7 SHAP):** default CPU {:.1}% → recommended {:.1}%; \
         contributions: {}.\n",
        f.default_metrics.0,
        f.current_metrics.0,
        f.attributions
            .iter()
            .map(|a| format!("{} {:+.1}pp", a.knob, a.cpu))
            .collect::<Vec<_>>()
            .join(", ")
    );
    md!(
        out,
        "**Deviations:** our simulator's CPU surface is flat across \
         `innodb_spin_wait_delay` once concurrency is throttled (the spin term is \
         gated by lock contention), so recommended spin values vary run to run while \
         CPU stays near the grid optimum. Ranking losses are closer together than the \
         paper's Table 5 because the variations' surfaces differ less in the \
         simulator. Our embedding distances are also not perfectly monotone in the \
         insert ratio (W1 < W5 holds; middle variations can swap).\n"
    );
    Ok(())
}

fn fig8_md(dir: &Path, out: &mut String) -> Result<(), PathBuf> {
    let r: sensitivity::Fig8Result = load(dir, "fig8_request_rate")?;
    for panel in [&r.tpcc, &r.sysbench] {
        md!(
            out,
            "**{} (knobs transferred from {:.0} txn/s):**\n",
            panel.workload,
            panel.reference_rate
        );
        md!(out, "| rate | default CPU | tuned CPU | transferred CPU | transferred SLA ok |");
        md!(out, "|---|---|---|---|---|");
        for p in &panel.points {
            md!(
                out,
                "| {:.0} | {:.1}% | {:.1}% | {:.1}% | {} |",
                p.rate,
                p.default_cpu,
                p.tuned_cpu,
                p.transferred_cpu,
                p.transferred_feasible
            );
        }
        out.push('\n');
    }
    Ok(())
}

fn table7_md(dir: &Path, out: &mut String) -> Result<(), PathBuf> {
    let r: sensitivity::Table7Result = load(dir, "table7_data_size")?;
    md!(out, "| Warehouses | Size (GB) | Hit ratio | Default CPU | Best CPU | Improvement |");
    md!(out, "|---|---|---|---|---|---|");
    let mut improvements = Vec::new();
    for row in &r.rows {
        improvements.push(row.improvement * 100.0);
        md!(
            out,
            "| {} | {:.2} | {:.3} | {:.1}% | {:.1}% | {:.1}% |",
            row.warehouses,
            row.size_gb,
            row.hit_ratio,
            row.default_cpu,
            row.best_cpu,
            row.improvement * 100.0
        );
    }
    md!(
        out,
        "\n(on instance {} — its 16 GB buffer pool reproduces the paper's hit-ratio \
         range; rate lowered to its capacity)\n",
        r.instance
    );
    md!(
        out,
        "**Deviation:** in our simulator TPC-C's default configuration saturates \
         instance D at every data size (contention pins CPU near 100%), so the \
         paper's falling-default-CPU trend does not appear; the improvement column \
         ({:.1}–{:.1}%, roughly flat) still matches the paper's mid-range.\n",
        min(&improvements),
        max(&improvements)
    );
    Ok(())
}

fn fig9_md(dir: &Path, out: &mut String) -> Result<(), PathBuf> {
    let r: resources::Fig9Result = load(dir, "fig9_resources")?;
    md!(out, "| Resource | Workload | Default | ResTune best | Reduction | Best baseline |");
    md!(out, "|---|---|---|---|---|---|");
    let mut iops_reductions = Vec::new();
    for p in &r.panels {
        let restune =
            p.curves.iter().find(|(l, _)| l == "ResTune").and_then(|(_, c)| c.last()).copied();
        let best_baseline = p
            .curves
            .iter()
            .filter(|(l, _)| l != "ResTune")
            .filter_map(|(l, c)| c.last().map(|v| (l.clone(), *v)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        if let (Some(rt), Some((bl, bv))) = (restune, best_baseline) {
            let reduction = 100.0 * (p.default_value - rt) / p.default_value.max(1e-9);
            if p.resource == "IOPS" {
                iops_reductions.push(reduction);
            }
            md!(
                out,
                "| {} | {} | {:.1} {u} | {:.1} {u} | {:.0}% | {} ({:.1} {u}) |",
                p.resource,
                p.workload,
                p.default_value,
                rt,
                reduction,
                bl,
                bv,
                u = p.unit
            );
        }
    }
    md!(
        out,
        "\n**Deviation:** our IOPS reductions ({:.0}–{:.0}%) are smaller than the paper's \
         84–90% because read misses at the fixed 16 GB buffer pool are irreducible \
         by the 20 I/O knobs in the simulator; write-side amplification (the \
         flush-eagerness/doublewrite/neighbors levers) is reproduced.\n",
        min(&iops_reductions),
        max(&iops_reductions)
    );
    Ok(())
}

fn tco_md(dir: &Path, out: &mut String) -> Result<(), PathBuf> {
    let t8: tco::Table8Result = load(dir, "table8_tco_cpu")?;
    let t9: tco::Table9Result = load(dir, "table9_tco_mem")?;
    md!(out, "| Workload | Instance | Original cores | Optimized cores | Avg TCO saved |");
    md!(out, "|---|---|---|---|---|");
    for c in &t8.cells {
        md!(
            out,
            "| {} | {} | {:.0} | {:.0} | ${:.0} |",
            c.workload,
            c.instance,
            c.original_cores,
            c.optimized_cores,
            c.avg_tco_reduction
        );
    }
    md!(
        out,
        "\n($0 rows are instances the Table 2 request rates saturate: CPU stays \
         pinned near 100% regardless of knobs, so no whole cores are freed — \
         Table 4 scales rates per instance instead.)\n"
    );
    md!(out, "| Workload | Original GB | Optimized GB | AWS | Azure | Aliyun |");
    md!(out, "|---|---|---|---|---|---|");
    for row in &t9.rows {
        md!(
            out,
            "| {} | {:.1} | {:.1} | ${:.0} | ${:.0} | ${:.0} |",
            row.workload,
            row.original_gb,
            row.optimized_gb,
            row.per_provider[0],
            row.per_provider[1],
            row.per_provider[2]
        );
    }
    md!(
        out,
        "\n(static price tables approximating the paper's derived unit prices — see \
         DESIGN.md)\n"
    );
    Ok(())
}

fn ablations_md(dir: &Path, out: &mut String) -> Result<(), PathBuf> {
    let r: ablations::AblationResult = load(dir, "ablations")?;
    md!(
        out,
        "Default CPU {:.1}%. Final best feasible CPU / SLA violations per arm:\n",
        r.default_cpu
    );
    for (name, arms) in [
        ("Acquisition (no meta)", &r.acquisition),
        ("Weight-dilution guard", &r.dilution),
        ("Static-phase constraint sourcing", &r.static_constraints),
    ] {
        md!(out, "**{name}:**\n");
        md!(out, "| Arm | Final CPU | Violations |");
        md!(out, "|---|---|---|");
        for a in arms {
            md!(out, "| {} | {:.1}% | {} |", a.label, a.final_best, a.violations);
        }
        out.push('\n');
    }
    Ok(())
}

fn fault_sweep_md(dir: &Path, out: &mut String) -> Result<(), PathBuf> {
    let r: fault_sweep::FaultSweepResult = load(dir, "fault_sweep")?;
    let seeds: Vec<String> = r.seeds.iter().map(|s| s.to_string()).collect();
    md!(
        out,
        "Generated by `cargo run --release -p restune-bench --bin paper -- fault_sweep`. \
         Six-learner meta-boosted runs on the Twitter/CPU case-study space, {} iterations, \
         averaged over seeds {{{}}}, with the `dbsim` fault model injecting transient \
         replay failures (crash / timeout / partial replay) at the given per-attempt rate. \
         The loop retries transients up to twice with exponential backoff; non-recovered \
         failures become penalized infeasible observations (DESIGN.md §9). Failed attempts \
         and backoff are charged to replay wall-clock, so resilience is paid for in time, \
         never in correctness.\n",
        r.iters,
        seeds.join(", "),
    );
    let baseline = r.rows.first().map(|b| b.improvement).unwrap_or(0.0);
    md!(
        out,
        "| Injected rate | Improvement | vs fault-free | Crashes | Timeouts | Partials | \
         Retries | Replay (min/run) |"
    );
    md!(out, "|---|---|---|---|---|---|---|---|");
    for row in &r.rows {
        let retained = if baseline > 0.0 { 100.0 * row.improvement / baseline } else { 0.0 };
        md!(
            out,
            "| {:.1} | {:.1}% | {:.1}% | {} | {} | {} | {} | {:.1} |",
            row.rate,
            100.0 * row.improvement,
            retained,
            row.crashes,
            row.timeouts,
            row.partials,
            row.retries,
            row.replay_min,
        );
    }
    md!(
        out,
        "\n**Measured shape:** the retry policy absorbs essentially all transients (an \
         iteration is only lost when three consecutive attempts fault, p = rate³), so \
         retained improvement stays at ~100% — far above the ≥80% target — while the cost \
         surfaces where it should: charged replay time grows with the injected rate. \
         Failure counts are deterministic per seed matrix (`tests/fault_injection.rs` pins \
         the schedule bit-for-bit).\n"
    );
    Ok(())
}

fn fleet_md(dir: &Path, out: &mut String) -> Result<(), PathBuf> {
    let r: fleet_scaling::FleetDoc = load(dir, "BENCH_fleet")?;
    md!(
        out,
        "The paper's §4 deployment run in-tree: {} simulated tenants \
         (`WorkloadSpec::fleet_tenant` derives each tenant's workload and seed from its id \
         alone), {} iterations each, tuned concurrently by `core::fleet`'s persistent worker \
         pool and committed to the sharded copy-on-write repository store (DESIGN.md §12). \
         Each arm digests every tenant's repository JSON, and the run fails unless every \
         arm's digest equals the 1-worker arm's: throughput changes with the worker count, \
         output never does.\n",
        r.tenants,
        r.iters
    );
    let size = if r.tenants == fleet_scaling::TENANTS.1 {
        "This is the full fleet (`paper fleet_scaling --full`), the size of the committed \
         `BENCH_fleet.json`."
    } else {
        "This is the quick fleet `paper all` runs; `paper fleet_scaling --full` runs the size \
         of the committed `BENCH_fleet.json`, the only size `bench_gate` compares throughput at."
    };
    md!(
        out,
        "{size} Times are wall-clock on a host with {} CPUs and move from run to run; the \
         digest does not.\n",
        r.ncpu
    );
    md!(out, "| Workers | Wall (s) | Tenants/s |");
    md!(out, "|---|---|---|");
    for a in &r.arms {
        md!(out, "| {} | {:.3} | {:.1} |", a.workers, a.wall_s, a.tenants_per_s);
    }
    md!(
        out,
        "\nPer-tenant output digest at every worker count: `{}`. Workers beyond the host's \
         CPUs measure the pool's scheduling overhead, not parallel speedup. \
         `tests/determinism.rs` pins the same contract against single drivers.\n",
        r.determinism_digest
    );
    Ok(())
}

/// A duration in µs, in µs below a millisecond and in ms above.
fn micros(us: f64) -> String {
    match us {
        us if us < 1e3 => format!("{us:.1} µs"),
        us if us < 1e4 => format!("{:.2} ms", us / 1e3),
        us => format!("{:.1} ms", us / 1e3),
    }
}

fn gp_fit_md(dir: &Path, out: &mut String) -> Result<(), PathBuf> {
    let r: gp_fit::GpDoc = load(dir, "BENCH_gp")?;
    md!(
        out,
        "The cost of absorbing the *n*-th observation into the target surrogate: a full \
         `GaussianProcess::fit` of all *n* points vs. `GaussianProcess::extend`'s rank-1 \
         Cholesky append on the factor already holding *n* − 1 (DESIGN.md §13). Medians over \
         the harness's sampling budget, with fixed hyperparameters in both arms (hyperopt \
         iterations always pay the full fit by design). The run fails unless the two paths \
         agree on a probe prediction, the *n* = {} speedup is at least {}×, and the rank-1 \
         path ran ({} `linalg.cholesky.update`).\n",
        gp_fit::CHECKED_N,
        gp_fit::MIN_SPEEDUP,
        r.cholesky_updates
    );
    let size = if r.smoke {
        "These are the quick sizes `paper all` runs; `paper gp_fit --full` adds the larger \
         histories of the committed `BENCH_gp.json`."
    } else {
        "These are the full sizes (`paper gp_fit --full`), as the committed `BENCH_gp.json` \
         holds them."
    };
    md!(out, "{size}\n");
    md!(out, "| n | Full refit | Incremental extend | Speedup |");
    md!(out, "|---|---|---|---|");
    for a in &r.incremental {
        md!(
            out,
            "| {} | {} | {} | {:.1}× |",
            a.n,
            micros(a.full_us),
            micros(a.incremental_us),
            a.speedup
        );
    }
    md!(
        out,
        "\nAbsolute times follow the host's load, so `bench_gate` reads only the speedups, \
         which grow with *n* because a refit factors in O(n³) and an extension appends in \
         O(n²). The run frees one 16 MiB block before any arm, so glibc's dynamic mmap \
         threshold sits above every factor the timed `extend` grows; otherwise whether a grown \
         factor came from a fresh `mmap` would depend on unrelated earlier allocations. \
         `tests/incremental_refit.rs` pins sessions on the rank-1 path bit for bit.\n"
    );
    Ok(())
}

fn projection_md(dir: &Path, out: &mut String) -> Result<(), PathBuf> {
    let r: projection_sweep::ProjectionDoc = load(dir, "BENCH_projection")?;
    md!(
        out,
        "All arms tune the same twitter/instance-A environment for the CPU objective; BO arms \
         get {} iterations, random search {}. \"To 5 %\" is the first evaluation whose best \
         feasible objective comes within 5 % of the expert-40 arm's final value, {:.2} % (`>` \
         = censored at the budget). The projected arms run the full pipeline: HeSBO \
         projection, quantization and hybrid sentinel bias (DESIGN.md §14); they lifted {} \
         and {} points through `space.project`.\n",
        r.bo_iters,
        r.random_iters,
        r.expert_final_cpu_pct,
        r.space_projects.proj8,
        r.space_projects.proj16
    );
    md!(out, "| Arm | Native dims | Search dims | Final CPU | vs. expert40 | To 5 % |");
    md!(out, "|---|---|---|---|---|---|");
    for a in &r.arms {
        let label = match a.arm.as_str() {
            "expert40" => "expert40 (curated)".to_string(),
            "full200" => "full200 (native BO)".to_string(),
            proj if proj.starts_with("proj") => format!("{proj} (HeSBO)"),
            other => other.to_string(),
        };
        let vs = match a.arm.as_str() {
            "expert40" => "—".to_string(),
            _ => format!("{:+.1} %", a.vs_expert_pct),
        };
        md!(
            out,
            "| {label} | {} | {} | {:.2} % | {vs} | {} |",
            a.native_dims,
            a.search_dims,
            a.final_cpu_pct,
            a.iters_to_5pct.map(|i| i.to_string()).unwrap_or_else(|| format!("> {}", a.iters))
        );
    }
    md!(
        out,
        "\nThe run fails unless some projected arm with d ≤ 16 reaches the expert-40 band in at \
         most half of random search's iterations. The 200-knob arms can beat the curated \
         reference late, because the simulator's feasible region is generous and the \
         extension knobs carry small but nonzero headroom the curated space cannot touch. The \
         projection's advantage is sample efficiency early, which is what iteration-priced \
         tuning pays for. `tests/space_transform.rs` pins a projected session to a golden \
         digest.\n"
    );
    Ok(())
}

fn methods_health_md(dir: &Path, out: &mut String) -> Result<(), PathBuf> {
    let r: methods_health::MethodsHealthResult = load(dir, "methods_health")?;
    md!(
        out,
        "The golden-methods setup: twitter/instance-A at seed {}, {} transient fault rate, a \
         two-task repository, {} iterations. Progress and failure columns come from each \
         method's iteration history through the shared driver; calibration, weight entropy \
         and fallback counts come from `tuner.health` telemetry, which only the ResTune \
         variants emit (their proposer carries the GP whose LOO calibration is measured; the \
         OtterTune and CDBTune baselines show `-`).\n",
        r.seed,
        r.fault_rate,
        r.iters
    );
    let opt = |v: Option<f64>, decimals: usize| {
        v.map(|x| format!("{x:.decimals$}")).unwrap_or_else(|| "-".into())
    };
    md!(
        out,
        "| method | final CPU% | mean regret | failed iters | retries | mean 1σ cov \
         | mean \\|z\\| | final w-entropy | GP fallbacks |"
    );
    md!(out, "|---|---|---|---|---|---|---|---|---|");
    for row in &r.rows {
        md!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            row.method,
            opt(row.final_cpu_pct, 2),
            opt(row.mean_regret, 3),
            row.failed_iters,
            row.retries,
            opt(row.mean_cov_1s, 3),
            opt(row.mean_abs_z, 3),
            opt(row.final_weight_entropy, 3),
            row.fallbacks.map(|f| f.to_string()).unwrap_or_else(|| "-".into())
        );
    }
    md!(
        out,
        "\nCalibration is averaged over the iterations that fit a model. The LHS-bootstrapped \
         variants (w/o-ML, w/o-WC, iTuned) skip the fit on their bootstrap iterations, which \
         read no model (DESIGN.md §13), so their means cover the acquisition iterations alone. \
         A calibrated GP covers 68.3 % of held-out points within 1σ. Mean regret is the mean \
         gap between an iteration's objective and the incumbent: transfer makes the path \
         cheaper, not only the final objective.\n"
    );
    Ok(())
}

fn drift_md(dir: &Path, out: &mut String) -> Result<(), PathBuf> {
    let r: drift_sweep::DriftDoc = load(dir, "BENCH_drift")?;
    md!(
        out,
        "Every arm tunes the same twitter/instance-B environment for {} iterations under a \
         seeded OLTP→OLAP `WorkloadSchedule` (drift at eval {}, {}-eval ramp), so the traffic \
         trajectory is bit-identical across arms. The detector restarts both re-tuning arms at \
         iteration {}, leaving a {}-iteration post-drift window. \"Final\" is the best \
         SLA-feasible CPU% over that window; \"to 10 %\" is the first post-drift iteration \
         within 10 % of the scratch arm's final value (`>` = censored at the window). \
         Determinism digest: `{}` (DESIGN.md §16).\n",
        r.total_iters,
        r.drift_at,
        r.drift_ramp,
        r.restart_iter,
        r.post_drift_iters,
        r.determinism_digest
    );
    md!(out, "| Arm | Detector | Transfer | Restarts | Final CPU | To 10 % |");
    md!(out, "|---|---|---|---|---|---|");
    for a in &r.arms {
        let (label, detector, transfer) = match a.arm.as_str() {
            "warm" => ("warm (full ResTune)", "yes", "sealed epoch + repository"),
            "cold" => ("cold", "yes", "none"),
            "oblivious" => ("oblivious", "no", "—"),
            other => (other, "—", "—"),
        };
        let restarts =
            if a.arm == "scratch" { "—".to_string() } else { a.restarts.to_string() };
        md!(
            out,
            "| {label} | {detector} | {transfer} | {restarts} | {} | {} |",
            a.final_cpu_pct.map(|v| format!("{v:.2} %")).unwrap_or_else(|| "never feasible".into()),
            a.iters_to_10pct
                .map(|i| i.to_string())
                .unwrap_or_else(|| format!("> {}", r.post_drift_iters))
        );
    }
    md!(
        out,
        "\nThe run fails unless warm needs at most half of cold's post-drift iterations; here \
         warm over cold reads {:.2}. The cold arm isolates the transfer: detection and \
         re-anchoring alone recover feasibility, but convergence then pays a from-scratch \
         bootstrap, which the sealed pre-drift epoch and the historical OLAP task let the warm \
         arm skip. The oblivious arm never restarts, so its SLA stays anchored on pre-drift \
         twitter throughput, which the settled OLAP mix need not meet.\n",
        r.warm_vs_cold
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_ids_are_unique() {
        let ids: HashSet<&str> = ARTIFACTS.iter().map(|a| a.id).collect();
        assert_eq!(ids.len(), ARTIFACTS.len());
    }

    #[test]
    fn budgets_never_shrink_at_full_scale_and_keep_the_papers_200_iterations() {
        for a in ARTIFACTS {
            assert!(a.budget.0 <= a.budget.1, "{}: {:?}", a.id, a.budget);
        }
        for id in ["fig3_efficiency", "fig4_hardware", "table4_instances", "fig5_workload"] {
            let a = ARTIFACTS.iter().find(|a| a.id == id).expect("registered");
            assert_eq!(a.budget, (50, 200), "{id}");
        }
    }

    #[test]
    fn markdown_headings_follow_experiments_md_order() {
        let empty =
            std::env::temp_dir().join(format!("restune_paper_empty_{}", std::process::id()));
        let md = markdown(&empty);
        let printed: Vec<&str> = md.lines().filter(|l| l.starts_with("## ")).collect();
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"))
                .expect("EXPERIMENTS.md is committed at the repository root");
        let expected: Vec<&str> = committed.lines().filter(|l| l.starts_with("## ")).collect();
        assert_eq!(printed, expected);
        // A section whose JSON is missing writes nothing but its marker.
        assert_eq!(md.matches("*(missing ").count(), ARTIFACTS.len());
        for line in md.lines().skip(3).filter(|l| !l.is_empty()) {
            assert!(
                ["## ", "**Paper:** ", "*(missing "].iter().any(|p| line.starts_with(p)),
                "{line}"
            );
        }
    }
}
