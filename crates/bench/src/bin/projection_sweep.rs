//! Projection sweep (DESIGN.md §14): full-space vs projected tuning over the
//! 200-knob extended registry.
//!
//! Usage:
//!   projection_sweep [--out BENCH_projection.json]
//!
//! Arms (all ResTune sessions on the same twitter/instance-A environment,
//! identical seeds and budgets unless noted):
//!
//! * `expert40`  — the 40-knob expert-curated set, native space: the
//!   reference a DBA with perfect knob pre-selection would tune.
//! * `full200`   — all 200 knobs, native space: BO pays the full
//!   dimensionality.
//! * `proj8`/`proj16` — all 200 knobs through a seeded HeSBO projection
//!   (quantization at 64 bins, hybrid sentinel bias 0.2): BO searches 8/16
//!   dims, the engine lifts to 200.
//! * `random200` — uniform random search over the 200-knob space, double the
//!   BO budget: the floor any projection must clear.
//!
//! Metrics per arm: final best feasible objective ("TCO", CPU% here) and
//! iterations until the best feasible objective comes within 5 % of
//! `expert40`'s final value (censored at the arm's budget).
//!
//! Gates:
//! * same-seed projected runs are bit-identical, and projected arms drive
//!   the `space.project` trace counter (the lift seam really ran);
//! * some projected arm with d_low ≤ 16 reaches within 5 % of `expert40`'s
//!   final TCO in at most half the iterations random search needs
//!   (censored = its full budget), the acceptance line recorded in
//!   `BENCH_projection.json`.
//!
//! The file's `"gate"` block declares what `bench_gate` compares against
//! the committed baseline: per-arm quality (+5 pp) and convergence (+6
//! iterations) ceilings, and the seed-exact lift counters.

use dbsim::{Configuration, InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};
use restune_bench::gate::{Check, Gate, Rule};
use restune_core::acquisition::AcquisitionOptimizer;
use restune_core::problem::SlaConstraints;
use restune_core::space::{projected_space, Projection};
use restune_core::tuner::{RestuneConfig, TuningEnvironment, TuningSession};
use xrand::rngs::StdRng;
use xrand::{RngExt, SeedableRng};

const SEED: u64 = 42;
const BO_ITERS: usize = 24;
const RANDOM_ITERS: usize = 48;

fn bo_config(seed: u64) -> RestuneConfig {
    RestuneConfig {
        optimizer: AcquisitionOptimizer { n_candidates: 300, n_local: 60, local_sigma: 0.1 },
        gp: gp::GpConfig { restarts: 1, adam_iters: 12, ..Default::default() },
        dynamic_samples: 8,
        init_iters: 5,
        seed,
        ..Default::default()
    }
}

#[derive(Debug)]
struct Arm {
    name: &'static str,
    native_dims: usize,
    search_dims: usize,
    iters: usize,
    default_obj: f64,
    final_obj: f64,
    /// `final_obj` relative to the expert40 final ( >0 means worse).
    vs_expert_pct: f64,
    /// 1-based evaluations until within 5 % of expert40's final objective;
    /// `None` = censored at the budget.
    to_5pct: Option<usize>,
}

fn curve_metrics(
    name: &'static str,
    native_dims: usize,
    search_dims: usize,
    default_obj: f64,
    curve: &[f64],
    expert_final: f64,
) -> Arm {
    let final_obj = *curve.last().expect("non-empty curve");
    let to_5pct = curve.iter().position(|&b| b <= expert_final * 1.05).map(|i| i + 1);
    Arm {
        name,
        native_dims,
        search_dims,
        iters: curve.len(),
        default_obj,
        final_obj,
        vs_expert_pct: (final_obj - expert_final) / expert_final * 100.0,
        to_5pct,
    }
}

/// One ResTune session; `project` installs a HeSBO pipeline at `d_low`.
fn bo_arm(set: KnobSet, project: Option<usize>, iters: usize) -> (f64, Vec<f64>, usize) {
    let mut builder = TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(restune_core::problem::ResourceKind::Cpu)
        .seed(SEED);
    if let Some(d) = project {
        let t = projected_space(&set, Projection::Hesbo, d, SEED, Some(64), Some(0.2));
        builder = builder.knob_set(set).space(t);
    } else {
        builder = builder.knob_set(set);
    }
    let env = builder.build();
    trace::enable();
    let before = trace::snapshot().counter("space.project");
    let mut config = bo_config(SEED);
    config.trace = true;
    let outcome = TuningSession::new(env, config).run(iters);
    let projects = trace::snapshot().counter("space.project") - before;
    (outcome.default_obj_value, outcome.best_curve(), projects as usize)
}

/// Uniform random search over the full native space: sample `[0,1]^d`,
/// evaluate, keep the best SLA-feasible objective (default included as the
/// incumbent, mirroring the BO arms' bookkeeping).
fn random_arm(set: &KnobSet, iters: usize) -> (f64, Vec<f64>) {
    let mut dbms = SimulatedDbms::new(InstanceType::A, WorkloadSpec::twitter(), SEED);
    let default_obs = dbms.evaluate(&Configuration::dba_default());
    let sla = SlaConstraints::from_default_observation(&default_obs);
    let default_obj = default_obs.resources.cpu_pct;
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x52414E44);
    let mut best = default_obj;
    let mut curve = Vec::with_capacity(iters);
    for _ in 0..iters {
        let point: Vec<f64> = (0..set.dim()).map(|_| rng.random()).collect();
        let config = set.to_configuration(&point, &Configuration::dba_default());
        let obs = dbms.evaluate(&config);
        if sla.is_feasible(&obs) && obs.resources.cpu_pct < best {
            best = obs.resources.cpu_pct;
        }
        curve.push(best);
    }
    (default_obj, curve)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_projection.json".to_string());

    // Determinism gate: two identically-seeded projected sessions must agree
    // on every best-curve bit before any comparison below means anything.
    let (_, curve_a, _) = bo_arm(KnobSet::extended(), Some(8), 4);
    let (_, curve_b, _) = bo_arm(KnobSet::extended(), Some(8), 4);
    assert_eq!(
        curve_a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        curve_b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "same-seed projected sessions diverged"
    );

    println!("projection_sweep: {BO_ITERS} BO iters, {RANDOM_ITERS} random iters");

    let (expert_default, expert_curve, _) = bo_arm(KnobSet::expert(), None, BO_ITERS);
    let expert_final = *expert_curve.last().unwrap();

    let (full_default, full_curve, _) = bo_arm(KnobSet::extended(), None, BO_ITERS);
    let (p8_default, p8_curve, p8_projects) = bo_arm(KnobSet::extended(), Some(8), BO_ITERS);
    let (p16_default, p16_curve, p16_projects) = bo_arm(KnobSet::extended(), Some(16), BO_ITERS);
    let (rand_default, rand_curve) = random_arm(&KnobSet::extended(), RANDOM_ITERS);

    // The lift seam must have run once per projected evaluation.
    assert!(
        p8_projects >= BO_ITERS && p16_projects >= BO_ITERS,
        "space.project counters too low ({p8_projects}, {p16_projects}): lift seam not traced"
    );

    let arms = [
        curve_metrics("expert40", 40, 40, expert_default, &expert_curve, expert_final),
        curve_metrics("full200", 200, 200, full_default, &full_curve, expert_final),
        curve_metrics("proj8", 200, 8, p8_default, &p8_curve, expert_final),
        curve_metrics("proj16", 200, 16, p16_default, &p16_curve, expert_final),
        curve_metrics("random200", 200, 200, rand_default, &rand_curve, expert_final),
    ];

    println!(
        "\n{:>10}  {:>6}  {:>6}  {:>8}  {:>9}  {:>10}  {:>8}",
        "arm", "native", "search", "default", "final", "vs expert", "to-5%"
    );
    for a in &arms {
        println!(
            "{:>10}  {:>6}  {:>6}  {:>7.2}%  {:>8.2}%  {:>+9.2}%  {:>8}",
            a.name,
            a.native_dims,
            a.search_dims,
            a.default_obj,
            a.final_obj,
            a.vs_expert_pct,
            a.to_5pct.map(|i| i.to_string()).unwrap_or_else(|| format!(">{}", a.iters)),
        );
    }

    // Acceptance line: a d_low ≤ 16 projected arm reaches within 5 % of the
    // expert-40 final TCO in ≤ half the iterations random search needs
    // (censored at its full budget when it never gets there).
    let random_needs =
        arms.iter().find(|a| a.name == "random200").unwrap().to_5pct.unwrap_or(RANDOM_ITERS);
    let best_projected = arms
        .iter()
        .filter(|a| a.search_dims <= 16 && a.name.starts_with("proj"))
        .filter_map(|a| a.to_5pct.map(|i| (a.name, i)))
        .min_by_key(|&(_, i)| i);
    match best_projected {
        Some((name, iters)) => {
            println!(
                "\ngate: {name} hit 5% of expert40 in {iters} iters; random needed {random_needs}"
            );
            assert!(
                iters * 2 <= random_needs,
                "{name} needed {iters} iterations; not <= half of random search's {random_needs}"
            );
        }
        None => panic!(
            "no projected arm (d_low <= 16) reached within 5% of expert40's final TCO"
        ),
    }

    let gate = Gate {
        same: vec!["bo_iters".into(), "random_iters".into()],
        checks: vec![
            Check { path: "arms[arm].final_cpu_pct".into(), rule: Rule::Ceiling { add: 5.0 } },
            Check { path: "arms[arm].iters_to_5pct".into(), rule: Rule::Ceiling { add: 6.0 } },
            Check { path: "space_projects.*".into(), rule: Rule::Equal },
        ],
    };
    let json = format!(
        "{{\n  \"bench\": \"projection_sweep\",\n  \"bo_iters\": {BO_ITERS},\n  \"random_iters\": {RANDOM_ITERS},\n  \"expert_final_cpu_pct\": {expert_final:.4},\n  \"space_projects\": {{\"proj8\": {p8_projects}, \"proj16\": {p16_projects}}},\n  \"arms\": [\n{}\n  ],\n{}\n}}\n",
        arms.iter()
            .map(|a| format!(
                "    {{\"arm\": \"{}\", \"native_dims\": {}, \"search_dims\": {}, \"iters\": {}, \"default_cpu_pct\": {:.4}, \"final_cpu_pct\": {:.4}, \"vs_expert_pct\": {:.2}, \"iters_to_5pct\": {}}}",
                a.name,
                a.native_dims,
                a.search_dims,
                a.iters,
                a.default_obj,
                a.final_obj,
                a.vs_expert_pct,
                a.to_5pct.map(|i| i.to_string()).unwrap_or_else(|| "null".to_string()),
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        gate.render(),
    );
    std::fs::write(&out_path, json).expect("write bench json");
    println!("\nwrote {out_path}");
}
