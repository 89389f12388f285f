//! Projection sweep (*ours*, DESIGN.md §14): full-space vs projected tuning
//! over the 200-knob extended registry, saved as `BENCH_projection.json`.
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
//! In-run checks: same-seed projected runs are bit-identical, each projected
//! arm drives the `space.project` trace counter once per BO iteration at
//! least (the lift seam really ran), and some projected arm with d_low ≤ 16
//! reaches within 5 % of `expert40`'s final TCO in at most half the
//! iterations random search needs (censored = its full budget).

use dbsim::{Configuration, InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};
use restune_core::acquisition::AcquisitionOptimizer;
use restune_core::problem::{ResourceKind, SlaConstraints};
use restune_core::space::{projected_space, Projection};
use restune_core::tuner::{RestuneConfig, TuningEnvironment, TuningSession};
use xrand::rngs::StdRng;
use xrand::{RngExt, SeedableRng};

use super::check;
use crate::gate::{Check, Gate, Rule};
use crate::report::traced;

const SEED: u64 = 42;

/// `space.project` lifts per projected arm.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceProjects {
    /// The 8-dimensional arm's lifts.
    pub proj8: u64,
    /// The 16-dimensional arm's lifts.
    pub proj16: u64,
}

/// One arm's result.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionArm {
    /// `expert40`, `full200`, `proj8`, `proj16` or `random200`.
    pub arm: String,
    /// Knobs the engine applies.
    pub native_dims: usize,
    /// Dimensions the optimizer searches.
    pub search_dims: usize,
    /// Evaluations the arm ran.
    pub iters: usize,
    /// The default configuration's CPU%.
    pub default_cpu_pct: f64,
    /// Best feasible CPU% at the end.
    pub final_cpu_pct: f64,
    /// `final_cpu_pct` relative to expert40's, in percent (> 0 is worse).
    pub vs_expert_pct: f64,
    /// 1-based evaluations until within 5 % of expert40's final CPU%;
    /// `None` when censored at the budget.
    pub iters_to_5pct: Option<usize>,
}

/// The sweep, as `BENCH_projection.json` holds it.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionDoc {
    /// Always `projection_sweep`.
    pub bench: String,
    /// Iterations of each BO arm.
    pub bo_iters: usize,
    /// Iterations of random search.
    pub random_iters: usize,
    /// Expert40's final best feasible CPU%: the 5 % band's reference.
    pub expert_final_cpu_pct: f64,
    /// `space.project` lifts per projected arm.
    pub space_projects: SpaceProjects,
    /// Every arm, in the order above.
    pub arms: Vec<ProjectionArm>,
    /// What `bench_gate` compares.
    pub gate: Gate,
}

minjson::json_struct!(SpaceProjects { proj8, proj16 });
minjson::json_struct!(ProjectionArm {
    arm,
    native_dims,
    search_dims,
    iters,
    default_cpu_pct,
    final_cpu_pct,
    vs_expert_pct,
    iters_to_5pct
});
minjson::json_struct!(ProjectionDoc {
    bench,
    bo_iters,
    random_iters,
    expert_final_cpu_pct,
    space_projects,
    arms,
    gate
});

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

/// An arm's default CPU% and best-so-far curve, one point per evaluation.
struct Curve {
    default_obj: f64,
    best: Vec<f64>,
}

impl Curve {
    fn arm(
        &self,
        name: &str,
        native_dims: usize,
        search_dims: usize,
        expert_final: f64,
    ) -> Result<ProjectionArm, String> {
        let final_obj = *self.best.last().ok_or_else(|| format!("{name} ran no evaluation"))?;
        Ok(ProjectionArm {
            arm: name.to_string(),
            native_dims,
            search_dims,
            iters: self.best.len(),
            default_cpu_pct: self.default_obj,
            final_cpu_pct: final_obj,
            vs_expert_pct: (final_obj - expert_final) / expert_final * 100.0,
            iters_to_5pct: self.best.iter().position(|&b| b <= expert_final * 1.05).map(|i| i + 1),
        })
    }
}

/// One ResTune session, traced; `project` installs a HeSBO pipeline at
/// `d_low`. Returns the curve and the `space.project` lifts it counted.
fn bo_arm(set: KnobSet, project: Option<usize>, iters: usize) -> (Curve, u64) {
    let mut builder = TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .seed(SEED);
    if let Some(d) = project {
        let t = projected_space(&set, Projection::Hesbo, d, SEED, Some(64), Some(0.2));
        builder = builder.knob_set(set).space(t);
    } else {
        builder = builder.knob_set(set);
    }
    let env = builder.build();
    let (outcome, snap) = traced(|| TuningSession::new(env, bo_config(SEED)).run(iters));
    let curve = Curve { default_obj: outcome.default_obj_value, best: outcome.best_curve() };
    (curve, snap.counter("space.project"))
}

/// Uniform random search over the full native space: sample `[0,1]^d`,
/// evaluate, keep the best SLA-feasible objective (default included as the
/// incumbent, mirroring the BO arms' bookkeeping).
fn random_arm(set: &KnobSet, iters: usize) -> Curve {
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
    Curve { default_obj, best: curve }
}

/// Runs every arm, the BO arms for `bo_iters` iterations and random search
/// for twice that, and the in-run checks; `Err` names the first check that
/// failed.
pub fn run(bo_iters: usize) -> Result<ProjectionDoc, String> {
    let random_iters = 2 * bo_iters;
    eprintln!("[projection_sweep] {bo_iters} BO iterations, {random_iters} random ...");
    // Determinism check: two identically seeded projected sessions must
    // agree on every best-curve bit before any comparison below means
    // anything.
    let bits = |c: Curve| c.best.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let (a, _) = bo_arm(KnobSet::extended(), Some(8), 4);
    let (b, _) = bo_arm(KnobSet::extended(), Some(8), 4);
    check(bits(a) == bits(b), || "same-seed projected sessions diverged".to_string())?;

    let (expert, _) = bo_arm(KnobSet::expert(), None, bo_iters);
    let expert_final = *expert.best.last().ok_or("expert40 ran no evaluation")?;
    let (full, _) = bo_arm(KnobSet::extended(), None, bo_iters);
    let (p8, p8_projects) = bo_arm(KnobSet::extended(), Some(8), bo_iters);
    let (p16, p16_projects) = bo_arm(KnobSet::extended(), Some(16), bo_iters);
    let random = random_arm(&KnobSet::extended(), random_iters);

    // The lift seam must have run once per projected evaluation.
    let least = bo_iters as u64;
    check(p8_projects >= least && p16_projects >= least, || {
        format!(
            "space.project counters too low ({p8_projects}, {p16_projects}): lift seam not traced"
        )
    })?;

    let arms = vec![
        expert.arm("expert40", 40, 40, expert_final)?,
        full.arm("full200", 200, 200, expert_final)?,
        p8.arm("proj8", 200, 8, expert_final)?,
        p16.arm("proj16", 200, 16, expert_final)?,
        random.arm("random200", 200, 200, expert_final)?,
    ];

    // Acceptance line: a d_low ≤ 16 projected arm reaches within 5 % of the
    // expert-40 final TCO in ≤ half the iterations random search needs
    // (censored at its full budget when it never gets there).
    let random_needs = arms[4].iters_to_5pct.unwrap_or(random_iters);
    let (name, iters) = arms
        .iter()
        .filter(|a| a.search_dims <= 16 && a.arm.starts_with("proj"))
        .filter_map(|a| a.iters_to_5pct.map(|i| (&a.arm, i)))
        .min_by_key(|&(_, i)| i)
        .ok_or("no projected arm (d_low <= 16) reached within 5% of expert40's final TCO")?;
    check(iters * 2 <= random_needs, || {
        format!("{name} needed {iters} iterations; not <= half of random search's {random_needs}")
    })?;

    Ok(ProjectionDoc {
        bench: "projection_sweep".to_string(),
        bo_iters,
        random_iters,
        expert_final_cpu_pct: expert_final,
        space_projects: SpaceProjects { proj8: p8_projects, proj16: p16_projects },
        arms,
        gate: Gate {
            same: vec!["bo_iters".into(), "random_iters".into()],
            checks: vec![
                Check { path: "arms[arm].final_cpu_pct".into(), rule: Rule::Ceiling { add: 5.0 } },
                Check { path: "arms[arm].iters_to_5pct".into(), rule: Rule::Ceiling { add: 6.0 } },
                Check { path: "space_projects.*".into(), rule: Rule::Equal },
            ],
        },
    })
}
