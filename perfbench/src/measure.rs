//! Sample statistics, output checks and the outcome digest.

use restune_core::tuner::TuningOutcome;

/// Linear-interpolated quantile `q` of `samples` (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = (sorted.len() - 1) as f64 * q;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `part / whole`, or 0 when nothing was measured.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Peak resident memory of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a, the digest primitive of the repository's golden tests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Digest of one outcome over the same canonical text `tests/golden_methods.rs`
/// hashes: every point, observation, incumbent, weight vector, failure and
/// simulated replay clock, plus the best configuration.
pub fn outcome_digest(o: &TuningOutcome) -> u64 {
    let mut text = String::new();
    for r in &o.history {
        text.push_str(&format!(
            "{}|{:?}|{:?}|{:?}|{}|{:?}|{:?}|{:?}|{}|{:?}\n",
            r.iteration,
            r.point,
            r.observation,
            r.objective,
            r.feasible,
            r.best_feasible_objective,
            r.weights,
            r.failure,
            r.retries,
            r.timing.replay_s,
        ));
    }
    text.push_str(&format!(
        "best={:?}@{:?} default={:?} failures={:?} config={:?}",
        o.best_objective,
        o.best_iteration,
        o.default_obj_value,
        o.failures,
        format!("{:?}", o.best_config),
    ));
    fnv1a(text.as_bytes())
}

/// Folds per-outcome digests (in a schedule-independent order) into one.
pub fn fold_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = digests.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a(&bytes)
}

/// Checks one finished session or tenant and returns how many of its
/// `budget` steps count as failed, with a reason per problem found.
///
/// A step fails when its point leaves `[0,1]^dim` or its objective is not
/// finite. Every budgeted step fails when the run stopped short, when the
/// running best rose more often than the `epochs - 1` warm restarts that
/// re-anchor it, or when the incumbent is infeasible or worse than the
/// default.
pub fn check_outcome(
    o: &TuningOutcome,
    budget: usize,
    dim: usize,
    epochs: usize,
    label: &str,
) -> (u64, Vec<String>) {
    let mut problems = Vec::new();
    if o.history.len() != budget {
        problems.push(format!(
            "{label}: ran {} of {budget} steps",
            o.history.len()
        ));
    }
    let rises = o
        .history
        .windows(2)
        .filter(|w| w[1].best_feasible_objective > w[0].best_feasible_objective)
        .count();
    if rises >= epochs.max(1) {
        problems.push(format!(
            "{label}: running best rose {rises} times over {epochs} epochs"
        ));
    }
    if let Some(i) = o
        .best_iteration
        .filter(|i| !o.history.get(*i).is_some_and(|r| r.feasible))
    {
        problems.push(format!(
            "{label}: incumbent at iteration {i} is not SLA-feasible"
        ));
    }
    if o.best_objective
        .is_none_or(|b| b.is_nan() || b > o.default_obj_value)
    {
        problems.push(format!(
            "{label}: best {:?} is worse than the default",
            o.best_objective
        ));
    }
    let bad_steps = o
        .history
        .iter()
        .filter(|r| {
            r.point.len() != dim
                || !r.point.iter().all(|v| (0.0..=1.0).contains(v))
                || !r.objective.is_finite()
        })
        .count();
    let failed = if problems.is_empty() {
        bad_steps
    } else {
        budget
    };
    if bad_steps > 0 {
        problems.push(format!(
            "{label}: {bad_steps} records off the unit cube or non-finite"
        ));
    }
    (failed as u64, problems)
}

/// The §4 convergence iteration, censored at the budget.
pub fn converge_iter(o: &TuningOutcome, budget: usize) -> f64 {
    o.converged_at.map_or(budget, |c| c + 1).min(budget) as f64
}

/// (default − best feasible) / default resource, in percent.
pub fn reduction_pct(o: &TuningOutcome) -> f64 {
    o.improvement() * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn checks_flag_broken_outcomes() {
        use dbsim::KnobSet;
        use restune_core::tuner::{RestuneConfig, TuningEnvironment, TuningSession};
        let env = TuningEnvironment::builder()
            .knob_set(KnobSet::case_study())
            .seed(3)
            .build();
        let config = RestuneConfig {
            seed: 3,
            ..Default::default()
        };
        let ok = TuningSession::new(env, config).run(4);
        assert_eq!(check_outcome(&ok, 4, 3, 1, "ok"), (0, Vec::new()));
        // A session that stopped short fails its whole budget.
        assert_eq!(check_outcome(&ok, 5, 3, 1, "short").0, 5);
        let mut off_cube = ok.clone();
        off_cube.history[1].point[0] = 1.5;
        assert_eq!(check_outcome(&off_cube, 4, 3, 1, "off cube").0, 1);
        // The running best may rise only where a drift restart re-anchors it.
        let mut rising = ok.clone();
        rising.history[3].best_feasible_objective = rising.history[2].best_feasible_objective + 1.0;
        assert_eq!(check_outcome(&rising, 4, 3, 1, "rising").0, 4);
        assert_eq!(check_outcome(&rising, 4, 3, 2, "restarted").0, 0);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }
}
