//! Human-readable tuning reports: what changed, what it does, and what the
//! SLA audit says — the explanation a DBA reads before applying a
//! recommendation (the textual counterpart of the paper's Figure 7 story).

use crate::engine::{CONVERGENCE_EPSILON, CONVERGENCE_WINDOW};
use crate::problem::ResourceKind;
use crate::tuner::TuningOutcome;
use dbsim::{Configuration, KnobRegistry, KnobSet};
use std::fmt::Write as _;

/// One changed knob with its registry description.
#[derive(Debug, Clone, PartialEq)]
pub struct KnobChange {
    /// Knob name.
    pub knob: String,
    /// Default value.
    pub from: f64,
    /// Recommended value.
    pub to: f64,
    /// Registry description of what the knob does.
    pub description: &'static str,
}

/// Lists the knobs whose recommended values differ from the defaults.
pub fn changed_knobs(config: &Configuration, knob_set: &KnobSet) -> Vec<KnobChange> {
    let default = Configuration::dba_default();
    let registry = KnobRegistry::mysql();
    knob_set
        .names()
        .iter()
        .filter_map(|name| {
            let (from, to) = (default.get(name), config.get(name));
            if (from - to).abs() > 1e-9 {
                Some(KnobChange {
                    knob: name.clone(),
                    from,
                    to,
                    description: registry.get(name).map(|d| d.description).unwrap_or(""),
                })
            } else {
                None
            }
        })
        .collect()
}

/// Renders a full advisory report for a tuning outcome.
pub fn report(outcome: &TuningOutcome, knob_set: &KnobSet, resource: ResourceKind) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Tuning report — {} objective", resource.name());
    let _ = writeln!(
        out,
        "\nSLA: throughput >= {:.0} txn/s, p99 latency <= {:.2} ms (5% tolerance applied)",
        outcome.sla.min_tps, outcome.sla.max_p99_ms
    );
    let _ = writeln!(
        out,
        "Default {}: {:.2} {}",
        resource.name(),
        outcome.default_objective(),
        resource.unit()
    );
    match outcome.best_objective {
        Some(best) if outcome.best_iteration.is_some() => {
            let _ = writeln!(
                out,
                "Recommended {}: {:.2} {} — a {:.1}% reduction, found at iteration {}",
                resource.name(),
                best,
                resource.unit(),
                outcome.improvement() * 100.0,
                outcome.best_iteration.unwrap()
            );
        }
        _ => {
            let _ = writeln!(out, "No configuration beat the default within budget; keeping defaults.");
        }
    }

    let violations = outcome.history.iter().filter(|r| !r.feasible).count();
    let _ = writeln!(
        out,
        "Explored {} configurations; {} violated the SLA and were never adopted.",
        outcome.history.len(),
        violations
    );
    if let Some(at) = outcome.converged_at {
        let _ = writeln!(
            out,
            "Converged (<={}% movement over {} iterations) at iteration {at}.",
            CONVERGENCE_EPSILON * 100.0,
            CONVERGENCE_WINDOW
        );
    }

    let changes = changed_knobs(&outcome.best_config, knob_set);
    if changes.is_empty() {
        let _ = writeln!(out, "\nNo knob changes recommended.");
    } else {
        let _ = writeln!(out, "\n## Recommended knob changes\n");
        for c in &changes {
            let _ = writeln!(out, "- `{}`: {} -> {}", c.knob, c.from, c.to);
            if !c.description.is_empty() {
                let _ = writeln!(out, "    ({})", c.description);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::AcquisitionOptimizer;
    use crate::tuner::{RestuneConfig, TuningEnvironment, TuningSession};
    use dbsim::{InstanceType, WorkloadSpec};

    fn outcome() -> (TuningOutcome, KnobSet) {
        let knob_set = KnobSet::case_study();
        let env = TuningEnvironment::builder()
            .instance(InstanceType::A)
            .workload(WorkloadSpec::twitter())
            .resource(ResourceKind::Cpu)
            .knob_set(knob_set.clone())
            .seed(2)
            .build();
        let config = RestuneConfig {
            optimizer: AcquisitionOptimizer { n_candidates: 250, n_local: 50, local_sigma: 0.1 },
            gp: gp::GpConfig { restarts: 1, adam_iters: 10, ..Default::default() },
            seed: 2,
            ..Default::default()
        };
        (TuningSession::new(env, config).run(12), knob_set)
    }

    #[test]
    fn changed_knobs_only_lists_real_changes() {
        let set = KnobSet::case_study();
        // Unchanged config: nothing to report.
        assert!(changed_knobs(&Configuration::dba_default(), &set).is_empty());
        let tuned = Configuration::dba_default().with("innodb_thread_concurrency", 13.0);
        let changes = changed_knobs(&tuned, &set);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].knob, "innodb_thread_concurrency");
        assert_eq!(changes[0].from, 0.0);
        assert_eq!(changes[0].to, 13.0);
        assert!(!changes[0].description.is_empty());
    }

    #[test]
    fn report_contains_the_essentials() {
        let (o, set) = outcome();
        let text = report(&o, &set, ResourceKind::Cpu);
        assert!(text.contains("Tuning report"));
        assert!(text.contains("SLA: throughput >="));
        assert!(text.contains("Default CPU"));
        assert!(text.contains("Explored 12 configurations"));
        // Twitter's tuning always changes thread concurrency.
        assert!(text.contains("innodb_thread_concurrency"));
    }

    #[test]
    fn report_handles_no_improvement_gracefully() {
        // Zero-iteration outcome: best == default, no iteration.
        let knob_set = KnobSet::case_study();
        let env = TuningEnvironment::builder()
            .instance(InstanceType::B)
            .workload(WorkloadSpec::sales())
            .resource(ResourceKind::Cpu)
            .knob_set(knob_set.clone())
            .seed(3)
            .build();
        let o = TuningSession::new(env, RestuneConfig::default()).run(0);
        let text = report(&o, &knob_set, ResourceKind::Cpu);
        assert!(text.contains("keeping defaults"));
    }
}
