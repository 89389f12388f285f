//! Renderers over a [`trace::TraceSnapshot`] (DESIGN.md §10, §15), one
//! section per view. They read only recorded data, so a live collector
//! snapshot and a JSONL file parsed back render identically; the `report`
//! bin and the Table 3 experiment both render from here, so the trace is the
//! single timing data source.
//!
//! - **Spans**: the flamegraph-style span tree and the Table-3-compatible
//!   per-iteration phase breakdown, counters and histograms.
//! - **Health**: the per-iteration `tuner.health` table of one session and
//!   the fleet digest/straggler report over task-tagged streams.
//!
//! [`render`] stitches together every section a snapshot holds.

use std::collections::BTreeMap;
use std::path::Path;

use restune_core::diag::{Stage, TunerHealth, HEALTH_EVENT};
use restune_core::fleet::health::{Digest, FleetHealth};
use trace::{SpanAgg, TraceSnapshot};

/// Reads and parses a trace JSONL file.
pub fn load(path: &Path) -> Result<TraceSnapshot, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    TraceSnapshot::from_jsonl(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Renders every section the snapshot holds: the span tree and breakdown,
/// the session health table when it carries untagged `tuner.health` events,
/// and fleet digests with stragglers when the events are task-tagged.
pub fn render(snap: &TraceSnapshot) -> String {
    let mut out = String::from("== span tree ==\n");
    out.push_str(&render_span_tree(snap));
    out.push('\n');
    out.push_str(&render_breakdown(snap));
    let records = session_records(snap);
    if !records.is_empty() {
        out.push_str("\n== session health ==\n");
        out.push_str(&render_session(&records));
    }
    if snap.events_named(HEALTH_EVENT).iter().any(|e| e.task.is_some()) {
        out.push_str("\n== fleet health ==\n");
        out.push_str(&render_fleet(&FleetHealth::from_snapshot(snap)));
    }
    out
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Per-iteration phase means derived from a snapshot — the same quantities
/// `IterationTiming` carries, summed across a run and divided by the
/// `loop.iterations` counter. `replay_s` is the mean *simulated* replay
/// clock (`replay.sim_s` histogram), matching `IterationTiming.replay_s`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseMeans {
    /// Iterations observed (`loop.iterations`).
    pub iterations: u64,
    /// Mean meta-data-processing seconds per iteration.
    pub meta_data_processing_s: f64,
    /// Mean model-update seconds per iteration.
    pub model_update_s: f64,
    /// Mean GP-fit seconds (subcomponent of the model update).
    pub gp_fit_s: f64,
    /// Mean weight-update seconds (subcomponent of the model update).
    pub weight_update_s: f64,
    /// Mean recommendation seconds per iteration.
    pub recommendation_s: f64,
    /// Mean simulated replay seconds per iteration.
    pub replay_s: f64,
}

impl PhaseMeans {
    /// Derives the breakdown from a snapshot covering one run.
    pub fn from_snapshot(snap: &TraceSnapshot) -> PhaseMeans {
        let iterations = snap.counter("loop.iterations");
        let n = iterations.max(1) as f64;
        PhaseMeans {
            iterations,
            meta_data_processing_s: snap.total_for("meta_data_processing") / n,
            model_update_s: snap.total_for("model_update") / n,
            gp_fit_s: snap.total_for("gp_fit") / n,
            weight_update_s: snap.total_for("weight_update") / n,
            recommendation_s: snap.total_for("recommendation") / n,
            replay_s: snap.hist("replay.sim_s").map(|h| h.sum).unwrap_or(0.0) / n,
        }
    }

    /// Mean per-iteration total in the Table 3 sense (`gp_fit`/`weights` are
    /// inside the model update; replay is simulated seconds).
    pub fn total_s(&self) -> f64 {
        self.meta_data_processing_s
            + self.model_update_s
            + self.recommendation_s
            + self.replay_s
    }

    /// Share of the iteration spent replaying.
    pub fn replay_share(&self) -> f64 {
        let total = self.total_s();
        if total > 0.0 { self.replay_s / total } else { 0.0 }
    }
}

fn human_s(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

struct Node {
    name: String,
    path: String,
    children: Vec<Node>,
}

fn insert(root: &mut Vec<Node>, segments: &[&str], prefix: &str) {
    let Some((head, rest)) = segments.split_first() else { return };
    let path =
        if prefix.is_empty() { (*head).to_string() } else { format!("{prefix}/{head}") };
    let pos = match root.iter().position(|n| n.name == *head) {
        Some(p) => p,
        None => {
            root.push(Node { name: (*head).to_string(), path: path.clone(), children: Vec::new() });
            root.len() - 1
        }
    };
    insert(&mut root[pos].children, rest, &path);
}

fn print_node(
    node: &Node,
    agg: &BTreeMap<String, SpanAgg>,
    indent: &str,
    last: bool,
    top: bool,
    out: &mut String,
) {
    let connector = if top {
        String::new()
    } else if last {
        format!("{indent}└─ ")
    } else {
        format!("{indent}├─ ")
    };
    let label = format!("{connector}{}", node.name);
    match agg.get(&node.path) {
        Some(a) => {
            out.push_str(&format!(
                "{label:<42} n {:>6}  total {:>9}  mean {:>9}\n",
                a.count,
                human_s(a.total_s),
                human_s(a.total_s / a.count.max(1) as f64),
            ));
        }
        None => out.push_str(&format!("{label}\n")),
    }
    let child_indent = if top {
        indent.to_string()
    } else if last {
        format!("{indent}   ")
    } else {
        format!("{indent}│  ")
    };
    for (i, child) in node.children.iter().enumerate() {
        print_node(child, agg, &child_indent, i + 1 == node.children.len(), false, out);
    }
}

/// Renders the snapshot's spans as an indented flamegraph-style text tree.
/// Siblings appear in first-completion order (program order for the
/// tuner's phase spans); each line shows occurrence count, total, and mean.
pub fn render_span_tree(snap: &TraceSnapshot) -> String {
    let agg = snap.span_agg();
    let mut roots: Vec<Node> = Vec::new();
    // First-occurrence order over full paths keeps phases in program order.
    let mut seen = std::collections::BTreeSet::new();
    for ev in &snap.spans {
        if seen.insert(ev.path.clone()) {
            let segments: Vec<&str> = ev.path.split('/').collect();
            insert(&mut roots, &segments, "");
        }
    }
    let mut out = String::new();
    for root in &roots {
        print_node(root, &agg, "", true, true, &mut out);
    }
    out
}

/// Renders the Table-3-compatible breakdown plus counters and histograms.
pub fn render_breakdown(snap: &TraceSnapshot) -> String {
    let p = PhaseMeans::from_snapshot(snap);
    let mut out = String::new();
    out.push_str("per-iteration phase means (Table 3 layout):\n");
    out.push_str(&format!(
        "  {:<12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>9}\n",
        "MetaData", "Model", "GpFit", "Weights", "Recommend", "Replay(sim)", "Replay%"
    ));
    out.push_str(&format!(
        "  {:<12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8.1}%\n",
        human_s(p.meta_data_processing_s),
        human_s(p.model_update_s),
        human_s(p.gp_fit_s),
        human_s(p.weight_update_s),
        human_s(p.recommendation_s),
        human_s(p.replay_s),
        100.0 * p.replay_share(),
    ));
    out.push_str(&format!("  iterations: {}\n", p.iterations));
    // The surrogate/lift path taken, from the counters the proposer and
    // engine maintain: how many target fits were from-scratch vs. rank-1
    // incremental vs. skipped because nothing read them (DESIGN.md §13),
    // the hyperopt refit schedule behind them, how many bounded candidates
    // the acquisition went on to value (§8), and how many evaluations
    // crossed the space-transform seam (§14).
    let full = snap.counter("gp.fit.full");
    let incremental = snap.counter("gp.fit.incremental");
    let skipped = snap.counter("gp.fit.skipped");
    let refit = snap.counter("gp.hypers.refit");
    let reuse = snap.counter("gp.hypers.reuse");
    let projects = snap.counter("space.project");
    if full + incremental + skipped > 0 {
        out.push_str(&format!(
            "  surrogate fits: {full} full + {incremental} incremental, {skipped} skipped \
             (hyperopt: {refit} refit / {reuse} reuse)\n"
        ));
    }
    let scored = snap.counter("acq.candidates_scored");
    if scored > 0 {
        let valued = snap.counter("acq.candidates_valued");
        out.push_str(&format!(
            "  acquisition: valued {valued} of {scored} candidates ({:.1}%)\n",
            100.0 * valued as f64 / scored as f64
        ));
    }
    if projects > 0 {
        out.push_str(&format!("  space projections: {projects}\n"));
    }
    // Drift detection / warm-restart activity (DESIGN.md §16): absent for
    // static sessions, which never touch the drift counters.
    let drift_checks = snap.counter("drift.checks");
    if drift_checks > 0 {
        out.push_str(&format!(
            "  drift: {drift_checks} checks ({} embeds), {} detected, {} warm restarts, {} epochs \
             sealed\n",
            snap.counter("drift.embeds"),
            snap.counter("drift.detected"),
            snap.counter("drift.restarts"),
            snap.counter("drift.epochs.sealed"),
        ));
    }
    if !snap.counters.is_empty() {
        out.push_str("\ncounters:\n");
        for (name, value) in &snap.counters {
            out.push_str(&format!("  {name:<28} {value}\n"));
        }
    }
    if !snap.hists.is_empty() {
        out.push_str("\nhistograms (count / mean / min / max):\n");
        for (name, h) in &snap.hists {
            out.push_str(&format!(
                "  {name:<28} {} / {} / {} / {}\n",
                h.count,
                human_s(h.mean()),
                human_s(h.min),
                human_s(h.max),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Health
// ---------------------------------------------------------------------------

/// Extracts a solo session's `tuner.health` records in recorded order: the
/// untagged ones (a fleet run tags each with the tenant's task id; those
/// belong to [`render_fleet`]).
pub fn session_records(snap: &TraceSnapshot) -> Vec<TunerHealth> {
    snap.events_named(HEALTH_EVENT)
        .into_iter()
        .filter(|e| e.task.is_none())
        .filter_map(TunerHealth::from_event)
        .collect()
}

fn opt(v: Option<f64>) -> String {
    v.map(|x| format!("{x:>7.3}")).unwrap_or_else(|| format!("{:>7}", "-"))
}

/// Renders a session's health stream as a per-iteration table plus a
/// summary block.
pub fn render_session(records: &[TunerHealth]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>4} {:>10} {:>10} {:>9} {:>5} {:<8} {:<11} {:<6} {:>7} {:>7} {:>7} {:>7}  flags\n",
        "iter",
        "objective",
        "incumbent",
        "regret",
        "stagn",
        "stage",
        "fit",
        "model",
        "cov1s",
        "|z|",
        "loo_nll",
        "w_ent"
    ));
    let mut prev_epoch = 0usize;
    for r in records {
        let mut flags = Vec::new();
        if !r.feasible {
            flags.push("infeasible");
        }
        if r.penalized {
            flags.push("penalized");
        }
        if r.improvement > 0.0 {
            flags.push("improved");
        }
        // A drift-driven warm restart shows up as the epoch counter moving.
        if let Some(d) = &r.drift {
            if d.epoch > prev_epoch {
                flags.push("restarted");
            }
            prev_epoch = d.epoch;
        }
        out.push_str(&format!(
            "{:>4} {:>10.4} {:>10.4} {:>9.4} {:>5} {:<8} {:<11} {:<6} {} {} {} {}  {}\n",
            r.iteration,
            r.objective,
            r.incumbent,
            r.regret,
            r.since_improvement,
            r.stage.as_str(),
            r.fit_path.as_str(),
            r.surrogate(),
            opt(r.calibration.map(|c| c.coverage_1s)),
            opt(r.calibration.map(|c| c.mean_abs_z)),
            opt(r.calibration.map(|c| c.loo_nll)),
            opt(r.weight_entropy),
            flags.join(","),
        ));
    }
    if let Some(last) = records.last() {
        let n = records.len() as f64;
        let mean_regret = records.iter().map(|r| r.regret).sum::<f64>() / n;
        let calibrated: Vec<_> = records.iter().filter_map(|r| r.calibration).collect();
        out.push_str(&format!(
            "\nsummary: {} iterations, final incumbent {:.4}, mean regret {:.4}\n",
            records.len(),
            last.incumbent,
            mean_regret
        ));
        let tally = [Stage::Lhs, Stage::Explore, Stage::Acquire, Stage::Fallback]
            .map(|stage| {
                let n = records.iter().filter(|r| r.stage == stage).count();
                format!("{n} {}", stage.as_str())
            })
            .join(", ");
        out.push_str(&format!("stages: {tally}\n"));
        if !calibrated.is_empty() {
            let m = calibrated.len() as f64;
            out.push_str(&format!(
                "calibration ({} iters): mean 1-sigma coverage {:.3}, mean |z| {:.3}, mean LOO-NLL {:.3}\n",
                calibrated.len(),
                calibrated.iter().map(|c| c.coverage_1s).sum::<f64>() / m,
                calibrated.iter().map(|c| c.mean_abs_z).sum::<f64>() / m,
                calibrated.iter().map(|c| c.loo_nll).sum::<f64>() / m,
            ));
        }
        out.push_str(&format!(
            "failures: {} crashes, {} timeouts, {} partials, {} retries, {} GP fallbacks\n",
            last.failures.crashes,
            last.failures.timeouts,
            last.failures.partials,
            last.failures.retries,
            last.fallbacks
        ));
        if let Some(w) = &last.weights {
            let joined = w.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(" ");
            out.push_str(&format!(
                "final weights: [{joined}] (entropy {})\n",
                last.weight_entropy.map(|h| format!("{h:.3}")).unwrap_or_else(|| "-".into())
            ));
        }
        if let Some(d) = &last.drift {
            out.push_str(&format!(
                "drift: epoch {}, {} warm restarts, {} sealed tasks, last score {:.3}\n",
                d.epoch, d.restarts, d.sealed_tasks, d.last_score
            ));
        }
    }
    out
}

fn digest_row(name: &str, d: &Option<Digest>) -> String {
    match d {
        Some(d) => format!(
            "  {name:<16} n {:>4}  mean {:>9.4}  p50 {:>9.4}  p95 {:>9.4}  p99 {:>9.4}  max {:>9.4}\n",
            d.n, d.mean, d.p50, d.p95, d.p99, d.max
        ),
        None => format!("  {name:<16} (no samples)\n"),
    }
}

/// Renders the fleet aggregate: cross-tenant digests, totals, and the
/// flagged-straggler table.
pub fn render_fleet(fleet: &FleetHealth) -> String {
    let mut out = String::new();
    out.push_str(&format!("fleet health: {} tenants with telemetry\n", fleet.tenants.len()));
    out.push_str("\nper-tenant digests:\n");
    out.push_str(&digest_row("mean regret", &fleet.regret));
    out.push_str(&digest_row("final incumbent", &fleet.final_incumbent));
    out.push_str(&digest_row("1-sigma coverage", &fleet.coverage_1s));
    out.push_str(&digest_row("LOO-NLL", &fleet.loo_nll));
    out.push_str(&digest_row("weight entropy", &fleet.weight_entropy));
    out.push_str(&format!(
        "\ntotals: {} GP fallbacks, {} failed iterations\n",
        fleet.total_fallbacks, fleet.total_failed_iterations
    ));
    if fleet.stragglers.is_empty() {
        out.push_str("stragglers: none\n");
    } else {
        out.push_str(&format!("stragglers: {} flagged\n", fleet.stragglers.len()));
        for s in &fleet.stragglers {
            out.push_str(&format!("  tenant {}: {}\n", s.task, s.reasons.join("; ")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use restune_core::diag::FitPath;
    use restune_core::resilience::FailureCounts;
    use trace::SpanEvent;

    fn ev(path: &str, dur_s: f64) -> SpanEvent {
        SpanEvent { path: path.to_string(), dur_s, fields: Vec::new() }
    }

    #[test]
    fn tree_renders_nested_paths_with_parents_first() {
        let snap = TraceSnapshot {
            spans: vec![
                ev("iteration/meta_data_processing", 0.001),
                ev("iteration/model_update/gp_fit", 0.01),
                ev("iteration/model_update", 0.02),
                ev("iteration", 0.5),
            ],
            ..Default::default()
        };
        let tree = render_span_tree(&snap);
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("iteration "));
        assert!(lines[1].contains("meta_data_processing"));
        assert!(lines[2].contains("model_update"));
        assert!(lines[3].contains("gp_fit"));
    }

    #[test]
    fn breakdown_renders_surrogate_and_projection_counters() {
        let mut snap = TraceSnapshot::default();
        snap.counters.insert("loop.iterations".to_string(), 44);
        snap.counters.insert("gp.fit.full".to_string(), 40);
        snap.counters.insert("gp.fit.incremental".to_string(), 4);
        snap.counters.insert("gp.hypers.refit".to_string(), 9);
        snap.counters.insert("gp.hypers.reuse".to_string(), 35);
        snap.counters.insert("space.project".to_string(), 45);
        snap.counters.insert("acq.candidates_scored".to_string(), 1720);
        snap.counters.insert("acq.candidates_valued".to_string(), 172);
        snap.counters.insert("drift.checks".to_string(), 13);
        snap.counters.insert("drift.embeds".to_string(), 4);
        snap.counters.insert("drift.detected".to_string(), 2);
        snap.counters.insert("drift.restarts".to_string(), 1);
        snap.counters.insert("drift.epochs.sealed".to_string(), 1);
        let text = render_breakdown(&snap);
        assert!(text.contains("surrogate fits: 40 full + 4 incremental, 0 skipped"));
        snap.counters.insert("gp.fit.skipped".to_string(), 10);
        let text = render_breakdown(&snap);
        assert!(text.contains("surrogate fits: 40 full + 4 incremental, 10 skipped"));
        assert!(text.contains("hyperopt: 9 refit / 35 reuse"));
        assert!(text.contains("space projections: 45"));
        assert!(text.contains("acquisition: valued 172 of 1720 candidates (10.0%)"));
        assert!(text
            .contains("drift: 13 checks (4 embeds), 2 detected, 1 warm restarts, 1 epochs sealed"));
        // Absent counters keep the lines out entirely.
        let empty = render_breakdown(&TraceSnapshot::default());
        assert!(!empty.contains("surrogate fits"));
        assert!(!empty.contains("space projections"));
        assert!(!empty.contains("valued"));
        assert!(!empty.contains("drift:"));
    }

    #[test]
    fn phase_means_divide_by_loop_iterations() {
        let mut snap = TraceSnapshot {
            spans: vec![ev("iteration/model_update", 0.4), ev("iteration/model_update", 0.6)],
            ..Default::default()
        };
        snap.counters.insert("loop.iterations".to_string(), 2);
        let mut h = trace::Hist::default();
        snap.hists.insert("replay.sim_s".to_string(), h.clone());
        h = trace::Hist { count: 2, sum: 364.4, min: 182.2, max: 182.2 };
        snap.hists.insert("replay.sim_s".to_string(), h);
        let p = PhaseMeans::from_snapshot(&snap);
        assert_eq!(p.iterations, 2);
        assert!((p.model_update_s - 0.5).abs() < 1e-12);
        assert!((p.replay_s - 182.2).abs() < 1e-12);
        assert!(p.replay_share() > 0.99);
    }

    fn record(iter: usize) -> TunerHealth {
        TunerHealth {
            iteration: iter,
            objective: 30.0 + iter as f64,
            feasible: true,
            penalized: false,
            incumbent: 30.0,
            regret: iter as f64,
            improvement: 0.0,
            since_improvement: iter,
            stage: if iter == 0 { Stage::Lhs } else { Stage::Acquire },
            fit_path: if iter == 0 { FitPath::Skipped } else { FitPath::Full },
            fallbacks: 0,
            failures: FailureCounts::default(),
            weights: Some(vec![0.5, 0.5]),
            weight_entropy: Some(2.0f64.ln()),
            calibration: None,
            drift: None,
        }
    }

    #[test]
    fn session_table_has_one_row_per_record_plus_summary() {
        let records = vec![record(0), record(1), record(2)];
        let text = render_session(&records);
        assert_eq!(text.lines().filter(|l| l.trim_start().starts_with(char::is_numeric)).count(), 3);
        assert!(text.contains("summary: 3 iterations"));
        assert!(text.contains("stages: 1 lhs, 0 explore, 2 acquire, 0 fallback"));
        assert!(text.lines().nth(1).is_some_and(|row| row.contains(" lhs      skipped ")));
        assert!(text.contains("final weights"));
    }

    #[test]
    fn fleet_report_renders_digests_and_stragglers() {
        let fleet =
            FleetHealth::aggregate(vec![(0, vec![record(0)]), (7, vec![record(0), record(5)])]);
        let text = render_fleet(&fleet);
        assert!(text.contains("2 tenants"));
        assert!(text.contains("mean regret"));
    }

    fn health_event(iter: i64, task: Option<u64>) -> trace::Event {
        trace::Event {
            name: HEALTH_EVENT.to_string(),
            task,
            fields: vec![("iter".to_string(), trace::FieldValue::Int(iter))],
        }
    }

    #[test]
    fn render_picks_health_sections_by_task_tagging() {
        let solo = TraceSnapshot {
            spans: vec![ev("iteration", 0.5)],
            events: vec![health_event(0, None), health_event(1, None)],
            ..Default::default()
        };
        let text = render(&solo);
        assert!(text.contains("== span tree =="));
        assert!(text.contains("per-iteration phase means"));
        assert!(text.contains("== session health =="));
        assert!(text.contains("summary: 2 iterations"));
        assert!(!text.contains("== fleet health =="));

        let fleet = TraceSnapshot {
            events: vec![health_event(0, Some(3)), health_event(0, Some(5))],
            ..Default::default()
        };
        let text = render(&fleet);
        assert!(text.contains("== fleet health =="));
        assert!(text.contains("fleet health: 2 tenants"));
        assert!(!text.contains("== session health =="));
        // No health events at all: spans and breakdown only.
        let text = render(&TraceSnapshot::default());
        assert!(!text.contains("health =="));
    }

    #[test]
    fn load_reports_missing_and_corrupt_files() {
        let dir = std::env::temp_dir().join(format!("rt_view_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("missing.trace.jsonl");
        let err = load(&missing).unwrap_err();
        assert!(err.starts_with("cannot read ") && err.contains("missing.trace.jsonl"), "{err}");
        let corrupt = dir.join("corrupt.trace.jsonl");
        std::fs::write(&corrupt, "{\"kind\": \"span\", \"path\": \"iter").unwrap();
        let err = load(&corrupt).unwrap_err();
        assert!(err.starts_with("cannot parse ") && err.contains("corrupt.trace.jsonl"), "{err}");
        let good = dir.join("good.trace.jsonl");
        let snap = TraceSnapshot { spans: vec![ev("iteration", 0.5)], ..Default::default() };
        snap.write_jsonl(&good).unwrap();
        assert_eq!(load(&good).unwrap(), snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
