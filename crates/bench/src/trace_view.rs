//! Views over a [`trace::TraceSnapshot`]: the flamegraph-style span tree and
//! the Table-3-compatible per-iteration phase breakdown. `trace_report` and
//! the Table 3 experiment both render from these, so the trace is the
//! single timing data source (DESIGN.md §10).

use std::collections::BTreeMap;

use trace::{SpanAgg, TraceSnapshot};

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
    // incremental (DESIGN.md §13), the hyperopt refit schedule behind them,
    // and how many evaluations crossed the space-transform seam (§14).
    let full = snap.counter("gp.fit.full");
    let incremental = snap.counter("gp.fit.incremental");
    let refit = snap.counter("gp.hypers.refit");
    let reuse = snap.counter("gp.hypers.reuse");
    let projects = snap.counter("space.project");
    if full + incremental > 0 {
        out.push_str(&format!(
            "  surrogate fits: {full} full + {incremental} incremental (hyperopt: {refit} refit / {reuse} reuse)\n"
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
            "  drift: {drift_checks} checks, {} detected, {} warm restarts, {} epochs sealed\n",
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

#[cfg(test)]
mod tests {
    use super::*;
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
        snap.counters.insert("drift.checks".to_string(), 13);
        snap.counters.insert("drift.detected".to_string(), 2);
        snap.counters.insert("drift.restarts".to_string(), 1);
        snap.counters.insert("drift.epochs.sealed".to_string(), 1);
        let text = render_breakdown(&snap);
        assert!(text.contains("surrogate fits: 40 full + 4 incremental"));
        assert!(text.contains("hyperopt: 9 refit / 35 reuse"));
        assert!(text.contains("space projections: 45"));
        assert!(text.contains("drift: 13 checks, 2 detected, 1 warm restarts, 1 epochs sealed"));
        // Absent counters keep the lines out entirely.
        let empty = render_breakdown(&TraceSnapshot::default());
        assert!(!empty.contains("surrogate fits"));
        assert!(!empty.contains("space projections"));
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
}
