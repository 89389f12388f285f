//! Bench-trajectory regression gate (DESIGN.md §15): diffs current
//! `BENCH_*.json` files against committed baselines, so the tracked numbers
//! regress loudly PR-over-PR instead of silently.
//!
//! The gate knows no bench's schema. Each baseline declares its own checks
//! in a top-level `"gate"` block, saved with the file by the `paper` artifact
//! that produces it, and one walker applies them:
//!
//! ```json
//! "gate": {
//!   "same": ["tenants", "iters"],
//!   "checks": [
//!     {"path": "arms[workers].ratio", "rule": "floor", "drop": 0.4},
//!     {"path": "counters.restarts", "rule": "nonzero"},
//!     {"path": "digest", "rule": "equal"}
//!   ]
//! }
//! ```
//!
//! - **`same`** lists top-level fields two runs must share to be compared
//!   (run sizes, budgets). A mismatch is one visible skip for the file.
//! - **Paths** are dot-separated segments: a field (`digest`), a nested
//!   field (`counters.restarts`), every entry of a map (`projects.*`), or
//!   one field of every list entry matched by key fields (`arms[n,m].ratio`
//!   matches current entries with the same `n` and `m`).
//! - **Rules**: `floor` (current ≥ baseline × (1 − `drop`)), `ceiling`
//!   (current ≤ baseline + `add`), `equal`, `nonzero` (baseline > 0 ⇒
//!   current > 0) and `max` (current ≤ `bound`, whatever the baseline).
//! - **Missing values**: a list or map entry missing from the current file
//!   is a visible skip (CI-sized runs carry fewer arms), as is a null
//!   baseline value. A baseline value whose current value is null or absent
//!   is a regression: a censored measurement never passes silently.
//!
//! Producers gate ratios and deterministic facts, not wall clocks, so the
//! verdicts hold across machines. Every check lands in a [`GateReport`] as
//! pass / regression / skip with the numbers inline; `bench_gate` exits
//! nonzero iff any regression.

use std::path::{Path, PathBuf};

use minjson::{Json, ToJson};

/// How a check compares a current value with its baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// current ≥ baseline × (1 − drop).
    Floor {
        /// Allowed fractional drop.
        drop: f64,
    },
    /// current ≤ baseline + add.
    Ceiling {
        /// Allowed absolute rise.
        add: f64,
    },
    /// current == baseline (numbers or strings).
    Equal,
    /// baseline > 0 ⇒ current > 0.
    Nonzero,
    /// current ≤ bound, whatever the baseline.
    Max {
        /// Absolute upper bound.
        bound: f64,
    },
}

/// One declared check: which values it reads and the rule applied to each.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Value path (see the module docs).
    pub path: String,
    /// Comparison rule.
    pub rule: Rule,
}

/// A baseline's `"gate"` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Top-level fields that must be equal for two runs to compare.
    pub same: Vec<String>,
    /// Declared checks, in report order.
    pub checks: Vec<Check>,
}

/// Outcome of one gated value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Within tolerance.
    Pass,
    /// Outside tolerance.
    Regression,
    /// Not comparable (entry missing, incommensurate runs, null baseline);
    /// the reason is in the detail string.
    Skipped,
}

/// One value comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// `{file label}.{value label}`, e.g. `fleet.arms[workers=4].ratio`.
    pub metric: String,
    /// Pass / regression / skip.
    pub outcome: Outcome,
    /// Human-readable numbers behind the verdict.
    pub detail: String,
}

/// Every check from one gate run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateReport {
    /// Checks in evaluation order.
    pub checks: Vec<GateCheck>,
}

impl GateReport {
    fn push(&mut self, metric: impl Into<String>, outcome: Outcome, detail: impl Into<String>) {
        self.checks.push(GateCheck {
            metric: metric.into(),
            outcome,
            detail: detail.into(),
        });
    }

    fn count(&self, outcome: Outcome) -> usize {
        self.checks.iter().filter(|c| c.outcome == outcome).count()
    }

    /// Number of regressions.
    pub fn regressions(&self) -> usize {
        self.count(Outcome::Regression)
    }

    /// True iff no check regressed (skips do not fail the gate).
    pub fn passed(&self) -> bool {
        self.regressions() == 0
    }

    /// Renders one line per check plus a verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            let tag = match c.outcome {
                Outcome::Pass => "ok  ",
                Outcome::Regression => "FAIL",
                Outcome::Skipped => "skip",
            };
            out.push_str(&format!("[{tag}] {:<44} {}\n", c.metric, c.detail));
        }
        out.push_str(&format!(
            "gate: {} passed, {} regressed, {} skipped -> {}\n",
            self.count(Outcome::Pass),
            self.regressions(),
            self.count(Outcome::Skipped),
            if self.passed() { "PASS" } else { "REGRESSION" }
        ));
        out
    }
}

/// Compact number/string rendering for report lines.
fn show(v: &Json) -> String {
    match v {
        Json::Num(x) => {
            let s = format!("{x:.4}");
            s.trim_end_matches('0').trim_end_matches('.').to_string()
        }
        Json::Str(s) => s.clone(),
        other => other.render().unwrap_or_default(),
    }
}

/// A nudge past a bound: 0.1 % of the magnitude (at least 1e-3), large
/// enough to show in report lines.
fn nudge(x: f64) -> f64 {
    x.abs().max(1.0) * 1e-3
}

impl Rule {
    fn parse(check: &Json) -> Result<Rule, String> {
        let num = |key: &str| {
            check
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("rule needs a numeric `{key}`"))
        };
        match check.get("rule").and_then(Json::as_str) {
            Some("floor") => Ok(Rule::Floor { drop: num("drop")? }),
            Some("ceiling") => Ok(Rule::Ceiling { add: num("add")? }),
            Some("equal") => Ok(Rule::Equal),
            Some("nonzero") => Ok(Rule::Nonzero),
            Some("max") => Ok(Rule::Max { bound: num("bound")? }),
            other => Err(format!("unknown rule {other:?}")),
        }
    }

    /// The rule's members of a check object: its name, then its parameter.
    fn members(&self) -> Vec<(String, Json)> {
        let (name, param) = match *self {
            Rule::Floor { drop } => ("floor", Some(("drop", drop))),
            Rule::Ceiling { add } => ("ceiling", Some(("add", add))),
            Rule::Equal => ("equal", None),
            Rule::Nonzero => ("nonzero", None),
            Rule::Max { bound } => ("max", Some(("bound", bound))),
        };
        let mut members = vec![("rule".to_string(), Json::Str(name.to_string()))];
        members.extend(param.map(|(key, v)| (key.to_string(), Json::Num(v))));
        members
    }

    /// The verdict on a non-null baseline and a non-null current value.
    fn judge(&self, b: &Json, c: &Json) -> (Outcome, String) {
        let verdict = |ok: bool| if ok { Outcome::Pass } else { Outcome::Regression };
        let numbers = format!("baseline {} current {}", show(b), show(c));
        let Some((bv, cv)) = b.as_f64().zip(c.as_f64()) else {
            // Strings (digests) only compare for equality.
            return match self {
                Rule::Equal => (verdict(b == c), numbers),
                _ => (Outcome::Regression, format!("{numbers} (not a number)")),
            };
        };
        let bounded = |ok: bool, name: &str, bound: f64| {
            (verdict(ok), format!("{numbers} ({name} {})", show(&Json::Num(bound))))
        };
        match *self {
            Rule::Floor { drop } => bounded(cv >= bv * (1.0 - drop), "floor", bv * (1.0 - drop)),
            Rule::Ceiling { add } => bounded(cv <= bv + add, "ceiling", bv + add),
            Rule::Max { bound } => bounded(cv <= bound, "max", bound),
            Rule::Equal => (verdict(bv == cv), numbers),
            Rule::Nonzero if bv > 0.0 => (verdict(cv > 0.0), numbers),
            Rule::Nonzero => (Outcome::Skipped, "baseline is zero".to_string()),
        }
    }

    /// A current value just past this rule's bound, or `None` when no value
    /// can fail (a non-positive baseline under `nonzero`).
    fn breach(&self, b: &Json) -> Option<Json> {
        let bv = b.as_f64();
        let past = |bound: f64, up: bool| {
            Some(Json::Num(if up { bound + nudge(bound) } else { bound - nudge(bound) }))
        };
        match *self {
            Rule::Floor { drop } => past(bv? * (1.0 - drop), false),
            Rule::Ceiling { add } => past(bv? + add, true),
            Rule::Max { bound } => past(bound, true),
            Rule::Nonzero => (bv? > 0.0).then_some(Json::Num(0.0)),
            Rule::Equal => match b {
                Json::Str(s) => Some(Json::Str(format!("{s}~"))),
                _ => past(bv?, true),
            },
        }
    }
}

impl Gate {
    /// Reads the `"gate"` block of a baseline document.
    pub fn from_doc(doc: &Json) -> Result<Gate, String> {
        Gate::from_block(doc.get("gate").ok_or("no \"gate\" block")?)
    }

    /// Parses a `"gate"` block, validating every path and rule.
    fn from_block(block: &Json) -> Result<Gate, String> {
        let same = match block.get("same") {
            None => Vec::new(),
            Some(list) => list
                .as_array()
                .ok_or("\"same\" must be a list")?
                .iter()
                .map(|f| f.as_str().map(String::from).ok_or("\"same\" entries must be strings"))
                .collect::<Result<_, _>>()?,
        };
        let checks = block
            .get("checks")
            .and_then(Json::as_array)
            .ok_or("\"checks\" must be a list")?
            .iter()
            .map(|c| {
                let path = c.get("path").and_then(Json::as_str).ok_or("check without a \"path\"")?;
                segments(path).map_err(|e| format!("path `{path}`: {e}"))?;
                let rule = Rule::parse(c).map_err(|e| format!("path `{path}`: {e}"))?;
                Ok(Check { path: path.to_string(), rule })
            })
            .collect::<Result<_, String>>()?;
        Ok(Gate { same, checks })
    }

    /// Replaces the drop of every `floor` check.
    pub fn with_floor_drop(mut self, drop: f64) -> Gate {
        for check in &mut self.checks {
            if let Rule::Floor { .. } = check.rule {
                check.rule = Rule::Floor { drop };
            }
        }
        self
    }

    /// Applies every check to one baseline/current pair.
    pub fn apply(&self, label: &str, baseline: &Json, current: &Json, report: &mut GateReport) {
        let differ: Vec<String> = self
            .same
            .iter()
            .filter(|f| baseline.get(f) != current.get(f))
            .map(|f| {
                let at = |d: &Json| d.get(f).map(show).unwrap_or_else(|| "absent".into());
                format!("{f} {} vs {}", at(baseline), at(current))
            })
            .collect();
        if !differ.is_empty() {
            let detail = format!("incommensurate runs ({})", differ.join(", "));
            report.push(format!("{label}.same"), Outcome::Skipped, detail);
            return;
        }
        for check in &self.checks {
            match sites(&check.path, baseline) {
                Ok(sites) if sites.is_empty() => report.push(
                    format!("{label}.{}", check.path),
                    Outcome::Skipped,
                    "path matches nothing in the baseline",
                ),
                Ok(sites) => {
                    for site in sites {
                        let (outcome, detail) = judge(&check.rule, baseline, current, &site.steps);
                        report.push(format!("{label}.{}", site.label), outcome, detail);
                    }
                }
                Err(e) => report.push(format!("{label}.{}", check.path), Outcome::Regression, e),
            }
        }
    }

    /// Pushes each checked value just past its bound, one value at a time,
    /// and records the verdict on that value. Every line must regress; values
    /// that cannot fail (null baselines) are left out.
    pub fn self_test(&self, label: &str, baseline: &Json, report: &mut GateReport) {
        for check in &self.checks {
            for site in sites(&check.path, baseline).unwrap_or_default() {
                let Found::Value(b) = lookup(baseline, &site.steps) else { continue };
                let Some(breach) = check.rule.breach(b) else { continue };
                let mut current = baseline.clone();
                if let Some(slot) = lookup_mut(&mut current, &site.steps) {
                    *slot = breach;
                }
                let (outcome, detail) = judge(&check.rule, baseline, &current, &site.steps);
                report.push(format!("{label}.{}", site.label), outcome, detail);
            }
        }
    }
}

/// The block as a producer saves it under its document's `"gate"` key.
impl ToJson for Gate {
    fn to_json(&self) -> Json {
        let checks = self.checks.iter().map(|c| {
            let mut members = vec![("path".to_string(), Json::Str(c.path.clone()))];
            members.extend(c.rule.members());
            Json::Obj(members)
        });
        Json::Obj(vec![
            ("same".to_string(), self.same.to_json()),
            ("checks".to_string(), Json::Arr(checks.collect())),
        ])
    }
}

/// Reads a block with the validation of [`Gate::from_doc`].
impl minjson::FromJson for Gate {
    fn from_json(block: &Json) -> Result<Gate, minjson::JsonError> {
        Gate::from_block(block).map_err(minjson::JsonError::new)
    }
}

/// One parsed path segment.
enum Seg {
    Field(String),
    Each,
    Keyed(String, Vec<String>),
}

fn segments(path: &str) -> Result<Vec<Seg>, String> {
    path.split('.')
        .map(|seg| {
            if seg == "*" {
                return Ok(Seg::Each);
            }
            let (name, keys) = match seg.split_once('[') {
                Some((name, rest)) => {
                    let keys = rest.strip_suffix(']').ok_or("unclosed `[`")?;
                    (name, Some(keys.split(',').map(|k| k.trim().to_string()).collect::<Vec<_>>()))
                }
                None => (seg, None),
            };
            let bad = |s: &str| s.is_empty() || s.contains(['[', ']', '*']);
            if bad(name) || keys.iter().flatten().any(|k| bad(k)) {
                return Err(format!("malformed segment `{seg}`"));
            }
            Ok(match keys {
                Some(keys) => Seg::Keyed(name.to_string(), keys),
                None => Seg::Field(name.to_string()),
            })
        })
        .collect()
}

/// One step of a resolved value location, replayable on any document.
#[derive(Clone)]
enum Step {
    /// An object field that must exist.
    Field(String),
    /// A map entry (from `*`); missing in the current run means skip.
    Key(String),
    /// The list entry with these key-field values; missing means skip.
    Item(Vec<(String, Json)>),
}

/// One value a path names in the baseline.
struct Site {
    label: String,
    steps: Vec<Step>,
}

/// Expands a path over the baseline into one site per value.
fn sites(path: &str, baseline: &Json) -> Result<Vec<Site>, String> {
    let mut frontier = vec![(String::new(), Vec::new(), Some(baseline))];
    for seg in segments(path)? {
        let mut next = Vec::new();
        for (label, steps, node) in frontier {
            let join = |part: &str| {
                if label.is_empty() { part.to_string() } else { format!("{label}.{part}") }
            };
            let extend = |more: &[Step]| [steps.clone(), more.to_vec()].concat();
            match &seg {
                Seg::Field(name) => next.push((
                    join(name),
                    extend(&[Step::Field(name.clone())]),
                    node.and_then(|n| n.get(name)),
                )),
                Seg::Each => {
                    if let Some(Json::Obj(fields)) = node {
                        for (key, value) in fields {
                            next.push((join(key), extend(&[Step::Key(key.clone())]), Some(value)));
                        }
                    }
                }
                Seg::Keyed(name, keys) => {
                    let items = node.and_then(|n| n.get(name)).and_then(Json::as_array);
                    for item in items.unwrap_or(&[]) {
                        let key: Vec<(String, Json)> = keys
                            .iter()
                            .map(|k| (k.clone(), item.get(k).cloned().unwrap_or(Json::Null)))
                            .collect();
                        let shown: Vec<String> =
                            key.iter().map(|(k, v)| format!("{k}={}", show(v))).collect();
                        next.push((
                            join(&format!("{name}[{}]", shown.join(","))),
                            extend(&[Step::Field(name.clone()), Step::Item(key)]),
                            Some(item),
                        ));
                    }
                }
            }
        }
        frontier = next;
    }
    Ok(frontier.into_iter().map(|(label, steps, _)| Site { label, steps }).collect())
}

/// Where a site's value stands in one document.
enum Found<'a> {
    Value(&'a Json),
    /// A field on the way is missing.
    Absent,
    /// A list or map entry on the way is missing.
    NoEntry,
}

/// True iff a list entry carries these key-field values.
fn has_key(item: &Json, key: &[(String, Json)]) -> bool {
    key.iter().all(|(k, v)| item.get(k).unwrap_or(&Json::Null) == v)
}

fn step_into<'a>(node: &'a Json, step: &Step) -> Option<&'a Json> {
    match step {
        Step::Field(name) | Step::Key(name) => node.get(name),
        Step::Item(key) => node.as_array()?.iter().find(|item| has_key(item, key)),
    }
}

fn lookup<'a>(doc: &'a Json, steps: &[Step]) -> Found<'a> {
    let mut node = doc;
    for (i, step) in steps.iter().enumerate() {
        match step_into(node, step) {
            Some(next) => node = next,
            None if steps[i..].iter().all(|s| matches!(s, Step::Field(_))) => return Found::Absent,
            None => return Found::NoEntry,
        }
    }
    Found::Value(node)
}

fn lookup_mut<'a>(doc: &'a mut Json, steps: &[Step]) -> Option<&'a mut Json> {
    let mut node = doc;
    for step in steps {
        node = match (node, step) {
            (Json::Obj(fields), Step::Field(name) | Step::Key(name)) => {
                fields.iter_mut().find(|(k, _)| k == name).map(|(_, v)| v)?
            }
            (Json::Arr(items), Step::Item(key)) => items.iter_mut().find(|i| has_key(i, key))?,
            _ => return None,
        };
    }
    Some(node)
}

/// The verdict on one site: a null baseline skips, a missing entry skips, a
/// null or absent current value regresses, anything else goes to the rule.
fn judge(rule: &Rule, baseline: &Json, current: &Json, steps: &[Step]) -> (Outcome, String) {
    let b = match lookup(baseline, steps) {
        Found::Value(b) if *b != Json::Null => b,
        _ => return (Outcome::Skipped, "baseline null".to_string()),
    };
    match lookup(current, steps) {
        Found::NoEntry => (Outcome::Skipped, "entry missing in current run".to_string()),
        Found::Absent => (Outcome::Regression, format!("baseline {} current absent", show(b))),
        Found::Value(Json::Null) => {
            (Outcome::Regression, format!("baseline {} current null", show(b)))
        }
        Found::Value(c) => rule.judge(b, c),
    }
}

/// Reads and parses one JSON file.
pub fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// A baseline file with its declared gate.
struct Baseline {
    label: String,
    name: String,
    doc: Json,
    gate: Gate,
}

/// Every `BENCH_*.json` in `dir`, sorted by name, parsed with its gate
/// block. A baseline without a valid block is an error, so a regenerated
/// baseline cannot drop its checks silently.
fn baselines(dir: &Path, floor_drop: Option<f64>) -> Result<Vec<Baseline>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("no BENCH_*.json baselines in {}", dir.display()));
    }
    names
        .into_iter()
        .map(|name| {
            let path = dir.join(&name);
            let doc = load(&path)?;
            let gate = Gate::from_doc(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
            let gate = match floor_drop {
                Some(drop) => gate.with_floor_drop(drop),
                None => gate,
            };
            let label = name["BENCH_".len()..name.len() - ".json".len()].to_string();
            Ok(Baseline { label, name, doc, gate })
        })
        .collect()
}

/// Gates every baseline in `baseline_dir` against the file of the same name
/// in `current_dir`; a missing current file is a visible skip. `floor_drop`
/// overrides every declared `floor` drop. Errors are unreadable or corrupt
/// files and baselines without a gate block.
pub fn gate_dirs(
    baseline_dir: &Path,
    current_dir: &Path,
    floor_drop: Option<f64>,
) -> Result<GateReport, String> {
    let mut report = GateReport::default();
    for b in baselines(baseline_dir, floor_drop)? {
        let path: PathBuf = current_dir.join(&b.name);
        if !path.exists() {
            report.push(
                format!("{}.file", b.label),
                Outcome::Skipped,
                format!("no current file {}", path.display()),
            );
            continue;
        }
        b.gate.apply(&b.label, &b.doc, &load(&path)?, &mut report);
    }
    Ok(report)
}

/// Runs [`Gate::self_test`] over every baseline in `dir`.
pub fn self_test_dir(dir: &Path, floor_drop: Option<f64>) -> Result<GateReport, String> {
    let mut report = GateReport::default();
    for b in baselines(dir, floor_drop)? {
        b.gate.self_test(&b.label, &b.doc, &mut report);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GP: &str = r#"{
      "bench": "gp_fit", "smoke": false, "cholesky_updates": 100,
      "incremental": [
        {"n": 25, "full_us": 9.3, "incremental_us": 1.4, "speedup": 6.4},
        {"n": 50, "full_us": 37.6, "incremental_us": 3.9, "speedup": 9.7}
      ],
      "sparse": [{"n": 1000, "m": 64, "dense_us": 147508.8, "sparse_us": 2664.0, "speedup": 55.4}],
      "gate": {"checks": [
        {"path": "incremental[n].speedup", "rule": "floor", "drop": 0.4},
        {"path": "sparse[n,m].speedup", "rule": "floor", "drop": 0.4},
        {"path": "cholesky_updates", "rule": "nonzero"}
      ]}
    }"#;
    const FLEET: &str = r#"{
      "bench": "fleet_scaling", "tenants": 128, "iters": 3, "ncpu": 1,
      "arms": [{"workers": 1, "wall_s": 0.1, "tenants_per_s": 1280.0}],
      "determinism_digest": "0xabc",
      "gate": {"same": ["tenants", "iters"], "checks": [
        {"path": "arms[workers].tenants_per_s", "rule": "floor", "drop": 0.5},
        {"path": "determinism_digest", "rule": "equal"}
      ]}
    }"#;
    const PROJECTION: &str = r#"{
      "bench": "projection_sweep", "bo_iters": 24, "random_iters": 48,
      "expert_final_cpu_pct": 26.6,
      "space_projects": {"proj8": 25},
      "arms": [{"arm": "proj8", "native_dims": 200, "search_dims": 8, "iters": 24,
                "default_cpu_pct": 92.6, "final_cpu_pct": 26.4, "vs_expert_pct": -0.8,
                "iters_to_5pct": 3}],
      "gate": {"same": ["bo_iters", "random_iters"], "checks": [
        {"path": "arms[arm].final_cpu_pct", "rule": "ceiling", "add": 5},
        {"path": "arms[arm].iters_to_5pct", "rule": "ceiling", "add": 6},
        {"path": "space_projects.*", "rule": "equal"}
      ]}
    }"#;
    const DRIFT: &str = r#"{
      "bench": "drift_sweep", "total_iters": 34, "drift_at": 10,
      "drift_ramp": 6, "restart_iter": 14, "post_drift_iters": 20,
      "scratch_final_cpu_pct": 16.16,
      "warm_vs_cold": 0.4,
      "determinism_digest": "0x32d32958e071f4f7",
      "drift_counters": {"checks": 13, "detected": 2, "restarts": 1, "epochs_sealed": 1},
      "arms": [
        {"arm": "warm", "restarts": 1, "sealed_tasks": 1, "final_cpu_pct": 15.57, "iters_to_10pct": 4},
        {"arm": "cold", "restarts": 1, "sealed_tasks": 1, "final_cpu_pct": 16.20, "iters_to_10pct": 10},
        {"arm": "oblivious", "restarts": 0, "sealed_tasks": 0, "final_cpu_pct": null, "iters_to_10pct": null},
        {"arm": "scratch", "restarts": 0, "sealed_tasks": 0, "final_cpu_pct": 16.16, "iters_to_10pct": 9}
      ],
      "gate": {"same": ["total_iters", "drift_at"], "checks": [
        {"path": "determinism_digest", "rule": "equal"},
        {"path": "drift_counters.restarts", "rule": "nonzero"},
        {"path": "arms[arm].final_cpu_pct", "rule": "ceiling", "add": 5},
        {"path": "arms[arm].iters_to_10pct", "rule": "ceiling", "add": 6},
        {"path": "warm_vs_cold", "rule": "max", "bound": 0.5}
      ]}
    }"#;

    fn parse(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    /// Gates `current` against `baseline` under the baseline's own block.
    fn gate(baseline: &str, current: &str) -> GateReport {
        let baseline = parse(baseline);
        let mut report = GateReport::default();
        Gate::from_doc(&baseline).unwrap().apply("t", &baseline, &parse(current), &mut report);
        report
    }

    fn tripped(report: &GateReport) -> Vec<&str> {
        report
            .checks
            .iter()
            .filter(|c| c.outcome == Outcome::Regression)
            .map(|c| c.metric.as_str())
            .collect()
    }

    #[test]
    fn self_comparison_passes_everything() {
        for doc in [GP, FLEET, PROJECTION, DRIFT] {
            let report = gate(doc, doc);
            assert!(report.passed(), "self-diff must pass:\n{}", report.render());
            // The only skips are the oblivious arm's null baselines.
            for c in report.checks.iter().filter(|c| c.outcome == Outcome::Skipped) {
                assert!(c.metric.contains("arm=oblivious"), "{}", report.render());
                assert_eq!(c.detail, "baseline null");
            }
        }
        assert_eq!(gate(DRIFT, DRIFT).checks.len(), 11);
    }

    #[test]
    fn drift_regressions_trip_and_incommensurate_runs_skip() {
        // Warm arm slows past the ceiling AND loses its 2x advantage.
        let warm = "\"final_cpu_pct\": 15.57, \"iters_to_10pct\": 4";
        let worse = DRIFT
            .replace(warm, "\"final_cpu_pct\": 15.57, \"iters_to_10pct\": 18")
            .replace("\"warm_vs_cold\": 0.4", "\"warm_vs_cold\": 1.8");
        let report = gate(DRIFT, &worse);
        let tripped = tripped(&report);
        assert!(tripped.contains(&"t.arms[arm=warm].iters_to_10pct"), "{}", report.render());
        assert!(tripped.contains(&"t.warm_vs_cold"), "{}", report.render());
        // A censored warm arm (never within 10%) is a regression, not a skip.
        let censored = DRIFT.replace(warm, "\"final_cpu_pct\": 15.57, \"iters_to_10pct\": null");
        assert!(!gate(DRIFT, &censored).passed());
        // A differently sized run is incommensurate: one visible skip.
        let report = gate(DRIFT, &DRIFT.replace("\"total_iters\": 34", "\"total_iters\": 16"));
        assert!(report.passed());
        assert_eq!(report.checks.len(), 1);
        assert_eq!(report.checks[0].outcome, Outcome::Skipped);
        assert!(report.checks[0].detail.contains("total_iters 34 vs 16"), "{}", report.render());
    }

    #[test]
    fn drift_digest_mismatch_is_a_regression() {
        let report = gate(DRIFT, &DRIFT.replace("0x32d32958e071f4f7", "0xdeadbeefdeadbeef"));
        assert_eq!(tripped(&report), ["t.determinism_digest"]);
    }

    #[test]
    fn two_x_slowdown_fixture_trips_the_gate() {
        // Every optimized path twice as slow halves every speedup.
        let mut slow = GP.to_string();
        for (from, to) in [("6.4}", "3.2}"), ("9.7}", "4.85}"), ("55.4}", "27.7}")] {
            slow = slow.replace(&format!("\"speedup\": {from}"), &format!("\"speedup\": {to}"));
        }
        let report = gate(GP, &slow);
        assert_eq!(
            tripped(&report),
            [
                "t.incremental[n=25].speedup",
                "t.incremental[n=50].speedup",
                "t.sparse[n=1000,m=64].speedup"
            ],
            "{}",
            report.render()
        );
    }

    #[test]
    fn fleet_digest_mismatch_is_a_regression() {
        let report = gate(FLEET, &FLEET.replace("0xabc", "0xdef"));
        assert_eq!(report.regressions(), 1, "{}", report.render());
    }

    #[test]
    fn incommensurate_runs_skip_instead_of_failing() {
        let report = gate(FLEET, &FLEET.replace("\"tenants\": 128", "\"tenants\": 16"));
        assert!(report.passed());
        assert!(report.checks.iter().all(|c| c.outcome == Outcome::Skipped));
        // A CI-sized run with fewer arms compares the arms it shares.
        let report = gate(GP, &GP.replace("{\"n\": 50,", "{\"n\": 51,"));
        assert_eq!(report.regressions(), 0);
        let skipped: Vec<&str> = report
            .checks
            .iter()
            .filter(|c| c.outcome == Outcome::Skipped)
            .map(|c| c.metric.as_str())
            .collect();
        assert_eq!(skipped, ["t.incremental[n=50].speedup"]);
    }

    #[test]
    fn projection_quality_and_counter_regressions_trip() {
        let worse = PROJECTION
            .replace("\"final_cpu_pct\": 26.4", "\"final_cpu_pct\": 40.0")
            .replace("{\"proj8\": 25}", "{\"proj8\": 99}");
        let report = gate(PROJECTION, &worse);
        assert_eq!(
            tripped(&report),
            ["t.arms[arm=proj8].final_cpu_pct", "t.space_projects.proj8"],
            "{}",
            report.render()
        );
    }

    #[test]
    fn censored_current_values_regress() {
        // projection_sweep writes null for a censored convergence count,
        // drift_sweep for an arm that never turned feasible.
        let censored = PROJECTION.replace("\"iters_to_5pct\": 3", "\"iters_to_5pct\": null");
        let report = gate(PROJECTION, &censored);
        assert_eq!(tripped(&report), ["t.arms[arm=proj8].iters_to_5pct"], "{}", report.render());
        let infeasible = DRIFT.replace("\"final_cpu_pct\": 15.57", "\"final_cpu_pct\": null");
        let report = gate(DRIFT, &infeasible);
        assert_eq!(tripped(&report), ["t.arms[arm=warm].final_cpu_pct"], "{}", report.render());
        // An absent field regresses too; only a missing arm skips.
        let report = gate(GP, &GP.replace("\"cholesky_updates\": 100,", ""));
        assert_eq!(tripped(&report), ["t.cholesky_updates"]);
    }

    #[test]
    fn self_test_regresses_every_mutated_check() {
        for doc in [GP, FLEET, PROJECTION, DRIFT] {
            let baseline = parse(doc);
            let mut report = GateReport::default();
            Gate::from_doc(&baseline).unwrap().self_test("t", &baseline, &mut report);
            assert!(!report.checks.is_empty());
            assert_eq!(report.regressions(), report.checks.len(), "{}", report.render());
        }
        // Null baselines cannot be pushed past a bound, so they are left out.
        let drift = parse(DRIFT);
        let mut report = GateReport::default();
        Gate::from_doc(&drift).unwrap().self_test("t", &drift, &mut report);
        assert_eq!(report.checks.len(), 9);
    }

    #[test]
    fn gate_blocks_round_trip_and_reject_malformed_declarations() {
        let gate = Gate {
            same: vec!["tenants".into()],
            checks: [
                ("arms[workers].tenants_per_s", Rule::Floor { drop: 0.5 }),
                ("arms[arm].iters_to_5pct", Rule::Ceiling { add: 6.0 }),
                ("determinism_digest", Rule::Equal),
                ("drift_counters.restarts", Rule::Nonzero),
                ("warm_vs_cold", Rule::Max { bound: 0.5 }),
            ]
            .map(|(path, rule)| Check { path: path.to_string(), rule })
            .to_vec(),
        };
        let doc = Json::Obj(vec![("gate".to_string(), gate.to_json())]);
        assert_eq!(Gate::from_doc(&doc).unwrap(), gate);
        assert_eq!(minjson::from_str::<Gate>(&minjson::to_string(&gate).unwrap()), Ok(gate));
        assert!(Gate::from_doc(&parse(r#"{"bench": "x"}"#)).is_err());
        for bad in [
            r#"{"gate": {"checks": [{"path": "a[n", "rule": "equal"}]}}"#,
            r#"{"gate": {"checks": [{"path": "a..b", "rule": "equal"}]}}"#,
            r#"{"gate": {"checks": [{"path": "a", "rule": "floor"}]}}"#,
            r#"{"gate": {"checks": [{"path": "a", "rule": "within"}]}}"#,
        ] {
            assert!(Gate::from_doc(&parse(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn missing_files_are_visible_skips() {
        let dir = std::env::temp_dir().join(format!("rt_gate_{}", std::process::id()));
        let current = dir.join("current");
        std::fs::create_dir_all(&current).unwrap();
        std::fs::write(dir.join("BENCH_gp.json"), GP).unwrap();
        std::fs::write(dir.join("BENCHMARK.json"), "{}").unwrap();
        let report = gate_dirs(&dir, &current, None).unwrap();
        assert!(report.passed());
        assert_eq!(report.checks.len(), 1);
        assert_eq!(report.checks[0].outcome, Outcome::Skipped);
        // A baseline without a gate block is an error, not a silent pass.
        std::fs::write(dir.join("BENCH_x.json"), r#"{"bench": "x"}"#).unwrap();
        assert!(gate_dirs(&dir, &current, None).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
