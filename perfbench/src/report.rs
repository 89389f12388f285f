//! The result of one run: a readable summary, then the result line.

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// A run's result.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Prints the summary and, as the last line, the result as one JSON
    /// object: `correct`, `attempted`, `failed` and `metrics`.
    pub fn print(&self, title: &str) {
        println!("== {title}");
        for m in &self.metrics {
            println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for p in &self.problems {
            println!("problem: {p}");
        }
        println!(
            "steps attempted {}, failed {}: {}",
            self.attempted,
            self.failed,
            if self.correct() {
                "outputs correct"
            } else {
                "OUTPUTS INCORRECT"
            }
        );
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; a non-finite metric is a bug
                // the problems list already names.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Flags non-finite metrics as problems.
    pub fn check_finite(&mut self) {
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.problems
                    .push(format!("metric {} is not finite", m.name));
            }
        }
    }
}
