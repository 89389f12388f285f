//! Rendering and persistence helpers shared by the experiment harnesses.

use std::path::{Path, PathBuf};

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints one aligned table row.
pub fn row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{:>width$}", c, width = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a labelled numeric series, down-sampled to at most `max_points`
/// (the textual stand-in for a figure's curve).
pub fn series(label: &str, values: &[f64], max_points: usize) {
    if values.is_empty() {
        println!("{label:<22} (empty)");
        return;
    }
    let step = (values.len() as f64 / max_points as f64).ceil().max(1.0) as usize;
    let pts: Vec<String> = values
        .iter()
        .enumerate()
        .filter(|(i, _)| i % step == 0 || *i == values.len() - 1)
        .map(|(i, v)| format!("{i}:{v:.1}"))
        .collect();
    println!("{label:<22} {}", pts.join("  "));
}

/// Directory experiment outputs are written to: `$RESTUNE_RESULTS_DIR`, by
/// default `results/` under the working directory.
pub fn results_dir() -> PathBuf {
    PathBuf::from(std::env::var("RESTUNE_RESULTS_DIR").unwrap_or_else(|_| "results".to_string()))
}

/// An experiment result that was not saved.
#[derive(Debug)]
pub struct SaveError {
    /// The file that was not written.
    pub path: PathBuf,
    /// The serializer's or the filesystem's error.
    pub reason: String,
}

impl std::fmt::Display for SaveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot save {}: {}", self.path.display(), self.reason)
    }
}

/// Saves an experiment result as pretty JSON at `<dir>/<id>.json`, creating
/// `dir` if needed. A value that does not serialize (`minjson` refuses
/// non-finite numbers) writes nothing.
pub fn save_json<T: minjson::ToJson>(dir: &Path, id: &str, value: &T) -> Result<(), SaveError> {
    let path = dir.join(format!("{id}.json"));
    let fail = |reason: String| SaveError { path: path.clone(), reason };
    let json = minjson::to_string_pretty(value).map_err(|e| fail(e.to_string()))?;
    std::fs::create_dir_all(dir).map_err(|e| fail(e.to_string()))?;
    std::fs::write(&path, json).map_err(|e| fail(e.to_string()))?;
    println!("[saved {}]", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_handles_empty_and_short_inputs() {
        series("empty", &[], 10);
        series("short", &[1.0, 2.0], 10);
    }

    #[test]
    fn save_json_writes_a_file() {
        let dir = std::env::temp_dir().join(format!("rt_save_json_{}", std::process::id()));
        save_json(&dir, "unit_test", &vec![1, 2, 3]).unwrap();
        let json = std::fs::read_to_string(dir.join("unit_test.json")).unwrap();
        assert_eq!(minjson::from_str::<Vec<u32>>(&json).unwrap(), vec![1, 2, 3]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn save_json_refuses_a_non_finite_value_and_writes_nothing() {
        let dir = std::env::temp_dir().join(format!("rt_save_json_inf_{}", std::process::id()));
        let err = save_json(&dir, "inf", &vec![1.0, f64::INFINITY]).unwrap_err();
        assert_eq!(err.path, dir.join("inf.json"));
        assert!(!err.path.exists());
        let _ = std::fs::remove_dir_all(dir);
    }
}
