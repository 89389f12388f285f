//! Persistence and measurement helpers shared by the experiment harnesses.

use std::path::{Path, PathBuf};

use trace::TraceSnapshot;

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

/// Runs `f` on a cleared, enabled trace collector and returns what `f`
/// recorded. The collector is process-global, so it is cleared again
/// afterwards and left enabled only if it was enabled before.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, TraceSnapshot) {
    let was_enabled = trace::enabled();
    trace::enable();
    trace::reset();
    let out = f();
    let snap = trace::snapshot();
    trace::reset();
    if !was_enabled {
        trace::disable();
    }
    (out, snap)
}

/// 64-bit FNV-1a over `symbols`, each XORed in whole: the bytes of a string
/// widened to `u64`, or whole digests when digests are combined.
pub fn fnv1a(symbols: impl IntoIterator<Item = u64>) -> u64 {
    symbols.into_iter().fold(0xcbf29ce484222325, |h, s| (h ^ s).wrapping_mul(0x100000001b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_returns_only_the_closures_records_and_restores_the_prior_state() {
        // Counter names of their own: other tests in this binary may record
        // while the collector is on.
        for was_enabled in [false, true] {
            if was_enabled {
                trace::enable();
            } else {
                trace::disable();
            }
            trace::count("report.traced.before", 1);
            let (out, snap) = traced(|| {
                assert!(trace::enabled());
                trace::count("report.traced.inside", 2);
                7
            });
            assert_eq!(out, 7);
            assert_eq!(trace::enabled(), was_enabled);
            assert_eq!(snap.counter("report.traced.inside"), 2);
            assert_eq!(snap.counter("report.traced.before"), 0);
            assert_eq!(trace::snapshot().counter("report.traced.inside"), 0);
        }
        trace::disable();
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a([]), 0xcbf29ce484222325);
        assert_eq!(fnv1a("a".bytes().map(u64::from)), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a("foobar".bytes().map(u64::from)), 0x85944171f73967e8);
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
