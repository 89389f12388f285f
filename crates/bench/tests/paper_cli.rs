//! The `paper` bin end to end: usage errors, one artifact's run, and the
//! EXPERIMENTS.md sections `paper md` renders from what it saved.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use restune_bench::paper::ARTIFACTS;

/// An empty results directory for one test.
fn results_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("paper_cli").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn paper(args: &[&str], results: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .env("RESTUNE_RESULTS_DIR", results)
        .output()
        .expect("the paper bin starts")
}

#[test]
fn unknown_artifacts_and_flags_print_the_usage_and_exit_2() {
    let results = results_dir("usage");
    let ids: Vec<&str> = ARTIFACTS.iter().map(|a| a.id).collect();
    for args in [&["nope"][..], &["fig3_efficiency", "--ful"]] {
        let out = paper(args, &results);
        assert_eq!(out.status.code(), Some(2), "paper {args:?}");
        let usage = String::from_utf8_lossy(&out.stderr);
        let listed = usage.lines().find_map(|l| l.strip_prefix("ids: ")).expect("usage lists ids");
        assert_eq!(listed.split(' ').collect::<Vec<_>>(), ids, "paper {args:?}");
    }
    assert!(!results.exists(), "a usage error runs nothing");
}

#[test]
fn one_artifact_fills_its_section_and_every_other_section_is_marked_missing() {
    let results = results_dir("fig1");
    let run = paper(&["fig1_heatmap"], &results);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    assert!(results.join("fig1_heatmap.json").is_file());

    let md = paper(&["md"], &results);
    assert!(md.status.success());
    let md = String::from_utf8(md.stdout).expect("markdown is UTF-8");
    let fig1 =
        md.split("\n## ").find(|s| s.starts_with("Figure 1 ")).expect("Figure 1 has a section");
    assert!(fig1.contains("\n**Measured:** ") && fig1.contains(" of 100 grid cells"), "{fig1}");
    let missing: Vec<&str> = md.lines().filter(|l| l.starts_with("*(missing ")).collect();
    assert_eq!(missing.len(), ARTIFACTS.len() - 1, "{missing:#?}");
    for (line, artifact) in missing.iter().zip(&ARTIFACTS[1..]) {
        assert!(line.ends_with(&format!("run `paper {}`)*", artifact.id)), "{line}");
    }
}
