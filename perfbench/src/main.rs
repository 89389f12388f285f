//! The repository benchmark: end-to-end tuning-step and fleet-round metrics
//! on three workloads, and a traced per-layer split of the same work.
//!
//! ```text
//! restune-perfbench --workload <meta_repo|solo_long|fleet_mixed|all>
//!                   [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` sets the workload up several times, then runs units
//! (sessions or fleet rounds, each with its own derived seed) for `--seconds`
//! with the collector off, and reports the end-to-end metrics. `--trace 1`
//! runs unit 0 plain for half of `--seconds`, then the same number of times
//! traced with the timing wrappers installed, and reports the per-layer
//! split. Either way the last line of standard output is the result as one
//! JSON object. `all` runs each workload in a process of its own.
//! `manifest.json` records what each metric measures and the digests pinned
//! for the default seed.

mod layers;
mod measure;
mod report;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use layers::LayerSamples;
use measure::{mean, median, quantile};
use report::{Metric, Report};
use workloads::{
    setup, Inputs, Instrument, Kind, Prepared, Scale, SetupTimes, UnitResult, MIN_UNITS,
};

const MANIFEST: &str = include_str!("../manifest.json");
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn manifest() -> minjson::Json {
    minjson::Json::parse(MANIFEST).expect("manifest.json is valid JSON")
}

fn default_seed() -> u64 {
    manifest()
        .get("default_seed")
        .and_then(|v| v.as_f64())
        .expect("manifest names a default seed") as u64
}

/// The unit-0 digest pinned for `kind`; only the default seed has one.
fn pinned_digest(kind: Kind, seed: u64) -> Option<u64> {
    if seed != default_seed() {
        return None;
    }
    let m = manifest();
    let hex = m.get("digests")?.get(kind.name())?.as_str()?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: default_seed(),
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && Kind::from_name(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: restune-perfbench --workload <meta_repo|solo_long|fleet_mixed|all> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let report = match Kind::from_name(&args.workload) {
        Some(kind) if args.trace => run_traced(kind, &args),
        Some(kind) => run_timed(kind, &args),
        None => run_all(&args),
    };
    let ncpu = std::thread::available_parallelism().map_or(1, |n| n.get());
    for kind in Kind::ALL
        .into_iter()
        .filter(|k| args.workload == "all" || args.workload == k.name())
    {
        if let Some(reason) = kind.ungated_reason() {
            println!("note: {} is {reason}", kind.name());
        }
    }
    report.print(&format!(
        "{} seed {} seconds {} trace {} ncpu {ncpu}",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    ExitCode::SUCCESS
}

/// The workload's set-ups, each dropped before the next so peak memory is
/// one set-up's; the last one's state runs the units.
fn setups(inputs: &Inputs) -> (Prepared, Vec<SetupTimes>) {
    let reps = inputs.kind.setup_reps();
    let mut times = Vec::with_capacity(reps);
    let mut prepared = None;
    for _ in 0..reps {
        drop(prepared.take());
        let (p, t) = setup(inputs);
        prepared = Some(p);
        times.push(t);
    }
    (prepared.expect("at least one set-up"), times)
}

/// Tallies the units' checks into `report`; a unit whose digest is not
/// `expected` fails whole.
fn check_units<'a>(
    report: &mut Report,
    units: impl IntoIterator<Item = &'a UnitResult>,
    expected: Option<u64>,
) {
    for (i, unit) in units.into_iter().enumerate() {
        report.attempted += unit.attempted;
        report.failed += unit.failed;
        report.problems.extend(unit.problems.iter().cloned());
        if let Some(want) = expected.filter(|w| *w != unit.digest) {
            report.problems.push(format!(
                "unit {i}: digest {:#018x}, expected {want:#018x}",
                unit.digest
            ));
            report.failed += unit.attempted - unit.failed;
        }
    }
}

fn steps_per_s(units: &[UnitResult]) -> f64 {
    let steps: usize = units.iter().map(|u| u.steps.len()).sum();
    steps as f64 / units.iter().map(|u| u.wall_s).sum::<f64>()
}

fn run_timed(kind: Kind, args: &Args) -> Report {
    let inputs = Inputs::generate(kind, args.seed, Scale::full(kind));
    let (mut prepared, setups) = setups(&inputs);
    let mut units: Vec<UnitResult> = Vec::new();
    let start = Instant::now();
    while units.len() < MIN_UNITS || start.elapsed().as_secs_f64() < args.seconds {
        units.push(workloads::run_unit(
            &inputs,
            &mut prepared,
            units.len(),
            Instrument::Plain,
        ));
    }
    let mut report = Report::default();
    let pinned = pinned_digest(kind, args.seed);
    // Only unit 0 runs at the workload seed itself; later units have their own.
    check_units(&mut report, &units[..1], pinned);
    check_units(&mut report, &units[1..], None);
    println!(
        "unit 0 digest {:#018x}; {} units",
        units[0].digest,
        units.len()
    );
    report.metrics = end_to_end(&units, &setups);
    report.check_finite();
    report
}

/// The end-to-end metrics of a timed run.
fn end_to_end(units: &[UnitResult], setups: &[SetupTimes]) -> Vec<Metric> {
    let step_ms: Vec<f64> = units
        .iter()
        .flat_map(|u| &u.steps)
        .map(|s| s.wall_s * 1e3)
        .collect();
    // Quality is deterministic per seed: it averages the units every run makes.
    let first = &units[..MIN_UNITS.min(units.len())];
    let per_unit = |f: fn(&UnitResult) -> f64| mean(&first.iter().map(f).collect::<Vec<_>>());
    vec![
        Metric::new(
            "setup_s",
            median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>()),
            "s",
        ),
        Metric::new("steps_per_s", steps_per_s(units), "steps/s"),
        Metric::new("step_ms_p50", median(&step_ms), "ms"),
        Metric::new("step_ms_p90", quantile(&step_ms, 0.9), "ms"),
        Metric::new("res_reduction_pct", per_unit(|u| u.reduction_pct), "%"),
        Metric::new("converge_iter", per_unit(|u| u.converge_iter), "iterations"),
        Metric::new("peak_rss_mb", measure::peak_rss_mb(), "MB"),
    ]
}

fn run_traced(kind: Kind, args: &Args) -> Report {
    let inputs = Inputs::generate(kind, args.seed, Scale::full(kind));
    trace::reset();
    trace::enable();
    let (mut prepared, setups) = setups(&inputs);
    let setup_counters = trace::snapshot();
    trace::disable();
    trace::reset();

    let mut plain = Vec::new();
    let start = Instant::now();
    while plain.is_empty() || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        plain.push(workloads::run_unit(
            &inputs,
            &mut prepared,
            0,
            Instrument::Plain,
        ));
    }
    let mut samples = LayerSamples::default();
    let mut traced = Vec::with_capacity(plain.len());
    trace::enable();
    for _ in 0..plain.len() {
        let unit = workloads::run_unit(&inputs, &mut prepared, 0, Instrument::Wrapped);
        let snap = trace::snapshot();
        trace::reset();
        samples.add(&unit, &snap);
        traced.push(unit);
    }
    trace::disable();

    let mut report = Report::default();
    // Tracing and the wrappers must not move a bit of the outcome.
    let expected = pinned_digest(kind, args.seed).unwrap_or(plain[0].digest);
    check_units(&mut report, plain.iter().chain(&traced), Some(expected));
    println!(
        "unit 0 digest {:#018x}; {} plain and {} traced repeats",
        plain[0].digest,
        plain.len(),
        traced.len()
    );
    let overhead_pct = (steps_per_s(&plain) / steps_per_s(&traced) - 1.0) * 100.0;
    report.metrics = samples.metrics(&setups, &setup_counters, overhead_pct);
    report.check_finite();
    report
}

/// Runs every workload, each in a process of its own (so each reports its
/// own peak memory), and combines their results.
fn run_all(args: &Args) -> Report {
    let mut combined = Report::default();
    let exe = std::env::current_exe().expect("the running executable has a path");
    for kind in Kind::ALL {
        let output = Command::new(&exe)
            .args(["--workload", kind.name(), "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output();
        let stdout = output
            .as_ref()
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
            .unwrap_or_default();
        print!("{stdout}");
        let result = stdout
            .lines()
            .last()
            .and_then(|l| minjson::Json::parse(l).ok());
        let Some(result) = result.filter(|r| r.get("correct").and_then(|c| c.as_bool()).is_some())
        else {
            combined.problems.push(format!(
                "{}: no result ({:?})",
                kind.name(),
                output.map(|o| o.status)
            ));
            continue;
        };
        let count = |key: &str| result.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        combined.attempted += count("attempted");
        combined.failed += count("failed");
        if result.get("correct").and_then(|c| c.as_bool()) != Some(true) {
            combined
                .problems
                .push(format!("{}: outputs incorrect", kind.name()));
        }
        if let Some(minjson::Json::Obj(metrics)) = result.get("metrics") {
            for (name, m) in metrics {
                let value = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or("");
                combined
                    .metrics
                    .push(Metric::new(&format!("{}.{name}", kind.name()), value, unit));
            }
        }
    }
    combined
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use trace::TraceSnapshot;

    /// The trace collector is process-global: tests that use it take turns.
    static COLLECTOR: Mutex<()> = Mutex::new(());

    fn small(kind: Kind, seed: u64) -> Inputs {
        Inputs::generate(
            kind,
            seed,
            Scale {
                steps: 14,
                tenants: 8,
                repo_workloads: 2,
            },
        )
    }

    /// Unit 0's digest with the collector on or off, and what it recorded.
    fn unit0(inputs: &Inputs, instrument: Instrument, traced: bool) -> (u64, TraceSnapshot) {
        let (mut prepared, _) = setup(inputs);
        trace::reset();
        if traced {
            trace::enable();
        }
        let unit = workloads::run_unit(inputs, &mut prepared, 0, instrument);
        trace::disable();
        let snap = trace::snapshot();
        trace::reset();
        assert!(
            unit.failed == 0 && unit.problems.is_empty(),
            "{:?}",
            unit.problems
        );
        (unit.digest, snap)
    }

    #[test]
    fn tracing_and_each_wrapper_leave_the_outcome_bit_identical() {
        let _turn = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
        for kind in Kind::ALL {
            let inputs = small(kind, 5);
            let (plain, _) = unit0(&inputs, Instrument::Plain, false);
            assert_eq!(
                unit0(&inputs, Instrument::Plain, true).0,
                plain,
                "{kind:?}: tracing moved the outcome"
            );
            assert_eq!(
                unit0(&inputs, Instrument::Wrapped, false).0,
                plain,
                "{kind:?}: a wrapper moved the outcome"
            );
            let (traced, snap) = unit0(&inputs, Instrument::Wrapped, true);
            assert_eq!(traced, plain, "{kind:?}: the traced run moved the outcome");
            if kind == Kind::FleetMixed {
                for span in ["space_lift", "drift_seal", "workload_embed"] {
                    assert!(snap.total_for(span) > 0.0, "the {span} wrapper never ran");
                }
            }
        }
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let json = |seed| small(Kind::MetaRepo, seed).repository_json;
        assert_eq!(json(3), json(3));
        assert_ne!(json(3), json(4));
    }

    #[test]
    fn reported_names_and_units_match_benchmark_json() {
        let bench = minjson::Json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            let entries = bench
                .get(key)
                .and_then(|v| v.as_array())
                .expect("a metric list");
            let text = |m: &minjson::Json, k: &str| {
                m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string()
            };
            entries
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect()
        };
        let reported = |metrics: Vec<Metric>| -> Vec<(String, String)> {
            metrics.into_iter().map(|m| (m.name, m.unit)).collect()
        };
        assert_eq!(reported(end_to_end(&[], &[])), declared("end_to_end"));
        let per_layer = LayerSamples::default().metrics(&[], &TraceSnapshot::default(), 0.0);
        assert_eq!(reported(per_layer), declared("per_layer"));
        let workloads: Vec<(String, String)> = declared("workloads");
        let names: Vec<&str> = workloads.iter().map(|(name, _)| name.as_str()).collect();
        let gated: Vec<&str> = Kind::ALL
            .into_iter()
            .filter(|k| k.ungated_reason().is_none())
            .map(Kind::name)
            .collect();
        assert_eq!(names, gated);
    }
}
