//! `fastlive-bench`: the paper's §6 evaluation and the repository's
//! `BENCH_*.json` reports, one suite per module.
//!
//! ```text
//! cargo run --release -p fastlive-bench -- [--quick] [--out DIR] SUITE...|all
//! ```
//!
//! Report suites (`query engine persist sparse facade faults obs point
//! scale`) build a report, check it, and only then write it to
//! `DIR/BENCH_<suite>.json` (`DIR` defaults to `.`); a failed check
//! exits non-zero and writes nothing. Printing suites (`table1 table2
//! figures memory precompute ablation`) print the paper's tables and
//! figures and this repository's ablations to stdout. Every timed
//! number comes from `fastlive_bench::measure`. `--quick` shrinks every
//! suite's workloads and rounds for smoke runs; the report keys and
//! checks stay the same, except that only full runs check README's
//! wins. `FASTLIVE_SCALE` sizes `table1`/`table2` and `FASTLIVE_REPS`
//! sets `table2`'s rounds.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fastlive::telemetry::Json;
use fastlive_bench::{fields, HEADER};

mod suites {
    pub mod ablation;
    pub mod engine;
    pub mod facade;
    pub mod faults;
    pub mod figures;
    pub mod memory;
    pub mod obs;
    pub mod persist;
    pub mod point;
    pub mod precompute;
    pub mod query;
    pub mod scale;
    pub mod sparse;
    pub mod table1;
    pub mod table2;
}
use suites::*;

/// A report suite's run, given `--quick`.
type Run = fn(bool) -> Json;
/// A report's self-check: `Err` names the first violated expectation.
type Check = fn(&Json) -> Result<(), String>;
/// A printing suite's run, given `--quick`.
type Print = fn(bool);

/// The report suites, in `all` order: name, run, check.
const REPORTS: [(&str, Run, Check); 9] = [
    ("query", query::run, query::check),
    ("engine", engine::run, engine::check),
    ("persist", persist::run, persist::check),
    ("sparse", sparse::run, sparse::check),
    ("facade", facade::run, facade::check),
    ("faults", faults::run, faults::check),
    ("obs", obs::run, obs::check),
    ("point", point::run, point::check),
    ("scale", scale::run, scale::check),
];

/// The printing suites, in `all` order.
const PRINTS: [(&str, Print); 6] = [
    ("table1", table1::run),
    ("table2", table2::run),
    ("figures", figures::run),
    ("memory", memory::run),
    ("precompute", precompute::run),
    ("ablation", ablation::run),
];

/// Writes `report` to `dir/BENCH_<name>.json` if it carries the
/// common header and passes `check`.
fn write_checked(dir: &Path, name: &str, report: &Json, check: Check) -> Result<PathBuf, String> {
    (fields(report, HEADER).and_then(|()| check(report)))
        .map_err(|e| format!("BENCH_{name}.json fails its check: {e}"))?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, report.to_document())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

struct Args {
    quick: bool,
    out: PathBuf,
    suites: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let names: Vec<&str> = REPORTS
        .iter()
        .map(|r| r.0)
        .chain(PRINTS.iter().map(|p| p.0))
        .collect();
    let usage = format!(
        "usage: fastlive-bench [--quick] [--out DIR] SUITE...|all\nsuites: {}",
        names.join(" ")
    );
    let mut args = Args {
        quick: false,
        out: PathBuf::from("."),
        suites: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = it.next().ok_or("--out needs a directory")?.into(),
            "all" => args.suites.extend(names.iter().map(|n| n.to_string())),
            name if names.contains(&name) => args.suites.push(a),
            _ => return Err(format!("unknown argument `{a}`\n{usage}")),
        }
    }
    if args.suites.is_empty() {
        return Err(usage);
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    for name in &args.suites {
        eprintln!("== {name}");
        if let Some(&(_, run, check)) = REPORTS.iter().find(|r| r.0 == name) {
            let report = run(args.quick);
            match write_checked(&args.out, name, &report, check) {
                Ok(path) => println!("{}wrote {}", report.to_document(), path.display()),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        } else if let Some(&(_, run)) = PRINTS.iter().find(|p| p.0 == name) {
            run(args.quick);
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The runner can fail: a report missing a required key is
    /// rejected by its check and never reaches the disk.
    #[test]
    fn a_report_missing_a_key_fails_its_check_and_is_not_written() {
        let dir = std::env::temp_dir().join(format!("fastlive-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut report = engine::run(true);
        assert_eq!(engine::check(&report), Ok(()));
        let path = write_checked(&dir, "engine", &report, engine::check).expect("report passes");
        std::fs::remove_file(&path).expect("written report");

        let Json::Obj(fields) = &mut report else {
            panic!("a report is an object")
        };
        fields.retain(|(key, _)| key != "fingerprint_cache");
        assert!(engine::check(&report).is_err());
        let written = write_checked(&dir, "engine", &report, engine::check);
        assert!(written.is_err(), "{written:?}");
        assert!(!dir.join("BENCH_engine.json").exists());
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
    }
}
