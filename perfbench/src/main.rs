//! `fastlive-perfbench --workload <serve|edit|reopen> --seed <n>
//! --seconds <n> --trace <0|1>`
//!
//! Prints the run's detail (host block, input properties, sample
//! counts, all five end-to-end metrics, and the span summary when
//! traced) as one JSON line, then the result as the last line:
//! `{"correct", "attempted", "failed", "metrics"}` — end-to-end
//! metrics untraced, per-layer metrics traced. Writes only under
//! `$CARGO_TARGET_DIR/perfbench` (default `.bench_build/perfbench`).

use std::path::PathBuf;
use std::process::ExitCode;

use fastlive_perfbench::{run, Options, Workload};

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "error: {problem}\nusage: fastlive-perfbench --workload <{}> --seed <n> \
         --seconds <n> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::from_name(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("every flag needs a valid value");
    };
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    let report = run(&Options {
        workload,
        seed,
        seconds,
        trace,
        plant_wrong_answer: false,
        work_dir: target.join("perfbench"),
    });
    for why in &report.failures {
        eprintln!("failed op: {why}");
    }
    println!("{}", report.detail);
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
