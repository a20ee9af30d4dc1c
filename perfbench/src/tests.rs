//! The benchmark's own checks: the correctness gate can fail, traced
//! runs' one-layer-down replays account for their op time, and
//! `BENCHMARK.json` names exactly the metrics the benchmark prints.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use super::*;

fn options(workload: Workload, seconds: f64, trace: bool, tag: &str) -> Options {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    );
    Options {
        workload,
        seed: 3,
        seconds,
        trace,
        plant_wrong_answer: false,
        work_dir: target.join(format!("perfbench-test-{}-{tag}", workload.name())),
    }
}

#[test]
fn a_planted_wrong_answer_fails_the_run() {
    let clean = run(&options(Workload::Serve, 0.2, false, "clean"));
    assert_eq!(clean.failed, 0, "{:?}", clean.failures);
    assert!(clean.attempted >= MIN_OPS as u64);

    let planted = run(&Options {
        plant_wrong_answer: true,
        ..options(Workload::Serve, 0.2, false, "planted")
    });
    println!(
        "failed_share with a planted wrong answer: {}",
        planted.failed_share()
    );
    assert!(planted.failed_share() > 0.0);
    assert!(!planted
        .result_json()
        .to_string()
        .contains("\"correct\":true"));
    assert!(planted.failures[0].contains("planted wrong answer"));
}

#[test]
fn slices_report_their_own_median_and_tail() {
    let ops = [1000, 3000, 2000, 10_000, 30_000, 20_000];
    let (medians, p99s) = slice_stats(&ops, &[0, 3, 3]);
    assert_eq!(medians, [2.0, 20.0], "the empty slice is skipped");
    assert_eq!(p99s, [3.0, 30.0]);
    assert_eq!(beyond_slice_p99s(&ops, &[0, 3, 3], &[2.5, 20.0]), 2);
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    let report = run(&options(Workload::Edit, 0.2, false, "e2e"));
    assert_eq!(report.failed, 0, "{:?}", report.failures);
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want);
    assert!(
        report.metrics.iter().all(|m| m.value > 0.0),
        "{:?}",
        report.metrics
    );
    let beyond = report
        .detail
        .get("samples")
        .and_then(|s| s.get("ops_beyond_slice_p99s"));
    assert!(
        matches!(beyond, Some(json::Json::Num(n)) if *n >= 10.0),
        "{beyond:?}"
    );
}

/// How far the replayed layer costs of a traced run may fall short of
/// its op time, as a share of it: what no replay isolates — mostly the
/// planner's per-query dispatch inside `run_queries` (about a fifth of
/// an `edit` or `reopen` op), plus cache lookups and an `Arc` clone.
const LAYER_SHORTFALL: f64 = 0.3;
/// How far the replays may overshoot the op time (they run with the
/// op's data freshly in cache, so they should not).
const LAYER_OVERSHOOT: f64 = 0.1;

#[test]
fn traced_layers_account_for_the_op_time() {
    for workload in Workload::ALL {
        let report = run(&options(workload, 2.0, true, "traced"));
        assert_eq!(report.failed, 0, "{workload:?}: {:?}", report.failures);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{workload:?}");
        let trace = report
            .detail
            .get("trace")
            .expect("traced runs print their summary");
        assert_eq!(trace.get("unbalanced_spans"), Some(&json::Json::Num(0.0)));
        let Some(&json::Json::Num(residual)) = trace.get("layer_residual") else {
            panic!("{workload:?}: no layer residual printed");
        };
        println!(
            "{}: the replayed layers leave {:.1}% of the traced op time unaccounted",
            workload.name(),
            100.0 * residual
        );
        assert!(
            (-LAYER_OVERSHOOT..LAYER_SHORTFALL).contains(&residual),
            "{workload:?}: layer residual {residual}"
        );
        assert_eq!(report.metric("trace.layer_residual"), Some(residual.abs()));
        assert!(report.metric("trace.overhead").expect("printed") > 0.0);
        // Each workload reaches the layers it was chosen for.
        let reached = |name: &str| report.metric(name).expect("printed") > 0.0;
        match workload {
            Workload::Serve => {
                assert!(reached("core.nullness.solve_ns") && reached("destruct.interfere.ns"));
                assert!(!reached("engine.session.recomputations_per_op"));
            }
            Workload::Edit => {
                assert!(reached("ir.edit.ns_per_op") && reached("core.batch.probes_per_pass"));
            }
            Workload::Reopen => {
                assert!(reached("engine.persist.read.decode_ns") && reached("engine.pool.wall_ns"));
                assert!(reached("engine.persist.write.bytes_per_entry"));
                assert!(
                    reached("core.precompute.ns_per_block"),
                    "set-up's cold build"
                );
                assert_eq!(report.metric("engine.persist.disk_hit_ratio"), Some(1.0));
            }
        }
    }
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repo root");
    let names: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n))
        .collect();
    for name in names {
        assert!(
            text.contains(&format!("\"name\": \"{name}\"")),
            "BENCHMARK.json lacks {name}"
        );
    }
    assert_eq!(
        text.matches("\"name\": ").count(),
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
