//! Regenerates **Table 1** of the paper ("Results of Quantitative
//! Evaluation"): structural statistics of the generated SPEC2000-int
//! workload suites, plus the §6.1 prose numbers (edges per block, back
//! edge share, irreducibility counts).
//!
//! `FASTLIVE_SCALE` sets the scale (default 25, or 1 with `--quick`).

use fastlive_bench::{all_suites, scale_from_env};
use fastlive_workload::SuiteStats;

/// Runs the suite.
pub fn run(quick: bool) {
    let scale = scale_from_env(if quick { 1 } else { 25 });
    println!("Table 1: quantitative evaluation of the generated workload");
    println!("(scale = {scale}% of the paper's procedure counts; seed fixed)\n");
    println!(
        "{:<12} {:>7} {:>7} {:>7} {:>7} {:>8} {:>7} {:>7} {:>7} {:>7}",
        "Benchmark", "Avg", "Sum", "%<=32", "%<=64", "Max", "%<=1", "%<=2", "%<=3", "%<=4"
    );
    println!("{}", "-".repeat(96));

    let suites = all_suites(scale, 0xfa57_11fe);
    let mut all = Vec::new();
    let mut per_fn = Vec::new();
    for suite in &suites {
        let stats = suite.stats();
        println!("{}", stats.table1_row());
        per_fn.extend(
            suite
                .functions
                .iter()
                .map(fastlive_workload::FunctionStats::measure),
        );
        all.push(stats);
    }
    let total = SuiteStats::aggregate("Total", &per_fn);
    println!("{}", "-".repeat(96));
    println!("{}", total.table1_row());

    println!("\nSection 6.1 prose statistics (paper values in brackets):");
    println!(
        "  edges per block:          {:>8.2}   [paper: 1.3 avg, 1.9 max]",
        total.edges_per_block()
    );
    println!(
        "  total edges:              {:>8}   [paper: 238427 at full scale]",
        total.total_edges
    );
    println!(
        "  back edges:               {:>8}   ({:.2}% of edges) [paper: 8701 = 3.6%]",
        total.total_back_edges,
        total.back_edge_pct()
    );
    println!(
        "  irreducible back edges:   {:>8}   [paper: 60]",
        total.irreducible_back_edges
    );
    println!(
        "  irreducible procedures:   {:>8}   [paper: 7 of 4823]",
        total.irreducible_functions
    );
    println!(
        "  procedures:               {:>8}   [paper: 4823 at full scale]",
        total.procedures
    );
    println!(
        "  max uses of one variable: {:>8}   [paper: 620]",
        total.max_uses
    );
}
