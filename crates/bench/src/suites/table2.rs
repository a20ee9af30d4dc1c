//! Regenerates **Table 2** of the paper ("Results of the Runtime
//! Experiments"): per-benchmark precomputation and query times of the
//! reimplemented LAO baseline ("Native") versus the paper's checker
//! ("New"), with the three speedup columns, plus the §6.2 prose claims.
//!
//! `FASTLIVE_SCALE` sets the scale (default 10) and `FASTLIVE_REPS`
//! the interleaved rounds per suite (default 5); `--quick` defaults
//! both to 1. Times are medians over the rounds; the §6.2 ratios carry
//! their quartiles, taken per round.
//!
//! Times are nanoseconds (the paper reports Pentium-M cycles; all
//! claims are ratios and unit-free). The query stream is the one the
//! Sreedhar III SSA-destruction pass actually issued, replayed
//! identically against both engines.

use fastlive_bench::{
    all_suites, measure_suite, prepare_suite, scale_from_env, total_row, Table2Row,
};

/// Runs the suite.
pub fn run(quick: bool) {
    let scale = scale_from_env(if quick { 1 } else { 10 });
    let rounds: usize = std::env::var("FASTLIVE_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick { 1 } else { 5 });
    println!("Table 2: runtime experiments (scale = {scale}%, median of {rounds} rounds)\n");
    println!(
        "{:<12} {:>6} | {:>12} {:>12} {:>6} | {:>9} {:>9} {:>9} {:>6} | {:>6}",
        "Benchmark",
        "#Proc",
        "Native pre",
        "New pre",
        "Spdup",
        "#Queries",
        "Native q",
        "New q",
        "Spdup",
        "Both"
    );
    println!("{}", "-".repeat(110));

    let suites = all_suites(scale, 0xfa57_11fe);
    let mut rows = Vec::new();
    for suite in &suites {
        let prepared = prepare_suite(suite);
        let row = measure_suite(&suite.profile, &prepared, rounds);
        print_row(&row);
        rows.push(row);
    }
    let total = total_row(&rows);
    println!("{}", "-".repeat(110));
    print_row(&total);

    println!("\nSection 6.2 prose claims (paper values in brackets):");
    println!(
        "  precompute speedup (native/new):      {:.2}x   [paper: 2.94x]",
        total.pre_speedup()
    );
    println!(
        "  query speedup (native/new):           {:.2}x   [paper: 0.36x, i.e. ~2.8x slower]",
        total.query_speedup()
    );
    println!(
        "  combined speedup:                     {:.2}x   [paper: 1.16x]",
        total.both_speedup()
    );
    println!(
        "  full-universe dataflow vs new pre:    {:.2}x   [paper: ~4.7x slower than new]",
        total.totals.ratio(2, 1)
    );
    println!(
        "  phi-related live-set fill:            {:>6.2}    [paper: 3.16]",
        total.fill_phi
    );
    println!(
        "  full-universe live-set fill:          {:>6.2}    [paper: 18.52]",
        total.fill_full
    );
    println!(
        "  queries per procedure:                {:>6.1}    [paper: 556 avg over 4823 procs]",
        total.queries as f64 / total.procs.max(1) as f64
    );
}

fn print_row(r: &Table2Row) {
    let ns = r.unit_ns();
    println!(
        "{:<12} {:>6} | {:>12.0} {:>12.0} {:>6.2} | {:>9} {:>9.1} {:>9.1} {:>6.2} | {:>6.2}",
        r.name,
        r.procs,
        ns[0],
        ns[1],
        r.pre_speedup().median,
        r.queries,
        ns[3],
        ns[4],
        r.query_speedup().median,
        r.both_speedup().median
    );
}
