//! The differential fuzz campaign entry point.
//!
//! ```text
//! fastlive-fuzz [--quick] [--seed N] [--out PATH]   # the campaign
//! fastlive-fuzz --broken [--seed N]                 # shrinker self-test
//! ```
//!
//! The campaign runs nine adversarial arms (see `arms`), prints one
//! line per arm, writes `BENCH_fuzz.json`, and exits non-zero if any
//! divergence or panic survived. `--broken` swaps in the deliberately
//! wrong [`BrokenBackend`] and demands the opposite: the harness must
//! *catch* it, and the shrinker must minimize a 200-block failing case
//! to a reproducer of at most 10 blocks.

use std::process::ExitCode;

use fastlive::{Fastlive, Query};
use fastlive_construct::construct_ssa;
use fastlive_ir::{Block, Module, Value};
use fastlive_workload::{generate_pre, GenParams, SplitMix64};

use fastlive_fuzz::arms::{run_campaign, CampaignConfig, CampaignReport};
use fastlive_fuzz::diff::check_against_oracle;
use fastlive_fuzz::shrink::shrink;
use fastlive_fuzz::BrokenBackend;

struct Args {
    quick: bool,
    seed: u64,
    broken: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        seed: 9,
        broken: false,
        out: "BENCH_fuzz.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--broken" => args.broken = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--out" => args.out = it.next().ok_or("--out needs a path")?,
            "--help" | "-h" => {
                return Err(
                    "usage: fastlive-fuzz [--quick] [--seed N] [--out PATH] [--broken]".to_string(),
                )
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn write_report(path: &str, args: &Args, report: &CampaignReport) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"bench\": \"fuzz\",");
    let _ = writeln!(
        j,
        "  \"mode\": \"{}\",",
        if args.quick { "quick" } else { "full" }
    );
    let _ = writeln!(j, "  \"seed\": {},", args.seed);
    let _ = writeln!(j, "  \"arms\": [");
    for (i, a) in report.arms.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"name\": \"{}\", \"cases\": {}, \"queries\": {}, \"divergences\": {}, \"skipped\": {}}}{}",
            a.name, a.cases, a.queries, a.divergences, a.skipped,
            if i + 1 < report.arms.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"coverage\": [");
    for (i, c) in report.coverage.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"name\": \"{}\", \"procedures\": {}, \"sum_blocks\": {}, \"avg_blocks\": {:.2}, \"max_blocks\": {}, \"total_edges\": {}, \"total_back_edges\": {}, \"irreducible_back_edges\": {}, \"irreducible_functions\": {}, \"total_values\": {}}}{}",
            json_escape(&c.name), c.procedures, c.sum_blocks, c.avg_blocks, c.max_blocks,
            c.total_edges, c.total_back_edges, c.irreducible_back_edges,
            c.irreducible_functions, c.total_values,
            if i + 1 < report.coverage.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"arm\": \"{}\", \"detail\": \"{}\"}}{}",
            f.arm,
            json_escape(&f.detail),
            if i + 1 < report.findings.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(j, "  ],");
    let cases: usize = report.arms.iter().map(|a| a.cases).sum();
    let queries: usize = report.arms.iter().map(|a| a.queries).sum();
    let _ = writeln!(
        j,
        "  \"totals\": {{\"cases\": {}, \"queries\": {}, \"divergences\": {}, \"findings\": {}}}",
        cases,
        queries,
        report.total_divergences(),
        report.findings.len()
    );
    let _ = writeln!(j, "}}");
    std::fs::write(path, j)
}

fn run_fuzz(args: &Args) -> ExitCode {
    eprintln!(
        "fastlive-fuzz: campaign seed={} mode={}",
        args.seed,
        if args.quick { "quick" } else { "full" }
    );
    let report = run_campaign(CampaignConfig {
        seed: args.seed,
        quick: args.quick,
    });
    for (arm, cov) in report.arms.iter().zip(report.coverage.iter()) {
        println!(
            "arm {}: {} cases, {} probes, {} divergences, {} skipped | coverage: {} fns, {} blocks (max {}), {} irreducible fns",
            arm.name, arm.cases, arm.queries, arm.divergences, arm.skipped,
            cov.procedures, cov.sum_blocks, cov.max_blocks, cov.irreducible_functions
        );
    }
    for f in &report.findings {
        println!("\nFINDING [{}] {}", f.arm, f.detail);
        println!("reproducer:\n{}", f.reproducer);
    }
    if let Err(e) = write_report(&args.out, args, &report) {
        eprintln!("fastlive-fuzz: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    println!(
        "\ntotal: {} divergences, {} findings -> {}",
        report.total_divergences(),
        report.findings.len(),
        args.out
    );
    if report.findings.is_empty() && report.total_divergences() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Probe set for the self-test predicate: exhaustive `LiveIn` pairs on
/// small candidates (so shrinking never stalls for lack of probes), a
/// seeded sample on large ones.
fn broken_probes(module: &Module, seed: u64) -> Vec<Query> {
    let mut queries = Vec::new();
    for (id, func) in module.iter() {
        let nv = func.num_values();
        let nb = func.num_blocks();
        if nv.saturating_mul(nb) <= 4_000 {
            for v in 0..nv {
                for b in 0..nb {
                    queries.push(Query::live_in(
                        id,
                        Value::from_index(v),
                        Block::from_index(b),
                    ));
                }
            }
        } else {
            let mut rng = SplitMix64::new(seed ^ id as u64);
            for _ in 0..600 {
                queries.push(Query::live_in(
                    id,
                    Value::from_index(rng.index(nv)),
                    Block::from_index(rng.index(nb)),
                ));
            }
        }
    }
    queries
}

/// The self-test: a deliberately wrong backend must be caught, and the
/// shrinker must take a 200-block failure to a ≤ 10-block reproducer
/// that still fails deterministically after re-parsing.
fn run_broken(args: &Args) -> ExitCode {
    eprintln!("fastlive-fuzz: shrinker self-test seed={}", args.seed);
    let pre = generate_pre(
        "broken_selftest",
        GenParams {
            target_blocks: 200,
            deep_live_percent: 60,
            ..GenParams::default()
        },
        args.seed,
    );
    let func = construct_ssa(&pre).expect("generator output is constructible");
    let blocks_before = func.num_blocks();
    let mut module = Module::new();
    module.push(func);

    let fl = Fastlive::builder().build().expect("default build");
    let seed = args.seed;
    let mut predicate = |m: &Module| {
        let queries = broken_probes(m, seed);
        let mut broken = BrokenBackend::new();
        check_against_oracle(&fl, &mut broken, m, &queries)
            .into_iter()
            .next()
    };

    let Some(out) = shrink(&module, &mut predicate, 6_000) else {
        println!("broken backend was NOT caught on a {blocks_before}-block case");
        return ExitCode::FAILURE;
    };
    println!(
        "caught and shrank: {} blocks -> {} blocks in {} predicate calls",
        out.blocks_before, out.blocks_after, out.predicate_calls
    );
    println!("diverging query: {}", out.divergence.render());
    println!("reproducer:\n{}", out.text);

    let mut ok = true;
    if out.blocks_after > 10 {
        println!("FAIL: reproducer has {} blocks (> 10)", out.blocks_after);
        ok = false;
    }
    // Determinism: the reproducer must re-parse and still fail.
    let reparsed = out.reparse();
    if predicate(&reparsed).is_none() {
        println!("FAIL: re-parsed reproducer no longer fails");
        ok = false;
    }
    let path = std::env::temp_dir().join("fuzz-repro-broken.fl");
    if std::fs::write(&path, &out.text).is_ok() {
        println!("reproducer written to {}", path.display());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.broken {
        run_broken(&args)
    } else {
        run_fuzz(&args)
    }
}
