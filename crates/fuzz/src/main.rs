//! The differential fuzz campaign entry point.
//!
//! ```text
//! fastlive-fuzz [--quick] [--seed N] [--out PATH]   # the campaign
//! fastlive-fuzz --broken [--seed N] [--out PATH]    # shrinker self-test
//! ```
//!
//! The campaign runs nine adversarial arms (see `arms`), prints one
//! line per arm, writes `BENCH_fuzz.json`, then checks that report and
//! exits non-zero if any divergence or panic survived, an arm ran no
//! cases, or no irreducible function was covered. `--broken` swaps in
//! the deliberately wrong [`BrokenBackend`] and demands the opposite:
//! the harness must *catch* it, and the shrinker must minimize a
//! 200-block failing case to a reproducer of at most 10 blocks, which
//! it writes to `--out` (default: a temp file named after the process).

use std::path::PathBuf;
use std::process::ExitCode;

use fastlive::telemetry::Json;
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
    /// The report (campaign) or reproducer (`--broken`) path, if given.
    out: Option<String>,
}

impl Args {
    fn mode(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        seed: 9,
        broken: false,
        out: None,
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
            "--out" => args.out = Some(it.next().ok_or("--out needs a path")?),
            "--help" | "-h" => {
                return Err(
                    "usage: fastlive-fuzz [--quick] [--seed N] [--out PATH]\n       \
                     fastlive-fuzz --broken [--seed N] [--out PATH]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// The arms every campaign must run, in order.
const ARMS: [&str; 9] = [
    "generated",
    "irreducible",
    "dom_chains",
    "massive",
    "dup_edges",
    "edits",
    "persist",
    "parser",
    "roundtrip",
];

fn report_json(args: &Args, report: &CampaignReport) -> Json {
    let arms: Json = report
        .arms
        .iter()
        .map(|a| {
            Json::obj()
                .field("name", a.name)
                .field("cases", a.cases)
                .field("queries", a.queries)
                .field("divergences", a.divergences)
                .field("skipped", a.skipped)
        })
        .collect();
    let coverage: Json = report
        .coverage
        .iter()
        .map(|c| {
            Json::obj()
                .field("name", c.name.as_str())
                .field("procedures", c.procedures)
                .field("sum_blocks", c.sum_blocks)
                .field("avg_blocks", Json::Num(c.avg_blocks, 2))
                .field("max_blocks", c.max_blocks)
                .field("total_edges", c.total_edges)
                .field("total_back_edges", c.total_back_edges)
                .field("irreducible_back_edges", c.irreducible_back_edges)
                .field("irreducible_functions", c.irreducible_functions)
                .field("total_values", c.total_values)
        })
        .collect();
    let findings: Json = report
        .findings
        .iter()
        .map(|f| {
            Json::obj()
                .field("arm", f.arm)
                .field("detail", f.detail.as_str())
        })
        .collect();
    Json::obj()
        .field("bench", "fuzz")
        .field("mode", args.mode())
        .field("seed", args.seed)
        .field("arms", arms)
        .field("coverage", coverage)
        .field("findings", findings)
        .field(
            "totals",
            Json::obj()
                .field("cases", report.arms.iter().map(|a| a.cases).sum::<usize>())
                .field(
                    "queries",
                    report.arms.iter().map(|a| a.queries).sum::<usize>(),
                )
                .field("divergences", report.total_divergences())
                .field("findings", report.findings.len()),
        )
}

/// The report's self-check: every arm ran cases with zero divergences,
/// some irreducible function was covered, the parser arm accepted some
/// input, and nothing was found.
fn check_report(args: &Args, d: &Json) -> Result<(), String> {
    let count = |obj: &Json, key: &str| {
        obj.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("`{key}` is not a number in {obj}"))
    };
    let array = |key: &str| {
        d.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("`{key}` is not an array"))
    };
    d.require(&[
        "bench", "mode", "seed", "arms", "coverage", "findings", "totals",
    ])?;
    if d.get("bench") != Some(&Json::from("fuzz"))
        || d.get("mode") != Some(&Json::from(args.mode()))
        || d.get("seed") != Some(&Json::from(args.seed))
    {
        let (mode, seed) = (args.mode(), args.seed);
        return Err(format!("bench/mode/seed should be fuzz/{mode}/{seed}"));
    }
    let arms = array("arms")?;
    let names: Vec<&str> = arms
        .iter()
        .filter_map(|a| a.get("name")?.as_str())
        .collect();
    if names != ARMS {
        return Err(format!("arms {names:?}, expected {ARMS:?}"));
    }
    for a in arms {
        a.require(&["name", "cases", "queries", "divergences", "skipped"])?;
        if count(a, "cases")? == 0.0 || count(a, "divergences")? != 0.0 {
            return Err(format!("every arm needs cases and no divergences: {a}"));
        }
    }
    let coverage = array("coverage")?;
    for c in coverage {
        c.require(&[
            "name",
            "procedures",
            "sum_blocks",
            "avg_blocks",
            "max_blocks",
            "total_edges",
            "total_back_edges",
            "irreducible_back_edges",
            "irreducible_functions",
            "total_values",
        ])?;
    }
    if !coverage
        .iter()
        .any(|c| count(c, "irreducible_functions").is_ok_and(|n| n > 0.0))
    {
        return Err("no arm covered an irreducible function".to_string());
    }
    // Coverage counts only accepted parser inputs, so a zero here means
    // the print→parse fixpoint check never ran.
    let parsed = coverage
        .iter()
        .find(|c| c.get("name") == Some(&Json::from("parser")));
    if !parsed.is_some_and(|c| count(c, "procedures").is_ok_and(|n| n > 0.0)) {
        return Err("the parser arm accepted no input".to_string());
    }
    if !array("findings")?.is_empty() {
        return Err("the campaign has findings".to_string());
    }
    let totals = d.get("totals").expect("required above");
    totals.require(&["cases", "queries", "divergences", "findings"])?;
    if count(totals, "divergences")? != 0.0 || count(totals, "findings")? != 0.0 {
        return Err(format!("totals must be clean: {totals}"));
    }
    Ok(())
}

fn run_fuzz(args: &Args) -> ExitCode {
    eprintln!(
        "fastlive-fuzz: campaign seed={} mode={}",
        args.seed,
        args.mode()
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
    // The report is written before it is checked, so a failing
    // campaign's findings stay inspectable.
    let json = report_json(args, &report);
    let out = args.out.as_deref().unwrap_or("BENCH_fuzz.json");
    if let Err(e) = std::fs::write(out, json.to_document()) {
        eprintln!("fastlive-fuzz: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "\ntotal: {} divergences, {} findings -> {out}",
        report.total_divergences(),
        report.findings.len(),
    );
    match check_report(args, &json) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            println!("report check failed: {e}");
            ExitCode::FAILURE
        }
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
    // A process-unique default keeps concurrent self-tests apart.
    let path = args.out.as_ref().map_or_else(
        || std::env::temp_dir().join(format!("fuzz-repro-broken-{}.fl", std::process::id())),
        PathBuf::from,
    );
    match std::fs::write(&path, &out.text) {
        Ok(()) => println!("reproducer written to {}", path.display()),
        Err(e) => {
            println!(
                "FAIL: cannot write the reproducer to {}: {e}",
                path.display()
            );
            ok = false;
        }
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
