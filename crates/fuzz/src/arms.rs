//! The campaign runner: nine arms, each aiming a different adversarial
//! shape at the same invariant — all backends answer identically, and
//! no input reaches a panic.
//!
//! | arm           | what it stresses                                     |
//! |---------------|------------------------------------------------------|
//! | `generated`   | baseline generator coverage                          |
//! | `irreducible` | goto-injected + hand-built double-entry loops        |
//! | `dom_chains`  | deep dominator ladders, live-through ranges          |
//! | `massive`     | block counts far past the SPEC-calibrated defaults   |
//! | `dup_edges`   | duplicate `brif` edges and one-block self-loops      |
//! | `edits`       | mid-stream CFG/instruction edits and pushed functions|
//! |               | against live open sessions (the revalidation         |
//! |               | contract)                                            |
//! | `persist`     | fault-injected persistence campaigns + healthy reopen|
//! | `parser`      | arbitrary bytes through `parse_module` (totality)    |
//! | `roundtrip`   | print → parse → print fixpoint, reparsed equivalence |
//!
//! Every divergence is immediately handed to the shrinker; the arm
//! records a [`Finding`] carrying the minimized `.fl` reproducer and
//! the exact diverging query.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use fastlive::{Fastlive, Fault, FaultRule, FaultVfs, OpKind};
use fastlive_construct::construct_ssa;
use fastlive_ir::{parse_module, BinaryOp, Block, BlockCall, InstData, Module, Value};
use fastlive_workload::{
    generate_campaigns, generate_module, generate_pre, CampaignParams, FaultOp, FaultSpec,
    FunctionStats, GenParams, ModuleParams, SplitMix64, SuiteStats,
};

use crate::case::CaseFunc;
use crate::diff::{
    arm_sessions, cacheless, check_module, divergences_of, module_text, query_mix, Divergence,
};
use crate::mutate::{
    add_self_edge, dominator_ladder, duplicate_brif_edge, irreducible_double_entry,
    pathological_irreducible, Mutated,
};
use crate::shrink::shrink;

/// How hard to push.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Base seed; every arm derives its own stream from it.
    pub seed: u64,
    /// Bounded CI-sized run (the `--quick` flag).
    pub quick: bool,
}

/// One failure the campaign surfaced, minimized.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Arm that found it.
    pub arm: &'static str,
    /// Human rendering: the diverging query and per-backend answers,
    /// or the panic/round-trip description.
    pub detail: String,
    /// Self-contained `.fl` reproducer (or the offending raw input for
    /// parser findings).
    pub reproducer: String,
}

/// Per-arm tallies.
#[derive(Clone, Debug)]
pub struct ArmStats {
    /// Arm name.
    pub name: &'static str,
    /// Cases executed.
    pub cases: usize,
    /// Probes issued per backend set.
    pub queries: usize,
    /// Diverging probes (pre-shrink).
    pub divergences: usize,
    /// Mutations/campaigns that could not apply (counted, never silent).
    pub skipped: usize,
}

/// The whole campaign's result.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// One entry per arm, in execution order.
    pub arms: Vec<ArmStats>,
    /// Structural coverage per arm (block/edge/irreducibility shape).
    pub coverage: Vec<SuiteStats>,
    /// Minimized failures (empty on a healthy workspace).
    pub findings: Vec<Finding>,
}

impl CampaignReport {
    /// Total diverging probes across arms.
    pub fn total_divergences(&self) -> usize {
        self.arms.iter().map(|a| a.divergences).sum()
    }
}

/// Scratch shared by all arms.
struct Ctx {
    fl: Fastlive,
    cfg: CampaignConfig,
    findings: Vec<Finding>,
    coverage: Vec<SuiteStats>,
}

impl Ctx {
    /// Runs the standard differential check on one module, recording
    /// divergences and (for the first of a case) a shrunk reproducer.
    fn check(&mut self, arm: &'static str, stats: &mut ArmStats, module: &Module, per_func: usize) {
        let mix = query_mix(module, per_func, self.cfg.seed ^ stats.cases as u64);
        stats.cases += 1;
        stats.queries += mix.len();
        let divs = check_module(&self.fl, module, &mix);
        if divs.is_empty() {
            return;
        }
        stats.divergences += divs.len();
        self.report(arm, module, &divs);
    }

    /// Shrinks the failing module and records a finding (bounded so a
    /// systemic bug does not turn the run into a shrink marathon).
    fn report(&mut self, arm: &'static str, module: &Module, divs: &[Divergence]) {
        if self.findings.iter().filter(|f| f.arm == arm).count() >= 3 {
            return;
        }
        let fl = &self.fl;
        let shrink_seed = self.cfg.seed ^ 0x5157;
        let mut predicate = |m: &Module| {
            let qs = query_mix(m, 8, shrink_seed);
            check_module(fl, m, &qs).into_iter().next()
        };
        let finding = match shrink(module, &mut predicate, 600) {
            Some(out) => Finding {
                arm,
                detail: out.divergence.render(),
                reproducer: out.text,
            },
            // The divergence did not reproduce under the shrinker's
            // probe set; keep the original module and query verbatim.
            None => Finding {
                arm,
                detail: divs[0].render(),
                reproducer: module_text(module),
            },
        };
        self.findings.push(finding);
    }

    fn measure(&mut self, name: &'static str, functions: &[FunctionStats]) {
        self.coverage.push(SuiteStats::aggregate(name, functions));
    }
}

/// Runs all nine arms and aggregates the report.
pub fn run_campaign(cfg: CampaignConfig) -> CampaignReport {
    let fl = Fastlive::builder()
        .build()
        .expect("default facade build cannot fail");
    let mut ctx = Ctx {
        fl,
        cfg,
        findings: Vec::new(),
        coverage: Vec::new(),
    };
    let arms = vec![
        arm_generated(&mut ctx),
        arm_irreducible(&mut ctx),
        arm_dom_chains(&mut ctx),
        arm_massive(&mut ctx),
        arm_dup_edges(&mut ctx),
        arm_edits(&mut ctx),
        arm_persist(&mut ctx),
        arm_parser(&mut ctx),
        arm_roundtrip(&mut ctx),
    ];
    CampaignReport {
        arms,
        coverage: ctx.coverage,
        findings: ctx.findings,
    }
}

fn new_stats(name: &'static str) -> ArmStats {
    ArmStats {
        name,
        cases: 0,
        queries: 0,
        divergences: 0,
        skipped: 0,
    }
}

fn measure_module(acc: &mut Vec<FunctionStats>, module: &Module) {
    acc.extend(module.functions().iter().map(FunctionStats::measure));
}

// ---------------------------------------------------------------- arms

fn arm_generated(ctx: &mut Ctx) -> ArmStats {
    let mut stats = new_stats("generated");
    let mut cover = Vec::new();
    let (modules, funcs, max_blocks) = if ctx.cfg.quick {
        (5, 6, 28)
    } else {
        (16, 10, 48)
    };
    for i in 0..modules {
        let module = generate_module(
            &format!("gen{i}"),
            ModuleParams {
                functions: funcs,
                max_blocks,
                deep_live_per_mille: 250,
                ..ModuleParams::default()
            },
            ctx.cfg.seed.wrapping_add(i as u64),
        );
        measure_module(&mut cover, &module);
        ctx.check("generated", &mut stats, &module, 6);
    }
    ctx.measure("generated", &cover);
    stats
}

fn arm_irreducible(ctx: &mut Ctx) -> ArmStats {
    let mut stats = new_stats("irreducible");
    let mut cover = Vec::new();
    let mut rng = SplitMix64::new(ctx.cfg.seed ^ 0x1221);
    let (patho, hand) = if ctx.cfg.quick { (4, 3) } else { (12, 8) };
    for i in 0..patho {
        let blocks = 24 + 8 * i;
        let (func, landed) = pathological_irreducible(
            &format!("irr{i}"),
            blocks,
            ctx.cfg.seed.wrapping_mul(3).wrapping_add(i as u64),
        );
        if landed == 0 {
            stats.skipped += 1;
        }
        let mut module = Module::new();
        module.push(func);
        measure_module(&mut cover, &module);
        ctx.check("irreducible", &mut stats, &module, 8);
    }
    for i in 0..hand {
        let case = irreducible_double_entry(&format!("dbl{i}"), 1 + i, &mut rng);
        match case.to_module() {
            Ok(module) => {
                measure_module(&mut cover, &module);
                ctx.check("irreducible", &mut stats, &module, 8);
            }
            Err(_) => stats.skipped += 1,
        }
    }
    ctx.measure("irreducible", &cover);
    stats
}

fn arm_dom_chains(ctx: &mut Ctx) -> ArmStats {
    let mut stats = new_stats("dom_chains");
    let mut cover = Vec::new();
    let mut rng = SplitMix64::new(ctx.cfg.seed ^ 0xd0d0);
    let heights: &[usize] = if ctx.cfg.quick {
        &[16, 48, 96]
    } else {
        &[16, 64, 192, 384]
    };
    for (i, &h) in heights.iter().enumerate() {
        let case = dominator_ladder(&format!("ladder{i}"), h, &mut rng);
        match case.to_module() {
            Ok(module) => {
                measure_module(&mut cover, &module);
                ctx.check("dom_chains", &mut stats, &module, 10);
            }
            Err(_) => stats.skipped += 1,
        }
    }
    ctx.measure("dom_chains", &cover);
    stats
}

fn arm_massive(ctx: &mut Ctx) -> ArmStats {
    let mut stats = new_stats("massive");
    let mut cover = Vec::new();
    let sizes: &[usize] = if ctx.cfg.quick { &[160] } else { &[384, 512] };
    for (i, &blocks) in sizes.iter().enumerate() {
        let pre = generate_pre(
            &format!("huge{i}"),
            GenParams {
                target_blocks: blocks,
                loop_percent: 28,
                deep_live_percent: 20,
                ..GenParams::default()
            },
            ctx.cfg.seed ^ (0xb16 + i as u64),
        );
        let func = construct_ssa(&pre).expect("generator output is constructible");
        let mut module = Module::new();
        module.push(func);
        measure_module(&mut cover, &module);
        ctx.check("massive", &mut stats, &module, 4);
    }
    ctx.measure("massive", &cover);
    stats
}

fn arm_dup_edges(ctx: &mut Ctx) -> ArmStats {
    let mut stats = new_stats("dup_edges");
    let mut cover = Vec::new();
    let mut rng = SplitMix64::new(ctx.cfg.seed ^ 0xedce);
    let (bases, rounds) = if ctx.cfg.quick { (4, 4) } else { (10, 8) };
    for i in 0..bases {
        let module = generate_module(
            &format!("dup{i}"),
            ModuleParams {
                functions: 2,
                max_blocks: 24,
                ..ModuleParams::default()
            },
            ctx.cfg.seed ^ (0xe0 + i as u64),
        );
        let mut case = CaseFunc::from_function(module.func(0));
        for _ in 0..rounds {
            let mutated = if rng.chance(50) {
                duplicate_brif_edge(&case, &mut rng)
            } else {
                add_self_edge(&case, &mut rng)
            };
            match mutated {
                Mutated::Ok(next) => case = next,
                Mutated::Skipped(_) => {
                    stats.skipped += 1;
                    continue;
                }
            }
            match case.to_module() {
                Ok(m) => {
                    measure_module(&mut cover, &m);
                    ctx.check("dup_edges", &mut stats, &m, 6);
                }
                Err(_) => stats.skipped += 1,
            }
        }
    }
    ctx.measure("dup_edges", &cover);
    stats
}

/// Applies one round of in-place edits to every function: an
/// instruction insertion (analysis must stay exact with zero work), a
/// branch-argument swap to an entry-defined value, a jump-edge split
/// through a fresh block (a CFG edit the session must detect via the
/// version counter), one detached value (a result whose unused
/// defining instruction is removed again) and one orphaned block (a
/// block no branch reaches, holding a definition and the only use of
/// an entry constant). Then pushes a renamed clone of function 0 onto
/// the module, which the open sessions have no entry for. Returns how
/// many edits landed.
fn apply_edits(module: &mut Module, rng: &mut SplitMix64) -> usize {
    let mut applied = 0;
    for fi in 0..module.len() {
        let func = module.func_mut(fi);
        let entry = func.entry_block();

        // Instruction-level edit: a constant at the top of the entry.
        func.insert_inst(
            entry,
            0,
            InstData::IntConst {
                imm: rng.range(64) as i64,
            },
        );
        let fresh = Value::from_index(func.num_values() - 1);
        applied += 1;

        // Branch-argument swap: entry-defined values dominate every
        // edge, so the swap cannot break strict SSA.
        'swap: for b in 0..func.num_blocks() {
            let block = Block::from_index(b);
            let Some(term) = func.terminator(block) else {
                continue;
            };
            for (ti, call) in func.inst_data(term).branch_targets().enumerate() {
                if !call.args.is_empty() {
                    let ai = rng.index(call.args.len());
                    func.set_branch_arg(term, ti, ai, fresh);
                    applied += 1;
                    break 'swap;
                }
            }
        }

        // CFG edit: split a jump edge through a fresh middle block.
        let jumps: Vec<Block> = (0..func.num_blocks())
            .map(Block::from_index)
            .filter(|&b| {
                func.terminator(b)
                    .is_some_and(|t| matches!(func.inst_data(t), InstData::Jump { .. }))
            })
            .collect();
        if let Some(&b) = (!jumps.is_empty()).then(|| rng.pick(&jumps)) {
            let term = func.terminator(b).expect("picked a terminated block");
            let InstData::Jump { dest } = func.inst_data(term).clone() else {
                unreachable!("filtered on Jump");
            };
            let mid = func.add_block();
            func.append_inst(
                mid,
                InstData::Jump {
                    dest: BlockCall {
                        block: dest.block,
                        args: dest.args.clone(),
                    },
                },
            );
            func.redirect_branch_target(term, 0, mid, Vec::new());
            applied += 1;
        }

        // Detached value: dead everywhere, never initialized, and
        // refused by point queries on every arm. Draws nothing from
        // `rng`, so a seed's other edits stay what they always were.
        let dead = func.insert_inst(entry, 0, InstData::IntConst { imm: 0 });
        func.remove_inst(dead);
        applied += 1;

        // Orphaned block: unreachable from the entry, so its use keeps
        // nothing live and its definition interferes with nothing on
        // every arm. Draws nothing from `rng` either.
        let konst = func.insert_inst(entry, 0, InstData::IntConst { imm: 1 });
        let konst = func.inst_result(konst).expect("a constant defines a value");
        let param = func.params().first().copied().unwrap_or(konst);
        let orphan = func.add_block();
        let sum = func.append_inst(
            orphan,
            InstData::Binary {
                op: BinaryOp::Iadd,
                args: [konst, param],
            },
        );
        let sum = func.inst_result(sum).expect("an add defines a value");
        func.append_inst(orphan, InstData::Return { args: vec![sum] });
        applied += 1;
    }

    // A function pushed after the sessions opened. Draws nothing from
    // `rng` either.
    if let Some(first) = module.functions().first() {
        let mut pushed = first.clone();
        pushed.name = format!("{}_pushed{}", first.name, module.len());
        module.push(pushed);
        applied += 1;
    }
    applied
}

fn arm_edits(ctx: &mut Ctx) -> ArmStats {
    let mut stats = new_stats("edits");
    let mut cover = Vec::new();
    let mut rng = SplitMix64::new(ctx.cfg.seed ^ 0xed17);
    let modules = if ctx.cfg.quick { 4 } else { 10 };
    for i in 0..modules {
        let mut module = generate_module(
            &format!("edit{i}"),
            ModuleParams {
                functions: 3,
                max_blocks: 20,
                deep_live_per_mille: 300,
                ..ModuleParams::default()
            },
            ctx.cfg.seed ^ (0x1e0 + i as u64),
        );
        // Sessions opened ONCE, before any edit: both session arms must
        // track the module through every mutation below.
        let uncached = cacheless();
        let mut sessions = arm_sessions(&ctx.fl, &uncached, &module);
        for round in 0..3 {
            let mix = query_mix(&module, 4, ctx.cfg.seed ^ (round * 31 + i as u64));
            let runs: Vec<(String, Vec<_>)> = sessions
                .iter_mut()
                .map(|(label, s)| (label.clone(), s.run_queries(&module, &mix)))
                .collect();
            stats.cases += 1;
            stats.queries += mix.len();
            let divs = divergences_of(&mix, &runs);
            if !divs.is_empty() {
                stats.divergences += divs.len();
                let snapshot = module.clone();
                drop(runs);
                drop(sessions);
                ctx.report("edits", &snapshot, &divs);
                measure_module(&mut cover, &snapshot);
                // The sessions were poisoned by the failure; move on.
                break;
            }
            if apply_edits(&mut module, &mut rng) == 0 {
                stats.skipped += 1;
            }
        }
        measure_module(&mut cover, &module);
    }
    ctx.measure("edits", &cover);
    stats
}

fn op_kind(op: FaultOp) -> OpKind {
    match op {
        FaultOp::Read => OpKind::Read,
        FaultOp::Write => OpKind::Write,
        FaultOp::Rename => OpKind::Rename,
        FaultOp::Remove => OpKind::Remove,
        FaultOp::Metadata => OpKind::Metadata,
        FaultOp::ReadDir => OpKind::ReadDir,
        FaultOp::CreateDir => OpKind::CreateDir,
        FaultOp::Any => OpKind::Any,
    }
}

fn fault_of(spec: &FaultSpec) -> Fault {
    match spec {
        FaultSpec::Errno(e) => Fault::Errno(*e),
        FaultSpec::TornWrite(n) => Fault::TornWrite(*n),
        // Cap scripted delays: the campaign tests correctness under
        // slowness, not wall-clock endurance.
        FaultSpec::DelayMicros(us) => Fault::Delay(Duration::from_micros((*us).min(2_000))),
    }
}

fn arm_persist(ctx: &mut Ctx) -> ArmStats {
    let mut stats = new_stats("persist");
    let mut cover = Vec::new();
    let campaigns = generate_campaigns(
        CampaignParams {
            campaigns: if ctx.cfg.quick { 3 } else { 10 },
            functions: 4,
            max_blocks: 16,
            ..CampaignParams::default()
        },
        ctx.cfg.seed ^ 0x9e75,
    );
    for (i, c) in campaigns.iter().enumerate() {
        let module = generate_module(&c.name, c.module, c.module_seed);
        measure_module(&mut cover, &module);
        let mix = query_mix(&module, 4, ctx.cfg.seed ^ i as u64);
        let dir = std::env::temp_dir().join(format!("fastlive-fuzz-{}-{i}", std::process::id()));
        let rules: Vec<FaultRule> = c
            .events
            .iter()
            .map(|e| {
                FaultRule::window(
                    op_kind(e.op),
                    e.skip.min(usize::MAX as u64) as usize,
                    e.count.min(usize::MAX as u64) as usize,
                    fault_of(&e.fault),
                )
            })
            .collect();
        // Phase 1: query while the scripted faults fire. A refused
        // build is graceful degradation, not a divergence.
        match Fastlive::builder()
            .persist_dir(&dir)
            .vfs(Arc::new(FaultVfs::new(rules)))
            .build()
        {
            Ok(faulty) => {
                stats.cases += 1;
                stats.queries += mix.len();
                let divs = check_module(&faulty, &module, &mix);
                if !divs.is_empty() {
                    stats.divergences += divs.len();
                    ctx.report("persist", &module, &divs);
                }
            }
            Err(_) => stats.skipped += 1,
        }
        // Phase 2: reopen the same persist dir on a healthy disk — the
        // round-trip through whatever survived must still agree.
        match Fastlive::builder().persist_dir(&dir).build() {
            Ok(healthy) => {
                stats.cases += 1;
                stats.queries += mix.len();
                let divs = check_module(&healthy, &module, &mix);
                if !divs.is_empty() {
                    stats.divergences += divs.len();
                    ctx.report("persist", &module, &divs);
                }
            }
            Err(_) => {
                if !c.expect_persistent_failure {
                    stats.skipped += 1;
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    ctx.measure("persist", &cover);
    stats
}

/// One fuzz input for the parser arm: raw bytes, token soup, or a
/// mutation of valid module text.
fn parser_input(rng: &mut SplitMix64, valid: &str) -> String {
    const VOCAB: &[&str] = &[
        "func",
        "%",
        "v0",
        "v1",
        "v9999999999",
        "block0",
        "block1",
        ":",
        "=",
        "(",
        ")",
        ",",
        "{",
        "}",
        "iconst",
        "copy",
        "iadd",
        "icmp_slt",
        "brif",
        "jump",
        "return",
        "->",
        "\"",
        "\\",
        "0",
        "1",
        "-9223372036854775808",
        " ",
        "\n",
        "\t",
        ";",
        "#",
    ];
    match rng.index(3) {
        0 => {
            let len = rng.index(200);
            (0..len)
                .map(|_| {
                    if rng.chance(85) {
                        (0x20 + rng.index(0x5f) as u8) as char
                    } else {
                        char::from_u32(rng.next_u64() as u32 % 0xd7ff).unwrap_or('\u{fffd}')
                    }
                })
                .collect()
        }
        1 => {
            let len = rng.index(80);
            let mut out = String::new();
            for _ in 0..len {
                out.push_str(rng.pick::<&str>(VOCAB));
                if rng.chance(40) {
                    out.push(' ');
                }
            }
            out
        }
        _ => {
            let mut bytes = valid.as_bytes().to_vec();
            if bytes.is_empty() {
                return String::new();
            }
            match rng.index(3) {
                0 => bytes.truncate(rng.index(bytes.len())),
                1 => {
                    let i = rng.index(bytes.len());
                    bytes[i] = (0x20 + rng.index(0x5f)) as u8;
                }
                _ => {
                    let i = rng.index(bytes.len());
                    let j = i + rng.index(bytes.len() - i);
                    let splice = bytes[i..j].to_vec();
                    let at = rng.index(bytes.len());
                    bytes.splice(at..at, splice);
                }
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
    }
}

/// Valid module text under edits the lexer ignores: some spaces widen
/// into runs of blanks (space, tab, U+00A0, U+2003), some lines gain a
/// `;` comment, and some end in CRLF. Every such input parses by
/// construction, to the same module as `valid`.
fn benign_input(rng: &mut SplitMix64, valid: &str) -> String {
    const BLANKS: &[&str] = &[" ", "\t", "\u{a0}", "\u{2003}"];
    let mut out = String::with_capacity(2 * valid.len());
    for c in valid.chars() {
        match c {
            ' ' if rng.chance(30) => {
                for _ in 0..=rng.index(3) {
                    out.push_str(rng.pick::<&str>(BLANKS));
                }
            }
            '\n' => {
                if rng.chance(20) {
                    out.push_str(" ; ignored");
                }
                out.push_str(if rng.chance(50) { "\r\n" } else { "\n" });
            }
            c => out.push(c),
        }
    }
    out
}

fn arm_parser(ctx: &mut Ctx) -> ArmStats {
    let mut stats = new_stats("parser");
    let mut cover = Vec::new();
    let mut rng = SplitMix64::new(ctx.cfg.seed ^ 0xbabb1e);
    let inputs = if ctx.cfg.quick { 300 } else { 2_000 };
    let valid = module_text(&generate_module(
        "seedtext",
        ModuleParams {
            functions: 2,
            max_blocks: 12,
            ..ModuleParams::default()
        },
        ctx.cfg.seed,
    ));
    // Hostile inputs mostly fail to parse; the benign ones, drawn from
    // a stream of their own, always parse, so the fixpoint check below
    // runs in every campaign.
    let mut texts: Vec<String> = (0..inputs)
        .map(|_| parser_input(&mut rng, &valid))
        .collect();
    let mut benign_rng = SplitMix64::new(ctx.cfg.seed ^ 0xb1a4c);
    texts.extend((0..inputs / 10).map(|_| benign_input(&mut benign_rng, &valid)));
    // The parser must be total; a panic here is a finding, and the
    // default hook's backtrace spam would bury the report.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for input in texts {
        stats.cases += 1;
        match catch_unwind(AssertUnwindSafe(|| parse_module(&input))) {
            Ok(Ok(module)) => {
                // Accepted inputs must round-trip to a fixpoint.
                let printed = module_text(&module);
                match parse_module(&printed) {
                    Ok(again) if module_text(&again) == printed => {
                        measure_module(&mut cover, &module);
                    }
                    _ => {
                        stats.divergences += 1;
                        ctx.findings.push(Finding {
                            arm: "parser",
                            detail: "accepted input failed print→parse fixpoint".into(),
                            reproducer: input,
                        });
                    }
                }
            }
            Ok(Err(_)) => {}
            Err(_) => {
                stats.divergences += 1;
                ctx.findings.push(Finding {
                    arm: "parser",
                    detail: "parse_module panicked".into(),
                    reproducer: input,
                });
            }
        }
    }
    std::panic::set_hook(prev_hook);
    ctx.measure("parser", &cover);
    stats
}

fn arm_roundtrip(ctx: &mut Ctx) -> ArmStats {
    let mut stats = new_stats("roundtrip");
    let mut cover = Vec::new();
    let modules = if ctx.cfg.quick { 6 } else { 20 };
    for i in 0..modules {
        let module = generate_module(
            &format!("rt{i}"),
            ModuleParams {
                functions: 4,
                max_blocks: 20,
                irreducible_per_mille: 300,
                ..ModuleParams::default()
            },
            ctx.cfg.seed ^ (0x77 + i as u64),
        );
        stats.cases += 1;
        // The documented contract (tests/parser_roundtrip.rs): the
        // first print∘parse *normalizes* entity numbering; from then
        // on printing must be a fixed point.
        let printed = module_text(&module);
        let reparsed = match parse_module(&printed) {
            Ok(m) => m,
            Err(e) => {
                stats.divergences += 1;
                ctx.findings.push(Finding {
                    arm: "roundtrip",
                    detail: format!("printed module failed to re-parse: {e}"),
                    reproducer: printed,
                });
                continue;
            }
        };
        let normalized = module_text(&reparsed);
        match parse_module(&normalized) {
            Ok(again) if module_text(&again) == normalized => {}
            _ => {
                stats.divergences += 1;
                ctx.findings.push(Finding {
                    arm: "roundtrip",
                    detail: "normalized print→parse→print is not a fixpoint".into(),
                    reproducer: normalized,
                });
                continue;
            }
        }
        measure_module(&mut cover, &reparsed);
        // The reparsed module must satisfy the differential invariant
        // with the same answers its origin gives.
        ctx.check("roundtrip", &mut stats, &reparsed, 4);
    }
    ctx.measure("roundtrip", &cover);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CI gate in miniature: a tiny deterministic campaign over a
    /// healthy workspace finds nothing.
    #[test]
    fn quick_campaign_is_clean() {
        let report = run_campaign(CampaignConfig {
            seed: 9,
            quick: true,
        });
        assert_eq!(report.arms.len(), 9);
        for arm in &report.arms {
            assert!(arm.cases > 0, "arm {} ran no cases", arm.name);
            assert_eq!(
                arm.divergences,
                0,
                "arm {} diverged: {:?}",
                arm.name,
                report
                    .findings
                    .iter()
                    .map(|f| &f.detail)
                    .collect::<Vec<_>>()
            );
        }
        assert!(report.findings.is_empty());
        assert_eq!(report.coverage.len(), 9);
        let parser = report.coverage.iter().find(|c| c.name == "parser");
        assert!(
            parser.is_some_and(|c| c.procedures > 0),
            "the parser arm accepted no input"
        );
    }

    /// Benign edits never change what the text parses to.
    #[test]
    fn benign_parser_inputs_parse_to_the_seed_module() {
        let valid = module_text(&generate_module("seedtext", ModuleParams::default(), 9));
        let seed_module = module_text(&parse_module(&valid).expect("printed text parses"));
        let mut rng = SplitMix64::new(0xb1a4c);
        for _ in 0..20 {
            let input = benign_input(&mut rng, &valid);
            let module = parse_module(&input).expect("benign edits parse");
            assert_eq!(module_text(&module), seed_module);
        }
    }
}
