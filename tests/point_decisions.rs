//! Decision-equivalence of the point-precise refactor (ISSUE 3
//! acceptance): SSA destruction driven by the core fast point path
//! must make **byte-identical** copy-insertion decisions to the same
//! pass driven by the chain-walk shim it replaced — same output
//! program, same query stream, same counters — on reducible and
//! goto-injected irreducible workloads.

use fastlive::core::{baseline, FunctionLiveness, LivenessProvider, PointError};
use fastlive::destruct::{destruct_ssa, CheckerEngine, DestructResult};
use fastlive::ir::{Block, Function, ProgramPoint, Value};
use fastlive::workload::{generate_function, generate_pre, inject_gotos, GenParams};

/// The pre-refactor query procedure as an engine: block queries from
/// the checker, point queries through
/// [`baseline::is_live_at_chain_walk`] — the per-use
/// `inst_position` walk that used to live in
/// `crates/destruct/src/interference.rs`.
struct ShimEngine(FunctionLiveness);

impl LivenessProvider for ShimEngine {
    fn live_in(&mut self, func: &Function, v: Value, b: Block) -> bool {
        self.0.is_live_in(func, v, b)
    }
    fn live_out(&mut self, func: &Function, v: Value, b: Block) -> bool {
        self.0.is_live_out(func, v, b)
    }
    fn live_at(&mut self, func: &Function, v: Value, p: ProgramPoint) -> Result<bool, PointError> {
        baseline::is_live_at_chain_walk(&self.0, func, v, p)
    }
    fn name(&self) -> &'static str {
        "chain-walk shim (pre-refactor)"
    }
}

/// Returns the number of point queries the run issued (so callers can
/// assert the workloads exercised the path under test at all).
fn assert_identical_decisions(ssa: Function, label: &str) -> usize {
    let fast: DestructResult = destruct_ssa(ssa.clone(), CheckerEngine::compute);
    let shim: DestructResult = destruct_ssa(ssa, |f| ShimEngine(FunctionLiveness::compute(f)));
    // Byte-identical output program (copies in the same places, same
    // fresh values, same branch arguments).
    assert_eq!(
        fast.func.to_string(),
        shim.func.to_string(),
        "{label}: destructed programs diverged"
    );
    assert_eq!(
        format!("{:?}", fast.classes),
        format!("{:?}", shim.classes),
        "{label}: φ-congruence classes diverged"
    );
    // Identical query streams (same decisions in the same order) and
    // identical counters.
    assert_eq!(fast.stats.queries, shim.stats.queries, "{label}");
    assert_eq!(
        fast.stats.copies_inserted, shim.stats.copies_inserted,
        "{label}"
    );
    assert_eq!(
        fast.stats.interference_tests, shim.stats.interference_tests,
        "{label}"
    );
    assert_eq!(
        fast.stats.fallback_phis, shim.stats.fallback_phis,
        "{label}"
    );
    fast.stats
        .queries
        .iter()
        .filter(|q| q.point().is_some())
        .count()
}

#[test]
fn fast_path_and_shim_destruct_identically_on_reducible_workloads() {
    let mut point_queries = 0;
    for seed in 0..25u64 {
        let params = GenParams {
            target_blocks: 8 + (seed as usize % 5) * 8,
            num_params: 1 + (seed % 4) as u32,
            ..GenParams::default()
        };
        let (_, ssa) = generate_function(&format!("dec{seed}"), params, seed);
        point_queries += assert_identical_decisions(ssa, &format!("seed {seed}"));
    }
    // The workloads must actually exercise the path under test.
    assert!(
        point_queries > 100,
        "only {point_queries} point queries across all seeds"
    );
}

#[test]
fn fast_path_and_shim_destruct_identically_on_irreducible_workloads() {
    use fastlive::construct::construct_ssa;

    let mut exercised = 0;
    let mut point_queries = 0;
    for seed in 500..530u64 {
        let params = GenParams {
            target_blocks: 20,
            ..GenParams::default()
        };
        let mut pre = generate_pre(&format!("decirr{seed}"), params, seed);
        if inject_gotos(&mut pre, 3, seed) == 0 {
            continue;
        }
        let Ok(ssa) = construct_ssa(&pre) else {
            continue;
        };
        point_queries += assert_identical_decisions(ssa, &format!("irreducible seed {seed}"));
        exercised += 1;
    }
    assert!(
        exercised >= 10,
        "only {exercised} goto-injected programs survived"
    );
    assert!(
        point_queries > 0,
        "irreducible workloads issued no point queries"
    );
}
