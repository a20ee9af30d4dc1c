//! Pluggable liveness engines for the destruction pass, all speaking
//! the workspace-wide [`LivenessProvider`] interface of
//! `fastlive-core`.
//!
//! The trait used to live here as a destruct-private `BlockLiveness`;
//! it is now [`fastlive_core::LivenessProvider`] — block *and* program-
//! point queries — so the pass, the benchmarks and any other client
//! swap engines behind one interface. All engines must implement the
//! same semantics (Definitions 1–3 of the paper) so the pass makes
//! identical decisions regardless of the engine — the benches then
//! compare pure engine cost on an identical query stream.

use std::collections::HashMap;
use std::sync::Arc;

use fastlive_core::{FunctionLiveness, LivenessProvider, PointError};
use fastlive_dataflow::{IterativeLiveness, LaoLiveness};
use fastlive_graph::Cfg as _;
use fastlive_ir::{Block, Function, ProgramPoint, Value};

/// The paper's checker as a destruction engine. Queries read the
/// live def-use chains, so values created mid-pass need **no special
/// handling whatsoever** — the headline property under test.
///
/// The analysis handle is shared ([`Arc`]): the module-level driver in
/// `fastlive-engine` hands every CFG-identical function one cached
/// precomputation instead of recomputing per function.
#[derive(Clone, Debug)]
pub struct CheckerEngine(pub Arc<FunctionLiveness>);

impl CheckerEngine {
    /// Precomputes the checker for `func` (post edge-splitting).
    pub fn compute(func: &Function) -> Self {
        CheckerEngine(Arc::new(FunctionLiveness::compute(func)))
    }

    /// Wraps an already-computed (possibly cached and shared) analysis
    /// — the reuse hook for `fastlive-engine`'s fingerprint cache.
    pub fn from_shared(live: Arc<FunctionLiveness>) -> Self {
        CheckerEngine(live)
    }
}

impl LivenessProvider for CheckerEngine {
    fn live_in(&mut self, func: &Function, v: Value, b: Block) -> bool {
        self.0.is_live_in(func, v, b)
    }
    fn live_out(&mut self, func: &Function, v: Value, b: Block) -> bool {
        self.0.is_live_out(func, v, b)
    }
    fn live_at(&mut self, func: &Function, v: Value, p: ProgramPoint) -> Result<bool, PointError> {
        // Same decomposition as the trait default; routed through the
        // inherent method so the two entry points cannot drift. (The
        // genuinely slower variant is
        // `fastlive_core::baseline::is_live_at_chain_walk`, kept only
        // as the executable spec and bench baseline.)
        self.0.is_live_at(func, v, p)
    }
    fn name(&self) -> &'static str {
        "new (Boissinot et al.)"
    }
}

/// A set-based baseline as a destruction engine: the solved analysis
/// `B` answers for the values it was solved over, and a per-value
/// patch-up walk answers for the rest.
///
/// The precomputed sets know nothing about values created mid-pass;
/// like LAO, the engine patches liveness for new names on demand
/// (here: an exact per-value backward walk, memoized). Stale entries
/// for *old* values whose uses were rewritten stay over-approximate —
/// which is conservative (at worst an extra copy), and precisely the
/// maintenance burden §1 of the paper attributes to set-based
/// liveness. Point queries come from the trait's default decomposition
/// over the patched block answers.
#[derive(Clone, Debug)]
pub struct PatchedEngine<B> {
    base: B,
    known_values: usize,
    /// Values whose precomputed sets went stale (uses rewritten).
    overridden: std::collections::HashSet<Value>,
    /// Lazily computed (live-in blocks, live-out blocks) for new or
    /// overridden values.
    patched: HashMap<Value, (Vec<bool>, Vec<bool>)>,
}

/// The LAO-style baseline (sorted-array sets over φ-related values).
pub type NativeEngine = PatchedEngine<LaoLiveness>;

/// The plain bit-vector iterative solver; a third reference point for
/// the ablation benchmarks.
pub type BitvecEngine = PatchedEngine<IterativeLiveness>;

impl<B: LivenessProvider> PatchedEngine<B> {
    /// Wraps a solved analysis; `func` determines which values the
    /// base analysis can answer for.
    pub fn new(base: B, func: &Function) -> Self {
        PatchedEngine {
            base,
            known_values: func.num_values(),
            overridden: std::collections::HashSet::new(),
            patched: HashMap::new(),
        }
    }

    fn needs_patch(&self, v: Value) -> bool {
        v.index() >= self.known_values || self.overridden.contains(&v)
    }
}

impl<B: LivenessProvider> LivenessProvider for PatchedEngine<B> {
    fn live_in(&mut self, func: &Function, v: Value, b: Block) -> bool {
        if self.needs_patch(v) {
            patch_walk(&mut self.patched, func, v).0[b.index()]
        } else {
            self.base.live_in(func, v, b)
        }
    }
    fn live_out(&mut self, func: &Function, v: Value, b: Block) -> bool {
        if self.needs_patch(v) {
            patch_walk(&mut self.patched, func, v).1[b.index()]
        } else {
            self.base.live_out(func, v, b)
        }
    }
    fn invalidate_value(&mut self, _func: &Function, v: Value) {
        self.overridden.insert(v);
        self.patched.remove(&v);
    }
    fn name(&self) -> &'static str {
        self.base.name()
    }
}

/// The per-value patch-up walk (see [`PatchedEngine`]).
fn patch_walk<'a>(
    cache: &'a mut HashMap<Value, (Vec<bool>, Vec<bool>)>,
    func: &Function,
    v: Value,
) -> &'a (Vec<bool>, Vec<bool>) {
    cache.entry(v).or_insert_with(|| {
        let n = func.num_blocks();
        let mut live_in = vec![false; n];
        let mut live_out = vec![false; n];
        let def = func.def_block(v);
        let mut stack: Vec<Block> = Vec::new();
        for &site in func.uses(v) {
            let u = func.inst_block(site).expect("use site removed");
            if u != def && !live_in[u.index()] {
                live_in[u.index()] = true;
                stack.push(u);
            }
        }
        while let Some(b) = stack.pop() {
            for &p in func.preds(b.as_u32()) {
                live_out[p as usize] = true;
                let pb = Block::from_index(p as usize);
                if pb != def && !live_in[p as usize] {
                    live_in[p as usize] = true;
                    stack.push(pb);
                }
            }
        }
        (live_in, live_out)
    })
}
