use fastlive_bitset::DenseBitSet;
use fastlive_graph::Cfg as _;
use fastlive_ir::{Block, Function, Value};

use crate::universe::VarUniverse;

/// Per-variable SSA liveness by backward marking — the algorithm the
/// paper's related work (§7) attributes to Appel & Palsberg's textbook:
///
/// > "It then uses the def-use chain to search all blocks lying on
/// > paths from the variable's definition to a use. The variable must
/// > be marked live at each of these blocks. Since it uses the def-use
/// > chain, there is no need to traverse the instructions inside a
/// > basic block. Hence, the algorithm's runtime corresponds exactly to
/// > the number of set insertion operations."
///
/// For each variable: start from every use block (Definition-1
/// attribution, so φ-uses start at predecessors), mark it live-in, and
/// walk predecessors — marking live-out on the way — until the defining
/// block stops the walk. As §7 notes, the *results* are ordinary live
/// sets and are invalidated by program edits just like data-flow
/// results; the value of this engine here is as an independently-derived
/// cross-check and a per-variable cost model.
///
/// The input must have every block reachable from the entry: the walk
/// marks unreachable predecessors too, so on an orphaned block it would
/// not follow the workspace's unreachable-code rule (`fastlive_core`'s
/// crate docs).
///
/// # Examples
///
/// ```
/// use fastlive_dataflow::{AppelLiveness, VarUniverse};
/// use fastlive_ir::parse_function;
///
/// let f = parse_function(
///     "function %f { block0(v0): jump block1  block1: return v0 }",
/// )?;
/// let live = AppelLiveness::compute(&f, &VarUniverse::all(&f));
/// let v0 = f.params()[0];
/// assert!(live.is_live_in(v0, f.block_by_index(1)));
/// assert!(live.is_live_out(v0, f.entry_block()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct AppelLiveness {
    live_in: Vec<DenseBitSet>,
    live_out: Vec<DenseBitSet>,
    universe: VarUniverse,
    /// Set insertions performed (the algorithm's natural cost metric).
    pub set_insertions: usize,
}

impl AppelLiveness {
    /// Marks liveness for every variable of the universe.
    pub fn compute(func: &Function, universe: &VarUniverse) -> Self {
        let n_blocks = func.num_blocks();
        let n_vars = universe.len();
        let mut live_in: Vec<DenseBitSet> =
            (0..n_blocks).map(|_| DenseBitSet::new(n_vars)).collect();
        let mut live_out: Vec<DenseBitSet> =
            (0..n_blocks).map(|_| DenseBitSet::new(n_vars)).collect();
        let mut insertions = 0usize;

        let mut stack: Vec<Block> = Vec::new();
        for (i, &v) in universe.values().iter().enumerate() {
            let i = i as u32;
            let def = func.def_block(v);
            stack.clear();
            for &site in func.uses(v) {
                let u = func.inst_block(site).expect("use site removed");
                // A use in the defining block is not upward-exposed.
                if u != def && live_in[u.index()].insert(i) {
                    insertions += 1;
                    stack.push(u);
                }
            }
            while let Some(b) = stack.pop() {
                for &p in func.preds(b.as_u32()) {
                    let pb = Block::from_index(p as usize);
                    if live_out[pb.index()].insert(i) {
                        insertions += 1;
                    }
                    if pb != def && live_in[pb.index()].insert(i) {
                        insertions += 1;
                        stack.push(pb);
                    }
                }
            }
        }

        AppelLiveness {
            live_in,
            live_out,
            universe: universe.clone(),
            set_insertions: insertions,
        }
    }

    /// Is `v` live-in at `b`? Untracked variables report `false`.
    pub fn is_live_in(&self, v: Value, b: Block) -> bool {
        self.universe
            .index_of(v)
            .is_some_and(|i| self.live_in[b.index()].contains(i))
    }

    /// Is `v` live-out at `b`? Untracked variables report `false`.
    pub fn is_live_out(&self, v: Value, b: Block) -> bool {
        self.universe
            .index_of(v)
            .is_some_and(|i| self.live_out[b.index()].contains(i))
    }
}

/// The Appel & Palsberg per-variable walker behind the workspace-wide
/// query interface (point queries via the default decomposition).
impl fastlive_core::LivenessProvider for AppelLiveness {
    fn live_in(&mut self, _func: &Function, v: Value, b: Block) -> bool {
        AppelLiveness::is_live_in(self, v, b)
    }
    fn live_out(&mut self, _func: &Function, v: Value, b: Block) -> bool {
        AppelLiveness::is_live_out(self, v, b)
    }
    fn name(&self) -> &'static str {
        "per-variable walk (Appel–Palsberg)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IterativeLiveness;
    use fastlive_ir::parse_function;

    #[test]
    fn agrees_with_iterative_solver() {
        let sources = [
            "function %loop { block0(v0):
                v1 = iconst 0
                jump block1(v1)
            block1(v2):
                v3 = iconst 1
                v4 = iadd v2, v3
                v5 = icmp_slt v4, v0
                brif v5, block1(v4), block2
            block2:
                return v4 }",
            "function %nested { block0(v0):
                jump block1(v0)
            block1(v1):
                jump block2(v1)
            block2(v2):
                v3 = icmp_slt v2, v1
                brif v3, block2(v2), block3
            block3:
                v4 = icmp_eq v1, v0
                brif v4, block1(v4), block4
            block4:
                return v2 }",
        ];
        for src in sources {
            let f = parse_function(src).unwrap();
            let u = VarUniverse::all(&f);
            let appel = AppelLiveness::compute(&f, &u);
            let iter = IterativeLiveness::compute(&f, &u);
            for v in f.values() {
                for b in f.blocks() {
                    assert_eq!(
                        appel.is_live_in(v, b),
                        iter.is_live_in(v, b),
                        "{}: live-in({v}, {b})",
                        f.name
                    );
                    assert_eq!(
                        appel.is_live_out(v, b),
                        iter.is_live_out(v, b),
                        "{}: live-out({v}, {b})",
                        f.name
                    );
                }
            }
            assert!(appel.set_insertions > 0);
        }
    }
}
