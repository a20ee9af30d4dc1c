//! Allocation counts of the CFG kernels: each kernel the engine runs
//! on a revive, a cold precompute, a nullness compute or a batch
//! live-set pass must allocate a fixed number of times per call,
//! whatever the block count. A
//! kernel that grows a per-node `Vec` or pushes into an unsized buffer
//! allocates (or reallocates) more often on a 512-block shape than on
//! a 16-block one, and fails here.
//!
//! The binary installs a counting global allocator that counts per
//! thread, so the test threads of this binary do not see each other's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fastlive_cfg::{DfsTree, DomTree};
use fastlive_core::{BatchLiveness, FunctionLiveness, LivenessChecker, NullnessArtifact};
use fastlive_engine::persist::{decode_artifact, encode_artifact};
use fastlive_engine::CfgShape;
use fastlive_graph::{Cfg, DiGraph, NodeId};
use fastlive_workload::random_digraph;

/// Counts allocations, zeroed allocations and reallocations of the
/// calling thread, and forwards every call to the system allocator.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread's locals are torn down;
    // nothing is being measured then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread local without a destructor, so counting
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation of this binary goes through this type).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and reallocations made by `f` on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

/// The canonical graph of a random CFG with `n` blocks: a spanning
/// backbone plus `n / 2` random edges, so there are loops, cross
/// edges and (for 512 blocks) irreducible regions.
fn shape(n: u32) -> CfgShape {
    CfgShape::of(&random_digraph(n, 0x5eed ^ u64::from(n), n as usize / 2))
}

/// `kernel`'s allocation count on the 16-block and the 512-block
/// shape; the two must be equal.
fn assert_fixed(what: &str, kernel: impl Fn(&CfgShape, &DiGraph) -> u64) {
    let counts = [16, 512].map(|n| {
        let shape = shape(n);
        let graph = shape.to_graph();
        kernel(&shape, &graph)
    });
    assert_eq!(
        counts[0], counts[1],
        "{what}: {} allocations at 16 blocks, {} at 512",
        counts[0], counts[1]
    );
}

#[test]
fn canonical_graph_construction() {
    assert_fixed("CfgShape::to_graph", |shape, _| {
        allocations(|| shape.to_graph())
    });
}

#[test]
fn dfs_and_dominator_trees() {
    assert_fixed("DfsTree::compute + DomTree::compute", |_, g| {
        allocations(|| {
            let dfs = DfsTree::compute(g);
            let dom = DomTree::compute(g, &dfs);
            (dfs, dom)
        })
    });
}

#[test]
fn liveness_entry_decode_and_revive() {
    assert_fixed("decode_artifact::<FunctionLiveness>", |shape, g| {
        let live = FunctionLiveness::from_checker(LivenessChecker::compute(g));
        let bytes = encode_artifact(shape, &live);
        allocations(|| {
            decode_artifact::<FunctionLiveness>(shape, &bytes).expect("own encoding revives")
        })
    });
}

#[test]
fn nullness_revive() {
    assert_fixed("NullnessArtifact::from_parts", |_, g| {
        let df = NullnessArtifact::compute(g).df().clone();
        allocations(|| NullnessArtifact::from_parts(g, df).expect("dimensions fit"))
    });
}

#[test]
fn cold_computes() {
    assert_fixed("LivenessChecker::compute", |_, g| {
        allocations(|| LivenessChecker::compute(g))
    });
    assert_fixed("NullnessArtifact::compute", |_, g| {
        allocations(|| NullnessArtifact::compute(g))
    });
}

#[test]
fn batch_pass() {
    assert_fixed("BatchLiveness::compute", |_, g| {
        let live = LivenessChecker::compute(g);
        // One variable per block, defined there and used at each of the
        // block's successors.
        let defs: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        let uses: Vec<(u32, NodeId)> = defs
            .iter()
            .flat_map(|&b| g.succs(b).iter().map(move |&s| (b, s)))
            .collect();
        allocations(|| BatchLiveness::compute(g, &live, &defs, &uses).expect("valid input"))
    });
}
