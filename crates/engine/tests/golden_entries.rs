//! Golden persisted entries: a liveness and a nullness entry for each
//! function of `golden/cases.fl`, encoded once and committed as bytes.
//!
//! The round-trip suites encode and decode with the same binary, so a
//! DFS or dominance-preorder numbering that changed between versions
//! passes them: the new build reads its own files correctly and would
//! revive an older build's CRC-valid entries in the wrong number
//! space. These files pin the numbering across versions. Every
//! committed entry must decode, revive, and answer every probe exactly
//! as a fresh compute does, and re-encoding a fresh compute must
//! reproduce the committed bytes.
//!
//! The cases are a nested loop, a self-loop, a `brif` with both edges
//! to one block, an unreachable block, a goto-injected irreducible CFG
//! (`generate_pre` with 24 target blocks and `inject_gotos(_, 3, 8)`,
//! seed 8) and a 111-block generated function (`generate_function`
//! with 110 target blocks, seed 1), printed and committed as text so
//! that a generator change cannot move them.
//!
//! A deliberate `FORMAT_VERSION` bump rewrites the entries with
//! `cargo test -p fastlive-engine --test golden_entries -- --ignored`.

use std::path::PathBuf;

use fastlive_cfg::{DfsTree, DomTree, Reducibility};
use fastlive_core::{FunctionLiveness, NullnessArtifact};
use fastlive_engine::persist::{decode_artifact, encode_artifact, FORMAT_VERSION};
use fastlive_engine::{AnalysisArtifact, CfgShape};
use fastlive_graph::Cfg;
use fastlive_ir::{parse_module, Function, Module};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn cases() -> Module {
    let text =
        std::fs::read_to_string(golden_dir().join("cases.fl")).expect("cases.fl is committed");
    parse_module(&text).expect("cases.fl parses")
}

fn entry_path(func: &Function, kind: &str) -> PathBuf {
    golden_dir().join(format!("{}.{kind}.flpc", func.name))
}

fn read_entry(func: &Function, kind: &str) -> Vec<u8> {
    let path = entry_path(func, kind);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The cases cover the shapes they are named after.
#[test]
fn cases_have_the_shapes_they_name() {
    let module = cases();
    let names: Vec<&str> = module.iter().map(|(_, f)| f.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "loop",
            "self_loop",
            "brif_same_target",
            "unreachable_block",
            "irreducible",
            "generated"
        ]
    );
    let func = |name: &str| module.func(module.by_name(name).expect("case exists"));
    let trees = |f: &Function| {
        let dfs = DfsTree::compute(f);
        let dom = DomTree::compute(f, &dfs);
        (dfs, dom)
    };
    let (dfs, dom) = trees(func("irreducible"));
    assert!(!Reducibility::compute(&dfs, &dom).is_reducible());
    assert!(!trees(func("unreachable_block")).0.all_reachable());
    assert!(trees(func("self_loop")).0.back_edges().contains(&(1, 1)));
    assert_eq!(func("brif_same_target").succs(0), &[1, 1]);
    assert!(func("generated").num_blocks() >= 100);
}

#[test]
fn committed_entries_revive_exactly_and_reencode_to_the_same_bytes() {
    assert_eq!(
        FORMAT_VERSION, 2,
        "a format bump must regenerate the golden entries"
    );
    for (_, func) in cases().iter() {
        let name = &func.name;
        let shape = CfgShape::of(func);
        let live_bytes = read_entry(func, "liveness");
        let null_bytes = read_entry(func, "nullness");
        let live: FunctionLiveness = decode_artifact(&shape, &live_bytes)
            .unwrap_or_else(|| panic!("{name}: committed liveness entry must revive"));
        let null: NullnessArtifact = decode_artifact(&shape, &null_bytes)
            .unwrap_or_else(|| panic!("{name}: committed nullness entry must revive"));
        let fresh_live = <FunctionLiveness as AnalysisArtifact>::compute(&shape);
        let fresh_null = <NullnessArtifact as AnalysisArtifact>::compute(&shape);

        let (facts, fresh_facts) = (null.solve(func), fresh_null.solve(func));
        for v in func.values() {
            assert_eq!(facts.of(v), fresh_facts.of(v), "{name}: nullness of {v}");
            assert_eq!(
                null.fact_split_blocks(func, v),
                fresh_null.fact_split_blocks(func, v),
                "{name}: fact split blocks of {v}"
            );
            for b in func.blocks() {
                assert_eq!(
                    live.is_live_in(func, v, b),
                    fresh_live.is_live_in(func, v, b),
                    "{name}: live-in {v} at {b}"
                );
                assert_eq!(
                    live.is_live_out(func, v, b),
                    fresh_live.is_live_out(func, v, b),
                    "{name}: live-out {v} at {b}"
                );
                assert_eq!(
                    null.definitely_initialized_at_entry(func, v, b),
                    fresh_null.definitely_initialized_at_entry(func, v, b),
                    "{name}: definite init of {v} at {b}"
                );
            }
        }

        assert!(
            encode_artifact(&shape, &fresh_live) == live_bytes,
            "{name}: a fresh liveness compute no longer encodes to the committed bytes"
        );
        assert!(
            encode_artifact(&shape, &fresh_null) == null_bytes,
            "{name}: a fresh nullness compute no longer encodes to the committed bytes"
        );
    }
}

/// Rewrites every committed entry from a fresh compute. Run only when
/// the format changes on purpose (see the module docs).
#[test]
#[ignore = "rewrites the committed golden entries"]
fn regenerate_golden_entries() {
    for (_, func) in cases().iter() {
        let shape = CfgShape::of(func);
        let live = <FunctionLiveness as AnalysisArtifact>::compute(&shape);
        let null = <NullnessArtifact as AnalysisArtifact>::compute(&shape);
        std::fs::write(entry_path(func, "liveness"), encode_artifact(&shape, &live))
            .expect("golden dir is writable");
        std::fs::write(entry_path(func, "nullness"), encode_artifact(&shape, &null))
            .expect("golden dir is writable");
    }
}
