//! Every committed corpus case imports, verifies strict SSA, and
//! holds the facade differential invariant: the cached session, a
//! cache-less session and the oracle answer a mixed query load
//! byte-identically.

use std::fs;
use std::path::PathBuf;

use fastlive::Fastlive;
use fastlive_core::verify_strict_ssa;
use fastlive_fuzz::diff::{check_module, query_mix};
use fastlive_fuzz::import::import_auto;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

#[test]
fn every_corpus_case_imports_and_backends_agree() {
    let fl = Fastlive::builder().build().expect("default build");
    let mut cases = Vec::new();
    let mut entries: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("corpus/ exists at the workspace root")
        .map(|e| e.expect("readable corpus entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let fname = path
            .file_name()
            .expect("corpus files have names")
            .to_string_lossy()
            .into_owned();
        if fname.ends_with(".md") {
            continue;
        }
        let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{fname}: {e}"));
        let module = import_auto(&fname, &src).unwrap_or_else(|e| panic!("{fname}: {e}"));
        assert!(!module.is_empty(), "{fname}: imported an empty module");
        for func in module.functions() {
            verify_strict_ssa(func)
                .unwrap_or_else(|e| panic!("{fname}: {} fails strict SSA: {e}", func.name));
        }
        let mix = query_mix(&module, 8, 0xc0ffee);
        let divergences = check_module(&fl, &module, &mix);
        assert!(
            divergences.is_empty(),
            "{fname}: backends diverged: {:?}",
            divergences.iter().map(|d| d.render()).collect::<Vec<_>>()
        );
        cases.push(fname);
    }
    assert!(
        cases.len() >= 8,
        "corpus unexpectedly small ({} cases): {cases:?}",
        cases.len()
    );
}

#[test]
fn nullness_corpus_cases_exercise_joins_and_loop_carry() {
    // The two nullness-focused cases must stay non-trivial: the
    // merge-point case joins disagreeing facts into Maybe (and keeps
    // agreeing Null facts Null), and the loop case carries an
    // initially-Null fact around a back edge until it widens.
    use fastlive::Nullness;
    let fl = Fastlive::builder().build().expect("default build");

    let src = fs::read_to_string(corpus_dir().join("nullness_merge_join.fl")).expect("case");
    let module = import_auto("nullness_merge_join.fl", &src).expect("imports");
    let mut s = fl.session(&module);
    // v3 = 0+0 stays Null; v4 = 0+7 is NonNull; their join v5 is Maybe.
    assert_eq!(s.nullness_of(&module, 0usize, "v3"), Ok(Nullness::Null));
    assert_eq!(s.nullness_of(&module, 0usize, "v4"), Ok(Nullness::NonNull));
    assert_eq!(s.nullness_of(&module, 0usize, "v5"), Ok(Nullness::Maybe));
    // v6 joins NonNull (v2) with Null (v1) into Maybe; v7 joins
    // Null with Null and stays Null through the merge.
    assert_eq!(s.nullness_of(&module, 0usize, "v6"), Ok(Nullness::Maybe));
    assert_eq!(s.nullness_of(&module, 0usize, "v7"), Ok(Nullness::Null));

    let src = fs::read_to_string(corpus_dir().join("nullness_loop_carry.fl")).expect("case");
    let module = import_auto("nullness_loop_carry.fl", &src).expect("imports");
    let mut s = fl.session(&module);
    // The loop param starts Null (first iteration) and joins the
    // loop-carried Maybe — the fixpoint must widen, not stay Null.
    assert_eq!(s.nullness_of(&module, 0usize, "v2"), Ok(Nullness::Maybe));
    // v4 is defined in the loop header, which dominates the exit;
    // v6 is defined in the body, which does not.
    assert_eq!(
        s.is_definitely_init(&module, 0usize, "v4", "block3"),
        Ok(true)
    );
    assert_eq!(
        s.is_definitely_init(&module, 0usize, "v6", "block3"),
        Ok(false)
    );
}

#[test]
fn corpus_shapes_cover_irreducibility() {
    // At least one committed case must actually be irreducible — the
    // whole point of carrying real CFG shapes.
    use fastlive_cfg::{DfsTree, DomTree, Reducibility};
    let mut irreducible = 0usize;
    for path in fs::read_dir(corpus_dir()).expect("corpus dir") {
        let path = path.expect("entry").path();
        let fname = path.file_name().unwrap().to_string_lossy().into_owned();
        if fname.ends_with(".md") {
            continue;
        }
        let src = fs::read_to_string(&path).expect("readable");
        let module = import_auto(&fname, &src).expect("corpus case imports");
        for func in module.functions() {
            let dfs = DfsTree::compute(func);
            let dom = DomTree::compute(func, &dfs);
            let red = Reducibility::compute(&dfs, &dom);
            if !red.irreducible_back_edges().is_empty() {
                irreducible += 1;
            }
        }
    }
    assert!(irreducible >= 2, "expected irreducible corpus coverage");
}
