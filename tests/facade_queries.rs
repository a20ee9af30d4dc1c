//! Unit coverage for the facade's typed query layer: every
//! `QueryError` variant, every `BuildError` variant, the name/id
//! addressing equivalence, and the builder's persistence-GC flag.

use fastlive::ir::{InstData, UnaryOp};
use fastlive::{
    parse_module, BackendKind, Block, BuildError, Fastlive, Nullness, PointRef, Query, QueryError,
    Response, Value,
};

const SRC: &str = "function %count { block0(v0):
     v1 = iconst 0
     jump block1(v1)
 block1(v2):
     v3 = iconst 1
     v4 = iadd v2, v3
     v5 = icmp_slt v4, v0
     brif v5, block1(v4), block2
 block2:
     return v4 }
 function %id { block0(v0): return v0 }";

fn fl() -> Fastlive {
    Fastlive::builder()
        .threads(1)
        .build()
        .expect("valid config")
}

/// The engine with its shape cache off — the differential suites'
/// cache-less arm.
fn cacheless() -> Fastlive {
    Fastlive::builder()
        .threads(1)
        .cache_capacity(0)
        .build()
        .expect("valid config")
}

#[test]
fn unknown_function_by_name_and_id() {
    let module = parse_module(SRC).unwrap();
    let f = fl();
    let mut s = f.session(&module);
    let err = s
        .query(&module, &Query::live_sets("nope"))
        .expect_err("unknown name");
    assert_eq!(err, QueryError::UnknownFunction("nope".into()));
    assert!(err.to_string().contains("unknown function"), "{err}");
    let err = s
        .query(&module, &Query::live_sets(99usize))
        .expect_err("out-of-range id");
    assert_eq!(err, QueryError::UnknownFunction(99usize.into()));
}

#[test]
fn unknown_value_name_malformed_and_out_of_range() {
    let module = parse_module(SRC).unwrap();
    let f = fl();
    let mut s = f.session(&module);
    for bad in ["v99", "x1", "v"] {
        let err = s
            .query(&module, &Query::live_in("count", bad, "block1"))
            .expect_err("unknown value");
        assert!(
            matches!(&err, QueryError::UnknownValue { func, .. } if func == "count"),
            "{err:?}"
        );
        assert!(err.to_string().contains("unknown value"), "{err}");
    }
    // Out-of-range id form.
    let err = s
        .query(
            &module,
            &Query::live_out("count", Value::from_index(999), "block1"),
        )
        .expect_err("out-of-range value id");
    assert!(matches!(err, QueryError::UnknownValue { .. }), "{err:?}");
}

#[test]
fn unknown_block_name_malformed_and_out_of_range() {
    let module = parse_module(SRC).unwrap();
    let f = fl();
    let mut s = f.session(&module);
    for bad in ["block9", "foo", "block"] {
        let err = s
            .query(&module, &Query::live_in("count", "v0", bad))
            .expect_err("unknown block");
        assert!(
            matches!(&err, QueryError::UnknownBlock { func, .. } if func == "count"),
            "{err:?}"
        );
        assert!(err.to_string().contains("unknown block"), "{err}");
    }
    let err = s
        .query(
            &module,
            &Query::live_in("count", "v0", Block::from_index(42)),
        )
        .expect_err("out-of-range block id");
    assert!(matches!(err, QueryError::UnknownBlock { .. }), "{err:?}");
}

#[test]
fn point_on_missing_instruction() {
    let module = parse_module(SRC).unwrap();
    let f = fl();
    let mut s = f.session(&module);
    // block2 holds exactly one instruction (the return).
    let err = s
        .query(
            &module,
            &Query::live_at("count", "v4", PointRef::after("block2", 5)),
        )
        .expect_err("no instruction 5");
    assert_eq!(
        err,
        QueryError::MissingInstruction {
            func: "count".into(),
            block: Block::from_index(2),
            inst: 5,
            num_insts: 1,
        }
    );
    assert!(err.to_string().contains("no instruction 5"), "{err}");
    // The entry point of a block never needs an instruction.
    assert!(s
        .query(
            &module,
            &Query::live_at("count", "v0", PointRef::entry("block1"))
        )
        .is_ok());
}

#[test]
fn detached_definition_surfaces_per_backend() {
    let mut module = parse_module(SRC).unwrap();
    let count = module.by_name("count").unwrap();
    let b0 = module.func(count).entry_block();
    let dead = module
        .func_mut(count)
        .insert_inst(b0, 0, InstData::IntConst { imm: 7 });
    let dv = module.func(count).inst_result(dead).unwrap();
    module.func_mut(count).remove_inst(dead);
    let func = module.func(count);

    // All seven kinds: a detached value is dead everywhere, in no live
    // set, never initialized and of unknown nullness; only the
    // point-granularity kinds refuse it.
    let mut probes = vec![
        (
            Query::nullness(count, dv),
            Ok(Response::Nullness(Nullness::Maybe)),
        ),
        (
            Query::live_at(count, dv, PointRef::entry("block1")),
            Err(QueryError::DetachedDefinition(dv)),
        ),
        (
            Query::interfere(count, dv, "v0"),
            Err(QueryError::DetachedDefinition(dv)),
        ),
    ];
    for b in func.blocks() {
        probes.push((Query::live_in(count, dv, b), Ok(Response::Live(false))));
        probes.push((Query::live_out(count, dv, b), Ok(Response::Live(false))));
        probes.push((
            Query::definitely_init(count, dv, b),
            Ok(Response::Init(false)),
        ));
    }
    // Two set requests, so the planner also takes its row-pass path.
    let mut queries: Vec<Query> = probes.iter().map(|(q, _)| q.clone()).collect();
    queries.push(Query::live_sets(count));
    queries.push(Query::live_sets("count"));
    // A dense batch that never names the detached value still builds
    // rows over every value of the function.
    let dense: Vec<Query> = func
        .values()
        .filter(|&v| v != dv)
        .flat_map(|v| func.blocks().map(move |b| Query::live_in(count, v, b)))
        .collect();

    let (cached, uncached) = (fl(), cacheless());
    let mut dense_answers = Vec::new();
    for (f, kind) in [
        (&cached, BackendKind::Session),
        (&uncached, BackendKind::Session),
        (&cached, BackendKind::Oracle),
    ] {
        let arm = format!("{kind:?} cache={}", f.config().cache_capacity);
        let mut s = f.session_with(&module, kind);
        let planned = s.run_queries(&module, &queries);
        let scalar: Vec<_> = queries.iter().map(|q| s.query(&module, q)).collect();
        assert_eq!(planned, scalar, "{arm}: planned vs scalar");
        for ((query, want), got) in probes.iter().zip(&planned) {
            assert_eq!(got, want, "{arm}: {query:?}");
        }
        for sets in planned[probes.len()..].iter() {
            let sets = sets.as_ref().expect("live sets answer");
            let sets = sets.as_sets().expect("Sets response");
            assert!(
                !sets
                    .live_in
                    .iter()
                    .chain(&sets.live_out)
                    .any(|set| set.contains(&dv)),
                "{arm}: detached value in a live set"
            );
        }
        let err = s
            .query(&module, &Query::interfere(count, dv, "v0"))
            .expect_err("detached definition under interference");
        assert!(err.to_string().contains("removed"), "{err}");
        let answers = s.run_queries(&module, &dense);
        assert!(answers.iter().all(Result::is_ok), "{arm}: dense batch");
        dense_answers.push(answers);
    }
    assert_eq!(dense_answers[0], dense_answers[1], "cached vs cache-less");
    assert_eq!(dense_answers[0], dense_answers[2], "session vs oracle");
}

#[test]
fn builder_validation_failures() {
    // GC policy without a store to sweep.
    let err = Fastlive::builder()
        .gc(10, None)
        .build()
        .expect_err("gc needs persist_dir");
    assert_eq!(err, BuildError::GcWithoutPersistDir);
    assert!(err.to_string().contains("persist_dir"), "{err}");

    // Persist path squatted by a regular file.
    let file = std::env::temp_dir().join(format!("fastlive-notadir-{}", std::process::id()));
    std::fs::write(&file, b"squatter").unwrap();
    let err = Fastlive::builder()
        .persist_dir(&file)
        .build()
        .expect_err("persist path is a file");
    assert_eq!(err, BuildError::PersistDirNotADirectory(file.clone()));
    assert!(err.to_string().contains("not a directory"), "{err}");
    std::fs::remove_file(&file).ok();

    // And the valid shapes of the same knobs build fine; the
    // capacity reaches the engine as configured.
    assert!(Fastlive::builder().cache_capacity(0).build().is_ok());
    let small = Fastlive::builder().cache_capacity(4).build().unwrap();
    assert_eq!(small.config().cache_capacity, 4);
}

#[test]
fn builder_gc_flag_prunes_the_store_and_degrades_cleanly() {
    let dir = std::env::temp_dir().join(format!("fastlive-facade-gc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let module = parse_module(SRC).unwrap();

    // Populate: two functions, two distinct shapes, two entries.
    let writer = Fastlive::builder()
        .threads(1)
        .persist_dir(&dir)
        .build()
        .unwrap();
    let _ = writer.session(&module);
    assert_eq!(writer.engine().cache_stats().disk_misses, 2);

    // Rebuild with the gc flag: the sweep runs at build() and prunes
    // to one entry; the fresh engine then pays one disk hit and one
    // clean disk-miss recomputation — same answers either way.
    let pruned = Fastlive::builder()
        .threads(1)
        .persist_dir(&dir)
        .gc(1, None)
        .build()
        .unwrap();
    let mut session = pruned.session(&module);
    let stats = pruned.engine().cache_stats();
    assert_eq!(stats.disk_hits, 1, "{stats:?}");
    assert_eq!(stats.disk_misses, 1, "{stats:?}");
    assert_eq!(stats.disk_rejects, 0, "{stats:?}");
    assert!(session
        .is_live_in(&module, "count", "v0", "block1")
        .unwrap());

    // The recorded policy is re-runnable on demand.
    let stats = pruned.gc_persist(None).expect("policy + store configured");
    assert_eq!(stats.retained, 1);
    // Without a policy or override, there is nothing to run.
    assert_eq!(writer.gc_persist(None), None);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn nullness_queries_answer_and_fail_like_liveness_ones() {
    let module = parse_module(SRC).unwrap();
    let (f, uncached) = (fl(), cacheless());
    for (arm, kind) in [
        (&f, BackendKind::Session),
        (&uncached, BackendKind::Session),
        (&f, BackendKind::Oracle),
    ] {
        let mut s = arm.session_with(&module, kind);
        // v1 = iconst 0 is definitely null; v3 = iconst 1 non-null;
        // v4 = v2 + v3 joins Null/NonNull facts over the loop header.
        assert_eq!(
            s.nullness_of(&module, "count", "v1").unwrap(),
            fastlive::Nullness::Null,
            "{kind:?}"
        );
        assert_eq!(
            s.nullness_of(&module, "count", "v3").unwrap(),
            fastlive::Nullness::NonNull,
            "{kind:?}"
        );
        // v2 (block1's param) is defined at the loop header, so it is
        // definitely initialized at block2 but not at block0.
        assert!(s
            .is_definitely_init(&module, "count", "v2", "block2")
            .unwrap());
        assert!(!s
            .is_definitely_init(&module, "count", "v2", "block0")
            .unwrap());

        // The error surface matches the liveness family.
        let err = s
            .query(&module, &Query::nullness("nope", "v0"))
            .expect_err("unknown function");
        assert_eq!(err, QueryError::UnknownFunction("nope".into()));
        let err = s
            .query(&module, &Query::nullness("count", "v99"))
            .expect_err("unknown value");
        assert!(matches!(err, QueryError::UnknownValue { .. }), "{err:?}");
        let err = s
            .query(&module, &Query::definitely_init("count", "v0", "block9"))
            .expect_err("unknown block");
        assert!(matches!(err, QueryError::UnknownBlock { .. }), "{err:?}");
    }

    // Response accessors on the new variants.
    let mut s = f.session(&module);
    let fact = s.query(&module, &Query::nullness("count", "v1")).unwrap();
    assert_eq!(fact.as_nullness(), Some(fastlive::Nullness::Null));
    assert!(fact.as_bool().is_none());
    let init = s
        .query(&module, &Query::definitely_init("count", "v1", "block2"))
        .unwrap();
    assert_eq!(init.as_bool(), Some(true));
    assert!(init.as_nullness().is_none());
}

/// A planned nullness batch over two functions of a fresh session
/// probes the engine for nullness only: liveness is resident from
/// `analyze`, so the prefetch warms the two nullness artifacts (two
/// misses) and each function's first query adopts one (two hits).
#[test]
fn planned_nullness_batch_probes_the_engine_for_nullness_only() {
    let module = parse_module(SRC).unwrap();
    let f = fl();
    let mut s = f.session(&module);
    let probes = || {
        let stats = f.engine().cache_stats();
        (stats.hits + stats.misses + stats.dedup_hits, stats.misses)
    };
    let before = probes();
    let batch = [Query::nullness("count", "v1"), Query::nullness("id", "v0")];
    let answers = s.run_queries(&module, &batch);
    assert!(answers.iter().all(Result::is_ok), "{answers:?}");
    let after = probes();
    assert_eq!((after.0 - before.0, after.1 - before.1), (4, 2));
}

#[test]
fn name_and_id_addressing_are_interchangeable() {
    let module = parse_module(SRC).unwrap();
    let count = module.by_name("count").unwrap();
    let v0 = module.func(count).params()[0];
    let b1 = module.func(count).block_by_index(1);
    let f = fl();
    let mut s = f.session(&module);
    let by_name = s.query(&module, &Query::live_in("count", "v0", "block1"));
    let by_id = s.query(&module, &Query::live_in(count, v0, b1));
    assert_eq!(by_name, by_id);
    assert_eq!(by_name, Ok(Response::Live(true)));
}

#[test]
fn response_accessors() {
    let module = parse_module(SRC).unwrap();
    let f = fl();
    let mut s = f.session(&module);
    let live = s
        .query(&module, &Query::live_in("count", "v0", "block1"))
        .unwrap();
    assert_eq!(live.as_bool(), Some(true));
    assert!(live.as_sets().is_none());
    let sets = s.query(&module, &Query::live_sets("count")).unwrap();
    assert!(sets.as_bool().is_none());
    let sets = sets.as_sets().expect("Sets response");
    assert_eq!(sets.live_in.len(), module.func(0).num_blocks());
    // v0 (the loop bound) is live-in at block1 per the sets too.
    let v0 = module.func(0).params()[0];
    assert!(sets.live_in[1].contains(&v0));
}

#[test]
fn typed_conveniences_and_engine_session_access() {
    let mut module = parse_module(SRC).unwrap();
    let f = fl();
    let mut s = f.session(&module);
    assert_eq!(s.backend_name(), "session");
    assert!(s.is_live_in(&module, "count", "v0", "block1").unwrap());
    assert!(s.is_live_out(&module, "count", "v4", "block1").unwrap());
    assert!(s
        .is_live_at(&module, "count", "v4", PointRef::after("block1", 1))
        .unwrap());
    assert!(s.values_interfere(&module, "count", "v0", "v2").unwrap());
    assert!(!s.values_interfere(&module, "count", "v1", "v4").unwrap());
    let sets = s.live_sets(&module, "count").unwrap();
    assert_eq!(sets.live_out.len(), 3);

    // The engine session stays reachable for epoch accounting, and the
    // facade preserves its revalidation semantics: an instruction edit
    // changes answers without a recomputation.
    assert_eq!(s.engine_session().expect("session backend").epoch(0), 0);
    let b2 = module.func(0).block_by_index(2);
    let v0 = module.func(0).params()[0];
    module.func_mut(0).insert_inst(
        b2,
        0,
        InstData::Unary {
            op: UnaryOp::Ineg,
            arg: v0,
        },
    );
    assert!(s.is_live_in(&module, "count", "v0", "block2").unwrap());
    assert_eq!(s.engine_session().unwrap().epoch(0), 0, "no CFG change");
    assert_eq!(
        f.session_with(&module, BackendKind::Oracle)
            .engine_session()
            .map(|_| ()),
        None,
        "the oracle exposes no engine session"
    );
}
