//! The differential core: deterministic query mixes and the
//! backend-agreement check.
//!
//! The workspace invariant under test is the facade's: every arm — the
//! cached session ([`BackendKind::Session`]), a cache-less session
//! (the same backend on an engine built with `cache_capacity(0)`) and
//! the oracle ([`BackendKind::Oracle`]) — answers the same [`Query`]
//! with a byte-identical `Result<Response, QueryError>`, including the
//! *error* cases, because a backend that refuses a query its siblings
//! answer is as diverged as one that flips a liveness bit.

use std::fmt::Write as _;

use fastlive::{
    BackendKind, Fastlive, FastliveSession, PointRef, Query, QueryEngine, QueryError, Response,
};
use fastlive_ir::{Block, Module, Value};
use fastlive_workload::SplitMix64;

/// One disagreement between backends on one query.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The exact diverging query.
    pub query: Query,
    /// `(backend label, rendered answer)`, in the order the backends
    /// ran; at least two entries differ.
    pub answers: Vec<(String, String)>,
}

impl Divergence {
    /// A one-paragraph human rendering for reports and reproducer
    /// headers.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "query {:?} diverged:", self.query);
        for (label, answer) in &self.answers {
            let _ = write!(out, " {label}={answer};");
        }
        out
    }
}

/// Renders an answer compactly (whole-function set responses are
/// summarized, not dumped).
fn render_answer(r: &Result<Response, QueryError>) -> String {
    match r {
        Ok(Response::Sets(sets)) => {
            let ins: usize = sets.live_in.iter().map(Vec::len).sum();
            let outs: usize = sets.live_out.iter().map(Vec::len).sum();
            let mut digest: u64 = 0xcbf29ce484222325;
            for set in sets.live_in.iter().chain(sets.live_out.iter()) {
                for v in set {
                    digest = (digest ^ v.index() as u64).wrapping_mul(0x100000001b3);
                }
                digest = (digest ^ 0xff).wrapping_mul(0x100000001b3);
            }
            format!("Sets(in={ins}, out={outs}, digest={digest:016x})")
        }
        Ok(other) => format!("{other:?}"),
        Err(e) => format!("Err({e})"),
    }
}

/// The printed text of a whole module — what reproducers and findings
/// carry (parseable back via `parse_module`).
pub fn module_text(module: &Module) -> String {
    let mut out = String::new();
    for func in module.functions() {
        out.push_str(&func.to_string());
        out.push('\n');
    }
    out
}

/// A deterministic query mix over every function of the module:
/// `per_func` block probes of each polarity, point probes at entry /
/// before / after positions, interference pairs, one whole-function
/// set request, a couple of name-addressed probes (exercising the
/// resolution plane) and a couple of deliberately invalid references
/// (the error answers must agree too).
pub fn query_mix(module: &Module, per_func: usize, seed: u64) -> Vec<Query> {
    let mut rng = SplitMix64::new(seed ^ 0x71e5_3a11);
    // The nullness-family arms draw from their own stream so adding
    // them did not (and future arms need not) reshuffle the liveness
    // probes a given seed has always produced.
    let mut nrng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut queries = Vec::new();
    for (id, func) in module.iter() {
        let nv = func.num_values();
        let nb = func.num_blocks();
        if nv == 0 || nb == 0 {
            continue;
        }
        let rv = |rng: &mut SplitMix64| Value::from_index(rng.index(nv));
        let rb = |rng: &mut SplitMix64| Block::from_index(rng.index(nb));
        for _ in 0..per_func {
            queries.push(Query::live_in(id, rv(&mut rng), rb(&mut rng)));
            queries.push(Query::live_out(id, rv(&mut rng), rb(&mut rng)));
        }
        for _ in 0..per_func.div_ceil(2) {
            let b = rb(&mut rng);
            let n = func.block_insts(b).len();
            let point = match rng.index(3) {
                0 => PointRef::entry(b),
                1 => PointRef::before(b, rng.index(n.max(1))),
                _ => PointRef::after(b, rng.index(n.max(1))),
            };
            queries.push(Query::live_at(id, rv(&mut rng), point));
        }
        for _ in 0..per_func.div_ceil(2) {
            queries.push(Query::interfere(id, rv(&mut rng), rv(&mut rng)));
        }
        // Nullness-family arms: the second analysis rides the same
        // differential invariant — facts at definitions and
        // definite-initialization probes at random blocks.
        for _ in 0..per_func.div_ceil(2) {
            queries.push(Query::nullness(id, rv(&mut nrng)));
            queries.push(Query::definitely_init(id, rv(&mut nrng), rb(&mut nrng)));
        }
        queries.push(Query::live_sets(id));
        // Name-addressed probes: printed names are dense on any parsed
        // or generated function, so `v{i}`/`block{i}` resolve to the
        // same entities the id probes address.
        let v = rv(&mut rng);
        let b = rb(&mut rng);
        queries.push(Query::live_in(
            func.name.clone(),
            format!("v{}", v.index()),
            format!("block{}", b.index()),
        ));
        // Invalid references: every backend must refuse identically.
        queries.push(Query::live_in(id, Value::from_index(nv + 7), rb(&mut rng)));
        queries.push(Query::live_out(id, rv(&mut rng), "block999999"));
        queries.push(Query::nullness(id, Value::from_index(nv + 13)));
        queries.push(Query::definitely_init(id, rv(&mut nrng), "block999999"));
        queries.push(Query::live_at(
            id,
            rv(&mut rng),
            PointRef::before(rb(&mut rng), 100_000),
        ));
    }
    queries.push(Query::live_sets("no_such_function_anywhere"));
    queries
}

/// Collects the positions where answer vectors disagree (the first
/// run is the baseline). Exposed so arms that must hold sessions open
/// across module edits can diff their own runs.
pub fn divergences_of(
    queries: &[Query],
    runs: &[(String, Vec<Result<Response, QueryError>>)],
) -> Vec<Divergence> {
    let mut out = Vec::new();
    let (_, baseline) = &runs[0];
    for (i, query) in queries.iter().enumerate() {
        if runs.iter().any(|(_, run)| run[i] != baseline[i]) {
            out.push(Divergence {
                query: query.clone(),
                answers: runs
                    .iter()
                    .map(|(label, run)| (label.clone(), render_answer(&run[i])))
                    .collect(),
            });
        }
    }
    out
}

/// The facade of the cache-less arm: the engine with its shape cache
/// off, so every session computes its own per-function analyses.
pub(crate) fn cacheless() -> Fastlive {
    Fastlive::builder()
        .cache_capacity(0)
        .build()
        .expect("a cache-less facade is a valid configuration")
}

/// The three differential arms over `module`, labelled: the session on
/// `fl`, the session on `cacheless` and the oracle.
pub(crate) fn arm_sessions<'f>(
    fl: &'f Fastlive,
    cacheless: &'f Fastlive,
    module: &Module,
) -> Vec<(String, FastliveSession<'f>)> {
    vec![
        (
            "Session".to_string(),
            fl.session_with(module, BackendKind::Session),
        ),
        (
            "Cacheless".to_string(),
            cacheless.session_with(module, BackendKind::Session),
        ),
        (
            "Oracle".to_string(),
            fl.session_with(module, BackendKind::Oracle),
        ),
    ]
}

/// Runs the mix through the three differential arms and reports every
/// disagreement. Empty result = the differential invariant held.
pub fn check_module(fl: &Fastlive, module: &Module, queries: &[Query]) -> Vec<Divergence> {
    let cacheless = cacheless();
    let runs: Vec<(String, Vec<Result<Response, QueryError>>)> =
        arm_sessions(fl, &cacheless, module)
            .into_iter()
            .map(|(label, mut session)| (label, session.run_queries(module, queries)))
            .collect();
    divergences_of(queries, &runs)
}

/// Diffs one external engine (e.g. the intentionally broken one the
/// shrinker self-test seeds) against the oracle backend.
pub fn check_against_oracle(
    fl: &Fastlive,
    engine: &mut dyn QueryEngine,
    module: &Module,
    queries: &[Query],
) -> Vec<Divergence> {
    let mut oracle = fl.session_with(module, BackendKind::Oracle);
    let runs = vec![
        ("Oracle".to_string(), oracle.run_queries(module, queries)),
        (
            engine.backend_name().to_string(),
            engine.run_queries(module, queries),
        ),
    ];
    divergences_of(queries, &runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastlive_workload::{generate_module, ModuleParams};

    #[test]
    fn mix_is_deterministic_and_backends_agree() {
        let module = generate_module(
            "mix",
            ModuleParams {
                functions: 3,
                max_blocks: 16,
                deep_live_per_mille: 500,
                ..ModuleParams::default()
            },
            21,
        );
        let a = query_mix(&module, 4, 9);
        let b = query_mix(&module, 4, 9);
        assert_eq!(a, b, "same seed, same mix");
        let fl = Fastlive::builder().build().expect("default build");
        assert!(check_module(&fl, &module, &a).is_empty());
    }

    #[test]
    fn invalid_references_get_identical_errors() {
        let module = generate_module(
            "err",
            ModuleParams {
                functions: 1,
                max_blocks: 8,
                ..ModuleParams::default()
            },
            3,
        );
        let queries = vec![
            Query::live_in(0usize, Value::from_index(10_000), Block::from_index(0)),
            Query::live_sets("missing"),
        ];
        let fl = Fastlive::builder().build().expect("default build");
        assert!(check_module(&fl, &module, &queries).is_empty());
    }
}
