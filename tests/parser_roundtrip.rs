//! Printer/parser round-trips on generated functions, plus verifier
//! integration.

use fastlive::core::verify_strict_ssa;
use fastlive::ir::{interp, parse_function, verify_structure, Function};
use fastlive::workload::{generate_function, GenParams, SplitMix64};

/// Parsing renumbers entities densely in textual order, so the first
/// print∘parse normalizes; from then on it must be a fixed point, and
/// the program's behaviour must never change.
fn assert_round_trips(f: &Function, seed: u64) {
    let printed = f.to_string();
    let once = parse_function(&printed).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{printed}"));
    verify_structure(&once).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    verify_strict_ssa(&once).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    let normalized = once.to_string();
    let twice =
        parse_function(&normalized).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{normalized}"));
    assert_eq!(
        twice.to_string(),
        normalized,
        "seed {seed}: not a fixed point"
    );

    // Semantics survive the round trip.
    let mut rng = SplitMix64::new(seed ^ 0x0f00d);
    for _ in 0..3 {
        let args: Vec<i64> = (0..f.params().len())
            .map(|_| rng.range(30) as i64 - 15)
            .collect();
        let a = interp::run(f, &args, 2_000_000).expect("original runs");
        let b = interp::run(&once, &args, 2_000_000).expect("reparsed runs");
        assert_eq!(a.returned, b.returned, "seed {seed} args {args:?}");
    }
}

#[test]
fn print_parse_normalizes_then_fixes() {
    for seed in 0..25u64 {
        let params = GenParams {
            target_blocks: 6 + (seed as usize % 6) * 6,
            ..GenParams::default()
        };
        let (_, f) = generate_function(&format!("rt{seed}"), params, seed);
        assert_round_trips(&f, seed);
    }
}

#[test]
fn destructed_functions_round_trip_too() {
    use fastlive::destruct::{destruct_ssa, CheckerEngine};
    for seed in 50..60u64 {
        let params = GenParams {
            target_blocks: 15,
            ..GenParams::default()
        };
        let (_, f) = generate_function(&format!("drt{seed}"), params, seed);
        let result = destruct_ssa(f, CheckerEngine::compute);
        // The post-copy-insertion function still parses and verifies.
        assert_round_trips(&result.func, seed);
    }
}

/// Round-trip regressions found (or guarded against) by the fuzz
/// harness's `roundtrip` arm: names needing escaping, terminator-only
/// blocks, zero- and multi-value returns, extreme literals, self/dup
/// edges, and layouts whose textual order differs from dominance order.
#[test]
fn roundtrip_regressions_pin_edge_shapes() {
    use fastlive::parse_module;

    let sources = [
        // Names that must be quoted/escaped by the printer.
        "function %\"\" { block0: return }",
        "function %\"with space\" { block0: return }",
        "function %\"quote\\\"backslash\\\\tab\\t\" { block0: return }",
        // Terminator-only blocks and empty/multi returns.
        "function %t { block0: brif v0, block1, block2
            block0(v0): jump block0 }",
        "function %r { block0(v0, v1): return v0, v1, v0 }",
        "function %v { block0: return }",
        // Extreme integer literals.
        "function %k { block0: v0 = iconst -9223372036854775808
            v1 = iconst 9223372036854775807
            return v0, v1 }",
        // Self edge with args and a duplicate-target brif.
        "function %s { block0(v0): brif v0, block0(v0), block0(v0) }",
        // Use textually before def (layout order != dominance order).
        "function %fwd { block0(v0): jump block2(v0)
            block1: return v1
            block2(v1): jump block1 }",
    ];
    for src in sources {
        // The middle case is deliberately malformed (block0 twice) —
        // skip sources that don't parse; everything that parses must
        // reach a printed fixed point.
        let Ok(m) = parse_module(src) else { continue };
        let printed = m.to_string();
        let again = parse_module(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        assert_eq!(again.to_string(), printed, "not a fixed point:\n{src}");
    }
}

/// Arbitrary bytes must produce `Err`, never a panic or a hang — the
/// parser-totality satellite's seed cases (each found by the byte-fuzz
/// arm or by inspection of the old panicking/spinning paths).
#[test]
fn parser_is_total_on_adversarial_input() {
    let cases = [
        "function %f (",                    // used to spin at Eof
        "function %f (v0",                  // same loop, mid-list
        "function %\"unterminated",         // unterminated string
        "function %\"bad\\u{ffffffffff}\"", // over-long \u escape
        "function %f { block0: v0 = iconst 999999999999999999999\n return }",
        "function %f { block0: return } }", // trailing garbage
        "function %f { block0(block0): return }",
        "function %f { block0(v0)(v1): return }",
        "\u{0}\u{1}\u{2}",
        "%%%%",
    ];
    for src in cases {
        assert!(
            fastlive::parse_module(src).is_err(),
            "expected a parse error for {src:?}"
        );
    }
}

#[test]
fn parse_errors_carry_positions() {
    let cases = [
        ("function %f { block0: return v1 }", "undefined value"),
        ("function %f { block0: v1 = bogus v1 }", "unknown opcode"),
        ("function %f { block0: v1 = iconst 1 }", "terminator"),
        ("function %f { block0: jump block9 }", "never defined"),
    ];
    for (src, needle) in cases {
        let err = parse_function(src).unwrap_err();
        assert!(
            err.to_string().contains(needle),
            "error for {src:?} should mention {needle:?}, got: {err}"
        );
        assert!(err.line >= 1 && err.col >= 1);
    }
}

/// A module shaped like the benchmark's `serve` module — twelve
/// functions of 64–128 blocks, alternately goto-injected and deep-live
/// — is a print∘parse fixed point, and every unit numbers its values
/// afresh: block parameters, then instruction results, in textual
/// order. (The parser's entity maps reset per unit.)
#[test]
fn serve_shaped_module_round_trips_with_per_unit_numbering() {
    use fastlive::ir::Module;
    use fastlive::parse_module;
    use fastlive::workload::{generate_module, ModuleParams};

    let mut module = Module::new();
    for i in 0..12 {
        let blocks = 64 + i * 64 / 11;
        let params = ModuleParams {
            functions: 1,
            min_blocks: blocks,
            max_blocks: blocks,
            irreducible_per_mille: if i % 2 == 0 { 1000 } else { 0 },
            deep_live_per_mille: if i % 4 < 2 { 1000 } else { 0 },
        };
        let seed = 0x9e37_79b9_7f4a_7c15 ^ i as u64;
        module.push(generate_module(&format!("f{i}"), params, seed).functions()[0].clone());
    }
    let parsed = parse_module(&module.to_string()).expect("generated module parses");
    let printed = parsed.to_string();
    let reparsed = parse_module(&printed).expect("printed module reparses");
    assert_eq!(reparsed.to_string(), printed, "not a fixed point");

    assert_eq!(parsed.len(), 12);
    for (f, orig) in parsed.functions().iter().zip(module.functions()) {
        assert_eq!(f.name, orig.name);
        assert_eq!(f.num_blocks(), orig.num_blocks());
        let mut next = 0;
        for b in f.blocks() {
            let results = f.block_insts(b).iter().filter_map(|&i| f.inst_result(i));
            for v in f.block_params(b).iter().copied().chain(results) {
                assert_eq!(v.index(), next, "{}: {v} out of textual order", f.name);
                next += 1;
            }
        }
        assert_eq!(
            next,
            f.num_values(),
            "{}: a value slot was never bound",
            f.name
        );
    }
}
