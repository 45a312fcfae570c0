//! Parser edge cases promoted to integration-level regression tests:
//! every case is checked against *both* parsers (the structural index
//! behind `parse_item`, and the independent event parser in
//! [`jdm::oracle`]), pinning the validation parity the engine depends on:
//! equal items, and equal errors down to the message and offset.

use jdm::index::StructuralIndex;
use jdm::parse::{parse_item, MAX_DEPTH};
use jdm::project::RecordTable;
use jdm::{oracle, Item, Number, PathStep, ProjectionPath};

fn both_ok(src: &str) -> Item {
    let reference = oracle::parse_item(src.as_bytes())
        .unwrap_or_else(|e| panic!("oracle rejects {src:?}: {e}"));
    let via_tape =
        parse_item(src.as_bytes()).unwrap_or_else(|e| panic!("index rejects {src:?}: {e}"));
    assert_eq!(via_tape, reference, "parsers disagree on {src:?}");
    via_tape
}

fn both_err(src: &str) {
    let reference = oracle::parse_item(src.as_bytes())
        .err()
        .unwrap_or_else(|| panic!("oracle accepts {src:?}"));
    let index = StructuralIndex::build(src.as_bytes()).err();
    assert_eq!(index.as_ref(), Some(&reference), "index error on {src:?}");
    assert_eq!(
        parse_item(src.as_bytes()).err(),
        Some(reference),
        "parse_item error on {src:?}"
    );
}

#[test]
fn surrogate_pairs_decode_and_lone_surrogates_error() {
    let grin = both_ok(r#""😀""#);
    assert_eq!(grin.as_str(), Some("😀"));
    let clef = both_ok(r#""𝄞 x""#);
    assert_eq!(clef.as_str(), Some("𝄞 x"));
    // Lone high, lone low, high followed by a non-surrogate escape, and
    // high at end-of-string are all malformed.
    both_err(r#""\uD800""#);
    both_err(r#""\uDC00""#);
    both_err(r#""\uD800\n""#);
    both_err(r#""\uD800A""#);
    both_err(r#""\uD8"#);
}

#[test]
fn minus_zero_is_an_integer_zero() {
    assert_eq!(both_ok("-0").as_number(), Some(Number::Int(0)));
    // With a fraction it stays a double and keeps its sign bit.
    match both_ok("-0.0").as_number() {
        Some(Number::Double(d)) => {
            assert_eq!(d, 0.0);
            assert!(d.is_sign_negative());
        }
        other => panic!("expected double, got {other:?}"),
    }
}

#[test]
fn exponent_overflow_saturates_identically() {
    match both_ok("1e999").as_number() {
        Some(Number::Double(d)) => assert!(d.is_infinite() && d > 0.0),
        other => panic!("expected +inf, got {other:?}"),
    }
    match both_ok("-1E999").as_number() {
        Some(Number::Double(d)) => assert!(d.is_infinite() && d < 0.0),
        other => panic!("expected -inf, got {other:?}"),
    }
    match both_ok("1e-999").as_number() {
        Some(Number::Double(d)) => assert_eq!(d, 0.0),
        other => panic!("expected 0.0, got {other:?}"),
    }
    // i64 overflow falls back to double in both stacks.
    match both_ok("9223372036854775808").as_number() {
        Some(Number::Double(d)) => assert!(d > 9.2e18),
        other => panic!("expected double, got {other:?}"),
    }
    assert_eq!(
        both_ok("9223372036854775807").as_number(),
        Some(Number::Int(i64::MAX))
    );
}

#[test]
fn deep_nesting_hits_the_stack_guard_in_both_stacks() {
    // 200 levels (the historical test depth) parse fine...
    let ok = format!("{}0{}", "[".repeat(200), "]".repeat(200));
    both_ok(&ok);
    // ...but MAX_DEPTH+1 levels are rejected by both stacks without
    // exhausting the thread stack.
    let deep = "[".repeat(MAX_DEPTH + 1);
    both_err(&deep);
    let closed = format!(
        "{}0{}",
        "[".repeat(MAX_DEPTH + 1),
        "]".repeat(MAX_DEPTH + 1)
    );
    both_err(&closed);
}

#[test]
fn truncation_at_every_record_boundary_errors_everywhere() {
    // A split reads record-aligned ranges; a file truncated at any record
    // boundary (mid-document) must be rejected up front by the index
    // pre-pass, never silently half-scanned, with the oracle's error.
    let doc = r#"{"root": [{"v": 1}, {"v": 2}, {"v": 3}, {"v": 4}]}"#;
    let path = ProjectionPath::new(vec![PathStep::Key("root".into()), PathStep::AllMembers]);
    let index = StructuralIndex::build(doc.as_bytes()).unwrap();
    let table = RecordTable::build(doc.as_bytes(), &index, &path)
        .unwrap()
        .expect("path has a () step");
    assert_eq!(table.len(), 4);
    for rec in &table.records {
        for cut in [rec.start, rec.end] {
            let prefix = &doc.as_bytes()[..cut];
            let reference = oracle::parse_item(prefix)
                .err()
                .unwrap_or_else(|| panic!("oracle accepts truncation at {cut}"));
            assert_eq!(
                StructuralIndex::build(prefix).err().as_ref(),
                Some(&reference),
                "index error on truncation at {cut}"
            );
            assert_eq!(
                parse_item(prefix).err().as_ref(),
                Some(&reference),
                "parse_item error on truncation at {cut}"
            );
        }
    }
}

#[test]
fn separator_then_eof_is_an_error_not_a_panic() {
    // Regression: these inputs used to panic the event parser with an
    // out-of-bounds index (found by the differential fuzzer).
    for src in [
        "[1,",
        "[1, ",
        r#"{"a":1,"#,
        r#"{"a":1, "b":"#,
        "[",
        "{",
        r#"{"a":"#,
    ] {
        both_err(src);
    }
}
