//! The DATASCAN's tape filter against the SELECT it is copied from.
//!
//! Records are random JSON text (missing and duplicate keys, escaped keys
//! and strings, ints, doubles and exponents, nested values, good and bad
//! dates); filters are random expressions of the grammar
//! `push-select-into-datascan` copies into the scan. The filter leaves a
//! record undecided exactly when `RtExpr::eval_ref` on the bytes the scan
//! writes for that record fails, and otherwise decides it with the same
//! effective boolean value; in particular a rejected record is one the
//! SELECT drops without an error. On GHCN records, the filters of the
//! paper's queries decide every record.

use algebra::expr::{Function, LogicalExpr};
use algebra::plan::{LogicalOp, VarId};
use algebra::rules::pipelining::tape_evaluable;
use algebra::rules::{RuleConfig, RuleSet};
use dataflow::frame::frames_from_rows;
use jdm::binary::{tag, ItemRef};
use jdm::index::StructuralIndex;
use jdm::project::project_indexed_nodes;
use jdm::{Item, ProjectionPath};
use proptest::prelude::*;
use proptest::{BoxedStrategy, TestRng};
use vxq_core::rtexpr::RtExpr;
use vxq_core::tapefilter::TapeFilter;

/// Keys records use and filters read: `date` is an escaped "date".
const KEYS: [&str; 5] = ["date", "v", "t", "d\\u0061te", "n"];

/// Filter keys: what the record keys decode to, plus one never present.
const FILTER_KEYS: [&str; 8] = ["date", "date", "v", "v", "t", "t", "n", "zz"];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

/// One JSON value as text.
fn value_text(rng: &mut TestRng, depth: u32) -> String {
    let atoms = [
        "null",
        "true",
        "false",
        "0",
        "-7",
        "2003",
        "12",
        "25",
        "2.5",
        "-0.5E-1",
        "1e2",
        "12.0",
        r#""TMIN""#,
        r#""T\"MIN""#,
        r#""TMIN""#,
        r#""""#,
        r#""20131225T00:00""#,
        r#""2003-12-25T06:30:00""#,
        r#""19991231T23:59""#,
        r#""20131224T00:00""#,
        r#""garbage""#,
        r#""2013122""#,
    ];
    match rng.below(if depth == 0 { 8 } else { 10 }) {
        8 => record_text(rng, depth - 1),
        9 => {
            let n = rng.below(3);
            let members: Vec<String> = (0..n).map(|_| value_text(rng, depth - 1)).collect();
            format!("[{}]", members.join(", "))
        }
        _ => pick(rng, &atoms).to_string(),
    }
}

/// A record: usually an object holding most of the filter keys, with
/// some missing and some twice.
fn record_text(rng: &mut TestRng, depth: u32) -> String {
    let dates = [
        r#""20131225T00:00""#,
        r#""2003-12-25T06:30:00""#,
        r#""20131224T00:00""#,
        r#""garbage""#,
    ];
    let mut members = Vec::new();
    for key in ["date", "v", "t", "n"] {
        if rng.below(5) == 0 {
            continue;
        }
        let key = if key == "date" && rng.below(4) == 0 {
            KEYS[3]
        } else {
            key
        };
        let value = match key {
            "date" if rng.below(2) == 0 => pick(rng, &dates).to_string(),
            _ => value_text(rng, depth),
        };
        members.push(format!(r#""{key}": {value}"#));
    }
    for _ in 0..rng.below(3) {
        let member = format!(r#""{}": {}"#, pick(rng, &KEYS), value_text(rng, depth));
        let at = rng.below(members.len() as u64 + 1) as usize;
        members.insert(at, member);
    }
    format!("{{{}}}", members.join(", "))
}

fn arb_record() -> BoxedStrategy<String> {
    BoxedStrategy::new(|rng| match rng.below(10) {
        0 => value_text(rng, 1),
        _ => record_text(rng, 2),
    })
}

fn var() -> LogicalExpr {
    LogicalExpr::Var(VarId(0))
}

fn call(f: Function, args: Vec<LogicalExpr>) -> LogicalExpr {
    LogicalExpr::Call(f, args)
}

/// Sometimes wrap `e` in the coercion scaffolding.
fn scaffold(rng: &mut TestRng, e: LogicalExpr) -> LogicalExpr {
    match rng.below(6) {
        0 => call(Function::Promote, vec![e]),
        1 => call(Function::Data, vec![e]),
        2 => call(Function::TreatItem, vec![e]),
        _ => e,
    }
}

/// The scan variable under zero to two constant-key `value` steps.
fn path(rng: &mut TestRng) -> LogicalExpr {
    let mut e = var();
    let steps = [0, 1, 1, 1, 1, 1, 1, 2, 2][rng.below(9) as usize];
    for _ in 0..steps {
        e = LogicalExpr::value_key(e, pick(rng, &FILTER_KEYS));
        e = scaffold(rng, e);
    }
    e
}

fn constant(rng: &mut TestRng) -> LogicalExpr {
    LogicalExpr::Const(match rng.below(9) {
        0 => Item::Null,
        1 => Item::Boolean(rng.below(2) == 0),
        2 => Item::int(2003),
        3 => Item::int(12),
        4 => Item::int(25),
        5 => Item::double(2.5),
        6 => Item::str("TMIN"),
        7 => Item::str("T\"MIN"),
        _ => Item::str("20131225T00:00"),
    })
}

/// A comparison operand.
fn operand(rng: &mut TestRng) -> LogicalExpr {
    let date = |rng: &mut TestRng| call(Function::DateTime, vec![path(rng)]);
    let e = match rng.below(7) {
        0 | 1 => path(rng),
        2 => constant(rng),
        3 => date(rng),
        _ => {
            let f = [
                Function::YearFromDateTime,
                Function::MonthFromDateTime,
                Function::DayFromDateTime,
            ][rng.below(3) as usize];
            let arg = match rng.below(4) {
                0 => path(rng),
                _ => date(rng),
            };
            call(f, vec![arg])
        }
    };
    scaffold(rng, e)
}

/// A filter of the tape grammar.
fn filter(rng: &mut TestRng, depth: u32) -> LogicalExpr {
    let cmp = [
        Function::Eq,
        Function::Ne,
        Function::Ge,
        Function::Le,
        Function::Gt,
        Function::Lt,
    ];
    match rng.below(if depth == 0 { 5 } else { 8 }) {
        0 => operand(rng),
        5 => call(Function::Not, vec![filter(rng, depth - 1)]),
        6 | 7 => {
            let f = [Function::And, Function::Or][rng.below(2) as usize];
            let n = 1 + rng.below(2);
            call(f, (0..n).map(|_| filter(rng, depth - 1)).collect())
        }
        _ => {
            let f = cmp[rng.below(6) as usize];
            call(f, vec![operand(rng), operand(rng)])
        }
    }
}

fn arb_filter() -> BoxedStrategy<LogicalExpr> {
    BoxedStrategy::new(|rng| {
        let depth = 1 + rng.below(2) as u32;
        filter(rng, depth)
    })
}

/// The filter as the runtime expression the SELECT evaluates, with the
/// scan variable in tuple field 0.
fn rt(e: &LogicalExpr) -> RtExpr {
    RtExpr::compile(e, &[VarId(0)], None).expect("the filter reads only the scan variable")
}

/// Effective boolean value of the item an expression evaluated to, as the
/// SELECT's `and` reads it: a sequence is its first member's.
fn ebv(item: ItemRef<'_>) -> bool {
    match item.tag() {
        tag::FALSE | tag::NULL => false,
        tag::SEQUENCE => item.member(0).is_some_and(ebv),
        _ => true,
    }
}

/// Test the record at `node` both ways; returns the filter's verdict.
fn check(
    filter: &TapeFilter,
    expr: &LogicalExpr,
    index: &StructuralIndex,
    buf: &[u8],
    node: usize,
) -> Option<bool> {
    let verdict = filter.test(index, buf, node);
    let mut record = Vec::new();
    index.write_binary_at(buf, node, &mut record).unwrap();
    let frames = frames_from_rows(&[vec![record]], 64 * 1024);
    let tuple = frames[0].tuple(0);
    let mut out = Vec::new();
    match (rt(expr).eval_ref(&tuple, None), verdict) {
        (Ok(v), Some(keep)) => {
            v.write(&mut out);
            assert_eq!(
                ebv(ItemRef::new(&out).unwrap()),
                keep,
                "tape verdict differs from the SELECT"
            );
        }
        (Err(_), None) => {}
        (Ok(_), None) => panic!("the tape failed where the SELECT does not"),
        (Err(e), Some(keep)) => panic!("the tape decided {keep} where the SELECT fails: {e}"),
    }
    verdict
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn a_tape_verdict_is_the_selects_verdict(doc in arb_record(), expr in arb_filter()) {
        assert!(tape_evaluable(&expr, VarId(0)), "{expr}");
        let filter = TapeFilter::compile(&expr, VarId(0)).expect("compiles");
        let index = StructuralIndex::build(doc.as_bytes()).expect("generated JSON parses");
        check(&filter, &expr, &index, doc.as_bytes(), index.root());
    }
}

/// The property is not vacuous: over the same generator, the tape rejects
/// and keeps many records, and evaluating fails on many.
#[test]
fn the_generator_reaches_every_verdict() {
    let mut rng = TestRng::for_test("prop_tapefilter::verdicts");
    let (records, filters) = (arb_record(), arb_filter());
    let mut seen = [0usize; 3];
    for _ in 0..2000 {
        let doc = records.new_value(&mut rng);
        let expr = filters.new_value(&mut rng);
        let filter = TapeFilter::compile(&expr, VarId(0)).expect("compiles");
        let index = StructuralIndex::build(doc.as_bytes()).unwrap();
        match check(&filter, &expr, &index, doc.as_bytes(), index.root()) {
            Some(false) => seen[0] += 1,
            Some(true) => seen[1] += 1,
            None => seen[2] += 1,
        }
    }
    assert!(
        seen.iter().all(|&n| n >= 100),
        "reject/keep/error: {seen:?}"
    );
}

/// The filters the rule copies into each DATASCAN of `query`, with the
/// scan's projection path.
fn scan_filters(query: &str) -> Vec<(ProjectionPath, VarId, LogicalExpr)> {
    let mut plan = jsoniq::compile(query).expect("compiles");
    RuleSet::for_config(RuleConfig::all()).optimize(&mut plan);
    let mut out = Vec::new();
    plan.root.visit(&mut |op| {
        if let LogicalOp::DataScan {
            project,
            filter: Some(f),
            var,
            ..
        } = op
        {
            out.push((project.clone(), *var, f.clone()));
        }
    });
    out
}

/// Q1 with a second, numeric conjunct.
const Q1_WARM: &str = r#"
    for $r in collection("/sensors")("root")()("results")()
    where $r("dataType") eq "TMIN" and $r("value") gt 0
    group by $date := $r("date")
    return count($r("station"))
"#;

#[test]
fn the_paper_queries_decide_every_ghcn_record() {
    let spec = datagen::SensorSpec {
        seed: 7,
        nodes: 1,
        files_per_node: 1,
        records_per_file: 60,
        measurements_per_array: 10,
        ..datagen::SensorSpec::default()
    };
    let doc = jdm::text::to_string(&spec.file_item(0));
    let buf = doc.as_bytes();
    let index = StructuralIndex::build(buf).unwrap();
    for (name, query, scans) in [
        ("Q0", vxq_core::queries::Q0, 1),
        ("Q0b", vxq_core::queries::Q0B, 1),
        ("Q1", vxq_core::queries::Q1, 1),
        ("Q1b", vxq_core::queries::Q1B, 1),
        ("Q1 warm", Q1_WARM, 1),
        ("Q2", vxq_core::queries::Q2, 2),
    ] {
        let filters = scan_filters(query);
        assert_eq!(filters.len(), scans, "{name}: one filter per DATASCAN");
        for (project, var, expr) in filters {
            let filter = TapeFilter::compile(&expr, var).expect("compiles");
            let expr = {
                let mut e = expr.clone();
                e.substitute_var(var, VarId(0));
                e
            };
            let (mut rejected, mut total) = (0, 0);
            project_indexed_nodes(buf, &index, &project, |node| {
                total += 1;
                match check(&filter, &expr, &index, buf, node) {
                    Some(keep) => rejected += usize::from(!keep),
                    None => panic!("{name}: fails on {}", {
                        let (s, e) = index.span(node);
                        &doc[s..e]
                    }),
                }
                Ok(true)
            })
            .unwrap();
            assert!(
                total >= 600 && rejected > total / 2,
                "{name}: {rejected} of {total} rejected"
            );
        }
    }
}
