//! The DATASCAN's filter against the SELECT it replaces.
//!
//! Records are random JSON text (missing and duplicate keys, escaped keys
//! and strings, ints, doubles, exponents and integers near `i64::MAX`,
//! nested values, good and bad dates). Conditions are random expressions
//! over the record, as `push-select-into-datascan` moves them into the
//! scan: paths of key and numeric index steps, `keys-or-members`,
//! constants, `dateTime` and its accessors, arithmetic, the comparisons
//! and `and`/`or`/`not` (also of non-booleans), and a bare path as the
//! whole condition. The scan's verdict ([`keeps`]) on the record's tape
//! node, and on the binary item an `.adm` file holds, is the SELECT's:
//! it keeps the record exactly when `SelectOp` keeps the tuple (the
//! value written starts with `tag::TRUE`), and it fails exactly when
//! `RtExpr::eval_ref` on the bytes the scan writes fails, with the
//! `DataflowError::Eval` and the text the SELECT's evaluator gives. On
//! GHCN records, the filters of the paper's queries never fail.

use algebra::expr::{Function, LogicalExpr};
use algebra::plan::{LogicalOp, VarId};
use algebra::rules::{RuleConfig, RuleSet};
use dataflow::frame::frames_from_rows;
use dataflow::DataflowError;
use jdm::binary::{tag, ItemRef};
use jdm::index::StructuralIndex;
use jdm::project::project_indexed_nodes;
use jdm::{Item, ProjectionPath};
use proptest::prelude::*;
use proptest::{BoxedStrategy, TestRng};
use vxq_core::rtexpr::RtExpr;
use vxq_core::tapefilter::{keeps, TapeView};

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
        "9223372036854775807",
        "-9223372036854775808",
        "9223372036854775806",
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

/// The scan variable under zero to two `value` steps, mostly constant
/// keys, sometimes a numeric index, sometimes through `keys-or-members`.
fn path(rng: &mut TestRng) -> LogicalExpr {
    let mut e = var();
    let steps = [0, 1, 1, 1, 1, 1, 1, 2, 2][rng.below(9) as usize];
    for _ in 0..steps {
        e = match rng.below(10) {
            0 => call(
                Function::Value,
                vec![e, LogicalExpr::Const(Item::int(rng.below(4) as i64 - 1))],
            ),
            1 => call(Function::KeysOrMembers, vec![e]),
            _ => LogicalExpr::value_key(e, pick(rng, &FILTER_KEYS)),
        };
        e = scaffold(rng, e);
    }
    e
}

fn constant(rng: &mut TestRng) -> LogicalExpr {
    LogicalExpr::Const(match rng.below(10) {
        9 => Item::int(i64::MAX),
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
fn operand(rng: &mut TestRng, depth: u32) -> LogicalExpr {
    let date = |rng: &mut TestRng| call(Function::DateTime, vec![path(rng)]);
    let e = match rng.below(if depth == 0 { 7 } else { 9 }) {
        0 | 1 => path(rng),
        2 => constant(rng),
        3 => date(rng),
        7 | 8 => {
            let f = [
                Function::Add,
                Function::Sub,
                Function::Mul,
                Function::Div,
                Function::IDiv,
            ][rng.below(5) as usize];
            call(f, vec![operand(rng, depth - 1), operand(rng, depth - 1)])
        }
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

/// A condition: a comparison, a connective, `not`, or a bare operand.
fn filter(rng: &mut TestRng, depth: u32) -> LogicalExpr {
    let cmp = [
        Function::Eq,
        Function::Ne,
        Function::Ge,
        Function::Le,
        Function::Gt,
        Function::Lt,
    ];
    match rng.below(if depth == 0 { 6 } else { 9 }) {
        0 => operand(rng, 1),
        1 => call(Function::Not, vec![operand(rng, 1)]),
        6 => call(Function::Not, vec![filter(rng, depth - 1)]),
        7 | 8 => {
            let f = [Function::And, Function::Or][rng.below(2) as usize];
            let n = 1 + rng.below(2);
            call(f, (0..n).map(|_| filter(rng, depth - 1)).collect())
        }
        _ => {
            let f = cmp[rng.below(6) as usize];
            call(f, vec![operand(rng, 1), operand(rng, 1)])
        }
    }
}

fn arb_filter() -> BoxedStrategy<LogicalExpr> {
    BoxedStrategy::new(|rng| {
        let depth = 1 + rng.below(2) as u32;
        filter(rng, depth)
    })
}

/// The condition compiled once, as the scan and the SELECT both run it:
/// the scan variable (`var`) in tuple field 0.
fn rt(e: &LogicalExpr, var: VarId) -> RtExpr {
    RtExpr::compile(e, &[var], None).expect("the filter reads only the scan variable")
}

/// What the scan and the SELECT make of a record.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Drop,
    Keep,
    Fail,
}

/// Decide the record at `node` on the tape, on its binary item and in the
/// SELECT; all three must agree, error texts included.
fn check(filter: &RtExpr, index: &StructuralIndex, buf: &[u8], node: usize) -> Verdict {
    let mut record = Vec::new();
    index.write_binary_at(buf, node, &mut record).unwrap();
    let frames = frames_from_rows(&[vec![record.clone()]], 64 * 1024);
    let tuple = frames[0].tuple(0);
    // `SelectOp` keeps a tuple whose predicate value starts with TRUE; its
    // evaluator fails with `DataflowError::Eval` of the evaluator's error.
    let select = filter
        .eval_ref(&tuple, None)
        .map(|v| {
            let mut out = Vec::new();
            v.write(&mut out);
            out.first() == Some(&tag::TRUE)
        })
        .map_err(|e| DataflowError::Eval(e.to_string()));
    let tape = keeps(filter, TapeView::new(index, buf, node));
    let adm = keeps(filter, ItemRef::new(&record).unwrap());
    // The variant and the text.
    let text = |r: dataflow::Result<bool>| r.map_err(|e| format!("{e:?}"));
    let select = text(select);
    assert_eq!(
        text(tape),
        select,
        "the tape verdict differs from the SELECT"
    );
    assert_eq!(
        text(adm),
        select,
        "the binary verdict differs from the SELECT"
    );
    match select {
        Ok(false) => Verdict::Drop,
        Ok(true) => Verdict::Keep,
        Err(_) => Verdict::Fail,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn a_tape_verdict_is_the_selects_verdict(doc in arb_record(), expr in arb_filter()) {
        let index = StructuralIndex::build(doc.as_bytes()).expect("generated JSON parses");
        check(&rt(&expr, VarId(0)), &index, doc.as_bytes(), index.root());
    }
}

/// The property is not vacuous: over the same generator, the scan drops
/// and keeps many records, and evaluating fails on many.
#[test]
fn the_generator_reaches_every_verdict() {
    let mut rng = TestRng::for_test("prop_tapefilter::verdicts");
    let (records, filters) = (arb_record(), arb_filter());
    let mut seen = [0usize; 3];
    for _ in 0..2000 {
        let doc = records.new_value(&mut rng);
        let expr = filters.new_value(&mut rng);
        let index = StructuralIndex::build(doc.as_bytes()).unwrap();
        seen[check(&rt(&expr, VarId(0)), &index, doc.as_bytes(), index.root()) as usize] += 1;
    }
    assert!(seen.iter().all(|&n| n >= 100), "drop/keep/fail: {seen:?}");
}

/// The filters the rule moves into each DATASCAN of `query`, with the
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
            let filter = rt(&expr, var);
            let (mut rejected, mut total) = (0, 0);
            project_indexed_nodes(buf, &index, &project, |node| {
                total += 1;
                match check(&filter, &index, buf, node) {
                    Verdict::Drop => rejected += 1,
                    Verdict::Keep => {}
                    Verdict::Fail => panic!("{name}: fails on {}", {
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
