//! Differential test of the DATASCAN's filter against the SELECT it
//! replaces.
//!
//! A seeded generator writes hostile collections (missing and duplicate
//! keys, mixed types under one key, escaped strings, good and bad dates,
//! doubles, exponents and integers near `i64::MAX`, records that are not
//! objects) and random queries
//! `for $r in collection(..)("root")() [let $x := e] where c return $r`
//! (some returning `$x`) over them: paths of key and index steps, `keys-or-members`,
//! arithmetic, `dateTime` and its accessors, the comparisons and
//! `and`/`or`/`not`. Each query runs under `RuleConfig::all()` and under
//! the same rules without `push-select-into-datascan`, at 1x1 and 2x2.
//!
//! * When every run succeeds, all four give the same sorted rows.
//! * When one fails, all four fail. Each record, scanned alone, fails
//!   with the same text with and without the rule (the rule keeps a
//!   record's error). Over the whole collection each run reports one of
//!   those per-record errors, and the same one wherever the records
//!   raise only one text. Which of several failing records is met first
//!   depends on frames and partitions (DESIGN.md §14).
//!
//! Seeds: see [`integration_tests::diff_seed`]; every assertion message
//! carries the seed and the case, so a failure replays with
//! `VXQ_DIFF_SEED=<seed>`.

use algebra::rules::{RuleConfig, RuleSet};
use dataflow::ClusterSpec;
use datagen::rng::StdRng;
use integration_tests::{diff_seed, scratch_dir};
use std::path::Path;
use vxq_core::{Engine, EngineConfig};

const RULE: &str = "push-select-into-datascan";

/// Keys of the records, and of the queries' paths.
const KEYS: [&str; 4] = ["date", "v", "t", "a"];

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// One JSON value as text.
fn value(rng: &mut StdRng, depth: u32) -> String {
    let atoms = [
        "null",
        "true",
        "false",
        "0",
        "1",
        "-7",
        "2003",
        "12",
        "2.5",
        "-0.5E-1",
        "1e2",
        "9223372036854775807",
        "-9223372036854775808",
        "9223372036854775806",
        r#""A""#,
        r#""A""#,
        r#""T\"MIN""#,
        r#""""#,
        r#""20131225T00:00""#,
        r#""2003-12-25T06:30:00""#,
        r#""19991231T23:59""#,
        r#""garbage""#,
        r#""2013122""#,
    ];
    match rng.gen_range(0..if depth == 0 { 10 } else { 12 }) {
        10 => record(rng, depth - 1),
        11 => {
            let members: Vec<String> = (0..rng.gen_range(0..3))
                .map(|_| value(rng, depth - 1))
                .collect();
            format!("[{}]", members.join(", "))
        }
        _ => pick(rng, &atoms).to_string(),
    }
}

/// An object holding most keys, some missing, some twice, some escaped.
fn record(rng: &mut StdRng, depth: u32) -> String {
    let mut members = Vec::new();
    for key in KEYS {
        if rng.gen_range(0..5) == 0 {
            continue;
        }
        let spelled = match key {
            "date" if rng.gen_range(0..4) == 0 => "d\\u0061te",
            other => other,
        };
        members.push(format!(r#""{spelled}": {}"#, value(rng, depth)));
    }
    for _ in 0..rng.gen_range(0..2) {
        let at = rng.gen_range(0..members.len() + 1);
        let member = format!(r#""{}": {}"#, pick(rng, &KEYS), value(rng, depth));
        members.insert(at, member);
    }
    format!("{{{}}}", members.join(", "))
}

/// A collection's records: mostly objects, sometimes any value.
fn records(rng: &mut StdRng) -> Vec<String> {
    (0..rng.gen_range(6..14))
        .map(|_| match rng.gen_range(0..10) {
            0 => value(rng, 1),
            _ => record(rng, 1),
        })
        .collect()
}

/// A path over `$r`: key steps, sometimes an index step or `()`.
fn path(rng: &mut StdRng) -> String {
    let mut e = "$r".to_string();
    for _ in 0..rng.gen_range(1..3) {
        match rng.gen_range(0..8) {
            0 => e.push_str(&format!("({})", rng.gen_range(0..3))),
            1 => e.push_str("()"),
            _ => e.push_str(&format!(r#"("{}")"#, pick(rng, &KEYS))),
        }
    }
    e
}

/// An operand: a path, the `let` variable, a constant, a date function
/// or arithmetic.
fn operand(rng: &mut StdRng, depth: u32, x: bool) -> String {
    let constants = [
        "0",
        "1",
        "12",
        "2003",
        "2.5",
        r#""A""#,
        r#""20131225T00:00""#,
    ];
    match rng.gen_range(0..if depth == 0 { 6 } else { 8 }) {
        0 | 1 => path(rng),
        2 if x => "$x".to_string(),
        2 => path(rng),
        3 => pick(rng, &constants).to_string(),
        4 => format!("dateTime({})", path(rng)),
        5 => {
            let f = pick(
                rng,
                &[
                    "year-from-dateTime",
                    "month-from-dateTime",
                    "day-from-dateTime",
                ],
            );
            let arg = match rng.gen_range(0..3) {
                0 if x => "$x".to_string(),
                0 => path(rng),
                _ => format!("dateTime({})", path(rng)),
            };
            format!("{f}({arg})")
        }
        _ => {
            let op = pick(rng, &["+", "-", "*", "div", "idiv"]);
            format!(
                "({}) {op} ({})",
                operand(rng, depth - 1, x),
                operand(rng, depth - 1, x)
            )
        }
    }
}

/// A condition: comparisons, connectives, `not`, or a bare operand.
fn condition(rng: &mut StdRng, depth: u32, x: bool) -> String {
    match rng.gen_range(0..if depth == 0 { 6 } else { 9 }) {
        0 => operand(rng, 1, x),
        1 => format!("not({})", operand(rng, 1, x)),
        6 => format!("not({})", condition(rng, depth - 1, x)),
        7 | 8 => {
            let op = pick(rng, &["and", "or"]);
            format!(
                "({}) {op} ({})",
                condition(rng, depth - 1, x),
                condition(rng, depth - 1, x)
            )
        }
        _ => {
            let op = pick(rng, &["eq", "ne", "lt", "le", "gt", "ge"]);
            format!("{} {op} {}", operand(rng, 1, x), operand(rng, 1, x))
        }
    }
}

/// A query over `collection("/c")`, with a `let` half of the time. The
/// query returns the `let` variable half the time it has one, so that a
/// `let` the condition does not read is still evaluated.
fn query(rng: &mut StdRng) -> String {
    let x = rng.gen_range(0..2) == 0;
    let let_clause = match x {
        true => format!("let $x := {} ", operand(rng, 1, false)),
        false => String::new(),
    };
    let depth = rng.gen_range(0u32..3);
    let condition = condition(rng, depth, x);
    let ret = if x && rng.gen_range(0..2) == 0 {
        "$x"
    } else {
        "$r"
    };
    format!(r#"for $r in collection("/c")("root")() {let_clause}where {condition} return {ret}"#)
}

/// The sorted rows of `query` over the collections under `root`, or the
/// error text.
fn run(root: &Path, query: &str, with_rule: bool, nodes: usize, ppn: usize) -> Outcome {
    let rules = RuleSet::for_config(RuleConfig::all());
    let rules = if with_rule {
        rules
    } else {
        rules.without(RULE)
    };
    Engine::with_rule_set(
        EngineConfig {
            cluster: ClusterSpec {
                nodes,
                partitions_per_node: ppn,
                ..Default::default()
            },
            data_root: root.to_path_buf(),
            ..Default::default()
        },
        rules,
    )
    .execute(query)
    .map(|r| {
        let mut rows: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
        rows.sort();
        rows
    })
    .map_err(|e| e.to_string())
}

type Outcome = Result<Vec<String>, String>;

/// Write `records` as collection `/c` under `root`: two node directories
/// of two files each.
fn write_collection(root: &Path, records: &[String]) {
    let _ = std::fs::remove_dir_all(root.join("c"));
    for node in 0..2 {
        let dir = root.join(format!("c/node{node}"));
        std::fs::create_dir_all(&dir).unwrap();
        for file in 0..2 {
            let part: Vec<&str> = records
                .iter()
                .skip(node * 2 + file)
                .step_by(4)
                .map(String::as_str)
                .collect();
            let doc = format!(r#"{{"root": [{}]}}"#, part.join(", "));
            std::fs::write(dir.join(format!("part{file}.json")), doc).unwrap();
        }
    }
}

#[test]
fn scan_filter_matches_the_select_on_hostile_records() {
    let seed = diff_seed();
    let root = scratch_dir("scan-filter-diff");
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut fired, mut failed, mut kept) = (0, 0, 0);
    for dataset in 0..20 {
        let records = records(&mut rng);
        write_collection(&root, &records);
        for case in 0..12 {
            let query = query(&mut rng);
            let at = format!("seed {seed}, dataset {dataset}, case {case}: {query}");
            let (plan, applied) = Engine::new(EngineConfig::default())
                .optimize(&query)
                .unwrap_or_else(|e| panic!("{at}: {e}"));
            fired += usize::from(applied.contains(&RULE));
            let runs: Vec<Outcome> = [(true, 1, 1), (false, 1, 1), (true, 2, 2), (false, 2, 2)]
                .into_iter()
                .map(|(with_rule, nodes, ppn)| run(&root, &query, with_rule, nodes, ppn))
                .collect();
            if runs.iter().all(Result::is_ok) {
                kept += usize::from(!runs[0].as_ref().unwrap().is_empty());
                for r in &runs[1..] {
                    assert_eq!(r, &runs[0], "{at}\n{}", plan.explain());
                }
                continue;
            }
            failed += 1;
            assert!(
                runs.iter().all(Result::is_err),
                "{at}: an error is lost: {runs:?}\n{}",
                plan.explain()
            );
            // Each record alone fails the same with and without the rule.
            let mut errors: Vec<String> = Vec::new();
            let alone = scratch_dir("scan-filter-diff-record");
            for (i, record) in records.iter().enumerate() {
                write_collection(&alone, std::slice::from_ref(record));
                let with = run(&alone, &query, true, 1, 1);
                let without = run(&alone, &query, false, 1, 1);
                assert_eq!(with, without, "{at}: record {i} {record}");
                if let Err(e) = with {
                    errors.push(e);
                }
            }
            errors.sort();
            errors.dedup();
            for r in &runs {
                let err = r.as_ref().unwrap_err();
                assert!(errors.contains(err), "{at}: {err} not in {errors:?}");
                if let [only] = errors.as_slice() {
                    assert_eq!(err, only, "{at}");
                }
            }
        }
    }
    // The comparison is not vacuous: the rule fires on most queries, and
    // both the row and the error paths are reached.
    assert!(
        fired >= 120 && failed >= 30 && kept >= 15,
        "seed {seed}: fired {fired}, failed {failed}, kept rows {kept} of 240"
    );
}
