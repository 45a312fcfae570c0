//! The contract of `push-aggregate-below-join` (eager aggregation): a
//! join query folding `avg`, `sum` or `count` over the difference or sum
//! of one value from each side gives the same sorted rows, or fails with
//! the same error, whether the rule runs or not, at every cluster shape.
//!
//! The oracle is the same rule set without the rule. Hand fixtures cover
//! missing values, non-numbers with and without a partner, doubles, keys
//! on one side only, multi-item values and join keys `eq` never matches;
//! each fixture whose failing pairs all fail with one text must fail with
//! that text. A seeded generator ([`integration_tests::diff_seed`]) adds
//! random datasets over mixed value types and small key pools.

use algebra::rules::{RuleConfig, RuleSet};
use dataflow::ClusterSpec;
use datagen::rng::StdRng;
use integration_tests::{diff_seed, partitions_from_env, scratch_dir};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use vxq_core::{queries, Engine, EngineConfig};

const RULE: &str = "push-aggregate-below-join";

/// Cluster shapes every case runs at: (nodes, partitions per node); the
/// widest takes its partitions from `VXQ_PARTITIONS` (default 2).
fn shapes() -> [(usize, usize); 3] {
    [(1, 1), (2, 1), (2, partitions_from_env(2))]
}

/// The Q2 join folding `agg` over `first op second`.
fn join_query(agg: &str, first: &str, op: &str, second: &str) -> String {
    format!(
        r#"
{agg}(
  for $r_min in collection("/sensors")("root")()("results")()
  for $r_max in collection("/sensors")("root")()("results")()
  where $r_min("station") eq $r_max("station")
    and $r_min("date") eq $r_max("date")
    and $r_min("dataType") eq "TMIN"
    and $r_max("dataType") eq "TMAX"
  return {first} {op} {second}
)"#
    )
}

const MAX: &str = r#"$r_max("value")"#;
const MIN: &str = r#"$r_min("value")"#;

/// Every query shape the rule rewrites, by name.
fn positive_queries() -> Vec<(&'static str, String)> {
    vec![
        ("Q2", queries::Q2.to_string()),
        ("avg max-min", join_query("avg", MAX, "-", MIN)),
        ("sum max-min", join_query("sum", MAX, "-", MIN)),
        ("count max-min", join_query("count", MAX, "-", MIN)),
        ("avg max+min", join_query("avg", MAX, "+", MIN)),
        ("sum min-max", join_query("sum", MIN, "-", MAX)),
        (
            "sum members-min",
            join_query("sum", r#"$r_max("vals")()"#, "-", MIN),
        ),
    ]
}

/// One reading; `None` leaves the member out.
fn reading(station: Option<&str>, date: &str, data_type: &str, value: Option<&str>) -> String {
    let mut members = Vec::new();
    if let Some(s) = station {
        members.push(format!(r#""station": {s}"#));
    }
    members.push(format!(r#""date": "{date}", "dataType": "{data_type}""#));
    if let Some(v) = value {
        members.push(format!(r#""value": {v}"#));
    }
    format!("{{{}}}", members.join(", "))
}

fn tmin(station: &str, date: &str, value: &str) -> String {
    reading(Some(station), date, "TMIN", Some(value))
}

fn tmax(station: &str, date: &str, value: &str) -> String {
    reading(Some(station), date, "TMAX", Some(value))
}

/// Write `records` as a two-node collection under `root/sensors`, two
/// files per node, dealt round-robin.
fn write_collection(root: &Path, records: &[String]) {
    for file in 0..4 {
        let node_dir = root.join("sensors").join(format!("node{}", file % 2));
        std::fs::create_dir_all(&node_dir).expect("node dir");
        let part: Vec<&str> = records
            .iter()
            .skip(file)
            .step_by(4)
            .map(String::as_str)
            .collect();
        let doc = format!(r#"{{"root": [{{"results": [{}]}}]}}"#, part.join(", "));
        std::fs::write(node_dir.join(format!("part{file}.json")), doc).expect("write file");
    }
}

/// `records` behind 128 readings per file on one TMIN key and 128 on
/// one TMAX key, which have no partner. A side's group-by passes tuples
/// through until it sees keys repeat, so without these a fixture this
/// small would never be grouped; with them, each partition's group-bys
/// start grouping after their first 64 tuples, before the fixture's own
/// readings arrive. The results do not change.
fn grouping(records: &[String]) -> Vec<String> {
    let mut out = vec![tmin(r#""P""#, "p", "1"); 4 * 128];
    out.extend(vec![tmax(r#""Q""#, "q", "1"); 4 * 128]);
    out.extend_from_slice(records);
    out
}

/// `records` as they are, and behind [`grouping`]'s readings: a side's
/// group-by passes the first through and groups the second.
fn both_paths(records: &[String]) -> [(&'static str, Vec<String>); 2] {
    [("passed", records.to_vec()), ("grouped", grouping(records))]
}

/// Input and output rows of the side group-bys of one Q2 run.
fn side_group_by_rows(root: &Path, shape: (usize, usize)) -> (u64, u64) {
    let engine = Engine::with_rule_set(
        EngineConfig {
            cluster: ClusterSpec {
                nodes: shape.0,
                partitions_per_node: shape.1,
                ..ClusterSpec::default()
            },
            data_root: root.to_path_buf(),
            ..EngineConfig::default()
        },
        with_rule(),
    );
    let stats = engine.execute(queries::Q2).expect("Q2").stats;
    stats
        .profile
        .ops
        .iter()
        .filter(|o| o.name == "HASH-GROUP-BY")
        .fold((0, 0), |(i, o), op| (i + op.tuples_in, o + op.tuples_out))
}

/// A fresh data root per case under one scratch directory: the engine
/// identifies files by size and modification time, so no case rewrites
/// another's files.
fn case_root(name: &str) -> PathBuf {
    static ROOT: OnceLock<PathBuf> = OnceLock::new();
    ROOT.get_or_init(|| scratch_dir("eager-aggregation"))
        .join(name)
}

/// Sorted row images, or the error text. An image is the items' debug
/// form, which tells an integer from a double of the same value.
fn run(
    rules: RuleSet,
    shape: (usize, usize),
    root: &Path,
    query: &str,
) -> Result<Vec<String>, String> {
    let engine = Engine::with_rule_set(
        EngineConfig {
            cluster: ClusterSpec {
                nodes: shape.0,
                partitions_per_node: shape.1,
                ..ClusterSpec::default()
            },
            data_root: root.to_path_buf(),
            ..EngineConfig::default()
        },
        rules,
    );
    let rows = engine.execute(query).map_err(|e| e.to_string())?.rows;
    let mut out: Vec<String> = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|item| format!("{item:?}"))
                .collect::<Vec<_>>()
                .join("\u{1}")
        })
        .collect();
    out.sort();
    Ok(out)
}

fn with_rule() -> RuleSet {
    RuleSet::for_config(RuleConfig::all())
}

fn without_rule() -> RuleSet {
    RuleSet::for_config(RuleConfig::all()).without(RULE)
}

/// Run `query` on `root` with and without the rule at every shape; the
/// two agree exactly (rows, or error text). Returns the outcome.
fn agree(case: &str, root: &Path, query: &str) -> Result<Vec<String>, String> {
    let mut outcome = None;
    for shape in shapes() {
        let with = run(with_rule(), shape, root, query);
        let without = run(without_rule(), shape, root, query);
        assert_eq!(
            with, without,
            "{case} at {shape:?} changed with {RULE}:\n{query}"
        );
        outcome = Some(with);
    }
    outcome.expect("at least one shape")
}

/// The hand fixtures: name and records.
fn fixtures() -> Vec<(&'static str, Vec<String>)> {
    vec![
        (
            "missing values and one-sided keys",
            vec![
                tmin(r#""A""#, "d1", "5"),
                reading(Some(r#""A""#), "d1", "TMIN", None),
                tmin(r#""A""#, "d2", "3"),
                tmin(r#""B""#, "d1", "7"),
                tmax(r#""A""#, "d1", "20"),
                tmax(r#""A""#, "d1", "22"),
                reading(Some(r#""A""#), "d2", "TMAX", None),
                tmax(r#""B""#, "d2", "9"),
                reading(Some(r#""A""#), "d1", "PRCP", Some("4")),
            ],
        ),
        (
            "a non-number without a partner",
            vec![
                tmin(r#""A""#, "d1", "5"),
                tmax(r#""A""#, "d1", "20"),
                tmin(r#""C""#, "d9", r#""x""#),
                tmax(r#""D""#, "d9", "[1, 2]"),
                tmin(r#""A""#, "d2", "-4"),
                tmax(r#""A""#, "d2", "11"),
            ],
        ),
        (
            "keys on one side only",
            vec![
                tmin(r#""A""#, "d1", "5"),
                tmin(r#""A""#, "d2", r#""x""#),
                tmax(r#""B""#, "d1", "20"),
                tmax(r#""B""#, "d2", "null"),
            ],
        ),
        (
            "dyadic doubles",
            vec![
                tmin(r#""A""#, "d1", "1.5"),
                tmin(r#""A""#, "d1", "-2.25"),
                tmax(r#""A""#, "d1", "3"),
                tmax(r#""A""#, "d1", "0.5"),
                tmin(r#""A""#, "d2", "4"),
                tmax(r#""A""#, "d2", "10"),
                tmin(r#""B""#, "d1", "2.0"),
                tmax(r#""B""#, "d1", "2"),
            ],
        ),
        (
            "integers past 64 bits in the partial products",
            vec![
                tmin(r#""A""#, "d1", "3000000000000000000"),
                tmin(r#""A""#, "d1", "3000000000000000000"),
                tmin(r#""A""#, "d1", "3000000000000000000"),
                tmax(r#""A""#, "d1", "3000000000000000001"),
                tmax(r#""A""#, "d1", "3000000000000000000"),
                tmax(r#""A""#, "d1", "3000000000000000002"),
            ],
        ),
        (
            "integers past 64 bits in a side's sum",
            vec![
                tmin(r#""A""#, "d1", "3000000000000000000"),
                tmin(r#""A""#, "d1", "3000000000000000000"),
                tmin(r#""A""#, "d1", "3000000000000000001"),
                tmin(r#""A""#, "d1", "3000000000000000002"),
                tmax(r#""A""#, "d1", "3000000000000000001"),
                tmax(r#""A""#, "d1", "3000000000000000000"),
                tmax(r#""A""#, "d1", "3000000000000000002"),
                tmax(r#""A""#, "d1", "3000000000000000003"),
            ],
        ),
        (
            "join keys eq never matches",
            vec![
                reading(None, "d1", "TMIN", Some("1")),
                reading(None, "d1", "TMAX", Some("11")),
                tmin(r#"["A"]"#, "d1", "2"),
                tmax(r#"["A"]"#, "d1", "4"),
                tmin(r#"{"s": 1}"#, "d1", "2"),
                tmax(r#"{"s": 1}"#, "d1", "5"),
                tmin("null", "d1", "3"),
                tmax("null", "d1", "30"),
                tmin("1", "d1", "6"),
                tmax("1.0", "d1", "60"),
                tmin(r#""S""#, "d1", "0"),
                tmax(r#""S""#, "d1", "100"),
            ],
        ),
        (
            "multi-item values",
            vec![
                r#"{"station": "A", "date": "d1", "dataType": "TMIN", "value": 1}"#.to_string(),
                r#"{"station": "A", "date": "d1", "dataType": "TMAX", "value": 7, "vals": [10, 20]}"#
                    .to_string(),
                r#"{"station": "A", "date": "d1", "dataType": "TMAX", "value": 8, "vals": [30]}"#
                    .to_string(),
                r#"{"station": "A", "date": "d1", "dataType": "TMAX", "value": 9, "vals": []}"#
                    .to_string(),
            ],
        ),
    ]
}

/// Every hand fixture and query shape: rows identical with and without
/// the rule, at every shape.
#[test]
fn hand_fixtures_agree_with_and_without_the_rule() {
    let mut rows = 0;
    for (name, records) in fixtures() {
        for (path, records) in both_paths(&records) {
            let root = case_root(&format!("{path}-{}", name.replace(' ', "-")));
            write_collection(&root, &records);
            for (qname, query) in positive_queries() {
                if agree(&format!("{name} ({path}) / {qname}"), &root, &query).is_ok() {
                    rows += 1;
                }
            }
        }
    }
    assert_eq!(rows, 2 * fixtures().len() * positive_queries().len());
}

/// The padding of [`grouping`] makes the side group-bys group: they
/// emit fewer rows than they read. Without it they pass every tuple
/// through.
#[test]
fn padded_fixtures_are_grouped() {
    let (_, records) = fixtures().swap_remove(0);
    for (path, records) in both_paths(&records) {
        let root = case_root(&format!("rows-{path}"));
        write_collection(&root, &records);
        for shape in shapes() {
            let (tuples_in, tuples_out) = side_group_by_rows(&root, shape);
            match path {
                "passed" => assert_eq!(tuples_out, tuples_in, "{path} at {shape:?}"),
                _ => assert!(
                    tuples_out < tuples_in,
                    "{path} at {shape:?}: {tuples_in} in, {tuples_out} out"
                ),
            }
        }
    }
}

/// Spot checks of the values above, written out by hand.
#[test]
fn hand_fixtures_give_the_expected_values() {
    let expect = |fixture: &str, query: &str, want: &str| {
        let (name, records) = fixtures()
            .into_iter()
            .find(|(n, _)| *n == fixture)
            .expect("fixture");
        for (path, records) in both_paths(&records) {
            let root = case_root(&format!("expected-{path}-{}", name.replace(' ', "-")));
            write_collection(&root, &records);
            for shape in shapes() {
                assert_eq!(
                    run(with_rule(), shape, &root, query),
                    Ok(vec![want.to_string()]),
                    "{fixture} ({path}) at {shape:?}: {query}"
                );
            }
        }
    };
    // (A, d1): TMIN 5 (one value missing) x TMAX 20, 22; (A, d2) and
    // (B, *) have no numeric pair.
    let missing = "missing values and one-sided keys";
    expect(
        missing,
        &join_query("sum", MAX, "-", MIN),
        "Number(Int(32))",
    );
    expect(
        missing,
        &join_query("count", MAX, "-", MIN),
        "Number(Int(2))",
    );
    expect(
        missing,
        &join_query("avg", MAX, "-", MIN),
        "Number(Double(16.0))",
    );
    expect(
        missing,
        &join_query("sum", MIN, "-", MAX),
        "Number(Int(-32))",
    );
    expect(
        missing,
        &join_query("sum", MAX, "+", MIN),
        "Number(Int(52))",
    );
    // No pairs at all.
    let one_sided = "keys on one side only";
    expect(one_sided, &join_query("avg", MAX, "-", MIN), "Sequence([])");
    expect(
        one_sided,
        &join_query("sum", MAX, "-", MIN),
        "Number(Int(0))",
    );
    expect(
        one_sided,
        &join_query("count", MAX, "-", MIN),
        "Number(Int(0))",
    );
    // A missing, array or object station joins nothing; "S" gives
    // 100 - 0, null (`null eq null`) 30 - 3, and the numeric keys 1 and
    // 1.0, which are `eq`, 60 - 6.
    let keys = "join keys eq never matches";
    expect(keys, &join_query("sum", MAX, "-", MIN), "Number(Int(181))");
    expect(keys, &join_query("count", MAX, "-", MIN), "Number(Int(3))");
    // Each TMIN meets the differences 1, 0 and 2; the partial products
    // (3 x 9e18) are exact in 128 bits.
    let big = "integers past 64 bits in the partial products";
    expect(big, &join_query("sum", MAX, "-", MIN), "Number(Int(9))");
    // Each side sums to about 1.2e19, past 64 bits; the 16 pairs add up
    // to 4 x 6 - 4 x 3.
    let wide = "integers past 64 bits in a side's sum";
    expect(wide, &join_query("sum", MAX, "-", MIN), "Number(Int(12))");
    expect(
        wide,
        &join_query("avg", MAX, "-", MIN),
        "Number(Double(0.75))",
    );
    expect(
        wide,
        &join_query("sum", MAX, "+", MIN),
        "Number(Double(9.6e19))",
    );
    // (3 - 1.5) + (3 + 2.25) + (0.5 - 1.5) + (0.5 + 2.25) + (10 - 4)
    // + (2 - 2.0): a double, as one double operand makes it.
    let dyadic = "dyadic doubles";
    expect(
        dyadic,
        &join_query("sum", MAX, "-", MIN),
        "Number(Double(14.5))",
    );
    expect(
        dyadic,
        &join_query("count", MAX, "-", MIN),
        "Number(Int(6))",
    );
    // Only the singleton member list [30] pairs: 30 - 1.
    let multi = "multi-item values";
    expect(
        multi,
        &join_query("sum", r#"$r_max("vals")()"#, "-", MIN),
        "Number(Int(29))",
    );
}

/// A non-number that meets a partner fails the query with the text of
/// its one failing pair; operand order is kept.
#[test]
fn a_non_number_with_a_partner_fails_with_the_text_of_its_pair() {
    let cases = [
        (r#""x""#, "10", "arithmetic on non-numbers: 10 and \"x\""),
        ("[1]", "2", "arithmetic on non-numbers: 2 and [1]"),
        (
            r#""x""#,
            r#""y""#,
            "arithmetic on non-numbers: \"y\" and \"x\"",
        ),
        ("3", "true", "arithmetic on non-numbers: true and 3"),
    ];
    for (i, (min_value, max_value, text)) in cases.into_iter().enumerate() {
        let records = [
            tmin(r#""A""#, "d1", min_value),
            tmax(r#""A""#, "d1", max_value),
            tmin(r#""B""#, "d1", "1"),
            tmax(r#""B""#, "d1", "5"),
            tmin(r#""C""#, "d2", r#""alone""#),
        ];
        for (path, records) in both_paths(&records) {
            let root = case_root(&format!("non-number-{path}-{i}"));
            write_collection(&root, &records);
            for agg in ["avg", "sum", "count"] {
                let query = join_query(agg, MAX, "-", MIN);
                let err = agree(&format!("non-number {i} ({path}) / {agg}"), &root, &query)
                    .expect_err("the pair fails");
                assert!(err.ends_with(text), "{err}");
            }
            let reversed = agree(
                &format!("non-number {i} ({path}) / reversed"),
                &root,
                &join_query("sum", MIN, "-", MAX),
            )
            .expect_err("the pair fails");
            let (l, r) = text
                .trim_start_matches("arithmetic on non-numbers: ")
                .split_once(" and ")
                .expect("two operands");
            assert!(
                reversed.ends_with(&format!("arithmetic on non-numbers: {r} and {l}")),
                "{reversed}"
            );
        }
    }
}

/// Keys that rarely repeat: 2,400 keys per side, a few repeated late.
/// A side's group-by sees no repeat in its first 512 tuples and passes
/// every tuple through as a one-tuple partial (several rows of one key
/// then reach the join); the results still agree. With
/// `failing_pairs`, a non-number meets a partner of value 7 at the end
/// of every file; otherwise one non-number has no partner.
fn rare_keys(failing_pairs: bool) -> Vec<String> {
    let key = |i: usize| (format!(r#""S{}""#, i % 60), format!("d{}", i / 60));
    let mut records = Vec::new();
    for i in 0..2400 {
        let (station, date) = key(i);
        records.push(tmin(&station, &date, &((i * 7) % 41).to_string()));
    }
    for i in 0..2400 {
        let (station, date) = key(i);
        records.push(tmax(&station, &date, &((i * 5) % 37 + 20).to_string()));
    }
    for i in 0..40 {
        let (station, date) = key(i);
        records.push(tmin(&station, &date, &(i % 9).to_string()));
        let (station, date) = key(2000 + i);
        records.push(tmax(&station, &date, &(i % 5).to_string()));
    }
    if failing_pairs {
        // Dealt round-robin: W<f>'s TMAX and TMIN land in file f.
        for f in 0..4 {
            records.push(tmax(&format!(r#""W{f}""#), "d0", "7"));
        }
        for f in 0..4 {
            records.push(tmin(&format!(r#""W{f}""#), "d0", r#""x""#));
        }
    } else {
        records.push(tmin(r#""Z""#, "d0", r#""x""#));
    }
    records
}

#[test]
fn keys_that_rarely_repeat_pass_through_and_agree() {
    for failing_pairs in [false, true] {
        let root = case_root(&format!("rare-keys-{failing_pairs}"));
        write_collection(&root, &rare_keys(failing_pairs));
        for (qname, query) in positive_queries().into_iter().take(4) {
            let outcome = agree(&format!("rare keys / {qname}"), &root, &query);
            match failing_pairs {
                false => assert!(outcome.is_ok(), "{qname}: {outcome:?}"),
                true => assert!(
                    outcome
                        .as_ref()
                        .is_err_and(|e| e.ends_with(r#"arithmetic on non-numbers: 7 and "x""#)),
                    "{qname}: {outcome:?}"
                ),
            }
        }
    }
    // Non-vacuity: on one partition, the side group-bys emit a row per
    // tuple, more than the 2 x 2,400 keys.
    let (tuples_in, tuples_out) = side_group_by_rows(&case_root("rare-keys-false"), (1, 1));
    assert_eq!(tuples_out, tuples_in);
    assert!(tuples_out > 2 * 2400 + 1, "{tuples_out} rows");
}

/// Doubles that binary floating point cannot hold exactly: the rule
/// sums each side before it multiplies, so the result may differ from
/// the pairwise sum in the last bits, as two-step aggregation's partial
/// sums may. The two agree to 1e-12 relative.
#[test]
fn decimal_doubles_agree_to_rounding() {
    let root = case_root("decimal-doubles");
    let mut records = Vec::new();
    for (i, v) in ["0.1", "0.7", "2.3", "-1.9", "0.01", "5.55"]
        .iter()
        .enumerate()
    {
        let station = format!(r#""S{}""#, i % 2);
        records.push(tmin(&station, "d1", v));
        records.push(tmax(&station, "d1", &format!("{v}3")));
    }
    let root_grouped = case_root("decimal-doubles-grouped");
    write_collection(&root, &records);
    write_collection(&root_grouped, &grouping(&records));
    let number = |r: Result<Vec<String>, String>| -> f64 {
        let image = &r.expect("rows")[0];
        image
            .strip_prefix("Number(Double(")
            .and_then(|d| d.strip_suffix("))"))
            .and_then(|d| d.parse().ok())
            .unwrap_or_else(|| panic!("not a double: {image}"))
    };
    for agg in ["avg", "sum"] {
        let query = join_query(agg, MAX, "-", MIN);
        for (shape, root) in shapes()
            .into_iter()
            .flat_map(|shape| [(shape, root.clone()), (shape, root_grouped.clone())])
        {
            let with = number(run(with_rule(), shape, &root, &query));
            let without = number(run(without_rule(), shape, &root, &query));
            assert!(
                (with - without).abs() <= 1e-12 * without.abs().max(1.0),
                "{agg} at {shape:?} on {root:?}: {with} with the rule, {without} without"
            );
        }
    }
}

/// Random datasets over mixed value types, small key pools (missing,
/// array, object, null and numeric keys included) and random query
/// shapes: rows identical, or both fail.
#[test]
fn generated_datasets_agree_with_and_without_the_rule() {
    let seed = diff_seed();
    let mut rng = StdRng::seed_from_u64(seed);
    let queries = positive_queries();
    let (mut rows, mut errors) = (0, 0);
    for case in 0..30 {
        // A third of the cases hold only numbers and missing values.
        let clean = case % 3 == 0;
        let mut records = Vec::new();
        for _ in 0..rng.gen_range(8usize..40) {
            let station = [
                Some(r#""A""#),
                Some(r#""A""#),
                Some(r#""B""#),
                Some(r#""C""#),
                None,
                Some(r#"["A"]"#),
                Some("null"),
                Some("1"),
                Some("1.0"),
            ][rng.gen_range(0usize..9)];
            let date = ["d1", "d2", "d3"][rng.gen_range(0usize..3)];
            let data_type = ["TMIN", "TMAX", "TMAX", "TMIN", "PRCP"][rng.gen_range(0usize..5)];
            let int = rng.gen_range(-50i64..50).to_string();
            let quarter = format!("{}.25", rng.gen_range(-20i64..20));
            let value = match rng.gen_range(0u32..if clean { 6 } else { 12 }) {
                0..=2 => Some(int.as_str()),
                3 => Some(quarter.as_str()),
                4 => Some("2.0"),
                5 => None,
                6 => Some(r#""x""#),
                7 => Some("[3]"),
                8 => Some("null"),
                9 => Some("true"),
                10 => Some(r#"{"v": 1}"#),
                _ => Some("[]"),
            };
            let mut record = reading(station, date, data_type, value);
            if rng.gen_range(0u32..4) == 0 {
                record.pop();
                record.push_str(&format!(
                    r#", "vals": [{}, {int}]}}"#,
                    rng.gen_range(0i64..9)
                ));
            }
            records.push(record);
        }
        // Every other case goes through grouping side group-bys.
        if case % 2 == 1 {
            records = grouping(&records);
        }
        let root = case_root(&format!("generated-{case}"));
        write_collection(&root, &records);
        let (qname, query) = &queries[rng.gen_range(0usize..queries.len())];
        for shape in shapes() {
            let with = run(with_rule(), shape, &root, query);
            let without = run(without_rule(), shape, &root, query);
            match (&with, &without) {
                (Ok(a), Ok(b)) => assert_eq!(
                    a, b,
                    "seed {seed} case {case} ({qname}) at {shape:?}: rows differ\n{records:?}"
                ),
                (Err(_), Err(_)) => {}
                _ => panic!(
                    "seed {seed} case {case} ({qname}) at {shape:?}: {with:?} with the rule, \
                     {without:?} without\n{records:?}"
                ),
            }
        }
        match run(with_rule(), (1, 1), &root, query) {
            Ok(_) => rows += 1,
            Err(_) => errors += 1,
        }
    }
    assert!(
        rows >= 5 && errors >= 5,
        "seed {seed}: {rows} cases gave rows and {errors} failed; the comparison needs both"
    );
}

/// The rule fires on every query above, so the comparisons are not
/// vacuous.
#[test]
fn the_rule_fires_on_every_positive_case() {
    let engine = Engine::new(EngineConfig {
        data_root: case_root("fires"),
        ..EngineConfig::default()
    });
    for (name, query) in positive_queries() {
        let (_, applied) = engine.optimize(&query).expect("optimizes");
        assert_eq!(
            applied.iter().filter(|r| **r == RULE).count(),
            1,
            "{name}: {applied:?}"
        );
    }
}
