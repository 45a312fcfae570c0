//! Failure injection: the engine must fail cleanly (typed errors, no
//! hangs, no panics) on bad queries, bad data, and resource exhaustion.

use dataflow::ClusterSpec;
use datagen::SensorSpec;
use integration_tests::scratch_dir;
use std::path::PathBuf;
use vxq_core::{queries, Engine, EngineConfig, EngineError};

fn engine_at(root: PathBuf) -> Engine {
    Engine::new(EngineConfig {
        cluster: ClusterSpec {
            nodes: 2,
            partitions_per_node: 2,
            ..Default::default()
        },
        data_root: root,
        ..Default::default()
    })
}

#[test]
fn syntax_errors_are_parse_errors() {
    let e = engine_at(scratch_dir("failures-syntax"));
    for q in [
        "for $x retur $x",
        "collection(",
        "group by",
        "$x(((",
        "let $x 1 return $x",
    ] {
        match e.execute(q) {
            Err(EngineError::Parse(_)) => {}
            other => panic!("{q:?}: expected parse error, got {other:?}"),
        }
    }
}

#[test]
fn unbound_variables_are_parse_errors() {
    let e = engine_at(scratch_dir("failures-unbound"));
    match e.execute("for $x in $ghost return $x") {
        Err(EngineError::Parse(p)) => assert!(p.msg.contains("unbound"), "{p}"),
        other => panic!("expected unbound-variable error, got {other:?}"),
    }
}

#[test]
fn missing_collection_is_an_execution_error() {
    let e = engine_at(scratch_dir("failures-missing"));
    match e.execute(queries::Q0) {
        Err(EngineError::Execute(err)) => {
            assert!(err.to_string().contains("cannot read"), "{err}");
        }
        other => panic!("expected execution error, got {other:?}"),
    }
}

#[test]
fn malformed_json_file_fails_with_file_name() {
    let root = scratch_dir("failures-badjson");
    let dir = root.join("sensors/node0");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("good.json"), br#"{"root": []}"#).unwrap();
    std::fs::write(dir.join("broken.json"), br#"{"root": [{"#).unwrap();
    let e = engine_at(root);
    match e.execute(queries::Q0) {
        Err(EngineError::Execute(err)) => {
            let msg = err.to_string();
            assert!(
                msg.contains("broken.json"),
                "error should name the file: {msg}"
            );
        }
        other => panic!("expected execution error, got {other:?}"),
    }
}

#[test]
fn malformed_json_fails_under_naive_plans_too() {
    let root = scratch_dir("failures-badjson-naive");
    let dir = root.join("sensors/node0");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("broken.json"), b"[1, 2").unwrap();
    let e = Engine::new(EngineConfig {
        rules: algebra::rules::RuleConfig::none(),
        data_root: root,
        ..Default::default()
    });
    assert!(matches!(
        e.execute(queries::Q0),
        Err(EngineError::Execute(_))
    ));

    // Naive and rewritten plans parse through the same validator, so a
    // file that ends right after an object key fails both with the same
    // error at the same offset.
    let root = scratch_dir("failures-badjson-key-eof");
    let dir = root.join("sensors/node0");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("broken.json"), br#"{"root": [{"date""#).unwrap();
    let error_under = |rules| {
        let e = Engine::new(EngineConfig {
            rules,
            data_root: root.clone(),
            ..Default::default()
        });
        match e.execute(queries::Q0) {
            Err(EngineError::Execute(err)) => err.to_string(),
            other => panic!("expected execution error, got {other:?}"),
        }
    };
    let naive = error_under(algebra::rules::RuleConfig::none());
    let rewritten = error_under(algebra::rules::RuleConfig::all());
    assert_eq!(naive, rewritten);
    assert!(naive.contains("unexpected end of input"), "{naive}");
}

#[test]
fn empty_collection_directory_yields_empty_results() {
    let root = scratch_dir("failures-empty");
    std::fs::create_dir_all(root.join("sensors/node0")).unwrap();
    let e = engine_at(root);
    let r = e.execute(queries::Q0).unwrap();
    assert!(r.rows.is_empty());
    let r1 = e.execute(queries::Q1).unwrap();
    assert!(r1.rows.is_empty(), "no groups from no data");
    // Q2's global aggregate still emits its single (empty-avg) row.
    let r2 = e.execute(queries::Q2).unwrap();
    assert_eq!(r2.rows.len(), 1);
    assert!(
        r2.rows[0][0].is_empty_sequence(),
        "avg of nothing is the empty sequence"
    );
}

#[test]
fn files_with_unexpected_structure_are_tolerated() {
    // Structure mismatches must not crash: projection yields nothing.
    let root = scratch_dir("failures-weird");
    let dir = root.join("sensors/node0");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("a.json"), br#"{"not_root": [1,2,3]}"#).unwrap();
    std::fs::write(dir.join("b.json"), br#"42"#).unwrap();
    std::fs::write(dir.join("c.json"), br#"{"root": "not an array"}"#).unwrap();
    let e = engine_at(root);
    let r = e.execute(queries::Q0).unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn order_by_on_unsupported_shapes_is_rejected_cleanly() {
    // `order by` inside count(...) FLWOR is unsupported; expect an error,
    // not a panic.
    let root = scratch_dir("failures-orderby");
    let e = engine_at(root);
    let q = r#"
        for $r in collection("/sensors")("root")()
        group by $d := $r("x")
        return count(for $i in $r order by $i return $i)
    "#;
    assert!(e.execute(q).is_err());
}

#[test]
fn memory_budget_trips_on_naive_plans() {
    let root = scratch_dir("failures-budget");
    SensorSpec {
        files_per_node: 2,
        records_per_file: 50,
        measurements_per_array: 10,
        ..Default::default()
    }
    .generate(&root.join("sensors"))
    .unwrap();
    // Naive plan materializes the whole collection; a tiny budget trips.
    let e = Engine::new(EngineConfig {
        rules: algebra::rules::RuleConfig::none(),
        data_root: root.clone(),
        memory_budget: 1024,
        ..Default::default()
    });
    // Budget violations are reported by the tracker; the engine surfaces
    // them as a peak above budget (the run itself completes — VXQuery
    // has no hard cap; the baseline simulators do).
    let r = e.execute(queries::Q0).unwrap();
    assert!(r.stats.peak_memory > 1024);

    // The pipelined plan stays under the same tiny budget's radar for
    // materialized state per tuple.
    let e2 = engine_at(root);
    let r2 = e2.execute(queries::Q0).unwrap();
    assert!(r2.stats.peak_memory < r.stats.peak_memory);
}

#[test]
fn naive_scan_frees_its_grants_when_a_later_file_fails() {
    // The naive scan charges each parsed file as it goes; a file failing
    // after them must not leave those grants behind.
    let root = scratch_dir("failures-naive-leak");
    let dir = root.join("sensors/node0");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("a_good.json"),
        br#"{"root": [{"date": "2001-01-01T00:00:00.000", "dataType": "TMIN", "value": 1}]}"#,
    )
    .unwrap();
    std::fs::write(dir.join("b_broken.json"), br#"{"root": [{"#).unwrap();
    let e = Engine::new(EngineConfig {
        rules: algebra::rules::RuleConfig::none(),
        data_root: root,
        ..Default::default()
    });
    assert!(matches!(
        e.execute(queries::Q0),
        Err(EngineError::Execute(_))
    ));
    assert_eq!(e.memory().current(), 0, "grants leaked by the failed scan");
    assert_eq!(e.memory().cached(), 0);
}

#[test]
fn deeply_nested_input_does_not_overflow() {
    let root = scratch_dir("failures-deep");
    let dir = root.join("sensors/node0");
    std::fs::create_dir_all(&dir).unwrap();
    let mut doc = String::from(r#"{"root": [{"results": ["#);
    for _ in 0..300 {
        doc.push('[');
    }
    doc.push('1');
    for _ in 0..300 {
        doc.push(']');
    }
    doc.push_str("]}]}");
    std::fs::write(dir.join("deep.json"), doc).unwrap();
    let e = engine_at(root);
    // The projection only descends the fixed path; deep nesting below it
    // is skipped without recursion blowups.
    let r = e.execute(queries::Q0).unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn deeply_nested_binary_item_is_a_typed_error() {
    use jdm::binary::tag;
    // A binary `.adm` collection file: an array holding one record nested
    // 50,000 one-member arrays deep (far past the parsers' 512 limit),
    // written header by header. Decoding it used to overflow the stack.
    let depth = 50_000;
    let mut bytes = Vec::with_capacity(13 * (depth + 1) + 1);
    for level in (1..=depth + 1).rev() {
        let payload_len = (13 * level + 1 - 5) as u32;
        bytes.push(tag::ARRAY);
        bytes.extend_from_slice(&payload_len.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
    }
    bytes.push(tag::NULL);
    let root = scratch_dir("failures-deep-adm");
    let dir = root.join("deep");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("deep.adm"), bytes).unwrap();
    let query = r#"for $r in collection("/deep")() return $r"#;
    for rules in [
        algebra::rules::RuleConfig::default(),
        algebra::rules::RuleConfig::none(),
    ] {
        let e = Engine::new(EngineConfig {
            rules,
            data_root: root.clone(),
            ..Default::default()
        });
        match e.execute(query) {
            Err(EngineError::Execute(err)) => assert!(
                err.to_string().contains("nesting depth exceeds 512"),
                "{err}"
            ),
            other => panic!("expected a typed depth error, got {other:?}"),
        }
    }
}

/// Aggregates fold through one definition, so a query gives the same rows
/// or fails with the same error text under every rule configuration: the
/// naive plans (`apply` over a materialized sequence), SUBPLANs, and
/// (two-step) GROUP-BY / AGGREGATE.
#[test]
fn aggregate_errors_and_rows_agree_across_rule_configs() {
    // Two node directories, two stations; the only non-number is one
    // `"value": "x"`, so every failing tuple reports the same message
    // whichever partition fails first.
    let root = scratch_dir("failures-agg-parity");
    for node in 0..2 {
        let dir = root.join(format!("sensors/node{node}"));
        std::fs::create_dir_all(&dir).unwrap();
        let records: Vec<String> = (0..6)
            .map(|i| {
                let value = if node == 1 && i == 3 {
                    r#""x""#.to_string()
                } else {
                    (i * 10 - node * 7).to_string()
                };
                format!(
                    r#"{{"station": "S{}", "date": "D{i}", "value": {value}}}"#,
                    i % 2
                )
            })
            .collect();
        let doc = format!(r#"{{"root": [{{"results": [{}]}}]}}"#, records.join(", "));
        std::fs::write(dir.join("part.json"), doc).unwrap();
    }
    let records = r#"collection("/sensors")("root")()("results")()"#;
    let grouped =
        |ret: &str| format!("for $r in {records} group by $s := $r(\"station\") return {ret}");

    let two_step_off = algebra::rules::RuleConfig {
        two_step_aggregation: false,
        ..algebra::rules::RuleConfig::all()
    };
    let configs = [
        algebra::rules::RuleConfig::none(),
        algebra::rules::RuleConfig::path_only(),
        algebra::rules::RuleConfig::path_and_pipelining(),
        two_step_off,
        algebra::rules::RuleConfig::all(),
    ];
    // Sorted row images, or the error text, under every config at 1x1
    // and 2x2; all must be equal.
    let outcomes = |query: &str| -> Vec<Result<Vec<String>, String>> {
        let mut out = Vec::new();
        for (nodes, partitions_per_node) in [(1, 1), (2, 2)] {
            for rules in configs {
                let e = Engine::new(EngineConfig {
                    cluster: ClusterSpec {
                        nodes,
                        partitions_per_node,
                        ..Default::default()
                    },
                    rules,
                    data_root: root.clone(),
                    ..Default::default()
                });
                out.push(e.execute(query).map_err(|e| e.to_string()).map(|r| {
                    let mut rows: Vec<String> =
                        r.rows.iter().map(|row| format!("{row:?}")).collect();
                    rows.sort();
                    rows
                }));
            }
        }
        out
    };

    for (query, function) in [
        (
            format!("avg(for $r in {records} return $r(\"value\"))"),
            "avg",
        ),
        (grouped("avg($r(\"value\"))"), "avg"),
        (grouped("sum($r(\"value\"))"), "sum"),
        (grouped("avg(for $i in $r return $i(\"value\"))"), "avg"),
    ] {
        let all = outcomes(&query);
        let first = all[0]
            .clone()
            .expect_err("a non-number fails the aggregate");
        assert!(
            first.contains(&format!("{function}() over non-number \"x\"")),
            "{query}: {first}"
        );
        for got in &all {
            assert_eq!(got.as_ref(), Err(&first), "{query}");
        }
    }

    for query in [
        format!("sum(for $r in {records} return $r(\"nokey\"))"),
        grouped("sum($r(\"nokey\"))"),
        grouped("min($r(\"nokey\"))"),
        grouped("avg($r(\"nokey\"))"),
        grouped("max(for $i in $r return $i(\"nokey\"))"),
    ] {
        let all = outcomes(&query);
        let first = all[0].clone().expect("a missing key is no error");
        assert!(!first.is_empty(), "{query}");
        for got in &all {
            assert_eq!(got.as_ref(), Ok(&first), "{query}");
        }
    }
}

/// A record on which the DATASCAN's filter fails (a date `dateTime`
/// rejects) fails the query with the error the ASSIGN above the scan
/// raises without the rule, at every cluster shape; the other records,
/// which the filter drops, change nothing.
#[test]
fn a_bad_date_fails_the_same_with_and_without_the_scan_filter() {
    use algebra::rules::{RuleConfig, RuleSet};
    const RULE: &str = "push-select-into-datascan";
    let root = scratch_dir("failures-scan-filter-bad-date");
    for node in 0..2 {
        let dir = root.join(format!("sensors/node{node}"));
        std::fs::create_dir_all(&dir).unwrap();
        let records: Vec<String> = (0..8)
            .map(|i| {
                let date = if node == 1 && i == 5 {
                    "garbage".to_string()
                } else {
                    format!("2013{:02}{:02}T00:00", 1 + i, 20 + i)
                };
                format!(r#"{{"date": "{date}", "dataType": "TMIN", "value": {i}}}"#)
            })
            .collect();
        let doc = format!(r#"{{"root": [{{"results": [{}]}}]}}"#, records.join(", "));
        std::fs::write(dir.join("part.json"), doc).unwrap();
    }
    let run = |rules: RuleSet, nodes, partitions_per_node, query| {
        Engine::with_rule_set(
            EngineConfig {
                cluster: ClusterSpec {
                    nodes,
                    partitions_per_node,
                    ..Default::default()
                },
                data_root: root.clone(),
                ..Default::default()
            },
            rules,
        )
        .execute(query)
        .map(|r| r.rows.len())
        .map_err(|e| e.to_string())
    };
    let ppn = integration_tests::partitions_from_env(2);
    for query in [queries::Q0, queries::Q0B] {
        for (nodes, ppn) in [(1, 1), (1, 2), (2, 2), (2, ppn)] {
            let with = run(RuleSet::for_config(RuleConfig::all()), nodes, ppn, query);
            let without = run(
                RuleSet::for_config(RuleConfig::all()).without(RULE),
                nodes,
                ppn,
                query,
            );
            let err = with.clone().expect_err("the bad date fails the query");
            assert!(err.contains("garbage"), "{err}");
            assert_eq!(with, without, "{nodes}x{ppn}: {query}");
        }
        // The comparison is not vacuous: the filter is in the plan.
        let e = engine_at(root.clone());
        let (plan, applied) = e.optimize(query).expect("optimizes");
        assert!(applied.contains(&RULE), "{applied:?}");
        assert!(plan.explain().contains(" filter "), "{}", plan.explain());
    }
}

const SCAN_FILTER: &str = "push-select-into-datascan";

/// `query` over the collections under `root`, with and without the scan
/// filter rule, at 1x1, 1x2, 2x2 and 2x`VXQ_PARTITIONS`: each pair gives
/// the same sorted rows or the same error text. Returns the outcome with
/// the rule at 1x1.
fn same_with_and_without_the_scan_filter(
    root: &std::path::Path,
    query: &str,
) -> Result<Vec<String>, String> {
    use algebra::rules::{RuleConfig, RuleSet};
    let run = |rules: RuleSet, nodes, partitions_per_node| {
        Engine::with_rule_set(
            EngineConfig {
                cluster: ClusterSpec {
                    nodes,
                    partitions_per_node,
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
    };
    let ppn = integration_tests::partitions_from_env(2);
    let mut first = None;
    for (nodes, ppn) in [(1, 1), (1, 2), (2, 2), (2, ppn)] {
        let with = run(RuleSet::for_config(RuleConfig::all()), nodes, ppn);
        let without = run(
            RuleSet::for_config(RuleConfig::all()).without(SCAN_FILTER),
            nodes,
            ppn,
        );
        assert_eq!(with, without, "{nodes}x{ppn}: {query}");
        first.get_or_insert(with);
    }
    first.expect("ran")
}

/// Whether the scan filter rule fires on `query`, and so moves a filter
/// into a DATASCAN.
fn scan_filter_fires(query: &str) -> bool {
    let e = engine_at(PathBuf::new());
    let (plan, applied) = e.optimize(query).expect("optimizes");
    let fired = applied.contains(&SCAN_FILTER);
    assert_eq!(
        fired,
        plan.explain().contains(" filter "),
        "{}",
        plan.explain()
    );
    fired
}

/// Two node directories of GHCN-shaped records in `/sensors`; `odd`
/// gives the fields of record `i` of node `n` that differ from a good
/// reading.
fn sensors_with(name: &str, odd: impl Fn(usize, usize) -> Option<&'static str>) -> PathBuf {
    let root = scratch_dir(name);
    for node in 0..2 {
        let dir = root.join(format!("sensors/node{node}"));
        std::fs::create_dir_all(&dir).unwrap();
        let records: Vec<String> = (0..8)
            .map(|i| match odd(node, i) {
                Some(fields) => format!("{{{fields}}}"),
                None => format!(
                    r#"{{"date": "2013{:02}{:02}T00:00", "dataType": "TMIN", "value": {i}}}"#,
                    1 + i,
                    20 + i
                ),
            })
            .collect();
        let doc = format!(r#"{{"root": [{{"results": [{}]}}]}}"#, records.join(", "));
        std::fs::write(dir.join("part.json"), doc).unwrap();
    }
    root
}

const RECORDS: &str = r#"collection("/sensors")("root")()("results")()"#;

/// A conjunct that can fail moves into the scan with the rest of the
/// condition, and the scan raises the error the SELECT raises.
#[test]
fn scan_filter_raises_a_failing_conjuncts_error() {
    let root = sensors_with("failures-scan-filter-conjunct", |node, i| {
        (node == 1 && i == 5).then_some(r#""date": "20130101T00:00", "value": "x""#)
    });
    let query = format!(r#"for $r in {RECORDS} where $r("value") - 1 gt 0 return $r"#);
    assert!(scan_filter_fires(&query));
    let err = same_with_and_without_the_scan_filter(&root, &query)
        .expect_err("the string value fails the subtraction");
    assert!(err.contains("arithmetic on non-numbers"), "{err}");
    // Without the bad record the rows agree, and some are dropped.
    let clean = sensors_with("failures-scan-filter-conjunct-clean", |_, _| None);
    let rows = same_with_and_without_the_scan_filter(&clean, &query).expect("runs");
    assert_eq!(rows.len(), 12, "values 2..7 of each node");
}

/// A record on which both a `let` the condition reads and a conjunct
/// fail raises the `let`'s error, as the SELECT path does: the rule
/// moves the condition when it reads the `let` first, and leaves the
/// SELECT in place when the conjunct that can fail comes first.
#[test]
fn scan_filter_raises_the_lets_error_where_a_let_and_a_conjunct_fail() {
    let root = sensors_with("failures-scan-filter-let-and-conjunct", |node, i| {
        (node == 0 && i == 3).then_some(r#""date": "garbage", "value": "x""#)
    });
    let let_first = format!(
        r#"for $r in {RECORDS} let $d := dateTime($r("date"))
           where year-from-dateTime($d) ge 2000 and $r("value") - 1 gt 0 return $r"#
    );
    let conjunct_first = format!(
        r#"for $r in {RECORDS} let $d := dateTime($r("date"))
           where $r("value") - 1 gt 0 and year-from-dateTime($d) ge 2000 return $r"#
    );
    assert!(scan_filter_fires(&let_first));
    assert!(!scan_filter_fires(&conjunct_first));
    for query in [let_first, conjunct_first] {
        let err = same_with_and_without_the_scan_filter(&root, &query)
            .expect_err("the bad record fails the query");
        assert!(err.contains("garbage"), "{query}: {err}");
    }
}

/// Binary `.adm` collections are filtered too: the scan evaluates the
/// filter on each item's binary view. The paper's queries give the same
/// rows with and without the rule, and the rows of the same data as
/// JSON text; a bad date fails with the same text.
#[test]
fn scan_filter_gives_adm_collections_the_same_rows() {
    let root = scratch_dir("failures-scan-filter-adm");
    let spec = SensorSpec {
        seed: 11,
        nodes: 2,
        files_per_node: 2,
        records_per_file: 6,
        measurements_per_array: 12,
        stations: 3,
        start_year: 2002,
        years: 3,
    };
    spec.generate(&root.join("json")).unwrap();
    for node in 0..spec.nodes {
        let dir = root.join(format!("adm/node{node}"));
        std::fs::create_dir_all(&dir).unwrap();
        for f in 0..spec.files_per_node {
            let item = spec.file_item(node * spec.files_per_node + f);
            std::fs::write(
                dir.join(format!("part{f}.adm")),
                jdm::binary::to_bytes(&item),
            )
            .unwrap();
        }
    }
    for (name, query) in queries::SENSOR_QUERIES {
        let adm = query.replace(r#"collection("/sensors")"#, r#"collection("/adm")"#);
        let json = query.replace(r#"collection("/sensors")"#, r#"collection("/json")"#);
        assert!(scan_filter_fires(&adm), "{name}");
        let rows = same_with_and_without_the_scan_filter(&root, &adm).expect(name);
        assert_eq!(
            Ok(rows),
            same_with_and_without_the_scan_filter(&root, &json),
            "{name}: .adm and .json rows differ"
        );
    }
    // The filter ran on the binary items: the scan dropped records.
    let e = engine_at(root.clone());
    let adm_q0 = queries::Q0.replace(r#"collection("/sensors")"#, r#"collection("/adm")"#);
    let splits = e.execute(&adm_q0).expect("runs").stats.profile.splits;
    let (tested, emitted) = splits
        .iter()
        .fold((0, 0), |(t, m), s| (t + s.tuples, m + s.emitted));
    assert!(emitted < tested, "{emitted} of {tested} emitted");

    // One bad date in a binary file.
    let bad = scratch_dir("failures-scan-filter-adm-bad-date");
    let dir = bad.join("sensors/node0");
    std::fs::create_dir_all(&dir).unwrap();
    let doc = r#"{"root": [{"results": [
        {"date": "20131225T00:00", "value": 1},
        {"date": "garbage", "value": 2}]}]}"#;
    let item = jdm::parse::parse_item(doc.as_bytes()).unwrap();
    std::fs::write(dir.join("part.adm"), jdm::binary::to_bytes(&item)).unwrap();
    for query in [queries::Q0, queries::Q0B] {
        let err = same_with_and_without_the_scan_filter(&bad, query).expect_err("bad date");
        assert!(err.contains("garbage"), "{err}");
    }
}

/// The move keeps a record's error, not the order of errors across
/// records. The operators run a frame at a time, so without the rule the
/// `let` fails on the second record before the SELECT tests the first;
/// the scan tests the first record whole and raises its conjunct's
/// error. Left failing: DESIGN.md §14.
#[test]
#[ignore = "the scan meets records one by one, the SELECT path a frame at a time"]
fn scan_filter_error_order_across_records_of_one_frame() {
    let root = sensors_with("failures-scan-filter-frame-order", |node, i| {
        match (node, i) {
            (0, 1) => Some(r#""date": "20130101T00:00", "value": "x""#),
            (0, 2) => Some(r#""date": "garbage", "value": 1"#),
            _ => None,
        }
    });
    let query = format!(
        r#"for $r in {RECORDS} let $d := dateTime($r("date"))
           where year-from-dateTime($d) ge 2000 and $r("value") - 1 gt 0 return $r"#
    );
    assert!(scan_filter_fires(&query));
    same_with_and_without_the_scan_filter(&root, &query).expect_err("fails");
}
