//! Failure injection: the engine must fail cleanly (typed errors, no
//! hangs, no panics) on bad queries, bad data, and resource exhaustion.

use dataflow::ClusterSpec;
use datagen::SensorSpec;
use std::path::PathBuf;
use vxq_core::{queries, Engine, EngineConfig, EngineError};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vxq-failures-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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
    let e = engine_at(scratch("syntax"));
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
    let e = engine_at(scratch("unbound"));
    match e.execute("for $x in $ghost return $x") {
        Err(EngineError::Parse(p)) => assert!(p.msg.contains("unbound"), "{p}"),
        other => panic!("expected unbound-variable error, got {other:?}"),
    }
}

#[test]
fn missing_collection_is_an_execution_error() {
    let e = engine_at(scratch("missing"));
    match e.execute(queries::Q0) {
        Err(EngineError::Execute(err)) => {
            assert!(err.to_string().contains("cannot read"), "{err}");
        }
        other => panic!("expected execution error, got {other:?}"),
    }
}

#[test]
fn malformed_json_file_fails_with_file_name() {
    let root = scratch("badjson");
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
    let root = scratch("badjson-naive");
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
    let root = scratch("badjson-key-eof");
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
    let root = scratch("empty");
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
    let root = scratch("weird");
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
    let root = scratch("orderby");
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
    let root = scratch("budget");
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
    let root = scratch("naive-leak");
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
    let root = scratch("deep");
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
    let root = scratch("deep-adm");
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
