//! The contract of `push-side-expressions-below-join`: a join query gives
//! the same sorted rows, or fails with the same error text, whether the
//! rule runs or not, at every partition count.
//!
//! The dataset is written by hand so that every failing tuple of the
//! non-number case fails with the same message: one station, and every
//! TMIN reading is -6. The first error a parallel run reports then does
//! not depend on which partition fails first.

use algebra::rules::{RuleConfig, RuleSet};
use dataflow::ClusterSpec;
use jdm::Item;
use std::path::PathBuf;
use std::sync::OnceLock;
use vxq_core::{queries, Engine, EngineConfig};

const RULE: &str = "push-side-expressions-below-join";

/// Q2 returning a string minus a number: fails on every joined tuple.
const NON_NUMBER: &str = r#"
avg(
  for $r_min in collection("/sensors")("root")()("results")()
  for $r_max in collection("/sensors")("root")()("results")()
  where $r_min("station") eq $r_max("station")
    and $r_min("date") eq $r_max("date")
    and $r_min("dataType") eq "TMIN"
    and $r_max("dataType") eq "TMAX"
  return $r_max("station") - $r_min("value")
) div 10
"#;

/// Q2 reading a key no record has: every difference is empty.
const MISSING_KEY: &str = r#"
avg(
  for $r_min in collection("/sensors")("root")()("results")()
  for $r_max in collection("/sensors")("root")()("results")()
  where $r_min("station") eq $r_max("station")
    and $r_min("date") eq $r_max("date")
    and $r_min("dataType") eq "TMIN"
    and $r_max("dataType") eq "TMAX"
  return $r_max("nokey") - $r_min("value")
) div 10
"#;

/// The join returning whole records: the records must cross the join.
const WHOLE_RECORD: &str = r#"
for $r_min in collection("/sensors")("root")()("results")()
for $r_max in collection("/sensors")("root")()("results")()
where $r_min("station") eq $r_max("station")
  and $r_min("date") eq $r_max("date")
  and $r_min("dataType") eq "TMIN"
  and $r_max("dataType") eq "TMAX"
return $r_max
"#;

fn record(date: &str, data_type: &str, value: i64) -> String {
    format!(
        r#"{{"date": "{date}", "dataType": "{data_type}", "station": "GSW000002", "value": {value}, "attributes": ",,E,"}}"#
    )
}

/// Two node directories of three files; each file holds dates of one
/// year, with TMIN, TMAX and PRCP readings, some dates twice, and one
/// TMAX reading has a date `dateTime` rejects.
fn data_root() -> &'static PathBuf {
    static ROOT: OnceLock<PathBuf> = OnceLock::new();
    ROOT.get_or_init(|| {
        let dir = std::env::temp_dir().join("vxq-join-pushdown-sensors");
        let _ = std::fs::remove_dir_all(&dir);
        for file in 0..6i64 {
            let node_dir = dir.join("sensors").join(format!("node{}", file % 2));
            std::fs::create_dir_all(&node_dir).expect("node dir");
            let mut results = Vec::new();
            for month in 1..=12i64 {
                for day in [1, 15, 28] {
                    let date = format!("{}{month:02}{day:02}T00:00", 2001 + file);
                    results.push(record(&date, "TMIN", -6));
                    results.push(record(&date, "TMAX", (file * 7 + month * 3 + day) % 40));
                    if day == 15 {
                        results.push(record(&date, "TMAX", month - 20));
                    } else {
                        results.push(record(&date, "PRCP", day));
                    }
                }
            }
            if file == 0 {
                // No TMIN shares this date, so no joined tuple reads it;
                // `dateTime` on it fails if it runs below the join.
                results.push(record("not a date", "TMAX", 1));
            }
            let doc = format!(r#"{{"root": [{{"results": [{}]}}]}}"#, results.join(", "));
            std::fs::write(node_dir.join(format!("part{file:04}.json")), doc).expect("write file");
        }
        dir
    })
}

/// Sorted row images, or the error text.
fn run(rules: RuleSet, cluster: ClusterSpec, query: &str) -> Result<Vec<String>, String> {
    let engine = Engine::with_rule_set(
        EngineConfig {
            cluster,
            data_root: data_root().clone(),
            ..EngineConfig::default()
        },
        rules,
    );
    let rows = engine.execute(query).map_err(|e| e.to_string())?.rows;
    let mut out: Vec<String> = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(Item::to_string)
                .collect::<Vec<_>>()
                .join("\u{1}")
        })
        .collect();
    out.sort();
    Ok(out)
}

#[test]
fn join_queries_agree_with_and_without_the_rule() {
    let cases = [
        ("Q2", queries::Q2),
        ("Q2 with lets", integration_tests::Q2_LETS),
        ("Q2 December", integration_tests::Q2_DECEMBER),
        ("non-number", NON_NUMBER),
        ("missing key", MISSING_KEY),
        ("whole record", WHOLE_RECORD),
    ];
    for (nodes, partitions_per_node) in [(1, 1), (2, 1), (2, 2)] {
        let cluster = ClusterSpec {
            nodes,
            partitions_per_node,
            ..ClusterSpec::default()
        };
        for (name, query) in cases {
            let with = run(
                RuleSet::for_config(RuleConfig::all()),
                cluster.clone(),
                query,
            );
            let without = run(
                RuleSet::for_config(RuleConfig::all()).without(RULE),
                cluster.clone(),
                query,
            );
            assert_eq!(
                with, without,
                "{name} at {nodes}x{partitions_per_node} changed with {RULE}"
            );
            // Each case answers what it was written to answer.
            match name {
                "non-number" => {
                    let err = with.expect_err("a string minus a number fails");
                    assert!(
                        err.contains(
                            r#"runtime error: arithmetic on non-numbers: "GSW000002" and -6"#
                        ) && !err.contains("compile error"),
                        "{err}"
                    );
                }
                // One row holding the empty sequence.
                "missing key" => assert_eq!(with, Ok(vec![String::new()])),
                _ => assert!(
                    with.as_ref().is_ok_and(|rows| !rows.is_empty()),
                    "{name}: {with:?}"
                ),
            }
        }
    }
}

/// The rule fires on every join case above, so the comparison is not
/// vacuous, and it is part of the default rule set.
#[test]
fn the_rule_fires_on_every_join_case() {
    let engine = Engine::new(EngineConfig {
        data_root: data_root().clone(),
        ..EngineConfig::default()
    });
    for query in [
        queries::Q2,
        integration_tests::Q2_LETS,
        integration_tests::Q2_DECEMBER,
        NON_NUMBER,
        MISSING_KEY,
    ] {
        let (_, applied) = engine.optimize(query).expect("optimizes");
        assert!(applied.contains(&RULE), "{query}: {applied:?}");
    }
}

/// With the records gone from the join's inputs, Q2's hash exchanges
/// ship a fraction of the bytes they shipped without the rule.
#[test]
fn q2_join_inputs_ship_without_the_records() {
    let network_bytes = |rules: RuleSet| {
        Engine::with_rule_set(
            EngineConfig {
                cluster: ClusterSpec {
                    nodes: 2,
                    partitions_per_node: 1,
                    ..ClusterSpec::default()
                },
                data_root: data_root().clone(),
                ..EngineConfig::default()
            },
            rules,
        )
        .execute(queries::Q2)
        .expect("Q2 runs")
        .stats
        .network_bytes
    };
    let with = network_bytes(RuleSet::for_config(RuleConfig::all()));
    let without = network_bytes(RuleSet::for_config(RuleConfig::all()).without(RULE));
    assert!(
        with * 2 < without,
        "{with} B with {RULE}, {without} B without"
    );
}
