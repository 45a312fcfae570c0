//! End-to-end correctness: generate a small GHCN-style dataset, run the
//! paper's queries through the full engine, and check
//!
//! 1. results match a straightforward Rust reference computation,
//! 2. every rule configuration produces identical results (rewrite
//!    soundness, DESIGN.md §7),
//! 3. every cluster shape produces identical results (partition
//!    invariance).

use algebra::rules::RuleConfig;
use dataflow::ClusterSpec;
use datagen::SensorSpec;
use integration_tests::scratch_dir;
use jdm::{DateTime, Item};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::OnceLock;
use vxq_core::{queries, Engine, EngineConfig};

/// Dataset shared by every test in this file (generated once).
fn data_root() -> &'static PathBuf {
    static ROOT: OnceLock<PathBuf> = OnceLock::new();
    ROOT.get_or_init(|| {
        let dir = scratch_dir("e2e-sensors");
        let spec = test_spec();
        spec.generate(&dir.join("sensors"))
            .expect("generate dataset");
        dir
    })
}

fn test_spec() -> SensorSpec {
    SensorSpec {
        seed: 7,
        nodes: 3,
        files_per_node: 4,
        records_per_file: 30,
        measurements_per_array: 7,
        stations: 12,
        start_year: 2000,
        years: 10,
    }
}

/// All measurements of the dataset, decoded from the generator directly.
fn all_measurements() -> Vec<Item> {
    let spec = test_spec();
    let mut out = Vec::new();
    for idx in 0..spec.nodes * spec.files_per_node {
        let file = spec.file_item(idx);
        for rec in file.get_key("root").unwrap().keys_or_members() {
            for m in rec.get_key("results").unwrap().keys_or_members() {
                out.push(m);
            }
        }
    }
    out
}

fn is_dec25_2003_on(date: &str) -> bool {
    let d = DateTime::parse(date).unwrap();
    d.year >= 2003 && d.month == 12 && d.day == 25
}

fn engine(rules: RuleConfig, cluster: ClusterSpec) -> Engine {
    Engine::new(EngineConfig {
        cluster,
        rules,
        data_root: data_root().clone(),
        memory_budget: 0,
        ..EngineConfig::default()
    })
}

fn sorted_rows(mut rows: Vec<Vec<Item>>) -> Vec<Vec<Item>> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| !o.is_eq())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

type ConfigFn = fn() -> RuleConfig;
/// `paper` and `all` differ only in the DATASCAN's tape filter, so each
/// query runs with the filter off and on.
const CONFIGS: [(&str, ConfigFn); 5] = [
    ("none", RuleConfig::none),
    ("path", RuleConfig::path_only),
    ("path+pipe", RuleConfig::path_and_pipelining),
    ("paper", RuleConfig::paper),
    ("all", RuleConfig::all),
];

#[test]
fn q0_matches_reference_under_every_config() {
    let expected: Vec<Vec<Item>> = all_measurements()
        .into_iter()
        .filter(|m| is_dec25_2003_on(m.get_key("date").unwrap().as_str().unwrap()))
        .map(|m| vec![m])
        .collect();
    let expected = sorted_rows(expected);
    assert!(!expected.is_empty(), "dataset must contain Dec-25 readings");

    for (name, cfg) in CONFIGS {
        let e = engine(
            cfg(),
            ClusterSpec {
                nodes: 3,
                partitions_per_node: 2,
                ..Default::default()
            },
        );
        let got = sorted_rows(e.execute(queries::Q0).unwrap().rows);
        assert_eq!(got, expected, "Q0 mismatch under config {name}");
    }
}

#[test]
fn q0b_matches_reference_under_every_config() {
    let expected: Vec<Vec<Item>> = all_measurements()
        .into_iter()
        .filter_map(|m| {
            let d = m.get_key("date").unwrap().as_str().unwrap();
            is_dec25_2003_on(d).then(|| vec![Item::str(d)])
        })
        .collect();
    let expected = sorted_rows(expected);

    for (name, cfg) in CONFIGS {
        let e = engine(
            cfg(),
            ClusterSpec {
                nodes: 2,
                partitions_per_node: 2,
                ..Default::default()
            },
        );
        let got = sorted_rows(e.execute(queries::Q0B).unwrap().rows);
        assert_eq!(got, expected, "Q0b mismatch under config {name}");
    }
}

fn q1_reference() -> Vec<Vec<Item>> {
    let mut per_date: BTreeMap<String, i64> = BTreeMap::new();
    for m in all_measurements() {
        if m.get_key("dataType").unwrap().as_str() == Some("TMIN") {
            let date = m.get_key("date").unwrap().as_str().unwrap().to_string();
            // count($r("station")): every TMIN measurement has a station.
            *per_date.entry(date).or_insert(0) += 1;
        }
    }
    sorted_rows(per_date.values().map(|&c| vec![Item::int(c)]).collect())
}

#[test]
fn q1_and_q1b_match_reference_under_every_config() {
    let expected = q1_reference();
    assert!(!expected.is_empty());
    for (name, cfg) in CONFIGS {
        let e = engine(
            cfg(),
            ClusterSpec {
                nodes: 3,
                partitions_per_node: 2,
                ..Default::default()
            },
        );
        let got = sorted_rows(e.execute(queries::Q1).unwrap().rows);
        assert_eq!(got, expected, "Q1 mismatch under config {name}");
        let got_b = sorted_rows(e.execute(queries::Q1B).unwrap().rows);
        assert_eq!(got_b, expected, "Q1b mismatch under config {name}");
    }
}

fn q2_reference() -> f64 {
    q2_reference_on(|_| true)
}

/// Q2's answer over the measurements whose date passes `keep_date`.
fn q2_reference_on(keep_date: impl Fn(&str) -> bool) -> f64 {
    // Join TMIN and TMAX on (station, date); avg(value diff) / 10.
    let mut tmin: HashMap<(String, String), Vec<i64>> = HashMap::new();
    let mut tmax: HashMap<(String, String), Vec<i64>> = HashMap::new();
    for m in all_measurements() {
        let key = (
            m.get_key("station").unwrap().as_str().unwrap().to_string(),
            m.get_key("date").unwrap().as_str().unwrap().to_string(),
        );
        if !keep_date(&key.1) {
            continue;
        }
        let v = m
            .get_key("value")
            .unwrap()
            .as_number()
            .unwrap()
            .as_i64()
            .unwrap();
        match m.get_key("dataType").unwrap().as_str().unwrap() {
            "TMIN" => tmin.entry(key).or_default().push(v),
            "TMAX" => tmax.entry(key).or_default().push(v),
            _ => {}
        }
    }
    let mut sum = 0i64;
    let mut n = 0i64;
    for (key, mins) in &tmin {
        if let Some(maxs) = tmax.get(key) {
            for mn in mins {
                for mx in maxs {
                    sum += mx - mn;
                    n += 1;
                }
            }
        }
    }
    (sum as f64 / n as f64) / 10.0
}

#[test]
fn q2_matches_reference_under_every_config() {
    assert_q2_shaped_query_matches(queries::Q2, q2_reference());
}

/// A `let` after each `for` compiles to the same join as Q2 and gives
/// Q2's answer.
#[test]
fn q2_with_lets_matches_q2_reference_under_every_config() {
    assert_q2_shaped_query_matches(integration_tests::Q2_LETS, q2_reference());
}

/// A failing `let` (`dateTime`) between the join and the `where` stays
/// above the join; the other conjuncts still form the equi-join.
#[test]
fn q2_december_matches_reference_under_every_config() {
    let expected = q2_reference_on(|date| DateTime::parse(date).unwrap().month == 12);
    assert_q2_shaped_query_matches(integration_tests::Q2_DECEMBER, expected);
}

/// Run a query returning Q2's one number under every rule config and
/// compare it with `expected`.
fn assert_q2_shaped_query_matches(query: &str, expected: f64) {
    for (name, cfg) in CONFIGS {
        let e = engine(
            cfg(),
            ClusterSpec {
                nodes: 2,
                partitions_per_node: 3,
                ..Default::default()
            },
        );
        let rows = e
            .execute(query)
            .unwrap_or_else(|err| panic!("{query} under config {name}: {err}"))
            .rows;
        assert_eq!(rows.len(), 1, "{query} returns one row under {name}");
        let got = rows[0][0].as_number().unwrap().as_f64();
        assert!(
            (got - expected).abs() < 1e-9,
            "{query} mismatch under config {name}: got {got}, want {expected}"
        );
    }
}

#[test]
fn results_are_partition_invariant() {
    let shapes = [
        ClusterSpec {
            nodes: 1,
            partitions_per_node: 1,
            ..Default::default()
        },
        ClusterSpec {
            nodes: 1,
            partitions_per_node: 4,
            ..Default::default()
        },
        ClusterSpec {
            nodes: 3,
            partitions_per_node: 2,
            ..Default::default()
        },
        ClusterSpec {
            nodes: 6,
            partitions_per_node: 1,
            ..Default::default()
        },
        ClusterSpec {
            nodes: 2,
            partitions_per_node: 4,
            cores_per_node: 2,
            ..Default::default()
        },
    ];
    for (qname, q) in queries::SENSOR_QUERIES {
        let mut reference: Option<Vec<Vec<Item>>> = None;
        for shape in &shapes {
            let e = engine(RuleConfig::all(), shape.clone());
            let got = sorted_rows(e.execute(q).unwrap().rows);
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(
                    &got, r,
                    "{qname} differs on shape {}x{}",
                    shape.nodes, shape.partitions_per_node
                ),
            }
        }
    }
}

#[test]
fn two_step_aggregation_is_transparent() {
    let with = RuleConfig::all();
    let without = RuleConfig {
        two_step_aggregation: false,
        ..RuleConfig::all()
    };
    let cluster = ClusterSpec {
        nodes: 2,
        partitions_per_node: 2,
        ..Default::default()
    };
    for (qname, q) in [("Q1", queries::Q1), ("Q2", queries::Q2)] {
        let a = sorted_rows(engine(with, cluster.clone()).execute(q).unwrap().rows);
        let b = sorted_rows(engine(without, cluster.clone()).execute(q).unwrap().rows);
        assert_eq!(a, b, "{qname} two-step mismatch");
    }
}

#[test]
fn pipelining_shrinks_peak_memory() {
    let cluster = ClusterSpec::single_node(1);
    let naive = engine(RuleConfig::path_only(), cluster.clone());
    let ruled = engine(RuleConfig::all(), cluster);
    let rn = naive.execute(queries::Q0).unwrap();
    let rr = ruled.execute(queries::Q0).unwrap();
    assert!(
        rn.stats.peak_memory > 4 * rr.stats.peak_memory.max(1),
        "naive peak {} should dwarf ruled peak {}",
        rn.stats.peak_memory,
        rr.stats.peak_memory
    );
}

#[test]
fn bookstore_examples_run() {
    let dir = scratch_dir("e2e-books");
    let books = datagen::generate_bookstore(&dir.join("books"), 3, 8).unwrap();
    let e = Engine::new(EngineConfig {
        data_root: dir.clone(),
        ..EngineConfig::default()
    });

    let r = e.execute(queries::BOOKSTORE_COLLECTION).unwrap();
    assert_eq!(r.rows.len(), books);

    let counts = e.execute(queries::BOOKSTORE_COUNT).unwrap();
    let total: i64 = counts
        .rows
        .iter()
        .map(|row| row[0].as_number().unwrap().as_i64().unwrap())
        .sum();
    assert_eq!(total as usize, books);

    let counts2 = sorted_rows(e.execute(queries::BOOKSTORE_COUNT2).unwrap().rows);
    assert_eq!(counts2, sorted_rows(counts.rows));

    // The single-document form (Listing 2).
    let doc = e
        .execute(r#"json-doc("books/node0/books0.json")("bookstore")("book")()"#)
        .unwrap();
    assert_eq!(doc.rows.len(), 8);
}

#[test]
fn order_by_returns_sorted_results() {
    // An extension beyond the paper's queries: global ordering.
    let q = r#"
        for $r in collection("/sensors")("root")()("results")()
        where $r("dataType") eq "TMIN"
        order by $r("value") descending
        return $r("value")
    "#;
    let e = engine(
        RuleConfig::all(),
        ClusterSpec {
            nodes: 2,
            partitions_per_node: 2,
            ..Default::default()
        },
    );
    let rows = e.execute(q).unwrap().rows;
    assert!(!rows.is_empty());
    let vals: Vec<i64> = rows
        .iter()
        .map(|r| r[0].as_number().unwrap().as_i64().unwrap())
        .collect();
    let mut sorted = vals.clone();
    sorted.sort_by(|a, b| b.cmp(a));
    assert_eq!(vals, sorted, "descending order expected");

    // Reference multiset check against the generator.
    let mut expected: Vec<i64> = all_measurements()
        .into_iter()
        .filter(|m| m.get_key("dataType").unwrap().as_str() == Some("TMIN"))
        .map(|m| {
            m.get_key("value")
                .unwrap()
                .as_number()
                .unwrap()
                .as_i64()
                .unwrap()
        })
        .collect();
    expected.sort_by(|a, b| b.cmp(a));
    assert_eq!(vals, expected);
}

#[test]
fn order_by_ascending_is_default() {
    let q = r#"
        for $r in collection("/sensors")("root")()("results")()("value")
        order by $r
        return $r
    "#;
    let e = engine(RuleConfig::all(), ClusterSpec::single_node(3));
    let rows = e.execute(q).unwrap().rows;
    let vals: Vec<i64> = rows
        .iter()
        .map(|r| r[0].as_number().unwrap().as_i64().unwrap())
        .collect();
    let mut sorted = vals.clone();
    sorted.sort();
    assert_eq!(vals, sorted);
}

#[test]
fn every_system_computes_the_same_q2_answer() {
    use baselines::asterix::{AsterixMode, AsterixSim};
    use baselines::{BenchQuery, DocStore, QuerySystem, SparkSim, VxQuerySystem};

    let root = data_root().clone();
    let sensors = root.join("sensors");
    let cluster = ClusterSpec {
        nodes: 2,
        partitions_per_node: 2,
        ..Default::default()
    };
    let expected = q2_reference();

    let mut vx = VxQuerySystem::new(&root, cluster.clone());
    let mut mongo = DocStore::new(2);
    mongo.load(&sensors).unwrap();
    let mut spark = SparkSim::new(0);
    spark.load(&sensors).unwrap();
    let mut asterix = AsterixSim::new(
        AsterixMode::External,
        cluster,
        &root,
        scratch_dir("e2e-asterix-storage"),
    );
    asterix.load(&sensors).unwrap();

    let systems: &mut [&mut dyn QuerySystem] = &mut [&mut vx, &mut mongo, &mut spark, &mut asterix];
    for sys in systems.iter_mut() {
        let got = sys
            .run(BenchQuery::Q2)
            .unwrap_or_else(|e| panic!("{} failed: {e}", sys.name()))
            .aggregate
            .unwrap_or_else(|| panic!("{} returned no aggregate", sys.name()));
        assert!(
            (got - expected).abs() < 1e-9,
            "{}: got {got}, want {expected}",
            sys.name()
        );
    }
}

#[test]
fn mixed_numeric_group_keys_group_together() {
    // 1 and 1.0 are JSONiq-equal; byte-level grouping must not split them.
    let dir = scratch_dir("e2e-mixed-keys");
    let node = dir.join("nums/node0");
    std::fs::create_dir_all(&node).unwrap();
    std::fs::write(
        node.join("a.json"),
        br#"{"root": [{"results": [
            {"k": 1, "v": "x"}, {"k": 1.0, "v": "y"}, {"k": 2, "v": "z"}
        ]}]}"#,
    )
    .unwrap();
    let e = Engine::new(EngineConfig {
        data_root: dir,
        ..Default::default()
    });
    let q = r#"
        for $r in collection("/nums")("root")()("results")()
        group by $k := $r("k")
        return count($r("v"))
    "#;
    let mut counts: Vec<i64> = e
        .execute(q)
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_number().unwrap().as_i64().unwrap())
        .collect();
    counts.sort();
    assert_eq!(counts, vec![1, 2], "1 and 1.0 must share a group");
}
