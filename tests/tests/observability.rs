//! Observability: per-operator profiles, EXPLAIN ANALYZE, and the
//! query-lifecycle trace, exercised end to end on a 2-node × 2-partition
//! cluster (the smallest shape with both intra- and inter-node exchanges).

use algebra::rules::RuleConfig;
use dataflow::ClusterSpec;
use datagen::SensorSpec;
use std::path::PathBuf;
use std::sync::OnceLock;
use vxq_core::{queries, Engine, EngineConfig};

fn data_root() -> &'static PathBuf {
    static ROOT: OnceLock<PathBuf> = OnceLock::new();
    ROOT.get_or_init(|| {
        let dir = std::env::temp_dir().join("vxq-observability-sensors");
        let _ = std::fs::remove_dir_all(&dir);
        SensorSpec {
            seed: 11,
            nodes: 2,
            files_per_node: 3,
            records_per_file: 20,
            measurements_per_array: 6,
            stations: 8,
            start_year: 2001,
            years: 8,
        }
        .generate(&dir.join("sensors"))
        .expect("generate dataset");
        dir
    })
}

fn engine(rules: RuleConfig) -> Engine {
    Engine::new(EngineConfig {
        cluster: ClusterSpec {
            nodes: 2,
            partitions_per_node: 2,
            ..Default::default()
        },
        rules,
        data_root: data_root().clone(),
        memory_budget: 0,
        ..EngineConfig::default()
    })
}

/// Q1 on the optimized plan: tuple counts must be conserved through the
/// fused chains and across the hash exchange into the group-by stage.
#[test]
fn q1_per_operator_counts_are_consistent() {
    let (r, _trace) = engine(RuleConfig::all())
        .execute_profiled(queries::Q1)
        .expect("Q1 runs");
    let profile = &r.stats.profile;
    let sums = profile.summaries();
    assert!(sums.len() >= 4, "expected a multi-operator profile");

    // Within a stage, operator K's output is operator K+1's input — and
    // the per-partition sums must agree after aggregation.
    for pair in sums.windows(2) {
        if pair[0].stage == pair[1].stage {
            assert_eq!(
                pair[0].tuples_out, pair[1].tuples_in,
                "chain break between {} and {}",
                pair[0].name, pair[1].name
            );
        }
    }

    // Across the exchange: everything the stage-0 hash sender emits
    // arrives at the stage-1 global group-by.
    let sent = sums
        .iter()
        .find(|s| s.stage == 0 && s.name == "EXCHANGE-HASH")
        .expect("stage 0 ends in a hash exchange")
        .tuples_out;
    let received = sums
        .iter()
        .find(|s| s.stage == 1 && s.op_index == 0)
        .expect("stage 1 head")
        .tuples_in;
    assert_eq!(sent, received, "tuples lost or duplicated in the exchange");
    assert!(sent > 0, "Q1 must move tuples");

    // The sink saw exactly the rows the query returned, across all 4
    // partitions of the 2-node × 2-partition cluster.
    let sink = sums.iter().find(|s| s.name == "SINK").expect("sink probe");
    assert_eq!(sink.tuples_in as usize, r.rows.len());
    assert_eq!(sink.partitions, 4, "terminal stage runs on every partition");
}

/// On the naive plan (no rewrites) a grouping query with no filter keeps
/// every unnested tuple: the innermost UNNEST's output equals the
/// GROUP-BY's input, end to end across the exchange.
#[test]
fn unnest_output_matches_group_by_input() {
    let q = r#"
        for $r in collection("/sensors")("root")()("results")()
        group by $date := $r("date")
        return count($r("station"))
    "#;
    let (r, _trace) = engine(RuleConfig::none())
        .execute_profiled(q)
        .expect("naive grouping query runs");
    let profile = &r.stats.profile;
    let innermost_unnest = profile
        .summaries()
        .into_iter()
        .filter(|s| s.name == "UNNEST")
        .max_by_key(|s| (s.stage, s.op_index))
        .expect("naive plan unnests the measurement arrays");
    let group_by_in = profile.tuples_into("MAT-GROUP-BY");
    assert_eq!(
        innermost_unnest.tuples_out, group_by_in,
        "UNNEST out must equal GROUP-BY in when nothing filters between them"
    );
    // 2 nodes × 3 files × 20 records × 6 measurements.
    assert_eq!(group_by_in, 720);
}

/// EXPLAIN ANALYZE renders the optimized plan annotated with measured
/// per-operator tuple/frame/time columns.
#[test]
fn explain_analyze_reports_plan_and_runtime() {
    let report = engine(RuleConfig::all())
        .explain_analyze(queries::Q1)
        .expect("explain analyze");
    assert!(report.contains("== optimized plan =="), "{report}");
    assert!(report.contains("== rule firings =="), "{report}");
    assert!(report.contains("== runtime"), "{report}");
    for col in ["tuples_in", "tuples_out", "frames_in", "busy_us"] {
        assert!(report.contains(col), "missing column {col} in:\n{report}");
    }
    for op in ["HASH-GROUP-BY", "EXCHANGE-HASH", "SINK"] {
        assert!(report.contains(op), "missing operator {op} in:\n{report}");
    }
}

/// The lifecycle trace covers parse → translate → optimize (one span per
/// rule firing) → compile → execute (one span per stage task), and both
/// export formats are valid JSON.
#[test]
fn trace_covers_lifecycle_and_round_trips_as_json() {
    let (r, trace) = engine(RuleConfig::all())
        .execute_profiled(queries::Q1)
        .expect("Q1 runs");
    let events = trace.events();
    for phase in ["parse", "translate", "optimize", "compile", "execute"] {
        assert!(
            events
                .iter()
                .any(|e| e.name == phase && e.cat == "lifecycle"),
            "missing lifecycle span {phase}"
        );
    }
    let rule_spans = events.iter().filter(|e| e.cat == "rule").count();
    assert_eq!(
        rule_spans,
        r.rule_firings.len(),
        "one trace span per optimizer rule firing"
    );
    assert!(rule_spans > 0, "Q1 with all rules fires rewrites");
    // 2 stages × 4 partitions = 8 task spans.
    assert_eq!(events.iter().filter(|e| e.cat == "execute").count(), 8);

    for line in trace.to_json_lines().lines() {
        jdm::parse::parse_item(line.as_bytes()).expect("JSON-lines export round-trips");
    }
    let chrome = jdm::parse::parse_item(trace.to_chrome_trace().as_bytes())
        .expect("Chrome trace export round-trips");
    let n = chrome
        .get_key("traceEvents")
        .expect("traceEvents")
        .keys_or_members()
        .count();
    assert_eq!(n, events.len());
}

/// Each whole-file load is charged to the scan cache only while it is
/// resident: eight equally shaped files scanned one after another on one
/// partition peak at about one file's load, not eight.
#[test]
fn whole_file_loads_are_released_per_file() {
    let eight = std::env::temp_dir().join("vxq-observability-release-8");
    let one = std::env::temp_dir().join("vxq-observability-release-1");
    for root in [&eight, &one] {
        let _ = std::fs::remove_dir_all(root);
    }
    SensorSpec {
        files_per_node: 8,
        records_per_file: 20,
        measurements_per_array: 10,
        ..SensorSpec::default()
    }
    .generate(&eight.join("sensors"))
    .expect("generate dataset");
    let mut files: Vec<PathBuf> = std::fs::read_dir(eight.join("sensors/node0"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 8);
    std::fs::create_dir_all(one.join("sensors/node0")).unwrap();
    std::fs::copy(&files[0], one.join("sensors/node0/part0.json")).unwrap();
    let peak_cached = |root: &PathBuf| {
        let e = Engine::new(EngineConfig {
            cluster: ClusterSpec::single_node(1),
            data_root: root.clone(),
            ..EngineConfig::default()
        });
        let r = e.execute(queries::Q0).unwrap();
        assert_eq!(e.memory().cached(), 0, "every load released by job end");
        r.stats.peak_cached
    };
    let (all, single) = (peak_cached(&eight), peak_cached(&one));
    assert!(
        single > 0,
        "a whole-file load is charged to the cache class"
    );
    assert!(
        all < 2 * single,
        "8 files peaked at {all} cached bytes, one file at {single}"
    );
}
