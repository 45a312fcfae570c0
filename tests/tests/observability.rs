//! Observability: per-operator profiles, EXPLAIN ANALYZE, the query
//! report's JSON and Prometheus renderings, and the query-lifecycle
//! trace, exercised end to end on a 2-node × 2-partition cluster (the
//! smallest shape with both intra- and inter-node exchanges).

use algebra::rules::RuleConfig;
use dataflow::ClusterSpec;
use datagen::SensorSpec;
use integration_tests::scratch_dir;
use jdm::Item;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::OnceLock;
use vxq_core::{
    queries, render_analysis, Engine, EngineConfig, QueryOptions, QueryResult, QueryService,
    Report, ServiceConfig, ServiceSnapshot,
};

fn data_root() -> &'static PathBuf {
    static ROOT: OnceLock<PathBuf> = OnceLock::new();
    ROOT.get_or_init(|| {
        let dir = scratch_dir("observability-sensors");
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
    engine_with_budget(rules, 0)
}

fn engine_with_budget(rules: RuleConfig, memory_budget: usize) -> Engine {
    Engine::new(EngineConfig {
        cluster: ClusterSpec {
            nodes: 2,
            partitions_per_node: 2,
            ..Default::default()
        },
        rules,
        data_root: data_root().clone(),
        memory_budget,
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
    let eight = scratch_dir("observability-release-8");
    let one = scratch_dir("observability-release-1");
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

fn profiled_q1() -> (QueryResult, std::sync::Arc<dataflow::TraceBuffer>) {
    engine(RuleConfig::all())
        .execute_profiled(queries::Q1)
        .expect("Q1 runs")
}

#[test]
fn prometheus_exposition_is_well_formed() {
    let (r, _) = profiled_q1();
    let prom = Report::query("q1", &r).prometheus();
    assert!(prom.contains("# TYPE vxq_elapsed_seconds gauge"));
    assert!(prom.contains("vxq_op_tuples_in{query=\"q1\""));
    assert!(prom.contains("vxq_rule_firings_duration_seconds"));
    assert!(prom.contains("vxq_spill_runs_written"));
    assert!(prom.contains("vxq_spill_budget_exceeded"));
    assert!(prom.contains("vxq_peak_cached_bytes"));
    // Every non-comment line is `name{labels} value`.
    for line in prom.lines().filter(|l| !l.starts_with('#')) {
        let (head, value) = line.rsplit_once(' ').expect("sample has value");
        assert!(head.contains('{') && head.ends_with('}'), "{line}");
        value.parse::<f64>().expect("numeric value");
    }
}

#[test]
fn json_snapshot_parses_and_carries_rule_durations() {
    let (r, trace) = profiled_q1();
    let json = Report::query("q1", &r).json();
    let item = jdm::parse::parse_item(json.as_bytes()).expect("snapshot is valid JSON");
    assert!(
        !r.rule_firings.is_empty(),
        "Q1 with all rules must fire rewrites"
    );
    let spill = item.get_key("spill").expect("spill object");
    assert!(spill
        .get_key("runs_written")
        .and_then(|v| v.as_number())
        .is_some());
    assert!(spill.get_key("budget_exceeded").is_some());
    let first = item
        .get_key("rule_firings")
        .and_then(|f| f.get_index(0))
        .expect("rule_firings[0]");
    assert!(first
        .get_key("duration_us")
        .and_then(|d| d.as_number())
        .is_some());
    assert!(first.get_key("rule").and_then(|n| n.as_str()).is_some());

    // The trace exports must themselves be valid JSON, with at least
    // one span per fired optimizer rule.
    let chrome = trace.to_chrome_trace();
    let parsed = jdm::parse::parse_item(chrome.as_bytes()).expect("chrome trace parses");
    let events = parsed.get_key("traceEvents").expect("traceEvents array");
    let rule_spans = trace.events().iter().filter(|e| e.cat == "rule").count();
    assert_eq!(rule_spans, r.rule_firings.len());
    assert_eq!(
        events
            .get_index(0)
            .and_then(|e| e.get_key("ph"))
            .and_then(|p| p.as_str()),
        Some("X")
    );
    for line in trace.to_json_lines().lines() {
        jdm::parse::parse_item(line.as_bytes()).expect("each trace line is valid JSON");
    }
}

/// Two Q1 runs through a service: one plan-cache miss, one hit.
fn service_snapshot() -> ServiceSnapshot {
    let service = QueryService::new(engine(RuleConfig::all()), ServiceConfig::default());
    for _ in 0..2 {
        service
            .execute(queries::Q1, QueryOptions::default())
            .expect("Q1 through the service");
    }
    service.snapshot()
}

#[test]
fn service_exposition_is_well_formed() {
    let prom = Report::service(&service_snapshot()).prometheus();
    assert!(prom.contains("# TYPE vxq_service_completed gauge"));
    assert!(prom.contains("vxq_service_completed 2"));
    assert!(prom.contains("vxq_service_plan_cache_hits 1"));
    assert!(prom.contains("vxq_service_leaked_bytes 0"));
    assert!(prom.contains("vxq_service_latency_p99_seconds"));
    assert!(prom.contains("vxq_service_queue_wait_p50_seconds"));
    for line in prom.lines().filter(|l| !l.starts_with('#')) {
        let (_, value) = line.rsplit_once(' ').expect("sample has value");
        value.parse::<f64>().expect("numeric value");
    }
}

#[test]
fn service_json_snapshot_parses() {
    let json = Report::service(&service_snapshot()).json();
    let item = jdm::parse::parse_item(json.as_bytes()).expect("valid JSON");
    assert_eq!(
        item.get_key("completed")
            .and_then(|v| v.as_number())
            .map(|n| n.as_f64()),
        Some(2.0)
    );
    let cache = item.get_key("plan_cache").expect("plan_cache object");
    let num = |item: &Item, key: &str| {
        item.get_key(key)
            .and_then(|v| v.as_number())
            .map(|n| n.as_f64())
    };
    assert_eq!(num(cache, "hits"), Some(1.0));
    assert_eq!(num(cache, "misses"), Some(1.0));
    let lat = item.get_key("latency").expect("latency object");
    assert_eq!(num(lat, "count"), Some(2.0));
    assert!(lat.get_key("p99_us").and_then(|v| v.as_number()).is_some());
}

/// One Prometheus sample: family, labels, value.
type Sample = (String, BTreeMap<String, String>, f64);

/// Parse a Prometheus exposition, checking that each family has exactly
/// one HELP and one TYPE line before its samples, that every sample is
/// `name{labels} value` (or `name value`) with a finite value, and that
/// no series repeats. Returns the families and the samples.
fn parse_exposition(prom: &str) -> (BTreeSet<String>, Vec<Sample>) {
    let (mut help, mut types) = (BTreeMap::new(), BTreeMap::new());
    let mut samples: Vec<Sample> = Vec::new();
    for line in prom.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (family, text) = rest.split_once(' ').expect("HELP has text");
            assert!(!text.trim().is_empty(), "{line}");
            *help.entry(family.to_string()).or_insert(0) += 1;
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            assert_eq!(
                rest.split_once(' ').map(|(_, t)| t),
                Some("gauge"),
                "{line}"
            );
            *types
                .entry(rest.split(' ').next().unwrap().to_string())
                .or_insert(0) += 1;
        } else {
            let (head, value) = line.rsplit_once(' ').expect("sample has a value");
            let value: f64 = value.parse().expect("numeric value");
            assert!(value.is_finite(), "{line}");
            let (name, labels) = match head.split_once('{') {
                Some((name, labels)) => (name, labels.strip_suffix('}').expect("closed labels")),
                None => (head, ""),
            };
            assert!(
                help.contains_key(name) && types.contains_key(name),
                "{line}"
            );
            let labels = labels
                .split(',')
                .filter(|l| !l.is_empty())
                .map(|l| {
                    let (k, v) = l.split_once('=').expect("label is k=\"v\"");
                    let v = v.strip_prefix('"').and_then(|v| v.strip_suffix('"'));
                    (k.to_string(), v.expect("quoted label value").to_string())
                })
                .collect();
            samples.push((name.to_string(), labels, value));
        }
    }
    assert!(
        help.values().chain(types.values()).all(|&n| n == 1),
        "{prom}"
    );
    let families: BTreeSet<String> = help.keys().cloned().collect();
    assert_eq!(families, types.keys().cloned().collect::<BTreeSet<_>>());
    let sampled: BTreeSet<String> = samples.iter().map(|s| s.0.clone()).collect();
    assert_eq!(families, sampled, "every family has samples");
    let series: BTreeSet<_> = samples.iter().map(|(n, l, _)| (n, l)).collect();
    assert_eq!(series.len(), samples.len(), "a series repeats:\n{prom}");
    (families, samples)
}

/// Check that a report's JSON and Prometheus renderings carry the same
/// metric set: a JSON key `k` of section `s` is family `<prefix>s_k`
/// (`<prefix>k` at the top level), with `_us` read as `_seconds`; a table
/// row's other keys are the labels of that section's samples, and the
/// top-level strings label every sample.
fn assert_same_metrics(json: &str, prom: &str, prefix: &str) {
    let item = jdm::parse::parse_item(json.as_bytes()).expect("report JSON parses");
    let (families, samples) = parse_exposition(prom);
    let family = |section: &str, key: &str| {
        let key = match key.strip_suffix("_us") {
            Some(base) => format!("{base}_seconds"),
            None => key.to_string(),
        };
        match section {
            "" => format!("{prefix}{key}"),
            s => format!("{prefix}{s}_{key}"),
        }
    };
    let Item::Object(top) = &item else {
        panic!("report JSON is an object: {json}")
    };
    let mut from_json = BTreeSet::new();
    for (key, value) in top {
        match value {
            Item::String(v) => assert!(
                samples
                    .iter()
                    .all(|(_, l, _)| l.get(&**key) == Some(&v.to_string())),
                "`{key}` labels every sample"
            ),
            Item::Object(fields) => {
                from_json.extend(fields.iter().map(|(k, _)| family(key, k)));
            }
            Item::Array(rows) => {
                let section = format!("{prefix}{key}_");
                for row in rows {
                    let Item::Object(fields) = row else {
                        panic!("`{key}` rows are objects")
                    };
                    for (k, _) in fields {
                        let f = family(key, k);
                        if families.contains(&f) {
                            from_json.insert(f);
                        } else {
                            assert!(
                                samples.iter().any(
                                    |(n, l, _)| n.starts_with(&section) && l.contains_key(&**k)
                                ),
                                "`{key}.{k}` is neither a family nor a label"
                            );
                        }
                    }
                }
            }
            _ => {
                from_json.insert(family("", key));
            }
        }
    }
    assert_eq!(
        from_json, families,
        "JSON metrics against Prometheus families"
    );
}

/// Q0, Q1 and Q2 at 2×2, and Q1 under a budget that makes it spill: the
/// text, JSON and Prometheus renderings of each run's report carry the
/// same metrics, and the text has a section for everything the profile
/// holds.
#[test]
fn report_renderings_carry_one_metric_set() {
    let unlimited = engine(RuleConfig::all());
    let peak = unlimited.execute(queries::Q1).expect("Q1").stats;
    let budget = (peak.peak_memory.saturating_sub(peak.peak_cached) / 4).max(1);
    let runs = [
        ("Q0", queries::Q0, 0),
        ("Q1", queries::Q1, 0),
        ("Q2", queries::Q2, 0),
        ("Q1-budget", queries::Q1, budget),
    ];
    for (name, query, budget) in runs {
        let r = engine_with_budget(RuleConfig::all(), budget)
            .execute(query)
            .expect("query runs");
        let report = Report::query(name, &r);
        assert_same_metrics(&report.json(), &report.prometheus(), "vxq_");

        let text = render_analysis(&r);
        let p = &r.stats.profile;
        let sp = &r.stats.spill;
        let mut sections = vec![
            "== optimized plan ==",
            "== runtime",
            "\nclocks: ",
            "== totals ==",
        ];
        if !r.rule_firings.is_empty() {
            sections.push("== rule firings ==");
        }
        if !p.splits.is_empty() {
            sections.push("== scan splits ==");
        }
        if sp.budget > 0 || sp.spilled() || sp.budget_exceeded {
            sections.push("== spill ==");
            if !p.spill_ops.is_empty() {
                sections.push("peak_res");
            }
        }
        for section in sections {
            assert!(text.contains(section), "{name}: no `{section}` in:\n{text}");
        }
        for op in p.summaries() {
            assert!(text.contains(op.name), "{name}: no {} in:\n{text}", op.name);
        }
        if budget > 0 {
            assert!(sp.spilled(), "{name} spills at {budget} B");
        }
    }
}

#[test]
fn service_report_renderings_carry_one_metric_set() {
    let report = Report::service(&service_snapshot());
    assert_same_metrics(&report.json(), &report.prometheus(), "vxq_service_");
    let text = report.text();
    for section in [
        "== service ==",
        "== plan cache ==",
        "== latency ==",
        "== queue wait ==",
    ] {
        assert!(text.contains(section), "no `{section}` in:\n{text}");
    }
}
