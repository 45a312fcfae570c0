//! The oracle agrees with the engine on the five sensor queries and on
//! seeded variants, under all rewrite rules and under none.

use algebra::RuleConfig;
use dataflow::ClusterSpec;
use datagen::{SensorSpec, DATA_TYPES};
use perfbench::dataset::Dataset;
use perfbench::oracle::{Answer, Oracle};
use perfbench::workload::{count_variant, select_variant, sensor, BenchQuery, ServiceMix};
use std::path::PathBuf;
use vxq_core::queries::SENSOR_QUERIES;
use vxq_core::{Engine, EngineConfig};

#[test]
fn oracle_matches_the_engine_under_all_and_no_rules() {
    let spec = SensorSpec {
        seed: 5,
        nodes: 2,
        files_per_node: 2,
        records_per_file: 30,
        measurements_per_array: 6,
        stations: 3,
        years: 6,
        ..SensorSpec::default()
    };
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("oracle");
    let _ = std::fs::remove_dir_all(&root);
    Dataset::generate(&spec, &root).unwrap();
    let oracle = Oracle::new(&spec);

    let mut queries: Vec<BenchQuery> = SENSOR_QUERIES.iter().map(|(l, _)| sensor(l)).collect();
    // Variants that select rows of this small dataset, so that agreement
    // is not agreement on empty answers, then the service mix's own.
    queries.extend((1..=12).map(|month| select_variant(1900, month, 10)));
    queries.extend(DATA_TYPES.into_iter().map(|dt| count_variant(dt, 20)));
    let mix = ServiceMix::new(5).queries;
    queries.extend(mix.into_iter().skip(SENSOR_QUERIES.len()).take(10));
    let rows: u64 = queries
        .iter()
        .map(|q| match oracle.answer(&q.kind) {
            Answer::Rows { count, .. } => count,
            Answer::Number(_) => 1,
        })
        .sum();
    assert!(rows > 50, "the test queries select only {rows} rows");

    for rules in [RuleConfig::all(), RuleConfig::none()] {
        let engine = Engine::new(EngineConfig {
            cluster: ClusterSpec {
                nodes: 2,
                partitions_per_node: 1,
                ..ClusterSpec::default()
            },
            rules,
            data_root: root.clone(),
            ..EngineConfig::default()
        });
        for q in &queries {
            let result = engine
                .execute(&q.text)
                .unwrap_or_else(|e| panic!("{} under {rules:?}: {e}", q.label));
            let (got, want) = (
                Answer::observed(&q.kind, &result.rows),
                oracle.answer(&q.kind),
            );
            assert!(
                got.matches(&want),
                "{} under {rules:?}: engine {got:?}, oracle {want:?}\n{}",
                q.label,
                q.text
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
