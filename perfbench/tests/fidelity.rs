//! The scan replay times the code the engine runs: the engine's split
//! profiles of the same query report the replay's stage-1 kernel, and
//! emit exactly as many tuples as the replay projects items.

use dataflow::ClusterSpec;
use datagen::SensorSpec;
use perfbench::dataset::Dataset;
use perfbench::replay::{replay, scan_paths};
use perfbench::workload::sensor;
use std::path::PathBuf;
use vxq_core::{Engine, EngineConfig, ExecOptions, ScanOptions};

#[test]
fn replay_matches_the_engines_split_profiles() {
    // One file, large enough to split over two partitions.
    let spec = SensorSpec {
        seed: 9,
        nodes: 1,
        files_per_node: 1,
        records_per_file: 400,
        measurements_per_array: 5,
        ..SensorSpec::default()
    };
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fidelity");
    let _ = std::fs::remove_dir_all(&root);
    let data = Dataset::generate(&spec, &root).unwrap();
    let engine = Engine::new(EngineConfig {
        cluster: ClusterSpec::single_node(2),
        data_root: root.clone(),
        ..EngineConfig::default()
    });
    for label in ["Q0", "Q0b", "Q2"] {
        let q = sensor(label);
        let prepared = engine.prepare(&q.text, None).unwrap();
        let paths = scan_paths(&prepared.plan);
        assert!(!paths.is_empty(), "{label} has no DATASCAN");
        let result = engine
            .execute_prepared(&prepared, None, ExecOptions::default())
            .unwrap();
        let splits = &result.stats.profile.splits;
        assert!(
            splits.len() >= 2 * paths.len(),
            "{label}: the file did not split: {splits:?}"
        );
        let r = replay(&data.files, &paths[0], ScanOptions::default().stage1, "date").unwrap();
        let tuples: u64 = splits.iter().map(|s| s.tuples).sum();
        assert_eq!(tuples, r.items * paths.len() as u64, "{label}");
        for s in splits {
            assert_eq!(s.kernel, Some(r.kernel), "{label}: {s:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
