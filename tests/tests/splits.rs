//! Intra-file split scanning, end to end: partition invariance, tuple
//! conservation per split, and EXPLAIN ANALYZE surfacing the per-split
//! balance.
//!
//! The dataset is a *single* JSON file — the worst case for the old
//! whole-file work assignment (one partition did everything). With
//! record-aligned splits the file fans out across all partitions of the
//! owning node, and every cluster shape must still produce byte-identical
//! results.

use dataflow::ClusterSpec;
use datagen::SensorSpec;
use integration_tests::{partitions_from_env, scratch_dir};
use std::path::PathBuf;
use std::sync::OnceLock;
use vxq_core::{queries, Engine, EngineConfig, ScanOptions};

/// One big-ish file (a few hundred KB) shared by every test here.
fn data_root() -> &'static PathBuf {
    static ROOT: OnceLock<PathBuf> = OnceLock::new();
    ROOT.get_or_init(|| {
        let dir = scratch_dir("splits-sensors");
        SensorSpec {
            seed: 23,
            nodes: 1,
            files_per_node: 1,
            records_per_file: 120,
            measurements_per_array: 8,
            stations: 10,
            start_year: 2001,
            years: 9,
        }
        .generate(&dir.join("sensors"))
        .expect("generate dataset");
        dir
    })
}

fn engine(nodes: usize, ppn: usize, scan: ScanOptions) -> Engine {
    Engine::new(EngineConfig {
        cluster: ClusterSpec {
            nodes,
            partitions_per_node: ppn,
            ..Default::default()
        },
        data_root: data_root().clone(),
        scan,
        ..EngineConfig::default()
    })
}

fn splits_on() -> ScanOptions {
    ScanOptions {
        // Low threshold so the test file (well under 64 KiB per split)
        // still fans out.
        min_split_bytes: 1024,
        ..ScanOptions::default()
    }
}

fn splits_off() -> ScanOptions {
    ScanOptions {
        // No file is this large, so every file is one whole-file split.
        min_split_bytes: u64::MAX,
        ..ScanOptions::default()
    }
}

/// Render sorted result rows so runs compare byte-for-byte.
fn canonical_rows(engine: &Engine, query: &str) -> String {
    let r = engine.execute(query).expect("query runs");
    let mut rows: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|item| format!("{item:?}"))
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect();
    rows.sort();
    rows.join("\n")
}

#[test]
fn every_cluster_shape_and_split_mode_agrees() {
    let shapes = [
        (1usize, 1usize),
        (1, 4),
        (2, 2),
        (1, partitions_from_env(4)),
    ];
    for query in [queries::Q0, queries::Q1, queries::Q2] {
        let baseline = canonical_rows(&engine(1, 1, splits_off()), query);
        assert!(!baseline.is_empty(), "baseline must return rows");
        for (nodes, ppn) in shapes {
            for (mode, scan) in [("on", splits_on()), ("off", splits_off())] {
                let got = canonical_rows(&engine(nodes, ppn, scan), query);
                assert_eq!(
                    got, baseline,
                    "results diverge at {nodes}x{ppn} with splits {mode}"
                );
            }
        }
    }
}

#[test]
fn single_file_fans_out_across_partitions() {
    let e = engine(1, 4, splits_on());
    let (r, _trace) = e.execute_profiled(queries::Q0).expect("Q0 runs");
    let per_partition = r.stats.profile.scan_tuples_by_partition();
    let busy: Vec<_> = per_partition.iter().filter(|(_, t)| *t > 0).collect();
    assert!(
        busy.len() >= 2,
        "one file on 4 partitions must scan on >= 2 of them: {per_partition:?}"
    );
    // Every split belongs to the same single file, with distinct ranges.
    let splits = &r.stats.profile.splits;
    assert!(splits.len() >= 2, "expected multiple splits: {splits:?}");
    let files: std::collections::HashSet<_> = splits.iter().map(|s| &s.file).collect();
    assert_eq!(files.len(), 1, "the dataset is one file");
    let mut ids: Vec<_> = splits.iter().map(|s| (s.split, s.of)).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), splits.len(), "split ranges must be distinct");
}

#[test]
fn split_tuple_counts_are_conserved_into_the_operator_profile() {
    let e = engine(1, 4, splits_on());
    let (r, _trace) = e.execute_profiled(queries::Q1).expect("Q1 runs");
    let profile = &r.stats.profile;
    let from_splits: u64 = profile.splits.iter().map(|s| s.emitted).sum();
    assert!(from_splits > 0, "splits must report emitted tuples");
    // The scan feeds stage 0's first profiled operator: what the splits
    // emitted (after the scan's filter) is exactly what that operator
    // consumed (summed over partitions).
    let head = profile
        .summaries()
        .into_iter()
        .filter(|s| s.stage == 0)
        .min_by_key(|s| s.op_index)
        .expect("stage 0 profile");
    assert_eq!(
        from_splits, head.tuples_in,
        "scan splits and operator profile disagree"
    );
    // Q1's scan filter (`dataType eq "TMIN"`) drops the other readings
    // before they are written.
    let projected: u64 = profile.splits.iter().map(|s| s.tuples).sum();
    assert!(
        from_splits < projected,
        "{from_splits} emitted of {projected} projected"
    );
    // records >= tuples because the projection filters nothing here but
    // each record fans out its measurements; both must be consistent
    // per split.
    for s in &profile.splits {
        assert!(
            s.tuples == 0 || s.records > 0,
            "split emitted tuples without records: {s:?}"
        );
        assert!(
            s.emitted <= s.tuples,
            "split emitted more than it projected: {s:?}"
        );
    }
}

#[test]
fn explain_analyze_renders_the_split_table() {
    let e = engine(1, 4, splits_on());
    let out = e.explain_analyze(queries::Q0).expect("explain analyze");
    assert!(out.contains("== scan splits =="), "missing section:\n{out}");
    for col in [
        "stage", "part", "file", "split", "records", "tuples", "bytes",
    ] {
        assert!(out.contains(col), "missing column {col}:\n{out}");
    }
    assert!(
        out.contains("part0000.json"),
        "split rows must name the file:\n{out}"
    );
}

#[test]
fn splits_off_still_reports_whole_file_scans() {
    let e = engine(1, 2, splits_off());
    let (r, _trace) = e.execute_profiled(queries::Q0).expect("Q0 runs");
    let splits = &r.stats.profile.splits;
    assert!(!splits.is_empty(), "whole-file scans still profile");
    assert!(
        splits.iter().all(|s| s.of == 1),
        "splitting disabled must scan whole files: {splits:?}"
    );
}
