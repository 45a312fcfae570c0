//! Intra-file split scanning (beyond the paper): one large JSON file,
//! growing partition counts, splits on vs off.
//!
//! The paper's layout gives every node "a unique set of JSON files", so a
//! collection with fewer files than partitions strands workers. The
//! record-aligned split scan removes that constraint; this experiment
//! measures what it buys on the degenerate single-file collection.

use crate::{ms, Harness, Table};
use algebra::rules::RuleConfig;
use dataflow::ClusterSpec;
use datagen::SensorSpec;
use vxq_core::queries::Q0;
use vxq_core::ScanOptions;

/// Q0 over a single-file collection at 1/2/4 partitions, whole-file
/// assignment versus record-aligned splits.
pub fn splits(h: &Harness) -> Vec<Table> {
    let spec = SensorSpec::sized(2 * 1024 * 1024 * h.scale.factor(), 1, 1, 30);
    let root = h.dataset("splits", &spec);
    let mut t = Table::new(
        "Splits — Q0 on a single large file, whole-file vs record-aligned split scan",
        &[
            "partitions",
            "splits off (ms)",
            "splits on (ms)",
            "speed-up",
        ],
    );
    for parts in [1usize, 2, 4] {
        let cluster = ClusterSpec {
            nodes: 1,
            partitions_per_node: parts,
            ..Default::default()
        };
        let mut row = vec![parts.to_string()];
        let mut times = Vec::new();
        for scan in [
            ScanOptions {
                min_split_bytes: u64::MAX,
                ..ScanOptions::default()
            },
            ScanOptions {
                min_split_bytes: 64 * 1024,
                ..ScanOptions::default()
            },
        ] {
            let e = h.engine_with_scan(&root, cluster.clone(), RuleConfig::all(), scan);
            let d = h.time_query(&e, Q0);
            times.push(d);
            row.push(ms(d));
        }
        row.push(format!(
            "{:.2}x",
            times[0].as_secs_f64() / times[1].as_secs_f64().max(1e-9)
        ));
        t.row(row);
    }
    t.note = "With one file, whole-file assignment pins the entire scan on one \
              partition regardless of cluster size; splits restore near-linear \
              scan parallelism."
        .into();
    vec![t]
}
