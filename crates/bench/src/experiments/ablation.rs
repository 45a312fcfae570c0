//! Ablations of design choices beyond the paper's figures (DESIGN.md
//! calls these out): two-step aggregation and the Hyracks frame size.

use crate::{ms, Harness, Table};
use algebra::rules::RuleConfig;
use dataflow::ClusterSpec;

/// Two-step (local/global) aggregation on/off, on a multi-partition
/// cluster. The paper activates the rule "introduced in \[17\]" as part of
/// the group-by family; this isolates its contribution.
pub fn two_step(h: &Harness) -> Vec<Table> {
    let spec = h.sensor_spec(2 * 1024 * 1024, 2, 30);
    let root = h.dataset("ablation-twostep", &spec);
    let cluster = ClusterSpec {
        nodes: 2,
        partitions_per_node: 4,
        ..Default::default()
    };
    let with = RuleConfig::all();
    let without = RuleConfig {
        two_step_aggregation: false,
        ..RuleConfig::all()
    };

    let mut t = Table::new(
        "Ablation — two-step (local/global) aggregation",
        &[
            "query",
            "single-step (ms)",
            "two-step (ms)",
            "single net KiB",
            "two-step net KiB",
        ],
    );
    for (name, q) in [("Q1", vxq_core::queries::Q1), ("Q2", vxq_core::queries::Q2)] {
        let e_without = h.engine(&root, cluster.clone(), without);
        let e_with = h.engine(&root, cluster.clone(), with);
        let t_without = h.time_query(&e_without, q);
        let t_with = h.time_query(&e_with, q);
        let net_without = e_without.execute(q).expect("query").stats.network_bytes / 1024;
        let net_with = e_with.execute(q).expect("query").stats.network_bytes / 1024;
        t.row(vec![
            name.to_string(),
            ms(t_without),
            ms(t_with),
            net_without.to_string(),
            net_with.to_string(),
        ]);
    }
    t.note = "Local pre-aggregation shrinks exchange traffic; the win grows with group \
              cardinality and node count ('the larger the groups, the better', §4.3)."
        .into();
    vec![t]
}

/// Frame size sweep: Hyracks moves data in fixed-size frames; the paper's
/// pipelining rules exist partly to satisfy the frame-size restriction.
pub fn frame_size(h: &Harness) -> Vec<Table> {
    let spec = h.sensor_spec(2 * 1024 * 1024, 1, 30);
    let root = h.dataset("ablation-frames", &spec);
    let mut t = Table::new(
        "Ablation — dataflow frame size (Q1, 4 partitions)",
        &["frame size", "elapsed (ms)", "frames shipped"],
    );
    for kib in [4usize, 32, 256] {
        let cluster = ClusterSpec {
            nodes: 1,
            partitions_per_node: 4,
            frame_size: kib * 1024,
            ..Default::default()
        };
        let e = h.engine(&root, cluster, RuleConfig::all());
        // Q1's hash exchange actually ships frames; Q0 compiles to a
        // single fused stage with no exchange at all.
        let elapsed = h.time_query(&e, vxq_core::queries::Q1);
        let frames = e
            .execute(vxq_core::queries::Q1)
            .expect("q1")
            .stats
            .frames_shipped;
        t.row(vec![format!("{kib} KiB"), ms(elapsed), frames.to_string()]);
    }
    t.note = "Bigger frames amortize per-frame costs but raise latency per hop; 32 KiB \
              (Hyracks' default) is the sweet spot for this workload."
        .into();
    vec![t]
}

/// Column pruning on/off is not toggleable at runtime (it is always
/// sound), but the naive-plan memory experiment doubles as its ablation:
/// peak memory under each rule family.
pub fn memory_by_config(h: &Harness) -> Vec<Table> {
    let spec = h.sensor_spec(1024 * 1024, 1, 30);
    let root = h.dataset("ablation-memory", &spec);
    let cluster = ClusterSpec::single_node(1);
    let mut t = Table::new(
        "Ablation — peak materialized bytes per rule configuration (Q1)",
        &["configuration", "peak memory (KiB)", "elapsed (ms)"],
    );
    for (label, cfg) in [
        ("no rules", RuleConfig::none()),
        ("path", RuleConfig::path_only()),
        ("path+pipelining", RuleConfig::path_and_pipelining()),
        ("all rules", RuleConfig::all()),
    ] {
        let e = h.engine(&root, cluster.clone(), cfg);
        let r = e.execute(vxq_core::queries::Q1).expect("q1");
        t.row(vec![
            label.to_string(),
            (r.stats.peak_memory / 1024).to_string(),
            ms(r.stats.elapsed),
        ]);
    }
    t.note = "The pipelining rules eliminate the whole-collection materialization; the \
              group-by rules eliminate the per-group sequences."
        .into();
    vec![t]
}
