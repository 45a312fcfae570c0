//! Ablations of design choices beyond the paper's figures (DESIGN.md
//! calls these out): two-step aggregation, the two rules beyond the
//! paper (the DATASCAN's tape filter and eager aggregation below the
//! join) and the Hyracks frame size.

use crate::{ms, Harness, Table};
use algebra::rules::{RuleConfig, RuleSet};
use dataflow::ClusterSpec;
use datagen::SensorSpec;
use vxq_core::Engine;

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

/// The DATASCAN's filter (`push-select-into-datascan`) off and on,
/// everything else as in [`RuleConfig::all`]: the filtering queries on
/// one file split over two partitions, the shape where the scan layers
/// and the per-record ASSIGN/SELECT work dominate.
pub fn scan_filter(h: &Harness) -> Vec<Table> {
    let spec = h.sensor_spec(2 * 1024 * 1024, 1, 30);
    let root = h.dataset("ablation-scanfilter", &spec);
    let cluster = ClusterSpec::single_node(2);
    let rules = || RuleSet::for_config(RuleConfig::all());
    let mut t = Table::new(
        "Ablation — DATASCAN tape filter (push-select-into-datascan), 1 node x 2 partitions",
        &[
            "query",
            "filter off (ms)",
            "filter on (ms)",
            "speed-up",
            "scan tuples emitted (off / on)",
        ],
    );
    for (name, q) in [
        ("Q0", vxq_core::queries::Q0),
        ("Q0b", vxq_core::queries::Q0B),
        ("Q1", vxq_core::queries::Q1),
        ("Q2", vxq_core::queries::Q2),
    ] {
        let e_off = h.engine_with_rules(
            &root,
            cluster.clone(),
            rules().without("push-select-into-datascan"),
        );
        let e_on = h.engine_with_rules(&root, cluster.clone(), rules());
        let t_off = h.time_query(&e_off, q);
        let t_on = h.time_query(&e_on, q);
        let emitted = |e: &Engine| -> u64 {
            let r = e.execute(q).expect("query");
            r.stats.profile.splits.iter().map(|s| s.emitted).sum()
        };
        t.row(vec![
            name.to_string(),
            ms(t_off),
            ms(t_on),
            format!("{:.2}x", t_off.as_secs_f64() / t_on.as_secs_f64().max(1e-9)),
            format!("{} / {}", emitted(&e_off), emitted(&e_on)),
        ]);
    }
    t.note = "Off runs the SELECT above the scan; on moves it into the scan, which tests \
              each record once and skips, before they are written, the records the SELECT \
              would drop: Q0/Q0b keep ~0.2% of their records, Q1 and each side of Q2 about \
              a third."
        .into();
    vec![t]
}

/// Eager aggregation below the join (`push-aggregate-below-join`) off
/// and on, everything else as in [`RuleConfig::all`], for Q2 on two
/// nodes. The rule pays only where a (station, date) key holds many
/// readings per side: on 4 stations over one year (as the benchmark's
/// join_aggregate workload) they repeat; on the default 40 stations over
/// 15 years they rarely do, and each side's GROUP-BY passes every reading
/// through ungrouped.
pub fn eager_aggregation(h: &Harness) -> Vec<Table> {
    let cluster = ClusterSpec {
        nodes: 2,
        partitions_per_node: 1,
        ..Default::default()
    };
    let rules = || RuleSet::for_config(RuleConfig::all());
    let q = vxq_core::queries::Q2;
    // (HASH-JOIN tuples out, network KiB) of one run.
    let counts = |e: &Engine| {
        let st = e.execute(q).expect("Q2").stats;
        let joined: u64 = st
            .profile
            .ops
            .iter()
            .filter(|o| o.name == "HASH-JOIN")
            .map(|o| o.tuples_out)
            .sum();
        (joined, st.network_bytes / 1024)
    };
    let mut t = Table::new(
        "Ablation — eager aggregation below the join (push-aggregate-below-join), Q2, 2 nodes x 1 partition",
        &[
            "data",
            "rule off (ms)",
            "rule on (ms)",
            "HASH-JOIN tuples out (off / on)",
            "network KiB (off / on)",
        ],
    );
    let default = h.sensor_spec(2 * 1024 * 1024, 2, 30);
    let repeating = SensorSpec {
        stations: 4,
        years: 1,
        ..h.sensor_spec(2 * 1024 * 1024, 2, 2)
    };
    for (label, tag, spec) in [
        (
            "4 stations x 1 year (keys repeat)",
            "ablation-eager-repeat",
            repeating,
        ),
        (
            "40 stations x 15 years (keys rarely repeat)",
            "ablation-eager",
            default,
        ),
    ] {
        let root = h.dataset(tag, &spec);
        let e_off = h.engine_with_rules(
            &root,
            cluster.clone(),
            rules().without("push-aggregate-below-join"),
        );
        let e_on = h.engine_with_rules(&root, cluster.clone(), rules());
        let (joined_off, net_off) = counts(&e_off);
        let (joined_on, net_on) = counts(&e_on);
        t.row(vec![
            label.to_string(),
            ms(h.time_query(&e_off, q)),
            ms(h.time_query(&e_on, q)),
            format!("{joined_off} / {joined_on}"),
            format!("{net_off} / {net_on}"),
        ]);
    }
    t.note = "Each side folds its readings per (station, date) before the join, so the join \
              matches a row per key (and partition pair) instead of every TMIN x TMAX pair. \
              Where keys rarely repeat, each side's GROUP-BY sees no repeats and passes its \
              tuples through as one-tuple partials."
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
