//! Single-node rewrite-rule ablations: Figs. 13–16.
//!
//! The paper runs these on one node, one core, over a 400 MB collection
//! ("for these experiments we used a relatively small collection size
//! since without the JSONiq rules Hyracks would need to process the whole
//! file"). We keep the shape: single partition, one dataset, rule
//! families enabled incrementally. "All rules" is [`RuleConfig::paper`]:
//! the scan filter (`push-select-into-datascan`) is not one of the
//! paper's rules, and [`crate::experiments::ablation::scan_filter`]
//! measures it on its own.

use crate::{ms, Harness, Table};
use algebra::rules::RuleConfig;
use dataflow::ClusterSpec;
use vxq_core::queries::SENSOR_QUERIES;

/// Base dataset bytes for Figs. 13–15 (× scale factor).
const ABLATION_BYTES: usize = 512 * 1024;

fn ablation_table(
    h: &Harness,
    title: &str,
    before: RuleConfig,
    after: RuleConfig,
    note: &str,
) -> Vec<Table> {
    let spec = h.sensor_spec(ABLATION_BYTES, 1, 30);
    let root = h.dataset("ablation", &spec);
    let cluster = ClusterSpec::single_node(1);
    let mut t = Table::new(title, &["query", "before (ms)", "after (ms)", "speed-up"]);
    for (name, q) in SENSOR_QUERIES {
        let eb = h.engine(&root, cluster.clone(), before);
        let ea = h.engine(&root, cluster.clone(), after);
        let tb = h.time_query(&eb, q);
        let ta = h.time_query(&ea, q);
        let speedup = tb.as_secs_f64() / ta.as_secs_f64().max(1e-9);
        t.row(vec![
            name.to_string(),
            ms(tb),
            ms(ta),
            format!("{speedup:.2}x"),
        ]);
    }
    t.note = note.to_string();
    vec![t]
}

/// Fig. 13: execution time before and after the **path expression rules**.
pub fn fig13(h: &Harness) -> Vec<Table> {
    ablation_table(
        h,
        "Fig. 13 — execution time before/after the path expression rules (single node, 1 partition)",
        RuleConfig::none(),
        RuleConfig::path_only(),
        "Paper: a clear improvement for all queries — sequences between operators shrink.",
    )
}

/// Fig. 14: adding the **pipelining rules** (the paper's log-scale plot —
/// "about two orders of magnitude").
pub fn fig14(h: &Harness) -> Vec<Table> {
    ablation_table(
        h,
        "Fig. 14 — execution time before/after the pipelining rules (path rules already on)",
        RuleConfig::path_only(),
        RuleConfig::path_and_pipelining(),
        "Paper: drastic improvement (log scale), best for Q0b (smallest DATASCAN argument).",
    )
}

/// Fig. 15: adding the **group-by rules** (only Q1/Q1b improve).
pub fn fig15(h: &Harness) -> Vec<Table> {
    ablation_table(
        h,
        "Fig. 15 — execution time before/after the group-by rules (path+pipelining already on)",
        RuleConfig::path_and_pipelining(),
        RuleConfig::paper(),
        "Paper: Q0/Q0b/Q2 unaffected; Q1 and Q1b improve via the pushed-down count.",
    )
}

/// Fig. 16: Q1 execution time vs collection size, before vs after all
/// rules (the paper sweeps 100 MB → 400 MB).
pub fn fig16(h: &Harness) -> Vec<Table> {
    let cluster = ClusterSpec::single_node(1);
    let mut t = Table::new(
        "Fig. 16 — Q1 execution time for growing collection sizes, before/after all rules",
        &[
            "size (×base)",
            "bytes",
            "before (ms)",
            "after (ms)",
            "speed-up",
        ],
    );
    for mult in [1usize, 2, 3, 4] {
        let spec = h.sensor_spec(ABLATION_BYTES / 4 * mult, 1, 30);
        let root = h.dataset(&format!("fig16-{mult}"), &spec);
        let eb = h.engine(&root, cluster.clone(), RuleConfig::none());
        let ea = h.engine(&root, cluster.clone(), RuleConfig::paper());
        let tb = h.time_query(&eb, vxq_core::queries::Q1);
        let ta = h.time_query(&ea, vxq_core::queries::Q1);
        let bytes = spec.total_measurements() * datagen::BYTES_PER_MEASUREMENT;
        t.row(vec![
            format!("{mult}x"),
            bytes.to_string(),
            ms(tb),
            ms(ta),
            format!("{:.2}x", tb.as_secs_f64() / ta.as_secs_f64().max(1e-9)),
        ]);
    }
    t.note = "Paper: the system scales proportionally with dataset size; the rules keep a \
              large constant-factor win at every size."
        .into();
    vec![t]
}
