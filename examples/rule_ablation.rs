//! Watch the rewrite rules transform a plan — the paper's §4 walkthrough.
//!
//! ```text
//! cargo run --release --example rule_ablation
//! ```
//!
//! Shows Q1's logical plan under each rule configuration (the progression
//! of Figs. 9 → 12 plus the DATASCAN introduction of Figs. 5 → 8), then
//! times each configuration on a small collection to reproduce the
//! Fig. 13–15 ablation in miniature.

use algebra::rules::RuleConfig;
use datagen::SensorSpec;
use vxq_core::{queries, Engine, EngineConfig};

fn engine_with(data_root: std::path::PathBuf, rules: RuleConfig) -> Engine {
    Engine::new(EngineConfig {
        rules,
        data_root,
        ..Default::default()
    })
}

fn main() {
    let data_root = std::env::temp_dir().join("vxq-example-ablation");
    let _ = std::fs::remove_dir_all(&data_root);
    SensorSpec {
        files_per_node: 2,
        records_per_file: 200,
        measurements_per_array: 30,
        ..Default::default()
    }
    .generate(&data_root.join("sensors"))
    .expect("generate");

    let configs: [(&str, RuleConfig); 5] = [
        ("no rules (naive translation)", RuleConfig::none()),
        ("+ path expression rules (§4.1)", RuleConfig::path_only()),
        (
            "+ pipelining rules (§4.2)",
            RuleConfig::path_and_pipelining(),
        ),
        ("+ group-by rules (§4.3)", RuleConfig::paper()),
        ("+ scan filter (beyond the paper)", RuleConfig::all()),
    ];

    println!("Query Q1:\n{}\n", queries::Q1.trim());
    for (label, cfg) in configs {
        let engine = engine_with(data_root.clone(), cfg);
        let (plan, applied) = engine.optimize(queries::Q1).expect("optimize");
        println!("==== {label} ====");
        print!("{}", plan.explain());
        if !applied.is_empty() {
            println!("(applied: {})", applied.join(", "));
        }
        let r = engine.execute(queries::Q1).expect("execute");
        println!(
            "--> {} groups in {:?}, peak memory {} KiB\n",
            r.rows.len(),
            r.stats.elapsed,
            r.stats.peak_memory / 1024
        );
    }
}
