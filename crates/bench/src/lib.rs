//! # bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's §5 at laptop scale
//! (collection sizes are ~1000× smaller; DESIGN.md §3 argues why the
//! *shapes* survive the scaling). The entry point is the `experiments`
//! binary — `cargo run -p bench --release -- <fig13|fig14|...|table4|all>`
//! prints each experiment as a table with the same rows/series the paper
//! reports.
//!
//! The [`experiments`] module holds one function per figure/table; this
//! module holds shared plumbing: the dataset cache, timing helpers and
//! table rendering.

pub mod experiments;

use algebra::rules::{RuleConfig, RuleSet};
use baselines::{BenchQuery, QuerySystem, VxQuerySystem};
use dataflow::ClusterSpec;
use datagen::SensorSpec;
use std::path::PathBuf;
use std::time::Duration;
use vxq_core::{Engine, EngineConfig};

/// Scale of the run: how much data each experiment touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized: hundreds of kilobytes, seconds per experiment.
    Tiny,
    /// Default: a few megabytes per point, minutes for `all`.
    Small,
    /// Tens of megabytes per point — closest shape to the paper.
    Large,
}

impl Scale {
    /// Multiplier applied to each experiment's base byte sizes.
    pub fn factor(self) -> usize {
        match self {
            Scale::Tiny => 1,
            Scale::Small => 8,
            Scale::Large => 32,
        }
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct Harness {
    pub scale: Scale,
    /// Repetitions per measurement (the paper used 5).
    pub repeat: usize,
    /// Dataset cache directory.
    pub data_dir: PathBuf,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            scale: Scale::Small,
            repeat: 3,
            data_dir: PathBuf::from("target/bench-data"),
        }
    }
}

impl Harness {
    /// Materialize (or reuse) a dataset for `spec`, tagged for cache
    /// identity. Returns the *data root* (the collection lives at
    /// `<root>/sensors`).
    pub fn dataset(&self, tag: &str, spec: &SensorSpec) -> PathBuf {
        let key = format!(
            "{tag}-n{}-f{}-r{}-m{}-s{}",
            spec.nodes,
            spec.files_per_node,
            spec.records_per_file,
            spec.measurements_per_array,
            spec.seed
        );
        let root = self.data_dir.join(key);
        let marker = root.join(".complete");
        if !marker.exists() {
            let _ = std::fs::remove_dir_all(&root);
            spec.generate(&root.join("sensors"))
                .expect("dataset generation");
            std::fs::write(&marker, b"ok").expect("marker");
        }
        root
    }

    /// A sensor spec of roughly `bytes` total, distributed over `nodes`.
    pub fn sensor_spec(&self, bytes: usize, nodes: usize, mpa: usize) -> SensorSpec {
        let files_per_node = 4;
        SensorSpec::sized(bytes * self.scale.factor(), nodes, files_per_node, mpa)
    }

    /// Build a VXQuery engine.
    pub fn engine(
        &self,
        root: &std::path::Path,
        cluster: ClusterSpec,
        rules: RuleConfig,
    ) -> Engine {
        self.engine_with_budget(root, cluster, rules, 0)
    }

    /// Build a VXQuery engine running a hand-picked rule set (an ablation
    /// switches one rule off by name with [`RuleSet::without`]).
    pub fn engine_with_rules(
        &self,
        root: &std::path::Path,
        cluster: ClusterSpec,
        rules: RuleSet,
    ) -> Engine {
        Engine::with_rule_set(
            EngineConfig {
                cluster,
                data_root: root.to_path_buf(),
                memory_budget: 0,
                ..EngineConfig::default()
            },
            rules,
        )
    }

    /// Build a VXQuery engine running under a memory budget (bytes; the
    /// spill experiment's knob). `0` = unlimited.
    pub fn engine_with_budget(
        &self,
        root: &std::path::Path,
        cluster: ClusterSpec,
        rules: RuleConfig,
        memory_budget: usize,
    ) -> Engine {
        Engine::new(EngineConfig {
            cluster,
            rules,
            data_root: root.to_path_buf(),
            memory_budget,
            ..EngineConfig::default()
        })
    }

    /// Mean wall-clock time of `repeat` runs of `query` on `engine`.
    pub fn time_query(&self, engine: &Engine, query: &str) -> Duration {
        let mut total = Duration::ZERO;
        for _ in 0..self.repeat.max(1) {
            let r = engine.execute(query).expect("benchmark query");
            total += r.stats.elapsed;
        }
        total / self.repeat.max(1) as u32
    }

    /// Mean time of a [`QuerySystem`] run.
    pub fn time_system(&self, sys: &mut dyn QuerySystem, q: BenchQuery) -> Duration {
        let mut total = Duration::ZERO;
        for _ in 0..self.repeat.max(1) {
            total += sys.run(q).expect("baseline query").elapsed;
        }
        total / self.repeat.max(1) as u32
    }

    /// A VXQuery instance wrapped in the baseline interface.
    pub fn vxquery(&self, root: &std::path::Path, cluster: ClusterSpec) -> VxQuerySystem {
        VxQuerySystem::new(root.to_path_buf(), cluster)
    }
}

/// One result table (≈ one figure or table of the paper).
#[derive(Debug, Clone)]
pub struct Table {
    /// e.g. "Fig. 14 — execution time before/after the pipelining rules".
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// One-line observation tying the measurement back to the paper.
    pub note: String,
}

impl Table {
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            note: String::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Render as GitHub markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.header.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        if !self.note.is_empty() {
            out.push_str(&format!("\n*{}*\n", self.note));
        }
        out.push('\n');
        out
    }
}

/// Milliseconds with 1-decimal precision.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1000.0)
}

/// Mebibytes with 2-decimal precision.
pub fn mib(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_markdown_shape() {
        let mut t = Table::new("Fig. X", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Fig. X"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn dataset_cache_is_reused() {
        let h = Harness {
            scale: Scale::Tiny,
            repeat: 1,
            data_dir: std::env::temp_dir().join("vxq-bench-cache-test"),
        };
        let _ = std::fs::remove_dir_all(&h.data_dir);
        let spec = SensorSpec {
            files_per_node: 1,
            records_per_file: 2,
            measurements_per_array: 2,
            ..Default::default()
        };
        let a = h.dataset("t", &spec);
        let marker = a.join(".complete");
        let mtime = std::fs::metadata(&marker).unwrap().modified().unwrap();
        let b = h.dataset("t", &spec);
        assert_eq!(a, b);
        assert_eq!(
            std::fs::metadata(&marker).unwrap().modified().unwrap(),
            mtime
        );
        let _ = std::fs::remove_dir_all(&h.data_dir);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(Duration::from_millis(1500)), "1500.0");
        assert_eq!(mib(1024 * 1024), "1.00");
    }
}
