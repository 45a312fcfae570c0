//! AsterixDB baseline — the same infrastructure, minus the pipelining
//! pushdowns.
//!
//! AsterixDB "shares the same infrastructure as VXQuery (Algebricks and
//! Hyracks)"; the paper attributes its slower JSON performance to "the
//! lack of the JSONiq Pipeline Rules. Without them, the system waits to
//! first gather all the measurements in the array before it moves them to
//! the next stage of processing" (§5.3). We therefore run the *actual*
//! engine with a custom rule set: path-expression and group-by rules are
//! active (they predate this paper / are generic Algebricks fare), the
//! DATASCAN is introduced (AsterixDB scans documents partitioned-parallel)
//! — but the `value`/`keys-or-members` **pushdowns are absent**, so every
//! document is materialized in full before navigation.
//!
//! Two modes, matching the paper's two AsterixDB configurations:
//!
//! * [`AsterixMode::External`] — query raw JSON files in place (no load).
//! * [`AsterixMode::Load`] — convert the collection to the internal ADM
//!   binary format first; queries then read `.adm` files ("optimized to
//!   work better for data that is already in its own data model").

use crate::{BaselineError, BenchQuery, LoadStats, QuerySystem, RunStats};
use algebra::rules::{base, groupby, path, pipelining, Rule, RuleSet};
use dataflow::ClusterSpec;
use jdm::parse::parse_item;
use std::path::{Path, PathBuf};
use std::time::Instant;
use vxq_core::{Engine, EngineConfig};

/// External (no load) vs. load-first operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsterixMode {
    External,
    Load,
}

/// The AsterixDB baseline.
pub struct AsterixSim {
    mode: AsterixMode,
    cluster: ClusterSpec,
    data_root: PathBuf,
    /// Where ADM conversion output lives (Load mode).
    storage_root: PathBuf,
    engine: Option<Engine>,
    space: usize,
}

/// AsterixDB's rule set: everything except the pipelining pushdowns.
fn asterix_rules() -> RuleSet {
    let rules: Vec<Box<dyn Rule>> = vec![
        Box::new(base::PushSelectIntoJoin),
        Box::new(base::PushSideExpressionsBelowJoin),
        Box::new(base::RemoveDeadAssign),
        Box::new(path::EliminatePromoteData),
        Box::new(path::MergeKeysOrMembersIntoUnnest),
        Box::new(pipelining::IntroduceDataScan),
        // Projection pushdown stops at the *document boundary*: AsterixDB
        // scans records partitioned-parallel but materializes each record
        // completely before navigating — "the system waits to first
        // gather all the measurements in the array". The cap of 2 admits
        // ("root")() and nothing deeper.
        Box::new(pipelining::PushValueIntoDataScan { max_steps: Some(2) }),
        Box::new(pipelining::PushKeysOrMembersIntoDataScan { max_steps: Some(2) }),
        Box::new(groupby::RemoveTreat),
        Box::new(groupby::ConvertScalarAggregateToSubplan),
        Box::new(groupby::PushSubplanAggregateIntoGroupBy),
    ];
    RuleSet::custom(rules)
}

impl AsterixSim {
    /// Create the baseline over the collection at
    /// `<data_root>/sensors`. `storage_root` receives the ADM conversion
    /// in Load mode (pass a temp dir).
    pub fn new(
        mode: AsterixMode,
        cluster: ClusterSpec,
        data_root: impl Into<PathBuf>,
        storage_root: impl Into<PathBuf>,
    ) -> Self {
        AsterixSim {
            mode,
            cluster,
            data_root: data_root.into(),
            storage_root: storage_root.into(),
            engine: None,
            space: 0,
        }
    }

    fn make_engine(&self, root: PathBuf) -> Engine {
        Engine::with_rule_set(
            EngineConfig {
                cluster: self.cluster.clone(),
                data_root: root,
                ..Default::default()
            },
            asterix_rules(),
        )
    }

    /// Convert every `.json` file under `src` into an `.adm` binary file
    /// under `dst`, preserving the node directory layout.
    fn convert_to_adm(&self, src: &Path, dst: &Path) -> Result<usize, BaselineError> {
        let mut stored = 0usize;
        std::fs::create_dir_all(dst).map_err(|e| BaselineError::Other(e.to_string()))?;
        let entries = std::fs::read_dir(src).map_err(|e| BaselineError::Other(e.to_string()))?;
        for entry in entries {
            let p = entry
                .map_err(|e| BaselineError::Other(e.to_string()))?
                .path();
            if p.is_dir() {
                let sub = dst.join(p.file_name().expect("dir name"));
                stored += self.convert_to_adm(&p, &sub)?;
            } else if p.extension().map(|e| e == "json").unwrap_or(false) {
                let text = std::fs::read(&p).map_err(|e| BaselineError::Other(e.to_string()))?;
                let item = parse_item(&text)
                    .map_err(|e| BaselineError::Other(format!("{}: {e}", p.display())))?;
                let bytes = jdm::binary::to_bytes(&item);
                let name = p
                    .file_stem()
                    .expect("file stem")
                    .to_string_lossy()
                    .to_string();
                let out = dst.join(format!("{name}.adm"));
                std::fs::write(&out, &bytes).map_err(|e| BaselineError::Other(e.to_string()))?;
                stored += bytes.len();
            }
        }
        Ok(stored)
    }
}

impl QuerySystem for AsterixSim {
    fn name(&self) -> &'static str {
        match self.mode {
            AsterixMode::External => "AsterixDB",
            AsterixMode::Load => "AsterixDB(load)",
        }
    }

    fn load(&mut self, data_dir: &Path) -> Result<LoadStats, BaselineError> {
        match self.mode {
            AsterixMode::External => {
                self.engine = Some(self.make_engine(self.data_root.clone()));
                Ok(LoadStats::default())
            }
            AsterixMode::Load => {
                let started = Instant::now();
                let _ = std::fs::remove_dir_all(&self.storage_root);
                // Convert the collection directory wholesale so relative
                // collection names keep working against the storage root.
                let rel = data_dir.strip_prefix(&self.data_root).unwrap_or(data_dir);
                let dst = self.storage_root.join(rel);
                let stored = self.convert_to_adm(data_dir, &dst)?;
                self.space = stored;
                self.engine = Some(self.make_engine(self.storage_root.clone()));
                Ok(LoadStats {
                    elapsed: started.elapsed(),
                    bytes_stored: stored,
                    bytes_read: 0,
                })
            }
        }
    }

    fn run(&mut self, query: BenchQuery) -> Result<RunStats, BaselineError> {
        let engine = self
            .engine
            .as_ref()
            .ok_or_else(|| BaselineError::Other("AsterixSim::run before load".into()))?;
        let q = match query {
            BenchQuery::Q0 => vxq_core::queries::Q0,
            BenchQuery::Q0b => vxq_core::queries::Q0B,
            BenchQuery::Q1 => vxq_core::queries::Q1,
            BenchQuery::Q2 => vxq_core::queries::Q2,
        };
        let r = engine
            .execute(q)
            .map_err(|e| BaselineError::Other(e.to_string()))?;
        Ok(RunStats {
            elapsed: r.stats.elapsed,
            rows: r.rows.len(),
            peak_memory: r.stats.peak_memory,
            aggregate: crate::scalar_of(&r.rows),
        })
    }

    fn space_used(&self) -> usize {
        self.space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::SensorSpec;

    fn dataset(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vxq-asterix-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        SensorSpec {
            nodes: 2,
            files_per_node: 2,
            records_per_file: 10,
            measurements_per_array: 5,
            ..Default::default()
        }
        .generate(&dir.join("sensors"))
        .unwrap();
        dir
    }

    #[test]
    fn rules_lack_projection_pushdown() {
        let dir = dataset("plan");
        let sim = AsterixSim::new(
            AsterixMode::External,
            ClusterSpec::single_node(2),
            &dir,
            dir.join("storage"),
        );
        let engine = sim.make_engine(dir.clone());
        let plan = engine.explain(vxq_core::queries::Q0).unwrap();
        // DATASCAN exists, but projection stops at the document boundary:
        // full records (metadata + results array) flow through the plan.
        assert!(plan.contains("data-scan"), "{plan}");
        assert!(
            plan.contains(r#"project ("root")()"#),
            "document-boundary projection: {plan}"
        );
        assert!(
            !plan.contains(r#"project ("root")()("results")"#),
            "no pushdown past the document boundary: {plan}"
        );
        assert!(
            plan.contains("keys-or-members"),
            "navigation stays in the plan: {plan}"
        );
    }

    #[test]
    fn external_mode_matches_vxquery_results() {
        let dir = dataset("external");
        let mut asterix = AsterixSim::new(
            AsterixMode::External,
            ClusterSpec::single_node(2),
            &dir,
            dir.join("storage"),
        );
        asterix.load(&dir.join("sensors")).unwrap();

        let mut vx = crate::VxQuerySystem::new(&dir, ClusterSpec::single_node(2));
        for q in [BenchQuery::Q0, BenchQuery::Q1, BenchQuery::Q2] {
            let a = asterix.run(q).unwrap();
            let v = vx.run(q).unwrap();
            assert_eq!(a.rows, v.rows, "row mismatch on {}", q.name());
        }
    }

    #[test]
    fn load_mode_converts_and_matches() {
        let dir = dataset("load");
        let mut asterix = AsterixSim::new(
            AsterixMode::Load,
            ClusterSpec::single_node(2),
            &dir,
            dir.join("storage"),
        );
        let load = asterix.load(&dir.join("sensors")).unwrap();
        assert!(load.bytes_stored > 0);
        assert!(asterix.space_used() > 0);

        let mut vx = crate::VxQuerySystem::new(&dir, ClusterSpec::single_node(2));
        for q in [BenchQuery::Q0b, BenchQuery::Q1] {
            let a = asterix.run(q).unwrap();
            let v = vx.run(q).unwrap();
            assert_eq!(a.rows, v.rows, "row mismatch on {}", q.name());
        }
    }

    #[test]
    fn external_mode_materializes_more_than_vxquery() {
        let dir = dataset("memcmp");
        let mut asterix = AsterixSim::new(
            AsterixMode::External,
            ClusterSpec::single_node(1),
            &dir,
            dir.join("storage"),
        );
        asterix.load(&dir.join("sensors")).unwrap();
        let a = asterix.run(BenchQuery::Q1).unwrap();

        let mut vx = crate::VxQuerySystem::new(&dir, ClusterSpec::single_node(1));
        let v = vx.run(BenchQuery::Q1).unwrap();
        assert!(
            a.peak_memory >= v.peak_memory,
            "asterix {} vs vxquery {}",
            a.peak_memory,
            v.peak_memory
        );
    }
}
