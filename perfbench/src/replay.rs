//! Replay of the DATASCAN's `jdm` layers. `ProjectedScan` reads each
//! file, builds its structural index, builds the record table, projects
//! the records into `Item`s and encodes each one; operators then read a
//! field back with `ItemRef::to_item`. The replay calls the same `jdm`
//! functions in the same order on the workload's own files, with a
//! query's projection path, and times each step on its own. The traced
//! run checks it against the engine's split profiles of the same query
//! (same stage-1 kernel, same item count), so that it cannot time a code
//! path the engine does not run.

use algebra::{LogicalOp, LogicalPlan};
use jdm::binary::{write_item, ItemRef};
use jdm::index::StructuralIndex;
use jdm::project::{project_indexed, RecordTable};
use jdm::stage1::Stage1Mode;
use jdm::{Item, ProjectionPath};
use std::hint::black_box;
use std::io::Read;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Wall time of each scan layer, summed over a dataset's files.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    pub read: Duration,
    /// Stage 1 plus the structural-index (tape) build.
    pub index: Duration,
    pub record_table: Duration,
    /// Tape → `Item` (`RecordTable::project_range`).
    pub materialize: Duration,
    /// `Item` → binary (`write_item`).
    pub encode: Duration,
    /// One field read per tuple as `RtExpr::Field` does it: the whole
    /// record decoded with `ItemRef::to_item`.
    pub field_decode: Duration,
    /// The same read through the zero-copy `ItemRef::get_key`.
    pub field_get_key: Duration,
}

#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub times: LayerTimes,
    pub bytes: u64,
    pub tape_entries: u64,
    pub records: u64,
    pub items: u64,
    pub encoded_bytes: u64,
    /// Label of the stage-1 kernel that built the indexes.
    pub kernel: &'static str,
}

/// The projection path of each DATASCAN of an optimized plan.
pub fn scan_paths(plan: &LogicalPlan) -> Vec<ProjectionPath> {
    let mut out = Vec::new();
    plan.root.visit(&mut |op| {
        if let LogicalOp::DataScan { project, .. } = op {
            out.push(project.clone());
        }
    });
    out
}

/// Replay the scan of `files` along `path`; `field` is the key the
/// field-read steps look up.
pub fn replay(
    files: &[PathBuf],
    path: &ProjectionPath,
    stage1: Stage1Mode,
    field: &str,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let mut buf = Vec::new();
    let mut items: Vec<Item> = Vec::new();
    let mut encoded = Vec::new();
    let mut ends = Vec::new();
    for file in files {
        let fail = |e: String| format!("replaying {}: {e}", file.display());

        let t = Instant::now();
        buf.clear();
        std::fs::File::open(file)
            .and_then(|mut f| f.read_to_end(&mut buf))
            .map_err(|e| fail(e.to_string()))?;
        out.times.read += t.elapsed();
        out.bytes += buf.len() as u64;

        let t = Instant::now();
        let index = StructuralIndex::build_with(&buf, stage1).map_err(|e| fail(e.to_string()))?;
        out.times.index += t.elapsed();
        out.tape_entries += index.len() as u64;
        out.kernel = index.kernel().label();

        let t = Instant::now();
        let table = RecordTable::build(&buf, &index, path).map_err(|e| fail(e.to_string()))?;
        out.times.record_table += t.elapsed();

        items.clear();
        let keep = |item: Item| {
            items.push(item);
            true
        };
        let t = Instant::now();
        let projected = match &table {
            Some(table) => table.project_range(&buf, &index, path, 0..table.len(), keep),
            None => project_indexed(&buf, &index, path, keep),
        };
        out.times.materialize += t.elapsed();
        projected.map_err(|e| fail(e.to_string()))?;
        out.records += table.as_ref().map_or(0, |t| t.len() as u64);
        out.items += items.len() as u64;

        encoded.clear();
        ends.clear();
        let t = Instant::now();
        for item in &items {
            write_item(item, &mut encoded);
            ends.push(encoded.len());
        }
        out.times.encode += t.elapsed();
        out.encoded_bytes += encoded.len() as u64;

        let t = Instant::now();
        let mut start = 0;
        for &end in &ends {
            let item = ItemRef::new(&encoded[start..end])
                .and_then(|r| r.to_item())
                .map_err(|e| fail(e.to_string()))?;
            black_box(item);
            start = end;
        }
        out.times.field_decode += t.elapsed();

        let t = Instant::now();
        let mut start = 0;
        for &end in &ends {
            let record = ItemRef::new(&encoded[start..end]).map_err(|e| fail(e.to_string()))?;
            black_box(record.get_key(field));
            start = end;
        }
        out.times.field_get_key += t.elapsed();
    }
    Ok(out)
}
