//! DATASCAN runtimes: how collection data reaches the dataflow.
//!
//! Three scan flavours, matching the plan shapes before/after the rules:
//!
//! * [`ProjectedScanFactory`] — the post-pipelining-rules DATASCAN: each
//!   partition reads its share of the collection and **streams the
//!   projected items** straight out of the structural-index-guided
//!   projector ([`jdm::project`]), one tuple per item. Each item is
//!   written in the binary format directly from the index tape
//!   ([`StructuralIndex::write_binary_at`]); no `Item` tree is built.
//!   Partitioned-parallel, bounded memory.
//! * [`WholeCollectionScanFactory`] — the naive `ASSIGN collection(...)`:
//!   a *single* partition parses every file completely and emits **one
//!   tuple holding the sequence of all file items** (what the paper's
//!   Fig. 5 plan does before DATASCAN is introduced — and why those
//!   experiments only use small collections). The materialized sequence
//!   is reported to the memory tracker.
//! * [`JsonDocScanFactory`] — `json-doc("file")`: one document, one tuple.
//!
//! ## Collection layout
//!
//! A collection path (e.g. `/sensors`) resolves to
//! `<data_root>/sensors/`. If that directory contains `node0/`, `node1/`,
//! … sub-directories, node *n* owns `node{n}` and its partitions share
//! its files (the paper's "each node has a unique set of JSON files
//! stored under the same directory"). Otherwise files are shared across
//! all partitions.
//!
//! ## Splits, not files
//!
//! Work is assigned as [`ScanSplit`]s. Every task of a stage computes the
//! same deterministic global assignment ([`partition_splits`]) from file
//! sizes alone, then keeps its own share — no coordination:
//!
//! 1. files larger than [`ScanOptions::min_split_bytes`] are chopped into
//!    up to one split per partition (only when the projection path has a
//!    `()` step — that is what gives the file record granularity — and
//!    never for binary `.adm` files);
//! 2. the splits are placed by greedy LPT (largest first, onto the
//!    least-loaded partition), so a size-skewed directory still balances —
//!    the old index round-robin ignored sizes entirely.
//!
//! At scan time, split *j of n* of a file covers records
//! `[j·R/n, (j+1)·R/n)` of the array reached by the projection path's
//! prefix (see [`jdm::project::RecordTable`]): record-aligned byte
//! ranges, found via the structural index, no mid-value cuts. The n
//! tasks of one file share a single read + index through a per-factory
//! cache, so a single big JSON file fans out across all workers while
//! being read once per node.

use crate::pool::ScanBufferPool;
use dataflow::context::TaskContext;
use dataflow::ops::eval::{ScanSource, ScanSourceFactory, TupleEmitter};
use dataflow::profile::SplitProfile;
use dataflow::{DataflowError, MemTracker, Result};
use jdm::binary::to_bytes;
use jdm::index::StructuralIndex;
use jdm::parse::parse_item;
use jdm::project::{project_indexed_nodes, RecordTable};
use jdm::stage1::Stage1Mode;
use jdm::{Item, PathStep, ProjectionPath};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Knobs of the projected DATASCAN (part of the engine configuration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOptions {
    /// Allow record-aligned ranges of one large file to fan out across
    /// the partitions of a node (on by default; turn off to reproduce
    /// whole-file-granular scans).
    pub intra_file_splits: bool,
    /// Files smaller than this never split, and splits are never smaller
    /// than this (bounds per-split overhead).
    pub min_split_bytes: u64,
    /// Stage-1 mode for structural-index builds: SWAR or the scalar
    /// per-byte scan (the default honours the `VXQ_STAGE1` environment
    /// variable, falling back to SWAR).
    pub stage1: Stage1Mode,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            intra_file_splits: true,
            min_split_bytes: 64 * 1024,
            stage1: Stage1Mode::from_env(),
        }
    }
}

/// One unit of scan work: a record-aligned share of a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanSplit {
    pub path: PathBuf,
    /// Estimated bytes this split covers (size-based; used for placement).
    pub bytes: u64,
    /// Split index within the file.
    pub split: usize,
    /// Total splits of the file (1 = whole file).
    pub of: usize,
}

/// Resolve a query collection path under the engine's data root.
pub fn resolve_collection(data_root: &Path, coll: &str) -> PathBuf {
    data_root.join(coll.trim_start_matches('/'))
}

/// Enumerate a directory's data files in name order. `.json` files hold
/// JSON text; `.adm` files hold a pre-converted binary item (the
/// AsterixDB-load baseline's internal format).
fn list_json_files(dir: &Path) -> Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let entries = std::fs::read_dir(dir)
        .map_err(|e| DataflowError::Source(format!("cannot read {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| DataflowError::Source(e.to_string()))?;
        let p = entry.path();
        if p.is_file()
            && p.extension()
                .map(|e| e == "json" || e == "adm")
                .unwrap_or(false)
        {
            files.push(p);
        }
    }
    files.sort();
    Ok(files)
}

/// Files of a directory with their byte sizes.
fn sized_files(dir: &Path) -> Result<Vec<(PathBuf, u64)>> {
    Ok(list_json_files(dir)?
        .into_iter()
        .map(|p| {
            let size = std::fs::metadata(&p).map(|m| m.len()).unwrap_or(0);
            (p, size)
        })
        .collect())
}

/// Parse one data file (text or binary) into an item.
fn parse_file(path: &Path, buf: &[u8]) -> Result<Item> {
    let binary = path.extension().map(|e| e == "adm").unwrap_or(false);
    let r = if binary {
        jdm::binary::ItemRef::new(buf).and_then(|r| r.to_item())
    } else {
        parse_item(buf)
    };
    r.map_err(|e| DataflowError::Source(format!("{}: {e}", path.display())))
}

/// The collection's `node<i>` sub-directories, in index order (empty when
/// the collection is a flat directory of files).
fn node_dirs(dir: &Path) -> Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for i in 0.. {
        let d = dir.join(format!("node{i}"));
        if d.is_dir() {
            out.push(d);
        } else {
            break;
        }
    }
    Ok(out)
}

/// The splits a given partition is responsible for.
///
/// Data-node directory `d` is owned by cluster node `d % cluster_nodes`
/// (exact locality when the dataset was generated for this cluster size;
/// balanced reassignment when node counts differ, as in the speed-up
/// experiments that run one dataset on growing clusters). Within a node,
/// the node's files are chopped and placed over its partitions by
/// [`assign_splits`]; a flat collection is placed over all partitions.
/// `splittable` says whether the consumer can scan a record range of a
/// file (true only for projections with a `()` step).
pub fn partition_splits(
    dir: &Path,
    ctx: &TaskContext,
    opts: &ScanOptions,
    splittable: bool,
) -> Result<Vec<ScanSplit>> {
    let ppn = ctx.partitions_per_node.max(1);
    let cluster_nodes = ctx.num_partitions.div_ceil(ppn);
    let dirs = node_dirs(dir)?;
    if dirs.is_empty() {
        // Flat collection: place over all partitions.
        let files = sized_files(dir)?;
        let mut assignment = assign_splits(&files, ctx.num_partitions.max(1), opts, splittable);
        return Ok(std::mem::take(&mut assignment[ctx.partition]));
    }
    let local = ctx.partition % ppn;
    let mut out = Vec::new();
    for (d, node_dir) in dirs.iter().enumerate() {
        if d % cluster_nodes.max(1) != ctx.node {
            continue;
        }
        let files = sized_files(node_dir)?;
        let mut assignment = assign_splits(&files, ppn, opts, splittable);
        out.append(&mut assignment[local]);
    }
    Ok(out)
}

/// Deterministic size-aware placement of a file set over `nparts`
/// partitions: chop large files into record-range splits, then greedy LPT
/// (largest split first, onto the least-loaded partition, ties broken by
/// path so every task computes the identical placement).
fn assign_splits(
    files: &[(PathBuf, u64)],
    nparts: usize,
    opts: &ScanOptions,
    splittable: bool,
) -> Vec<Vec<ScanSplit>> {
    let mut splits = Vec::with_capacity(files.len());
    for (path, size) in files {
        let adm = path.extension().map(|e| e == "adm").unwrap_or(false);
        let pieces = if splittable && !adm && opts.intra_file_splits && nparts > 1 {
            ((size / opts.min_split_bytes.max(1)) as usize).clamp(1, nparts)
        } else {
            1
        };
        for j in 0..pieces {
            splits.push(ScanSplit {
                path: path.clone(),
                bytes: (size / pieces as u64).max(1),
                split: j,
                of: pieces,
            });
        }
    }
    splits.sort_by(|a, b| {
        b.bytes
            .cmp(&a.bytes)
            .then_with(|| a.path.cmp(&b.path))
            .then(a.split.cmp(&b.split))
    });
    let mut out = vec![Vec::new(); nparts];
    let mut load = vec![0u64; nparts];
    for s in splits {
        let p = (0..nparts)
            .min_by_key(|&i| (load[i], i))
            .expect("nparts > 0");
        load[p] += s.bytes;
        out[p].push(s);
    }
    out
}

/// Every file of the collection, across all node directories.
pub fn all_files(dir: &Path) -> Result<Vec<PathBuf>> {
    let dirs = node_dirs(dir)?;
    if dirs.is_empty() {
        return list_json_files(dir);
    }
    let mut out = Vec::new();
    for d in dirs {
        out.extend(list_json_files(&d)?);
    }
    Ok(out)
}

// ------------------------------------------------------------ projected

/// Factory for the projecting partitioned DATASCAN.
pub struct ProjectedScanFactory {
    dir: PathBuf,
    project: ProjectionPath,
    options: ScanOptions,
    pool: Arc<ScanBufferPool>,
    /// Shared per-job cache: the n tasks scanning splits of one file read
    /// and index it exactly once.
    cache: Arc<FileIndexCache>,
}

impl ProjectedScanFactory {
    pub fn new(
        dir: PathBuf,
        project: ProjectionPath,
        options: ScanOptions,
        pool: Arc<ScanBufferPool>,
    ) -> Self {
        ProjectedScanFactory {
            dir,
            project,
            options,
            pool,
            cache: Arc::new(FileIndexCache::default()),
        }
    }
}

impl ScanSourceFactory for ProjectedScanFactory {
    fn create(&self, ctx: &TaskContext) -> Result<Box<dyn ScanSource>> {
        // Only a `()` step gives the file record granularity to split on.
        let splittable = self
            .project
            .steps()
            .iter()
            .any(|s| matches!(s, PathStep::AllMembers));
        Ok(Box::new(ProjectedScan {
            splits: partition_splits(&self.dir, ctx, &self.options, splittable)?,
            project: self.project.clone(),
            ctx: ctx.clone(),
            pool: self.pool.clone(),
            cache: self.cache.clone(),
            stage1: self.options.stage1,
        }))
    }
}

struct ProjectedScan {
    splits: Vec<ScanSplit>,
    project: ProjectionPath,
    ctx: TaskContext,
    pool: Arc<ScanBufferPool>,
    cache: Arc<FileIndexCache>,
    stage1: Stage1Mode,
}

impl ScanSource for ProjectedScan {
    fn run(&mut self, emit: &mut TupleEmitter<'_>) -> Result<()> {
        let mut item_bytes = Vec::new();
        for split in &self.splits {
            let started = Instant::now();
            let mut tuples = 0u64;
            let mut err = None;
            let src_err =
                |e: jdm::JdmError| DataflowError::Source(format!("{}: {e}", split.path.display()));
            // The emitting sink shared by all text paths below: each
            // matched tape node is written in the binary item format
            // straight from the tape, with no `Item` in between.
            let mut sink = |buf: &[u8], index: &StructuralIndex, node: usize| {
                item_bytes.clear();
                index.write_binary_at(buf, node, &mut item_bytes)?;
                match emit(&[&item_bytes]) {
                    Ok(()) => {
                        tuples += 1;
                        Ok(true)
                    }
                    Err(e) => {
                        err = Some(e);
                        Ok(false)
                    }
                }
            };

            let (records, bytes);
            // Index-build attribution for the split profile: bytes run
            // through the structural-index build by this task, and the
            // stage-1 mode that produced the index it navigated.
            let mut index_bytes = 0u64;
            let mut index_elapsed = Duration::ZERO;
            let mut kernel = None;
            if split.path.extension().map(|e| e == "adm").unwrap_or(false) {
                // Binary files navigate zero-copy instead of re-parsing
                // (never split: `of` is always 1 for .adm).
                let mut buf = self.pool.take_buf();
                read_file_into(&split.path, &mut buf)?;
                self.ctx
                    .counters
                    .bytes_scanned
                    .fetch_add(buf.len() as u64, Ordering::Relaxed);
                let root = jdm::binary::ItemRef::new(&buf)
                    .map_err(|e| DataflowError::Source(format!("{}: {e}", split.path.display())))?;
                project_binary(root, self.project.steps(), emit, &mut tuples)?;
                records = tuples;
                bytes = buf.len() as u64;
                self.pool.put_buf(buf);
            } else if split.of == 1 {
                // Whole file: pooled read buffer + pooled index tape.
                let mut buf = self.pool.take_buf();
                read_file_into(&split.path, &mut buf)?;
                self.ctx
                    .counters
                    .bytes_scanned
                    .fetch_add(buf.len() as u64, Ordering::Relaxed);
                let index_started = Instant::now();
                let index =
                    StructuralIndex::build_reusing_with(&buf, self.pool.take_tape(), self.stage1)
                        .map_err(src_err)?;
                index_elapsed = index_started.elapsed();
                index_bytes = buf.len() as u64;
                kernel = Some(index.kernel().label());
                let table = RecordTable::build(&buf, &index, &self.project).map_err(src_err)?;
                records = match &table {
                    Some(t) => {
                        let n = t.len();
                        t.project_range_nodes(&buf, &index, &self.project, 0..n, |node| {
                            sink(&buf, &index, node)
                        })
                        .map_err(src_err)?;
                        n as u64
                    }
                    None => {
                        project_indexed_nodes(&buf, &index, &self.project, |node| {
                            sink(&buf, &index, node)
                        })
                        .map_err(src_err)?;
                        tuples
                    }
                };
                bytes = buf.len() as u64;
                self.pool.put_tape(index.into_tape());
                self.pool.put_buf(buf);
            } else {
                // One record range of a shared file: the cache reads and
                // indexes the file once for all of its splits on this node.
                let shared = self.cache.get(
                    &split.path,
                    &self.project,
                    &self.ctx,
                    self.stage1,
                    &self.pool,
                )?;
                kernel = Some(shared.index.kernel().label());
                // The single shared build is attributed to whichever split
                // records first, so it is counted exactly once.
                if !shared.index_reported.swap(true, Ordering::Relaxed) {
                    index_bytes = shared.bytes.len() as u64;
                    index_elapsed = shared.index_elapsed;
                }
                let n = shared.table.len();
                let lo = n * split.split / split.of;
                let hi = n * (split.split + 1) / split.of;
                shared
                    .table
                    .project_range_nodes(
                        &shared.bytes,
                        &shared.index,
                        &self.project,
                        lo..hi,
                        |node| sink(&shared.bytes, &shared.index, node),
                    )
                    .map_err(src_err)?;
                records = (hi - lo) as u64;
                bytes = if hi > lo {
                    (shared.table.records[hi - 1].end - shared.table.records[lo].start) as u64
                } else {
                    0
                };
            }
            if let Some(e) = err {
                return Err(e);
            }
            self.ctx.record_split(SplitProfile {
                stage: self.ctx.stage,
                partition: self.ctx.partition,
                file: split.path.display().to_string(),
                split: split.split,
                of: split.of,
                records,
                tuples,
                bytes,
                elapsed: started.elapsed(),
                index_bytes,
                index_elapsed,
                kernel,
            });
        }
        Ok(())
    }
}

/// One fully loaded and indexed file, shared by the tasks scanning its
/// splits. Its memory is tracked for the duration of the job, and its
/// read buffer and tape come from (and return to) the engine's pool, so
/// consecutive jobs reuse one allocation instead of each making its own.
struct LoadedFile {
    bytes: Vec<u8>,
    index: StructuralIndex,
    table: RecordTable,
    mem: Arc<MemTracker>,
    pool: Arc<ScanBufferPool>,
    tracked: usize,
    /// Wall time of the one structural-index build.
    index_elapsed: Duration,
    /// Set by the first split to record this file's index build into its
    /// profile, so the shared build is never double-counted.
    index_reported: AtomicBool,
}

impl Drop for LoadedFile {
    fn drop(&mut self) {
        self.mem.free_cached(self.tracked);
        self.pool.put_buf(std::mem::take(&mut self.bytes));
        self.pool.put_tape(self.index.take_tape());
    }
}

/// Per-factory (per-job, per-process) cache of loaded files. The map
/// lock is held only to find the slot; the load itself runs inside the
/// slot's `OnceLock`, so concurrent tasks of other files proceed and
/// tasks of the same file block exactly until the single load finishes.
#[derive(Default)]
struct FileIndexCache {
    #[allow(clippy::type_complexity)]
    map: Mutex<HashMap<PathBuf, Arc<OnceLock<std::result::Result<Arc<LoadedFile>, String>>>>>,
}

impl FileIndexCache {
    fn get(
        &self,
        path: &Path,
        project: &ProjectionPath,
        ctx: &TaskContext,
        stage1: Stage1Mode,
        pool: &Arc<ScanBufferPool>,
    ) -> Result<Arc<LoadedFile>> {
        // Recover a poisoned map rather than panicking: the map itself is
        // structurally sound under poisoning (a panicked task can at worst
        // leave an extra empty slot), and panicking here would cascade one
        // task's failure into every concurrent query sharing the cache.
        let slot = self
            .map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(path.to_path_buf())
            .or_default()
            .clone();
        let loaded = slot.get_or_init(|| {
            let load = || -> Result<Arc<LoadedFile>> {
                let mut bytes = pool.take_buf();
                read_file_into(path, &mut bytes)?;
                ctx.counters
                    .bytes_scanned
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                let src_err =
                    |e: jdm::JdmError| DataflowError::Source(format!("{}: {e}", path.display()));
                let index_started = Instant::now();
                let index = StructuralIndex::build_reusing_with(&bytes, pool.take_tape(), stage1)
                    .map_err(src_err)?;
                let index_elapsed = index_started.elapsed();
                let table = RecordTable::build(&bytes, &index, project)
                    .map_err(src_err)?
                    .ok_or_else(|| {
                        DataflowError::Source(format!(
                            "{}: split scan over a path with no () step",
                            path.display()
                        ))
                    })?;
                let tracked = bytes.len()
                    + index.len() * std::mem::size_of::<jdm::index::TapeEntry>()
                    + table.records.len() * std::mem::size_of::<jdm::project::RecordSpan>();
                // Cache class: resident for the job, reported in the
                // peak, exempt from the spill budget (operators cannot
                // release it by spilling).
                ctx.mem.alloc_cached(tracked);
                Ok(Arc::new(LoadedFile {
                    bytes,
                    index,
                    table,
                    mem: ctx.mem.clone(),
                    pool: pool.clone(),
                    tracked,
                    index_elapsed,
                    index_reported: AtomicBool::new(false),
                }))
            };
            load().map_err(|e| e.to_string())
        });
        loaded.clone().map_err(DataflowError::Source)
    }
}

/// Navigate a binary item along a projection path, emitting matches.
fn project_binary(
    item: jdm::binary::ItemRef<'_>,
    steps: &[jdm::PathStep],
    emit: &mut TupleEmitter<'_>,
    tuples: &mut u64,
) -> Result<()> {
    use jdm::PathStep;
    let Some((first, rest)) = steps.split_first() else {
        *tuples += 1;
        return emit(&[item.bytes()]);
    };
    match first {
        PathStep::Key(k) => match item.get_key(k) {
            Some(v) => project_binary(v, rest, emit, tuples),
            None => Ok(()),
        },
        PathStep::Index(i) => {
            if *i >= 1 {
                if let Some(v) = item.member((*i - 1) as usize) {
                    return project_binary(v, rest, emit, tuples);
                }
            }
            Ok(())
        }
        PathStep::AllMembers => {
            if item.tag() == jdm::binary::tag::ARRAY {
                for m in item.members() {
                    project_binary(m, rest, emit, tuples)?;
                }
            }
            Ok(())
        }
    }
}

// ------------------------------------------------------ whole collection

/// Factory for the naive whole-collection scan (single partition).
pub struct WholeCollectionScanFactory {
    pub dir: PathBuf,
}

impl ScanSourceFactory for WholeCollectionScanFactory {
    fn create(&self, ctx: &TaskContext) -> Result<Box<dyn ScanSource>> {
        Ok(Box::new(WholeCollectionScan {
            files: all_files(&self.dir)?,
            ctx: ctx.clone(),
        }))
    }
}

struct WholeCollectionScan {
    files: Vec<PathBuf>,
    ctx: TaskContext,
}

impl ScanSource for WholeCollectionScan {
    fn run(&mut self, emit: &mut TupleEmitter<'_>) -> Result<()> {
        let mut buf = Vec::new();
        let mut items = Vec::with_capacity(self.files.len());
        let mut tracked = 0usize;
        for file in &self.files {
            read_file_into(file, &mut buf)?;
            self.ctx
                .counters
                .bytes_scanned
                .fetch_add(buf.len() as u64, Ordering::Relaxed);
            let item = parse_file(file, &buf)?;
            let sz = item.heap_size();
            tracked += sz;
            self.ctx.mem.alloc(sz);
            items.push(item);
        }
        let seq = Item::Sequence(items);
        let bytes = to_bytes(&seq);
        // The serialized sequence is also materialized (it becomes one
        // giant tuple).
        self.ctx.mem.alloc(bytes.len());
        tracked += bytes.len();
        let r = emit(&[&bytes]);
        self.ctx.mem.free(tracked);
        r
    }
}

// -------------------------------------------------------------- json-doc

/// Factory for `json-doc("file")`: one document, one tuple.
pub struct JsonDocScanFactory {
    pub file: PathBuf,
}

impl ScanSourceFactory for JsonDocScanFactory {
    fn create(&self, ctx: &TaskContext) -> Result<Box<dyn ScanSource>> {
        Ok(Box::new(JsonDocScan {
            file: self.file.clone(),
            ctx: ctx.clone(),
        }))
    }
}

struct JsonDocScan {
    file: PathBuf,
    ctx: TaskContext,
}

impl ScanSource for JsonDocScan {
    fn run(&mut self, emit: &mut TupleEmitter<'_>) -> Result<()> {
        let mut buf = Vec::new();
        read_file_into(&self.file, &mut buf)?;
        self.ctx
            .counters
            .bytes_scanned
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        let item = parse_file(&self.file, &buf)?;
        let bytes = to_bytes(&item);
        emit(&[&bytes])
    }
}

/// A source that emits exactly one empty tuple (EMPTY-TUPLE-SOURCE for
/// constant queries).
pub struct EmptyTupleSourceFactory;

impl ScanSourceFactory for EmptyTupleSourceFactory {
    fn create(&self, _ctx: &TaskContext) -> Result<Box<dyn ScanSource>> {
        Ok(Box::new(EmptyTupleScan))
    }
}

struct EmptyTupleScan;

impl ScanSource for EmptyTupleScan {
    fn run(&mut self, emit: &mut TupleEmitter<'_>) -> Result<()> {
        emit(&[])
    }
}

fn read_file_into(path: &Path, buf: &mut Vec<u8>) -> Result<()> {
    use std::io::Read;
    buf.clear();
    let mut f = std::fs::File::open(path)
        .map_err(|e| DataflowError::Source(format!("cannot open {}: {e}", path.display())))?;
    f.read_to_end(buf)
        .map_err(|e| DataflowError::Source(format!("cannot read {}: {e}", path.display())))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::context::CoreGate;
    use dataflow::stats::{Counters, MemTracker};

    fn ctx(partition: usize, num_partitions: usize, ppn: usize) -> TaskContext {
        TaskContext {
            stage: 0,
            partition,
            num_partitions,
            node: partition / ppn.max(1),
            partitions_per_node: ppn,
            frame_size: 4096,
            mem: MemTracker::new(),
            counters: Counters::new(),
            gate: CoreGate::unlimited(),
            profiler: None,
            spill: dataflow::spill::SpillCtx::unlimited(),
            cancel: dataflow::CancelToken::new(),
        }
    }

    fn layout(nodes: usize, files_per_node: usize) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vxq-scan-layout-{nodes}-{files_per_node}"));
        let _ = std::fs::remove_dir_all(&dir);
        for n in 0..nodes {
            let nd = dir.join(format!("node{n}"));
            std::fs::create_dir_all(&nd).unwrap();
            for f in 0..files_per_node {
                std::fs::write(nd.join(format!("part{f}.json")), b"{}").unwrap();
            }
        }
        dir
    }

    #[test]
    fn partitions_cover_all_files_exactly_once() {
        let dir = layout(3, 4);
        let opts = ScanOptions::default();
        for (nodes, ppn) in [(1usize, 1usize), (1, 4), (3, 2), (6, 1), (2, 3)] {
            let total = nodes * ppn;
            let mut seen = Vec::new();
            for p in 0..total {
                seen.extend(
                    partition_splits(&dir, &ctx(p, total, ppn), &opts, true)
                        .unwrap()
                        .into_iter()
                        .map(|s| s.path),
                );
            }
            seen.sort();
            let mut all = all_files(&dir).unwrap();
            all.sort();
            assert_eq!(
                seen, all,
                "cluster {nodes}x{ppn} must cover every file once"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn split_ranges_cover_each_file_exactly_once() {
        // With a tiny split threshold every file chops into one split per
        // partition; the (path, split, of) triples across partitions must
        // tile each file exactly.
        let dir = layout(1, 3);
        let opts = ScanOptions {
            intra_file_splits: true,
            min_split_bytes: 1,
            ..ScanOptions::default()
        };
        let ppn = 4;
        let mut seen: Vec<(PathBuf, usize, usize)> = Vec::new();
        for p in 0..ppn {
            for s in partition_splits(&dir, &ctx(p, ppn, ppn), &opts, true).unwrap() {
                seen.push((s.path, s.split, s.of));
            }
        }
        seen.sort();
        let mut expected = Vec::new();
        for f in all_files(&dir).unwrap() {
            // 2-byte files, threshold 1 byte: 2 pieces (clamped by size).
            for j in 0..2 {
                expected.push((f.clone(), j, 2));
            }
        }
        expected.sort();
        assert_eq!(seen, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsplittable_paths_get_whole_files() {
        let dir = layout(1, 2);
        let opts = ScanOptions {
            intra_file_splits: true,
            min_split_bytes: 1,
            ..ScanOptions::default()
        };
        for p in 0..2 {
            for s in partition_splits(&dir, &ctx(p, 2, 2), &opts, false).unwrap() {
                assert_eq!(s.of, 1, "no () step means whole-file scans");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn matching_cluster_gets_node_locality() {
        let dir = layout(2, 2);
        let opts = ScanOptions::default();
        // 2 nodes x 1 partition: node 0 reads only node0's files.
        let files = partition_splits(&dir, &ctx(0, 2, 1), &opts, true).unwrap();
        assert!(files
            .iter()
            .all(|s| s.path.to_string_lossy().contains("node0")));
        let files1 = partition_splits(&dir, &ctx(1, 2, 1), &opts, true).unwrap();
        assert!(files1
            .iter()
            .all(|s| s.path.to_string_lossy().contains("node1")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flat_directory_is_shared_disjointly() {
        let dir = std::env::temp_dir().join("vxq-scan-flat");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for f in 0..5 {
            std::fs::write(dir.join(format!("f{f}.json")), b"{}").unwrap();
        }
        let opts = ScanOptions::default();
        let a = partition_splits(&dir, &ctx(0, 2, 2), &opts, true).unwrap();
        let b = partition_splits(&dir, &ctx(1, 2, 2), &opts, true).unwrap();
        assert_eq!(a.len() + b.len(), 5);
        assert!(a.iter().all(|s| !b.contains(s)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lpt_balances_a_ten_to_one_skewed_directory() {
        // One 10x file plus five 1x files: index round-robin over 2
        // partitions would put 10+1+1 = 12 units on one side and 3 on the
        // other. Size-aware splitting + LPT must balance within 20%.
        let dir = std::env::temp_dir().join("vxq-scan-skew");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a-big.json"), vec![b' '; 10 * 1024]).unwrap();
        for f in 0..5 {
            std::fs::write(dir.join(format!("b-small{f}.json")), vec![b' '; 1024]).unwrap();
        }
        let opts = ScanOptions {
            intra_file_splits: true,
            min_split_bytes: 1024,
            ..ScanOptions::default()
        };
        let loads: Vec<u64> = (0..2)
            .map(|p| {
                partition_splits(&dir, &ctx(p, 2, 2), &opts, true)
                    .unwrap()
                    .iter()
                    .map(|s| s.bytes)
                    .sum()
            })
            .collect();
        let (max, min) = (*loads.iter().max().unwrap(), *loads.iter().min().unwrap());
        assert!(min > 0, "both partitions must get work: {loads:?}");
        assert!(
            max as f64 <= min as f64 * 1.2,
            "10:1 skew must balance within 20%: {loads:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adm_files_never_split() {
        let dir = std::env::temp_dir().join("vxq-scan-adm-split");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let item = jdm::parse::parse_item(br#"{"root": [1, 2, 3, 4]}"#).unwrap();
        std::fs::write(dir.join("a.adm"), jdm::binary::to_bytes(&item)).unwrap();
        let opts = ScanOptions {
            intra_file_splits: true,
            min_split_bytes: 1,
            ..ScanOptions::default()
        };
        for p in 0..2 {
            for s in partition_splits(&dir, &ctx(p, 2, 2), &opts, true).unwrap() {
                assert_eq!(s.of, 1, "binary files have no text record ranges");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adm_files_are_listed_and_parsed() {
        let dir = std::env::temp_dir().join("vxq-scan-adm");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let item = jdm::parse::parse_item(br#"{"root": [1, 2]}"#).unwrap();
        std::fs::write(dir.join("a.adm"), jdm::binary::to_bytes(&item)).unwrap();
        std::fs::write(dir.join("b.json"), br#"{"root": [3]}"#).unwrap();
        std::fs::write(dir.join("ignored.txt"), b"junk").unwrap();
        let files = all_files(&dir).unwrap();
        assert_eq!(files.len(), 2, "only .adm and .json count: {files:?}");
        for f in &files {
            let bytes = std::fs::read(f).unwrap();
            let parsed = parse_file(f, &bytes).unwrap();
            assert!(parsed.get_key("root").is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_split_loads_recycle_pooled_buffers() {
        let dir = std::env::temp_dir().join("vxq-scan-pooled-split");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.json");
        std::fs::write(&path, br#"{"root": [1, 2, 3]}"#).unwrap();
        let project: ProjectionPath = [PathStep::Key("root".into()), PathStep::AllMembers]
            .into_iter()
            .collect();
        let pool = Arc::new(ScanBufferPool::new());
        let ctx = ctx(0, 1, 1);
        // Two jobs in a row, each with its own cache: the second reuses
        // the read buffer and the tape the first one returned on drop.
        for _ in 0..2 {
            let cache = FileIndexCache::default();
            let loaded = cache
                .get(&path, &project, &ctx, Stage1Mode::Swar, &pool)
                .unwrap();
            assert_eq!(loaded.table.len(), 3);
        }
        assert_eq!(pool.reuses(), 2);
        assert_eq!(ctx.mem.cached(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_strips_leading_slash() {
        let root = std::path::Path::new("/data");
        assert_eq!(resolve_collection(root, "/sensors"), root.join("sensors"));
        assert_eq!(resolve_collection(root, "books"), root.join("books"));
    }
}
