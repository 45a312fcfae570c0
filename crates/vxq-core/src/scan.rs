//! DATASCAN runtimes: how collection data reaches the dataflow.
//!
//! Two scan flavours, matching the plan shapes before/after the rules:
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
//!   is reported to the memory tracker. `json-doc("file")` is the same
//!   scan over one document, emitting the document itself.
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
//! ## Planned once, per execution
//!
//! Every factory is built by `compile_plan`, which lists and stats its
//! collection exactly once per execution into a `ScanPlan`: each file's
//! path, size and mtime, and the placement of its splits over the
//! cluster's partitions. Each task then scans only its own slice:
//!
//! 1. files larger than [`ScanOptions::min_split_bytes`] are chopped into
//!    up to one split per partition (only when the projection path has a
//!    `()` step — that is what gives the file record granularity — and
//!    never for binary `.adm` files);
//! 2. the splits are placed by greedy LPT (largest first, onto the
//!    least-loaded partition), so a size-skewed directory still balances.
//!
//! At scan time, split *j of n* of a file covers records
//! `[j·R/n, (j+1)·R/n)` of the array reached by the projection path's
//! prefix (see [`jdm::project::RecordTable`]): record-aligned byte
//! ranges, found via the structural index, no mid-value cuts; a whole
//! file is the range `0..R`. The n splits of one file share a single
//! load, which checks the file against its planned identity (size and
//! mtime of the open file, and the bytes actually read) and fails with
//! [`DataflowError::SourceChanged`] on any mismatch — so tasks can never
//! disagree on a file's records. The load's bytes and tape go back to the
//! engine's [`ScanBufferPool`] as soon as the file's last split finishes.

use crate::pool::ScanBufferPool;
use dataflow::context::TaskContext;
use dataflow::ops::eval::{ScanSource, ScanSourceFactory, TupleEmitter};
use dataflow::profile::SplitProfile;
use dataflow::{ClusterSpec, DataflowError, MemTracker, Result};
use jdm::binary::{to_bytes, ItemRef};
use jdm::index::StructuralIndex;
use jdm::parse::parse_item;
use jdm::project::{project_indexed_nodes, RecordTable};
use jdm::stage1::Stage1Mode;
use jdm::{Item, PathStep, ProjectionPath};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

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

/// One unit of scan work: a record-aligned share of a planned file.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScanSplit {
    /// Index of the file in its plan's `files`.
    file: usize,
    /// Estimated bytes this split covers (size-based; used for placement).
    bytes: u64,
    /// Split index within the file.
    split: usize,
    /// Total splits of the file (1 = whole file).
    of: usize,
}

/// Resolve a query collection path under the engine's data root.
pub fn resolve_collection(data_root: &Path, coll: &str) -> PathBuf {
    data_root.join(coll.trim_start_matches('/'))
}

/// A data file as listed at planning time, and the load its splits share.
struct PlannedFile {
    path: PathBuf,
    size: u64,
    mtime: Option<SystemTime>,
    /// Splits of this file not yet finished; the last one releases the load.
    pending: AtomicUsize,
    /// The resident load. A mutex, not a `OnceLock`, because the last
    /// split must empty it through a shared reference.
    loaded: Mutex<Option<Arc<LoadedFile>>>,
}

impl PlannedFile {
    /// Stat `path` once, fixing the identity the loader checks.
    fn stat(path: PathBuf) -> Result<(PlannedFile, bool)> {
        let meta = std::fs::metadata(&path)
            .map_err(|e| DataflowError::Source(format!("cannot read {}: {e}", path.display())))?;
        let file = PlannedFile {
            size: meta.len(),
            mtime: meta.modified().ok(),
            path,
            pending: AtomicUsize::new(0),
            loaded: Mutex::new(None),
        };
        Ok((file, meta.is_file()))
    }

    fn is_adm(&self) -> bool {
        self.path.extension().is_some_and(|e| e == "adm")
    }

    /// Read the whole file into `buf`, failing with
    /// [`DataflowError::SourceChanged`] unless it is still the planned
    /// file: same size and mtime on the open handle, and exactly `size`
    /// bytes read.
    fn read_checked(&self, ctx: &TaskContext, buf: &mut Vec<u8>) -> Result<()> {
        use std::io::Read;
        let changed = || DataflowError::SourceChanged {
            path: self.path.clone(),
        };
        let io_err = |e: std::io::Error| {
            DataflowError::Source(format!("cannot read {}: {e}", self.path.display()))
        };
        let mut f = match std::fs::File::open(&self.path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(changed()),
            f => f.map_err(io_err)?,
        };
        let meta = f.metadata().map_err(io_err)?;
        if meta.len() != self.size || meta.modified().ok() != self.mtime {
            return Err(changed());
        }
        buf.clear();
        f.read_to_end(buf).map_err(io_err)?;
        if buf.len() as u64 != self.size {
            return Err(changed());
        }
        ctx.counters
            .bytes_scanned
            .fetch_add(self.size, Ordering::Relaxed);
        Ok(())
    }

    /// Read and parse the whole file into an item (the naive scans).
    fn read_item(&self, ctx: &TaskContext, buf: &mut Vec<u8>) -> Result<Item> {
        self.read_checked(ctx, buf)?;
        let r = if self.is_adm() {
            ItemRef::new(buf).and_then(|r| r.to_item())
        } else {
            parse_item(buf)
        };
        r.map_err(|e| DataflowError::Source(format!("{}: {e}", self.path.display())))
    }

    /// The shared load for one of this file's splits. The first split
    /// reads, checks and indexes the file, charging it to the cache class
    /// while it is resident; the others reuse that load, and dropping the
    /// last of the file's `of` leases releases it.
    fn lease(
        &self,
        ctx: &TaskContext,
        pool: &Arc<ScanBufferPool>,
        project: &ProjectionPath,
        stage1: Stage1Mode,
    ) -> Result<Lease<'_>> {
        // A poisoned slot is still sound: it only ever holds a complete
        // load or nothing.
        let mut slot = self.loaded.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(loaded) = &*slot {
            let loaded = loaded.clone();
            return Ok(Lease { file: self, loaded });
        }
        let mut loaded = LoadedFile {
            bytes: pool.take_buf(),
            text: None,
            mem: ctx.mem.clone(),
            pool: pool.clone(),
            tracked: 0,
            index_elapsed: Duration::ZERO,
            index_reported: AtomicBool::new(false),
        };
        self.read_checked(ctx, &mut loaded.bytes)?;
        let mut tracked = loaded.bytes.len();
        if !self.is_adm() {
            let src_err =
                |e: jdm::JdmError| DataflowError::Source(format!("{}: {e}", self.path.display()));
            let started = Instant::now();
            let index =
                StructuralIndex::build_reusing_with(&loaded.bytes, pool.take_tape(), stage1)
                    .map_err(src_err)?;
            loaded.index_elapsed = started.elapsed();
            let table = RecordTable::build(&loaded.bytes, &index, project).map_err(src_err)?;
            tracked += index.len() * std::mem::size_of::<jdm::index::TapeEntry>()
                + table.as_ref().map_or(0, |t| {
                    t.records.len() * std::mem::size_of::<jdm::project::RecordSpan>()
                });
            loaded.text = Some((index, table));
        }
        // Cache class: reported in the peak, exempt from the spill budget
        // (operators cannot release it by spilling).
        ctx.mem.alloc_cached(tracked);
        loaded.tracked = tracked;
        let loaded = slot.insert(Arc::new(loaded)).clone();
        Ok(Lease { file: self, loaded })
    }
}

/// One split's hold on its file's load.
struct Lease<'a> {
    file: &'a PlannedFile,
    loaded: Arc<LoadedFile>,
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        // AcqRel: the split that counts down to zero must see every other
        // split's finish before it empties the slot.
        if self.file.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.file
                .loaded
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take();
        }
    }
}

/// The scan of one DATASCAN for one execution: every planned file and the
/// placement of their splits over the cluster's partitions.
struct ScanPlan {
    /// Planned files in listing order: node directories in index order,
    /// names sorted within each.
    files: Vec<PlannedFile>,
    /// Per partition, the splits it scans, in order.
    parts: Vec<Vec<ScanSplit>>,
}

impl ScanPlan {
    /// List and stat the collection at `dir` once and place its splits.
    ///
    /// Data-node directory `d` is owned by cluster node `d % nodes` (exact
    /// locality when the dataset was generated for this cluster size;
    /// balanced reassignment when node counts differ, as in the speed-up
    /// experiments that run one dataset on growing clusters). Within a
    /// node, the node's files are chopped and placed over its partitions
    /// by [`assign_splits`]; a flat collection is placed over all
    /// partitions. `splittable` says whether the consumer can scan a
    /// record range of a file (true only for projections with a `()`
    /// step).
    fn new(
        dir: &Path,
        cluster: &ClusterSpec,
        opts: &ScanOptions,
        splittable: bool,
    ) -> Result<ScanPlan> {
        let ppn = cluster.partitions_per_node.max(1);
        let nodes = cluster.nodes.max(1);
        let mut plan = ScanPlan {
            files: Vec::new(),
            parts: vec![Vec::new(); nodes * ppn],
        };
        let dirs = node_dirs(dir);
        if dirs.is_empty() {
            plan.files = list_files(dir)?;
            plan.parts = assign_splits(&plan.files, 0, nodes * ppn, opts, splittable);
        }
        for (d, node_dir) in dirs.iter().enumerate() {
            let first = plan.files.len();
            plan.files.extend(list_files(node_dir)?);
            let placed = assign_splits(&plan.files[first..], first, ppn, opts, splittable);
            for (local, mut splits) in placed.into_iter().enumerate() {
                plan.parts[(d % nodes) * ppn + local].append(&mut splits);
            }
        }
        for s in plan.parts.iter().flatten() {
            *plan.files[s.file].pending.get_mut() = s.of;
        }
        Ok(plan)
    }

    /// The splits partition `p` scans.
    fn splits(&self, p: usize) -> &[ScanSplit] {
        &self.parts[p]
    }
}

/// List and stat a directory's data files once, in name order. `.json`
/// files hold JSON text; `.adm` files hold a pre-converted binary item
/// (the AsterixDB-load baseline's internal format).
fn list_files(dir: &Path) -> Result<Vec<PlannedFile>> {
    let cannot_read =
        |e: std::io::Error| DataflowError::Source(format!("cannot read {}: {e}", dir.display()));
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(cannot_read)? {
        let p = entry.map_err(cannot_read)?.path();
        if p.extension().is_some_and(|e| e == "json" || e == "adm") {
            if let (file, true) = PlannedFile::stat(p)? {
                files.push(file);
            }
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

/// The collection's `node<i>` sub-directories, in index order (empty when
/// the collection is a flat directory of files).
fn node_dirs(dir: &Path) -> Vec<PathBuf> {
    (0..)
        .map(|i| dir.join(format!("node{i}")))
        .take_while(|d| d.is_dir())
        .collect()
}

/// Deterministic size-aware placement of a file set (numbered from
/// `first` in the plan) over `nparts` partitions: chop large files into
/// record-range splits, then greedy LPT (largest split first, onto the
/// least-loaded partition, ties broken by listing order).
fn assign_splits(
    files: &[PlannedFile],
    first: usize,
    nparts: usize,
    opts: &ScanOptions,
    splittable: bool,
) -> Vec<Vec<ScanSplit>> {
    let mut splits = Vec::with_capacity(files.len());
    for (i, f) in files.iter().enumerate() {
        let pieces = if splittable && !f.is_adm() && opts.intra_file_splits && nparts > 1 {
            ((f.size / opts.min_split_bytes.max(1)) as usize).clamp(1, nparts)
        } else {
            1
        };
        for j in 0..pieces {
            splits.push(ScanSplit {
                file: first + i,
                bytes: (f.size / pieces as u64).max(1),
                split: j,
                of: pieces,
            });
        }
    }
    splits.sort_by(|a, b| {
        b.bytes
            .cmp(&a.bytes)
            .then(a.file.cmp(&b.file))
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

// ------------------------------------------------------------ projected

/// Factory for the projecting partitioned DATASCAN.
pub struct ProjectedScanFactory {
    plan: Arc<ScanPlan>,
    project: ProjectionPath,
    stage1: Stage1Mode,
    pool: Arc<ScanBufferPool>,
}

impl ProjectedScanFactory {
    /// Plan the scan of the collection at `dir` for `cluster`: the one
    /// listing of this DATASCAN for this execution.
    pub fn new(
        dir: &Path,
        project: ProjectionPath,
        cluster: &ClusterSpec,
        options: &ScanOptions,
        pool: Arc<ScanBufferPool>,
    ) -> Result<Self> {
        // Only a `()` step gives the file record granularity to split on.
        let splittable = project
            .steps()
            .iter()
            .any(|s| matches!(s, PathStep::AllMembers));
        Ok(ProjectedScanFactory {
            plan: Arc::new(ScanPlan::new(dir, cluster, options, splittable)?),
            project,
            stage1: options.stage1,
            pool,
        })
    }
}

impl ScanSourceFactory for ProjectedScanFactory {
    fn create(&self, ctx: &TaskContext) -> Result<Box<dyn ScanSource>> {
        if ctx.num_partitions != self.plan.parts.len() {
            return Err(DataflowError::BadJob(format!(
                "scan planned for {} partitions runs on {}",
                self.plan.parts.len(),
                ctx.num_partitions
            )));
        }
        Ok(Box::new(ProjectedScan {
            plan: self.plan.clone(),
            project: self.project.clone(),
            ctx: ctx.clone(),
            pool: self.pool.clone(),
            stage1: self.stage1,
        }))
    }
}

struct ProjectedScan {
    plan: Arc<ScanPlan>,
    project: ProjectionPath,
    ctx: TaskContext,
    pool: Arc<ScanBufferPool>,
    stage1: Stage1Mode,
}

impl ScanSource for ProjectedScan {
    fn run(&mut self, emit: &mut TupleEmitter<'_>) -> Result<()> {
        let mut item_bytes = Vec::new();
        for split in self.plan.splits(self.ctx.partition) {
            let started = Instant::now();
            let file = &self.plan.files[split.file];
            let lease = file.lease(&self.ctx, &self.pool, &self.project, self.stage1)?;
            let loaded = &lease.loaded;
            let mut tuples = 0u64;
            let mut err = None;
            let (records, bytes) = loaded.project(
                file,
                split,
                &self.project,
                &mut item_bytes,
                &mut |item| match emit(&[item]) {
                    Ok(()) => {
                        tuples += 1;
                        true
                    }
                    Err(e) => {
                        err = Some(e);
                        false
                    }
                },
            )?;
            if let Some(e) = err {
                return Err(e);
            }
            // The file's single index build is attributed to whichever of
            // its splits records first, so it is counted exactly once.
            let (index_bytes, index_elapsed) = match &loaded.text {
                Some(_) if !loaded.index_reported.swap(true, Ordering::Relaxed) => {
                    (loaded.bytes.len() as u64, loaded.index_elapsed)
                }
                _ => (0, Duration::ZERO),
            };
            self.ctx.record_split(SplitProfile {
                stage: self.ctx.stage,
                partition: self.ctx.partition,
                file: file.path.display().to_string(),
                split: split.split,
                of: split.of,
                records,
                tuples,
                bytes,
                elapsed: started.elapsed(),
                index_bytes,
                index_elapsed,
                kernel: loaded
                    .text
                    .as_ref()
                    .map(|(index, _)| index.kernel().label()),
            });
        }
        Ok(())
    }
}

/// One loaded file, shared by the tasks scanning its splits. Its read
/// buffer and tape come from, and go back to, the engine's pool; its
/// memory is charged to the cache class until it is dropped.
struct LoadedFile {
    bytes: Vec<u8>,
    /// Structural index and record table of a JSON text file (the table
    /// is `None` for a path with no `()` step); `None` for a binary
    /// `.adm` item, which is navigated zero-copy.
    text: Option<(StructuralIndex, Option<RecordTable>)>,
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
        if let Some((index, _)) = &mut self.text {
            self.pool.put_tape(index.take_tape());
        }
    }
}

impl LoadedFile {
    /// Project `split` through `project`, handing each matched item's
    /// binary bytes to `sink` until it returns false. Returns the records
    /// the split covered and the bytes of the file it was responsible for.
    fn project(
        &self,
        file: &PlannedFile,
        split: &ScanSplit,
        project: &ProjectionPath,
        out: &mut Vec<u8>,
        sink: &mut dyn FnMut(&[u8]) -> bool,
    ) -> Result<(u64, u64)> {
        let src_err =
            |e: jdm::JdmError| DataflowError::Source(format!("{}: {e}", file.path.display()));
        let (buf, whole) = (&self.bytes[..], self.bytes.len() as u64);
        let mut matched = 0u64;
        let Some((index, table)) = &self.text else {
            let root = ItemRef::new(buf).map_err(src_err)?;
            project_binary(root, project.steps(), &mut |item| {
                matched += 1;
                sink(item)
            });
            return Ok((matched, whole));
        };
        let emit = |node: usize| -> jdm::Result<bool> {
            out.clear();
            index.write_binary_at(buf, node, out)?;
            matched += 1;
            Ok(sink(out))
        };
        let Some(table) = table else {
            project_indexed_nodes(buf, index, project, emit).map_err(src_err)?;
            return Ok((matched, whole));
        };
        let n = table.len();
        let (lo, hi) = (n * split.split / split.of, n * (split.split + 1) / split.of);
        table
            .project_range_nodes(buf, index, project, lo..hi, emit)
            .map_err(src_err)?;
        let bytes = match split.of {
            1 => whole,
            _ if hi > lo => (table.records[hi - 1].end - table.records[lo].start) as u64,
            _ => 0,
        };
        Ok(((hi - lo) as u64, bytes))
    }
}

/// Navigate a binary item along a projection path, handing matches to
/// `sink`; returns false once `sink` asked to stop.
fn project_binary(
    item: ItemRef<'_>,
    steps: &[PathStep],
    sink: &mut dyn FnMut(&[u8]) -> bool,
) -> bool {
    let Some((first, rest)) = steps.split_first() else {
        return sink(item.bytes());
    };
    match first {
        PathStep::Key(k) => item
            .get_key(k)
            .is_none_or(|v| project_binary(v, rest, sink)),
        PathStep::Index(i) => (*i >= 1)
            .then(|| item.member((*i - 1) as usize))
            .flatten()
            .is_none_or(|v| project_binary(v, rest, sink)),
        PathStep::AllMembers => {
            item.tag() != jdm::binary::tag::ARRAY
                || item.members().all(|m| project_binary(m, rest, sink))
        }
    }
}

// ------------------------------------------------------ naive sources

/// Factory for the naive sources, which parse whole files on a single
/// partition: the whole-collection scan and `json-doc("file")`.
///
/// Only the parsed items (`Item::heap_size`) and the serialized result
/// are charged to the memory tracker. The read buffer (reused for the
/// next file) and the structural-index tape that `parse_item` builds and
/// drops within each call (about twice the file's bytes) are parse
/// scratch and not charged.
pub struct WholeCollectionScanFactory {
    files: Arc<[PlannedFile]>,
    /// `json-doc`: emit the one document itself, not a sequence of items.
    doc: bool,
}

impl WholeCollectionScanFactory {
    /// Stat the source once: list the collection at `path`, or for
    /// `json-doc` (`doc`) the single document at `path`.
    pub fn new(path: &Path, doc: bool) -> Result<Self> {
        let files = match doc {
            true => vec![PlannedFile::stat(path.to_path_buf())?.0],
            false => {
                ScanPlan::new(
                    path,
                    &ClusterSpec::default(),
                    &ScanOptions::default(),
                    false,
                )?
                .files
            }
        };
        Ok(WholeCollectionScanFactory {
            files: files.into(),
            doc,
        })
    }
}

impl ScanSourceFactory for WholeCollectionScanFactory {
    fn create(&self, ctx: &TaskContext) -> Result<Box<dyn ScanSource>> {
        Ok(Box::new(WholeCollectionScan {
            files: self.files.clone(),
            doc: self.doc,
            ctx: ctx.clone(),
        }))
    }
}

struct WholeCollectionScan {
    files: Arc<[PlannedFile]>,
    doc: bool,
    ctx: TaskContext,
}

impl WholeCollectionScan {
    /// Parse every file and serialize the result, adding each memory
    /// grant to `tracked`.
    fn materialize(&self, tracked: &mut usize) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        let mut items = Vec::with_capacity(self.files.len());
        for file in self.files.iter() {
            let item = file.read_item(&self.ctx, &mut buf)?;
            *tracked += item.heap_size();
            self.ctx.mem.alloc(item.heap_size());
            items.push(item);
        }
        // A `json-doc` source has exactly one file. The serialized result
        // is also materialized (it becomes one giant tuple).
        let bytes = match self.doc {
            true => to_bytes(&items.swap_remove(0)),
            false => to_bytes(&Item::Sequence(items)),
        };
        *tracked += bytes.len();
        self.ctx.mem.alloc(bytes.len());
        Ok(bytes)
    }
}

impl ScanSource for WholeCollectionScan {
    fn run(&mut self, emit: &mut TupleEmitter<'_>) -> Result<()> {
        let mut tracked = 0;
        let r = self.materialize(&mut tracked).and_then(|b| emit(&[&b]));
        // Freed on every exit path: a file failing to read or parse must
        // not leak the grants of the files before it.
        self.ctx.mem.free(tracked);
        r
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

    fn plan(
        dir: &Path,
        nodes: usize,
        ppn: usize,
        opts: &ScanOptions,
        splittable: bool,
    ) -> ScanPlan {
        let cluster = ClusterSpec {
            nodes,
            partitions_per_node: ppn,
            ..ClusterSpec::default()
        };
        ScanPlan::new(dir, &cluster, opts, splittable).unwrap()
    }

    fn paths(plan: &ScanPlan, p: usize) -> Vec<PathBuf> {
        plan.splits(p)
            .iter()
            .map(|s| plan.files[s.file].path.clone())
            .collect()
    }

    fn root_members() -> ProjectionPath {
        [PathStep::Key("root".into()), PathStep::AllMembers]
            .into_iter()
            .collect()
    }

    fn layout(nodes: usize, files_per_node: usize) -> (PathBuf, Vec<PathBuf>) {
        let dir = std::env::temp_dir().join(format!("vxq-scan-layout-{nodes}-{files_per_node}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut files = Vec::new();
        for n in 0..nodes {
            let nd = dir.join(format!("node{n}"));
            std::fs::create_dir_all(&nd).unwrap();
            for f in 0..files_per_node {
                files.push(nd.join(format!("part{f}.json")));
                std::fs::write(files.last().unwrap(), b"{}").unwrap();
            }
        }
        (dir, files)
    }

    #[test]
    fn partitions_cover_all_files_exactly_once() {
        let (dir, mut all) = layout(3, 4);
        all.sort();
        let opts = ScanOptions::default();
        for (nodes, ppn) in [(1usize, 1usize), (1, 4), (3, 2), (6, 1), (2, 3)] {
            let plan = plan(&dir, nodes, ppn, &opts, true);
            let mut seen: Vec<PathBuf> = (0..nodes * ppn).flat_map(|p| paths(&plan, p)).collect();
            seen.sort();
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
        let (dir, all) = layout(1, 3);
        let opts = ScanOptions {
            intra_file_splits: true,
            min_split_bytes: 1,
            ..ScanOptions::default()
        };
        let plan = plan(&dir, 1, 4, &opts, true);
        let mut seen: Vec<(PathBuf, usize, usize)> = Vec::new();
        for p in 0..4 {
            for s in plan.splits(p) {
                seen.push((plan.files[s.file].path.clone(), s.split, s.of));
            }
        }
        seen.sort();
        let mut expected = Vec::new();
        for f in all {
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
        let (dir, _) = layout(1, 2);
        let opts = ScanOptions {
            intra_file_splits: true,
            min_split_bytes: 1,
            ..ScanOptions::default()
        };
        let plan = plan(&dir, 1, 2, &opts, false);
        for p in 0..2 {
            for s in plan.splits(p) {
                assert_eq!(s.of, 1, "no () step means whole-file scans");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn matching_cluster_gets_node_locality() {
        let (dir, _) = layout(2, 2);
        // 2 nodes x 1 partition: node 0 reads only node0's files.
        let plan = plan(&dir, 2, 1, &ScanOptions::default(), true);
        for p in 0..2 {
            let node = format!("node{p}");
            assert!(paths(&plan, p)
                .iter()
                .all(|f| f.to_string_lossy().contains(&node)));
        }
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
        let plan = plan(&dir, 1, 2, &ScanOptions::default(), true);
        let (a, b) = (paths(&plan, 0), paths(&plan, 1));
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
        let plan = plan(&dir, 1, 2, &opts, true);
        let loads: Vec<u64> = (0..2)
            .map(|p| plan.splits(p).iter().map(|s| s.bytes).sum())
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
        let plan = plan(&dir, 1, 2, &opts, true);
        for p in 0..2 {
            for s in plan.splits(p) {
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
        let plan = plan(&dir, 1, 1, &ScanOptions::default(), true);
        assert_eq!(plan.files.len(), 2, "only .adm and .json count");
        for f in &plan.files {
            let parsed = f.read_item(&ctx(0, 1, 1), &mut Vec::new()).unwrap();
            assert!(parsed.get_key("root").is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_split_loads_recycle_pooled_buffers() {
        let dir = std::env::temp_dir().join("vxq-scan-pooled-split");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.json"), br#"{"root": [1, 2, 3]}"#).unwrap();
        let pool = Arc::new(ScanBufferPool::new());
        let ctx = ctx(0, 1, 1);
        // Two jobs in a row, each with its own plan: the second reuses the
        // read buffer and the tape the first one released.
        for _ in 0..2 {
            let plan = plan(&dir, 1, 1, &ScanOptions::default(), true);
            let lease = plan.files[0]
                .lease(&ctx, &pool, &root_members(), Stage1Mode::Swar)
                .unwrap();
            let (_, table) = lease.loaded.text.as_ref().unwrap();
            assert_eq!(table.as_ref().unwrap().len(), 3);
        }
        assert_eq!(pool.reuses(), 2);
        assert_eq!(ctx.mem.cached(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn last_split_returns_the_load_to_the_pool() {
        let dir = std::env::temp_dir().join("vxq-scan-last-split");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.json"), br#"{"root": [1, 2, 3, 4]}"#).unwrap();
        let opts = ScanOptions {
            intra_file_splits: true,
            min_split_bytes: 1,
            ..ScanOptions::default()
        };
        let plan = plan(&dir, 1, 2, &opts, true);
        assert_eq!(plan.splits(0)[0].of, 2, "one file, one split per partition");
        let pool = Arc::new(ScanBufferPool::new());
        let ctx = ctx(0, 2, 2);
        let file = &plan.files[0];
        let first = file
            .lease(&ctx, &pool, &root_members(), Stage1Mode::Swar)
            .unwrap();
        let last = file
            .lease(&ctx, &pool, &root_members(), Stage1Mode::Swar)
            .unwrap();
        assert!(Arc::ptr_eq(&first.loaded, &last.loaded), "one shared load");
        drop(first);
        assert!(ctx.mem.cached() > 0, "resident until the last split ends");
        assert_eq!(pool.take_buf().capacity(), 0, "not yet pooled");
        drop(last);
        assert_eq!(ctx.mem.cached(), 0);
        assert!(pool.take_buf().capacity() >= file.size as usize);
        assert!(pool.take_tape().capacity() > 0);
        assert_eq!(pool.reuses(), 2, "buffer and tape both came back");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Plan `a.json` in a fresh directory, apply `change`, and load it.
    fn load_after(name: &str, change: impl FnOnce(&Path)) -> (PathBuf, Result<()>) {
        let dir = std::env::temp_dir().join(format!("vxq-scan-changed-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.json");
        std::fs::write(&path, br#"{"root": [1, 2, 3]}"#).unwrap();
        let plan = plan(&dir, 1, 1, &ScanOptions::default(), true);
        change(&path);
        let pool = Arc::new(ScanBufferPool::new());
        let ctx = ctx(0, 1, 1);
        let r = plan.files[0]
            .lease(&ctx, &pool, &root_members(), Stage1Mode::Swar)
            .map(drop);
        assert_eq!(ctx.mem.cached(), 0, "a refused load holds nothing");
        let _ = std::fs::remove_dir_all(&dir);
        (path, r)
    }

    fn assert_changed(path: &Path, r: Result<()>) {
        match r {
            Err(DataflowError::SourceChanged { path: p }) => assert_eq!(p, path),
            other => panic!(
                "expected SourceChanged for {}, got {other:?}",
                path.display()
            ),
        }
    }

    #[test]
    fn appending_after_planning_is_source_changed() {
        let (path, r) = load_after("append", |p| {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(p).unwrap();
            f.write_all(b"  ").unwrap();
        });
        assert_changed(&path, r);
    }

    #[test]
    fn same_size_rewrite_with_new_mtime_is_source_changed() {
        let (path, r) = load_after("rewrite", |p| {
            let planned = std::fs::metadata(p).unwrap().modified().unwrap();
            std::fs::write(p, br#"{"root": [7, 8, 9]}"#).unwrap();
            let f = std::fs::OpenOptions::new().write(true).open(p).unwrap();
            f.set_modified(planned + Duration::from_secs(10)).unwrap();
        });
        assert_changed(&path, r);
    }

    #[test]
    fn deleting_a_planned_file_is_an_error_naming_it() {
        let (path, r) = load_after("delete", |p| std::fs::remove_file(p).unwrap());
        let err = r.expect_err("a deleted file cannot load").to_string();
        assert!(err.contains(&path.display().to_string()), "{err}");
    }

    #[test]
    fn resolve_strips_leading_slash() {
        let root = std::path::Path::new("/data");
        assert_eq!(resolve_collection(root, "/sensors"), root.join("sensors"));
        assert_eq!(resolve_collection(root, "books"), root.join("books"));
    }
}
