//! The path-projecting parser, driven by the structural index.
//!
//! [`project_indexed_nodes`] navigates an already-built
//! [`StructuralIndex`] following a [`ProjectionPath`]: non-matching
//! subtrees are skipped in O(1) via the tape's pair pointers instead of
//! being re-scanned byte by byte, and only the tape index of each match
//! reaches the caller, who decides how to materialize it (the engine's
//! scan writes the binary format straight from the tape). This is the
//! runtime realization of the paper's extended DATASCAN operator
//! (pipelining rules, §4.2): with path `("root")()("results")()` over a
//! GHCN sensor file, the sink sees one measurement at a time, while
//! `metadata`, sibling keys, and all non-matching structure cost a single
//! tape jump.
//!
//! Because the index build validates the *whole* document, projection
//! errors on malformed bytes even inside skipped subtrees, exactly like
//! [`crate::parse::parse_item`], which builds the same index.
//!
//! [`RecordTable`] exposes the document's record boundaries along the
//! path prefix up to the first `()` step, letting the scan layer project
//! disjoint record ranges of one file from different partitions
//! ([`RecordTable::project_range_nodes`]); the union over all ranges
//! equals one whole-file projection. [`project_indexed`] and
//! [`RecordTable::project_range`] are the same walks handing out
//! [`Item`]s built with [`StructuralIndex::item_at`].

use crate::error::Result;
use crate::index::{StructuralIndex, TapeKind};
use crate::item::Item;
use crate::path::{PathStep, ProjectionPath};
use std::ops::Range;

/// Statistics from one projection pass, used by tests and the memory model.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProjectStats {
    /// Items handed to the callback.
    pub emitted: usize,
    /// Navigation steps that led nowhere — a missing key or position, or
    /// a value of the wrong type — each ending its branch after one tape
    /// lookup, with nothing materialized.
    pub skipped: usize,
}

/// Stream every item reachable via `path` from the indexed JSON value in
/// `buf` into `sink`, materializing each match with
/// [`StructuralIndex::item_at`]. Returns statistics. The sink may return
/// `false` to stop early.
pub fn project_indexed(
    buf: &[u8],
    index: &StructuralIndex,
    path: &ProjectionPath,
    mut sink: impl FnMut(Item) -> bool,
) -> Result<ProjectStats> {
    project_indexed_nodes(buf, index, path, |node| Ok(sink(index.item_at(buf, node)?)))
}

/// The navigation behind [`project_indexed`], handing `sink` the tape
/// index of each matching value instead of an [`Item`] — the caller
/// decides how to materialize it (the engine's scan writes the binary
/// format straight from the tape with
/// [`StructuralIndex::write_binary_at`]). The sink returns `Ok(false)` to
/// stop early; its errors end the projection.
pub fn project_indexed_nodes(
    buf: &[u8],
    index: &StructuralIndex,
    path: &ProjectionPath,
    mut sink: impl FnMut(usize) -> Result<bool>,
) -> Result<ProjectStats> {
    let mut stats = ProjectStats::default();
    walk_tape(
        buf,
        index,
        index.root(),
        path.steps(),
        &mut sink,
        &mut stats,
    )?;
    Ok(stats)
}

/// Recursive step over the tape: `node` is at value position; `steps` is
/// the residual path. Returns `Ok(false)` when the sink asked to stop.
fn walk_tape(
    buf: &[u8],
    idx: &StructuralIndex,
    node: usize,
    steps: &[PathStep],
    sink: &mut impl FnMut(usize) -> Result<bool>,
    stats: &mut ProjectStats,
) -> Result<bool> {
    let Some((first, rest)) = steps.split_first() else {
        // End of path: hand this value to the sink.
        stats.emitted += 1;
        return sink(node);
    };
    let next = match first {
        PathStep::Key(wanted) => idx.find_key(buf, node, wanted)?,
        PathStep::Index(wanted) => nth_member(idx, node, *wanted),
        PathStep::AllMembers => {
            // keys-or-members pushed down only over arrays; objects or
            // atomics contribute nothing here.
            if idx.tape()[node].kind != TapeKind::ArrayOpen {
                stats.skipped += 1;
                return Ok(true);
            }
            for m in idx.members_iter(node) {
                if !walk_tape(buf, idx, m, rest, sink, stats)? {
                    return Ok(false);
                }
            }
            return Ok(true);
        }
    };
    match next {
        Some(value) => walk_tape(buf, idx, value, rest, sink, stats),
        // `value` on a missing key or position, or on the wrong type,
        // yields the empty sequence: this branch ends here.
        None => {
            stats.skipped += 1;
            Ok(true)
        }
    }
}

/// Tape index of the `pos`-th (1-based) member of the array at `node`;
/// `None` when out of range or `node` is not an array.
fn nth_member(idx: &StructuralIndex, node: usize, pos: i64) -> Option<usize> {
    let skip = usize::try_from(pos).ok()?.checked_sub(1)?;
    idx.members_iter(node).nth(skip)
}

/// One record of a splittable document: a member of the array reached by
/// the projection path's prefix up to (and including) its first `()` step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSpan {
    /// Tape index of the record's value.
    pub node: usize,
    /// Byte span of the record in the document.
    pub start: usize,
    pub end: usize,
}

/// The record boundaries of one document along a projection path —
/// what makes a file splittable into record-aligned ranges.
#[derive(Debug, Clone)]
pub struct RecordTable {
    /// The records, in document order.
    pub records: Vec<RecordSpan>,
    /// Number of leading path steps consumed reaching the records (the
    /// prefix through the first `()`); the rest apply per record.
    residual: usize,
}

impl RecordTable {
    /// Build the record table for `path` over an indexed document.
    ///
    /// Returns `None` when the path contains no `()` step — such a
    /// projection yields at most one item, so the document has no record
    /// granularity to split on. When the prefix misses (absent key,
    /// out-of-range index, type mismatch) the table is `Some` but empty:
    /// every range projects nothing, matching the whole-file projection.
    pub fn build(
        buf: &[u8],
        index: &StructuralIndex,
        path: &ProjectionPath,
    ) -> Result<Option<RecordTable>> {
        let steps = path.steps();
        let Some(k) = steps.iter().position(|s| matches!(s, PathStep::AllMembers)) else {
            return Ok(None);
        };
        let residual = k + 1;
        let empty = RecordTable {
            records: Vec::new(),
            residual,
        };
        let mut node = index.root();
        for step in &steps[..k] {
            let next = match step {
                PathStep::Key(wanted) => index.find_key(buf, node, wanted)?,
                PathStep::Index(wanted) => nth_member(index, node, *wanted),
                PathStep::AllMembers => unreachable!("k is the first AllMembers"),
            };
            match next {
                Some(v) => node = v,
                None => return Ok(Some(empty)),
            }
        }
        if index.tape()[node].kind != TapeKind::ArrayOpen {
            return Ok(Some(empty));
        }
        let records = index
            .members_iter(node)
            .map(|m| {
                let (start, end) = index.span(m);
                RecordSpan {
                    node: m,
                    start,
                    end,
                }
            })
            .collect();
        Ok(Some(RecordTable { records, residual }))
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Project the records in `range` (indices into [`RecordTable::records`])
    /// through the residual path steps. Projecting disjoint ranges covering
    /// `0..len()` — in any order, from any number of tasks sharing the
    /// index — emits exactly the items of one whole-document projection.
    pub fn project_range(
        &self,
        buf: &[u8],
        index: &StructuralIndex,
        path: &ProjectionPath,
        range: Range<usize>,
        mut sink: impl FnMut(Item) -> bool,
    ) -> Result<ProjectStats> {
        self.project_range_nodes(buf, index, path, range, |node| {
            Ok(sink(index.item_at(buf, node)?))
        })
    }

    /// [`RecordTable::project_range`] handing `sink` tape indices, like
    /// [`project_indexed_nodes`].
    pub fn project_range_nodes(
        &self,
        buf: &[u8],
        index: &StructuralIndex,
        path: &ProjectionPath,
        range: Range<usize>,
        mut sink: impl FnMut(usize) -> Result<bool>,
    ) -> Result<ProjectStats> {
        let steps = &path.steps()[self.residual..];
        let mut stats = ProjectStats::default();
        for rec in &self.records[range] {
            if !walk_tape(buf, index, rec.node, steps, &mut sink, &mut stats)? {
                break;
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;

    const SENSOR: &str = r#"{
      "root": [
        {
          "metadata": {"count": 2},
          "results": [
            {"date": "20131225T00:00", "dataType": "TMIN", "station": "S1", "value": 4},
            {"date": "20131226T00:00", "dataType": "TMAX", "station": "S1", "value": 10}
          ]
        },
        {
          "metadata": {"count": 1},
          "results": [
            {"date": "20140101T00:00", "dataType": "WIND", "station": "S2", "value": 30}
          ]
        }
      ]
    }"#;

    /// Index `buf` and collect every item `path` projects.
    fn project(buf: &[u8], path: &ProjectionPath) -> Result<Vec<Item>> {
        let index = StructuralIndex::build(buf)?;
        let mut out = Vec::new();
        project_indexed(buf, &index, path, |it| {
            out.push(it);
            true
        })?;
        Ok(out)
    }

    fn path(spec: &[&str]) -> ProjectionPath {
        spec.iter()
            .map(|s| match *s {
                "()" => PathStep::AllMembers,
                k if k.starts_with('#') => PathStep::Index(k[1..].parse().unwrap()),
                k => PathStep::Key(k.into()),
            })
            .collect()
    }

    #[test]
    fn projects_measurements() {
        let p = path(&["root", "()", "results", "()"]);
        let items = project(SENSOR.as_bytes(), &p).unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[2].get_key("station").unwrap().as_str(), Some("S2"));
    }

    #[test]
    fn projection_skips_metadata() {
        let p = path(&["root", "()", "results", "()"]);
        let idx = StructuralIndex::build(SENSOR.as_bytes()).unwrap();
        let stats = project_indexed(SENSOR.as_bytes(), &idx, &p, |_| true).unwrap();
        assert_eq!(stats.emitted, 3);
        // The key lookup jumps over "metadata" to "results": no dead ends.
        assert_eq!(stats.skipped, 0);
        // A key missing from both records ends two branches.
        let p = path(&["root", "()", "nope"]);
        let stats = project_indexed(SENSOR.as_bytes(), &idx, &p, |_| true).unwrap();
        assert_eq!((stats.emitted, stats.skipped), (0, 2));
    }

    #[test]
    fn matches_full_parse_then_navigate() {
        let p = path(&["root", "()", "results", "()"]);
        let streamed = project(SENSOR.as_bytes(), &p).unwrap();
        // Reference: the oracle's full parse and manual navigation.
        let tree = oracle::parse_item(SENSOR.as_bytes()).unwrap();
        let mut reference = Vec::new();
        for rec in tree.get_key("root").unwrap().keys_or_members() {
            for m in rec.get_key("results").unwrap().keys_or_members() {
                reference.push(m);
            }
        }
        assert_eq!(streamed, reference);
    }

    #[test]
    fn key_path_extracts_single_field() {
        let p = path(&["root", "()", "results", "()", "date"]);
        let items = project(SENSOR.as_bytes(), &p).unwrap();
        assert_eq!(
            items,
            vec![
                Item::str("20131225T00:00"),
                Item::str("20131226T00:00"),
                Item::str("20140101T00:00"),
            ]
        );
    }

    #[test]
    fn index_step_selects_one_member() {
        let p = path(&["root", "#1", "results", "#2", "value"]);
        let items = project(SENSOR.as_bytes(), &p).unwrap();
        assert_eq!(items, vec![Item::int(10)]);
    }

    #[test]
    fn out_of_range_index_yields_nothing() {
        let p = path(&["root", "#9"]);
        assert_eq!(project(SENSOR.as_bytes(), &p).unwrap(), Vec::<Item>::new());
    }

    #[test]
    fn missing_key_yields_nothing() {
        let p = path(&["nope", "()"]);
        assert_eq!(project(SENSOR.as_bytes(), &p).unwrap(), Vec::<Item>::new());
    }

    #[test]
    fn mismatched_types_yield_nothing() {
        // value step on an array / members step on an object.
        let p = path(&["root", "x"]); // "root" is an array, key step misses
        assert_eq!(project(SENSOR.as_bytes(), &p).unwrap(), Vec::<Item>::new());
        let p2 = path(&["root", "()", "metadata", "()"]); // () on object => nothing (array form only)
        assert_eq!(project(SENSOR.as_bytes(), &p2).unwrap(), Vec::<Item>::new());
    }

    #[test]
    fn early_stop() {
        let p = path(&["root", "()", "results", "()"]);
        let idx = StructuralIndex::build(SENSOR.as_bytes()).unwrap();
        let mut n = 0;
        project_indexed(SENSOR.as_bytes(), &idx, &p, |_| {
            n += 1;
            n < 2
        })
        .unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn root_path_emits_whole_document() {
        let items = project(SENSOR.as_bytes(), &ProjectionPath::root()).unwrap();
        assert_eq!(items.len(), 1);
        assert!(items[0].get_key("root").is_some());
    }

    #[test]
    fn duplicate_keys_project_first() {
        let src = br#"{"a": 1, "a": 2}"#;
        let p = path(&["a"]);
        assert_eq!(project(src, &p).unwrap(), vec![Item::int(1)]);
    }

    #[test]
    fn malformed_skipped_subtree_is_an_error() {
        // The old byte-skipping walk tolerated garbage inside skipped
        // values; index-guided projection validates everything, exactly
        // like a full tree parse.
        let src = br#"{"skip": [01], "keep": 1}"#;
        let p = path(&["keep"]);
        assert!(project(src, &p).is_err());
        assert!(oracle::parse_item(src).is_err());
    }

    #[test]
    fn record_table_finds_top_level_records() {
        let p = path(&["root", "()", "results", "()"]);
        let idx = StructuralIndex::build(SENSOR.as_bytes()).unwrap();
        let table = RecordTable::build(SENSOR.as_bytes(), &idx, &p)
            .unwrap()
            .expect("path has a () step");
        assert_eq!(table.len(), 2, "two top-level sensor records");
        for r in &table.records {
            assert!(SENSOR.as_bytes()[r.start] == b'{');
            assert!(SENSOR.as_bytes()[r.end - 1] == b'}');
        }
    }

    #[test]
    fn record_ranges_union_to_whole_projection() {
        let p = path(&["root", "()", "results", "()"]);
        let buf = SENSOR.as_bytes();
        let idx = StructuralIndex::build(buf).unwrap();
        let table = RecordTable::build(buf, &idx, &p).unwrap().unwrap();
        let whole = project(buf, &p).unwrap();
        for mid in 0..=table.len() {
            let mut got = Vec::new();
            for range in [0..mid, mid..table.len()] {
                table
                    .project_range(buf, &idx, &p, range, |it| {
                        got.push(it);
                        true
                    })
                    .unwrap();
            }
            assert_eq!(got, whole, "split at {mid}");
        }
    }

    #[test]
    fn record_table_without_all_members_is_none() {
        let p = path(&["root", "#1"]);
        let idx = StructuralIndex::build(SENSOR.as_bytes()).unwrap();
        assert!(RecordTable::build(SENSOR.as_bytes(), &idx, &p)
            .unwrap()
            .is_none());
    }

    #[test]
    fn record_table_missing_prefix_is_empty() {
        let p = path(&["nope", "()"]);
        let idx = StructuralIndex::build(SENSOR.as_bytes()).unwrap();
        let table = RecordTable::build(SENSOR.as_bytes(), &idx, &p)
            .unwrap()
            .unwrap();
        assert!(table.is_empty());
    }
}
