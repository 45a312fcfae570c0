//! GROUP-BY — grouped aggregation, in both the paper's *before* and
//! *after* forms.
//!
//! * [`MaterializingGroupByOp`] is the pre-rewrite plan (Fig. 9): the inner
//!   focus is `AGGREGATE sequence`, so every group buffers a **sequence of
//!   its members** and downstream operators compute `count(...)` over the
//!   materialized sequence. It cannot spill (the sequences must exist in
//!   full), so it grows its grant unconditionally — budget violations are
//!   flagged on the job instead of enforced. This is what the group-by
//!   rewrite rules eliminate.
//! * [`HashGroupByOp`] is the post-rewrite plan (Fig. 12): the aggregate is
//!   pushed into the group-by, so each group holds only incremental
//!   aggregator state ("the count function is computed at the same time
//!   that each group is formed, without creating any sequences"). Under
//!   budget pressure it spills with a *frozen-table* scheme: when a new
//!   group no longer fits, the in-memory table is frozen — tuples of
//!   already-seen keys keep aggregating in place, tuples of unseen keys
//!   are hash-partitioned to run files — and each partition is aggregated
//!   recursively (with level-seeded hashes) after the in-memory groups are
//!   emitted. This stays correct for any [`Aggregator`], since every
//!   group's tuples end up stepped into exactly one aggregator instance.
//!   A *partial* hash group-by ([`HashGroupByOp::partial`]) feeds a
//!   consumer that merges several rows of one key, so it groups only
//!   once its input shows that keys repeat.

use super::eval::{Aggregator, AggregatorFactory};
use super::{BoxWriter, FrameWriter, OutBuffer};
use crate::error::{DataflowError, Result};
use crate::frame::{Frame, TupleRef};
use crate::spill::{part_hash, MemGrant, RunReader, RunToken, RunWriter, SpillHandle};
use jdm::binary::{item_len, write_sequence_from_parts};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::Arc;

/// Per-group bookkeeping overhead charged to the memory grant on top of
/// the key bytes (hash-table slot, aggregator state estimate).
const GROUP_OVERHEAD: usize = 64;

/// The most input tuples a partial group-by passes through while it
/// watches for repeated keys.
const SAMPLE_TUPLES: usize = 512;

/// Slots of a partial group-by's table of recent key hashes.
const RECENT_SLOTS: usize = 1024;

/// Where a partial group-by stands (see [`HashGroupByOp::partial`]).
#[derive(Debug)]
enum Partial {
    /// Passing tuples through while watching: `seen` tuples so far,
    /// `repeats` of them matched a remembered hash in `recent`.
    Watching {
        seen: usize,
        repeats: usize,
        recent: Box<[u64]>,
    },
    /// Keys did not repeat in the sample: every tuple passes through.
    PassThrough,
}

/// Concatenated serialized key items, splittable via `item_len`.
type GroupKey = Box<[u8]>;

fn extract_key(t: &TupleRef<'_>, key_fields: &[usize]) -> GroupKey {
    let mut key = Vec::new();
    for &i in key_fields {
        key.extend_from_slice(t.field(i));
    }
    key.into_boxed_slice()
}

/// Split a concatenated key back into per-field slices. Keys built by
/// [`extract_key`] are always well-formed, but keys read back from spill
/// files cross a disk round-trip, so corruption surfaces as an error
/// rather than a panic.
fn split_key(key: &[u8], n: usize) -> Result<Vec<&[u8]>> {
    let mut out = Vec::with_capacity(n);
    let mut rest = key;
    for _ in 0..n {
        let len = item_len(rest)
            .map_err(|e| DataflowError::BadFrame(format!("corrupt group key bytes: {e}")))?;
        if len > rest.len() {
            return Err(DataflowError::BadFrame(
                "group key item overruns key bytes".into(),
            ));
        }
        out.push(&rest[..len]);
        rest = &rest[len..];
    }
    Ok(out)
}

/// Hash-based grouped aggregation with incremental per-group state and
/// frozen-table spilling. Output tuples: `(key fields ..., aggregate
/// result)`.
pub struct HashGroupByOp {
    key_fields: Vec<usize>,
    factory: Arc<dyn AggregatorFactory>,
    groups: HashMap<GroupKey, Box<dyn Aggregator>>,
    grant: MemGrant,
    spill: SpillHandle,
    /// Level-1 partition writers, present once the table is frozen.
    parts: Option<Vec<RunWriter>>,
    /// Set on a partial group-by.
    partial: Option<Partial>,
    out: OutBuffer,
}

impl HashGroupByOp {
    pub fn new(
        key_fields: Vec<usize>,
        factory: Arc<dyn AggregatorFactory>,
        spill: SpillHandle,
        frame_size: usize,
        out: BoxWriter,
    ) -> Self {
        HashGroupByOp {
            key_fields,
            factory,
            groups: HashMap::new(),
            grant: spill.grant(),
            spill,
            parts: None,
            partial: None,
            out: OutBuffer::new(frame_size, out),
        }
    }

    /// Make this a partial group-by: its consumer merges any number of
    /// rows of one key (as a join pairs every partial of one side with
    /// every partial of the other), so a key may leave in several rows.
    /// A hash table pays only where keys repeat, so a partial group-by
    /// starts by passing each tuple through as a one-tuple group, while
    /// it remembers the hashes of recent keys (a direct-mapped table of
    /// 1,024). Once at least one tuple in 16 has repeated a remembered
    /// key, checked at 64, 128, 256 and 512 tuples, it groups every
    /// later tuple as an ordinary group-by does; past 512 tuples without
    /// that, it passes the rest through too.
    pub fn partial(mut self) -> Self {
        self.partial = Some(Partial::Watching {
            seen: 0,
            repeats: 0,
            recent: vec![0; RECENT_SLOTS].into_boxed_slice(),
        });
        self
    }

    /// Step `t` into its group, creating the group (or, once the table
    /// is frozen, spilling the tuple) if its key is new.
    #[inline]
    fn group(&mut self, t: &TupleRef<'_>) -> Result<()> {
        let key = extract_key(t, &self.key_fields);
        // Frozen or not, tuples of already-seen keys aggregate in
        // place — only *new* groups cost memory.
        if let Some(agg) = self.groups.get_mut(&key) {
            return agg.step(t);
        }
        if self.parts.is_none() {
            let cost = key.len() + GROUP_OVERHEAD;
            if self.grant.try_grow(cost) {
                let mut agg = self.factory.create();
                agg.step(t)?;
                self.groups.insert(key, agg);
                return Ok(());
            }
            // Freeze the table; unseen keys go to disk from here on.
            self.spill.note_recursion(1);
            self.parts = Some(Self::open_parts(&self.spill)?);
        }
        let parts = self.parts.as_mut().expect("frozen table has parts");
        let dst = (part_hash(&key, 1) % parts.len() as u64) as usize;
        parts[dst].push(&[t.bytes()])
    }

    /// A partial group-by's frame: pass tuples through while watching
    /// for repeated keys, then group or keep passing them through.
    fn next_frame_partial(&mut self, frame: &Frame) -> Result<()> {
        let mut result = Vec::new();
        for t in frame.tuples() {
            match &mut self.partial {
                Some(Partial::Watching {
                    seen,
                    repeats,
                    recent,
                }) => {
                    let mut h = DefaultHasher::new();
                    for &i in &self.key_fields {
                        h.write(t.field(i));
                    }
                    let h = h.finish();
                    let slot = &mut recent[(h % RECENT_SLOTS as u64) as usize];
                    if *slot == h {
                        *repeats += 1;
                    } else {
                        *slot = h;
                    }
                    *seen += 1;
                    let (seen, repeats) = (*seen, *repeats);
                    if seen.is_power_of_two() && seen >= 64 {
                        if repeats * 16 >= seen {
                            // Keys repeat: an ordinary group-by from here on.
                            self.partial = None;
                        } else if seen == SAMPLE_TUPLES {
                            self.partial = Some(Partial::PassThrough);
                        }
                    }
                    self.pass(&t, &mut result)?;
                }
                Some(Partial::PassThrough) => self.pass(&t, &mut result)?,
                None => self.group(&t)?,
            }
        }
        Ok(())
    }

    /// Emit `t` as a group of its own.
    fn pass(&mut self, t: &TupleRef<'_>, result: &mut Vec<u8>) -> Result<()> {
        let mut agg = self.factory.create();
        agg.step(t)?;
        result.clear();
        agg.finish(result)?;
        let mut fields: Vec<&[u8]> = self.key_fields.iter().map(|&i| t.field(i)).collect();
        fields.push(result);
        self.out.push_fields(&fields)
    }

    fn open_parts(spill: &SpillHandle) -> Result<Vec<RunWriter>> {
        (0..spill.config().partitions())
            .map(|_| spill.new_run())
            .collect()
    }

    /// Finish partition writers into tokens, recording their volume.
    fn seal_parts(spill: &SpillHandle, parts: Vec<RunWriter>) -> Result<Vec<RunToken>> {
        let mut tokens = Vec::with_capacity(parts.len());
        for w in parts {
            let token = w.finish()?;
            spill.note_spilled(token.bytes, token.tuples);
            tokens.push(token);
        }
        Ok(tokens)
    }

    /// Emit `(key fields ..., result)` for every group and drop the state.
    fn emit_groups(
        groups: HashMap<GroupKey, Box<dyn Aggregator>>,
        nkeys: usize,
        out: &mut OutBuffer,
    ) -> Result<()> {
        // Deterministic output order is left to consumers (group order is
        // hash-table order, as in a real hash group-by).
        let mut result = Vec::new();
        for (key, mut agg) in groups {
            result.clear();
            agg.finish(&mut result)?;
            let mut fields = split_key(&key, nkeys)?;
            fields.push(&result);
            out.push_fields(&fields)?;
        }
        Ok(())
    }

    /// Aggregate one spilled partition, re-partitioning at `level` if it
    /// still does not fit. Past the recursion cap (pathological key
    /// distributions) the violation is tolerated and flagged instead.
    fn aggregate_run(&mut self, token: RunToken, level: usize) -> Result<()> {
        let mut groups: HashMap<GroupKey, Box<dyn Aggregator>> = HashMap::new();
        let mut sub: Option<Vec<RunWriter>> = None;
        let mut rd = RunReader::open(token)?;
        let mut buf = Vec::new();
        while rd.next_into(&mut buf)? {
            let t = TupleRef::from_bytes(&buf);
            let key = extract_key(&t, &self.key_fields);
            if let Some(agg) = groups.get_mut(&key) {
                agg.step(&t)?;
                continue;
            }
            if sub.is_none() {
                let cost = key.len() + GROUP_OVERHEAD;
                if self.grant.try_grow(cost) {
                    let mut agg = self.factory.create();
                    agg.step(&t)?;
                    groups.insert(key, agg);
                    continue;
                }
                if level > self.spill.config().max_recursion {
                    // Cannot split further; `grow_anyway` flags the job.
                    self.grant.grow_anyway(cost);
                    let mut agg = self.factory.create();
                    agg.step(&t)?;
                    groups.insert(key, agg);
                    continue;
                }
                self.spill.note_recursion(level as u64);
                sub = Some(Self::open_parts(&self.spill)?);
            }
            let parts = sub.as_mut().expect("just created");
            let dst = (part_hash(&key, level as u64) % parts.len() as u64) as usize;
            parts[dst].push(&[t.bytes()])?;
        }
        drop(rd); // consumed: delete before recursing
        Self::emit_groups(groups, self.key_fields.len(), &mut self.out)?;
        self.grant.release_all();
        if let Some(parts) = sub {
            for token in Self::seal_parts(&self.spill, parts)? {
                self.aggregate_run(token, level + 1)?;
            }
        }
        Ok(())
    }
}

impl FrameWriter for HashGroupByOp {
    fn name(&self) -> &'static str {
        "HASH-GROUP-BY"
    }

    fn open(&mut self) -> Result<()> {
        self.out.open()
    }

    fn next_frame(&mut self, frame: &Frame) -> Result<()> {
        if self.partial.is_some() {
            return self.next_frame_partial(frame);
        }
        for t in frame.tuples() {
            self.group(&t)?;
        }
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        let groups = std::mem::take(&mut self.groups);
        Self::emit_groups(groups, self.key_fields.len(), &mut self.out)?;
        self.grant.release_all();
        if let Some(parts) = self.parts.take() {
            for token in Self::seal_parts(&self.spill, parts)? {
                self.aggregate_run(token, 2)?;
            }
        }
        self.spill.finish(&self.grant);
        self.grant.release_all();
        self.out.close()
    }
}

/// Pre-rewrite grouped aggregation: buffers each group's members of field
/// `seq_field` as a sequence. Output tuples: `(key fields ..., sequence)`.
pub struct MaterializingGroupByOp {
    key_fields: Vec<usize>,
    seq_field: usize,
    groups: HashMap<GroupKey, Vec<Vec<u8>>>,
    grant: MemGrant,
    spill: SpillHandle,
    out: OutBuffer,
}

impl MaterializingGroupByOp {
    pub fn new(
        key_fields: Vec<usize>,
        seq_field: usize,
        spill: SpillHandle,
        frame_size: usize,
        out: BoxWriter,
    ) -> Self {
        MaterializingGroupByOp {
            key_fields,
            seq_field,
            groups: HashMap::new(),
            grant: spill.grant(),
            spill,
            out: OutBuffer::new(frame_size, out),
        }
    }
}

impl FrameWriter for MaterializingGroupByOp {
    fn name(&self) -> &'static str {
        "MAT-GROUP-BY"
    }

    fn open(&mut self) -> Result<()> {
        self.out.open()
    }

    fn next_frame(&mut self, frame: &Frame) -> Result<()> {
        for t in frame.tuples() {
            let key = extract_key(&t, &self.key_fields);
            let member = t.field(self.seq_field).to_vec();
            // Sequences must materialize in full, so violations are
            // tolerated — but now observable as `budget_exceeded`.
            self.grant.grow_anyway(member.len());
            self.groups.entry(key).or_default().push(member);
        }
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        let groups = std::mem::take(&mut self.groups);
        let nkeys = self.key_fields.len();
        let mut seq = Vec::new();
        for (key, members) in groups {
            seq.clear();
            let parts: Vec<&[u8]> = members.iter().map(|m| m.as_slice()).collect();
            write_sequence_from_parts(&parts, &mut seq);
            let mut fields = split_key(&key, nkeys)?;
            fields.push(&seq);
            self.out.push_fields(&fields)?;
        }
        self.spill.finish(&self.grant);
        self.grant.release_all();
        self.out.close()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{feed, CaptureWriter};
    use super::*;
    use crate::spill::{SpillConfig, SpillCtx};
    use crate::stats::MemTracker;
    use jdm::binary::write_item;
    use jdm::Item;

    struct CountAgg(i64);
    impl Aggregator for CountAgg {
        fn step(&mut self, _t: &TupleRef<'_>) -> Result<()> {
            self.0 += 1;
            Ok(())
        }
        fn finish(&mut self, out: &mut Vec<u8>) -> Result<()> {
            write_item(&Item::int(self.0), out);
            Ok(())
        }
    }

    struct CountFactory;
    impl AggregatorFactory for CountFactory {
        fn create(&self) -> Box<dyn Aggregator> {
            Box::new(CountAgg(0))
        }
    }

    fn rows() -> Vec<Vec<Item>> {
        // (key, payload) pairs: a×3, b×2, c×1
        [("a", 1), ("b", 2), ("a", 3), ("c", 4), ("a", 5), ("b", 6)]
            .iter()
            .map(|(k, v)| vec![Item::str(*k), Item::int(*v)])
            .collect()
    }

    fn sorted(mut rows: Vec<Vec<Item>>) -> Vec<Vec<Item>> {
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        rows
    }

    fn scratch_root(name: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("vxq-groupby-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn budgeted_ctx(
        root: &std::path::Path,
        budget: usize,
        max_recursion: usize,
    ) -> std::sync::Arc<SpillCtx> {
        SpillCtx::new(
            MemTracker::with_budget(budget),
            SpillConfig {
                dir: Some(root.to_path_buf()),
                spill_partitions: 4,
                max_recursion,
                ..SpillConfig::default()
            },
        )
    }

    #[test]
    fn hash_group_by_counts_per_group() {
        let cap = CaptureWriter::new();
        let ctx = SpillCtx::unlimited();
        let mem = ctx.memory().clone();
        let mut op = HashGroupByOp::new(
            vec![0],
            Arc::new(CountFactory),
            ctx.handle("HASH-GROUP-BY", 0, 0),
            1024,
            Box::new(cap.clone()),
        );
        feed(&mut op, &rows());
        let got = sorted(cap.take());
        assert_eq!(
            got,
            vec![
                vec![Item::str("a"), Item::int(3)],
                vec![Item::str("b"), Item::int(2)],
                vec![Item::str("c"), Item::int(1)],
            ]
        );
        assert_eq!(mem.current(), 0, "state freed at close");
    }

    #[test]
    fn materializing_group_by_builds_sequences() {
        let cap = CaptureWriter::new();
        let ctx = SpillCtx::unlimited();
        let mem = ctx.memory().clone();
        let mut op = MaterializingGroupByOp::new(
            vec![0],
            1,
            ctx.handle("MAT-GROUP-BY", 0, 0),
            1024,
            Box::new(cap.clone()),
        );
        feed(&mut op, &rows());
        let got = sorted(cap.take());
        assert_eq!(got.len(), 3);
        assert_eq!(got[0][0], Item::str("a"));
        assert_eq!(
            got[0][1],
            Item::seq([Item::int(1), Item::int(3), Item::int(5)])
        );
        assert_eq!(got[2][1], Item::seq([Item::int(4)]));
        // Materialization was visible to the memory tracker.
        assert!(mem.peak() > 0);
        assert_eq!(mem.current(), 0);
    }

    #[test]
    fn materializing_uses_more_memory_than_hash() {
        let big_rows: Vec<Vec<Item>> = (0..200)
            .map(|i| {
                vec![
                    Item::str("samekey"),
                    Item::str("x".repeat(50) + &i.to_string()),
                ]
            })
            .collect();

        let ctx_mat = SpillCtx::unlimited();
        let mem_mat = ctx_mat.memory().clone();
        let mut mat = MaterializingGroupByOp::new(
            vec![0],
            1,
            ctx_mat.handle("MAT-GROUP-BY", 0, 0),
            4096,
            Box::new(CaptureWriter::new()),
        );
        feed(&mut mat, &big_rows);

        let ctx_hash = SpillCtx::unlimited();
        let mem_hash = ctx_hash.memory().clone();
        let mut hash = HashGroupByOp::new(
            vec![0],
            Arc::new(CountFactory),
            ctx_hash.handle("HASH-GROUP-BY", 0, 0),
            4096,
            Box::new(CaptureWriter::new()),
        );
        feed(&mut hash, &big_rows);

        assert!(
            mem_mat.peak() > 10 * mem_hash.peak(),
            "materializing {} vs hash {}",
            mem_mat.peak(),
            mem_hash.peak()
        );
    }

    #[test]
    fn materializing_over_budget_flags_the_job() {
        let ctx = SpillCtx::new(MemTracker::with_budget(64), SpillConfig::default());
        let mut op = MaterializingGroupByOp::new(
            vec![0],
            1,
            ctx.handle("MAT-GROUP-BY", 0, 0),
            4096,
            Box::new(CaptureWriter::new()),
        );
        let big_rows: Vec<Vec<Item>> = (0..50)
            .map(|i| vec![Item::str("k"), Item::str("x".repeat(40) + &i.to_string())])
            .collect();
        feed(&mut op, &big_rows);
        let s = ctx.summary();
        assert!(s.budget_exceeded, "violation must be observable");
        assert!(!s.spilled(), "materializing never spills");
        assert_eq!(ctx.memory().current(), 0, "grant released at close");
    }

    #[test]
    fn multi_field_keys() {
        let cap = CaptureWriter::new();
        let mut op = HashGroupByOp::new(
            vec![0, 1],
            Arc::new(CountFactory),
            SpillCtx::unlimited().handle("HASH-GROUP-BY", 0, 0),
            1024,
            Box::new(cap.clone()),
        );
        let rows = vec![
            vec![Item::str("s"), Item::int(1), Item::int(10)],
            vec![Item::str("s"), Item::int(1), Item::int(20)],
            vec![Item::str("s"), Item::int(2), Item::int(30)],
        ];
        feed(&mut op, &rows);
        let mut got = cap.take();
        got.sort_by(|a, b| a[1].total_cmp(&b[1]));
        assert_eq!(got[0], vec![Item::str("s"), Item::int(1), Item::int(2)]);
        assert_eq!(got[1], vec![Item::str("s"), Item::int(2), Item::int(1)]);
    }

    /// Counts per key of `rows`, merging the rows of a key.
    fn merged_counts(rows: Vec<Vec<Item>>) -> Vec<(String, i64)> {
        let mut counts = std::collections::BTreeMap::new();
        for r in rows {
            let key = r[0].as_str().expect("string key").to_string();
            *counts.entry(key).or_insert(0) += r[1].as_number().and_then(|n| n.as_i64()).unwrap();
        }
        counts.into_iter().collect()
    }

    /// Group `rows` by field 0, counting; partial or not.
    fn count_rows(rows: &[Vec<Item>], partial: bool) -> Vec<Vec<Item>> {
        let cap = CaptureWriter::new();
        let op = HashGroupByOp::new(
            vec![0],
            Arc::new(CountFactory),
            SpillCtx::unlimited().handle("HASH-GROUP-BY", 0, 0),
            4096,
            Box::new(cap.clone()),
        );
        let mut op = if partial { op.partial() } else { op };
        feed(&mut op, rows);
        cap.take()
    }

    fn keyed(keys: impl Iterator<Item = u64>) -> Vec<Vec<Item>> {
        keys.map(|k| vec![Item::str(format!("key-{k:05}")), Item::int(1)])
            .collect()
    }

    #[test]
    fn partial_group_by_passes_unique_keys_through() {
        // 2,000 keys, then 500 tuples repeating 100 of them: the first
        // 512 tuples show no repeat, so nothing is grouped.
        let rows = keyed((0..2000u64).chain((0..500).map(|i| i % 100)));
        let grouped = count_rows(&rows, false);
        assert_eq!(grouped.len(), 2000);
        let partial = count_rows(&rows, true);
        assert_eq!(partial.len(), rows.len(), "one row per tuple");
        assert_eq!(merged_counts(partial), merged_counts(grouped));
    }

    #[test]
    fn partial_group_by_groups_once_keys_repeat() {
        // One tuple in eight repeats a key, more than the one in 16 the
        // check wants: after 64 tuples passed through, the rest group.
        let rows = keyed((0..3000u64).map(|i| if i % 8 == 7 { i / 8 } else { i }));
        let grouped = count_rows(&rows, false);
        let partial = count_rows(&rows, true);
        let later: std::collections::HashSet<String> = rows[64..]
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        assert_eq!(
            partial.len(),
            64 + later.len(),
            "64 rows, then a group per key"
        );
        assert_eq!(merged_counts(partial), merged_counts(grouped));
        // Few keys, many repeats: grouped after 64 tuples.
        let rows = keyed((0..3000u64).map(|i| i % 10));
        assert_eq!(count_rows(&rows, true).len(), 64 + 10);
    }

    #[test]
    fn split_key_rejects_corrupt_bytes() {
        // Truncated / garbage key bytes come back as an error, not a panic.
        assert!(split_key(b"", 1).is_err());
    }

    #[test]
    fn spilling_group_by_matches_in_memory() {
        // 100 distinct keys, ~3 tuples each, under a budget that fits only
        // a handful of groups: the table freezes, partitions spill, and
        // recursive aggregation must still produce exact counts.
        let rows: Vec<Vec<Item>> = (0..300u64)
            .map(|i| {
                let k = (i.wrapping_mul(2654435761) >> 5) % 100;
                vec![Item::str(format!("key-{k:03}")), Item::int(i as i64)]
            })
            .collect();

        let cap_mem = CaptureWriter::new();
        let mut in_mem = HashGroupByOp::new(
            vec![0],
            Arc::new(CountFactory),
            SpillCtx::unlimited().handle("HASH-GROUP-BY", 0, 0),
            4096,
            Box::new(cap_mem.clone()),
        );
        feed(&mut in_mem, &rows);
        let expect = sorted(cap_mem.take());
        assert_eq!(expect.len(), 100);

        let root = scratch_root("matches");
        let ctx = budgeted_ctx(&root, 1024, 6);
        let cap_ext = CaptureWriter::new();
        let mut ext = HashGroupByOp::new(
            vec![0],
            Arc::new(CountFactory),
            ctx.handle("HASH-GROUP-BY", 0, 0),
            4096,
            Box::new(cap_ext.clone()),
        );
        feed(&mut ext, &rows);
        assert_eq!(sorted(cap_ext.take()), expect);
        let s = ctx.summary();
        assert!(s.spilled(), "budget must have forced a freeze: {s:?}");
        assert!(s.max_recursion >= 1);
        assert!(!s.budget_exceeded, "spilling avoids violations: {s:?}");
        assert_eq!(ctx.memory().current(), 0, "grant released at close");
        drop(ext);
        drop(ctx);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn recursion_cap_tolerates_overflow_but_stays_correct() {
        // max_recursion = 1 forbids re-partitioning, so the level-2
        // aggregation of each partition must grow past the budget — the
        // counts stay exact and the job is flagged.
        let rows: Vec<Vec<Item>> = (0..180u64)
            .map(|i| {
                let k = i % 60;
                vec![Item::str(format!("key-{k:03}")), Item::int(i as i64)]
            })
            .collect();
        let root = scratch_root("cap");
        let ctx = budgeted_ctx(&root, 256, 1);
        let cap = CaptureWriter::new();
        let mut op = HashGroupByOp::new(
            vec![0],
            Arc::new(CountFactory),
            ctx.handle("HASH-GROUP-BY", 0, 0),
            4096,
            Box::new(cap.clone()),
        );
        feed(&mut op, &rows);
        let got = sorted(cap.take());
        assert_eq!(got.len(), 60);
        assert!(got.iter().all(|r| r[1] == Item::int(3)), "{got:?}");
        let s = ctx.summary();
        assert!(s.spilled());
        assert!(s.budget_exceeded, "capped recursion flags the job: {s:?}");
        assert_eq!(ctx.memory().current(), 0);
        drop(op);
        drop(ctx);
        let _ = std::fs::remove_dir_all(root);
    }
}
