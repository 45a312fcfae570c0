//! Exchange connectors between job stages.
//!
//! Connectors are what make "partitioned-parallel execution without any
//! user-level parallel programming" (paper §4.2) possible: the physical
//! optimizer inserts them and the runtime routes frames accordingly.
//!
//! * [`OneToOneSender`] — same-partition forwarding (pipeline boundary
//!   without repartitioning).
//! * [`HashPartitionSender`] — repartition tuples by a hash of key fields
//!   (group-by and join exchanges).
//! * [`MergeSender`] — all partitions feed partition 0 of the next stage
//!   (global aggregation / result collection).
//!
//! All senders count shipped frames, and bytes crossing a node boundary
//! count as network traffic.

use crate::channel::Sender;
use crate::context::TaskContext;
use crate::error::{DataflowError, Result};
use crate::frame::{Frame, FrameAppender};
use crate::ops::FrameWriter;
use std::sync::atomic::Ordering;

/// Stable 64-bit FNV-1a over serialized item bytes. Because items are
/// serialized canonically, byte equality coincides with item equality for
/// values of the same numeric type (mixed int/double group keys would need
/// normalization; the JSONiq layer normalizes such keys before exchange).
pub fn hash_bytes(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for &b in *p {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn account(ctx: &TaskContext, dst_partition: usize, frame: &Frame) {
    ctx.counters.frames_shipped.fetch_add(1, Ordering::Relaxed);
    if ctx.node_of(dst_partition) != ctx.node {
        ctx.counters
            .network_bytes
            .fetch_add(frame.data_len() as u64, Ordering::Relaxed);
    }
}

fn send(ctx: &TaskContext, tx: &Sender<Frame>, dst: usize, frame: Frame) -> Result<()> {
    // Cancellation check per shipped frame: operators that do their heavy
    // lifting inside `close()` (external-sort merges, join emission) have
    // no receive loop left to notice a fired token, but they still push
    // every output frame through here.
    ctx.check_cancelled()?;
    account(ctx, dst, &frame);
    tx.send(frame)
        .map_err(|_| DataflowError::Severed("exchange receiver dropped".into()))
}

/// Forward frames to the same partition of the next stage.
pub struct OneToOneSender {
    ctx: TaskContext,
    tx: Option<Sender<Frame>>,
}

impl OneToOneSender {
    pub fn new(ctx: TaskContext, tx: Sender<Frame>) -> Self {
        OneToOneSender { ctx, tx: Some(tx) }
    }
}

impl FrameWriter for OneToOneSender {
    fn name(&self) -> &'static str {
        "EXCHANGE-1:1"
    }

    fn open(&mut self) -> Result<()> {
        Ok(())
    }

    fn next_frame(&mut self, frame: &Frame) -> Result<()> {
        let tx = self
            .tx
            .as_ref()
            .ok_or_else(|| DataflowError::Worker("closed".into()))?;
        send(&self.ctx, tx, self.ctx.partition, frame.clone())
    }

    fn close(&mut self) -> Result<()> {
        self.tx = None;
        Ok(())
    }
}

/// Repartition tuples by hash of the given key fields.
pub struct HashPartitionSender {
    ctx: TaskContext,
    key_fields: Vec<usize>,
    txs: Vec<Sender<Frame>>,
    apps: Vec<FrameAppender>,
    closed: bool,
}

impl HashPartitionSender {
    pub fn new(ctx: TaskContext, key_fields: Vec<usize>, txs: Vec<Sender<Frame>>) -> Self {
        let apps = (0..txs.len())
            .map(|_| FrameAppender::new(ctx.frame_size))
            .collect();
        HashPartitionSender {
            ctx,
            key_fields,
            txs,
            apps,
            closed: false,
        }
    }
}

impl FrameWriter for HashPartitionSender {
    fn name(&self) -> &'static str {
        "EXCHANGE-HASH"
    }

    fn open(&mut self) -> Result<()> {
        Ok(())
    }

    fn next_frame(&mut self, frame: &Frame) -> Result<()> {
        let n = self.txs.len();
        for t in frame.tuples() {
            let parts: Vec<&[u8]> = self.key_fields.iter().map(|&i| t.field(i)).collect();
            let dst = (hash_bytes(&parts) % n as u64) as usize;
            loop {
                if self.apps[dst].append_tuple(&t)? {
                    break;
                }
                if let Some(f) = self.apps[dst].take_frame() {
                    send(&self.ctx, &self.txs[dst], dst, f)?;
                }
            }
        }
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        if self.closed {
            return Ok(());
        }
        for dst in 0..self.txs.len() {
            if let Some(f) = self.apps[dst].take_frame() {
                send(&self.ctx, &self.txs[dst], dst, f)?;
            }
        }
        self.txs.clear(); // drop senders to signal EOS
        self.closed = true;
        Ok(())
    }
}

/// Send every frame to partition 0 of the next stage.
pub struct MergeSender {
    ctx: TaskContext,
    tx: Option<Sender<Frame>>,
}

impl MergeSender {
    pub fn new(ctx: TaskContext, tx: Sender<Frame>) -> Self {
        MergeSender { ctx, tx: Some(tx) }
    }
}

impl FrameWriter for MergeSender {
    fn name(&self) -> &'static str {
        "EXCHANGE-MERGE"
    }

    fn open(&mut self) -> Result<()> {
        Ok(())
    }

    fn next_frame(&mut self, frame: &Frame) -> Result<()> {
        let tx = self
            .tx
            .as_ref()
            .ok_or_else(|| DataflowError::Worker("closed".into()))?;
        send(&self.ctx, tx, 0, frame.clone())
    }

    fn close(&mut self) -> Result<()> {
        self.tx = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_spreads() {
        let a = hash_bytes(&[b"station-1", b"2013-12-25"]);
        let b = hash_bytes(&[b"station-1", b"2013-12-25"]);
        let c = hash_bytes(&[b"station-2", b"2013-12-25"]);
        assert_eq!(a, b);
        assert_ne!(a, c);

        // Distribution sanity: 1000 keys over 8 buckets, no bucket empty.
        let mut buckets = [0usize; 8];
        for i in 0..1000 {
            let k = format!("key-{i}");
            buckets[(hash_bytes(&[k.as_bytes()]) % 8) as usize] += 1;
        }
        assert!(buckets.iter().all(|&c| c > 50), "skewed: {buckets:?}");
    }

    #[test]
    fn hash_depends_on_all_parts() {
        assert_ne!(hash_bytes(&[b"ab", b"c"]), hash_bytes(&[b"ab", b"d"]));
    }
}

#[cfg(test)]
mod sender_tests {
    use super::*;
    use crate::frame::FrameAppender;
    use crate::ops::FrameWriter;
    use crate::stats::{Counters, MemTracker};

    fn ctx(partition: usize, ppn: usize) -> TaskContext {
        TaskContext {
            stage: 0,
            partition,
            num_partitions: 4,
            node: partition / ppn.max(1),
            partitions_per_node: ppn,
            frame_size: 1024,
            mem: MemTracker::new(),
            counters: Counters::new(),
            profiler: None,
            spill: crate::spill::SpillCtx::unlimited(),
            cancel: crate::cancel::CancelToken::new(),
        }
    }

    fn one_tuple_frame(payload: &[u8]) -> Frame {
        let mut app = FrameAppender::new(1024);
        assert!(app.append(&[payload]).unwrap());
        app.take_frame().unwrap()
    }

    #[test]
    fn one_to_one_delivers_to_same_partition() {
        let c = ctx(1, 2);
        let (tx, rx) = crate::channel::unbounded();
        let mut s = OneToOneSender::new(c.clone(), tx);
        s.open().unwrap();
        s.next_frame(&one_tuple_frame(b"abc")).unwrap();
        s.close().unwrap();
        let got: Vec<Frame> = rx.iter().collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].tuple(0).field(0), b"abc");
    }

    #[test]
    fn hash_sender_routes_equal_keys_together() {
        let c = ctx(0, 2);
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..4).map(|_| crate::channel::unbounded()).unzip();
        let mut s = HashPartitionSender::new(c, vec![0], txs);
        s.open().unwrap();
        // Send the same key twice and a different key once.
        for payload in [b"key-a" as &[u8], b"key-a", b"key-b"] {
            s.next_frame(&one_tuple_frame(payload)).unwrap();
        }
        s.close().unwrap();
        let mut by_dst: Vec<Vec<Vec<u8>>> = Vec::new();
        for rx in rxs {
            let mut tuples = Vec::new();
            for f in rx.iter() {
                for t in f.tuples() {
                    tuples.push(t.field(0).to_vec());
                }
            }
            by_dst.push(tuples);
        }
        // Both "key-a" tuples landed on the same destination.
        let with_a: Vec<usize> = (0..4)
            .filter(|&i| by_dst[i].iter().any(|t| t == b"key-a"))
            .collect();
        assert_eq!(with_a.len(), 1, "{by_dst:?}");
        assert_eq!(
            by_dst[with_a[0]].iter().filter(|t| *t == b"key-a").count(),
            2
        );
        let total: usize = by_dst.iter().map(Vec::len).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn cross_node_traffic_is_counted() {
        let c = ctx(0, 1); // node 0
        let (txs, _rxs): (Vec<_>, Vec<_>) = (0..2).map(|_| crate::channel::unbounded()).unzip();
        let counters = c.counters.clone();
        let mut s = MergeSender::new(c, txs[0].clone());
        s.open().unwrap();
        s.next_frame(&one_tuple_frame(b"x")).unwrap();
        s.close().unwrap();
        // Merge target is partition 0 = same node here: local, no bytes.
        assert_eq!(
            counters
                .network_bytes
                .load(std::sync::atomic::Ordering::Relaxed),
            0
        );
        assert_eq!(
            counters
                .frames_shipped
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );

        // From node 1, the same merge crosses a node boundary.
        let c2 = ctx(1, 1);
        let counters2 = c2.counters.clone();
        let mut s2 = MergeSender::new(c2, txs[1].clone());
        s2.open().unwrap();
        s2.next_frame(&one_tuple_frame(b"x")).unwrap();
        s2.close().unwrap();
        assert!(
            counters2
                .network_bytes
                .load(std::sync::atomic::Ordering::Relaxed)
                > 0
        );
    }
}
