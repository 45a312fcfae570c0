//! Per-operator runtime profiling.
//!
//! The paper's evaluation is entirely about *where* time and bytes go —
//! pipelined DATASCAN vs. materialized sequences (Table 3), rule-by-rule
//! speedups (Figs. 12–16). Job-level aggregates cannot attribute a
//! regression to an operator, so every operator in a fused chain is
//! wrapped in a [`ProfiledWriter`] probe that counts the frames, tuples
//! and bytes pushed into it and the time spent inside it (via the RAII
//! [`OpScope`]).
//!
//! Because a fused chain is a synchronous push pipeline, probes nest: the
//! probe in front of operator *K* times everything downstream of it, and
//! what *K* emits is exactly what the next probe receives. Per-operator
//! **output** counts, **busy** time (own work) and **emit-stall** time
//! (time inside downstream `next_frame`/`close`, including exchange
//! backpressure) therefore fall out of adjacent probes at aggregation
//! time — each frame is counted once, no double instrumentation.
//!
//! [`Profiler`] collects one probe per (stage, partition, chain position)
//! and [`Profiler::finish`] folds them into a [`JobProfile`] attached to
//! [`crate::stats::JobStats`].

use crate::frame::Frame;
use crate::job::TwoInputOp;
use crate::ops::{BoxWriter, FrameWriter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Lock-free counters for one operator probe. Cheap enough to stay on in
/// production runs: frame-granular atomic adds, not per-tuple.
#[derive(Debug, Default)]
pub struct OpMetrics {
    tuples_in: AtomicU64,
    frames_in: AtomicU64,
    bytes_in: AtomicU64,
    /// Nanoseconds spent inside this probe's `open`/`next_frame`/`close`,
    /// inclusive of everything downstream.
    inclusive_ns: AtomicU64,
}

impl OpMetrics {
    pub fn new() -> Arc<Self> {
        Arc::new(OpMetrics::default())
    }

    /// Count one incoming frame.
    pub fn note_frame(&self, frame: &Frame) {
        self.record_input(frame.tuple_count() as u64, 1, frame.data_len() as u64);
    }

    /// Count raw input amounts (exposed for tests and custom operators).
    pub fn record_input(&self, tuples: u64, frames: u64, bytes: u64) {
        self.tuples_in.fetch_add(tuples, Ordering::Relaxed);
        self.frames_in.fetch_add(frames, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Start an RAII scope whose wall time is added to the inclusive
    /// nanosecond counter on drop.
    pub fn enter(&self) -> OpScope<'_> {
        OpScope {
            metrics: self,
            start: Instant::now(),
        }
    }

    pub fn tuples_in(&self) -> u64 {
        self.tuples_in.load(Ordering::Relaxed)
    }

    pub fn frames_in(&self) -> u64 {
        self.frames_in.load(Ordering::Relaxed)
    }

    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.load(Ordering::Relaxed)
    }

    pub fn inclusive(&self) -> Duration {
        Duration::from_nanos(self.inclusive_ns.load(Ordering::Relaxed))
    }
}

/// RAII timing scope over an [`OpMetrics`].
pub struct OpScope<'a> {
    metrics: &'a OpMetrics,
    start: Instant,
}

impl Drop for OpScope<'_> {
    fn drop(&mut self) {
        self.metrics
            .inclusive_ns
            .fetch_add(self.start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Probe wrapped around one operator of a fused chain.
pub struct ProfiledWriter {
    metrics: Arc<OpMetrics>,
    inner: BoxWriter,
}

impl ProfiledWriter {
    pub fn new(metrics: Arc<OpMetrics>, inner: BoxWriter) -> Self {
        ProfiledWriter { metrics, inner }
    }
}

impl FrameWriter for ProfiledWriter {
    fn open(&mut self) -> crate::error::Result<()> {
        let _scope = self.metrics.enter();
        self.inner.open()
    }

    fn next_frame(&mut self, frame: &Frame) -> crate::error::Result<()> {
        self.metrics.note_frame(frame);
        let _scope = self.metrics.enter();
        self.inner.next_frame(frame)
    }

    fn close(&mut self) -> crate::error::Result<()> {
        let _scope = self.metrics.enter();
        self.inner.close()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Probe wrapped around a two-input (join) operator. Both build and probe
/// frames count as input; the downstream probe supplies output counts.
pub struct ProfiledTwoInput {
    metrics: Arc<OpMetrics>,
    inner: Box<dyn TwoInputOp>,
}

impl ProfiledTwoInput {
    pub fn new(metrics: Arc<OpMetrics>, inner: Box<dyn TwoInputOp>) -> Self {
        ProfiledTwoInput { metrics, inner }
    }
}

impl TwoInputOp for ProfiledTwoInput {
    fn open(&mut self) -> crate::error::Result<()> {
        let _scope = self.metrics.enter();
        self.inner.open()
    }

    fn build_frame(&mut self, frame: &Frame) -> crate::error::Result<()> {
        self.metrics.note_frame(frame);
        let _scope = self.metrics.enter();
        self.inner.build_frame(frame)
    }

    fn build_done(&mut self) -> crate::error::Result<()> {
        let _scope = self.metrics.enter();
        self.inner.build_done()
    }

    fn probe_frame(&mut self, frame: &Frame) -> crate::error::Result<()> {
        self.metrics.note_frame(frame);
        let _scope = self.metrics.enter();
        self.inner.probe_frame(frame)
    }

    fn close(&mut self) -> crate::error::Result<()> {
        let _scope = self.metrics.enter();
        self.inner.close()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

struct ProbeRecord {
    stage: usize,
    partition: usize,
    /// Registration sequence. Chains are built tail-first (the runtime
    /// creates the exchange sender, then the factory builds operators
    /// back-to-front), so within one (stage, partition) a *higher* seq
    /// means *earlier* in the pipeline.
    seq: u64,
    name: &'static str,
    metrics: Arc<OpMetrics>,
}

/// Runtime record of one DATASCAN split: which byte range of which file a
/// partition scanned and what came out of it. Recorded by the scan
/// runtimes via [`crate::context::TaskContext::record_split`]; EXPLAIN
/// ANALYZE renders these as the per-split scan-balance section.
#[derive(Debug, Clone)]
pub struct SplitProfile {
    pub stage: usize,
    pub partition: usize,
    /// Source file (display form).
    pub file: String,
    /// Split index within the file.
    pub split: usize,
    /// Total splits of the file.
    pub of: usize,
    /// Records (top-level collection members) this split covered.
    pub records: u64,
    /// Items the split projected: each one tested by the scan's filter,
    /// when it has one.
    pub tuples: u64,
    /// Tuples the split emitted into the pipeline: `tuples` less the
    /// items the scan's filter rejected.
    pub emitted: u64,
    /// Bytes of the file this split was responsible for.
    pub bytes: u64,
    /// Wall time spent scanning the split.
    pub elapsed: Duration,
    /// Bytes run through the structural-index build by *this* split (0
    /// when the index was built by another split of a shared file, or the
    /// source needs no index, e.g. binary `.adm`).
    pub index_bytes: u64,
    /// Wall time of that structural-index build.
    pub index_elapsed: Duration,
    /// Stage-1 mode label (`scalar`/`swar`) of the index this split
    /// navigated; `None` for index-free sources.
    pub kernel: Option<&'static str>,
}

/// Per-run collector of operator probes.
#[derive(Default)]
pub struct Profiler {
    seq: AtomicU64,
    records: Mutex<Vec<ProbeRecord>>,
    splits: Mutex<Vec<SplitProfile>>,
}

impl Profiler {
    pub fn new() -> Arc<Self> {
        Arc::new(Profiler::default())
    }

    /// Register a probe and return its metrics handle.
    pub fn register(&self, stage: usize, partition: usize, name: &'static str) -> Arc<OpMetrics> {
        let metrics = OpMetrics::new();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        // Probe lists stay consistent under poisoning (pushes are atomic
        // appends), so recover: a panicked task must not wedge profiling
        // for the rest of the job.
        self.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(ProbeRecord {
                stage,
                partition,
                seq,
                name,
                metrics: metrics.clone(),
            });
        metrics
    }

    /// Wrap `inner` in a registered probe.
    pub fn instrument(&self, stage: usize, partition: usize, inner: BoxWriter) -> BoxWriter {
        let metrics = self.register(stage, partition, inner.name());
        Box::new(ProfiledWriter::new(metrics, inner))
    }

    /// Record one scan split's runtime metrics.
    pub fn record_split(&self, split: SplitProfile) {
        self.splits
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(split);
    }

    /// Wrap a two-input operator in a registered probe.
    pub fn instrument_two_input(
        &self,
        stage: usize,
        partition: usize,
        inner: Box<dyn TwoInputOp>,
    ) -> Box<dyn TwoInputOp> {
        let metrics = self.register(stage, partition, inner.name());
        Box::new(ProfiledTwoInput::new(metrics, inner))
    }

    /// Fold all probes into the per-operator profile. Output counts, busy
    /// and emit-stall time come from adjacent probes (see module docs).
    pub fn finish(&self) -> JobProfile {
        let records = self.records.lock().unwrap_or_else(|e| e.into_inner());
        let mut ops = Vec::with_capacity(records.len());
        // Group records by (stage, partition), ordered front-to-back.
        let mut sorted: Vec<&ProbeRecord> = records.iter().collect();
        sorted.sort_by(|a, b| (a.stage, a.partition, b.seq).cmp(&(b.stage, b.partition, a.seq)));
        let mut i = 0;
        while i < sorted.len() {
            let j = (i..sorted.len())
                .take_while(|&k| {
                    sorted[k].stage == sorted[i].stage && sorted[k].partition == sorted[i].partition
                })
                .last()
                .unwrap()
                + 1;
            let chain = &sorted[i..j];
            for (pos, rec) in chain.iter().enumerate() {
                let downstream = chain.get(pos + 1);
                let inclusive = rec.metrics.inclusive();
                let (tuples_out, frames_out, bytes_out, downstream_time) = match downstream {
                    Some(next) => (
                        next.metrics.tuples_in(),
                        next.metrics.frames_in(),
                        next.metrics.bytes_in(),
                        next.metrics.inclusive(),
                    ),
                    // The chain tail (exchange sender / collector) forwards
                    // what it receives; its probe time is all send time.
                    None => (
                        rec.metrics.tuples_in(),
                        rec.metrics.frames_in(),
                        rec.metrics.bytes_in(),
                        Duration::ZERO,
                    ),
                };
                ops.push(OpProfile {
                    stage: rec.stage,
                    partition: rec.partition,
                    op_index: pos,
                    name: rec.name,
                    tuples_in: rec.metrics.tuples_in(),
                    frames_in: rec.metrics.frames_in(),
                    bytes_in: rec.metrics.bytes_in(),
                    tuples_out,
                    frames_out,
                    bytes_out,
                    busy: inclusive.saturating_sub(downstream_time),
                    emit_stall: downstream_time,
                });
            }
            i = j;
        }
        let mut splits = self
            .splits
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        splits.sort_by(|a, b| {
            (a.stage, a.partition, &a.file, a.split).cmp(&(b.stage, b.partition, &b.file, b.split))
        });
        JobProfile {
            ops,
            splits,
            spill_ops: Vec::new(),
        }
    }
}

/// Frozen metrics of one operator instance (one stage, one partition, one
/// chain position).
#[derive(Debug, Clone)]
pub struct OpProfile {
    pub stage: usize,
    pub partition: usize,
    /// Position in the fused chain, 0 = head (first operator fed).
    pub op_index: usize,
    pub name: &'static str,
    pub tuples_in: u64,
    pub frames_in: u64,
    pub bytes_in: u64,
    pub tuples_out: u64,
    pub frames_out: u64,
    pub bytes_out: u64,
    /// Time spent in this operator's own work.
    pub busy: Duration,
    /// Time spent pushing into downstream operators (including exchange
    /// backpressure blocking).
    pub emit_stall: Duration,
}

/// One operator aggregated across the partitions of its stage.
#[derive(Debug, Clone)]
pub struct OpSummary {
    pub stage: usize,
    pub op_index: usize,
    pub name: &'static str,
    pub partitions: usize,
    pub tuples_in: u64,
    pub frames_in: u64,
    pub bytes_in: u64,
    pub tuples_out: u64,
    pub frames_out: u64,
    pub bytes_out: u64,
    pub busy: Duration,
    pub emit_stall: Duration,
}

/// Per-operator metrics of one job run.
#[derive(Debug, Clone, Default)]
pub struct JobProfile {
    pub ops: Vec<OpProfile>,
    /// Per-split DATASCAN records (empty when the job has no file scans or
    /// profiling was off).
    pub splits: Vec<SplitProfile>,
    /// Per-operator spill records (empty when no stateful operator ran;
    /// all-zero entries mean the operator stayed within its grant).
    pub spill_ops: Vec<crate::spill::SpillOpProfile>,
}

impl JobProfile {
    /// Aggregate per (stage, chain position) across partitions, ordered by
    /// stage then pipeline position.
    pub fn summaries(&self) -> Vec<OpSummary> {
        let mut out: Vec<OpSummary> = Vec::new();
        for op in &self.ops {
            match out
                .iter_mut()
                .find(|s| s.stage == op.stage && s.op_index == op.op_index)
            {
                Some(s) => {
                    s.partitions += 1;
                    s.tuples_in += op.tuples_in;
                    s.frames_in += op.frames_in;
                    s.bytes_in += op.bytes_in;
                    s.tuples_out += op.tuples_out;
                    s.frames_out += op.frames_out;
                    s.bytes_out += op.bytes_out;
                    s.busy += op.busy;
                    s.emit_stall += op.emit_stall;
                }
                None => out.push(OpSummary {
                    stage: op.stage,
                    op_index: op.op_index,
                    name: op.name,
                    partitions: 1,
                    tuples_in: op.tuples_in,
                    frames_in: op.frames_in,
                    bytes_in: op.bytes_in,
                    tuples_out: op.tuples_out,
                    frames_out: op.frames_out,
                    bytes_out: op.bytes_out,
                    busy: op.busy,
                    emit_stall: op.emit_stall,
                }),
            }
        }
        out.sort_by_key(|s| (s.stage, s.op_index));
        out
    }

    /// Total tuples pushed *into* all operators with this name.
    pub fn tuples_into(&self, name: &str) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.name == name)
            .map(|o| o.tuples_in)
            .sum()
    }

    /// DATASCAN tuples per partition, summed over that partition's splits
    /// (scan-balance view; empty when no splits were recorded).
    pub fn scan_tuples_by_partition(&self) -> Vec<(usize, u64)> {
        let mut out: Vec<(usize, u64)> = Vec::new();
        for s in &self.splits {
            match out.iter_mut().find(|(p, _)| *p == s.partition) {
                Some((_, t)) => *t += s.tuples,
                None => out.push((s.partition, s.tuples)),
            }
        }
        out.sort_by_key(|(p, _)| *p);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameAppender;
    use crate::ops::NullWriter;

    fn frame_with(n: usize) -> Frame {
        let mut app = FrameAppender::new(4096);
        for i in 0..n {
            let payload = [i as u8];
            assert!(app.append(&[&payload]).unwrap());
        }
        app.take_frame().unwrap()
    }

    #[test]
    fn probes_count_frames_and_nest_time() {
        let profiler = Profiler::new();
        // chain: head -> mid -> tail, registered tail-first like the runtime.
        let tail = profiler.instrument(0, 0, Box::new(NullWriter));
        let mid = profiler.instrument(0, 0, tail);
        let mut head = profiler.instrument(0, 0, mid);
        head.open().unwrap();
        head.next_frame(&frame_with(5)).unwrap();
        head.next_frame(&frame_with(3)).unwrap();
        head.close().unwrap();

        let profile = profiler.finish();
        assert_eq!(profile.ops.len(), 3);
        for (pos, op) in profile.ops.iter().enumerate() {
            assert_eq!(op.op_index, pos);
            assert_eq!(op.tuples_in, 8);
            assert_eq!(op.frames_in, 2);
            assert_eq!(op.tuples_out, 8, "pass-through chain");
        }
        // Probe times nest: head inclusive >= mid inclusive >= tail.
        let records = profiler.records.lock().unwrap();
        let mut incl: Vec<(u64, Duration)> = records
            .iter()
            .map(|r| (r.seq, r.metrics.inclusive()))
            .collect();
        incl.sort_by_key(|(seq, _)| std::cmp::Reverse(*seq));
        assert!(incl[0].1 >= incl[1].1 && incl[1].1 >= incl[2].1, "{incl:?}");
    }

    #[test]
    fn metrics_survive_concurrent_hammering() {
        let m = OpMetrics::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        m.record_input(2, 1, 64);
                        let _scope = m.enter();
                    }
                });
            }
        });
        assert_eq!(m.tuples_in(), 8 * 10_000 * 2);
        assert_eq!(m.frames_in(), 8 * 10_000);
        assert_eq!(m.bytes_in(), 8 * 10_000 * 64);
    }

    #[test]
    fn summaries_aggregate_partitions() {
        let profiler = Profiler::new();
        for p in 0..4 {
            let tail = profiler.instrument(1, p, Box::new(NullWriter));
            let mut head = profiler.instrument(1, p, tail);
            head.open().unwrap();
            head.next_frame(&frame_with(p + 1)).unwrap();
            head.close().unwrap();
        }
        let profile = profiler.finish();
        let sums = profile.summaries();
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].partitions, 4);
        assert_eq!(sums[0].tuples_in, 1 + 2 + 3 + 4);
        assert_eq!(sums[1].tuples_in, 1 + 2 + 3 + 4);
    }
}
