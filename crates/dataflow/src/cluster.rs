//! The simulated cluster: nodes × partitions, worker threads, exchanges.
//!
//! **Substitution note (DESIGN.md §3):** the paper runs Hyracks on a real
//! 9-node cluster. Here a "node" is a group of `partitions_per_node` worker
//! threads whose work the timing model schedules on `cores_per_node`
//! cores; exchanges between partitions of different nodes are counted as
//! network traffic. The operator, exchange, and scheduling code paths are
//! identical to the multi-machine case — the only thing the simulation
//! removes is the physical wire.

use crate::cancel::{CancelProbe, CancelToken};
use crate::channel::{bounded, Receiver, Sender};
use crate::context::TaskContext;
use crate::error::{DataflowError, Result};
use crate::exchange::{HashPartitionSender, MergeSender, OneToOneSender};
use crate::frame::{Frame, DEFAULT_FRAME_SIZE};
use crate::job::{Connector, JobSpec, Parallelism, StageId, StageKind};
use crate::ops::{run_source, BoxWriter, CollectorWriter};
use crate::profile::Profiler;
use crate::spill::{SpillConfig, SpillCtx};
use crate::stats::{Counters, JobStats, MemTracker};
use crate::trace::TraceBuffer;
use jdm::binary::ItemRef;
use jdm::Item;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cluster shape.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of (simulated) nodes.
    pub nodes: usize,
    /// Worker partitions per node (the paper uses 4).
    pub partitions_per_node: usize,
    /// CPU cores per node; `0` means one core per partition. Setting this
    /// below `partitions_per_node` reproduces hyper-threaded
    /// oversubscription (Fig. 17): the timing model divides each node's
    /// total task work by `min(cores, partitions)` when computing the
    /// simulated makespan (see `crate::cputime`). Worker threads are never
    /// throttled at runtime: a task holding a core across a blocking
    /// channel send could deadlock against consumers needing a core to
    /// drain, so the limit is applied analytically instead.
    pub cores_per_node: usize,
    /// Frame capacity in bytes.
    pub frame_size: usize,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            nodes: 1,
            partitions_per_node: 1,
            cores_per_node: 0,
            frame_size: DEFAULT_FRAME_SIZE,
        }
    }
}

impl ClusterSpec {
    /// Single-node spec with `p` partitions.
    pub fn single_node(p: usize) -> Self {
        ClusterSpec {
            nodes: 1,
            partitions_per_node: p,
            ..Default::default()
        }
    }

    /// Total partitions.
    pub fn total_partitions(&self) -> usize {
        self.nodes * self.partitions_per_node
    }
}

/// An instantiated cluster, reusable across jobs.
pub struct Cluster {
    spec: ClusterSpec,
    mem: Arc<MemTracker>,
    spill: SpillConfig,
}

/// Decoded query result: one row per result tuple.
pub type Rows = Vec<Vec<Item>>;

/// Per-run overrides for [`Cluster::run_with`]. The default reproduces
/// [`Cluster::run_observed`]: the cluster's shared tracker (reset at run
/// start) and a token that never fires.
pub struct RunOptions {
    /// Tracker charged for this job's materialized state. `None` uses the
    /// cluster's shared tracker and resets it first — correct for one job
    /// at a time. Concurrent jobs must each bring their own tracker (the
    /// serving layer hands out per-job trackers carrying fair-share
    /// budgets), because a shared reset mid-flight would corrupt another
    /// job's accounting.
    pub mem: Option<Arc<MemTracker>>,
    /// Cancellation token checked at frame boundaries by every task.
    pub cancel: Arc<CancelToken>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            mem: None,
            cancel: CancelToken::new(),
        }
    }
}

impl Cluster {
    pub fn new(spec: ClusterSpec) -> Self {
        Self::with_memory(spec, MemTracker::new())
    }

    /// Use an externally-owned tracker (lets baselines impose budgets).
    pub fn with_memory(spec: ClusterSpec, mem: Arc<MemTracker>) -> Self {
        Self::with_settings(spec, mem, SpillConfig::default())
    }

    /// Full constructor: tracker plus spill tuning (run-file directory,
    /// merge fan-in, partition fan-out).
    pub fn with_settings(spec: ClusterSpec, mem: Arc<MemTracker>, spill: SpillConfig) -> Self {
        Cluster { spec, mem, spill }
    }

    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    pub fn memory(&self) -> &Arc<MemTracker> {
        &self.mem
    }

    fn stage_partitions(&self, job: &JobSpec, id: StageId) -> usize {
        match job.stages[id].parallelism {
            Parallelism::Full => self.spec.total_partitions(),
            Parallelism::One => 1,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn make_ctx(
        &self,
        stage: StageId,
        partition: usize,
        num_partitions: usize,
        mem: &Arc<MemTracker>,
        counters: &Arc<Counters>,
        profiler: &Arc<Profiler>,
        spill: &Arc<SpillCtx>,
        cancel: &Arc<CancelToken>,
    ) -> TaskContext {
        let node = partition
            .checked_div(self.spec.partitions_per_node)
            .unwrap_or(0)
            .min(self.spec.nodes - 1);
        TaskContext {
            stage,
            partition,
            num_partitions,
            node,
            partitions_per_node: self.spec.partitions_per_node,
            frame_size: self.spec.frame_size,
            mem: mem.clone(),
            counters: counters.clone(),
            profiler: Some(profiler.clone()),
            spill: spill.clone(),
            cancel: cancel.clone(),
        }
    }

    /// Execute `job` and return the decoded result rows plus statistics.
    pub fn run(&self, job: &JobSpec) -> Result<(Rows, JobStats)> {
        self.run_observed(job, None)
    }

    /// Execute `job`, optionally recording per-stage execution spans into
    /// a trace buffer. Per-operator profiling is always on (frame-granular
    /// atomics; see [`crate::profile`]) and lands in
    /// [`JobStats::profile`].
    pub fn run_observed(
        &self,
        job: &JobSpec,
        trace: Option<&Arc<TraceBuffer>>,
    ) -> Result<(Rows, JobStats)> {
        self.run_with(job, trace, RunOptions::default())
    }

    /// [`Cluster::run_observed`] with per-run overrides: a job-private
    /// memory tracker (required for concurrent jobs on one cluster) and a
    /// cancellation token. A fired token takes precedence over the
    /// secondary errors cancellation causes (severed channels), so the
    /// caller always sees [`DataflowError::Cancelled`] — including when
    /// the deadline passes only after the last frame, since a result the
    /// client declared dead must not be reported as a success.
    pub fn run_with(
        &self,
        job: &JobSpec,
        trace: Option<&Arc<TraceBuffer>>,
        opts: RunOptions,
    ) -> Result<(Rows, JobStats)> {
        job.validate()?;
        let terminal = job.terminal()?;
        let counters = Counters::new();
        let profiler = Profiler::new();
        let cancel = opts.cancel;
        let mem = match opts.mem {
            Some(m) => m,
            None => {
                // Single-job mode: the shared tracker describes this run
                // alone, so start it from zero.
                self.mem.reset();
                self.mem.clone()
            }
        };
        // Per-job spill state; dropping it at the end of this function —
        // on success *or* error — removes the job's spill directory.
        let spill_ctx = SpillCtx::new(mem.clone(), self.spill.clone());

        // Each stage has at most one consumer edge in our plans; find it.
        // consumer[s] = (consumer stage, edge index within that stage).
        let nstages = job.stages.len();
        let mut consumer: Vec<Option<(StageId, usize)>> = vec![None; nstages];
        for id in 0..nstages {
            for (edge_idx, input) in job.inputs(id).into_iter().enumerate() {
                if consumer[input.from].is_some() {
                    return Err(DataflowError::BadJob(format!(
                        "stage {} has multiple consumers",
                        input.from
                    )));
                }
                consumer[input.from] = Some((id, edge_idx));
            }
        }

        // Create channels per (consumer stage, edge, destination partition).
        // txs[(stage, edge)][dst], rxs[(stage, edge)][dst]
        let mut txs: Vec<Vec<Vec<Sender<Frame>>>> = Vec::with_capacity(nstages);
        let mut rxs: Vec<Vec<Vec<Option<Receiver<Frame>>>>> = Vec::with_capacity(nstages);
        for id in 0..nstages {
            let nedges = job.inputs(id).len();
            let dparts = self.stage_partitions(job, id);
            let mut stage_txs = Vec::with_capacity(nedges);
            let mut stage_rxs = Vec::with_capacity(nedges);
            for _ in 0..nedges {
                let mut etx = Vec::with_capacity(dparts);
                let mut erx = Vec::with_capacity(dparts);
                for _ in 0..dparts {
                    let (tx, rx) = bounded::<Frame>(64);
                    etx.push(tx);
                    erx.push(Some(rx));
                }
                stage_txs.push(etx);
                stage_rxs.push(erx);
            }
            txs.push(stage_txs);
            rxs.push(stage_rxs);
        }

        let (result_tx, result_rx) = bounded::<Frame>(64);
        let first_error: Arc<Mutex<Option<DataflowError>>> = Arc::new(Mutex::new(None));
        let started = Instant::now();

        std::thread::scope(|scope| {
            for id in 0..nstages {
                let parts = self.stage_partitions(job, id);
                for p in 0..parts {
                    let ctx = self.make_ctx(
                        id, p, parts, &mem, &counters, &profiler, &spill_ctx, &cancel,
                    );
                    // Output writer: collector for the terminal stage,
                    // connector sender otherwise.
                    let out: BoxWriter = if id == terminal {
                        Box::new(CollectorWriter::new(result_tx.clone()))
                    } else {
                        let (cons_stage, edge_idx) =
                            consumer[id].expect("non-terminal stage has a consumer");
                        let edge_txs = &txs[cons_stage][edge_idx];
                        let conn = &job.inputs(cons_stage)[edge_idx].connector;
                        match conn {
                            Connector::OneToOne => {
                                Box::new(OneToOneSender::new(ctx.clone(), edge_txs[p].clone()))
                            }
                            Connector::Hash { key_fields } => Box::new(HashPartitionSender::new(
                                ctx.clone(),
                                key_fields.clone(),
                                edge_txs.clone(),
                            )),
                            Connector::MergeToOne => {
                                Box::new(MergeSender::new(ctx.clone(), edge_txs[0].clone()))
                            }
                        }
                    };
                    // Probe the chain tail (sender / collector) first;
                    // chain factories wrap their own operators on top, so
                    // registration order is tail-first within a task.
                    let out = ctx.instrument(out);

                    // Input receivers for this partition.
                    let my_rxs: Vec<Receiver<Frame>> = rxs[id]
                        .iter_mut()
                        .map(|edge| edge[p].take().expect("receiver taken once"))
                        .collect();

                    let stage = &job.stages[id];
                    let err_slot = first_error.clone();
                    let task_trace = trace.cloned();
                    scope.spawn(move || {
                        let span_start = task_trace.as_ref().map(|t| t.now_us());
                        let timer = crate::cputime::TaskTimer::start();
                        let r = run_task(stage, &ctx, my_rxs, out);
                        let cpu = timer.elapsed();
                        if let (Some(t), Some(start)) = (&task_trace, span_start) {
                            t.span_from(
                                format!("stage {id}"),
                                "execute",
                                start,
                                ctx.node as u32,
                                ctx.partition as u32,
                                vec![
                                    ("stage", crate::trace::ArgValue::Int(id as i64)),
                                    (
                                        "cpu_us",
                                        crate::trace::ArgValue::Int(cpu.as_micros() as i64),
                                    ),
                                ],
                            );
                        }
                        ctx.counters
                            .task_cpu
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push((ctx.node, cpu));
                        if let Err(e) = r {
                            record_error(&err_slot, e);
                        }
                    });
                }
            }

            // The coordinator's own copies of every sender must go away,
            // or receivers would never observe end-of-stream: workers only
            // hold clones.
            drop(txs);
            drop(result_tx);

            // Drain results on the coordinator thread. On cancellation,
            // stop consuming and drop the receiver: the cascade of severed
            // channels unblocks any worker waiting on a full exchange, so
            // even fully backpressured jobs unwind promptly.
            let result_rx = result_rx; // moved in so it can be dropped below
            let mut rows: Rows = Vec::new();
            let mut decode_err: Option<DataflowError> = None;
            for frame in result_rx.iter() {
                if cancel.fired().is_some() {
                    break;
                }
                for t in frame.tuples() {
                    let mut row = Vec::with_capacity(t.field_count());
                    let mut ok = true;
                    for f in t.fields() {
                        match ItemRef::new(f).and_then(|r| r.to_item()) {
                            Ok(item) => row.push(item),
                            Err(e) => {
                                decode_err.get_or_insert(e.into());
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok {
                        rows.push(row);
                    }
                }
            }
            drop(result_rx);
            if let Some(e) = decode_err {
                record_error(&first_error, e);
            }
            Ok::<Rows, DataflowError>(rows)
        })
        .and_then(|rows| {
            // A fired token is the authoritative outcome: the first error
            // recorded by a task is usually a symptom (severed exchange,
            // dropped collector) of the unwind the token started.
            if let Some(reason) = cancel.fired() {
                return Err(DataflowError::Cancelled(reason));
            }
            if let Some(e) = first_error.lock().unwrap_or_else(|e| e.into_inner()).take() {
                return Err(e);
            }
            // Simulated cluster time: per-node makespans from task CPU
            // times (see crate::cputime for the model).
            let task_cpu = counters.task_cpu.lock().unwrap_or_else(|e| e.into_inner());
            let mut per_node: Vec<Vec<std::time::Duration>> = vec![Vec::new(); self.spec.nodes];
            let mut cpu_total = std::time::Duration::ZERO;
            for (node, d) in task_cpu.iter() {
                per_node[(*node).min(self.spec.nodes - 1)].push(*d);
                cpu_total += *d;
            }
            let cores = if self.spec.cores_per_node == 0 {
                self.spec.partitions_per_node.max(1)
            } else {
                self.spec
                    .cores_per_node
                    .min(self.spec.partitions_per_node.max(1))
            };
            let simulated = per_node
                .iter()
                .map(|tasks| crate::cputime::makespan(tasks, cores))
                .max()
                .unwrap_or_default();
            drop(task_cpu);
            let mut profile = profiler.finish();
            profile.spill_ops = spill_ctx.op_profiles();
            let stats = JobStats {
                elapsed: simulated.max(std::time::Duration::from_micros(1)),
                wall_elapsed: started.elapsed(),
                cpu_total,
                peak_memory: mem.peak(),
                peak_cached: mem.cached_peak(),
                network_bytes: counters.network_bytes.load(Ordering::Relaxed) as usize,
                frames_shipped: counters.frames_shipped.load(Ordering::Relaxed) as usize,
                result_tuples: rows.len(),
                bytes_scanned: counters.bytes_scanned.load(Ordering::Relaxed) as usize,
                spill: spill_ctx.summary(),
                profile,
            };
            Ok((rows, stats))
        })
    }
}

/// Record a task's error in the job's slot. The first error wins, except
/// that a severed channel gives way to any other error: a stage whose
/// downstream failed sees only that its receiver is gone, and may get
/// there before the failing stage records the cause.
fn record_error(slot: &Mutex<Option<DataflowError>>, e: DataflowError) {
    let mut slot = slot.lock().unwrap_or_else(|e| e.into_inner());
    let replace = match &*slot {
        None => true,
        Some(DataflowError::Severed(_)) => !matches!(e, DataflowError::Severed(_)),
        Some(_) => false,
    };
    if replace {
        *slot = Some(e);
    }
}

/// Body of one worker task.
fn run_task(
    stage: &crate::job::Stage,
    ctx: &TaskContext,
    mut inputs: Vec<Receiver<Frame>>,
    out: BoxWriter,
) -> Result<()> {
    match &stage.kind {
        StageKind::Source { scan, chain } => {
            // Sources push in a tight loop with no receive side; the probe
            // at the chain head gives them the same per-frame cancellation
            // check the receive loops below perform.
            let chain = chain.create(ctx, out)?;
            let chain: BoxWriter = Box::new(CancelProbe::new(ctx.cancel.clone(), chain));
            let mut source = scan.create(ctx)?;
            run_source(source.as_mut(), ctx.frame_size, chain)
        }
        StageKind::Pipe { chain, .. } => {
            let mut head = chain.create(ctx, out)?;
            let rx = inputs.pop().expect("pipe stage has one input");
            head.open()?;
            for frame in rx.iter() {
                ctx.check_cancelled()?;
                head.next_frame(&frame)?;
            }
            ctx.check_cancelled()?;
            head.close()
        }
        StageKind::Join { factory, .. } => {
            let mut op = factory.create(ctx, out)?;
            if let Some(p) = &ctx.profiler {
                op = p.instrument_two_input(ctx.stage, ctx.partition, op);
            }
            let probe_rx = inputs.pop().expect("join stage probe input");
            let build_rx = inputs.pop().expect("join stage build input");
            op.open()?;
            for frame in build_rx.iter() {
                ctx.check_cancelled()?;
                op.build_frame(&frame)?;
            }
            op.build_done()?;
            for frame in probe_rx.iter() {
                ctx.check_cancelled()?;
                op.probe_frame(&frame)?;
            }
            ctx.check_cancelled()?;
            op.close()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::TupleRef;
    use crate::job::{IdentityPipe, PipeFactory, Stage, StageInput, TwoInputFactory, TwoInputOp};
    use crate::ops::eval::{
        Aggregator, AggregatorFactory, ScanSource, ScanSourceFactory, TupleEmitter,
    };
    use crate::ops::{AggregateOp, FrameWriter, HashGroupByOp, HashJoinOp};
    use jdm::binary::{to_bytes, write_item};

    /// Source: each partition emits (key = i % 10, value = i) for its slice
    /// of 0..n.
    struct ModSource {
        n: usize,
    }
    impl ScanSourceFactory for ModSource {
        fn create(&self, ctx: &TaskContext) -> Result<Box<dyn ScanSource>> {
            Ok(Box::new(ModScan {
                n: self.n,
                part: ctx.partition,
                parts: ctx.num_partitions,
            }))
        }
    }
    struct ModScan {
        n: usize,
        part: usize,
        parts: usize,
    }
    impl ScanSource for ModScan {
        fn run(&mut self, emit: &mut TupleEmitter<'_>) -> Result<()> {
            for i in 0..self.n {
                if i % self.parts != self.part {
                    continue;
                }
                let k = to_bytes(&Item::int((i % 10) as i64));
                let v = to_bytes(&Item::int(i as i64));
                emit(&[&k, &v])?;
            }
            Ok(())
        }
    }

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

    /// Chain factory: hash group-by on field 0 with count.
    struct GroupByChain;
    impl PipeFactory for GroupByChain {
        fn create(&self, ctx: &TaskContext, out: BoxWriter) -> Result<BoxWriter> {
            Ok(Box::new(HashGroupByOp::new(
                vec![0],
                Arc::new(CountFactory),
                ctx.spill_handle("HASH-GROUP-BY"),
                ctx.frame_size,
                out,
            )))
        }
    }

    /// Chain: global count.
    struct GlobalCount;
    impl PipeFactory for GlobalCount {
        fn create(&self, ctx: &TaskContext, out: BoxWriter) -> Result<BoxWriter> {
            Ok(Box::new(AggregateOp::new(
                Box::new(CountAgg(0)),
                ctx.frame_size,
                out,
            )))
        }
    }

    fn scan_stage(n: usize) -> Stage {
        Stage {
            kind: StageKind::Source {
                scan: Arc::new(ModSource { n }),
                chain: Arc::new(IdentityPipe),
            },
            parallelism: Parallelism::Full,
        }
    }

    #[test]
    fn scan_merge_collect() {
        let cluster = Cluster::new(ClusterSpec::single_node(4));
        let mut job = JobSpec::new();
        let s = job.add(scan_stage(100));
        job.add(Stage {
            kind: StageKind::Pipe {
                input: StageInput {
                    from: s,
                    connector: Connector::MergeToOne,
                },
                chain: Arc::new(IdentityPipe),
            },
            parallelism: Parallelism::One,
        });
        let (rows, stats) = cluster.run(&job).unwrap();
        assert_eq!(rows.len(), 100);
        assert_eq!(stats.result_tuples, 100);
        let mut vals: Vec<i64> = rows
            .iter()
            .map(|r| r[1].as_number().unwrap().as_i64().unwrap())
            .collect();
        vals.sort();
        assert_eq!(vals, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn hash_partitioned_group_by_across_nodes() {
        let cluster = Cluster::new(ClusterSpec {
            nodes: 3,
            partitions_per_node: 2,
            ..Default::default()
        });
        let mut job = JobSpec::new();
        let s = job.add(scan_stage(1000));
        let g = job.add(Stage {
            kind: StageKind::Pipe {
                input: StageInput {
                    from: s,
                    connector: Connector::Hash {
                        key_fields: vec![0],
                    },
                },
                chain: Arc::new(GroupByChain),
            },
            parallelism: Parallelism::Full,
        });
        job.add(Stage {
            kind: StageKind::Pipe {
                input: StageInput {
                    from: g,
                    connector: Connector::MergeToOne,
                },
                chain: Arc::new(IdentityPipe),
            },
            parallelism: Parallelism::One,
        });
        let (mut rows, stats) = cluster.run(&job).unwrap();
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(rows.len(), 10);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0], Item::int(i as i64));
            assert_eq!(row[1], Item::int(100));
        }
        assert!(stats.network_bytes > 0, "cross-node traffic expected");
    }

    #[test]
    fn same_results_for_any_partitioning() {
        let run = |nodes, ppn| {
            let cluster = Cluster::new(ClusterSpec {
                nodes,
                partitions_per_node: ppn,
                ..Default::default()
            });
            let mut job = JobSpec::new();
            let s = job.add(scan_stage(500));
            let g = job.add(Stage {
                kind: StageKind::Pipe {
                    input: StageInput {
                        from: s,
                        connector: Connector::Hash {
                            key_fields: vec![0],
                        },
                    },
                    chain: Arc::new(GroupByChain),
                },
                parallelism: Parallelism::Full,
            });
            job.add(Stage {
                kind: StageKind::Pipe {
                    input: StageInput {
                        from: g,
                        connector: Connector::MergeToOne,
                    },
                    chain: Arc::new(IdentityPipe),
                },
                parallelism: Parallelism::One,
            });
            let (mut rows, _) = cluster.run(&job).unwrap();
            rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
            rows
        };
        let base = run(1, 1);
        assert_eq!(run(1, 4), base);
        assert_eq!(run(2, 3), base);
        assert_eq!(run(5, 2), base);
    }

    #[test]
    fn global_aggregate_via_merge() {
        let cluster = Cluster::new(ClusterSpec::single_node(8));
        let mut job = JobSpec::new();
        let s = job.add(scan_stage(777));
        job.add(Stage {
            kind: StageKind::Pipe {
                input: StageInput {
                    from: s,
                    connector: Connector::MergeToOne,
                },
                chain: Arc::new(GlobalCount),
            },
            parallelism: Parallelism::One,
        });
        let (rows, _) = cluster.run(&job).unwrap();
        assert_eq!(rows, vec![vec![Item::int(777)]]);
    }

    struct JoinChain;
    impl TwoInputFactory for JoinChain {
        fn create(&self, ctx: &TaskContext, out: BoxWriter) -> Result<Box<dyn TwoInputOp>> {
            Ok(Box::new(HashJoinOp::new(
                vec![0],
                vec![0],
                ctx.spill_handle("HASH-JOIN"),
                ctx.frame_size,
                out,
            )))
        }
    }

    #[test]
    fn partitioned_hash_join() {
        let cluster = Cluster::new(ClusterSpec {
            nodes: 2,
            partitions_per_node: 2,
            ..Default::default()
        });
        let mut job = JobSpec::new();
        let build = job.add(scan_stage(50));
        let probe = job.add(scan_stage(50));
        let j = job.add(Stage {
            kind: StageKind::Join {
                build: StageInput {
                    from: build,
                    connector: Connector::Hash {
                        key_fields: vec![0],
                    },
                },
                probe: StageInput {
                    from: probe,
                    connector: Connector::Hash {
                        key_fields: vec![0],
                    },
                },
                factory: Arc::new(JoinChain),
            },
            parallelism: Parallelism::Full,
        });
        job.add(Stage {
            kind: StageKind::Pipe {
                input: StageInput {
                    from: j,
                    connector: Connector::MergeToOne,
                },
                chain: Arc::new(IdentityPipe),
            },
            parallelism: Parallelism::One,
        });
        let (rows, _) = cluster.run(&job).unwrap();
        // Each of 50 probe tuples matches the 5 build tuples sharing its
        // key (keys are i % 10 over 0..50 → 5 per key): 250 results.
        assert_eq!(rows.len(), 250);
        for row in &rows {
            assert_eq!(row[0], row[2], "join keys must match");
        }
    }

    /// A pipe that fails on its first frame, dropping its receiver.
    struct FailOnFirstFrame;
    impl PipeFactory for FailOnFirstFrame {
        fn create(&self, _ctx: &TaskContext, _out: BoxWriter) -> Result<BoxWriter> {
            Ok(Box::new(FailOnFirstFrame))
        }
    }
    impl FrameWriter for FailOnFirstFrame {
        fn open(&mut self) -> Result<()> {
            Ok(())
        }
        fn next_frame(&mut self, _frame: &Frame) -> Result<()> {
            Err(DataflowError::Eval("first frame rejected".into()))
        }
        fn close(&mut self) -> Result<()> {
            Ok(())
        }
    }

    /// The upstream scan keeps sending after its consumer failed, so it
    /// fails too, on the severed channel, and may record that first. The
    /// job must still report the consumer's error, on every run.
    #[test]
    fn a_severed_channel_never_masks_the_error_that_severed_it() {
        let cluster = Cluster::new(ClusterSpec {
            frame_size: 256,
            ..ClusterSpec::single_node(1)
        });
        let mut job = JobSpec::new();
        // 256-byte frames hold a dozen (key, value) tuples: 5,000 tuples
        // are hundreds of frames, far more than the 64 a channel buffers.
        let s = job.add(scan_stage(5_000));
        job.add(Stage {
            kind: StageKind::Pipe {
                input: StageInput {
                    from: s,
                    connector: Connector::OneToOne,
                },
                chain: Arc::new(FailOnFirstFrame),
            },
            parallelism: Parallelism::Full,
        });
        for run in 0..200 {
            match cluster.run(&job) {
                Err(DataflowError::Eval(m)) => assert_eq!(m, "first frame rejected"),
                other => panic!("run {run}: {:?}", other.map(|(rows, _)| rows.len())),
            }
        }
    }

    #[test]
    fn core_gate_limits_do_not_change_results() {
        let cluster = Cluster::new(ClusterSpec {
            nodes: 1,
            partitions_per_node: 8,
            cores_per_node: 2,
            ..Default::default()
        });
        let mut job = JobSpec::new();
        let s = job.add(scan_stage(200));
        job.add(Stage {
            kind: StageKind::Pipe {
                input: StageInput {
                    from: s,
                    connector: Connector::MergeToOne,
                },
                chain: Arc::new(GlobalCount),
            },
            parallelism: Parallelism::One,
        });
        let (rows, _) = cluster.run(&job).unwrap();
        assert_eq!(rows, vec![vec![Item::int(200)]]);
    }
}
