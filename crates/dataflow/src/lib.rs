//! # dataflow — a partitioned-parallel dataflow runtime (the Hyracks analog)
//!
//! This crate reproduces the substrate the paper's system runs on:
//! *Hyracks* (Borkar et al., ICDE 2011), "a flexible and extensible
//! foundation for data-intensive computing". Like Hyracks it is
//! **data-agnostic**: it moves fixed-size [`frame::Frame`]s of serialized
//! tuples between push-based operators and knows nothing about JSON — the
//! language layer (`vxq-core`) supplies expression evaluators, aggregators,
//! and scan sources as trait objects.
//!
//! Components:
//!
//! * [`frame`] — fixed-size frames with an end-of-frame tuple index
//!   (Hyracks' frame layout), appenders and zero-copy accessors.
//! * [`ops`] — physical operators: empty-tuple-source, data scan, assign,
//!   select, unnest, aggregate, subplan, hash & pre-clustered group-by,
//!   hash join, materializing group-by (the *pre-rewrite* plans need it).
//! * [`exchange`] — connectors between stages: one-to-one, hash
//!   partitioning, and merge-to-one, backed by bounded channels.
//! * [`job`] / [`cluster`] — job specifications (stage DAG) executed on a
//!   simulated cluster of `nodes × partitions_per_node` worker threads,
//!   with per-node core limits in the timing model so that CPU-bound
//!   oversubscription behaves like the paper's hyper-threading experiment
//!   (Fig. 17).
//! * [`stats`] — memory and network accounting (peak materialized bytes,
//!   bytes crossing node boundaries), used by the Table-3 reproduction.
//! * [`spill`] — memory-bounded execution: per-operator memory grants
//!   drawn from the job budget, plus the run-file layer the external
//!   sort, grace hash join and spilling group-by overflow into.
//! * [`profile`] — always-on per-operator metrics (tuples/frames/bytes
//!   in and out, busy and emit-stall time) collected by interleaved
//!   probes, aggregated into a [`profile::JobProfile`].
//! * [`trace`] — bounded ring buffer of query-lifecycle spans, exportable
//!   as JSON lines or a Chrome trace-event file.
//! * [`cancel`] — cooperative cancellation tokens (client cancel +
//!   deadlines), checked at frame boundaries by every run loop and
//!   exchange so a fired job unwinds cleanly and releases its resources.

pub mod cancel;
pub mod channel;
pub mod cluster;
pub mod context;
pub mod cputime;
pub mod error;
pub mod exchange;
pub mod frame;
pub mod job;
pub mod ops;
pub mod profile;
pub mod spill;
pub mod stats;
pub mod trace;

pub use cancel::{CancelReason, CancelToken};
pub use cluster::{Cluster, ClusterSpec, Rows, RunOptions};
pub use context::TaskContext;
pub use error::{DataflowError, Result};
pub use frame::{Frame, FrameAppender, TupleRef};
pub use job::{
    Connector, IdentityPipe, JobSpec, Parallelism, PipeFactory, Stage, StageId, StageInput,
    StageKind, TwoInputFactory, TwoInputOp,
};
pub use profile::{JobProfile, OpProfile, OpSummary, Profiler};
pub use spill::{MemGrant, SpillConfig, SpillCtx, SpillHandle, SpillOpProfile, SpillSummary};
pub use stats::{JobStats, MemTracker};
pub use trace::{ArgValue, TraceBuffer, TraceEvent};
