//! Per-task execution context.

use crate::cancel::CancelToken;
use crate::ops::BoxWriter;
use crate::profile::Profiler;
use crate::spill::{SpillCtx, SpillHandle};
use crate::stats::{Counters, MemTracker};
use std::sync::Arc;

/// Everything a worker task needs to know about its placement.
#[derive(Clone)]
pub struct TaskContext {
    /// Stage this task belongs to.
    pub stage: usize,
    /// Global partition index of this task.
    pub partition: usize,
    /// Total partitions of this task's stage.
    pub num_partitions: usize,
    /// Node hosting this partition.
    pub node: usize,
    /// Partitions per node (for node-of-partition mapping).
    pub partitions_per_node: usize,
    /// Frame capacity in bytes.
    pub frame_size: usize,
    /// Cluster-wide memory tracker.
    pub mem: Arc<MemTracker>,
    /// Cluster-wide traffic counters.
    pub counters: Arc<Counters>,
    /// Per-run operator profiler; chain factories wrap each operator they
    /// build via [`TaskContext::instrument`].
    pub profiler: Option<Arc<Profiler>>,
    /// Per-job spill state: memory grants and run files for the stateful
    /// operators (see [`crate::spill`]).
    pub spill: Arc<SpillCtx>,
    /// Per-job cancellation token, checked at frame boundaries (see
    /// [`crate::cancel`]).
    pub cancel: Arc<CancelToken>,
}

impl TaskContext {
    /// Which node hosts global partition `p` (full-parallelism stages).
    pub fn node_of(&self, p: usize) -> usize {
        p.checked_div(self.partitions_per_node).unwrap_or(0)
    }

    /// Wrap a writer in a profiling probe registered under this task's
    /// stage and partition. No-op when profiling is off.
    pub fn instrument(&self, writer: BoxWriter) -> BoxWriter {
        match &self.profiler {
            Some(p) => p.instrument(self.stage, self.partition, writer),
            None => writer,
        }
    }

    /// Record one scan split's runtime metrics into the job profile.
    /// No-op when profiling is off.
    pub fn record_split(&self, split: crate::profile::SplitProfile) {
        if let Some(p) = &self.profiler {
            p.record_split(split);
        }
    }

    /// A spill handle for one operator instance of this task, registered
    /// under the task's stage and partition.
    pub fn spill_handle(&self, op: &'static str) -> SpillHandle {
        self.spill.handle(op, self.stage, self.partition)
    }

    /// Frame-boundary cancellation check (see [`crate::cancel`]).
    pub fn check_cancelled(&self) -> crate::error::Result<()> {
        self.cancel.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_mapping() {
        let ctx = TaskContext {
            stage: 0,
            partition: 5,
            num_partitions: 8,
            node: 1,
            partitions_per_node: 4,
            frame_size: 1024,
            mem: MemTracker::new(),
            counters: Counters::new(),
            profiler: None,
            spill: SpillCtx::unlimited(),
            cancel: CancelToken::new(),
        };
        assert_eq!(ctx.node_of(0), 0);
        assert_eq!(ctx.node_of(3), 0);
        assert_eq!(ctx.node_of(4), 1);
        assert_eq!(ctx.node_of(7), 1);
    }
}
