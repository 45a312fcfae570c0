//! Language-facing extension points.
//!
//! Hyracks "defines interfaces that allow users of the platform to specify
//! the data-type details for comparing, hashing, serializing and
//! de-serializing data" (paper §3.1). These traits are our equivalents:
//! the JSONiq layer implements them; the runtime only ever sees bytes.

use crate::error::Result;
use crate::frame::TupleRef;

/// Evaluates a scalar expression over one tuple, appending the serialized
/// result item to `out`. Evaluators may keep scratch buffers (hence `&mut`).
pub trait ScalarEvaluator: Send {
    /// Evaluate; append exactly one serialized item to `out`.
    fn eval(&mut self, tuple: &TupleRef<'_>, out: &mut Vec<u8>) -> Result<()>;
}

/// Creates per-partition [`ScalarEvaluator`]s (factories are shared across
/// worker threads, evaluators are not).
pub trait ScalarEvaluatorFactory: Send + Sync {
    fn create(&self) -> Box<dyn ScalarEvaluator>;
}

/// Evaluates an unnesting expression over one tuple, emitting zero or more
/// serialized items.
pub trait UnnestEvaluator: Send {
    fn eval(
        &mut self,
        tuple: &TupleRef<'_>,
        emit: &mut dyn FnMut(&[u8]) -> Result<()>,
    ) -> Result<()>;
}

/// Creates per-partition [`UnnestEvaluator`]s.
pub trait UnnestEvaluatorFactory: Send + Sync {
    fn create(&self) -> Box<dyn UnnestEvaluator>;
}

/// Incremental aggregation state (one instance per group).
///
/// Aggregators report no memory: [`crate::ops::HashGroupByOp`] charges
/// each group a fixed estimate plus its key bytes, and the pre-rewrite
/// plans' per-group sequences are charged by
/// [`crate::ops::MaterializingGroupByOp`], which buffers them as tuples.
pub trait Aggregator: Send {
    /// Fold one tuple into the state.
    fn step(&mut self, tuple: &TupleRef<'_>) -> Result<()>;
    /// Append the serialized result item to `out`.
    fn finish(&mut self, out: &mut Vec<u8>) -> Result<()>;
}

/// Creates [`Aggregator`]s; one per group for grouped aggregation.
pub trait AggregatorFactory: Send + Sync {
    fn create(&self) -> Box<dyn Aggregator>;
}

/// Callback used by scan sources to emit tuples (field slices).
pub type TupleEmitter<'a> = dyn FnMut(&[&[u8]]) -> Result<()> + 'a;

/// A self-driving data source for one partition (the DATASCAN runtime).
/// Implementations read their partition's share of the data and emit one
/// tuple per produced item.
pub trait ScanSource: Send {
    fn run(&mut self, emit: &mut TupleEmitter<'_>) -> Result<()>;
}

/// Creates per-partition scan sources. The context carries the partition
/// index (which slice of the data to read) and the counters scan
/// implementations report raw bytes to.
pub trait ScanSourceFactory: Send + Sync {
    fn create(&self, ctx: &crate::context::TaskContext) -> Result<Box<dyn ScanSource>>;
}
