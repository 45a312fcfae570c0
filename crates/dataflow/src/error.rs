//! Runtime errors for the dataflow layer.

use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DataflowError>;

/// Errors surfaced by frame handling, operators, and job execution.
#[derive(Debug, Clone)]
pub enum DataflowError {
    /// A single tuple exceeded the configured frame capacity and big-frame
    /// promotion was disabled.
    TupleTooLarge { tuple: usize, capacity: usize },
    /// Malformed frame or tuple bytes.
    BadFrame(String),
    /// An expression evaluator or aggregator failed.
    Eval(String),
    /// A scan source failed (I/O, parse).
    Source(String),
    /// A planned data file no longer matches the size and mtime it was
    /// planned with (appended to, truncated, rewritten or deleted since
    /// the scan was planned).
    SourceChanged { path: std::path::PathBuf },
    /// Job-graph validation failed (unknown stage, cycle, arity mismatch).
    BadJob(String),
    /// A worker thread panicked or a sender was used after its close.
    Worker(String),
    /// The stage downstream of a channel stopped receiving: its receiver
    /// is gone. That stage stops only when it failed, so this is a
    /// symptom of another error; the cluster reports it only when no
    /// task recorded anything else.
    Severed(String),
    /// The job exceeded its configured memory budget (used by baselines
    /// simulating memory-limited systems).
    OutOfMemory { requested: usize, budget: usize },
    /// Spill subsystem failure (run-file I/O, spill-directory lifecycle).
    Spill(String),
    /// The job's cancellation token fired (client cancel or deadline);
    /// the run unwound cooperatively at a frame boundary.
    Cancelled(crate::cancel::CancelReason),
}

impl fmt::Display for DataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataflowError::TupleTooLarge { tuple, capacity } => {
                write!(
                    f,
                    "tuple of {tuple} bytes exceeds frame capacity {capacity}"
                )
            }
            DataflowError::BadFrame(m) => write!(f, "bad frame: {m}"),
            DataflowError::Eval(m) => write!(f, "evaluation error: {m}"),
            DataflowError::Source(m) => write!(f, "source error: {m}"),
            DataflowError::SourceChanged { path } => {
                write!(f, "source changed since planning: {}", path.display())
            }
            DataflowError::BadJob(m) => write!(f, "invalid job: {m}"),
            DataflowError::Worker(m) => write!(f, "worker failure: {m}"),
            DataflowError::Severed(m) => write!(f, "channel severed: {m}"),
            DataflowError::OutOfMemory { requested, budget } => {
                write!(
                    f,
                    "out of memory: requested {requested} bytes with budget {budget}"
                )
            }
            DataflowError::Spill(m) => write!(f, "spill error: {m}"),
            DataflowError::Cancelled(crate::cancel::CancelReason::Client) => {
                write!(f, "query cancelled by client")
            }
            DataflowError::Cancelled(crate::cancel::CancelReason::Deadline) => {
                write!(f, "query deadline exceeded")
            }
        }
    }
}

impl std::error::Error for DataflowError {}

impl From<jdm::JdmError> for DataflowError {
    fn from(e: jdm::JdmError) -> Self {
        DataflowError::Eval(e.to_string())
    }
}
