//! Engine-level errors.

use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Anything that can go wrong between query text and result rows.
#[derive(Debug)]
pub enum EngineError {
    /// Lexing / parsing / translation.
    Parse(jsoniq::ParseError),
    /// Physical compilation (unsupported plan shapes, missing keys).
    Compile(String),
    /// Expression evaluation over tuples (type errors, bad dateTime
    /// strings, division by zero).
    Runtime(String),
    /// Runtime execution.
    Execute(dataflow::DataflowError),
    /// Data access outside the runtime (setup, paths).
    Io(std::io::Error),
    /// The query service refused admission: the wait queue is full.
    Overloaded {
        /// Queries waiting when this one was refused.
        queued: usize,
        /// The service's configured queue limit.
        queue_limit: usize,
    },
    /// The query was cancelled by its client before completing.
    Cancelled,
    /// The query's deadline passed before its result was delivered.
    DeadlineExceeded,
    /// The query service is shutting down and no longer accepts work.
    ServiceClosed,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Compile(m) => write!(f, "compile error: {m}"),
            EngineError::Runtime(m) => write!(f, "runtime error: {m}"),
            EngineError::Execute(e) => write!(f, "execution error: {e}"),
            EngineError::Io(e) => write!(f, "I/O error: {e}"),
            EngineError::Overloaded {
                queued,
                queue_limit,
            } => write!(
                f,
                "service overloaded: {queued} queries queued (limit {queue_limit})"
            ),
            EngineError::Cancelled => write!(f, "query cancelled"),
            EngineError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            EngineError::ServiceClosed => write!(f, "query service is shut down"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<jsoniq::ParseError> for EngineError {
    fn from(e: jsoniq::ParseError) -> Self {
        EngineError::Parse(e)
    }
}
impl From<dataflow::DataflowError> for EngineError {
    fn from(e: dataflow::DataflowError) -> Self {
        EngineError::Execute(e)
    }
}
impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}
