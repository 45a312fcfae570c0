//! # vxq-core — the JSONiq query engine (the paper's system)
//!
//! Ties the substrates together the way Apache VXQuery ties Hyracks and
//! Algebricks together (paper Fig. 1):
//!
//! ```text
//!  query string ──jsoniq──▶ naive logical plan ──algebra rules──▶
//!  optimized plan ──[compile]──▶ dataflow JobSpec ──[cluster]──▶ rows
//! ```
//!
//! * [`rtexpr`] — runtime expression evaluation (JSONiq `value`,
//!   `keys-or-members`, comparisons, arithmetic, dateTime functions) over
//!   views of binary tuples and of the structural-index tape.
//! * [`aggs`] — the one aggregate fold (`count`, `sum`, `avg`, `min`,
//!   `max`, their two-step partial/merge forms, and the
//!   sequence-materializing aggregate of the pre-rewrite plans) shared by
//!   naive plans, SUBPLANs and GROUP-BY / AGGREGATE.
//! * [`scan`] — DATASCAN runtimes: the projecting partitioned file scan
//!   (post-pipelining-rules) and the naive whole-collection /
//!   single-document scans (pre-rules).
//! * [`tapefilter`] — the DATASCAN's filter: the SELECT's condition,
//!   moved into the scan by `push-select-into-datascan`, evaluated once
//!   per record by [`rtexpr`] on a view of the structural-index tape (or
//!   of a binary `.adm` item) before the record is written.
//! * [`compile`] — physical planning: stage splitting, exchange insertion,
//!   two-step aggregation, join key extraction; logical plan → [`dataflow::JobSpec`].
//! * [`engine`] — the public API: [`Engine`] executes queries on a
//!   [`dataflow::ClusterSpec`] under a [`algebra::rules::RuleConfig`].
//! * [`report`] — the one query report: every metric of a run and of a
//!   service snapshot, defined once and rendered as EXPLAIN ANALYZE
//!   text, JSON and Prometheus exposition.
//! * [`queries`] — the evaluation queries of the paper (Q0, Q0b, Q1, Q1b,
//!   Q2) and the bookstore examples, as constants.
//!
//! ## Quickstart
//!
//! ```no_run
//! use vxq_core::{Engine, EngineConfig};
//!
//! let engine = Engine::new(EngineConfig {
//!     data_root: "/data".into(),
//!     ..EngineConfig::default()
//! });
//! let result = engine.execute(vxq_core::queries::Q1).unwrap();
//! for row in &result.rows {
//!     println!("{}", row[0]);
//! }
//! println!("took {:?}, peak memory {} bytes", result.stats.elapsed, result.stats.peak_memory);
//! ```

pub mod aggs;
pub mod compile;
pub mod engine;
pub mod error;
pub mod pool;
pub mod queries;
pub mod report;
pub mod rtexpr;
pub mod scan;
pub mod service;
pub mod tapefilter;

pub use engine::{
    parse_memory_budget, Engine, EngineConfig, ExecOptions, PreparedQuery, QueryResult,
};
pub use error::{EngineError, Result};
pub use pool::ScanBufferPool;
pub use report::{render_analysis, Report};
pub use scan::ScanOptions;
pub use service::{
    LatencySummary, Priority, QueryOptions, QueryService, QueryTicket, ServiceConfig,
    ServiceResponse, ServiceSnapshot,
};
