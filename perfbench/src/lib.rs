//! The repository benchmark. Each run generates a seeded GHCN-shaped
//! dataset, drives the engine through its public API for a fixed time,
//! checks every answer against an independent oracle, and prints the
//! workload's metrics. `run.py` builds this package and runs the
//! `perfbench` binary twice: `prepare` writes the dataset and the
//! expected answers, in a process of its own so that the measuring
//! process's peak RSS is the engine's, and `measure` runs the workload.
//! See README.md for the workloads and metrics.

pub mod dataset;
pub mod measure;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;
