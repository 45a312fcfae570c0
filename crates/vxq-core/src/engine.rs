//! The public engine API.

use crate::compile::{compile_plan, CompileOptions};
use crate::error::Result;
use crate::pool::ScanBufferPool;
use crate::scan::ScanOptions;
use algebra::rules::{RuleConfig, RuleFiring, RuleSet};
use algebra::LogicalPlan;
use dataflow::trace::ArgValue;
use dataflow::{
    CancelToken, Cluster, ClusterSpec, JobStats, MemTracker, Rows, RunOptions, TraceBuffer,
};
use std::path::PathBuf;
use std::sync::Arc;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Simulated cluster shape.
    pub cluster: ClusterSpec,
    /// Which rewrite-rule families are active (the experiment knob).
    pub rules: RuleConfig,
    /// Directory collection paths resolve under.
    pub data_root: PathBuf,
    /// Optional memory budget in bytes for operator working state —
    /// sort buffers, join tables, group-by state. Stateful operators
    /// spill to run files rather than exceed it. Scanned file bytes kept
    /// resident for the job are reported in `peak_memory` but not charged
    /// against this budget. 0 = unlimited; falls back to the
    /// `VXQ_MEM_BUDGET` environment variable, which accepts `k`/`m`/`g`
    /// suffixes.
    pub memory_budget: usize,
    /// DATASCAN split behaviour (intra-file parallelism).
    pub scan: ScanOptions,
    /// Spill tuning: run-file directory, merge fan-in, partition fan-out,
    /// recursion cap (see [`dataflow::SpillConfig`]).
    pub spill: dataflow::SpillConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cluster: ClusterSpec::default(),
            rules: RuleConfig::all(),
            data_root: PathBuf::from("."),
            memory_budget: 0,
            scan: ScanOptions::default(),
            spill: dataflow::SpillConfig::default(),
        }
    }
}

/// Parse a memory budget like `1048576`, `256k`, `64M` or `2g` into bytes.
pub fn parse_memory_budget(s: &str) -> Option<usize> {
    let s = s.trim();
    let (num, mult) = match s.as_bytes().last()?.to_ascii_lowercase() {
        b'k' => (&s[..s.len() - 1], 1024usize),
        b'm' => (&s[..s.len() - 1], 1024 * 1024),
        b'g' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    num.trim().parse::<usize>().ok()?.checked_mul(mult)
}

/// The configured budget, or the `VXQ_MEM_BUDGET` environment fallback
/// when the config leaves it unset.
fn resolve_budget(config: &EngineConfig) -> usize {
    if config.memory_budget > 0 {
        return config.memory_budget;
    }
    std::env::var("VXQ_MEM_BUDGET")
        .ok()
        .and_then(|v| parse_memory_budget(&v))
        .unwrap_or(0)
}

fn build_cluster(config: &EngineConfig) -> Cluster {
    let budget = resolve_budget(config);
    let mem = if budget > 0 {
        dataflow::MemTracker::with_budget(budget)
    } else {
        dataflow::MemTracker::new()
    };
    Cluster::with_settings(config.cluster.clone(), mem, config.spill.clone())
}

/// A query result: decoded rows plus runtime statistics and provenance.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Result tuples (one `Vec<Item>` per row; the paper's queries return
    /// single-field rows).
    pub rows: Rows,
    /// Runtime statistics (elapsed, peak memory, network traffic, ...).
    pub stats: JobStats,
    /// The optimized logical plan, in EXPLAIN form.
    pub plan: String,
    /// The rewrite rules that fired, in application order.
    pub applied_rules: Vec<&'static str>,
    /// One record per rule application, with duration and plan-size delta.
    pub rule_firings: Vec<RuleFiring>,
}

/// A query carried through parse → translate → optimize, ready to run.
/// Reusable and shareable: the serving layer's plan cache stores these and
/// skips the whole front half of the pipeline on a hit. Compilation stays
/// per-execution — compiled jobs capture per-job scan caches, so they must
/// not outlive one run.
#[derive(Clone)]
pub struct PreparedQuery {
    /// The optimized logical plan.
    pub plan: Arc<LogicalPlan>,
    /// The plan in textual EXPLAIN form (precomputed once).
    pub explain: String,
    /// One record per rule application during optimization.
    pub rule_firings: Vec<RuleFiring>,
}

/// Per-execution overrides for [`Engine::execute_prepared`].
#[derive(Default)]
pub struct ExecOptions {
    /// Job-private memory tracker (budget included). `None` charges the
    /// engine's shared tracker, which is reset per run — only correct for
    /// one query at a time; concurrent callers must supply their own.
    pub mem: Option<Arc<MemTracker>>,
    /// Cancellation token checked at frame boundaries during the run.
    pub cancel: Option<Arc<CancelToken>>,
}

/// The JSONiq query engine: parse → translate → optimize → compile → run.
pub struct Engine {
    config: EngineConfig,
    cluster: Cluster,
    rules: RuleSet,
    /// Scan buffers and index tapes, reused across every query this
    /// engine runs.
    pool: Arc<ScanBufferPool>,
}

impl Engine {
    /// Build an engine. The cluster's worker structure is created once
    /// and reused across queries.
    pub fn new(config: EngineConfig) -> Self {
        let cluster = build_cluster(&config);
        let rules = RuleSet::for_config(config.rules);
        Engine {
            config,
            cluster,
            rules,
            pool: Arc::new(ScanBufferPool::new()),
        }
    }

    /// Convenience: default single-node engine over a data directory.
    pub fn single_node(data_root: impl Into<PathBuf>) -> Self {
        Engine::new(EngineConfig {
            data_root: data_root.into(),
            ..EngineConfig::default()
        })
    }

    /// Build an engine with a hand-picked rule set instead of the standard
    /// families (used by the AsterixDB baseline, which shares the
    /// infrastructure but lacks the JSONiq pipelining rules).
    pub fn with_rule_set(config: EngineConfig, rules: RuleSet) -> Self {
        let cluster = build_cluster(&config);
        Engine {
            config,
            cluster,
            rules,
            pool: Arc::new(ScanBufferPool::new()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The cluster's memory tracker (peak materialized bytes, budget).
    pub fn memory(&self) -> &Arc<dataflow::MemTracker> {
        self.cluster.memory()
    }

    /// Parse, translate and optimize; returns the plan without running it.
    pub fn optimize(&self, query: &str) -> Result<(LogicalPlan, Vec<&'static str>)> {
        let (plan, firings) = self.optimize_traced(query, None)?;
        Ok((plan, firings.into_iter().map(|f| f.rule).collect()))
    }

    /// Parse, translate and optimize, recording a span per phase and per
    /// rule firing into `trace` when given.
    pub fn optimize_traced(
        &self,
        query: &str,
        trace: Option<&TraceBuffer>,
    ) -> Result<(LogicalPlan, Vec<RuleFiring>)> {
        let expr = {
            let _span = trace.map(|t| {
                let mut s = t.span("parse", "lifecycle");
                s.arg("chars", query.len());
                s
            });
            jsoniq::parser::parse(query)?
        };
        let mut plan = {
            let _span = trace.map(|t| t.span("translate", "lifecycle"));
            jsoniq::translate::translate(&expr)?
        };
        let opt_start = trace.map(|t| t.now_us());
        let firings = self.rules.optimize_traced(&mut plan);
        if let (Some(t), Some(start)) = (trace, opt_start) {
            // One span per rule firing, laid out sequentially from the
            // optimize start (the optimizer itself is sequential, so the
            // recorded durations tile the phase).
            let mut cursor = start;
            for f in &firings {
                let dur = f.duration.as_micros() as u64;
                t.push(dataflow::TraceEvent {
                    name: f.rule.to_string(),
                    cat: "rule",
                    ts_us: cursor,
                    dur_us: dur,
                    pid: 0,
                    tid: 0,
                    args: vec![
                        ("round", ArgValue::Int(f.round as i64)),
                        ("nodes_before", ArgValue::Int(f.nodes_before as i64)),
                        ("nodes_after", ArgValue::Int(f.nodes_after as i64)),
                    ],
                });
                cursor += dur;
            }
            t.span_from(
                "optimize",
                "lifecycle",
                start,
                0,
                0,
                vec![("rule_firings", ArgValue::Int(firings.len() as i64))],
            );
        }
        Ok((plan, firings))
    }

    /// The optimized plan in textual EXPLAIN form.
    pub fn explain(&self, query: &str) -> Result<String> {
        Ok(self.optimize(query)?.0.explain())
    }

    /// Execute a query end to end.
    ///
    /// Note on statistics: the cluster-wide memory tracker is reset at the
    /// start of each run, so `stats.peak_memory` describes this query
    /// alone. For concurrent execution on one `Engine`, go through
    /// [`crate::service::QueryService`] (or call
    /// [`Engine::execute_prepared`] with a per-job tracker): each job then
    /// gets its own accounting and fair budget share.
    pub fn execute(&self, query: &str) -> Result<QueryResult> {
        self.execute_with_trace(query, None)
    }

    /// Parse, translate and optimize into a reusable [`PreparedQuery`]
    /// without running it, recording lifecycle spans when `trace` is
    /// given.
    pub fn prepare(&self, query: &str, trace: Option<&TraceBuffer>) -> Result<PreparedQuery> {
        let (plan, rule_firings) = self.optimize_traced(query, trace)?;
        Ok(PreparedQuery {
            explain: plan.explain(),
            plan: Arc::new(plan),
            rule_firings,
        })
    }

    /// Compile and run a prepared query, skipping parse → translate →
    /// optimize entirely. `opts` carries the serving layer's per-job
    /// hooks: a private memory tracker (fair-share budget) and a
    /// cancellation token.
    pub fn execute_prepared(
        &self,
        prepared: &PreparedQuery,
        trace: Option<&Arc<TraceBuffer>>,
        opts: ExecOptions,
    ) -> Result<QueryResult> {
        let job = {
            let _span = trace.map(|t| t.span("compile", "lifecycle"));
            compile_plan(
                &prepared.plan,
                &CompileOptions {
                    data_root: self.config.data_root.clone(),
                    cluster: self.config.cluster.clone(),
                    two_step_aggregation: self.config.rules.two_step_aggregation,
                    scan: self.config.scan.clone(),
                    pool: self.pool.clone(),
                },
            )?
        };
        let run_opts = RunOptions {
            mem: opts.mem,
            cancel: opts.cancel.unwrap_or_default(),
        };
        let (rows, stats) = {
            let _span = trace.map(|t| {
                let mut s = t.span("execute", "lifecycle");
                s.arg("stages", job.stages.len());
                s
            });
            self.cluster.run_with(&job, trace, run_opts)?
        };
        Ok(QueryResult {
            rows,
            stats,
            plan: prepared.explain.clone(),
            applied_rules: prepared.rule_firings.iter().map(|f| f.rule).collect(),
            rule_firings: prepared.rule_firings.clone(),
        })
    }

    /// Execute a query while recording the full lifecycle — parse,
    /// translate, each rule firing, compile, and every stage task — into a
    /// fresh trace buffer. The buffer exports as JSON lines or a Chrome
    /// trace file (see [`dataflow::trace`]).
    pub fn execute_profiled(&self, query: &str) -> Result<(QueryResult, Arc<TraceBuffer>)> {
        let trace = Arc::new(TraceBuffer::new());
        let result = self.execute_with_trace(query, Some(&trace))?;
        Ok((result, trace))
    }

    fn execute_with_trace(
        &self,
        query: &str,
        trace: Option<&Arc<TraceBuffer>>,
    ) -> Result<QueryResult> {
        let prepared = self.prepare(query, trace.map(Arc::as_ref))?;
        self.execute_prepared(&prepared, trace, ExecOptions::default())
    }

    /// `EXPLAIN ANALYZE`: execute the query and render the optimized plan
    /// followed by the measured per-operator metrics of every stage.
    pub fn explain_analyze(&self, query: &str) -> Result<String> {
        let (result, _trace) = self.execute_profiled(query)?;
        Ok(crate::report::render_analysis(&result))
    }
}

#[cfg(test)]
mod tests {
    use super::parse_memory_budget;

    #[test]
    fn parses_plain_byte_counts() {
        assert_eq!(parse_memory_budget("0"), Some(0));
        assert_eq!(parse_memory_budget("1"), Some(1));
        assert_eq!(parse_memory_budget("1048576"), Some(1 << 20));
        assert_eq!(parse_memory_budget("  42  "), Some(42));
    }

    #[test]
    fn suffixes_are_case_insensitive() {
        for (s, expected) in [
            ("256k", 256usize * 1024),
            ("256K", 256 * 1024),
            ("64m", 64 << 20),
            ("64M", 64 << 20),
            ("2g", 2 << 30),
            ("2G", 2 << 30),
            ("0K", 0),
            ("0G", 0),
            (" 8 M ", 8 << 20),
        ] {
            assert_eq!(parse_memory_budget(s), Some(expected), "input {s:?}");
        }
    }

    #[test]
    fn overflow_is_rejected_not_wrapped() {
        // u64::MAX + 1: the numeric parse itself overflows.
        assert_eq!(parse_memory_budget("18446744073709551616"), None);
        // Fits as a number, overflows once the suffix multiplies it.
        assert_eq!(parse_memory_budget("99999999999999999999g"), None);
        assert_eq!(parse_memory_budget("18446744073709551615k"), None);
        // Near-miss sanity: a large-but-valid value still parses (the
        // ISSUE's "999999999g" example fits in 64 bits: ~2^60).
        assert_eq!(parse_memory_budget("999999999g"), Some(999_999_999 << 30));
    }

    #[test]
    fn garbage_is_rejected() {
        for s in [
            "", " ", "k", "g", "lots", "1.5g", "-5", "-5m", "0x10", "12kb", "m8", "8 8m",
        ] {
            assert_eq!(parse_memory_budget(s), None, "input {s:?}");
        }
    }
}
