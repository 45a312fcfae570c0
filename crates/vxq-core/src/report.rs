//! One query report: every metric of a [`QueryResult`] and of a
//! [`ServiceSnapshot`] is defined here once (name, unit and clock, help
//! text, and how to read its value), and three renderers walk those
//! definitions: the EXPLAIN ANALYZE text ([`Report::text`],
//! [`render_analysis`]), one JSON object ([`Report::json`]) and the
//! Prometheus text exposition ([`Report::prometheus`]).
//!
//! A report is a list of sections. A section holds either one set of
//! scalars (job totals, spill summary, stage-1 rollup, service counters,
//! latency summaries) or a table (operators, scan splits, spilling
//! operators, rule firings) whose label fields identify each row. A
//! metric has one name in every rendering:
//!
//! * JSON: the job totals and service counters are top-level keys next to
//!   `query`; a scalar section is an object (`"spill": {...}`), a table
//!   an array of row objects (`"op": [{...}]`). Times are integer
//!   microseconds, with `_us` after the name.
//! * Prometheus: one gauge family per metric, `vxq_<section>_<name>`
//!   (`vxq_service_...` for the service), times in seconds with
//!   `_seconds` after the name. Samples carry the `query` label and the
//!   row's label fields.
//! * Text: a table's column header is the JSON key; a scalar prints as
//!   `name: value`, with spaces for `_` and a `_bytes` suffix printed as
//!   ` B` after the value.
//!
//! Every time names its clock, in the HELP line and in the text legend
//! under the `== runtime` header:
//!
//! * wall (`Instant`): operator `busy`/`stall`, split `busy`/`idx`, the
//!   stage-1 `index` rollup, rule `duration`, `wall_elapsed` and the
//!   service's `latency` and `queue_wait` percentiles;
//! * thread CPU: `cpu_total`, summed over worker tasks;
//! * simulated: `elapsed`, the cluster model's makespan over task CPU
//!   times (see [`dataflow::cputime`]).

use crate::engine::QueryResult;
use crate::service::{LatencySummary, ServiceSnapshot};
use algebra::rules::RuleFiring;
use dataflow::profile::{OpSummary, SplitProfile};
use dataflow::spill::{SpillOpProfile, SpillSummary};
use dataflow::trace::escape_json;
use dataflow::JobStats;
use std::fmt::Write as _;
use std::time::Duration;
use Cell::{Num, Text};
use Unit::{Bytes, Count, Flag, Gbps, Label, Path, Time};

/// The clocks a time can be read from.
const WALL: &str = "wall (Instant)";
const THREAD_CPU: &str = "thread CPU";
const SIMULATED: &str = "simulated (cluster makespan)";

/// What a field holds; it fixes how each renderer prints the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    /// Identifies a row: a Prometheus label, not a metric.
    Label,
    /// A file path label; the text prints its file name.
    Path,
    Count,
    Bytes,
    /// Seconds on the named clock.
    Time(&'static str),
    /// Gigabytes per second; 0 when nothing was measured.
    Gbps,
    /// 1 or 0.
    Flag,
}

/// One value: a number in the unit's base (seconds, bytes, ...) or text.
enum Cell {
    Num(f64),
    Text(String),
}

/// A field's name, unit and help text: what every renderer reads.
#[derive(Clone, Copy)]
struct Col {
    name: &'static str,
    unit: Unit,
    help: &'static str,
}

impl Col {
    fn is_label(&self) -> bool {
        matches!(self.unit, Label | Path)
    }

    /// The name, with a time's unit after it: `_us` for the JSON key and
    /// text column header, `_seconds` for the Prometheus family.
    fn named(&self, time_unit: &str) -> String {
        match self.unit {
            Time(_) => format!("{}{time_unit}", self.name),
            _ => self.name.to_string(),
        }
    }

    /// The value in a text table cell.
    fn cell_text(&self, v: &Cell) -> String {
        match (self.unit, v) {
            (Path, Text(s)) => match std::path::Path::new(s).file_name() {
                Some(name) => name.to_string_lossy().into_owned(),
                None => s.clone(),
            },
            (_, Text(s)) => s.clone(),
            (Time(_), Num(n)) => format!("{:.1}", n * 1e6),
            (Gbps, Num(n)) if *n > 0.0 => format!("{n:.2}"),
            (Gbps, _) => "-".to_string(),
            (Flag, Num(n)) => (*n != 0.0).to_string(),
            (_, Num(n)) => n.to_string(),
        }
    }

    /// The value as a `name: value` line of the text report.
    fn line_text(&self, v: &Cell) -> String {
        let label = self.name.strip_suffix("_bytes").unwrap_or(self.name);
        let value = match (self.unit, v) {
            (Time(_), Num(n)) => format!("{:?}", Duration::from_secs_f64(*n)),
            (Bytes, _) => format!("{} B", self.cell_text(v)),
            _ => self.cell_text(v),
        };
        format!("{}: {value}", label.replace('_', " "))
    }

    fn json(&self, v: &Cell) -> String {
        match (self.unit, v) {
            (_, Text(s)) => format!("\"{}\"", escape_json(s)),
            (Time(_), Num(n)) => format!("{:.0}", n * 1e6),
            (Gbps, Num(n)) => format!("{n:.3}"),
            (Flag, Num(n)) => (*n != 0.0).to_string(),
            (_, Num(n)) => n.to_string(),
        }
    }
}

/// A Prometheus label, its value escaped (`\`, `"`, newline).
fn label(name: &str, value: &str) -> String {
    let value = value.replace('\\', "\\\\").replace('"', "\\\"");
    format!("{name}=\"{}\"", value.replace('\n', "\\n"))
}

/// A field definition: its [`Col`] and how to read it from a row.
struct Field<R> {
    col: Col,
    get: fn(&R) -> Cell,
}

const fn f<R>(name: &'static str, unit: Unit, help: &'static str, get: fn(&R) -> Cell) -> Field<R> {
    Field {
        col: Col { name, unit, help },
        get,
    }
}

/// A section's definition: where it renders and its fields. A section
/// with label fields is a table; one without is a set of scalars.
struct Def<R: 'static> {
    /// JSON key and Prometheus name prefix; empty for top-level fields.
    key: &'static str,
    /// Text header; empty continues the previous section.
    title: &'static str,
    fields: &'static [Field<R>],
}

fn secs(d: Duration) -> Cell {
    Num(d.as_secs_f64())
}

fn gbps(bytes: u64, elapsed: Duration) -> Cell {
    match elapsed.as_secs_f64() {
        secs if secs > 0.0 => Num(bytes as f64 / secs / 1e9),
        _ => Num(0.0),
    }
}

/// Structural-index builds summed over a job's scan splits.
struct Stage1 {
    bytes: u64,
    elapsed: Duration,
}

/// A rule firing and its position in application order.
type Firing = (usize, RuleFiring);

#[rustfmt::skip]
const RULE: Def<Firing> = Def { key: "rule_firings", title: "== rule firings ==", fields: &[
    f("seq", Label, "", |r| Num(r.0 as f64)),
    f("round", Label, "", |r| Num(r.1.round as f64)),
    f("rule", Label, "", |r| Text(r.1.rule.to_string())),
    f("duration", Time(WALL), "Time of the successful rule application.", |r| secs(r.1.duration)),
    f("nodes_before", Count, "Plan operators before the application.", |r| Num(r.1.nodes_before as f64)),
    f("nodes_after", Count, "Plan operators after the application.", |r| Num(r.1.nodes_after as f64)),
]};

#[rustfmt::skip]
const OP: Def<OpSummary> = Def { key: "op", title: "== runtime (per operator, summed over partitions) ==",
    fields: &[
    f("stage", Label, "", |s| Num(s.stage as f64)),
    f("op", Label, "", |s| Num(s.op_index as f64)),
    f("name", Label, "", |s| Text(s.name.to_string())),
    f("tasks", Count, "Partitions that ran the operator.", |s| Num(s.partitions as f64)),
    f("tuples_in", Count, "Tuples pushed into the operator.", |s| Num(s.tuples_in as f64)),
    f("tuples_out", Count, "Tuples the operator emitted.", |s| Num(s.tuples_out as f64)),
    f("frames_in", Count, "Frames pushed into the operator.", |s| Num(s.frames_in as f64)),
    f("frames_out", Count, "Frames the operator emitted.", |s| Num(s.frames_out as f64)),
    f("bytes_in", Bytes, "Bytes pushed into the operator.", |s| Num(s.bytes_in as f64)),
    f("bytes_out", Bytes, "Bytes the operator emitted.", |s| Num(s.bytes_out as f64)),
    f("busy", Time(WALL), "Time in the operator's own work, over all partitions.", |s| secs(s.busy)),
    f("stall", Time(WALL), "Time pushing downstream, over all partitions.", |s| secs(s.emit_stall)),
]};

#[rustfmt::skip]
const SPLIT: Def<SplitProfile> = Def { key: "split", title: "== scan splits ==", fields: &[
    f("stage", Label, "", |s| Num(s.stage as f64)),
    f("part", Label, "", |s| Num(s.partition as f64)),
    f("file", Path, "", |s| Text(s.file.clone())),
    f("split", Label, "", |s| Text(format!("{}/{}", s.split, s.of))),
    f("records", Count, "Records the split covered.", |s| Num(s.records as f64)),
    f("tuples", Count, "Items the split projected.", |s| Num(s.tuples as f64)),
    f("emitted", Count, "Tuples the split emitted past the scan filter.", |s| Num(s.emitted as f64)),
    f("bytes", Bytes, "Bytes of the file the split covered.", |s| Num(s.bytes as f64)),
    f("busy", Time(WALL), "Time scanning the split.", |s| secs(s.elapsed)),
    f("idx_bytes", Bytes, "Bytes this split ran through the index build.", |s| Num(s.index_bytes as f64)),
    f("idx", Time(WALL), "Time of this split's index build.", |s| secs(s.index_elapsed)),
    f("idx_gbps", Gbps, "This split's index-build throughput.", |s| gbps(s.index_bytes, s.index_elapsed)),
    f("kern", Label, "", |s| Text(s.kernel.unwrap_or("-").to_string())),
]};

#[rustfmt::skip]
const STAGE1: Def<Stage1> = Def { key: "stage1", title: "", fields: &[
    f("indexed_bytes", Bytes, "Bytes run through structural-index builds.", |s| Num(s.bytes as f64)),
    f("index", Time(WALL), "Structural-index build time, summed over splits.", |s| secs(s.elapsed)),
    f("index_gbps", Gbps, "Structural-index build throughput.", |s| gbps(s.bytes, s.elapsed)),
]};

#[rustfmt::skip]
const SPILL: Def<SpillSummary> = Def { key: "spill", title: "== spill ==", fields: &[
    f("budget_bytes", Bytes, "Operator working-state budget (0 = unlimited).", |s| Num(s.budget as f64)),
    f("runs_written", Count, "Run files written by spilling operators.", |s| Num(s.runs_written as f64)),
    f("bytes_spilled", Bytes, "Bytes written to spill run files.", |s| Num(s.bytes_spilled as f64)),
    f("tuples_spilled", Count, "Tuples written to spill run files.", |s| Num(s.tuples_spilled as f64)),
    f("merge_passes", Count, "Intermediate external-sort merge passes.", |s| Num(s.merge_passes as f64)),
    f("max_recursion", Count, "Deepest spill partitioning level reached.", |s| Num(s.max_recursion as f64)),
    f("budget_exceeded", Flag, "1 if an operator without a spill path overran the budget.",
        |s| Num(s.budget_exceeded as u8 as f64)),
]};

#[rustfmt::skip]
const SPILL_OP: Def<SpillOpProfile> = Def { key: "spill_op", title: "", fields: &[
    f("stage", Label, "", |s| Num(s.stage as f64)),
    f("part", Label, "", |s| Num(s.partition as f64)),
    f("op", Label, "", |s| Text(s.op.to_string())),
    f("peak_res", Bytes, "High-water mark of the operator's memory grant.", |s| Num(s.peak_reserved as f64)),
    f("runs", Count, "Run files the operator wrote.", |s| Num(s.runs_written as f64)),
    f("bytes", Bytes, "Bytes the operator spilled.", |s| Num(s.bytes_spilled as f64)),
    f("tuples", Count, "Tuples the operator spilled.", |s| Num(s.tuples_spilled as f64)),
    f("merges", Count, "Intermediate merge passes of the operator.", |s| Num(s.merge_passes as f64)),
    f("depth", Count, "Deepest partitioning level the operator reached.", |s| Num(s.recursion_depth as f64)),
]};

#[rustfmt::skip]
const JOB: Def<JobStats> = Def { key: "", title: "== totals ==", fields: &[
    f("elapsed", Time(SIMULATED), "Job time on the modelled cluster.", |s| secs(s.elapsed)),
    f("wall_elapsed", Time(WALL), "Coordinator wall time of the run.", |s| secs(s.wall_elapsed)),
    f("cpu_total", Time(THREAD_CPU), "CPU time of all worker tasks.", |s| secs(s.cpu_total)),
    f("peak_memory_bytes", Bytes, "Peak materialized bytes in the cluster.", |s| Num(s.peak_memory as f64)),
    f("peak_cached_bytes", Bytes, "Resident scan cache high-water; included in peak_memory_bytes, \
        exempt from the budget.", |s| Num(s.peak_cached as f64)),
    f("network_bytes", Bytes, "Bytes shipped across node boundaries.", |s| Num(s.network_bytes as f64)),
    f("frames_shipped", Count, "Frames sent through exchanges.", |s| Num(s.frames_shipped as f64)),
    f("result_tuples", Count, "Tuples emitted by the final sink.", |s| Num(s.result_tuples as f64)),
    f("bytes_scanned", Bytes, "Raw bytes read by scan sources.", |s| Num(s.bytes_scanned as f64)),
]};

#[rustfmt::skip]
const SERVICE: Def<ServiceSnapshot> = Def { key: "", title: "== service ==", fields: &[
    f("submitted", Count, "Queries offered to the service.", |s| Num(s.submitted as f64)),
    f("rejected", Count, "Submissions refused (queue full or service closed).", |s| Num(s.rejected as f64)),
    f("completed", Count, "Queries that ran to completion.", |s| Num(s.completed as f64)),
    f("failed", Count, "Queries that errored (not cancelled, no deadline).", |s| Num(s.failed as f64)),
    f("cancelled", Count, "Queries cancelled by their client.", |s| Num(s.cancelled as f64)),
    f("deadline_expired", Count, "Queries whose deadline fired.", |s| Num(s.deadline_expired as f64)),
    f("running", Count, "Queries executing right now.", |s| Num(s.running as f64)),
    f("queue_depth", Count, "Queries waiting for a worker right now.", |s| Num(s.queue_depth as f64)),
    f("leaked_bytes", Bytes, "High-water mark of bytes a finished job left allocated (0 = healthy).",
        |s| Num(s.leaked_bytes as f64)),
]};

#[rustfmt::skip]
const PLAN_CACHE: Def<ServiceSnapshot> = Def { key: "plan_cache", title: "== plan cache ==", fields: &[
    f("hits", Count, "Plan-cache lookups that found a prepared plan.", |s| Num(s.plan_cache_hits as f64)),
    f("misses", Count, "Plan-cache lookups that prepared from scratch.", |s| Num(s.plan_cache_misses as f64)),
    f("size", Count, "Plans currently cached.", |s| Num(s.plan_cache_size as f64)),
]};

/// The fields of [`LATENCY`] and [`QUEUE_WAIT`].
#[rustfmt::skip]
const SUMMARY: &[Field<LatencySummary>] = &[
    f("count", Count, "Samples recorded since the service started.", |l| Num(l.count as f64)),
    f("p50", Time(WALL), "Median of the most recent 64 Ki samples.", |l| Num(l.p50_us as f64 / 1e6)),
    f("p95", Time(WALL), "95th percentile of the most recent 64 Ki samples.", |l| Num(l.p95_us as f64 / 1e6)),
    f("p99", Time(WALL), "99th percentile of the most recent 64 Ki samples.", |l| Num(l.p99_us as f64 / 1e6)),
    f("max", Time(WALL), "Largest of the most recent 64 Ki samples.", |l| Num(l.max_us as f64 / 1e6)),
];
/// Worker-side execution latency.
#[rustfmt::skip]
const LATENCY: Def<LatencySummary> = Def { key: "latency", title: "== latency ==", fields: SUMMARY };
/// Time waiting in the admission queue.
#[rustfmt::skip]
const QUEUE_WAIT: Def<LatencySummary> = Def { key: "queue_wait", title: "== queue wait ==", fields: SUMMARY };

/// One section of a report: its fields and their values, row by row.
struct Section {
    key: &'static str,
    title: &'static str,
    /// The text report prints the section.
    text: bool,
    cols: Vec<Col>,
    rows: Vec<Vec<Cell>>,
}

impl<R> Def<R> {
    fn rows(&self, rows: &[R]) -> Section {
        Section {
            key: self.key,
            title: self.title,
            text: !rows.is_empty(),
            cols: self.fields.iter().map(|f| f.col).collect(),
            rows: rows
                .iter()
                .map(|r| self.fields.iter().map(|f| (f.get)(r)).collect())
                .collect(),
        }
    }

    fn one(&self, row: &R) -> Section {
        self.rows(std::slice::from_ref(row))
    }
}

impl Section {
    fn is_table(&self) -> bool {
        self.cols.iter().any(Col::is_label)
    }

    fn shown(self, text: bool) -> Section {
        Section { text, ..self }
    }
}

/// The metrics of one query run or one service snapshot, ready to render
/// as text, JSON or Prometheus exposition.
pub struct Report {
    /// Prometheus family prefix.
    prefix: &'static str,
    /// Labels on every Prometheus sample; the first JSON keys.
    labels: Vec<(&'static str, String)>,
    sections: Vec<Section>,
}

impl Report {
    /// The report of one query run; `query` labels its samples.
    pub fn query(query: &str, r: &QueryResult) -> Report {
        let (st, p) = (&r.stats, &r.stats.profile);
        let spill = st.spill.budget > 0 || st.spill.spilled() || st.spill.budget_exceeded;
        let stage1 = Stage1 {
            bytes: p.splits.iter().map(|s| s.index_bytes).sum(),
            elapsed: p.splits.iter().map(|s| s.index_elapsed).sum(),
        };
        let firings: Vec<Firing> = r.rule_firings.iter().cloned().enumerate().collect();
        Report {
            prefix: "vxq_",
            labels: vec![("query", query.to_string())],
            sections: vec![
                RULE.rows(&firings),
                OP.rows(&p.summaries()),
                SPLIT.rows(&p.splits),
                STAGE1.one(&stage1).shown(!p.splits.is_empty()),
                SPILL.one(&st.spill).shown(spill),
                SPILL_OP
                    .rows(&p.spill_ops)
                    .shown(spill && !p.spill_ops.is_empty()),
                JOB.one(st),
            ],
        }
    }

    /// The report of a [`crate::QueryService`] snapshot.
    pub fn service(s: &ServiceSnapshot) -> Report {
        Report {
            prefix: "vxq_service_",
            labels: Vec::new(),
            sections: vec![
                SERVICE.one(s),
                PLAN_CACHE.one(s),
                LATENCY.one(&s.latency),
                QUEUE_WAIT.one(&s.queue_wait),
            ],
        }
    }

    /// The text report: each printed section under its header, tables
    /// with one column per field, scalars one per line.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for s in self.sections.iter().filter(|s| s.text) {
            if !s.title.is_empty() {
                let _ = writeln!(out, "\n{}", s.title);
            }
            if s.key == OP.key {
                out.push_str(&self.legend());
            }
            if !s.is_table() {
                for (c, v) in s.cols.iter().zip(&s.rows[0]) {
                    let _ = writeln!(out, "{}", c.line_text(v));
                }
                continue;
            }
            let mut lines = vec![s.cols.iter().map(|c| c.named("_us")).collect::<Vec<_>>()];
            for row in &s.rows {
                lines.push(
                    s.cols
                        .iter()
                        .zip(row)
                        .map(|(c, v)| c.cell_text(v))
                        .collect(),
                );
            }
            let widths: Vec<usize> = (0..s.cols.len())
                .map(|i| lines.iter().map(|l| l[i].len()).max().unwrap_or(0))
                .collect();
            for line in &lines {
                let mut text = String::new();
                for ((cell, c), w) in line.iter().zip(&s.cols).zip(&widths) {
                    let _ = match c.is_label() {
                        true => write!(text, "{cell:<w$} "),
                        false => write!(text, "{cell:>w$} "),
                    };
                }
                let _ = writeln!(out, "{}", text.trim_end());
            }
        }
        out
    }

    /// One line naming the clock of every time the text report prints.
    fn legend(&self) -> String {
        let mut parts = Vec::new();
        for clock in [WALL, THREAD_CPU, SIMULATED] {
            let mut names: Vec<String> = Vec::new();
            for s in self.sections.iter().filter(|s| s.text) {
                for c in s.cols.iter().filter(|c| c.unit == Time(clock)) {
                    let name = match s.is_table() {
                        true => c.named("_us"),
                        false => c.name.replace('_', " "),
                    };
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
            }
            if !names.is_empty() {
                parts.push(format!("{clock} = {}", names.join(", ")));
            }
        }
        format!("clocks: {}\n", parts.join("; "))
    }

    /// One JSON object: the labels, the top-level fields, then one object
    /// per scalar section and one array per table.
    pub fn json(&self) -> String {
        let mut parts: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{}\"", escape_json(v)))
            .collect();
        for s in &self.sections {
            let rows: Vec<String> = (s.rows.iter())
                .map(|row| {
                    let pairs: Vec<String> = (s.cols.iter().zip(row))
                        .map(|(c, v)| format!("\"{}\":{}", c.named("_us"), c.json(v)))
                        .collect();
                    format!("{{{}}}", pairs.join(","))
                })
                .collect();
            parts.push(match s.key {
                // A scalar section has one row; at the top level its
                // fields go in without their braces.
                "" => rows[0][1..rows[0].len() - 1].to_string(),
                key if s.is_table() => format!("\"{key}\":[{}]", rows.join(",")),
                key => format!("\"{key}\":{}", rows[0]),
            });
        }
        format!("{{{}}}", parts.join(","))
    }

    /// Prometheus text exposition: one gauge family per metric, with a
    /// HELP line that names a time's clock. Tables without rows are left
    /// out.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for s in self.sections.iter().filter(|s| !s.rows.is_empty()) {
            let prefix = match s.key {
                "" => self.prefix.to_string(),
                key => format!("{}{key}_", self.prefix),
            };
            let labels: Vec<String> = (s.rows.iter())
                .map(|row| {
                    let own = s.cols.iter().zip(row).filter(|(c, _)| c.is_label());
                    let own = own.map(|(c, v)| match v {
                        Text(t) => label(c.name, t),
                        Num(n) => label(c.name, &n.to_string()),
                    });
                    let common = self.labels.iter().map(|(k, v)| label(k, v));
                    let pairs: Vec<String> = common.chain(own).collect();
                    match pairs.is_empty() {
                        true => String::new(),
                        false => format!("{{{}}}", pairs.join(",")),
                    }
                })
                .collect();
            for (i, c) in s.cols.iter().enumerate().filter(|(_, c)| !c.is_label()) {
                let family = format!("{prefix}{}", c.named("_seconds"));
                let clock = match c.unit {
                    Time(clock) => format!(" Clock: {clock}."),
                    _ => String::new(),
                };
                let _ = writeln!(out, "# HELP {family} {}{clock}", c.help);
                let _ = writeln!(out, "# TYPE {family} gauge");
                for (row, labels) in s.rows.iter().zip(&labels) {
                    if let Num(value) = row[i] {
                        let _ = writeln!(out, "{family}{labels} {value}");
                    }
                }
            }
        }
        out
    }
}

/// Render a completed [`QueryResult`] as an EXPLAIN ANALYZE report: the
/// optimized plan, then the text form of its [`Report`].
pub fn render_analysis(result: &QueryResult) -> String {
    let text = Report::query("", result).text();
    format!("== optimized plan ==\n{}\n{text}", result.plan.trim_end())
}
