//! The measuring process: set-up time and the timed closed loop, and in
//! the traced run the per-layer metrics, the scan replay with its
//! fidelity checks, and span self times.

use crate::dataset::{self, Dataset};
use crate::oracle::Answer;
use crate::replay::{self, scan_paths, LayerTimes, Replay};
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats::{beyond, mean, median, quantile, spread};
use crate::workload::{BenchQuery, ServiceMix, Workload, SERVICE_CLIENTS};
use dataflow::{JobStats, SpillConfig, TraceBuffer, TraceEvent};
use jdm::ProjectionPath;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vxq_core::{
    Engine, EngineConfig, ExecOptions, QueryOptions, QueryResult, QueryService, ScanOptions,
    ServiceConfig,
};

/// Scan replays per projection path in the traced run.
const REPLAY_REPS: usize = 7;

/// Operators whose busy time, emit stall and output the traced run
/// prints, whether the workload runs them or not.
const OPERATORS: [&str; 9] = [
    "select",
    "assign",
    "unnest",
    "hash-group-by",
    "hash-join",
    "aggregate",
    "exchange-hash",
    "exchange-merge",
    "sink",
];

/// One measuring run.
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The run's work directory, holding the prepared dataset and answers.
    pub work: PathBuf,
    /// Where the traced run writes its spans, one JSON object per line.
    pub spans: Option<PathBuf>,
}

/// Measure one workload and print its metrics, the result line last.
pub fn run(opts: &Options) -> Result<(), String> {
    let w = opts.workload;
    let mut report = Report::default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.line(format!(
        "perfbench workload={} seed={} seconds={} trace={} cores={cores}",
        w.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    ));
    let data = Dataset::open(&dataset::data_root(&opts.work))
        .map_err(|e| format!("opening the dataset: {e}"))?;
    report.line(data.describe(w, opts.seed));
    let expected = dataset::read_expected(&opts.work)?;
    let tracer = Tracer::new();
    let outcome = match w {
        Workload::ServiceSmall => service(opts, &data, &expected, &tracer, &mut report)?,
        _ => sequential(opts, &data, &expected, &tracer, &mut report)?,
    };
    let tally = outcome.tally;
    report.metric(
        "peak_rss_mb",
        peak_rss_mib()?,
        "MiB",
        "VmHWM of the measuring process",
    );
    report.line(format!(
        "failed_share = {} ({} of {} attempted){}",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted,
        tally
            .first_error
            .as_deref()
            .map_or(String::new(), |e| format!("; first: {e}"))
    ));
    if opts.trace {
        print_self_times(&report, &tracer);
        if let Some(path) = &opts.spans {
            tracer
                .write_jsonl(path)
                .map_err(|e| format!("writing spans: {e}"))?;
            report.line(format!("spans written to {}", path.display()));
        }
    }
    let names = if opts.trace { PER_LAYER } else { END_TO_END };
    let correct = tally.failed == 0 && outcome.fidelity_ok;
    println!(
        "{}",
        report.result_json(names, correct, tally.attempted, tally.failed)?
    );
    Ok(())
}

struct Outcome {
    tally: Tally,
    /// Whether the scan replay matched the engine's own scans.
    fidelity_ok: bool,
}

/// Queries attempted, and those that failed: errors, rejections and
/// wrong answers.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    /// Count one query and check its outcome; true when the answer is right.
    fn check(
        &mut self,
        q: &BenchQuery,
        expected: &Answer,
        outcome: Result<&QueryResult, String>,
    ) -> bool {
        self.attempted += 1;
        let error = match outcome {
            Ok(result) => {
                let got = Answer::observed(&q.kind, &result.rows);
                if got.matches(expected) {
                    return true;
                }
                format!("{}: answer {got:?}, expected {expected:?}", q.label)
            }
            Err(e) => format!("{}: {e}", q.label),
        };
        self.failed += 1;
        self.first_error.get_or_insert(error);
        false
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// One correctly answered query of the timed loop.
struct Sample {
    /// 0 for side A, 1 for side B (see `Workload::side_names`).
    side: usize,
    traced: bool,
    ms: f64,
}

/// Latencies of the samples on `side` (both sides for `None`).
fn pick(samples: &[Sample], side: Option<usize>, traced: bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.traced == traced && (side.is_none() || side == Some(s.side)))
        .map(|s| s.ms)
        .collect()
}

fn engine_config(w: Workload, work: &Path) -> EngineConfig {
    EngineConfig {
        cluster: w.cluster(),
        data_root: dataset::data_root(work),
        // Unlimited: `run.py` clears VXQ_MEM_BUDGET, the fallback for 0.
        memory_budget: 0,
        scan: ScanOptions::default(),
        spill: SpillConfig {
            dir: Some(work.join("spill")),
            ..SpillConfig::default()
        },
        ..EngineConfig::default()
    }
}

/// Prepare and execute one query untraced; the result and its wall time
/// in ms.
fn plain(engine: &Engine, q: &BenchQuery) -> (Result<QueryResult, String>, f64) {
    let started = Instant::now();
    let result = engine
        .prepare(&q.text, None)
        .and_then(|p| engine.execute_prepared(&p, None, ExecOptions::default()));
    (
        result.map_err(|e| e.to_string()),
        started.elapsed().as_secs_f64() * 1e3,
    )
}

/// [`plain`] with a span around each public call plus the engine's own
/// lifecycle and task spans, and the query folded into `layers`.
fn traced(
    engine: &Engine,
    q: &BenchQuery,
    qid: u64,
    tracer: &Tracer,
    layers: &mut Layers,
    partitions: usize,
) -> (Result<QueryResult, String>, f64) {
    let root = tracer.id();
    let t0 = tracer.now_ns();
    let trace = Arc::new(TraceBuffer::new());
    let origin = tracer.now_ns();
    let prepared = engine.prepare(&q.text, Some(&*trace));
    let t1 = tracer.now_ns();
    let result = prepared
        .and_then(|p| engine.execute_prepared(&p, Some(&trace), ExecOptions::default()));
    let t2 = tracer.now_ns();
    let front = tracer.span(Some(root), qid, "engine.prepare", t0, t1);
    let back = tracer.span(Some(root), qid, "engine.execute_prepared", t1, t2);
    tracer.record(root, None, qid, "query", t0, t2);
    let events = trace.events();
    tracer.import_engine(&events, origin, qid, front, back);
    let ms = (t2 - t0) as f64 / 1e6;
    if let Ok(r) = &result {
        let compile_ms = span_us(&events, "compile").unwrap_or(0.0) / 1e3;
        let run_ms = (t2 - t1) as f64 / 1e6 - compile_ms;
        layers.add(q.label, &events, &r.stats, partitions, ms, run_ms);
    }
    (result.map_err(|e| e.to_string()), ms)
}

/// scan_select and join_aggregate: one client alternating the two
/// queries of the workload on one engine.
fn sequential(
    opts: &Options,
    data: &Dataset,
    expected: &[Answer],
    tracer: &Tracer,
    report: &mut Report,
) -> Result<Outcome, String> {
    let w = opts.workload;
    let pass = w.pass();
    if expected.len() != pass.len() {
        return Err(format!(
            "{} expected answers for {} queries",
            expected.len(),
            pass.len()
        ));
    }
    let config = engine_config(w, &opts.work);
    let mut tally = Tally::default();

    // Set-up: a new engine plus one cold pass; answers are checked once
    // the clock has stopped.
    let mut setups = Vec::new();
    for _ in 0..w.setup_reps() {
        let started = Instant::now();
        let engine = Engine::new(config.clone());
        let results: Vec<_> = pass.iter().map(|q| plain(&engine, q).0).collect();
        setups.push(started.elapsed().as_secs_f64());
        for ((q, exp), r) in pass.iter().zip(expected).zip(&results) {
            tally.check(q, exp, r.as_ref().map_err(Clone::clone));
        }
    }

    let engine = Engine::new(config);
    // Warm-up pass: the scan buffer pool fills, and each query's
    // DATASCANs are read off its plan.
    let mut scans = Vec::new();
    for (q, exp) in pass.iter().zip(expected) {
        let prepared = engine
            .prepare(&q.text, None)
            .map_err(|e| format!("{}: {e}", q.label))?;
        scans.push(scan_paths(&prepared.plan));
        let r = engine
            .execute_prepared(&prepared, None, ExecOptions::default())
            .map_err(|e| e.to_string());
        tally.check(q, exp, r.as_ref().map_err(Clone::clone));
    }

    let partitions = w.cluster().total_partitions();
    let mut layers = Layers::default();
    let mut samples = Vec::new();
    let (mut bytes, mut busy_s) = (0u64, 0f64);
    let started = Instant::now();
    let deadline = started + Duration::from_secs(opts.seconds);
    let mut round = 0u64;
    while round == 0 || Instant::now() < deadline {
        // Traced rounds alternate with untraced ones, so both halves see
        // the same drift.
        let is_traced = opts.trace && round % 2 == 1;
        for (side, (q, exp)) in pass.iter().zip(expected).enumerate() {
            let qid = round * pass.len() as u64 + side as u64;
            let (r, ms) = if is_traced {
                traced(&engine, q, qid, tracer, &mut layers, partitions)
            } else {
                plain(&engine, q)
            };
            if tally.check(q, exp, r.as_ref().map_err(Clone::clone)) {
                samples.push(Sample {
                    side,
                    traced: is_traced,
                    ms,
                });
                bytes += data.bytes * scans[side].len() as u64;
                busy_s += ms / 1e3;
            }
        }
        round += 1;
    }
    let wall = started.elapsed().as_secs_f64();

    if !opts.trace {
        report.metric(
            "setup_s",
            median(&setups),
            "s",
            format!(
                "median of {} set-ups: Engine::new plus one cold pass",
                setups.len()
            ),
        );
        end_to_end(report, w, &samples, wall, bytes, busy_s);
        return Ok(Outcome {
            tally,
            fidelity_ok: true,
        });
    }
    trace_overhead(report, &samples, Some(0), pass[0].label);
    layers.report(report, false);
    let queries: Vec<_> = pass
        .iter()
        .zip(&scans)
        .filter_map(|(q, s)| Some((q.label, s.first()?.clone(), s.len())))
        .collect();
    let e2e: Vec<_> = (0..pass.len())
        .map(|side| {
            (
                format!(
                    "e2e wall {}, {partitions} partitions, untraced",
                    pass[side].label
                ),
                pick(&samples, Some(side), false),
            )
        })
        .collect();
    let fidelity_ok = scan_layers(report, data, &queries, &layers, &e2e)?;
    Ok(Outcome { tally, fidelity_ok })
}

/// The end-to-end metrics of the untraced run.
fn end_to_end(
    report: &mut Report,
    w: Workload,
    samples: &[Sample],
    wall: f64,
    bytes: u64,
    busy_s: f64,
) {
    let names = w.side_names();
    let pct = w.tail_pct();
    for (side, key) in ["qa", "qb"].into_iter().enumerate() {
        let s = pick(samples, Some(side), false);
        report.metric(
            &format!("{key}_p50_ms"),
            median(&s),
            "ms",
            format!("{}_p50_ms, n={}", names[side], s.len()),
        );
        report.metric(
            &format!("{key}_tail_ms"),
            quantile(&s, pct / 100.0),
            "ms",
            format!(
                "{}_tail_ms = p{pct}, {} samples beyond",
                names[side],
                beyond(&s, pct)
            ),
        );
    }
    report.metric(
        "qps",
        samples.len() as f64 / wall,
        "1/s",
        format!("{} correct completions in {wall:.2} s", samples.len()),
    );
    report.metric(
        "scan_mbps",
        bytes as f64 / busy_s / 1e6,
        "MB/s",
        format!("{bytes} input bytes read over {busy_s:.2} s of query wall time"),
    );
}

/// The shared state of the service workload's client threads.
struct ServiceRun<'a> {
    svc: &'a QueryService,
    mix: &'a ServiceMix,
    expected: &'a [Answer],
    /// DATASCANs per query label.
    scans: HashMap<&'static str, u64>,
    data_bytes: u64,
    deadline: Instant,
    trace: bool,
    tracer: &'a Tracer,
    layers: Mutex<Layers>,
}

/// What one service client saw.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    samples: Vec<Sample>,
    bytes: u64,
    busy_s: f64,
}

impl ServiceRun<'_> {
    /// One closed-loop client: submit, wait for the reply, check it, and
    /// send the next query of its stream, until the deadline.
    fn client(&self, id: usize) -> ClientLog {
        let stream = &self.mix.streams[id];
        let mut log = ClientLog::default();
        let mut k = 0;
        while Instant::now() < self.deadline {
            let qi = stream[k % stream.len()];
            let q = &self.mix.queries[qi];
            let is_traced = self.trace && k % 2 == 1;
            let qid = ((id as u64) << 32) | k as u64;
            k += 1;
            let options = QueryOptions {
                collect_trace: is_traced,
                ..QueryOptions::default()
            };
            let t0 = self.tracer.now_ns();
            let ticket = self.svc.submit(&q.text, options);
            let t1 = self.tracer.now_ns();
            let outcome = ticket.and_then(|t| t.wait());
            let t2 = self.tracer.now_ns();
            let resp = match outcome {
                Ok(resp) => resp,
                Err(e) => {
                    log.tally.check(q, &self.expected[qi], Err(e.to_string()));
                    continue;
                }
            };
            if !log.tally.check(q, &self.expected[qi], Ok(&resp.result)) {
                continue;
            }
            let ms = (t2 - t0) as f64 / 1e6;
            log.samples.push(Sample {
                side: usize::from(!resp.cache_hit),
                traced: is_traced,
                ms,
            });
            log.bytes += self.data_bytes * self.scans.get(q.label).copied().unwrap_or(0);
            log.busy_s += ms / 1e3;
            if let Some(trace) = &resp.trace {
                let root = self.tracer.id();
                self.tracer.span(Some(root), qid, "service.submit", t0, t1);
                let wait = self.tracer.span(Some(root), qid, "service.wait", t1, t2);
                self.tracer.record(root, None, qid, "query", t0, t2);
                let events = trace.events();
                // The worker starts the trace buffer just before it starts
                // the clock behind `elapsed`.
                let origin = t2.saturating_sub(resp.elapsed.as_nanos() as u64);
                self.tracer.import_engine(&events, origin, qid, wait, wait);
                let run_ms = span_us(&events, "execute").unwrap_or(0.0) / 1e3;
                let exec_ms = resp.elapsed.as_secs_f64() * 1e3;
                let mut layers = self
                    .layers
                    .lock()
                    .expect("no client panics while holding the layer totals");
                layers.add(q.label, &events, &resp.result.stats, 1, exec_ms, run_ms);
                layers
                    .queue_wait_ms
                    .push(resp.queue_wait.as_secs_f64() * 1e3);
            }
        }
        log
    }
}

/// service_small: two closed-loop clients against one `QueryService`.
fn service(
    opts: &Options,
    data: &Dataset,
    expected: &[Answer],
    tracer: &Tracer,
    report: &mut Report,
) -> Result<Outcome, String> {
    let w = opts.workload;
    let mix = ServiceMix::new(opts.seed);
    if expected.len() != mix.queries.len() {
        return Err(format!(
            "{} expected answers for {} queries",
            expected.len(),
            mix.queries.len()
        ));
    }
    let config = engine_config(w, &opts.work);
    let svc_config = ServiceConfig {
        max_concurrent: SERVICE_CLIENTS,
        ..ServiceConfig::default()
    };
    let pass = &mix.queries[..w.pass().len()];
    let mut tally = Tally::default();

    let mut setups = Vec::new();
    for _ in 0..w.setup_reps() {
        let started = Instant::now();
        let svc = QueryService::new(Engine::new(config.clone()), svc_config.clone());
        let results: Vec<_> = pass
            .iter()
            .map(|q| svc.execute(&q.text, QueryOptions::default()))
            .collect();
        setups.push(started.elapsed().as_secs_f64());
        for ((q, exp), r) in pass.iter().zip(expected).zip(&results) {
            let r = r.as_ref().map(|r| &r.result).map_err(|e| e.to_string());
            tally.check(q, exp, r);
        }
    }

    let svc = QueryService::new(Engine::new(config), svc_config);
    // Warm-up: the five sensor queries enter the plan cache, so that
    // their repeats hit.
    for (q, exp) in pass.iter().zip(expected) {
        let r = svc.execute(&q.text, QueryOptions::default());
        tally.check(q, exp, r.as_ref().map(|r| &r.result).map_err(|e| e.to_string()));
    }
    let mut paths: HashMap<&'static str, Vec<ProjectionPath>> = HashMap::new();
    for q in &mix.queries {
        if !paths.contains_key(q.label) {
            let prepared = svc
                .engine()
                .prepare(&q.text, None)
                .map_err(|e| format!("{}: {e}", q.label))?;
            paths.insert(q.label, scan_paths(&prepared.plan));
        }
    }

    let before = svc.snapshot();
    let run = ServiceRun {
        svc: &svc,
        mix: &mix,
        expected,
        scans: paths.iter().map(|(l, p)| (*l, p.len() as u64)).collect(),
        data_bytes: data.bytes,
        deadline: Instant::now() + Duration::from_secs(opts.seconds),
        trace: opts.trace,
        tracer,
        layers: Mutex::default(),
    };
    let started = Instant::now();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SERVICE_CLIENTS)
            .map(|id| {
                let run = &run;
                s.spawn(move || run.client(id))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a service client thread panicked".to_string())
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let wall = started.elapsed().as_secs_f64();
    let after = svc.snapshot();
    let layers = run
        .layers
        .into_inner()
        .map_err(|_| "a client panicked holding the layer totals".to_string())?;
    let (mut samples, mut bytes, mut busy_s) = (Vec::new(), 0, 0.0);
    for log in logs {
        tally.merge(log.tally);
        samples.extend(log.samples);
        bytes += log.bytes;
        busy_s += log.busy_s;
    }
    let hits = after.plan_cache_hits - before.plan_cache_hits;
    let lookups = hits + after.plan_cache_misses - before.plan_cache_misses;
    let hit_note = format!("{hits} hits of {lookups} plan-cache lookups");
    let hit_ratio = hits as f64 / lookups.max(1) as f64;
    let pct = w.tail_pct();

    if !opts.trace {
        report.metric(
            "setup_s",
            median(&setups),
            "s",
            format!(
                "median of {} set-ups: QueryService::new plus one cold pass over the five sensor queries",
                setups.len()
            ),
        );
        end_to_end(report, w, &samples, wall, bytes, busy_s);
        let all = pick(&samples, None, false);
        report.metric(
            "svc_p50_ms",
            median(&all),
            "ms",
            format!("all queries, n={}", all.len()),
        );
        report.metric(
            "svc_tail_ms",
            quantile(&all, pct / 100.0),
            "ms",
            format!("p{pct}, {} samples beyond", beyond(&all, pct)),
        );
        report.metric("vxq_core.plan_cache_hit_ratio", hit_ratio, "ratio", hit_note);
        return Ok(Outcome {
            tally,
            fidelity_ok: true,
        });
    }
    trace_overhead(report, &samples, None, "all queries");
    layers.report(report, true);
    report.metric("vxq_core.plan_cache_hit_ratio", hit_ratio, "ratio", hit_note);
    let waits = &layers.queue_wait_ms;
    report.metric(
        "vxq_core.queue_wait_p50_ms",
        median(waits),
        "ms",
        format!("traced queries, n={}", waits.len()),
    );
    report.metric(
        "vxq_core.queue_wait_tail_ms",
        quantile(waits, pct / 100.0),
        "ms",
        format!("p{pct}"),
    );
    let queries: Vec<_> = pass
        .iter()
        .filter_map(|q| {
            let p = &paths[q.label];
            Some((q.label, p.first()?.clone(), p.len()))
        })
        .collect();
    let e2e = [
        (
            "e2e wall, plan-cache hits, untraced".to_string(),
            pick(&samples, Some(0), false),
        ),
        (
            "e2e wall, plan-cache misses, untraced".to_string(),
            pick(&samples, Some(1), false),
        ),
    ];
    let fidelity_ok = scan_layers(report, data, &queries, &layers, &e2e)?;
    Ok(Outcome { tally, fidelity_ok })
}

/// The traced run's median over the untraced one.
fn trace_overhead(report: &mut Report, samples: &[Sample], side: Option<usize>, what: &str) {
    let plain = median(&pick(samples, side, false));
    let traced = median(&pick(samples, side, true));
    report.metric(
        "trace_overhead",
        traced / plain,
        "ratio",
        format!("{what}: median {traced:.3} ms traced over {plain:.3} ms untraced"),
    );
}

/// The duration of the engine's lifecycle span `name`, in µs.
fn span_us(events: &[TraceEvent], name: &str) -> Option<f64> {
    events
        .iter()
        .find(|e| e.cat == "lifecycle" && e.name == name)
        .map(|e| e.dur_us as f64)
}

/// One engine scan of a query, from its split profiles.
struct EngineScan {
    tuples: u64,
    index: Duration,
    kernels: Vec<&'static str>,
}

/// Per-layer totals over the traced queries.
#[derive(Default)]
struct Layers {
    queries: u64,
    parse_us: Vec<f64>,
    translate_us: Vec<f64>,
    optimize_us: Vec<f64>,
    rule_firings: Vec<f64>,
    compile_us: Vec<f64>,
    exec_ms: Vec<f64>,
    run_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    cpu_s: f64,
    /// Run wall time × partitions, summed.
    capacity_s: f64,
    split_skew: Vec<f64>,
    network_bytes: Vec<f64>,
    frames_shipped: Vec<f64>,
    peak_mem: usize,
    peak_cached: usize,
    spill_bytes: u64,
    /// Per operator: busy ms, emit-stall ms and tuples out, summed.
    ops: BTreeMap<String, [f64; 3]>,
    queue_wait_ms: Vec<f64>,
    /// Per query label, the engine's scans (for the fidelity checks).
    scans: HashMap<&'static str, Vec<EngineScan>>,
}

impl Layers {
    /// Fold in one traced query: its engine spans and job statistics.
    fn add(
        &mut self,
        label: &'static str,
        events: &[TraceEvent],
        stats: &JobStats,
        partitions: usize,
        exec_ms: f64,
        run_ms: f64,
    ) {
        self.queries += 1;
        if let Some(us) = span_us(events, "parse") {
            self.parse_us.push(us);
        }
        if let Some(us) = span_us(events, "translate") {
            self.translate_us.push(us);
        }
        if let Some(us) = span_us(events, "optimize") {
            self.optimize_us.push(us);
            let firings = events.iter().filter(|e| e.cat == "rule").count();
            self.rule_firings.push(firings as f64);
        }
        if let Some(us) = span_us(events, "compile") {
            self.compile_us.push(us);
        }
        self.exec_ms.push(exec_ms);
        self.run_ms.push(run_ms);
        let cpu = stats.cpu_total.as_secs_f64();
        self.cpu_ms.push(cpu * 1e3);
        self.cpu_s += cpu;
        self.capacity_s += stats.wall_elapsed.as_secs_f64() * partitions as f64;
        let splits = &stats.profile.splits;
        if !splits.is_empty() {
            let elapsed: Vec<f64> = splits.iter().map(|s| s.elapsed.as_secs_f64()).collect();
            let slowest = elapsed.iter().copied().fold(0.0, f64::max);
            self.split_skew.push(slowest / mean(&elapsed));
        }
        self.network_bytes.push(stats.network_bytes as f64);
        self.frames_shipped.push(stats.frames_shipped as f64);
        self.peak_mem = self.peak_mem.max(stats.peak_memory);
        self.peak_cached = self.peak_cached.max(stats.peak_cached);
        self.spill_bytes += stats.spill.bytes_spilled;
        for s in stats.profile.summaries() {
            let op = self.ops.entry(s.name.to_ascii_lowercase()).or_default();
            op[0] += s.busy.as_secs_f64() * 1e3;
            op[1] += s.emit_stall.as_secs_f64() * 1e3;
            op[2] += s.tuples_out as f64;
        }
        self.scans.entry(label).or_default().push(EngineScan {
            tuples: splits.iter().map(|s| s.tuples).sum(),
            index: splits.iter().map(|s| s.index_elapsed).sum(),
            kernels: splits.iter().filter_map(|s| s.kernel).collect(),
        });
    }

    fn report(&self, report: &mut Report, service: bool) {
        let n = self.queries as f64;
        report.line(format!(
            "== per layer: means over {} traced queries ==",
            self.queries
        ));
        report.metric(
            "jsoniq.parse_us",
            mean(&self.parse_us),
            "us",
            format!("{} parses", self.parse_us.len()),
        );
        report.metric("jsoniq.translate_us", mean(&self.translate_us), "us", "");
        report.metric(
            "algebra.optimize_us",
            mean(&self.optimize_us),
            "us",
            "RuleSet::optimize_traced",
        );
        report.metric(
            "algebra.rule_firings",
            mean(&self.rule_firings),
            "count",
            "per optimize",
        );
        report.metric(
            "vxq_core.compile_us",
            mean(&self.compile_us),
            "us",
            "compile::compile_plan",
        );
        let (exec, run) = if service {
            ("ServiceResponse.elapsed", "the engine's execute span")
        } else {
            (
                "prepare + execute_prepared wall",
                "execute_prepared wall minus compile",
            )
        };
        report.metric("vxq_core.exec_ms", mean(&self.exec_ms), "ms", exec);
        report.metric("dataflow.run_ms", mean(&self.run_ms), "ms", run);
        report.metric(
            "dataflow.cpu_ms",
            mean(&self.cpu_ms),
            "ms",
            "JobStats.cpu_total",
        );
        report.metric(
            "dataflow.busy_share",
            self.cpu_s / self.capacity_s,
            "ratio",
            format!(
                "{:.1} ms task CPU over {:.1} ms run wall x partitions",
                self.cpu_s * 1e3,
                self.capacity_s * 1e3
            ),
        );
        report.metric(
            "dataflow.split_skew",
            mean(&self.split_skew),
            "ratio",
            "slowest over mean SplitProfile.elapsed",
        );
        report.metric(
            "dataflow.network_bytes",
            mean(&self.network_bytes),
            "bytes",
            "cross-node exchange bytes",
        );
        report.metric(
            "dataflow.frames_shipped",
            mean(&self.frames_shipped),
            "count",
            "",
        );
        report.metric(
            "dataflow.peak_mem_bytes",
            self.peak_mem as f64,
            "bytes",
            "max over traced queries",
        );
        report.metric(
            "dataflow.peak_cached_bytes",
            self.peak_cached as f64,
            "bytes",
            "max over traced queries",
        );
        report.metric(
            "dataflow.spill_bytes",
            self.spill_bytes as f64,
            "bytes",
            "all traced queries; 0 at unlimited memory",
        );
        for op in OPERATORS {
            let [busy, stall, tuples] = self.ops.get(op).copied().unwrap_or_default();
            report.metric(&format!("dataflow.{op}.busy_ms"), busy / n, "ms", "");
            report.metric(&format!("dataflow.{op}.stall_ms"), stall / n, "ms", "");
            report.metric(
                &format!("dataflow.{op}.tuples_out"),
                tuples / n,
                "count",
                "",
            );
        }
        for (op, [busy, stall, tuples]) in &self.ops {
            if !OPERATORS.contains(&op.as_str()) {
                report.line(format!(
                    "dataflow.{op}: busy {:.3} ms, stall {:.3} ms, {:.1} tuples out",
                    busy / n,
                    stall / n,
                    tuples / n
                ));
            }
        }
    }
}

/// Milliseconds of one replayed layer, per replay.
fn layer_ms(reps: &[Replay], layer: fn(&LayerTimes) -> Duration) -> Vec<f64> {
    reps.iter()
        .map(|r| layer(&r.times).as_secs_f64() * 1e3)
        .collect()
}

/// A median with its spread, as the baseline table prints them.
fn cell(samples: &[f64]) -> String {
    format!(
        "{:.2} ({:.1}%)",
        median(samples),
        spread(samples) * 100.0
    )
}

/// Replay the scan along each query's projection path, check the replay
/// against the engine's own scans of that query, and print the scan
/// layer metrics (of the first query) and the ROADMAP baseline rows.
/// Returns whether every fidelity check held.
fn scan_layers(
    report: &mut Report,
    data: &Dataset,
    queries: &[(&'static str, ProjectionPath, usize)],
    layers: &Layers,
    e2e: &[(String, Vec<f64>)],
) -> Result<bool, String> {
    let stage1 = ScanOptions::default().stage1;
    let mut replays: Vec<(ProjectionPath, Vec<Replay>)> = Vec::new();
    let mut fidelity_ok = !queries.is_empty();
    for (label, path, scans) in queries {
        if !replays.iter().any(|(p, _)| p == path) {
            let reps = (0..REPLAY_REPS)
                .map(|_| replay::replay(&data.files, path, stage1, "date"))
                .collect::<Result<Vec<_>, _>>()?;
            replays.push((path.clone(), reps));
        }
        let r = &replays
            .iter()
            .find(|(p, _)| p == path)
            .expect("replayed above")
            .1[0];
        let engine = layers.scans.get(label).map_or(&[][..], Vec::as_slice);
        let want = r.items * *scans as u64;
        let tuples_ok = !engine.is_empty() && engine.iter().all(|s| s.tuples == want);
        let kernel_ok = !engine.is_empty()
            && engine
                .iter()
                .all(|s| !s.kernels.is_empty() && s.kernels.iter().all(|k| *k == r.kernel));
        fidelity_ok &= tuples_ok && kernel_ok;
        report.line(format!(
            "fidelity {label}: replay kernel {} {} SplitProfile.kernel; replay items {} x {scans} DATASCAN(s) {} summed SplitProfile.tuples; {} traced runs",
            r.kernel,
            if kernel_ok { "==" } else { "!=" },
            r.items,
            if tuples_ok { "==" } else { "!=" },
            engine.len()
        ));
    }
    let Some((label, path, scans)) = queries.first() else {
        return Ok(false);
    };
    let reps = &replays
        .iter()
        .find(|(p, _)| p == path)
        .expect("replayed above")
        .1;
    let r = &reps[0];
    let index = layer_ms(reps, |t| t.index);
    let note = format!("{label} path, median of {REPLAY_REPS} replays");
    report.line(format!(
        "== scan layers: replay of {label}'s DATASCAN over {} file(s) ==",
        data.files.len()
    ));
    report.metric(
        "scan.read_ms",
        median(&layer_ms(reps, |t| t.read)),
        "ms",
        &note,
    );
    report.metric("scan.bytes", r.bytes as f64, "bytes", "");
    report.metric(
        "jdm.index_ms",
        median(&index),
        "ms",
        format!("StructuralIndex::build_with, stage-1 kernel {}", r.kernel),
    );
    report.metric(
        "jdm.index_gbps",
        r.bytes as f64 / median(&index) / 1e6,
        "GB/s",
        "",
    );
    report.metric("jdm.tape_entries", r.tape_entries as f64, "count", "");
    report.metric(
        "jdm.record_table_ms",
        median(&layer_ms(reps, |t| t.record_table)),
        "ms",
        "RecordTable::build",
    );
    report.metric("jdm.records", r.records as f64, "count", "");
    report.metric(
        "jdm.materialize_ms",
        median(&layer_ms(reps, |t| t.materialize)),
        "ms",
        "RecordTable::project_range into a sink keeping each Item",
    );
    report.metric("jdm.items", r.items as f64, "count", "");
    report.metric(
        "jdm.encode_ms",
        median(&layer_ms(reps, |t| t.encode)),
        "ms",
        "binary::write_item",
    );
    report.metric("jdm.encoded_bytes", r.encoded_bytes as f64, "bytes", "");
    report.metric(
        "jdm.field_decode_ms",
        median(&layer_ms(reps, |t| t.field_decode)),
        "ms",
        "ItemRef::to_item per encoded record",
    );
    report.metric(
        "jdm.field_get_key_ms",
        median(&layer_ms(reps, |t| t.field_get_key)),
        "ms",
        "ItemRef::get_key(\"date\") per encoded record",
    );
    let engine_index: Vec<f64> = layers
        .scans
        .get(label)
        .map_or(&[][..], Vec::as_slice)
        .iter()
        .map(|s| s.index.as_secs_f64() * 1e3 / *scans as f64)
        .collect();
    report.metric(
        "jdm.replay_vs_engine_index",
        median(&index) / median(&engine_index),
        "ratio",
        format!(
            "replay {:.3} ms over the engine's {:.3} ms (median summed SplitProfile.index_elapsed per DATASCAN)",
            median(&index),
            median(&engine_index)
        ),
    );
    roadmap_table(report, data, queries, &replays, e2e);
    Ok(fidelity_ok)
}

/// The ROADMAP "Baseline measured at this re-anchor" rows: each scan
/// layer per query path, then the end-to-end medians, each with its
/// spread.
fn roadmap_table(
    report: &Report,
    data: &Dataset,
    queries: &[(&'static str, ProjectionPath, usize)],
    replays: &[(ProjectionPath, Vec<Replay>)],
    e2e: &[(String, Vec<f64>)],
) {
    let rows: [(&str, fn(&LayerTimes) -> Duration); 7] = [
        ("file read", |t| t.read),
        ("stage 1 + structural-index build", |t| t.index),
        ("record table", |t| t.record_table),
        ("tape -> Item (project_range)", |t| t.materialize),
        ("+ Item -> binary encode (write_item)", |t| t.encode),
        ("one field read per tuple: ItemRef::to_item", |t| {
            t.field_decode
        }),
        ("the same read via ItemRef::get_key", |t| t.field_get_key),
    ];
    let columns: Vec<String> = replays
        .iter()
        .map(|(path, _)| {
            let labels: Vec<&str> = queries
                .iter()
                .filter(|q| &q.1 == path)
                .map(|q| q.0)
                .collect();
            labels.join("/")
        })
        .collect();
    report.line(format!(
        "== ROADMAP baseline rows: median ms (spread = quartile distance / median), {REPLAY_REPS} replays over {} file(s), {} bytes, kernel {} ==",
        data.files.len(),
        data.bytes,
        replays[0].1[0].kernel
    ));
    report.line(format!("| layer | {} |", columns.join(" | ")));
    report.line(format!("|---|{}", "---|".repeat(columns.len())));
    for (name, layer) in rows {
        let cells: Vec<String> = replays
            .iter()
            .map(|(_, reps)| cell(&layer_ms(reps, layer)))
            .collect();
        report.line(format!("| {name} | {} |", cells.join(" | ")));
    }
    for (name, samples) in e2e {
        report.line(format!(
            "| {name} | {} n={} |",
            cell(samples),
            samples.len()
        ));
    }
    let reps = &replays[0].1;
    let index = median(&layer_ms(reps, |t| t.index));
    let materialize = median(&layer_ms(reps, |t| t.materialize));
    let decode = median(&layer_ms(reps, |t| t.field_decode));
    let get_key = median(&layer_ms(reps, |t| t.field_get_key));
    report.line(format!(
        "ordering ({}): tape -> Item {materialize:.2} ms {} the index build {index:.2} ms; field decode {decode:.2} ms = {:.1} x get_key {get_key:.2} ms",
        columns[0],
        if materialize > index { "above" } else { "NOT above" },
        decode / get_key
    ));
}

fn print_self_times(report: &Report, tracer: &Tracer) {
    let mut totals: Vec<_> = tracer.totals().into_iter().collect();
    totals.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns));
    report.line("== span self time: duration minus what child spans cover (top 25) ==");
    report.line(format!(
        "{:<48} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    ));
    for (name, t) in totals.iter().take(25) {
        report.line(format!(
            "{name:<48} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
}

/// This process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading the process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in the process status".to_string())
}
