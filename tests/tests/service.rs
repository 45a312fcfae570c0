//! The concurrent query service exercised end to end: admission control,
//! scheduling, cancellation hygiene, fair memory shares, and the plan
//! cache.
//!
//! The load-bearing test is the differential one: N client threads firing
//! the paper queries through one service — under a budget tight enough to
//! force spilling — must each get rows byte-identical to a serial run of
//! the same query on a private engine.

use dataflow::{ClusterSpec, SpillConfig};
use datagen::SensorSpec;
use integration_tests::scratch_dir;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;
use vxq_core::{
    queries, Engine, EngineConfig, EngineError, Priority, QueryOptions, QueryService, ServiceConfig,
};

/// Engines with `memory_budget: 0` read `VXQ_MEM_BUDGET` at construction;
/// serialize engine construction against that environment variable.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn data_root() -> &'static PathBuf {
    static ROOT: OnceLock<PathBuf> = OnceLock::new();
    ROOT.get_or_init(|| {
        let dir = scratch_dir("service-sensors");
        SensorSpec {
            seed: 97,
            nodes: 2,
            files_per_node: 3,
            records_per_file: 30,
            measurements_per_array: 6,
            stations: 8,
            start_year: 2001,
            years: 6,
        }
        .generate(&dir.join("sensors"))
        .expect("generate dataset");
        dir
    })
}

fn cluster() -> ClusterSpec {
    ClusterSpec {
        nodes: 2,
        partitions_per_node: 2,
        ..Default::default()
    }
}

/// An engine over the shared dataset. `budget == 0` is truly unlimited
/// even when the suite runs with `VXQ_MEM_BUDGET` exported (CI stress
/// leg).
fn engine(budget: usize, spill: SpillConfig) -> Engine {
    let _env = ENV_LOCK.lock().expect("env lock");
    let saved = std::env::var_os("VXQ_MEM_BUDGET");
    std::env::remove_var("VXQ_MEM_BUDGET");
    let e = Engine::new(EngineConfig {
        cluster: cluster(),
        data_root: data_root().clone(),
        memory_budget: budget,
        spill,
        ..EngineConfig::default()
    });
    if let Some(v) = saved {
        std::env::set_var("VXQ_MEM_BUDGET", v);
    }
    e
}

/// Canonical row images, order-insensitive (hash group-by emission order
/// is partition- and timing-dependent).
fn canon(rows: &[Vec<jdm::Item>]) -> Vec<String> {
    let mut v: Vec<String> = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|it| it.to_string())
                .collect::<Vec<_>>()
                .join("\u{1}")
        })
        .collect();
    v.sort();
    v
}

fn spill_dirs_left(root: &PathBuf) -> Vec<String> {
    std::fs::read_dir(root)
        .map(|it| {
            it.filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with("vxq-spill-"))
                .collect()
        })
        .unwrap_or_default()
}

/// A sort query whose working set must materialize (exercises the
/// external sort under squeezed shares).
const SORT_QUERY: &str = r#"
for $r in collection("/sensors")("root")()("results")()
order by $r("value") descending, $r("station"), $r("date")
return $r("value")
"#;

/// The acceptance bar: 8 client threads hammering Q0/Q1/Q2 through one
/// service under a budget that forces spilling return exactly the rows a
/// serial unbudgeted engine returns, and nothing leaks.
#[test]
fn concurrent_clients_match_serial_results() {
    let serial = engine(0, SpillConfig::default());
    let workload = [queries::Q0, queries::Q1, queries::Q2];
    let expected: Vec<Vec<String>> = workload
        .iter()
        .map(|q| canon(&serial.execute(q).expect("serial run").rows))
        .collect();
    // Budget half of Q2's unlimited operator working set, shared by up to
    // 4 concurrent jobs: the heavier queries must spill.
    let st = serial.execute(queries::Q2).expect("probe run").stats;
    let budget = (st.peak_memory.saturating_sub(st.peak_cached) / 2).max(1);

    let scratch = scratch_dir("service-scratch-concurrent");
    let service = QueryService::new(
        engine(
            budget,
            SpillConfig {
                dir: Some(scratch.clone()),
                ..SpillConfig::default()
            },
        ),
        ServiceConfig {
            max_concurrent: 4,
            queue_limit: 256,
            ..ServiceConfig::default()
        },
    );

    let mut any_spilled = false;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|client| {
                let service = &service;
                let workload = &workload;
                s.spawn(move || {
                    let mut out = Vec::new();
                    for round in 0..3 {
                        let qi = (client + round) % workload.len();
                        let resp = service
                            .execute(workload[qi], QueryOptions::default())
                            .expect("service run");
                        out.push((
                            qi,
                            canon(&resp.result.rows),
                            resp.result.stats.spill.spilled(),
                        ));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (qi, rows, spilled) in h.join().expect("client thread") {
                assert_eq!(rows, expected[qi], "query {qi} drifted under concurrency");
                any_spilled |= spilled;
            }
        }
    });
    assert!(
        any_spilled,
        "the squeezed shared budget must force at least one spill"
    );

    let snap = service.snapshot();
    assert_eq!(snap.completed, 24, "8 clients x 3 rounds");
    assert_eq!(snap.failed, 0);
    assert_eq!(
        snap.leaked_bytes, 0,
        "some job finished with grants still allocated"
    );
    assert!(
        snap.plan_cache_hits > 0,
        "3 distinct queries x 24 runs must hit the plan cache"
    );
    assert_eq!(service.active_jobs(), 0, "fair-share registry must drain");
    drop(service);
    assert_eq!(
        spill_dirs_left(&scratch),
        Vec::<String>::new(),
        "spill dirs left behind by concurrent jobs"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Client cancellation: the query unwinds cooperatively, returns the
/// typed error, releases every memory grant, and removes its spill
/// directory.
#[test]
fn cancellation_leaks_nothing() {
    let scratch = scratch_dir("service-scratch-cancel");
    // A few KiB of budget: the sort spills almost immediately, so the
    // cancel lands mid-spill — the worst case for cleanup.
    let service = QueryService::new(
        engine(
            16 * 1024,
            SpillConfig {
                dir: Some(scratch.clone()),
                ..SpillConfig::default()
            },
        ),
        ServiceConfig {
            max_concurrent: 1,
            ..ServiceConfig::default()
        },
    );
    for _ in 0..5 {
        let ticket = service
            .submit(SORT_QUERY, QueryOptions::default())
            .expect("submit");
        ticket.cancel();
        match ticket.wait() {
            Err(EngineError::Cancelled) => {}
            Ok(_) => panic!("cancelled query returned rows"),
            Err(other) => panic!("expected Cancelled, got: {other}"),
        }
    }
    let snap = service.snapshot();
    assert_eq!(snap.cancelled, 5);
    assert_eq!(snap.completed, 0);
    assert_eq!(snap.leaked_bytes, 0, "cancelled jobs leaked memory grants");
    assert_eq!(service.active_jobs(), 0);
    drop(service);
    assert_eq!(
        spill_dirs_left(&scratch),
        Vec::<String>::new(),
        "cancelled jobs left spill dirs behind"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A deadline of zero expires before (or during) the run and surfaces as
/// the typed `DeadlineExceeded` error, never as partial rows.
#[test]
fn zero_deadline_returns_typed_error() {
    let service = QueryService::new(engine(0, SpillConfig::default()), ServiceConfig::default());
    let resp = service.execute(
        queries::Q1,
        QueryOptions {
            deadline: Some(Duration::ZERO),
            ..QueryOptions::default()
        },
    );
    match resp {
        Err(EngineError::DeadlineExceeded) => {}
        Ok(_) => panic!("expired query returned rows"),
        Err(other) => panic!("expected DeadlineExceeded, got: {other}"),
    }
    assert_eq!(service.snapshot().deadline_expired, 1);
    // A generous deadline does not fire.
    let ok = service
        .execute(
            queries::Q0,
            QueryOptions {
                deadline: Some(Duration::from_secs(600)),
                ..QueryOptions::default()
            },
        )
        .expect("run with slack deadline");
    assert!(!ok.result.rows.is_empty());
}

/// Submissions past `queue_limit` are rejected immediately with the typed
/// overload error carrying the queue state.
#[test]
fn overload_rejects_with_typed_error() {
    let service = QueryService::new(
        engine(0, SpillConfig::default()),
        ServiceConfig {
            max_concurrent: 1,
            queue_limit: 2,
            ..ServiceConfig::default()
        },
    );
    // Saturate: one running (eventually) + two queued. Held tickets keep
    // the queue full regardless of how fast the worker drains.
    let held: Vec<_> = (0..8)
        .map(|_| service.submit(SORT_QUERY, QueryOptions::default()))
        .collect();
    let rejected = held
        .iter()
        .filter(|r| matches!(r, Err(EngineError::Overloaded { queue_limit: 2, .. })))
        .count();
    assert!(
        rejected >= 5,
        "8 submissions into a 1-worker / 2-slot service must mostly be \
         rejected, got {rejected} rejections"
    );
    let snap = service.snapshot();
    assert_eq!(snap.rejected, rejected as u64);
    assert!(snap.submitted >= 8);
    // The admitted ones still complete correctly.
    for t in held.into_iter().flatten() {
        t.wait().expect("admitted query");
    }
}

/// A plan-cache hit returns identical rows, reports `cache_hit`, bumps
/// the hit counter, and its trace shows no parse / translate / optimize
/// spans — the front half of the pipeline really is skipped.
#[test]
fn plan_cache_hit_skips_optimization() {
    let service = QueryService::new(engine(0, SpillConfig::default()), ServiceConfig::default());
    let opts = || QueryOptions {
        collect_trace: true,
        ..QueryOptions::default()
    };
    let cold = service.execute(queries::Q1, opts()).expect("cold run");
    assert!(!cold.cache_hit);
    let cold_spans: Vec<String> = cold
        .trace
        .as_ref()
        .expect("trace requested")
        .events()
        .iter()
        .map(|e| e.name.clone())
        .collect();
    for phase in ["parse", "translate", "optimize", "compile", "execute"] {
        assert!(
            cold_spans.iter().any(|n| n == phase),
            "cold trace missing {phase}: {cold_spans:?}"
        );
    }

    // Same query, different whitespace: normalization must still hit.
    let requoted = queries::Q1
        .split_whitespace()
        .collect::<Vec<_>>()
        .join("  ");
    let warm = service.execute(&requoted, opts()).expect("warm run");
    assert!(warm.cache_hit, "normalized requery must hit the plan cache");
    assert_eq!(canon(&warm.result.rows), canon(&cold.result.rows));
    let warm_spans: Vec<String> = warm
        .trace
        .as_ref()
        .expect("trace requested")
        .events()
        .iter()
        .map(|e| e.name.clone())
        .collect();
    for phase in ["parse", "translate", "optimize"] {
        assert!(
            !warm_spans.iter().any(|n| n == phase),
            "cache hit must skip {phase}, trace: {warm_spans:?}"
        );
    }
    assert!(
        warm_spans.iter().any(|n| n == "plan-cache-hit"),
        "hit marker missing: {warm_spans:?}"
    );
    assert!(warm_spans.iter().any(|n| n == "execute"));

    let snap = service.snapshot();
    assert!(snap.plan_cache_hits >= 1);
    assert!(snap.plan_cache_misses >= 1);
    assert_eq!(snap.plan_cache_size, 1, "one distinct plan cached");
}

/// High-priority submissions overtake queued normal/low ones.
#[test]
fn priority_queue_runs_high_first() {
    let service = QueryService::new(
        engine(0, SpillConfig::default()),
        ServiceConfig {
            max_concurrent: 1,
            queue_limit: 64,
            ..ServiceConfig::default()
        },
    );
    // Block the single worker so subsequent submissions pile up in the
    // queue in a known state.
    let blocker = service
        .submit(SORT_QUERY, QueryOptions::default())
        .expect("blocker");
    let low = service.submit(
        queries::Q0,
        QueryOptions {
            priority: Priority::Low,
            ..QueryOptions::default()
        },
    );
    let high = service.submit(
        queries::Q0,
        QueryOptions {
            priority: Priority::High,
            ..QueryOptions::default()
        },
    );
    let b = blocker.wait().expect("blocker run");
    let high = high.expect("submit high").wait().expect("high run");
    let low = low.expect("submit low").wait().expect("low run");
    // The high-priority query was picked up before the earlier-submitted
    // low one: its queue wait is shorter even though it arrived later.
    assert!(
        high.queue_wait <= low.queue_wait,
        "high priority waited {:?}, low waited {:?}",
        high.queue_wait,
        low.queue_wait
    );
    assert!(b.elapsed > Duration::ZERO);
}

/// Dropping the service drains queued work, and a closed service rejects
/// new submissions with the typed error.
#[test]
fn close_rejects_but_drains_queued_work() {
    let service = QueryService::new(
        engine(0, SpillConfig::default()),
        ServiceConfig {
            max_concurrent: 2,
            ..ServiceConfig::default()
        },
    );
    let tickets: Vec<_> = (0..4)
        .map(|_| {
            service
                .submit(queries::Q0, QueryOptions::default())
                .expect("submit before close")
        })
        .collect();
    service.close();
    match service.submit(queries::Q0, QueryOptions::default()) {
        Err(EngineError::ServiceClosed) => {}
        Ok(_) => panic!("closed service admitted a query"),
        Err(other) => panic!("expected ServiceClosed, got: {other}"),
    }
    for t in tickets {
        t.wait().expect("queued work must drain after close");
    }
    assert_eq!(service.snapshot().completed, 4);
}
