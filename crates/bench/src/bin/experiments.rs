//! The evaluation harness CLI.
//!
//! ```text
//! cargo run -p bench --release -- [--scale tiny|small|large]
//!                                 [--repeat N] [--out FILE]
//!                                 [--metrics-dir DIR]
//!                                 <experiment>... | all | list
//! ```
//!
//! Each experiment prints the corresponding paper table/figure as a
//! markdown table; `--out` additionally appends everything to a file
//! (used to produce EXPERIMENTS.md).
//!
//! `--metrics-dir DIR` runs every sensor query once on a 2-node × 2-
//! partition cluster with full observability and writes, per query:
//! `<q>.prom` (Prometheus text exposition) and `<q>.metrics.json`, both
//! rendered from the engine's [`vxq_core::Report`], `<q>.trace.json`
//! (Chrome trace, load via chrome://tracing) and `<q>.trace.jsonl`
//! (JSON-lines spans), plus an `EXPLAIN ANALYZE` report on stdout; then
//! `service.prom` and `service.metrics.json` for a short concurrent burst
//! through one `QueryService`, whose text report also goes to stdout.

use bench::experiments::{by_name, EXPERIMENTS};
use bench::{Harness, Scale};
use std::io::Write;
use vxq_core::Report;

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--scale tiny|small|large] [--repeat N] [--out FILE] \
         [--metrics-dir DIR] <fig13|...|table4|all|list>"
    );
    std::process::exit(2);
}

/// Run each sensor query once with full observability and dump metrics
/// snapshots + traces into `dir`.
fn dump_metrics(harness: &Harness, dir: &std::path::Path) {
    use algebra::rules::RuleConfig;
    use dataflow::ClusterSpec;
    use vxq_core::queries::SENSOR_QUERIES;

    std::fs::create_dir_all(dir).expect("create metrics dir");
    let write = |name: &str, ext: &str, content: String| {
        let path = dir.join(format!("{name}.{ext}"));
        std::fs::write(&path, content).expect("write metrics file");
        eprintln!("   wrote {}", path.display());
    };
    let spec = harness.sensor_spec(256 * 1024, 2, 20);
    let root = harness.dataset("metrics", &spec);
    let cluster = ClusterSpec {
        nodes: 2,
        partitions_per_node: 2,
        ..Default::default()
    };
    let engine = harness.engine(&root, cluster, RuleConfig::all());
    for (name, query) in SENSOR_QUERIES {
        let (result, trace) = engine.execute_profiled(query).expect("profiled query");
        let report = Report::query(name, &result);
        write(name, "prom", report.prometheus());
        write(name, "metrics.json", report.json());
        write(name, "trace.json", trace.to_chrome_trace());
        write(name, "trace.jsonl", trace.to_json_lines());
        println!("== EXPLAIN ANALYZE {name} ==");
        println!("{}", vxq_core::render_analysis(&result));
    }

    // The serving layer: a short concurrent burst of the sensor queries
    // through one QueryService, reported in its own families.
    let service = vxq_core::QueryService::new(engine, vxq_core::ServiceConfig::default());
    std::thread::scope(|s| {
        for c in 0..4 {
            let service = &service;
            s.spawn(move || {
                for round in 0..3 {
                    let (_, query) = SENSOR_QUERIES[(c + round) % SENSOR_QUERIES.len()];
                    service
                        .execute(query, vxq_core::QueryOptions::default())
                        .expect("service query");
                }
            });
        }
    });
    let report = Report::service(&service.snapshot());
    write("service", "prom", report.prometheus());
    write("service", "metrics.json", report.json());
    print!("{}", report.text());
}

fn main() {
    let mut harness = Harness::default();
    let mut targets: Vec<String> = Vec::new();
    let mut out_file: Option<String> = None;
    let mut metrics_dir: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                harness.scale = match args.next().as_deref() {
                    Some("tiny") => Scale::Tiny,
                    Some("small") => Scale::Small,
                    Some("large") => Scale::Large,
                    _ => usage(),
                }
            }
            "--repeat" => {
                harness.repeat = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => out_file = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics-dir" => metrics_dir = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => targets.push(other.to_string()),
        }
    }
    if let Some(dir) = &metrics_dir {
        dump_metrics(&harness, std::path::Path::new(dir));
    }
    if targets.is_empty() {
        if metrics_dir.is_some() {
            return;
        }
        usage();
    }
    if targets.iter().any(|t| t == "list") {
        for (name, _) in EXPERIMENTS {
            println!("{name}");
        }
        return;
    }
    let selected: Vec<&str> = if targets.iter().any(|t| t == "all") {
        EXPERIMENTS.iter().map(|(n, _)| *n).collect()
    } else {
        targets.iter().map(String::as_str).collect()
    };

    let mut report = String::new();
    for name in selected {
        let Some(f) = by_name(name) else {
            eprintln!("unknown experiment {name:?} (try `list`)");
            std::process::exit(2);
        };
        eprintln!(
            "== running {name} (scale {:?}, repeat {}) ==",
            harness.scale, harness.repeat
        );
        let started = std::time::Instant::now();
        let tables = f(&harness);
        eprintln!("   {name} finished in {:.1?}", started.elapsed());
        for t in tables {
            let md = t.to_markdown();
            println!("{md}");
            report.push_str(&md);
        }
    }
    if let Some(path) = out_file {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("open --out file");
        f.write_all(report.as_bytes()).expect("write report");
        eprintln!("appended results to {path}");
    }
}
