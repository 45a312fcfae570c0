//! The benchmark's workloads: dataset shape, engine shape and query mix.

use crate::oracle::QueryKind;
use dataflow::ClusterSpec;
use datagen::rng::StdRng;
use datagen::{SensorSpec, DATA_TYPES};
use vxq_core::queries::SENSOR_QUERIES;

/// Closed-loop clients of the service workload (the host has two cores).
pub const SERVICE_CLIENTS: usize = 2;

/// Queries drawn per service client. A client that gets through its
/// stream starts it again; by then its variants have long left the
/// 64-entry plan cache, so they still miss.
pub const SERVICE_STREAM: usize = 20_000;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 14.6 MB file on 1 node × 2 partitions, Q0 and Q0b alternating:
    /// the scan layers dominate.
    ScanSelect,
    /// 16 small files on 2 nodes × 1 partition, Q1 and Q2 alternating:
    /// group-by, hash join and exchange dominate.
    JoinAggregate,
    /// 52 KB behind a `QueryService`, two closed-loop clients, half of
    /// their queries plan-cache hits: the per-query fixed cost dominates.
    ServiceSmall,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ScanSelect,
        Workload::JoinAggregate,
        Workload::ServiceSmall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanSelect => "scan_select",
            Workload::JoinAggregate => "join_aggregate",
            Workload::ServiceSmall => "service_small",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generator parameters of this workload's dataset for `seed`.
    pub fn spec(self, seed: u64) -> SensorSpec {
        let base = SensorSpec {
            seed,
            ..SensorSpec::default()
        };
        match self {
            Workload::ScanSelect => SensorSpec {
                nodes: 1,
                files_per_node: 1,
                records_per_file: 6200,
                measurements_per_array: 30,
                ..base
            },
            Workload::JoinAggregate => SensorSpec {
                nodes: 2,
                files_per_node: 8,
                records_per_file: 2000,
                measurements_per_array: 2,
                stations: 4,
                years: 1,
                ..base
            },
            Workload::ServiceSmall => SensorSpec {
                nodes: 1,
                files_per_node: 8,
                records_per_file: 8,
                measurements_per_array: 10,
                ..base
            },
        }
    }

    /// The dataset size the workload is specified at, in bytes; every
    /// seed's dataset lands within 5% of it.
    pub fn nominal_bytes(self) -> u64 {
        match self {
            Workload::ScanSelect => 14_600_000,
            Workload::JoinAggregate => 6_100_000,
            Workload::ServiceSmall => 52_000,
        }
    }

    /// The engine's cluster shape: at most 2 partitions, one per core.
    pub fn cluster(self) -> ClusterSpec {
        match self {
            Workload::ScanSelect => ClusterSpec::single_node(2),
            Workload::JoinAggregate => ClusterSpec {
                nodes: 2,
                partitions_per_node: 1,
                ..ClusterSpec::default()
            },
            Workload::ServiceSmall => ClusterSpec::single_node(1),
        }
    }

    /// Set-ups timed per run; `setup_s` is their median.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::ServiceSmall => 15,
            _ => 5,
        }
    }

    /// What the A and B sides of the latency metrics are on this
    /// workload, in the names the issue gives them.
    pub fn side_names(self) -> [&'static str; 2] {
        match self {
            Workload::ScanSelect => ["q0", "q0b"],
            Workload::JoinAggregate => ["q1", "q2"],
            Workload::ServiceSmall => ["svc_hit", "svc_miss"],
        }
    }

    /// Percentile of the `*_tail_ms` metrics: the highest of p99, p95,
    /// p90, p80 and p70 that leaves at least ten samples beyond it on
    /// both sides at the benchmark's run length (`run_seconds`).
    pub fn tail_pct(self) -> f64 {
        match self {
            Workload::ScanSelect => 80.0,
            Workload::JoinAggregate => 70.0,
            Workload::ServiceSmall => 99.0,
        }
    }

    /// The queries of one pass: side A then side B for the sequential
    /// workloads, the five sensor queries for the service.
    pub fn pass(self) -> Vec<BenchQuery> {
        match self {
            Workload::ScanSelect => vec![sensor("Q0"), sensor("Q0b")],
            Workload::JoinAggregate => vec![sensor("Q1"), sensor("Q2")],
            Workload::ServiceSmall => SENSOR_QUERIES.iter().map(|(l, _)| sensor(l)).collect(),
        }
    }
}

/// A query the benchmark sends, with what the oracle checks it against.
#[derive(Debug, Clone)]
pub struct BenchQuery {
    /// The paper's name (`Q0` … `Q2`), or `Q0-var`/`Q1-var` for a seeded
    /// variant.
    pub label: &'static str,
    pub text: String,
    pub kind: QueryKind,
}

/// One of the paper's five sensor queries, verbatim.
pub fn sensor(label: &str) -> BenchQuery {
    let (label, text) = SENSOR_QUERIES
        .iter()
        .copied()
        .find(|(l, _)| *l == label)
        .unwrap_or_else(|| panic!("{label} is not a sensor query"));
    let kind = match label {
        "Q0" | "Q0b" => QueryKind::Select {
            year_ge: 2003,
            month: 12,
            day: 25,
            dates_only: label == "Q0b",
        },
        "Q1" | "Q1b" => QueryKind::GroupCount {
            data_type: "TMIN",
            value_ge: None,
        },
        _ => QueryKind::JoinAvg,
    };
    BenchQuery {
        label,
        text: text.to_string(),
        kind,
    }
}

/// Q0 with other constants: readings of `month`/`day` from `year_ge` on.
pub fn select_variant(year_ge: i32, month: u32, day: u32) -> BenchQuery {
    BenchQuery {
        label: "Q0-var",
        text: format!(
            r#"
for $r in collection("/sensors")("root")()("results")()
let $datetime := dateTime(data($r("date")))
where year-from-dateTime($datetime) ge {year_ge}
  and month-from-dateTime($datetime) eq {month}
  and day-from-dateTime($datetime) eq {day}
return $r
"#
        ),
        kind: QueryKind::Select {
            year_ge,
            month,
            day,
            dates_only: false,
        },
    }
}

/// Q1 with other constants: `data_type` readings of at least `value_ge`
/// counted per date.
pub fn count_variant(data_type: &'static str, value_ge: i64) -> BenchQuery {
    BenchQuery {
        label: "Q1-var",
        text: format!(
            r#"
for $r in collection("/sensors")("root")()("results")()
where $r("dataType") eq "{data_type}" and $r("value") ge {value_ge}
group by $date := $r("date")
return count($r("station"))
"#
        ),
        kind: QueryKind::GroupCount {
            data_type,
            value_ge: Some(value_ge),
        },
    }
}

/// The service workload's seeded traffic.
pub struct ServiceMix {
    /// The five sensor queries, then every drawn variant.
    pub queries: Vec<BenchQuery>,
    /// Per client, the indices into `queries` it sends, in order.
    pub streams: Vec<Vec<usize>>,
}

impl ServiceMix {
    /// Each step is, with equal odds, one of the five sensor queries
    /// verbatim or a fresh variant. The constants' ranges are wide, so
    /// that a variant rarely repeats within the plan cache's reach.
    pub fn new(seed: u64) -> ServiceMix {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E41_11CE_D0C5_0001);
        let mut queries = Workload::ServiceSmall.pass();
        let verbatim = queries.len();
        let mut streams = Vec::with_capacity(SERVICE_CLIENTS);
        for _ in 0..SERVICE_CLIENTS {
            let mut stream = Vec::with_capacity(SERVICE_STREAM);
            for _ in 0..SERVICE_STREAM {
                if rng.gen_range(0..2u8) == 0 {
                    stream.push(rng.gen_range(0..verbatim));
                    continue;
                }
                queries.push(if rng.gen_range(0..2u8) == 0 {
                    select_variant(
                        rng.gen_range(1900..=2015i32),
                        rng.gen_range(1..=12u32),
                        rng.gen_range(1..=28u32),
                    )
                } else {
                    count_variant(
                        DATA_TYPES[rng.gen_range(0..DATA_TYPES.len())],
                        rng.gen_range(0..=150i64),
                    )
                });
                stream.push(queries.len() - 1);
            }
            streams.push(stream);
        }
        ServiceMix { queries, streams }
    }
}
