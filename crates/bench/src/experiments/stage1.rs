//! Stage-1 sweep (beyond the paper): structural-index build throughput
//! with the SWAR stage 1 versus the scalar per-byte scan, and its
//! end-to-end effect on the scan-bound queries.
//!
//! The first table is single-thread `StructuralIndex` build throughput
//! (GB/s) per stage-1 mode over GHCN-shaped files of growing size, with
//! the SWAR-vs-scalar ratio. The second table runs Q0/Q0b through the
//! whole engine at growing partition counts, scalar versus SWAR.

use crate::{ms, Harness, Table};
use algebra::rules::RuleConfig;
use dataflow::ClusterSpec;
use datagen::SensorSpec;
use jdm::index::StructuralIndex;
use jdm::stage1::Stage1Mode;
use std::fmt::Write as _;
use std::time::Instant;
use vxq_core::queries::{Q0, Q0B};
use vxq_core::ScanOptions;

/// Paper-faithful GHCN file: the NOAA web-service response shape the
/// paper's collection is built from — ISO-8601 timestamps, `GHCND:`
/// station ids, attribute-flag strings. Noticeably string-heavier than
/// the abbreviated sensor records the query datasets use, and the shape
/// the throughput numbers are defined on. Deterministic, cached
/// on disk keyed by size.
fn ghcn_file(h: &Harness, bytes: usize) -> Vec<u8> {
    let path = h.data_dir.join(format!("stage1-ghcnd-{bytes}.json"));
    if let Ok(buf) = std::fs::read(&path) {
        if buf.len() >= bytes {
            return buf;
        }
    }
    let mut out = String::from(
        "{\"metadata\":{\"resultset\":{\"offset\":1,\"count\":1000,\"limit\":1000}},\"results\":[",
    );
    out.reserve(bytes + 256);
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let mut first = true;
    while out.len() < bytes {
        let r = next();
        let day = 1 + r % 28;
        let month = 1 + (r >> 5) % 12;
        let datatype = ["TMAX", "TMIN", "PRCP", "SNOW"][(r >> 9) as usize % 4];
        let station = 14000 + (r >> 11) % 1000;
        let flags = [",,W,2400", ",,W,0700", "H,,S,", ",,D,1200"][(r >> 21) as usize % 4];
        let value = (next() % 700) as i32 - 350;
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"date\":\"2017-{month:02}-{day:02}T00:00:00.000\",\"datatype\":\"{datatype}\",\
             \"station\":\"GHCND:USW000{station:05}\",\"attributes\":\"{flags}\",\"value\":{value}}}"
        );
    }
    out.push_str("]}");
    let _ = std::fs::create_dir_all(&h.data_dir);
    let _ = std::fs::write(&path, out.as_bytes());
    out.into_bytes()
}

/// The swept modes, scalar first.
const MODES: [Stage1Mode; 2] = [Stage1Mode::Scalar, Stage1Mode::Swar];

/// Per-mode single-thread index-build timings over `reps` rounds. The
/// modes are interleaved within each round so a shared or thermally
/// throttled CPU penalizes both equally instead of biasing whichever mode
/// happened to run during a slow window. Returns `times[mode][round]` in
/// seconds.
fn build_times(buf: &[u8], reps: usize) -> [Vec<f64>; 2] {
    let mut tapes: [Vec<jdm::index::TapeEntry>; 2] = Default::default();
    let mut times: [Vec<f64>; 2] = Default::default();
    // Round 0 is an untimed warm-up: it sizes the tapes and faults the
    // buffer in.
    for rep in 0..=reps {
        for (i, mode) in MODES.into_iter().enumerate() {
            let tape = std::mem::take(&mut tapes[i]);
            let started = Instant::now();
            let index =
                StructuralIndex::build_reusing_with(buf, tape, mode).expect("valid bench file");
            let elapsed = started.elapsed().as_secs_f64();
            if rep > 0 {
                times[i].push(elapsed);
            }
            tapes[i] = index.into_tape();
        }
    }
    times
}

/// Median of a sample set (samples may arrive in any order).
fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    s[s.len() / 2]
}

/// Mode × file size × partitions sweep.
pub fn stage1(h: &Harness) -> Vec<Table> {
    // --- mode × file size: raw single-thread build throughput ----------
    //
    // File sizes are absolute (not scale-multiplied): stage-1 throughput
    // is a per-byte property, and the size axis probes the machine's
    // cache regimes — which are absolute — from L2-resident through
    // DRAM-streaming (the word-driven build also writes the tape, ~1.6x
    // the input, so it meets the memory-bandwidth ceiling first).
    let mut t1 = Table::new(
        "Stage 1 — structural-index build throughput, scalar vs SWAR, GHCN-shaped file",
        &[
            "file size (MiB)",
            "scalar (GB/s)",
            "swar (GB/s)",
            "swar/scalar (best)",
            "(median)",
        ],
    );
    for bytes in [
        128 * 1024usize,
        512 * 1024,
        2 * 1024 * 1024,
        8 * 1024 * 1024,
    ] {
        let buf = ghcn_file(h, bytes);
        // Best-of over enough rounds that both modes see a quiet CPU
        // window at least once; smaller files get more rounds for free.
        let reps = (48 * 1024 * 1024 / buf.len()).clamp(h.repeat.max(8), 30);
        let [scalar, swar] = build_times(&buf, reps);
        // Throughput from the fastest (least-disturbed) round.
        let best_of = |t: &[f64]| t.iter().cloned().fold(f64::INFINITY, f64::min);
        let gbps = |t: &[f64]| buf.len() as f64 / best_of(t) / 1e9;
        // Two speed-up estimators, because the host is noisy. "best"
        // compares each mode's least-disturbed round — the speed-up a
        // quiet machine would show. "median" is the median of *paired*
        // per-round ratios (both modes of a pair ran back-to-back inside
        // the same throttle window, so external slowdowns mostly cancel)
        // — the typical speed-up under whatever contention the host is
        // seeing.
        let ratio_best = best_of(&scalar) / best_of(&swar).max(1e-12);
        let per_round: Vec<f64> = scalar
            .iter()
            .zip(&swar)
            .map(|(s, v)| s / v.max(1e-12))
            .collect();
        t1.row(vec![
            format!("{:.2}", buf.len() as f64 / (1024.0 * 1024.0)),
            format!("{:.3}", gbps(&scalar)),
            format!("{:.3}", gbps(&swar)),
            format!("{ratio_best:.2}x"),
            format!("{:.2}x", median(&per_round)),
        ]);
    }
    t1.note = "Single-thread build of the full structural index over NOAA \
               GHCN web-service records; the scalar column is the original \
               per-byte scan, swar consumes the stage-1 words. Large \
               files leave cache, where the word-driven build (input + \
               tape streaming) can meet the memory-bandwidth ceiling \
               first and compress the ratio."
        .into();

    // --- end to end: Q0/Q0b, scalar vs SWAR, growing partitions --------
    let mut t2 = Table::new(
        "Stage 1 — end-to-end Q0/Q0b, scalar stage 1 vs SWAR",
        &[
            "query",
            "partitions",
            "scalar (ms)",
            "swar (ms)",
            "speed-up",
        ],
    );
    let spec = SensorSpec::sized(2 * 1024 * 1024 * h.scale.factor(), 1, 2, 30);
    let root = h.dataset("stage1-e2e", &spec);
    for (name, query) in [("q0", Q0), ("q0b", Q0B)] {
        for parts in [1usize, 2] {
            let cluster = ClusterSpec {
                nodes: 1,
                partitions_per_node: parts,
                ..Default::default()
            };
            let mut times = Vec::new();
            for mode in MODES {
                let scan = ScanOptions {
                    stage1: mode,
                    ..ScanOptions::default()
                };
                let e = h.engine_with_scan(&root, cluster.clone(), RuleConfig::all(), scan);
                times.push(h.time_query(&e, query));
            }
            let speedup = times[0].as_secs_f64() / times[1].as_secs_f64().max(1e-9);
            t2.row(vec![
                name.to_string(),
                parts.to_string(),
                ms(times[0]),
                ms(times[1]),
                format!("{speedup:.2}x"),
            ]);
        }
    }
    t2.note = "End-to-end wins are bounded by the index build's share of \
               total query time (Amdahl)."
        .into();

    vec![t1, t2]
}
