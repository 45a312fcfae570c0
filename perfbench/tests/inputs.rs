//! Seeded, fingerprinted inputs: the same seed gives the same dataset
//! digest and query mix, another seed other ones; every workload's
//! dataset lands within 5% of its stated size; BENCHMARK.json names
//! exactly the metrics the benchmark reports.

use perfbench::dataset::Dataset;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workload::{ServiceMix, Workload};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn digests_follow_the_seed() {
    let root = scratch("digests");
    let w = Workload::ServiceSmall;
    let a = Dataset::generate(&w.spec(7), &root.join("a")).unwrap();
    let b = Dataset::generate(&w.spec(7), &root.join("b")).unwrap();
    let c = Dataset::generate(&w.spec(8), &root.join("c")).unwrap();
    assert_eq!((a.digest, a.bytes), (b.digest, b.bytes));
    assert_ne!(a.digest, c.digest);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn datasets_land_within_five_percent_of_their_stated_size() {
    for (w, measurements) in Workload::ALL.into_iter().zip([186_000, 64_000, 640]) {
        assert_eq!(w.spec(1).total_measurements(), measurements, "{}", w.name());
        for seed in [1, 2] {
            let root = scratch(&format!("size-{}-{seed}", w.name()));
            let d = Dataset::generate(&w.spec(seed), &root).unwrap();
            let ratio = d.bytes as f64 / w.nominal_bytes() as f64;
            assert!(
                (0.95..=1.05).contains(&ratio),
                "{} seed {seed}: {} bytes",
                w.name(),
                d.bytes
            );
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

#[test]
fn the_service_mix_follows_the_seed_and_is_half_verbatim() {
    let texts = |m: &ServiceMix| -> Vec<String> {
        m.streams
            .iter()
            .flatten()
            .map(|&i| m.queries[i].text.clone())
            .collect()
    };
    let (a, b, c) = (ServiceMix::new(1), ServiceMix::new(1), ServiceMix::new(2));
    assert_eq!(texts(&a), texts(&b));
    assert_ne!(texts(&a), texts(&c));
    let verbatim = Workload::ServiceSmall.pass().len();
    let steps: Vec<usize> = a.streams.iter().flatten().copied().collect();
    let share = steps.iter().filter(|&&i| i < verbatim).count() as f64 / steps.len() as f64;
    assert!((0.48..=0.52).contains(&share), "verbatim share {share}");
}

/// The `"name"` and `"unit"` of each entry of one array in BENCHMARK.json.
fn entries(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let open = start + json[start..].find('[').expect("an array");
    let close = open + json[open..].find(']').expect("a closed array");
    let field = |entry: &str, name: &str| {
        entry
            .split(&format!("\"{name}\""))
            .nth(1)
            .and_then(|rest| rest.split('"').nth(1))
            .unwrap_or_default()
            .to_string()
    };
    json[open..close]
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let json =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .unwrap();
    let listed = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(entries(&json, "end_to_end"), listed(END_TO_END));
    assert_eq!(entries(&json, "per_layer"), listed(PER_LAYER));
    let workloads: Vec<String> = entries(&json, "workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
}
