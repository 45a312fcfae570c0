//! Integration test host crate: shared helpers for the e2e suites.

/// Partitions-per-node used by cluster-shape-sensitive suites. The CI
/// matrix re-runs the suite with `VXQ_PARTITIONS=4` to cover multi-task
/// nodes; locally it defaults to `fallback`.
pub fn partitions_from_env(fallback: usize) -> usize {
    match std::env::var("VXQ_PARTITIONS") {
        Ok(v) if !v.trim().is_empty() => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("VXQ_PARTITIONS must be a positive integer, got {v:?}")),
        _ => fallback,
    }
}

/// Seed for the randomized differential suite.
///
/// * unset — a fixed default (deterministic CI leg);
/// * `VXQ_DIFF_SEED=<u64>` — reproduce a reported failure;
/// * `VXQ_DIFF_SEED=random` — a fresh seed per run (fuzzing CI leg). The
///   seed is part of every assertion message, so a failure is replayable.
pub fn diff_seed() -> u64 {
    match std::env::var("VXQ_DIFF_SEED") {
        Ok(v) if v.trim() == "random" => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64 | 1)
            .unwrap_or(0x5eed),
        Ok(v) if !v.trim().is_empty() => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("VXQ_DIFF_SEED must be a u64 or 'random', got {v:?}")),
        _ => 0xD1FF_5EED,
    }
}

/// Q2 with a `let` after each `for`: the return reads the two `let`
/// variables instead of the records.
pub const Q2_LETS: &str = r#"
avg(
  for $r_min in collection("/sensors")("root")()("results")()
  let $vmin := $r_min("value")
  for $r_max in collection("/sensors")("root")()("results")()
  let $vmax := $r_max("value")
  where $r_min("station") eq $r_max("station")
    and $r_min("date") eq $r_max("date")
    and $r_min("dataType") eq "TMIN"
    and $r_max("dataType") eq "TMAX"
  return $vmax - $vmin
) div 10
"#;

/// Q2 over December only, through a `let` between the second `for` and
/// the `where` that can fail (`dateTime`), so it stays above the join.
pub const Q2_DECEMBER: &str = r#"
avg(
  for $r_min in collection("/sensors")("root")()("results")()
  for $r_max in collection("/sensors")("root")()("results")()
  let $d := dateTime($r_max("date"))
  where $r_min("station") eq $r_max("station")
    and $r_min("date") eq $r_max("date")
    and $r_min("dataType") eq "TMIN"
    and $r_max("dataType") eq "TMAX"
    and month-from-dateTime($d) eq 12
  return $r_max("value") - $r_min("value")
) div 10
"#;

#[cfg(test)]
mod tests {
    #[test]
    fn defaults_apply_without_env() {
        // The suite never sets these vars itself, so in-process defaults
        // must hold (CI legs override via the environment).
        if std::env::var("VXQ_PARTITIONS").is_err() {
            assert_eq!(super::partitions_from_env(2), 2);
        }
        if std::env::var("VXQ_DIFF_SEED").is_err() {
            assert_eq!(super::diff_seed(), 0xD1FF_5EED);
        }
    }
}
