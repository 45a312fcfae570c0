//! Cross-crate tests: parse → translate → optimize each paper query and
//! check the optimized plan shapes match the paper's final figures.

use algebra::rules::{RuleConfig, RuleSet};
use algebra::LogicalPlan;

fn optimized(query: &str, config: RuleConfig) -> LogicalPlan {
    let mut plan = jsoniq::compile(query).expect("compiles");
    RuleSet::for_config(config).optimize(&mut plan);
    plan
}

const Q0: &str = r#"
    for $r in collection("/sensors")("root")()("results")()
    let $datetime := dateTime(data($r("date")))
    where year-from-dateTime($datetime) ge 2003
      and month-from-dateTime($datetime) eq 12
      and day-from-dateTime($datetime) eq 25
    return $r
"#;

const Q0B: &str = r#"
    for $r in collection("/sensors")("root")()("results")()("date")
    let $datetime := dateTime(data($r))
    where year-from-dateTime($datetime) ge 2003
      and month-from-dateTime($datetime) eq 12
      and day-from-dateTime($datetime) eq 25
    return $r
"#;

const Q1: &str = r#"
    for $r in collection("/sensors")("root")()("results")()
    where $r("dataType") eq "TMIN"
    group by $date := $r("date")
    return count($r("station"))
"#;

const Q1B: &str = r#"
    for $r in collection("/sensors")("root")()("results")()
    where $r("dataType") eq "TMIN"
    group by $date := $r("date")
    return count(for $i in $r return $i("station"))
"#;

const Q2: &str = r#"
    avg(
      for $r_min in collection("/sensors")("root")()("results")()
      for $r_max in collection("/sensors")("root")()("results")()
      where $r_min("station") eq $r_max("station")
        and $r_min("date") eq $r_max("date")
        and $r_min("dataType") eq "TMIN"
        and $r_max("dataType") eq "TMAX"
      return $r_max("value") - $r_min("value")
    ) div 10
"#;

#[test]
fn q0_fully_optimized_is_scan_select_distribute() {
    let plan = optimized(Q0, RuleConfig::all());
    let t = plan.explain();
    assert!(t.contains(r#"project ("root")()("results")()"#), "{t}");
    assert!(t.contains("select"), "{t}");
    assert!(!t.contains("keys-or-members"), "{t}");
    assert!(!t.contains("promote"), "{t}");
    assert_eq!(
        plan.shape(),
        vec![
            "distribute",
            "select",
            "assign",
            "data-scan",
            "empty-tuple-source"
        ],
        "{t}"
    );
}

#[test]
fn q0b_pushes_date_into_scan() {
    let plan = optimized(Q0B, RuleConfig::all());
    let t = plan.explain();
    assert!(
        t.contains(r#"project ("root")()("results")()("date")"#),
        "Q0b's smaller search path must reach the scan: {t}"
    );
}

#[test]
fn q1_fully_optimized_has_incremental_count_in_group_by() {
    let plan = optimized(Q1, RuleConfig::all());
    let t = plan.explain();
    assert!(t.contains("data-scan"), "{t}");
    assert!(t.contains("group-by"), "{t}");
    assert!(t.contains("aggregate") && t.contains("count(value("), "{t}");
    assert!(
        !t.contains("sequence("),
        "no sequences after group-by rules: {t}"
    );
    assert!(!t.contains("subplan"), "{t}");
    assert!(!t.contains("treat"), "{t}");
}

#[test]
fn q1b_converges_to_the_same_plan_as_q1() {
    // The paper: Q1b "is already written in an optimized way" — after all
    // rules both reach Fig. 12. Variable numbering differs, so compare
    // shapes, not text.
    let p1 = optimized(Q1, RuleConfig::all());
    let p1b = optimized(Q1B, RuleConfig::all());
    assert_eq!(
        p1.shape(),
        p1b.shape(),
        "\nQ1:\n{}\nQ1b:\n{}",
        p1.explain(),
        p1b.explain()
    );
}

#[test]
fn q2_optimized_has_join_over_two_scans() {
    let plan = optimized(Q2, RuleConfig::all());
    let t = plan.explain();
    assert!(t.contains("join"), "{t}");
    assert_eq!(t.matches("data-scan").count(), 2, "{t}");
    // dataType filters pushed below the join.
    assert_eq!(t.matches("select").count(), 2, "{t}");
    assert!(t.contains("avg("), "{t}");
}

/// The one-sided `value` steps of Q2's return move below the join, so
/// the join carries two numbers instead of two records.
#[test]
fn q2_evaluates_one_sided_paths_below_the_join() {
    for config in [RuleConfig::all(), RuleConfig::none()] {
        let plan = optimized(Q2, config);
        let t = plan.explain();
        let mut above = None;
        let mut below = 0;
        let mut depth_of_join = None;
        for line in t.lines() {
            let depth = line.len() - line.trim_start().len();
            let op = line.trim_start();
            if op.starts_with("join ") {
                depth_of_join = Some(depth);
            } else if depth_of_join.is_none() && op.starts_with("assign ") {
                above = Some(op);
            } else if depth_of_join.is_some_and(|d| depth > d)
                && op.starts_with("assign ")
                && op.contains(r#", "value")"#)
            {
                below += 1;
            }
        }
        assert!(depth_of_join.is_some(), "{t}");
        assert_eq!(below, 2, "two value steps below the join: {t}");
        let above = above.expect("post-join assign");
        let rhs = above.split(":= ").nth(1).expect("assign expression");
        assert!(
            rhs.starts_with("subtract($") && !rhs.contains("value("),
            "the post-join assign reads only variables: {t}"
        );
    }
}

#[test]
fn rules_off_keeps_naive_shapes() {
    let plan = optimized(Q0, RuleConfig::none());
    let t = plan.explain();
    assert!(!t.contains("data-scan"), "{t}");
    assert!(t.contains("collection"), "{t}");
    assert!(t.contains("keys-or-members"), "{t}");
    assert!(t.contains("promote(data("), "{t}");
}

#[test]
fn path_only_merges_kom_but_keeps_collection_assign() {
    let plan = optimized(Q0, RuleConfig::path_only());
    let t = plan.explain();
    assert!(!t.contains("data-scan"), "{t}");
    assert!(t.contains("unnest") && t.contains("keys-or-members"), "{t}");
    // keys-or-members now lives in UNNEST, not ASSIGN.
    assert!(!t.contains("assign $_ := keys-or-members"), "{t}");
    assert!(!t.contains("promote"), "{t}");
}

#[test]
fn group_by_rules_alone_still_apply_without_pipelining() {
    let cfg = algebra::rules::RuleConfig {
        group_by_rules: true,
        ..algebra::rules::RuleConfig::none()
    };
    let plan = optimized(Q1, cfg);
    let t = plan.explain();
    assert!(!t.contains("sequence("), "{t}");
    assert!(!t.contains("treat"), "{t}");
    assert!(!t.contains("data-scan"), "pipelining stays off: {t}");
}

#[test]
fn optimizer_reports_applied_rules() {
    let mut plan = jsoniq::compile(Q1).unwrap();
    let applied = RuleSet::for_config(RuleConfig::all()).optimize(&mut plan);
    for expected in [
        "introduce-datascan",
        "push-value-into-datascan",
        "push-keys-or-members-into-datascan",
        "remove-treat",
        "convert-scalar-aggregate-to-subplan",
        "push-subplan-aggregate-into-group-by",
    ] {
        assert!(
            applied.contains(&expected),
            "missing {expected}: {applied:?}"
        );
    }
}

#[test]
fn optimization_is_idempotent() {
    let mut plan = jsoniq::compile(Q2).unwrap();
    let rules = RuleSet::for_config(RuleConfig::all());
    rules.optimize(&mut plan);
    let first = plan.explain();
    let applied_again = rules.optimize(&mut plan);
    assert!(
        applied_again.is_empty(),
        "second pass applied: {applied_again:?}"
    );
    assert_eq!(plan.explain(), first);
}
