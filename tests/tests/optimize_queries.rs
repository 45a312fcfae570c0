//! Cross-crate tests: parse → translate → optimize each paper query and
//! check the optimized plan shapes match the paper's final figures.

use algebra::rules::{RuleConfig, RuleSet};
use algebra::LogicalPlan;

fn optimized(query: &str, config: RuleConfig) -> LogicalPlan {
    optimized_by(query, RuleSet::for_config(config)).0
}

/// The plan `rules` make of `query`, and the rules that fired.
fn optimized_by(query: &str, rules: RuleSet) -> (LogicalPlan, Vec<&'static str>) {
    let mut plan = jsoniq::compile(query).expect("compiles");
    let applied = rules.optimize(&mut plan);
    (plan, applied)
}

const EAGER: &str = "push-aggregate-below-join";

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

/// The paper's final Q0 plan; under `all()` the SELECT moves into the
/// scan (`the_scan_filter_moves_the_select_into_each_datascan`).
#[test]
fn q0_fully_optimized_is_scan_select_distribute() {
    let plan = optimized(Q0, RuleConfig::paper());
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
    // dataType filters pushed below the join, into the two scans.
    assert_eq!(t.matches(r#", "dataType"), "TM"#).count(), 2, "{t}");
    assert_eq!(t.matches(" filter ").count(), 2, "{t}");
    assert!(t.contains("avg("), "{t}");
    // The paper's plan keeps them as SELECTs below the join.
    let t = optimized(Q2, RuleConfig::paper()).explain();
    assert_eq!(t.matches("select").count(), 2, "{t}");
}

/// The one-sided `value` steps of Q2's return move below the join, so
/// the join carries two numbers instead of two records. (With eager
/// aggregation the ASSIGN above the join combines partials instead; it
/// is off here.)
#[test]
fn q2_evaluates_one_sided_paths_below_the_join() {
    for config in [RuleConfig::all(), RuleConfig::none()] {
        let (plan, _) = optimized_by(Q2, RuleSet::for_config(config).without(EAGER));
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
    for query in [Q0, Q0B, Q1, Q1B, Q2] {
        for config in [RuleConfig::all(), RuleConfig::paper(), RuleConfig::none()] {
            let mut plan = jsoniq::compile(query).unwrap();
            let rules = RuleSet::for_config(config);
            rules.optimize(&mut plan);
            let first = plan.explain();
            let applied_again = rules.optimize(&mut plan);
            assert!(
                applied_again.is_empty(),
                "second pass applied: {applied_again:?}\n{first}"
            );
            assert_eq!(plan.explain(), first);
        }
    }
}

/// The `data-scan` lines of a plan's EXPLAIN text, trimmed.
fn scan_lines(plan: &LogicalPlan) -> Vec<String> {
    plan.explain()
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("data-scan"))
        .map(String::from)
        .collect()
}

/// `push-select-into-datascan` moves each SELECT above a DATASCAN into
/// the scan, with the ASSIGNs it reads inlined: no SELECT is left over
/// a scan, and the ASSIGNs only the SELECT read are gone.
#[test]
fn the_scan_filter_moves_the_select_into_each_datascan() {
    let date = |v: &str| format!(r#"dateTime(value(${v}, "date"))"#);
    let q0 = optimized(Q0, RuleConfig::all());
    let v = "7";
    assert_eq!(
        scan_lines(&q0),
        vec![format!(
            r#"data-scan ${v} <- collection("/sensors") project ("root")()("results")() filter and(ge(year-from-dateTime({d}), 2003), eq(month-from-dateTime({d}), 12), eq(day-from-dateTime({d}), 25))"#,
            d = date(v)
        )],
        "{}",
        q0.explain()
    );
    assert_eq!(
        q0.shape(),
        vec!["distribute", "data-scan", "empty-tuple-source"],
        "{}",
        q0.explain()
    );

    let q0b = optimized(Q0B, RuleConfig::all());
    let [line] = scan_lines(&q0b).try_into().expect("one scan");
    assert!(
        line.contains(
            r#"project ("root")()("results")()("date") filter and(ge(year-from-dateTime(dateTime($"#
        ),
        "{line}"
    );
    assert_eq!(
        q0b.shape(),
        vec!["distribute", "data-scan", "empty-tuple-source"],
        "{}",
        q0b.explain()
    );

    for query in [Q1, Q1B] {
        let plan = optimized(query, RuleConfig::all());
        let [line] = scan_lines(&plan).try_into().expect("one scan");
        assert!(
            line.ends_with(r#", "dataType"), "TMIN")"#) && line.contains(" filter eq(value($"),
            "{line}"
        );
    }

    let q2 = optimized(Q2, RuleConfig::all());
    let lines = scan_lines(&q2);
    assert_eq!(lines.len(), 2, "{}", q2.explain());
    assert!(lines[0].ends_with(r#", "dataType"), "TMIN")"#), "{lines:?}");
    assert!(lines[1].ends_with(r#", "dataType"), "TMAX")"#), "{lines:?}");

    for query in [Q0, Q0B, Q1, Q1B, Q2] {
        let plan = optimized(query, RuleConfig::all());
        assert!(
            !plan.shape().contains(&"select"),
            "no SELECT is left: {}",
            plan.explain()
        );
        // The paper's configuration has no scan filter.
        let plan = optimized(query, RuleConfig::paper());
        assert!(!plan.explain().contains(" filter "), "{}", plan.explain());
    }
}

/// A record the scan drops never reaches the operators above it, so the
/// rule stays off when an ASSIGN the condition does not read can fail.
/// A condition that can fail moves whole: the scan raises its error, as
/// long as it meets the failing expressions in the SELECT path's order.
#[test]
fn the_scan_filter_never_bypasses_a_failing_expression() {
    let records = r#"collection("/sensors")("root")()("results")()"#;
    // A `let` the filter does not read, and that can fail.
    let failing_let = format!(
        r#"for $r in {records} let $d := dateTime($r("date"))
           where $r("dataType") eq "TMIN" return $d"#
    );
    // A `let` that can fail, read by the condition after a conjunct that
    // can fail: the SELECT path fails on the `let` first, the filter
    // would fail on the conjunct first.
    let conjunct_first = format!(
        r#"for $r in {records} let $d := dateTime($r("date"))
           where $r("value") - 1 gt 0 and year-from-dateTime($d) ge 2000 return $r"#
    );
    for query in [&failing_let, &conjunct_first] {
        let plan = optimized(query, RuleConfig::all());
        assert!(
            !plan.explain().contains(" filter "),
            "{query}\n{}",
            plan.explain()
        );
    }
    // The same two, the `let` read first: the orders agree.
    let let_first = format!(
        r#"for $r in {records} let $d := dateTime($r("date"))
           where year-from-dateTime($d) ge 2000 and $r("value") - 1 gt 0 return $r"#
    );
    // A conjunct that can fail.
    let failing_conjunct = format!(
        r#"for $r in {records}
           where $r("dataType") eq "TMIN" and $r("value") - 1 gt 0 return $r"#
    );
    // A numeric index step.
    let index_step = format!(
        r#"for $r in {records}
           where $r("dataType") eq "TMIN" and $r(1) eq 2 return $r"#
    );
    for (query, filter) in [
        (
            &let_first,
            r#"and(ge(year-from-dateTime(dateTime(value($7, "date"))), 2000), gt(subtract(value($7, "value"), 1), 0))"#,
        ),
        (
            &failing_conjunct,
            r#"and(eq(value($7, "dataType"), "TMIN"), gt(subtract(value($7, "value"), 1), 0))"#,
        ),
        (
            &index_step,
            r#"and(eq(value($7, "dataType"), "TMIN"), eq(value($7, 1), 2))"#,
        ),
    ] {
        let plan = optimized(query, RuleConfig::all());
        let [line] = scan_lines(&plan).try_into().expect("one scan");
        assert!(
            line.ends_with(&format!(" filter {filter}")),
            "{query}\n{}",
            plan.explain()
        );
        assert!(!plan.shape().contains(&"select"), "{}", plan.explain());
    }
}

/// Under `all()`, eager aggregation gives each side of Q2's join a
/// GROUP-BY on its join keys folding a side partial of the side's
/// `value` (whose ASSIGN it absorbs); the join matches the group keys,
/// and the `merge-avg` above it folds the combined partials.
#[test]
fn eager_aggregation_rewrites_q2() {
    let plan = optimized(Q2, RuleConfig::all());
    let expected = r#"distribute [$18]
  assign $18 := divide($17, 10)
    aggregate $17 := merge-avg(combine-side-partials("avg", "subtract", $22, $21))
      join and(eq($23, $24), eq($25, $26))
        group-by [$23 := value($7, "station"), $25 := value($7, "date")] {
          aggregate $21 := side-partial(value($7, "value"))
            nested-tuple-source
        }
          data-scan $7 <- collection("/sensors") project ("root")()("results")() filter eq(value($7, "dataType"), "TMIN")
            empty-tuple-source
        group-by [$24 := value($15, "station"), $26 := value($15, "date")] {
          aggregate $22 := side-partial(value($15, "value"))
            nested-tuple-source
        }
          data-scan $15 <- collection("/sensors") project ("root")()("results")() filter eq(value($15, "dataType"), "TMAX")
            empty-tuple-source
"#;
    assert_eq!(plan.explain(), expected);
}

/// The rule fires only on an `avg`, `sum` or `count` of `subtract` or
/// `add` of two one-sided terms directly over an equi-join, and only
/// under `all()`.
#[test]
fn eager_aggregation_fires_only_where_it_may() {
    let join = |agg: &str, ret: &str| {
        format!(
            r#"{agg}(
              for $r_min in collection("/sensors")("root")()("results")()
              for $r_max in collection("/sensors")("root")()("results")()
              where $r_min("station") eq $r_max("station")
                and $r_min("dataType") eq "TMIN"
                and $r_max("dataType") eq "TMAX"
              return {ret})"#
        )
    };
    let diff = r#"$r_max("value") - $r_min("value")"#;
    let whole_record = r#"
        for $r_min in collection("/sensors")("root")()("results")()
        for $r_max in collection("/sensors")("root")()("results")()
        where $r_min("station") eq $r_max("station")
        return $r_max"#;
    let negative = [
        (
            "select above the join",
            integration_tests::Q2_DECEMBER.to_string(),
        ),
        ("join returning records", whole_record.to_string()),
        ("min", join("min", diff)),
        ("max", join("max", diff)),
        (
            "multiply",
            join("sum", r#"$r_max("value") * $r_min("value")"#),
        ),
        (
            "a term reading both sides",
            join(
                "sum",
                r#"$r_max("value") - ($r_min("value") - $r_max("value"))"#,
            ),
        ),
        (
            "both terms on one side",
            join("sum", r#"$r_max("value") - $r_max("v2")"#),
        ),
        (
            "a term that can fail",
            join(
                "sum",
                r#"year-from-dateTime(dateTime($r_max("date"))) - $r_min("value")"#,
            ),
        ),
    ];
    for (name, query) in &negative {
        let (plan, applied) = optimized_by(query, RuleSet::for_config(RuleConfig::all()));
        assert!(!applied.contains(&EAGER), "{name}: {}", plan.explain());
    }
    for agg in ["avg", "sum", "count"] {
        let (plan, applied) =
            optimized_by(&join(agg, diff), RuleSet::for_config(RuleConfig::all()));
        assert!(applied.contains(&EAGER), "{agg}: {}", plan.explain());
    }
    for config in [RuleConfig::paper(), RuleConfig::none()] {
        let (plan, applied) = optimized_by(Q2, RuleSet::for_config(config));
        assert!(!applied.contains(&EAGER), "{config:?}: {applied:?}");
        assert!(
            !plan.explain().contains("side-partial"),
            "{}",
            plan.explain()
        );
    }
}

/// Eager aggregation leaves the plans of the other paper queries as they
/// were.
#[test]
fn eager_aggregation_leaves_q0_and_q1_unchanged() {
    for query in [Q0, Q0B, Q1, Q1B] {
        let (with, _) = optimized_by(query, RuleSet::for_config(RuleConfig::all()));
        let (without, _) =
            optimized_by(query, RuleSet::for_config(RuleConfig::all()).without(EAGER));
        assert_eq!(with.explain(), without.explain());
    }
}
