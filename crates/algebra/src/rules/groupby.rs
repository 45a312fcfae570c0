//! §4.3 Group-by Rules.
//!
//! These apply to both XML and JSON queries. The end state (Fig. 12) has
//! "the count function computed at the same time that each group is
//! formed (without creating any sequences)".

use super::base::{error_free, one_side, vars_produced};
use super::{take_op, transform_bottom_up, var_use_counts, Rule};
use crate::expr::{AggFunc, Function, LogicalExpr};
use crate::plan::{LogicalOp, LogicalPlan, VarGen, VarId};
use jdm::Item;
use std::collections::HashSet;

/// Remove `ASSIGN $t := treat($s, item)` above a GROUP-BY whose aggregate
/// produces `$s` (paper Fig. 9 → 10): "our rule searches for the type
/// returned from the sequence created from the AGGREGATE operator. If it
/// is of type item ... the whole treat expression can be safely removed."
pub struct RemoveTreat;

impl Rule for RemoveTreat {
    fn name(&self) -> &'static str {
        "remove-treat"
    }

    fn apply(&self, plan: &mut LogicalPlan) -> bool {
        let mut subs: Vec<(VarId, VarId)> = Vec::new();
        let changed = transform_bottom_up(&mut plan.root, &mut |op| {
            let LogicalOp::Assign { var, expr, input } = op else {
                return false;
            };
            let LogicalExpr::Call(Function::TreatItem, args) = expr else {
                return false;
            };
            let [LogicalExpr::Var(source)] = args.as_slice() else {
                return false;
            };
            subs.push((*var, *source));
            let inner = take_op(input);
            *op = inner;
            true
        });
        for (from, to) in subs {
            plan.root.substitute_var(from, to);
        }
        changed
    }
}

/// Variables produced by a GROUP-BY nested `AGGREGATE sequence`.
fn sequence_vars(root: &LogicalOp) -> HashSet<VarId> {
    let mut out = HashSet::new();
    root.visit(&mut |op| {
        if let LogicalOp::GroupBy { nested, .. } = op {
            if let LogicalOp::Aggregate {
                var,
                func: AggFunc::Sequence,
                ..
            } = nested.as_ref()
            {
                out.insert(*var);
            }
        }
    });
    out
}

/// Convert a scalar aggregate over a grouped sequence into a SUBPLAN with
/// an incremental aggregate (paper Fig. 10 → 11): "SUBPLAN's inner focus
/// introduces an UNNEST iterate ... and finishes with an AGGREGATE along
/// with a count function which incrementally calculates the number of
/// tuples".
///
/// This also resolves the `value`-on-sequence conflict the paper
/// describes: after conversion, the value expression applies to one item
/// at a time.
pub struct ConvertScalarAggregateToSubplan;

impl Rule for ConvertScalarAggregateToSubplan {
    fn name(&self) -> &'static str {
        "convert-scalar-aggregate-to-subplan"
    }

    fn apply(&self, plan: &mut LogicalPlan) -> bool {
        let seq_vars = sequence_vars(&plan.root);
        if seq_vars.is_empty() {
            return false;
        }
        let mut gen = VarGen::above(&plan.root);
        transform_bottom_up(&mut plan.root, &mut |op| {
            let LogicalOp::Assign {
                var: c,
                expr,
                input,
            } = op
            else {
                return false;
            };
            let LogicalExpr::Call(f, args) = expr else {
                return false;
            };
            if !f.is_scalar_aggregate() || args.len() != 1 {
                return false;
            }
            // The aggregate argument must reference exactly one grouped
            // sequence variable.
            let mut vars = Vec::new();
            args[0].collect_vars(&mut vars);
            let seq_refs: Vec<VarId> = vars
                .iter()
                .copied()
                .filter(|v| seq_vars.contains(v))
                .collect();
            let [s] = seq_refs.as_slice() else {
                return false;
            };
            let Some(agg_func) = AggFunc::from_scalar(*f) else {
                return false;
            };

            let item_var = gen.fresh();
            let mut inner_arg = args[0].clone();
            inner_arg.substitute_var(*s, item_var);

            let nested = LogicalOp::Aggregate {
                var: *c,
                func: agg_func,
                arg: inner_arg,
                input: Box::new(LogicalOp::Unnest {
                    var: item_var,
                    expr: LogicalExpr::Call(Function::Iterate, vec![LogicalExpr::Var(*s)]),
                    input: Box::new(LogicalOp::NestedTupleSource),
                }),
            };
            let outer_input = take_op(input);
            *op = LogicalOp::Subplan {
                nested: Box::new(nested),
                input: Box::new(outer_input),
            };
            true
        })
    }
}

/// Push a SUBPLAN's aggregate down into the GROUP-BY it sits on (paper
/// Fig. 11 → 12): "we can push the AGGREGATE operator of the SUBPLAN down
/// to the GROUP-BY operator by replacing it ... the count function is
/// computed at the same time that each group is formed (without creating
/// any sequences)".
pub struct PushSubplanAggregateIntoGroupBy;

impl Rule for PushSubplanAggregateIntoGroupBy {
    fn name(&self) -> &'static str {
        "push-subplan-aggregate-into-group-by"
    }

    fn apply(&self, plan: &mut LogicalPlan) -> bool {
        let counts = var_use_counts(&plan.root);
        transform_bottom_up(&mut plan.root, &mut |op| {
            // Match SUBPLAN { AGGREGATE f over UNNEST iterate($s) over NTS }
            // directly above GROUP-BY { AGGREGATE $s := sequence(arg) }.
            let LogicalOp::Subplan { nested, input } = op else {
                return false;
            };
            let LogicalOp::Aggregate {
                var: c,
                func,
                arg,
                input: agg_in,
            } = nested.as_ref()
            else {
                return false;
            };
            if *func == AggFunc::Sequence {
                return false;
            }
            let LogicalOp::Unnest {
                var: j,
                expr,
                input: u_in,
            } = agg_in.as_ref()
            else {
                return false;
            };
            if !matches!(u_in.as_ref(), LogicalOp::NestedTupleSource) {
                return false;
            }
            let LogicalExpr::Call(Function::Iterate, it_args) = expr else {
                return false;
            };
            let [LogicalExpr::Var(s)] = it_args.as_slice() else {
                return false;
            };

            let LogicalOp::GroupBy {
                keys,
                nested: g_nested,
                input: g_in,
            } = input.as_mut()
            else {
                return false;
            };
            let LogicalOp::Aggregate {
                var: s2,
                func: AggFunc::Sequence,
                arg: seq_arg,
                input: seq_in,
            } = g_nested.as_ref()
            else {
                return false;
            };
            if s2 != s || !matches!(seq_in.as_ref(), LogicalOp::NestedTupleSource) {
                return false;
            }
            // The sequence must have no other consumer than the subplan's
            // iterate.
            if counts.get(s).copied().unwrap_or(0) != 1 {
                return false;
            }

            let mut new_arg = arg.clone();
            new_arg.substitute_var_expr(*j, seq_arg);
            let new_nested = LogicalOp::Aggregate {
                var: *c,
                func: *func,
                arg: new_arg,
                input: Box::new(LogicalOp::NestedTupleSource),
            };
            let new_group = LogicalOp::GroupBy {
                keys: keys.clone(),
                nested: Box::new(new_nested),
                input: Box::new(take_op(g_in)),
            };
            *op = new_group;
            true
        })
    }
}

/// Aggregate each side of an equi-join per join key before the join: Yan
/// and Larson's eager aggregation ("Eager Aggregation and Lazy
/// Aggregation", VLDB 1995), one step past the paper's group-by rules.
/// Not one of the paper's rules: it runs only with
/// [`super::RuleConfig::beyond_paper`].
///
/// It fires on `AGGREGATE $a := f($t)` with `f` one of `avg`, `sum` and
/// `count`, over `ASSIGN $t := op(x, m)` with `op` one of `subtract` and
/// `add`, directly over a JOIN whose condition is a conjunction of
/// equalities between the two sides. `x` and `m` must each read one side
/// only, different sides, and be error-free (`base::error_free`): they
/// now also run on tuples that find no partner. Each side gets a
/// GROUP-BY on its join keys that folds its term into a `side-partial`:
/// the count and sum of the term's numbers, plus its first value and
/// first non-number. A term bound by an ASSIGN on top of its side, and
/// read nowhere else, is folded from that ASSIGN's expression, and the
/// ASSIGN goes. The join then matches a row per key instead of one per
/// pair; the ASSIGN above it goes, and the AGGREGATE becomes the
/// matching `merge-*` fold of `combine-side-partials`, which turns two
/// partials of a key into what their pairs add to `f`: `c_m·Σx − c_x·Σm`
/// to the sum (`+` for `add`) and `c_m·c_x` to the count. It raises the
/// error one failing pair would raise: a non-number on a key with no
/// partner raises nothing.
///
/// GROUP-BY and join keys canonicalize alike, so a group meets exactly
/// the rows of the other side its members would have met.
///
/// The rule pays where keys repeat. Each side's GROUP-BY runs as a
/// partial group-by (`dataflow::ops::HashGroupByOp::partial`): it passes
/// tuples through as one-tuple partials, which the join and the combine
/// merge like any others, until it sees keys repeat, and only then
/// groups.
pub struct PushAggregateBelowJoin;

/// The join keys of `cond` as `[left, right]` expression pairs, when
/// every conjunct (the translator's `true` placeholder aside) equates an
/// expression over one side with one over the other.
fn equi_keys(cond: &LogicalExpr, sides: &[HashSet<VarId>; 2]) -> Option<Vec<[LogicalExpr; 2]>> {
    let mut keys = Vec::new();
    for c in cond.conjuncts() {
        if matches!(c, LogicalExpr::Const(Item::Boolean(true))) {
            continue;
        }
        let LogicalExpr::Call(Function::Eq, args) = c else {
            return None;
        };
        let [a, b] = args.as_slice() else {
            return None;
        };
        match (one_side(a, sides)?, one_side(b, sides)?) {
            (0, 1) => keys.push([a.clone(), b.clone()]),
            (1, 0) => keys.push([b.clone(), a.clone()]),
            _ => return None,
        }
    }
    (!keys.is_empty()).then_some(keys)
}

impl Rule for PushAggregateBelowJoin {
    fn name(&self) -> &'static str {
        "push-aggregate-below-join"
    }

    fn apply(&self, plan: &mut LogicalPlan) -> bool {
        let counts = var_use_counts(&plan.root);
        let mut gen = VarGen::above(&plan.root);
        transform_bottom_up(&mut plan.root, &mut |op| {
            let LogicalOp::Aggregate {
                func, arg, input, ..
            } = op
            else {
                return false;
            };
            let LogicalExpr::Var(t) = arg else {
                return false;
            };
            let merge = match func {
                AggFunc::Avg => AggFunc::MergeAvg,
                AggFunc::Sum => AggFunc::MergeSum,
                AggFunc::Count => AggFunc::MergeCount,
                _ => return false,
            };
            if counts.get(t).copied().unwrap_or(0) != 1 {
                return false;
            }
            let LogicalOp::Assign {
                var,
                expr,
                input: below,
            } = input.as_mut()
            else {
                return false;
            };
            let LogicalExpr::Call(arith @ (Function::Sub | Function::Add), terms) = expr else {
                return false;
            };
            let [first, second] = terms.as_slice() else {
                return false;
            };
            let LogicalOp::Join { cond, left, right } = below.as_mut() else {
                return false;
            };
            if var != t {
                return false;
            }
            let sides = [vars_produced(left), vars_produced(right)];
            let Some(keys) = equi_keys(cond, &sides) else {
                return false;
            };
            let (Some(s1), Some(s2)) = (one_side(first, &sides), one_side(second, &sides)) else {
                return false;
            };
            if s1 == s2 || !error_free(first) || !error_free(second) {
                return false;
            }

            let mut term = [first.clone(), second.clone()];
            if s1 == 1 {
                term.swap(0, 1);
            }
            let partial = [gen.fresh(), gen.fresh()];
            let key_vars: Vec<[VarId; 2]> =
                keys.iter().map(|_| [gen.fresh(), gen.fresh()]).collect();
            for (side, (slot, term)) in [left, right].into_iter().zip(term).enumerate() {
                // A term bound by an ASSIGN on top of its side, and read
                // only here, folds that ASSIGN's expression in place.
                let (term, input) = match (term, take_op(slot)) {
                    (LogicalExpr::Var(v), LogicalOp::Assign { var, expr, input })
                        if var == v && counts.get(&v) == Some(&1) =>
                    {
                        (expr, *input)
                    }
                    (term, input) => (term, input),
                };
                **slot = LogicalOp::GroupBy {
                    keys: keys
                        .iter()
                        .zip(&key_vars)
                        .map(|(k, v)| (v[side], k[side].clone()))
                        .collect(),
                    nested: Box::new(LogicalOp::Aggregate {
                        var: partial[side],
                        func: AggFunc::SidePartial,
                        arg: term,
                        input: Box::new(LogicalOp::NestedTupleSource),
                    }),
                    input: Box::new(input),
                };
            }
            *cond = LogicalExpr::conjoin(
                key_vars
                    .iter()
                    .map(|[l, r]| {
                        LogicalExpr::call(
                            Function::Eq,
                            vec![LogicalExpr::Var(*l), LogicalExpr::Var(*r)],
                        )
                    })
                    .collect(),
            );
            let combine = LogicalExpr::call(
                Function::CombineSidePartials,
                vec![
                    LogicalExpr::Const(Item::str(func.name())),
                    LogicalExpr::Const(Item::str(arith.name())),
                    LogicalExpr::Var(partial[s1]),
                    LogicalExpr::Var(partial[s2]),
                ],
            );
            **input = take_op(below);
            *arg = combine;
            *func = merge;
            true
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jdm::Item;

    /// The Fig. 9 naive plan for Q1-style aggregation:
    /// `group by $date := $x("author") return count($x("title"))`.
    fn fig9_plan() -> LogicalPlan {
        let x = VarId(0);
        let key_in = VarId(1);
        let key_out = VarId(2);
        let seq = VarId(3);
        let treat = VarId(4);
        let cnt = VarId(5);

        // Stand-in scan producing $x.
        let scan = LogicalOp::Unnest {
            var: x,
            expr: LogicalExpr::Call(
                Function::Iterate,
                vec![LogicalExpr::Call(
                    Function::Collection,
                    vec![LogicalExpr::Const(Item::str("/books"))],
                )],
            ),
            input: Box::new(LogicalOp::EmptyTupleSource),
        };
        let a_key = LogicalOp::Assign {
            var: key_in,
            expr: LogicalExpr::value_key(LogicalExpr::Var(x), "author"),
            input: Box::new(scan),
        };
        let group = LogicalOp::GroupBy {
            keys: vec![(key_out, LogicalExpr::Var(key_in))],
            nested: Box::new(LogicalOp::Aggregate {
                var: seq,
                func: AggFunc::Sequence,
                arg: LogicalExpr::Var(x),
                input: Box::new(LogicalOp::NestedTupleSource),
            }),
            input: Box::new(a_key),
        };
        let a_treat = LogicalOp::Assign {
            var: treat,
            expr: LogicalExpr::Call(Function::TreatItem, vec![LogicalExpr::Var(seq)]),
            input: Box::new(group),
        };
        let a_count = LogicalOp::Assign {
            var: cnt,
            expr: LogicalExpr::Call(
                Function::Count,
                vec![LogicalExpr::value_key(LogicalExpr::Var(treat), "title")],
            ),
            input: Box::new(a_treat),
        };
        LogicalPlan::new(LogicalOp::Distribute {
            exprs: vec![LogicalExpr::Var(cnt)],
            input: Box::new(a_count),
        })
    }

    #[test]
    fn fig9_through_fig12() {
        let mut plan = fig9_plan();

        // Fig. 10: treat removed.
        assert!(RemoveTreat.apply(&mut plan));
        let t = plan.explain();
        assert!(!t.contains("treat"), "{t}");
        assert!(t.contains("count(value($3, \"title\"))"), "{t}");

        // Fig. 11: scalar count becomes SUBPLAN { UNNEST + AGGREGATE }.
        assert!(ConvertScalarAggregateToSubplan.apply(&mut plan));
        let t = plan.explain();
        assert!(t.contains("subplan"), "{t}");
        assert!(
            t.contains("aggregate $5 := count(value($6, \"title\"))"),
            "{t}"
        );
        assert!(t.contains("unnest $6 := iterate($3)"), "{t}");

        // Fig. 12: aggregate pushed into the GROUP-BY; no sequences left.
        assert!(PushSubplanAggregateIntoGroupBy.apply(&mut plan));
        let t = plan.explain();
        assert!(!t.contains("subplan"), "{t}");
        assert!(!t.contains("sequence"), "{t}");
        assert!(
            t.contains("aggregate $5 := count(value($0, \"title\"))"),
            "{t}"
        );

        // Fixpoint.
        assert!(!RemoveTreat.apply(&mut plan));
        assert!(!ConvertScalarAggregateToSubplan.apply(&mut plan));
        assert!(!PushSubplanAggregateIntoGroupBy.apply(&mut plan));
    }

    #[test]
    fn q1b_shape_needs_only_the_push_rule() {
        // Q1b arrives pre-formed as SUBPLAN above GROUP-BY (paper: "in
        // this case we can immediately push the AGGREGATE down").
        let mut plan = fig9_plan();
        RemoveTreat.apply(&mut plan);
        ConvertScalarAggregateToSubplan.apply(&mut plan);
        // This state equals the Q1b translation; only the push applies:
        let mut q1b = plan.clone();
        assert!(PushSubplanAggregateIntoGroupBy.apply(&mut q1b));
        assert!(!ConvertScalarAggregateToSubplan.apply(&mut q1b));
    }

    /// `AGGREGATE $a := func($t)` over `ASSIGN $t := op($1, $0)` over an
    /// equi-join of a left side producing `$0` and a right side
    /// producing `$1`.
    fn aggregate_over_join(func: AggFunc, op: Function) -> LogicalPlan {
        let side = |v: u32| LogicalOp::Assign {
            var: VarId(v),
            expr: LogicalExpr::Const(Item::int(v as i64)),
            input: Box::new(LogicalOp::EmptyTupleSource),
        };
        let join = LogicalOp::Join {
            cond: LogicalExpr::call(
                Function::Eq,
                vec![LogicalExpr::Var(VarId(0)), LogicalExpr::Var(VarId(1))],
            ),
            left: Box::new(side(0)),
            right: Box::new(side(1)),
        };
        let assign = LogicalOp::Assign {
            var: VarId(2),
            expr: LogicalExpr::call(
                op,
                vec![LogicalExpr::Var(VarId(1)), LogicalExpr::Var(VarId(0))],
            ),
            input: Box::new(join),
        };
        LogicalPlan::new(LogicalOp::Distribute {
            exprs: vec![LogicalExpr::Var(VarId(3))],
            input: Box::new(LogicalOp::Aggregate {
                var: VarId(3),
                func,
                arg: LogicalExpr::Var(VarId(2)),
                input: Box::new(assign),
            }),
        })
    }

    #[test]
    fn aggregate_moves_below_the_join() {
        let mut plan = aggregate_over_join(AggFunc::Sum, Function::Sub);
        assert!(PushAggregateBelowJoin.apply(&mut plan));
        let expected = [
            "distribute [$3]",
            r#"  aggregate $3 := merge-sum(combine-side-partials("sum", "subtract", $5, $4))"#,
            "    join eq($6, $7)",
            "      group-by [$6 := $0] {",
            "        aggregate $4 := side-partial($0)",
            "          nested-tuple-source",
            "      }",
            "        assign $0 := 0",
            "          empty-tuple-source",
            "      group-by [$7 := $1] {",
            "        aggregate $5 := side-partial($1)",
            "          nested-tuple-source",
            "      }",
            "        assign $1 := 1",
            "          empty-tuple-source",
            "",
        ];
        assert_eq!(plan.explain(), expected.join("\n"));
        assert!(!PushAggregateBelowJoin.apply(&mut plan));
    }

    #[test]
    fn only_linear_aggregates_move_below_the_join() {
        for (func, op) in [
            (AggFunc::Min, Function::Sub),
            (AggFunc::Max, Function::Add),
            (AggFunc::Sum, Function::Mul),
        ] {
            let mut plan = aggregate_over_join(func, op);
            assert!(
                !PushAggregateBelowJoin.apply(&mut plan),
                "{}",
                plan.explain()
            );
        }
        for func in [AggFunc::Avg, AggFunc::Count] {
            let mut plan = aggregate_over_join(func, Function::Add);
            assert!(
                PushAggregateBelowJoin.apply(&mut plan),
                "{}",
                plan.explain()
            );
        }
    }

    #[test]
    fn conversion_requires_grouped_sequence() {
        // count over a non-grouped variable must not convert.
        let mut plan = LogicalPlan::new(LogicalOp::Distribute {
            exprs: vec![LogicalExpr::Var(VarId(1))],
            input: Box::new(LogicalOp::Assign {
                var: VarId(1),
                expr: LogicalExpr::Call(Function::Count, vec![LogicalExpr::Var(VarId(0))]),
                input: Box::new(LogicalOp::Assign {
                    var: VarId(0),
                    expr: LogicalExpr::Const(Item::int(1)),
                    input: Box::new(LogicalOp::EmptyTupleSource),
                }),
            }),
        });
        assert!(!ConvertScalarAggregateToSubplan.apply(&mut plan));
    }
}
