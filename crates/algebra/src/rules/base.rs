//! Always-on base rules — stand-ins for Algebricks' built-in rule set.

use super::{take_op, transform_bottom_up, var_use_counts, Rule};
use crate::expr::{Function, LogicalExpr};
use crate::plan::{LogicalOp, LogicalPlan, VarGen, VarId};
use std::collections::HashSet;

/// Remove an ASSIGN whose variable is never referenced. All our scalar
/// functions are pure, so this is always sound.
pub struct RemoveDeadAssign;

impl Rule for RemoveDeadAssign {
    fn name(&self) -> &'static str {
        "remove-dead-assign"
    }

    fn apply(&self, plan: &mut LogicalPlan) -> bool {
        let counts = var_use_counts(&plan.root);
        transform_bottom_up(&mut plan.root, &mut |op| {
            if let LogicalOp::Assign { var, input, .. } = op {
                if counts.get(var).copied().unwrap_or(0) == 0 {
                    let inner = take_op(input);
                    *op = inner;
                    return true;
                }
            }
            false
        })
    }
}

/// Split a SELECT sitting on a JOIN, directly or across ASSIGNs:
/// conjuncts that reference only one side become SELECTs below the join;
/// conjuncts spanning both sides move into the join condition. A conjunct
/// that reads a variable bound by one of the intervening ASSIGNs stays in
/// the SELECT. The translator emits `JOIN true + SELECT all` for
/// multi-`for` FLWORs (with an ASSIGN in between for each `let` after the
/// second `for`); this rule produces the executable equi-join.
pub struct PushSelectIntoJoin;

/// All variables produced anywhere in a subtree.
pub(crate) fn vars_produced(op: &LogicalOp) -> HashSet<VarId> {
    let mut out = HashSet::new();
    op.visit(&mut |o| out.extend(o.produced_vars()));
    out
}

/// The JOIN under a (possibly empty) chain of ASSIGNs, collecting the
/// variables those ASSIGNs bind into `bound`.
fn join_under_assigns<'a>(
    op: &'a mut LogicalOp,
    bound: &mut HashSet<VarId>,
) -> Option<&'a mut LogicalOp> {
    match op {
        LogicalOp::Join { .. } => Some(op),
        LogicalOp::Assign { var, input, .. } => {
            bound.insert(*var);
            join_under_assigns(input, bound)
        }
        _ => None,
    }
}

impl Rule for PushSelectIntoJoin {
    fn name(&self) -> &'static str {
        "push-select-into-join"
    }

    fn apply(&self, plan: &mut LogicalPlan) -> bool {
        transform_bottom_up(&mut plan.root, &mut |op| {
            let LogicalOp::Select { cond, input } = op else {
                return false;
            };
            let mut bound = HashSet::new();
            let Some(LogicalOp::Join {
                cond: jcond,
                left,
                right,
            }) = join_under_assigns(input, &mut bound)
            else {
                return false;
            };
            let lvars = vars_produced(left);
            let rvars = vars_produced(right);

            let mut keep = Vec::new();
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut to_join = Vec::new();
            for c in cond.conjuncts() {
                let mut vars = Vec::new();
                c.collect_vars(&mut vars);
                if vars.iter().any(|v| bound.contains(v)) {
                    keep.push(c.clone());
                    continue;
                }
                let uses_l = vars.iter().any(|v| lvars.contains(v));
                let uses_r = vars.iter().any(|v| rvars.contains(v));
                match (uses_l, uses_r) {
                    (true, false) => to_left.push(c.clone()),
                    (false, true) => to_right.push(c.clone()),
                    _ => to_join.push(c.clone()),
                }
            }
            if to_left.is_empty() && to_right.is_empty() && to_join.is_empty() {
                return false; // every conjunct reads an ASSIGN above the join
            }
            for (side, parts) in [(left, to_left), (right, to_right)] {
                if !parts.is_empty() {
                    let inner = take_op(side);
                    **side = LogicalOp::Select {
                        cond: LogicalExpr::conjoin(parts),
                        input: Box::new(inner),
                    };
                }
            }
            // Merge cross conjuncts into the join condition, dropping the
            // translator's `true` placeholder.
            let mut jparts: Vec<LogicalExpr> = jcond
                .conjuncts()
                .into_iter()
                .filter(|c| !matches!(c, LogicalExpr::Const(jdm::Item::Boolean(true))))
                .cloned()
                .collect();
            jparts.extend(to_join);
            *jcond = LogicalExpr::conjoin(jparts);

            if keep.is_empty() {
                // The SELECT itself is now fully absorbed.
                let below = take_op(input);
                *op = below;
            } else {
                *cond = LogicalExpr::conjoin(keep);
            }
            true
        })
    }
}

/// Evaluate one-sided expressions below the JOIN they sit on. For an
/// ASSIGN directly on a JOIN, each maximal subexpression that reads the
/// variables of one side only, and cannot fail, is bound to a fresh
/// variable by a new ASSIGN on that side and replaced by the variable
/// above the join. When the whole expression qualifies, the ASSIGN itself
/// moves below the join. The join then carries the computed fields
/// instead of the records they were computed from, so the compiler can
/// drop the records before the hash exchanges (AsterixDB's
/// `PushFieldAccessRule` does the same for field accesses).
///
/// Only expressions that cannot fail move: navigation (`value`,
/// `keys-or-members`), the coercion scaffolding (`promote`, `data`,
/// `treat`, `iterate`), comparisons and `and`/`or`/`not`. Below the join
/// they also run on tuples that find no partner, and a function that can
/// fail there (`dateTime`, arithmetic, aggregates) would raise an error
/// the query did not raise before.
pub struct PushSideExpressionsBelowJoin;

/// True when evaluating `e` calls only [`total`] functions, so never fails.
pub(crate) fn error_free(e: &LogicalExpr) -> bool {
    match e {
        LogicalExpr::Var(_) | LogicalExpr::Const(_) => true,
        LogicalExpr::Call(f, args) => total(*f) && args.iter().all(error_free),
    }
}

/// True when `f` returns a value for any arguments: navigation, the
/// coercion scaffolding, comparisons and the boolean connectives.
/// `dateTime` and its accessors, arithmetic and the aggregates can fail on
/// the wrong input.
pub(crate) fn total(f: Function) -> bool {
    use Function::*;
    matches!(
        f,
        Value
            | KeysOrMembers
            | Promote
            | Data
            | TreatItem
            | Iterate
            | Eq
            | Ne
            | Ge
            | Le
            | Gt
            | Lt
            | And
            | Or
            | Not
    )
}

/// The one side (0 = left, 1 = right) whose variables are all `e` reads;
/// `None` for expressions reading no variable or both sides.
pub(crate) fn one_side(e: &LogicalExpr, sides: &[HashSet<VarId>; 2]) -> Option<usize> {
    let mut vars = Vec::new();
    e.collect_vars(&mut vars);
    if vars.is_empty() {
        return None;
    }
    sides
        .iter()
        .position(|s| vars.iter().all(|v| s.contains(v)))
}

/// Replace each maximal one-sided, error-free call in `e` with a fresh
/// variable, recording the binding under its side in `pushed`.
fn extract_side_calls(
    e: &mut LogicalExpr,
    sides: &[HashSet<VarId>; 2],
    gen: &mut VarGen,
    pushed: &mut [Vec<(VarId, LogicalExpr)>; 2],
) {
    if !matches!(e, LogicalExpr::Call(..)) {
        return; // a bare variable or constant costs nothing to carry
    }
    if let Some(side) = one_side(e, sides).filter(|_| error_free(e)) {
        let v = gen.fresh();
        pushed[side].push((v, std::mem::replace(e, LogicalExpr::Var(v))));
        return;
    }
    if let LogicalExpr::Call(_, args) = e {
        for a in args {
            extract_side_calls(a, sides, gen, pushed);
        }
    }
}

impl Rule for PushSideExpressionsBelowJoin {
    fn name(&self) -> &'static str {
        "push-side-expressions-below-join"
    }

    fn apply(&self, plan: &mut LogicalPlan) -> bool {
        let mut gen = VarGen::above(&plan.root);
        transform_bottom_up(&mut plan.root, &mut |op| {
            let LogicalOp::Assign { var, expr, input } = op else {
                return false;
            };
            let LogicalOp::Join { left, right, .. } = input.as_mut() else {
                return false;
            };
            let sides = [vars_produced(left), vars_produced(right)];
            let mut pushed: [Vec<(VarId, LogicalExpr)>; 2] = Default::default();
            let moved_whole = match one_side(expr, &sides).filter(|_| error_free(expr)) {
                Some(side) => {
                    let whole = std::mem::replace(expr, LogicalExpr::Var(*var));
                    pushed[side].push((*var, whole));
                    true
                }
                None => {
                    extract_side_calls(expr, &sides, &mut gen, &mut pushed);
                    false
                }
            };
            if pushed.iter().all(Vec::is_empty) {
                return false;
            }
            for (slot, bindings) in [left, right].into_iter().zip(pushed) {
                for (v, e) in bindings {
                    let inner = take_op(slot);
                    **slot = LogicalOp::Assign {
                        var: v,
                        expr: e,
                        input: Box::new(inner),
                    };
                }
            }
            if moved_whole {
                let join = take_op(input);
                *op = join;
            }
            true
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Function;
    use jdm::Item;

    fn assign(var: u32, expr: LogicalExpr, input: LogicalOp) -> LogicalOp {
        LogicalOp::Assign {
            var: VarId(var),
            expr,
            input: Box::new(input),
        }
    }

    #[test]
    fn dead_assign_is_removed() {
        let plan_ops = assign(
            0,
            LogicalExpr::Const(Item::int(1)),
            LogicalOp::EmptyTupleSource,
        );
        let mut plan = LogicalPlan::new(LogicalOp::Distribute {
            exprs: vec![LogicalExpr::Const(Item::int(9))],
            input: Box::new(assign(1, LogicalExpr::Const(Item::int(2)), plan_ops)),
        });
        assert!(RemoveDeadAssign.apply(&mut plan));
        assert_eq!(plan.shape(), vec!["distribute", "empty-tuple-source"]);
        assert!(!RemoveDeadAssign.apply(&mut plan));
    }

    #[test]
    fn live_assign_is_kept() {
        let mut plan = LogicalPlan::new(LogicalOp::Distribute {
            exprs: vec![LogicalExpr::Var(VarId(0))],
            input: Box::new(assign(
                0,
                LogicalExpr::Const(Item::int(1)),
                LogicalOp::EmptyTupleSource,
            )),
        });
        assert!(!RemoveDeadAssign.apply(&mut plan));
    }

    /// `JOIN true` over a left side producing `$0` and a right side
    /// producing `$1`.
    fn join_of_two_vars() -> LogicalOp {
        LogicalOp::Join {
            cond: LogicalExpr::Const(Item::Boolean(true)),
            left: Box::new(assign(
                0,
                LogicalExpr::Const(Item::int(1)),
                LogicalOp::EmptyTupleSource,
            )),
            right: Box::new(assign(
                1,
                LogicalExpr::Const(Item::int(2)),
                LogicalOp::EmptyTupleSource,
            )),
        }
    }

    fn var(v: u32) -> LogicalExpr {
        LogicalExpr::Var(VarId(v))
    }

    fn returning(v: u32, input: LogicalOp) -> LogicalPlan {
        LogicalPlan::new(LogicalOp::Distribute {
            exprs: vec![var(v)],
            input: Box::new(input),
        })
    }

    #[test]
    fn one_sided_paths_move_below_the_join() {
        // $2 := subtract(value($1, "v"), value($0, "v")) over the join.
        let expr = LogicalExpr::call(
            Function::Sub,
            vec![
                LogicalExpr::value_key(var(1), "v"),
                LogicalExpr::value_key(var(0), "v"),
            ],
        );
        let mut plan = returning(2, assign(2, expr, join_of_two_vars()));
        assert!(PushSideExpressionsBelowJoin.apply(&mut plan));
        let text = plan.explain();
        let expected = [
            "distribute [$2]",
            "  assign $2 := subtract($3, $4)",
            "    join true",
            r#"      assign $4 := value($0, "v")"#,
            "        assign $0 := 1",
            "          empty-tuple-source",
            r#"      assign $3 := value($1, "v")"#,
            "        assign $1 := 2",
            "          empty-tuple-source",
            "",
        ];
        assert_eq!(text, expected.join("\n"));
        assert!(!PushSideExpressionsBelowJoin.apply(&mut plan), "{text}");
    }

    #[test]
    fn failing_functions_stay_above_the_join() {
        // $2 := dateTime(value($1, "d")): only the path step moves.
        let expr = LogicalExpr::call(
            Function::DateTime,
            vec![LogicalExpr::value_key(var(1), "d")],
        );
        let mut plan = returning(2, assign(2, expr, join_of_two_vars()));
        assert!(PushSideExpressionsBelowJoin.apply(&mut plan));
        let text = plan.explain();
        assert!(
            text.contains("assign $2 := dateTime($3)\n    join"),
            "{text}"
        );
        assert!(text.contains(r#"assign $3 := value($1, "d")"#), "{text}");
        assert!(!PushSideExpressionsBelowJoin.apply(&mut plan), "{text}");
    }

    #[test]
    fn error_free_assign_moves_whole() {
        // $2 := eq(value($0, "k"), "x") reads the left side only.
        let expr = LogicalExpr::call(
            Function::Eq,
            vec![
                LogicalExpr::value_key(var(0), "k"),
                LogicalExpr::Const(Item::str("x")),
            ],
        );
        let mut plan = returning(2, assign(2, expr, join_of_two_vars()));
        assert!(PushSideExpressionsBelowJoin.apply(&mut plan));
        assert_eq!(
            plan.shape(),
            vec!["distribute", "join", "assign", "empty-tuple-source"]
        );
        let text = plan.explain();
        assert!(
            text.contains(r#"    assign $2 := eq(value($0, "k"), "x")"#),
            "{text}"
        );
        assert!(!PushSideExpressionsBelowJoin.apply(&mut plan), "{text}");
    }

    #[test]
    fn two_sided_and_constant_assigns_stay() {
        for expr in [
            LogicalExpr::call(Function::Eq, vec![var(0), var(1)]),
            LogicalExpr::call(Function::Not, vec![LogicalExpr::Const(Item::Boolean(true))]),
        ] {
            let mut plan = returning(2, assign(2, expr, join_of_two_vars()));
            assert!(
                !PushSideExpressionsBelowJoin.apply(&mut plan),
                "{}",
                plan.explain()
            );
        }
    }

    #[test]
    fn select_splits_across_assigns_it_does_not_read() {
        // SELECT eq($0, $1) and eq($2, 5) over ASSIGN $2 over the join.
        let cond = LogicalExpr::call(
            Function::And,
            vec![
                LogicalExpr::call(Function::Eq, vec![var(0), var(1)]),
                LogicalExpr::call(Function::Eq, vec![var(2), LogicalExpr::Const(Item::int(5))]),
            ],
        );
        let a = assign(
            2,
            LogicalExpr::call(Function::DateTime, vec![var(1)]),
            join_of_two_vars(),
        );
        let mut plan = returning(
            2,
            LogicalOp::Select {
                cond,
                input: Box::new(a),
            },
        );
        assert!(PushSelectIntoJoin.apply(&mut plan));
        let text = plan.explain();
        assert!(text.contains("select eq($2, 5)\n    assign $2"), "{text}");
        assert!(text.contains("join eq($0, $1)"), "{text}");
        assert!(!PushSelectIntoJoin.apply(&mut plan), "{text}");
    }

    #[test]
    fn select_over_join_splits_conjuncts() {
        // left produces $0, right produces $1.
        let left = assign(
            0,
            LogicalExpr::Const(Item::int(1)),
            LogicalOp::EmptyTupleSource,
        );
        let right = assign(
            1,
            LogicalExpr::Const(Item::int(2)),
            LogicalOp::EmptyTupleSource,
        );
        let join = LogicalOp::Join {
            cond: LogicalExpr::Const(Item::Boolean(true)),
            left: Box::new(left),
            right: Box::new(right),
        };
        let cond = LogicalExpr::Call(
            Function::And,
            vec![
                LogicalExpr::Call(
                    Function::Eq,
                    vec![LogicalExpr::Var(VarId(0)), LogicalExpr::Var(VarId(1))],
                ),
                LogicalExpr::Call(
                    Function::Eq,
                    vec![
                        LogicalExpr::Var(VarId(0)),
                        LogicalExpr::Const(Item::str("TMIN")),
                    ],
                ),
                LogicalExpr::Call(
                    Function::Eq,
                    vec![
                        LogicalExpr::Var(VarId(1)),
                        LogicalExpr::Const(Item::str("TMAX")),
                    ],
                ),
            ],
        );
        let mut plan = LogicalPlan::new(LogicalOp::Distribute {
            exprs: vec![LogicalExpr::Var(VarId(0))],
            input: Box::new(LogicalOp::Select {
                cond,
                input: Box::new(join),
            }),
        });
        assert!(PushSelectIntoJoin.apply(&mut plan));
        let text = plan.explain();
        // SELECT gone from above the join; join keeps the cross conjunct.
        assert!(text.contains("join eq($0, $1)"), "{text}");
        // One select pushed to each side.
        assert_eq!(text.matches("select ").count(), 2, "{text}");
        assert!(!PushSelectIntoJoin.apply(&mut plan));
    }
}
