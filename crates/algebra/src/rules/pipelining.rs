//! §4.2 Pipelining Rules.
//!
//! These introduce DATASCAN for `collection()` and push navigation steps
//! into its projection argument, so the scan emits one small item at a
//! time: "instead of storing in DATASCAN's output tuple a sequence of all
//! the book objects of each file in the collection, we store only one
//! object at a time" — and, as a by-product, partitioned parallelism
//! ("Adding these properties allows Apache VXQuery to achieve
//! partitioned-parallel execution without any user-level parallel
//! programming").

use super::{take_op, transform_bottom_up, var_use_counts, Rule};
use crate::expr::{Function, LogicalExpr};
use crate::plan::{DataSource, LogicalOp, LogicalPlan, VarId};
use jdm::{Item, PathStep, ProjectionPath};

/// Unwrap a chain of `value` applications over a base variable into path
/// steps: `value(value($v, "a"), 2)` → `($v, [Key("a"), Index(2)])`.
fn unwrap_value_chain(e: &LogicalExpr) -> Option<(VarId, Vec<PathStep>)> {
    match e {
        LogicalExpr::Var(v) => Some((*v, Vec::new())),
        LogicalExpr::Call(Function::Value, args) if args.len() == 2 => {
            let (v, mut steps) = unwrap_value_chain(&args[0])?;
            match &args[1] {
                LogicalExpr::Const(Item::String(s)) => steps.push(PathStep::Key(s.clone())),
                LogicalExpr::Const(Item::Number(n)) => steps.push(PathStep::Index(n.as_i64()?)),
                _ => return None,
            }
            Some((v, steps))
        }
        _ => None,
    }
}

/// The variable an UNNEST expression iterates: the base of a `value`
/// chain under `iterate` and `keys-or-members`, which all map the empty
/// sequence to itself, so the UNNEST emits nothing where it is empty.
fn iterated_var(e: &LogicalExpr) -> Option<VarId> {
    match e {
        LogicalExpr::Call(Function::Iterate | Function::KeysOrMembers, args) if args.len() == 1 => {
            iterated_var(&args[0])
        }
        _ => unwrap_value_chain(e).map(|(v, _)| v),
    }
}

/// Replace `ASSIGN $v := collection(path)` + `UNNEST $u := iterate($v)`
/// with `DATASCAN $u <- collection(path)` (paper Fig. 5 → Fig. 6):
/// "DATASCAN replaces both the ASSIGN collection and the UNNEST iterate".
pub struct IntroduceDataScan;

impl Rule for IntroduceDataScan {
    fn name(&self) -> &'static str {
        "introduce-datascan"
    }

    fn apply(&self, plan: &mut LogicalPlan) -> bool {
        let counts = var_use_counts(&plan.root);
        transform_bottom_up(&mut plan.root, &mut |op| {
            let LogicalOp::Unnest {
                var: u,
                expr,
                input,
            } = op
            else {
                return false;
            };
            let LogicalExpr::Call(Function::Iterate, args) = expr else {
                return false;
            };
            let [LogicalExpr::Var(seq_var)] = args.as_slice() else {
                return false;
            };
            let LogicalOp::Assign {
                var,
                expr: a_expr,
                input: a_input,
            } = input.as_mut()
            else {
                return false;
            };
            if var != seq_var || counts.get(var).copied().unwrap_or(0) != 1 {
                return false;
            }
            let LogicalExpr::Call(Function::Collection, c_args) = a_expr else {
                return false;
            };
            let [LogicalExpr::Const(Item::String(path))] = c_args.as_slice() else {
                return false;
            };
            let scan = LogicalOp::DataScan {
                source: DataSource {
                    path: path.to_string(),
                    partitioned: true,
                },
                project: ProjectionPath::root(),
                filter: None,
                var: *u,
                input: Box::new(take_op(a_input)),
            };
            *op = scan;
            true
        })
    }
}

/// Merge a `value` chain into DATASCAN's projection (paper Fig. 6 → 7):
/// "We can merge the value expressions with DATASCAN by adding a second
/// argument to it."
///
/// The scan emits nothing for a record the chain finds nothing in, where
/// the ASSIGN keeps the tuple with the empty sequence. So the merge fires
/// only when the ASSIGN's one use is an UNNEST iterating it
/// (`iterated_var`, as in the paper's plans), which drops that tuple.
///
/// `max_steps` caps the projection depth; the AsterixDB baseline uses a
/// document-boundary cap (its scans materialize whole records).
#[derive(Default)]
pub struct PushValueIntoDataScan {
    pub max_steps: Option<usize>,
}

impl Rule for PushValueIntoDataScan {
    fn name(&self) -> &'static str {
        "push-value-into-datascan"
    }

    fn apply(&self, plan: &mut LogicalPlan) -> bool {
        let counts = var_use_counts(&plan.root);
        let mut iterated = Vec::new();
        plan.root.visit(&mut |op| {
            if let LogicalOp::Unnest { expr, .. } = op {
                iterated.extend(iterated_var(expr));
            }
        });
        transform_bottom_up(&mut plan.root, &mut |op| {
            let LogicalOp::Assign {
                var: a,
                expr,
                input,
            } = op
            else {
                return false;
            };
            if !iterated.contains(a) || counts.get(a).copied().unwrap_or(0) != 1 {
                return false;
            }
            let Some((base, steps)) = unwrap_value_chain(expr) else {
                return false;
            };
            if steps.is_empty() {
                return false;
            }
            let LogicalOp::DataScan {
                project,
                filter: None,
                var,
                input: s_input,
                source,
            } = input.as_mut()
            else {
                return false;
            };
            if *var != base || counts.get(var).copied().unwrap_or(0) != 1 {
                return false;
            }
            if let Some(cap) = self.max_steps {
                if project.len() + steps.len() > cap {
                    return false;
                }
            }
            let mut new_project = project.clone();
            for s in steps {
                new_project.push(s);
            }
            let scan = LogicalOp::DataScan {
                source: source.clone(),
                project: new_project,
                filter: None,
                var: *a,
                input: Box::new(take_op(s_input)),
            };
            *op = scan;
            true
        })
    }
}

/// Merge `UNNEST keys-or-members($v)` into DATASCAN's projection (paper
/// Fig. 7 → 8): the scan then emits one member at a time, which "improves
/// the query's execution time and satisfies Hyracks' dataflow frame size
/// restriction".
///
/// The pushed-down `()` step applies to *arrays* (the paper's plans only
/// push it over arrays; an object at that position would contribute its
/// keys in the unmerged plan — our runtime scan treats non-arrays at an
/// `AllMembers` step as empty, and the JSONiq translator only requests
/// the merge where the schema position is an array).
#[derive(Default)]
pub struct PushKeysOrMembersIntoDataScan {
    pub max_steps: Option<usize>,
}

impl Rule for PushKeysOrMembersIntoDataScan {
    fn name(&self) -> &'static str {
        "push-keys-or-members-into-datascan"
    }

    fn apply(&self, plan: &mut LogicalPlan) -> bool {
        let counts = var_use_counts(&plan.root);
        transform_bottom_up(&mut plan.root, &mut |op| {
            let LogicalOp::Unnest {
                var: u,
                expr,
                input,
            } = op
            else {
                return false;
            };
            let LogicalExpr::Call(Function::KeysOrMembers, args) = expr else {
                return false;
            };
            let [LogicalExpr::Var(base)] = args.as_slice() else {
                return false;
            };
            let LogicalOp::DataScan {
                project,
                filter: None,
                var,
                input: s_input,
                source,
            } = input.as_mut()
            else {
                return false;
            };
            if var != base || counts.get(var).copied().unwrap_or(0) != 1 {
                return false;
            }
            if let Some(cap) = self.max_steps {
                if project.len() + 1 > cap {
                    return false;
                }
            }
            let mut new_project = project.clone();
            new_project.push(PathStep::AllMembers);
            let scan = LogicalOp::DataScan {
                source: source.clone(),
                project: new_project,
                filter: None,
                var: *u,
                input: Box::new(take_op(s_input)),
            };
            *op = scan;
            true
        })
    }
}

/// Merge `UNNEST $u := iterate(value-chain($v))` into DATASCAN's
/// projection. This is how Q0b's trailing `("date")` step reaches the
/// scan: the translator binds a trailing value step through
/// `UNNEST iterate` (to drop empty results, per `for` semantics), and the
/// projecting scan has exactly the same skip-missing behaviour, so the
/// merge is sound.
pub struct PushIterateValueChainIntoDataScan;

impl Rule for PushIterateValueChainIntoDataScan {
    fn name(&self) -> &'static str {
        "push-iterate-value-chain-into-datascan"
    }

    fn apply(&self, plan: &mut LogicalPlan) -> bool {
        let counts = var_use_counts(&plan.root);
        transform_bottom_up(&mut plan.root, &mut |op| {
            let LogicalOp::Unnest {
                var: u,
                expr,
                input,
            } = op
            else {
                return false;
            };
            let LogicalExpr::Call(Function::Iterate, args) = expr else {
                return false;
            };
            let [chain] = args.as_slice() else {
                return false;
            };
            let Some((base, steps)) = unwrap_value_chain(chain) else {
                return false;
            };
            if steps.is_empty() {
                return false; // plain iterate; other rules own this shape
            }
            let LogicalOp::DataScan {
                project,
                filter: None,
                var,
                input: s_input,
                source,
            } = input.as_mut()
            else {
                return false;
            };
            if *var != base || counts.get(var).copied().unwrap_or(0) != 1 {
                return false;
            }
            let mut new_project = project.clone();
            for s in steps {
                new_project.push(s);
            }
            let scan = LogicalOp::DataScan {
                source: source.clone(),
                project: new_project,
                filter: None,
                var: *u,
                input: Box::new(take_op(s_input)),
            };
            *op = scan;
            true
        })
    }
}

/// Move the SELECT above a DATASCAN into the scan: SELECT ← ASSIGN* ←
/// DATASCAN becomes ASSIGN* ← DATASCAN(..., filter), the filter being the
/// whole condition with the chain's ASSIGNs inlined, over the scan
/// variable alone. The scan keeps a record exactly when the filter is the
/// boolean `true`, as the SELECT does, and fails with the SELECT's error.
/// `remove-dead-assign` then drops the ASSIGNs only the SELECT read.
///
/// The rule declines when an ASSIGN the condition does not read can fail
/// (`base::error_free`): a record the scan drops never reaches it. It
/// also declines unless the filter, evaluated in lowering order, meets a
/// record's fallible subexpressions in the SELECT path's order (the
/// chain's ASSIGNs bottom-up, then the condition), so that both raise the
/// same error.
pub struct PushSelectIntoDataScan;

/// The calls of `exprs` that can fail, in lowering order (arguments
/// first, left to right), each distinct one where it first occurs.
fn fallible_calls<'e>(exprs: impl IntoIterator<Item = &'e LogicalExpr>) -> Vec<LogicalExpr> {
    fn walk(e: &LogicalExpr, out: &mut Vec<LogicalExpr>) {
        if let LogicalExpr::Call(f, args) = e {
            args.iter().for_each(|a| walk(a, out));
            if !super::base::total(*f) && !out.contains(e) {
                out.push(e.clone());
            }
        }
    }
    let mut out = Vec::new();
    exprs.into_iter().for_each(|e| walk(e, &mut out));
    out
}

/// The filter for a SELECT with condition `cond` over `input`, when
/// `input` is a chain of ASSIGNs over a DATASCAN without a filter and the
/// rule may fire.
fn scan_filter(cond: &LogicalExpr, input: &LogicalOp) -> Option<LogicalExpr> {
    // The chain, nearest the SELECT first.
    let mut chain: Vec<(VarId, &LogicalExpr)> = Vec::new();
    let mut op = input;
    let scan_var = loop {
        match op {
            LogicalOp::Assign { var, expr, input } => {
                chain.push((*var, expr));
                op = input;
            }
            LogicalOp::DataScan {
                filter: None, var, ..
            } => break *var,
            _ => return None,
        }
    };
    // Each ASSIGN reads only the ones below it, so one pass from the top
    // inlines the whole chain.
    let inline = |e: &LogicalExpr| {
        let mut e = e.clone();
        for (v, x) in &chain {
            e.substitute_var_expr(*v, x);
        }
        e
    };
    // The ASSIGNs the condition reads, directly or through another one.
    // Every other one must be unable to fail.
    let mut read = Vec::new();
    cond.collect_vars(&mut read);
    for (v, e) in &chain {
        if read.contains(v) {
            e.collect_vars(&mut read);
        } else if !super::base::error_free(e) {
            return None;
        }
    }
    if !read
        .iter()
        .all(|v| *v == scan_var || chain.iter().any(|(c, _)| c == v))
    {
        return None;
    }
    // One flat conjunction: the same value and the same evaluation order.
    let filter = LogicalExpr::conjoin(inline(cond).conjuncts().into_iter().cloned().collect());
    let read_assigns: Vec<LogicalExpr> = (chain.iter().rev())
        .filter(|(v, _)| read.contains(v))
        .map(|(_, e)| inline(e))
        .collect();
    let select_order = fallible_calls(read_assigns.iter().chain([&filter]));
    (select_order == fallible_calls([&filter])).then_some(filter)
}

impl Rule for PushSelectIntoDataScan {
    fn name(&self) -> &'static str {
        "push-select-into-datascan"
    }

    fn apply(&self, plan: &mut LogicalPlan) -> bool {
        transform_bottom_up(&mut plan.root, &mut |op| {
            let LogicalOp::Select { cond, input } = op else {
                return false;
            };
            let Some(new_filter) = scan_filter(cond, input) else {
                return false;
            };
            let mut chain = take_op(input);
            let mut scan = &mut chain;
            while let LogicalOp::Assign { input, .. } = scan {
                scan = input;
            }
            let LogicalOp::DataScan { filter, .. } = scan else {
                unreachable!("scan_filter found a DATASCAN under the chain");
            };
            *filter = Some(new_filter);
            *op = chain;
            true
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::path::MergeKeysOrMembersIntoUnnest;
    use jdm::Number;

    /// Naive plan for `collection("/books")("bookstore")("book")()` after
    /// the path rules (the paper's Fig. 5 with merged UNNEST k-o-m).
    fn fig5_plan() -> LogicalPlan {
        let a_coll = LogicalOp::Assign {
            var: VarId(0),
            expr: LogicalExpr::Call(
                Function::Collection,
                vec![LogicalExpr::Const(Item::str("/books"))],
            ),
            input: Box::new(LogicalOp::EmptyTupleSource),
        };
        let u_file = LogicalOp::Unnest {
            var: VarId(1),
            expr: LogicalExpr::Call(Function::Iterate, vec![LogicalExpr::Var(VarId(0))]),
            input: Box::new(a_coll),
        };
        let a_nav = LogicalOp::Assign {
            var: VarId(2),
            expr: LogicalExpr::value_key(
                LogicalExpr::value_key(LogicalExpr::Var(VarId(1)), "bookstore"),
                "book",
            ),
            input: Box::new(u_file),
        };
        let a_kom = LogicalOp::Assign {
            var: VarId(3),
            expr: LogicalExpr::Call(Function::KeysOrMembers, vec![LogicalExpr::Var(VarId(2))]),
            input: Box::new(a_nav),
        };
        let u_book = LogicalOp::Unnest {
            var: VarId(4),
            expr: LogicalExpr::Call(Function::Iterate, vec![LogicalExpr::Var(VarId(3))]),
            input: Box::new(a_kom),
        };
        LogicalPlan::new(LogicalOp::Distribute {
            exprs: vec![LogicalExpr::Var(VarId(4))],
            input: Box::new(u_book),
        })
    }

    #[test]
    fn fig5_through_fig8() {
        let mut plan = fig5_plan();
        // Path rule first (merges ASSIGN k-o-m + UNNEST iterate).
        assert!(MergeKeysOrMembersIntoUnnest.apply(&mut plan));
        // Fig. 6: DATASCAN replaces ASSIGN collection + UNNEST iterate.
        assert!(IntroduceDataScan.apply(&mut plan));
        assert!(
            plan.explain().contains("data-scan $1"),
            "{}",
            plan.explain()
        );
        // Fig. 7: value chain pushed into DATASCAN.
        assert!(PushValueIntoDataScan::default().apply(&mut plan));
        assert!(
            plan.explain().contains(r#"project ("bookstore")("book")"#),
            "{}",
            plan.explain()
        );
        // Fig. 8: keys-or-members pushed into DATASCAN.
        assert!(PushKeysOrMembersIntoDataScan::default().apply(&mut plan));
        let text = plan.explain();
        assert!(
            text.contains(r#"project ("bookstore")("book")()"#),
            "{text}"
        );
        // Final shape: DISTRIBUTE <- DATASCAN <- ETS.
        assert_eq!(
            plan.shape(),
            vec!["distribute", "data-scan", "empty-tuple-source"]
        );
        // Fixpoint.
        assert!(!IntroduceDataScan.apply(&mut plan));
        assert!(!PushValueIntoDataScan::default().apply(&mut plan));
        assert!(!PushKeysOrMembersIntoDataScan::default().apply(&mut plan));
    }

    #[test]
    fn a_value_chain_merges_only_under_an_unnest_that_iterates_it() {
        // DISTRIBUTE [$1] <- ASSIGN $1 := value($0, "v") <- DATASCAN $0: a
        // record without "v" keeps its tuple, bound to the empty sequence;
        // a projecting scan would emit nothing for it.
        let scan = LogicalOp::DataScan {
            source: DataSource {
                path: "/s".into(),
                partitioned: true,
            },
            project: ProjectionPath::root(),
            filter: None,
            var: VarId(0),
            input: Box::new(LogicalOp::EmptyTupleSource),
        };
        let assign = LogicalOp::Assign {
            var: VarId(1),
            expr: LogicalExpr::value_key(LogicalExpr::Var(VarId(0)), "v"),
            input: Box::new(scan),
        };
        let mut returned = LogicalPlan::new(LogicalOp::Distribute {
            exprs: vec![LogicalExpr::Var(VarId(1))],
            input: Box::new(assign.clone()),
        });
        assert!(!PushValueIntoDataScan::default().apply(&mut returned));
        // Iterated (`for $y in $x("a")()`), an empty value emits no tuple
        // either way, so the chain merges.
        let mut iterated = LogicalPlan::new(LogicalOp::Distribute {
            exprs: vec![LogicalExpr::Var(VarId(2))],
            input: Box::new(LogicalOp::Unnest {
                var: VarId(2),
                expr: LogicalExpr::Call(
                    Function::Iterate,
                    vec![LogicalExpr::Call(
                        Function::KeysOrMembers,
                        vec![LogicalExpr::value_key(LogicalExpr::Var(VarId(1)), "a")],
                    )],
                ),
                input: Box::new(assign),
            }),
        });
        assert!(PushValueIntoDataScan::default().apply(&mut iterated));
        assert!(
            iterated
                .explain()
                .contains(r#"data-scan $1 <- collection("/s") project ("v")"#),
            "{}",
            iterated.explain()
        );
    }

    #[test]
    fn datascan_not_introduced_when_sequence_reused() {
        let mut plan = fig5_plan();
        if let LogicalOp::Distribute { exprs, .. } = &mut plan.root {
            exprs.push(LogicalExpr::Var(VarId(0))); // second use of the collection seq
        }
        MergeKeysOrMembersIntoUnnest.apply(&mut plan);
        assert!(!IntroduceDataScan.apply(&mut plan));
    }

    /// SELECT `cond` over `assigns` (nearest the SELECT first) over a
    /// DATASCAN binding `$0`.
    fn select_over_scan(cond: LogicalExpr, assigns: Vec<(u32, LogicalExpr)>) -> LogicalPlan {
        let mut op = LogicalOp::DataScan {
            source: DataSource {
                path: "/s".into(),
                partitioned: true,
            },
            project: ProjectionPath::root(),
            filter: None,
            var: VarId(0),
            input: Box::new(LogicalOp::EmptyTupleSource),
        };
        for (v, e) in assigns.into_iter().rev() {
            op = LogicalOp::Assign {
                var: VarId(v),
                expr: e,
                input: Box::new(op),
            };
        }
        LogicalPlan::new(LogicalOp::Distribute {
            exprs: vec![LogicalExpr::Var(VarId(0))],
            input: Box::new(LogicalOp::Select {
                cond,
                input: Box::new(op),
            }),
        })
    }

    fn call(f: Function, args: Vec<LogicalExpr>) -> LogicalExpr {
        LogicalExpr::Call(f, args)
    }

    fn var(v: u32) -> LogicalExpr {
        LogicalExpr::Var(VarId(v))
    }

    fn lit(item: Item) -> LogicalExpr {
        LogicalExpr::Const(item)
    }

    #[test]
    fn select_moves_into_the_scan_with_its_assigns_inlined() {
        // SELECT eq(month($2), 12) and eq($1, "x") over $2 := dateTime($1),
        // $1 := value($0, "d").
        let cond = call(
            Function::And,
            vec![
                call(
                    Function::Eq,
                    vec![
                        call(Function::MonthFromDateTime, vec![var(2)]),
                        lit(Item::int(12)),
                    ],
                ),
                call(Function::Eq, vec![var(1), lit(Item::str("x"))]),
            ],
        );
        let mut plan = select_over_scan(
            cond,
            vec![
                (2, call(Function::DateTime, vec![var(1)])),
                (1, LogicalExpr::value_key(var(0), "d")),
            ],
        );
        assert!(PushSelectIntoDataScan.apply(&mut plan));
        let text = plan.explain();
        assert!(
            text.contains(
                r#"filter and(eq(month-from-dateTime(dateTime(value($0, "d"))), 12), eq(value($0, "d"), "x"))"#
            ),
            "{text}"
        );
        assert_eq!(
            plan.shape(),
            vec![
                "distribute",
                "assign",
                "assign",
                "data-scan",
                "empty-tuple-source"
            ],
            "the SELECT is gone, the ASSIGNs stay: {text}"
        );
        assert!(!PushSelectIntoDataScan.apply(&mut plan), "fires once");
        // The filter's two reads of the scan variable count as uses (with
        // the ASSIGN's and the DISTRIBUTE's), so no pushdown rule, which
        // needs a single use, can rebind the variable under the filter.
        assert_eq!(plan.root.var_use_count(VarId(0)), 4);
        // Only the SELECT read the ASSIGNs: they are dead now.
        while super::super::base::RemoveDeadAssign.apply(&mut plan) {}
        assert_eq!(
            plan.shape(),
            vec!["distribute", "data-scan", "empty-tuple-source"]
        );
    }

    #[test]
    fn select_stays_out_of_the_scan_when_a_bypassed_expression_can_fail() {
        let tmin = call(
            Function::Eq,
            vec![LogicalExpr::value_key(var(0), "t"), lit(Item::str("TMIN"))],
        );
        // An ASSIGN the filter does not read, which can fail.
        let failing = call(
            Function::DateTime,
            vec![LogicalExpr::value_key(var(0), "d")],
        );
        let mut plan = select_over_scan(tmin.clone(), vec![(1, failing.clone())]);
        assert!(!PushSelectIntoDataScan.apply(&mut plan));
        // A conjunct that can fail goes with the rest: the scan raises
        // its error.
        let arith = call(
            Function::Gt,
            vec![
                call(
                    Function::Sub,
                    vec![LogicalExpr::value_key(var(0), "v"), lit(Item::int(1))],
                ),
                lit(Item::int(0)),
            ],
        );
        let cond = call(Function::And, vec![tmin.clone(), arith.clone()]);
        let mut plan = select_over_scan(cond.clone(), vec![]);
        assert!(PushSelectIntoDataScan.apply(&mut plan));
        assert!(
            plan.explain().contains(&format!("filter {cond}")),
            "{}",
            plan.explain()
        );
        // The same failing ASSIGN, read by the condition: the scan raises
        // its error, so the rule fires.
        let year = call(
            Function::Ge,
            vec![
                call(Function::YearFromDateTime, vec![var(1)]),
                lit(Item::int(2003)),
            ],
        );
        let mut plan = select_over_scan(year.clone(), vec![(1, failing.clone())]);
        assert!(PushSelectIntoDataScan.apply(&mut plan));
        // A condition reading a variable the chain does not bind.
        let other = call(Function::Eq, vec![var(0), var(9)]);
        let mut plan = select_over_scan(other, vec![]);
        assert!(!PushSelectIntoDataScan.apply(&mut plan));
    }

    #[test]
    fn select_stays_out_of_the_scan_when_the_error_order_differs() {
        // $1 := dateTime(value($0, "d")) fails before the condition in
        // the SELECT path. With the failing arithmetic first in the
        // condition, the filter would meet it first.
        let failing = call(
            Function::DateTime,
            vec![LogicalExpr::value_key(var(0), "d")],
        );
        let year = call(
            Function::Ge,
            vec![
                call(Function::YearFromDateTime, vec![var(1)]),
                lit(Item::int(2003)),
            ],
        );
        let arith = call(
            Function::Gt,
            vec![
                call(
                    Function::Sub,
                    vec![LogicalExpr::value_key(var(0), "v"), lit(Item::int(1))],
                ),
                lit(Item::int(0)),
            ],
        );
        let arith_first = call(Function::And, vec![arith.clone(), year.clone()]);
        let mut plan = select_over_scan(arith_first, vec![(1, failing.clone())]);
        assert!(!PushSelectIntoDataScan.apply(&mut plan));
        let date_first = call(Function::And, vec![year, arith]);
        let mut plan = select_over_scan(date_first, vec![(1, failing.clone())]);
        assert!(PushSelectIntoDataScan.apply(&mut plan));
        // Two failing ASSIGNs: the filter must meet them in chain order.
        // $2 := dateTime(value($0, "e")) over $1: the SELECT path fails
        // on $1 first, so the condition must read $1 first too.
        let second = call(
            Function::DateTime,
            vec![LogicalExpr::value_key(var(0), "e")],
        );
        let both = |a: u32, b: u32| call(Function::Lt, vec![var(a), var(b)]);
        let chain = || vec![(2, second.clone()), (1, failing.clone())];
        let mut plan = select_over_scan(both(2, 1), chain());
        assert!(!PushSelectIntoDataScan.apply(&mut plan));
        let mut plan = select_over_scan(both(1, 2), chain());
        assert!(PushSelectIntoDataScan.apply(&mut plan));
    }

    #[test]
    fn value_chain_unwrap() {
        let e = LogicalExpr::Call(
            Function::Value,
            vec![
                LogicalExpr::value_key(LogicalExpr::Var(VarId(7)), "a"),
                LogicalExpr::Const(Item::Number(Number::Int(3))),
            ],
        );
        let (v, steps) = unwrap_value_chain(&e).unwrap();
        assert_eq!(v, VarId(7));
        assert_eq!(steps, vec![PathStep::Key("a".into()), PathStep::Index(3)]);
        // Non-constant key: not unwrappable.
        let bad = LogicalExpr::Call(
            Function::Value,
            vec![LogicalExpr::Var(VarId(7)), LogicalExpr::Var(VarId(8))],
        );
        assert!(unwrap_value_chain(&bad).is_none());
    }
}
