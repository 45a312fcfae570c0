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
        transform_bottom_up(&mut plan.root, &mut |op| {
            let LogicalOp::Assign {
                var: a,
                expr,
                input,
            } = op
            else {
                return false;
            };
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

/// Copy the conjuncts of a SELECT that the scan can test on the raw
/// record into the DATASCAN below it, as the scan's reject-only `filter`:
/// SELECT ← ASSIGN* ← DATASCAN becomes the same plan with
/// `DATASCAN(..., filter)`. The ASSIGN variables the conjuncts read are
/// inlined, so the filter reads only the scan variable. The SELECT and
/// the ASSIGNs stay: the filter only lets the scan skip records the
/// SELECT would surely drop, and the SELECT still decides the rest.
///
/// The scan evaluates [`tape_evaluable`] expressions. A record the filter
/// rejects never reaches the operators above, so an error they would have
/// raised on it would be lost. The rule therefore does not fire when a
/// conjunct left out of the filter, or an ASSIGN of the chain the filter
/// does not evaluate, could fail (`base::error_free`); the
/// filter itself lets through every record it cannot evaluate without
/// error.
pub struct PushSelectIntoDataScan;

/// True when `e` is in the grammar the scan's tape filter evaluates over
/// the scan variable `var`: paths ([`tape_path`]), atomic constants,
/// `dateTime(path)`, the year/month/day accessors, the six comparisons
/// and `and`/`or`/`not`, each through the `promote`/`data`/`treat`
/// scaffolding.
pub fn tape_evaluable(e: &LogicalExpr, var: VarId) -> bool {
    use Function::*;
    match e {
        LogicalExpr::Var(_) => tape_path(e, var).is_some(),
        LogicalExpr::Const(item) => {
            !matches!(item, Item::Sequence(_) | Item::Array(_) | Item::Object(_))
        }
        LogicalExpr::Call(f, args) => match (f, args.as_slice()) {
            (Value, _) => tape_path(e, var).is_some(),
            (Promote | Data | TreatItem, [a]) => tape_evaluable(a, var),
            (DateTime, [a]) => tape_path(a, var).is_some(),
            (YearFromDateTime | MonthFromDateTime | DayFromDateTime | Not, [a]) => {
                tape_evaluable(a, var)
            }
            (Eq | Ne | Ge | Le | Gt | Lt, [l, r]) => {
                tape_evaluable(l, var) && tape_evaluable(r, var)
            }
            (And | Or, [_, ..]) => args.iter().all(|a| tape_evaluable(a, var)),
            _ => false,
        },
    }
}

/// The keys of a tape path: `var` under `value` steps with constant
/// string keys, through the coercion scaffolding. `None` for anything
/// else.
pub fn tape_path(e: &LogicalExpr, var: VarId) -> Option<Vec<String>> {
    match e {
        LogicalExpr::Var(v) if *v == var => Some(Vec::new()),
        LogicalExpr::Call(Function::Value, args) => match args.as_slice() {
            [base, LogicalExpr::Const(Item::String(k))] => {
                let mut keys = tape_path(base, var)?;
                keys.push(k.to_string());
                Some(keys)
            }
            _ => None,
        },
        LogicalExpr::Call(Function::Promote | Function::Data | Function::TreatItem, args) => {
            match args.as_slice() {
                [a] => tape_path(a, var),
                _ => None,
            }
        }
        _ => None,
    }
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
    let mut kept = Vec::new();
    let mut read: Vec<VarId> = Vec::new();
    for c in cond.conjuncts() {
        let mut inlined = c.clone();
        // Each ASSIGN reads only the ones below it, so one pass from the
        // top inlines the whole chain.
        for (v, e) in &chain {
            inlined.substitute_var_expr(*v, e);
        }
        if tape_evaluable(&inlined, scan_var) {
            c.collect_vars(&mut read);
            kept.push(inlined);
        } else if !super::base::error_free(c) {
            return None;
        }
    }
    if kept.is_empty() {
        return None;
    }
    // The ASSIGNs the filter evaluates: those its conjuncts read, directly
    // or through another ASSIGN. Every other one must be unable to fail.
    for (v, e) in &chain {
        if read.contains(v) {
            e.collect_vars(&mut read);
        } else if !super::base::error_free(e) {
            return None;
        }
    }
    Some(LogicalExpr::conjoin(kept))
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
            let mut scan = input.as_mut();
            while let LogicalOp::Assign { input, .. } = scan {
                scan = input;
            }
            let LogicalOp::DataScan { filter, .. } = scan else {
                unreachable!("scan_filter found a DATASCAN under the chain");
            };
            *filter = Some(new_filter);
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

    #[test]
    fn select_is_copied_into_the_scan_with_its_assigns_inlined() {
        // SELECT eq(month($2), 12) and eq($1, "x") over $2 := dateTime($1),
        // $1 := value($0, "d").
        let cond = call(
            Function::And,
            vec![
                call(
                    Function::Eq,
                    vec![
                        call(Function::MonthFromDateTime, vec![var(2)]),
                        LogicalExpr::Const(Item::int(12)),
                    ],
                ),
                call(
                    Function::Eq,
                    vec![var(1), LogicalExpr::Const(Item::str("x"))],
                ),
            ],
        );
        let mut plan = select_over_scan(
            cond,
            vec![
                (2, call(Function::DateTime, vec![var(1)])),
                (1, LogicalExpr::value_key(var(0), "d")),
            ],
        );
        let before = plan.shape();
        assert!(PushSelectIntoDataScan.apply(&mut plan));
        let text = plan.explain();
        assert!(
            text.contains(
                r#"filter and(eq(month-from-dateTime(dateTime(value($0, "d"))), 12), eq(value($0, "d"), "x"))"#
            ),
            "{text}"
        );
        assert_eq!(plan.shape(), before, "the SELECT and ASSIGNs stay");
        assert!(!PushSelectIntoDataScan.apply(&mut plan), "fires once");
        // The filter's two reads of the scan variable count as uses (with
        // the ASSIGN's and the DISTRIBUTE's), so no pushdown rule, which
        // needs a single use, can rebind the variable under the filter.
        assert_eq!(plan.root.var_use_count(VarId(0)), 4);
    }

    #[test]
    fn select_stays_out_of_the_scan_when_a_bypassed_expression_can_fail() {
        let tmin = call(
            Function::Eq,
            vec![
                LogicalExpr::value_key(var(0), "t"),
                LogicalExpr::Const(Item::str("TMIN")),
            ],
        );
        // An ASSIGN the filter does not read, which can fail.
        let failing = call(
            Function::DateTime,
            vec![LogicalExpr::value_key(var(0), "d")],
        );
        let mut plan = select_over_scan(tmin.clone(), vec![(1, failing.clone())]);
        assert!(!PushSelectIntoDataScan.apply(&mut plan));
        // A conjunct the tape cannot test, which can fail.
        let arith = call(
            Function::Gt,
            vec![
                call(
                    Function::Sub,
                    vec![var(0), LogicalExpr::Const(Item::int(1))],
                ),
                LogicalExpr::Const(Item::int(0)),
            ],
        );
        let cond = call(Function::And, vec![tmin.clone(), arith]);
        let mut plan = select_over_scan(cond, vec![]);
        assert!(!PushSelectIntoDataScan.apply(&mut plan));
        // The same failing ASSIGN, read by the filter: its failure leaves
        // the record undecided, so the rule fires.
        let year = call(
            Function::Ge,
            vec![
                call(Function::YearFromDateTime, vec![var(1)]),
                LogicalExpr::Const(Item::int(2003)),
            ],
        );
        let mut plan = select_over_scan(year, vec![(1, failing)]);
        assert!(PushSelectIntoDataScan.apply(&mut plan));
        // Nothing to copy: no fire.
        let other = call(Function::Eq, vec![var(0), var(9)]);
        let mut plan = select_over_scan(other, vec![]);
        assert!(!PushSelectIntoDataScan.apply(&mut plan));
    }

    #[test]
    fn tape_grammar() {
        let v = VarId(0);
        let path = LogicalExpr::value_key(call(Function::Data, vec![var(0)]), "k");
        assert!(tape_evaluable(&path, v));
        assert!(tape_evaluable(
            &call(Function::DateTime, vec![path.clone()]),
            v
        ));
        assert!(!tape_evaluable(&path, VarId(1)));
        // Numeric index steps, keys-or-members and arithmetic are out.
        let index = call(
            Function::Value,
            vec![var(0), LogicalExpr::Const(Item::int(1))],
        );
        assert!(!tape_evaluable(&index, v));
        assert!(!tape_evaluable(
            &call(Function::KeysOrMembers, vec![var(0)]),
            v
        ));
        assert!(!tape_evaluable(
            &call(Function::Add, vec![path.clone(), path.clone()]),
            v
        ));
        // dateTime only of a path; no sequence constants; no empty `and`.
        assert!(!tape_evaluable(
            &call(Function::DateTime, vec![LogicalExpr::Const(Item::str("x"))]),
            v
        ));
        assert!(!tape_evaluable(&LogicalExpr::Const(Item::empty()), v));
        assert!(!tape_evaluable(&call(Function::And, vec![]), v));
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
