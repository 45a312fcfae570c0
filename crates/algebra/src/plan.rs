//! The logical operator tree.
//!
//! Operators mirror the paper's §3.2 inventory. Plans are built by the
//! JSONiq translator in their *naive* form (the shapes of Figs. 3, 5 and
//! 9, complete with `promote`/`data`/`treat` scaffolding) and then
//! transformed by [`crate::rules`].

use crate::expr::{AggFunc, LogicalExpr};
use jdm::ProjectionPath;
use std::fmt;

/// A logical variable. Variables are assigned once by the operator that
/// introduces them (ASSIGN/UNNEST/DATASCAN/AGGREGATE/GROUP-BY keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.0)
    }
}

/// Monotonic variable id generator used by the translator and the rules.
#[derive(Debug, Default, Clone)]
pub struct VarGen {
    next: u32,
}

impl VarGen {
    pub fn new() -> Self {
        VarGen::default()
    }

    /// Start above any id already present in a plan.
    pub fn above(plan: &LogicalOp) -> Self {
        let mut max = 0;
        plan.visit(&mut |op| {
            for v in op.produced_vars() {
                max = max.max(v.0 + 1);
            }
        });
        VarGen { next: max }
    }

    pub fn fresh(&mut self) -> VarId {
        let v = VarId(self.next);
        self.next += 1;
        v
    }
}

/// Where a DATASCAN reads from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DataSource {
    /// Collection directory (one sub-directory of files per node) or a
    /// single file for `json-doc`.
    pub path: String,
    /// True for partitioned collections, false for single documents.
    pub partitioned: bool,
}

/// A logical operator. Single-input operators own their input; the tree's
/// leaves are EMPTY-TUPLE-SOURCE (or NESTED-TUPLE-SOURCE inside nested
/// plans).
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalOp {
    /// Produces one empty tuple (paper §3.2).
    EmptyTupleSource,
    /// Leaf of a nested plan (GROUP-BY inner focus / SUBPLAN): receives
    /// the tuples of the group / the bound sequence.
    NestedTupleSource,
    /// Scan a data source, extending the input tuple with one field per
    /// item produced. `project` is the pushed-down path — the paper's
    /// "second argument" of DATASCAN (§4.2). Empty path = whole files.
    ///
    /// `filter` is the condition of the SELECT that
    /// `push-select-into-datascan` moved into the scan, reading only
    /// `var`. The scan evaluates it once per item and emits the item
    /// exactly when the value is the boolean `true`, as the SELECT did;
    /// an evaluation error fails the scan.
    DataScan {
        source: DataSource,
        project: ProjectionPath,
        filter: Option<LogicalExpr>,
        var: VarId,
        input: Box<LogicalOp>,
    },
    /// Evaluate a scalar expression, bind the result to `var`.
    Assign {
        var: VarId,
        expr: LogicalExpr,
        input: Box<LogicalOp>,
    },
    /// Keep tuples where `cond` is true.
    Select {
        cond: LogicalExpr,
        input: Box<LogicalOp>,
    },
    /// One output tuple per item of the unnesting expression.
    Unnest {
        var: VarId,
        expr: LogicalExpr,
        input: Box<LogicalOp>,
    },
    /// Fold the whole input stream into one tuple (`var := func(arg)`).
    Aggregate {
        var: VarId,
        func: AggFunc,
        arg: LogicalExpr,
        input: Box<LogicalOp>,
    },
    /// Run `nested` (rooted at NESTED-TUPLE-SOURCE) for each input tuple;
    /// the nested plan's aggregate variable extends the tuple.
    Subplan {
        nested: Box<LogicalOp>,
        input: Box<LogicalOp>,
    },
    /// Group by `keys`; for each group run the nested plan (an AGGREGATE
    /// over NESTED-TUPLE-SOURCE).
    GroupBy {
        keys: Vec<(VarId, LogicalExpr)>,
        nested: Box<LogicalOp>,
        input: Box<LogicalOp>,
    },
    /// Materializing order-by; keys are `(expression, ascending)` pairs.
    OrderBy {
        keys: Vec<(LogicalExpr, bool)>,
        input: Box<LogicalOp>,
    },
    /// Inner equi-join; `cond` is a conjunction, at least one conjunct an
    /// equality between expressions over the two sides.
    Join {
        cond: LogicalExpr,
        left: Box<LogicalOp>,
        right: Box<LogicalOp>,
    },
    /// Produce the query result (paper: the final distribution step).
    Distribute {
        exprs: Vec<LogicalExpr>,
        input: Box<LogicalOp>,
    },
}

impl LogicalOp {
    /// Variables this operator itself introduces.
    pub fn produced_vars(&self) -> Vec<VarId> {
        match self {
            LogicalOp::DataScan { var, .. }
            | LogicalOp::Assign { var, .. }
            | LogicalOp::Unnest { var, .. }
            | LogicalOp::Aggregate { var, .. } => vec![*var],
            LogicalOp::GroupBy { keys, nested, .. } => {
                let mut vs: Vec<VarId> = keys.iter().map(|(v, _)| *v).collect();
                nested.visit(&mut |op| vs.extend(op.produced_vars()));
                vs
            }
            LogicalOp::Subplan { nested, .. } => {
                let mut vs = Vec::new();
                nested.visit(&mut |op| vs.extend(op.produced_vars()));
                vs
            }
            _ => vec![],
        }
    }

    /// Immutable children (inputs + nested plans).
    pub fn children(&self) -> Vec<&LogicalOp> {
        match self {
            LogicalOp::EmptyTupleSource | LogicalOp::NestedTupleSource => vec![],
            LogicalOp::DataScan { input, .. }
            | LogicalOp::Assign { input, .. }
            | LogicalOp::Select { input, .. }
            | LogicalOp::Unnest { input, .. }
            | LogicalOp::Aggregate { input, .. }
            | LogicalOp::OrderBy { input, .. }
            | LogicalOp::Distribute { input, .. } => vec![input],
            LogicalOp::Subplan { nested, input } => vec![nested, input],
            LogicalOp::GroupBy { nested, input, .. } => vec![nested, input],
            LogicalOp::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Mutable children.
    pub fn children_mut(&mut self) -> Vec<&mut LogicalOp> {
        match self {
            LogicalOp::EmptyTupleSource | LogicalOp::NestedTupleSource => vec![],
            LogicalOp::DataScan { input, .. }
            | LogicalOp::Assign { input, .. }
            | LogicalOp::Select { input, .. }
            | LogicalOp::Unnest { input, .. }
            | LogicalOp::Aggregate { input, .. }
            | LogicalOp::OrderBy { input, .. }
            | LogicalOp::Distribute { input, .. } => vec![input],
            LogicalOp::Subplan { nested, input } => vec![nested, input],
            LogicalOp::GroupBy { nested, input, .. } => vec![nested, input],
            LogicalOp::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Expressions evaluated by this operator (excluding children).
    pub fn exprs(&self) -> Vec<&LogicalExpr> {
        match self {
            LogicalOp::DataScan { filter, .. } => filter.iter().collect(),
            LogicalOp::Assign { expr, .. } | LogicalOp::Unnest { expr, .. } => vec![expr],
            LogicalOp::Select { cond, .. } | LogicalOp::Join { cond, .. } => vec![cond],
            LogicalOp::Aggregate { arg, .. } => vec![arg],
            LogicalOp::GroupBy { keys, .. } => keys.iter().map(|(_, e)| e).collect(),
            LogicalOp::OrderBy { keys, .. } => keys.iter().map(|(e, _)| e).collect(),
            LogicalOp::Distribute { exprs, .. } => exprs.iter().collect(),
            _ => vec![],
        }
    }

    /// Mutable expressions.
    pub fn exprs_mut(&mut self) -> Vec<&mut LogicalExpr> {
        match self {
            LogicalOp::DataScan { filter, .. } => filter.iter_mut().collect(),
            LogicalOp::Assign { expr, .. } | LogicalOp::Unnest { expr, .. } => vec![expr],
            LogicalOp::Select { cond, .. } | LogicalOp::Join { cond, .. } => vec![cond],
            LogicalOp::Aggregate { arg, .. } => vec![arg],
            LogicalOp::GroupBy { keys, .. } => keys.iter_mut().map(|(_, e)| e).collect(),
            LogicalOp::OrderBy { keys, .. } => keys.iter_mut().map(|(e, _)| e).collect(),
            LogicalOp::Distribute { exprs, .. } => exprs.iter_mut().collect(),
            _ => vec![],
        }
    }

    /// Pre-order visit of the whole tree (including nested plans).
    pub fn visit(&self, f: &mut impl FnMut(&LogicalOp)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    /// Pre-order mutable visit.
    pub fn visit_mut(&mut self, f: &mut impl FnMut(&mut LogicalOp)) {
        f(self);
        for c in self.children_mut() {
            c.visit_mut(f);
        }
    }

    /// Count references to each variable across all expressions in the
    /// tree (used by rules to prove a variable dead before merging).
    pub fn var_use_count(&self, v: VarId) -> usize {
        let mut n = 0;
        self.visit(&mut |op| {
            for e in op.exprs() {
                let mut vars = Vec::new();
                e.collect_vars(&mut vars);
                n += vars.iter().filter(|x| **x == v).count();
            }
        });
        n
    }

    /// Substitute variable `from` with `to` in every expression.
    pub fn substitute_var(&mut self, from: VarId, to: VarId) {
        self.visit_mut(&mut |op| {
            for e in op.exprs_mut() {
                e.substitute_var(from, to);
            }
        });
    }

    /// Operator name for EXPLAIN output.
    pub fn name(&self) -> &'static str {
        match self {
            LogicalOp::EmptyTupleSource => "empty-tuple-source",
            LogicalOp::NestedTupleSource => "nested-tuple-source",
            LogicalOp::DataScan { .. } => "data-scan",
            LogicalOp::Assign { .. } => "assign",
            LogicalOp::Select { .. } => "select",
            LogicalOp::Unnest { .. } => "unnest",
            LogicalOp::Aggregate { .. } => "aggregate",
            LogicalOp::Subplan { .. } => "subplan",
            LogicalOp::GroupBy { .. } => "group-by",
            LogicalOp::OrderBy { .. } => "order-by",
            LogicalOp::Join { .. } => "join",
            LogicalOp::Distribute { .. } => "distribute",
        }
    }
}

/// A complete logical plan (root is normally DISTRIBUTE).
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalPlan {
    pub root: LogicalOp,
}

impl LogicalPlan {
    pub fn new(root: LogicalOp) -> Self {
        LogicalPlan { root }
    }

    /// Stable, indented textual form used by tests to compare plan shapes
    /// against the paper's figures.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        explain_op(&self.root, 0, &mut out);
        out
    }

    /// The sequence of operator names from root to leaf along the primary
    /// input chain (a compact shape fingerprint for tests).
    pub fn shape(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        let mut op = &self.root;
        loop {
            names.push(op.name());
            match op.children().last() {
                Some(c) => op = c,
                None => return names,
            }
        }
    }
}

fn explain_op(op: &LogicalOp, indent: usize, out: &mut String) {
    use std::fmt::Write;
    for _ in 0..indent {
        out.push_str("  ");
    }
    match op {
        LogicalOp::EmptyTupleSource => out.push_str("empty-tuple-source\n"),
        LogicalOp::NestedTupleSource => out.push_str("nested-tuple-source\n"),
        LogicalOp::DataScan {
            source,
            project,
            filter,
            var,
            ..
        } => {
            let _ = write!(
                out,
                "data-scan {var} <- collection(\"{}\") project {}",
                source.path, project
            );
            match filter {
                Some(f) => {
                    let _ = writeln!(out, " filter {f}");
                }
                None => out.push('\n'),
            }
        }
        LogicalOp::Assign { var, expr, .. } => {
            let _ = writeln!(out, "assign {var} := {expr}");
        }
        LogicalOp::Select { cond, .. } => {
            let _ = writeln!(out, "select {cond}");
        }
        LogicalOp::Unnest { var, expr, .. } => {
            let _ = writeln!(out, "unnest {var} := {expr}");
        }
        LogicalOp::Aggregate { var, func, arg, .. } => {
            let _ = writeln!(out, "aggregate {var} := {}({arg})", func.name());
        }
        LogicalOp::Subplan { .. } => out.push_str("subplan {\n"),
        LogicalOp::GroupBy { keys, .. } => {
            let keys_s: Vec<String> = keys.iter().map(|(v, e)| format!("{v} := {e}")).collect();
            let _ = writeln!(out, "group-by [{}] {{", keys_s.join(", "));
        }
        LogicalOp::OrderBy { keys, .. } => {
            let keys_s: Vec<String> = keys
                .iter()
                .map(|(e, asc)| format!("{e} {}", if *asc { "ascending" } else { "descending" }))
                .collect();
            let _ = writeln!(out, "order-by [{}]", keys_s.join(", "));
        }
        LogicalOp::Join { cond, .. } => {
            let _ = writeln!(out, "join {cond}");
        }
        LogicalOp::Distribute { exprs, .. } => {
            let exprs_s: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
            let _ = writeln!(out, "distribute [{}]", exprs_s.join(", "));
        }
    }
    match op {
        LogicalOp::Subplan { nested, input } | LogicalOp::GroupBy { nested, input, .. } => {
            explain_op(nested, indent + 1, out);
            for _ in 0..indent {
                out.push_str("  ");
            }
            out.push_str("}\n");
            explain_op(input, indent + 1, out);
        }
        LogicalOp::Join { left, right, .. } => {
            explain_op(left, indent + 1, out);
            explain_op(right, indent + 1, out);
        }
        _ => {
            for c in op.children() {
                explain_op(c, indent + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Function;
    use jdm::Item;

    fn sample_plan() -> LogicalPlan {
        // The Fig. 3 bookstore plan (naive).
        let v0 = VarId(0);
        let v1 = VarId(1);
        let v2 = VarId(2);
        let ets = LogicalOp::EmptyTupleSource;
        let a0 = LogicalOp::Assign {
            var: v0,
            expr: LogicalExpr::value_key(
                LogicalExpr::value_key(
                    LogicalExpr::Call(
                        Function::JsonDoc,
                        vec![LogicalExpr::Call(
                            Function::Promote,
                            vec![LogicalExpr::Call(
                                Function::Data,
                                vec![LogicalExpr::Const(Item::str("books.json"))],
                            )],
                        )],
                    ),
                    "bookstore",
                ),
                "book",
            ),
            input: Box::new(ets),
        };
        let a1 = LogicalOp::Assign {
            var: v1,
            expr: LogicalExpr::Call(Function::KeysOrMembers, vec![LogicalExpr::Var(v0)]),
            input: Box::new(a0),
        };
        let u = LogicalOp::Unnest {
            var: v2,
            expr: LogicalExpr::Call(Function::Iterate, vec![LogicalExpr::Var(v1)]),
            input: Box::new(a1),
        };
        LogicalPlan::new(LogicalOp::Distribute {
            exprs: vec![LogicalExpr::Var(v2)],
            input: Box::new(u),
        })
    }

    #[test]
    fn shape_matches_fig3() {
        assert_eq!(
            sample_plan().shape(),
            vec![
                "distribute",
                "unnest",
                "assign",
                "assign",
                "empty-tuple-source"
            ]
        );
    }

    #[test]
    fn explain_is_stable() {
        let text = sample_plan().explain();
        assert!(text.starts_with("distribute [$2]\n"));
        assert!(text.contains("unnest $2 := iterate($1)"));
        assert!(text.contains("keys-or-members($0)"));
        assert!(text.contains("empty-tuple-source"));
    }

    #[test]
    fn var_use_count_counts_expressions_only() {
        let plan = sample_plan();
        assert_eq!(plan.root.var_use_count(VarId(0)), 1);
        assert_eq!(plan.root.var_use_count(VarId(1)), 1);
        assert_eq!(plan.root.var_use_count(VarId(2)), 1); // in distribute
        assert_eq!(plan.root.var_use_count(VarId(9)), 0);
    }

    #[test]
    fn substitution_rewrites_everywhere() {
        let mut plan = sample_plan();
        plan.root.substitute_var(VarId(2), VarId(7));
        assert_eq!(plan.root.var_use_count(VarId(2)), 0);
        assert!(plan.explain().contains("distribute [$7]"));
    }

    #[test]
    fn vargen_above_skips_existing_ids() {
        let plan = sample_plan();
        let mut gen = VarGen::above(&plan.root);
        assert_eq!(gen.fresh(), VarId(3));
    }
}
