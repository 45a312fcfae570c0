//! Logical expressions.

use crate::plan::VarId;
use jdm::Item;
use std::fmt;

/// Scalar functions known to the algebra. Navigation and coercion
/// functions are what the paper's rules pattern-match on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Function {
    /// JSONiq `value`: `value(item, key_or_index)`.
    Value,
    /// JSONiq `keys-or-members`: all members of an array / keys of an
    /// object. Produces a sequence.
    KeysOrMembers,
    /// XQuery sequence iteration marker used inside UNNEST: yields each
    /// item of a sequence argument.
    Iterate,
    /// `promote(x, type)` — type promotion scaffolding (arg 0 only here).
    Promote,
    /// `data(x)` — atomization scaffolding.
    Data,
    /// `treat(x, item)` — runtime type assertion the group-by rules remove.
    TreatItem,
    /// `collection("/dir")` — the sequence of all JSON items in a
    /// partitioned collection.
    Collection,
    /// `json-doc("file")` — a single document.
    JsonDoc,
    // --- comparisons (JSONiq general comparison on atomics) ---
    Eq,
    Ne,
    Ge,
    Le,
    Gt,
    Lt,
    // --- boolean ---
    And,
    Or,
    Not,
    // --- arithmetic ---
    Add,
    Sub,
    Mul,
    Div,
    IDiv,
    // --- dateTime ---
    DateTime,
    YearFromDateTime,
    MonthFromDateTime,
    DayFromDateTime,
    // --- scalar (whole-sequence) aggregates; the group-by rules convert
    //     these into incremental aggregate functions ---
    Count,
    Sum,
    Avg,
    Min,
    Max,
    /// `combine-side-partials(agg, op, a, b)`: what the pairs of one join
    /// key add to `agg` (`"avg"`, `"sum"` or `"count"`) of `op`
    /// (`"subtract"` or `"add"`) applied to every pair of a value of side
    /// partial `a` and a value of side partial `b` (see
    /// `push-aggregate-below-join`).
    CombineSidePartials,
}

impl Function {
    /// Surface-syntax name (used by EXPLAIN output and error messages).
    pub fn name(self) -> &'static str {
        use Function::*;
        match self {
            Value => "value",
            KeysOrMembers => "keys-or-members",
            Iterate => "iterate",
            Promote => "promote",
            Data => "data",
            TreatItem => "treat",
            Collection => "collection",
            JsonDoc => "json-doc",
            Eq => "eq",
            Ne => "ne",
            Ge => "ge",
            Le => "le",
            Gt => "gt",
            Lt => "lt",
            And => "and",
            Or => "or",
            Not => "not",
            Add => "add",
            Sub => "subtract",
            Mul => "multiply",
            Div => "divide",
            IDiv => "idivide",
            DateTime => "dateTime",
            YearFromDateTime => "year-from-dateTime",
            MonthFromDateTime => "month-from-dateTime",
            DayFromDateTime => "day-from-dateTime",
            Count => "count",
            Sum => "sum",
            Avg => "avg",
            Min => "min",
            Max => "max",
            CombineSidePartials => "combine-side-partials",
        }
    }

    /// True for the scalar aggregate functions the group-by conversion
    /// rule recognises.
    pub fn is_scalar_aggregate(self) -> bool {
        matches!(
            self,
            Function::Count | Function::Sum | Function::Avg | Function::Min | Function::Max
        )
    }
}

/// Incremental aggregation functions used by AGGREGATE and GROUP-BY.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Materialize the group as a sequence (the pre-rewrite inner focus of
    /// GROUP-BY, Fig. 9). The group-by rules replace this.
    Sequence,
    /// Incremental `count` (counts items of the argument per tuple).
    Count,
    /// Incremental `sum`.
    Sum,
    /// Incremental `avg`.
    Avg,
    /// Incremental `min`.
    Min,
    /// Incremental `max`.
    Max,
    /// Merge partial counts (two-step aggregation, global side).
    MergeCount,
    /// Produce a `[sum, count]` partial for avg (two-step, local side).
    PartialAvg,
    /// Merge `[sum, count]` partials into a final avg (global side).
    MergeAvg,
    /// Merge `[sum, count]` partials into one `[sum, count]` (the local
    /// side of a two-step `merge-avg`).
    PartialMergeAvg,
    /// Merge partial sums / mins / maxes.
    MergeSum,
    MergeMin,
    MergeMax,
    /// Fold one join side's term per join key (`push-aggregate-below-join`):
    /// the count and sum of its numbers, plus its first value and its
    /// first non-number, which carry the error the pairs would raise.
    /// Each partition folds its own partial; the join and the combine
    /// above it merge them.
    SidePartial,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        use AggFunc::*;
        match self {
            Sequence => "sequence",
            Count => "count",
            Sum => "sum",
            Avg => "avg",
            Min => "min",
            Max => "max",
            MergeCount => "merge-count",
            PartialAvg => "partial-avg",
            MergeAvg => "merge-avg",
            PartialMergeAvg => "partial-merge-avg",
            MergeSum => "merge-sum",
            MergeMin => "merge-min",
            MergeMax => "merge-max",
            SidePartial => "side-partial",
        }
    }

    /// The (local, global) pair implementing this aggregate in two steps,
    /// or `None` when it cannot be split (Sequence). A merge of partials
    /// splits too: each partition merges its own, and one merges those.
    pub fn two_step(self) -> Option<(AggFunc, AggFunc)> {
        use AggFunc::*;
        match self {
            Count => Some((Count, MergeCount)),
            Sum => Some((Sum, MergeSum)),
            Avg => Some((PartialAvg, MergeAvg)),
            Min => Some((Min, MergeMin)),
            Max => Some((Max, MergeMax)),
            MergeCount | MergeSum | MergeMin | MergeMax => Some((self, self)),
            MergeAvg => Some((PartialMergeAvg, MergeAvg)),
            _ => None,
        }
    }

    /// Incremental counterpart of a scalar aggregate function.
    pub fn from_scalar(f: Function) -> Option<AggFunc> {
        match f {
            Function::Count => Some(AggFunc::Count),
            Function::Sum => Some(AggFunc::Sum),
            Function::Avg => Some(AggFunc::Avg),
            Function::Min => Some(AggFunc::Min),
            Function::Max => Some(AggFunc::Max),
            _ => None,
        }
    }
}

/// A logical scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalExpr {
    /// Reference to a variable produced by an operator below.
    Var(VarId),
    /// A literal item.
    Const(Item),
    /// Function application.
    Call(Function, Vec<LogicalExpr>),
}

impl LogicalExpr {
    /// Shorthand for function application.
    pub fn call(f: Function, args: Vec<LogicalExpr>) -> Self {
        LogicalExpr::Call(f, args)
    }

    /// `value(base, key)` with a string key.
    pub fn value_key(base: LogicalExpr, key: &str) -> Self {
        LogicalExpr::Call(
            Function::Value,
            vec![base, LogicalExpr::Const(Item::str(key))],
        )
    }

    /// Collect every variable referenced in this expression.
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            LogicalExpr::Var(v) => out.push(*v),
            LogicalExpr::Const(_) => {}
            LogicalExpr::Call(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// True if the expression references `v`.
    pub fn uses_var(&self, v: VarId) -> bool {
        match self {
            LogicalExpr::Var(x) => *x == v,
            LogicalExpr::Const(_) => false,
            LogicalExpr::Call(_, args) => args.iter().any(|a| a.uses_var(v)),
        }
    }

    /// Replace every reference to `from` with `to`.
    pub fn substitute_var(&mut self, from: VarId, to: VarId) {
        match self {
            LogicalExpr::Var(x) if *x == from => *x = to,
            LogicalExpr::Call(_, args) => {
                for a in args {
                    a.substitute_var(from, to);
                }
            }
            _ => {}
        }
    }

    /// Replace every reference to `from` with an arbitrary expression.
    pub fn substitute_var_expr(&mut self, from: VarId, to: &LogicalExpr) {
        match self {
            LogicalExpr::Var(x) if *x == from => *self = to.clone(),
            LogicalExpr::Call(_, args) => {
                for a in args {
                    a.substitute_var_expr(from, to);
                }
            }
            _ => {}
        }
    }

    /// Split a conjunction into its conjuncts (flattening nested `and`s).
    pub fn conjuncts(&self) -> Vec<&LogicalExpr> {
        match self {
            LogicalExpr::Call(Function::And, args) => {
                args.iter().flat_map(|a| a.conjuncts()).collect()
            }
            other => vec![other],
        }
    }

    /// Rebuild a conjunction from conjuncts (empty → `true`).
    pub fn conjoin(mut parts: Vec<LogicalExpr>) -> LogicalExpr {
        match parts.len() {
            0 => LogicalExpr::Const(Item::Boolean(true)),
            1 => parts.pop().expect("len checked"),
            _ => LogicalExpr::Call(Function::And, parts),
        }
    }
}

impl fmt::Display for LogicalExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicalExpr::Var(v) => write!(f, "${}", v.0),
            LogicalExpr::Const(item) => write!(f, "{item}"),
            LogicalExpr::Call(func, args) => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_reads_like_the_paper() {
        let e = LogicalExpr::value_key(
            LogicalExpr::value_key(LogicalExpr::Var(VarId(0)), "bookstore"),
            "book",
        );
        assert_eq!(e.to_string(), r#"value(value($0, "bookstore"), "book")"#);
    }

    #[test]
    fn var_collection_and_substitution() {
        let mut e = LogicalExpr::Call(
            Function::Eq,
            vec![LogicalExpr::Var(VarId(1)), LogicalExpr::Var(VarId(2))],
        );
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars, vec![VarId(1), VarId(2)]);
        assert!(e.uses_var(VarId(1)));
        e.substitute_var(VarId(1), VarId(9));
        assert!(!e.uses_var(VarId(1)));
        assert!(e.uses_var(VarId(9)));
    }

    #[test]
    fn conjunct_splitting_flattens() {
        let a = LogicalExpr::Var(VarId(1));
        let b = LogicalExpr::Var(VarId(2));
        let c = LogicalExpr::Var(VarId(3));
        let and = LogicalExpr::Call(
            Function::And,
            vec![
                LogicalExpr::Call(Function::And, vec![a.clone(), b.clone()]),
                c.clone(),
            ],
        );
        assert_eq!(and.conjuncts(), vec![&a, &b, &c]);
        let back = LogicalExpr::conjoin(vec![a, b, c]);
        assert_eq!(back.conjuncts().len(), 3);
    }

    #[test]
    fn two_step_pairs() {
        assert_eq!(
            AggFunc::Count.two_step(),
            Some((AggFunc::Count, AggFunc::MergeCount))
        );
        assert_eq!(
            AggFunc::Avg.two_step(),
            Some((AggFunc::PartialAvg, AggFunc::MergeAvg))
        );
        assert_eq!(
            AggFunc::MergeSum.two_step(),
            Some((AggFunc::MergeSum, AggFunc::MergeSum))
        );
        assert_eq!(
            AggFunc::MergeAvg.two_step(),
            Some((AggFunc::PartialMergeAvg, AggFunc::MergeAvg))
        );
        assert_eq!(AggFunc::Sequence.two_step(), None);
    }
}
