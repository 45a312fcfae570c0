//! The one aggregate fold, and the aggregator every GROUP-BY and
//! AGGREGATE runs.
//!
//! [`Fold`] defines what each [`AggFunc`] computes — `count`, `sum`,
//! `avg`, `min`, `max`, the pre-rewrite `sequence`, and the two-step
//! `partial-avg` / `merge-*` forms — exactly once. The paper's group-by
//! rules (§4.3) change *where* an aggregate runs, never *what* it
//! computes, so every evaluation strategy folds through it:
//!
//! * naive plans: [`crate::rtexpr::apply`] folds a whole materialized
//!   sequence;
//! * SUBPLAN: the compiled subplan folds one tuple's nested sequence,
//!   member by member;
//! * GROUP-BY and AGGREGATE: [`AggFactory`]'s aggregator folds its
//!   argument once per input tuple ("incrementally calculate ... as each
//!   item of the sequence is fetched", §4.3). The `merge-*` forms are the
//!   second step of Algebricks' two-step aggregation: partials computed
//!   per partition, merged at the destination partition.
//!
//! Errors are [`EngineError::Runtime`] raised here only, so a query fails
//! with the same text under every rule configuration.

use crate::error::{EngineError, Result};
use crate::rtexpr::RtExpr;
use algebra::expr::AggFunc;
use dataflow::ops::eval::{Aggregator, AggregatorFactory};
use dataflow::{DataflowError, TupleRef};
use jdm::binary::write_item;
use jdm::{Item, Number};
use std::cmp::Ordering;

/// The running state of one aggregate.
#[derive(Debug)]
pub struct Fold {
    func: AggFunc,
    /// Items folded (`count`, `avg`, `partial-avg`), or the partial counts
    /// merged (`merge-avg`).
    n: i64,
    /// Running sum of `sum`, the averages and the count/sum merges.
    total: Number,
    /// Best item so far of `min` / `max` and their merges.
    best: Option<Item>,
    /// The items `sequence` buffers.
    items: Vec<Item>,
}

impl Fold {
    /// An empty fold of `func`.
    pub fn new(func: AggFunc) -> Self {
        Fold {
            func,
            n: 0,
            total: Number::Int(0),
            best: None,
            items: Vec::new(),
        }
    }

    /// Fold in `item`; a sequence folds each of its members (so the empty
    /// sequence contributes nothing).
    pub fn push(&mut self, item: &Item) -> Result<()> {
        use AggFunc::*;
        for it in item.iter_sequence() {
            match self.func {
                Count => self.n += 1,
                Sum | Avg | PartialAvg | MergeCount | MergeSum => {
                    let x = it.as_number().ok_or_else(|| {
                        let name = if matches!(self.func, Avg | PartialAvg) {
                            "avg"
                        } else {
                            "sum"
                        };
                        EngineError::Runtime(format!("{name}() over non-number {it}"))
                    })?;
                    self.total = self.total.add(x);
                    self.n += 1;
                }
                MergeAvg => {
                    let part = |key| it.get_key(key).and_then(Item::as_number);
                    let missing = |key| EngineError::Runtime(format!("avg partial missing {key}"));
                    self.total = self.total.add(part("sum").ok_or_else(|| missing("sum"))?);
                    self.n += part("count")
                        .and_then(Number::as_i64)
                        .ok_or_else(|| missing("count"))?;
                }
                Min | Max | MergeMin | MergeMax => {
                    let want = if matches!(self.func, Min | MergeMin) {
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    };
                    if self.best.as_ref().is_none_or(|b| it.total_cmp(b) == want) {
                        self.best = Some(it.clone());
                    }
                }
                Sequence => self.items.push(it.clone()),
            }
        }
        Ok(())
    }

    /// The aggregate's value: the empty sequence for `avg`, `min` and
    /// `max` of nothing. Takes what `sequence`, `min` and `max` hold.
    pub fn finish(&mut self) -> Item {
        use AggFunc::*;
        match self.func {
            Count => Item::int(self.n),
            Sum | MergeCount | MergeSum => Item::Number(self.total),
            Avg | MergeAvg if self.n == 0 => Item::empty(),
            Avg | MergeAvg => Item::Number(self.total.div(Number::Int(self.n))),
            PartialAvg => Item::Object(vec![
                ("sum".into(), Item::Number(self.total)),
                ("count".into(), Item::int(self.n)),
            ]),
            Min | Max | MergeMin | MergeMax => self.best.take().unwrap_or_else(Item::empty),
            Sequence => Item::Sequence(std::mem::take(&mut self.items)),
        }
    }
}

/// Factory producing one aggregator per group / partition.
pub struct AggFactory {
    pub func: AggFunc,
    pub arg: RtExpr,
}

impl AggregatorFactory for AggFactory {
    fn create(&self) -> Box<dyn Aggregator> {
        Box::new(FoldAgg {
            arg: self.arg.clone(),
            fold: Fold::new(self.func),
        })
    }
}

/// Evaluates its argument per tuple and folds the result.
struct FoldAgg {
    arg: RtExpr,
    fold: Fold,
}

impl Aggregator for FoldAgg {
    fn step(&mut self, t: &TupleRef<'_>) -> dataflow::Result<()> {
        self.arg
            .eval(t)
            .and_then(|v| self.fold.push(&v))
            .map_err(|e| DataflowError::Eval(e.to_string()))
    }

    fn finish(&mut self, out: &mut Vec<u8>) -> dataflow::Result<()> {
        write_item(&self.fold.finish(), out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::frame::frames_from_rows;
    use jdm::binary::{to_bytes, ItemRef};

    fn run(func: AggFunc, arg: RtExpr, rows: Vec<Vec<Item>>) -> Item {
        let factory = AggFactory { func, arg };
        let mut agg = factory.create();
        let encoded: Vec<Vec<Vec<u8>>> = rows
            .iter()
            .map(|r| r.iter().map(to_bytes).collect())
            .collect();
        for f in frames_from_rows(&encoded, 4096) {
            for t in f.tuples() {
                agg.step(&t).unwrap();
            }
        }
        let mut out = Vec::new();
        agg.finish(&mut out).unwrap();
        ItemRef::new(&out).unwrap().to_item().unwrap()
    }

    fn ints(vals: &[i64]) -> Vec<Vec<Item>> {
        vals.iter().map(|&v| vec![Item::int(v)]).collect()
    }

    #[test]
    fn count_counts_items_not_tuples() {
        assert_eq!(
            run(AggFunc::Count, RtExpr::field(0), ints(&[1, 2, 3])),
            Item::int(3)
        );
        // Empty sequences contribute nothing.
        let rows = vec![vec![Item::empty()], vec![Item::int(1)], vec![Item::empty()]];
        assert_eq!(run(AggFunc::Count, RtExpr::field(0), rows), Item::int(1));
        // A sequence of 2 contributes 2.
        let rows = vec![vec![Item::seq([Item::int(1), Item::int(2)])]];
        assert_eq!(run(AggFunc::Count, RtExpr::field(0), rows), Item::int(2));
    }

    #[test]
    fn sum_avg_min_max() {
        assert_eq!(
            run(AggFunc::Sum, RtExpr::field(0), ints(&[5, 7, -2])),
            Item::int(10)
        );
        assert_eq!(
            run(AggFunc::Avg, RtExpr::field(0), ints(&[2, 4])),
            Item::double(3.0)
        );
        assert_eq!(
            run(AggFunc::Min, RtExpr::field(0), ints(&[5, -1, 3])),
            Item::int(-1)
        );
        assert_eq!(
            run(AggFunc::Max, RtExpr::field(0), ints(&[5, -1, 3])),
            Item::int(5)
        );
        assert!(run(AggFunc::Avg, RtExpr::field(0), vec![]).is_empty_sequence());
    }

    #[test]
    fn two_step_count_equals_single_step() {
        // Partition the input, count locally, merge globally.
        let all: Vec<i64> = (0..100).collect();
        let single = run(AggFunc::Count, RtExpr::field(0), ints(&all));

        let mut partials = Vec::new();
        for chunk in all.chunks(33) {
            partials.push(vec![run(AggFunc::Count, RtExpr::field(0), ints(chunk))]);
        }
        let merged = run(AggFunc::MergeCount, RtExpr::field(0), partials);
        assert_eq!(single, merged);
    }

    #[test]
    fn two_step_avg_equals_single_step() {
        let all: Vec<i64> = (1..=10).collect();
        let single = run(AggFunc::Avg, RtExpr::field(0), ints(&all));
        let mut partials = Vec::new();
        for chunk in all.chunks(3) {
            partials.push(vec![run(
                AggFunc::PartialAvg,
                RtExpr::field(0),
                ints(chunk),
            )]);
        }
        let merged = run(AggFunc::MergeAvg, RtExpr::field(0), partials);
        assert_eq!(single, merged);
    }

    #[test]
    fn sequence_agg_buffers_everything() {
        let got = run(AggFunc::Sequence, RtExpr::field(0), ints(&[1, 2, 3]));
        assert_eq!(got, Item::seq([Item::int(1), Item::int(2), Item::int(3)]));
    }
}
