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
//! `side-partial` and [`combine_side_partials`] are eager aggregation
//! below a join (`push-aggregate-below-join`): each join side folds its
//! term per join key, and the combine turns one key's two partials into
//! what the key's pairs add to the `avg`, `sum` or `count` above the
//! join, which the `merge-*` forms then fold.
//!
//! Errors are [`EngineError::Runtime`] raised here only, so a query fails
//! with the same text under every rule configuration.

use crate::error::{EngineError, Result};
use crate::rtexpr::{non_numbers, singleton, Atom, RtExpr, View};
use algebra::expr::AggFunc;
use dataflow::ops::eval::{Aggregator, AggregatorFactory};
use dataflow::{DataflowError, TupleRef};
use jdm::binary::write_item;
use jdm::{Item, Number};
use std::cmp::Ordering;
use std::sync::Arc;

/// The running state of one aggregate.
#[derive(Debug)]
pub struct Fold {
    func: AggFunc,
    /// Items folded (`count`, `avg`, `partial-avg`), numbers folded
    /// (`side-partial`), or the partial counts merged (`merge-avg`,
    /// `partial-merge-avg`).
    n: i64,
    /// Running sum of `sum`, the averages and the count/sum merges; the
    /// sum of a side partial's doubles.
    total: Number,
    /// The exact sum of a side partial's integers: a key's side can sum
    /// past 64 bits where each of its pairs' differences is small.
    wide: i128,
    /// Best item so far of `min` / `max` and their merges; the first
    /// non-number of a side partial.
    best: Option<Item>,
    /// The first value of a side partial.
    first: Option<Item>,
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
            wide: 0,
            best: None,
            first: None,
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
                MergeAvg | PartialMergeAvg => {
                    // `partial-avg`'s `[sum, count]`.
                    let part = |i| it.get_index(i).and_then(Item::as_number);
                    let missing = |key| EngineError::Runtime(format!("avg partial missing {key}"));
                    self.total = self.total.add(part(0).ok_or_else(|| missing("sum"))?);
                    self.n += part(1)
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
                // A side partial reads the whole value, not its members.
                SidePartial => return self.push_side(item),
            }
        }
        Ok(())
    }

    /// Fold one value of a join side's term (`side-partial`). Like
    /// `subtract` and `add`, a side partial skips the empty sequence and
    /// sequences of more than one item: only a single value can meet a
    /// partner.
    fn push_side(&mut self, item: &Item) -> Result<()> {
        let Some(one) = singleton(item) else {
            return Ok(());
        };
        if self.first.is_none() {
            self.first = Some(one.clone());
        }
        match one.as_number() {
            Some(Number::Int(i)) => {
                self.wide += i128::from(i);
                self.n += 1;
            }
            Some(x) => {
                self.total = self.total.add(x);
                self.n += 1;
            }
            None if self.best.is_none() => self.best = Some(one.clone()),
            None => {}
        }
        Ok(())
    }

    /// The sum of a side partial's numbers, as [`Fold::finish`] writes it.
    fn side_sum(&self) -> Item {
        match (self.total, i64::try_from(self.wide)) {
            (Number::Double(d), _) => Item::double(d + self.wide as f64),
            (_, Ok(i)) => Item::int(i),
            (_, Err(_)) => Item::Array(vec![
                Item::int((self.wide >> 64) as i64),
                Item::int(self.wide as i64),
            ]),
        }
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
            PartialAvg | PartialMergeAvg => {
                Item::Array(vec![Item::Number(self.total), Item::int(self.n)])
            }
            Min | Max | MergeMin | MergeMax => self.best.take().unwrap_or_else(Item::empty),
            Sequence => Item::Sequence(std::mem::take(&mut self.items)),
            // A single number stands for itself; anything else is
            // `[count, sum, first, non-number]`, the last two only if
            // present (a non-number is a value, so there is a first).
            // The sum is a double once a double was folded; an integer
            // sum past 64 bits is `[high, low]`, its two 64-bit halves.
            SidePartial if self.n == 1 && self.best.is_none() => {
                self.first.take().expect("a number was folded")
            }
            SidePartial => Item::Array(
                [Item::int(self.n), self.side_sum()]
                    .into_iter()
                    .chain(self.first.take())
                    .chain(self.best.take())
                    .collect(),
            ),
        }
    }
}

/// The sum of a side partial's numbers: exact while they are all
/// integers.
#[derive(Clone, Copy)]
enum SideSum {
    Int(i128),
    Double(f64),
}

impl SideSum {
    fn as_f64(self) -> f64 {
        match self {
            SideSum::Int(i) => i as f64,
            SideSum::Double(d) => d,
        }
    }
}

/// A side partial read back, from a binary field or a decoded item:
/// what one join side's term holds for one key.
struct SideParts<V> {
    /// Number of numeric values.
    count: i64,
    /// Their sum.
    sum: SideSum,
    /// The first value, if any.
    first: Option<V>,
    /// The first non-number, if any.
    non_number: Option<V>,
}

impl<'a, V: View<'a>> SideParts<V> {
    fn of(part: V) -> Result<Self> {
        let sum_of = |x| match x {
            Number::Int(i) => SideSum::Int(i.into()),
            Number::Double(d) => SideSum::Double(d),
        };
        if let Some(Atom::Number(x)) = part.atom() {
            return Ok(SideParts {
                count: 1,
                sum: sum_of(x),
                first: Some(part),
                non_number: None,
            });
        }
        let malformed = || EngineError::Runtime("malformed side partial".into());
        let number = |v: Option<V>| match v.and_then(|v| v.atom()) {
            Some(Atom::Number(n)) => Ok(n),
            _ => Err(malformed()),
        };
        let int = |v| match number(v)? {
            Number::Int(i) => Ok(i),
            Number::Double(_) => Err(malformed()),
        };
        let sum = part.member(1).ok_or_else(malformed)?;
        let sum = match sum.atom() {
            Some(Atom::Number(x)) => sum_of(x),
            // `[high, low]`.
            _ => SideSum::Int(
                (i128::from(int(sum.member(0))?) << 64) | i128::from(int(sum.member(1))? as u64),
            ),
        };
        Ok(SideParts {
            count: int(part.member(0))?,
            sum,
            first: part.member(2),
            non_number: part.member(3),
        })
    }
}

/// What the pairs of one join key add to `agg` (`avg`, `sum` or `count`)
/// of `op(x, m)` (`op` is `subtract` or `add`), for every `x` of side
/// partial `a` and `m` of side partial `b`; the `merge-*` form of `agg`
/// folds the results. Pairs with an empty or multi-item side give
/// nothing; so `count` gets `c_a·c_b` and `sum` gets `c_b·Σa ∓ c_a·Σb`,
/// exact in 128 bits for integers (an `Int` whenever the result fits in
/// 64, as each side's sum is kept exact). `avg` gets both, as
/// `partial-avg`'s `[sum, count]`. A pair of a non-number and any value
/// fails as `op` fails on it.
pub fn combine_side_partials<'a, V: View<'a>>(agg: &str, op: &str, a: V, b: V) -> Result<Item> {
    let (a, b) = (SideParts::of(a)?, SideParts::of(b)?);
    let decode = |v: V| {
        v.to_item()
            .map_err(|e| EngineError::Runtime(format!("bad item: {e}")))
    };
    if let (Some(l), Some(r)) = (a.non_number, b.first) {
        return Err(non_numbers(&decode(l)?, &decode(r)?));
    }
    if let (Some(l), Some(r)) = (a.first, b.non_number) {
        return Err(non_numbers(&decode(l)?, &decode(r)?));
    }
    let sign = match op {
        "subtract" => -1,
        "add" => 1,
        other => {
            return Err(EngineError::Runtime(format!(
                "combine-side-partials over {other}"
            )))
        }
    };
    let (count, sum) = if a.count == 0 || b.count == 0 {
        (Number::Int(0), Number::Int(0))
    } else {
        let float = |x: SideSum, m: SideSum| {
            b.count as f64 * x.as_f64() + sign as f64 * (a.count as f64 * m.as_f64())
        };
        let sum = match (a.sum, b.sum) {
            (SideSum::Int(x), SideSum::Int(m)) => {
                // |x| < c_a·2^63, so this overflows only where c_a·c_b
                // does not fit in 64 bits.
                let exact = i128::from(b.count)
                    .checked_mul(x)
                    .zip(i128::from(a.count).checked_mul(m))
                    .and_then(|(l, r)| l.checked_add(sign * r));
                match exact {
                    Some(e) => i64::try_from(e).map_or(Number::Double(e as f64), Number::Int),
                    None => Number::Double(float(a.sum, b.sum)),
                }
            }
            (x, m) => Number::Double(float(x, m)),
        };
        (Number::Int(a.count).mul(Number::Int(b.count)), sum)
    };
    Ok(match agg {
        "avg" => Item::Array(vec![Item::Number(sum), Item::Number(count)]),
        "sum" => Item::Number(sum),
        "count" => Item::Number(count),
        other => {
            return Err(EngineError::Runtime(format!(
                "combine-side-partials for {other}"
            )))
        }
    })
}

/// Factory producing one aggregator per group / partition. Every
/// aggregator shares the one compiled argument.
pub struct AggFactory {
    pub func: AggFunc,
    pub arg: Arc<RtExpr>,
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
    arg: Arc<RtExpr>,
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
        let factory = AggFactory {
            func,
            arg: Arc::new(arg),
        };
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

    /// A merge of partials splits in two as well: each partition merges
    /// its own, and one merges those.
    #[test]
    fn two_step_merges_equal_single_step() {
        let partials: Vec<Vec<Item>> = (1..=10)
            .map(|i| vec![Item::Array(vec![Item::int(i * 7 - 20), Item::int(i % 4)])])
            .collect();
        let single = run(AggFunc::MergeAvg, RtExpr::field(0), partials.clone());
        let (local, global) = AggFunc::MergeAvg.two_step().unwrap();
        let locals = partials
            .chunks(3)
            .map(|chunk| vec![run(local, RtExpr::field(0), chunk.to_vec())])
            .collect();
        assert_eq!(run(global, RtExpr::field(0), locals), single);
        // No partials at all: the global step sees `[0, 0]`, still empty.
        let none = vec![vec![run(local, RtExpr::field(0), vec![])]];
        assert!(run(global, RtExpr::field(0), none).is_empty_sequence());
    }

    /// The side partial of `values`.
    fn side_partial(values: &[Item]) -> Item {
        let rows = values.iter().map(|v| vec![v.clone()]).collect();
        run(AggFunc::SidePartial, RtExpr::field(0), rows)
    }

    #[test]
    fn side_partials_count_numbers_and_keep_the_first_non_number() {
        let values = [
            Item::int(4),
            Item::empty(),
            Item::seq([Item::int(1), Item::int(2)]),
            Item::str("x"),
            Item::double(0.5),
            Item::str("y"),
            Item::seq([Item::int(7)]),
        ];
        let expected = Item::Array(vec![
            Item::int(3),
            Item::double(11.5),
            Item::int(4),
            Item::str("x"),
        ]);
        assert_eq!(side_partial(&values), expected);
        // Nothing but empty sequences: no value at all.
        assert_eq!(
            side_partial(&[Item::empty()]),
            Item::Array(vec![Item::int(0), Item::int(0)])
        );
        // One number stands for itself.
        let one = side_partial(&[Item::empty(), Item::double(2.5)]);
        assert!(
            matches!(one, Item::Number(Number::Double(d)) if d == 2.5),
            "{one:?}"
        );
    }

    /// Each partition folds its own side partial of a key; the join pairs
    /// every partial of one side with every partial of the other, and the
    /// combine distributes over partial sums, so the pairs of partials
    /// add up to the pairs of values.
    #[test]
    fn partials_of_parts_combine_to_the_partial_of_the_whole() {
        let xs: Vec<Item> = (0..7).map(|i| Item::int(i * 3 - 4)).collect();
        let ms: Vec<Item> = (0..5).map(|i| Item::int(10 - i * i)).collect();
        let sum = |parts_x: &[&[Item]], parts_m: &[&[Item]]| {
            let mut total = Number::Int(0);
            for px in parts_x {
                for pm in parts_m {
                    let c = combine_side_partials(
                        "sum",
                        "subtract",
                        &side_partial(px),
                        &side_partial(pm),
                    )
                    .unwrap();
                    total = total.add(c.as_number().unwrap());
                }
            }
            total
        };
        let whole = sum(&[&xs], &[&ms]);
        assert_eq!(
            whole,
            sum(&[&xs[..2], &xs[2..3], &xs[3..]], &[&ms[..4], &ms[4..]])
        );
        let pairs: i64 = xs
            .iter()
            .flat_map(|x| {
                ms.iter()
                    .map(move |m| x.as_number().unwrap().sub(m.as_number().unwrap()))
            })
            .map(|d| d.as_i64().unwrap())
            .sum();
        assert_eq!(whole, Number::Int(pairs));
    }

    #[test]
    fn combining_side_partials_equals_folding_the_pairs() {
        let xs = [Item::int(20), Item::int(22), Item::empty()];
        let ms = [Item::int(5), Item::int(-3)];
        let (px, pm) = (side_partial(&xs), side_partial(&ms));
        let combine = |agg, op| combine_side_partials(agg, op, &px, &pm).unwrap();
        // Pairs: 15, 23, 17, 25.
        assert_eq!(combine("sum", "subtract"), Item::int(80));
        assert_eq!(combine("count", "subtract"), Item::int(4));
        assert_eq!(
            combine("avg", "subtract"),
            Item::Array(vec![Item::int(80), Item::int(4)])
        );
        // Pairs: 25, 17, 27, 19.
        assert_eq!(combine("sum", "add"), Item::int(88));
        // Products past 64 bits stay exact: 3 x 3e18 on each side.
        let big = side_partial(&vec![Item::int(3_000_000_000_000_000_000); 3]);
        let bigger = side_partial(&[
            Item::int(3_000_000_000_000_000_001),
            Item::int(3_000_000_000_000_000_000),
            Item::int(3_000_000_000_000_000_002),
        ]);
        assert_eq!(
            combine_side_partials("sum", "subtract", &bigger, &big).unwrap(),
            Item::int(9)
        );
        // A side's integers sum exactly past 64 bits: 4 x 3e18 each.
        let four = |extra: [i64; 4]| {
            side_partial(&extra.map(|e| Item::int(3_000_000_000_000_000_000 + e)))
        };
        let (xs, ms) = (four([1, 0, 2, 3]), four([0, 0, 1, 2]));
        assert_eq!(
            combine_side_partials("sum", "subtract", &xs, &ms).unwrap(),
            Item::int(12)
        );
        assert_eq!(
            combine_side_partials("sum", "add", &xs, &ms).unwrap(),
            Item::double(4.0 * 24e18 + 36.0)
        );
        // A double operand makes the sum a double, as it makes each pair:
        // (2.0 - 5) + (2.0 + 3).
        let two = side_partial(&[Item::double(2.0)]);
        let sum = combine_side_partials("sum", "subtract", &two, &pm).unwrap();
        assert!(
            matches!(sum, Item::Number(Number::Double(d)) if d == 2.0),
            "{sum:?}"
        );
    }

    #[test]
    fn a_non_number_fails_only_against_a_partner_value() {
        let nn = side_partial(&[Item::str("x"), Item::int(3)]);
        let num = side_partial(&[Item::int(10)]);
        let nothing = side_partial(&[Item::empty()]);
        let err = |a: &Item, b: &Item| {
            combine_side_partials("sum", "subtract", a, b)
                .unwrap_err()
                .to_string()
        };
        assert!(err(&num, &nn).ends_with(r#"arithmetic on non-numbers: 10 and "x""#));
        assert!(err(&nn, &num).ends_with(r#"arithmetic on non-numbers: "x" and 10"#));
        // No partner value: the pairs are all empty.
        assert_eq!(
            combine_side_partials("sum", "subtract", &nn, &nothing).unwrap(),
            Item::int(0)
        );
    }

    #[test]
    fn sequence_agg_buffers_everything() {
        let got = run(AggFunc::Sequence, RtExpr::field(0), ints(&[1, 2, 3]));
        assert_eq!(got, Item::seq([Item::int(1), Item::int(2), Item::int(3)]));
    }
}
