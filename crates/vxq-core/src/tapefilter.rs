//! The DATASCAN's tape filter: a reject-only test of each projected
//! record on the structural-index tape, before the record is written.
//!
//! `push-select-into-datascan` copies into the DATASCAN the conjuncts of
//! the SELECT above it that read the scan variable through constant-key
//! paths ([`algebra::rules::pipelining::tape_evaluable`]). [`TapeFilter`]
//! compiles that copy once per execution into a flat table of the
//! distinct operands it reads (each path, and each `dateTime` of a path)
//! and a boolean tree over them. Per record it resolves every path once
//! with [`StructuralIndex::find_key`], parses every distinct `dateTime`
//! once (Q0's three accessors share one parse), and evaluates the tree
//! with the comparison core of [`crate::rtexpr`].
//!
//! [`TapeFilter::test`] answers `Some(false)` only when every operand
//! resolved to an atom without error and the tree is false. The SELECT
//! would then surely drop the record without raising an error, so the
//! scan skips it before `write_binary_at`. A missing key, an array or
//! object, a date that does not parse, or a `dateTime` of a non-string
//! gives `None`: the record flows to the ASSIGN and SELECT above, which
//! decide it (and raise its error) exactly as they do without the filter.

use crate::rtexpr::{compare_atoms, date_part, item_atom, Atom};
use algebra::expr::{Function, LogicalExpr};
use algebra::plan::VarId;
use algebra::rules::pipelining::tape_path;
use jdm::index::{StructuralIndex, TapeKind};
use jdm::{DateTime, Item, Number};
use std::borrow::Cow;

/// Operands a filter's values fit in without a heap allocation per
/// record (Q0 reads two: one path and its `dateTime`).
const INLINE_SLOTS: usize = 8;

/// One operand the filter reads per record.
#[derive(Debug, Clone, PartialEq)]
enum Slot {
    /// The value under these keys of the record (no keys: the record).
    Path(Vec<String>),
    /// `dateTime` of the string at an earlier [`Slot::Path`].
    DateTime(usize),
}

/// The boolean tree over the slots.
#[derive(Debug, Clone)]
enum Node {
    Const(Item),
    Slot(usize),
    /// A year, month or day accessor.
    Part(Function, Box<Node>),
    Cmp(Function, Box<Node>, Box<Node>),
    And(Vec<Node>),
    Or(Vec<Node>),
    Not(Box<Node>),
}

/// A slot's value for one record.
enum SlotVal<'a> {
    Null,
    Bool(bool),
    Number(Number),
    Str(Cow<'a, str>),
    DateTime(DateTime),
}

impl SlotVal<'_> {
    fn atom(&self) -> Atom<'_> {
        match self {
            SlotVal::Null => Atom::Null,
            SlotVal::Bool(b) => Atom::Bool(*b),
            SlotVal::Number(n) => Atom::Number(*n),
            SlotVal::Str(s) => Atom::String(s),
            SlotVal::DateTime(d) => Atom::DateTime(*d),
        }
    }
}

/// A DATASCAN filter compiled for the tape; see the module docs.
#[derive(Debug, Clone)]
pub struct TapeFilter {
    slots: Vec<Slot>,
    tree: Node,
}

impl TapeFilter {
    /// Compile the filter over the scan variable `var`; `None` when the
    /// expression is outside the tape grammar.
    pub fn compile(filter: &LogicalExpr, var: VarId) -> Option<TapeFilter> {
        let mut slots = Vec::new();
        let tree = lower(filter, var, &mut slots)?;
        Some(TapeFilter { slots, tree })
    }

    /// Test the record at tape index `node`: `Some(false)` when the
    /// filter surely rejects it, `None` when the tape cannot decide
    /// without an error (the record must flow on), `Some(true)` when it
    /// passes.
    pub fn test(&self, index: &StructuralIndex, buf: &[u8], node: usize) -> Option<bool> {
        let mut inline: [Option<SlotVal<'_>>; INLINE_SLOTS] = Default::default();
        let mut heap = Vec::new();
        let vals = match self.slots.len() {
            n if n <= INLINE_SLOTS => &mut inline[..n],
            n => {
                heap.resize_with(n, || None);
                &mut heap[..]
            }
        };
        for (i, slot) in self.slots.iter().enumerate() {
            let val = match slot {
                Slot::Path(keys) => {
                    let mut at = node;
                    for k in keys {
                        at = index.find_key(buf, at, k).ok()??;
                    }
                    atom_at(index, buf, at)?
                }
                Slot::DateTime(p) => match &vals[*p] {
                    Some(SlotVal::Str(s)) => SlotVal::DateTime(DateTime::parse(s).ok()?),
                    _ => return None,
                },
            };
            vals[i] = Some(val);
        }
        Some(eval(&self.tree, vals)?.ebv())
    }
}

/// The atom at tape index `at`; `None` for arrays and objects.
fn atom_at<'a>(index: &StructuralIndex, buf: &'a [u8], at: usize) -> Option<SlotVal<'a>> {
    let e = index.tape()[at];
    Some(match e.kind {
        TapeKind::Null => SlotVal::Null,
        TapeKind::Bool => SlotVal::Bool(buf[e.start as usize] == b't'),
        TapeKind::Number => SlotVal::Number(index.number_at(buf, at).ok()?),
        TapeKind::String => SlotVal::Str(index.str_at(buf, at).ok()?),
        _ => return None,
    })
}

/// Evaluate every node of the tree, so that a node that cannot be
/// decided anywhere makes the whole tree undecided, as an error anywhere
/// in the SELECT fails it.
fn eval<'a>(node: &'a Node, vals: &'a [Option<SlotVal<'_>>]) -> Option<Atom<'a>> {
    Some(match node {
        Node::Const(item) => item_atom(item)?,
        Node::Slot(i) => vals[*i].as_ref()?.atom(),
        Node::Part(f, arg) => match eval(arg, vals)? {
            Atom::DateTime(d) => Atom::Number(Number::Int(date_part(*f, d))),
            _ => return None,
        },
        Node::Cmp(f, l, r) => Atom::Bool(compare_atoms(*f, eval(l, vals)?, eval(r, vals)?)),
        Node::And(args) => {
            let mut all = true;
            for a in args {
                all &= eval(a, vals)?.ebv();
            }
            Atom::Bool(all)
        }
        Node::Or(args) => {
            let mut any = false;
            for a in args {
                any |= eval(a, vals)?.ebv();
            }
            Atom::Bool(any)
        }
        Node::Not(a) => Atom::Bool(!eval(a, vals)?.ebv()),
    })
}

/// Lower a tape-evaluable expression, adding its operands to `slots`.
fn lower(e: &LogicalExpr, var: VarId, slots: &mut Vec<Slot>) -> Option<Node> {
    use Function as F;
    if let Some(keys) = tape_path(e, var) {
        return Some(Node::Slot(slot(slots, Slot::Path(keys))));
    }
    let (f, args) = match e {
        LogicalExpr::Call(f, args) => (*f, args.as_slice()),
        LogicalExpr::Const(
            item @ (Item::Null
            | Item::Boolean(_)
            | Item::Number(_)
            | Item::String(_)
            | Item::DateTime(_)),
        ) => return Some(Node::Const(item.clone())),
        _ => return None,
    };
    let lower_all = |slots: &mut Vec<Slot>| -> Option<Vec<Node>> {
        args.iter().map(|a| lower(a, var, slots)).collect()
    };
    Some(match (f, args) {
        (F::Promote | F::Data | F::TreatItem, [a]) => lower(a, var, slots)?,
        (F::DateTime, [a]) => {
            let p = slot(slots, Slot::Path(tape_path(a, var)?));
            Node::Slot(slot(slots, Slot::DateTime(p)))
        }
        (F::YearFromDateTime | F::MonthFromDateTime | F::DayFromDateTime, [a]) => {
            Node::Part(f, Box::new(lower(a, var, slots)?))
        }
        (F::Eq | F::Ne | F::Ge | F::Le | F::Gt | F::Lt, [l, r]) => Node::Cmp(
            f,
            Box::new(lower(l, var, slots)?),
            Box::new(lower(r, var, slots)?),
        ),
        (F::And, [_, ..]) => Node::And(lower_all(slots)?),
        (F::Or, [_, ..]) => Node::Or(lower_all(slots)?),
        (F::Not, [a]) => Node::Not(Box::new(lower(a, var, slots)?)),
        _ => return None,
    })
}

/// The index of `s` in `slots`, adding it when new.
fn slot(slots: &mut Vec<Slot>, s: Slot) -> usize {
    slots.iter().position(|x| *x == s).unwrap_or_else(|| {
        slots.push(s);
        slots.len() - 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var() -> LogicalExpr {
        LogicalExpr::Var(VarId(0))
    }

    fn call(f: Function, args: Vec<LogicalExpr>) -> LogicalExpr {
        LogicalExpr::Call(f, args)
    }

    fn lit(item: Item) -> LogicalExpr {
        LogicalExpr::Const(item)
    }

    /// Q0's filter: three accessors of one `dateTime`.
    fn q0() -> LogicalExpr {
        let date = || {
            call(
                Function::DateTime,
                vec![LogicalExpr::value_key(var(), "date")],
            )
        };
        call(
            Function::And,
            vec![
                call(
                    Function::Ge,
                    vec![
                        call(Function::YearFromDateTime, vec![date()]),
                        lit(Item::int(2003)),
                    ],
                ),
                call(
                    Function::Eq,
                    vec![
                        call(Function::MonthFromDateTime, vec![date()]),
                        lit(Item::int(12)),
                    ],
                ),
                call(
                    Function::Eq,
                    vec![
                        call(Function::DayFromDateTime, vec![date()]),
                        lit(Item::int(25)),
                    ],
                ),
            ],
        )
    }

    fn test_on(filter: &TapeFilter, doc: &str) -> Option<bool> {
        let index = StructuralIndex::build(doc.as_bytes()).unwrap();
        filter.test(&index, doc.as_bytes(), index.root())
    }

    #[test]
    fn q0_reads_one_path_and_parses_one_date() {
        let f = TapeFilter::compile(&q0(), VarId(0)).unwrap();
        assert_eq!(
            f.slots,
            vec![Slot::Path(vec!["date".into()]), Slot::DateTime(0)]
        );
        assert_eq!(
            test_on(&f, r#"{"date": "20131225T00:00", "v": 1}"#),
            Some(true)
        );
        assert_eq!(test_on(&f, r#"{"date": "20131224T00:00"}"#), Some(false));
        assert_eq!(test_on(&f, r#"{"date": "20021225T00:00"}"#), Some(false));
    }

    #[test]
    fn undecidable_records_flow_on() {
        let f = TapeFilter::compile(&q0(), VarId(0)).unwrap();
        for doc in [
            r#"{"v": 1}"#,
            r#"{"date": "garbage"}"#,
            r#"{"date": 20131225}"#,
            r#"{"date": null}"#,
            r#"{"date": ["20131224T00:00"]}"#,
            r#"{"date": {"y": 2013}}"#,
            r#"["20131224T00:00"]"#,
            r#""20131224T00:00""#,
        ] {
            assert_eq!(test_on(&f, doc), None, "{doc}");
        }
    }

    #[test]
    fn a_false_conjunct_does_not_hide_an_undecided_one() {
        // eq($r("k"), "x") and year-from-dateTime($r("k")) ge 1: the
        // accessor of a string fails in the SELECT, so no verdict.
        let k = || LogicalExpr::value_key(var(), "k");
        let e = call(
            Function::And,
            vec![
                call(Function::Eq, vec![k(), lit(Item::str("x"))]),
                call(
                    Function::Ge,
                    vec![
                        call(Function::YearFromDateTime, vec![k()]),
                        lit(Item::int(1)),
                    ],
                ),
            ],
        );
        let f = TapeFilter::compile(&e, VarId(0)).unwrap();
        assert_eq!(test_on(&f, r#"{"k": "y"}"#), None);
    }

    #[test]
    fn strings_numbers_and_escapes_compare_like_the_select() {
        let e = call(
            Function::Or,
            vec![
                call(
                    Function::Eq,
                    vec![
                        call(Function::Data, vec![LogicalExpr::value_key(var(), "t")]),
                        lit(Item::str("T\"MIN")),
                    ],
                ),
                call(
                    Function::Gt,
                    vec![LogicalExpr::value_key(var(), "v"), lit(Item::double(2.5))],
                ),
            ],
        );
        let f = TapeFilter::compile(&e, VarId(0)).unwrap();
        assert_eq!(test_on(&f, r#"{"t": "T\"MIN", "v": 0}"#), Some(true));
        assert_eq!(test_on(&f, r#"{"t": "T\u0022MIN", "v": 0}"#), Some(true));
        assert_eq!(test_on(&f, r#"{"t": "TMAX", "v": 3e0}"#), Some(true));
        assert_eq!(test_on(&f, r#"{"t": "TMAX", "v": 2}"#), Some(false));
        // A string against a number is a non-match, not an error.
        assert_eq!(test_on(&f, r#"{"t": 7, "v": "x"}"#), Some(false));
    }

    #[test]
    fn outside_the_grammar_nothing_compiles_and_inside_everything_does() {
        let sub = call(
            Function::Sub,
            vec![LogicalExpr::value_key(var(), "v"), lit(Item::int(1))],
        );
        assert!(TapeFilter::compile(&sub, VarId(0)).is_none());
        let other_var = call(
            Function::Eq,
            vec![LogicalExpr::Var(VarId(1)), lit(Item::int(1))],
        );
        assert!(TapeFilter::compile(&other_var, VarId(0)).is_none());
        let many = call(
            Function::And,
            (0..9)
                .map(|i| {
                    call(
                        Function::Eq,
                        vec![
                            LogicalExpr::value_key(var(), &format!("k{i}")),
                            lit(Item::int(i)),
                        ],
                    )
                })
                .collect(),
        );
        let f = TapeFilter::compile(&many, VarId(0)).expect("nine operands compile");
        let doc: Vec<String> = (0..9).map(|i| format!(r#""k{i}": {i}"#)).collect();
        assert_eq!(test_on(&f, &format!("{{{}}}", doc.join(", "))), Some(true));
        assert_eq!(test_on(&f, r#"{"k0": 0}"#), None);
    }
}
