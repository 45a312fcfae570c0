//! The DATASCAN's tape filter: a reject-only test of each projected
//! record on the structural-index tape, before the record is written.
//!
//! `push-select-into-datascan` copies into the DATASCAN the conjuncts of
//! the SELECT above it that read the scan variable through constant-key
//! paths ([`algebra::rules::pipelining::tape_evaluable`]). [`TapeFilter`]
//! compiles that copy with the operators' compiler (the scan variable in
//! field 0) and evaluates it per record with their evaluator, over a
//! [`TapeView`] of the record: Q0's three accessors share one `dateTime`.
//!
//! [`TapeFilter::test`] answers the effective boolean value the SELECT's
//! `and` reads, so the scan skips a record it rejects before
//! `write_binary_at`: the SELECT drops that record without an error. When
//! evaluating fails it answers `None`: the record flows to the ASSIGN and
//! SELECT above, which raise its error exactly as without the filter.

use crate::error::Result;
use crate::rtexpr::{ebv, Atom, RtExpr, Val, View};
use algebra::expr::LogicalExpr;
use algebra::plan::VarId;
use jdm::index::{StructuralIndex, TapeKind};
use jdm::Item;

/// A node of the structural-index tape as an evaluator [`View`]. An
/// escaped string is not borrowed, so it takes the decode fallback.
#[derive(Debug, Clone, Copy)]
pub struct TapeView<'a> {
    index: &'a StructuralIndex,
    buf: &'a [u8],
    node: usize,
}

impl<'a> TapeView<'a> {
    /// The value at tape index `node` of `index`, built over `buf`.
    pub fn new(index: &'a StructuralIndex, buf: &'a [u8], node: usize) -> Self {
        TapeView { index, buf, node }
    }

    fn kind(&self) -> TapeKind {
        self.index.tape()[self.node].kind
    }
}

impl<'a> View<'a> for TapeView<'a> {
    fn atom(&self) -> Option<Atom<'a>> {
        let (index, buf, node) = (self.index, self.buf, self.node);
        Some(match self.kind() {
            TapeKind::Null => Atom::Null,
            TapeKind::Bool => Atom::Bool(buf[index.span(node).0] == b't'),
            TapeKind::Number => Atom::Number(index.number_at(buf, node).ok()?),
            TapeKind::String | TapeKind::Key => {
                // The build validated the string: without escapes its
                // text is the raw bytes between the quotes.
                let (start, end) = index.span(node);
                let raw = &buf[start + 1..end - 1];
                if raw.contains(&b'\\') {
                    return None;
                }
                Atom::String(std::str::from_utf8(raw).ok()?)
            }
            _ => Atom::Other,
        })
    }

    fn get_key(&self, key: &str) -> Option<Self> {
        // The build validated every key, so the lookup cannot fail.
        let node = self.index.find_key(self.buf, self.node, key).ok()??;
        Some(TapeView { node, ..*self })
    }

    fn member(&self, i: usize) -> Option<Self> {
        let node = self.index.members_iter(self.node).nth(i)?;
        Some(TapeView { node, ..*self })
    }

    fn to_item(&self) -> jdm::Result<Item> {
        self.index.item_at(self.buf, self.node)
    }
}

/// A DATASCAN filter compiled for the tape; see the module docs.
#[derive(Debug, Clone)]
pub struct TapeFilter(RtExpr);

impl TapeFilter {
    /// Compile the filter over the scan variable `var`.
    pub fn compile(filter: &LogicalExpr, var: VarId) -> Result<TapeFilter> {
        RtExpr::compile(filter, &[var], None).map(TapeFilter)
    }

    /// Test the record at tape index `node`: the filter's effective
    /// boolean value, or `None` when evaluating it fails (the record must
    /// flow on, so that the SELECT raises the error).
    pub fn test(&self, index: &StructuralIndex, buf: &[u8], node: usize) -> Option<bool> {
        let record = TapeView::new(index, buf, node);
        self.0
            .eval_view(|_| Ok(record), None)
            .and_then(Val::into_item)
            .map(|result| ebv(&result))
            .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtexpr::Op;
    use algebra::expr::Function;

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
    fn q0_reads_one_shared_date_of_one_path() {
        let f = TapeFilter::compile(&q0(), VarId(0)).unwrap();
        let calls = |g: Function| -> Vec<usize> {
            (0..f.0.ops.len())
                .filter(|&i| matches!(&f.0.ops[i], Op::Call(h, _) if *h == g))
                .collect()
        };
        assert_eq!(calls(Function::Value).len(), 1);
        let date = calls(Function::DateTime);
        assert_eq!(date.len(), 1);
        let readers =
            f.0.ops
                .iter()
                .filter(|op| matches!(op, Op::Call(_, args) if *args == date))
                .count();
        assert_eq!(readers, 3, "the three accessors read the one dateTime");
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
            r#"{"date": "garbage"}"#,
            r#"{"date": 20131225}"#,
            r#"{"date": null}"#,
            r#"{"date": ["20131224T00:00"]}"#,
            r#"{"date": {"y": 2013}}"#,
        ] {
            assert_eq!(test_on(&f, doc), None, "{doc}");
        }
        // No "date" to read: the SELECT drops these without an error.
        for doc in [
            r#"{"v": 1}"#,
            r#"["20131224T00:00"]"#,
            r#""20131224T00:00""#,
        ] {
            assert_eq!(test_on(&f, doc), Some(false), "{doc}");
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
    fn any_expression_over_the_record_compiles() {
        // Arithmetic is outside the rule's grammar but not the evaluator's.
        let sub = call(
            Function::Eq,
            vec![
                call(
                    Function::Sub,
                    vec![LogicalExpr::value_key(var(), "v"), lit(Item::int(1))],
                ),
                lit(Item::int(2)),
            ],
        );
        let f = TapeFilter::compile(&sub, VarId(0)).unwrap();
        assert_eq!(test_on(&f, r#"{"v": 3}"#), Some(true));
        assert_eq!(test_on(&f, r#"{"v": "x"}"#), None);
        let other_var = call(
            Function::Eq,
            vec![LogicalExpr::Var(VarId(1)), lit(Item::int(1))],
        );
        assert!(TapeFilter::compile(&other_var, VarId(0)).is_err());
        // More slots than the evaluator keeps on the stack.
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
        let f = TapeFilter::compile(&many, VarId(0)).unwrap();
        let doc: Vec<String> = (0..9).map(|i| format!(r#""k{i}": {i}"#)).collect();
        assert_eq!(test_on(&f, &format!("{{{}}}", doc.join(", "))), Some(true));
        assert_eq!(test_on(&f, r#"{"k0": 0}"#), Some(false));
    }
}
