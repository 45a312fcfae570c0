//! The DATASCAN's filter: the SELECT's condition, moved into the scan by
//! `push-select-into-datascan` and evaluated once per projected record by
//! the operators' evaluator ([`RtExpr::eval_view`]) before the record is
//! written: on a [`TapeView`] of a JSON text record's tape node, or on a
//! binary `.adm` item's [`ItemRef`]. [`keeps`] gives the SELECT's verdict
//! and error.
//!
//! [`ItemRef`]: jdm::binary::ItemRef

use crate::rtexpr::{Atom, RtExpr, Val, View};
use dataflow::DataflowError;
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

/// Whether the scan keeps `record`: `filter`, compiled over the scan
/// variable alone (field 0), evaluates to the boolean `true` on it. An
/// error is the SELECT's: `DataflowError::Eval` of the evaluator's error.
pub fn keeps<'a, V: View<'a>>(filter: &'a RtExpr, record: V) -> dataflow::Result<bool> {
    let value = filter.eval_view(|_| Ok(record), None);
    Ok(
        match value.map_err(|e| DataflowError::Eval(e.to_string()))? {
            Val::Ref(v) => matches!(v.atom(), Some(Atom::Bool(true))),
            Val::Borrowed(item) => matches!(item, Item::Boolean(true)),
            Val::Owned(item) => matches!(item, Item::Boolean(true)),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtexpr::Op;
    use algebra::expr::{Function, LogicalExpr};
    use algebra::plan::VarId;
    use jdm::binary::{to_bytes, ItemRef};

    fn var() -> LogicalExpr {
        LogicalExpr::Var(VarId(0))
    }

    fn call(f: Function, args: Vec<LogicalExpr>) -> LogicalExpr {
        LogicalExpr::Call(f, args)
    }

    fn lit(item: Item) -> LogicalExpr {
        LogicalExpr::Const(item)
    }

    fn compile(e: &LogicalExpr) -> RtExpr {
        RtExpr::compile(e, &[VarId(0)], None).unwrap()
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

    /// The verdict on `doc` read on the tape, checked against the same
    /// document read as a binary item.
    fn test_on(filter: &RtExpr, doc: &str) -> std::result::Result<bool, String> {
        let index = StructuralIndex::build(doc.as_bytes()).unwrap();
        let tape = keeps(filter, TapeView::new(&index, doc.as_bytes(), index.root()));
        let bytes = to_bytes(&index.item_at(doc.as_bytes(), index.root()).unwrap());
        let binary = keeps(filter, ItemRef::new(&bytes).unwrap());
        let (tape, binary) = (
            tape.map_err(|e| e.to_string()),
            binary.map_err(|e| e.to_string()),
        );
        assert_eq!(tape, binary, "{doc}");
        tape
    }

    #[test]
    fn q0_reads_one_shared_date_of_one_path() {
        let f = compile(&q0());
        let calls = |g: Function| -> Vec<usize> {
            (0..f.ops.len())
                .filter(|&i| matches!(&f.ops[i], Op::Call(h, _) if *h == g))
                .collect()
        };
        assert_eq!(calls(Function::Value).len(), 1);
        let date = calls(Function::DateTime);
        assert_eq!(date.len(), 1);
        let readers = f
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Call(_, args) if *args == date))
            .count();
        assert_eq!(readers, 3, "the three accessors read the one dateTime");
        assert_eq!(
            test_on(&f, r#"{"date": "20131225T00:00", "v": 1}"#),
            Ok(true)
        );
        assert_eq!(test_on(&f, r#"{"date": "20131224T00:00"}"#), Ok(false));
        assert_eq!(test_on(&f, r#"{"date": "20021225T00:00"}"#), Ok(false));
    }

    /// A record the filter cannot decide is not dropped: it flows on as
    /// the SELECT's error, which fails the scan.
    #[test]
    fn undecidable_records_flow_on() {
        let f = compile(&q0());
        for doc in [
            r#"{"date": "garbage"}"#,
            r#"{"date": 20131225}"#,
            r#"{"date": null}"#,
            r#"{"date": ["20131224T00:00"]}"#,
            r#"{"date": {"y": 2013}}"#,
        ] {
            let err = test_on(&f, doc).expect_err(doc);
            assert!(
                err.starts_with("evaluation error: runtime error: "),
                "{doc}: {err}"
            );
        }
        // No "date" to read: the SELECT drops these without an error.
        for doc in [
            r#"{"v": 1}"#,
            r#"["20131224T00:00"]"#,
            r#""20131224T00:00""#,
        ] {
            assert_eq!(test_on(&f, doc), Ok(false), "{doc}");
        }
    }

    #[test]
    fn a_false_conjunct_does_not_hide_an_undecided_one() {
        // eq($r("k"), "x") and year-from-dateTime($r("k")) ge 1: a false
        // conjunct does not hide the accessor's error on a string.
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
        let err = test_on(&compile(&e), r#"{"k": "y"}"#).unwrap_err();
        assert!(
            err.contains("dateTime accessor expects a dateTime"),
            "{err}"
        );
    }

    #[test]
    fn only_the_boolean_true_keeps_a_record() {
        // A bare path as the whole condition, as in `where $r("v")`.
        let f = compile(&LogicalExpr::value_key(var(), "v"));
        assert_eq!(test_on(&f, r#"{"v": true}"#), Ok(true));
        for doc in [
            r#"{"v": false}"#,
            r#"{"v": 1}"#,
            r#"{"v": "true"}"#,
            r#"{"v": [true]}"#,
            r#"{"v": {"a": true}}"#,
            r#"{"w": true}"#,
        ] {
            assert_eq!(test_on(&f, doc), Ok(false), "{doc}");
        }
        // `not` of a number: its effective boolean value is negated.
        let not = compile(&call(
            Function::Not,
            vec![LogicalExpr::value_key(var(), "v")],
        ));
        assert_eq!(test_on(&not, r#"{"v": 0}"#), Ok(false));
        assert_eq!(test_on(&not, r#"{"v": null}"#), Ok(true));
        // A constant condition.
        assert_eq!(test_on(&compile(&lit(Item::Boolean(true))), "{}"), Ok(true));
        assert_eq!(test_on(&compile(&lit(Item::int(1))), "{}"), Ok(false));
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
        let f = compile(&e);
        assert_eq!(test_on(&f, r#"{"t": "T\"MIN", "v": 0}"#), Ok(true));
        assert_eq!(test_on(&f, r#"{"t": "T\u0022MIN", "v": 0}"#), Ok(true));
        assert_eq!(test_on(&f, r#"{"t": "TMAX", "v": 3e0}"#), Ok(true));
        assert_eq!(test_on(&f, r#"{"t": "TMAX", "v": 2}"#), Ok(false));
        // A string against a number is a non-match, not an error.
        assert_eq!(test_on(&f, r#"{"t": 7, "v": "x"}"#), Ok(false));
    }

    #[test]
    fn any_expression_over_the_record_compiles() {
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
        let f = compile(&sub);
        assert_eq!(test_on(&f, r#"{"v": 3}"#), Ok(true));
        let err = test_on(&f, r#"{"v": "x"}"#).unwrap_err();
        assert!(err.contains("arithmetic on non-numbers"), "{err}");
        let other_var = call(
            Function::Eq,
            vec![LogicalExpr::Var(VarId(1)), lit(Item::int(1))],
        );
        assert!(RtExpr::compile(&other_var, &[VarId(0)], None).is_err());
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
        let f = compile(&many);
        let doc: Vec<String> = (0..9).map(|i| format!(r#""k{i}": {i}"#)).collect();
        assert_eq!(test_on(&f, &format!("{{{}}}", doc.join(", "))), Ok(true));
        assert_eq!(test_on(&f, r#"{"k0": 0}"#), Ok(false));
    }
}
