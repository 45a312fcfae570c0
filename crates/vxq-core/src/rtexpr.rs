//! Runtime expressions: logical expressions with variables resolved to
//! tuple field indices, evaluated over binary tuples.
//!
//! JSONiq sequence semantics are implemented faithfully where the paper's
//! queries exercise them:
//!
//! * `value` and `keys-or-members` **map over sequences** (a path step on
//!   a sequence applies to each item and concatenates);
//! * value comparisons on empty sequences are `false` (a missing key
//!   never matches), and comparisons over sequences are existential;
//! * arithmetic propagates the empty sequence.
//!
//! Errors raised while evaluating are [`EngineError::Runtime`].

use crate::aggs::Fold;
use crate::error::{EngineError, Result};
use algebra::expr::{AggFunc, Function};
use dataflow::TupleRef;
use jdm::binary::{tag, write_item, ItemRef};
use jdm::{DateTime, Item, Number};
use std::cmp::Ordering;

/// Sentinel field index: the "extra" item supplied by subplan evaluation
/// (the per-item variable of a nested UNNEST).
pub const EXTRA_FIELD: usize = usize::MAX;

/// A compiled runtime expression.
#[derive(Debug, Clone)]
pub enum RtExpr {
    /// Read tuple field `i` (or the subplan extra item).
    Field(usize),
    /// Literal.
    Const(Item),
    /// Function application.
    Call(Function, Vec<RtExpr>),
    /// Evaluate and canonicalize for *byte-equality* contexts (group-by
    /// and join keys): exchanges and hash tables compare serialized
    /// bytes, so values that are JSONiq-equal must serialize identically.
    /// Doubles holding exact integers become integers; singleton
    /// sequences unwrap.
    Canon(Box<RtExpr>),
}

impl RtExpr {
    /// Evaluate over a tuple.
    pub fn eval(&self, tuple: &TupleRef<'_>) -> Result<Item> {
        self.eval_ref(tuple, None)?.into_item()
    }

    /// Evaluate with an optional extra item bound to [`EXTRA_FIELD`].
    pub fn eval_with(&self, tuple: &TupleRef<'_>, extra: Option<&Item>) -> Result<Item> {
        self.eval_ref(tuple, extra)?.into_item()
    }

    /// Evaluate without materializing what the result does not need: a
    /// field is a zero-copy view of the tuple's bytes, a constant is
    /// borrowed, and path steps, comparisons, boolean connectives, the
    /// dateTime functions and arithmetic on two numbers (except `idiv`)
    /// work on those views. Every other case decodes its arguments and
    /// defers to [`apply`], which stays the reference semantics (the
    /// property tests pin the two together).
    pub fn eval_ref<'a>(
        &'a self,
        tuple: &TupleRef<'a>,
        extra: Option<&'a Item>,
    ) -> Result<Val<'a>> {
        match self {
            RtExpr::Field(i) => {
                if *i == EXTRA_FIELD {
                    return extra
                        .map(Val::Borrowed)
                        .ok_or_else(|| EngineError::Runtime("extra field unbound".into()));
                }
                ItemRef::new(tuple.field(*i))
                    .map(Val::Ref)
                    .map_err(|e| EngineError::Runtime(format!("bad field {i}: {e}")))
            }
            RtExpr::Const(item) => Ok(Val::Borrowed(item)),
            RtExpr::Canon(inner) => canonicalize_val(inner.eval_ref(tuple, extra)?),
            RtExpr::Call(f, args) => call(*f, args, tuple, extra),
        }
    }
}

/// A value during evaluation, borrowed where possible.
#[derive(Debug)]
pub enum Val<'a> {
    /// A view of serialized bytes: a tuple field or a part of one.
    Ref(ItemRef<'a>),
    /// A constant of the expression, or the subplan's extra item.
    Borrowed(&'a Item),
    /// A value computed during evaluation.
    Owned(Item),
}

impl Val<'_> {
    /// The value as a tree-model item: decodes a view, clones a borrow.
    pub fn into_item(self) -> Result<Item> {
        match self {
            Val::Ref(r) => r
                .to_item()
                .map_err(|e| EngineError::Runtime(format!("bad item: {e}"))),
            Val::Borrowed(item) => Ok(item.clone()),
            Val::Owned(item) => Ok(item),
        }
    }

    /// Append the value in the binary item format; a view's bytes are
    /// copied as they are.
    pub fn write(&self, out: &mut Vec<u8>) {
        match self {
            Val::Ref(r) => out.extend_from_slice(r.bytes()),
            Val::Borrowed(item) => write_item(item, out),
            Val::Owned(item) => write_item(item, out),
        }
    }

    fn item(&self) -> Option<&Item> {
        match self {
            Val::Ref(_) => None,
            Val::Borrowed(item) => Some(item),
            Val::Owned(item) => Some(item),
        }
    }

    /// The binary type tag of the value, for views and items alike.
    fn kind(&self) -> u8 {
        match self {
            Val::Ref(r) => r.tag(),
            Val::Borrowed(item) => item_tag(item),
            Val::Owned(item) => item_tag(item),
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Val::Ref(r) => r.as_str(),
            _ => self.item()?.as_str(),
        }
    }

    fn as_number(&self) -> Option<Number> {
        match self {
            Val::Ref(r) => r.as_number(),
            _ => self.item()?.as_number(),
        }
    }

    fn as_datetime(&self) -> Option<DateTime> {
        match self {
            Val::Ref(r) => r.as_datetime(),
            _ => self.item()?.as_datetime(),
        }
    }

    /// The value as a comparison operand; `None` for sequences (which
    /// compare existentially) and for unreadable views, both left to
    /// [`apply`].
    fn atom(&self) -> Option<Atom<'_>> {
        let Val::Ref(r) = self else {
            return item_atom(self.item()?);
        };
        Some(match r.tag() {
            tag::NULL => Atom::Null,
            tag::FALSE => Atom::Bool(false),
            tag::TRUE => Atom::Bool(true),
            tag::INT | tag::DOUBLE => Atom::Number(r.as_number()?),
            tag::STRING => Atom::String(r.as_str()?),
            tag::DATETIME => Atom::DateTime(r.as_datetime()?),
            tag::ARRAY | tag::OBJECT => Atom::Other,
            _ => return None,
        })
    }

    /// Effective boolean value; `None` for sequences, left to [`apply`].
    fn ebv(&self) -> Option<bool> {
        match self.kind() {
            tag::TRUE => Some(true),
            tag::FALSE | tag::NULL => Some(false),
            tag::SEQUENCE => None,
            _ => Some(true),
        }
    }
}

/// The binary type tag an item serializes with.
fn item_tag(item: &Item) -> u8 {
    match item {
        Item::Null => tag::NULL,
        Item::Boolean(false) => tag::FALSE,
        Item::Boolean(true) => tag::TRUE,
        Item::Number(Number::Int(_)) => tag::INT,
        Item::Number(Number::Double(_)) => tag::DOUBLE,
        Item::String(_) => tag::STRING,
        Item::Array(_) => tag::ARRAY,
        Item::Object(_) => tag::OBJECT,
        Item::DateTime(_) => tag::DATETIME,
        Item::Sequence(_) => tag::SEQUENCE,
    }
}

/// Apply `f` to the (unevaluated) `args`, on views where the function
/// allows it and through [`apply`] otherwise. Every argument is evaluated
/// first, left to right, in both routes, so a query raises the same
/// errors either way.
fn call<'a>(
    f: Function,
    args: &'a [RtExpr],
    tuple: &TupleRef<'a>,
    extra: Option<&'a Item>,
) -> Result<Val<'a>> {
    use Function::*;
    let eval = |a: &'a RtExpr| a.eval_ref(tuple, extra);
    match (f, args) {
        (Promote | Data | TreatItem | Iterate, [a]) => eval(a),
        (Value, [base, key]) => {
            let (base, key) = (eval(base)?, eval(key)?);
            match value_view(&base, &key) {
                Some(v) => Ok(v),
                None => fallback(f, [base, key]),
            }
        }
        (Eq | Ne | Ge | Le | Gt | Lt, [lhs, rhs]) => {
            let (lhs, rhs) = (eval(lhs)?, eval(rhs)?);
            match (lhs.atom(), rhs.atom()) {
                (Some(l), Some(r)) => Ok(Val::Owned(Item::Boolean(compare_atoms(f, l, r)))),
                _ => fallback(f, [lhs, rhs]),
            }
        }
        (Not, [a]) => {
            let arg = eval(a)?;
            match arg.ebv() {
                Some(b) => Ok(Val::Owned(Item::Boolean(!b))),
                None => fallback(f, [arg]),
            }
        }
        (And | Or, _) => {
            let (mut all, mut any) = (true, false);
            for a in args {
                match eval(a)?.ebv() {
                    Some(b) => {
                        all &= b;
                        any |= b;
                    }
                    // A sequence operand: re-evaluate everything for apply.
                    None => return fallback(f, args.iter().map(eval).collect::<Result<Vec<_>>>()?),
                }
            }
            Ok(Val::Owned(Item::Boolean(if f == And { all } else { any })))
        }
        (Add | Sub | Mul | Div, [lhs, rhs]) => {
            let (lhs, rhs) = (eval(lhs)?, eval(rhs)?);
            match (numeric(&lhs), numeric(&rhs)) {
                (Some(a), Some(b)) => Ok(Val::Owned(Item::Number(match f {
                    Add => a.add(b),
                    Sub => a.sub(b),
                    Mul => a.mul(b),
                    _ => a.div(b),
                }))),
                _ => fallback(f, [lhs, rhs]),
            }
        }
        (DateTime, [a]) => {
            let arg = eval(a)?;
            if let Some(s) = arg.as_str() {
                return jdm::DateTime::parse(s)
                    .map(|d| Val::Owned(Item::DateTime(d)))
                    .map_err(|e| EngineError::Runtime(e.to_string()));
            }
            match arg.as_datetime() {
                Some(d) => Ok(Val::Owned(Item::DateTime(d))),
                None => fallback(f, [arg]),
            }
        }
        (YearFromDateTime | MonthFromDateTime | DayFromDateTime, [a]) => {
            let arg = eval(a)?;
            match arg.as_datetime() {
                Some(d) => Ok(Val::Owned(Item::int(date_part(f, d)))),
                None => fallback(f, [arg]),
            }
        }
        _ => fallback(f, args.iter().map(eval).collect::<Result<Vec<_>>>()?),
    }
}

/// The number a numeric atom holds; `None` for everything else, which
/// arithmetic leaves to [`apply`] (sequences, the empty sequence, and the
/// non-numbers it rejects).
fn numeric(val: &Val<'_>) -> Option<Number> {
    match val.kind() {
        tag::INT | tag::DOUBLE => val.as_number(),
        _ => None,
    }
}

/// Decode evaluated arguments and [`apply`] `f` to them.
fn fallback<'a>(f: Function, vals: impl IntoIterator<Item = Val<'a>>) -> Result<Val<'a>> {
    let items = vals
        .into_iter()
        .map(Val::into_item)
        .collect::<Result<Vec<_>>>()?;
    apply(f, items).map(Val::Owned)
}

/// [`value_step`] on a view or a borrowed item, returning a view or a
/// borrow of the member. `None` where [`apply`] must decide: sequences
/// (the step maps over them), owned bases and unreadable keys.
fn value_view<'a>(base: &Val<'a>, key: &Val<'_>) -> Option<Val<'a>> {
    let empty = || Val::Owned(Item::empty());
    match (base.kind(), key.kind()) {
        (tag::OBJECT, tag::STRING) => {
            let k = key.as_str()?;
            Some(match base {
                Val::Ref(r) => r.get_key(k).map_or_else(empty, Val::Ref),
                Val::Borrowed(item) => item.get_key(k).map_or_else(empty, Val::Borrowed),
                Val::Owned(_) => return None,
            })
        }
        (tag::ARRAY, _) => {
            let Some(pos) = key.as_number().and_then(Number::as_i64) else {
                return Some(empty());
            };
            Some(match base {
                Val::Ref(r) if pos >= 1 => {
                    r.member((pos - 1) as usize).map_or_else(empty, Val::Ref)
                }
                Val::Ref(_) => empty(),
                Val::Borrowed(item) => item.get_position(pos).map_or_else(empty, Val::Borrowed),
                Val::Owned(_) => return None,
            })
        }
        (tag::SEQUENCE, _) => None,
        // An object with a non-string key, or an atomic base.
        _ => Some(empty()),
    }
}

/// [`canonicalize`] on a value: a view's bytes are kept unless a double
/// must narrow to an integer or a singleton sequence must unwrap.
fn canonicalize_val(val: Val<'_>) -> Result<Val<'_>> {
    match val.kind() {
        tag::DOUBLE => Ok(match val.as_number().and_then(Number::as_i64) {
            Some(i) => Val::Owned(Item::int(i)),
            None => val,
        }),
        tag::SEQUENCE => Ok(Val::Owned(canonicalize(val.into_item()?))),
        _ => Ok(val),
    }
}

/// Canonicalize an item for byte-equality key contexts: unwrap singleton
/// sequences and narrow exact-integer doubles.
pub fn canonicalize(item: Item) -> Item {
    match item {
        Item::Sequence(mut v) if v.len() == 1 => canonicalize(v.pop().expect("len checked")),
        Item::Number(n) => match n.as_i64() {
            Some(i) => Item::int(i),
            None => Item::Number(n),
        },
        other => other,
    }
}

/// Apply a function to evaluated arguments.
pub fn apply(f: Function, mut args: Vec<Item>) -> Result<Item> {
    use Function::*;
    match f {
        Value => {
            let key = args.pop().expect("value arity");
            let base = args.pop().expect("value arity");
            Ok(value_step(&base, &key))
        }
        KeysOrMembers => {
            let base = args.pop().expect("k-o-m arity");
            Ok(keys_or_members(&base))
        }
        // Coercion scaffolding: identity on our data model (see the path
        // rules — removing these is a pure win, never a semantic change).
        Promote | Data | TreatItem | Iterate => Ok(args.pop().expect("unary arity")),
        Eq | Ne | Ge | Le | Gt | Lt => {
            let rhs = args.pop().expect("cmp arity");
            let lhs = args.pop().expect("cmp arity");
            Ok(Item::Boolean(compare(f, &lhs, &rhs)))
        }
        And => Ok(Item::Boolean(args.iter().all(ebv))),
        Or => Ok(Item::Boolean(args.iter().any(ebv))),
        Not => Ok(Item::Boolean(!ebv(&args.pop().expect("not arity")))),
        Add | Sub | Mul | Div | IDiv => {
            let rhs = args.pop().expect("arith arity");
            let lhs = args.pop().expect("arith arity");
            arith(f, &lhs, &rhs)
        }
        DateTime => {
            let arg = args.pop().expect("dateTime arity");
            match singleton(&arg) {
                Some(Item::String(s)) => jdm::DateTime::parse(s)
                    .map(Item::DateTime)
                    .map_err(|e| EngineError::Runtime(e.to_string())),
                Some(Item::DateTime(d)) => Ok(Item::DateTime(*d)),
                Some(other) => Err(EngineError::Runtime(format!(
                    "dateTime() expects a string, got {other}"
                ))),
                None => Ok(Item::empty()),
            }
        }
        YearFromDateTime | MonthFromDateTime | DayFromDateTime => {
            let arg = args.pop().expect("accessor arity");
            match singleton(&arg) {
                Some(Item::DateTime(d)) => Ok(Item::int(date_part(f, *d))),
                Some(other) => Err(EngineError::Runtime(format!(
                    "dateTime accessor expects a dateTime, got {other}"
                ))),
                None => Ok(Item::empty()),
            }
        }
        Count | Sum | Avg | Min | Max => {
            let mut fold = Fold::new(AggFunc::from_scalar(f).expect("an aggregate"));
            fold.push(&args.pop().expect("aggregate arity"))?;
            Ok(fold.finish())
        }
        Collection | JsonDoc => Err(EngineError::Runtime(
            "collection()/json-doc() must be compiled to a scan, not evaluated".into(),
        )),
    }
}

/// JSONiq `value` step, mapping over sequences.
pub fn value_step(base: &Item, key: &Item) -> Item {
    match base {
        Item::Sequence(items) => Item::seq(
            items
                .iter()
                .map(|it| value_step(it, key))
                .filter(|v| !v.is_empty_sequence()),
        ),
        Item::Object(_) => match key {
            Item::String(k) => base.get_key(k).cloned().unwrap_or_else(Item::empty),
            _ => Item::empty(),
        },
        Item::Array(_) => match key.as_number().and_then(Number::as_i64) {
            Some(i) => base.get_position(i).cloned().unwrap_or_else(Item::empty),
            None => Item::empty(),
        },
        _ => Item::empty(),
    }
}

/// JSONiq `keys-or-members`, mapping over sequences.
pub fn keys_or_members(base: &Item) -> Item {
    match base {
        Item::Sequence(items) => Item::seq(items.iter().map(keys_or_members)),
        other => Item::Sequence(other.keys_or_members().collect()),
    }
}

/// Effective boolean value (the subset we need: booleans, emptiness).
fn ebv(item: &Item) -> bool {
    match item {
        Item::Boolean(b) => *b,
        Item::Sequence(v) => v.first().map(ebv).unwrap_or(false),
        Item::Null => false,
        _ => true,
    }
}

/// Unwrap a singleton sequence; `None` for the empty sequence.
fn singleton(item: &Item) -> Option<&Item> {
    match item {
        Item::Sequence(v) => match v.as_slice() {
            [one] => singleton(one),
            _ => None,
        },
        other => Some(other),
    }
}

/// Value comparison: atomics compare by type; empty sequences never
/// match; proper sequences compare existentially (any pair).
fn compare(f: Function, lhs: &Item, rhs: &Item) -> bool {
    if let (Item::Sequence(ls), _) = (lhs, rhs) {
        return ls.iter().any(|l| compare(f, l, rhs));
    }
    if let (_, Item::Sequence(rs)) = (lhs, rhs) {
        return rs.iter().any(|r| compare(f, lhs, r));
    }
    let atom = |item| item_atom(item).expect("not a sequence");
    compare_atoms(f, atom(lhs), atom(rhs))
}

/// An item as a comparison operand; `None` for sequences.
pub(crate) fn item_atom(item: &Item) -> Option<Atom<'_>> {
    Some(match item {
        Item::Null => Atom::Null,
        Item::Boolean(b) => Atom::Bool(*b),
        Item::Number(n) => Atom::Number(*n),
        Item::String(s) => Atom::String(s),
        Item::DateTime(d) => Atom::DateTime(*d),
        Item::Array(_) | Item::Object(_) => Atom::Other,
        Item::Sequence(_) => return None,
    })
}

/// A comparison operand, borrowed from an item, a view or (in the
/// DATASCAN's tape filter) the raw record.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Atom<'a> {
    Null,
    Bool(bool),
    Number(Number),
    String(&'a str),
    DateTime(DateTime),
    /// An array or object: comparable to nothing.
    Other,
}

impl Atom<'_> {
    /// Effective boolean value, as [`Val`]'s `ebv` reads it from the tag:
    /// booleans are themselves, `null` is false, everything else true.
    pub(crate) fn ebv(self) -> bool {
        match self {
            Atom::Bool(b) => b,
            Atom::Null => false,
            _ => true,
        }
    }
}

/// Value comparison of two atoms: the one comparison core of
/// [`RtExpr::eval_ref`], [`apply`] and the DATASCAN's tape filter.
pub(crate) fn compare_atoms(f: Function, lhs: Atom<'_>, rhs: Atom<'_>) -> bool {
    let ord = match (lhs, rhs) {
        (Atom::Number(a), Atom::Number(b)) => a.num_cmp(b),
        (Atom::String(a), Atom::String(b)) => a.cmp(b),
        (Atom::Bool(a), Atom::Bool(b)) => a.cmp(&b),
        (Atom::DateTime(a), Atom::DateTime(b)) => a.cmp(&b),
        (Atom::Null, Atom::Null) => Ordering::Equal,
        // JSONiq compares strings to numbers etc. as an error; a filter
        // context treats that as non-match.
        _ => return f == Function::Ne,
    };
    match f {
        Function::Eq => ord == Ordering::Equal,
        Function::Ne => ord != Ordering::Equal,
        Function::Lt => ord == Ordering::Less,
        Function::Le => ord != Ordering::Greater,
        Function::Gt => ord == Ordering::Greater,
        Function::Ge => ord != Ordering::Less,
        _ => unreachable!("not a comparison"),
    }
}

fn arith(f: Function, lhs: &Item, rhs: &Item) -> Result<Item> {
    let (Some(l), Some(r)) = (singleton(lhs), singleton(rhs)) else {
        return Ok(Item::empty());
    };
    let (Some(a), Some(b)) = (l.as_number(), r.as_number()) else {
        return Err(EngineError::Runtime(format!(
            "arithmetic on non-numbers: {l} and {r}"
        )));
    };
    let out = match f {
        Function::Add => a.add(b),
        Function::Sub => a.sub(b),
        Function::Mul => a.mul(b),
        Function::Div => a.div(b),
        Function::IDiv => a
            .idiv(b)
            .ok_or_else(|| EngineError::Runtime("idiv by zero".into()))?,
        _ => unreachable!("not arithmetic"),
    };
    Ok(Item::Number(out))
}

/// The year, month or day of `d` for the accessor `f`.
pub(crate) fn date_part(f: Function, d: DateTime) -> i64 {
    match f {
        Function::YearFromDateTime => d.year as i64,
        Function::MonthFromDateTime => d.month as i64,
        Function::DayFromDateTime => d.day as i64,
        _ => unreachable!("not a date accessor"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jdm::parse::parse_item;

    fn obj(src: &str) -> Item {
        parse_item(src.as_bytes()).unwrap()
    }

    #[test]
    fn value_step_on_objects_arrays_sequences() {
        let o = obj(r#"{"a": 1, "b": [10, 20]}"#);
        assert_eq!(value_step(&o, &Item::str("a")), Item::int(1));
        assert!(value_step(&o, &Item::str("zz")).is_empty_sequence());
        let arr = obj("[10, 20, 30]");
        assert_eq!(value_step(&arr, &Item::int(1)), Item::int(10)); // 1-based
        assert!(value_step(&arr, &Item::int(0)).is_empty_sequence());
        // Sequence mapping: ({"k":1}, {"k":2})("k") = (1, 2)
        let seq = Item::seq([obj(r#"{"k":1}"#), obj(r#"{"k":2}"#), obj(r#"{"x":9}"#)]);
        assert_eq!(
            value_step(&seq, &Item::str("k")),
            Item::seq([Item::int(1), Item::int(2)])
        );
    }

    #[test]
    fn kom_maps_and_flattens() {
        let seq = Item::seq([obj("[1,2]"), obj("[3]")]);
        assert_eq!(
            keys_or_members(&seq),
            Item::seq([Item::int(1), Item::int(2), Item::int(3)])
        );
    }

    #[test]
    fn comparisons_handle_empty_and_mixed() {
        let t = |f, a: &Item, b: &Item| compare(f, a, b);
        assert!(t(Function::Eq, &Item::str("x"), &Item::str("x")));
        assert!(!t(Function::Eq, &Item::empty(), &Item::str("x")));
        assert!(t(Function::Ne, &Item::str("x"), &Item::int(1))); // mixed types
        assert!(!t(Function::Eq, &Item::str("x"), &Item::int(1)));
        assert!(t(Function::Ge, &Item::int(2003), &Item::int(2003)));
        assert!(t(
            Function::Lt,
            &Item::DateTime(DateTime::parse("20131225T00:00").unwrap()),
            &Item::DateTime(DateTime::parse("20140101T00:00").unwrap())
        ));
        // Existential over sequences.
        let seq = Item::seq([Item::int(1), Item::int(5)]);
        assert!(t(Function::Eq, &seq, &Item::int(5)));
        assert!(!t(Function::Eq, &seq, &Item::int(9)));
    }

    #[test]
    fn scalar_aggregates() {
        let seq = Item::seq([Item::int(2), Item::int(4), Item::int(6)]);
        assert_eq!(
            apply(Function::Count, vec![seq.clone()]).unwrap(),
            Item::int(3)
        );
        assert_eq!(
            apply(Function::Sum, vec![seq.clone()]).unwrap(),
            Item::int(12)
        );
        assert_eq!(
            apply(Function::Avg, vec![seq.clone()]).unwrap(),
            Item::double(4.0)
        );
        assert_eq!(
            apply(Function::Min, vec![seq.clone()]).unwrap(),
            Item::int(2)
        );
        assert_eq!(apply(Function::Max, vec![seq]).unwrap(), Item::int(6));
        assert_eq!(
            apply(Function::Count, vec![Item::empty()]).unwrap(),
            Item::int(0)
        );
        assert!(apply(Function::Avg, vec![Item::empty()])
            .unwrap()
            .is_empty_sequence());
        // count of a non-sequence item is 1 (singleton).
        assert_eq!(
            apply(Function::Count, vec![Item::int(7)]).unwrap(),
            Item::int(1)
        );
    }

    #[test]
    fn datetime_pipeline() {
        let s = Item::str("20131225T06:30");
        let dt = apply(Function::DateTime, vec![s]).unwrap();
        assert_eq!(
            apply(Function::YearFromDateTime, vec![dt.clone()]).unwrap(),
            Item::int(2013)
        );
        assert_eq!(
            apply(Function::MonthFromDateTime, vec![dt.clone()]).unwrap(),
            Item::int(12)
        );
        assert_eq!(
            apply(Function::DayFromDateTime, vec![dt]).unwrap(),
            Item::int(25)
        );
        // Empty propagates.
        assert!(apply(Function::DateTime, vec![Item::empty()])
            .unwrap()
            .is_empty_sequence());
    }

    #[test]
    fn arithmetic_and_div() {
        assert_eq!(
            apply(Function::Sub, vec![Item::int(30), Item::int(4)]).unwrap(),
            Item::int(26)
        );
        assert_eq!(
            apply(Function::Div, vec![Item::int(5), Item::int(2)]).unwrap(),
            Item::double(2.5)
        );
        assert!(apply(Function::Add, vec![Item::empty(), Item::int(1)])
            .unwrap()
            .is_empty_sequence());
        assert!(apply(Function::Add, vec![Item::str("x"), Item::int(1)]).is_err());
    }

    #[test]
    fn field_eval_reads_tuples() {
        use dataflow::frame::frames_from_rows;
        use jdm::binary::to_bytes;
        let rows = vec![vec![to_bytes(&obj(r#"{"k": 42}"#))]];
        let frames = frames_from_rows(&rows, 1024);
        let t = frames[0].tuple(0);
        let e = RtExpr::Call(
            Function::Value,
            vec![RtExpr::Field(0), RtExpr::Const(Item::str("k"))],
        );
        assert_eq!(e.eval(&t).unwrap(), Item::int(42));
    }
}
