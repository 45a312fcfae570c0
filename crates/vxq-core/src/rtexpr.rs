//! Runtime expressions: logical expressions with variables resolved to
//! tuple field indices, compiled into a flat table of their distinct
//! subexpressions. One evaluator runs them over two routes: path steps,
//! comparisons, boolean connectives, the dateTime functions and arithmetic
//! on two numbers (except `idiv`) read [`View`]s in place (binary tuple
//! fields for the operators, [`crate::tapefilter::TapeView`] tape nodes
//! for the DATASCAN's filter); every other case decodes and defers to
//! [`apply`], the reference semantics the property tests pin views to.
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

use crate::aggs::{combine_side_partials, Fold};
use crate::error::{EngineError, Result};
use algebra::expr::{AggFunc, Function, LogicalExpr};
use algebra::plan::VarId;
use dataflow::TupleRef;
use jdm::binary::{tag, to_bytes, write_item, ItemRef};
use jdm::{DateTime, Item, Number};
use std::cmp::Ordering;

/// Sentinel field index: the "extra" item supplied by subplan evaluation
/// (the per-item variable of a nested UNNEST).
pub const EXTRA_FIELD: usize = usize::MAX;

/// A value read in place, not decoded: a binary item of a tuple, or a
/// node of the structural-index tape.
pub trait View<'a>: Copy {
    /// The value as a comparison operand ([`Atom::Other`] for arrays and
    /// objects); `None` for sequences and for values that must decode (an
    /// escaped string on the tape).
    fn atom(&self) -> Option<Atom<'a>>;
    /// The value of the first `key` member of an object.
    fn get_key(&self, key: &str) -> Option<Self>;
    /// The 0-based `i`-th member of an array.
    fn member(&self, i: usize) -> Option<Self>;
    /// The value decoded into the tree model, for [`apply`].
    fn to_item(&self) -> jdm::Result<Item>;
}

impl<'a> View<'a> for ItemRef<'a> {
    fn atom(&self) -> Option<Atom<'a>> {
        Some(match self.tag() {
            tag::NULL => Atom::Null,
            tag::FALSE => Atom::Bool(false),
            tag::TRUE => Atom::Bool(true),
            tag::INT | tag::DOUBLE => Atom::Number(self.as_number()?),
            tag::STRING => Atom::String(self.as_str()?),
            tag::DATETIME => Atom::DateTime(self.as_datetime()?),
            tag::ARRAY | tag::OBJECT => Atom::Other,
            _ => return None,
        })
    }
    fn get_key(&self, key: &str) -> Option<Self> {
        ItemRef::get_key(self, key)
    }
    fn member(&self, i: usize) -> Option<Self> {
        ItemRef::member(self, i)
    }
    fn to_item(&self) -> jdm::Result<Item> {
        ItemRef::to_item(self)
    }
}

impl<'a> View<'a> for &'a Item {
    fn atom(&self) -> Option<Atom<'a>> {
        item_atom(self)
    }
    fn get_key(&self, key: &str) -> Option<Self> {
        Item::get_key(self, key)
    }
    fn member(&self, i: usize) -> Option<Self> {
        self.get_index(i)
    }
    fn to_item(&self) -> jdm::Result<Item> {
        Ok((*self).clone())
    }
}

/// A compiled runtime expression: its distinct subexpressions in
/// evaluation order (left to right, arguments first), each reading only
/// earlier slots; the last slot is the result. Equal subexpressions share
/// one slot, so each is computed once per tuple.
#[derive(Debug, Clone)]
pub struct RtExpr {
    pub(crate) ops: Vec<Op>,
    /// Whether more than one op reads the slot: a computed item read by
    /// one op alone moves into [`apply`], a shared one is cloned.
    shared: Vec<bool>,
}

/// One slot of an [`RtExpr`].
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Read tuple field `i` (or the subplan extra item).
    Field(usize),
    /// Literal.
    Const(Item),
    /// Function application to earlier slots.
    Call(Function, Vec<usize>),
    /// [`canonicalize`] an earlier slot.
    Canon(usize),
}

impl PartialEq for Op {
    fn eq(&self, other: &Op) -> bool {
        match (self, other) {
            (Op::Field(a), Op::Field(b)) | (Op::Canon(a), Op::Canon(b)) => a == b,
            // `1` and `1.0` are equal items but write different bytes.
            (Op::Const(a), Op::Const(b)) => a == b && to_bytes(a) == to_bytes(b),
            (Op::Call(f, a), Op::Call(g, b)) => f == g && a == b,
            _ => false,
        }
    }
}

impl RtExpr {
    /// Compile `e`, reading each variable from its field in `schema`, and
    /// `extra` (a subplan's per-item variable) from [`EXTRA_FIELD`]. The
    /// coercion scaffolding (`promote`, `data`, `treat`, `iterate`) is the
    /// identity on this data model and compiles to its argument.
    pub fn compile(e: &LogicalExpr, schema: &[VarId], extra: Option<VarId>) -> Result<RtExpr> {
        let mut expr = RtExpr {
            ops: Vec::new(),
            shared: Vec::new(),
        };
        expr.lower(e, schema, extra)?;
        Ok(expr)
    }

    /// Add the ops of `e`, reusing an equal op where there is one (whose
    /// slot is then read more than once); returns the slot of `e`.
    fn lower(&mut self, e: &LogicalExpr, schema: &[VarId], extra: Option<VarId>) -> Result<usize> {
        use Function::*;
        let op = match e {
            LogicalExpr::Var(v) if extra == Some(*v) => Op::Field(EXTRA_FIELD),
            LogicalExpr::Var(v) => {
                Op::Field(schema.iter().position(|x| x == v).ok_or_else(|| {
                    EngineError::Compile(format!("variable {v} not in schema {schema:?}"))
                })?)
            }
            LogicalExpr::Const(item) => Op::Const(item.clone()),
            LogicalExpr::Call(Promote | Data | TreatItem | Iterate, args) if args.len() == 1 => {
                return self.lower(&args[0], schema, extra)
            }
            LogicalExpr::Call(f, args) => Op::Call(
                *f,
                args.iter()
                    .map(|a| self.lower(a, schema, extra))
                    .collect::<Result<_>>()?,
            ),
        };
        if let Some(slot) = self.ops.iter().position(|o| *o == op) {
            self.shared[slot] = true;
            return Ok(slot);
        }
        self.ops.push(op);
        self.shared.push(false);
        Ok(self.ops.len() - 1)
    }

    /// Read tuple field `i`.
    pub fn field(i: usize) -> RtExpr {
        RtExpr {
            ops: vec![Op::Field(i)],
            shared: vec![false],
        }
    }

    /// Canonicalize the result for *byte-equality* contexts (group-by and
    /// join keys): exchanges and hash tables compare serialized bytes, so
    /// values that are JSONiq-equal must serialize identically (see
    /// [`canonicalize`]).
    pub fn canon(mut self) -> RtExpr {
        self.ops.push(Op::Canon(self.ops.len() - 1));
        self.shared.push(false);
        self
    }

    /// Evaluate over a tuple.
    pub fn eval(&self, tuple: &TupleRef<'_>) -> Result<Item> {
        self.eval_ref(tuple, None)?.into_item()
    }

    /// [`RtExpr::eval_view`] over the binary fields of a tuple: a field is
    /// a zero-copy view of the tuple's bytes.
    pub fn eval_ref<'a>(
        &'a self,
        tuple: &TupleRef<'a>,
        extra: Option<&'a Item>,
    ) -> Result<Val<'a>> {
        self.eval_view(|i| ItemRef::new(tuple.field(i)), extra)
    }

    /// Evaluate with field `i` read as `field(i)`, without materializing
    /// what the result does not need: a constant is borrowed, a path step
    /// on a view is a view, and only [`apply`]'s cases decode. Arguments
    /// are evaluated left to right, all of them, so the expression fails
    /// with the error its first failing subexpression raises.
    pub fn eval_view<'a, V: View<'a>>(
        &'a self,
        field: impl Fn(usize) -> jdm::Result<V>,
        extra: Option<&'a Item>,
    ) -> Result<Val<'a, V>> {
        let null = Slot::Atom(Atom::Null);
        match self.ops.len() {
            0..=4 => self.run(&mut [null; 4], field, extra),
            5..=8 => self.run(&mut [null; 8], field, extra),
            9..=16 => self.run(&mut [null; 16], field, extra),
            n => self.run(&mut vec![null; n], field, extra),
        }
    }

    /// [`RtExpr::eval_view`] with room for the slots in `slots`.
    fn run<'a, V: View<'a>>(
        &'a self,
        slots: &mut [Slot<'a, V>],
        field: impl Fn(usize) -> jdm::Result<V>,
        extra: Option<&'a Item>,
    ) -> Result<Val<'a, V>> {
        let mut arena = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            slots[i] = match op {
                Op::Field(EXTRA_FIELD) => Slot::Item(
                    extra.ok_or_else(|| EngineError::Runtime("extra field unbound".into()))?,
                ),
                Op::Field(f) => Slot::View(
                    field(*f).map_err(|e| EngineError::Runtime(format!("bad field {f}: {e}")))?,
                ),
                Op::Const(item) => Slot::Item(item),
                Op::Canon(a) => canonicalize_slot(slots[*a], &mut arena)?,
                Op::Call(f, args) => call(*f, args, slots, &self.shared, &mut arena)?,
            };
        }
        Ok(match slots[self.ops.len() - 1] {
            Slot::View(v) => Val::Ref(v),
            Slot::Item(item) => Val::Borrowed(item),
            Slot::Atom(a) => Val::Owned(a.to_item()),
            Slot::Owned(i) => Val::Owned(arena.swap_remove(i)),
        })
    }
}

/// The empty sequence: the value of a path step that finds nothing.
static EMPTY: Item = Item::Sequence(Vec::new());

/// The result of an evaluation, borrowed where possible.
#[derive(Debug)]
pub enum Val<'a, V = ItemRef<'a>> {
    /// A view of a value in place: a tuple field, a tape node, or a part
    /// of one.
    Ref(V),
    /// A constant of the expression, or the subplan's extra item.
    Borrowed(&'a Item),
    /// A value computed during evaluation.
    Owned(Item),
}

impl Val<'_> {
    /// Append the value in the binary item format; a view's bytes are
    /// copied as they are.
    pub fn write(&self, out: &mut Vec<u8>) {
        match self {
            Val::Ref(r) => out.extend_from_slice(r.bytes()),
            Val::Borrowed(item) => write_item(item, out),
            Val::Owned(item) => write_item(item, out),
        }
    }
}

impl<'a, V: View<'a>> Val<'a, V> {
    /// The value as a tree-model item: decodes a view, clones a borrow.
    pub fn into_item(self) -> Result<Item> {
        match self {
            Val::Ref(r) => Slot::View(r).to_item(&[]),
            Val::Borrowed(item) => Ok(item.clone()),
            Val::Owned(item) => Ok(item),
        }
    }
}

/// A slot's value during an evaluation: a view, a constant (or the extra
/// item, or the empty sequence), a computed atom, or the index of a
/// computed item in the evaluation's arena. It is copied, never dropped.
#[derive(Clone, Copy)]
enum Slot<'a, V> {
    View(V),
    Item(&'a Item),
    Atom(Atom<'a>),
    Owned(usize),
}

impl<'a, V: View<'a>> Slot<'a, V> {
    /// The value as a comparison operand; `None` for sequences (which
    /// compare existentially) and for views that must decode, both left
    /// to [`apply`].
    fn atom<'s>(self, arena: &'s [Item]) -> Option<Atom<'s>>
    where
        'a: 's,
    {
        match self {
            Slot::Atom(a) => Some(a),
            Slot::View(v) => v.atom(),
            Slot::Item(item) => item_atom(item),
            Slot::Owned(i) => item_atom(&arena[i]),
        }
    }

    /// Effective boolean value; `None` for sequences (and views that must
    /// decode), left to [`apply`].
    fn ebv(self, arena: &[Item]) -> Option<bool> {
        Some(match self.atom(arena)? {
            Atom::Bool(b) => b,
            Atom::Null => false,
            _ => true,
        })
    }

    fn to_item(self, arena: &[Item]) -> Result<Item> {
        match self {
            Slot::View(v) => v
                .to_item()
                .map_err(|e| EngineError::Runtime(format!("bad item: {e}"))),
            Slot::Atom(a) => Ok(a.to_item()),
            Slot::Item(item) => Ok(item.clone()),
            Slot::Owned(i) => Ok(arena[i].clone()),
        }
    }
}

/// Apply `f` to the evaluated slots `args`, on views where the function
/// allows it and through [`apply`] otherwise.
#[inline]
fn call<'a, V: View<'a>>(
    f: Function,
    args: &[usize],
    slots: &[Slot<'a, V>],
    shared: &[bool],
    arena: &mut Vec<Item>,
) -> Result<Slot<'a, V>> {
    use Function::*;
    let arg = |i: usize| slots[args[i]];
    let atom = |a: Atom<'static>| Some(Slot::Atom(a));
    let on_views = match (f, args.len()) {
        (Value, 2) => value_view(arg(0), arg(1), arena),
        (Eq | Ne | Ge | Le | Gt | Lt, 2) => match (arg(0).atom(arena), arg(1).atom(arena)) {
            (Some(l), Some(r)) => atom(Atom::Bool(compare_atoms(f, l, r))),
            _ => None,
        },
        (Not, 1) => arg(0).ebv(arena).and_then(|b| atom(Atom::Bool(!b))),
        (And, n) => (0..n)
            .try_fold(true, |all, i| Some(all & arg(i).ebv(arena)?))
            .and_then(|b| atom(Atom::Bool(b))),
        (Or, n) => (0..n)
            .try_fold(false, |any, i| Some(any | arg(i).ebv(arena)?))
            .and_then(|b| atom(Atom::Bool(b))),
        (Add | Sub | Mul | Div, 2) => match (arg(0).atom(arena), arg(1).atom(arena)) {
            (Some(Atom::Number(a)), Some(Atom::Number(b))) => atom(Atom::Number(match f {
                Add => a.add(b),
                Sub => a.sub(b),
                Mul => a.mul(b),
                _ => a.div(b),
            })),
            _ => None,
        },
        (DateTime, 1) => match arg(0).atom(arena) {
            Some(Atom::String(s)) => {
                return jdm::DateTime::parse(s)
                    .map(|d| Slot::Atom(Atom::DateTime(d)))
                    .map_err(|e| EngineError::Runtime(e.to_string()))
            }
            Some(Atom::DateTime(d)) => atom(Atom::DateTime(d)),
            _ => None,
        },
        (YearFromDateTime | MonthFromDateTime | DayFromDateTime, 1) => match arg(0).atom(arena) {
            Some(Atom::DateTime(d)) => atom(Atom::Number(Number::Int(date_part(f, d)))),
            _ => None,
        },
        (CombineSidePartials, 4) => {
            match (arg(0).atom(arena), arg(1).atom(arena), arg(2), arg(3)) {
                (Some(Atom::String(agg)), Some(Atom::String(op)), Slot::View(a), Slot::View(b)) => {
                    arena.push(combine_side_partials(agg, op, a, b)?);
                    return Ok(Slot::Owned(arena.len() - 1));
                }
                _ => None,
            }
        }
        _ => None,
    };
    if let Some(slot) = on_views {
        return Ok(slot);
    }
    // A computed item read by this op alone moves into `apply`.
    let items = args.iter().map(|&a| match slots[a] {
        Slot::Owned(i) if !shared[a] => Ok(std::mem::replace(&mut arena[i], Item::Null)),
        slot => slot.to_item(arena),
    });
    let item = apply(f, items.collect::<Result<Vec<_>>>()?)?;
    arena.push(item);
    Ok(Slot::Owned(arena.len() - 1))
}

/// [`value_step`] on a view or a borrowed item, returning a view or a
/// borrow of the member. `None` where [`apply`] must decide: sequences
/// (the step maps over them), computed values and keys that must decode.
fn value_view<'a, V: View<'a>>(
    base: Slot<'a, V>,
    key: Slot<'a, V>,
    arena: &[Item],
) -> Option<Slot<'a, V>> {
    let empty = Slot::Item(&EMPTY);
    base.atom(arena)?;
    let pos = |n: Number| n.as_i64().filter(|&p| p >= 1);
    Some(match (base, key.atom(arena)?) {
        (Slot::View(r), Atom::String(k)) => r.get_key(k).map_or(empty, Slot::View),
        (Slot::Item(item), Atom::String(k)) => item.get_key(k).map_or(empty, Slot::Item),
        (Slot::View(r), Atom::Number(n)) => pos(n)
            .and_then(|p| r.member(p as usize - 1))
            .map_or(empty, Slot::View),
        (Slot::Item(item), Atom::Number(n)) => pos(n)
            .and_then(|p| item.get_position(p))
            .map_or(empty, Slot::Item),
        (Slot::Atom(_) | Slot::Owned(_), _) => return None,
        // A key of the wrong type: the step finds nothing.
        _ => empty,
    })
}

/// [`canonicalize`] on a slot: an atom is kept unless a double must
/// narrow to an integer; anything else decodes.
fn canonicalize_slot<'a, V: View<'a>>(
    slot: Slot<'a, V>,
    arena: &mut Vec<Item>,
) -> Result<Slot<'a, V>> {
    Ok(match slot.atom(arena) {
        Some(Atom::Number(n)) => Slot::Atom(Atom::Number(n.as_i64().map_or(n, Number::Int))),
        Some(_) => slot,
        None => {
            let item = canonicalize(slot.to_item(arena)?);
            arena.push(item);
            Slot::Owned(arena.len() - 1)
        }
    })
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
        CombineSidePartials => match args.as_slice() {
            [Item::String(agg), Item::String(op), a, b] => combine_side_partials(agg, op, a, b),
            _ => Err(EngineError::Runtime(
                "combine-side-partials takes an aggregate, an operator and two partials".into(),
            )),
        },
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
pub(crate) fn ebv(item: &Item) -> bool {
    match item {
        Item::Boolean(b) => *b,
        Item::Sequence(v) => v.first().map(ebv).unwrap_or(false),
        Item::Null => false,
        _ => true,
    }
}

/// Unwrap a singleton sequence; `None` for the empty sequence and for
/// sequences of more than one item.
pub(crate) fn singleton(item: &Item) -> Option<&Item> {
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
fn item_atom(item: &Item) -> Option<Atom<'_>> {
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

/// An atomic value: a comparison operand, borrowed from an item or a
/// view, or a value computed during evaluation.
#[derive(Debug, Clone, Copy)]
pub enum Atom<'a> {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(&'a str),
    /// A dateTime.
    DateTime(DateTime),
    /// An array or object: comparable to nothing.
    Other,
}

impl Atom<'_> {
    fn to_item(self) -> Item {
        match self {
            Atom::Null => Item::Null,
            Atom::Bool(b) => Item::Boolean(b),
            Atom::Number(n) => Item::Number(n),
            Atom::String(s) => Item::str(s),
            Atom::DateTime(d) => Item::DateTime(d),
            Atom::Other => unreachable!("evaluation computes no array or object atom"),
        }
    }
}

/// Value comparison of two atoms: the one comparison core of
/// [`RtExpr::eval_view`] and [`apply`].
fn compare_atoms(f: Function, lhs: Atom<'_>, rhs: Atom<'_>) -> bool {
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
        return Err(non_numbers(l, r));
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

/// The error of arithmetic on the operands `l` and `r`, one of them not a
/// number.
pub(crate) fn non_numbers(l: &Item, r: &Item) -> EngineError {
    EngineError::Runtime(format!("arithmetic on non-numbers: {l} and {r}"))
}

/// The year, month or day of `d` for the accessor `f`.
fn date_part(f: Function, d: DateTime) -> i64 {
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
        let e = LogicalExpr::value_key(LogicalExpr::Var(VarId(7)), "k");
        let e = RtExpr::compile(&e, &[VarId(7)], None).unwrap();
        assert_eq!(e.eval(&t).unwrap(), Item::int(42));
    }
}
