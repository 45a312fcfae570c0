//! Property tests for the runtime expression layer: navigation over the
//! binary tuple encoding must agree with direct tree-model navigation,
//! grouped aggregation must be partition-invariant, and the evaluator over
//! views (binary tuple fields and structural-index tape nodes) must agree
//! with `apply` over decoded items — same values, same error text — and
//! every aggregate must give the same value or error whether it folds a
//! whole sequence, one item per tuple, or partials merged in two steps.

use algebra::expr::{AggFunc, Function, LogicalExpr};
use algebra::plan::VarId;
use dataflow::frame::frames_from_rows;
use dataflow::ops::eval::AggregatorFactory;
use dataflow::DataflowError;
use jdm::binary::{to_bytes, ItemRef};
use jdm::index::StructuralIndex;
use jdm::{DateTime, Item, Number};
use proptest::prelude::*;
use vxq_core::aggs::AggFactory;
use vxq_core::rtexpr::{apply, canonicalize, keys_or_members, value_step, RtExpr};
use vxq_core::tapefilter::TapeView;

fn arb_json(depth: u32) -> impl Strategy<Value = Item> {
    let leaf = prop_oneof![
        Just(Item::Null),
        any::<bool>().prop_map(Item::Boolean),
        (-1000i64..1000).prop_map(Item::int),
        "[a-z]{0,6}".prop_map(Item::str),
    ];
    leaf.prop_recursive(depth, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Item::Array),
            prop::collection::vec(("[a-d]{1,2}", inner), 0..4).prop_map(|pairs| {
                Item::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
            }),
        ]
    })
}

/// Variable `i`, read from tuple field `i`.
fn var(i: u32) -> LogicalExpr {
    LogicalExpr::Var(VarId(i))
}

fn compile(e: &LogicalExpr) -> RtExpr {
    RtExpr::compile(e, &[VarId(0), VarId(1)], None).expect("reads fields 0 and 1")
}

/// Evaluate `value(Field(0), key)` through the full tuple machinery.
fn eval_value_via_tuple(item: &Item, key: &Item) -> Item {
    let rows = vec![vec![to_bytes(item)]];
    let frames = frames_from_rows(&rows, 64 * 1024);
    let t = frames[0].tuple(0);
    let e = LogicalExpr::Call(
        Function::Value,
        vec![var(0), LogicalExpr::Const(key.clone())],
    );
    compile(&e).eval(&t).expect("value never fails")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn value_step_through_tuples_matches_tree(item in arb_json(3), key in "[a-d]{1,2}") {
        let via_tuple = eval_value_via_tuple(&item, &Item::str(key.as_str()));
        let direct = value_step(&item, &Item::str(key.as_str()));
        prop_assert_eq!(via_tuple, direct);
    }

    #[test]
    fn index_value_step_matches_tree(item in arb_json(3), idx in -2i64..6) {
        let key = Item::Number(Number::Int(idx));
        let via_tuple = eval_value_via_tuple(&item, &key);
        let direct = value_step(&item, &key);
        prop_assert_eq!(via_tuple, direct);
    }

    #[test]
    fn kom_flattening_matches_manual(items in prop::collection::vec(arb_json(2), 0..5)) {
        let seq = Item::Sequence(items.clone());
        let got = keys_or_members(&seq);
        let expected = Item::seq(
            items.iter().map(|it| Item::Sequence(it.keys_or_members().collect())),
        );
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn comparisons_are_antisymmetric(a in arb_json(1), b in arb_json(1)) {
        // eq(a,b) == eq(b,a); lt(a,b) implies gt(b,a) for atomics.
        let eval = |f: Function, x: &Item, y: &Item| -> bool {
            vxq_core::rtexpr::apply(f, vec![x.clone(), y.clone()])
                .expect("comparison never fails")
                .as_bool()
                .expect("comparisons yield booleans")
        };
        prop_assert_eq!(eval(Function::Eq, &a, &b), eval(Function::Eq, &b, &a));
        if !matches!(a, Item::Array(_) | Item::Object(_))
            && !matches!(b, Item::Array(_) | Item::Object(_))
            && eval(Function::Lt, &a, &b)
        {
            prop_assert!(eval(Function::Gt, &b, &a));
        }
    }

    #[test]
    fn count_equals_sequence_length(items in prop::collection::vec(arb_json(1), 0..8)) {
        let seq = Item::Sequence(items.clone());
        let got = vxq_core::rtexpr::apply(Function::Count, vec![seq]).expect("count");
        prop_assert_eq!(got, Item::int(items.len() as i64));
    }
}

/// Operands for the evaluator differential: JSON values, dateTimes,
/// dateTime strings (valid and not), numbers that are integral doubles,
/// and sequences (empty, singleton, several) of those.
fn arb_operand() -> impl Strategy<Value = Item> {
    let atom = prop_oneof![
        arb_json(2),
        (1990i32..2030, 1u8..13, 1u8..29)
            .prop_map(|(y, m, d)| Item::DateTime(DateTime::new(y, m, d, 0, 0, 0).unwrap())),
        prop_oneof![
            Just(Item::str("20131225T00:00")),
            Just(Item::str("2003-12-25T06:30:00")),
            Just(Item::str("not a date")),
        ],
        (-4i64..4).prop_map(|i| Item::double(i as f64)),
        Just(Item::double(2.5)),
    ];
    prop_oneof![
        atom.clone(),
        atom.clone(),
        prop::collection::vec(atom, 0..3).prop_map(Item::Sequence),
    ]
}

/// Every function the evaluator has a view route for, plus fallbacks.
const FUNCTIONS: [(Function, usize); 24] = [
    (Function::Value, 2),
    (Function::Eq, 2),
    (Function::Ne, 2),
    (Function::Lt, 2),
    (Function::Le, 2),
    (Function::Gt, 2),
    (Function::Ge, 2),
    (Function::And, 2),
    (Function::Or, 2),
    (Function::Not, 1),
    (Function::DateTime, 1),
    (Function::YearFromDateTime, 1),
    (Function::MonthFromDateTime, 1),
    (Function::DayFromDateTime, 1),
    (Function::Data, 1),
    (Function::Promote, 1),
    (Function::KeysOrMembers, 1),
    (Function::Add, 2),
    (Function::Sub, 2),
    (Function::Mul, 2),
    (Function::Div, 2),
    (Function::IDiv, 2),
    (Function::Count, 1),
    (Function::Max, 1),
];

/// `f` over two fields, and with either operand a constant (a borrow).
fn exprs(f: Function, arity: usize, a: &Item, b: &Item) -> [RtExpr; 3] {
    let call = |x, y| {
        compile(&LogicalExpr::Call(
            f,
            [x, y].into_iter().take(arity).collect(),
        ))
    };
    [
        call(var(0), var(1)),
        call(var(0), LogicalExpr::Const(b.clone())),
        call(LogicalExpr::Const(a.clone()), var(1)),
    ]
}

/// Whether JSON text can hold the item (no dateTimes, no sequences).
fn is_json(item: &Item) -> bool {
    match item {
        Item::DateTime(_) | Item::Sequence(_) => false,
        Item::Array(members) => members.iter().all(is_json),
        Item::Object(pairs) => pairs.iter().all(|(_, v)| is_json(v)),
        _ => true,
    }
}

/// `f` over tuple fields (views), and with either operand a constant (a
/// borrow), must give what `apply` gives over the decoded items. When
/// JSON text can hold both operands, `f` over the nodes of the record
/// `[a, b]` on the structural-index tape, and over the bytes
/// `write_binary_at` writes for them, must give what `apply` gives over
/// the items decoded from the tape.
fn assert_eval_ref_matches_apply(f: Function, arity: usize, a: &Item, b: &Item) {
    let rows = vec![vec![to_bytes(a), to_bytes(b)]];
    let frames = frames_from_rows(&rows, 64 * 1024);
    let t = frames[0].tuple(0);
    let operands = [a.clone(), b.clone()];
    let expected = apply(f, operands[..arity].to_vec()).map_err(|e| e.to_string());
    for e in &exprs(f, arity, a, b) {
        let got = e
            .eval_ref(&t, None)
            .and_then(|v| v.into_item())
            .map_err(|e| e.to_string());
        assert_eq!(got, expected, "{f:?} over {a:?}, {b:?} as {e:?}");
        // The byte route (what operators write) agrees as well.
        if let Ok(item) = &expected {
            let mut out = Vec::new();
            e.eval_ref(&t, None).unwrap().write(&mut out);
            assert_eq!(out, to_bytes(item), "{f:?} bytes over {a:?}, {b:?}");
        }
    }
    if !(is_json(a) && is_json(b)) {
        return;
    }
    let text = jdm::text::to_string(&Item::Array(operands.to_vec()));
    let buf = text.as_bytes();
    let index = StructuralIndex::build(buf).expect("written JSON parses");
    let nodes = index.members(index.root());
    let decoded: Vec<Item> = nodes
        .iter()
        .map(|&n| index.item_at(buf, n).unwrap())
        .collect();
    let written: Vec<Vec<u8>> = nodes
        .iter()
        .map(|&n| {
            let mut out = Vec::new();
            index.write_binary_at(buf, n, &mut out).unwrap();
            out
        })
        .collect();
    let frames = frames_from_rows(&[written], 64 * 1024);
    let t = frames[0].tuple(0);
    let expected = apply(f, decoded[..arity].to_vec()).map_err(|e| e.to_string());
    for e in &exprs(f, arity, &decoded[0], &decoded[1]) {
        let on_tape = e
            .eval_view(|i| Ok(TapeView::new(&index, buf, nodes[i])), None)
            .and_then(|v| v.into_item())
            .map_err(|e| e.to_string());
        assert_eq!(on_tape, expected, "{f:?} on the tape of {text} as {e:?}");
        let on_bytes = e
            .eval_ref(&t, None)
            .and_then(|v| v.into_item())
            .map_err(|e| e.to_string());
        assert_eq!(on_bytes, expected, "{f:?} on the written {text} as {e:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Views and fallbacks agree with `apply` on arbitrary operands.
    #[test]
    fn eval_ref_matches_apply(a in arb_operand(), b in arb_operand()) {
        for (f, arity) in FUNCTIONS {
            assert_eval_ref_matches_apply(f, arity, &a, &b);
        }
    }

    /// `value` with keys that hit, miss, or are not strings, on objects,
    /// arrays, sequences and atomics.
    #[test]
    fn eval_ref_value_matches_apply(
        base in arb_operand(),
        key in prop_oneof![
            "[a-d]{1,2}".prop_map(Item::str),
            (-2i64..6).prop_map(Item::int),
            Just(Item::double(1.0)),
            Just(Item::Null),
            Just(Item::seq([Item::str("a")])),
        ],
    ) {
        assert_eval_ref_matches_apply(Function::Value, 2, &base, &key);
    }

    /// `Canon` writes the canonical bytes: exact-integer doubles narrow,
    /// singleton sequences unwrap, everything else is copied.
    #[test]
    fn canon_bytes_match_canonicalize(a in arb_operand()) {
        let rows = vec![vec![to_bytes(&a)]];
        let frames = frames_from_rows(&rows, 64 * 1024);
        let t = frames[0].tuple(0);
        let mut out = Vec::new();
        RtExpr::canon(RtExpr::field(0))
            .eval_ref(&t, None)
            .unwrap()
            .write(&mut out);
        prop_assert_eq!(out, to_bytes(&canonicalize(a)));
    }
}

#[test]
fn eval_ref_edge_cases() {
    let dt = Item::DateTime(DateTime::parse("20131225T06:30").unwrap());
    let obj = Item::Object(vec![("k".into(), Item::int(1)), ("k".into(), Item::int(2))]);
    for (f, a, b) in [
        // dateTime on a string, a dateTime, the empty sequence, a number
        // (an error whose text must match), and a bad string.
        (Function::DateTime, Item::str("20131225T06:30"), Item::Null),
        (Function::DateTime, dt.clone(), Item::Null),
        (Function::DateTime, Item::empty(), Item::Null),
        (Function::DateTime, Item::int(7), Item::Null),
        (Function::DateTime, Item::str("garbage"), Item::Null),
        (
            Function::YearFromDateTime,
            Item::seq([dt.clone()]),
            Item::Null,
        ),
        (Function::DayFromDateTime, Item::str("x"), Item::Null),
        // Comparisons: mixed types, empty and existential sequences.
        (Function::Eq, Item::str("1"), Item::int(1)),
        (Function::Ne, Item::str("1"), Item::int(1)),
        (Function::Eq, Item::empty(), Item::empty()),
        (
            Function::Eq,
            Item::seq([Item::int(1), Item::int(2)]),
            Item::double(2.0),
        ),
        (Function::Lt, dt.clone(), Item::str("20131225T06:30")),
        // value: duplicate keys, missing key, non-string key.
        (Function::Value, obj.clone(), Item::str("k")),
        (Function::Value, obj.clone(), Item::str("z")),
        (Function::Value, obj, Item::int(1)),
        // Arithmetic: int overflow widens to a double, division by zero
        // (a double for `div`, an error for `idiv`), an empty operand
        // (the empty sequence), mixed int and double.
        (Function::Add, Item::int(i64::MAX), Item::int(1)),
        (Function::Sub, Item::int(i64::MIN), Item::int(1)),
        (Function::Mul, Item::int(i64::MAX), Item::int(2)),
        (Function::Div, Item::int(1), Item::int(0)),
        (Function::Div, Item::int(0), Item::int(0)),
        (Function::IDiv, Item::int(7), Item::int(0)),
        (Function::IDiv, Item::int(-7), Item::int(2)),
        (Function::Sub, Item::empty(), Item::int(1)),
        (Function::Mul, Item::int(3), Item::empty()),
        (Function::Add, Item::double(2.5), Item::int(1)),
        (Function::Sub, Item::seq([Item::int(4)]), Item::int(1)),
        (Function::Add, Item::str("x"), Item::int(1)),
    ] {
        let (_, arity) = FUNCTIONS
            .into_iter()
            .find(|(g, _)| *g == f)
            .expect("every edge case is in the function table");
        assert_eval_ref_matches_apply(f, arity, &a, &b);
    }
    // Canon: the double 2.0 is written as the integer 2.
    let rows = vec![vec![to_bytes(&Item::double(2.0))]];
    let frames = frames_from_rows(&rows, 1024);
    let mut out = Vec::new();
    RtExpr::canon(RtExpr::field(0))
        .eval_ref(&frames[0].tuple(0), None)
        .unwrap()
        .write(&mut out);
    assert_eq!(out, to_bytes(&Item::int(2)));
}

/// Members of an aggregate's input: small integers, integral doubles (so
/// sums are exact in any order), strings and empty sequences.
fn arb_agg_member() -> impl Strategy<Value = Item> {
    prop_oneof![
        (-5i64..5).prop_map(Item::int),
        (-5i64..5).prop_map(Item::int),
        (-5i64..5).prop_map(|i| Item::double(i as f64)),
        "[a-c]{0,2}".prop_map(Item::str),
        Just(Item::empty()),
    ]
}

/// Run the GROUP-BY / AGGREGATE aggregator of `func` over `items`, one
/// item per tuple. An error is its evaluation message.
fn aggregate(func: AggFunc, items: &[Item]) -> Result<Item, String> {
    let rows: Vec<Vec<Vec<u8>>> = items.iter().map(|it| vec![to_bytes(it)]).collect();
    let mut agg = AggFactory {
        func,
        arg: RtExpr::field(0),
    }
    .create();
    let eval_text = |e: DataflowError| match e {
        DataflowError::Eval(m) => m,
        other => panic!("not an evaluation error: {other}"),
    };
    for frame in frames_from_rows(&rows, 4096) {
        for t in frame.tuples() {
            agg.step(&t).map_err(eval_text)?;
        }
    }
    let mut out = Vec::new();
    agg.finish(&mut out).map_err(eval_text)?;
    Ok(ItemRef::new(&out).unwrap().to_item().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `apply` over the whole sequence, the aggregator stepped per item,
    /// and the two-step local/merge pair over a random chunking agree on
    /// the value or on the error text.
    #[test]
    fn aggregate_routes_agree(
        items in prop::collection::vec(arb_agg_member(), 0..10),
        cuts in prop::collection::vec(1usize..4, 1..6),
    ) {
        let mut chunks = Vec::new();
        let mut rest = items.as_slice();
        for cut in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at((*cut).min(rest.len()));
            chunks.push(chunk);
            rest = tail;
        }
        for f in [Function::Count, Function::Sum, Function::Avg, Function::Min, Function::Max] {
            let func = AggFunc::from_scalar(f).unwrap();
            let whole = apply(f, vec![Item::seq(items.iter().cloned())]).map_err(|e| e.to_string());
            prop_assert_eq!(&aggregate(func, &items), &whole, "{:?} per item over {:?}", f, items);

            let (local, global) = func.two_step().unwrap();
            let partials: Result<Vec<Item>, String> =
                chunks.iter().map(|chunk| aggregate(local, chunk)).collect();
            let merged = partials.and_then(|p| aggregate(global, &p));
            prop_assert_eq!(&merged, &whole, "{:?} over {:?} in {:?}", f, items, chunks);
        }
    }
}
