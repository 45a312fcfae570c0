//! Property tests for the jdm invariants listed in DESIGN.md §7:
//! text round-trip, binary round-trip, ItemRef/tree agreement,
//! projection ≡ full-parse-then-navigate, and neither parser (`parse_item`
//! or the oracle) panicking on arbitrary input.

use jdm::binary::{to_bytes, ItemRef};
use jdm::index::StructuralIndex;
use jdm::parse::parse_item;
use jdm::path::{PathStep, ProjectionPath};
use jdm::project::project_indexed;
use jdm::text::to_string;
use jdm::{oracle, Item, Number};
use proptest::prelude::*;

/// Generator for arbitrary JSON items (no dateTime/sequence: those never
/// come from JSON text).
fn arb_json(depth: u32) -> impl Strategy<Value = Item> {
    let leaf = prop_oneof![
        Just(Item::Null),
        any::<bool>().prop_map(Item::Boolean),
        any::<i64>().prop_map(|i| Item::Number(Number::Int(i))),
        // Finite doubles only: JSON cannot express NaN/Inf.
        prop::num::f64::NORMAL.prop_map(|d| Item::Number(Number::Double(d))),
        "[ -~]{0,12}".prop_map(Item::str), // printable ASCII
        "\\PC{0,8}".prop_map(Item::str),   // arbitrary unicode
    ];
    leaf.prop_recursive(depth, 64, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Item::Array),
            prop::collection::vec(("[a-z]{1,6}", inner), 0..6).prop_map(|pairs| {
                Item::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn text_round_trip(item in arb_json(4)) {
        let text = to_string(&item);
        let back = parse_item(text.as_bytes()).unwrap();
        prop_assert_eq!(&back, &item);
    }

    #[test]
    fn binary_round_trip(item in arb_json(4)) {
        let bytes = to_bytes(&item);
        let back = ItemRef::new(&bytes).unwrap().to_item().unwrap();
        prop_assert_eq!(&back, &item);
    }

    #[test]
    fn binary_length_matches(item in arb_json(4)) {
        let bytes = to_bytes(&item);
        prop_assert_eq!(jdm::binary::item_len(&bytes).unwrap(), bytes.len());
    }

    #[test]
    fn itemref_navigation_agrees_with_tree(
        pairs in prop::collection::vec(("[a-z]{1,4}", arb_json(2)), 1..5)
    ) {
        let obj = Item::Object(pairs.iter().map(|(k, v)| (k.clone().into(), v.clone())).collect());
        let bytes = to_bytes(&obj);
        let r = ItemRef::new(&bytes).unwrap();
        for (k, _) in &pairs {
            let via_ref = r.get_key(k).map(|v| v.to_item().unwrap());
            let via_tree = obj.get_key(k).cloned();
            prop_assert_eq!(via_ref, via_tree);
        }
        prop_assert!(r.get_key("KEY_NOT_PRESENT").is_none());
    }

    #[test]
    fn projection_equals_navigate(
        records in prop::collection::vec(
            prop::collection::vec(arb_json(1), 0..4), 0..5
        )
    ) {
        // Build the sensor-file shape: {"root": [{"results": [...]} ...]}
        let root = Item::Array(
            records
                .iter()
                .map(|rs| {
                    Item::Object(vec![
                        ("metadata".into(), Item::Object(vec![("count".into(), Item::int(rs.len() as i64))])),
                        ("results".into(), Item::Array(rs.clone())),
                    ])
                })
                .collect(),
        );
        let doc = Item::Object(vec![("root".into(), root)]);
        let text = to_string(&doc);

        let path: ProjectionPath = [
            PathStep::Key("root".into()),
            PathStep::AllMembers,
            PathStep::Key("results".into()),
            PathStep::AllMembers,
        ]
        .into_iter()
        .collect();

        let index = StructuralIndex::build(text.as_bytes()).unwrap();
        let mut streamed = Vec::new();
        project_indexed(text.as_bytes(), &index, &path, |it| {
            streamed.push(it);
            true
        })
        .unwrap();
        let expected: Vec<Item> = records.into_iter().flatten().collect();
        prop_assert_eq!(streamed, expected);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Both parsers return Ok or Err, never panic, and agree.
        prop_assert_eq!(parse_item(&bytes), oracle::parse_item(&bytes));
    }

    #[test]
    fn parser_never_panics_on_ascii_soup(s in "[ -~]{0,128}") {
        prop_assert_eq!(parse_item(s.as_bytes()), oracle::parse_item(s.as_bytes()));
    }

    #[test]
    fn itemref_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        if let Ok(r) = ItemRef::new(&bytes) {
            let _ = r.to_item(); // corrupt payloads must error, not panic
        }
    }
}
