//! Whole-document parse: index build, then a tape walk into an [`Item`].

use crate::error::Result;
use crate::index::StructuralIndex;
use crate::item::Item;

/// Parse one complete JSON value (the whole input) into an [`Item`]. The
/// structural index validates the bytes, and
/// [`StructuralIndex::item_at`] builds the item from its tape.
pub fn parse_item(buf: &[u8]) -> Result<Item> {
    let index = StructuralIndex::build(buf)?;
    index.item_at(buf, index.root())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::number::Number;

    #[test]
    fn builds_nested_tree() {
        let item = parse_item(br#"{"a": [1, {"b": "x"}], "c": null}"#).unwrap();
        let a = item.get_key("a").unwrap();
        assert_eq!(a.get_index(0).unwrap(), &Item::int(1));
        assert_eq!(
            a.get_index(1).unwrap().get_key("b").unwrap(),
            &Item::str("x")
        );
        assert_eq!(item.get_key("c").unwrap(), &Item::Null);
    }

    #[test]
    fn builds_top_level_scalars() {
        assert_eq!(
            parse_item(b"3.5").unwrap(),
            Item::Number(Number::Double(3.5))
        );
        assert_eq!(parse_item(b"\"s\"").unwrap(), Item::str("s"));
        assert_eq!(parse_item(b"false").unwrap(), Item::Boolean(false));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_item(b"{} x").is_err());
        assert!(parse_item(b"1 2").is_err());
    }

    #[test]
    fn deep_nesting_round_trip() {
        let mut src = String::new();
        for _ in 0..200 {
            src.push('[');
        }
        src.push('1');
        for _ in 0..200 {
            src.push(']');
        }
        let mut item = parse_item(src.as_bytes()).unwrap();
        for _ in 0..200 {
            item = match item {
                Item::Array(mut v) => v.pop().unwrap(),
                other => panic!("expected array, got {other:?}"),
            };
        }
        assert_eq!(item, Item::int(1));
    }
}
