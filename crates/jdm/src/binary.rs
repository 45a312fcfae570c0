//! Tagged binary item format — the Hyracks "pointable" analog.
//!
//! Items are serialized into frames in a self-describing, navigable layout
//! so operators can compare, hash, and navigate **without deserializing**
//! ([`ItemRef`] is a zero-copy cursor). Layout (all integers little-endian):
//!
//! ```text
//! tag  0x00 null
//!      0x01 false
//!      0x02 true
//!      0x03 int      : i64
//!      0x04 double   : f64
//!      0x05 string   : u32 len, bytes
//!      0x06 array    : u32 payload_len, u32 count, count × u32 member
//!                      offsets (relative to the data area), members
//!      0x07 object   : u32 payload_len, u32 count, count × u32 pair
//!                      offsets, pairs (u32 key_len, key bytes, value)
//!      0x08 dateTime : i32 year, u8 month, day, hour, minute, second
//!      0x09 sequence : same layout as array
//! ```
//!
//! The offset tables give O(1) array indexing (JSONiq `$a(i)`), which the
//! paper's value expression relies on.

use crate::datetime::DateTime;
use crate::error::{JdmError, Result};
use crate::item::Item;
use crate::number::Number;
use crate::parse::MAX_DEPTH;

/// Type tags. Public so the dataflow layer can switch on them cheaply.
pub mod tag {
    /// JSON `null`.
    pub const NULL: u8 = 0x00;
    /// JSON `false`.
    pub const FALSE: u8 = 0x01;
    /// JSON `true`.
    pub const TRUE: u8 = 0x02;
    /// 64-bit integer payload.
    pub const INT: u8 = 0x03;
    /// IEEE-754 double payload.
    pub const DOUBLE: u8 = 0x04;
    /// Length-prefixed UTF-8 string.
    pub const STRING: u8 = 0x05;
    /// Array with an offset table.
    pub const ARRAY: u8 = 0x06;
    /// Object with an offset table over key/value pairs.
    pub const OBJECT: u8 = 0x07;
    /// `xs:dateTime` atomic.
    pub const DATETIME: u8 = 0x08;
    /// XQuery sequence (same layout as an array).
    pub const SEQUENCE: u8 = 0x09;
}

/// Serialize `item` onto the end of `out`.
pub fn write_item(item: &Item, out: &mut Vec<u8>) {
    match item {
        Item::Null => out.push(tag::NULL),
        Item::Boolean(false) => out.push(tag::FALSE),
        Item::Boolean(true) => out.push(tag::TRUE),
        Item::Number(n) => write_number(*n, out),
        Item::String(s) => {
            out.push(tag::STRING);
            write_len_prefixed(s.as_bytes(), out);
        }
        Item::DateTime(d) => {
            out.push(tag::DATETIME);
            out.extend_from_slice(&d.year.to_le_bytes());
            out.extend_from_slice(&[d.month, d.day, d.hour, d.minute, d.second]);
        }
        Item::Array(members) => write_listlike(tag::ARRAY, members, out),
        Item::Sequence(members) => write_listlike(tag::SEQUENCE, members, out),
        Item::Object(pairs) => {
            let mut c = ContainerWriter::begin(tag::OBJECT, pairs.len(), out);
            for (k, v) in pairs {
                c.member(out);
                write_len_prefixed(k.as_bytes(), out);
                write_item(v, out);
            }
            c.finish(out);
        }
    }
}

fn write_listlike(t: u8, members: &[Item], out: &mut Vec<u8>) {
    let mut c = ContainerWriter::begin(t, members.len(), out);
    for m in members {
        c.member(out);
        write_item(m, out);
    }
    c.finish(out);
}

/// Write a number item (tag and payload).
pub(crate) fn write_number(n: Number, out: &mut Vec<u8>) {
    match n {
        Number::Int(i) => {
            out.push(tag::INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Number::Double(d) => {
            out.push(tag::DOUBLE);
            out.extend_from_slice(&d.to_le_bytes());
        }
    }
}

/// Write a `u32` length followed by `bytes`: a string payload or an
/// object key.
#[inline]
pub(crate) fn write_len_prefixed(bytes: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// An array, object or sequence being written: its member count is
/// fixed up front, each member's offset is recorded as it starts, and the
/// payload length is patched at the end. The one place the container
/// layout is produced (the tree encoder and the tape encoder in
/// [`crate::index`] share it).
pub(crate) struct ContainerWriter {
    payload_pos: usize,
    table_pos: usize,
    data_start: usize,
}

impl ContainerWriter {
    /// Write the tag, a length placeholder, `count` and a zeroed offset
    /// table.
    pub(crate) fn begin(t: u8, count: usize, out: &mut Vec<u8>) -> Self {
        out.push(t);
        let payload_pos = out.len();
        out.extend_from_slice(&0u32.to_le_bytes()); // payload_len patch
        out.extend_from_slice(&(count as u32).to_le_bytes());
        let table_pos = out.len();
        out.resize(table_pos + 4 * count, 0);
        ContainerWriter {
            payload_pos,
            table_pos,
            data_start: out.len(),
        }
    }

    /// The next member starts at the current end of `out`.
    #[inline]
    pub(crate) fn member(&mut self, out: &mut [u8]) {
        let off = (out.len() - self.data_start) as u32;
        out[self.table_pos..self.table_pos + 4].copy_from_slice(&off.to_le_bytes());
        self.table_pos += 4;
    }

    /// Patch the payload length once every member is written.
    pub(crate) fn finish(self, out: &mut [u8]) {
        debug_assert_eq!(self.table_pos, self.data_start, "member count mismatch");
        let payload_len = (out.len() - self.payload_pos - 4) as u32;
        out[self.payload_pos..self.payload_pos + 4].copy_from_slice(&payload_len.to_le_bytes());
    }
}

/// Build a serialized sequence directly from already-serialized member
/// items (used by group-by runtimes that accumulate member bytes).
pub fn write_sequence_from_parts(parts: &[&[u8]], out: &mut Vec<u8>) {
    let mut c = ContainerWriter::begin(tag::SEQUENCE, parts.len(), out);
    for p in parts {
        c.member(out);
        out.extend_from_slice(p);
    }
    c.finish(out);
}

/// Serialize into a fresh buffer.
pub fn to_bytes(item: &Item) -> Vec<u8> {
    let mut v = Vec::with_capacity(64);
    write_item(item, &mut v);
    v
}

/// Total serialized length of the item starting at `buf[0]`, without
/// walking its contents (O(1) for every type).
pub fn item_len(buf: &[u8]) -> Result<usize> {
    let t = *buf
        .first()
        .ok_or_else(|| JdmError::BadBinary("empty".into()))?;
    let len = match t {
        tag::NULL | tag::FALSE | tag::TRUE => 1,
        tag::INT | tag::DOUBLE => 9,
        tag::DATETIME => 10,
        tag::STRING => 5 + read_u32(buf, 1)? as usize,
        tag::ARRAY | tag::OBJECT | tag::SEQUENCE => 5 + read_u32(buf, 1)? as usize,
        other => return Err(JdmError::BadBinary(format!("bad tag {other:#x}"))),
    };
    if buf.len() < len {
        return Err(JdmError::BadBinary("truncated item".into()));
    }
    Ok(len)
}

#[inline]
fn read_u32(buf: &[u8], at: usize) -> Result<u32> {
    buf.get(at..at + 4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte slice")))
        .ok_or_else(|| JdmError::BadBinary("truncated length".into()))
}

/// A zero-copy cursor over one serialized item.
#[derive(Debug, Clone, Copy)]
pub struct ItemRef<'a> {
    buf: &'a [u8],
}

impl<'a> ItemRef<'a> {
    /// Wrap a buffer whose first byte is an item tag. Validates only the
    /// outermost envelope; nested structure is validated lazily.
    pub fn new(buf: &'a [u8]) -> Result<Self> {
        let len = item_len(buf)?;
        Ok(ItemRef { buf: &buf[..len] })
    }

    /// The exact bytes of this item (useful for re-appending into frames).
    #[inline]
    pub fn bytes(&self) -> &'a [u8] {
        self.buf
    }

    /// The type tag.
    #[inline]
    pub fn tag(&self) -> u8 {
        self.buf[0]
    }

    /// True for arrays and objects.
    pub fn is_json_item(&self) -> bool {
        matches!(self.tag(), tag::ARRAY | tag::OBJECT)
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&'a str> {
        if self.tag() != tag::STRING {
            return None;
        }
        let len = read_u32(self.buf, 1).ok()? as usize;
        std::str::from_utf8(self.buf.get(5..5 + len)?).ok()
    }

    /// Numeric payload.
    pub fn as_number(&self) -> Option<Number> {
        match self.tag() {
            tag::INT => Some(Number::Int(i64::from_le_bytes(
                self.buf.get(1..9)?.try_into().ok()?,
            ))),
            tag::DOUBLE => Some(Number::Double(f64::from_le_bytes(
                self.buf.get(1..9)?.try_into().ok()?,
            ))),
            _ => None,
        }
    }

    /// Boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self.tag() {
            tag::TRUE => Some(true),
            tag::FALSE => Some(false),
            _ => None,
        }
    }

    /// DateTime payload.
    pub fn as_datetime(&self) -> Option<DateTime> {
        if self.tag() != tag::DATETIME {
            return None;
        }
        let b = self.buf;
        Some(DateTime {
            year: i32::from_le_bytes(b.get(1..5)?.try_into().ok()?),
            month: *b.get(5)?,
            day: *b.get(6)?,
            hour: *b.get(7)?,
            minute: *b.get(8)?,
            second: *b.get(9)?,
        })
    }

    /// Member / pair count for arrays, objects and sequences.
    pub fn count(&self) -> Option<usize> {
        match self.tag() {
            tag::ARRAY | tag::OBJECT | tag::SEQUENCE => Some(read_u32(self.buf, 5).ok()? as usize),
            _ => None,
        }
    }

    fn table_start(&self) -> usize {
        9 // tag + payload_len + count
    }

    fn data_start(&self) -> Option<usize> {
        Some(self.table_start() + 4 * self.count()?)
    }

    /// O(1) member access for arrays/sequences (0-based here; the JSONiq
    /// 1-based `value` adjustment happens in the expression layer).
    pub fn member(&self, idx: usize) -> Option<ItemRef<'a>> {
        if !matches!(self.tag(), tag::ARRAY | tag::SEQUENCE) || idx >= self.count()? {
            return None;
        }
        let off = read_u32(self.buf, self.table_start() + 4 * idx).ok()? as usize;
        let start = self.data_start()? + off;
        ItemRef::new(self.buf.get(start..)?).ok()
    }

    /// Object key lookup (first occurrence wins, matching the tree model).
    pub fn get_key(&self, key: &str) -> Option<ItemRef<'a>> {
        if self.tag() != tag::OBJECT {
            return None;
        }
        for i in 0..self.count()? {
            let (k, v) = self.pair(i)?;
            if k == key {
                return Some(v);
            }
        }
        None
    }

    /// The i-th key/value pair of an object.
    pub fn pair(&self, idx: usize) -> Option<(&'a str, ItemRef<'a>)> {
        if self.tag() != tag::OBJECT || idx >= self.count()? {
            return None;
        }
        let off = read_u32(self.buf, self.table_start() + 4 * idx).ok()? as usize;
        let start = self.data_start()? + off;
        let klen = read_u32(self.buf, start).ok()? as usize;
        let key = std::str::from_utf8(self.buf.get(start + 4..start + 4 + klen)?).ok()?;
        let val = ItemRef::new(self.buf.get(start + 4 + klen..)?).ok()?;
        Some((key, val))
    }

    /// Iterate members (arrays/sequences) or values (objects).
    pub fn members(&self) -> MemberIter<'a> {
        MemberIter {
            item: *self,
            idx: 0,
            count: self.count().unwrap_or(0),
        }
    }

    /// Deserialize into the tree model. Nesting deeper than the parsers'
    /// [`MAX_DEPTH`] is a [`JdmError::BadBinary`] error, so a crafted
    /// item cannot exhaust the stack.
    pub fn to_item(&self) -> Result<Item> {
        self.decode(0)
    }

    /// [`ItemRef::to_item`] for an item inside `depth` containers.
    fn decode(&self, depth: usize) -> Result<Item> {
        if matches!(self.tag(), tag::ARRAY | tag::OBJECT | tag::SEQUENCE) && depth >= MAX_DEPTH {
            return Err(JdmError::BadBinary(format!(
                "nesting depth exceeds {MAX_DEPTH}"
            )));
        }
        match self.tag() {
            tag::NULL => Ok(Item::Null),
            tag::FALSE => Ok(Item::Boolean(false)),
            tag::TRUE => Ok(Item::Boolean(true)),
            tag::INT | tag::DOUBLE => self
                .as_number()
                .map(Item::Number)
                .ok_or_else(|| JdmError::BadBinary("bad number".into())),
            tag::STRING => self
                .as_str()
                .map(Item::str)
                .ok_or_else(|| JdmError::BadBinary("bad string".into())),
            tag::DATETIME => self
                .as_datetime()
                .map(Item::DateTime)
                .ok_or_else(|| JdmError::BadBinary("bad dateTime".into())),
            tag::ARRAY | tag::SEQUENCE => {
                let n = self.count().unwrap_or(0);
                let mut v = Vec::with_capacity(n);
                for i in 0..n {
                    let m = self
                        .member(i)
                        .ok_or_else(|| JdmError::BadBinary("bad member".into()))?;
                    v.push(m.decode(depth + 1)?);
                }
                Ok(if self.tag() == tag::ARRAY {
                    Item::Array(v)
                } else {
                    Item::Sequence(v)
                })
            }
            tag::OBJECT => {
                let n = self.count().unwrap_or(0);
                let mut pairs = Vec::with_capacity(n);
                for i in 0..n {
                    let (k, v) = self
                        .pair(i)
                        .ok_or_else(|| JdmError::BadBinary("bad pair".into()))?;
                    pairs.push((k.into(), v.decode(depth + 1)?));
                }
                Ok(Item::Object(pairs))
            }
            other => Err(JdmError::BadBinary(format!("bad tag {other:#x}"))),
        }
    }
}

/// Iterator over container members, yielding [`ItemRef`]s.
pub struct MemberIter<'a> {
    item: ItemRef<'a>,
    idx: usize,
    count: usize,
}

impl<'a> Iterator for MemberIter<'a> {
    type Item = ItemRef<'a>;

    fn next(&mut self) -> Option<ItemRef<'a>> {
        if self.idx >= self.count {
            return None;
        }
        let out = match self.item.tag() {
            tag::ARRAY | tag::SEQUENCE => self.item.member(self.idx),
            tag::OBJECT => self.item.pair(self.idx).map(|(_, v)| v),
            _ => None,
        };
        self.idx += 1;
        out
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.count - self.idx;
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_item;

    fn round_trip(src: &str) -> Item {
        let item = parse_item(src.as_bytes()).unwrap();
        let bytes = to_bytes(&item);
        let back = ItemRef::new(&bytes).unwrap().to_item().unwrap();
        assert_eq!(item, back, "round trip mismatch for {src}");
        item
    }

    #[test]
    fn round_trips_scalars() {
        round_trip("null");
        round_trip("true");
        round_trip("false");
        round_trip("42");
        round_trip("-7.25");
        round_trip("\"hello world\"");
        round_trip("\"\"");
    }

    #[test]
    fn round_trips_containers() {
        round_trip("[]");
        round_trip("{}");
        round_trip(r#"[1, [2, [3, {"x": null}]], "s"]"#);
        round_trip(r#"{"a": {"b": {"c": [true, false]}}}"#);
    }

    #[test]
    fn round_trips_datetime_and_sequence() {
        let dt = DateTime::parse("20131225T06:30").unwrap();
        let seq = Item::seq([Item::DateTime(dt), Item::int(1)]);
        let bytes = to_bytes(&seq);
        let back = ItemRef::new(&bytes).unwrap().to_item().unwrap();
        assert_eq!(back, seq);
    }

    #[test]
    fn member_access_is_positional() {
        let item = parse_item(br#"[10, 20, 30]"#).unwrap();
        let bytes = to_bytes(&item);
        let r = ItemRef::new(&bytes).unwrap();
        assert_eq!(r.count(), Some(3));
        assert_eq!(r.member(1).unwrap().as_number(), Some(Number::Int(20)));
        assert!(r.member(3).is_none());
    }

    #[test]
    fn object_key_lookup() {
        let item = parse_item(br#"{"alpha": 1, "beta": "two", "alpha": 99}"#).unwrap();
        let bytes = to_bytes(&item);
        let r = ItemRef::new(&bytes).unwrap();
        assert_eq!(r.get_key("beta").unwrap().as_str(), Some("two"));
        // First occurrence wins, like the tree model.
        assert_eq!(
            r.get_key("alpha").unwrap().as_number(),
            Some(Number::Int(1))
        );
        assert!(r.get_key("gamma").is_none());
    }

    #[test]
    fn item_len_is_consistent() {
        for src in [
            "null",
            "3",
            r#""abc""#,
            r#"[1,2]"#,
            r#"{"k": [1, {"n": 2}]}"#,
        ] {
            let bytes = to_bytes(&parse_item(src.as_bytes()).unwrap());
            assert_eq!(item_len(&bytes).unwrap(), bytes.len(), "for {src}");
        }
    }

    #[test]
    fn items_concatenate_cleanly() {
        // Frames store items back to back; item_len must delimit them.
        let a = to_bytes(&Item::int(1));
        let b = to_bytes(&parse_item(br#"{"x": [1,2,3]}"#).unwrap());
        let mut buf = a.clone();
        buf.extend_from_slice(&b);
        let first_len = item_len(&buf).unwrap();
        assert_eq!(first_len, a.len());
        let second = ItemRef::new(&buf[first_len..]).unwrap();
        assert_eq!(second.get_key("x").unwrap().count(), Some(3));
    }

    #[test]
    fn rejects_truncated_and_garbage() {
        assert!(ItemRef::new(&[]).is_err());
        assert!(ItemRef::new(&[0xFF]).is_err());
        let bytes = to_bytes(&parse_item(br#"[1,2,3]"#).unwrap());
        assert!(ItemRef::new(&bytes[..bytes.len() - 1]).is_err());
    }

    /// `depth` one-member arrays nested inside each other around `null`,
    /// written header by header (no parser or encoder involved): each
    /// level is a tag, its payload length, count 1 and offset 0.
    fn nested_arrays(depth: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(13 * depth + 1);
        for level in (1..=depth).rev() {
            let payload_len = 13 * level + 1 - 5;
            out.push(tag::ARRAY);
            out.extend_from_slice(&(payload_len as u32).to_le_bytes());
            out.extend_from_slice(&1u32.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes());
        }
        out.push(tag::NULL);
        out
    }

    #[test]
    fn to_item_caps_nesting_depth() {
        // The parsers' limit itself still decodes...
        let ok = nested_arrays(MAX_DEPTH);
        let mut expected = Item::Null;
        for _ in 0..MAX_DEPTH {
            expected = Item::Array(vec![expected]);
        }
        assert_eq!(to_bytes(&expected), ok);
        assert_eq!(ItemRef::new(&ok).unwrap().to_item(), Ok(expected));
        // ...one more level is a typed error, and far deeper input (which
        // used to overflow the stack) fails the same way.
        for depth in [MAX_DEPTH + 1, 50_000] {
            let deep = nested_arrays(depth);
            assert_eq!(
                ItemRef::new(&deep).unwrap().to_item(),
                Err(JdmError::BadBinary(format!(
                    "nesting depth exceeds {MAX_DEPTH}"
                ))),
                "depth {depth}"
            );
        }
    }

    #[test]
    fn member_iter_visits_all() {
        let bytes = to_bytes(&parse_item(br#"{"a": 1, "b": 2}"#).unwrap());
        let r = ItemRef::new(&bytes).unwrap();
        let vals: Vec<Number> = r.members().map(|m| m.as_number().unwrap()).collect();
        assert_eq!(vals, vec![Number::Int(1), Number::Int(2)]);
    }
}
