//! Structural index: a one-pass "tape" over raw JSON bytes.
//!
//! This is the two-stage parse used by fast JSON processors (simdjson and
//! its descendants): stage 1 scans the bytes once, *validating* the
//! document and recording every structural token — container open/close
//! positions (with matching-pair pointers), key and string spans, number
//! and literal spans — into a flat tape. Stage 2 (projection, tree
//! building) then navigates the tape with O(1) subtree skips instead of
//! re-scanning bytes.
//!
//! Two properties matter for the engine:
//!
//! * **One validator.** The builder is the only grammar check on the
//!   engine's paths: [`crate::parse::parse_item`] (the naive scans, the
//!   baseline loaders) and the projected scans all build this index, so a
//!   malformed file fails every plan with the same error at the same
//!   offset — even for malformed bytes inside subtrees a projection would
//!   skip. The tests hold it to the independent event parser in
//!   [`crate::oracle`]: the same documents accepted, equal items built
//!   from the tape, and equal errors (variant, message and offset).
//! * **Record boundaries.** [`StructuralIndex::members`] exposes the
//!   member spans of any array on the tape, which is what lets the scan
//!   layer assign record-aligned byte ranges of one file to different
//!   partitions (see `vxq-core`'s split scan).
//!
//! The tape is a plain `Vec` that can be recycled across documents via
//! [`StructuralIndex::build_reusing`] / [`StructuralIndex::into_tape`]
//! (the scan layer pools tapes to avoid per-file allocation).

use crate::binary::{tag, write_len_prefixed, write_number, ContainerWriter};
use crate::error::{JdmError, Result};
use crate::item::Item;
use crate::number::Number;
use crate::parse::{number_at, parse_string_at, scan_number_at, MAX_DEPTH};
use crate::stage1::{IndexScanner, Stage1Mode};
use std::borrow::Cow;
use std::cell::RefCell;

thread_local! {
    /// Per-thread stage-1 scratch: block-word storage reused across
    /// documents so steady-state index builds allocate nothing.
    static STAGE1_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Kind of one tape node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapeKind {
    /// `{` — `pair` points at the matching [`TapeKind::ObjectClose`].
    ObjectOpen,
    /// `}` — `pair` points back at the open entry.
    ObjectClose,
    /// `[` — `pair` points at the matching [`TapeKind::ArrayClose`].
    ArrayOpen,
    /// `]` — `pair` points back at the open entry.
    ArrayClose,
    /// An object key (quoted span; always immediately followed by its
    /// value's entries).
    Key,
    /// A string value (quoted span).
    String,
    /// A number value.
    Number,
    /// `true` / `false` (first byte disambiguates).
    Bool,
    /// `null`.
    Null,
}

/// One tape node. `start..end` is the byte span of the token — for
/// container opens the span covers the *whole value* through its closing
/// bracket, so slicing `buf[start..end]` of any non-close entry yields
/// that value's exact text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeEntry {
    pub kind: TapeKind,
    pub start: u32,
    pub end: u32,
    /// Matching open/close tape index for containers; 0 otherwise.
    pub pair: u32,
}

/// The structural index of one JSON document.
#[derive(Debug, Clone)]
pub struct StructuralIndex {
    tape: Vec<TapeEntry>,
    mode: Stage1Mode,
}

impl StructuralIndex {
    /// Build the index over one complete JSON value (trailing bytes after
    /// the value are an error).
    /// The stage-1 mode follows the process-wide `VXQ_STAGE1` setting;
    /// use [`StructuralIndex::build_with`] to pin it.
    pub fn build(buf: &[u8]) -> Result<Self> {
        Self::build_reusing(buf, Vec::new())
    }

    /// [`StructuralIndex::build`] with an explicit stage-1 mode.
    pub fn build_with(buf: &[u8], mode: Stage1Mode) -> Result<Self> {
        Self::build_reusing_with(buf, Vec::new(), mode)
    }

    /// Like [`StructuralIndex::build`], but reuses a previously allocated
    /// tape (cleared first). Recover it with [`StructuralIndex::into_tape`].
    pub fn build_reusing(buf: &[u8], tape: Vec<TapeEntry>) -> Result<Self> {
        Self::build_reusing_with(buf, tape, Stage1Mode::from_env())
    }

    /// [`StructuralIndex::build_reusing`] with an explicit stage-1 mode.
    ///
    /// In [`Stage1Mode::Swar`] the document streams through the stage-1
    /// classifier ([`crate::stage1`]) and the builder consumes its
    /// `interesting` words — string-close discovery and clean-string
    /// validation become bit iteration. Every non-clean case (escapes,
    /// control bytes, invalid UTF-8, unterminated strings) is delegated to
    /// the shared scalar routines, so accepted documents, errors and error
    /// offsets are identical across modes.
    pub fn build_reusing_with(
        buf: &[u8],
        mut tape: Vec<TapeEntry>,
        mode: Stage1Mode,
    ) -> Result<Self> {
        tape.clear();
        if buf.len() > u32::MAX as usize {
            return Err(JdmError::parse(0, "document exceeds the 4 GiB index limit"));
        }
        if mode == Stage1Mode::Scalar {
            let mut b = Builder {
                buf,
                pos: 0,
                tape,
                stack: Vec::new(),
                scanner: None,
                mask_blk: usize::MAX,
                mask_word: 0,
            };
            b.run()?;
            return Ok(StructuralIndex { tape: b.tape, mode });
        }
        STAGE1_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let mut b = Builder {
                buf,
                pos: 0,
                tape,
                stack: Vec::new(),
                scanner: Some(IndexScanner::new(buf, &mut scratch)),
                mask_blk: usize::MAX,
                mask_word: 0,
            };
            b.run()?;
            Ok(StructuralIndex { tape: b.tape, mode })
        })
    }

    /// The stage-1 mode that built this index.
    #[inline]
    pub fn kernel(&self) -> Stage1Mode {
        self.mode
    }

    /// The raw tape.
    #[inline]
    pub fn tape(&self) -> &[TapeEntry] {
        &self.tape
    }

    /// Number of tape entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.tape.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tape.is_empty()
    }

    /// Tape index of the document's root value (the tape is never empty
    /// for a successfully built index).
    #[inline]
    pub fn root(&self) -> usize {
        0
    }

    /// Give the tape back for pooling.
    pub fn into_tape(self) -> Vec<TapeEntry> {
        self.tape
    }

    /// [`StructuralIndex::into_tape`] for an owner that cannot give up
    /// the index by value (a `Drop` impl); the index is left empty and
    /// must not be navigated afterwards.
    pub fn take_tape(&mut self) -> Vec<TapeEntry> {
        std::mem::take(&mut self.tape)
    }

    /// Tape index one past the subtree rooted at `node` — the next sibling
    /// position. O(1): containers jump via their pair pointer.
    #[inline]
    pub fn skip(&self, node: usize) -> usize {
        let e = &self.tape[node];
        match e.kind {
            TapeKind::ObjectOpen | TapeKind::ArrayOpen => e.pair as usize + 1,
            _ => node + 1,
        }
    }

    /// Byte span `[start, end)` of the value at `node`.
    #[inline]
    pub fn span(&self, node: usize) -> (usize, usize) {
        let e = &self.tape[node];
        (e.start as usize, e.end as usize)
    }

    /// Tape indices of the members of the array at `node` (empty when the
    /// node is not an array open). Allocates; hot paths should use
    /// [`StructuralIndex::members_iter`].
    pub fn members(&self, node: usize) -> Vec<usize> {
        self.members_iter(node).collect()
    }

    /// Iterator over the member tape indices of the array at `node`
    /// (empty when the node is not an array open). Zero-alloc equivalent
    /// of [`StructuralIndex::members`].
    pub fn members_iter(&self, node: usize) -> Members<'_> {
        let e = &self.tape[node];
        let (next, close) = if e.kind == TapeKind::ArrayOpen {
            (node + 1, e.pair as usize)
        } else {
            (0, 0)
        };
        Members {
            index: self,
            next,
            close,
        }
    }

    /// Materialize the value at `node` into an [`Item`], straight from the
    /// tape: strings and keys decode through [`StructuralIndex::str_at`],
    /// numbers through [`StructuralIndex::number_at`], and containers are
    /// sized from their member or key count. A key node materializes as
    /// its string. Recursion is bounded by the build's nesting limit.
    pub fn item_at(&self, buf: &[u8], node: usize) -> Result<Item> {
        let e = self.tape[node];
        Ok(match e.kind {
            TapeKind::Null => Item::Null,
            TapeKind::Bool => Item::Boolean(buf[e.start as usize] == b't'),
            TapeKind::Number => Item::Number(self.number_at(buf, node)?),
            TapeKind::String | TapeKind::Key => Item::String(self.str_at(buf, node)?.into()),
            TapeKind::ArrayOpen => {
                let mut items = Vec::with_capacity(self.members_iter(node).count());
                for m in self.members_iter(node) {
                    items.push(self.item_at(buf, m)?);
                }
                Item::Array(items)
            }
            TapeKind::ObjectOpen => {
                let mut pairs = Vec::with_capacity(self.keys_iter(node).count());
                for key in self.keys_iter(node) {
                    pairs.push((self.str_at(buf, key)?.into(), self.item_at(buf, key + 1)?));
                }
                Item::Object(pairs)
            }
            TapeKind::ObjectClose | TapeKind::ArrayClose => return Err(not_a_value(e)),
        })
    }

    /// Serialize the value at `node` onto `out` in the binary item format
    /// ([`crate::binary`]), straight from the tape: the bytes equal
    /// `write_item(&self.item_at(buf, node)?, out)`, but no [`Item`] is
    /// built and nothing is re-tokenized. The build already validated
    /// every span, so a string or key without a backslash is copied raw;
    /// escaped ones decode through the shared string parser and numbers
    /// through the shared number parser. A key node serializes as its
    /// string, like [`StructuralIndex::item_at`]. Recursion is bounded by
    /// the build's nesting limit.
    pub fn write_binary_at(&self, buf: &[u8], node: usize, out: &mut Vec<u8>) -> Result<()> {
        let e = self.tape[node];
        match e.kind {
            TapeKind::Null => out.push(tag::NULL),
            TapeKind::Bool if buf[e.start as usize] == b't' => out.push(tag::TRUE),
            TapeKind::Bool => out.push(tag::FALSE),
            TapeKind::Number => write_number(self.number_at(buf, node)?, out),
            TapeKind::String | TapeKind::Key => {
                out.push(tag::STRING);
                self.write_str_payload(buf, node, out)?;
            }
            TapeKind::ArrayOpen => {
                let mut c =
                    ContainerWriter::begin(tag::ARRAY, self.members_iter(node).count(), out);
                for m in self.members_iter(node) {
                    c.member(out);
                    self.write_binary_at(buf, m, out)?;
                }
                c.finish(out);
            }
            TapeKind::ObjectOpen => {
                let mut c = ContainerWriter::begin(tag::OBJECT, self.keys_iter(node).count(), out);
                for key in self.keys_iter(node) {
                    c.member(out);
                    self.write_str_payload(buf, key, out)?;
                    self.write_binary_at(buf, key + 1, out)?;
                }
                c.finish(out);
            }
            TapeKind::ObjectClose | TapeKind::ArrayClose => return Err(not_a_value(e)),
        }
        Ok(())
    }

    /// Tape indices of the keys of the object at `node` (an object open);
    /// each key's value is the entry right after it.
    fn keys_iter(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        let close = self.tape[node].pair as usize;
        let first = (node + 1 < close).then_some(node + 1);
        std::iter::successors(first, move |&key| {
            let next = self.skip(key + 1);
            (next < close).then_some(next)
        })
    }

    /// The length-prefixed payload of the key or string at `node`.
    fn write_str_payload(&self, buf: &[u8], node: usize, out: &mut Vec<u8>) -> Result<()> {
        let e = &self.tape[node];
        let raw = &buf[e.start as usize + 1..e.end as usize - 1];
        if raw.contains(&b'\\') {
            write_len_prefixed(self.str_at(buf, node)?.as_bytes(), out);
        } else {
            write_len_prefixed(raw, out);
        }
        Ok(())
    }

    /// Decode the string of a [`TapeKind::Key`] or [`TapeKind::String`]
    /// entry.
    pub fn str_at<'a>(&self, buf: &'a [u8], node: usize) -> Result<Cow<'a, str>> {
        Ok(parse_string_at(buf, self.tape[node].start as usize)?.0)
    }

    /// Whether the key at `node` equals `wanted`, comparing raw bytes when
    /// the key has no escapes.
    pub fn key_equals(&self, buf: &[u8], node: usize, wanted: &str) -> Result<bool> {
        let e = &self.tape[node];
        let raw = &buf[e.start as usize + 1..e.end as usize - 1];
        if !raw.contains(&b'\\') {
            return Ok(raw == wanted.as_bytes());
        }
        Ok(parse_string_at(buf, e.start as usize)?.0 == wanted)
    }

    /// The number value at a [`TapeKind::Number`] entry.
    pub fn number_at(&self, buf: &[u8], node: usize) -> Result<Number> {
        Ok(number_at(buf, self.tape[node].start as usize)?.0)
    }
}

/// The error for materializing a container's close entry.
fn not_a_value(e: TapeEntry) -> JdmError {
    JdmError::parse(e.start as usize, "not at the start of a value")
}

/// Zero-alloc iterator over an array's member tape indices; see
/// [`StructuralIndex::members_iter`].
pub struct Members<'a> {
    index: &'a StructuralIndex,
    next: usize,
    close: usize,
}

impl Iterator for Members<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.next >= self.close {
            return None;
        }
        let cur = self.next;
        self.next = self.index.skip(cur);
        Some(cur)
    }
}

/// Iterative (non-recursive) validating scanner.
struct Builder<'a> {
    buf: &'a [u8],
    pos: usize,
    tape: Vec<TapeEntry>,
    /// Currently open containers, encoded `tape_index << 1 | is_object`
    /// so the separator loop never has to load the open entry's kind.
    stack: Vec<u64>,
    /// Streaming stage-1 classifier in SWAR mode; `None` in scalar mode
    /// (the original per-byte scan). Classification runs in cache-sized
    /// chunks just ahead of this builder's byte cursor, so the document
    /// is read once.
    scanner: Option<IndexScanner<'a>>,
    /// Running stage-1 cursor: the block index and remaining `interesting`
    /// bits last consulted by [`Builder::string_end`]. The builder's
    /// cursor only moves forward, so lookups in the same 64-byte block
    /// reuse this word instead of re-deriving it from the scanner.
    mask_blk: usize,
    mask_word: u64,
}

impl Builder<'_> {
    fn run(&mut self) -> Result<()> {
        self.value()?;
        self.skip_ws();
        if self.pos != self.buf.len() {
            return Err(JdmError::parse(self.pos, "trailing characters after value"));
        }
        Ok(())
    }

    /// Parse one complete value (with all nesting), iteratively.
    fn value(&mut self) -> Result<()> {
        let base = self.stack.len();
        loop {
            // At value position.
            match self.next_token()? {
                b'{' => {
                    self.open(TapeKind::ObjectOpen)?;
                    match self.next_token()? {
                        b'}' => {
                            self.close_container();
                            if self.after_value(base)? {
                                return Ok(());
                            }
                        }
                        b'"' => self.key()?,
                        _ => return Err(JdmError::parse(self.pos, "expected object key")),
                    }
                }
                b'[' => {
                    self.open(TapeKind::ArrayOpen)?;
                    if self.next_token()? == b']' {
                        self.close_container();
                        if self.after_value(base)? {
                            return Ok(());
                        }
                    }
                }
                c => {
                    self.atom(c)?;
                    if self.after_value(base)? {
                        return Ok(());
                    }
                }
            }
        }
    }

    /// Handle separators and closes after a completed value. Returns true
    /// when the stack has returned to `base` (the outermost value is
    /// complete); false when the cursor now sits at a new value position.
    fn after_value(&mut self, base: usize) -> Result<bool> {
        loop {
            if self.stack.len() == base {
                return Ok(true);
            }
            let in_object = *self.stack.last().expect("container open") & 1 == 1;
            match self.next_token()? {
                b',' => {
                    self.pos += 1;
                    if in_object {
                        if self.next_token()? != b'"' {
                            return Err(JdmError::parse(self.pos, "expected object key"));
                        }
                        self.key()?;
                    } else if self.next_token()? == b']' {
                        return Err(JdmError::parse(self.pos, "trailing comma in array"));
                    }
                    // Scalar member values complete right here without
                    // bouncing through `value()` — the dominant shape in
                    // record-like data is long runs of scalar members.
                    let c = self.next_token()?;
                    if !matches!(c, b'{' | b'[') {
                        self.atom(c)?;
                        continue;
                    }
                    return Ok(false);
                }
                b'}' if in_object => self.close_container(),
                b']' if !in_object => self.close_container(),
                _ => {
                    let expected = if in_object {
                        "',' or '}'"
                    } else {
                        "',' or ']'"
                    };
                    return Err(JdmError::parse(self.pos, format!("expected {expected}")));
                }
            }
        }
    }

    /// Scan the string whose opening quote is at `self.pos`; returns the
    /// offset just past the closing quote. Mask-driven when stage 1 is
    /// active: the closing quote comes straight from the `interesting`
    /// words, and a clean span (no escapes, no control bytes, pure ASCII)
    /// is accepted without per-byte scanning. Every non-clean case
    /// delegates to [`parse_string_at`], so validation behavior and error
    /// offsets are identical to the scalar scan by construction.
    fn string_end(&mut self) -> Result<usize> {
        if self.scanner.is_none() {
            return Ok(parse_string_at(self.buf, self.pos)?.1);
        }
        // The cursor (`mask_blk`/`mask_word`) only moves forward, matching
        // the builder's byte cursor, so consecutive strings in the same
        // 64-byte block skip the block lookup entirely.
        let from = self.pos + 1;
        let blk = from >> 6;
        if blk == self.mask_blk {
            self.mask_word &= !0u64 << (from & 63);
        } else {
            self.mask_blk = blk;
            self.mask_word = match self.interesting_word(blk) {
                Some(w) => w & (!0u64 << (from & 63)),
                None => 0,
            };
        }
        loop {
            if self.mask_word != 0 {
                let p = (self.mask_blk << 6) | self.mask_word.trailing_zeros() as usize;
                // Clean span: the first interesting byte of the body is a
                // quote, which is unescaped by construction (an escaping
                // backslash would have been interesting first) — nothing
                // in between needs validation.
                if self.buf[p] == b'"' {
                    return Ok(p + 1);
                }
                break;
            }
            match self.interesting_word(self.mask_blk + 1) {
                Some(w) => {
                    self.mask_blk += 1;
                    self.mask_word = w;
                }
                None => break,
            }
        }
        // Escapes / control bytes / non-ASCII, or no closing quote at all
        // (unterminated, or an error before EOF): the shared scalar scan
        // validates and reports exact offsets.
        Ok(parse_string_at(self.buf, self.pos)?.1)
    }

    /// Stage-1 `interesting` word for block `blk`, advancing the
    /// streaming classifier as needed. SWAR mode only.
    #[inline(always)]
    fn interesting_word(&mut self, blk: usize) -> Option<u64> {
        self.scanner.as_mut().expect("SWAR mode").word(blk)
    }

    /// Record a key entry and consume through the `:` (cursor lands at the
    /// value position, whitespace skipped).
    fn key(&mut self) -> Result<()> {
        let start = self.pos;
        let end = self.string_end()?;
        self.tape.push(TapeEntry {
            kind: TapeKind::Key,
            start: start as u32,
            end: end as u32,
            pair: 0,
        });
        // Compact JSON puts the ':' right after the key.
        if self.buf.get(end) == Some(&b':') {
            self.pos = end + 1;
            return Ok(());
        }
        self.pos = end;
        self.skip_ws();
        if self.peek()? != b':' {
            return Err(JdmError::parse(self.pos, "expected ':' after key"));
        }
        self.pos += 1;
        Ok(())
    }

    fn open(&mut self, kind: TapeKind) -> Result<()> {
        if self.stack.len() >= MAX_DEPTH {
            return Err(JdmError::parse(
                self.pos,
                format!("nesting depth exceeds {MAX_DEPTH}"),
            ));
        }
        let idx = self.tape.len() as u64;
        let is_object = (kind == TapeKind::ObjectOpen) as u64;
        self.tape.push(TapeEntry {
            kind,
            start: self.pos as u32,
            end: self.pos as u32 + 1,
            pair: 0,
        });
        self.stack.push(idx << 1 | is_object);
        self.pos += 1;
        Ok(())
    }

    fn close_container(&mut self) {
        let enc = self.stack.pop().expect("container open");
        let open = (enc >> 1) as usize;
        let close = self.tape.len() as u32;
        let kind = if enc & 1 == 1 {
            TapeKind::ObjectClose
        } else {
            TapeKind::ArrayClose
        };
        self.tape.push(TapeEntry {
            kind,
            start: self.pos as u32,
            end: self.pos as u32 + 1,
            pair: open as u32,
        });
        self.tape[open].pair = close;
        self.tape[open].end = self.pos as u32 + 1;
        self.pos += 1;
    }

    fn atom(&mut self, c: u8) -> Result<()> {
        let start = self.pos;
        let (kind, end) = match c {
            b'"' => (TapeKind::String, self.string_end()?),
            b'-' | b'0'..=b'9' => {
                let (end, _) = scan_number_at(self.buf, self.pos)?;
                (TapeKind::Number, end)
            }
            b't' => (TapeKind::Bool, self.word(b"true")?),
            b'f' => (TapeKind::Bool, self.word(b"false")?),
            b'n' => (TapeKind::Null, self.word(b"null")?),
            _ => {
                return Err(JdmError::parse(
                    self.pos,
                    format!("unexpected byte {:?}", c as char),
                ))
            }
        };
        self.tape.push(TapeEntry {
            kind,
            start: start as u32,
            end: end as u32,
            pair: 0,
        });
        self.pos = end;
        Ok(())
    }

    fn word(&self, w: &[u8]) -> Result<usize> {
        if self.buf.len() - self.pos >= w.len() && &self.buf[self.pos..self.pos + w.len()] == w {
            Ok(self.pos + w.len())
        } else {
            Err(JdmError::parse(self.pos, "invalid literal"))
        }
    }

    #[inline]
    fn peek(&self) -> Result<u8> {
        if self.pos >= self.buf.len() {
            return Err(JdmError::UnexpectedEof { offset: self.pos });
        }
        Ok(self.buf[self.pos])
    }

    /// Skip whitespace and return the byte now under the cursor — the
    /// first byte of the next token — or `UnexpectedEof` at the
    /// post-whitespace offset. Single load + test in the common compact
    /// case (cursor already on a non-whitespace byte).
    #[inline]
    fn next_token(&mut self) -> Result<u8> {
        match self.buf.get(self.pos) {
            Some(&b) if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') => Ok(b),
            Some(_) => {
                self.skip_ws();
                self.peek()
            }
            None => Err(JdmError::UnexpectedEof { offset: self.pos }),
        }
    }

    #[inline]
    fn skip_ws(&mut self) {
        // Common case first (compact JSON): the cursor is already on a
        // non-whitespace byte.
        // Whitespace runs in JSON are overwhelmingly 0-1 bytes (compact) or a
        // handful (pretty-printed indentation); a plain byte loop beats a
        // masked lookup here, so both scalar and masked builds share it.
        while self.pos < self.buf.len()
            && matches!(self.buf[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;

    fn idx(src: &str) -> StructuralIndex {
        StructuralIndex::build(src.as_bytes()).unwrap()
    }

    #[test]
    fn tape_records_structure_and_pairs() {
        let src = r#"{"a": [1, "x"], "b": null}"#;
        let t = idx(src);
        let kinds: Vec<TapeKind> = t.tape().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TapeKind::ObjectOpen,
                TapeKind::Key,
                TapeKind::ArrayOpen,
                TapeKind::Number,
                TapeKind::String,
                TapeKind::ArrayClose,
                TapeKind::Key,
                TapeKind::Null,
                TapeKind::ObjectClose,
            ]
        );
        // Pair pointers round-trip.
        assert_eq!(t.tape()[0].pair, 8);
        assert_eq!(t.tape()[8].pair, 0);
        assert_eq!(t.tape()[2].pair, 5);
        // Container spans cover the full value text.
        let (s, e) = t.span(2);
        assert_eq!(&src[s..e], r#"[1, "x"]"#);
        assert_eq!(t.span(0), (0, src.len()));
    }

    #[test]
    fn skip_jumps_whole_subtrees() {
        let t = idx(r#"[{"deep": [[1], 2]}, true]"#);
        let members = t.members(t.root());
        assert_eq!(members.len(), 2);
        assert_eq!(t.tape()[members[1]].kind, TapeKind::Bool);
    }

    #[test]
    fn item_at_materializes_subtrees() {
        let src = r#"{"a": [1, {"b": "x\n"}], "c": {}, "d": [], "é": -0}"#;
        let t = idx(src);
        let buf = src.as_bytes();
        for node in 0..t.len() {
            if matches!(
                t.tape()[node].kind,
                TapeKind::ObjectClose | TapeKind::ArrayClose
            ) {
                continue;
            }
            let (s, e) = t.span(node);
            let reference = oracle::parse_item(&buf[s..e]).unwrap();
            assert_eq!(t.item_at(buf, node).unwrap(), reference, "node {node}");
        }
        let arr_node = 2; // after ObjectOpen, Key
        let arr = t.item_at(buf, arr_node).unwrap();
        assert_eq!(arr.get_index(0), Some(&Item::int(1)));
    }

    #[test]
    fn write_binary_at_matches_item_at() {
        use crate::binary::to_bytes;
        let src = r#"{"a\u00e9": [1, -0, 1e3, {"b": "x\"y"}, [], {}], "a\u00e9": null, "s": "\ud83d\ude00é", "t": true}"#;
        let t = idx(src);
        for node in 0..t.len() {
            if matches!(
                t.tape()[node].kind,
                TapeKind::ObjectClose | TapeKind::ArrayClose
            ) {
                continue;
            }
            let mut out = Vec::new();
            t.write_binary_at(src.as_bytes(), node, &mut out).unwrap();
            let item = t.item_at(src.as_bytes(), node).unwrap();
            assert_eq!(out, to_bytes(&item), "node {node}: {item:?}");
        }
    }

    #[test]
    fn rejects_what_the_event_parser_rejects() {
        for src in [
            "",
            "{",
            "[1,]",
            "01",
            "1 2",
            "tru",
            r#"{"a" 1}"#,
            r#""\q""#,
            r#""\uD800""#,
            "{\"a\":1,}",
            "[1 2]",
            "nul",
            "\"a\x01b\"",
            r#"{"a""#,
        ] {
            let index = StructuralIndex::build(src.as_bytes()).map(|_| ());
            let reference = oracle::parse_item(src.as_bytes()).map(|_| ());
            assert!(index.is_err(), "index accepted {src:?}");
            assert_eq!(index, reference, "{src:?}");
        }
    }

    #[test]
    fn depth_guard_matches_parser() {
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert!(StructuralIndex::build(deep.as_bytes()).is_err());
        let ok = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        assert!(StructuralIndex::build(ok.as_bytes()).is_ok());
    }

    #[test]
    fn kernels_build_identical_tapes_or_identical_errors() {
        use crate::stage1::IndexScanner;
        let mut docs: Vec<String> = [
            r#"{"a": [1, "x"], "b": null}"#,
            r#"{"k\n": [1.5, "sé", true, null, -0], "z": {}}"#,
            "  [ 1 ,\t2 ,\n3 ]  ",
            r#""just a string with a longer tail padding it past sixty-four bytes……""#,
            "",
            "{",
            "[1,]",
            "01",
            "1 2",
            "tru",
            r#"{"a" 1}"#,
            r#""\q""#,
            r#""\uD800""#,
            "\"a\x01b\"",
            "\"unterminated",
            "\"bad \\",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        // Over 128 KiB: an escaped and a clean string each straddle one of
        // the streaming classifier's chunk edges (the escaping backslash
        // is the first chunk's last byte).
        let chunk = IndexScanner::CHUNK;
        let pad_to = |s: &mut String, len: usize| {
            while s.len() + 2 <= len {
                s.push_str("1,");
            }
            while s.len() < len {
                s.push(' ');
            }
        };
        let mut big = String::from("[");
        pad_to(&mut big, chunk - 3);
        big.push_str(r#""a\"b", "#);
        pad_to(&mut big, 2 * chunk - 3);
        big.push_str(r#""clean"]"#);
        assert_eq!(big.find('\\'), Some(chunk - 1));
        assert_eq!(big.rfind("\"clean"), Some(2 * chunk - 3));
        docs.push(big);
        for doc in &docs {
            let scalar = StructuralIndex::build_with(doc.as_bytes(), Stage1Mode::Scalar);
            let swar = StructuralIndex::build_with(doc.as_bytes(), Stage1Mode::Swar);
            match (&scalar, &swar) {
                (Ok(a), Ok(b)) => assert_eq!(a.tape(), b.tape(), "tape differs on {doc:?}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "error differs on {doc:?}"),
                _ => panic!("accept/reject mismatch on {doc:?}: {scalar:?} vs {swar:?}"),
            }
        }
        let big = docs.last().unwrap().as_bytes();
        assert!(StructuralIndex::build_with(big, Stage1Mode::Swar).is_ok());
    }

    #[test]
    fn members_iter_matches_members() {
        let t = idx(r#"[{"deep": [[1], 2]}, true, "s", 4.5, null]"#);
        assert_eq!(t.members_iter(t.root()).collect::<Vec<_>>(), t.members(0));
        assert_eq!(t.members(0).len(), 5);
        // Non-array nodes yield nothing.
        let obj = idx(r#"{"a": 1}"#);
        assert_eq!(obj.members_iter(0).count(), 0);
        assert_eq!(t.members_iter(1).count(), 0); // the object member
    }

    #[test]
    fn tape_reuse_keeps_capacity() {
        let t = idx(r#"[1, 2, 3, 4, 5, 6, 7, 8]"#);
        let tape = t.into_tape();
        let cap = tape.capacity();
        let t2 = StructuralIndex::build_reusing(b"[true]", tape).unwrap();
        assert_eq!(t2.len(), 3);
        assert!(t2.into_tape().capacity() >= cap);
    }
}
