//! Differential property tests for stage 1: the SWAR-driven index build
//! must produce a byte-identical tape to the scalar build on valid input
//! and report an *identical* error — same variant, same offset, same
//! message — on invalid input. Validation parity is the contract that
//! lets the engine pick either mode freely (see DESIGN.md §11); these
//! tests are the enforcement. A separate property pins the classifier's
//! `interesting` words to their per-byte definition, and at every value
//! node, in both modes, the tape → binary writer and the tape → `Item`
//! walk are checked against the independent parser in `jdm::oracle`.

use jdm::binary::to_bytes;
use jdm::index::{StructuralIndex, TapeEntry, TapeKind};
use jdm::stage1::{IndexScanner, Stage1Mode};
use jdm::text::to_string;
use jdm::{oracle, Item, Number};
use proptest::prelude::*;

/// Outcome of one index build, normalized for comparison: the tape on
/// success, the debug rendering of the error (variant + offset + message)
/// on failure.
fn outcome(buf: &[u8], mode: Stage1Mode) -> Result<Vec<TapeEntry>, String> {
    StructuralIndex::build_with(buf, mode)
        .map(|ix| ix.tape().to_vec())
        .map_err(|e| format!("{e:?}"))
}

/// The SWAR build must agree with the scalar build, bit for bit.
fn assert_kernels_agree(buf: &[u8]) {
    assert_eq!(
        outcome(buf, Stage1Mode::Swar),
        outcome(buf, Stage1Mode::Scalar),
        "SWAR diverged from scalar on {:?}",
        String::from_utf8_lossy(buf)
    );
}

/// The per-byte definition of the `interesting` words: one bit per byte
/// that is a quote, a backslash, a control byte or non-ASCII, and no bits
/// past the end of the input.
fn reference_words(buf: &[u8]) -> Vec<u64> {
    let mut out = vec![0u64; buf.len().div_ceil(64)];
    for (i, &b) in buf.iter().enumerate() {
        if matches!(b, b'"' | b'\\') || !(0x20..0x80).contains(&b) {
            out[i >> 6] |= 1u64 << (i & 63);
        }
    }
    out
}

/// JSON value generator (prop_roundtrip's shape, plus the edge numbers
/// and key spaces the tape → binary writer must get right: `i64` limits,
/// signed zero, non-ASCII keys and a two-letter key space that makes
/// duplicate keys common).
fn arb_json(depth: u32) -> impl Strategy<Value = Item> {
    let leaf = prop_oneof![
        Just(Item::Null),
        any::<bool>().prop_map(Item::Boolean),
        any::<i64>().prop_map(|i| Item::Number(Number::Int(i))),
        prop_oneof![
            Just(Item::int(i64::MIN)),
            Just(Item::int(i64::MAX)),
            Just(Item::int(0)),
            Just(Item::double(-0.0)),
        ],
        prop::num::f64::NORMAL.prop_map(|d| Item::Number(Number::Double(d))),
        "[ -~]{0,24}".prop_map(Item::str), // printable ASCII incl. " and \
        "\\PC{0,12}".prop_map(Item::str),  // arbitrary unicode
        "[\u{1}\u{8}\n\t\"\\/aé😀]{0,10}".prop_map(Item::str), // escapable
    ];
    leaf.prop_recursive(depth, 64, 6, |inner| {
        let key = prop_oneof!["[a-z]{1,8}", "[ab]{1,2}", "\\PC{1,4}"];
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Item::Array),
            prop::collection::vec((key, inner), 0..6).prop_map(|pairs| {
                Item::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
            }),
        ]
    })
}

/// JSON text for an item in one of many equivalent spellings, chosen by
/// cycling through `style`: string and key characters are written raw,
/// as short escapes or as `\u` escapes (surrogate pairs above the BMP);
/// zero may be spelled `-0`, doubles in plain or exponent form; and
/// separators may carry whitespace.
struct Styled<'a> {
    style: &'a [u8],
    at: usize,
    out: String,
}

impl Styled<'_> {
    fn text(item: &Item, style: &[u8]) -> String {
        let mut w = Styled {
            style,
            at: 0,
            out: String::new(),
        };
        w.value(item);
        w.out
    }

    fn pick(&mut self, n: u8) -> u8 {
        let b = self.style[self.at % self.style.len()];
        self.at += 1;
        b % n
    }

    fn sep(&mut self, c: char) {
        self.out.push(c);
        if self.pick(4) == 0 {
            self.out.push(' ');
        }
    }

    fn value(&mut self, item: &Item) {
        match item {
            Item::Null => self.out.push_str("null"),
            Item::Boolean(b) => self.out.push_str(if *b { "true" } else { "false" }),
            Item::Number(Number::Int(0)) if self.pick(2) == 0 => self.out.push_str("-0"),
            Item::Number(Number::Int(i)) => self.out.push_str(&i.to_string()),
            Item::Number(Number::Double(d)) => {
                let text = match self.pick(3) {
                    0 => format!("{d:?}"),
                    1 => format!("{d:e}"),
                    _ => format!("{d:E}"),
                };
                self.out.push_str(&text);
            }
            Item::String(s) => self.string(s),
            Item::Array(members) => {
                self.out.push('[');
                for (i, m) in members.iter().enumerate() {
                    if i > 0 {
                        self.sep(',');
                    }
                    self.value(m);
                }
                self.out.push(']');
            }
            Item::Object(pairs) => {
                self.out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        self.sep(',');
                    }
                    self.string(k);
                    self.sep(':');
                    self.value(v);
                }
                self.out.push('}');
            }
            Item::DateTime(_) | Item::Sequence(_) => unreachable!("not JSON"),
        }
    }

    fn string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '/' => Some("\\/"),
                '\u{8}' => Some("\\b"),
                '\u{c}' => Some("\\f"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                _ => None,
            };
            let must_escape = matches!(c, '"' | '\\') || (c as u32) < 0x20;
            match (self.pick(3), short) {
                (0, _) if !must_escape => self.out.push(c),
                (1, Some(esc)) => self.out.push_str(esc),
                (1, None) if !must_escape => self.out.push(c),
                _ => {
                    let mut units = [0u16; 2];
                    for u in c.encode_utf16(&mut units) {
                        self.out.push_str(&format!("\\u{u:04X}"));
                    }
                }
            }
        }
        self.out.push('"');
    }
}

/// At every value node, under both stage-1 modes, `item_at` equals the
/// oracle's item for the node's bytes, and the tape → binary writer
/// equals `to_bytes` of that item.
fn assert_tape_binary_matches(doc: &[u8]) {
    for mode in [Stage1Mode::Swar, Stage1Mode::Scalar] {
        let index = StructuralIndex::build_with(doc, mode).expect("valid JSON");
        for node in 0..index.len() {
            if matches!(
                index.tape()[node].kind,
                TapeKind::ObjectClose | TapeKind::ArrayClose
            ) {
                continue;
            }
            let (start, end) = index.span(node);
            let reference = oracle::parse_item(&doc[start..end]).expect("oracle accepts the span");
            let what = || {
                format!(
                    "{} node {node} of {:?}",
                    mode.label(),
                    String::from_utf8_lossy(doc)
                )
            };
            let item = index.item_at(doc, node).expect("validated");
            assert_eq!(item, reference, "{}", what());
            let mut out = Vec::new();
            index
                .write_binary_at(doc, node, &mut out)
                .expect("validated");
            assert_eq!(out, to_bytes(&reference), "{}", what());
        }
    }
}

/// Documents engineered to straddle the 64-byte block boundary: `pad`
/// walks the opening quote across a two-block window and `body` walks
/// the closing quote across the next boundary, with a tail that is
/// clean, escaped, control-polluted, non-ASCII, or unterminated.
fn arb_boundary_doc() -> impl Strategy<Value = Vec<u8>> {
    (0usize..130, 0usize..130, 0u8..5).prop_map(|(pad, body, tail)| {
        let mut s = String::from("[");
        for _ in 0..pad {
            s.push(' ');
        }
        s.push('"');
        for _ in 0..body {
            s.push('a');
        }
        match tail {
            0 => s.push_str("\"]"),      // clean close
            1 => s.push_str("\\\"x\"]"), // escaped quote inside the body
            2 => s.push_str("\u{7}\"]"), // raw control byte: invalid
            3 => s.push_str("é\"]"),     // non-ASCII (valid UTF-8)
            _ => {}                      // unterminated string: invalid
        }
        s.into_bytes()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Valid JSON: identical tapes in both modes.
    #[test]
    fn kernels_agree_on_valid_json(item in arb_json(4)) {
        assert_kernels_agree(to_string(&item).as_bytes());
    }

    /// Arbitrary byte soup (overwhelmingly invalid): identical error,
    /// including the offset, in both modes — and no panics.
    #[test]
    fn kernels_agree_on_byte_soup(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        assert_kernels_agree(&bytes);
    }

    /// ASCII soup hits the structural fast paths far more often than raw
    /// bytes do; errors must still match exactly.
    #[test]
    fn kernels_agree_on_ascii_soup(s in "[ -~]{0,192}") {
        assert_kernels_agree(s.as_bytes());
    }

    /// Strings straddling 64-byte block boundaries, valid and invalid:
    /// the mask cursor's block-advance logic must agree with the scalar
    /// scan at every alignment.
    #[test]
    fn kernels_agree_at_block_boundaries(doc in arb_boundary_doc()) {
        assert_kernels_agree(&doc);
    }

    /// The stage-1 masks (the SWAR classifier's `interesting` block words)
    /// are bit-identical to the per-byte definition, padding bits of the
    /// tail block included.
    #[test]
    fn stage1_masks_bit_identical(
        bytes in prop::collection::vec(any::<u8>(), 0..256)
    ) {
        let mut storage = Vec::new();
        let mut scanner = IndexScanner::new(&bytes, &mut storage);
        let words: Vec<u64> = (0..).map_while(|blk| scanner.word(blk)).collect();
        prop_assert_eq!(words, reference_words(&bytes));
    }

    /// Tape → binary on every value node of documents spelled every
    /// which way (escapes, surrogate pairs, number forms, duplicate keys,
    /// empty containers); the root also round-trips to the generating
    /// item.
    #[test]
    fn tape_binary_matches_item_at(
        item in arb_json(4),
        style in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        let doc = Styled::text(&item, &style);
        assert_tape_binary_matches(doc.as_bytes());
        let index = StructuralIndex::build(doc.as_bytes()).unwrap();
        let mut root = Vec::new();
        index.write_binary_at(doc.as_bytes(), index.root(), &mut root).unwrap();
        prop_assert_eq!(root, to_bytes(&item));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A styled string crossing the streaming classifier's chunk edge at
    /// every small alignment: a clean padding string ends `gap` bytes
    /// before the edge.
    #[test]
    fn tape_binary_matches_across_chunk_edges(
        gap in 0usize..16,
        s in "[\u{1}\n\"\\aé😀]{16,32}",
        style in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        let lit = Styled::text(&Item::str(s.as_str()), &style);
        let mut doc = String::from("[\"");
        let pad_end = IndexScanner::CHUNK - gap - 2;
        while doc.len() < pad_end {
            doc.push('a');
        }
        doc.push_str("\",");
        doc.push_str(&lit);
        doc.push(']');
        prop_assert!(doc.len() > IndexScanner::CHUNK);
        assert_tape_binary_matches(doc.as_bytes());
    }
}
