//! Differential property tests for stage 1: the SWAR-driven index build
//! must produce a byte-identical tape to the scalar build on valid input
//! and report an *identical* error — same variant, same offset, same
//! message — on invalid input. Validation parity is the contract that
//! lets the engine pick either mode freely (see DESIGN.md §11); these
//! tests are the enforcement. A separate property pins the classifier's
//! `interesting` words to their per-byte definition.

use jdm::index::{StructuralIndex, TapeEntry};
use jdm::stage1::{IndexScanner, Stage1Mode};
use jdm::text::to_string;
use jdm::{Item, Number};
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

/// JSON value generator (same shape as prop_roundtrip's).
fn arb_json(depth: u32) -> impl Strategy<Value = Item> {
    let leaf = prop_oneof![
        Just(Item::Null),
        any::<bool>().prop_map(Item::Boolean),
        any::<i64>().prop_map(|i| Item::Number(Number::Int(i))),
        prop::num::f64::NORMAL.prop_map(|d| Item::Number(Number::Double(d))),
        "[ -~]{0,24}".prop_map(Item::str), // printable ASCII incl. " and \
        "\\PC{0,12}".prop_map(Item::str),  // arbitrary unicode
    ];
    leaf.prop_recursive(depth, 64, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Item::Array),
            prop::collection::vec(("[a-z]{1,8}", inner), 0..6).prop_map(|pairs| {
                Item::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
            }),
        ]
    })
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
}
