//! Stage-1 structural classification for the index builder.
//!
//! This is the simdjson-style (Langdale & Lemire, *Parsing Gigabytes of
//! JSON per Second*) front half of the two-stage parse, cut down to the
//! one output the tape builder ([`crate::index::StructuralIndex`])
//! consumes. The input is processed in 64-byte blocks, and each block is
//! summarized as a single `u64` word, one bit per byte:
//!
//! `interesting = quote | backslash | ctrl | nonascii`
//!
//! i.e. every `"`, every `\`, every byte `< 0x20` and every byte
//! `>= 0x80`. One word suffices because the builder only scans *forward
//! from a fresh opening quote*: the first interesting byte of the string
//! body decides the whole span — a `"` is an unescaped clean close by
//! construction (any escaping backslash would have been interesting
//! first), anything else sends the string to the scalar slow path. So
//! there is no escape carry and no in-string state to thread across
//! blocks, and whitespace skipping stays a plain byte loop in the
//! builder (real-world compact JSON has 0–1 byte whitespace runs, where a
//! byte loop beats mask iteration).
//!
//! The classifier is portable SWAR: `u64` arithmetic over eight byte
//! lanes at a time, in safe Rust with no platform-specific code. The
//! builder preserves exact validation parity with its scalar mode by
//! delegating every non-clean case (escapes, control characters, invalid
//! UTF-8, unterminated strings) to the shared scalar routines, so
//! accepted documents, errors and error offsets cannot diverge by
//! construction; the test suite pins the words to their per-byte
//! definition.
//!
//! [`Stage1Mode`] selects between the SWAR path (the default) and the
//! builder's original per-byte scan, per scan (`ScanOptions` in
//! `vxq-core`) or process-wide via the `VXQ_STAGE1` environment variable
//! (`swar` or `scalar`).

use std::sync::OnceLock;

/// How the structural index finds string spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Stage1Mode {
    /// Classify 64-byte blocks with the portable SWAR kernel and drive
    /// string scanning from the `interesting` words.
    #[default]
    Swar,
    /// Bypass stage 1 entirely: the builder runs its original per-byte
    /// scan (the differential oracle, exercised in CI).
    Scalar,
}

impl Stage1Mode {
    /// Parse a `VXQ_STAGE1` value. Unknown strings yield `None`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "swar" => Some(Stage1Mode::Swar),
            "scalar" => Some(Stage1Mode::Scalar),
            _ => None,
        }
    }

    /// The process-wide mode from `VXQ_STAGE1` (read once; the default
    /// when unset or unrecognized).
    pub fn from_env() -> Self {
        static MODE: OnceLock<Stage1Mode> = OnceLock::new();
        *MODE.get_or_init(|| {
            std::env::var("VXQ_STAGE1")
                .ok()
                .and_then(|v| Stage1Mode::parse(&v))
                .unwrap_or_default()
        })
    }

    /// Stable lowercase label for profiles/metrics.
    pub fn label(self) -> &'static str {
        match self {
            Stage1Mode::Swar => "swar",
            Stage1Mode::Scalar => "scalar",
        }
    }
}

/// Streaming stage-1 classifier: produces the `interesting` word of each
/// block in cache-sized chunks *on demand*. The index builder's byte
/// accesses trail the classifier by at most one chunk, so a build
/// effectively reads the document once — the builder's loads hit bytes
/// the classifier just pulled into cache — where an eager whole-file
/// scan streams large documents through memory twice.
pub struct IndexScanner<'a> {
    buf: &'a [u8],
    words: &'a mut Vec<u64>,
    /// Bytes classified so far — a multiple of [`IndexScanner::CHUNK`]
    /// until the final chunk, then exactly `buf.len()`.
    scanned: usize,
}

impl<'a> IndexScanner<'a> {
    /// Bytes classified per demand miss: small enough that the chunk is
    /// still L2-resident when the consumer reads the same bytes, large
    /// enough to amortize the call. Must be a multiple of 64.
    pub const CHUNK: usize = 64 * 1024;

    /// New scanner over `buf`. Block words land in `words` (cleared here;
    /// caller-owned so the allocation can be reused across documents).
    pub fn new(buf: &'a [u8], words: &'a mut Vec<u64>) -> Self {
        words.clear();
        IndexScanner {
            buf,
            words,
            scanned: 0,
        }
    }

    /// The `interesting` word for block `blk` (`None` past the end of
    /// the input), classifying further chunks as needed. Bits past the
    /// end of the input in the final block are zero.
    #[inline(always)]
    pub fn word(&mut self, blk: usize) -> Option<u64> {
        while blk >= self.words.len() {
            if self.scanned >= self.buf.len() {
                return None;
            }
            self.extend();
        }
        Some(self.words[blk])
    }

    #[cold]
    fn extend(&mut self) {
        let end = usize::min(self.scanned + Self::CHUNK, self.buf.len());
        classify_append(&self.buf[self.scanned..end], self.words);
        self.scanned = end;
    }
}

/// Append the `interesting` word of every 64-byte block of `buf` to
/// `out`. A trailing partial block is zero-padded, so `buf` must either
/// end at the true end of the document or be cut at a 64-byte boundary.
///
/// A free function rather than a loop inside `IndexScanner::extend`:
/// with `out` a direct `&mut` parameter the compiler can keep the vector
/// header in registers, while pushing through `self.words` measured
/// markedly slower on the index build.
fn classify_append(buf: &[u8], out: &mut Vec<u64>) {
    let mut blocks = buf.chunks_exact(64);
    for block in &mut blocks {
        out.push(interesting(block.try_into().expect("exact 64-byte chunk")));
    }
    let rem = blocks.remainder();
    if !rem.is_empty() {
        // Clear the padding bits: NUL is a control byte, so they would
        // be set.
        let mut tail = [0u8; 64];
        tail[..rem.len()].copy_from_slice(rem);
        out.push(interesting(&tail) & ((1u64 << rem.len()) - 1));
    }
}

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;
const K7F: u64 = 0x7F7F_7F7F_7F7F_7F7F;

/// `b` replicated into every byte lane.
const fn splat(b: u8) -> u64 {
    LO.wrapping_mul(b as u64)
}

/// Nonzero-lane marker: the MSB of each byte lane of the result is set
/// iff the corresponding lane of `x` is nonzero, where `x7` must be
/// `x & K7F`. `(x7 + 0x7F)` cannot carry across lanes, so this is
/// per-lane exact; non-MSB bits of the result are garbage and must be
/// masked with [`HI`] by the caller (deferred so AND combinations of
/// several markers pay it once).
#[inline(always)]
fn nonzero_lanes(x: u64, x7: u64) -> u64 {
    x7.wrapping_add(K7F) | x
}

/// Nonzero-lane marker for `w ^ splat(B)` — i.e. lane != `B` — valid for
/// `B < 0x80`, where `w7 = w & K7F`.
#[inline(always)]
fn ne_lanes<const B: u8>(w: u64, w7: u64) -> u64 {
    nonzero_lanes(w ^ splat(B), w7 ^ splat(B))
}

/// Gather the high bit of each byte lane into the low 8 bits (bit `i` =
/// lane `i`). The multiplier places the eight partial products at
/// distinct bit positions, so no carries occur and the result is exact.
#[inline(always)]
fn movemask_lanes(marks: u64) -> u64 {
    marks.wrapping_mul(0x0002_0408_1020_4081) >> 56
}

/// The `interesting` word of one block: eight SWAR words of eight lanes.
#[inline(always)]
fn interesting(block: &[u8; 64]) -> u64 {
    // Lane < 0x20 iff its top three bits are zero.
    const KE0: u64 = 0xE0E0_E0E0_E0E0_E0E0;
    const K60: u64 = 0x6060_6060_6060_6060;
    let mut out = 0u64;
    for (i, word) in block.chunks_exact(8).enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
        let w7 = w & K7F;
        // Lane >= 0x20 iff any of its top three bits is set.
        let not_ctrl = nonzero_lanes(w & KE0, w & K60);
        let not_qbc = ne_lanes::<b'"'>(w, w7) & ne_lanes::<b'\\'>(w, w7) & not_ctrl;
        // `| w` contributes the lane sign bits: non-ASCII.
        out |= movemask_lanes((!not_qbc | w) & HI) << (i * 8);
    }
    out
}

/// End of the ASCII-digit run starting at `i` — the shared number fast
/// path: both `scan_number_at` (event parser *and* tape builder) advance
/// through digit runs eight bytes at a time with this, keeping the number
/// grammar identical in all stages by construction.
#[inline]
pub(crate) fn digit_run_end(b: &[u8], mut i: usize) -> usize {
    const K76: u64 = 0x7676_7676_7676_7676;
    while i + 8 <= b.len() {
        let w = u64::from_le_bytes(b[i..i + 8].try_into().expect("8-byte word"));
        // Lane != ASCII digit: after `x = w ^ 0x30…`, digits are 0..=9;
        // low7 + 0x76 overflows into the lane's top bit iff low7 > 9, and
        // `| x` catches lanes with the top bit already set. Per-lane exact
        // (sums stay below 0x100).
        let x = w ^ splat(0x30);
        let non_digit = (((x & K7F).wrapping_add(K76)) | x) & HI;
        if non_digit != 0 {
            return i + (non_digit.trailing_zeros() >> 3) as usize;
        }
        i += 8;
    }
    while i < b.len() && b[i].is_ascii_digit() {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{StructuralIndex, TapeKind};

    /// The `(kind, start, end)` of the single-entry tape `doc` builds to.
    fn only_entry(doc: &[u8]) -> (TapeKind, u32, u32) {
        let index = StructuralIndex::build_with(doc, Stage1Mode::Swar).unwrap();
        assert_eq!(index.len(), 1);
        let e = index.tape()[0];
        (e.kind, e.start, e.end)
    }

    /// Every block word the scanner produces for `buf`.
    fn words(buf: &[u8]) -> Vec<u64> {
        let mut storage = Vec::new();
        let mut scanner = IndexScanner::new(buf, &mut storage);
        (0..).map_while(|blk| scanner.word(blk)).collect()
    }

    /// The per-byte definition of the `interesting` words.
    fn reference_words(buf: &[u8]) -> Vec<u64> {
        let mut out = vec![0u64; buf.len().div_ceil(64)];
        for (i, &b) in buf.iter().enumerate() {
            if matches!(b, b'"' | b'\\') || !(0x20..0x80).contains(&b) {
                out[i >> 6] |= 1u64 << (i & 63);
            }
        }
        out
    }

    /// Position of the first interesting byte at or after `from`.
    fn first_interesting(buf: &[u8], from: usize) -> Option<usize> {
        let w = words(buf);
        (from..buf.len()).find(|&p| w[p >> 6] >> (p & 63) & 1 == 1)
    }

    /// The SWAR words equal the per-byte definition on hand-picked edge
    /// cases (the proptest in `tests/prop_stage1.rs` covers random bytes).
    #[test]
    fn kernels_agree_on_edge_corpus() {
        let mut corpus: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            br#""ab""#.to_vec(),
            br#"{"a": [1, "x\n", true], "b\\": null}"#.to_vec(),
            br#""\\\\\\""#.to_vec(),
            br#""\"""#.to_vec(),
            vec![0x01, 0x02, b'"', 0x03, b'"'],
            vec![0xFF; 100],
            (0u8..=255).collect(),
        ];
        // Escapes, quotes and strings straddling the 64-byte boundary, and
        // lengths that are not multiples of 64.
        for pad in [60usize, 61, 62, 63, 64, 65] {
            let mut v = vec![b' '; pad];
            v.extend_from_slice(br#""abc\"def" : [1,2]"#);
            corpus.push(v);
            let mut v = vec![b'['; 1];
            v.extend(vec![b' '; pad]);
            v.extend_from_slice(b"\"x\\\\\"");
            v.push(b']');
            corpus.push(v);
            // A backslash run ending exactly at the block boundary.
            let mut v = vec![b' '; pad.saturating_sub(2)];
            v.push(b'"');
            v.extend(vec![b'\\'; 5]);
            v.push(b'"');
            v.push(b'"');
            corpus.push(v);
        }
        for doc in &corpus {
            assert_eq!(
                words(doc),
                reference_words(doc),
                "input {:?}",
                String::from_utf8_lossy(doc)
            );
        }
    }

    #[test]
    fn escaped_quote_is_not_structural() {
        // "a\"b" — the backslash is interesting before the escaped quote,
        // so the builder hands the span to the scalar string scan.
        let doc = br#""a\"b""#;
        assert_eq!(words(doc), vec![0b101101]);
        assert_eq!(first_interesting(doc, 1), Some(2));
        assert_eq!(only_entry(doc), (TapeKind::String, 0, 6));
    }

    #[test]
    fn escape_carry_crosses_block_boundary() {
        // A backslash as the last byte of block 0 escaping the quote that
        // opens block 1: the backslash alone decides the span, so no
        // escape state has to cross the boundary.
        let mut doc = vec![b' '; 62];
        doc.push(b'"');
        doc.push(b'\\'); // byte 63: last of block 0
        doc.push(b'"'); // byte 64: escaped — not a close
        doc.push(b'x');
        doc.push(b'"'); // byte 66: the real close
        assert_eq!(words(&doc), vec![0b11 << 62, 0b101]);
        assert_eq!(first_interesting(&doc, 63), Some(63));
        assert_eq!(only_entry(&doc), (TapeKind::String, 62, 67));
    }

    #[test]
    fn tail_block_padding_is_zero() {
        let doc = vec![b'\0'; 70]; // NULs are ctrl — would leak into padding
        assert_eq!(words(&doc), vec![!0u64, (1u64 << (70 - 64)) - 1]);
    }

    #[test]
    fn first_interesting_drives_string_spans() {
        let doc = br#""clean" "di\rty" "unterminated"#;
        // Clean string: first interesting byte after the open is the close.
        assert_eq!(first_interesting(doc, 1), Some(6));
        assert_eq!(doc[6], b'"');
        // Escaped string: the backslash shows up before any quote.
        assert_eq!(first_interesting(doc, 9), Some(11));
        assert_eq!(doc[11], b'\\');
        // Unterminated: nothing interesting to the end.
        assert_eq!(first_interesting(doc, 18), None);
        // Interesting bytes *after* a close don't affect earlier spans.
        assert_eq!(first_interesting(br#""ok"\"#, 1), Some(3));
    }

    #[test]
    fn digit_run_end_matches_scalar() {
        let cases: &[&[u8]] = &[
            b"",
            b"123",
            b"12345678",
            b"123456789012345678901234567890",
            b"12a34",
            b"a123",
            b"1234567:",
            b"99999999x9",
            &[b'9', 0xFF, b'9'],
            &[0xB9, b'1'],
        ];
        for &c in cases {
            for start in 0..=c.len() {
                let mut scalar = start;
                while scalar < c.len() && c[scalar].is_ascii_digit() {
                    scalar += 1;
                }
                assert_eq!(
                    digit_run_end(c, start),
                    scalar,
                    "input {:?} from {start}",
                    String::from_utf8_lossy(c)
                );
            }
        }
    }

    #[test]
    fn mode_parsing_and_resolution() {
        assert_eq!(Stage1Mode::parse("swar"), Some(Stage1Mode::Swar));
        assert_eq!(Stage1Mode::parse(" SCALAR "), Some(Stage1Mode::Scalar));
        // Unknown values are rejected; `from_env` then falls back to the
        // default.
        for s in ["auto", "simd", "avx512", ""] {
            assert_eq!(Stage1Mode::parse(s), None, "{s}");
        }
        assert_eq!(Stage1Mode::default(), Stage1Mode::Swar);
        assert_eq!(Stage1Mode::Swar.label(), "swar");
        assert_eq!(Stage1Mode::Scalar.label(), "scalar");
    }
}
