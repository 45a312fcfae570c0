//! From-scratch JSON parsing: the whole-document parse and the token
//! lexers.
//!
//! There is one parser. [`crate::index::StructuralIndex`] validates the
//! bytes in one pass and records every token on a tape; [`parse_item`]
//! walks that tape into an [`crate::Item`], and the engine's scan writes
//! the binary format from the same tape. The lexers below — strings,
//! numbers and the nesting cap [`MAX_DEPTH`] — are the only code that
//! decodes token bytes. The event parser in [`crate::oracle`] is kept
//! only as the tests' reference.

/// The event parser, published only as [`crate::oracle`].
pub(crate) mod event;
mod tree;

pub use tree::parse_item;

use crate::error::{JdmError, Result};
use crate::number::Number;
use std::borrow::Cow;

/// Maximum container nesting depth. The structural-index builder rejects
/// deeper documents, so the recursive tape walks ([`parse_item`], the
/// binary writer) cannot blow the thread stack on adversarial input; the
/// binary reader and the oracle enforce the same limit.
pub const MAX_DEPTH: usize = 512;

/// Scan a number token's grammar starting at `start`; returns the end
/// offset and whether the literal has a fraction or exponent. Shared by
/// the structural-index builder and the oracle so both accept exactly
/// the same number grammar. Digit runs advance eight bytes at a
/// time via the SWAR helper in [`crate::stage1`] — positions only, so
/// the grammar is unchanged by construction.
pub(crate) fn scan_number_at(b: &[u8], start: usize) -> Result<(usize, bool)> {
    let mut i = start;
    if i < b.len() && b[i] == b'-' {
        i += 1;
    }
    let int_start = i;
    i = crate::stage1::digit_run_end(b, i);
    if i == int_start {
        return Err(JdmError::BadNumber { offset: start });
    }
    // Leading zero rule: "0" alone or "0." is ok, "01" is not.
    if b[int_start] == b'0' && i - int_start > 1 {
        return Err(JdmError::BadNumber { offset: start });
    }
    let mut is_double = false;
    if i < b.len() && b[i] == b'.' {
        is_double = true;
        i += 1;
        let frac_start = i;
        i = crate::stage1::digit_run_end(b, i);
        if i == frac_start {
            return Err(JdmError::BadNumber { offset: start });
        }
    }
    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
        is_double = true;
        i += 1;
        if i < b.len() && (b[i] == b'+' || b[i] == b'-') {
            i += 1;
        }
        let exp_start = i;
        i = crate::stage1::digit_run_end(b, i);
        if i == exp_start {
            return Err(JdmError::BadNumber { offset: start });
        }
    }
    Ok((i, is_double))
}

/// Parse and convert a number token; returns the value and the end offset.
pub(crate) fn number_at(b: &[u8], start: usize) -> Result<(Number, usize)> {
    let (end, is_double) = scan_number_at(b, start)?;
    // SAFETY of from_utf8: the scanned range contains only ASCII.
    let text = std::str::from_utf8(&b[start..end]).expect("ASCII number text");
    if !is_double {
        if let Ok(v) = text.parse::<i64>() {
            return Ok((Number::Int(v), end));
        }
        // Integer overflow: fall through to double.
    }
    text.parse::<f64>()
        .map(|v| (Number::Double(v), end))
        .map_err(|_| JdmError::BadNumber { offset: start })
}

/// Parse (and fully validate) a string literal whose opening quote is at
/// `start_quote`; returns the decoded string and the offset just past the
/// closing quote. Borrows when no escapes are present. Shared by the
/// structural-index builder, the tape readers and the oracle, so string
/// validation — escapes, surrogate pairing, control characters, UTF-8 —
/// is identical everywhere.
pub(crate) fn parse_string_at(b: &[u8], start_quote: usize) -> Result<(Cow<'_, str>, usize)> {
    debug_assert_eq!(b[start_quote], b'"');
    let start = start_quote + 1;
    let mut i = start;
    // Fast scan for a clean (escape-free) string.
    while i < b.len() {
        match b[i] {
            b'"' => {
                let s = std::str::from_utf8(&b[start..i])
                    .map_err(|_| JdmError::BadUtf8 { offset: start })?;
                return Ok((Cow::Borrowed(s), i + 1));
            }
            b'\\' => break,
            0x00..=0x1F => return Err(JdmError::parse(i, "unescaped control character in string")),
            _ => i += 1,
        }
    }
    if i >= b.len() {
        return Err(JdmError::UnexpectedEof { offset: i });
    }
    // Slow path with unescaping.
    let mut out = String::with_capacity(i - start + 16);
    out.push_str(
        std::str::from_utf8(&b[start..i]).map_err(|_| JdmError::BadUtf8 { offset: start })?,
    );
    while i < b.len() {
        match b[i] {
            b'"' => {
                return Ok((Cow::Owned(out), i + 1));
            }
            b'\\' => {
                i += 1;
                if i >= b.len() {
                    return Err(JdmError::UnexpectedEof { offset: i });
                }
                match b[i] {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let cp = parse_hex4(b, i + 1)?;
                        i += 4;
                        if (0xD800..0xDC00).contains(&cp) {
                            // High surrogate: require a following \uXXXX low half.
                            if i + 6 < b.len() && b[i + 1] == b'\\' && b[i + 2] == b'u' {
                                let lo = parse_hex4(b, i + 3)?;
                                i += 6;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(JdmError::parse(i, "bad low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                out.push(
                                    char::from_u32(c)
                                        .ok_or_else(|| JdmError::parse(i, "bad surrogate pair"))?,
                                );
                            } else {
                                return Err(JdmError::parse(i, "lone high surrogate"));
                            }
                        } else if (0xDC00..0xE000).contains(&cp) {
                            return Err(JdmError::parse(i, "lone low surrogate"));
                        } else {
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| JdmError::parse(i, "bad \\u escape"))?,
                            );
                        }
                    }
                    other => {
                        return Err(JdmError::parse(
                            i,
                            format!("bad escape '\\{}'", other as char),
                        ))
                    }
                }
                i += 1;
            }
            0x00..=0x1F => return Err(JdmError::parse(i, "unescaped control character in string")),
            _ => {
                // Copy a run of plain bytes (handles multi-byte UTF-8).
                let run_start = i;
                while i < b.len() && !matches!(b[i], b'"' | b'\\' | 0x00..=0x1F) {
                    i += 1;
                }
                out.push_str(
                    std::str::from_utf8(&b[run_start..i])
                        .map_err(|_| JdmError::BadUtf8 { offset: run_start })?,
                );
            }
        }
    }
    Err(JdmError::UnexpectedEof { offset: i })
}

fn parse_hex4(b: &[u8], at: usize) -> Result<u32> {
    if at + 4 > b.len() {
        return Err(JdmError::UnexpectedEof { offset: at });
    }
    let mut v = 0u32;
    for j in 0..4 {
        let d = (b[at + j] as char)
            .to_digit(16)
            .ok_or_else(|| JdmError::parse(at + j, "bad hex digit in \\u escape"))?;
        v = v * 16 + d;
    }
    Ok(v)
}
