//! The event-based (SAX-style) parser and the tree build on top of it,
//! published as [`crate::oracle`] (see there for its role). Strict:
//! trailing garbage, bad escapes, bad numbers and unbalanced structure are
//! errors with byte offsets.

use super::{number_at, parse_string_at, MAX_DEPTH};
use crate::error::{JdmError, Result};
use crate::item::Item;
use crate::number::Number;
use std::borrow::Cow;

/// Parse one complete JSON value (the whole input) into an [`Item`] by
/// building it from the event stream.
pub fn parse_item(buf: &[u8]) -> Result<Item> {
    let mut p = EventParser::new(buf);
    let item = build_value(&mut p)?;
    p.finish()?;
    Ok(item)
}

fn build_value(p: &mut EventParser<'_>) -> Result<Item> {
    let ev = p
        .next_event()?
        .ok_or(JdmError::UnexpectedEof { offset: p.offset() })?;
    build_from(p, ev)
}

/// Build the value whose first event, `start`, was already consumed.
fn build_from(p: &mut EventParser<'_>, start: Event<'_>) -> Result<Item> {
    match start {
        Event::StartObject => build_object(p),
        Event::StartArray => build_array(p),
        Event::String(s) => Ok(Item::String(s.as_ref().into())),
        Event::Number(n) => Ok(Item::Number(n)),
        Event::Bool(b) => Ok(Item::Boolean(b)),
        Event::Null => Ok(Item::Null),
        Event::Key(_) | Event::EndObject | Event::EndArray => {
            Err(JdmError::parse(p.offset(), "not at the start of a value"))
        }
    }
}

fn build_object(p: &mut EventParser<'_>) -> Result<Item> {
    let mut pairs = Vec::new();
    loop {
        match p.next_event()? {
            Some(Event::EndObject) => return Ok(Item::Object(pairs)),
            Some(Event::Key(k)) => {
                let v = build_value(p)?;
                pairs.push((k.as_ref().into(), v));
            }
            Some(other) => {
                return Err(JdmError::parse(
                    p.offset(),
                    format!("unexpected {other:?} in object"),
                ))
            }
            None => return Err(JdmError::UnexpectedEof { offset: p.offset() }),
        }
    }
}

fn build_array(p: &mut EventParser<'_>) -> Result<Item> {
    let mut items = Vec::new();
    loop {
        let ev = p
            .next_event()?
            .ok_or(JdmError::UnexpectedEof { offset: p.offset() })?;
        if matches!(ev, Event::EndArray) {
            return Ok(Item::Array(items));
        }
        items.push(build_from(p, ev)?);
    }
}

/// One JSON structural event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// `{`
    StartObject,
    /// `}`
    EndObject,
    /// `[`
    StartArray,
    /// `]`
    EndArray,
    /// An object key (always followed by the value's events).
    Key(Cow<'a, str>),
    /// A string value.
    String(Cow<'a, str>),
    /// A numeric value.
    Number(Number),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Frame {
    /// Inside an object; `expect_key` toggles between key and value position.
    Object { expect_key: bool },
    /// Inside an array.
    Array,
}

/// Pull parser producing [`Event`]s from a byte slice.
pub struct EventParser<'a> {
    buf: &'a [u8],
    pos: usize,
    stack: Vec<Frame>,
    /// True immediately after a value at the current nesting level (so the
    /// next token must be `,` or a closer).
    have_value: bool,
    done: bool,
}

impl<'a> EventParser<'a> {
    /// Create a parser over `buf` (one complete JSON value expected).
    pub fn new(buf: &'a [u8]) -> Self {
        EventParser {
            buf,
            pos: 0,
            stack: Vec::new(),
            have_value: false,
            done: false,
        }
    }

    /// Byte offset of the next unread byte (for error reporting and for
    /// slicing raw value text).
    #[inline]
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Produce the next event, or `Ok(None)` at the end of a complete value.
    pub fn next_event(&mut self) -> Result<Option<Event<'a>>> {
        if self.done {
            return Ok(None);
        }
        self.skip_ws();
        if self.pos >= self.buf.len() {
            if self.stack.is_empty() && self.have_value {
                self.done = true;
                return Ok(None);
            }
            return Err(JdmError::UnexpectedEof { offset: self.pos });
        }

        // Handle separators / closers relative to the containment stack.
        match self.stack.last().copied() {
            Some(Frame::Object { expect_key: true }) => {
                let c = self.buf[self.pos];
                if c == b'}' {
                    self.pos += 1;
                    self.stack.pop();
                    self.note_value();
                    return Ok(Some(Event::EndObject));
                }
                if self.have_value {
                    if c != b',' {
                        return Err(JdmError::parse(self.pos, "expected ',' or '}'"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                }
                // Parse a key.
                if self.pos >= self.buf.len() {
                    return Err(JdmError::UnexpectedEof { offset: self.pos });
                }
                if self.buf[self.pos] != b'"' {
                    return Err(JdmError::parse(self.pos, "expected object key"));
                }
                let key = self.parse_string()?;
                self.skip_ws();
                if self.pos >= self.buf.len() {
                    return Err(JdmError::UnexpectedEof { offset: self.pos });
                }
                if self.buf[self.pos] != b':' {
                    return Err(JdmError::parse(self.pos, "expected ':' after key"));
                }
                self.pos += 1;
                if let Some(Frame::Object { expect_key }) = self.stack.last_mut() {
                    *expect_key = false;
                }
                self.have_value = false;
                return Ok(Some(Event::Key(key)));
            }
            Some(Frame::Object { expect_key: false }) => {
                // Value position inside an object; fall through to value.
            }
            Some(Frame::Array) => {
                let c = self.buf[self.pos];
                if c == b']' {
                    self.pos += 1;
                    self.stack.pop();
                    self.note_value();
                    return Ok(Some(Event::EndArray));
                }
                if self.have_value {
                    if c != b',' {
                        return Err(JdmError::parse(self.pos, "expected ',' or ']'"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    if self.pos < self.buf.len() && self.buf[self.pos] == b']' {
                        return Err(JdmError::parse(self.pos, "trailing comma in array"));
                    }
                }
            }
            None => {
                if self.have_value {
                    return Err(JdmError::parse(self.pos, "trailing characters after value"));
                }
            }
        }

        self.parse_value().map(Some)
    }

    /// Mark that a complete value just finished at the current level.
    fn note_value(&mut self) {
        self.have_value = true;
        if let Some(Frame::Object { expect_key }) = self.stack.last_mut() {
            *expect_key = true;
        }
        if self.stack.is_empty() {
            self.done = true;
        }
    }

    fn parse_value(&mut self) -> Result<Event<'a>> {
        // Reached from value position after separators were consumed, so
        // the buffer may have run out since next_event's entry check.
        if self.pos >= self.buf.len() {
            return Err(JdmError::UnexpectedEof { offset: self.pos });
        }
        let c = self.buf[self.pos];
        match c {
            b'{' => {
                self.check_depth()?;
                self.pos += 1;
                self.stack.push(Frame::Object { expect_key: true });
                self.have_value = false;
                Ok(Event::StartObject)
            }
            b'[' => {
                self.check_depth()?;
                self.pos += 1;
                self.stack.push(Frame::Array);
                self.have_value = false;
                Ok(Event::StartArray)
            }
            b'"' => {
                let s = self.parse_string()?;
                self.note_value();
                Ok(Event::String(s))
            }
            b't' => {
                self.expect_word(b"true")?;
                self.note_value();
                Ok(Event::Bool(true))
            }
            b'f' => {
                self.expect_word(b"false")?;
                self.note_value();
                Ok(Event::Bool(false))
            }
            b'n' => {
                self.expect_word(b"null")?;
                self.note_value();
                Ok(Event::Null)
            }
            b'-' | b'0'..=b'9' => {
                let n = self.parse_number()?;
                self.note_value();
                Ok(Event::Number(n))
            }
            _ => Err(JdmError::parse(
                self.pos,
                format!("unexpected byte {:?}", c as char),
            )),
        }
    }

    fn expect_word(&mut self, w: &[u8]) -> Result<()> {
        if self.buf.len() - self.pos >= w.len() && &self.buf[self.pos..self.pos + w.len()] == w {
            self.pos += w.len();
            Ok(())
        } else {
            Err(JdmError::parse(self.pos, "invalid literal"))
        }
    }

    #[inline]
    fn check_depth(&self) -> Result<()> {
        if self.stack.len() >= MAX_DEPTH {
            return Err(JdmError::parse(
                self.pos,
                format!("nesting depth exceeds {MAX_DEPTH}"),
            ));
        }
        Ok(())
    }

    fn parse_number(&mut self) -> Result<Number> {
        let (n, end) = number_at(self.buf, self.pos)?;
        self.pos = end;
        Ok(n)
    }

    /// Parse a string literal (cursor on the opening quote). Borrows when no
    /// escapes are present.
    fn parse_string(&mut self) -> Result<Cow<'a, str>> {
        let (s, end) = parse_string_at(self.buf, self.pos)?;
        self.pos = end;
        Ok(s)
    }

    #[inline]
    fn skip_ws(&mut self) {
        while self.pos < self.buf.len()
            && matches!(self.buf[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    /// Verify that only whitespace remains after the top-level value.
    pub fn finish(mut self) -> Result<()> {
        self.skip_ws();
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(JdmError::parse(self.pos, "trailing characters after value"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(src: &str) -> Vec<Event<'_>> {
        let mut p = EventParser::new(src.as_bytes());
        let mut out = Vec::new();
        while let Some(ev) = p.next_event().unwrap() {
            out.push(ev);
        }
        out
    }

    fn expect_err(src: &str) -> JdmError {
        let mut p = EventParser::new(src.as_bytes());
        loop {
            match p.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => match EventParser::new(src.as_bytes()).finish() {
                    Err(e) => return e,
                    Ok(()) => panic!("expected error for {src:?}"),
                },
                Err(e) => return e,
            }
        }
    }

    #[test]
    fn scalar_events() {
        assert_eq!(events("42"), vec![Event::Number(Number::Int(42))]);
        assert_eq!(
            events("-1.5e2"),
            vec![Event::Number(Number::Double(-150.0))]
        );
        assert_eq!(events("true"), vec![Event::Bool(true)]);
        assert_eq!(events("null"), vec![Event::Null]);
        assert_eq!(events(r#""hi""#), vec![Event::String("hi".into())]);
    }

    #[test]
    fn object_event_stream() {
        let evs = events(r#"{"a": 1, "b": [true, null]}"#);
        assert_eq!(
            evs,
            vec![
                Event::StartObject,
                Event::Key("a".into()),
                Event::Number(Number::Int(1)),
                Event::Key("b".into()),
                Event::StartArray,
                Event::Bool(true),
                Event::Null,
                Event::EndArray,
                Event::EndObject,
            ]
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(events("{}"), vec![Event::StartObject, Event::EndObject]);
        assert_eq!(events("[]"), vec![Event::StartArray, Event::EndArray]);
        assert_eq!(
            events("[[],{}]"),
            vec![
                Event::StartArray,
                Event::StartArray,
                Event::EndArray,
                Event::StartObject,
                Event::EndObject,
                Event::EndArray
            ]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            events(r#""a\nb\t\"c\" \\ A 😀""#),
            vec![Event::String("a\nb\t\"c\" \\ A 😀".into())]
        );
    }

    #[test]
    fn borrowed_vs_owned_strings() {
        let src = r#"["plain", "esc\n"]"#;
        let mut p = EventParser::new(src.as_bytes());
        p.next_event().unwrap(); // [
        match p.next_event().unwrap().unwrap() {
            Event::String(Cow::Borrowed(_)) => {}
            other => panic!("expected borrowed, got {other:?}"),
        }
        match p.next_event().unwrap().unwrap() {
            Event::String(Cow::Owned(_)) => {}
            other => panic!("expected owned, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(expect_err("{"), JdmError::UnexpectedEof { .. }));
        assert!(matches!(expect_err(r#"{"a" 1}"#), JdmError::Parse { .. }));
        assert!(matches!(expect_err("[1,]"), JdmError::Parse { .. }));
        assert!(matches!(expect_err("01"), JdmError::BadNumber { .. }));
        assert!(matches!(expect_err("1 2"), JdmError::Parse { .. }));
        assert!(matches!(expect_err("tru"), JdmError::Parse { .. }));
        assert!(matches!(expect_err(r#""\q""#), JdmError::Parse { .. }));
        assert!(matches!(expect_err(r#""\uD800""#), JdmError::Parse { .. }));
    }

    #[test]
    fn integer_overflow_becomes_double() {
        let evs = events("123456789012345678901234567890");
        match &evs[0] {
            Event::Number(Number::Double(d)) => assert!(*d > 1e29),
            other => panic!("expected double, got {other:?}"),
        }
    }

    #[test]
    fn eof_after_separator_is_an_error_not_a_panic() {
        // Regression (found by the differential fuzzer): a buffer ending
        // right after a comma fell through to value parsing without an
        // EOF check and indexed past the end. A buffer ending right after
        // a key is end of input too, as in the index.
        for src in [
            "[1,",
            "[1, ",
            r#"{"a":1,"b":"#,
            "[",
            r#"{"a":"#,
            r#"{"a""#,
            r#"{"a" "#,
        ] {
            let mut p = EventParser::new(src.as_bytes());
            let err = loop {
                match p.next_event() {
                    Ok(Some(_)) => continue,
                    Ok(None) => panic!("{src:?} must not parse"),
                    Err(e) => break e,
                }
            };
            assert!(
                matches!(err, JdmError::UnexpectedEof { .. }),
                "{src:?}: {err:?}"
            );
        }
    }

    #[test]
    fn nesting_deeper_than_max_depth_is_rejected() {
        let src = "[".repeat(MAX_DEPTH + 1);
        let mut p = EventParser::new(src.as_bytes());
        let err = loop {
            match p.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("expected depth error"),
                Err(e) => break e,
            }
        };
        match err {
            JdmError::Parse { msg, .. } => assert!(msg.contains("depth"), "{msg}"),
            other => panic!("expected depth error, got {other:?}"),
        }
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(
            events(r#""héllo ✓""#),
            vec![Event::String("héllo ✓".into())]
        );
    }
}
