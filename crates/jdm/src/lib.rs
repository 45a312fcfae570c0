//! # jdm — JSON Data Model
//!
//! The data-model substrate of the VXQuery-RS reproduction of
//! *"A Parallel and Scalable Processor for JSON Data"* (EDBT 2018).
//!
//! This crate plays the role that Jackson + VXQuery's in-memory JSON item
//! representation play in the paper: it owns everything about JSON *values*,
//! independent of query processing:
//!
//! * [`Item`] — the tree model of a JSONiq item (JSON values plus the
//!   `dateTime` atomic from the XQuery type system and the XQuery
//!   *sequence*, which JSONiq layers on top of JSON).
//! * [`parse`] — a from-scratch, event-based (SAX-style) JSON parser with
//!   zero-copy string handling, plus a tree builder on top of it.
//! * [`index`] — the **structural index**: a validating one-pass scan that
//!   records every structural token (string spans, container open/close
//!   pairs) into a flat tape, so navigation skips subtrees in O(1)
//!   without re-scanning bytes, and arrays expose record boundaries for
//!   split-parallel scans.
//! * [`stage1`] — the **stage-1 classifier** feeding the index builder:
//!   64-byte blocks in, one portable SWAR bitmask word per block out
//!   (quotes, backslashes, control and non-ASCII bytes); `VXQ_STAGE1=scalar`
//!   switches the builder to its per-byte scan instead.
//! * [`project`] — the **path-projecting parser**: given a projection path
//!   (e.g. `("root")()("results")()`), it streams each matching sub-item to
//!   a callback *without materializing anything else*. This is the runtime
//!   mechanism behind the paper's DATASCAN second argument (the pipelining
//!   rules, §4.2).
//! * [`binary`] — a tagged binary serialization with constant-time array
//!   indexing and zero-copy [`binary::ItemRef`] navigation, used to move
//!   items through dataflow frames (the Hyracks "pointable" analog).
//! * [`datetime`] — the `xs:dateTime` subset needed by the paper's queries
//!   (`dateTime()`, `year-/month-/day-from-dateTime`).
//!
//! ## Quick example
//!
//! ```
//! use jdm::parse::parse_item;
//!
//! let item = parse_item(br#"{"bookstore": {"book": [{"title": "Everyday Italian"}]}}"#).unwrap();
//! let title = item
//!     .get_key("bookstore").unwrap()
//!     .get_key("book").unwrap()
//!     .get_index(0).unwrap()
//!     .get_key("title").unwrap();
//! assert_eq!(title.as_str(), Some("Everyday Italian"));
//! ```

pub mod binary;
pub mod datetime;
pub mod error;
pub mod index;
pub mod item;
pub mod number;
pub mod parse;
pub mod path;
pub mod project;
pub mod stage1;
pub mod text;

pub use datetime::DateTime;
pub use error::{JdmError, Result};
pub use item::Item;
pub use number::Number;
pub use path::{PathStep, ProjectionPath};
