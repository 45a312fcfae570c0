//! The independent reference parser that tests hold the tape against.
//!
//! [`EventParser`] is a pull parser with its own grammar (an explicit
//! frame stack, no tape); [`parse_item`] builds an [`crate::Item`] from its
//! [`Event`]s. It shares only the token lexers with the structural index,
//! so an item or error that the tape produces and this parser does not is
//! a bug in one of the two. The differential, edge-case and stage-1
//! property tests compare [`crate::parse::parse_item`],
//! [`crate::index::StructuralIndex::item_at`] and the index's errors with
//! it: equal items, and equal [`crate::JdmError`]s (variant, message and
//! offset).
//!
//! No engine code calls it; every production parse goes through the
//! structural index. The code lives in `parse/event.rs`, next to the
//! lexers it shares.

pub use crate::parse::event::{parse_item, Event, EventParser};
