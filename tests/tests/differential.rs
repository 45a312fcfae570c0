//! Differential testing of the structural-index parse path.
//!
//! A seeded generator produces random JSON *text* (deliberately ugly:
//! random whitespace, escapes, surrogate pairs, duplicate keys, `-0`,
//! overflowing exponents and 64-bit integers). For every document the
//! suite checks the tape against the independent event parser in
//! [`jdm::oracle`]:
//!
//! * index-guided projection ([`jdm::project::project_indexed`]) versus
//!   the oracle's tree followed by manual path navigation — items and
//!   emitted counts;
//! * the item built from the tape ([`StructuralIndex::item_at`]) versus
//!   the oracle's item;
//! * error parity on truncated/mutated documents — the index build,
//!   [`jdm::parse::parse_item`] and projection must fail with exactly the
//!   oracle's error (variant, message and offset).
//!
//! Seeds: see [`integration_tests::diff_seed`]. Every assertion message
//! carries the seed and case number, so any CI failure (including the
//! random-seed leg) is replayable with `VXQ_DIFF_SEED=<seed>`.

use datagen::rng::StdRng;
use integration_tests::diff_seed;
use jdm::index::StructuralIndex;
use jdm::parse::parse_item;
use jdm::project::{project_indexed, ProjectStats};
use jdm::{oracle, Item, JdmError, PathStep, ProjectionPath};

/// Keys the generator draws from — a small pool so random paths actually
/// hit (and duplicate keys occur).
const KEYS: &[&str] = &["a", "b", "c", "root", "results", "k\\n0"];

struct Gen {
    rng: StdRng,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn ws(&mut self, out: &mut String) {
        for _ in 0..self.rng.gen_range(0usize..3) {
            out.push([' ', '\t', '\n', '\r'][self.rng.gen_range(0usize..4)]);
        }
    }

    fn string(&mut self, out: &mut String) {
        out.push('"');
        for _ in 0..self.rng.gen_range(0usize..6) {
            match self.rng.gen_range(0u32..8) {
                0 => out.push_str(r"\\"),
                1 => out.push_str(r#"\""#),
                2 => out.push_str(
                    ["\\n", "\\t", "\\b", "\\f", "\\r", "\\/"][self.rng.gen_range(0usize..6)],
                ),
                3 => {
                    // BMP escape, skipping the surrogate block.
                    let mut cp = self.rng.gen_range(0x20u32..0xFFFF);
                    if (0xD800..0xE000).contains(&cp) {
                        cp = 0x263A;
                    }
                    out.push_str(&format!("\\u{cp:04X}"));
                }
                4 => {
                    // Supplementary-plane character as a surrogate pair.
                    let cp = self.rng.gen_range(0x1_0000u32..0x2_0000);
                    let v = cp - 0x1_0000;
                    out.push_str(&format!(
                        "\\u{:04X}\\u{:04X}",
                        0xD800 + (v >> 10),
                        0xDC00 + (v & 0x3FF)
                    ));
                }
                5 => {
                    // Raw multi-byte UTF-8.
                    out.push(['é', '雪', '→', '𝄞'][self.rng.gen_range(0usize..4)]);
                }
                _ => {
                    for _ in 0..self.rng.gen_range(1usize..5) {
                        out.push(self.rng.gen_range(b'a'..=b'z') as char);
                    }
                }
            }
        }
        out.push('"');
    }

    fn number(&mut self, out: &mut String) {
        match self.rng.gen_range(0u32..8) {
            0 => out.push_str("-0"),
            1 => out.push_str(&self.rng.gen_range(i64::MIN..i64::MAX).to_string()),
            // i64 overflow: falls back to f64 in both stacks.
            2 => out.push_str("92233720368547758089"),
            3 => out.push_str(&format!(
                "{}.{}",
                self.rng.gen_range(-999i32..999),
                self.rng.gen_range(0u32..999)
            )),
            4 => out.push_str(&format!(
                "{}e{}",
                self.rng.gen_range(1u32..99),
                self.rng.gen_range(-400i32..400)
            )),
            // Exponent overflow / underflow.
            5 => out.push_str(["1e999", "-1E999", "2e-999"][self.rng.gen_range(0usize..3)]),
            6 => out.push_str(&format!(
                "-{}.{}E+{}",
                self.rng.gen_range(0u32..99),
                self.rng.gen_range(0u32..99),
                self.rng.gen_range(0u32..40)
            )),
            _ => out.push_str(&self.rng.gen_range(0u32..1000).to_string()),
        }
    }

    fn key(&mut self, out: &mut String) {
        out.push('"');
        out.push_str(KEYS[self.rng.gen_range(0usize..KEYS.len())]);
        out.push('"');
    }

    fn value(&mut self, depth: usize, out: &mut String) {
        let kind = if depth == 0 {
            self.rng.gen_range(0u32..4) // leaves only
        } else {
            self.rng.gen_range(0u32..6)
        };
        match kind {
            0 => out.push_str(["null", "true", "false"][self.rng.gen_range(0usize..3)]),
            1 | 3 => self.number(out),
            2 => self.string(out),
            4 => {
                out.push('[');
                let n = self.rng.gen_range(0usize..4);
                for i in 0..n {
                    if i > 0 {
                        out.push(',');
                    }
                    self.ws(out);
                    self.value(depth - 1, out);
                    self.ws(out);
                }
                out.push(']');
            }
            _ => {
                out.push('{');
                let n = self.rng.gen_range(0usize..4);
                for i in 0..n {
                    if i > 0 {
                        out.push(',');
                    }
                    self.ws(out);
                    self.key(out); // pool keys → duplicates happen
                    self.ws(out);
                    out.push(':');
                    self.ws(out);
                    self.value(depth - 1, out);
                    self.ws(out);
                }
                out.push('}');
            }
        }
    }

    fn document(&mut self) -> String {
        let mut out = String::new();
        self.ws(&mut out);
        self.value(3, &mut out);
        self.ws(&mut out);
        out
    }

    fn path(&mut self) -> ProjectionPath {
        let mut steps = Vec::new();
        for _ in 0..self.rng.gen_range(0usize..3) {
            steps.push(match self.rng.gen_range(0u32..3) {
                0 => PathStep::Key(KEYS[self.rng.gen_range(0usize..KEYS.len())].into()),
                1 => PathStep::Index(self.rng.gen_range(1i64..4)),
                _ => PathStep::AllMembers,
            });
        }
        ProjectionPath::new(steps)
    }
}

/// Index `buf` and project `path` through the tape, collecting the items.
fn project(buf: &[u8], path: &ProjectionPath) -> Result<(Vec<Item>, ProjectStats), JdmError> {
    let index = StructuralIndex::build(buf)?;
    let mut items = Vec::new();
    let stats = project_indexed(buf, &index, path, |item| {
        items.push(item);
        true
    })?;
    Ok((items, stats))
}

/// Reference projection: navigate the oracle's fully parsed tree. Mirrors the
/// documented scan semantics — `get_key` takes the *first* occurrence of
/// a duplicate key, `Index` is 1-based on arrays, `()` fans out arrays
/// only.
fn ref_project(item: &Item, steps: &[PathStep], out: &mut Vec<Item>) {
    match steps.split_first() {
        None => out.push(item.clone()),
        Some((PathStep::Key(k), rest)) => {
            if let Some(v) = item.get_key(k) {
                ref_project(v, rest, out);
            }
        }
        Some((PathStep::Index(i), rest)) => {
            if let Some(v) = item.get_position(*i) {
                ref_project(v, rest, out);
            }
        }
        Some((PathStep::AllMembers, rest)) => {
            if let Item::Array(ms) = item {
                for m in ms {
                    ref_project(m, rest, out);
                }
            }
        }
    }
}

#[test]
fn indexed_projection_matches_tree_navigation() {
    let seed = diff_seed();
    let mut g = Gen::new(seed);
    for case in 0..600 {
        let doc = g.document();
        let path = g.path();
        let tree = oracle::parse_item(doc.as_bytes()).unwrap_or_else(|e| {
            panic!("seed {seed} case {case}: generator emitted invalid JSON ({e}): {doc}")
        });
        let mut expected = Vec::new();
        ref_project(&tree, path.steps(), &mut expected);

        let (got, stats) = project(doc.as_bytes(), &path).unwrap_or_else(|e| {
            panic!("seed {seed} case {case}: projection failed ({e}) on path {path:?}: {doc}")
        });
        assert_eq!(
            got, expected,
            "seed {seed} case {case}: items diverge on path {path:?}: {doc}"
        );
        assert_eq!(
            stats.emitted,
            expected.len(),
            "seed {seed} case {case}: emitted count diverges: {doc}"
        );
    }
}

/// The tape replayed into an `Item` equals the event parser's item, for
/// the whole document and through `parse_item`.
#[test]
fn tape_event_replay_matches_event_parser() {
    let seed = diff_seed().wrapping_add(1);
    let mut g = Gen::new(seed);
    for case in 0..300 {
        let doc = g.document();
        let index = StructuralIndex::build(doc.as_bytes()).unwrap_or_else(|e| {
            panic!("seed {seed} case {case}: index rejected valid JSON ({e}): {doc}")
        });
        let reference = oracle::parse_item(doc.as_bytes())
            .unwrap_or_else(|e| panic!("seed {seed} case {case}: oracle failed ({e}): {doc}"));
        let via_tape = index
            .item_at(doc.as_bytes(), index.root())
            .unwrap_or_else(|e| panic!("seed {seed} case {case}: tape walk failed ({e}): {doc}"));
        assert_eq!(
            via_tape, reference,
            "seed {seed} case {case}: items diverge: {doc}"
        );
        assert_eq!(
            parse_item(doc.as_bytes()).as_ref(),
            Ok(&reference),
            "seed {seed} case {case}: parse_item diverges: {doc}"
        );
    }
}

#[test]
fn error_parity_on_truncated_and_mutated_documents() {
    let seed = diff_seed().wrapping_add(2);
    let mut g = Gen::new(seed);
    for case in 0..200 {
        let doc = g.document();
        let bytes = doc.as_bytes();
        // Truncation at three random byte offsets (plus the full doc).
        let mut cuts = vec![bytes.len()];
        for _ in 0..3 {
            if !bytes.is_empty() {
                cuts.push(g.rng.gen_range(0usize..bytes.len()));
            }
        }
        for cut in cuts {
            let prefix = &bytes[..cut];
            let reference = oracle::parse_item(prefix);
            let index = StructuralIndex::build(prefix);
            assert_eq!(
                reference.as_ref().err(),
                index.as_ref().err(),
                "seed {seed} case {case}: oracle vs index at cut {cut} of: {doc}",
            );
            // `parse_item` and the projector must fail identically too
            // (the empty path projects the whole document).
            let parsed = parse_item(prefix);
            assert_eq!(
                reference.as_ref().err(),
                parsed.as_ref().err(),
                "seed {seed} case {case}: oracle vs parse_item at cut {cut} of: {doc}",
            );
            let projected = project(prefix, &ProjectionPath::root());
            assert_eq!(
                reference.as_ref().err(),
                projected.as_ref().err(),
                "seed {seed} case {case}: oracle vs projection at cut {cut} of: {doc}",
            );
        }
        // One random single-byte mutation: the two stacks must return the
        // same error, and the same value when both accept.
        if !bytes.is_empty() {
            let mut mutated = bytes.to_vec();
            let at = g.rng.gen_range(0usize..mutated.len());
            mutated[at] = g.rng.gen_range(0u8..=255);
            let reference = oracle::parse_item(&mutated);
            let index = StructuralIndex::build(&mutated);
            assert_eq!(
                reference.as_ref().err(),
                index.as_ref().err(),
                "seed {seed} case {case}: mutation at {at} ({})",
                mutated[at],
            );
            if let (Ok(reference), Ok(index)) = (reference, index) {
                let via_tape = index.item_at(&mutated, index.root()).unwrap_or_else(|e| {
                    panic!("seed {seed} case {case}: tape materialization failed: {e}")
                });
                assert_eq!(
                    via_tape, reference,
                    "seed {seed} case {case}: mutated doc parses differently"
                );
            }
        }
    }
}
