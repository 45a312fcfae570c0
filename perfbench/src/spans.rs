//! Spans of the traced run: one around each public engine call the
//! benchmark makes, plus the engine's own lifecycle and task spans. All
//! are kept in memory and written out as JSON lines when the run ends.

use dataflow::trace::escape_json;
use dataflow::TraceEvent;
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The query the span belongs to.
    pub query: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// All spans of one name: how many, their summed duration, and their
/// summed self time (duration minus the part child spans cover).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id, for a parent recorded after its children.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        query: u64,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(Span {
                id,
                parent,
                query,
                name: name.into(),
                start_ns,
                end_ns,
            });
    }

    /// Record a span under a fresh id and return the id.
    pub fn span(
        &self,
        parent: Option<u64>,
        query: u64,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.id();
        self.record(id, parent, query, name, start_ns, end_ns);
        id
    }

    /// Adopt the engine's trace events of one query. `origin_ns` is when
    /// the engine's trace buffer started. Parse, translate and optimize
    /// hang under `front`; compile and execute under `back`; rule firings
    /// under optimize and stage tasks under execute.
    pub fn import_engine(
        &self,
        events: &[TraceEvent],
        origin_ns: u64,
        query: u64,
        front: u64,
        back: u64,
    ) {
        let ids: Vec<u64> = events.iter().map(|_| self.id()).collect();
        let lifecycle = |name: &str| {
            events
                .iter()
                .position(|e| e.cat == "lifecycle" && e.name == name)
                .map(|i| ids[i])
        };
        let optimize = lifecycle("optimize").unwrap_or(front);
        let execute = lifecycle("execute").unwrap_or(back);
        for (e, &id) in events.iter().zip(&ids) {
            let (name, parent) = match (e.cat, e.name.as_str()) {
                ("lifecycle", "parse") => ("jsoniq.parse".to_string(), front),
                ("lifecycle", "translate") => ("jsoniq.translate".to_string(), front),
                ("lifecycle", "optimize") => ("algebra.optimize".to_string(), front),
                ("lifecycle", "compile") => ("vxq_core.compile".to_string(), back),
                ("lifecycle", "execute") => ("dataflow.execute".to_string(), back),
                ("rule", rule) => (format!("algebra.rule.{rule}"), optimize),
                ("execute", task) => (format!("dataflow.{}", task.replace(' ', "")), execute),
                _ => continue,
            };
            let start = origin_ns + e.ts_us * 1000;
            self.record(id, Some(parent), query, name, start, start + e.dur_us * 1000);
        }
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span list");
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for s in spans.iter() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered(c, s.start_ns, s.end_ns));
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span list");
        let mut out = BufWriter::new(File::create(path)?);
        for s in spans.iter() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.query,
                escape_json(&s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `[lo, hi)` that the union of `intervals` covers.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut sum, mut reach) = (0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            sum += end - start;
            reach = end;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        assert_eq!(covered(&mut [(10, 20), (15, 30), (40, 50)], 0, 100), 30);
        assert_eq!(covered(&mut [(0, 200)], 50, 100), 50);
        assert_eq!(covered(&mut [], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        let root = t.id();
        t.span(Some(root), 0, "child", 10, 40);
        t.span(Some(root), 0, "child", 30, 60);
        t.record(root, None, 0, "root", 0, 100);
        let totals = t.totals();
        assert_eq!(totals["root"].self_ns, 50);
        assert_eq!(totals["child"].count, 2);
        assert_eq!(totals["child"].total_ns, 60);
    }
}
