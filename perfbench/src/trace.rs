//! In-memory spans recorded around the benchmark's calls into each layer
//! of the toolkit, written as JSONL when a traced run ends.
//!
//! A span has a name (the layer call it wraps), start and end offsets from
//! the tracer's creation, the span that caused it, and the id of the
//! operation it belongs to. A layer's self time is its duration minus the
//! part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Self time and span count of one layer.
#[derive(Clone, Copy, Default)]
pub struct SelfTime {
    pub ns: u64,
    pub count: u64,
}

impl SelfTime {
    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = self.offset(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.offset(Instant::now());
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let op = self.spans[parent].op;
        let id = self.open(name, Some(parent), op);
        let out = f();
        self.close(id);
        out
    }

    /// Record a span whose interval was measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.offset(start), self.offset(end));
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Self time per span name: each span's duration minus the union of
    /// its children's intervals (clipped to the span).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            let entry = out.entry(s.name).or_default();
            entry.ns += (s.end_ns - s.start_ns).saturating_sub(covered);
            entry.count += 1;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut tr = Tracer::new();
        let t0 = tr.t0;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = tr.record("root", None, 1, at(0), at(100));
        // Two overlapping children cover 10..50; a third sticks out past
        // the parent's end and counts only up to it.
        tr.record("a", Some(root), 1, at(10), at(40));
        tr.record("b", Some(root), 1, at(30), at(50));
        tr.record("c", Some(root), 1, at(90), at(120));
        let st = tr.self_times();
        assert_eq!(st["root"].ns, 50_000_000);
        assert_eq!(st["a"].ns, 30_000_000);
        assert_eq!(st["c"].count, 1);
    }
}
