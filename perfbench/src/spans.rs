//! In-memory span recorder for the traced run. Spans are taken from the
//! benchmark's own code around each call into a layer's public functions,
//! kept in memory, and written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The tool or path the span belongs to (`fasttrack`, `serve`, ...).
    pub label: &'static str,
    /// Trace index (offline) or session number (serve).
    pub id: u64,
    /// Index of the enclosing span in the same recorder, or [`ROOT`].
    pub parent: u32,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
}

/// A recorder; one per thread, merged at the end of the run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, label: &'static str, id: u64, parent: u32) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            label,
            id,
            parent,
            start,
            end: start,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, span: u32) {
        let now = self.now();
        self.spans[span as usize].end = now;
    }

    /// Number of spans recorded so far; spans from this mark on belong to
    /// whatever ran after it.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Drops the spans recorded since `mark`.
    pub fn truncate(&mut self, mark: usize) {
        self.spans.truncate(mark);
    }

    /// Self time per `(label, name)` over the spans recorded since `mark`:
    /// each span's duration minus the part its children cover.
    pub fn self_ns_since(&self, mark: usize) -> BTreeMap<(&'static str, &'static str), u64> {
        let spans = &self.spans[mark..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != ROOT && s.parent as usize >= mark {
                child_ns[s.parent as usize - mark] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_ns) {
            *out.entry((s.label, s.name)).or_insert(0) +=
                (s.end - s.start).saturating_sub(children);
        }
        out
    }

    /// Appends `other`'s spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"label\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.label, s.id, s.start, s.end
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin("stream", "ft", 0, ROOT);
        let child = t.begin("core.on_block", "ft", 0, root);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let spans = &t.spans;
        let total = spans[0].end - spans[0].start;
        let inner = spans[1].end - spans[1].start;
        let selfs = t.self_ns_since(0);
        assert_eq!(selfs[&("ft", "stream")], total - inner);
        assert_eq!(selfs[&("ft", "core.on_block")], inner);
    }
}
