//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (ns since the run's clock
//! origin), the name of the span that caused it, and the id of the
//! request it belongs to. Spans are kept in memory while the runners run
//! and written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub req: u64,
    /// Entries the call carried (keys for a batch, 1 otherwise).
    pub work: u32,
    pub start: u64,
    pub end: u64,
}

/// One lane's span buffer. With tracing off it records nothing; with it
/// on it records up to `cap` spans and then reports itself full, which
/// ends the runner's phase.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    cap: usize,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, on: bool, cap: usize) -> Self {
        let cap = if on { cap } else { 0 };
        Self { origin, cap, spans: Vec::with_capacity(cap) }
    }

    pub fn on(&self) -> bool {
        self.cap > 0
    }

    pub fn full(&self) -> bool {
        self.on() && self.spans.len() >= self.cap
    }

    /// Nanoseconds since the origin.
    pub fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        work: usize,
        start: Instant,
        end: Instant,
    ) {
        if self.on() {
            let (start, end) = (self.at(start), self.at(end));
            self.spans.push(Span { name, parent, req, work: work as u32, start, end });
        }
    }
}

/// Count, entries and total self time (ns) of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub work: u64,
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per span.
    pub fn mean_ns(&self) -> f64 {
        ratio(self.self_ns as f64, self.count as f64)
    }

    /// Mean self time per entry carried.
    pub fn ns_per_entry(&self) -> f64 {
        ratio(self.self_ns as f64, self.work as f64)
    }
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Self time per span name: each span's duration minus the part of it
/// that spans of the same request naming it as parent cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut by_req: Vec<&Span> = spans.iter().collect();
    by_req.sort_by_key(|s| (s.req, s.start));
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for group in by_req.chunk_by(|a, b| a.req == b.req) {
        for s in group {
            let mut covered = 0;
            let mut reach = s.start;
            // Children are sorted by start, so their union is one sweep.
            for c in group.iter().filter(|c| c.parent == Some(s.name)) {
                let (lo, hi) = (c.start.max(reach), c.end.min(s.end));
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.work += u64::from(s.work);
            e.self_ns += (s.end - s.start).saturating_sub(covered);
        }
    }
    out
}

/// Writes spans as tab-separated lines with a header.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name\tparent\treq\twork\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = s.parent.unwrap_or("-");
        writeln!(w, "{}\t{parent}\t{}\t{}\t{}\t{}", s.name, s.req, s.work, s.start, s.end)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        start: u64,
        end: u64,
    ) -> Span {
        Span { name, parent, req, work: 1, start, end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("req", None, 1, 0, 100),
            span("send", Some("req"), 1, 0, 10),
            span("recv", Some("req"), 1, 60, 100),
            span("recv", Some("req"), 1, 90, 120), // overlaps and overhangs
            span("req", None, 2, 50, 70),          // another request: not a child
        ];
        let t = self_times(&spans);
        assert_eq!(t["req"], SelfTime { count: 2, work: 2, self_ns: 50 + 20 });
        assert_eq!(t["recv"], SelfTime { count: 2, work: 2, self_ns: 70 });
        assert_eq!(t["send"].mean_ns(), 10.0);
    }
}
