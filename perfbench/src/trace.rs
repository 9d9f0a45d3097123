//! In-memory spans for the traced run.
//!
//! A span is recorded around a call into one layer: name, start, end,
//! the span that caused it, and the request it belongs to. Spans stay
//! in memory while the run measures and are written out once, when it
//! ends. A span's *self time* is its duration minus the time its
//! children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// One recorded span; times are offsets from the run's trace origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub req: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

/// The spans of one run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Records a span and returns its id (for use as a parent).
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Duration,
        end: Duration,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start,
            end: end.max(start),
        });
        id
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end - s.start).saturating_sub(child[s.id]);
            *out.entry(s.name).or_insert(Duration::ZERO) += own;
        }
        out
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Writes the spans as a JSON array (times in µs).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}{}",
                s.id,
                s.req,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}
