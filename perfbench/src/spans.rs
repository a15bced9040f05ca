//! In-memory spans for the traced pass.
//!
//! Each span records a name, start, end, parent and the cell (or job) it
//! belongs to. Spans are opened and closed around calls into the
//! layers' public functions, kept in memory, and written out as JSONL
//! when the pass ends. A *probe* span times a call the untraced pass
//! does not make (a layer the public API only exposes bundled inside a
//! bigger call, or the continuous RefCore run): it is reported as a
//! layer but left out when the traced wall is compared with the
//! untraced one.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch (zero while open).
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Cell or job the span belongs to.
    pub cell: u32,
    /// Work the untraced pass does not do.
    pub probe: bool,
}

impl Span {
    /// Duration of a closed span.
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a span recorder panicked while holding the span list")
    }

    /// Opens a span and returns its index for [`Tracer::close`] and as
    /// the parent of nested spans.
    pub fn open(&self, name: &'static str, parent: Option<usize>, cell: u32, probe: bool) -> usize {
        let start = self.epoch.elapsed();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start,
            end: Duration::ZERO,
            parent,
            cell,
            probe,
        });
        spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&self, id: usize) {
        let end = self.epoch.elapsed();
        self.lock()[id].end = end;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        cell: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, cell, false);
        let r = f();
        self.close(id);
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Writes the spans as JSONL, one object per span.
    ///
    /// # Errors
    /// I/O errors creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.lock().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"cell\":{},\"probe\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.cell,
                s.probe
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when tracing, bare otherwise.
pub fn timed<R>(
    tr: Option<&Tracer>,
    name: &'static str,
    parent: Option<usize>,
    cell: u32,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        Some(t) => t.time(name, parent, cell, f),
        None => f(),
    }
}

/// Summed durations per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Duration> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(Duration::ZERO) += s.dur();
    }
    out
}

/// Summed duration of the probe spans that have no probe ancestor.
pub fn probe_time(spans: &[Span]) -> Duration {
    spans
        .iter()
        .filter(|s| s.probe && !s.parent.is_some_and(|p| spans[p].probe))
        .map(Span::dur)
        .sum()
}

/// Summed duration of non-probe spans whose parent is a root span: the
/// part of each cell's wall that a named layer accounts for.
pub fn attributed_time(spans: &[Span]) -> Duration {
    spans
        .iter()
        .filter(|s| !s.probe && s.parent.is_some_and(|p| spans[p].parent.is_none()))
        .map(Span::dur)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let t = Tracer::default();
        let root = t.open("cell", None, 0, false);
        t.time("a", Some(root), 0, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        let probe = t.open("p", Some(root), 0, true);
        t.time("inner", Some(probe), 0, || ());
        t.close(probe);
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert!(totals(&spans)["a"] >= Duration::from_millis(2));
        assert!(attributed_time(&spans) >= Duration::from_millis(2));
        assert!(probe_time(&spans) <= spans[root].dur());
    }
}
