//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into a layer (name, start, end,
//! parent span, request id). They stay in memory while the workload
//! runs and are written out as JSON lines when it ends. With tracing
//! off every method is a pass-through, so the untraced run measures the
//! program alone.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Identifier of a recorded span (its index in the recorder).
pub type SpanId = u32;

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name, e.g. `serving.step`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The request the call served, if it served exactly one.
    pub req: Option<u64>,
}

impl Span {
    /// Wall time of the span in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; inert when disabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that [`Tracer::close`] ends; for spans that enclose
    /// other spans. Returns `None` when disabled.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Ends a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.now_ns();
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// An empty recorder with the same origin and switch, for another
    /// thread; [`Tracer::join`] merges it back.
    pub fn fork(&self) -> Self {
        Self {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
        }
    }

    /// Appends the spans of a [`Tracer::fork`]ed recorder, keeping its
    /// parent links pointing at its own spans.
    pub fn join(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total nanoseconds covered by spans whose name starts with
    /// `prefix` and that have no parent of the same prefix (so nested
    /// spans are not counted twice).
    pub fn covered_ns(&self, prefix: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .filter(|s| {
                s.parent
                    .is_none_or(|p| !self.spans[p as usize].name.starts_with(prefix))
            })
            .map(Span::dur_ns)
            .sum()
    }

    /// Writes a header line and one JSON object per span to `path`
    /// (JSON lines), creating the parent directory.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(64 * (self.spans.len() + 1));
        out.push_str(header);
        out.push('\n');
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start_ns, s.end_ns
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.req {
                let _ = write!(out, ",\"req\":{r}");
            }
            out.push_str("}\n");
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x.y", None, Some(1), || 42);
        assert_eq!(v, 42);
        assert!(t.open("x.z", None, None).is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_coverage_counts_outermost_only() {
        let mut t = Tracer::new(true);
        let outer = t.open("serving.wave", None, None);
        t.span("serving.step", outer, None, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, outer);
        assert!(s[0].dur_ns() >= s[1].dur_ns());
        assert_eq!(t.covered_ns("serving."), s[0].dur_ns());
    }

    #[test]
    fn joined_fork_keeps_its_parent_links() {
        let mut t = Tracer::new(true);
        t.span("a.x", None, None, || ());
        let mut f = t.fork();
        let p = f.open("b.outer", None, None);
        f.span("b.inner", p, Some(9), || ());
        f.close(p);
        t.join(f);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[2].req, Some(9));
    }
}
