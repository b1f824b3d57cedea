//! In-memory span tracing for the benchmark's traced runs.
//!
//! Spans nest: [`Tracer::begin`] opens a span whose parent is the innermost
//! open span, [`Tracer::end`] closes it. Every span records its name, start,
//! end, parent and the request it serves; [`Tracer::next_request`] starts a
//! new request, so the spans of one fit, lookup or append share an id. The
//! run writes the spans out when it ends.
//!
//! A span's self time is its duration minus the part of it that its child
//! spans cover, so the self times of a span tree add up to the root's
//! duration.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span. Ids are 1-based positions in the owning
/// tracer; `parent == 0` marks a root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open(usize);

/// A per-thread span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    recording: bool,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            recording: true,
        }
    }

    /// A tracer that records nothing: the same code path as a recording
    /// one, so timing it gives the untraced baseline of the tracing
    /// overhead.
    pub fn off() -> Tracer {
        Tracer {
            recording: false,
            ..Tracer::new(Instant::now())
        }
    }

    /// Start a new request: spans opened from now on carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.recording {
            return Open(usize::MAX);
        }
        let start_ns = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            id: index as u32 + 1,
            parent: self.open.last().map_or(0, |&p| p as u32 + 1),
            request: self.request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        Open(index)
    }

    pub fn end(&mut self, span: Open) {
        if !self.recording {
            return;
        }
        let index = span.0;
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one tab-separated line:
    /// `id parent request name start_ns end_ns self_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        assert!(self.open.is_empty(), "writing a trace with open spans");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns")?;
        for (span, own) in self.spans.iter().zip(self_ns) {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                span.id, span.parent, span.request, span.name, span.start_ns, span.end_ns, own
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, aligned with `spans`: its duration minus the
/// union of its children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != 0 {
            children[span.parent as usize - 1].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per span name: summed self time (seconds) and span count.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.0 += own as f64 / 1e9;
        entry.1 += 1;
    }
    out
}

/// Durations (microseconds) of the spans named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 25, 50),  // overlaps its sibling by 5
            span(4, 1, 90, 120), // runs past the parent's end
            span(5, 2, 12, 20),
        ];
        let own = self_times(&spans);
        // Parent covered by [10, 50) and [90, 100): 50 of 100.
        assert_eq!(own, vec![50, 12, 25, 30, 8]);
    }

    #[test]
    fn nested_spans_record_parents_and_sum_to_the_root() {
        let mut tracer = Tracer::new(Instant::now());
        tracer.next_request();
        let root = tracer.begin("root");
        let a = tracer.begin("a");
        let b = tracer.begin("b");
        tracer.end(b);
        tracer.end(a);
        let c = tracer.begin("c");
        tracer.end(c);
        tracer.end(root);
        let spans = tracer.spans();
        assert_eq!(
            spans.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [0, 1, 2, 1]
        );
        assert!(spans.iter().all(|s| s.request == 1));
        let total: u64 = self_times(spans).iter().sum();
        assert_eq!(total, spans[0].duration_ns());
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        tracer.next_request();
        let root = tracer.begin("root");
        assert_eq!(tracer.scope("a", || 7), 7);
        tracer.end(root);
        assert!(tracer.spans().is_empty());
    }
}
