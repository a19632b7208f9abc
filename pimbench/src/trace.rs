//! Spans around the public calls into each layer, kept in memory.
//!
//! A [`Tracer`] is either enabled or not. Disabled, [`Tracer::span`] only
//! calls its closure, so the untraced passes that produce the end-to-end
//! metrics run the same code with no clock reads. Enabled, it records one
//! [`Span`] per call: name, start, end and the span that was open around
//! it. Per-layer metrics are self times read off those spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name` (a no-op wrapper when disabled).
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        self.spans[index].start_ns = self.now_ns();
        let out = f(self);
        self.spans[index].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in milliseconds: each span's duration
    /// minus the part its child spans cover, summed over spans of a name.
    pub fn self_ms(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *out.entry(span.name.clone()).or_insert(0.0) +=
                span.duration_ns().saturating_sub(children) as f64 / 1e6;
        }
        out
    }

    /// Sum of self times over the span names that start with `prefix`.
    pub fn self_ms_prefixed(&self, prefix: &str) -> f64 {
        self.self_ms()
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, ms)| ms)
            .sum()
    }

    /// Appends this tracer's spans to `out` as Chrome trace-event JSON
    /// objects (`ph: "X"`, microseconds), tagged with `pass` so spans of
    /// different passes stay apart. The parent index rides in `args`.
    pub fn write_events(&self, pass: usize, out: &mut String) {
        for (i, span) in self.spans.iter().enumerate() {
            if !out.is_empty() {
                out.push_str(",\n");
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{pass},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let ms = t.self_ms();
        assert!(ms["inner"] >= 5.0);
        assert!(ms["outer"] >= 2.0 && ms["outer"] < ms["inner"]);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 3), 3);
        assert!(t.spans().is_empty());
    }
}
