//! Spans around the benchmark's calls into each layer, kept in memory and
//! written at the end as Chrome trace-event JSON (opens in Perfetto).

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// A span recorder; a disabled one records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Record a span; returns its id (meaningless when disabled).
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        if self.enabled {
            self.spans.push(Span {
                name,
                start,
                end,
                parent,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Set the end of a span opened with `start == end`.
    pub fn close(&mut self, id: usize, end: Instant) {
        if self.enabled {
            self.spans[id].end = end;
        }
    }

    /// The trace as Chrome trace-event JSON ("X" complete events, µs).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let ts = (s.start - self.origin).as_secs_f64() * 1e6;
            let dur = (s.end - s.start).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {ts:.3}, \
                 \"dur\": {dur:.3}, \"args\": {{\"id\": {id}, \"parent\": {parent}}}}}{sep}",
                s.name
            );
        }
        out.push_str("]}\n");
        out
    }
}
