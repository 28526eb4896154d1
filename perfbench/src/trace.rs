//! The benchmark's own spans: one per call into a layer's public API.
//!
//! Spans stay in memory while the benchmark runs and are written out once,
//! as Chrome `trace_event` JSON, when it ends. Each span carries its pass
//! id. Calls are timed one after another, never one inside another, so the
//! spans are flat: a layer's time is the sum of its spans.

use std::fmt::Write as _;
use std::time::Instant;

use pim_obsv::SpanEvent;

/// One completed (or, after an error, still open) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `pipeline.feed` or `replay.schedule`.
    pub name: &'static str,
    /// The pass this span belongs to.
    pub pass: u32,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch (equal to `start_ns`
    /// while the span is open).
    pub end_ns: u64,
    /// Items the call processed (reads, queues, bytes; 0 when none).
    pub items: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans the program recorded itself during one traced pass, with the
/// offset that places them on the benchmark's timeline.
#[derive(Debug, Clone)]
pub struct ProgramSpans {
    /// Pass id.
    pub pass: u32,
    /// Benchmark-epoch nanoseconds at which the program's recorder began.
    pub offset_ns: u64,
    /// The program's spans (stage and dispatch lanes).
    pub events: Vec<SpanEvent>,
}

/// In-memory span recorder. A disabled tracer records nothing, so the
/// untraced passes run the same code with no spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pass: u32,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` when the tracer is disabled).
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { epoch: Instant::now(), enabled, pass: 0, spans: Vec::new() }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts pass `pass`: later spans belong to it.
    pub fn begin_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Opens a span named `name`.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        self.spans.push(Span { name, pass: self.pass, start_ns: now, end_ns: now, items: 0 });
        Open(Some(self.spans.len() - 1))
    }

    /// Closes `span`, recording `items`.
    pub fn end(&mut self, span: Open, items: u64) {
        let Some(index) = span.0 else { return };
        let now = self.now_ns();
        let s = &mut self.spans[index];
        s.end_ns = now;
        s.items = items;
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the benchmark's spans (process 1) and the program's own
    /// spans (process 2) as Chrome `trace_event` JSON.
    pub fn to_chrome_json(&self, program: &[ProgramSpans]) -> String {
        let mut events = Vec::new();
        for s in &self.spans {
            events.push(format!(
                "{{\"name\": \"{}\", \"cat\": \"bench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"pass\": {}, \"items\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.pass,
                s.items,
            ));
        }
        for lane in program {
            for e in &lane.events {
                events.push(format!(
                    "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 2, \"tid\": {}, \
                     \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"pass\": {}, \"items\": {}}}}}",
                    e.name,
                    e.cat,
                    e.tid,
                    (lane.offset_ns + e.start_ns) as f64 / 1e3,
                    e.dur_ns as f64 / 1e3,
                    lane.pass,
                    e.items,
                ));
            }
        }
        let mut out = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
        for (i, e) in events.iter().enumerate() {
            let sep = if i + 1 < events.len() { "," } else { "" };
            let _ = writeln!(out, "    {e}{sep}");
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_their_pass_and_items() {
        let mut t = Tracer::new(true);
        t.begin_pass(3);
        let finish = t.begin("pipeline.finish");
        t.end(finish, 0);
        let replay = t.begin("replay.schedule");
        t.end(replay, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].items, 7);
        assert!(spans.iter().all(|s| s.pass == 3 && s.end_ns >= s.start_ns));
        assert!(t.to_chrome_json(&[]).contains("\"replay.schedule\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("pipeline.feed");
        t.end(s, 1);
        assert!(t.spans().is_empty());
    }
}
