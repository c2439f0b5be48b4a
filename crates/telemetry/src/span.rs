//! Bounded span tracing with Chrome `trace_event` export.
//!
//! Spans are plain enter/exit event pairs (`ph: "B"` / `ph: "E"` in
//! Chrome's trace format) tagged with a timestamp from the recorder's
//! injected clock and a dense per-thread lane id. Events land in a
//! bounded ring: when full, the *oldest* events are overwritten and
//! [`SpanTrace::dropped`] counts them, so a trace is always a recent
//! suffix of the run and never an unbounded allocation.

use crate::json_escape;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

/// Which side of a span an event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    /// Span entry — Chrome `ph: "B"`.
    Enter,
    /// Span exit — Chrome `ph: "E"`.
    Exit,
}

/// One recorded span boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name, e.g. `plan`, `panel`, `walk`.
    pub name: String,
    /// Enter or exit.
    pub phase: SpanPhase,
    /// Timestamp from the recorder's clock, in microseconds.
    pub ts_micros: u64,
    /// Dense lane id of the recording thread (0 for the first thread
    /// seen, 1 for the second, …) — stable within a trace, meaningless
    /// across traces.
    pub lane: u64,
}

/// The ring's guarded interior.
#[derive(Debug, Default)]
struct Ring {
    /// Events in arrival order; once at capacity, index `start` is the
    /// oldest and the ring wraps.
    events: Vec<SpanEvent>,
    start: usize,
    dropped: u64,
    /// Thread-id hash → dense lane id.
    lanes: HashMap<u64, u64>,
}

/// A bounded, thread-safe ring of span events.
#[derive(Debug)]
pub struct SpanTrace {
    ring: Mutex<Ring>,
    capacity: usize,
}

impl SpanTrace {
    /// An empty trace holding at most `capacity` events (minimum 2, so
    /// one balanced span always fits).
    pub fn new(capacity: usize) -> SpanTrace {
        SpanTrace {
            ring: Mutex::new(Ring::default()),
            capacity: capacity.max(2),
        }
    }

    fn lane_of(ring: &mut Ring) -> u64 {
        let mut h = DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        let key = h.finish();
        let next = ring.lanes.len() as u64;
        *ring.lanes.entry(key).or_insert(next)
    }

    fn push(&self, name: &str, phase: SpanPhase, ts_micros: u64) {
        let mut ring = self.ring.lock().expect("span ring lock");
        let lane = Self::lane_of(&mut ring);
        let event = SpanEvent {
            name: name.to_string(),
            phase,
            ts_micros,
            lane,
        };
        if ring.events.len() < self.capacity {
            ring.events.push(event);
        } else {
            let start = ring.start;
            ring.events[start] = event;
            ring.start = (start + 1) % self.capacity;
            ring.dropped += 1;
        }
    }

    /// Records a span entry at `ts_micros`.
    pub fn enter(&self, name: &str, ts_micros: u64) {
        self.push(name, SpanPhase::Enter, ts_micros);
    }

    /// Records a span exit at `ts_micros`.
    pub fn exit(&self, name: &str, ts_micros: u64) {
        self.push(name, SpanPhase::Exit, ts_micros);
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        let ring = self.ring.lock().expect("span ring lock");
        let mut out = Vec::with_capacity(ring.events.len());
        for i in 0..ring.events.len() {
            out.push(ring.events[(ring.start + i) % ring.events.len()].clone());
        }
        out
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("span ring lock").dropped
    }

    /// Whether every lane's retained events form a properly nested
    /// enter/exit sequence with nothing left open. Only meaningful when
    /// nothing was dropped (a truncated trace loses prefixes whole).
    pub fn is_balanced(&self) -> bool {
        let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
        for event in self.events() {
            let stack = stacks.entry(event.lane).or_default();
            match event.phase {
                SpanPhase::Enter => stack.push(event.name),
                SpanPhase::Exit => {
                    if stack.pop().as_deref() != Some(event.name.as_str()) {
                        return false;
                    }
                }
            }
        }
        stacks.values().all(|stack| stack.is_empty())
    }

    /// Renders the retained events as Chrome `trace_event` JSON (the
    /// "JSON object format": a `traceEvents` array of `B`/`E` events).
    /// Load the file in `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        let mut events = String::new();
        for e in self.events() {
            if !events.is_empty() {
                events.push_str(",\n    ");
            }
            let ph = match e.phase {
                SpanPhase::Enter => "B",
                SpanPhase::Exit => "E",
            };
            events.push_str(&format!(
                "{{\"name\": \"{}\", \"ph\": \"{ph}\", \"ts\": {}, \"pid\": 1, \"tid\": {}}}",
                json_escape(&e.name),
                e.ts_micros,
                e.lane,
            ));
        }
        format!(
            "{{\n  \"traceEvents\": [\n    {events}\n  ],\n  \"displayTimeUnit\": \"ms\",\n  \"droppedEvents\": {}\n}}\n",
            self.dropped()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_back_in_order_and_balance() {
        let trace = SpanTrace::new(16);
        trace.enter("plan", 0);
        trace.enter("panel:labelings", 1);
        trace.exit("panel:labelings", 9);
        trace.exit("plan", 10);
        let events = trace.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].name, "plan");
        assert_eq!(events[3].phase, SpanPhase::Exit);
        assert!(trace.is_balanced());
        assert_eq!(trace.dropped(), 0);
    }

    #[test]
    fn unbalanced_traces_are_detected() {
        let open = SpanTrace::new(8);
        open.enter("a", 0);
        assert!(!open.is_balanced());

        let crossed = SpanTrace::new(8);
        crossed.enter("a", 0);
        crossed.enter("b", 1);
        crossed.exit("a", 2);
        crossed.exit("b", 3);
        assert!(!crossed.is_balanced());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let trace = SpanTrace::new(4);
        for i in 0..6u64 {
            trace.enter(&format!("s{i}"), i);
        }
        assert_eq!(trace.dropped(), 2);
        let names: Vec<String> = trace.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["s2", "s3", "s4", "s5"]);
    }

    #[test]
    fn chrome_json_shape() {
        let trace = SpanTrace::new(8);
        trace.enter("sweep", 5);
        trace.exit("sweep", 11);
        let json = trace.to_chrome_json();
        assert!(json.starts_with("{\n  \"traceEvents\": ["));
        assert!(json.contains("\"ph\": \"B\""));
        assert!(json.contains("\"ph\": \"E\""));
        assert!(json.contains("\"ts\": 11"));
        assert!(json.contains("\"droppedEvents\": 0"));
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "balanced JSON");
    }
}
