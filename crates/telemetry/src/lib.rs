//! Observability primitives for the sweep engine, dependency-free by
//! construction (the workspace's reproduction mandate extends to its
//! tooling).
//!
//! The crate deliberately knows nothing about sweeps, universes or
//! checks — it supplies the mechanical pieces the engine-side recorder
//! (`hiding-lcp-core::verify::telemetry`) composes around its own
//! counters (one `AtomicU64` per counter; the engine batches every add
//! per walk):
//!
//! * [`Clock`] — an *injected* monotonic time source. Every timestamp
//!   the telemetry layer ever records flows through a `Clock`, never
//!   through ambient wall-clock reads, so a replay under
//!   [`ManualClock`] is bit-deterministic while production uses
//!   [`MonotonicClock`] (an `Instant` anchor, immune to wall-clock
//!   adjustment).
//! * [`Histogram`] — log2-bucketed value distribution (64 buckets
//!   cover the full `u64` range) for per-phase durations.
//! * [`SpanTrace`] — a bounded ring buffer of enter/exit span events,
//!   exportable as Chrome `trace_event` JSON (open a trace in
//!   `chrome://tracing` or <https://ui.perfetto.dev>). Overflow
//!   overwrites the *oldest* events and is counted, never silent.
//! * [`MetricsSnapshot`] — an ordered, diffable view of the counters,
//!   split into a `stable` section (byte-identical across thread
//!   counts for deterministic walks) and an `observed` section
//!   (scheduling-dependent values like memo hit splits).
//! * [`json_escape`] — the one JSON string escaper of the workspace,
//!   which hand-rolls all its JSON.

mod clock;
mod hist;
mod snapshot;
mod span;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use hist::{Histogram, HistogramSnapshot};
pub use snapshot::MetricsSnapshot;
pub use span::{SpanEvent, SpanPhase, SpanTrace};

/// Escapes a string for embedding in a JSON string literal: `"`, `\`,
/// `\n`, `\r` and `\t` get their short escapes, every other control
/// character a `\u00XX` one. Shared by the trace and snapshot renderers
/// and the audit report.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
