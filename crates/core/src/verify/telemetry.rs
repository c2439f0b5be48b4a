//! Structured sweep telemetry: named counters, per-phase timings and
//! span traces, recorded through one [`SweepRecorder`] surface.
//!
//! # Recorder contract
//!
//! * **Attachment is opt-in.** A session with a recorder
//!   ([`SweepSession::metrics`](super::SweepSession::metrics),
//!   [`SweepSession::recorder`](super::SweepSession::recorder)) or an
//!   audit plan with one ([`AuditPlan::telemetry`](super::AuditPlan::telemetry))
//!   threads it through the engine; every other call runs with no
//!   recorder and pays nothing beyond per-item stack-local `u64`
//!   increments (see [`WorkerTally`]).
//! * **No ambient time.** Every timestamp flows through the recorder's
//!   injected [`Clock`] — `MonotonicClock` in production, `ManualClock`
//!   in replays — and clocks are read at phase/block/chunk granularity
//!   only, never per item.
//! * **Determinism policy.** Counters are split into a *stable* section
//!   (a pure function of the sweep's inputs for complete,
//!   non-short-circuited walks — byte-identical across runs and thread
//!   counts, which `telemetry_parity` asserts) and an *observed* section
//!   (legitimately scheduling-dependent: memo splits, interner traffic,
//!   timings). [`SweepCounter::is_stable`] is the single source of that
//!   classification.
//! * **Observationally free when disabled.** Without the `telemetry`
//!   feature this module degrades to inert stand-in types with the same
//!   names: call sites compile unchanged, the recorded entry points run
//!   plain sweeps, and verdicts/reports are bit-identical either way.

#[cfg(feature = "telemetry")]
use hiding_lcp_telemetry::{Clock, Histogram, MonotonicClock, ShardedCounters, SpanTrace};
#[cfg(feature = "telemetry")]
use std::sync::Arc;

#[cfg(feature = "telemetry")]
pub use hiding_lcp_telemetry::{ManualClock, MetricsSnapshot};

/// Every counter the engine records, with its wire name and determinism
/// class. The enum is the schema: adding a counter here is all it takes
/// for snapshots, diffs and the audit report to carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SweepCounter {
    /// Universe indices the walk passed over (stepped or decoded),
    /// including quotient-skipped ones.
    ItemsWalked = 0,
    /// Items actually handed to the check's `inspect`.
    ItemsInspected = 1,
    /// Items stepped over as non-canonical under the quotient strategy.
    OrbitSkipped = 2,
    /// Sum of orbit multiplicities over inspected representatives — for
    /// a complete quotient walk this re-adds up to the full universe.
    OrbitMultiplicity = 3,
    /// Verdict-memo hits (per-worker, scheduling-dependent).
    MemoHits = 4,
    /// Verdict-memo misses (decoder actually ran).
    MemoMisses = 5,
    /// Node-verdict decisions requested from the delta driver — every
    /// one lands in exactly one of the memo counters, which the
    /// conformance suite pins as `memo_hits + memo_misses ==
    /// verdict_decisions`.
    VerdictDecisions = 6,
    /// Verdict-channel refreshes: `refresh_verdicts` calls that had to
    /// recompute or patch (everything except a readback).
    VerdictRefreshes = 7,
    /// Verdict-channel readbacks: the scratch was already current (a
    /// second panel member on the same decoder channel).
    VerdictReadbacks = 8,
    /// Check panics converted to `SweepError`s.
    PanicsCaught = 9,
    /// Budget expiries that interrupted a sweep.
    BudgetInterruptions = 10,
    /// Skeleton-cache stamp hits (view served from the cache).
    CacheHits = 11,
    /// Skeleton-cache misses (cache population plus uncached extracts).
    CacheMisses = 12,
    /// Check-side view-interner front-cache hits.
    InternerFrontHits = 13,
    /// Check-side view-interner front-cache misses.
    InternerFrontMisses = 14,
    /// Contended view-interner shard-lock acquisitions.
    InternerContention = 15,
    /// Universe blocks with an active symmetry group under the quotient
    /// strategy.
    QuotientBlocks = 16,
    /// Shard executions handed to a dispatcher by the shard coordinator
    /// (first attempts and retries alike).
    ShardDispatches = 17,
    /// Shard dispatches re-issued after a crash, timeout or torn report.
    ShardRetries = 18,
    /// Shard-report merges performed (one per coordinated merge step).
    ShardMerges = 19,
}

/// How many counters [`SweepCounter`] defines.
pub const COUNTER_SLOTS: usize = 20;

impl SweepCounter {
    /// All counters, in slot order.
    pub const ALL: [SweepCounter; COUNTER_SLOTS] = [
        SweepCounter::ItemsWalked,
        SweepCounter::ItemsInspected,
        SweepCounter::OrbitSkipped,
        SweepCounter::OrbitMultiplicity,
        SweepCounter::MemoHits,
        SweepCounter::MemoMisses,
        SweepCounter::VerdictDecisions,
        SweepCounter::VerdictRefreshes,
        SweepCounter::VerdictReadbacks,
        SweepCounter::PanicsCaught,
        SweepCounter::BudgetInterruptions,
        SweepCounter::CacheHits,
        SweepCounter::CacheMisses,
        SweepCounter::InternerFrontHits,
        SweepCounter::InternerFrontMisses,
        SweepCounter::InternerContention,
        SweepCounter::QuotientBlocks,
        SweepCounter::ShardDispatches,
        SweepCounter::ShardRetries,
        SweepCounter::ShardMerges,
    ];

    /// The counter's wire name — the key in snapshots, diffs and JSON.
    pub fn name(self) -> &'static str {
        match self {
            SweepCounter::ItemsWalked => "items_walked",
            SweepCounter::ItemsInspected => "items_inspected",
            SweepCounter::OrbitSkipped => "items_orbit_skipped",
            SweepCounter::OrbitMultiplicity => "orbit_multiplicity",
            SweepCounter::MemoHits => "memo_hits",
            SweepCounter::MemoMisses => "memo_misses",
            SweepCounter::VerdictDecisions => "verdict_decisions",
            SweepCounter::VerdictRefreshes => "verdict_refreshes",
            SweepCounter::VerdictReadbacks => "verdict_readbacks",
            SweepCounter::PanicsCaught => "panics_caught",
            SweepCounter::BudgetInterruptions => "budget_interruptions",
            SweepCounter::CacheHits => "cache_hits",
            SweepCounter::CacheMisses => "cache_misses",
            SweepCounter::InternerFrontHits => "interner_front_hits",
            SweepCounter::InternerFrontMisses => "interner_front_misses",
            SweepCounter::InternerContention => "interner_contention",
            SweepCounter::QuotientBlocks => "quotient_blocks",
            SweepCounter::ShardDispatches => "shard_dispatches",
            SweepCounter::ShardRetries => "shard_retries",
            SweepCounter::ShardMerges => "shard_merges",
        }
    }

    /// Whether the counter's total is a pure function of the sweep's
    /// inputs for complete (non-short-circuited, uninterrupted) walks —
    /// i.e. byte-identical across runs and thread counts. Per-worker
    /// artifacts (memo splits, interner traffic) are not: chunk
    /// boundaries move resyncs around. Shard-coordinator counters are
    /// observed too: retries depend on which dispatch attempts failed.
    pub fn is_stable(self) -> bool {
        !matches!(
            self,
            SweepCounter::MemoHits
                | SweepCounter::MemoMisses
                | SweepCounter::VerdictDecisions
                | SweepCounter::InternerFrontHits
                | SweepCounter::InternerFrontMisses
                | SweepCounter::InternerContention
                | SweepCounter::ShardDispatches
                | SweepCounter::ShardRetries
                | SweepCounter::ShardMerges
        )
    }
}

/// The engine phases timed per sweep (histogram of microsecond
/// durations, one sample per sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SweepPhase {
    /// Skeleton-cache construction (decode side).
    CacheBuild = 0,
    /// The walk itself (inspect side).
    Walk = 1,
    /// The check's `reduce` over the surviving partials.
    Reduce = 2,
}

/// How many phases [`SweepPhase`] defines.
pub const PHASE_SLOTS: usize = 3;

impl SweepPhase {
    /// The phase's wire name.
    pub fn name(self) -> &'static str {
        match self {
            SweepPhase::CacheBuild => "cache_build",
            SweepPhase::Walk => "walk",
            SweepPhase::Reduce => "reduce",
        }
    }
}

/// What the engine records against. Implemented by [`MetricsRecorder`];
/// the trait exists so the executor's plumbing is independent of the
/// `telemetry` feature (the disabled build still compiles every call
/// site against the inert recorder).
pub trait SweepRecorder: Sync {
    /// Adds `delta` to a counter.
    fn add(&self, counter: SweepCounter, delta: u64);
    /// Records one phase duration, in microseconds of the recorder's
    /// clock.
    fn record_phase(&self, phase: SweepPhase, micros: u64);
    /// Marks a span entry (timestamped by the recorder's clock).
    fn span_enter(&self, name: &str);
    /// Marks a span exit.
    fn span_exit(&self, name: &str);
    /// Reads the recorder's clock — the engine measures phase durations
    /// with this, never with ambient time, so replays under a manual
    /// clock are bit-deterministic.
    fn now_micros(&self) -> u64;
}

/// Span-event ring capacity of a default recorder: plenty for an audit
/// run's plan/panel/block/chunk spans while bounding memory; overflow
/// overwrites the oldest events and is counted in the trace export.
#[cfg(feature = "telemetry")]
const DEFAULT_TRACE_CAPACITY: usize = 16_384;

/// The concrete recorder: sharded counters, per-phase histograms and a
/// bounded span ring, all behind one injected clock.
#[cfg(feature = "telemetry")]
pub struct MetricsRecorder {
    counters: ShardedCounters,
    phases: Vec<Histogram>,
    trace: SpanTrace,
    clock: Arc<dyn Clock>,
}

#[cfg(feature = "telemetry")]
impl Default for MetricsRecorder {
    fn default() -> Self {
        MetricsRecorder::new()
    }
}

#[cfg(feature = "telemetry")]
impl MetricsRecorder {
    /// A production recorder: monotonic clock, default trace capacity.
    pub fn new() -> MetricsRecorder {
        MetricsRecorder::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A recorder timed by an injected clock — pass a shared
    /// [`ManualClock`] to make histograms and traces replayable.
    pub fn with_clock(clock: Arc<dyn Clock>) -> MetricsRecorder {
        MetricsRecorder {
            counters: ShardedCounters::new(COUNTER_SLOTS),
            phases: (0..PHASE_SLOTS).map(|_| Histogram::new()).collect(),
            trace: SpanTrace::new(DEFAULT_TRACE_CAPACITY),
            clock,
        }
    }

    /// A point-in-time counter snapshot, split per the determinism
    /// policy ([`SweepCounter::is_stable`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let totals = self.counters.merged();
        let mut stable = Vec::new();
        let mut observed = Vec::new();
        for counter in SweepCounter::ALL {
            let entry = (counter.name().to_string(), totals[counter as usize]);
            if counter.is_stable() {
                stable.push(entry);
            } else {
                observed.push(entry);
            }
        }
        MetricsSnapshot::new(stable, observed)
    }

    /// The retained span events as Chrome `trace_event` JSON — load in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn trace_json(&self) -> String {
        self.trace.to_chrome_json()
    }

    /// Whether every lane's retained span events nest properly with
    /// nothing left open.
    pub fn trace_balanced(&self) -> bool {
        self.trace.is_balanced()
    }

    /// Span events overwritten because the trace ring was full.
    pub fn trace_dropped(&self) -> u64 {
        self.trace.dropped()
    }

    /// Counters plus per-phase histograms as one JSON object — what
    /// `audit --metrics-out` writes.
    pub fn metrics_json(&self) -> String {
        let mut phases = String::new();
        for (i, hist) in self.phases.iter().enumerate() {
            if !phases.is_empty() {
                phases.push_str(",\n    ");
            }
            let name = match i {
                0 => SweepPhase::CacheBuild.name(),
                1 => SweepPhase::Walk.name(),
                _ => SweepPhase::Reduce.name(),
            };
            phases.push_str(&format!("\"{name}\": {}", hist.snapshot().to_json()));
        }
        format!(
            "{{\n  \"counters\": {},  \"phases\": {{\n    {phases}\n  }}\n}}\n",
            self.snapshot().to_json()
        )
    }
}

#[cfg(feature = "telemetry")]
impl SweepRecorder for MetricsRecorder {
    fn add(&self, counter: SweepCounter, delta: u64) {
        #[cfg(conformance_mutants)]
        if crate::mutants::active("telemetry_counter_drop")
            && matches!(counter, SweepCounter::OrbitSkipped)
        {
            return;
        }
        self.counters.add(counter as usize, delta);
    }

    fn record_phase(&self, phase: SweepPhase, micros: u64) {
        self.phases[phase as usize].record(micros);
    }

    fn span_enter(&self, name: &str) {
        self.trace.enter(name, self.clock.now_micros());
    }

    fn span_exit(&self, name: &str) {
        #[cfg(conformance_mutants)]
        if crate::mutants::active("span_unbalanced_exit") {
            return;
        }
        self.trace.exit(name, self.clock.now_micros());
    }

    fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }
}

/// Inert stand-in when the `telemetry` feature is off: same surface,
/// no storage, no work. Keeps every call site (and the `audit` binary)
/// compiling in `--no-default-features` builds.
#[cfg(not(feature = "telemetry"))]
#[derive(Debug, Default)]
pub struct MetricsRecorder;

#[cfg(not(feature = "telemetry"))]
impl MetricsRecorder {
    /// The inert recorder.
    pub fn new() -> MetricsRecorder {
        MetricsRecorder
    }

    /// An empty snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// An empty (but valid) Chrome trace.
    pub fn trace_json(&self) -> String {
        "{\n  \"traceEvents\": [\n    \n  ],\n  \"displayTimeUnit\": \"ms\", \
         \n  \"droppedEvents\": 0\n}\n"
            .to_string()
    }

    /// An empty trace is trivially balanced.
    pub fn trace_balanced(&self) -> bool {
        true
    }

    /// Nothing recorded, nothing dropped.
    pub fn trace_dropped(&self) -> u64 {
        0
    }

    /// An empty metrics document.
    pub fn metrics_json(&self) -> String {
        format!(
            "{{\n  \"counters\": {},  \"phases\": {{\n    \n  }}\n}}\n",
            self.snapshot().to_json()
        )
    }
}

#[cfg(not(feature = "telemetry"))]
impl SweepRecorder for MetricsRecorder {
    fn add(&self, _counter: SweepCounter, _delta: u64) {}
    fn record_phase(&self, _phase: SweepPhase, _micros: u64) {}
    fn span_enter(&self, _name: &str) {}
    fn span_exit(&self, _name: &str) {}
    fn now_micros(&self) -> u64 {
        0
    }
}

/// Stand-in snapshot for disabled builds — the same ordered two-section
/// shape so [`diff`] and report rendering compile unchanged.
#[cfg(not(feature = "telemetry"))]
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Deterministic counters, sorted by name.
    pub stable: Vec<(String, u64)>,
    /// Scheduling-dependent counters, sorted by name.
    pub observed: Vec<(String, u64)>,
}

#[cfg(not(feature = "telemetry"))]
impl MetricsSnapshot {
    /// Builds a snapshot, sorting both sections by counter name.
    pub fn new(
        mut stable: Vec<(String, u64)>,
        mut observed: Vec<(String, u64)>,
    ) -> MetricsSnapshot {
        stable.sort_by(|a, b| a.0.cmp(&b.0));
        observed.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { stable, observed }
    }

    /// Looks a counter up by name in either section.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.stable
            .iter()
            .chain(&self.observed)
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// All counters of both sections, stable first.
    pub fn all(&self) -> impl Iterator<Item = (&str, u64)> {
        self.stable
            .iter()
            .chain(&self.observed)
            .map(|(n, v)| (n.as_str(), *v))
    }

    /// The canonical byte rendering of the stable section.
    pub fn stable_bytes(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.stable {
            out.push_str(&format!("{name}={value}\n"));
        }
        out
    }

    /// Both sections as one JSON object.
    pub fn to_json(&self) -> String {
        fn section(pairs: &[(String, u64)]) -> String {
            let mut out = String::new();
            for (name, value) in pairs {
                if !out.is_empty() {
                    out.push_str(",\n    ");
                }
                out.push_str(&format!("\"{}\": {value}", diff::json_escape(name)));
            }
            out
        }
        format!(
            "{{\n  \"stable\": {{\n    {}\n  }},\n  \"observed\": {{\n    {}\n  }}\n}}\n",
            section(&self.stable),
            section(&self.observed),
        )
    }
}

/// A worker thread's stack-local counter tally.
///
/// The hot loop bumps plain `u64` fields — no atomics, no branches on
/// "is a recorder attached" — and `WorkerTally::flush` folds the
/// totals into the recorder once per worker, mirroring the verdict
/// memo's flush. Without the `telemetry` feature the struct is
/// zero-sized and every method compiles to nothing, which is how the
/// disabled build stays observationally free.
#[cfg(feature = "telemetry")]
#[derive(Debug, Default)]
pub struct WorkerTally {
    walked: u64,
    inspected: u64,
    orbit_skipped: u64,
    orbit_multiplicity: u64,
    decisions: u64,
    refreshes: u64,
    readbacks: u64,
}

#[cfg(feature = "telemetry")]
impl WorkerTally {
    /// One universe index passed over.
    #[inline]
    pub(super) fn walk(&mut self) {
        self.walked += 1;
    }

    /// One item handed to `inspect`, standing for `multiplicity` items.
    #[inline]
    pub(super) fn inspect(&mut self, multiplicity: u64) {
        self.inspected += 1;
        self.orbit_multiplicity += multiplicity;
    }

    /// One item stepped over as non-canonical.
    #[inline]
    pub(super) fn orbit_skip(&mut self) {
        self.orbit_skipped += 1;
    }

    /// `n` node-verdict decisions requested from the delta driver.
    #[inline]
    pub(super) fn decisions(&mut self, n: u64) {
        self.decisions += n;
    }

    /// One verdict-channel refresh (recompute or patch).
    #[inline]
    pub(super) fn refresh(&mut self) {
        self.refreshes += 1;
    }

    /// One verdict-channel readback (scratch already current).
    #[inline]
    pub(super) fn readback(&mut self) {
        self.readbacks += 1;
    }

    /// Folds the tally into `recorder`, if one is attached.
    pub(super) fn flush(&self, recorder: Option<&dyn SweepRecorder>) {
        let Some(r) = recorder else { return };
        r.add(SweepCounter::ItemsWalked, self.walked);
        r.add(SweepCounter::ItemsInspected, self.inspected);
        r.add(SweepCounter::OrbitSkipped, self.orbit_skipped);
        r.add(SweepCounter::OrbitMultiplicity, self.orbit_multiplicity);
        r.add(SweepCounter::VerdictDecisions, self.decisions);
        r.add(SweepCounter::VerdictRefreshes, self.refreshes);
        r.add(SweepCounter::VerdictReadbacks, self.readbacks);
    }
}

/// Zero-sized tally for disabled builds: every bump is a no-op the
/// optimizer deletes.
#[cfg(not(feature = "telemetry"))]
#[derive(Debug, Default)]
pub struct WorkerTally;

#[cfg(not(feature = "telemetry"))]
impl WorkerTally {
    #[inline]
    pub(super) fn walk(&mut self) {}
    #[inline]
    pub(super) fn inspect(&mut self, _multiplicity: u64) {}
    #[inline]
    pub(super) fn orbit_skip(&mut self) {}
    #[inline]
    pub(super) fn decisions(&mut self, _n: u64) {}
    #[inline]
    pub(super) fn refresh(&mut self) {}
    #[inline]
    pub(super) fn readback(&mut self) {}
    pub(super) fn flush(&self, _recorder: Option<&dyn SweepRecorder>) {}
}

pub mod diff {
    //! Snapshot differencing: what a sweep (or a panel, or a whole
    //! audit) added to each counter, rendered as a regression table or
    //! JSON. The bench harness uses this to annotate `BENCH_*.json`
    //! with counter deltas; the audit report uses it for per-panel
    //! breakdowns.

    use super::MetricsSnapshot;

    /// One counter's before/after pair.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DeltaRow {
        /// Counter wire name.
        pub name: String,
        /// Value in the earlier snapshot (0 when absent).
        pub before: u64,
        /// Value in the later snapshot (0 when absent).
        pub after: u64,
        /// Whether the counter sits in the stable section.
        pub stable: bool,
    }

    impl DeltaRow {
        /// `after - before`, signed (a counter can only grow in one
        /// recorder's lifetime, but diffs across recorders may shrink).
        pub fn delta(&self) -> i128 {
            self.after as i128 - self.before as i128
        }
    }

    /// The difference between two snapshots, row per counter name.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct MetricsDelta {
        rows: Vec<DeltaRow>,
    }

    /// Diffs two snapshots over the union of their counter names
    /// (sorted; a name missing on one side counts as 0 there).
    pub fn diff(before: &MetricsSnapshot, after: &MetricsSnapshot) -> MetricsDelta {
        let mut names: Vec<(String, bool)> = before
            .stable
            .iter()
            .chain(&after.stable)
            .map(|(n, _)| (n.clone(), true))
            .chain(
                before
                    .observed
                    .iter()
                    .chain(&after.observed)
                    .map(|(n, _)| (n.clone(), false)),
            )
            .collect();
        names.sort();
        names.dedup();
        let rows = names
            .into_iter()
            .map(|(name, stable)| DeltaRow {
                before: before.get(&name).unwrap_or(0),
                after: after.get(&name).unwrap_or(0),
                stable,
                name,
            })
            .collect();
        MetricsDelta { rows }
    }

    impl MetricsDelta {
        /// Every row, sorted by counter name.
        pub fn rows(&self) -> &[DeltaRow] {
            &self.rows
        }

        /// Rows whose value actually moved.
        pub fn changed(&self) -> impl Iterator<Item = &DeltaRow> {
            self.rows.iter().filter(|r| r.delta() != 0)
        }

        /// One counter's delta by name.
        pub fn get(&self, name: &str) -> Option<i128> {
            self.rows.iter().find(|r| r.name == name).map(|r| r.delta())
        }

        /// A plain-text regression table of the changed counters —
        /// what the bench harness prints when counter deltas move
        /// between baselines.
        pub fn render_table(&self) -> String {
            let changed: Vec<&DeltaRow> = self.changed().collect();
            if changed.is_empty() {
                return "no counter changes\n".to_string();
            }
            let name_w = changed
                .iter()
                .map(|r| r.name.len())
                .max()
                .unwrap_or(0)
                .max("counter".len());
            let mut out = format!(
                "{:name_w$}  {:>12}  {:>12}  {:>13}\n",
                "counter", "before", "after", "delta"
            );
            for row in changed {
                out.push_str(&format!(
                    "{:name_w$}  {:>12}  {:>12}  {:>+13}\n",
                    row.name,
                    row.before,
                    row.after,
                    row.delta()
                ));
            }
            out
        }

        /// The changed rows as a JSON object keyed by counter name.
        pub fn to_json(&self) -> String {
            let mut body = String::new();
            for row in self.changed() {
                if !body.is_empty() {
                    body.push_str(", ");
                }
                body.push_str(&format!(
                    "\"{}\": {{\"before\": {}, \"after\": {}, \"delta\": {}}}",
                    json_escape(&row.name),
                    row.before,
                    row.after,
                    row.delta()
                ));
            }
            format!("{{{body}}}")
        }
    }

    /// Minimal JSON string escape (counter names are engine-chosen, but
    /// the module is public).
    pub(crate) fn json_escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
}

#[cfg(all(test, feature = "telemetry"))]
mod tests {
    use super::*;

    #[test]
    fn counter_slots_are_dense_and_named() {
        for (i, counter) in SweepCounter::ALL.iter().enumerate() {
            assert_eq!(*counter as usize, i, "slot order matches ALL order");
        }
        let mut names: Vec<&str> = SweepCounter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTER_SLOTS, "wire names are unique");
    }

    #[test]
    fn snapshot_splits_by_stability() {
        let recorder = MetricsRecorder::new();
        recorder.add(SweepCounter::ItemsWalked, 10);
        recorder.add(SweepCounter::MemoHits, 3);
        let snap = recorder.snapshot();
        assert!(snap
            .stable
            .iter()
            .any(|(n, v)| n == "items_walked" && *v == 10));
        assert!(snap
            .observed
            .iter()
            .any(|(n, v)| n == "memo_hits" && *v == 3));
        assert_eq!(snap.stable.len() + snap.observed.len(), COUNTER_SLOTS);
        assert!(!snap.stable_bytes().contains("memo_hits"));
    }

    #[test]
    fn manual_clock_makes_spans_replayable() {
        let run = || {
            let clock = Arc::new(ManualClock::new());
            let recorder = MetricsRecorder::with_clock(clock.clone());
            recorder.span_enter("sweep");
            clock.advance(17);
            recorder.span_exit("sweep");
            recorder.record_phase(SweepPhase::Walk, 17);
            recorder.trace_json()
        };
        assert_eq!(run(), run(), "same advances, same trace bytes");
        assert!(run().contains("\"ts\": 17"));
    }

    #[test]
    fn metrics_json_is_balanced() {
        let recorder = MetricsRecorder::new();
        recorder.add(SweepCounter::CacheHits, 4);
        recorder.record_phase(SweepPhase::CacheBuild, 120);
        let json = recorder.metrics_json();
        for key in [
            "counters",
            "phases",
            "cache_build",
            "walk",
            "reduce",
            "cache_hits",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn tally_flush_lands_in_the_right_slots() {
        let recorder = MetricsRecorder::new();
        let mut tally = WorkerTally::default();
        tally.walk();
        tally.walk();
        tally.orbit_skip();
        tally.inspect(6);
        tally.decisions(4);
        tally.refresh();
        tally.readback();
        tally.flush(Some(&recorder));
        let snap = recorder.snapshot();
        assert_eq!(snap.get("items_walked"), Some(2));
        assert_eq!(snap.get("items_inspected"), Some(1));
        assert_eq!(snap.get("items_orbit_skipped"), Some(1));
        assert_eq!(snap.get("orbit_multiplicity"), Some(6));
        assert_eq!(snap.get("verdict_decisions"), Some(4));
        assert_eq!(snap.get("verdict_refreshes"), Some(1));
        assert_eq!(snap.get("verdict_readbacks"), Some(1));
    }

    #[test]
    fn diff_renders_changed_rows_only() {
        let recorder = MetricsRecorder::new();
        recorder.add(SweepCounter::ItemsWalked, 100);
        let before = recorder.snapshot();
        recorder.add(SweepCounter::ItemsWalked, 28);
        recorder.add(SweepCounter::MemoHits, 5);
        let after = recorder.snapshot();
        let delta = diff::diff(&before, &after);
        assert_eq!(delta.get("items_walked"), Some(28));
        assert_eq!(delta.get("memo_hits"), Some(5));
        assert_eq!(delta.get("panics_caught"), Some(0));
        assert_eq!(delta.changed().count(), 2);
        let table = delta.render_table();
        assert!(table.contains("items_walked"));
        assert!(!table.contains("panics_caught"), "unchanged rows omitted");
        let json = delta.to_json();
        assert!(json.contains("\"items_walked\": {\"before\": 100, \"after\": 128, \"delta\": 28}"));
    }

    #[test]
    fn empty_diff_says_so() {
        let snap = MetricsRecorder::new().snapshot();
        let delta = diff::diff(&snap, &snap);
        assert_eq!(delta.changed().count(), 0);
        assert_eq!(delta.render_table(), "no counter changes\n");
        assert_eq!(delta.to_json(), "{}");
    }
}
