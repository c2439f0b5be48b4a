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
//!   recorder. Either way each worker counts its walk in its own
//!   [`WorkerTally`], and the walk sums the tallies once after the join
//!   into the [`WalkCounts`] its report carries.
//! * **No ambient time.** Every timestamp flows through the recorder's
//!   injected [`Clock`] — `MonotonicClock` in production, `ManualClock`
//!   in replays — and clocks are read at phase and span granularity
//!   only, never per item.
//! * **Determinism policy.** Counters are split into a *stable* section
//!   (a pure function of the sweep's inputs for complete,
//!   non-short-circuited walks — byte-identical across runs and thread
//!   counts, which `telemetry_parity` asserts) and an *observed* section
//!   (legitimately scheduling-dependent: memo splits, interner traffic,
//!   timings). [`SweepCounter::is_stable`] is the single source of that
//!   classification.
//! * **Observationally free.** A recorded sweep returns the verdicts,
//!   witnesses and reports of a plain one, bit for bit.

use hiding_lcp_telemetry::{Clock, Histogram, MonotonicClock, SpanTrace};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use hiding_lcp_telemetry::{ManualClock, MetricsSnapshot};

/// Every counter the engine records, with its wire name and determinism
/// class. The enum is the schema: adding a counter here is all it takes
/// for snapshots, walk counts and the audit report to carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SweepCounter {
    /// Universe indices the walk passed over (stepped, decoded or jumped),
    /// including skipped ones.
    ItemsWalked = 0,
    /// Items actually handed to the check's `inspect`.
    ItemsInspected = 1,
    /// Items stepped over without inspection: non-canonical orbit
    /// members, or items of a port-isomorphic copy block.
    OrbitSkipped = 2,
    /// Sum of multiplicities over inspected items — for a complete walk
    /// this re-adds up to the full universe.
    OrbitMultiplicity = 3,
    /// Verdict-memo hits (scheduling-dependent: two workers racing on
    /// one entry both miss).
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
    /// Skeleton-cache stamp hits (view served from the cache). A view-id
    /// table miss ([`ItemCtx::view_id`](super::ItemCtx::view_id)) counts
    /// its stamp only if it fills the entry, so workers racing on one entry
    /// count it once.
    CacheHits = 11,
    /// Skeleton-cache misses (cache population plus uncached extracts).
    CacheMisses = 12,
    /// View ids read from a member's view-id table, the walk's front cache
    /// of the view interner ([`ItemCtx::view_id`](super::ItemCtx::view_id)):
    /// counted on the walk side, per walk, by the worker that looked up.
    InternerFrontHits = 13,
    /// View ids interned through the view interner's canonical map: table
    /// misses plus views without a table entry. Counted per walk, like the
    /// hits.
    InternerFrontMisses = 14,
    /// Interner map-lock acquisitions that found the lock held by another
    /// worker. Counted per walk, like the hits.
    InternerContention = 15,
    /// Universe blocks with an active in-block symmetry group, summed
    /// over the members that declare one.
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

    /// The counter's wire name — the key in snapshots and JSON.
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
    /// A shard merge's parse, replay and tiling check (its reduce is a
    /// [`SweepPhase::Reduce`] sample of its own).
    Merge = 3,
}

/// How many phases [`SweepPhase`] defines.
pub const PHASE_SLOTS: usize = 4;

impl SweepPhase {
    /// Every phase, in slot order.
    pub const ALL: [SweepPhase; PHASE_SLOTS] = [
        SweepPhase::CacheBuild,
        SweepPhase::Walk,
        SweepPhase::Reduce,
        SweepPhase::Merge,
    ];

    /// The phase's wire name.
    pub fn name(self) -> &'static str {
        match self {
            SweepPhase::CacheBuild => "cache_build",
            SweepPhase::Walk => "walk",
            SweepPhase::Reduce => "reduce",
            SweepPhase::Merge => "merge",
        }
    }
}

/// What the engine records against. Implemented by [`MetricsRecorder`];
/// the engine sees only this trait, so tests and benches can attach
/// their own recorders.
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
/// run's plan, call and per-worker walk spans while bounding memory;
/// overflow overwrites the oldest events and is counted in the trace
/// export.
const DEFAULT_TRACE_CAPACITY: usize = 16_384;

/// The concrete recorder: one atomic per counter, per-phase histograms
/// and a bounded span ring, all behind one injected clock. The engine
/// adds each counter once per walk, from the workers' summed tallies, so
/// the counters see a handful of adds per sweep.
pub struct MetricsRecorder {
    counters: [AtomicU64; COUNTER_SLOTS],
    phases: Vec<Histogram>,
    trace: SpanTrace,
    clock: Arc<dyn Clock>,
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        MetricsRecorder::new()
    }
}

impl MetricsRecorder {
    /// A production recorder: monotonic clock, default trace capacity.
    pub fn new() -> MetricsRecorder {
        MetricsRecorder::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A recorder timed by an injected clock — pass a shared
    /// [`ManualClock`] to make histograms and traces replayable.
    pub fn with_clock(clock: Arc<dyn Clock>) -> MetricsRecorder {
        MetricsRecorder {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            phases: (0..PHASE_SLOTS).map(|_| Histogram::new()).collect(),
            trace: SpanTrace::new(DEFAULT_TRACE_CAPACITY),
            clock,
        }
    }

    /// A point-in-time counter snapshot, split per the determinism
    /// policy ([`SweepCounter::is_stable`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut stable = Vec::new();
        let mut observed = Vec::new();
        for counter in SweepCounter::ALL {
            let value = self.counters[counter as usize].load(Ordering::Relaxed);
            let entry = (counter.name().to_string(), value);
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
        for (phase, hist) in SweepPhase::ALL.iter().zip(&self.phases) {
            if !phases.is_empty() {
                phases.push_str(",\n    ");
            }
            let name = phase.name();
            phases.push_str(&format!("\"{name}\": {}", hist.snapshot().to_json()));
        }
        format!(
            "{{\n  \"counters\": {},  \"phases\": {{\n    {phases}\n  }}\n}}\n",
            self.snapshot().to_json()
        )
    }
}

impl SweepRecorder for MetricsRecorder {
    fn add(&self, counter: SweepCounter, delta: u64) {
        #[cfg(conformance_mutants)]
        if crate::mutants::active("telemetry_counter_drop")
            && matches!(counter, SweepCounter::OrbitSkipped)
        {
            return;
        }
        self.counters[counter as usize].fetch_add(delta, Ordering::Relaxed);
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

/// One worker's counts of one walk, one cell per [`SweepCounter`].
///
/// Every worker owns one and bumps it per item: plain cells no other
/// thread reads, no atomics, no locks, no branch on "is a recorder
/// attached". They are `Cell`s so the item's
/// [`ItemCtx`](super::ItemCtx) can count the views it stamps through a
/// shared reference. After the join the walk sums its workers' tallies
/// once, freezes the sum into its evidence as [`WalkCounts`] and, when one
/// is attached, adds it to the recorder.
#[derive(Debug, Default)]
pub struct WorkerTally {
    counts: [Cell<u64>; COUNTER_SLOTS],
}

impl WorkerTally {
    /// Adds `n` to `counter`.
    #[inline]
    pub(super) fn add(&self, counter: SweepCounter, n: u64) {
        let count = &self.counts[counter as usize];
        count.set(count.get() + n);
    }

    /// The tally's count of `counter`.
    pub(super) fn get(&self, counter: SweepCounter) -> u64 {
        self.counts[counter as usize].get()
    }

    /// One item handed to `inspect`, standing for `multiplicity` items.
    #[inline]
    pub(super) fn inspect(&self, multiplicity: u64) {
        self.add(SweepCounter::ItemsInspected, 1);
        self.add(SweepCounter::OrbitMultiplicity, multiplicity);
    }

    /// `n` items of a copy block jumped over: each counts as walked and
    /// orbit-skipped.
    #[inline]
    pub(super) fn jump(&self, n: u64) {
        self.add(SweepCounter::ItemsWalked, n);
        self.add(SweepCounter::OrbitSkipped, n);
    }

    /// Adds another worker's tally to this one.
    pub(super) fn absorb(&self, other: &WorkerTally) {
        for counter in SweepCounter::ALL {
            self.add(counter, other.get(counter));
        }
    }

    /// The tally's counts, frozen.
    pub(super) fn counts(&self) -> WalkCounts {
        WalkCounts(SweepCounter::ALL.map(|counter| self.get(counter)))
    }

    /// Adds the tally to `recorder`, if one is attached: once per walk,
    /// on the workers' summed tally.
    pub(super) fn flush(&self, recorder: Option<&dyn SweepRecorder>) {
        let Some(r) = recorder else { return };
        for counter in SweepCounter::ALL {
            r.add(counter, self.get(counter));
        }
    }
}

/// One walk's counts, one per [`SweepCounter`]: its workers' summed
/// [`WorkerTally`], carried in the walk's
/// [`ExecEvidence::counts`](super::ExecEvidence::counts). An attached
/// recorder gets the same numbers from the walk's one flush.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkCounts([u64; COUNTER_SLOTS]);

impl WalkCounts {
    /// The walk's count of `counter`.
    pub fn get(&self, counter: SweepCounter) -> u64 {
        self.0[counter as usize]
    }
}

/// Adds another walk's counts, as a resumed fragment sums its chain.
impl std::ops::AddAssign for WalkCounts {
    fn add_assign(&mut self, other: WalkCounts) {
        for (count, add) in self.0.iter_mut().zip(other.0) {
            *count += add;
        }
    }
}

#[cfg(test)]
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
        let tally = WorkerTally::default();
        tally.add(SweepCounter::ItemsWalked, 2);
        tally.add(SweepCounter::OrbitSkipped, 1);
        tally.inspect(6);
        tally.add(SweepCounter::VerdictDecisions, 4);
        tally.add(SweepCounter::VerdictRefreshes, 1);
        let helper = WorkerTally::default();
        helper.add(SweepCounter::VerdictReadbacks, 1);
        helper.add(SweepCounter::CacheHits, 9);
        tally.absorb(&helper);
        tally.flush(Some(&recorder));
        let snap = recorder.snapshot();
        assert_eq!(snap.get("items_walked"), Some(2));
        assert_eq!(snap.get("items_inspected"), Some(1));
        assert_eq!(snap.get("items_orbit_skipped"), Some(1));
        assert_eq!(snap.get("orbit_multiplicity"), Some(6));
        assert_eq!(snap.get("verdict_decisions"), Some(4));
        assert_eq!(snap.get("verdict_refreshes"), Some(1));
        assert_eq!(snap.get("verdict_readbacks"), Some(1));
        assert_eq!(snap.get("cache_hits"), Some(9));
    }

    #[test]
    fn concurrent_adds_sum_exactly() {
        let recorder = MetricsRecorder::new();
        std::thread::scope(|scope| {
            for t in 1..=4u64 {
                let recorder = &recorder;
                scope.spawn(move || {
                    for _ in 0..100 {
                        for counter in SweepCounter::ALL {
                            recorder.add(counter, t + counter as u64);
                        }
                    }
                });
            }
        });
        let snap = recorder.snapshot();
        for counter in SweepCounter::ALL {
            let expected = (1..=4u64).map(|t| 100 * (t + counter as u64)).sum();
            assert_eq!(
                snap.get(counter.name()),
                Some(expected),
                "{}",
                counter.name()
            );
        }
    }
}
