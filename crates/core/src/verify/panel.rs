//! The sweep engine: one odometer walk over a universe, evaluating every
//! member check per item.
//!
//! Every sweep runs here. A typed [`SweepSession::run`] is the engine over
//! one member of the check's own type; a fused
//! [`SweepSession::run_panel`] is the engine over [`DynPropertyCheck`]
//! members. The engine is generic over the member type, so a typed sweep
//! pays no erasure (no boxed partials, no vtable call per item), and a
//! panel shares between its members
//!
//! * **the walk** — one [odometer](super::executor) step per item,
//!   regardless of member count;
//! * **the skeleton cache** — the union of all members' view configs,
//!   built once;
//! * **verdict channels** — members that declared the same decoder via
//!   [`DynPropertyCheck::with_channel`] share one delta-maintained
//!   verdict vector and one verdict memo, so the decoder runs once per
//!   changed ball per item instead of once per member.
//!
//! One pass (channel setup, cache build, delta drivers, quotient plans,
//! the walk, the token merge) feeds three endings: a whole-range run
//! reduces it into reports, a fragment hands it un-reduced to the shard
//! merge, and the merge reduces a tiling of fragments. All three end in
//! the same per-member reduce, which also closes the lazy draw loop
//! behind [`super::LazySweep`].
//!
//! # Per-member short-circuit, budget, and resume
//!
//! Each member keeps its own frontier. A member whose partial
//! short-circuits *drops out of the walk* — later items skip it — while
//! the remaining members continue; the enumeration ends when every member
//! has stopped or the universe is exhausted. Counts keep sequential
//! semantics per member (see [`SweepOutcome::checked`]): a member that
//! stopped at its lowest deciding index `s` reports `checked = s + 1`.
//!
//! An expired [`SweepBudget`] ends the call: the deadline is checked
//! between items (sequential) or chunk claims (parallel), so the visited
//! set is always the contiguous prefix `[0, next)`; an interrupted call
//! hands back a continuation carrying the shared frontier plus every
//! member's partials and stop index, and the resumed chain reproduces the
//! uninterrupted call bit-for-bit.
//!
//! # Determinism
//!
//! For any member list, universe and options, every [`ExecMode`] produces
//! identical member verdicts, `checked` counts and witnesses. The
//! parallel walk guarantees this by
//!
//! 1. claiming fixed-size chunks of the index space from an atomic cursor
//!    (which items run on which thread varies — it doesn't matter);
//! 2. folding every member's short-circuiting index into an atomic
//!    minimum (`fetch_min`), never a "first to finish" race, with the walk
//!    horizon being the *maximum* over member stops (an item is only
//!    skippable when every member is past it);
//! 3. after joining, discarding each member's partials above its final
//!    stop and sorting the rest by index.
//!
//! Since [`PropertyCheck::inspect`] is a pure function of the item, the
//! surviving set equals exactly what the sequential loop records.
//!
//! # Resilience
//!
//! Every inspection runs under `catch_unwind` ([`guarded`]), so a
//! panicking check becomes a [`SweepError`] naming the item and the
//! member, never a poisoned walk or a dead worker thread. A panic
//! mid-patch leaves that channel's verdict scratch marked invalid, so the
//! next item recomputes from the odometer state, which engine code alone
//! maintains.
//!
//! [`SweepSession::run`]: super::SweepSession::run
//! [`SweepSession::run_panel`]: super::SweepSession::run_panel

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use super::budget::{MemberFrontier, PanelResumeToken, ResumeToken, SweepBudget, SweepError};
use super::check::{ExecEvidence, PropertyCheck, SweepOutcome, VerificationReport};
use super::erased::{DynPropertyCheck, ErasedPartial, ErasedVerdict, PanelVerdict, PropertyTag};
use super::executor::{
    refresh_verdicts, resolve_threads, DeltaDriver, ExecMode, ItemCtx, SkeletonCache,
    SweepFragment, SweepOpts, SweepStrategy, VerdictMemo, VerdictScratch, Walker,
};
use super::symmetry::QuotientPlan;
use super::telemetry::{SweepCounter, SweepPhase, SweepRecorder, WorkerTally};
use super::universe::{Block, Coverage, LabelSource, Universe, UniverseItem};
use crate::decoder::Decoder;
use crate::instance::Instance;
use crate::label::Labeling;
use crate::view::IdMode;

/// One member's slice of a [`PanelReport`].
#[derive(Debug)]
pub struct PanelMemberReport {
    /// The member's property tag.
    pub tag: PropertyTag,
    /// The member's label.
    pub label: String,
    /// The member's verdict (reduce output plus summary).
    pub verdict: PanelVerdict,
    /// Items this member inspected, with sequential semantics (see
    /// [`SweepOutcome::checked`]'s panel paragraph).
    pub checked: usize,
    /// Whether this member short-circuited out of the walk.
    pub short_circuited: bool,
    /// Whether the budget ended the walk before this member was done
    /// (a short-circuited member is complete, not interrupted).
    pub interrupted: bool,
    /// The member's own coverage: the universe's, downgraded to
    /// [`Coverage::Sampled`] when this member was interrupted or errored.
    pub coverage: Coverage,
    /// This member's inspection errors, sorted by item index.
    pub errors: Vec<SweepError>,
}

/// The result of one fused panel: per-member verdicts plus the shared
/// execution evidence of the single walk.
#[derive(Debug)]
pub struct PanelReport {
    /// Per-member results, in input member order.
    pub members: Vec<PanelMemberReport>,
    /// Evidence of the shared walk. `checked` is the walk's reach (how
    /// far the enumeration went before every member stopped, the budget
    /// fired, or the universe ended); `short_circuited` means *every*
    /// member stopped early; `errors` is the merged, index-sorted union
    /// of all member errors (one entry per member per erroring item).
    pub evidence: ExecEvidence,
}

impl PanelReport {
    /// Tags and summarizes the engine's per-member reports.
    pub(super) fn assemble(
        checks: &[DynPropertyCheck<'_>],
        members: Vec<VerificationReport<ErasedVerdict>>,
        evidence: ExecEvidence,
    ) -> PanelReport {
        let members = checks
            .iter()
            .zip(members)
            .map(|(check, report)| {
                let (passed, detail) = check.summarize(&*report.verdict);
                let label = check.label().to_string();
                PanelMemberReport {
                    tag: check.tag(),
                    label: label.clone(),
                    verdict: PanelVerdict::new(check.tag(), label, passed, detail, report.verdict),
                    checked: report.evidence.checked,
                    short_circuited: report.evidence.short_circuited,
                    interrupted: report.evidence.interrupted,
                    coverage: report.evidence.coverage,
                    errors: report.evidence.errors,
                }
            })
            .collect();
        PanelReport { members, evidence }
    }
}

/// A budgeted panel's result: the (possibly partial) report plus the
/// continuation when the budget interrupted the walk.
pub struct BudgetedPanel {
    /// The report. When `report.evidence.interrupted` is set, member
    /// verdicts cover only the visited prefix.
    pub report: PanelReport,
    /// `Some` exactly when the walk was interrupted; feed it to
    /// [`SweepSession::resume_panel`](super::SweepSession::resume_panel)
    /// to continue.
    pub resume: Option<PanelResumeToken>,
}

/// One shard's slice of a fused panel: the un-reduced per-member walk
/// state over the contiguous index range `[lo, hi)`. Produced by
/// [`SweepSession::run_panel_fragment`](super::SweepSession::run_panel_fragment),
/// consumed by
/// [`merge_panel_fragments`](super::shard::merge_panel_fragments).
///
/// `P` is the members' partial type: type-erased for a panel; the engine
/// produces a typed sweep's [`SweepFragment`] on the same shape with one
/// member.
#[derive(Debug)]
pub struct PanelFragment<P = ErasedPartial> {
    /// Range start (inclusive flat index).
    pub lo: usize,
    /// Range end (exclusive flat index).
    pub hi: usize,
    /// First index in `[lo, hi)` not visited; `hi` when the walk covered
    /// the whole range (or every member stopped inside it).
    pub next: usize,
    /// Per-member frontiers, in member order: each member's local stop
    /// index, partials and errors.
    pub members: Vec<MemberFrontier<P>>,
}

impl<P> PanelFragment<P> {
    /// Whether the fragment's range is fully decided: the walk reached
    /// `hi`, or every member short-circuited inside the range.
    pub fn is_complete(&self) -> bool {
        self.next >= self.hi || self.members.iter().all(|m| m.stop_at.is_some())
    }

    /// The continuation of an incomplete (budget-interrupted) fragment.
    /// Feed it to
    /// [`SweepSession::resume_panel_fragment`](super::SweepSession::resume_panel_fragment)
    /// on a session with the same shard to finish the range.
    pub fn into_resume_token(self) -> PanelResumeToken<P> {
        PanelResumeToken {
            next_index: self.next,
            members: self.members,
        }
    }
}

/// What the engine needs of a member beyond [`PropertyCheck`]: the key of
/// the verdict channel it shares with other members.
pub(super) trait Member: PropertyCheck {
    /// Members with equal keys share one verdict channel; `None` gets a
    /// private one.
    fn channel_key(&self) -> Option<usize> {
        None
    }
}

/// A typed sweep's one member.
impl<C: PropertyCheck> Member for &C {}

impl Member for DynPropertyCheck<'_> {
    fn channel_key(&self) -> Option<usize> {
        DynPropertyCheck::channel_key(self)
    }
}

/// The engine's per-member walk record: its short-circuit index (`None`
/// while it is still active) plus its partials and errors, each sorted by
/// item index.
impl<P> MemberFrontier<P> {
    pub(super) fn new() -> MemberFrontier<P> {
        MemberFrontier {
            stop_at: None,
            partials: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Files one guarded inspection of item `i`; returns whether its
    /// partial short-circuits the member.
    #[inline]
    fn file<C: PropertyCheck<Partial = P>>(
        &mut self,
        check: &C,
        i: usize,
        result: Result<Option<P>, SweepError>,
    ) -> bool {
        match result {
            Ok(Some(partial)) => {
                let stop = check.short_circuits(&partial);
                self.partials.push((i, partial));
                stop
            }
            Ok(None) => false,
            Err(err) => {
                self.errors.push(err);
                false
            }
        }
    }

    /// Sorts the records by index and drops everything past the member's
    /// stop, restoring the sequential walk's invariants.
    pub(super) fn settle(&mut self) {
        self.partials.sort_by_key(|&(i, _)| i);
        self.errors.sort_by_key(|e| e.item_index);
        if let Some(s) = self.stop_at {
            self.partials.retain(|&(i, _)| i <= s);
            self.errors.retain(|e| e.item_index <= s);
        }
    }
}

/// A typed token is the one member's record; it only ever describes a
/// member that has not stopped (a stopped sweep is complete).
impl<P> From<ResumeToken<P>> for PanelResumeToken<P> {
    fn from(t: ResumeToken<P>) -> Self {
        PanelResumeToken {
            next_index: t.next_index,
            members: vec![MemberFrontier {
                stop_at: None,
                partials: t.partials,
                errors: t.errors,
            }],
        }
    }
}

impl<P> From<PanelResumeToken<P>> for ResumeToken<P> {
    fn from(mut t: PanelResumeToken<P>) -> Self {
        let f = t.members.pop().expect("a typed token has one member");
        ResumeToken {
            next_index: t.next_index,
            partials: f.partials,
            errors: f.errors,
        }
    }
}

impl<P> From<SweepFragment<P>> for PanelFragment<P> {
    fn from(f: SweepFragment<P>) -> Self {
        PanelFragment {
            lo: f.lo,
            hi: f.hi,
            next: f.next,
            members: vec![MemberFrontier {
                stop_at: f.stop_at,
                partials: f.partials,
                errors: f.errors,
            }],
        }
    }
}

impl<P> From<PanelFragment<P>> for SweepFragment<P> {
    fn from(mut f: PanelFragment<P>) -> Self {
        let m = f.members.pop().expect("a typed fragment has one member");
        SweepFragment {
            lo: f.lo,
            hi: f.hi,
            next: f.next,
            stop_at: m.stop_at,
            partials: m.partials,
            errors: m.errors,
        }
    }
}

/// One engine call's settings, as the session resolved them.
#[derive(Clone, Copy)]
pub(super) struct Walk<'a> {
    pub(super) universe: &'a Universe,
    pub(super) mode: ExecMode,
    pub(super) opts: SweepOpts,
    pub(super) budget: SweepBudget,
    pub(super) recorder: Option<&'a dyn SweepRecorder>,
    /// The span enclosing the call: `"sweep"` for typed sweeps, `"panel"`
    /// for panels.
    pub(super) span: &'static str,
}

/// A whole-range call's result: one report per member, the walk-level
/// evidence, and the continuation when the budget interrupted the walk
/// (and the caller asked for one).
pub(super) struct Run<V, P> {
    pub(super) members: Vec<VerificationReport<V>>,
    pub(super) evidence: ExecEvidence,
    pub(super) resume: Option<PanelResumeToken<P>>,
}

/// A reduce's output: one report per member plus the walk-level evidence.
pub(super) type Reduced<V> = (Vec<VerificationReport<V>>, ExecEvidence);

/// Clones a member's partial into a continuation.
pub(super) type Keep<C> = fn(&C, &<C as PropertyCheck>::Partial) -> <C as PropertyCheck>::Partial;

/// The walk counters the reduce copies into the evidence. A live walk
/// loads them from its atomics; the shard merge and the lazy draw loop
/// pass their own (the merge has no walk: zeros — those counters are
/// observed, not stable, so the stable report rendering never reads them).
#[derive(Default)]
pub(super) struct WalkStats {
    pub(super) threads: usize,
    pub(super) cache_hits: usize,
    pub(super) cache_misses: usize,
    pub(super) memo_hits: usize,
    pub(super) memo_misses: usize,
}

/// Runs `checks` over the session's range from `token` and reduces every
/// member. `keep` builds the continuation when the budget interrupts the
/// walk; without it none is built (and partials need not be clonable).
pub(super) fn run<C: Member>(
    walk: &Walk<'_>,
    checks: &[C],
    token: PanelResumeToken<C::Partial>,
    keep: Option<Keep<C>>,
) -> Run<C::Verdict, C::Partial> {
    let start = Instant::now();
    let universe = walk.universe;
    let n = universe.len();
    if checks.is_empty() {
        let stats = WalkStats {
            threads: 1,
            ..WalkStats::default()
        };
        let (members, evidence) = reduce(
            checks,
            universe,
            n,
            Vec::new(),
            0,
            false,
            stats,
            None,
            start,
        );
        return Run {
            members,
            evidence,
            resume: None,
        };
    }
    if let Some(r) = walk.recorder {
        r.span_enter(walk.span);
    }
    let pass = pass(walk, checks, token, n, start);
    let interrupted = !all_stopped(&pass.members) && pass.next < n;
    let resume = keep.filter(|_| interrupted).map(|keep| PanelResumeToken {
        next_index: pass.next,
        members: checks
            .iter()
            .zip(&pass.members)
            .map(|(check, f)| MemberFrontier {
                stop_at: f.stop_at,
                partials: f
                    .partials
                    .iter()
                    .map(|(i, p)| (*i, keep(check, p)))
                    .collect(),
                errors: f.errors.clone(),
            })
            .collect(),
    });
    if interrupted {
        walk.budget.note_interruption(walk.recorder);
    }
    let (members, evidence) = reduce(
        checks,
        universe,
        n,
        pass.members,
        pass.next,
        interrupted,
        pass.stats,
        walk.recorder,
        start,
    );
    if let Some(r) = walk.recorder {
        r.span_exit(walk.span);
    }
    Run {
        members,
        evidence,
        resume,
    }
}

/// Runs one shard's pass over `[lo, hi)` without reducing: the fragment
/// carries everything the merge needs. A budget applies to this call
/// alone (`max_items` caps this shard's items; `deadline` is wall-clock
/// from this call), and a budget stop inside the range counts as a budget
/// interruption.
pub(super) fn fragment<C: Member>(
    walk: &Walk<'_>,
    checks: &[C],
    mut token: PanelResumeToken<C::Partial>,
    lo: usize,
    hi: usize,
) -> PanelFragment<C::Partial> {
    let hi = hi.min(walk.universe.len());
    if checks.is_empty() {
        return PanelFragment {
            lo,
            hi,
            next: hi,
            members: Vec::new(),
        };
    }
    let start = Instant::now();
    if let Some(r) = walk.recorder {
        r.span_enter(walk.span);
    }
    token.next_index = token.next_index.max(lo);
    let pass = pass(walk, checks, token, hi, start);
    if !all_stopped(&pass.members) && pass.next < hi {
        walk.budget.note_interruption(walk.recorder);
    }
    if let Some(r) = walk.recorder {
        r.span_exit(walk.span);
    }
    PanelFragment {
        lo,
        hi,
        next: pass.next,
        members: pass.members,
    }
}

/// Whether every member short-circuited (an empty member list never
/// does).
fn all_stopped<P>(members: &[MemberFrontier<P>]) -> bool {
    !members.is_empty() && members.iter().all(|f| f.stop_at.is_some())
}

/// A member's `checked` count with sequential semantics: how far its
/// visited prefix reaches.
fn member_checked(stop_at: Option<usize>, next: usize) -> usize {
    match stop_at {
        #[cfg(conformance_mutants)]
        Some(s) if crate::mutants::active("checked_off_by_one") => s,
        Some(s) => s + 1,
        None => next,
    }
}

/// The per-member reduce shared by whole-range runs, the shard merge and
/// the lazy draw loop: folds each member's records (sorted, retention
/// filtered, `stop_at` the member's global stop) into its verdict, then
/// assembles each member's report and the walk-level evidence. `n` is the
/// universe size the reports state (the draw count for a lazy sweep).
#[allow(clippy::too_many_arguments)] // the args are the walk's state, not a config
pub(super) fn reduce<C: PropertyCheck>(
    checks: &[C],
    universe: &Universe,
    n: usize,
    members: Vec<MemberFrontier<C::Partial>>,
    next: usize,
    interrupted: bool,
    stats: WalkStats,
    recorder: Option<&dyn SweepRecorder>,
    start: Instant,
) -> Reduced<C::Verdict> {
    let coverage = |sampled: bool| {
        if sampled {
            Coverage::Sampled
        } else {
            universe.coverage()
        }
    };
    let short_circuited = all_stopped(&members);
    let walk_checked = match members.iter().filter_map(|f| f.stop_at).max() {
        Some(s) if short_circuited => s + 1,
        _ => next,
    };
    let mut errors: Vec<SweepError> = members
        .iter()
        .flat_map(|f| f.errors.iter().cloned())
        .collect();
    errors.sort_by_key(|e| e.item_index);

    let reduce_start = recorder.map(|r| r.now_micros());
    let verdicts: Vec<_> = checks
        .iter()
        .zip(members)
        .map(|(check, f)| {
            let outcome = SweepOutcome {
                checked: member_checked(f.stop_at, next),
                universe_size: n,
                short_circuited: f.stop_at.is_some(),
            };
            let verdict = check.reduce(universe, f.partials, &outcome);
            (verdict, outcome, f.errors)
        })
        .collect();
    if let (Some(r), Some(t0)) = (recorder, reduce_start) {
        r.record_phase(SweepPhase::Reduce, r.now_micros().saturating_sub(t0));
    }
    let interner = checks.iter().find_map(|check| check.interner_report());
    if let (Some(r), Some(report)) = (recorder, &interner) {
        report.record_into(r);
    }

    let evidence = ExecEvidence {
        checked: walk_checked,
        universe_size: n,
        short_circuited,
        interrupted,
        coverage: coverage(interrupted || !errors.is_empty()),
        errors,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        memo_hits: stats.memo_hits,
        memo_misses: stats.memo_misses,
        elapsed: start.elapsed(),
        threads: stats.threads,
        interner,
    };
    let reports = verdicts
        .into_iter()
        .map(|(verdict, outcome, errors)| {
            let interrupted = interrupted && !outcome.short_circuited;
            VerificationReport {
                verdict,
                evidence: ExecEvidence {
                    checked: outcome.checked,
                    short_circuited: outcome.short_circuited,
                    interrupted,
                    coverage: coverage(interrupted || !errors.is_empty()),
                    errors,
                    ..evidence.clone()
                },
            }
        })
        .collect();
    (reports, evidence)
}

/// The engine's per-item step: one inspection under panic isolation.
///
/// `AssertUnwindSafe` is justified because `inspect` is required to be a
/// pure function of the item, and the walker's odometer state is only
/// mutated by engine code *before* the guarded region — a panic inside
/// the decoder or the check invalidates the verdict scratch but leaves
/// the odometer consistent.
fn guarded<P>(i: usize, inspect: impl FnOnce() -> Option<P>) -> Result<Option<P>, SweepError> {
    catch_unwind(AssertUnwindSafe(inspect)).map_err(|payload| SweepError::from_panic(i, payload))
}

/// The member's recorded stop index for a short-circuit at item `i`.
fn stop_index(i: usize) -> usize {
    #[cfg(conformance_mutants)]
    if crate::mutants::active("panel_frontier_off_by_one") {
        return i + 1;
    }
    i
}

/// Each member's stop index (`usize::MAX` = still active), as a walk
/// keeps them: plain cells on the sequential walk, atomics folded with
/// `fetch_min` on the parallel one.
trait Stops {
    /// Whether member `m` still inspects item `i`.
    fn active(&self, m: usize, i: usize) -> bool;
    /// Records member `m`'s short-circuit at item `i`.
    fn stop(&self, m: usize, i: usize);
}

// The walks are generic over the member type and so compile in the
// caller's crate; `#[inline]` lets these per-item checks follow them.
impl Stops for [Cell<usize>] {
    #[inline]
    fn active(&self, m: usize, _i: usize) -> bool {
        self[m].get() == usize::MAX
    }

    #[inline]
    fn stop(&self, m: usize, i: usize) {
        self[m].set(stop_index(i));
    }
}

impl Stops for [AtomicUsize] {
    #[inline]
    fn active(&self, m: usize, i: usize) -> bool {
        i <= self[m].load(Ordering::Relaxed)
    }

    #[inline]
    fn stop(&self, m: usize, i: usize) {
        self[m].fetch_min(stop_index(i), Ordering::Relaxed);
    }
}

/// Immutable per-walk state shared by every worker thread.
struct Engine<'e, C> {
    checks: &'e [C],
    universe: &'e Universe,
    cache: &'e SkeletonCache,
    /// One delta driver per verdict channel.
    drivers: Vec<DeltaDriver<'e>>,
    /// One plan per member, in member order.
    plans: Vec<MemberPlan>,
    hits: &'e AtomicUsize,
    misses: &'e AtomicUsize,
    memo_hits: &'e AtomicUsize,
    memo_misses: &'e AtomicUsize,
    memo_on: bool,
    oracle: bool,
    recorder: Option<&'e dyn SweepRecorder>,
}

/// How the walk treats one member.
struct MemberPlan {
    /// `channel[b]`: the verdict channel the member reads on block `b`,
    /// `None` where it runs the plain `inspect`.
    channel: Vec<Option<usize>>,
    /// The member's symmetry-quotient plan, when the walk runs under
    /// [`SweepStrategy::Quotient`] and the member opted in.
    quotient: Option<QuotientPlan>,
}

/// A worker thread's mutable state: one odometer walker feeding one
/// verdict scratch + memo per channel, plus the thread's telemetry
/// tally. Tallies count *member evaluations*: each (item, active member)
/// pair is one walk, resolving to one inspect or one orbit skip — so
/// `items_inspected + items_orbit_skipped == items_walked` holds
/// member-summed, and a one-member walk tallies one walk per item.
struct Worker {
    walker: Walker,
    channels: Vec<(VerdictScratch, VerdictMemo)>,
    tally: WorkerTally,
}

impl Worker {
    fn new(channels: usize, memo_on: bool) -> Worker {
        Worker {
            walker: Walker::default(),
            channels: (0..channels)
                .map(|_| (VerdictScratch::default(), VerdictMemo::new(memo_on)))
                .collect(),
            tally: WorkerTally::default(),
        }
    }

    /// Folds the worker's memo counters into the walk totals and its
    /// telemetry tally into the attached recorder (if any).
    fn flush<C>(&self, engine: &Engine<'_, C>) {
        for (_, memo) in &self.channels {
            engine.memo_hits.fetch_add(memo.hits, Ordering::Relaxed);
            engine.memo_misses.fetch_add(memo.misses, Ordering::Relaxed);
        }
        self.tally.flush(engine.recorder);
    }
}

impl<C: PropertyCheck> Engine<'_, C> {
    /// Advances the walker to item `i` (or decodes it, on the oracle
    /// strategy) and inspects every member still active at `i`, filing
    /// each guarded result into the member's record and its stop into
    /// `stops`. A verdict channel is refreshed at most once per item — the
    /// first member to need it pays the delta patch, the rest read it
    /// back.
    fn run_item<S: Stops + ?Sized>(
        &self,
        worker: &mut Worker,
        i: usize,
        stops: &S,
        records: &mut [MemberFrontier<C::Partial>],
    ) {
        if self.oracle {
            let buf = self.universe.item(i);
            let ctx = ItemCtx::new(
                buf.block,
                self.cache,
                self.hits,
                self.misses,
                self.memo_on,
                1,
            );
            for (m, (check, record)) in self.checks.iter().zip(records).enumerate() {
                if !stops.active(m, i) {
                    continue;
                }
                worker.tally.walk();
                worker.tally.inspect(1);
                let result = guarded(i, || check.inspect(&buf.as_item(), &ctx));
                if record.file(check, i, result) {
                    stops.stop(m, i);
                }
            }
            return;
        }
        let (block, offset) = self.universe.locate(i);
        let Worker {
            walker,
            channels,
            tally,
        } = worker;
        let stepped = walker.advance_to(self.universe, block, offset);
        let members = self.checks.iter().zip(&self.plans).zip(records);
        for (m, ((check, plan), record)) in members.enumerate() {
            if !stops.active(m, i) {
                continue;
            }
            tally.walk();
            // Quotient strategy: a member whose plan rejects this item as a
            // non-canonical orbit member skips it entirely; the odometer
            // still stepped, and its verdict channel refreshes lazily at
            // its next canonical item.
            let mut multiplicity = 1u64;
            if let Some(quotient) = &plan.quotient {
                match quotient.classify(block, &walker.digits) {
                    Some(mult) => multiplicity = mult,
                    None => {
                        tally.orbit_skip();
                        continue;
                    }
                }
            }
            tally.inspect(multiplicity);
            let ctx = ItemCtx::new(
                block,
                self.cache,
                self.hits,
                self.misses,
                self.memo_on,
                multiplicity,
            );
            let instance = self.universe.blocks()[block].instance();
            let result = guarded(i, || match plan.channel[block] {
                Some(c) => {
                    let (scratch, memo) = &mut channels[c];
                    refresh_verdicts(
                        &self.drivers[c],
                        self.cache,
                        block,
                        offset,
                        walker,
                        scratch,
                        memo,
                        tally,
                        stepped,
                    );
                    let item = UniverseItem {
                        index: i,
                        block,
                        instance,
                        labeling: &walker.labeling,
                        digits: Some(&walker.digits),
                    };
                    check.inspect_with_verdicts(&item, &scratch.verdicts, &ctx)
                }
                None => {
                    let item = UniverseItem {
                        index: i,
                        block,
                        instance,
                        labeling: &walker.labeling,
                        digits: (!walker.digits.is_empty()).then_some(walker.digits.as_slice()),
                    };
                    check.inspect(&item, &ctx)
                }
            });
            if record.file(check, i, result) {
                stops.stop(m, i);
            }
        }
    }
}

/// One capped pass's output: each member's merged, settled record plus
/// the walk's counters.
struct Pass<P> {
    members: Vec<MemberFrontier<P>>,
    /// First index not visited by the walk.
    next: usize,
    stats: WalkStats,
}

/// One capped pass: channel setup, cache build, the walk over
/// `[token.next_index, min(next_index + max_items, limit))`, counter
/// flushing, and the token merge + per-member retention. Emits every
/// recorder event of a call except the enclosing span and the reduce
/// phase, which the callers own.
fn pass<C: Member>(
    walk: &Walk<'_>,
    checks: &[C],
    token: PanelResumeToken<C::Partial>,
    limit: usize,
    start: Instant,
) -> Pass<C::Partial> {
    let Walk {
        universe,
        mode,
        opts,
        budget,
        recorder,
        ..
    } = *walk;
    let nmem = checks.len();
    assert_eq!(
        token.members.len(),
        nmem,
        "resume token describes a different member list"
    );
    let deadline = budget.deadline.map(|d| start + d);
    let oracle = opts.strategy == SweepStrategy::DecodeOracle;
    let cache_start = recorder.map(|r| r.now_micros());

    // Verdict channels: members with equal channel keys share a slot;
    // members with a decoder but no key get a private slot; the decode
    // oracle strategy runs everything through plain `inspect`.
    let mut configs: Vec<(usize, IdMode)> = Vec::new();
    for check in checks {
        configs.extend(check.view_configs());
    }
    let mut member_channel: Vec<Option<usize>> = vec![None; nmem];
    let mut decoders: Vec<&dyn Decoder> = Vec::new();
    let mut keyed: Vec<(usize, usize)> = Vec::new();
    if !oracle {
        for (m, check) in checks.iter().enumerate() {
            let Some(d) = check.verdict_decoder() else {
                continue;
            };
            let shared = check
                .channel_key()
                .and_then(|key| keyed.iter().find(|&&(k, _)| k == key).map(|&(_, c)| c));
            let channel = shared.unwrap_or_else(|| {
                let c = decoders.len();
                decoders.push(d);
                if let Some(key) = check.channel_key() {
                    keyed.push((key, c));
                }
                c
            });
            member_channel[m] = Some(channel);
            // The delta path stamps the decoder's views off the cache;
            // make sure its configuration is cached even if the check
            // forgot to list it.
            configs.push((d.radius(), d.id_mode()));
        }
    }
    let cache = SkeletonCache::build(universe, configs);
    if let (Some(r), Some(t0)) = (recorder, cache_start) {
        r.record_phase(SweepPhase::CacheBuild, r.now_micros().saturating_sub(t0));
    }
    let blocks = universe.blocks().len();
    let reads_verdicts: Vec<Vec<bool>> = checks
        .iter()
        .zip(&member_channel)
        .map(|(check, channel)| match channel {
            Some(_) => (0..blocks).map(|b| check.uses_verdicts(b)).collect(),
            None => Vec::new(),
        })
        .collect();
    let drivers: Vec<DeltaDriver<'_>> = decoders
        .iter()
        .enumerate()
        .map(|(c, &d)| {
            DeltaDriver::build(d, universe, &cache, |b| {
                (0..nmem).any(|m| member_channel[m] == Some(c) && reads_verdicts[m][b])
            })
        })
        .collect();
    let plans: Vec<MemberPlan> = checks
        .iter()
        .zip(member_channel.iter().zip(&reads_verdicts))
        .map(|(check, (&channel, reads))| {
            let channel = match channel {
                Some(c) => {
                    #[cfg(conformance_mutants)]
                    let c = if drivers.len() > 1 && crate::mutants::active("panel_channel_swap") {
                        (c + 1) % drivers.len()
                    } else {
                        c
                    };
                    (0..blocks)
                        .map(|b| (reads[b] && drivers[c].verdict_blocks[b]).then_some(c))
                        .collect()
                }
                None => vec![None; blocks],
            };
            let quotient = (opts.strategy == SweepStrategy::Quotient)
                .then(|| QuotientPlan::build(universe, |alphabet| check.symmetry_class(alphabet)))
                .flatten();
            MemberPlan { channel, quotient }
        })
        .collect();
    let hits = AtomicUsize::new(0);
    let misses = AtomicUsize::new(cache.populated);
    let memo_hits = AtomicUsize::new(0);
    let memo_misses = AtomicUsize::new(0);
    let engine = Engine {
        checks,
        universe,
        cache: &cache,
        drivers,
        plans,
        hits: &hits,
        misses: &misses,
        memo_hits: &memo_hits,
        memo_misses: &memo_misses,
        memo_on: opts.memo,
        oracle,
        recorder,
    };

    let begin = token.next_index.min(limit);
    // `max_items` is enforced by clamping the walk's end index, which
    // makes it exact — and identical — in every execution mode.
    let end = match budget.max_items {
        Some(m) => begin.saturating_add(m).min(limit),
        None => limit,
    };
    let threads = resolve_threads(mode, end.saturating_sub(begin));
    // The walk extends the token's records in place: this pass's items
    // all lie past the token's.
    let mut members = token.members;
    let errors_before: usize = members.iter().map(|f| f.errors.len()).sum();

    let walk_start = recorder.map(|r| r.now_micros());
    let (stops, next) = if threads > 1 {
        run_parallel(&engine, threads, begin, end, deadline, &mut members)
    } else {
        run_sequential(&engine, begin, end, deadline, &mut members)
    };
    if let (Some(r), Some(t0)) = (recorder, walk_start) {
        r.record_phase(SweepPhase::Walk, r.now_micros().saturating_sub(t0));
    }
    if let Some(r) = recorder {
        let errors: usize = members.iter().map(|f| f.errors.len()).sum();
        r.add(SweepCounter::PanicsCaught, (errors - errors_before) as u64);
        r.add(SweepCounter::CacheHits, hits.load(Ordering::Relaxed) as u64);
        r.add(
            SweepCounter::CacheMisses,
            misses.load(Ordering::Relaxed) as u64,
        );
        r.add(
            SweepCounter::MemoHits,
            memo_hits.load(Ordering::Relaxed) as u64,
        );
        r.add(
            SweepCounter::MemoMisses,
            memo_misses.load(Ordering::Relaxed) as u64,
        );
        let quotient_blocks: u64 = engine
            .plans
            .iter()
            .filter_map(|plan| plan.quotient.as_ref())
            .map(|quotient| quotient.active_blocks())
            .sum();
        if quotient_blocks > 0 {
            r.add(SweepCounter::QuotientBlocks, quotient_blocks);
        }
    }

    // Settling restores the per-member sequential invariants.
    for (record, stop) in members.iter_mut().zip(stops) {
        record.stop_at = (stop != usize::MAX).then_some(stop);
        record.settle();
    }
    Pass {
        members,
        next,
        stats: WalkStats {
            threads,
            cache_hits: hits.load(Ordering::Relaxed),
            cache_misses: misses.load(Ordering::Relaxed),
            memo_hits: memo_hits.load(Ordering::Relaxed),
            memo_misses: memo_misses.load(Ordering::Relaxed),
        },
    }
}

/// The initial stop of each member (`usize::MAX` = still active).
fn stops_of<P>(records: &[MemberFrontier<P>]) -> impl Iterator<Item = usize> + '_ {
    records.iter().map(|f| f.stop_at.unwrap_or(usize::MAX))
}

/// The sequential walk over `[begin, end)`, appending to each member's
/// record: returns each member's final stop (`usize::MAX` = none) and the
/// first index not visited.
fn run_sequential<C: PropertyCheck>(
    engine: &Engine<'_, C>,
    begin: usize,
    end: usize,
    deadline: Option<Instant>,
    records: &mut [MemberFrontier<C::Partial>],
) -> (Vec<usize>, usize) {
    let mut worker = Worker::new(engine.drivers.len(), engine.memo_on);
    let stop_at: Vec<Cell<usize>> = stops_of(records).map(Cell::new).collect();
    let mut next = end;
    // Span bookkeeping (recorder-only): the sequential walk visits blocks
    // in order, so one `locate` per item — paid only when a recorder is
    // attached — detects every block transition.
    let mut span_block: Option<usize> = None;
    for i in begin..end {
        if stop_at.iter().all(|s| s.get() != usize::MAX) {
            break;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            next = i;
            break;
        }
        if let Some(r) = engine.recorder {
            let (block, _) = engine.universe.locate(i);
            if span_block != Some(block) {
                if let Some(b) = span_block {
                    r.span_exit(&format!("block:{b}"));
                }
                r.span_enter(&format!("block:{block}"));
                span_block = Some(block);
            }
        }
        engine.run_item(&mut worker, i, &stop_at[..], records);
    }
    if let (Some(r), Some(b)) = (engine.recorder, span_block) {
        r.span_exit(&format!("block:{b}"));
    }
    worker.flush(engine);
    (stop_at.into_iter().map(Cell::into_inner).collect(), next)
}

/// The parallel walk over `[begin, end)` on `threads` workers; same
/// output as [`run_sequential`].
#[cfg(feature = "parallel")]
fn run_parallel<C: PropertyCheck>(
    engine: &Engine<'_, C>,
    threads: usize,
    begin: usize,
    end: usize,
    deadline: Option<Instant>,
    records: &mut [MemberFrontier<C::Partial>],
) -> (Vec<usize>, usize) {
    let span = end - begin;
    // Chunks small enough that threads converge quickly on a low
    // short-circuit index, but with a floor: every chunk boundary costs
    // the claiming worker one odometer resync (a full decode plus, on the
    // delta path, a full verdict recompute), so tiny chunks would erase
    // the delta win.
    let chunk = (span / (threads * 8)).clamp(16, 1024);
    let cursor = AtomicUsize::new(begin);
    let stop_at: Vec<AtomicUsize> = stops_of(records).map(AtomicUsize::new).collect();
    // An item is skippable only when every member is past it: the walk's
    // horizon is the maximum member stop, unbounded while any member is
    // still active.
    let horizon = |stops: &[AtomicUsize]| -> usize {
        let mut h = 0usize;
        for s in stops {
            let v = s.load(Ordering::Relaxed);
            if v == usize::MAX {
                return usize::MAX;
            }
            h = h.max(v);
        }
        h
    };

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut worker = Worker::new(engine.drivers.len(), engine.memo_on);
                    let mut local: Vec<MemberFrontier<C::Partial>> = engine
                        .checks
                        .iter()
                        .map(|_| MemberFrontier::new())
                        .collect();
                    loop {
                        // The deadline is checked before claiming, and a
                        // claimed chunk always runs to completion — so
                        // the visited set stays the contiguous prefix
                        // [begin, cursor) and a continuation can describe
                        // it with one index.
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            break;
                        }
                        let claim = chunk;
                        #[cfg(conformance_mutants)]
                        let claim = if crate::mutants::active("chunk_claim_overlap") {
                            chunk - 1
                        } else {
                            claim
                        };
                        let start = cursor.fetch_add(claim, Ordering::Relaxed);
                        // The cursor only grows, so once a claimed chunk
                        // lies entirely past the horizon, all later claims
                        // will too.
                        if start >= end || start > horizon(&stop_at) {
                            break;
                        }
                        if let Some(r) = engine.recorder {
                            r.span_enter(&format!("chunk:{start}"));
                        }
                        for i in start..(start + chunk).min(end) {
                            if i > horizon(&stop_at) {
                                break;
                            }
                            engine.run_item(&mut worker, i, &stop_at[..], &mut local);
                        }
                        if let Some(r) = engine.recorder {
                            r.span_exit(&format!("chunk:{start}"));
                        }
                    }
                    worker.flush(engine);
                    local
                })
            })
            .collect();
        for w in workers {
            // invariant: member panics are caught per item by `guarded`,
            // so a worker can only die of an engine bug — propagate.
            let local = w.join().expect("sweep worker panicked");
            for (record, mut l) in records.iter_mut().zip(local) {
                record.partials.append(&mut l.partials);
                record.errors.append(&mut l.errors);
            }
        }
    });
    let stops: Vec<usize> = stop_at.iter().map(|s| s.load(Ordering::Relaxed)).collect();
    // Natural termination bumps the cursor past `end`; a deadline stop
    // leaves it at the first unclaimed index. Claimed chunks always
    // complete, so everything below this index was inspected.
    let next = if stops.iter().all(|&s| s != usize::MAX) {
        end
    } else {
        cursor.load(Ordering::Relaxed).min(end)
    };
    (stops, next)
}

#[cfg(not(feature = "parallel"))]
fn run_parallel<C: PropertyCheck>(
    engine: &Engine<'_, C>,
    _threads: usize,
    begin: usize,
    end: usize,
    deadline: Option<Instant>,
    records: &mut [MemberFrontier<C::Partial>],
) -> (Vec<usize>, usize) {
    run_sequential(engine, begin, end, deadline, records)
}

/// The lazy draw loop behind [`LazySweep`](super::LazySweep): pulls items
/// one at a time and inspects each with the engine's guarded step,
/// stopping the pull at the first short-circuit or budget expiry — so a
/// stateful source advances exactly `checked` times and memory stays
/// `O(1)` in the stream length.
///
/// Items whose instance is `None` are labelings of `fixed`, whose
/// skeleton cache is built once; an item carrying its own instance gets a
/// one-item cache on arrival. Because the stream length is unknown until
/// exhausted, the report's `universe_size` is the draw count, and
/// [`PropertyCheck::reduce`] receives a synthetic universe: the bare
/// `fixed` instance, or an empty universe without one.
pub(super) fn draw<C: PropertyCheck>(
    check: &C,
    fixed: Option<&Instance>,
    items: impl IntoIterator<Item = (Option<Instance>, Labeling)>,
    coverage: Coverage,
    budget: &SweepBudget,
) -> VerificationReport<C::Verdict> {
    let start = Instant::now();
    let deadline = budget.deadline.map(|d| start + d);
    let configs = check.view_configs();
    let bare = |instance: Instance| {
        // invariant: one `Unlabeled` block contributes exactly one item,
        // far from overflowing the flat index space.
        let universe = Universe::new(vec![Block::new(instance, LabelSource::Unlabeled)], coverage)
            .expect("a single bare instance cannot overflow");
        let cache = SkeletonCache::build(&universe, configs.clone());
        (universe, cache)
    };
    let mut current = fixed.map(|instance| bare(instance.clone()));
    let hits = AtomicUsize::new(0);
    let misses = AtomicUsize::new(current.as_ref().map_or(0, |(_, cache)| cache.populated));
    let mut record = MemberFrontier::new();
    let mut drawn = 0usize;
    let mut interrupted = false;
    for (instance, labeling) in items {
        if budget.max_items.is_some_and(|m| drawn >= m)
            || deadline.is_some_and(|d| Instant::now() >= d)
        {
            interrupted = true;
            break;
        }
        if let Some(instance) = instance {
            let (universe, cache) = bare(instance);
            misses.fetch_add(cache.populated, Ordering::Relaxed);
            current = Some((universe, cache));
        }
        let (universe, cache) = current
            .as_ref()
            .expect("items without an instance are labelings of the fixed one");
        let item = UniverseItem {
            index: drawn,
            block: 0,
            instance: universe.blocks()[0].instance(),
            labeling: &labeling,
            digits: None,
        };
        let ctx = ItemCtx::new(0, cache, &hits, &misses, true, 1);
        drawn += 1;
        if record.file(
            check,
            item.index,
            guarded(item.index, || check.inspect(&item, &ctx)),
        ) {
            record.stop_at = Some(item.index);
            break;
        }
    }
    let universe = match (fixed, current) {
        (Some(_), Some((universe, _))) => universe,
        // invariant: zero blocks sum to zero items — overflow is impossible.
        _ => Universe::new(Vec::new(), coverage).expect("an empty universe cannot overflow"),
    };
    let stats = WalkStats {
        threads: 1,
        cache_hits: hits.load(Ordering::Relaxed),
        cache_misses: misses.load(Ordering::Relaxed),
        ..WalkStats::default()
    };
    let (mut reports, _) = reduce(
        std::slice::from_ref(check),
        &universe,
        drawn,
        vec![record],
        drawn,
        interrupted,
        stats,
        None,
        start,
    );
    reports.pop().expect("one member, one report")
}
