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
//!   changed ball per item instead of once per member;
//! * **quotient plans** — members whose symmetry declarations agree share
//!   one in-block orbit quotient, so an item is classified once per
//!   distinct declaration instead of once per member.
//!
//! One body ([`walk`]: cache build, delta drivers, quotient plans, the
//! chunk walk, the record settle) feeds three endings: a whole-universe
//! run is the fragment `[0, n)` walked and then reduced into reports, a
//! fragment walk hands its fragment un-reduced to the shard merge, and
//! the merge reduces a tiling of fragments. All three end in the same
//! per-member reduce, which also closes the lazy draw loop behind
//! [`super::LazySweep`].
//!
//! # One walk at every thread count
//!
//! [`walk_chunks`] is the only loop that claims chunks and steps items,
//! at every thread count and under both strategies: the calling thread is
//! its first worker, filing straight into the records, and
//! `threads - 1` workers run beside it, each into its own records, which
//! are folded into the walk's after the join, so a one-thread walk spawns
//! and copies nothing. A member that folds ([`PropertyCheck::fold`])
//! keeps its fold state, the keys its items claimed, in each worker's
//! record: no state is shared between workers and no lock is taken per
//! item. Each item goes through the one per-item step,
//! [`Engine::run_item`]. The decode oracle runs that same step with every
//! shortcut off (no copy jump, verdict channel, quotient or dense table)
//! and reaches each item by a full index decode instead of an odometer
//! step, so it stays the independent reference.
//!
//! # Per-member short-circuit, budget, and stopped walks
//!
//! Each member keeps its own frontier. A member whose partial
//! short-circuits *drops out of the walk* — later items skip it — while
//! the remaining members continue; the enumeration ends when every member
//! has stopped or the universe is exhausted. Counts keep sequential
//! semantics per member (see [`SweepOutcome::checked`]): a member that
//! stopped at its lowest deciding index `s` reports `checked = s + 1`.
//!
//! An expired [`SweepBudget`] ends the call: the deadline is checked at
//! each chunk claim, and a claimed chunk runs to its end, so the visited
//! set is always a contiguous prefix. A whole-universe run reports the
//! prefix as interrupted; a fragment walk hands back a [`PanelFragment`]
//! with `next < hi`, carrying the shared frontier plus every member's
//! partials and stop index. Walking on from that fragment and merging
//! reproduces the uninterrupted call bit-for-bit.
//!
//! # Determinism
//!
//! For any member list, universe and options, every
//! [`ExecMode`](super::ExecMode) produces
//! identical member verdicts, `checked` counts and witnesses. The walk
//! guarantees this by
//!
//! 1. claiming fixed-size chunks of the index space from an atomic cursor
//!    (which items run on which thread varies — it doesn't matter);
//! 2. folding every member's short-circuiting index into an atomic
//!    minimum (`fetch_min`), never a "first to finish" race, with the walk
//!    horizon being the *maximum* over member stops (an item is only
//!    skippable when every member is past it);
//! 3. after joining, keeping each folded key's lowest claim over the
//!    workers (and dropping the entries that no longer hold one),
//!    discarding each member's partials above its final stop and sorting
//!    the rest by index.
//!
//! Since [`PropertyCheck::inspect`] is a pure function of the item, the
//! surviving set equals exactly what an in-order walk of one worker
//! records.
//!
//! # Resilience
//!
//! Every inspection runs under `catch_unwind` ([`guarded`]), so a
//! panicking check becomes a [`SweepError`] naming the item and the
//! member, never a poisoned walk or a dead worker thread. A panic
//! mid-patch leaves that channel's verdict scratch marked invalid, so the
//! next item recomputes from the odometer state, which engine code alone
//! maintains, and the engine withdraws the keys the panicked item claimed
//! for a folding member.
//!
//! [`SweepSession::run`]: super::SweepSession::run
//! [`SweepSession::run_panel`]: super::SweepSession::run_panel

use std::collections::hash_map::Entry;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use super::budget::{Claims, MemberFrontier, SweepBudget, SweepError};
use super::check::{ExecEvidence, PropertyCheck, SweepOutcome, VerificationReport};
use super::erased::{DynPropertyCheck, ErasedPartial, ErasedVerdict, PanelVerdict};
use super::executor::{
    refresh_verdicts, resolve_threads, ClassTables, DeltaDriver, ItemCtx, SkeletonCache,
    SweepStrategy, VerdictScratch, Walker,
};
use super::session::SweepSession;
use super::shard::ShardSpec;
use super::symmetry::{BlockClasses, QuotientPlan, SymmetrySpec};
use super::telemetry::{SweepCounter, SweepPhase, SweepRecorder, WalkCounts, WorkerTally};
use super::universe::{Block, Coverage, LabelSource, Universe, UniverseItem};
use crate::decoder::Decoder;
use crate::instance::Instance;
use crate::label::{Certificate, Labeling};
use crate::view::IdMode;

/// The result of one fused panel: per-member verdicts plus the shared
/// execution evidence of the single walk.
#[derive(Debug)]
pub struct PanelReport {
    /// Per-member results, in input member order: each member's tagged
    /// verdict and its own evidence. A member's `checked` has sequential
    /// semantics (see [`SweepOutcome::checked`]'s panel paragraph); it is
    /// `interrupted` only if the budget ended the walk before the member
    /// was done (a short-circuited member is complete), and its coverage
    /// is the universe's, downgraded to [`Coverage::Sampled`] when the
    /// member was interrupted or errored.
    pub members: Vec<VerificationReport<PanelVerdict>>,
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
                let (passed, detail) = check.summarize(&*report.verdict, report.coverage);
                let label = check.label().to_string();
                report.map(|value| PanelVerdict::new(check.tag(), label, passed, detail, value))
            })
            .collect();
        PanelReport { members, evidence }
    }
}

/// The engine's one stopped-walk type: the un-reduced per-member walk
/// state over the contiguous index range `[lo, hi)` of one shard.
/// Produced by
/// [`SweepSession::run_panel_fragment`](super::SweepSession::run_panel_fragment)
/// and [`SweepSession::run_fragment`](super::SweepSession::run_fragment),
/// consumed by
/// [`merge_panel_fragments`](super::shard::merge_panel_fragments) and
/// [`merge_fragments`](super::shard::merge_fragments).
///
/// A walk the budget stopped early returns a fragment with `next < hi`;
/// [`SweepSession::resume_panel_fragment`](super::SweepSession::resume_panel_fragment)
/// (or [`resume_fragment`](super::SweepSession::resume_fragment)) walks
/// on from `next`, and a chain of such calls ends in the fragment one
/// uninterrupted walk of the range returns. The merge accepts only
/// complete fragments.
///
/// `P` is the members' partial type: type-erased for a panel; a typed
/// sweep's fragment has one member of the check's own partial type.
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
    /// What the walks that built this fragment counted, summed over a
    /// resumed chain; zero for a fragment nothing has walked yet.
    pub counts: WalkCounts,
}

impl<P> PanelFragment<P> {
    /// A fragment of `members` members whose walk has not started:
    /// `shard`'s range of an `n`-item universe, `next = lo`.
    pub(super) fn open(shard: ShardSpec, n: usize, members: usize) -> PanelFragment<P> {
        let (lo, hi) = shard.range(n);
        PanelFragment {
            lo,
            hi,
            next: lo,
            members: (0..members).map(|_| MemberFrontier::new()).collect(),
            counts: WalkCounts::default(),
        }
    }

    /// Whether the fragment's range is fully decided: the walk reached
    /// `hi`, or every member short-circuited inside the range.
    pub fn is_complete(&self) -> bool {
        self.next >= self.hi || self.members.iter().all(|m| m.stop_at.is_some())
    }
}

/// What the engine needs of a member beyond [`PropertyCheck`]: the span
/// enclosing a call over members of its type, and the key of the verdict
/// channel it shares with other members.
pub(super) trait Member: PropertyCheck {
    /// The span enclosing an engine call over members of this type.
    const SPAN: &'static str;

    /// Members with equal keys share one verdict channel; `None` gets a
    /// private one.
    fn channel_key(&self) -> Option<usize> {
        None
    }
}

/// A typed sweep's one member.
impl<C: PropertyCheck> Member for &C {
    const SPAN: &'static str = "sweep";
}

impl Member for DynPropertyCheck<'_> {
    const SPAN: &'static str = "panel";

    fn channel_key(&self) -> Option<usize> {
        DynPropertyCheck::channel_key(self)
    }
}

/// The engine's per-member walk record: its short-circuit index (`None`
/// while it is still active) plus its partials and errors, each sorted by
/// item index, and its fold claims.
impl<P> MemberFrontier<P> {
    pub(super) fn new() -> MemberFrontier<P> {
        MemberFrontier {
            stop_at: None,
            partials: Vec::new(),
            errors: Vec::new(),
            claims: Claims::default(),
        }
    }

    /// Item `i`'s member step ([`PropertyCheck::fold`]) under panic
    /// isolation, claiming keys into this record.
    #[inline]
    fn fold_item(
        &mut self,
        i: usize,
        fold: impl FnOnce(&mut dyn FnMut(u64) -> bool) -> Option<P>,
    ) -> Result<Option<P>, SweepError> {
        let claims = &mut self.claims;
        guarded(i, || {
            fold(&mut |key| match claims.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(i);
                    true
                }
                Entry::Occupied(_) => false,
            })
        })
    }

    /// Files one guarded inspection of item `i`, which stands for
    /// `multiplicity` universe items; returns whether its partial
    /// short-circuits the member. A panicked item's claims are withdrawn,
    /// so it leaves the fold as it found it.
    #[inline]
    fn file<C: PropertyCheck<Partial = P>>(
        &mut self,
        check: &C,
        i: usize,
        multiplicity: u64,
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
                self.claims.retain(|_, &mut at| at != i);
                self.errors.push(SweepError {
                    multiplicity,
                    ..err
                });
                false
            }
        }
    }

    /// Sorts the records by index and drops everything past the member's
    /// stop, restoring an in-order walk's invariants.
    pub(super) fn settle(&mut self) {
        self.partials.sort_by_key(|&(i, _)| i);
        self.errors.sort_by_key(|e| e.item_index);
        if let Some(s) = self.stop_at {
            self.partials.retain(|&(i, _)| i <= s);
            self.errors.retain(|e| e.item_index <= s);
            self.claims.retain(|_, &mut at| at <= s);
        }
    }

    /// Folds the helper workers' records into this one, the calling
    /// worker's, after the join: each key keeps the lowest item any worker
    /// claimed it at, and an entry whose claims another worker undercut on
    /// every key goes, so the record holds what one worker walking the
    /// same items in order would hold. Entries that claimed nothing (every
    /// entry of a member that keeps all its partials) all stay. Leaves the
    /// entries unsorted; [`MemberFrontier::settle`] sorts them.
    fn join(&mut self, helpers: Vec<MemberFrontier<P>>) {
        let claimed = |claims: &Claims| -> HashSet<usize> { claims.values().copied().collect() };
        let mine = claimed(&self.claims);
        for h in &helpers {
            for (&key, &at) in &h.claims {
                #[cfg(conformance_mutants)]
                if crate::mutants::active("fold_join_keeps_caller")
                    && self.claims.get(&key).is_some_and(|at| mine.contains(at))
                {
                    continue;
                }
                self.claims
                    .entry(key)
                    .and_modify(|kept| *kept = (*kept).min(at))
                    .or_insert(at);
            }
        }
        let kept = claimed(&self.claims);
        let survives = |i: usize, own: &HashSet<usize>| kept.contains(&i) || !own.contains(&i);
        self.partials.retain(|&(i, _)| survives(i, &mine));
        for mut h in helpers {
            let own = claimed(&h.claims);
            let partials = h.partials.into_iter().filter(|&(i, _)| survives(i, &own));
            self.partials.extend(partials);
            self.errors.append(&mut h.errors);
        }
    }
}

/// A reduce's output: one report per member plus the walk-level evidence.
pub(super) type Reduced<V> = (Vec<VerificationReport<V>>, ExecEvidence);

/// Runs `checks` over the whole universe and reduces every member: the
/// fragment `[0, n)`, walked and then reduced. A budget stop reports the
/// visited prefix as interrupted.
pub(super) fn run<C: Member>(session: &SweepSession<'_>, checks: &[C]) -> Reduced<C::Verdict> {
    let start = Instant::now();
    let universe = session.universe;
    let n = universe.len();
    let whole = PanelFragment::open(ShardSpec::new(0, 1), n, checks.len());
    walk(session, checks, whole, start, |walked, threads| {
        let interrupted = !walked.is_complete();
        reduce(
            checks,
            universe,
            n,
            walked.members,
            walked.next,
            interrupted,
            threads,
            walked.counts,
            session.recorder,
            start,
        )
    })
}

/// Walks `fragment` on from its `next` to its `hi` without reducing: the
/// returned fragment carries everything the merge needs, and its counts
/// add this walk's to the ones it came with. A budget applies to this
/// call alone (`max_items` caps the items it visits; `deadline` is
/// wall-clock from this call), and a budget stop inside the range counts
/// as a budget interruption.
pub(super) fn fragment<C: Member>(
    session: &SweepSession<'_>,
    checks: &[C],
    fragment: PanelFragment<C::Partial>,
) -> PanelFragment<C::Partial> {
    walk(session, checks, fragment, Instant::now(), |walked, _| {
        walked
    })
}

/// The one body of [`run`] and [`fragment`]: inside the call's span, the
/// engine walks `fragment` on from its `next` to its `hi` (capped by the
/// budget) and hands the walked fragment, its counts summed in, and the
/// walk's thread count to `finish`. Emits every recorder event of a call
/// except the reduce phase, which `finish` owns.
fn walk<C: Member, R>(
    session: &SweepSession<'_>,
    checks: &[C],
    fragment: PanelFragment<C::Partial>,
    start: Instant,
    finish: impl FnOnce(PanelFragment<C::Partial>, usize) -> R,
) -> R {
    let SweepSession {
        universe,
        mode,
        budget,
        recorder,
        ..
    } = *session;
    let PanelFragment {
        lo,
        hi,
        next,
        mut members,
        counts,
    } = fragment;
    let hi = hi.min(universe.len());
    if checks.is_empty() {
        let walked = PanelFragment {
            lo,
            hi,
            next: hi,
            members,
            counts,
        };
        return finish(walked, 1);
    }
    assert_eq!(
        members.len(),
        checks.len(),
        "fragment describes a different member list"
    );
    if let Some(r) = recorder {
        r.span_enter(C::SPAN);
    }
    let begin = next.max(lo).min(hi);
    // `max_items` is enforced by clamping the walk's end index, which
    // makes it exact — and identical — at every thread count.
    let end = match budget.max_items {
        Some(m) => begin.saturating_add(m).min(hi),
        None => hi,
    };
    let deadline = budget.deadline.map(|d| start + d);
    let (next, threads, tally) = with_engine(session, checks, |engine| {
        let threads = resolve_threads(mode, end - begin);
        // The walk extends the records in place: this call's items all
        // lie past the ones they hold.
        let errors_before: usize = members.iter().map(|f| f.errors.len()).sum();
        let walk_start = recorder.map(|r| r.now_micros());
        let (next, tally) = walk_chunks(engine, threads, begin, end, deadline, &mut members);
        if let (Some(r), Some(t0)) = (recorder, walk_start) {
            r.record_phase(SweepPhase::Walk, r.now_micros().saturating_sub(t0));
        }
        let errors: usize = members.iter().map(|f| f.errors.len()).sum();
        tally.add(SweepCounter::PanicsCaught, (errors - errors_before) as u64);
        tally.add(SweepCounter::CacheMisses, engine.cache.populated as u64);
        let quotient_blocks: u64 = engine
            .plans
            .iter()
            .filter_map(|plan| plan.quotient)
            .map(|q| engine.quotients[q].active_blocks())
            .sum();
        tally.add(SweepCounter::QuotientBlocks, quotient_blocks);
        (next, threads, tally)
    });
    let mut walked = PanelFragment {
        lo,
        hi,
        next,
        members,
        counts,
    };
    if !walked.is_complete() {
        tally.add(SweepCounter::BudgetInterruptions, 1);
    }
    tally.flush(recorder);
    walked.counts += tally.counts();
    let finished = finish(walked, threads);
    if let Some(r) = recorder {
        r.span_exit(C::SPAN);
    }
    finished
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
    threads: usize,
    counts: WalkCounts,
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
                errored: f.errors.iter().map(|e| e.multiplicity).sum(),
            };
            let verdict = check.reduce(universe, f.partials, &outcome);
            (verdict, outcome, f.errors)
        })
        .collect();
    if let (Some(r), Some(t0)) = (recorder, reduce_start) {
        r.record_phase(SweepPhase::Reduce, r.now_micros().saturating_sub(t0));
    }

    let evidence = ExecEvidence {
        checked: walk_checked,
        universe_size: n,
        short_circuited,
        interrupted,
        coverage: coverage(interrupted || !errors.is_empty()),
        errors,
        counts,
        elapsed: start.elapsed(),
        threads,
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

/// Immutable per-walk state shared by every worker thread.
struct Engine<'e, C> {
    checks: &'e [C],
    universe: &'e Universe,
    cache: &'e SkeletonCache,
    /// One delta driver per verdict channel.
    drivers: Vec<DeltaDriver<'e>>,
    /// Each member's view-id tables, in member order, built on the
    /// member's first lookup; none under the decode oracle.
    ids: Vec<OnceLock<ClassTables<AtomicU32>>>,
    /// One plan per member, in member order.
    plans: Vec<MemberPlan>,
    /// The distinct in-block orbit quotients: members whose symmetry
    /// declarations agree on every alphabet the walk visits share one.
    quotients: Vec<QuotientPlan>,
    /// The between-block classes: which blocks the walk jumps over as
    /// port-isomorphic copies, and what each walked block weighs.
    classes: BlockClasses,
    /// Whether the walk is the decode oracle's: every item reached by a
    /// full decode, and no copy jump, verdict channel, quotient or dense
    /// table.
    oracle: bool,
    recorder: Option<&'e dyn SweepRecorder>,
}

/// How the walk treats one member.
struct MemberPlan {
    /// `channel[b]`: the verdict channel the member reads on block `b`,
    /// `None` where it runs the plain `inspect`.
    channel: Vec<Option<usize>>,
    /// The member's in-block orbit quotient (an index into
    /// [`Engine::quotients`]), when the walk steps the odometer and the
    /// member declares a symmetry some walked block admits.
    quotient: Option<usize>,
}

/// A worker thread's mutable state: one odometer walker feeding one
/// verdict scratch per channel (the memo tables live in the channel's
/// `DeltaDriver`, shared by all workers), the block span and orbit
/// classifications of its last item, plus the worker's own tally of the
/// walk. Tallies count *member evaluations*: each (item, active member)
/// pair is one walk, resolving to one inspect or one orbit skip — so
/// `items_inspected + items_orbit_skipped == items_walked` holds
/// member-summed, and a one-member walk tallies one walk per item.
struct Worker {
    walker: Walker,
    channels: Vec<VerdictScratch>,
    /// `(lo, hi, block)`: the flat range `[lo, hi)` of the block the
    /// worker's last item lay in, so an item inside it is located without
    /// a search.
    span: (usize, usize, usize),
    /// `orbits[q]`: the item quotient `q` last classified and its
    /// classification, so members sharing a quotient classify an item once.
    orbits: Vec<(usize, Option<u64>)>,
    tally: WorkerTally,
}

impl Worker {
    fn new(channels: usize, quotients: usize) -> Worker {
        Worker {
            walker: Walker::default(),
            channels: (0..channels).map(|_| VerdictScratch::default()).collect(),
            span: (0, 0, 0),
            orbits: vec![(usize::MAX, None); quotients],
            tally: WorkerTally::default(),
        }
    }

    /// Item `i`'s `(block, offset)`: read off the worker's block span when
    /// `i` lies in it, otherwise located by [`Universe::locate`] (a chunk
    /// that does not continue the worker's last one, a block boundary, a
    /// copy jump or a replayed item), which moves the span to `i`'s block.
    fn locate(&mut self, universe: &Universe, i: usize) -> (usize, usize) {
        let (lo, hi, block) = self.span;
        if (lo..hi).contains(&i) {
            return (block, i - lo);
        }
        let (block, offset) = universe.locate(i);
        let lo = i - offset;
        self.span = (lo, lo + universe.blocks()[block].len(), block);
        (block, offset)
    }
}

impl<C: PropertyCheck> Engine<'_, C> {
    /// Moves the walker to item `i` (located off the worker's block span,
    /// [`Worker::locate`]) and inspects every member still
    /// active at `i` (`i` at or below its stop in `stops`, where
    /// `usize::MAX` means none yet), filing each guarded result into the
    /// member's record and folding a short-circuit into its stop with
    /// `fetch_min`. The delta path steps the odometer and refreshes a
    /// verdict channel at most once per item — the first member to need
    /// it pays the delta patch, the rest read it back; the decode oracle
    /// reaches the item by a full decode and runs every member's plain
    /// `inspect`. Returns the next index to visit: `i + 1`, or the end of
    /// a copy block (capped at `end`) when `i` lies in one. A copy records
    /// nothing its class's first block does not already record at a lower
    /// index, so its items are jumped, each counted as walked and skipped
    /// for every active member.
    fn run_item(
        &self,
        worker: &mut Worker,
        i: usize,
        end: usize,
        stops: &[AtomicUsize],
        records: &mut [MemberFrontier<C::Partial>],
    ) -> usize {
        let active = |m: usize| i <= stops[m].load(Ordering::Relaxed);
        let (block, offset) = worker.locate(self.universe, i);
        if self.classes.is_copy(block) {
            let next = (i - offset + self.universe.blocks()[block].len()).min(end);
            let active = (0..self.checks.len()).filter(|&m| active(m)).count();
            worker.tally.jump(((next - i) * active) as u64);
            return next;
        }
        let weight = self.classes.weight(block);
        let Worker {
            walker,
            channels,
            orbits,
            tally,
            ..
        } = worker;
        let tally = &*tally;
        let stepped = if self.oracle {
            walker.decode(self.universe, block, offset);
            false
        } else {
            walker.advance_to(self.universe, block, offset)
        };
        let members = self.checks.iter().zip(&self.plans).zip(records);
        for (m, ((check, plan), record)) in members.enumerate() {
            if !active(m) {
                continue;
            }
            tally.add(SweepCounter::ItemsWalked, 1);
            // A member whose quotient rejects this item as a non-canonical
            // orbit member skips it entirely; the odometer still stepped,
            // and its verdict channel refreshes lazily at its next
            // canonical item. The first member on a quotient classifies
            // the item, the others read its classification back.
            let mut multiplicity = weight;
            if let Some(q) = plan.quotient {
                let (at, class) = &mut orbits[q];
                if *at != i {
                    *class = self.quotients[q].classify(block, &walker.digits);
                    *at = i;
                }
                match *class {
                    Some(mult) => multiplicity = weight * mult,
                    None => {
                        tally.add(SweepCounter::OrbitSkipped, 1);
                        continue;
                    }
                }
            }
            tally.inspect(multiplicity);
            let item = UniverseItem {
                index: i,
                block,
                instance: self.universe.blocks()[block].instance(),
                labeling: &walker.labeling,
                digits: (!walker.digits.is_empty()).then_some(walker.digits.as_slice()),
            };
            let ctx = |verdicts| {
                ItemCtx::new(
                    block,
                    self.cache,
                    tally,
                    self.ids.get(m),
                    multiplicity,
                    verdicts,
                )
            };
            let result = record.fold_item(i, |claim| match plan.channel[block] {
                Some(c) => {
                    let scratch = &mut channels[c];
                    refresh_verdicts(
                        &self.drivers[c],
                        self.cache,
                        block,
                        offset,
                        walker,
                        scratch,
                        tally,
                        stepped,
                    );
                    check.fold(&item, &ctx(Some(&scratch.verdicts)), claim)
                }
                None => check.fold(&item, &ctx(None), claim),
            });
            if record.file(check, i, multiplicity, result) {
                stops[m].fetch_min(stop_index(i), Ordering::Relaxed);
            }
        }
        i + 1
    }
}

/// Builds the engine for `checks` over the session's universe
/// (between-block classes, verdict channels, skeleton cache, delta
/// drivers, view-id tables, quotient plans) and runs `body` on it. The one construction
/// site of [`Engine`]: the walk ([`walk`]) and the shard replay
/// ([`replay`]) step items through the engine it builds. Records the
/// cache-build phase when the session has a recorder.
fn with_engine<C: Member, R>(
    session: &SweepSession<'_>,
    checks: &[C],
    body: impl FnOnce(&Engine<'_, C>) -> R,
) -> R {
    let SweepSession {
        universe,
        strategy,
        recorder,
        ..
    } = *session;
    let nmem = checks.len();
    let oracle = strategy == SweepStrategy::DecodeOracle;
    let cache_start = recorder.map(|r| r.now_micros());

    // Between-block classes: a block is a copy of a lower-index
    // port-isomorphic block only when every member declares
    // automorphisms over its alphabet and treats both blocks alike (a
    // gate such as `BlockGated`'s mask is caller data, reported through
    // `uses_verdicts`). Copies get no skeletons, balls, memo slots or
    // quotient groups. The decode oracle stays the full walk.
    let classes = if oracle {
        BlockClasses::none(universe)
    } else {
        BlockClasses::build(universe, |alphabet, first, b| {
            checks.iter().all(|check| {
                check.uses_verdicts(first) == check.uses_verdicts(b)
                    && check
                        .symmetry_class(alphabet)
                        .is_some_and(|spec| spec.automorphisms)
            })
        })
    };

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
    let cache = SkeletonCache::build(universe, configs, |b| !classes.is_copy(b));
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
                !classes.is_copy(b)
                    && (0..nmem).any(|m| member_channel[m] == Some(c) && reads_verdicts[m][b])
            })
        })
        .collect();
    // View-id tables: one set per member, keyed by this walk's classes
    // and built by the member's first lookup, so only a member that names
    // views (the Lemma 3.1 scan) allocates one; the decode oracle interns
    // every view through the check's canonical map.
    let ids: Vec<OnceLock<ClassTables<AtomicU32>>> = if oracle {
        Vec::new()
    } else {
        checks.iter().map(|_| OnceLock::new()).collect()
    };
    // In-block orbit quotients: every member that declares a symmetry
    // gets one, and members whose declarations agree on every alphabet
    // the walk visits share one plan, built once; the decode oracle stays
    // the full walk.
    let mut alphabets: Vec<&[Certificate]> = Vec::new();
    for (b, block) in universe.blocks().iter().enumerate() {
        if let LabelSource::All { alphabet } = block.labels() {
            if !classes.is_copy(b) && !alphabets.contains(&alphabet.as_slice()) {
                alphabets.push(alphabet);
            }
        }
    }
    let mut quotients: Vec<QuotientPlan> = Vec::new();
    let mut declared: Vec<(Vec<Option<SymmetrySpec>>, Option<usize>)> = Vec::new();
    let mut quotient_of = |check: &C| -> Option<usize> {
        let specs: Vec<Option<SymmetrySpec>> =
            alphabets.iter().map(|a| check.symmetry_class(a)).collect();
        #[cfg(conformance_mutants)]
        if crate::mutants::active("quotient_share_ignores_spec") && !declared.is_empty() {
            return declared[0].1;
        }
        if let Some(&(_, q)) = declared.iter().find(|(d, _)| *d == specs) {
            return q;
        }
        let q = QuotientPlan::build(universe, &classes, |alphabet| {
            let a = alphabets.iter().position(|&a| a == alphabet)?;
            specs[a].clone()
        })
        .map(|plan| {
            quotients.push(plan);
            quotients.len() - 1
        });
        declared.push((specs, q));
        q
    };
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
            let quotient = (!oracle).then(|| quotient_of(check)).flatten();
            MemberPlan { channel, quotient }
        })
        .collect();
    body(&Engine {
        checks,
        universe,
        cache: &cache,
        drivers,
        ids,
        plans,
        quotients,
        classes,
        oracle,
        recorder,
    })
}

/// Re-derives what walks recorded: for each item list (ascending), a fresh
/// worker runs the engine's per-item step on exactly those items, every
/// member active at the start, and files what each member records —
/// partials, errors and short-circuit stop. A walk over a range holding
/// those items records the same at them, because a member's record at an
/// item is a function of the item alone ([`PropertyCheck::inspect`]'s
/// contract; the delta patch, verdict memo and quotient classification
/// preserve it). The engine is built once for all lists, without a
/// recorder. Fails with the first listed item that lies in a copy block:
/// the walk jumps over those and never records there.
pub(super) fn replay<C: Member>(
    session: &SweepSession<'_>,
    checks: &[C],
    lists: &[Vec<usize>],
) -> Result<Vec<Vec<MemberFrontier<C::Partial>>>, usize> {
    let session = SweepSession {
        recorder: None,
        ..*session
    };
    with_engine(&session, checks, |engine| {
        let universe = engine.universe;
        if let Some(&i) = lists
            .iter()
            .flatten()
            .find(|&&i| engine.classes.is_copy(universe.locate(i).0))
        {
            return Err(i);
        }
        let replayed = lists
            .iter()
            .map(|items| {
                let mut worker = Worker::new(engine.drivers.len(), engine.quotients.len());
                let stops: Vec<AtomicUsize> = checks
                    .iter()
                    .map(|_| AtomicUsize::new(usize::MAX))
                    .collect();
                let mut records: Vec<MemberFrontier<C::Partial>> =
                    checks.iter().map(|_| MemberFrontier::new()).collect();
                for &i in items {
                    engine.run_item(&mut worker, i, i + 1, &stops, &mut records);
                }
                for (record, stop) in records.iter_mut().zip(stops) {
                    let stop = stop.into_inner();
                    record.stop_at = (stop != usize::MAX).then_some(stop);
                }
                records
            })
            .collect();
        Ok(replayed)
    })
}

/// The one walk over `[begin, end)`: `threads` workers claim fixed-size
/// chunks from one atomic cursor and step their items through
/// [`Engine::run_item`]. The calling thread is the first worker and
/// files straight into `records` and its tally; the `threads - 1`
/// workers spawned beside it keep their own, which are folded in after
/// joining ([`MemberFrontier::join`], [`WorkerTally::absorb`]), so a
/// one-thread walk spawns and copies nothing. With a recorder attached,
/// each worker records one `walk` span around its claims. Settles every
/// record at its member's final stop and returns the first index not
/// visited with the workers' summed tally.
fn walk_chunks<C: PropertyCheck>(
    engine: &Engine<'_, C>,
    threads: usize,
    begin: usize,
    end: usize,
    deadline: Option<Instant>,
    records: &mut [MemberFrontier<C::Partial>],
) -> (usize, WorkerTally) {
    // Chunks small enough that threads converge quickly on a low
    // short-circuit index, but with a floor: every chunk boundary costs
    // the claiming worker one odometer resync (a full decode plus, on the
    // delta path, a full verdict recompute) unless it claimed the chunk
    // just before, so tiny chunks would erase the delta win.
    let chunk = ((end - begin) / (threads * 8)).clamp(16, 1024);
    let cursor = AtomicUsize::new(begin);
    let stops: Vec<AtomicUsize> = records
        .iter()
        .map(|f| AtomicUsize::new(f.stop_at.unwrap_or(usize::MAX)))
        .collect();
    // An item is skippable only when every member is past it: the walk's
    // horizon is the maximum member stop, unbounded while any member is
    // still active.
    let horizon = || -> usize {
        let mut h = 0usize;
        for s in &stops {
            let v = s.load(Ordering::Relaxed);
            if v == usize::MAX {
                return usize::MAX;
            }
            h = h.max(v);
        }
        h
    };
    let claim_chunks = |records: &mut [MemberFrontier<C::Partial>]| {
        let mut worker = Worker::new(engine.drivers.len(), engine.quotients.len());
        if let Some(r) = engine.recorder {
            r.span_enter("walk");
        }
        loop {
            // The deadline is checked before claiming, and a claimed chunk
            // always runs to completion — so the visited set stays the
            // contiguous prefix [begin, cursor) and a continuation can
            // describe it with one index.
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
            // The cursor only grows, so once a claimed chunk lies
            // entirely past the horizon, all later claims will too.
            if start >= end || start > horizon() {
                break;
            }
            let stop = (start + chunk).min(end);
            let mut i = start;
            while i < stop && i <= horizon() {
                i = engine.run_item(&mut worker, i, stop, &stops, records);
            }
        }
        if let Some(r) = engine.recorder {
            r.span_exit("walk");
        }
        worker.tally
    };
    let tally = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<MemberFrontier<C::Partial>> = engine
                        .checks
                        .iter()
                        .map(|_| MemberFrontier::new())
                        .collect();
                    let tally = claim_chunks(&mut local);
                    (local, tally)
                })
            })
            .collect();
        let tally = claim_chunks(records);
        let mut locals: Vec<Vec<MemberFrontier<C::Partial>>> =
            records.iter().map(|_| Vec::new()).collect();
        for helper in helpers {
            // invariant: member panics are caught per item by `guarded`,
            // so a worker can only die of an engine bug — propagate.
            let (local, helper_tally) = helper.join().expect("sweep worker panicked");
            for (per_member, l) in locals.iter_mut().zip(local) {
                per_member.push(l);
            }
            #[cfg(conformance_mutants)]
            if crate::mutants::active("tally_join_keeps_caller") {
                continue;
            }
            tally.absorb(&helper_tally);
        }
        for (record, local) in records.iter_mut().zip(locals) {
            record.join(local);
        }
        tally
    });
    // Settling restores each member's in-order invariants.
    for (record, stop) in records.iter_mut().zip(stops) {
        let stop = stop.into_inner();
        record.stop_at = (stop != usize::MAX).then_some(stop);
        record.settle();
    }
    // Natural termination bumps the cursor past `end`; a deadline stop
    // leaves it at the first unclaimed index. Claimed chunks always
    // complete, so everything below this index was inspected.
    let next = if all_stopped(records) {
        end
    } else {
        cursor.into_inner().min(end)
    };
    (next, tally)
}

/// The lazy draw loop behind [`LazySweep`](super::LazySweep): pulls items
/// one at a time and inspects each with the engine's guarded step,
/// stopping the pull at the first short-circuit or budget expiry — so a
/// stateful source advances exactly `checked` times and memory stays
/// `O(1)` in the stream length. The budget is checked before each pull,
/// so a source is never advanced past `max_items`; a source cut at its
/// limit reads interrupted even when it would have run dry next, since
/// only a pull can tell.
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
        let cache = SkeletonCache::build(&universe, configs.clone(), |_| true);
        (universe, cache)
    };
    let mut current = fixed.map(|instance| bare(instance.clone()));
    let tally = WorkerTally::default();
    if let Some((_, cache)) = &current {
        tally.add(SweepCounter::CacheMisses, cache.populated as u64);
    }
    let mut record = MemberFrontier::new();
    let mut drawn = 0usize;
    let mut interrupted = false;
    let mut items = items.into_iter();
    loop {
        if budget.max_items.is_some_and(|m| drawn >= m)
            || deadline.is_some_and(|d| Instant::now() >= d)
        {
            interrupted = true;
            break;
        }
        let Some((instance, labeling)) = items.next() else {
            break;
        };
        if let Some(instance) = instance {
            let (universe, cache) = bare(instance);
            tally.add(SweepCounter::CacheMisses, cache.populated as u64);
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
        let ctx = ItemCtx::new(0, cache, &tally, None, 1, None);
        drawn += 1;
        let result = record.fold_item(item.index, |claim| check.fold(&item, &ctx, claim));
        if record.file(check, item.index, 1, result) {
            record.stop_at = Some(item.index);
            break;
        }
    }
    let universe = match (fixed, current) {
        (Some(_), Some((universe, _))) => universe,
        // invariant: zero blocks sum to zero items — overflow is impossible.
        _ => Universe::new(Vec::new(), coverage).expect("an empty universe cannot overflow"),
    };
    let (mut reports, _) = reduce(
        std::slice::from_ref(check),
        &universe,
        drawn,
        vec![record],
        drawn,
        interrupted,
        1,
        tally.counts(),
        None,
        start,
    );
    reports.pop().expect("one member, one report")
}
