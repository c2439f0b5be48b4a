//! The fused panel executor: one odometer enumeration, every member
//! check.
//!
//! A full audit of one certification scheme asks several property
//! questions over the *same* universe — soundness, strong soundness and
//! hiding all quantify over every labeling of the same instances. Run as
//! individual sweeps, each pays the full enumeration, skeleton-cache
//! build, and (on the delta path) verdict maintenance again.
//! [`sweep_panel`] fuses them: it walks the universe once and evaluates
//! every [`DynPropertyCheck`] member per item, sharing
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
//! # Per-member short-circuit, budget, and resume
//!
//! Each member keeps its own frontier. A member whose partial
//! short-circuits *drops out of the walk* — later items skip it — while
//! the remaining members continue; the enumeration ends when every member
//! has stopped or the universe is exhausted. Counts keep sequential
//! semantics per member (see [`SweepOutcome::checked`]): a member that
//! stopped at its lowest deciding index `s` reports `checked = s + 1`,
//! exactly what its own single-check sweep would, which is what lets the
//! property entry points run through one-member panels unchanged.
//!
//! Budgets behave as in [`super::sweep_budgeted`]: the deadline is
//! checked between items (sequential) or chunk claims (parallel), so the
//! visited set is always the contiguous prefix `[0, next)`; an
//! interrupted panel hands back a [`PanelResumeToken`] carrying the
//! shared frontier plus every member's partials and stop index, and the
//! resumed chain reproduces the uninterrupted panel bit-for-bit (the
//! panel differential suite asserts this).
//!
//! # Determinism
//!
//! The single-sweep contract lifts member-wise: for any member list,
//! universe and options, every [`ExecMode`] produces identical member
//! verdicts, `checked` counts and witnesses. The parallel path reuses the
//! same machinery — atomic chunk cursor, per-member `fetch_min` stop
//! folding, post-join filtering — with the stop horizon being the
//! *maximum* over member stops (an item is only skippable when every
//! member is past it).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use super::budget::{MemberFrontier, PanelResumeToken, SweepBudget, SweepError};
use super::check::{ExecEvidence, PropertyCheck, SweepOutcome, VerificationReport};
use super::erased::{DynPropertyCheck, ErasedPartial, PanelVerdict, PropertyTag};
use super::executor::{
    refresh_verdicts, resolve_threads, DeltaDriver, ExecMode, ItemCtx, SkeletonCache, SweepOpts,
    SweepStrategy, VerdictMemo, VerdictScratch, Walker,
};
use super::session::SweepSession;
use super::symmetry::QuotientPlan;
use super::telemetry::{MetricsRecorder, SweepCounter, SweepPhase, SweepRecorder, WorkerTally};
use super::universe::{Coverage, Universe, UniverseItem};
use crate::decoder::Decoder;
use crate::view::IdMode;
use std::any::Any;

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
    /// Converts member `index` into the [`VerificationReport`] its own
    /// single-check sweep would have produced: member-level counts and
    /// coverage, panel-level cache/memo/clock/thread evidence. Panics if
    /// `V` is not the member's verdict type.
    pub fn into_member_report<V: Any>(mut self, index: usize) -> VerificationReport<V> {
        let member = self.members.remove(index);
        let verdict = member
            .verdict
            .downcast::<V>()
            .expect("member verdict downcasts to its concrete type");
        VerificationReport {
            verdict,
            evidence: ExecEvidence {
                checked: member.checked,
                universe_size: self.evidence.universe_size,
                short_circuited: member.short_circuited,
                interrupted: member.interrupted,
                coverage: member.coverage,
                errors: member.errors,
                cache_hits: self.evidence.cache_hits,
                cache_misses: self.evidence.cache_misses,
                memo_hits: self.evidence.memo_hits,
                memo_misses: self.evidence.memo_misses,
                elapsed: self.evidence.elapsed,
                threads: self.evidence.threads,
                interner: self.evidence.interner,
            },
        }
    }
}

/// A budgeted panel's result: the (possibly partial) report plus the
/// continuation when the budget interrupted the walk.
pub struct BudgetedPanel {
    /// The report. When `report.evidence.interrupted` is set, member
    /// verdicts cover only the visited prefix.
    pub report: PanelReport,
    /// `Some` exactly when the walk was interrupted; feed it to
    /// [`resume_panel`] to continue.
    pub resume: Option<PanelResumeToken>,
}

/// Fuses `checks` into one walk over `universe` in [`ExecMode::Auto`].
#[deprecated(note = "use `SweepSession::over(universe).run_panel(checks)`")]
pub fn sweep_panel(checks: &[DynPropertyCheck<'_>], universe: &Universe) -> PanelReport {
    SweepSession::over(universe).run_panel(checks)
}

/// [`sweep_panel`] in an explicit execution mode.
#[deprecated(note = "use `SweepSession::over(universe).mode(mode).run_panel(checks)`")]
pub fn sweep_panel_with(
    checks: &[DynPropertyCheck<'_>],
    universe: &Universe,
    mode: ExecMode,
) -> PanelReport {
    SweepSession::over(universe).mode(mode).run_panel(checks)
}

/// [`sweep_panel_with`] under explicit engine options.
#[deprecated(note = "use `SweepSession::over(universe).mode(mode).opts(opts).run_panel(checks)`")]
pub fn sweep_panel_with_opts(
    checks: &[DynPropertyCheck<'_>],
    universe: &Universe,
    mode: ExecMode,
    opts: SweepOpts,
) -> PanelReport {
    SweepSession::over(universe)
        .mode(mode)
        .opts(opts)
        .run_panel(checks)
}

/// [`sweep_panel_with_opts`] with a telemetry recorder attached: the
/// fused walk streams counters, phase timings and panel/block/chunk
/// spans into `recorder` (see [`super::telemetry`]). Without the
/// `telemetry` feature the recorder is inert and this is exactly
/// [`sweep_panel_with_opts`].
#[deprecated(note = "use `SweepSession::over(universe).metrics(recorder).run_panel(checks)`")]
pub fn sweep_panel_recorded(
    checks: &[DynPropertyCheck<'_>],
    universe: &Universe,
    mode: ExecMode,
    opts: SweepOpts,
    recorder: &MetricsRecorder,
) -> PanelReport {
    SweepSession::over(universe)
        .mode(mode)
        .opts(opts)
        .metrics(recorder)
        .run_panel(checks)
}

/// [`sweep_panel_with`] under an execution budget; an expired budget ends
/// the walk with an `interrupted` report and a [`PanelResumeToken`].
#[deprecated(note = "use `SweepSession::over(universe).budget(budget).run_panel_budgeted(checks)`")]
pub fn sweep_panel_budgeted(
    checks: &[DynPropertyCheck<'_>],
    universe: &Universe,
    mode: ExecMode,
    budget: &SweepBudget,
) -> BudgetedPanel {
    SweepSession::over(universe)
        .mode(mode)
        .budget(*budget)
        .run_panel_budgeted(checks)
}

/// [`sweep_panel_budgeted`] under explicit engine options.
#[deprecated(
    note = "use `SweepSession::over(universe).budget(budget).opts(opts).run_panel_budgeted(checks)`"
)]
pub fn sweep_panel_budgeted_with_opts(
    checks: &[DynPropertyCheck<'_>],
    universe: &Universe,
    mode: ExecMode,
    budget: &SweepBudget,
    opts: SweepOpts,
) -> BudgetedPanel {
    SweepSession::over(universe)
        .mode(mode)
        .budget(*budget)
        .opts(opts)
        .run_panel_budgeted(checks)
}

/// Continues an interrupted panel from its token under a fresh budget.
/// The chain of budgeted calls reproduces an uninterrupted panel's
/// per-member reports exactly.
#[deprecated(
    note = "use `SweepSession::over(universe).budget(budget).resume_panel(checks, token)`"
)]
pub fn resume_panel(
    checks: &[DynPropertyCheck<'_>],
    universe: &Universe,
    mode: ExecMode,
    budget: &SweepBudget,
    token: PanelResumeToken,
) -> BudgetedPanel {
    SweepSession::over(universe)
        .mode(mode)
        .budget(*budget)
        .resume_panel(checks, token)
}

/// [`resume_panel`] under explicit engine options.
#[deprecated(
    note = "use `SweepSession::over(universe).budget(budget).opts(opts).resume_panel(checks, token)`"
)]
pub fn resume_panel_with_opts(
    checks: &[DynPropertyCheck<'_>],
    universe: &Universe,
    mode: ExecMode,
    budget: &SweepBudget,
    token: PanelResumeToken,
    opts: SweepOpts,
) -> BudgetedPanel {
    SweepSession::over(universe)
        .mode(mode)
        .budget(*budget)
        .opts(opts)
        .resume_panel(checks, token)
}

/// The member's recorded stop index for a short-circuit at item `i`.
fn stop_index(i: usize) -> usize {
    #[cfg(conformance_mutants)]
    if crate::mutants::active("panel_frontier_off_by_one") {
        return i + 1;
    }
    i
}

/// Immutable per-panel state shared by every worker thread.
struct PanelEngine<'e> {
    checks: &'e [DynPropertyCheck<'e>],
    universe: &'e Universe,
    cache: &'e SkeletonCache,
    /// One delta driver per verdict channel.
    drivers: Vec<DeltaDriver<'e>>,
    /// Member index → its verdict channel, if it has one.
    member_channel: Vec<Option<usize>>,
    hits: &'e AtomicUsize,
    misses: &'e AtomicUsize,
    memo_hits: &'e AtomicUsize,
    memo_misses: &'e AtomicUsize,
    memo_on: bool,
    oracle: bool,
    /// Member index -> its symmetry-quotient plan, when the panel runs
    /// under [`SweepStrategy::Quotient`] and the member opted in.
    quotients: Vec<Option<QuotientPlan>>,
    recorder: Option<&'e dyn SweepRecorder>,
}

/// A worker thread's mutable state: one odometer walker feeding one
/// verdict scratch + memo per channel, plus the thread's telemetry
/// tally. Panel tallies count *member evaluations*: each (item, active
/// member) pair is one walk, resolving to one inspect or one orbit
/// skip — so `items_inspected + items_orbit_skipped == items_walked`
/// holds member-summed, and a one-member panel tallies exactly like the
/// single-check executor.
struct PanelWorker {
    walker: Walker,
    channels: Vec<(VerdictScratch, VerdictMemo)>,
    tally: WorkerTally,
}

impl PanelWorker {
    fn new(channels: usize, memo_on: bool) -> PanelWorker {
        PanelWorker {
            walker: Walker::default(),
            channels: (0..channels)
                .map(|_| (VerdictScratch::default(), VerdictMemo::new(memo_on)))
                .collect(),
            tally: WorkerTally::default(),
        }
    }

    fn flush(&self, engine: &PanelEngine<'_>) {
        for (_, memo) in &self.channels {
            engine.memo_hits.fetch_add(memo.hits, Ordering::Relaxed);
            engine.memo_misses.fetch_add(memo.misses, Ordering::Relaxed);
        }
        self.tally.flush(engine.recorder);
    }
}

impl PanelEngine<'_> {
    /// Advances the walker to item `i` and evaluates every member for
    /// which `active` holds, under per-member panic isolation. A verdict
    /// channel is refreshed at most once per item — the first member to
    /// need it pays the delta patch, the rest read it back.
    fn run_item(
        &self,
        worker: &mut PanelWorker,
        i: usize,
        active: &mut dyn FnMut(usize) -> bool,
        record: &mut dyn FnMut(usize, Result<Option<ErasedPartial>, SweepError>),
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
            for m in 0..self.checks.len() {
                if !active(m) {
                    continue;
                }
                worker.tally.walk();
                worker.tally.inspect(1);
                let r = catch_unwind(AssertUnwindSafe(|| {
                    self.checks[m].inspect(&buf.as_item(), &ctx)
                }))
                .map_err(|p| SweepError::from_panic(i, p));
                record(m, r);
            }
            return;
        }
        let (block, offset) = self.universe.locate(i);
        let PanelWorker {
            walker,
            channels,
            tally,
        } = worker;
        let stepped = walker.advance_to(self.universe, block, offset);
        let instance = self.universe.blocks()[block].instance();
        for m in 0..self.checks.len() {
            if !active(m) {
                continue;
            }
            tally.walk();
            // Quotient strategy: a member whose plan rejects this item as a
            // non-canonical orbit member skips it entirely -- its verdict
            // channel refreshes lazily at its next canonical item.
            let mut multiplicity = 1u64;
            if let Some(plan) = &self.quotients[m] {
                match plan.classify(block, &walker.digits) {
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
            let check = &self.checks[m];
            let channel = self.member_channel[m];
            #[cfg(conformance_mutants)]
            let channel = match channel {
                Some(c)
                    if self.drivers.len() > 1 && crate::mutants::active("panel_channel_swap") =>
                {
                    Some((c + 1) % self.drivers.len())
                }
                other => other,
            };
            let use_verdicts = channel.is_some_and(|c| {
                check.uses_verdicts(block) && self.drivers[c].verdict_blocks[block]
            });
            let r = catch_unwind(AssertUnwindSafe(|| {
                if use_verdicts {
                    let c = channel.expect("use_verdicts implies a channel");
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
                } else {
                    let item = UniverseItem {
                        index: i,
                        block,
                        instance,
                        labeling: &walker.labeling,
                        digits: (!walker.digits.is_empty()).then_some(walker.digits.as_slice()),
                    };
                    check.inspect(&item, &ctx)
                }
            }))
            .map_err(|p| SweepError::from_panic(i, p));
            record(m, r);
        }
    }
}

/// What one panel pass over `[begin, end)` produced.
struct PanelPass {
    /// Per-member partials recorded by this pass.
    partials: Vec<Vec<(usize, ErasedPartial)>>,
    /// Per-member errors recorded by this pass.
    errors: Vec<Vec<SweepError>>,
    /// Per-member lowest short-circuiting index (`usize::MAX` = none),
    /// token-inherited stops included.
    stop_at: Vec<usize>,
    /// First index not visited by the walk.
    next: usize,
}

/// The shared engine behind every whole-universe panel entry point (today
/// that means [`SweepSession`]; the deprecated free functions shim onto
/// it). `recorder` attaches telemetry (the audit plan passes one through
/// here to keep budgets and recording composable); phase timings use the
/// recorder's clock.
pub(super) fn run_panel(
    checks: &[DynPropertyCheck<'_>],
    universe: &Universe,
    mode: ExecMode,
    budget: &SweepBudget,
    token: PanelResumeToken,
    opts: SweepOpts,
    recorder: Option<&dyn SweepRecorder>,
) -> BudgetedPanel {
    let start = Instant::now();
    let n = universe.len();
    let nmem = checks.len();
    if nmem == 0 {
        return BudgetedPanel {
            report: PanelReport {
                members: Vec::new(),
                evidence: ExecEvidence {
                    checked: 0,
                    universe_size: n,
                    short_circuited: false,
                    interrupted: false,
                    coverage: universe.coverage(),
                    errors: Vec::new(),
                    cache_hits: 0,
                    cache_misses: 0,
                    memo_hits: 0,
                    memo_misses: 0,
                    elapsed: start.elapsed(),
                    threads: 1,
                    interner: None,
                },
            },
            resume: None,
        };
    }
    if let Some(r) = recorder {
        r.span_enter("panel");
    }
    let pass = run_panel_pass(
        checks, universe, mode, budget, token, opts, recorder, n, start,
    );
    let all_stopped = pass.stop_at.iter().all(|&s| s != usize::MAX);
    let next = pass.next;
    let interrupted = !all_stopped && next < n;
    let resume = if interrupted {
        Some(PanelResumeToken {
            next_index: next,
            members: (0..nmem)
                .map(|m| MemberFrontier {
                    stop_at: (pass.stop_at[m] != usize::MAX).then_some(pass.stop_at[m]),
                    partials: pass.partials[m]
                        .iter()
                        .map(|(i, p)| (*i, checks[m].clone_partial(p)))
                        .collect(),
                    errors: pass.errors[m].clone(),
                })
                .collect(),
        })
    } else {
        None
    };
    if interrupted {
        budget.note_interruption(recorder);
    }
    let stats = PanelWalkStats {
        threads: pass.threads,
        cache_hits: pass.cache_hits,
        cache_misses: pass.cache_misses,
        memo_hits: pass.memo_hits,
        memo_misses: pass.memo_misses,
    };
    let report = reduce_panel(
        checks,
        universe,
        pass.partials,
        pass.errors,
        &pass.stop_at,
        next,
        interrupted,
        stats,
        recorder,
        start,
    );
    if let Some(r) = recorder {
        r.span_exit("panel");
    }
    BudgetedPanel { report, resume }
}

/// One shard's slice of a fused panel: the un-reduced per-member walk
/// state over the contiguous index range `[lo, hi)`. Produced by
/// [`SweepSession::run_panel_fragment`](super::SweepSession::run_panel_fragment),
/// consumed by
/// [`merge_panel_fragments`](super::shard::merge_panel_fragments).
#[derive(Debug)]
pub struct PanelFragment {
    /// Range start (inclusive flat index).
    pub lo: usize,
    /// Range end (exclusive flat index).
    pub hi: usize,
    /// First index in `[lo, hi)` not visited; `hi` when the walk covered
    /// the whole range (or every member stopped inside it).
    pub next: usize,
    /// Per-member frontiers, in member order: each member's local stop
    /// index, partials and errors.
    pub members: Vec<MemberFrontier>,
}

impl PanelFragment {
    /// Whether the fragment's range is fully decided: the walk reached
    /// `hi`, or every member short-circuited inside the range.
    pub fn is_complete(&self) -> bool {
        self.next >= self.hi || self.members.iter().all(|m| m.stop_at.is_some())
    }

    /// The continuation of an incomplete (budget-interrupted) fragment.
    /// Feed it to
    /// [`SweepSession::resume_panel_fragment`](super::SweepSession::resume_panel_fragment)
    /// on a session with the same shard to finish the range.
    pub fn into_resume_token(self) -> PanelResumeToken {
        PanelResumeToken {
            next_index: self.next,
            members: self.members,
        }
    }
}

/// Runs one shard's panel pass over `[lo, hi)` without reducing. Budget
/// semantics match [`run_fragment`](super::executor): `max_items` caps
/// this shard's items, `deadline` is wall-clock from this call, and a
/// budget stop inside the range counts as a budget interruption.
#[allow(clippy::too_many_arguments)] // the args are the walk's state, not a config
pub(super) fn run_panel_fragment(
    checks: &[DynPropertyCheck<'_>],
    universe: &Universe,
    mode: ExecMode,
    budget: &SweepBudget,
    token: PanelResumeToken,
    opts: SweepOpts,
    recorder: Option<&dyn SweepRecorder>,
    lo: usize,
    hi: usize,
) -> PanelFragment {
    let hi = hi.min(universe.len());
    let nmem = checks.len();
    if nmem == 0 {
        return PanelFragment {
            lo,
            hi,
            next: hi,
            members: Vec::new(),
        };
    }
    let start = Instant::now();
    if let Some(r) = recorder {
        r.span_enter("panel");
    }
    let mut token = token;
    if token.next_index < lo {
        token.next_index = lo;
    }
    let pass = run_panel_pass(
        checks, universe, mode, budget, token, opts, recorder, hi, start,
    );
    let all_stopped = pass.stop_at.iter().all(|&s| s != usize::MAX);
    if !all_stopped && pass.next < hi {
        budget.note_interruption(recorder);
    }
    if let Some(r) = recorder {
        r.span_exit("panel");
    }
    let members = pass
        .stop_at
        .iter()
        .zip(pass.partials.into_iter().zip(pass.errors))
        .map(|(&stop, (partials, errors))| MemberFrontier {
            stop_at: (stop != usize::MAX).then_some(stop),
            partials,
            errors,
        })
        .collect();
    PanelFragment {
        lo,
        hi,
        next: pass.next,
        members,
    }
}

/// The merged, retention-filtered state of one panel pass plus the walk's
/// counters: the shared middle of [`run_panel`] and
/// [`run_panel_fragment`].
struct PanelPassState {
    /// Per-member partials (token-merged, sorted, nothing past the
    /// member's stop).
    partials: Vec<Vec<(usize, ErasedPartial)>>,
    /// Per-member errors, sorted by item index.
    errors: Vec<Vec<SweepError>>,
    /// Per-member lowest short-circuiting index (`usize::MAX` = none).
    stop_at: Vec<usize>,
    /// First index not visited by the walk.
    next: usize,
    threads: usize,
    cache_hits: usize,
    cache_misses: usize,
    memo_hits: usize,
    memo_misses: usize,
}

/// One capped panel pass: channel setup, cache build, the walk over
/// `[token.next_index, min(next_index + max_items, limit))`, counter
/// flushing, and the token merge + per-member retention. Emits every
/// recorder event of a panel except the enclosing span and the reduce
/// phase, which the callers own.
#[allow(clippy::too_many_arguments)] // the args are the walk's state, not a config
fn run_panel_pass(
    checks: &[DynPropertyCheck<'_>],
    universe: &Universe,
    mode: ExecMode,
    budget: &SweepBudget,
    token: PanelResumeToken,
    opts: SweepOpts,
    recorder: Option<&dyn SweepRecorder>,
    limit: usize,
    start: Instant,
) -> PanelPassState {
    let nmem = checks.len();
    assert_eq!(
        token.members.len(),
        nmem,
        "panel resume token describes a different member list"
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
            let channel = match check.channel_key() {
                Some(key) => match keyed.iter().find(|&&(k, _)| k == key) {
                    Some(&(_, c)) => c,
                    None => {
                        let c = decoders.len();
                        decoders.push(d);
                        keyed.push((key, c));
                        c
                    }
                },
                None => {
                    let c = decoders.len();
                    decoders.push(d);
                    c
                }
            };
            member_channel[m] = Some(channel);
            configs.push((d.radius(), d.id_mode()));
        }
    }
    let cache = SkeletonCache::build(universe, configs);
    if let (Some(r), Some(t0)) = (recorder, cache_start) {
        r.record_phase(SweepPhase::CacheBuild, r.now_micros().saturating_sub(t0));
    }
    let drivers: Vec<DeltaDriver<'_>> = decoders
        .iter()
        .enumerate()
        .map(|(c, &d)| {
            DeltaDriver::build(d, universe, &cache, |b| {
                checks
                    .iter()
                    .enumerate()
                    .any(|(m, check)| member_channel[m] == Some(c) && check.uses_verdicts(b))
            })
        })
        .collect();
    let hits = AtomicUsize::new(0);
    let misses = AtomicUsize::new(cache.populated);
    let memo_hits = AtomicUsize::new(0);
    let memo_misses = AtomicUsize::new(0);
    let quotients: Vec<Option<QuotientPlan>> = if opts.strategy == SweepStrategy::Quotient {
        checks
            .iter()
            .map(|check| QuotientPlan::build(universe, |alphabet| check.symmetry_class(alphabet)))
            .collect()
    } else {
        (0..nmem).map(|_| None).collect()
    };
    let engine = PanelEngine {
        checks,
        universe,
        cache: &cache,
        drivers,
        member_channel,
        hits: &hits,
        misses: &misses,
        memo_hits: &memo_hits,
        memo_misses: &memo_misses,
        memo_on: opts.memo,
        oracle,
        quotients,
        recorder,
    };

    let begin = token.next_index.min(limit);
    let end = match budget.max_items {
        Some(m) => begin.saturating_add(m).min(limit),
        None => limit,
    };
    let threads = resolve_threads(mode, end.saturating_sub(begin));
    let init_stop: Vec<usize> = token
        .members
        .iter()
        .map(|f| f.stop_at.unwrap_or(usize::MAX))
        .collect();

    let walk_start = recorder.map(|r| r.now_micros());
    let pass = if threads > 1 {
        run_panel_parallel(&engine, threads, begin, end, deadline, init_stop)
    } else {
        run_panel_sequential(&engine, begin, end, deadline, init_stop)
    };
    if let (Some(r), Some(t0)) = (recorder, walk_start) {
        r.record_phase(SweepPhase::Walk, r.now_micros().saturating_sub(t0));
    }
    if let Some(r) = recorder {
        let new_errors: usize = pass.errors.iter().map(|e| e.len()).sum();
        r.add(SweepCounter::PanicsCaught, new_errors as u64);
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
            .quotients
            .iter()
            .flatten()
            .map(|plan| plan.active_blocks())
            .sum();
        if quotient_blocks > 0 {
            r.add(SweepCounter::QuotientBlocks, quotient_blocks);
        }
    }

    // Merge token state in front of this pass's records, then restore
    // the per-member sequential invariants: index order, nothing past
    // the member's stop.
    let mut member_partials = pass.partials;
    let mut member_errors = pass.errors;
    for (m, frontier) in token.members.into_iter().enumerate() {
        let mut merged = frontier.partials;
        merged.append(&mut member_partials[m]);
        member_partials[m] = merged;
        let mut merged_errors = frontier.errors;
        merged_errors.append(&mut member_errors[m]);
        member_errors[m] = merged_errors;
    }
    for m in 0..nmem {
        member_partials[m].sort_by_key(|&(i, _)| i);
        member_errors[m].sort_by_key(|e| e.item_index);
        let stop = pass.stop_at[m];
        if stop != usize::MAX {
            member_partials[m].retain(|&(i, _)| i <= stop);
            member_errors[m].retain(|e| e.item_index <= stop);
        }
    }

    PanelPassState {
        partials: member_partials,
        errors: member_errors,
        stop_at: pass.stop_at,
        next: pass.next,
        threads,
        cache_hits: hits.load(Ordering::Relaxed),
        cache_misses: misses.load(Ordering::Relaxed),
        memo_hits: memo_hits.load(Ordering::Relaxed),
        memo_misses: memo_misses.load(Ordering::Relaxed),
    }
}

/// The walk counters [`reduce_panel`] copies into the panel evidence. A
/// live walk loads them from its atomics; the shard merge has no walk of
/// its own and passes zeros (those counters are observed, not stable, so
/// the stable report rendering never reads them).
pub(super) struct PanelWalkStats {
    pub(super) threads: usize,
    pub(super) cache_hits: usize,
    pub(super) cache_misses: usize,
    pub(super) memo_hits: usize,
    pub(super) memo_misses: usize,
}

/// The per-member reduce + evidence assembly shared by [`run_panel`] and
/// the shard merge: folds each member's partials (already sorted and
/// retention-filtered, with `stop_at` the member's global stop) into its
/// verdict and assembles the [`PanelReport`]. The member lists and stop
/// semantics are exactly those of the single-process panel, which is what
/// makes a merged report structurally identical to an unsharded one.
#[allow(clippy::too_many_arguments)] // the args are the walk's state, not a config
pub(super) fn reduce_panel(
    checks: &[DynPropertyCheck<'_>],
    universe: &Universe,
    member_partials: Vec<Vec<(usize, ErasedPartial)>>,
    member_errors: Vec<Vec<SweepError>>,
    stop_at: &[usize],
    next: usize,
    interrupted: bool,
    stats: PanelWalkStats,
    recorder: Option<&dyn SweepRecorder>,
    start: Instant,
) -> PanelReport {
    let n = universe.len();
    let nmem = checks.len();
    let all_stopped = stop_at.iter().all(|&s| s != usize::MAX);
    let mut panel_errors: Vec<SweepError> = member_errors
        .iter()
        .flat_map(|errs| errs.iter().cloned())
        .collect();
    panel_errors.sort_by_key(|e| e.item_index);
    let coverage = if interrupted || !panel_errors.is_empty() {
        Coverage::Sampled
    } else {
        universe.coverage()
    };
    let panel_checked = if all_stopped {
        stop_at.iter().copied().max().unwrap_or(0) + 1
    } else {
        next
    };

    let reduce_start = recorder.map(|r| r.now_micros());
    let mut members = Vec::with_capacity(nmem);
    for (m, (partials_m, errors_m)) in member_partials.into_iter().zip(member_errors).enumerate() {
        let check = &checks[m];
        let stopped = stop_at[m] != usize::MAX;
        let checked = if stopped { stop_at[m] + 1 } else { next };
        let member_interrupted = interrupted && !stopped;
        let member_coverage = if member_interrupted || !errors_m.is_empty() {
            Coverage::Sampled
        } else {
            universe.coverage()
        };
        let outcome = SweepOutcome {
            checked,
            universe_size: n,
            short_circuited: stopped,
        };
        let value = check.reduce(universe, partials_m, &outcome);
        let (passed, detail) = check.summarize(&*value);
        members.push(PanelMemberReport {
            tag: check.tag(),
            label: check.label().to_string(),
            verdict: PanelVerdict::new(
                check.tag(),
                check.label().to_string(),
                passed,
                detail,
                value,
            ),
            checked,
            short_circuited: stopped,
            interrupted: member_interrupted,
            coverage: member_coverage,
            errors: errors_m,
        });
    }

    if let (Some(r), Some(t0)) = (recorder, reduce_start) {
        r.record_phase(SweepPhase::Reduce, r.now_micros().saturating_sub(t0));
    }
    let interner = checks.iter().find_map(|check| check.interner_report());
    if let (Some(r), Some(report)) = (recorder, &interner) {
        report.record_into(r);
    }

    PanelReport {
        members,
        evidence: ExecEvidence {
            checked: panel_checked,
            universe_size: n,
            short_circuited: all_stopped,
            interrupted,
            coverage,
            errors: panel_errors,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            memo_hits: stats.memo_hits,
            memo_misses: stats.memo_misses,
            elapsed: start.elapsed(),
            threads: stats.threads,
            interner,
        },
    }
}

fn run_panel_sequential(
    engine: &PanelEngine<'_>,
    begin: usize,
    end: usize,
    deadline: Option<Instant>,
    mut stop_at: Vec<usize>,
) -> PanelPass {
    let nmem = engine.checks.len();
    let mut worker = PanelWorker::new(engine.drivers.len(), engine.memo_on);
    let mut partials: Vec<Vec<(usize, ErasedPartial)>> = (0..nmem).map(|_| Vec::new()).collect();
    let mut errors: Vec<Vec<SweepError>> = (0..nmem).map(|_| Vec::new()).collect();
    let mut next = end;
    let mut newly_stopped: Vec<usize> = Vec::new();
    // Span bookkeeping (recorder-only), as in the single-check executor:
    // one extra `locate` per item detects block transitions.
    let mut span_block: Option<usize> = None;
    for i in begin..end {
        if stop_at.iter().all(|&s| s != usize::MAX) {
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
        newly_stopped.clear();
        {
            let checks = engine.checks;
            let stops = &mut newly_stopped;
            let parts = &mut partials;
            let errs = &mut errors;
            let stop_view = &stop_at;
            let mut active = |m: usize| stop_view[m] == usize::MAX;
            let mut record = |m: usize, r: Result<Option<ErasedPartial>, SweepError>| match r {
                Ok(Some(p)) => {
                    let stop = checks[m].short_circuits(&p);
                    parts[m].push((i, p));
                    if stop {
                        stops.push(m);
                    }
                }
                Ok(None) => {}
                Err(e) => errs[m].push(e),
            };
            engine.run_item(&mut worker, i, &mut active, &mut record);
        }
        for &m in &newly_stopped {
            stop_at[m] = stop_index(i);
        }
    }
    if let (Some(r), Some(b)) = (engine.recorder, span_block) {
        r.span_exit(&format!("block:{b}"));
    }
    worker.flush(engine);
    PanelPass {
        partials,
        errors,
        stop_at,
        next,
    }
}

#[cfg(feature = "parallel")]
fn run_panel_parallel(
    engine: &PanelEngine<'_>,
    threads: usize,
    begin: usize,
    end: usize,
    deadline: Option<Instant>,
    init_stop: Vec<usize>,
) -> PanelPass {
    let nmem = engine.checks.len();
    let span = end - begin;
    let chunk = (span / (threads * 8)).clamp(16, 1024);
    let cursor = AtomicUsize::new(begin);
    let stop_at: Vec<AtomicUsize> = init_stop.into_iter().map(AtomicUsize::new).collect();
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

    let mut partials: Vec<Vec<(usize, ErasedPartial)>> = (0..nmem).map(|_| Vec::new()).collect();
    let mut errors: Vec<Vec<SweepError>> = (0..nmem).map(|_| Vec::new()).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut worker = PanelWorker::new(engine.drivers.len(), engine.memo_on);
                    let mut local: Vec<Vec<(usize, ErasedPartial)>> =
                        (0..nmem).map(|_| Vec::new()).collect();
                    let mut local_errors: Vec<Vec<SweepError>> =
                        (0..nmem).map(|_| Vec::new()).collect();
                    loop {
                        // Deadline before claiming; claimed chunks run to
                        // completion — the visited set stays a contiguous
                        // prefix, as in the single-check executor.
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            break;
                        }
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
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
                            let stops = &stop_at;
                            let mut active = |m: usize| i <= stops[m].load(Ordering::Relaxed);
                            let mut record =
                                |m: usize, r: Result<Option<ErasedPartial>, SweepError>| match r {
                                    Ok(Some(p)) => {
                                        let stop = engine.checks[m].short_circuits(&p);
                                        local[m].push((i, p));
                                        if stop {
                                            stops[m].fetch_min(stop_index(i), Ordering::Relaxed);
                                        }
                                    }
                                    Ok(None) => {}
                                    Err(e) => local_errors[m].push(e),
                                };
                            engine.run_item(&mut worker, i, &mut active, &mut record);
                        }
                        if let Some(r) = engine.recorder {
                            r.span_exit(&format!("chunk:{start}"));
                        }
                    }
                    worker.flush(engine);
                    (local, local_errors)
                })
            })
            .collect();
        for w in workers {
            // invariant: member panics are caught per item by `run_item`,
            // so a worker can only die of an engine bug — propagate.
            let (local, local_errors) = w.join().expect("panel worker panicked");
            for (m, mut p) in local.into_iter().enumerate() {
                partials[m].append(&mut p);
            }
            for (m, mut e) in local_errors.into_iter().enumerate() {
                errors[m].append(&mut e);
            }
        }
    });
    let stops: Vec<usize> = stop_at.iter().map(|s| s.load(Ordering::Relaxed)).collect();
    let all_stopped = stops.iter().all(|&s| s != usize::MAX);
    let next = if all_stopped {
        end
    } else {
        cursor.load(Ordering::Relaxed).min(end)
    };
    PanelPass {
        partials,
        errors,
        stop_at: stops,
        next,
    }
}

#[cfg(not(feature = "parallel"))]
fn run_panel_parallel(
    engine: &PanelEngine<'_>,
    _threads: usize,
    begin: usize,
    end: usize,
    deadline: Option<Instant>,
    init_stop: Vec<usize>,
) -> PanelPass {
    run_panel_sequential(engine, begin, end, deadline, init_stop)
}
