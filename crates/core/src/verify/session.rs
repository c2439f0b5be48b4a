//! [`SweepSession`]: the single construction site for every sweep.
//!
//! `SweepSession` folds every axis of a run — execution mode, strategy
//! options, budget, telemetry recorder, shard — into one builder:
//!
//! ```ignore
//! let report = SweepSession::over(&universe)
//!     .mode(ExecMode::Parallel(4))
//!     .opts(SweepOpts::quotient())
//!     .budget(SweepBudget::with_deadline(limit))
//!     .metrics(&recorder)
//!     .run(&check);
//! ```
//!
//! Every `run*`/`resume*` method is the one sweep engine
//! ([`super::panel`]): the typed methods run it over the one check (its
//! own type, no erasure) and map the result back to a
//! [`VerificationReport`] / [`ResumeToken`] / [`SweepFragment`]; the
//! panel methods run it over the [`DynPropertyCheck`] members.
//! [`LazySweep`] is the streaming counterpart for iterator sources.
//!
//! # Sharding
//!
//! [`SweepSession::shard`] restricts the walk to the shard's contiguous
//! odometer range `[lo, hi)` of the flat index space (see
//! [`ShardSpec::range`]). Two run shapes exist on a sharded session:
//!
//! * [`run`](SweepSession::run) / [`run_panel`](SweepSession::run_panel)
//!   treat the shard range as the whole job and produce a normal report.
//!   When `hi < universe.len()` the report is flagged `interrupted` with
//!   [`Coverage::Sampled`] — correct, since one shard *is* a sample of
//!   the universe. Resume tokens never walk past the shard's `hi`.
//! * [`run_fragment`](SweepSession::run_fragment) /
//!   [`run_panel_fragment`](SweepSession::run_panel_fragment) produce the
//!   raw [`SweepFragment`] / [`PanelFragment`] — partials, errors and
//!   short-circuit frontier over `[lo, hi)` — which
//!   [`super::shard::merge_fragments`] and
//!   [`super::shard::merge_panel_fragments`] recombine into a report
//!   bit-identical to the unsharded run. This is the path the `audit`
//!   shard coordinator uses.
//!
//! # Budget semantics under shards
//!
//! [`SweepBudget::max_items`] is a per-*call* cap: on a sharded session it
//! caps items walked within this shard's range (and is additionally
//! clamped so the walk never leaves the range). [`SweepBudget::deadline`]
//! is wall-clock from the start of the call — per process, not split
//! across shards. Both are pinned by `budget` doc-tests and the
//! `engine_parity` interrupted-shard property.

use super::budget::{MemberFrontier, PanelResumeToken, ResumeToken, SweepBudget};
use super::check::{PropertyCheck, VerificationReport};
use super::erased::DynPropertyCheck;
use super::executor::{BudgetedSweep, ExecMode, SweepFragment, SweepOpts};
use super::panel::{self, BudgetedPanel, Keep, Member, PanelFragment, PanelReport, Run, Walk};
use super::shard::ShardSpec;
use super::telemetry::{MetricsRecorder, SweepRecorder};
use super::universe::{Coverage, Universe};
use crate::instance::{Instance, LabeledInstance};
use crate::label::Labeling;

/// A configured sweep over one universe: mode, strategy options, budget,
/// recorder and shard, assembled by chaining and fired by a `run_*`
/// method. Copy, so one session can fire several runs.
#[derive(Clone, Copy)]
pub struct SweepSession<'a> {
    universe: &'a Universe,
    mode: ExecMode,
    opts: SweepOpts,
    budget: SweepBudget,
    recorder: Option<&'a dyn SweepRecorder>,
    shard: Option<ShardSpec>,
}

impl<'a> SweepSession<'a> {
    /// Starts a session over `universe` with the defaults every shim
    /// historically used: [`ExecMode::Auto`], default [`SweepOpts`],
    /// unlimited budget, no recorder, no shard.
    pub fn over(universe: &'a Universe) -> SweepSession<'a> {
        SweepSession {
            universe,
            mode: ExecMode::Auto,
            opts: SweepOpts::default(),
            budget: SweepBudget::unlimited(),
            recorder: None,
            shard: None,
        }
    }

    /// Sets the execution mode (default [`ExecMode::Auto`]).
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the strategy options (default [`SweepOpts::default`]).
    pub fn opts(mut self, opts: SweepOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the execution budget (default unlimited). See the module docs
    /// for how `max_items` and `deadline` behave on a sharded session.
    pub fn budget(mut self, budget: SweepBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches any [`SweepRecorder`] implementation.
    pub fn recorder(mut self, recorder: &'a dyn SweepRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attaches the concrete [`MetricsRecorder`]. Without the `telemetry`
    /// feature the recorder is inert and this is a no-op in effect.
    pub fn metrics(self, recorder: &'a MetricsRecorder) -> Self {
        self.recorder(recorder)
    }

    /// Restricts the walk to `shard`'s contiguous range of the flat index
    /// space. See the module docs for the two sharded run shapes.
    pub fn shard(mut self, shard: ShardSpec) -> Self {
        self.shard = Some(shard);
        self
    }

    /// The index range this session walks: the shard's range, or the whole
    /// universe.
    pub fn range(&self) -> (usize, usize) {
        let n = self.universe.len();
        match self.shard {
            Some(s) => s.range(n),
            None => (0, n),
        }
    }

    /// The budget actually handed to the engine for a walk starting at
    /// `from`: unchanged when unsharded; on a sharded session `max_items`
    /// is clamped so the walk cannot leave `[from, hi)`.
    fn clamped_budget(&self, from: usize, hi: usize) -> SweepBudget {
        if self.shard.is_none() {
            return self.budget;
        }
        let span = hi.saturating_sub(from);
        SweepBudget {
            deadline: self.budget.deadline,
            max_items: Some(match self.budget.max_items {
                Some(m) => m.min(span),
                None => span,
            }),
        }
    }

    /// The engine settings for one call enclosed in `span`.
    fn walk(&self, span: &'static str, budget: SweepBudget) -> Walk<'a> {
        Walk {
            universe: self.universe,
            mode: self.mode,
            opts: self.opts,
            budget,
            recorder: self.recorder,
            span,
        }
    }

    /// One whole-range engine call from `token`. On a sharded session a
    /// continuation that has reached the shard's `hi` is spent: it is
    /// dropped so resume chains terminate at the shard boundary instead
    /// of spinning on an empty range.
    fn call<C: Member>(
        &self,
        span: &'static str,
        checks: &[C],
        token: PanelResumeToken<C::Partial>,
        keep: Option<Keep<C>>,
    ) -> Run<C::Verdict, C::Partial> {
        let (_, hi) = self.range();
        let budget = self.clamped_budget(token.next_index, hi);
        let mut run = panel::run(&self.walk(span, budget), checks, token, keep);
        if self.shard.is_some() && run.resume.as_ref().is_some_and(|t| t.next_index >= hi) {
            run.resume = None;
        }
        run
    }

    /// The engine over `check` alone, mapped back to the typed result.
    fn typed<'c, C: PropertyCheck>(
        &self,
        check: &'c C,
        token: ResumeToken<C::Partial>,
        keep: Option<Keep<&'c C>>,
    ) -> BudgetedSweep<C::Verdict, C::Partial> {
        let mut run = self.call("sweep", std::slice::from_ref(&check), token.into(), keep);
        BudgetedSweep {
            report: run.members.pop().expect("one member, one report"),
            resume: run.resume.map(ResumeToken::from),
        }
    }

    /// A fresh typed token starting at this session's range start.
    fn start_token<P>(&self) -> ResumeToken<P> {
        ResumeToken {
            next_index: self.range().0,
            ..ResumeToken::start()
        }
    }

    /// A fresh panel token starting at this session's range start.
    fn start_panel_token(&self, members: usize) -> PanelResumeToken {
        PanelResumeToken {
            next_index: self.range().0,
            ..PanelResumeToken::start(members)
        }
    }

    /// Sweeps `check` over the session's range, ignoring interruption
    /// bookkeeping (no resume token is built). With an unlimited budget
    /// and no shard this is the classic exhaustive sweep.
    pub fn run<C: PropertyCheck>(&self, check: &C) -> VerificationReport<C::Verdict> {
        self.typed(check, self.start_token(), None).report
    }

    /// Sweeps `check` and keeps the resume token when the budget (or the
    /// shard boundary) interrupts the walk. Requires `Clone` partials —
    /// the token carries a copy of the frontier.
    pub fn run_budgeted<C: PropertyCheck>(&self, check: &C) -> BudgetedSweep<C::Verdict, C::Partial>
    where
        C::Partial: Clone,
    {
        self.resume(check, self.start_token())
    }

    /// Continues an interrupted sweep from `token`. The combined chain of
    /// runs reproduces the uninterrupted report bit-for-bit.
    pub fn resume<C: PropertyCheck>(
        &self,
        check: &C,
        token: ResumeToken<C::Partial>,
    ) -> BudgetedSweep<C::Verdict, C::Partial>
    where
        C::Partial: Clone,
    {
        self.typed(check, token, Some(|_, p| p.clone()))
    }

    /// Walks the session's range and returns the raw [`SweepFragment`] —
    /// the shard-merge input — instead of reducing to a verdict.
    pub fn run_fragment<C: PropertyCheck>(&self, check: &C) -> SweepFragment<C::Partial> {
        self.resume_fragment(check, self.start_token())
    }

    /// Continues an interrupted fragment walk from `token` (built with
    /// [`SweepFragment::into_resume_token`]). A fragment chain over
    /// `[lo, hi)` is bit-identical to one uninterrupted fragment walk.
    pub fn resume_fragment<C: PropertyCheck>(
        &self,
        check: &C,
        token: ResumeToken<C::Partial>,
    ) -> SweepFragment<C::Partial> {
        let (lo, hi) = self.range();
        let walk = self.walk("sweep", self.budget);
        panel::fragment(&walk, std::slice::from_ref(&check), token.into(), lo, hi).into()
    }

    /// Fuses `checks` into one walk over the session's range.
    pub fn run_panel(&self, checks: &[DynPropertyCheck<'_>]) -> PanelReport {
        self.fused(checks, self.start_panel_token(checks.len()), None)
            .report
    }

    /// [`run_panel`](SweepSession::run_panel) keeping the panel resume
    /// token when the walk is interrupted.
    pub fn run_panel_budgeted(&self, checks: &[DynPropertyCheck<'_>]) -> BudgetedPanel {
        self.resume_panel(checks, self.start_panel_token(checks.len()))
    }

    /// Continues an interrupted panel from `token`.
    pub fn resume_panel(
        &self,
        checks: &[DynPropertyCheck<'_>],
        token: PanelResumeToken,
    ) -> BudgetedPanel {
        self.fused(checks, token, Some(|check, p| check.clone_partial(p)))
    }

    /// The engine over the panel's members, tagged into a panel report.
    fn fused<'c>(
        &self,
        checks: &[DynPropertyCheck<'c>],
        token: PanelResumeToken,
        keep: Option<Keep<DynPropertyCheck<'c>>>,
    ) -> BudgetedPanel {
        let run = self.call("panel", checks, token, keep);
        BudgetedPanel {
            report: PanelReport::assemble(checks, run.members, run.evidence),
            resume: run.resume,
        }
    }

    /// Walks the session's range and returns the raw [`PanelFragment`] —
    /// the panel shard-merge input — instead of reducing members.
    pub fn run_panel_fragment(&self, checks: &[DynPropertyCheck<'_>]) -> PanelFragment {
        self.resume_panel_fragment(checks, self.start_panel_token(checks.len()))
    }

    /// Continues an interrupted panel fragment walk from `token` (built
    /// with [`PanelFragment::into_resume_token`]).
    pub fn resume_panel_fragment(
        &self,
        checks: &[DynPropertyCheck<'_>],
        token: PanelResumeToken,
    ) -> PanelFragment {
        let (lo, hi) = self.range();
        let walk = self.walk("panel", self.budget);
        panel::fragment(&walk, checks, token, lo, hi)
    }

    /// Re-derives the panel records a walk left at each ascending list of
    /// items, under the session's strategy, with no recorder and no budget
    /// (see [`panel::replay`]); fails with the first listed item the walk
    /// jumps over as part of a copy block. The shard merge checks shard
    /// reports against it.
    pub(super) fn replay_panel(
        &self,
        checks: &[DynPropertyCheck<'_>],
        lists: &[Vec<usize>],
    ) -> Result<Vec<Vec<MemberFrontier>>, usize> {
        panel::replay(&self.walk("panel", self.budget), checks, lists)
    }
}

/// The streaming counterpart of [`SweepSession`]: sweeps a check over
/// items pulled lazily from an iterator instead of an indexed universe.
///
/// Two sources exist:
///
/// * [`LazySweep::of`] fixes one instance and pulls *labelings* — the
///   memory-bounded way to walk `|alphabet|^n` assignments, stopping the
///   pull at the first short-circuit or budget expiry;
/// * [`LazySweep::labeled`] pulls whole [`LabeledInstance`]s (one
///   instance per item, e.g. identifier variants), each with its own
///   one-item skeleton cache; fire with
///   [`run_labeled`](LazySweep::run_labeled).
///
/// Lazy sweeps are always sequential and unsharded: the source is
/// stateful, so there is no index space to partition.
#[derive(Clone, Copy)]
pub struct LazySweep<'a> {
    instance: Option<&'a Instance>,
    coverage: Coverage,
    budget: SweepBudget,
}

impl<'a> LazySweep<'a> {
    /// A lazy sweep drawing labelings of `instance`.
    pub fn of(instance: &'a Instance, coverage: Coverage) -> LazySweep<'a> {
        LazySweep {
            instance: Some(instance),
            coverage,
            budget: SweepBudget::unlimited(),
        }
    }

    /// A lazy sweep drawing whole labeled instances; fire with
    /// [`run_labeled`](LazySweep::run_labeled).
    pub fn labeled(coverage: Coverage) -> LazySweep<'static> {
        LazySweep {
            instance: None,
            coverage,
            budget: SweepBudget::unlimited(),
        }
    }

    /// Sets the execution budget (default unlimited). An expired budget
    /// stops *drawing* — a stateful source is never advanced past the
    /// limit — and the report says how many items were drawn.
    pub fn budget(mut self, budget: SweepBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sweeps `check` over `labelings` of the fixed instance.
    ///
    /// # Panics
    ///
    /// When the sweep was built with [`LazySweep::labeled`] — that source
    /// has no fixed instance; use [`run_labeled`](LazySweep::run_labeled).
    pub fn run<C: PropertyCheck>(
        &self,
        check: &C,
        labelings: impl IntoIterator<Item = Labeling>,
    ) -> VerificationReport<C::Verdict> {
        let instance = self.instance.expect(
            "LazySweep::run needs a fixed instance; build with LazySweep::of \
             (LazySweep::labeled sources fire with run_labeled)",
        );
        let items = labelings.into_iter().map(|labeling| (None, labeling));
        panel::draw(check, Some(instance), items, self.coverage, &self.budget)
    }

    /// Sweeps `check` over labeled instances pulled from `items`.
    pub fn run_labeled<C: PropertyCheck>(
        &self,
        check: &C,
        items: impl IntoIterator<Item = LabeledInstance>,
    ) -> VerificationReport<C::Verdict> {
        let items = items.into_iter().map(|li| {
            let (instance, labeling) = li.into_parts();
            (Some(instance), labeling)
        });
        panel::draw(check, None, items, self.coverage, &self.budget)
    }
}
