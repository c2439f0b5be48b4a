//! [`SweepSession`]: the single construction site for every sweep.
//!
//! `SweepSession` folds every axis of a run — execution mode, strategy,
//! budget, telemetry recorder — into one builder:
//!
//! ```ignore
//! let report = SweepSession::over(&universe)
//!     .mode(ExecMode::Parallel(4))
//!     .strategy(SweepStrategy::DecodeOracle)
//!     .budget(SweepBudget::with_deadline(limit))
//!     .metrics(&recorder)
//!     .run(&check);
//! ```
//!
//! Every firing method is the one sweep engine ([`super::panel`]): the
//! typed methods run it over the one check (its own type, no erasure),
//! the panel methods over the [`DynPropertyCheck`] members.
//! [`LazySweep`] is the streaming counterpart for iterator sources.
//!
//! # Two run shapes
//!
//! * [`run`](SweepSession::run) / [`run_panel`](SweepSession::run_panel)
//!   walk the whole universe and reduce it into a report. A budget that
//!   stops the walk flags the report `interrupted` with
//!   [`Coverage::Sampled`](super::Coverage::Sampled).
//! * [`run_fragment`](SweepSession::run_fragment) /
//!   [`run_panel_fragment`](SweepSession::run_panel_fragment) walk one
//!   shard's contiguous range `[lo, hi)` (see [`ShardSpec::range`]) and
//!   return the raw [`PanelFragment`] — partials, errors and
//!   short-circuit frontier — which [`super::shard::merge_fragments`] and
//!   [`super::shard::merge_panel_fragments`] recombine into a report
//!   bit-identical to the unsharded run. A fragment the budget stopped
//!   has `next < hi`;
//!   [`resume_fragment`](SweepSession::resume_fragment) /
//!   [`resume_panel_fragment`](SweepSession::resume_panel_fragment) walk
//!   on from there. This is the path the `audit` shard children use.
//!
//! # Budget semantics under shards
//!
//! [`SweepBudget::max_items`] is a per-*call* cap: on a fragment walk it
//! caps the items walked within the shard's range.
//! [`SweepBudget::deadline`] is wall-clock from the start of the call —
//! per process, not split across shards. Both are pinned by the
//! `engine_parity` per-shard budget test and interrupted-shard property.

use super::budget::SweepBudget;
use super::check::{PropertyCheck, VerificationReport};
use super::erased::DynPropertyCheck;
use super::executor::{ExecMode, SweepStrategy};
use super::panel::{self, PanelFragment, PanelReport};
use super::shard::ShardSpec;
use super::telemetry::{MetricsRecorder, SweepRecorder};
use super::universe::{Coverage, Universe};
use crate::instance::{Instance, LabeledInstance};
use crate::label::Labeling;

/// A configured sweep over one universe: mode, strategy, budget and
/// recorder, assembled by chaining and fired by a `run_*` or
/// `resume_*` method. Copy, so one session can fire several runs.
#[derive(Clone, Copy)]
pub struct SweepSession<'a> {
    pub(super) universe: &'a Universe,
    pub(super) mode: ExecMode,
    pub(super) strategy: SweepStrategy,
    pub(super) budget: SweepBudget,
    pub(super) recorder: Option<&'a dyn SweepRecorder>,
}

impl<'a> SweepSession<'a> {
    /// Starts a session over `universe` with the defaults:
    /// [`ExecMode::Auto`], [`SweepStrategy::DeltaStepping`], unlimited
    /// budget, no recorder.
    pub fn over(universe: &'a Universe) -> SweepSession<'a> {
        SweepSession {
            universe,
            mode: ExecMode::Auto,
            strategy: SweepStrategy::DeltaStepping,
            budget: SweepBudget::unlimited(),
            recorder: None,
        }
    }

    /// Sets the execution mode (default [`ExecMode::Auto`]).
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the strategy (default [`SweepStrategy::DeltaStepping`]).
    pub fn strategy(mut self, strategy: SweepStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the execution budget (default unlimited). See the module docs
    /// for how `max_items` and `deadline` behave on a fragment walk.
    pub fn budget(mut self, budget: SweepBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches any [`SweepRecorder`] implementation.
    pub fn recorder(mut self, recorder: &'a dyn SweepRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attaches the concrete [`MetricsRecorder`].
    pub fn metrics(self, recorder: &'a MetricsRecorder) -> Self {
        self.recorder(recorder)
    }

    /// Sweeps `check` over the whole universe. With an unlimited budget
    /// this is the classic exhaustive sweep; a budget stop reports the
    /// visited prefix as interrupted.
    pub fn run<C: PropertyCheck>(&self, check: &C) -> VerificationReport<C::Verdict> {
        let (mut reports, _) = panel::run(self, std::slice::from_ref(&check));
        reports.pop().expect("one member, one report")
    }

    /// Walks `shard`'s range and returns the raw one-member
    /// [`PanelFragment`] — the shard-merge input — instead of reducing to
    /// a verdict. A budget stop returns it with `next < hi`.
    pub fn run_fragment<C: PropertyCheck>(
        &self,
        check: &C,
        shard: ShardSpec,
    ) -> PanelFragment<C::Partial> {
        self.resume_fragment(check, PanelFragment::open(shard, self.universe.len(), 1))
    }

    /// Walks `fragment` on from its `next` to its `hi`. A chain of calls
    /// over `[lo, hi)` ends in the fragment one uninterrupted walk of the
    /// range returns.
    pub fn resume_fragment<C: PropertyCheck>(
        &self,
        check: &C,
        fragment: PanelFragment<C::Partial>,
    ) -> PanelFragment<C::Partial> {
        panel::fragment(self, std::slice::from_ref(&check), fragment)
    }

    /// Fuses `checks` into one walk over the whole universe.
    pub fn run_panel(&self, checks: &[DynPropertyCheck<'_>]) -> PanelReport {
        let (members, evidence) = panel::run(self, checks);
        PanelReport::assemble(checks, members, evidence)
    }

    /// Walks `shard`'s range with `checks` fused and returns the raw
    /// [`PanelFragment`] — the panel shard-merge input — instead of
    /// reducing members. A budget stop returns it with `next < hi`.
    pub fn run_panel_fragment(
        &self,
        checks: &[DynPropertyCheck<'_>],
        shard: ShardSpec,
    ) -> PanelFragment {
        let fragment = PanelFragment::open(shard, self.universe.len(), checks.len());
        self.resume_panel_fragment(checks, fragment)
    }

    /// Walks the panel `fragment` on from its `next` to its `hi`.
    pub fn resume_panel_fragment(
        &self,
        checks: &[DynPropertyCheck<'_>],
        fragment: PanelFragment,
    ) -> PanelFragment {
        panel::fragment(self, checks, fragment)
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

    /// Sets the execution budget (default unlimited). The budget is
    /// checked before each pull, so an expired budget stops *drawing* — a
    /// stateful source is never advanced past the limit — and the report
    /// says how many items were drawn. A source cut at its limit reads
    /// interrupted even when it would have run dry next: only a pull can
    /// tell.
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
