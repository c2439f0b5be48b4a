//! The [`PropertyCheck`] trait: what a property must provide to run on the
//! sweep executor, and the [`VerificationReport`] every sweep returns.
//!
//! A check is split map/reduce-style:
//!
//! * [`PropertyCheck::inspect`] examines **one** universe item in isolation
//!   and returns an optional [`PropertyCheck::Partial`] — the per-item
//!   evidence (a violation, a scan of accepting views, a trial outcome).
//!   Inspection must be a pure function of the item, which is what lets the
//!   executor run items on worker threads in any order.
//! * [`PropertyCheck::fold`] is the engine's per-item call. By default it
//!   is `inspect`, and every partial is kept; a check that needs only
//!   the lowest-index witness per key claims keys there instead, so each
//!   worker's record keeps one entry per witnessing item.
//! * [`PropertyCheck::short_circuits`] says whether a partial already
//!   decides the sweep (e.g. a soundness violation). The executor then
//!   stops at the *lowest-index* short-circuiting item, so every thread
//!   count reports the identical witness.
//! * [`PropertyCheck::reduce`] folds the surviving partials — delivered in
//!   item order — into the final verdict.
//!
//! A check that reads a decoder's node verdicts names that decoder in
//! [`PropertyCheck::verdict_decoder`] and reads them with
//! [`ItemCtx::verdicts`] inside its one `inspect`. The engine serves them
//! from its delta-maintained vector where it keeps one and decides them
//! on the item's stamped views elsewhere, so each property is written
//! once and every strategy runs the same body.

use super::budget::SweepError;
use super::symmetry::SymmetrySpec;
use super::telemetry::WalkCounts;
use super::universe::{Coverage, Universe, UniverseItem};
use super::ItemCtx;
use crate::decoder::Decoder;
use crate::label::Certificate;
use crate::view::IdMode;
use std::time::Duration;

/// A property checkable by sweeping a [`Universe`].
pub trait PropertyCheck: Sync {
    /// Per-item evidence produced by [`PropertyCheck::inspect`].
    type Partial: Send;
    /// The sweep's final verdict produced by [`PropertyCheck::reduce`].
    type Verdict;

    /// The `(radius, id_mode)` view configurations this check requests per
    /// item. The executor precomputes one [`crate::view::ViewSkeleton`] per
    /// node per configuration per block, so every labeling of a block
    /// reuses the same canonicalization. Configurations not listed here are
    /// still served by [`ItemCtx::view`], just without the cache.
    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        Vec::new()
    }

    /// Examines one item; `None` means "nothing to record".
    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<Self::Partial>;

    /// Inspects one item into one worker's record of the walk: the engine
    /// calls this rather than [`inspect`] and appends the partial it
    /// returns. `claim(key)` folds the item into the record instead of
    /// appending: it claims `key` for the item unless the worker's record
    /// already holds it, and says whether the claim is new. The default
    /// claims nothing and returns [`inspect`]'s partial, so a check that
    /// keeps every partial needs nothing here.
    ///
    /// A check whose verdict reads only the lowest-index occurrence of
    /// each key (one witness per key) claims every key the item holds and
    /// returns a partial only when a claim was new, so an item that adds
    /// no witness files nothing. A worker walks its items in index order,
    /// so its first claim of a key is its lowest; after the join the engine
    /// keeps, per key, the lowest claim over the workers and drops every
    /// entry whose claims were all undercut, so the walk's record holds
    /// exactly the items some key is first claimed at, at every thread
    /// count. A surviving partial may still list a key a lower item also
    /// holds: [`reduce`] must take each key from the lowest-index partial
    /// that lists it. Every decoder call of an item must come before its
    /// first claim, and the engine withdraws the claims of an item whose
    /// inspection panics.
    ///
    /// [`inspect`]: PropertyCheck::inspect
    /// [`reduce`]: PropertyCheck::reduce
    fn fold(
        &self,
        item: &UniverseItem<'_>,
        ctx: &ItemCtx<'_>,
        claim: &mut dyn FnMut(u64) -> bool,
    ) -> Option<Self::Partial> {
        let _ = claim;
        self.inspect(item, ctx)
    }

    /// The decoder whose per-node verdicts this check's [`inspect`] reads
    /// through [`ItemCtx::verdicts`], if it has one. Returning `Some` opts
    /// the check into the executor's delta-evaluation fast path: on
    /// `All`-labeled blocks the executor maintains a per-thread verdict
    /// vector for this decoder — re-deciding only the nodes whose radius-r
    /// ball contains a changed odometer digit — and hands it to
    /// [`inspect`] as the item's verdicts.
    ///
    /// Contract: the decoder must be *pure* (same view → same verdict),
    /// which the LCP model already requires; the `engine_parity` suite
    /// holds the delta vector to the decoder run on stamped views.
    ///
    /// [`inspect`]: PropertyCheck::inspect
    fn verdict_decoder(&self) -> Option<&dyn Decoder> {
        None
    }

    /// Whether the delta path should maintain verdicts on `block` at all.
    /// Checks that ignore some blocks entirely (e.g. the neighborhood-graph
    /// scan skips no-instances) override this so those blocks cost nothing;
    /// an [`ItemCtx::verdicts`] call there decides on the stamped views.
    fn uses_verdicts(&self, _block: usize) -> bool {
        true
    }

    /// Whether `partial` decides the sweep immediately.
    fn short_circuits(&self, _partial: &Self::Partial) -> bool {
        false
    }

    /// The symmetries this check's partials and verdict are invariant
    /// under on an `All`-labeled block with the given certificate
    /// alphabet. Returning `Some` opts the check into the in-block orbit
    /// quotient of [`super::SweepStrategy::DeltaStepping`] (mirroring the
    /// [`verdict_decoder`] opt-in): the walk then skips every
    /// non-canonical orbit member and hands the representative's orbit
    /// size to [`inspect`] via [`ItemCtx::multiplicity`], so weighted
    /// counts stay bit-exact against the full walk.
    ///
    /// Contract: for every declared symmetry `g` and every item `L`, the
    /// check must produce an equivalent partial (and identical
    /// short-circuit decision) on `g · L` as on `L`. Declaring
    /// [`SymmetrySpec::automorphisms`] also covers port-preserving
    /// isomorphisms between blocks, which delta stepping uses to walk one
    /// block per class. Checks that cannot vouch for this return `None`
    /// (the default) and keep the full walk; the
    /// [`super::SweepStrategy::DecodeOracle`] always walks in full.
    ///
    /// [`verdict_decoder`]: PropertyCheck::verdict_decoder
    /// [`inspect`]: PropertyCheck::inspect
    fn symmetry_class(&self, _alphabet: &[Certificate]) -> Option<SymmetrySpec> {
        None
    }

    /// Folds the recorded partials (sorted by item index; truncated at the
    /// first short-circuiting one, if any) into the verdict.
    fn reduce(
        &self,
        universe: &Universe,
        partials: Vec<(usize, Self::Partial)>,
        outcome: &SweepOutcome,
    ) -> Self::Verdict;
}

/// A shared reference runs as the check it points to. This is what lets
/// one owned check back several engine calls: a typed sweep runs the
/// engine with `&check` as its one member, and panel members built over
/// `&check` keep the checks (and their interners) alive outside the
/// member list.
impl<C: PropertyCheck> PropertyCheck for &C {
    type Partial = C::Partial;
    type Verdict = C::Verdict;

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        (**self).view_configs()
    }

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<Self::Partial> {
        (**self).inspect(item, ctx)
    }

    fn fold(
        &self,
        item: &UniverseItem<'_>,
        ctx: &ItemCtx<'_>,
        claim: &mut dyn FnMut(u64) -> bool,
    ) -> Option<Self::Partial> {
        (**self).fold(item, ctx, claim)
    }

    fn verdict_decoder(&self) -> Option<&dyn Decoder> {
        (**self).verdict_decoder()
    }

    fn uses_verdicts(&self, block: usize) -> bool {
        (**self).uses_verdicts(block)
    }

    fn short_circuits(&self, partial: &Self::Partial) -> bool {
        (**self).short_circuits(partial)
    }

    fn symmetry_class(&self, alphabet: &[Certificate]) -> Option<SymmetrySpec> {
        (**self).symmetry_class(alphabet)
    }

    fn reduce(
        &self,
        universe: &Universe,
        partials: Vec<(usize, Self::Partial)>,
        outcome: &SweepOutcome,
    ) -> Self::Verdict {
        (**self).reduce(universe, partials, outcome)
    }
}

/// What the executor observed, available to [`PropertyCheck::reduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Number of items inspected, counted with sequential semantics: if a
    /// short-circuit fired at index `i`, this is `i + 1` regardless of how
    /// many extra items worker threads touched before noticing the stop.
    ///
    /// **Panel semantics.** In a fused panel
    /// ([`SweepSession::run_panel`](super::SweepSession::run_panel)) the
    /// count is *per member*: a member that short-circuited at its lowest
    /// index `s_m` receives `checked = s_m + 1` — exactly what its own
    /// single-check sweep would report — while a member that never
    /// short-circuited receives the panel walk's end (the universe size,
    /// or the interruption point). Members therefore see *different*
    /// `checked` counts from the same enumeration; the enumeration itself
    /// ends at `max_m s_m + 1` once every member has stopped.
    pub checked: usize,
    /// Total number of items in the universe.
    pub universe_size: usize,
    /// Whether a short-circuiting partial ended the sweep early.
    pub short_circuited: bool,
    /// How many universe items the member's panicked inspections stood
    /// for: each errored item counted with its [`ItemCtx::multiplicity`],
    /// so a check that counts the walked range in closed form can leave
    /// them out.
    pub errored: u64,
}

/// Execution evidence of one sweep (or one fused panel): everything the
/// executor observed that is not the property verdict itself.
///
/// Shared by [`VerificationReport`] and the panel reports so no caller
/// hand-copies the field list. Verdict-carrying wrappers expose these
/// fields transparently via `Deref`.
#[derive(Debug, Clone)]
pub struct ExecEvidence {
    /// Items inspected (sequential semantics, see [`SweepOutcome::checked`]).
    pub checked: usize,
    /// Total items in the universe.
    pub universe_size: usize,
    /// Whether the sweep stopped at a short-circuiting item.
    pub short_circuited: bool,
    /// Whether an execution budget ended the sweep before the universe
    /// (or the short-circuit) did. An interrupted sweep's verdict covers
    /// only the visited prefix.
    pub interrupted: bool,
    /// The coverage actually achieved: the universe's own coverage,
    /// downgraded to [`Coverage::Sampled`] when the sweep was interrupted
    /// or items errored — partial evidence is never universal.
    pub coverage: Coverage,
    /// Items whose inspection panicked (caught, not propagated), sorted
    /// by index.
    pub errors: Vec<SweepError>,
    /// The walk's counts, one per [`SweepCounter`](super::SweepCounter):
    /// its workers' summed tallies (items walked and inspected, cache and
    /// memo traffic, budget stops, …). Zero for a shard merge, which
    /// walks nothing.
    pub counts: WalkCounts,
    /// Wall-clock time of the sweep (cache build included).
    pub elapsed: Duration,
    /// Worker threads used (1 = sequential).
    pub threads: usize,
}

/// The result of one sweep: the property verdict plus execution evidence.
///
/// Dereferences to its [`ExecEvidence`], so `report.checked`,
/// `report.coverage` etc. read straight through.
#[derive(Debug, Clone)]
pub struct VerificationReport<V> {
    /// The property verdict.
    pub verdict: V,
    /// What the executor observed while producing it.
    pub evidence: ExecEvidence,
}

impl<V> std::ops::Deref for VerificationReport<V> {
    type Target = ExecEvidence;

    fn deref(&self) -> &ExecEvidence {
        &self.evidence
    }
}

impl<V> std::ops::DerefMut for VerificationReport<V> {
    fn deref_mut(&mut self) -> &mut ExecEvidence {
        &mut self.evidence
    }
}

impl<V> VerificationReport<V> {
    /// Maps the verdict, preserving all execution evidence.
    pub fn map<W>(self, f: impl FnOnce(V) -> W) -> VerificationReport<W> {
        VerificationReport {
            verdict: f(self.verdict),
            evidence: self.evidence,
        }
    }
}
