//! Type-erased property checks: the unit a fused panel schedules.
//!
//! [`PropertyCheck`] is generic over its `Partial` and `Verdict` types,
//! which is exactly right for a single sweep but makes heterogeneous
//! collections impossible — a panel wants *soundness and strong soundness
//! and hiding* walking the same enumeration. [`DynPropertyCheck`] closes
//! the gap: partials travel as [`ErasedPartial`] boxes, verdicts come back
//! inside an enum-tagged [`PanelVerdict`], and the concrete types are
//! recovered by downcast at the edges. The erasure is glue, not policy:
//! every member call delegates 1:1 to the wrapped check, so a single-member
//! panel is observationally the plain sweep (the differential suite holds
//! the engine to that).
//!
//! # Verdict channels
//!
//! Delta-evaluated sweeps maintain a per-node verdict vector for the
//! check's [`PropertyCheck::verdict_decoder`]. When several panel members
//! read the *same* decoder (the paper's audits run soundness + strong +
//! hiding over one scheme), maintaining that vector once per member would
//! waste the fusion win — so members carry an optional *channel key*
//! ([`DynPropertyCheck::with_channel`]): members with equal keys share one
//! delta-maintained vector and one verdict memo. The key is the
//! decoder's object identity (its address), which is conservative by
//! construction: two members only share a channel when the caller handed
//! them literally the same decoder, and a member with no explicit key gets
//! a private channel. Sharing a channel never changes verdicts — only how
//! often the decoder runs — because a node verdict is a pure function of
//! the view.

use super::check::{PropertyCheck, SweepOutcome};
use super::interner::InternerReport;
use super::symmetry::SymmetrySpec;
use super::universe::{Universe, UniverseItem};
use super::ItemCtx;
use crate::decoder::{Decoder, Verdict};
use crate::label::Certificate;
use crate::view::IdMode;
use std::any::Any;

/// A boxed per-item partial of some member check.
pub type ErasedPartial = Box<dyn Any + Send>;

/// A boxed final verdict of some member check.
pub type ErasedVerdict = Box<dyn Any + Send>;

/// Which certification property a panel member claims to check. Purely
/// descriptive — it tags reports and JSON output; the executor never
/// branches on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PropertyTag {
    /// Honest certificates are accepted everywhere.
    Completeness,
    /// No-instances admit no accepting labeling.
    Soundness,
    /// Strong soundness: accepting sets induce yes-subgraphs.
    Strong,
    /// Views leak nothing beyond the property.
    Hiding,
    /// Robustness to erased certificates.
    Erasure,
    /// Identifier/order invariance.
    Invariance,
    /// Quantified extractability.
    Quantified,
    /// Anything else (tests, ad-hoc probes).
    Custom,
}

impl PropertyTag {
    /// Stable lowercase name, used in reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            PropertyTag::Completeness => "completeness",
            PropertyTag::Soundness => "soundness",
            PropertyTag::Strong => "strong",
            PropertyTag::Hiding => "hiding",
            PropertyTag::Erasure => "erasure",
            PropertyTag::Invariance => "invariance",
            PropertyTag::Quantified => "quantified",
            PropertyTag::Custom => "custom",
        }
    }
}

/// Object-safe mirror of [`PropertyCheck`] with boxed payloads, plus the
/// two operations panels need beyond it: cloning a partial (for resume
/// tokens) and summarizing a verdict (for reports).
trait ErasedCheck: Sync {
    fn view_configs(&self) -> Vec<(usize, IdMode)>;
    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<ErasedPartial>;
    fn verdict_decoder(&self) -> Option<&dyn Decoder>;
    fn uses_verdicts(&self, block: usize) -> bool;
    fn inspect_with_verdicts(
        &self,
        item: &UniverseItem<'_>,
        verdicts: &[Verdict],
        ctx: &ItemCtx<'_>,
    ) -> Option<ErasedPartial>;
    fn short_circuits(&self, partial: &ErasedPartial) -> bool;
    fn symmetry_class(&self, alphabet: &[Certificate]) -> Option<SymmetrySpec>;
    fn interner_report(&self) -> Option<InternerReport>;
    fn clone_partial(&self, partial: &ErasedPartial) -> ErasedPartial;
    fn reduce(
        &self,
        universe: &Universe,
        partials: Vec<(usize, ErasedPartial)>,
        outcome: &SweepOutcome,
    ) -> ErasedVerdict;
    fn summarize(&self, verdict: &dyn Any) -> (Option<bool>, String);
}

/// The generic-to-erased adapter. Partial downcasts cannot fail: every
/// box handed back to a member was produced by that member's own
/// `inspect`, which the engine guarantees by keying partials by member
/// index.
struct ErasedMember<C: PropertyCheck> {
    check: C,
    summarize: Option<Summarizer<C::Verdict>>,
}

/// A member's verdict-to-report-line projection: `(passed, detail)`.
type Summarizer<V> = fn(&V) -> (Option<bool>, String);

impl<C> ErasedCheck for ErasedMember<C>
where
    C: PropertyCheck,
    C::Partial: Any + Clone,
    C::Verdict: Any + Send,
{
    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        self.check.view_configs()
    }

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<ErasedPartial> {
        self.check
            .inspect(item, ctx)
            .map(|p| Box::new(p) as ErasedPartial)
    }

    fn verdict_decoder(&self) -> Option<&dyn Decoder> {
        self.check.verdict_decoder()
    }

    fn uses_verdicts(&self, block: usize) -> bool {
        self.check.uses_verdicts(block)
    }

    fn inspect_with_verdicts(
        &self,
        item: &UniverseItem<'_>,
        verdicts: &[Verdict],
        ctx: &ItemCtx<'_>,
    ) -> Option<ErasedPartial> {
        self.check
            .inspect_with_verdicts(item, verdicts, ctx)
            .map(|p| Box::new(p) as ErasedPartial)
    }

    fn short_circuits(&self, partial: &ErasedPartial) -> bool {
        let partial = partial
            .downcast_ref::<C::Partial>()
            .expect("panel partial belongs to this member");
        self.check.short_circuits(partial)
    }

    fn symmetry_class(&self, alphabet: &[Certificate]) -> Option<SymmetrySpec> {
        self.check.symmetry_class(alphabet)
    }

    fn interner_report(&self) -> Option<InternerReport> {
        self.check.interner_report()
    }

    fn clone_partial(&self, partial: &ErasedPartial) -> ErasedPartial {
        let partial = partial
            .downcast_ref::<C::Partial>()
            .expect("panel partial belongs to this member");
        Box::new(partial.clone())
    }

    fn reduce(
        &self,
        universe: &Universe,
        partials: Vec<(usize, ErasedPartial)>,
        outcome: &SweepOutcome,
    ) -> ErasedVerdict {
        let partials = partials
            .into_iter()
            .map(|(i, p)| {
                let p = p
                    .downcast::<C::Partial>()
                    .expect("panel partial belongs to this member");
                (i, *p)
            })
            .collect();
        Box::new(self.check.reduce(universe, partials, outcome))
    }

    fn summarize(&self, verdict: &dyn Any) -> (Option<bool>, String) {
        let verdict = verdict
            .downcast_ref::<C::Verdict>()
            .expect("panel verdict belongs to this member");
        match self.summarize {
            Some(f) => f(verdict),
            None => (None, String::new()),
        }
    }
}

/// A type-erased property check: one member of a fused panel.
///
/// Wraps any [`PropertyCheck`] whose partial is `Clone + 'static` and
/// whose verdict is `Send + 'static` — which is every checker in this
/// crate. Also implements [`PropertyCheck`] itself (with boxed payloads),
/// so a wrapped member can run on the plain sweep entry points; the panel
/// differential suite leans on that to prove erasure adds nothing.
pub struct DynPropertyCheck<'a> {
    tag: PropertyTag,
    label: String,
    channel_key: Option<usize>,
    inner: Box<dyn ErasedCheck + 'a>,
}

impl std::fmt::Debug for DynPropertyCheck<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynPropertyCheck")
            .field("tag", &self.tag)
            .field("label", &self.label)
            .field("channel_key", &self.channel_key)
            .finish_non_exhaustive()
    }
}

impl<'a> DynPropertyCheck<'a> {
    /// Erases `check` under `tag`/`label`, with a private verdict channel
    /// and no verdict summary.
    pub fn new<C>(tag: PropertyTag, label: impl Into<String>, check: C) -> DynPropertyCheck<'a>
    where
        C: PropertyCheck + 'a,
        C::Partial: Any + Clone,
        C::Verdict: Any + Send,
    {
        DynPropertyCheck {
            tag,
            label: label.into(),
            channel_key: None,
            inner: Box::new(ErasedMember {
                check,
                summarize: None,
            }),
        }
    }

    /// Like [`DynPropertyCheck::new`], additionally attaching a verdict
    /// summarizer: `(passed, detail)` for reports and JSON, where `None`
    /// means "this verdict has no pass/fail reading".
    pub fn with_summary<C>(
        tag: PropertyTag,
        label: impl Into<String>,
        check: C,
        summarize: fn(&C::Verdict) -> (Option<bool>, String),
    ) -> DynPropertyCheck<'a>
    where
        C: PropertyCheck + 'a,
        C::Partial: Any + Clone,
        C::Verdict: Any + Send,
    {
        DynPropertyCheck {
            tag,
            label: label.into(),
            channel_key: None,
            inner: Box::new(ErasedMember {
                check,
                summarize: Some(summarize),
            }),
        }
    }

    /// Joins this member to `decoder`'s verdict channel: members built
    /// `with_channel` on the *same decoder object* share one
    /// delta-maintained verdict vector and verdict memo in a panel (see
    /// the module docs). The caller asserts the member's
    /// [`PropertyCheck::verdict_decoder`] behaves identically to
    /// `decoder` — trivially true when it *is* `decoder`.
    pub fn with_channel(mut self, decoder: &dyn Decoder) -> Self {
        // Stored as a usize because the key's only job is equality: raw
        // pointers would poison `Send`/`Sync` and are never dereferenced.
        self.channel_key = Some(decoder as *const dyn Decoder as *const () as usize);
        self
    }

    /// The property this member claims to check.
    pub fn tag(&self) -> PropertyTag {
        self.tag
    }

    /// Human-readable member label (distinct from the tag when one
    /// property contributes several members).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The member's verdict-channel key, if it joined a shared channel.
    pub fn channel_key(&self) -> Option<usize> {
        self.channel_key
    }

    pub(super) fn clone_partial(&self, partial: &ErasedPartial) -> ErasedPartial {
        self.inner.clone_partial(partial)
    }

    pub(super) fn summarize(&self, verdict: &dyn Any) -> (Option<bool>, String) {
        self.inner.summarize(verdict)
    }
}

impl PropertyCheck for DynPropertyCheck<'_> {
    type Partial = ErasedPartial;
    type Verdict = ErasedVerdict;

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        self.inner.view_configs()
    }

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<ErasedPartial> {
        self.inner.inspect(item, ctx)
    }

    fn verdict_decoder(&self) -> Option<&dyn Decoder> {
        self.inner.verdict_decoder()
    }

    fn uses_verdicts(&self, block: usize) -> bool {
        self.inner.uses_verdicts(block)
    }

    fn inspect_with_verdicts(
        &self,
        item: &UniverseItem<'_>,
        verdicts: &[Verdict],
        ctx: &ItemCtx<'_>,
    ) -> Option<ErasedPartial> {
        self.inner.inspect_with_verdicts(item, verdicts, ctx)
    }

    fn short_circuits(&self, partial: &ErasedPartial) -> bool {
        self.inner.short_circuits(partial)
    }

    fn symmetry_class(&self, alphabet: &[Certificate]) -> Option<SymmetrySpec> {
        self.inner.symmetry_class(alphabet)
    }

    fn interner_report(&self) -> Option<InternerReport> {
        self.inner.interner_report()
    }

    fn reduce(
        &self,
        universe: &Universe,
        partials: Vec<(usize, ErasedPartial)>,
        outcome: &SweepOutcome,
    ) -> ErasedVerdict {
        self.inner.reduce(universe, partials, outcome)
    }
}

/// One member's final verdict inside a panel report: the boxed concrete
/// verdict plus the member's own summary of it.
pub struct PanelVerdict {
    /// The member's property tag.
    pub tag: PropertyTag,
    /// The member's label.
    pub label: String,
    /// `Some(true)` = property held, `Some(false)` = violated, `None` =
    /// the member attached no pass/fail summary.
    pub passed: Option<bool>,
    /// Human-readable verdict detail (empty without a summarizer).
    pub detail: String,
    value: ErasedVerdict,
}

impl PanelVerdict {
    pub(super) fn new(
        tag: PropertyTag,
        label: String,
        passed: Option<bool>,
        detail: String,
        value: ErasedVerdict,
    ) -> PanelVerdict {
        PanelVerdict {
            tag,
            label,
            passed,
            detail,
            value,
        }
    }

    /// Borrows the concrete verdict, if `V` is its type.
    pub fn get<V: Any>(&self) -> Option<&V> {
        self.value.downcast_ref::<V>()
    }

    /// Recovers the concrete verdict by value; `Err(self)` when `V` is
    /// not its type.
    pub fn downcast<V: Any>(self) -> Result<V, PanelVerdict> {
        match self.value.downcast::<V>() {
            Ok(v) => Ok(*v),
            Err(value) => Err(PanelVerdict { value, ..self }),
        }
    }
}

impl std::fmt::Debug for PanelVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PanelVerdict")
            .field("tag", &self.tag)
            .field("label", &self.label)
            .field("passed", &self.passed)
            .field("detail", &self.detail)
            .finish_non_exhaustive()
    }
}
