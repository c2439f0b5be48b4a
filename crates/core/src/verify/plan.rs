//! Declarative audit plans: the whole property battery as data.
//!
//! An [`AuditPlan`] names *what* to audit — a decoder, a language, an
//! instance family, a subset of the seven properties — and [`AuditPlan::run`]
//! decides *how*: properties quantifying over the same universe shape are
//! fused into one [`super::SweepSession::run_panel`] walk, so the full
//! battery pays for each enumeration once instead of once per property.
//! The shapes are:
//!
//! * **labelings** — every labeling of every instance. Soundness, strong
//!   soundness, hiding and quantified extractability all walk this shape;
//!   they become one panel sharing one verdict channel (same decoder
//!   object) and one skeleton cache. Soundness only quantifies over
//!   no-instances, so its member is wrapped in [`BlockGated`], which
//!   silences it on yes-instance blocks.
//! * **instances** — one unlabeled item per yes-instance; the prover's
//!   labeling is judged inside inspection (completeness).
//! * **erasure** — seeded f-erasures of one honest labeling.
//! * **invariance** — seeded identifier permutations of one honest
//!   labeled instance ([`anonymity_universe`]).
//!
//! An optional fault plan appends a [`degradation_sweep`] (itself
//! panel-backed per rate). The result is an [`AuditReport`] that renders
//! to JSON via [`AuditReport::to_json`] — the `audit` binary is a thin
//! CLI shell around this module.

use std::time::Duration;

use crate::decoder::Decoder;
use crate::instance::{Instance, LabeledInstance};
use crate::label::Certificate;
use crate::language::KCol;
use crate::nbhd::{NbhdGraph, NbhdScan, NbhdSweep};
use crate::network::{degradation_sweep, DegradationReport};
use crate::properties::completeness::completeness_member;
use crate::properties::erasure::{erased_labeling, erasure_member};
use crate::properties::hiding::{check_hiding, HidingCheck, HidingVerdict};
use crate::properties::invariance::{anonymity_universe, invariance_member};
use crate::properties::quantified::{ExtractabilityMap, QuantifiedCheck};
use crate::properties::soundness::{SoundnessCheck, SoundnessViolation};
use crate::properties::strong::{StrongCheck, StrongViolation};
use crate::prover::Prover;
#[cfg(feature = "telemetry")]
use crate::verify::SweepStrategy;
use crate::verify::{
    Block, Coverage, DynPropertyCheck, ExecMode, InternerReport, ItemCtx, LabelSource,
    MetricsRecorder, MetricsSnapshot, PanelReport, PropertyCheck, PropertyTag, SweepBudget,
    SweepOpts, SweepOutcome, SweepRecorder, SymmetrySpec, Universe, UniverseItem,
};

use super::budget::{MemberFrontier, SweepError};
use super::erased::ErasedPartial;
use super::panel::PanelFragment;
use super::session::SweepSession;
use super::shard::{merge_panel_fragments, ShardSpec};
#[cfg(feature = "telemetry")]
use super::telemetry::diff;
use crate::view::IdMode;
use hiding_lcp_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Restricts a check to the blocks where `active` holds; items of other
/// blocks inspect to `None` and cost no verdict maintenance. Used to fuse
/// checks with different quantification domains (e.g. soundness, which
/// ranges over no-instances only) into a panel walking the full family.
pub struct BlockGated<C> {
    /// The underlying check.
    pub check: C,
    /// `active[b]` — whether block `b` participates.
    pub active: Vec<bool>,
}

impl<C: PropertyCheck> PropertyCheck for BlockGated<C> {
    type Partial = C::Partial;
    type Verdict = C::Verdict;

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        self.check.view_configs()
    }

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<Self::Partial> {
        self.active[item.block]
            .then(|| self.check.inspect(item, ctx))
            .flatten()
    }

    fn verdict_decoder(&self) -> Option<&dyn Decoder> {
        self.check.verdict_decoder()
    }

    fn uses_verdicts(&self, block: usize) -> bool {
        self.active[block] && self.check.uses_verdicts(block)
    }

    fn inspect_with_verdicts(
        &self,
        item: &UniverseItem<'_>,
        verdicts: &[crate::decoder::Verdict],
        ctx: &ItemCtx<'_>,
    ) -> Option<Self::Partial> {
        self.active[item.block]
            .then(|| self.check.inspect_with_verdicts(item, verdicts, ctx))
            .flatten()
    }

    fn short_circuits(&self, partial: &Self::Partial) -> bool {
        self.check.short_circuits(partial)
    }

    // Gating is symmetry-neutral: inactive blocks inspect to `None` for
    // every orbit member alike, active blocks inherit the inner check's
    // invariance.
    fn symmetry_class(&self, alphabet: &[Certificate]) -> Option<SymmetrySpec> {
        self.check.symmetry_class(alphabet)
    }

    fn interner_report(&self) -> Option<InternerReport> {
        self.check.interner_report()
    }

    fn reduce(
        &self,
        universe: &Universe,
        partials: Vec<(usize, Self::Partial)>,
        outcome: &SweepOutcome,
    ) -> Self::Verdict {
        self.check.reduce(universe, partials, outcome)
    }
}

/// Hiding and quantified extractability are two reductions of the *same*
/// Lemma 3.1 neighborhood graph. When a plan wants both, fusing them as
/// separate panel members would still intern every yes-instance view and
/// replay the accepting instances twice — the scan dominates both checks,
/// so the panel would save almost nothing. This member carries one
/// [`NbhdSweep`] and reduces it once into the pair of analyses; the audit
/// summary splits the pair back into the two canonical report lines.
struct NbhdAnalyses<'a> {
    sweep: NbhdSweep<'a, dyn Decoder + 'a>,
    k: usize,
}

impl PropertyCheck for NbhdAnalyses<'_> {
    type Partial = NbhdScan;
    type Verdict = (NbhdGraph, HidingVerdict, ExtractabilityMap);

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        self.sweep.view_configs()
    }

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<NbhdScan> {
        self.sweep.inspect(item, ctx)
    }

    fn verdict_decoder(&self) -> Option<&dyn Decoder> {
        self.sweep.verdict_decoder()
    }

    fn uses_verdicts(&self, block: usize) -> bool {
        self.sweep.uses_verdicts(block)
    }

    fn inspect_with_verdicts(
        &self,
        item: &UniverseItem<'_>,
        verdicts: &[crate::decoder::Verdict],
        ctx: &ItemCtx<'_>,
    ) -> Option<NbhdScan> {
        self.sweep.inspect_with_verdicts(item, verdicts, ctx)
    }

    fn symmetry_class(&self, alphabet: &[Certificate]) -> Option<SymmetrySpec> {
        self.sweep.symmetry_class(alphabet)
    }

    fn interner_report(&self) -> Option<InternerReport> {
        self.sweep.interner_report()
    }

    fn reduce(
        &self,
        universe: &Universe,
        partials: Vec<(usize, NbhdScan)>,
        outcome: &SweepOutcome,
    ) -> Self::Verdict {
        let nbhd = self.sweep.reduce(universe, partials, outcome);
        let verdict = check_hiding(&nbhd, self.k, universe.coverage().into());
        let map = ExtractabilityMap::new(&nbhd, self.k);
        (nbhd, verdict, map)
    }
}

/// The two audit lines a [`NbhdAnalyses`] verdict stands for, with the
/// same `passed`/`detail` text the standalone members produce.
fn nbhd_analyses_lines(
    (nbhd, verdict, map): &(NbhdGraph, HidingVerdict, ExtractabilityMap),
) -> [(PropertyTag, &'static str, Option<bool>, String); 2] {
    let (hiding_passed, hiding_detail) = match verdict {
        HidingVerdict::Hiding { .. } => (Some(true), "V(D, .) is not k-colorable".to_string()),
        HidingVerdict::NotHiding { .. } => (
            Some(false),
            "V(D, .) is k-colorable over an exhaustive universe".to_string(),
        ),
        HidingVerdict::Inconclusive => (
            None,
            "V(D, .) k-colorable but the universe was partial".to_string(),
        ),
    };
    [
        (PropertyTag::Hiding, "hiding", hiding_passed, hiding_detail),
        (
            PropertyTag::Quantified,
            "quantified",
            None,
            format!(
                "{} of {} views unextractable",
                map.unextractable_views(),
                nbhd.view_count()
            ),
        ),
    ]
}

/// The wire shape of one labelings-panel member's partials in a shard
/// report. Partials are reconstructed, not shipped whole: every concrete
/// partial is derivable from its item index plus a small payload, so a
/// report stays a few text lines even when the universe is huge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemberKind {
    /// [`SoundnessViolation`] — the item index alone (the labeling is
    /// re-decoded from the universe).
    Sound,
    /// [`StrongViolation`] — item index plus the accepting node list.
    Strong,
    /// [`NbhdScan`] — item index plus per-node acceptance bits. View ids
    /// are run-local interner handles and never cross the process
    /// boundary; the merging side re-interns
    /// ([`NbhdSweep::reconstruct_scan`]).
    Scan,
}

impl MemberKind {
    fn wire(self) -> &'static str {
        match self {
            MemberKind::Sound => "sound",
            MemberKind::Strong => "strong",
            MemberKind::Scan => "scan",
        }
    }

    fn parse(s: &str) -> Result<MemberKind, String> {
        match s {
            "sound" => Ok(MemberKind::Sound),
            "strong" => Ok(MemberKind::Strong),
            "scan" => Ok(MemberKind::Scan),
            other => Err(format!("unknown shard member kind `{other}`")),
        }
    }
}

/// Which Lemma 3.1 member the plan's labelings panel carries.
enum NbhdMember<'p> {
    /// Hiding and quantified both wanted: one shared scan.
    Both(NbhdAnalyses<'p>),
    Hiding(HidingCheck<'p, dyn Decoder + 'p>),
    Quantified(QuantifiedCheck<'p, dyn Decoder + 'p>),
}

/// The labelings panel's concrete checks, owned separately from the
/// erased member list. [`LabelingsMembers::members`] borrows them (via
/// the blanket `&C: PropertyCheck` impl), so the shard-merge path can
/// keep the checks around after the fragments come back and reconstruct
/// typed partials for the very instances whose `reduce` will run. The
/// ordinary [`AuditPlan::run`] path builds its panel through the same
/// constructor, so a merged report cannot drift from a live one.
struct LabelingsMembers<'p> {
    decoder: &'p dyn Decoder,
    soundness: Option<BlockGated<SoundnessCheck<'p, dyn Decoder + 'p>>>,
    strong: Option<StrongCheck<'p, dyn Decoder + 'p>>,
    nbhd: Option<NbhdMember<'p>>,
    /// Member index of the fused hiding+quantified pair, when both were
    /// wanted (the audit summary splits its line back in two).
    shared_nbhd: Option<usize>,
}

impl<'p> LabelingsMembers<'p> {
    fn build(
        plan: &'p AuditPlan<'_>,
        universe: &Universe,
        is_yes: &[bool],
    ) -> LabelingsMembers<'p> {
        let k = plan.language.k();
        let soundness = plan.wants(PropertyTag::Soundness).then(|| BlockGated {
            check: SoundnessCheck {
                decoder: plan.decoder,
            },
            active: is_yes.iter().map(|yes| !yes).collect(),
        });
        let strong = plan.wants(PropertyTag::Strong).then_some(StrongCheck {
            decoder: plan.decoder,
            language: &plan.language,
        });
        let prior = usize::from(soundness.is_some()) + usize::from(strong.is_some());
        let mut shared_nbhd = None;
        let is_yes_graph = |g: &Graph| plan.language.is_yes_graph(g);
        let nbhd = if plan.wants(PropertyTag::Hiding) && plan.wants(PropertyTag::Quantified) {
            // Both properties reduce the same neighborhood graph: run the
            // scan once as a combined member and split its line later.
            shared_nbhd = Some(prior);
            Some(NbhdMember::Both(NbhdAnalyses {
                sweep: NbhdSweep::new(plan.decoder, IdMode::Anonymous, universe, is_yes_graph),
                k,
            }))
        } else if plan.wants(PropertyTag::Hiding) {
            Some(NbhdMember::Hiding(HidingCheck::new(
                plan.decoder,
                universe,
                k,
                is_yes_graph,
            )))
        } else if plan.wants(PropertyTag::Quantified) {
            Some(NbhdMember::Quantified(QuantifiedCheck::new(
                plan.decoder,
                universe,
                k,
                is_yes_graph,
            )))
        } else {
            None
        };
        LabelingsMembers {
            decoder: plan.decoder,
            soundness,
            strong,
            nbhd,
            shared_nbhd,
        }
    }

    /// Wire kinds, in member order.
    fn kinds(&self) -> Vec<MemberKind> {
        let mut kinds = Vec::new();
        if self.soundness.is_some() {
            kinds.push(MemberKind::Sound);
        }
        if self.strong.is_some() {
            kinds.push(MemberKind::Strong);
        }
        if self.nbhd.is_some() {
            kinds.push(MemberKind::Scan);
        }
        kinds
    }

    /// The erased panel members, borrowing the owned checks. Labels,
    /// summaries and verdict channels match the standalone member
    /// constructors (`strong_member` & co.) exactly — the audit lines
    /// must not depend on which path built the panel.
    fn members(&self) -> Vec<DynPropertyCheck<'_>> {
        let mut members: Vec<DynPropertyCheck<'_>> = Vec::new();
        if let Some(check) = &self.soundness {
            members.push(
                DynPropertyCheck::with_summary(
                    PropertyTag::Soundness,
                    "soundness",
                    check,
                    |v: &Result<usize, SoundnessViolation>| match v {
                        Ok(_) => (Some(true), "no unanimous accept on a no-instance".into()),
                        Err(_) => (Some(false), "unanimously accepted labeling found".into()),
                    },
                )
                .with_channel(self.decoder),
            );
        }
        if let Some(check) = &self.strong {
            members.push(
                DynPropertyCheck::with_summary(
                    PropertyTag::Strong,
                    "strong",
                    check,
                    |v: &Result<usize, StrongViolation>| match v {
                        Ok(n) => (
                            Some(true),
                            format!("every accepting set in {n} labelings induces G(L)"),
                        ),
                        Err(_) => (
                            Some(false),
                            "accepting set induces a non-member of G(L)".into(),
                        ),
                    },
                )
                .with_channel(self.decoder),
            );
        }
        match &self.nbhd {
            Some(NbhdMember::Both(check)) => members.push(
                DynPropertyCheck::with_summary(
                    PropertyTag::Hiding,
                    "hiding+quantified",
                    check,
                    |v: &(NbhdGraph, HidingVerdict, ExtractabilityMap)| {
                        let [(_, _, passed, detail), _] = nbhd_analyses_lines(v);
                        (passed, detail)
                    },
                )
                .with_channel(self.decoder),
            ),
            Some(NbhdMember::Hiding(check)) => members.push(
                DynPropertyCheck::with_summary(
                    PropertyTag::Hiding,
                    "hiding",
                    check,
                    |(_, v): &(NbhdGraph, HidingVerdict)| match v {
                        HidingVerdict::Hiding { .. } => {
                            (Some(true), "V(D, .) is not k-colorable".into())
                        }
                        HidingVerdict::NotHiding { .. } => (
                            Some(false),
                            "V(D, .) is k-colorable over an exhaustive universe".into(),
                        ),
                        HidingVerdict::Inconclusive => (
                            None,
                            "V(D, .) k-colorable but the universe was partial".into(),
                        ),
                    },
                )
                .with_channel(self.decoder),
            ),
            Some(NbhdMember::Quantified(check)) => members.push(
                DynPropertyCheck::with_summary(
                    PropertyTag::Quantified,
                    "quantified",
                    check,
                    |(nbhd, map): &(NbhdGraph, ExtractabilityMap)| {
                        (
                            None,
                            format!(
                                "{} of {} views unextractable",
                                map.unextractable_views(),
                                nbhd.view_count()
                            ),
                        )
                    },
                )
                .with_channel(self.decoder),
            ),
            None => {}
        }
        members
    }

    /// The neighborhood sweep behind whichever scan member the plan
    /// carries, for re-interning shipped scans.
    fn nbhd_sweep(&self) -> Option<&NbhdSweep<'p, dyn Decoder + 'p>> {
        match self.nbhd.as_ref()? {
            NbhdMember::Both(a) => Some(&a.sweep),
            NbhdMember::Hiding(h) => Some(h.sweep()),
            NbhdMember::Quantified(q) => Some(q.sweep()),
        }
    }

    /// Rebuilds one typed partial from its wire payload.
    fn reconstruct_partial(
        &self,
        kind: MemberKind,
        universe: &Universe,
        item: usize,
        payload: Option<&str>,
    ) -> Result<ErasedPartial, String> {
        match kind {
            MemberKind::Sound => Ok(Box::new(SoundnessViolation {
                labeling: universe.labeled_instance(item).into_parts().1,
            })),
            MemberKind::Strong => {
                let payload = payload.ok_or_else(|| {
                    format!("strong partial at item {item} lacks its accepting list")
                })?;
                let accepting = if payload == "-" {
                    Vec::new()
                } else {
                    payload
                        .split(',')
                        .map(|t| {
                            t.parse::<usize>()
                                .map_err(|_| format!("bad accepting node `{t}` at item {item}"))
                        })
                        .collect::<Result<Vec<_>, _>>()?
                };
                Ok(Box::new(StrongViolation {
                    labeling: universe.labeled_instance(item).into_parts().1,
                    accepting,
                }))
            }
            MemberKind::Scan => {
                let payload = payload.ok_or_else(|| {
                    format!("scan partial at item {item} lacks its acceptance bits")
                })?;
                let accepts = payload
                    .chars()
                    .map(|c| match c {
                        '0' => Ok(false),
                        '1' => Ok(true),
                        other => Err(format!("bad acceptance bit `{other}` at item {item}")),
                    })
                    .collect::<Result<Vec<bool>, _>>()?;
                let li = universe.labeled_instance(item);
                if accepts.len() != li.graph().node_count() {
                    return Err(format!(
                        "scan at item {item} carries {} bits, instance has {} nodes",
                        accepts.len(),
                        li.graph().node_count()
                    ));
                }
                let sweep = self.nbhd_sweep().ok_or_else(|| {
                    "scan partial but the plan wants no neighborhood member".to_string()
                })?;
                Ok(Box::new(sweep.reconstruct_scan(&li, accepts)))
            }
        }
    }
}

/// Renders one typed partial as its wire payload line.
fn serialize_partial(kind: MemberKind, item: usize, partial: &ErasedPartial) -> String {
    match kind {
        MemberKind::Sound => format!("p {item}\n"),
        MemberKind::Strong => {
            let v = partial
                .downcast_ref::<StrongViolation>()
                .expect("strong member partial is a StrongViolation");
            if v.accepting.is_empty() {
                format!("p {item} -\n")
            } else {
                let list: Vec<String> = v.accepting.iter().map(ToString::to_string).collect();
                format!("p {item} {}\n", list.join(","))
            }
        }
        MemberKind::Scan => {
            let scan = partial
                .downcast_ref::<NbhdScan>()
                .expect("scan member partial is an NbhdScan");
            let bits: String = scan
                .accepts()
                .iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect();
            format!("p {item} {bits}\n")
        }
    }
}

/// Escapes a free-form string onto one wire line.
fn wire_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

/// Inverse of [`wire_escape`]; unknown escapes pass through verbatim.
fn wire_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// The instance family an [`AuditPlan`] quantifies over.
#[derive(Debug, Clone)]
pub enum InstanceSet {
    /// An explicit list with caller-asserted coverage. `Exhaustive` is
    /// only sound if the list really is the language's full promise
    /// family at this size.
    Explicit {
        /// The instances.
        instances: Vec<Instance>,
        /// What the list covers.
        coverage: Coverage,
    },
    /// The Lemma 3.1 family: every connected graph on `1..=max_n` nodes,
    /// every port assignment, canonical ids ([`Universe::lemma31`]).
    Lemma31 {
        /// Largest node count (capped at 8 by the enumerator).
        max_n: usize,
    },
}

/// How many degradation trials to run and at which fault rates.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// The uniform per-message fault rates to sweep.
    pub rates: Vec<f64>,
    /// Trials per rate.
    pub trials: usize,
}

/// A declarative audit: decoder + language + instance family + property
/// subset, compiled by [`AuditPlan::run`] into fused panels grouped by
/// universe shape.
pub struct AuditPlan<'a> {
    decoder: &'a dyn Decoder,
    prover: Option<&'a dyn Prover>,
    language: KCol,
    instances: InstanceSet,
    alphabet: Vec<Certificate>,
    properties: Vec<PropertyTag>,
    mode: ExecMode,
    opts: SweepOpts,
    budget: Option<SweepBudget>,
    telemetry: Option<&'a MetricsRecorder>,
    fault_plan: Option<FaultSpec>,
    erasure_f: usize,
    erasure_trials: usize,
    invariance_samples: usize,
    seed: u64,
}

/// Every paper property, in canonical audit order.
pub const ALL_PROPERTIES: [PropertyTag; 7] = [
    PropertyTag::Soundness,
    PropertyTag::Strong,
    PropertyTag::Hiding,
    PropertyTag::Quantified,
    PropertyTag::Completeness,
    PropertyTag::Erasure,
    PropertyTag::Invariance,
];

impl<'a> AuditPlan<'a> {
    /// A plan auditing every property of `decoder` against `KCol(k)` over
    /// `instances` with `alphabet` certificates. Prover-dependent panels
    /// (completeness, erasure, invariance) require [`AuditPlan::prover`].
    pub fn new(
        decoder: &'a dyn Decoder,
        k: usize,
        instances: InstanceSet,
        alphabet: Vec<Certificate>,
    ) -> AuditPlan<'a> {
        AuditPlan {
            decoder,
            prover: None,
            language: KCol::new(k),
            instances,
            alphabet,
            properties: ALL_PROPERTIES.to_vec(),
            mode: ExecMode::Auto,
            opts: SweepOpts::default(),
            budget: None,
            telemetry: None,
            fault_plan: None,
            erasure_f: 1,
            erasure_trials: 8,
            invariance_samples: 16,
            seed: 0xA0D1_7E57,
        }
    }

    /// Supplies the prover for completeness/erasure/invariance panels.
    pub fn prover(mut self, prover: &'a dyn Prover) -> Self {
        self.prover = Some(prover);
        self
    }

    /// Restricts the audit to `properties` (default: all seven).
    pub fn properties(mut self, properties: impl IntoIterator<Item = PropertyTag>) -> Self {
        self.properties = properties.into_iter().collect();
        self
    }

    /// Sets the execution mode for every panel (default [`ExecMode::Auto`]).
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the sweep options (strategy/memo) for every panel.
    pub fn opts(mut self, opts: SweepOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Bounds the labelings panel (the combinatorial one) by `budget`. An
    /// interrupted audit downgrades those members to sampled coverage and
    /// records a note.
    pub fn budget(mut self, budget: SweepBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Attaches a metrics recorder: every panel streams counters, phase
    /// timings and spans into it, and the report gains a `telemetry`
    /// section with per-panel counter deltas. In `--no-default-features`
    /// builds the recorder is inert and nothing is attached, so the
    /// engine keeps its recorder-free hot path.
    pub fn telemetry(mut self, recorder: &'a MetricsRecorder) -> Self {
        self.telemetry = Some(recorder);
        self
    }

    /// Appends a degradation sweep under communication faults.
    pub fn fault_plan(mut self, spec: FaultSpec) -> Self {
        self.fault_plan = Some(spec);
        self
    }

    /// Erasure-panel shape: wipe `f` certificates per trial, `trials` trials.
    pub fn erasure_trials(mut self, f: usize, trials: usize) -> Self {
        self.erasure_f = f;
        self.erasure_trials = trials;
        self
    }

    /// Invariance-panel shape: `samples` random identifier permutations.
    pub fn invariance_samples(mut self, samples: usize) -> Self {
        self.invariance_samples = samples;
        self
    }

    /// Seeds every sampled panel (erasure targets, invariance
    /// permutations, fault plans). Same seed, same report.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn wants(&self, tag: PropertyTag) -> bool {
        self.properties.contains(&tag)
    }

    /// The attached recorder as the engine-facing trait object. Disabled
    /// builds attach nothing: the inert recorder would record nothing
    /// anyway, and skipping it keeps the engine's recorder-free paths.
    fn attached(&self) -> Option<&dyn SweepRecorder> {
        #[cfg(feature = "telemetry")]
        {
            self.telemetry.map(|r| r as &dyn SweepRecorder)
        }
        #[cfg(not(feature = "telemetry"))]
        {
            None
        }
    }

    /// Snapshot taken just before a panel runs, when a recorder is live.
    fn snapshot_before(&self) -> Option<MetricsSnapshot> {
        #[cfg(feature = "telemetry")]
        {
            self.telemetry.map(|r| r.snapshot())
        }
        #[cfg(not(feature = "telemetry"))]
        {
            None
        }
    }

    /// Diffs the recorder against `before` and appends the panel's
    /// counter movement to the report's telemetry section.
    fn push_panel_telemetry(
        &self,
        shape: &str,
        before: Option<MetricsSnapshot>,
        report: &mut AuditReport,
    ) {
        #[cfg(feature = "telemetry")]
        if let (Some(recorder), Some(before)) = (self.telemetry, before) {
            let delta = diff::diff(&before, &recorder.snapshot());
            report.telemetry.push(PanelTelemetry {
                shape: shape.into(),
                strategy: strategy_name(self.opts.strategy).into(),
                counters: delta
                    .changed()
                    .map(|row| (row.name.clone(), row.delta().max(0) as u64, row.stable))
                    .collect(),
            });
        }
        #[cfg(not(feature = "telemetry"))]
        {
            let _ = (shape, before, report);
        }
    }

    /// A session over `universe` with the plan's mode, options and
    /// recorder.
    fn session<'s>(&'s self, universe: &'s Universe) -> SweepSession<'s> {
        let session = SweepSession::over(universe).mode(self.mode).opts(self.opts);
        match self.attached() {
            Some(r) => session.recorder(r),
            None => session,
        }
    }

    /// Runs one unbudgeted panel with the plan's recorder attached.
    fn exec_panel(&self, members: &[DynPropertyCheck<'_>], universe: &Universe) -> PanelReport {
        self.session(universe).run_panel(members)
    }

    /// Compiles the plan into panels grouped by universe shape and
    /// executes them as a batch.
    pub fn run(&self) -> AuditReport {
        let mut report = self.fresh_report();
        if let Some(r) = self.attached() {
            r.span_enter("plan");
        }
        let labelings = self.labelings_universe();
        let is_yes = self.yes_mask(&labelings);
        self.run_labelings_panel(&labelings, &is_yes, &mut report);
        self.finish_run(&labelings, &is_yes, &mut report);
        report
    }

    /// The report header every execution path starts from.
    fn fresh_report(&self) -> AuditReport {
        AuditReport {
            decoder: self.decoder.name(),
            k: self.language.k(),
            seed: self.seed,
            panels: Vec::new(),
            telemetry: Vec::new(),
            degradation: None,
            notes: Vec::new(),
        }
    }

    /// Which blocks of the labelings universe are yes-instances.
    fn yes_mask(&self, labelings: &Universe) -> Vec<bool> {
        labelings
            .blocks()
            .iter()
            .map(|b| self.language.is_yes_graph(b.instance().graph()))
            .collect()
    }

    /// The panels that follow the labelings walk — linear, prover-backed
    /// shapes a merging process recomputes locally rather than shipping.
    /// Closes the plan span.
    fn finish_run(&self, labelings: &Universe, is_yes: &[bool], report: &mut AuditReport) {
        self.run_completeness_panel(labelings, is_yes, report);

        let honest = self.honest_fixture(labelings, is_yes, report);
        if let Some(honest) = &honest {
            self.run_erasure_panel(honest, report);
            self.run_invariance_panel(honest, report);
            if let Some(spec) = &self.fault_plan {
                // Single-node erasures of the honest labeling are the
                // adversarial battery: the fault-free verifier rejects
                // them, so any unanimous accept under faults is false.
                let n = honest.graph().node_count();
                let adversarial: Vec<_> = (0..n.min(4))
                    .map(|v| erased_labeling(honest, &[v]))
                    .collect();
                report.degradation = Some(degradation_sweep(
                    self.decoder,
                    &self.language,
                    honest,
                    &adversarial,
                    &spec.rates,
                    spec.trials,
                    self.seed,
                ));
            }
        } else if self.fault_plan.is_some() {
            report
                .notes
                .push("degradation skipped: no certified yes-instance".into());
        }

        if let Some(r) = self.attached() {
            r.span_exit("plan");
        }
    }

    /// The labelings-shape universe: every instance crossed with every
    /// labeling over the alphabet.
    fn labelings_universe(&self) -> Universe {
        match &self.instances {
            InstanceSet::Explicit {
                instances,
                coverage,
            } => {
                let blocks = instances
                    .iter()
                    .map(|inst| {
                        Block::new(
                            inst.clone(),
                            LabelSource::All {
                                alphabet: self.alphabet.clone(),
                            },
                        )
                    })
                    .collect();
                Universe::new(blocks, *coverage).expect("audit family fits the flat index space")
            }
            InstanceSet::Lemma31 { max_n } => Universe::lemma31(*max_n, self.alphabet.clone())
                .expect("audit family fits the flat index space"),
        }
    }

    fn run_labelings_panel(&self, universe: &Universe, is_yes: &[bool], report: &mut AuditReport) {
        let checks = LabelingsMembers::build(self, universe, is_yes);
        let members = checks.members();
        if members.is_empty() {
            return;
        }
        let before = self.snapshot_before();
        let panel = match self.budget {
            Some(budget) => {
                let panel = self.session(universe).budget(budget).run_panel(&members);
                if panel.evidence.interrupted {
                    report.notes.push(
                        "labelings panel interrupted by budget; verdicts cover the visited prefix"
                            .into(),
                    );
                }
                panel
            }
            None => self.exec_panel(&members, universe),
        };
        let mut summary = summarize_panel("labelings", &panel);
        if let Some(index) = checks.shared_nbhd {
            split_nbhd_member(&mut summary, &panel, index);
        }
        report.panels.push(summary);
        self.push_panel_telemetry("labelings", before, report);
    }

    fn run_completeness_panel(
        &self,
        labelings: &Universe,
        is_yes: &[bool],
        report: &mut AuditReport,
    ) {
        if !self.wants(PropertyTag::Completeness) {
            return;
        }
        let Some(prover) = self.prover else {
            report
                .notes
                .push("completeness skipped: plan has no prover".into());
            return;
        };
        // Completeness quantifies over the prover's promise class: a
        // decline marks an instance *outside* the class (the concrete
        // LCPs certify families narrower than all of G(L)), not a
        // failure. Declines are counted in the notes instead.
        let mut declined = 0usize;
        let yes_instances: Vec<Instance> = labelings
            .blocks()
            .iter()
            .zip(is_yes)
            .filter(|(_, yes)| **yes)
            .filter_map(|(b, _)| {
                if prover.certify(b.instance()).is_some() {
                    Some(b.instance().clone())
                } else {
                    declined += 1;
                    None
                }
            })
            .collect();
        if declined > 0 {
            report.notes.push(format!(
                "completeness: {declined} yes-instance(s) outside the prover's promise class"
            ));
        }
        if yes_instances.is_empty() {
            report
                .notes
                .push("completeness skipped: prover's promise class misses the family".into());
            return;
        }
        let universe = Universe::instances_only(yes_instances, Coverage::Sampled)
            .expect("one item per instance fits");
        let member = completeness_member(self.decoder, prover);
        let before = self.snapshot_before();
        let panel = self.exec_panel(std::slice::from_ref(&member), &universe);
        report.panels.push(summarize_panel("instances", &panel));
        self.push_panel_telemetry("instances", before, report);
    }

    /// The first yes-instance the prover certifies — the honest fixture
    /// behind the erasure, invariance and degradation shapes.
    fn honest_fixture(
        &self,
        labelings: &Universe,
        is_yes: &[bool],
        report: &mut AuditReport,
    ) -> Option<LabeledInstance> {
        let needs = self.wants(PropertyTag::Erasure)
            || self.wants(PropertyTag::Invariance)
            || self.fault_plan.is_some();
        if !needs {
            return None;
        }
        let Some(prover) = self.prover else {
            report
                .notes
                .push("erasure/invariance/degradation skipped: plan has no prover".into());
            return None;
        };
        let found = labelings
            .blocks()
            .iter()
            .zip(is_yes)
            .filter(|(_, yes)| **yes)
            .find_map(|(b, _)| {
                prover
                    .certify(b.instance())
                    .map(|l| LabeledInstance::new(b.instance().clone(), l))
            });
        if found.is_none() {
            report
                .notes
                .push("erasure/invariance skipped: prover certified no instance".into());
        }
        found
    }

    fn run_erasure_panel(&self, honest: &LabeledInstance, report: &mut AuditReport) {
        if !self.wants(PropertyTag::Erasure) {
            return;
        }
        let n = honest.graph().node_count();
        let f = self.erasure_f.min(n);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xE5A5);
        let target_sets: Vec<Vec<usize>> = (0..self.erasure_trials)
            .map(|_| {
                rand::seq::index::sample(&mut rng, n, f)
                    .into_iter()
                    .collect()
            })
            .collect();
        let erased_counts = target_sets.iter().map(Vec::len).collect();
        let labelings = target_sets
            .iter()
            .map(|targets| erased_labeling(honest, targets))
            .collect();
        let universe =
            Universe::labelings_of(honest.instance().clone(), labelings, Coverage::Sampled)
                .expect("materialized labelings fit");
        let member = erasure_member(self.decoder, erased_counts);
        let before = self.snapshot_before();
        let panel = self.exec_panel(std::slice::from_ref(&member), &universe);
        report.panels.push(summarize_panel("erasure", &panel));
        self.push_panel_telemetry("erasure", before, report);
    }

    fn run_invariance_panel(&self, honest: &LabeledInstance, report: &mut AuditReport) {
        if !self.wants(PropertyTag::Invariance) {
            return;
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x1D5);
        let universe = anonymity_universe(
            honest.instance(),
            honest.labeling(),
            self.invariance_samples,
            &mut rng,
        );
        let member = invariance_member(self.decoder, honest.instance(), honest.labeling());
        let before = self.snapshot_before();
        let panel = self.exec_panel(std::slice::from_ref(&member), &universe);
        report.panels.push(summarize_panel("invariance", &panel));
        self.push_panel_telemetry("invariance", before, report);
    }

    /// Runs this plan's labelings panel over one shard's index range and
    /// renders the resulting fragment as a portable text shard report.
    ///
    /// Only the labelings walk is sharded — it is the combinatorial
    /// shape; the remaining panels are linear in the family and the
    /// merging process recomputes them locally. A budgeted plan resumes
    /// itself until the shard's range completes, so one report always
    /// describes the whole range (`max_items` bounds each pass, the
    /// deadline each process's passes individually).
    ///
    /// The report ships reconstruction *payloads*, not verdicts:
    /// recorded partials are reduced only after
    /// [`AuditPlan::run_with_shards`] reassembles the fragments, so a
    /// merged report is the same reduction over the same partials as a
    /// single-process run — byte-identical stable JSON.
    pub fn run_shard(&self, shard: ShardSpec) -> String {
        let universe = self.labelings_universe();
        let is_yes = self.yes_mask(&universe);
        let checks = LabelingsMembers::build(self, &universe, &is_yes);
        let members = checks.members();
        let kinds = checks.kinds();
        #[cfg(feature = "telemetry")]
        let recorder = MetricsRecorder::new();
        #[cfg(feature = "telemetry")]
        let before = recorder.snapshot();
        #[allow(unused_mut)]
        let mut session = SweepSession::over(&universe)
            .mode(self.mode)
            .opts(self.opts)
            .shard(shard);
        if let Some(budget) = self.budget {
            session = session.budget(budget);
        }
        #[cfg(feature = "telemetry")]
        {
            session = session.metrics(&recorder);
        }
        let mut fragment = session.run_panel_fragment(&members);
        while !fragment.is_complete() {
            let stalled = fragment.next;
            fragment = session.resume_panel_fragment(&members, fragment.into_resume_token());
            if fragment.next == stalled {
                break; // deadline too tight to advance; ship the torn range
            }
        }
        let mut out = String::new();
        out.push_str("shardreport v1\n");
        out.push_str(&format!("decoder {}\n", wire_escape(&self.decoder.name())));
        out.push_str(&format!("k {}\n", self.language.k()));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("universe {}\n", universe.len()));
        out.push_str(&format!("shard {}\n", shard.label()));
        out.push_str(&format!("range {} {}\n", fragment.lo, fragment.hi));
        out.push_str(&format!("next {}\n", fragment.next));
        for (m, frontier) in fragment.members.iter().enumerate() {
            let stop = frontier
                .stop_at
                .map_or_else(|| "-".to_string(), |s| s.to_string());
            out.push_str(&format!("member {m} {} {stop}\n", kinds[m].wire()));
            for (item, partial) in &frontier.partials {
                out.push_str(&serialize_partial(kinds[m], *item, partial));
            }
            for e in &frontier.errors {
                out.push_str(&format!("e {} {}\n", e.item_index, wire_escape(&e.payload)));
            }
        }
        #[cfg(feature = "telemetry")]
        for row in diff::diff(&before, &recorder.snapshot()).changed() {
            if row.stable {
                out.push_str(&format!("counter {} {}\n", row.name, row.delta().max(0)));
            }
        }
        out.push_str("end shardreport\n");
        out
    }

    /// Merges shard reports (from [`AuditPlan::run_shard`], any order)
    /// into the full audit: the labelings panel is reassembled from the
    /// shipped fragments and reduced once, then the remaining panels run
    /// locally exactly as [`AuditPlan::run`] would. Fails — rather than
    /// guessing — on fingerprint mismatches (different decoder, k, seed
    /// or universe size), torn reports, and ranges that don't tile the
    /// universe.
    ///
    /// With a recorder attached, the labelings telemetry section carries
    /// the *sum* of the shards' stable counters
    /// ([`super::shard::sum_stable_counters`]): stable counters are
    /// per-item, so their shard sums equal a single process's counts.
    pub fn run_with_shards(&self, shard_reports: &[String]) -> Result<AuditReport, String> {
        let mut report = self.fresh_report();
        if let Some(r) = self.attached() {
            r.span_enter("plan");
        }
        let labelings = self.labelings_universe();
        let is_yes = self.yes_mask(&labelings);
        if let Err(e) = self.merge_labelings_shards(&labelings, &is_yes, shard_reports, &mut report)
        {
            if let Some(r) = self.attached() {
                r.span_exit("plan");
            }
            return Err(e);
        }
        self.finish_run(&labelings, &is_yes, &mut report);
        Ok(report)
    }

    /// The sharded replacement for the labelings leg of [`AuditPlan::run`].
    fn merge_labelings_shards(
        &self,
        universe: &Universe,
        is_yes: &[bool],
        shard_reports: &[String],
        report: &mut AuditReport,
    ) -> Result<(), String> {
        let checks = LabelingsMembers::build(self, universe, is_yes);
        let members = checks.members();
        if members.is_empty() {
            return Ok(());
        }
        let kinds = checks.kinds();
        let mut fragments = Vec::with_capacity(shard_reports.len());
        let mut per_shard_counters = Vec::with_capacity(shard_reports.len());
        for text in shard_reports {
            let (fragment, counters) = self.parse_shard_report(text, universe, &checks, &kinds)?;
            fragments.push(fragment);
            per_shard_counters.push(counters);
        }
        let panel =
            merge_panel_fragments(&members, universe, self.mode, fragments, self.attached())?;
        let mut summary = summarize_panel("labelings", &panel);
        if let Some(index) = checks.shared_nbhd {
            split_nbhd_member(&mut summary, &panel, index);
        }
        report.panels.push(summary);
        #[cfg(feature = "telemetry")]
        if self.telemetry.is_some() {
            report.telemetry.push(PanelTelemetry {
                shape: "labelings".into(),
                strategy: strategy_name(self.opts.strategy).into(),
                counters: super::shard::sum_stable_counters(&per_shard_counters)
                    .into_iter()
                    .map(|(name, delta)| (name, delta, true))
                    .collect(),
            });
        }
        #[cfg(not(feature = "telemetry"))]
        {
            let _ = per_shard_counters;
        }
        Ok(())
    }

    /// Parses one shard report against this plan's fingerprint and
    /// reconstructs its typed partials.
    fn parse_shard_report(
        &self,
        text: &str,
        universe: &Universe,
        checks: &LabelingsMembers<'_>,
        kinds: &[MemberKind],
    ) -> Result<(PanelFragment, Vec<(String, u64)>), String> {
        let parse_usize = |what: &str, s: &str| {
            s.parse::<usize>()
                .map_err(|_| format!("bad {what} `{s}` in shard report"))
        };
        let mut lines = text.lines();
        if lines.next() != Some("shardreport v1") {
            return Err("shard report lacks the `shardreport v1` header".to_string());
        }
        let mut range = None;
        let mut next = None;
        let mut members: Vec<MemberFrontier> = Vec::new();
        let mut counters: Vec<(String, u64)> = Vec::new();
        let mut ended = false;
        for line in lines {
            if ended {
                return Err("shard report continues past `end shardreport`".to_string());
            }
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "decoder" => {
                    let name = wire_unescape(rest);
                    if name != self.decoder.name() {
                        return Err(format!(
                            "shard report audits decoder `{name}`, this plan audits `{}`",
                            self.decoder.name()
                        ));
                    }
                }
                "k" => {
                    if parse_usize("k", rest)? != self.language.k() {
                        return Err(format!(
                            "shard report has k={rest}, this plan has k={}",
                            self.language.k()
                        ));
                    }
                }
                "seed" => {
                    let seed = rest
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed `{rest}` in shard report"))?;
                    if seed != self.seed {
                        return Err(format!(
                            "shard report has seed {seed}, this plan has seed {}",
                            self.seed
                        ));
                    }
                }
                "universe" => {
                    if parse_usize("universe size", rest)? != universe.len() {
                        return Err(format!(
                            "shard report walked a universe of {rest} items, this plan's has {}",
                            universe.len()
                        ));
                    }
                }
                "shard" => {} // informational; the range line is authoritative
                "range" => {
                    let (lo, hi) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("bad range line `{line}`"))?;
                    range = Some((parse_usize("range lo", lo)?, parse_usize("range hi", hi)?));
                }
                "next" => next = Some(parse_usize("next", rest)?),
                "member" => {
                    let mut parts = rest.splitn(3, ' ');
                    let (index, kind, stop) = match (parts.next(), parts.next(), parts.next()) {
                        (Some(i), Some(k), Some(s)) => (i, k, s),
                        _ => return Err(format!("bad member line `{line}`")),
                    };
                    if parse_usize("member index", index)? != members.len() {
                        return Err(format!(
                            "shard report member `{index}` out of order (expected {})",
                            members.len()
                        ));
                    }
                    if members.len() >= kinds.len() {
                        return Err(format!(
                            "shard report describes more members than this plan's panel ({})",
                            kinds.len()
                        ));
                    }
                    let kind = MemberKind::parse(kind)?;
                    let want = kinds[members.len()];
                    if want != kind {
                        return Err(format!(
                            "shard report member {index} is `{}`, this plan expects `{}`",
                            kind.wire(),
                            want.wire()
                        ));
                    }
                    let stop_at = if stop == "-" {
                        None
                    } else {
                        Some(parse_usize("stop index", stop)?)
                    };
                    members.push(MemberFrontier {
                        stop_at,
                        partials: Vec::new(),
                        errors: Vec::new(),
                    });
                }
                "p" => {
                    if members.is_empty() {
                        return Err("shard report partial before any member line".to_string());
                    }
                    let kind = kinds[members.len() - 1];
                    let (item, payload) = match rest.split_once(' ') {
                        Some((item, payload)) => (item, Some(payload)),
                        None => (rest, None),
                    };
                    let item = parse_usize("item index", item)?;
                    if item >= universe.len() {
                        return Err(format!(
                            "shard report partial at item {item} lies outside the {}-item universe",
                            universe.len()
                        ));
                    }
                    let partial = checks.reconstruct_partial(kind, universe, item, payload)?;
                    members
                        .last_mut()
                        .expect("member line precedes partials")
                        .partials
                        .push((item, partial));
                }
                "e" => {
                    let Some(frontier) = members.last_mut() else {
                        return Err("shard report error before any member line".to_string());
                    };
                    let (item, payload) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("bad error line `{line}`"))?;
                    frontier.errors.push(SweepError {
                        item_index: parse_usize("item index", item)?,
                        payload: wire_unescape(payload),
                    });
                }
                "counter" => {
                    let (name, value) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("bad counter line `{line}`"))?;
                    let value = value
                        .parse::<u64>()
                        .map_err(|_| format!("bad counter value `{value}` in shard report"))?;
                    counters.push((name.to_string(), value));
                }
                "end" => ended = true,
                "" => {}
                _ => return Err(format!("unknown shard report line `{line}`")),
            }
        }
        if !ended {
            return Err("shard report is torn: no `end shardreport` trailer".to_string());
        }
        let (lo, hi) = range.ok_or_else(|| "shard report lacks a range line".to_string())?;
        let next = next.ok_or_else(|| "shard report lacks a next line".to_string())?;
        if members.len() != kinds.len() {
            return Err(format!(
                "shard report describes {} members, this plan's panel has {}",
                members.len(),
                kinds.len()
            ));
        }
        Ok((
            PanelFragment {
                lo,
                hi,
                next,
                members,
            },
            counters,
        ))
    }
}

/// One member's line in an [`AuditPanelReport`].
#[derive(Debug, Clone)]
pub struct AuditMemberReport {
    /// The property's stable name.
    pub property: String,
    /// The member's label.
    pub label: String,
    /// `Some(true)` held, `Some(false)` violated, `None` informational.
    pub passed: Option<bool>,
    /// Human-readable verdict detail.
    pub detail: String,
    /// Items this member inspected (sequential semantics).
    pub checked: usize,
    /// Whether the member short-circuited.
    pub short_circuited: bool,
    /// Whether the budget cut this member off.
    pub interrupted: bool,
    /// The member's achieved coverage.
    pub coverage: Coverage,
    /// Inspection errors this member hit.
    pub errors: usize,
}

/// One executed panel in an [`AuditReport`].
#[derive(Debug, Clone)]
pub struct AuditPanelReport {
    /// The universe shape ("labelings", "instances", "erasure",
    /// "invariance").
    pub shape: String,
    /// Total items in the panel's universe.
    pub universe_size: usize,
    /// How far the shared walk reached.
    pub checked: usize,
    /// Worker threads used (1 = sequential).
    pub threads: usize,
    /// Wall-clock time of the panel.
    pub elapsed: Duration,
    /// Views served from the shared skeleton cache.
    pub cache_hits: usize,
    /// Skeletons computed plus uncached extractions.
    pub cache_misses: usize,
    /// Delta-path memo hits across all verdict channels.
    pub memo_hits: usize,
    /// Delta-path decoder runs across all verdict channels.
    pub memo_misses: usize,
    /// Whether a budget ended the walk early.
    pub interrupted: bool,
    /// Per-member verdict lines, in member order.
    pub members: Vec<AuditMemberReport>,
}

/// One panel's counter movement under the plan's attached recorder:
/// the before/after snapshot diff taken around that panel's walk.
#[derive(Debug, Clone)]
pub struct PanelTelemetry {
    /// The panel's shape (matches the [`AuditPanelReport`] shape).
    pub shape: String,
    /// The sweep strategy the panel ran under.
    pub strategy: String,
    /// Counters the panel moved: `(wire name, delta, stable)`. Stable
    /// counters are deterministic for a fixed plan; the rest depend on
    /// scheduling (memo timing, interner contention).
    pub counters: Vec<(String, u64, bool)>,
}

/// The batch result of an [`AuditPlan`].
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// The audited decoder's name.
    pub decoder: String,
    /// The language parameter (k of k-coloring).
    pub k: usize,
    /// The plan seed.
    pub seed: u64,
    /// Executed panels, in shape order.
    pub panels: Vec<AuditPanelReport>,
    /// Per-panel telemetry breakdowns; empty unless the plan carried
    /// [`AuditPlan::telemetry`] and the `telemetry` feature is on.
    pub telemetry: Vec<PanelTelemetry>,
    /// The fault-degradation sweep, when a fault plan was given.
    pub degradation: Option<DegradationReport>,
    /// Panels skipped or degraded, with reasons.
    pub notes: Vec<String>,
}

/// The stable counters that compose across shard boundaries — the only
/// counters [`AuditReport::to_stable_json`] prints. `cache_hits` and
/// `cache_misses` are deterministic for a fixed single-process plan but
/// not shard-composable (each process warms its own skeleton cache), so
/// they are deliberately absent.
pub const STABLE_COUNTER_ALLOWLIST: &[&str] = &[
    "budget_interruptions",
    "items_inspected",
    "items_orbit_skipped",
    "items_walked",
    "orbit_multiplicity",
    "panics_caught",
    "quotient_blocks",
    "verdict_readbacks",
    "verdict_refreshes",
];

/// The wire name of a sweep strategy, as rendered in telemetry sections.
#[cfg(feature = "telemetry")]
fn strategy_name(strategy: SweepStrategy) -> &'static str {
    match strategy {
        SweepStrategy::DeltaStepping => "delta-stepping",
        SweepStrategy::DecodeOracle => "decode-oracle",
        SweepStrategy::Quotient => "quotient",
    }
}

impl AuditReport {
    /// Every member that *violated* its property (`passed == Some(false)`),
    /// as `"shape/property"` strings. Informational members (`None`) are
    /// not failures.
    pub fn failures(&self) -> Vec<String> {
        self.panels
            .iter()
            .flat_map(|p| {
                p.members
                    .iter()
                    .filter(|m| m.passed == Some(false))
                    .map(|m| format!("{}/{}", p.shape, m.property))
            })
            .collect()
    }

    /// Renders the report as a JSON object (hand-rolled: the workspace
    /// carries no serializer dependency).
    pub fn to_json(&self) -> String {
        self.render_json(false)
    }

    /// The deterministic projection of [`AuditReport::to_json`]: the same
    /// structure with every scheduling- and process-dependent field
    /// pinned. Wall-clock renders as `0.000`, per-process cache/memo
    /// counters as zero, and telemetry sections keep only the
    /// shard-composable counters ([`STABLE_COUNTER_ALLOWLIST`], sorted by
    /// name) with `observed` left empty. Two runs of the same plan —
    /// sharded across any number of processes or not — render
    /// byte-identical stable JSON; the CI shard smoke job diffs exactly
    /// this.
    pub fn to_stable_json(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, stable: bool) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"decoder\": {},\n", json_str(&self.decoder)));
        out.push_str(&format!("  \"k\": {},\n", self.k));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"panels\": [");
        for (i, panel) in self.panels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"shape\": {},\n", json_str(&panel.shape)));
            out.push_str(&format!(
                "      \"universe_size\": {},\n      \"checked\": {},\n      \"threads\": {},\n",
                panel.universe_size, panel.checked, panel.threads
            ));
            let elapsed_ms = if stable {
                0.0
            } else {
                panel.elapsed.as_secs_f64() * 1e3
            };
            out.push_str(&format!("      \"elapsed_ms\": {elapsed_ms:.3},\n"));
            let (cache_hits, cache_misses, memo_hits, memo_misses) = if stable {
                (0, 0, 0, 0)
            } else {
                (
                    panel.cache_hits,
                    panel.cache_misses,
                    panel.memo_hits,
                    panel.memo_misses,
                )
            };
            out.push_str(&format!(
                "      \"cache_hits\": {cache_hits},\n      \"cache_misses\": {cache_misses},\n      \"memo_hits\": {memo_hits},\n      \"memo_misses\": {memo_misses},\n",
            ));
            out.push_str(&format!("      \"interrupted\": {},\n", panel.interrupted));
            out.push_str("      \"members\": [");
            for (j, m) in panel.members.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n        {");
                out.push_str(&format!("\"property\": {}, ", json_str(&m.property)));
                out.push_str(&format!("\"label\": {}, ", json_str(&m.label)));
                out.push_str(&format!(
                    "\"passed\": {}, ",
                    match m.passed {
                        Some(b) => b.to_string(),
                        None => "null".into(),
                    }
                ));
                out.push_str(&format!("\"detail\": {}, ", json_str(&m.detail)));
                out.push_str(&format!(
                    "\"checked\": {}, \"short_circuited\": {}, \"interrupted\": {}, ",
                    m.checked, m.short_circuited, m.interrupted
                ));
                out.push_str(&format!(
                    "\"coverage\": {}, \"errors\": {}}}",
                    json_str(match m.coverage {
                        Coverage::Exhaustive => "exhaustive",
                        Coverage::Sampled => "sampled",
                    }),
                    m.errors
                ));
            }
            if !panel.members.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("]\n    }");
        }
        if !self.panels.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"telemetry\": [");
        for (i, t) in self.telemetry.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"shape\": {},\n", json_str(&t.shape)));
            out.push_str(&format!("      \"strategy\": {},\n", json_str(&t.strategy)));
            for (section, want_stable) in [("stable", true), ("observed", false)] {
                out.push_str(&format!("      \"{section}\": {{"));
                // The stable rendering prints only the shard-composable
                // allowlist, name-sorted so live and merged sections
                // agree byte for byte; observed counters are per-process
                // and render empty there.
                let mut rows: Vec<(&str, u64)> = t
                    .counters
                    .iter()
                    .filter(|(_, _, s)| *s == want_stable)
                    .filter(|(name, _, _)| {
                        !stable
                            || (want_stable && STABLE_COUNTER_ALLOWLIST.contains(&name.as_str()))
                    })
                    .map(|(name, delta, _)| (name.as_str(), *delta))
                    .collect();
                if stable {
                    rows.sort_by(|a, b| a.0.cmp(b.0));
                }
                let mut first = true;
                for (name, delta) in rows {
                    if !first {
                        out.push_str(", ");
                    }
                    first = false;
                    out.push_str(&format!("{}: {delta}", json_str(name)));
                }
                out.push_str(if want_stable { "},\n" } else { "}\n" });
            }
            out.push_str("    }");
        }
        if !self.telemetry.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        match &self.degradation {
            Some(deg) => {
                out.push_str("  \"degradation\": {\n");
                out.push_str(&format!(
                    "    \"decoder\": {},\n    \"nodes\": {},\n    \"seed\": {},\n",
                    json_str(&deg.decoder),
                    deg.nodes,
                    deg.seed
                ));
                out.push_str("    \"points\": [");
                for (i, p) in deg.points.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "\n      {{\"rate\": {}, \"trials\": {}, \"avg_rejecting\": {:.4}, \"strong_violations\": {}, \"adversarial_trials\": {}, \"false_accepts\": {}, \"fault_events\": {}}}",
                        p.rate, p.trials, p.avg_rejecting, p.strong_violations,
                        p.adversarial_trials, p.false_accepts, p.stats.total()
                    ));
                }
                if !deg.points.is_empty() {
                    out.push_str("\n    ");
                }
                out.push_str("]\n  },\n");
            }
            None => out.push_str("  \"degradation\": null,\n"),
        }
        out.push_str("  \"notes\": [");
        for (i, note) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(note));
        }
        out.push_str("]\n}\n");
        out
    }
}

fn summarize_panel(shape: &str, panel: &PanelReport) -> AuditPanelReport {
    AuditPanelReport {
        shape: shape.into(),
        universe_size: panel.evidence.universe_size,
        checked: panel.evidence.checked,
        threads: panel.evidence.threads,
        elapsed: panel.evidence.elapsed,
        cache_hits: panel.evidence.cache_hits,
        cache_misses: panel.evidence.cache_misses,
        memo_hits: panel.evidence.memo_hits,
        memo_misses: panel.evidence.memo_misses,
        interrupted: panel.evidence.interrupted,
        members: panel
            .members
            .iter()
            .map(|m| AuditMemberReport {
                property: m.tag.as_str().into(),
                label: m.label.clone(),
                passed: m.verdict.passed,
                detail: m.verdict.detail.clone(),
                checked: m.checked,
                short_circuited: m.short_circuited,
                interrupted: m.interrupted,
                coverage: m.coverage,
                errors: m.errors.len(),
            })
            .collect(),
    }
}

/// Replaces the combined hiding+quantified member line at `index` with
/// the two canonical lines, so an [`AuditReport`] reads identically
/// whether the plan shared the neighborhood scan or ran two members. An
/// errored member (no verdict value) keeps its fused line — the error
/// count belongs to the one scan that actually ran.
fn split_nbhd_member(summary: &mut AuditPanelReport, panel: &PanelReport, index: usize) {
    let Some(verdict) = panel.members[index]
        .verdict
        .get::<(NbhdGraph, HidingVerdict, ExtractabilityMap)>()
    else {
        return;
    };
    let base = summary.members[index].clone();
    let lines =
        nbhd_analyses_lines(verdict).map(|(tag, label, passed, detail)| AuditMemberReport {
            property: tag.as_str().into(),
            label: label.into(),
            passed,
            detail,
            ..base.clone()
        });
    let [hiding, quantified] = lines;
    summary.members[index] = hiding;
    summary.members.insert(index + 1, quantified);
}

/// JSON string literal with the mandatory escapes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::Verdict;
    use crate::label::Labeling;
    use crate::view::View;
    use hiding_lcp_graph::generators;

    /// Accepts iff the node's certificate is nonempty and differs from
    /// all neighbors' — a sound, strong, revealing 2-coloring scheme.
    struct LocalDiff;
    impl Decoder for LocalDiff {
        fn name(&self) -> String {
            "local-diff".into()
        }
        fn radius(&self) -> usize {
            1
        }
        fn id_mode(&self) -> IdMode {
            IdMode::Anonymous
        }
        fn decide(&self, view: &View) -> Verdict {
            if view.center_label().is_empty() {
                return Verdict::Reject;
            }
            let mine = view.center_label();
            Verdict::from(view.center_arcs().iter().all(|arc| {
                let l = &view.node(arc.to).label;
                !l.is_empty() && l != mine
            }))
        }
    }

    /// Certifies bipartite graphs by revealing a 2-coloring.
    struct BipartiteProver;
    impl Prover for BipartiteProver {
        fn name(&self) -> String {
            "bipartite".into()
        }
        fn certify(&self, instance: &Instance) -> Option<Labeling> {
            let sides = hiding_lcp_graph::algo::bipartite::bipartition(instance.graph()).ok()?;
            Some(sides.iter().map(|&s| Certificate::from_byte(s)).collect())
        }
    }

    fn bits() -> Vec<Certificate> {
        vec![Certificate::from_byte(0), Certificate::from_byte(1)]
    }

    fn family() -> InstanceSet {
        InstanceSet::Explicit {
            instances: vec![
                Instance::canonical(generators::cycle(4)),
                Instance::canonical(generators::path(3)),
                Instance::canonical(generators::cycle(5)),
            ],
            coverage: Coverage::Sampled,
        }
    }

    #[test]
    fn full_battery_compiles_into_four_panels() {
        let report = AuditPlan::new(&LocalDiff, 2, family(), bits())
            .prover(&BipartiteProver)
            .seed(11)
            .run();
        let shapes: Vec<&str> = report.panels.iter().map(|p| p.shape.as_str()).collect();
        assert_eq!(shapes, ["labelings", "instances", "erasure", "invariance"]);
        let labelings = &report.panels[0];
        assert_eq!(labelings.universe_size, 16 + 8 + 32);
        let props: Vec<&str> = labelings
            .members
            .iter()
            .map(|m| m.property.as_str())
            .collect();
        assert_eq!(props, ["soundness", "strong", "hiding", "quantified"]);
        // LocalDiff is sound (C5 admits no proper 2-labeling over two
        // certificates), strong (accepting sets are properly colored) and
        // complete with the bipartite prover; it reveals the coloring, so
        // hiding over a sampled family is at best inconclusive.
        assert_eq!(labelings.members[0].passed, Some(true), "soundness");
        assert_eq!(labelings.members[1].passed, Some(true), "strong");
        assert_ne!(labelings.members[2].passed, Some(true), "hiding");
        assert_eq!(report.panels[1].members[0].passed, Some(true));
        assert!(report.failures().is_empty() || report.failures() == ["labelings/hiding"]);
        assert!(
            report.notes.is_empty(),
            "nothing skipped: {:?}",
            report.notes
        );
    }

    /// The shared-scan member (hiding AND quantified wanted) must report
    /// the exact lines the standalone members produce — the fusion is a
    /// cost optimization, never an observable one.
    #[test]
    fn shared_nbhd_scan_matches_standalone_members() {
        let line = |report: &AuditReport, prop: &str| -> (Option<bool>, String) {
            let m = report.panels[0]
                .members
                .iter()
                .find(|m| m.property == prop)
                .unwrap_or_else(|| panic!("no `{prop}` line"));
            (m.passed, m.detail.clone())
        };
        let both = AuditPlan::new(&LocalDiff, 2, family(), bits())
            .properties([PropertyTag::Hiding, PropertyTag::Quantified])
            .run();
        let hiding_only = AuditPlan::new(&LocalDiff, 2, family(), bits())
            .properties([PropertyTag::Hiding])
            .run();
        let quantified_only = AuditPlan::new(&LocalDiff, 2, family(), bits())
            .properties([PropertyTag::Quantified])
            .run();
        assert_eq!(both.panels[0].members.len(), 2, "pair split into two lines");
        assert_eq!(line(&both, "hiding"), line(&hiding_only, "hiding"));
        assert_eq!(
            line(&both, "quantified"),
            line(&quantified_only, "quantified")
        );
        assert_eq!(both.panels[0].members[0].label, "hiding");
        assert_eq!(both.panels[0].members[1].label, "quantified");
    }

    #[test]
    fn property_subset_and_missing_prover_are_noted() {
        let report = AuditPlan::new(&LocalDiff, 2, family(), bits())
            .properties([PropertyTag::Soundness, PropertyTag::Completeness])
            .run();
        assert_eq!(report.panels.len(), 1);
        assert_eq!(report.panels[0].members.len(), 1);
        assert_eq!(report.panels[0].members[0].property, "soundness");
        assert!(report.notes.iter().any(|n| n.contains("no prover")));
    }

    #[test]
    fn lemma31_family_gates_soundness_onto_no_instances() {
        let report = AuditPlan::new(&LocalDiff, 2, InstanceSet::Lemma31 { max_n: 3 }, bits())
            .properties([PropertyTag::Soundness, PropertyTag::Strong])
            .run();
        let labelings = &report.panels[0];
        // The n<=3 family's only no-instance is the triangle; soundness
        // still scans the full shared walk but only records there.
        assert_eq!(labelings.members[0].passed, Some(true));
        assert_eq!(labelings.members[1].passed, Some(true));
        assert_eq!(labelings.checked, labelings.universe_size);
    }

    /// A plan with a recorder attached reports one telemetry section per
    /// executed panel, every panel walks, and the plan span closes.
    #[cfg(feature = "telemetry")]
    #[test]
    fn telemetry_section_breaks_down_per_panel() {
        let recorder = MetricsRecorder::new();
        let report = AuditPlan::new(&LocalDiff, 2, family(), bits())
            .prover(&BipartiteProver)
            .telemetry(&recorder)
            .run();
        let shapes: Vec<&str> = report.telemetry.iter().map(|t| t.shape.as_str()).collect();
        assert_eq!(shapes, ["labelings", "instances", "erasure", "invariance"]);
        for t in &report.telemetry {
            assert_eq!(t.strategy, "delta-stepping");
            assert!(
                t.counters
                    .iter()
                    .any(|(name, delta, _)| name == "items_walked" && *delta > 0),
                "{} panel walked nothing: {:?}",
                t.shape,
                t.counters
            );
        }
        assert!(recorder.trace_balanced(), "plan/panel spans all close");
        let json = report.to_json();
        assert!(json.contains("\"telemetry\": ["));
        assert!(json.contains("\"strategy\": \"delta-stepping\""));
        // The section reflects the recorder the caller owns: the summed
        // per-panel walked counts equal the recorder's grand total.
        let walked: u64 = report
            .telemetry
            .iter()
            .flat_map(|t| &t.counters)
            .filter(|(name, _, _)| name == "items_walked")
            .map(|(_, delta, _)| delta)
            .sum();
        assert_eq!(recorder.snapshot().get("items_walked"), Some(walked));
    }

    /// The tentpole invariant at plan level: a 2- or 4-way sharded audit
    /// merges into stable JSON byte-identical to one process's.
    #[test]
    fn sharded_audit_merges_byte_identical() {
        let plan = || {
            AuditPlan::new(&LocalDiff, 2, family(), bits())
                .prover(&BipartiteProver)
                .seed(7)
        };
        let single = plan().run().to_stable_json();
        for shards in [2usize, 4] {
            let reports: Vec<String> = ShardSpec::partition(shards)
                .into_iter()
                .map(|s| plan().run_shard(s))
                .collect();
            let merged = plan()
                .run_with_shards(&reports)
                .expect("clean shard reports merge");
            assert_eq!(single, merged.to_stable_json(), "{shards} shards");
        }
    }

    /// Tampered or mismatched shard reports fail the merge loudly
    /// instead of producing a silently wrong audit.
    #[test]
    fn shard_merge_rejects_fingerprint_and_torn_reports() {
        let plan = || AuditPlan::new(&LocalDiff, 2, family(), bits()).seed(7);
        let reports: Vec<String> = ShardSpec::partition(2)
            .into_iter()
            .map(|s| plan().run_shard(s))
            .collect();
        let torn = vec![
            reports[0].clone(),
            reports[1].replace("end shardreport\n", ""),
        ];
        let err = plan().run_with_shards(&torn).unwrap_err();
        assert!(err.contains("torn"), "{err}");
        let err = plan().seed(8).run_with_shards(&reports).unwrap_err();
        assert!(err.contains("seed"), "{err}");
        // The same shard twice leaves a gap and an overlap in the tiling.
        let twice = vec![reports[0].clone(), reports[0].clone()];
        plan().run_with_shards(&twice).unwrap_err();
        // Missing a shard leaves the tail of the universe uncovered.
        let half = vec![reports[0].clone()];
        plan().run_with_shards(&half).unwrap_err();
    }

    /// Stable JSON pins wall-clock and per-process counters, so repeated
    /// runs agree byte for byte.
    #[test]
    fn stable_json_pins_scheduling_fields() {
        let audit = || {
            AuditPlan::new(&LocalDiff, 2, family(), bits())
                .prover(&BipartiteProver)
                .seed(7)
                .run()
        };
        let json = audit().to_stable_json();
        assert!(json.contains("\"elapsed_ms\": 0.000"), "{json}");
        assert!(json.contains("\"cache_hits\": 0"), "{json}");
        assert_eq!(json, audit().to_stable_json());
    }

    /// A merged report's labelings telemetry is the sum of the shards'
    /// stable counters, and agrees with a single process's section on
    /// the stable-JSON allowlist.
    #[cfg(feature = "telemetry")]
    #[test]
    fn sharded_telemetry_sums_match_single_process() {
        let recorder = MetricsRecorder::new();
        let single = AuditPlan::new(&LocalDiff, 2, family(), bits())
            .telemetry(&recorder)
            .seed(7)
            .run();
        let reports: Vec<String> = ShardSpec::partition(2)
            .into_iter()
            .map(|s| {
                AuditPlan::new(&LocalDiff, 2, family(), bits())
                    .seed(7)
                    .run_shard(s)
            })
            .collect();
        let shard_recorder = MetricsRecorder::new();
        let merged = AuditPlan::new(&LocalDiff, 2, family(), bits())
            .telemetry(&shard_recorder)
            .seed(7)
            .run_with_shards(&reports)
            .expect("shards merge");
        assert_eq!(single.to_stable_json(), merged.to_stable_json());
        let allowlisted = |r: &AuditReport| {
            let mut rows: Vec<(String, u64)> = r.telemetry[0]
                .counters
                .iter()
                .filter(|(name, _, s)| *s && STABLE_COUNTER_ALLOWLIST.contains(&name.as_str()))
                .map(|(name, delta, _)| (name.clone(), *delta))
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(allowlisted(&single), allowlisted(&merged));
        assert!(
            allowlisted(&single)
                .iter()
                .any(|(name, delta)| name == "items_walked" && *delta > 0),
            "labelings section records the walk"
        );
    }

    #[test]
    fn json_renders_balanced_and_complete() {
        let report = AuditPlan::new(&LocalDiff, 2, family(), bits())
            .prover(&BipartiteProver)
            .fault_plan(FaultSpec {
                rates: vec![0.0, 0.3],
                trials: 3,
            })
            .seed(7)
            .run();
        let json = report.to_json();
        for key in [
            "\"decoder\": \"local-diff\"",
            "\"panels\"",
            "\"shape\": \"labelings\"",
            "\"property\": \"soundness\"",
            "\"degradation\"",
            "\"points\"",
            "\"notes\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
        // Determinism: the same plan renders the same report.
        let again = AuditPlan::new(&LocalDiff, 2, family(), bits())
            .prover(&BipartiteProver)
            .fault_plan(FaultSpec {
                rates: vec![0.0, 0.3],
                trials: 3,
            })
            .seed(7)
            .run();
        // Compare everything but wall-clock.
        assert_eq!(report.failures(), again.failures());
        assert_eq!(
            report.degradation.as_ref().map(|d| &d.points),
            again.degradation.as_ref().map(|d| &d.points)
        );
    }
}
