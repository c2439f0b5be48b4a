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
//!   soundness, hiding and quantified extractability all walk this shape
//!   as one panel sharing one verdict channel (same decoder object) and
//!   one skeleton cache. Soundness only quantifies over no-instances, so
//!   its member is wrapped in [`BlockGated`], which silences it on
//!   yes-instance blocks. Hiding and quantified are two reductions of the
//!   same Lemma 3.1 graph `V(D, n)`, so the panel carries one
//!   [`NbhdSweep`] member for both; after the walk the plan derives the
//!   hiding line (Lemma 3.2 on the coverage the scan achieved) and the
//!   quantified line from its graph.
//! * **instances** — one unlabeled item per yes-instance; the prover's
//!   labeling is judged inside inspection (completeness).
//! * **erasure** — seeded f-erasures of one honest labeling.
//! * **invariance** — seeded identifier permutations of one honest
//!   labeled instance ([`anonymity_universe`]).
//!
//! The result is an [`AuditReport`] that renders to JSON via
//! [`AuditReport::to_json`] — the `audit` binary is a thin CLI shell
//! around this module.
//!
//! # Shard reports
//!
//! [`AuditPlan::run_shard`] renders one shard of the labelings walk as a
//! `shardreport v2` text report: the plan's fingerprint (`decoder`, `k`,
//! `seed`, `universe` size, `strategy`), the `shard`, its `range` and how
//! far its walk got (`next`, below the range's end when a budget stopped
//! the walk, and the merge rejects such a report as torn); then per
//! member a `member <m> <label> <stop|->` line and the items where it
//! recorded a partial (`p <item>`) or caught a panic (`e <item>`); then
//! the shard's stable `counter` lines. The trailer `end shardreport
//! <checksum>` seals every preceding byte with its FNV-1a 64 hash, so a
//! torn or corrupted report fails whole. The Lemma 3.1 scan folds its
//! records ([`PropertyCheck::fold`]), so its `p` lines are the range's
//! witness items: those where some view, edge or self-loop of the range
//! is first witnessed.
//!
//! A report ships item indices, never records. A partial is a pure
//! function of its item, so [`AuditPlan::run_with_shards`] re-derives
//! every record by replaying the listed items, in order, through the
//! engine's own per-item step under the merging plan's strategy, and
//! rejects a report whose replay differs from its listing: that catches
//! any record the walk could not have made, a scan item that witnesses
//! nothing its listed predecessors do not included. A record the report
//! leaves out is never replayed, so the merge cannot see it; the checksum
//! catches an accidental omission.

use std::time::Duration;

use crate::decoder::Decoder;
use crate::instance::{Instance, LabeledInstance};
use crate::label::Certificate;
use crate::language::KCol;
use crate::nbhd::{NbhdGraph, NbhdSweep};
use crate::properties::completeness::completeness_member;
use crate::properties::erasure::{erased_labeling, erasure_member};
use crate::properties::hiding::hiding_line;
use crate::properties::invariance::{anonymity_universe, invariance_member};
use crate::properties::quantified::quantified_line;
use crate::properties::soundness::{SoundnessCheck, SoundnessViolation};
use crate::properties::strong::strong_member;
use crate::prover::Prover;
use crate::verify::{
    Block, Coverage, DynPropertyCheck, ExecMode, ItemCtx, LabelSource, MetricsRecorder,
    PanelReport, PropertyCheck, PropertyTag, SweepBudget, SweepCounter, SweepOutcome,
    SweepRecorder, SweepStrategy, SymmetrySpec, Universe, UniverseItem,
};

use super::budget::MemberFrontier;
use super::panel::PanelFragment;
use super::session::SweepSession;
use super::shard::{merge, ShardSpec};
use super::telemetry::WalkCounts;
use crate::view::IdMode;
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

    fn fold(
        &self,
        item: &UniverseItem<'_>,
        ctx: &ItemCtx<'_>,
        claim: &mut dyn FnMut(u64) -> bool,
    ) -> Option<Self::Partial> {
        self.active[item.block]
            .then(|| self.check.fold(item, ctx, claim))
            .flatten()
    }

    fn verdict_decoder(&self) -> Option<&dyn Decoder> {
        self.check.verdict_decoder()
    }

    fn uses_verdicts(&self, block: usize) -> bool {
        self.active[block] && self.check.uses_verdicts(block)
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

    fn reduce(
        &self,
        universe: &Universe,
        partials: Vec<(usize, Self::Partial)>,
        outcome: &SweepOutcome,
    ) -> Self::Verdict {
        self.check.reduce(universe, partials, outcome)
    }
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
    strategy: SweepStrategy,
    budget: Option<SweepBudget>,
    telemetry: Option<&'a MetricsRecorder>,
    seed: u64,
}

/// Erasure-panel shape: certificates wiped per trial.
const ERASURE_F: usize = 1;
/// Erasure-panel shape: trials per audit.
const ERASURE_TRIALS: usize = 8;
/// Invariance-panel shape: random identifier permutations per audit.
const INVARIANCE_SAMPLES: usize = 16;

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
            strategy: SweepStrategy::DeltaStepping,
            budget: None,
            telemetry: None,
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

    /// Sets the sweep strategy for every panel (default
    /// [`SweepStrategy::DeltaStepping`]).
    pub fn strategy(mut self, strategy: SweepStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Bounds the labelings panel (the combinatorial one) by `budget`. An
    /// interrupted audit downgrades those members to sampled coverage and
    /// records a note. Under [`AuditPlan::run_shard`] the budget bounds
    /// the shard's one walk, and a report the budget stopped does not
    /// merge.
    pub fn budget(mut self, budget: SweepBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Attaches a metrics recorder: every panel streams counters, phase
    /// timings and spans into it, and the report gains a `telemetry`
    /// section with the counts each panel's walk reports.
    pub fn telemetry(mut self, recorder: &'a MetricsRecorder) -> Self {
        self.telemetry = Some(recorder);
        self
    }

    /// Seeds every sampled panel (erasure targets, invariance
    /// permutations). Same seed, same report.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn wants(&self, tag: PropertyTag) -> bool {
        self.properties.contains(&tag)
    }

    /// The attached recorder as the engine-facing trait object.
    fn attached(&self) -> Option<&dyn SweepRecorder> {
        self.telemetry.map(|r| r as &dyn SweepRecorder)
    }

    /// Appends `panel`'s section to the report's telemetry when a
    /// recorder is attached: every counter its walk moved, name-sorted,
    /// read off the walk's evidence.
    fn push_panel_telemetry(&self, shape: &str, panel: &PanelReport, report: &mut AuditReport) {
        if self.telemetry.is_none() {
            return;
        }
        let counts = panel.evidence.counts;
        let mut counters: Vec<(String, u64, bool)> = SweepCounter::ALL
            .into_iter()
            .map(|c| (c.name().to_string(), counts.get(c), c.is_stable()))
            .filter(|&(_, value, _)| value > 0)
            .collect();
        counters.sort();
        report.telemetry.push(PanelTelemetry {
            shape: shape.into(),
            strategy: strategy_name(self.strategy).into(),
            counters,
        });
    }

    /// A session over `universe` with the plan's mode, strategy and
    /// recorder.
    fn session<'s>(&'s self, universe: &'s Universe) -> SweepSession<'s> {
        let session = SweepSession::over(universe)
            .mode(self.mode)
            .strategy(self.strategy);
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
        let (members, scan) = self.labelings_members(universe, is_yes);
        if members.is_empty() {
            return;
        }
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
        report
            .panels
            .push(self.labelings_summary(&panel, scan, universe.coverage()));
        self.push_panel_telemetry("labelings", &panel, report);
    }

    /// The labelings panel: soundness gated onto no-instances, strong
    /// soundness, and one Lemma 3.1 scan when hiding or quantified is
    /// wanted, all on the decoder's one verdict channel. Returns the
    /// members and the scan's member index. The live walk, the shard walk
    /// and the shard merge all build the panel here.
    fn labelings_members(
        &self,
        universe: &Universe,
        is_yes: &[bool],
    ) -> (Vec<DynPropertyCheck<'_>>, Option<usize>) {
        let mut members = Vec::new();
        if self.wants(PropertyTag::Soundness) {
            let gated = BlockGated {
                check: SoundnessCheck {
                    decoder: self.decoder,
                },
                active: is_yes.iter().map(|yes| !yes).collect(),
            };
            members.push(
                DynPropertyCheck::with_summary(
                    PropertyTag::Soundness,
                    "soundness",
                    gated,
                    |v: &Result<usize, SoundnessViolation>, _| match v {
                        Ok(_) => (Some(true), "no unanimous accept on a no-instance".into()),
                        Err(_) => (Some(false), "unanimously accepted labeling found".into()),
                    },
                )
                .with_channel(self.decoder),
            );
        }
        if self.wants(PropertyTag::Strong) {
            members.push(strong_member(self.decoder, &self.language));
        }
        let mut scan = None;
        if self.wants(PropertyTag::Hiding) || self.wants(PropertyTag::Quantified) {
            let is_yes_graph = |g: &_| self.language.is_yes_graph(g);
            let sweep = NbhdSweep::new(self.decoder, IdMode::Anonymous, universe, is_yes_graph);
            scan = Some(members.len());
            members.push(
                DynPropertyCheck::new(PropertyTag::Custom, "scan", sweep)
                    .with_channel(self.decoder),
            );
        }
        (members, scan)
    }

    /// The labelings panel's report: the scan member's line becomes the
    /// wanted hiding and quantified lines, both read off the scan's
    /// `V(D, n)`. Hiding applies Lemma 3.2 on the coverage the scan
    /// achieved, so an interrupted or erroring scan cannot conclude "not
    /// hiding"; `universe_coverage`, the labelings universe's own, says
    /// whether such a line blames the universe or the walk.
    fn labelings_summary(
        &self,
        panel: &PanelReport,
        scan: Option<usize>,
        universe_coverage: Coverage,
    ) -> AuditPanelReport {
        let mut summary = summarize_panel("labelings", panel);
        let Some(index) = scan else {
            return summary;
        };
        let nbhd = panel.members[index]
            .verdict
            .get::<NbhdGraph>()
            .expect("the scan member's verdict is V(D, n)");
        let k = self.language.k();
        let base = summary.members.remove(index);
        let line = |tag: PropertyTag, (passed, detail): (Option<bool>, String)| AuditMemberReport {
            property: tag.as_str().into(),
            label: tag.as_str().into(),
            passed,
            detail,
            ..base.clone()
        };
        let mut lines = Vec::new();
        if self.wants(PropertyTag::Hiding) {
            lines.push(line(
                PropertyTag::Hiding,
                hiding_line(nbhd, k, universe_coverage, base.coverage),
            ));
        }
        if self.wants(PropertyTag::Quantified) {
            lines.push(line(PropertyTag::Quantified, quantified_line(nbhd, k)));
        }
        summary.members.splice(index..index, lines);
        summary
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
        let panel = self.exec_panel(std::slice::from_ref(&member), &universe);
        report.panels.push(summarize_panel("instances", &panel));
        self.push_panel_telemetry("instances", &panel, report);
    }

    /// The first yes-instance the prover certifies — the honest fixture
    /// behind the erasure and invariance shapes.
    fn honest_fixture(
        &self,
        labelings: &Universe,
        is_yes: &[bool],
        report: &mut AuditReport,
    ) -> Option<LabeledInstance> {
        if !self.wants(PropertyTag::Erasure) && !self.wants(PropertyTag::Invariance) {
            return None;
        }
        let Some(prover) = self.prover else {
            report
                .notes
                .push("erasure/invariance skipped: plan has no prover".into());
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
        let f = ERASURE_F.min(n);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xE5A5);
        let target_sets: Vec<Vec<usize>> = (0..ERASURE_TRIALS)
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
        let panel = self.exec_panel(std::slice::from_ref(&member), &universe);
        report.panels.push(summarize_panel("erasure", &panel));
        self.push_panel_telemetry("erasure", &panel, report);
    }

    fn run_invariance_panel(&self, honest: &LabeledInstance, report: &mut AuditReport) {
        if !self.wants(PropertyTag::Invariance) {
            return;
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x1D5);
        let universe = anonymity_universe(
            honest.instance(),
            honest.labeling(),
            INVARIANCE_SAMPLES,
            &mut rng,
        );
        let member = invariance_member(self.decoder, honest.instance(), honest.labeling());
        let panel = self.exec_panel(std::slice::from_ref(&member), &universe);
        report.panels.push(summarize_panel("invariance", &panel));
        self.push_panel_telemetry("invariance", &panel, report);
    }

    /// Runs this plan's labelings panel over one shard's index range and
    /// renders the resulting fragment as a `shardreport v2` text report
    /// (format in the module docs).
    ///
    /// Only the labelings walk is sharded — it is the combinatorial
    /// shape; the remaining panels are linear in the family and the
    /// merging process recomputes them locally. A budget bounds the
    /// shard's one walk (`max_items` its items, the deadline its
    /// wall-clock). A walk the budget stopped writes `next` below the
    /// range's `hi`, and [`AuditPlan::run_with_shards`] rejects that
    /// report as torn.
    ///
    /// Partials are reduced only after [`AuditPlan::run_with_shards`]
    /// reassembles the fragments, so a merged report is the same reduction
    /// as a single-process run — byte-identical stable JSON.
    pub fn run_shard(&self, shard: ShardSpec) -> String {
        let universe = self.labelings_universe();
        let is_yes = self.yes_mask(&universe);
        let (members, _) = self.labelings_members(&universe, &is_yes);
        let mut session = SweepSession::over(&universe)
            .mode(self.mode)
            .strategy(self.strategy);
        if let Some(budget) = self.budget {
            session = session.budget(budget);
        }
        let fragment = session.run_panel_fragment(&members, shard);
        let mut out = String::from("shardreport v2\n");
        for (key, value) in self.fingerprint(&universe) {
            out.push_str(&format!("{key} {value}\n"));
        }
        out.push_str(&format!("shard {}\n", shard.label()));
        out.push_str(&format!("range {} {}\n", fragment.lo, fragment.hi));
        out.push_str(&format!("next {}\n", fragment.next));
        for (m, (check, frontier)) in members.iter().zip(&fragment.members).enumerate() {
            let stop = frontier
                .stop_at
                .map_or_else(|| "-".to_string(), |s| s.to_string());
            out.push_str(&format!("member {m} {} {stop}\n", check.label()));
            for (item, _) in &frontier.partials {
                out.push_str(&format!("p {item}\n"));
            }
            for e in &frontier.errors {
                out.push_str(&format!("e {}\n", e.item_index));
            }
        }
        let mut counters: Vec<SweepCounter> = SweepCounter::ALL
            .into_iter()
            .filter(|c| c.is_stable() && fragment.counts.get(*c) > 0)
            .collect();
        counters.sort_by_key(|c| c.name());
        for counter in counters {
            let value = fragment.counts.get(counter);
            out.push_str(&format!("counter {} {value}\n", counter.name()));
        }
        out.push_str(&format!(
            "end shardreport {:016x}\n",
            fnv1a64(out.as_bytes())
        ));
        out
    }

    /// Merges shard reports (from [`AuditPlan::run_shard`], any order)
    /// into the full audit: each report is checked and replayed (see the
    /// module docs), the labelings panel is reduced once over the replayed
    /// fragments, and the remaining panels run locally exactly as
    /// [`AuditPlan::run`] would. Fails — rather than guessing — on another
    /// report version, a checksum or fingerprint mismatch, an index outside
    /// the universe, a listing its replay does not reproduce, and ranges
    /// that don't tile the universe.
    ///
    /// With a recorder attached, the labelings telemetry section carries
    /// the *sum* of the shards' stable counters
    /// ([`super::shard::sum_stable_counters`]): stable counters are
    /// per-item, so their shard sums equal a single process's counts. The
    /// recorder gains the sums of the [`STABLE_COUNTER_ALLOWLIST`]
    /// counters, so its stable section matches an unsharded run's there.
    /// The replay runs unrecorded; one `merge` phase sample covers the
    /// parse, the replay and the tiling check, and the reduce records its
    /// own `reduce` sample.
    ///
    /// The replay re-folds each report's listed items in order, so a
    /// listing the walk could not have made fails, but a witness item a
    /// report omits merges undetected: its view, edge or self-loop then
    /// takes a later witness or drops out of `V(D, n)`.
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
        let (members, scan) = self.labelings_members(universe, is_yes);
        if members.is_empty() {
            return Ok(());
        }
        let begun = self.attached().map(|r| r.now_micros());
        let listings = shard_reports
            .iter()
            .map(|text| self.parse_shard_report(text, universe, &members))
            .collect::<Result<Vec<_>, _>>()?;
        let items: Vec<Vec<usize>> = listings.iter().map(ShardListing::items).collect();
        let session = SweepSession::over(universe).strategy(self.strategy);
        let replayed = super::panel::replay(&session, &members, &items)
            .map_err(|i| copy_item_error(&listings, &members, universe, i))?;
        let mut fragments = Vec::with_capacity(listings.len());
        let mut per_shard_counters = Vec::with_capacity(listings.len());
        for (listing, records) in listings.into_iter().zip(replayed) {
            listing.check_replay(&members, &records)?;
            fragments.push(PanelFragment {
                lo: listing.lo,
                hi: listing.hi,
                next: listing.next,
                members: records,
                counts: WalkCounts::default(),
            });
            per_shard_counters.push(listing.counters);
        }
        let (merged, evidence) = merge(
            &members,
            universe,
            self.mode,
            fragments,
            self.attached(),
            begun,
        )?;
        let panel = PanelReport::assemble(&members, merged, evidence);
        report
            .panels
            .push(self.labelings_summary(&panel, scan, universe.coverage()));
        if let Some(recorder) = self.telemetry {
            let summed = super::shard::sum_stable_counters(&per_shard_counters);
            // The children walked the labelings; the recorder gains their
            // shard-composable counters as if this process had walked.
            for (name, value) in &summed {
                if STABLE_COUNTER_ALLOWLIST.contains(&name.as_str()) {
                    recorder.add(
                        sweep_counter(name).expect("parsed counters are named"),
                        *value,
                    );
                }
            }
            report.telemetry.push(PanelTelemetry {
                shape: "labelings".into(),
                strategy: strategy_name(self.strategy).into(),
                counters: summed
                    .into_iter()
                    .map(|(name, delta)| (name, delta, true))
                    .collect(),
            });
        }
        Ok(())
    }

    /// The header lines that tie a shard report to this plan: decoder,
    /// k, seed, universe size and sweep strategy.
    fn fingerprint(&self, universe: &Universe) -> [(&'static str, String); 5] {
        [
            ("decoder", wire_escape(&self.decoder.name())),
            ("k", self.language.k().to_string()),
            ("seed", self.seed.to_string()),
            ("universe", universe.len().to_string()),
            ("strategy", strategy_name(self.strategy).to_string()),
        ]
    }

    /// Parses one shard report: its version, its checksum, this plan's
    /// fingerprint, and the items each of `members` recorded, every index
    /// bounds-checked against the universe.
    fn parse_shard_report(
        &self,
        text: &str,
        universe: &Universe,
        members: &[DynPropertyCheck<'_>],
    ) -> Result<ShardListing, String> {
        let version = text.lines().next().unwrap_or_default();
        if version != "shardreport v2" {
            return Err(format!(
                "shard report starts `{version}`, but this build merges `shardreport v2` only"
            ));
        }
        let n = universe.len();
        let number = |what: &str, s: &str| {
            s.parse::<usize>()
                .map_err(|_| format!("bad {what} `{s}` in shard report"))
        };
        let mut lines = sealed_body(text)?.lines().skip(1);
        for (key, want) in self.fingerprint(universe) {
            let got = header_field(&mut lines, key)?;
            if got != want {
                return Err(format!(
                    "shard report has {key} `{got}`, this plan has {key} `{want}`"
                ));
            }
        }
        header_field(&mut lines, "shard")?; // informational; the range line is authoritative
        let range = header_field(&mut lines, "range")?;
        let (lo, hi) = range
            .split_once(' ')
            .ok_or_else(|| format!("bad range `{range}` in shard report"))?;
        let (lo, hi) = (number("range lo", lo)?, number("range hi", hi)?);
        let next = number("next", header_field(&mut lines, "next")?)?;

        let mut listed: Vec<Listed> = Vec::with_capacity(members.len());
        let mut counters: Vec<(String, u64)> = Vec::new();
        for line in lines {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            // Every item index is checked against the universe before the
            // replay decodes it.
            let item = |m: usize, what: &str, s: &str| {
                let i = number("item index", s)?;
                if i < n {
                    Ok(i)
                } else {
                    Err(format!(
                        "shard report member {m} lists a {what} at item {i}, outside the \
                         {n}-item universe"
                    ))
                }
            };
            match tag {
                "member" => {
                    let m = listed.len();
                    let (head, stop) = rest.rsplit_once(' ').unwrap_or_default();
                    if members.get(m).map(|c| format!("{m} {}", c.label())) != Some(head.into()) {
                        return Err(format!(
                            "shard report line `{line}` is not member {m} of this plan's \
                             {}-member panel",
                            members.len()
                        ));
                    }
                    listed.push(match stop {
                        "-" => Vec::new(),
                        s => vec![("stop", item(m, "stop", s)?)],
                    });
                }
                "p" | "e" => {
                    let m = listed.len().checked_sub(1).ok_or_else(|| {
                        format!("shard report line `{line}` precedes every member line")
                    })?;
                    let what = if tag == "p" { "partial" } else { "error" };
                    let i = item(m, what, rest)?;
                    listed[m].push((what, i));
                }
                "counter" => {
                    let (name, value) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("bad counter line `{line}`"))?;
                    if sweep_counter(name).is_none() {
                        return Err(format!(
                            "shard report counter `{name}` names no sweep counter"
                        ));
                    }
                    let value = value
                        .parse::<u64>()
                        .map_err(|_| format!("bad counter value `{value}` in shard report"))?;
                    counters.push((name.to_string(), value));
                }
                _ => return Err(format!("unknown shard report line `{line}`")),
            }
        }
        if listed.len() != members.len() {
            return Err(format!(
                "shard report describes {} members, this plan's panel has {}",
                listed.len(),
                members.len()
            ));
        }
        Ok(ShardListing {
            lo,
            hi,
            next,
            members: listed,
            counters,
        })
    }
}

/// Escapes a free-form string onto one wire line.
fn wire_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

/// The FNV-1a 64 hash that seals a shard report. Each step XORs in a byte
/// and multiplies by an odd constant, a bijection on the state, so any
/// one changed byte changes the hash.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A shard report without its trailer, once the trailer checks out: the
/// last line must be `end shardreport <checksum>`, the checksum the
/// FNV-1a 64 of every preceding byte in 16 lowercase hex digits.
fn sealed_body(text: &str) -> Result<&str, String> {
    let torn = || {
        "shard report is torn: it does not end in an `end shardreport <checksum>` line".to_string()
    };
    let sealed = text.strip_suffix('\n').ok_or_else(torn)?;
    let at = sealed.rfind('\n').map_or(0, |i| i + 1);
    let checksum = sealed[at..]
        .strip_prefix("end shardreport ")
        .ok_or_else(torn)?;
    let body = &text[..at];
    let want = format!("{:016x}", fnv1a64(body.as_bytes()));
    if checksum != want {
        return Err(format!(
            "shard report checksum mismatch: the trailer says `{checksum}`, the content hashes \
             to `{want}`"
        ));
    }
    Ok(body)
}

/// The value of a shard report's next header line, which must read
/// `<key> <value>`.
fn header_field<'t>(
    lines: &mut impl Iterator<Item = &'t str>,
    key: &str,
) -> Result<&'t str, String> {
    let line = lines.next().unwrap_or_default();
    line.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix(' '))
        .ok_or_else(|| format!("shard report lacks its `{key}` line (found `{line}`)"))
}

/// The merge error for a report that lists a record at item `i`, which
/// lies in a copy block the walk jumps over (see
/// [`SymmetrySpec::automorphisms`]), so no walk records there: names the
/// first report and member that list it.
fn copy_item_error(
    listings: &[ShardListing],
    members: &[DynPropertyCheck<'_>],
    universe: &Universe,
    i: usize,
) -> String {
    let (listing, m, what) = listings
        .iter()
        .flat_map(|listing| {
            let members = listing.members.iter().enumerate();
            members.flat_map(move |(m, listed)| {
                listed
                    .iter()
                    .filter(move |&&(_, at)| at == i)
                    .map(move |&(what, _)| (listing, m, what))
            })
        })
        .next()
        .expect("the replay rejects only listed items");
    let (block, _) = universe.locate(i);
    format!(
        "shard report over [{}, {}) lists a record no walk makes: member {m} ({}) lists a \
         {what} at item {i}, in block {block}, a port-isomorphic copy the walk jumps over",
        listing.lo,
        listing.hi,
        members[m].label()
    )
}

/// One parsed shard report: its range, how far its walk got, what each
/// member recorded, and its stable counters.
struct ShardListing {
    lo: usize,
    hi: usize,
    next: usize,
    members: Vec<Listed>,
    counters: Vec<(String, u64)>,
}

/// One member's records by item index, as a report lists them or as the
/// replay re-derives them: its stop, then its partials and its errors,
/// each in item order.
type Listed = Vec<(&'static str, usize)>;

/// The records of a walked or replayed member, as a report lists them.
fn listed(record: &MemberFrontier) -> Listed {
    let partials = record.partials.iter().map(|&(i, _)| ("partial", i));
    let errors = record.errors.iter().map(|e| ("error", e.item_index));
    let stop = record.stop_at.map(|s| ("stop", s));
    stop.into_iter().chain(partials).chain(errors).collect()
}

impl ShardListing {
    /// The ascending union of every item the report lists.
    fn items(&self) -> Vec<usize> {
        let mut items: Vec<usize> = self.members.iter().flatten().map(|&(_, i)| i).collect();
        items.sort_unstable();
        items.dedup();
        items
    }

    /// Fails unless the replay of this report's items re-derived exactly
    /// the records it lists, naming the report's range, the member and the
    /// first record where they part.
    fn check_replay(
        &self,
        members: &[DynPropertyCheck<'_>],
        replayed: &[MemberFrontier],
    ) -> Result<(), String> {
        #[cfg(conformance_mutants)]
        if crate::mutants::active("shard_replay_trusted") {
            return Ok(());
        }
        let members = members.iter().zip(&self.members).zip(replayed);
        for (m, ((check, listing), record)) in members.enumerate() {
            let replay = listed(record);
            let Some(r) =
                (0..=listing.len().max(replay.len())).find(|&r| listing.get(r) != replay.get(r))
            else {
                continue;
            };
            let say = |side: &Listed| {
                side.get(r).map_or("nothing more".into(), |(what, i)| {
                    format!("a {what} at item {i}")
                })
            };
            return Err(format!(
                "shard report over [{}, {}) fails its replay: member {m} ({}) lists {}, the \
                 replay records {}",
                self.lo,
                self.hi,
                check.label(),
                say(listing),
                say(&replay)
            ));
        }
        Ok(())
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

/// One panel's counter movement under the plan's attached recorder: the
/// counts its walk's report carries (for a sharded labelings walk, the
/// shard reports' summed stable counters).
#[derive(Debug, Clone)]
pub struct PanelTelemetry {
    /// The panel's shape (matches the [`AuditPanelReport`] shape).
    pub shape: String,
    /// The sweep strategy the panel ran under.
    pub strategy: String,
    /// Counters the panel moved: `(wire name, count, stable)`. Stable
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
    /// [`AuditPlan::telemetry`].
    pub telemetry: Vec<PanelTelemetry>,
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

/// The counter whose wire name is `name`.
fn sweep_counter(name: &str) -> Option<SweepCounter> {
    SweepCounter::ALL.into_iter().find(|c| c.name() == name)
}

/// The wire name of a sweep strategy, as rendered in telemetry sections
/// and shard reports.
fn strategy_name(strategy: SweepStrategy) -> &'static str {
    match strategy {
        SweepStrategy::DeltaStepping => "delta-stepping",
        SweepStrategy::DecodeOracle => "decode-oracle",
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
    let count = |counter| panel.evidence.counts.get(counter) as usize;
    AuditPanelReport {
        shape: shape.into(),
        universe_size: panel.evidence.universe_size,
        checked: panel.evidence.checked,
        threads: panel.evidence.threads,
        elapsed: panel.evidence.elapsed,
        cache_hits: count(SweepCounter::CacheHits),
        cache_misses: count(SweepCounter::CacheMisses),
        memo_hits: count(SweepCounter::MemoHits),
        memo_misses: count(SweepCounter::MemoMisses),
        interrupted: panel.evidence.interrupted,
        members: panel
            .members
            .iter()
            .map(|m| AuditMemberReport {
                property: m.verdict.tag.as_str().into(),
                label: m.verdict.label.clone(),
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

/// JSON string literal with the mandatory escapes.
fn json_str(s: &str) -> String {
    format!("\"{}\"", hiding_lcp_telemetry::json_escape(s))
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

    /// A copy block is jumped only when every member treats it as it
    /// treats its class's first block. Soundness gated onto the second
    /// of two port-isomorphic triangles must find the accept-all
    /// violation there; a walk blind to the mask would jump the second
    /// block as a copy of the gated-off first one and report a pass.
    #[test]
    fn gated_copy_block_is_walked() {
        struct AcceptAll;
        impl Decoder for AcceptAll {
            fn name(&self) -> String {
                "accept-all".into()
            }
            fn radius(&self) -> usize {
                1
            }
            fn id_mode(&self) -> IdMode {
                IdMode::Anonymous
            }
            fn decide(&self, _view: &View) -> Verdict {
                Verdict::Accept
            }
        }
        let triangle = || {
            Block::new(
                Instance::canonical(generators::cycle(3)),
                LabelSource::All { alphabet: bits() },
            )
        };
        let universe = Universe::new(vec![triangle(), triangle()], Coverage::Exhaustive).unwrap();
        let gated = BlockGated {
            check: SoundnessCheck {
                decoder: &AcceptAll,
            },
            active: vec![false, true],
        };
        for strategy in [SweepStrategy::DeltaStepping, SweepStrategy::DecodeOracle] {
            let report = SweepSession::over(&universe).strategy(strategy).run(&gated);
            assert!(
                report.verdict.is_err(),
                "{strategy:?}: the second block violates"
            );
            assert_eq!(
                report.checked, 9,
                "{strategy:?}: the second block's first item"
            );
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
        let trailer = reports[1]
            .trim_end()
            .rfind('\n')
            .expect("a body precedes the trailer");
        let torn = vec![reports[0].clone(), reports[1][..=trailer].to_string()];
        let err = plan().run_with_shards(&torn).unwrap_err();
        assert!(err.contains("torn"), "{err}");
        let err = plan().seed(8).run_with_shards(&reports).unwrap_err();
        assert!(err.contains("seed"), "{err}");
        // The replay classifies under the merging plan's strategy, so a
        // report walked under another one cannot merge.
        let err = plan()
            .strategy(SweepStrategy::DecodeOracle)
            .run_with_shards(&reports)
            .unwrap_err();
        assert!(err.contains("strategy"), "{err}");
        let v1 = vec![
            reports[0].replacen("shardreport v2", "shardreport v1", 1),
            reports[1].clone(),
        ];
        let err = plan().run_with_shards(&v1).unwrap_err();
        assert!(err.contains("shardreport v1"), "{err}");
        // The same shard twice leaves a gap and an overlap in the tiling.
        let twice = vec![reports[0].clone(), reports[0].clone()];
        plan().run_with_shards(&twice).unwrap_err();
        // Missing a shard leaves the tail of the universe uncovered.
        let half = vec![reports[0].clone()];
        plan().run_with_shards(&half).unwrap_err();
    }

    /// Every truncation of a valid shard report, and an XOR-0x01 flip at
    /// every byte offset, fails the merge: an error, never a merge and
    /// never a panic. The checksum catches what the parser cannot.
    #[test]
    fn corrupted_shard_reports_never_merge() {
        let plan = || AuditPlan::new(&LocalDiff, 2, family(), bits()).seed(7);
        let reports: Vec<String> = ShardSpec::partition(2)
            .into_iter()
            .map(|s| plan().run_shard(s))
            .collect();
        plan()
            .run_with_shards(&reports)
            .expect("clean shard reports merge");
        for (r, report) in reports.iter().enumerate() {
            let bytes = report.as_bytes();
            let truncations = (0..bytes.len()).map(|cut| bytes[..cut].to_vec());
            let flips = (0..bytes.len()).map(|at| {
                let mut flipped = bytes.to_vec();
                flipped[at] ^= 0x01;
                flipped
            });
            for (case, corrupt) in truncations.chain(flips).enumerate() {
                let mut set = reports.clone();
                set[r] = String::from_utf8(corrupt).expect("reports are ASCII");
                assert!(
                    plan().run_with_shards(&set).is_err(),
                    "report {r}, corruption {case} merged:\n{}",
                    set[r]
                );
            }
        }
    }

    /// A budget that stops the walk short of an exhaustive universe
    /// leaves hiding inconclusive: a colorable `V(D, n)` over a prefix
    /// refutes nothing.
    #[test]
    fn budget_interrupted_hiding_is_inconclusive() {
        let plan = || {
            AuditPlan::new(&LocalDiff, 2, InstanceSet::Lemma31 { max_n: 3 }, bits())
                .properties([PropertyTag::Hiding])
        };
        let full = plan().run();
        assert_eq!(full.panels[0].members[0].passed, Some(false), "revealing");
        let cut = plan()
            .budget(SweepBudget::unlimited().with_max_items(20))
            .run();
        let hiding = &cut.panels[0].members[0];
        assert_eq!(hiding.property, "hiding");
        assert!(hiding.interrupted && hiding.checked == 20);
        assert_eq!(hiding.coverage, Coverage::Sampled);
        assert_eq!(hiding.passed, None, "{}", hiding.detail);
        assert_eq!(
            hiding.detail, "V(D, .) k-colorable but the walk did not cover the universe",
            "the Lemma 3.1 family is exhaustive; only the walk fell short"
        );
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
        let plan = || {
            AuditPlan::new(&LocalDiff, 2, family(), bits())
                .prover(&BipartiteProver)
                .seed(7)
        };
        let report = plan().run();
        let json = report.to_json();
        for key in [
            "\"decoder\": \"local-diff\"",
            "\"panels\"",
            "\"shape\": \"labelings\"",
            "\"property\": \"soundness\"",
            "\"notes\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
        // Determinism: the same plan renders the same report, wall-clock
        // aside.
        assert_eq!(report.to_stable_json(), plan().run().to_stable_json());
    }
}
