//! The named conformance probes.
//!
//! Each probe is an ordinary `fn()` that asserts one conformance fact —
//! most differentially against [`crate::oracle`], a few structurally
//! (facts like "a radius-1 view of a 5-cycle has exactly 3 nodes" that
//! both the production code *and* the oracle would get wrong together if
//! the shared view layer drifted). The test suites run every probe on the
//! clean build via [`ALL`]; the mutation battery
//! (`crate::catalog::run_battery`) replays the same list against each
//! seeded mutant and demands at least one probe panics.
//!
//! Probes must therefore be deterministic, self-contained and quick: the
//! battery runs the whole list once per mutant.

use crate::oracle;
use hiding_lcp_certs::{degree_one, even_cycle, revealing};
use hiding_lcp_core::decoder::{Decoder, Verdict};
use hiding_lcp_core::instance::{Instance, LabeledInstance};
use hiding_lcp_core::label::{Certificate, Labeling};
use hiding_lcp_core::language::KCol;
use hiding_lcp_core::lower::PortObliviousCycleDecoder;
use hiding_lcp_core::nbhd::{NbhdGraph, NbhdScan, NbhdSweep};
use hiding_lcp_core::properties::completeness::check_completeness;
use hiding_lcp_core::properties::erasure::{erase_and_run, random_erasure_trials};
use hiding_lcp_core::properties::hiding::{
    check_hiding, hiding_member, verify_hiding, HidingVerdict,
};
use hiding_lcp_core::properties::invariance::InvarianceCheck;
use hiding_lcp_core::properties::soundness::{SoundnessCheck, SoundnessViolation};
use hiding_lcp_core::properties::strong::{
    check_strong_exhaustive, strong_member, StrongCheck, StrongViolation,
};
use hiding_lcp_core::prover::Prover;
use hiding_lcp_core::verify::{
    merge_fragments, sum_stable_counters, AuditPlan, Block, BlockGated, Coverage, DynPropertyCheck,
    ExecMode, InstanceSet, ItemCtx, LabelSource, MetricsRecorder, PanelFragment, PropertyCheck,
    PropertyTag, ShardSpec, SweepBudget, SweepCounter, SweepOutcome, SweepSession, SweepStrategy,
    SymmetrySpec, Universe, UniverseItem, ViewInterner,
};
use hiding_lcp_core::view::{IdMode, View};
use hiding_lcp_graph::algo::{bipartite, coloring};
use hiding_lcp_graph::canon::are_isomorphic;
use hiding_lcp_graph::graph::Graph;
use hiding_lcp_graph::{generators, IdAssignment};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use std::thread::ThreadId;

/// Every probe, by name. The order is the battery's replay order.
pub const ALL: &[(&str, fn())] = &[
    ("view_radius_structure", view_radius_structure),
    ("delta_oracle_parity_cycles", delta_oracle_parity_cycles),
    ("delta_mixed_blocks_resync", delta_mixed_blocks_resync),
    ("delta_budget_resume_parity", delta_budget_resume_parity),
    ("memo_digit_slots", memo_digit_slots),
    ("classes_respect_alphabet", classes_respect_alphabet),
    ("short_circuit_count", short_circuit_count),
    ("parallel_chunk_census", parallel_chunk_census),
    ("interner_identity", interner_identity),
    ("hiding_partial_inconclusive", hiding_partial_inconclusive),
    ("hiding_selfloop_walk", hiding_selfloop_walk),
    ("nbhd_witnesses_recheck", nbhd_witnesses_recheck),
    ("nbhd_fold_join_parity", nbhd_fold_join_parity),
    ("tally_join_parity", tally_join_parity),
    ("invariance_checks_node0", invariance_checks_node0),
    ("erasure_counts_rejections", erasure_counts_rejections),
    (
        "completeness_reports_max_bits",
        completeness_reports_max_bits,
    ),
    ("strong_keeps_all_acceptors", strong_keeps_all_acceptors),
    ("panel_channel_isolation", panel_channel_isolation),
    ("panel_member_frontiers", panel_member_frontiers),
    ("shard_merge_byte_identical", shard_merge_byte_identical),
    ("shard_counter_sums", shard_counter_sums),
    ("shard_forged_record_rejected", shard_forged_record_rejected),
    ("orbit_partition_weighted", orbit_partition_weighted),
    ("quotient_share_respects_spec", quotient_share_respects_spec),
    ("copy_blocks_match_full_walk", copy_blocks_match_full_walk),
    ("telemetry_quotient_partition", telemetry_quotient_partition),
    ("telemetry_span_balance", telemetry_span_balance),
    ("coloring_matches_bruteforce", coloring_matches_bruteforce),
    ("isomorphism_beyond_degrees", isomorphism_beyond_degrees),
    ("induced_subgraph_exact", induced_subgraph_exact),
    (
        "bipartite_within_matches_oracle",
        bipartite_within_matches_oracle,
    ),
];

/// The binary certificate alphabet used throughout.
pub fn bits() -> Vec<Certificate> {
    vec![Certificate::from_byte(0), Certificate::from_byte(1)]
}

/// Accepts iff the node's certificate differs from all neighbors' — the
/// workhorse local decoder of the whole workspace.
pub struct LocalDiff;

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
        let mine = view.center_label();
        Verdict::from(
            view.center_arcs()
                .iter()
                .all(|arc| view.node(arc.to).label != *mine),
        )
    }
}

/// [`LocalDiff`] that additionally rejects any empty certificate in
/// sight — the erasure-sensitive variant (an erased node and all its
/// neighbors notice the blank).
pub struct StrictDiff;

impl Decoder for StrictDiff {
    fn name(&self) -> String {
        "strict-diff".into()
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

/// Accepts iff the node's own certificate is `0` — sensitive to which
/// certificate a digit names, not just to which digits are equal.
pub struct ZeroCenter;

impl Decoder for ZeroCenter {
    fn name(&self) -> String {
        "zero-center".into()
    }
    fn radius(&self) -> usize {
        1
    }
    fn id_mode(&self) -> IdMode {
        IdMode::Anonymous
    }
    fn decide(&self, view: &View) -> Verdict {
        Verdict::from(*view.center_label() == Certificate::from_byte(0))
    }
}

/// Accepts everything.
pub struct YesMan;

impl Decoder for YesMan {
    fn name(&self) -> String {
        "yes-man".into()
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

/// Accepts iff two of the center's neighbors are adjacent to each other —
/// a label-independent decoder whose verdict is decided purely by the
/// skeleton *class*, which is exactly what a memo-key class collision
/// confuses.
pub struct TriangleSpotter;

impl Decoder for TriangleSpotter {
    fn name(&self) -> String {
        "triangle-spotter".into()
    }
    fn radius(&self) -> usize {
        1
    }
    fn id_mode(&self) -> IdMode {
        IdMode::Anonymous
    }
    fn decide(&self, view: &View) -> Verdict {
        let arcs = view.center_arcs();
        Verdict::from(arcs.iter().enumerate().any(|(i, a)| {
            arcs[i + 1..]
                .iter()
                .any(|b| view.has_arc(a.to, b.to) || view.has_arc(b.to, a.to))
        }))
    }
}

/// Accepts iff the center's identifier is odd (requires [`IdMode::Full`]).
pub struct OddId;

impl Decoder for OddId {
    fn name(&self) -> String {
        "odd-id".into()
    }
    fn radius(&self) -> usize {
        0
    }
    fn id_mode(&self) -> IdMode {
        IdMode::Full
    }
    fn decide(&self, view: &View) -> Verdict {
        Verdict::from(view.center_id().expect("full mode") % 2 == 1)
    }
}

/// A check that records every item's full per-node acceptance vector —
/// the most discriminating observation the engine can make, so any
/// enumeration, memoization or scheduling bug shows up as a tally
/// mismatch.
pub struct VerdictTally<'a, D: ?Sized> {
    /// The decoder whose verdicts are tallied.
    pub decoder: &'a D,
}

impl<D: Decoder + ?Sized> PropertyCheck for VerdictTally<'_, D> {
    type Partial = Vec<bool>;
    type Verdict = Vec<(usize, Vec<bool>)>;

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        vec![(self.decoder.radius(), self.decoder.id_mode())]
    }

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<Vec<bool>> {
        Some(
            ctx.verdicts(item, self.decoder)
                .iter()
                .map(|v| v.is_accept())
                .collect(),
        )
    }

    fn verdict_decoder(&self) -> Option<&dyn Decoder> {
        Some(&self.decoder)
    }

    fn reduce(
        &self,
        _universe: &Universe,
        partials: Vec<(usize, Vec<bool>)>,
        _outcome: &SweepOutcome,
    ) -> Vec<(usize, Vec<bool>)> {
        partials
    }
}

/// The brute-force tally for a sequence of `(instance, labeling)` items
/// in universe order.
fn expected_tally<D: Decoder + ?Sized>(
    decoder: &D,
    items: &[(Instance, Labeling)],
) -> Vec<(usize, Vec<bool>)> {
    items
        .iter()
        .enumerate()
        .map(|(i, (instance, labeling))| {
            (
                i,
                oracle::run_by_definition(decoder, instance, labeling)
                    .iter()
                    .map(|v| v.is_accept())
                    .collect(),
            )
        })
        .collect()
}

/// All `(instance, labeling)` items of an exhaustive block, oracle-side.
fn exhaustive_items(instance: &Instance, alphabet: &[Certificate]) -> Vec<(Instance, Labeling)> {
    oracle::all_labelings(instance.graph().node_count(), alphabet)
        .into_iter()
        .map(|l| (instance.clone(), l))
        .collect()
}

/// Asserts the delta hot path, the decode oracle and the brute-force
/// reference all report the identical tally on `universe`.
fn assert_tally_parity<D: Decoder + ?Sized>(
    decoder: &D,
    universe: &Universe,
    expected: &[(usize, Vec<bool>)],
) {
    let tally = VerdictTally { decoder };
    let session = SweepSession::over(universe).mode(ExecMode::Sequential);
    let delta = session.run(&tally);
    let decode = session.strategy(SweepStrategy::DecodeOracle).run(&tally);
    assert_eq!(
        delta.verdict, decode.verdict,
        "delta-stepping and decode-oracle strategies disagree"
    );
    assert_eq!(
        delta.verdict, expected,
        "engine tally diverges from the brute-force reference"
    );
    assert!(delta.errors.is_empty(), "sweep caught inspection panics");
}

/// A radius-r view is the *r*-ball: pins the view assembler's radius
/// arithmetic with exact node and arc counts on known graphs.
pub fn view_radius_structure() {
    let c5 = Instance::canonical(generators::cycle(5));
    let l5 = Labeling::empty(5);
    assert_eq!(c5.view(&l5, 0, 0, IdMode::Anonymous).node_count(), 1);
    assert_eq!(c5.view(&l5, 0, 1, IdMode::Anonymous).node_count(), 3);
    assert_eq!(c5.view(&l5, 0, 2, IdMode::Anonymous).node_count(), 5);

    let c6 = Instance::canonical(generators::cycle(6));
    let l6 = Labeling::empty(6);
    assert_eq!(c6.view(&l6, 0, 2, IdMode::Anonymous).node_count(), 5);

    let k4 = Instance::canonical(generators::complete(4));
    let view = k4.view(&Labeling::empty(4), 0, 1, IdMode::Anonymous);
    assert_eq!(view.node_count(), 4);
    assert_eq!(view.center_degree(), 3);
    // At radius 1 the edges among the center's neighbors are invisible.
    for arc in view.center_arcs() {
        assert_eq!(view.node(arc.to).arcs.len(), 1, "leaf sees only the center");
    }
}

/// Delta-stepping over single exhaustive blocks must match both the
/// decode oracle and the brute-force reference, for a label-sensitive
/// decoder and a random table decoder.
pub fn delta_oracle_parity_cycles() {
    for instance in [
        Instance::canonical(generators::cycle(5)),
        Instance::canonical(generators::path(4)),
    ] {
        let universe = Universe::all_labelings_of(instance.clone(), bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let expected = expected_tally(&LocalDiff, &exhaustive_items(&instance, &bits()));
        assert_tally_parity(&LocalDiff, &universe, &expected);
    }
    let c6 = Instance::canonical(generators::cycle(6));
    let universe = Universe::all_labelings_of(c6.clone(), bits(), Coverage::Exhaustive)
        .expect("64 labelings fit");
    let decoder = PortObliviousCycleDecoder::from_code(0x2d);
    let expected = expected_tally(&decoder, &exhaustive_items(&c6, &bits()));
    assert_tally_parity(&decoder, &universe, &expected);
}

/// A multi-block universe forces an odometer resync at every block
/// boundary, and pairing a triangle with a path puts two *different*
/// skeleton classes with equal ball sizes in one sweep — exactly what a
/// memo-key class collision or a dropped resync corrupts.
pub fn delta_mixed_blocks_resync() {
    let k3 = Instance::canonical(generators::cycle(3));
    let p4 = Instance::canonical(generators::path(4));
    let universe = Universe::new(
        vec![
            Block::new(k3.clone(), LabelSource::All { alphabet: bits() }),
            Block::new(p4.clone(), LabelSource::All { alphabet: bits() }),
            Block::new(
                p4.clone(),
                LabelSource::Fixed(vec![Labeling::uniform(4, Certificate::from_byte(1))]),
            ),
        ],
        Coverage::Sampled,
    )
    .expect("mixed universe fits");
    let mut items = exhaustive_items(&k3, &bits());
    items.extend(exhaustive_items(&p4, &bits()));
    items.push((p4.clone(), Labeling::uniform(4, Certificate::from_byte(1))));
    for run in [false, true] {
        if run {
            let expected = expected_tally(&TriangleSpotter, &items);
            assert_tally_parity(&TriangleSpotter, &universe, &expected);
        } else {
            let expected = expected_tally(&LocalDiff, &items);
            assert_tally_parity(&LocalDiff, &universe, &expected);
        }
    }
}

/// A budget-interrupted delta sweep, its stopped fragment walked on to
/// the end and merged, must land on the identical tally as the
/// uninterrupted brute-force reference — every resume re-enters the
/// odometer mid-stream.
pub fn delta_budget_resume_parity() {
    let c6 = Instance::canonical(generators::cycle(6));
    let universe = Universe::all_labelings_of(c6.clone(), bits(), Coverage::Exhaustive)
        .expect("64 labelings fit");
    let tally = VerdictTally {
        decoder: &LocalDiff,
    };
    let budget = SweepBudget::unlimited().with_max_items(10);
    let session = SweepSession::over(&universe)
        .mode(ExecMode::Sequential)
        .budget(budget);
    let mut fragment = session.run_fragment(&tally, ShardSpec::new(0, 1));
    let mut slices = 1;
    while !fragment.is_complete() {
        fragment = session.resume_fragment(&tally, fragment);
        slices += 1;
        assert!(slices <= universe.len() + 2, "resume chain must terminate");
    }
    let report = merge_fragments(
        &tally,
        &universe,
        ExecMode::Sequential,
        vec![fragment],
        None,
    )
    .expect("a finished chain covers the universe");
    let expected = expected_tally(&LocalDiff, &exhaustive_items(&c6, &bits()));
    assert_eq!(report.verdict, expected);
    assert!(!report.interrupted);
}

/// A star's center ball has four nodes, so its dense table index uses
/// slots beyond 2 — aliased slots collide distinct labelings onto one
/// entry. Three letters make the collisions verdict-relevant: the dense
/// verdict table's tally drifts from the brute force, and the neighborhood
/// scan's view-id table merges distinct views.
pub fn memo_digit_slots() {
    let star = Instance::canonical(generators::star(3));
    let trits: Vec<Certificate> = (0..3).map(Certificate::from_byte).collect();
    let universe = Universe::all_labelings_of(star.clone(), trits.clone(), Coverage::Exhaustive)
        .expect("81 labelings fit");
    let expected = expected_tally(&LocalDiff, &exhaustive_items(&star, &trits));
    assert_tally_parity(&LocalDiff, &universe, &expected);
    assert_nbhd_matches_unkeyed(&universe);
}

/// Skeleton classes are per alphabet: two blocks of one graph whose
/// alphabets differ map equal ball digits to different certificates, so
/// neither the verdict memo nor the view-id table may share a class
/// between them.
pub fn classes_respect_alphabet() {
    let c4 = Instance::canonical(generators::cycle(4));
    let two_blocks = |alphabets: [Vec<Certificate>; 2]| {
        let blocks = alphabets
            .into_iter()
            .map(|alphabet| Block::new(c4.clone(), LabelSource::All { alphabet }))
            .collect();
        Universe::new(blocks, Coverage::Sampled).expect("32 labelings fit")
    };
    // The same letters in the other order: digit 0 is `0` in one block and
    // `1` in the other, which a center-label decoder tells apart.
    let flipped = vec![Certificate::from_byte(1), Certificate::from_byte(0)];
    let mut items = exhaustive_items(&c4, &bits());
    items.extend(exhaustive_items(&c4, &flipped));
    let expected = expected_tally(&ZeroCenter, &items);
    assert_tally_parity(&ZeroCenter, &two_blocks([bits(), flipped]), &expected);
    // A different second letter: equal digits stamp different views.
    let zero_two = vec![Certificate::from_byte(0), Certificate::from_byte(2)];
    assert_nbhd_matches_unkeyed(&two_blocks([bits(), zero_two]));
}

/// Asserts the engine-swept Lemma 3.1 graph of an all-`All` universe
/// equals the one built from the same labeled instances materialized as
/// `Fixed` blocks, where no odometer digits exist and every view is
/// interned by full hash.
fn assert_nbhd_matches_unkeyed(universe: &Universe) {
    let swept = NbhdGraph::from_sweep(&YesMan, IdMode::Anonymous, universe, |_| true).verdict;
    let labeled = (0..universe.len())
        .map(|i| {
            let item = universe.item(i);
            item.instance.clone().with_labeling(item.labeling)
        })
        .collect();
    let built = NbhdGraph::build(&YesMan, IdMode::Anonymous, labeled, |_| true);
    assert_eq!(
        swept.views(),
        built.views(),
        "the view-id tables merged or split views"
    );
    assert_eq!(swept.edge_count(), built.edge_count());
}

/// A short-circuited sweep reports `stop_at + 1` items checked: the
/// all-zero labeling violates soundness at index 0, so exactly one item
/// was examined.
pub fn short_circuit_count() {
    let c3 = Instance::canonical(generators::cycle(3));
    let universe =
        Universe::all_labelings_of(c3, bits(), Coverage::Exhaustive).expect("8 labelings fit");
    let report = SweepSession::over(&universe).run(&SoundnessCheck { decoder: &YesMan });
    assert!(report.short_circuited);
    assert_eq!(
        report.checked, 1,
        "violation at index 0 means 1 item checked"
    );
    let violation = report.verdict.expect_err("yes-man is unsound");
    assert_eq!(
        violation.labeling,
        Labeling::uniform(3, Certificate::from_byte(0)),
        "the witness is the lowest-indexed violating labeling"
    );
}

/// Parallel workers must partition the universe exactly: every item
/// tallied once, none twice, matching the sequential census on a
/// universe large enough to actually engage the thread pool.
pub fn parallel_chunk_census() {
    let c7 = Instance::canonical(generators::cycle(7));
    let universe = Universe::all_labelings_of(c7.clone(), bits(), Coverage::Exhaustive)
        .expect("128 labelings fit");
    let tally = VerdictTally {
        decoder: &LocalDiff,
    };
    let seq = SweepSession::over(&universe)
        .mode(ExecMode::Sequential)
        .run(&tally);
    let par = SweepSession::over(&universe)
        .mode(ExecMode::Parallel(crate::parity_threads().max(2)))
        .run(&tally);
    assert_eq!(par.verdict.len(), universe.len(), "each item tallied once");
    assert_eq!(seq.verdict, par.verdict);
    assert_eq!(seq.checked, par.checked);
}

/// The view interner's contract: distinct id ⟺ distinct view, with a
/// dense id → view table.
pub fn interner_identity() {
    let c5 = Instance::canonical(generators::cycle(5));
    let zeros = Labeling::uniform(5, Certificate::from_byte(0));
    let mut one_hot = zeros.clone();
    one_hot.set(1, Certificate::from_byte(1));
    let v0 = c5.view(&zeros, 0, 1, IdMode::Anonymous);
    let v1 = c5.view(&one_hot, 0, 1, IdMode::Anonymous);
    assert_ne!(v0, v1, "fixture views must differ");

    let interner = ViewInterner::new();
    let a = interner.intern(v0.clone());
    let b = interner.intern(v0.clone());
    assert_eq!(a, b, "re-interning an equal view returns the same id");
    assert_eq!(interner.len(), 1);
    let c = interner.intern(v1.clone());
    assert_ne!(a, c, "distinct views get distinct ids");
    assert_eq!(interner.len(), 2);
    let snapshot = interner.snapshot();
    assert_eq!(snapshot[a as usize], v0);
    assert_eq!(snapshot[c as usize], v1);
}

/// A colorable neighborhood graph from a *partial* walk proves nothing:
/// over a sampled universe, or over an exhaustive one whose walk was
/// interrupted or errored, the verdict must stay `Inconclusive`.
pub fn hiding_partial_inconclusive() {
    let c4 = Instance::canonical(generators::cycle(4));
    let proper: Labeling = (0..4)
        .map(|v| Certificate::from_byte((v % 2) as u8))
        .collect();
    let universe =
        Universe::labelings_of(c4, vec![proper], Coverage::Sampled).expect("single labeling fits");
    let report = verify_hiding(&LocalDiff, &universe, 2, bipartite::is_bipartite);
    let (nbhd, verdict) = report.verdict;
    assert!(nbhd.view_count() > 0, "the sampled labeling is accepted");
    assert_eq!(
        verdict,
        HidingVerdict::Inconclusive,
        "a sampled universe cannot certify non-hiding"
    );
    // Nor can an exhaustive universe the sweep was interrupted in.
    let c4 = Instance::canonical(generators::cycle(4));
    let all = Universe::new(
        vec![Block::new(c4, LabelSource::All { alphabet: bits() })],
        Coverage::Exhaustive,
    )
    .expect("16 labelings fit");
    let scan = NbhdSweep::new(&LocalDiff, IdMode::Anonymous, &all, bipartite::is_bipartite);
    let cut = SweepSession::over(&all)
        .budget(SweepBudget::unlimited().with_max_items(4))
        .run(&scan);
    assert!(cut.evidence.interrupted, "4 of 16 labelings visited");
    assert_eq!(
        check_hiding(&cut.verdict, 2, cut.coverage),
        HidingVerdict::Inconclusive,
        "an interrupted sweep cannot certify non-hiding"
    );
    // Nor can a complete walk over an exhaustive universe whose items
    // errored: the one labeling of a one-letter C4 panics, so V(D, .) is
    // empty (and colorable) without covering the family.
    let c4 = Instance::canonical(generators::cycle(4));
    let one = Universe::new(
        vec![Block::new(
            c4,
            LabelSource::All {
                alphabet: vec![Certificate::from_byte(0)],
            },
        )],
        Coverage::Exhaustive,
    )
    .expect("one labeling fits");
    let errored = verify_hiding(&PanicsOnEveryView, &one, 2, bipartite::is_bipartite);
    assert!(!errored.interrupted, "the walk reached the universe's end");
    assert_eq!(errored.errors.len(), 1, "its one item errored");
    assert_eq!(errored.coverage, Coverage::Sampled);
    assert_eq!(
        errored.verdict.1,
        HidingVerdict::Inconclusive,
        "an errored sweep cannot certify non-hiding"
    );
}

/// Panics on every view: each inspection that decides a verdict errors.
struct PanicsOnEveryView;

impl Decoder for PanicsOnEveryView {
    fn name(&self) -> String {
        "panics-on-every-view".into()
    }
    fn radius(&self) -> usize {
        1
    }
    fn id_mode(&self) -> IdMode {
        IdMode::Anonymous
    }
    fn decide(&self, _view: &View) -> Verdict {
        panic!("no verdict for any view")
    }
}

/// Equal adjacent accepting views are a self-loop — the length-1 odd walk
/// that makes an accept-everything decoder hiding even on partial
/// evidence.
pub fn hiding_selfloop_walk() {
    // Symmetric cycle ports collapse all of C4's views into one class, so
    // the accepting view is adjacent to an equal copy of itself.
    let g = generators::cycle(4);
    let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
    let instance = Instance::new(g, ports, IdAssignment::canonical(4)).expect("valid C4 instance");
    let li = instance.with_labeling(Labeling::empty(4));
    // The Lemma 3.1 sweep must find the loop.
    let universe = Universe::from_labeled(vec![li], Coverage::Sampled).expect("one item fits");
    let report = NbhdGraph::from_sweep(
        &YesMan,
        IdMode::Anonymous,
        &universe,
        bipartite::is_bipartite,
    );
    let nbhd = &report.verdict;
    assert_eq!(nbhd.view_count(), 1, "all C4 views are identical");
    assert_eq!(nbhd.self_loop_views(), vec![0]);
    let verdict = check_hiding(nbhd, 2, report.coverage);
    assert_eq!(verdict, HidingVerdict::Hiding { odd_walk: vec![0] });
}

/// Every witness of the engine-built `V(D, n)` rechecks against the
/// instance it names: a view witness re-derives its view and the decoder
/// accepts there by definition; an edge or self-loop witness is an edge of
/// its instance between the right views. `instances()` holds exactly the
/// named instances, and the graph, its witnesses, its instances and its
/// retained count are equal under the delta and oracle strategies.
pub fn nbhd_witnesses_recheck() {
    let cases: [(&dyn Decoder, Vec<Certificate>, usize); 3] = [
        (
            &degree_one::DegreeOneDecoder,
            degree_one::adversary_alphabet(),
            4,
        ),
        (
            &even_cycle::EvenCycleDecoder,
            even_cycle::adversary_alphabet(),
            3,
        ),
        (
            &revealing::RevealingDecoder::new(2),
            revealing::adversary_alphabet(2),
            3,
        ),
    ];
    for (decoder, alphabet, max_n) in cases {
        let name = decoder.name();
        let universe = Universe::lemma31(max_n, alphabet).expect("the n <= 4 family fits");
        let [delta, oracle] =
            [SweepStrategy::DeltaStepping, SweepStrategy::DecodeOracle].map(|strategy| {
                let check = NbhdSweep::new(
                    decoder,
                    IdMode::Anonymous,
                    &universe,
                    bipartite::is_bipartite,
                );
                SweepSession::over(&universe)
                    .strategy(strategy)
                    .run(&check)
                    .verdict
            });
        recheck_witnesses(&name, decoder, &delta);
        assert_same_witnesses(&name, &delta, &oracle);
    }
}

/// Rechecks every witness of `nbhd` against the instance it names.
fn recheck_witnesses(name: &str, decoder: &dyn Decoder, nbhd: &NbhdGraph) {
    let (radius, mode) = (nbhd.radius(), nbhd.id_mode());
    let instances = nbhd.instances();
    let mut named = vec![false; instances.len()];
    let mut edge_views = |i: usize, (u, v): (usize, usize)| {
        let li = &instances[i];
        assert!(
            li.graph().has_edge(u, v),
            "{name}: witness {u}-{v} is no edge"
        );
        named[i] = true;
        let at = |x: usize| {
            nbhd.index_of(&li.view(x, radius, mode))
                .expect("an accepting view")
        };
        (at(u), at(v))
    };
    for a in 0..nbhd.view_count() {
        for b in nbhd.neighbors(a).filter(|&b| a < b) {
            let (i, edge) = nbhd.edge_witness(a, b).expect("every edge has a witness");
            let (x, y) = edge_views(i, edge);
            assert!(
                (x, y) == (a, b) || (x, y) == (b, a),
                "{name}: edge ({a}, {b}) is witnessed between views ({x}, {y})"
            );
        }
        if let Some((i, edge)) = nbhd.self_loop_witness(a) {
            assert_eq!(edge_views(i, edge), (a, a), "{name}: self-loop {a}");
        }
    }
    for a in 0..nbhd.view_count() {
        let (i, v) = nbhd.view_witness(a);
        let li = &instances[i];
        named[i] = true;
        assert_eq!(
            &li.view(v, radius, mode),
            nbhd.view(a),
            "{name}: view {a} is not the view at node {v} of instance {i}"
        );
        let verdicts = oracle::run_by_definition(decoder, li.instance(), li.labeling());
        assert!(
            verdicts[v].is_accept(),
            "{name}: view {a}'s witness rejects"
        );
    }
    assert!(
        named.iter().all(|&n| n),
        "{name}: instances() keeps an instance no witness names"
    );
    assert!(instances.len() <= nbhd.retained_count());
}

/// The scan's per-worker fold joins into what one worker walking in order
/// keeps: at `Parallel(2..=4)` the walk's record lists exactly the items a
/// sequential decode-oracle walk records, and `V(D, n)` built from it or
/// merged from three fragments equals the oracle walk's graph, witness for
/// witness. A one-thread walk claims its chunks in order, so only a walk
/// whose workers both fold exercises the join: `Interleaved` holds the
/// worker that folds item 0 until another worker has folded an item.
pub fn nbhd_fold_join_parity() {
    let cases: [(&dyn Decoder, Vec<Certificate>, usize); 2] = [
        (
            &revealing::RevealingDecoder::new(2),
            revealing::adversary_alphabet(2),
            4,
        ),
        (
            &degree_one::DegreeOneDecoder,
            degree_one::adversary_alphabet(),
            4,
        ),
    ];
    let whole = ShardSpec::new(0, 1);
    let items = |fragment: &PanelFragment<NbhdScan>| -> Vec<usize> {
        fragment.members[0]
            .partials
            .iter()
            .map(|&(i, _)| i)
            .collect()
    };
    for (decoder, alphabet, max_n) in cases {
        let name = decoder.name();
        let universe = Universe::lemma31(max_n, alphabet).expect("the n <= 4 family fits");
        let scan = || {
            NbhdSweep::new(
                decoder,
                IdMode::Anonymous,
                &universe,
                bipartite::is_bipartite,
            )
        };
        let check = scan();
        let oracle = SweepSession::over(&universe)
            .mode(ExecMode::Sequential)
            .strategy(SweepStrategy::DecodeOracle)
            .run_fragment(&check, whole);
        let witness_items = items(&oracle);
        let reference =
            merge_fragments(&check, &universe, ExecMode::Sequential, vec![oracle], None)
                .expect("one complete fragment covers the universe")
                .verdict;
        for threads in 2..=4 {
            let mode = ExecMode::Parallel(threads);
            let check = Interleaved::new(scan());
            let fragment = SweepSession::over(&universe)
                .mode(mode)
                .run_fragment(&check, whole);
            assert_eq!(
                items(&fragment),
                witness_items,
                "{name}, {threads} threads: the record is the witness items"
            );
            let walked = merge_fragments(&check, &universe, mode, vec![fragment], None)
                .expect("one complete fragment covers the universe")
                .verdict;
            assert_same_witnesses(&format!("{name}, {threads} threads"), &reference, &walked);
        }
        let check = scan();
        let session = SweepSession::over(&universe).mode(ExecMode::Parallel(2));
        let fragments = ShardSpec::partition(3)
            .into_iter()
            .map(|spec| session.run_fragment(&check, spec))
            .collect();
        let merged = merge_fragments(&check, &universe, ExecMode::Parallel(2), fragments, None)
            .expect("three complete fragments tile the universe")
            .verdict;
        assert_same_witnesses(&format!("{name}, 3 fragments"), &reference, &merged);
    }
}

/// A walk's counts are its workers' tallies summed once after the join:
/// at `Parallel(2..=4)`, under both strategies, the recorder's stable
/// section and the report's `cache_hits` and `cache_misses` counts equal
/// a one-worker walk's. `Interleaved` makes a helper worker inspect items,
/// so a join that left out any worker's tally shows here.
pub fn tally_join_parity() {
    fn counts<C: PropertyCheck>(
        universe: &Universe,
        mode: ExecMode,
        strategy: SweepStrategy,
        check: &C,
    ) -> (String, u64, u64) {
        let recorder = MetricsRecorder::new();
        let report = SweepSession::over(universe)
            .mode(mode)
            .strategy(strategy)
            .metrics(&recorder)
            .run(check);
        let stable = recorder.snapshot().stable_bytes();
        let count = |counter| report.counts.get(counter);
        (
            stable,
            count(SweepCounter::CacheHits),
            count(SweepCounter::CacheMisses),
        )
    }
    let decoder = revealing::RevealingDecoder::new(2);
    let universe =
        Universe::lemma31(3, revealing::adversary_alphabet(2)).expect("the n <= 3 family fits");
    let scan = || {
        NbhdSweep::new(
            &decoder,
            IdMode::Anonymous,
            &universe,
            bipartite::is_bipartite,
        )
    };
    for strategy in [SweepStrategy::DeltaStepping, SweepStrategy::DecodeOracle] {
        let one = counts(&universe, ExecMode::Sequential, strategy, &scan());
        assert!(one.1 > 0, "{strategy:?}: the scan stamps views");
        for threads in 2..=4 {
            let check = Interleaved::new(scan());
            let many = counts(&universe, ExecMode::Parallel(threads), strategy, &check);
            assert_eq!(
                many, one,
                "{strategy:?}, {threads} threads: the summed tallies match one worker's"
            );
        }
    }
}

/// A check whose worker folding item 0 waits, for up to ten seconds,
/// until another worker has folded an item, so every worker of a walk
/// folds items and the join has records to combine, however the threads
/// are scheduled. The rest is the wrapped check's.
struct Interleaved<C> {
    inner: C,
    /// The workers that have folded an item.
    folders: Mutex<Vec<ThreadId>>,
}

impl<C> Interleaved<C> {
    /// Wraps `inner`.
    fn new(inner: C) -> Self {
        Interleaved {
            inner,
            folders: Mutex::new(Vec::new()),
        }
    }

    /// Notes the calling worker; for item 0, waits for another one.
    fn meet(&self, item: usize) {
        let me = std::thread::current().id();
        let others = || {
            let mut folders = self.folders.lock().expect("folders lock");
            if !folders.contains(&me) {
                folders.push(me);
            }
            folders.iter().any(|&t| t != me)
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !others() && item == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
    }
}

impl<C: PropertyCheck> PropertyCheck for Interleaved<C> {
    type Partial = C::Partial;
    type Verdict = C::Verdict;

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        self.inner.view_configs()
    }

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<C::Partial> {
        self.inner.inspect(item, ctx)
    }

    fn fold(
        &self,
        item: &UniverseItem<'_>,
        ctx: &ItemCtx<'_>,
        claim: &mut dyn FnMut(u64) -> bool,
    ) -> Option<C::Partial> {
        self.meet(item.index);
        self.inner.fold(item, ctx, claim)
    }

    fn verdict_decoder(&self) -> Option<&dyn Decoder> {
        self.inner.verdict_decoder()
    }

    fn uses_verdicts(&self, block: usize) -> bool {
        self.inner.uses_verdicts(block)
    }

    fn symmetry_class(&self, alphabet: &[Certificate]) -> Option<SymmetrySpec> {
        self.inner.symmetry_class(alphabet)
    }

    fn reduce(
        &self,
        universe: &Universe,
        partials: Vec<(usize, C::Partial)>,
        outcome: &SweepOutcome,
    ) -> C::Verdict {
        self.inner.reduce(universe, partials, outcome)
    }
}

/// Asserts two constructions of `V(D, n)` agree view for view, witness for
/// witness and instance for instance.
pub fn assert_same_witnesses(name: &str, a: &NbhdGraph, b: &NbhdGraph) {
    assert_eq!(a.views(), b.views(), "{name}: views differ");
    assert_eq!(a.instances(), b.instances(), "{name}: instances differ");
    assert_eq!(
        a.retained_count(),
        b.retained_count(),
        "{name}: retained counts differ"
    );
    for i in 0..a.view_count() {
        assert_eq!(a.view_witness(i), b.view_witness(i), "{name}: view {i}");
        let nbrs: Vec<usize> = a.neighbors(i).collect();
        assert_eq!(nbrs, b.neighbors(i).collect::<Vec<_>>(), "{name}: view {i}");
        for j in nbrs {
            assert_eq!(a.edge_witness(i, j), b.edge_witness(i, j), "{name}: edge");
        }
        assert_eq!(a.self_loop_witness(i), b.self_loop_witness(i), "{name}");
    }
}

/// Invariance inspection must include node 0: an identifier variant that
/// flips *only* node 0's verdict must be reported, and the engine must
/// agree with the oracle about it.
pub fn invariance_checks_node0() {
    let instance = Instance::canonical(generators::path(2));
    let labeling = Labeling::empty(2);
    // Canonical ids are (1, 2): node 0 accepts (odd), node 1 rejects.
    // The variant (2, 4) flips node 0 to reject and keeps node 1.
    let variant =
        IdAssignment::from_ids(vec![2, 4], instance.ids().bound()).expect("injective, in bound");
    let check = InvarianceCheck::new(&OddId, &instance, &labeling);
    let variant_li = LabeledInstance::new(
        instance.replace_ids(variant.clone()).expect("ids fit"),
        labeling.clone(),
    );
    let universe = Universe::from_labeled([variant_li], Coverage::Sampled).expect("one item fits");
    let verdict = SweepSession::over(&universe).run(&check).verdict;
    let violation = verdict.expect_err("node 0's verdict changed");
    assert_eq!(violation.node, 0);
    let oracle_violation = oracle::invariance(&OddId, &instance, &labeling, &[variant])
        .expect_err("oracle sees the same flip");
    assert_eq!(oracle_violation.node, 0);
}

/// Erasure trials report *rejecting* node counts: zero erasures mean zero
/// rejections, and erasing two certificates on a strict 6-cycle wakes at
/// least four verifiers. Explicit target sets must match the oracle
/// exactly.
pub fn erasure_counts_rejections() {
    let honest = Instance::canonical(generators::cycle(6)).with_labeling(
        (0..6)
            .map(|v| Certificate::from_byte((v % 2) as u8))
            .collect(),
    );
    let mut rng = StdRng::seed_from_u64(5);
    for outcome in random_erasure_trials(&StrictDiff, &honest, 0, 3, &mut rng) {
        assert_eq!(outcome.erased, 0);
        assert_eq!(outcome.rejecting, 0, "no erasure, no rejection");
    }
    let mut rng = StdRng::seed_from_u64(6);
    for outcome in random_erasure_trials(&StrictDiff, &honest, 2, 4, &mut rng) {
        assert_eq!(outcome.erased, 2);
        assert!(
            outcome.rejecting >= 4,
            "two erased nodes wake at least their closed neighborhoods, got {}",
            outcome.rejecting
        );
    }
    for targets in [vec![0], vec![0, 3], vec![1, 2, 4]] {
        assert_eq!(
            erase_and_run(&StrictDiff, &honest, &targets),
            oracle::erasure(&StrictDiff, &honest, &targets)
        );
    }
}

/// The completeness report aggregates the *maximum* certificate width
/// across passing instances, and must equal the oracle's report verbatim.
pub fn completeness_reports_max_bits() {
    /// Accepts every view without reading it.
    struct YesAll;
    impl Decoder for YesAll {
        fn name(&self) -> String {
            "yes-all".into()
        }
        fn radius(&self) -> usize {
            0
        }
        fn id_mode(&self) -> IdMode {
            IdMode::Anonymous
        }
        fn decide(&self, _view: &View) -> Verdict {
            Verdict::Accept
        }
    }
    /// Certifies with one n-byte certificate per node, so certificate
    /// width grows with the instance.
    struct WideProver;
    impl Prover for WideProver {
        fn name(&self) -> String {
            "wide".into()
        }
        fn certify(&self, instance: &Instance) -> Option<Labeling> {
            let n = instance.graph().node_count();
            Some(Labeling::uniform(n, Certificate::from_bytes(vec![0; n])))
        }
    }
    let instances = [
        Instance::canonical(generators::path(2)),
        Instance::canonical(generators::path(3)),
    ];
    let report = check_completeness(&YesAll, &WideProver, instances.clone());
    assert!(report.all_passed());
    assert_eq!(report.passed, 2);
    assert_eq!(
        report.max_certificate_bits, 24,
        "the 3-node instance's 3-byte certificates dominate"
    );
    assert_eq!(
        report,
        oracle::completeness(&YesAll, &WideProver, &instances)
    );
}

/// A strong-soundness witness carries the *entire* accepting set: on a
/// triangle under an accept-everything decoder that is all three nodes,
/// and the engine's first witness must equal the oracle's.
pub fn strong_keeps_all_acceptors() {
    let c3 = Instance::canonical(generators::cycle(3));
    let violation = check_strong_exhaustive(&YesMan, &KCol::new(2), &c3, &bits())
        .expect_err("a triangle of acceptors is not bipartite");
    assert_eq!(violation.accepting, vec![0, 1, 2]);
    let oracle_violation =
        oracle::strong(&YesMan, 2, &c3, &bits()).expect_err("oracle agrees it violates");
    assert_eq!(violation, oracle_violation);
}

/// The two-channel fixture behind both panel probes: an all-accepting
/// and an all-rejecting cycle decoder disagree on every item of every
/// labeling of C4, so the soundness members built on them must reach
/// opposite verdicts — and both decoders are non-ZST, so their channel
/// keys are genuinely distinct addresses.
fn disagreeing_panel() -> (
    PortObliviousCycleDecoder,
    PortObliviousCycleDecoder,
    Universe,
) {
    let accept = PortObliviousCycleDecoder::from_code(0x3f);
    let reject = PortObliviousCycleDecoder::from_code(0);
    let universe = Universe::all_labelings_of(
        Instance::canonical(generators::cycle(4)),
        bits(),
        Coverage::Exhaustive,
    )
    .expect("16 labelings fit");
    (accept, reject, universe)
}

/// Each panel member must read its *own* decoder's verdict channel: on
/// the disagreeing two-channel panel, the member on the all-accepting
/// decoder finds a unanimously accepted labeling (soundness violated)
/// while the member on the all-rejecting decoder finds none. A
/// cross-channel read flips both verdicts.
pub fn panel_channel_isolation() {
    let (accept, reject, universe) = disagreeing_panel();
    let members = [
        DynPropertyCheck::new(
            PropertyTag::Soundness,
            "sound-accept",
            SoundnessCheck { decoder: &accept },
        )
        .with_channel(&accept),
        DynPropertyCheck::new(
            PropertyTag::Soundness,
            "sound-reject",
            SoundnessCheck { decoder: &reject },
        )
        .with_channel(&reject),
    ];
    for mode in [ExecMode::Sequential, ExecMode::Parallel(2)] {
        let panel = SweepSession::over(&universe).mode(mode).run_panel(&members);
        let v0 = panel.members[0]
            .verdict
            .get::<Result<usize, SoundnessViolation>>()
            .expect("soundness verdict");
        assert!(
            v0.is_err(),
            "all-accepting decoder must be caught unsound under {mode:?}"
        );
        let v1 = panel.members[1]
            .verdict
            .get::<Result<usize, SoundnessViolation>>()
            .expect("soundness verdict");
        assert!(
            v1.is_ok(),
            "all-rejecting decoder admits no unanimous accept under {mode:?}"
        );
    }
}

/// A short-circuited panel member records its frontier exactly: stopped
/// at item `s`, it reports `s + 1` items checked — the same count its
/// own single-check sweep reports — while the shared walk carries the
/// laggard member to the end of the universe.
pub fn panel_member_frontiers() {
    let (accept, reject, universe) = disagreeing_panel();
    let members = [
        DynPropertyCheck::new(
            PropertyTag::Soundness,
            "sound-accept",
            SoundnessCheck { decoder: &accept },
        )
        .with_channel(&accept),
        DynPropertyCheck::new(
            PropertyTag::Soundness,
            "sound-reject",
            SoundnessCheck { decoder: &reject },
        )
        .with_channel(&reject),
    ];
    let solo = SweepSession::over(&universe)
        .mode(ExecMode::Sequential)
        .run(&SoundnessCheck { decoder: &accept });
    assert_eq!(solo.checked, 1, "item 0 (all-zero) is unanimously accepted");
    for mode in [ExecMode::Sequential, ExecMode::Parallel(2)] {
        let panel = SweepSession::over(&universe).mode(mode).run_panel(&members);
        assert!(
            panel.members[0].short_circuited,
            "accepting member must stop at its witness under {mode:?}"
        );
        assert_eq!(
            panel.members[0].checked, solo.checked,
            "member frontier must match the single-check sweep under {mode:?}"
        );
        assert_eq!(
            panel.members[1].checked,
            universe.len(),
            "laggard member walks the whole universe under {mode:?}"
        );
        assert_eq!(panel.evidence.checked, universe.len());
    }
}

/// Sharded audits compose exactly: splitting the labelings walk into 2
/// or 3 contiguous ranges, running each range as its own shard report
/// and merging must reproduce the single-process audit's stable JSON
/// byte for byte. A shard partition that overlaps (or gaps) the index
/// space is rejected by the merge, so this probe dies on any drift in
/// the range arithmetic.
pub fn shard_merge_byte_identical() {
    let family = || InstanceSet::Explicit {
        instances: vec![
            Instance::canonical(generators::cycle(4)),
            Instance::canonical(generators::path(3)),
        ],
        coverage: Coverage::Sampled,
    };
    let plan = || AuditPlan::new(&LocalDiff, 2, family(), bits()).seed(11);
    let single = plan().run().to_stable_json();
    for shards in [2usize, 3] {
        let reports: Vec<String> = ShardSpec::partition(shards)
            .into_iter()
            .map(|s| plan().run_shard(s))
            .collect();
        let merged = plan()
            .run_with_shards(&reports)
            .expect("clean shard reports tile the universe");
        assert_eq!(single, merged.to_stable_json(), "{shards}-way split");
    }
}

/// A shard report whose scan record was moved onto a no-instance item,
/// then re-sealed with a valid checksum, must fail the merge: the merge
/// replays every listed item, and the Lemma 3.1 scan never records a
/// no-instance. A merge that trusted the listing would accept it.
pub fn shard_forged_record_rejected() {
    let family = || InstanceSet::Explicit {
        instances: vec![
            Instance::canonical(generators::cycle(4)),
            Instance::canonical(generators::path(3)),
            Instance::canonical(generators::cycle(3)),
        ],
        coverage: Coverage::Sampled,
    };
    let plan = || AuditPlan::new(&LocalDiff, 2, family(), bits()).seed(11);
    let mut reports: Vec<String> = ShardSpec::partition(2)
        .into_iter()
        .map(|s| plan().run_shard(s))
        .collect();
    plan()
        .run_with_shards(&reports)
        .expect("clean shard reports merge");
    // Items [0, 16) label C4, [16, 24) P3 and [24, 32) the triangle, so
    // the second report covers P3 and the triangle. Its last scan record
    // (a P3 labeling) moves onto item 24.
    let mut lines: Vec<String> = reports[1].lines().map(String::from).collect();
    lines.pop(); // the checksum trailer
    let scan = lines
        .iter()
        .position(|l| l.starts_with("member 2 scan"))
        .expect("the panel's third member is the scan");
    let last = scan
        + lines[scan + 1..]
            .iter()
            .take_while(|l| l.starts_with("p "))
            .count();
    assert!(last > scan, "the P3 labelings leave scan records");
    lines[last] = "p 24".to_string();
    let body: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let fnv1a64 = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    reports[1] = format!("{body}end shardreport {:016x}\n", fnv1a64(body.as_bytes()));
    let err = plan()
        .run_with_shards(&reports)
        .expect_err("a forged scan record must not merge");
    assert!(err.contains("member 2") && err.contains("item 24"), "{err}");
}

/// The shard counter merge folds *every* shard's stable counters:
/// additive counters sum across shards, while `quotient_blocks` (a
/// universe-level census each shard recounts) takes the maximum, and the
/// result is name-sorted. Dropping any shard's contribution skews the
/// totals.
pub fn shard_counter_sums() {
    let per_shard = vec![
        vec![
            ("items_walked".to_string(), 40u64),
            ("quotient_blocks".to_string(), 2),
        ],
        vec![
            ("items_walked".to_string(), 24),
            ("quotient_blocks".to_string(), 3),
            ("verdict_refreshes".to_string(), 7),
        ],
        vec![
            ("items_walked".to_string(), 0),
            ("verdict_refreshes".to_string(), 5),
        ],
    ];
    let merged = sum_stable_counters(&per_shard);
    assert_eq!(
        merged,
        vec![
            ("items_walked".to_string(), 64),
            ("quotient_blocks".to_string(), 3),
            ("verdict_refreshes".to_string(), 12),
        ],
        "additive counters sum; quotient_blocks is a max; names sort"
    );
}

/// DSATUR's verdicts must equal brute-force colorability over every
/// connected graph on ≤ 5 nodes (plus the Petersen graph, which forces
/// The symmetry quotient partitions the labeling space. Over a
/// rotation-symmetric 5-cycle with binary certificates and a full label
/// swap class, the representatives a delta sweep visits must carry
/// multiplicities summing to exactly 2^5, each be its orbit's flat-index
/// minimum, and tile the space with pairwise-disjoint orbits; and the
/// quotiented walk must reproduce the oracle's full-walk soundness
/// verdict and checked count bit-for-bit.
fn orbit_partition_weighted() {
    struct Recorder;
    impl PropertyCheck for Recorder {
        type Partial = u64;
        type Verdict = Vec<(usize, u64)>;
        fn inspect(&self, _item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<u64> {
            Some(ctx.multiplicity())
        }
        fn symmetry_class(&self, _alphabet: &[Certificate]) -> Option<SymmetrySpec> {
            Some(SymmetrySpec {
                automorphisms: true,
                alphabet_classes: Some(vec![0, 0]),
            })
        }
        fn reduce(
            &self,
            _universe: &Universe,
            partials: Vec<(usize, u64)>,
            _outcome: &SweepOutcome,
        ) -> Self::Verdict {
            partials
        }
    }

    const N: usize = 5;
    let g = generators::cycle(N);
    let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
    let auts = hiding_lcp_graph::algo::automorphism::port_automorphisms(&g, &ports, 4096)
        .expect("cycle automorphism group is tiny");
    let instance = Instance::new(g, ports, IdAssignment::canonical(N)).expect("symmetric ports");
    let universe =
        Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive).expect("2^5 fits");

    let report = SweepSession::over(&universe)
        .mode(ExecMode::Sequential)
        .run(&Recorder);
    assert_eq!(
        report.checked,
        universe.len(),
        "skipped orbit members still count as checked"
    );
    let reps = report.verdict;
    let total: u64 = reps.iter().map(|&(_, m)| m).sum();
    assert_eq!(total, 1 << N, "orbit multiplicities must sum to |Sigma|^n");

    // Recompute every orbit from the declared group (rotations x label
    // swap) and hold the sweep to it: canonical minimum, exact size,
    // disjoint coverage.
    let digits_of = |mut idx: usize| -> Vec<usize> {
        (0..N)
            .map(|_| {
                let d = idx % 2;
                idx /= 2;
                d
            })
            .collect()
    };
    let index_of = |d: &[usize]| -> usize { d.iter().rev().fold(0, |acc, &x| acc * 2 + x) };
    let mut covered = [false; 1 << N];
    for &(rep, mult) in &reps {
        let digits = digits_of(rep);
        let mut orbit = std::collections::BTreeSet::new();
        for pi in &auts {
            let mut pinv = [0usize; N];
            for (v, &w) in pi.iter().enumerate() {
                pinv[w] = v;
            }
            for swap in [false, true] {
                let image: Vec<usize> = (0..N)
                    .map(|v| {
                        let x = digits[pinv[v]];
                        if swap {
                            1 - x
                        } else {
                            x
                        }
                    })
                    .collect();
                orbit.insert(index_of(&image));
            }
        }
        assert_eq!(
            *orbit.iter().next().expect("orbit is nonempty"),
            rep,
            "representative must be its orbit's flat-index minimum"
        );
        assert_eq!(
            orbit.len() as u64,
            mult,
            "multiplicity must equal the orbit size"
        );
        for &member in &orbit {
            assert!(!covered[member], "orbits must be pairwise disjoint");
            covered[member] = true;
        }
    }
    assert!(covered.iter().all(|&c| c), "orbits must cover the space");

    // The quotient is invisible to a short-circuiting checker: same
    // verdict, same number of items charged.
    let check = SoundnessCheck {
        decoder: &LocalDiff,
    };
    let full = SweepSession::over(&universe)
        .mode(ExecMode::Sequential)
        .strategy(SweepStrategy::DecodeOracle)
        .run(&check);
    let quot = SweepSession::over(&universe)
        .mode(ExecMode::Sequential)
        .run(&check);
    assert_eq!(
        full.verdict, quot.verdict,
        "quotient changed the soundness verdict"
    );
    assert_eq!(
        full.checked, quot.checked,
        "quotient changed the checked count"
    );
}

/// Walking one block per port-isomorphism class changes nothing a full
/// walk decides. For every audit decoder over the Lemma 3.1 family at
/// n ≤ 3, revealing:2 also at n ≤ 4, and the accept-all decoder (which
/// violates soundness on the first triangle), the production labelings
/// panel (soundness gated onto no-instances, strong soundness, the
/// hiding scan) must match the oracle's walk over every graph, port
/// assignment and labeling: the same verdicts, `checked` counts and stop
/// indices, and the same `V(D, n)` views in first-seen order, edge count
/// and self-loops. The multiplicities the walk hands out must sum to the
/// family size.
fn copy_blocks_match_full_walk() {
    struct Weights;
    impl PropertyCheck for Weights {
        type Partial = u64;
        type Verdict = u64;
        fn inspect(&self, _item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<u64> {
            Some(ctx.multiplicity())
        }
        fn symmetry_class(&self, _alphabet: &[Certificate]) -> Option<SymmetrySpec> {
            Some(SymmetrySpec {
                automorphisms: true,
                alphabet_classes: None,
            })
        }
        fn reduce(
            &self,
            _universe: &Universe,
            partials: Vec<(usize, u64)>,
            _outcome: &SweepOutcome,
        ) -> u64 {
            partials.into_iter().map(|(_, m)| m).sum()
        }
    }

    let revealing = revealing::RevealingDecoder::new(2);
    let cases: [(&dyn Decoder, Vec<Certificate>, usize); 5] = [
        (
            &degree_one::DegreeOneDecoder,
            degree_one::adversary_alphabet(),
            3,
        ),
        (
            &even_cycle::EvenCycleDecoder,
            even_cycle::adversary_alphabet(),
            3,
        ),
        (&revealing, revealing::adversary_alphabet(2), 3),
        (&revealing, revealing::adversary_alphabet(2), 4),
        (&YesMan, bits(), 3),
    ];
    let k = 2;
    let language = KCol::new(k);
    for (decoder, alphabet, max_n) in cases {
        let what = format!("{} at n <= {max_n}", decoder.name());
        let walk =
            oracle::LabelingsWalk::new(decoder, k, &oracle::lemma31_instances(max_n), &alphabet);
        let universe = Universe::lemma31(max_n, alphabet.clone()).expect("small family fits");
        assert_eq!(universe.len(), walk.items, "{what}: family size");
        // A member stopped at item `s` has checked `s + 1` items, with the
        // stop's labeling as its witness.
        let expect_stop = |member: &str,
                           checked: usize,
                           found: Option<&Labeling>,
                           stop: &Option<(usize, Labeling)>| {
            let want = stop.as_ref().map_or(walk.items, |(s, _)| s + 1);
            assert_eq!(checked, want, "{what}: {member} checked");
            assert_eq!(
                found,
                stop.as_ref().map(|(_, l)| l),
                "{what}: {member} witness"
            );
        };
        let no_instances = universe
            .blocks()
            .iter()
            .map(|b| !language.is_yes_graph(b.instance().graph()))
            .collect();
        let soundness = BlockGated {
            check: SoundnessCheck { decoder },
            active: no_instances,
        };
        let members = [
            DynPropertyCheck::new(PropertyTag::Soundness, "soundness", soundness)
                .with_channel(decoder),
            strong_member(decoder, &language),
            hiding_member(decoder, &universe, k, |g| language.is_yes_graph(g)),
        ];
        let panel = SweepSession::over(&universe).run_panel(&members);
        let [sound, strong, hiding] = &panel.members[..] else {
            unreachable!("three members")
        };
        let sound_witness = sound
            .verdict
            .get::<Result<usize, SoundnessViolation>>()
            .expect("soundness verdict type");
        expect_stop(
            "soundness",
            sound.checked,
            sound_witness.as_ref().err().map(|v| &v.labeling),
            &walk.soundness_stop,
        );
        let strong_witness = strong
            .verdict
            .get::<Result<usize, StrongViolation>>()
            .expect("strong verdict type");
        expect_stop(
            "strong",
            strong.checked,
            strong_witness.as_ref().err().map(|v| &v.labeling),
            &walk.strong_stop,
        );
        let nbhd = hiding
            .verdict
            .get::<NbhdGraph>()
            .expect("hiding verdict type");
        let views = &walk.views;
        assert_eq!(nbhd.views(), &views.views[..], "{what}: V(D, n) views");
        assert_eq!(
            nbhd.edge_count(),
            views.edges.len(),
            "{what}: V(D, n) edges"
        );
        assert_eq!(
            nbhd.self_loop_views().len(),
            views.self_loops.iter().filter(|&&l| l).count(),
            "{what}: V(D, n) self-loops"
        );
        assert_eq!(
            hiding.verdict.passed,
            Some(views.hiding(k)),
            "{what}: hiding verdict"
        );

        let weights = SweepSession::over(&universe).run(&Weights);
        assert_eq!(
            weights.verdict, walk.items as u64,
            "{what}: multiplicities sum to the family size"
        );
    }
}

/// An orbit-quotiented sweep's telemetry counters must tile the labeling space:
/// every walked item is either inspected or orbit-skipped, and the
/// recorded orbit multiplicities sum back to |Σ|^n. A recorder that
/// silently drops increments breaks the partition identity even though
/// the sweep's verdict is untouched.
fn telemetry_quotient_partition() {
    struct OrbitProbe;
    impl PropertyCheck for OrbitProbe {
        type Partial = u64;
        type Verdict = u64;
        fn inspect(&self, _item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<u64> {
            Some(ctx.multiplicity())
        }
        fn symmetry_class(&self, _alphabet: &[Certificate]) -> Option<SymmetrySpec> {
            Some(SymmetrySpec {
                automorphisms: true,
                alphabet_classes: Some(vec![0, 0]),
            })
        }
        fn reduce(
            &self,
            _universe: &Universe,
            partials: Vec<(usize, u64)>,
            _outcome: &SweepOutcome,
        ) -> Self::Verdict {
            partials.into_iter().map(|(_, m)| m).sum()
        }
    }

    const N: usize = 5;
    let g = generators::cycle(N);
    let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
    let instance = Instance::new(g, ports, IdAssignment::canonical(N)).expect("symmetric ports");
    let universe =
        Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive).expect("2^5 fits");

    let recorder = MetricsRecorder::new();
    let report = SweepSession::over(&universe)
        .mode(ExecMode::Sequential)
        .metrics(&recorder)
        .run(&OrbitProbe);
    assert_eq!(report.verdict, 1 << N, "multiplicities must sum to 2^n");

    let snap = recorder.snapshot();
    let get = |name: &str| snap.get(name).unwrap_or(0);
    assert_eq!(
        get("items_walked"),
        (1u64) << N,
        "a complete quotient walk touches every flat index"
    );
    assert!(
        get("items_orbit_skipped") > 0,
        "a symmetric cycle must produce non-trivial orbits"
    );
    assert_eq!(
        get("items_inspected") + get("items_orbit_skipped"),
        get("items_walked"),
        "inspected + orbit-skipped must tile the walk"
    );
    assert_eq!(
        get("orbit_multiplicity"),
        (1u64) << N,
        "recorded multiplicities must sum to |Sigma|^n"
    );
}

/// Every span a recorded sweep enters must be exited: the trace of a
/// finished sequential sweep is balanced and non-empty. A recorder that
/// loses exits leaves spans open forever and the Chrome trace becomes
/// unreadable.
fn telemetry_span_balance() {
    let g = generators::cycle(5);
    let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
    let instance = Instance::new(g, ports, IdAssignment::canonical(5)).expect("symmetric ports");
    let universe =
        Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive).expect("2^5 fits");

    let recorder = MetricsRecorder::new();
    let check = SoundnessCheck {
        decoder: &LocalDiff,
    };
    SweepSession::over(&universe)
        .mode(ExecMode::Sequential)
        .metrics(&recorder)
        .run(&check);
    assert!(
        recorder.trace_balanced(),
        "a finished sweep must close every span it opened"
    );
    let trace = recorder.trace_json();
    assert!(
        trace.contains("\"name\": \"sweep\""),
        "the sweep span must appear in the exported trace"
    );
}

/// backtracking at k = 3) for k ∈ {1, 2, 3}.
pub fn coloring_matches_bruteforce() {
    for g in generators::connected_graphs_up_to(5) {
        for k in 1..=3 {
            assert_eq!(
                coloring::is_k_colorable(&g, k),
                oracle::k_colorable(&g, k),
                "DSATUR disagrees with brute force on a {}-node graph at k={}",
                g.node_count(),
                k
            );
        }
    }
    let petersen = generators::petersen();
    assert!(!coloring::is_k_colorable(&petersen, 2));
    assert!(coloring::is_k_colorable(&petersen, 3));

    // A 9-node 3-chromatic graph on which the DSATUR search must
    // backtrack out of a failed color branch and succeed on the next one
    // — the restore path that small graphs never exercise.
    let backtracker = Graph::from_edges(
        9,
        &[
            (0, 2),
            (0, 3),
            (0, 6),
            (1, 3),
            (1, 4),
            (1, 7),
            (1, 8),
            (2, 6),
            (2, 8),
            (3, 4),
            (3, 8),
            (4, 6),
            (4, 7),
            (7, 8),
        ],
    )
    .expect("valid fixture");
    assert!(
        oracle::k_colorable(&backtracker, 3),
        "fixture is 3-colorable"
    );
    assert!(
        coloring::is_k_colorable(&backtracker, 3),
        "DSATUR must recover from its failed first branch"
    );
}

/// Isomorphism is more than a degree-sequence check: one 6-cycle and two
/// triangles are both 2-regular on 6 nodes yet not isomorphic.
pub fn isomorphism_beyond_degrees() {
    let c6 = generators::cycle(6);
    let two_triangles =
        Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).expect("valid");
    assert!(
        !are_isomorphic(&c6, &two_triangles),
        "equal degree sequences do not make graphs isomorphic"
    );
    let shuffled_c6 =
        Graph::from_edges(6, &[(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)]).expect("valid");
    assert!(are_isomorphic(&c6, &shuffled_c6), "relabeled cycles match");
}

/// `Graph::induced` keeps every edge whose endpoints survive, matching
/// the hand-built reference.
pub fn induced_subgraph_exact() {
    let k4 = generators::complete(4);
    let keep = [0usize, 1, 2];
    let (sub, map) = k4.induced(&keep);
    assert_eq!(map, keep.to_vec());
    assert_eq!(sub.edge_count(), 3, "a triangle survives");
    let reference = oracle::induced(&k4, &keep);
    let mut got: Vec<(usize, usize)> = sub.edges().collect();
    let mut want: Vec<(usize, usize)> = reference.edges().collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want);

    let c5 = generators::cycle(5);
    let (path, _) = c5.induced(&[0, 1, 2]);
    assert_eq!(path.edge_count(), 2);
}

/// Members whose symmetry declarations differ keep their own orbit
/// quotients in one fused walk. Strong declares port automorphisms plus
/// revealing:2's label classes; the Lemma 3.1 scan, fused after it,
/// declares automorphisms only, since a certificate swap changes the
/// views it collects. Over the n ≤ 3 Lemma 3.1 family, V(D, n) and
/// strong's `checked` must equal each member's solo walk.
pub fn quotient_share_respects_spec() {
    let decoder = revealing::RevealingDecoder::new(2);
    let two_col = KCol::new(2);
    let universe =
        Universe::lemma31(3, revealing::adversary_alphabet(2)).expect("the n <= 3 family fits");
    let scan = || {
        NbhdSweep::new(
            &decoder,
            IdMode::Anonymous,
            &universe,
            bipartite::is_bipartite,
        )
    };
    let members = [
        strong_member(&decoder, &two_col),
        DynPropertyCheck::new(PropertyTag::Custom, "scan", scan()).with_channel(&decoder),
    ];
    let session = SweepSession::over(&universe).mode(ExecMode::Sequential);
    let fused = session.run_panel(&members);
    let strong = session.run(&StrongCheck {
        decoder: &decoder,
        language: &two_col,
    });
    assert_eq!(fused.members[0].checked, strong.checked, "strong's checked");
    assert_eq!(
        fused.members[0]
            .verdict
            .get::<Result<usize, StrongViolation>>(),
        Some(&strong.verdict)
    );
    let solo = session.run(&scan()).verdict;
    let shared = fused.members[1]
        .verdict
        .get::<NbhdGraph>()
        .expect("the scan's V(D, n)");
    assert_same_witnesses("fused scan", shared, &solo);
}

/// The strong check's masked 2-colorability test against the brute-force
/// oracle on induced subgraphs: every connected graph on at most 5 nodes,
/// every node subset, k = 1..=3, and the bitset bipartiteness kernel at
/// k = 2.
pub fn bipartite_within_matches_oracle() {
    for g in generators::connected_graphs_up_to(5) {
        let n = g.node_count();
        for mask in 0..1u64 << n {
            let keep: Vec<usize> = (0..n).filter(|&v| mask >> v & 1 == 1).collect();
            let induced = oracle::induced(&g, &keep);
            assert_eq!(
                bipartite::is_bipartite_within(&g, mask),
                oracle::k_colorable(&induced, 2),
                "bipartite kernel on {n} nodes, mask {mask:#b}"
            );
            for k in 1..=3 {
                assert_eq!(
                    KCol::new(k).is_yes_within(&g, mask),
                    oracle::k_colorable(&induced, k),
                    "k={k} on {n} nodes, mask {mask:#b}"
                );
            }
        }
    }
}
