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
use hiding_lcp_core::decoder::{Decoder, Verdict};
use hiding_lcp_core::instance::{Instance, LabeledInstance};
use hiding_lcp_core::label::{Certificate, Labeling};
use hiding_lcp_core::language::KCol;
use hiding_lcp_core::lower::PortObliviousCycleDecoder;
use hiding_lcp_core::nbhd::NbhdGraph;
use hiding_lcp_core::network::degradation::degradation_sweep;
use hiding_lcp_core::network::{FaultPlan, FaultRates};
use hiding_lcp_core::properties::completeness::check_completeness;
use hiding_lcp_core::properties::erasure::{erase_and_run, random_erasure_trials};
use hiding_lcp_core::properties::hiding::{
    check_hiding, verify_hiding, HidingVerdict, UniverseCoverage,
};
use hiding_lcp_core::properties::invariance::InvarianceCheck;
use hiding_lcp_core::properties::soundness::{SoundnessCheck, SoundnessViolation};
use hiding_lcp_core::properties::strong::check_strong_exhaustive;
use hiding_lcp_core::prover::Prover;
use hiding_lcp_core::verify::{
    sum_stable_counters, AuditPlan, Block, Coverage, DynPropertyCheck, ExecMode, InstanceSet,
    ItemCtx, LabelSource, LazySweep, MetricsRecorder, PropertyCheck, PropertyTag, ShardSpec,
    SweepBudget, SweepOpts, SweepOutcome, SweepSession, SymmetrySpec, Universe, UniverseItem,
    ViewInterner,
};
use hiding_lcp_core::view::{IdMode, View};
use hiding_lcp_graph::algo::{bipartite, coloring};
use hiding_lcp_graph::canon::are_isomorphic;
use hiding_lcp_graph::graph::Graph;
use hiding_lcp_graph::{generators, IdAssignment};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    ("invariance_checks_node0", invariance_checks_node0),
    ("erasure_counts_rejections", erasure_counts_rejections),
    (
        "completeness_reports_max_bits",
        completeness_reports_max_bits,
    ),
    ("strong_keeps_all_acceptors", strong_keeps_all_acceptors),
    ("fault_salts_independent", fault_salts_independent),
    ("degradation_matches_oracle", degradation_matches_oracle),
    ("panel_channel_isolation", panel_channel_isolation),
    ("panel_member_frontiers", panel_member_frontiers),
    ("shard_merge_byte_identical", shard_merge_byte_identical),
    ("shard_counter_sums", shard_counter_sums),
    ("orbit_partition_weighted", orbit_partition_weighted),
    ("telemetry_quotient_partition", telemetry_quotient_partition),
    ("telemetry_span_balance", telemetry_span_balance),
    ("coloring_matches_bruteforce", coloring_matches_bruteforce),
    ("isomorphism_beyond_degrees", isomorphism_beyond_degrees),
    ("induced_subgraph_exact", induced_subgraph_exact),
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
            ctx.run(item, self.decoder)
                .iter()
                .map(|v| v.is_accept())
                .collect(),
        )
    }

    fn verdict_decoder(&self) -> Option<&dyn Decoder> {
        Some(&self.decoder)
    }

    fn inspect_with_verdicts(
        &self,
        _item: &UniverseItem<'_>,
        verdicts: &[Verdict],
        _ctx: &ItemCtx<'_>,
    ) -> Option<Vec<bool>> {
        Some(verdicts.iter().map(|v| v.is_accept()).collect())
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
    let delta = session.opts(SweepOpts::default()).run(&tally);
    let decode = SweepSession::over(universe)
        .mode(ExecMode::Sequential)
        .opts(SweepOpts::oracle())
        .run(&tally);
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

/// A budget-interrupted, resumed delta sweep must land on the identical
/// tally as the uninterrupted brute-force reference — every resume
/// re-enters the odometer mid-stream.
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
        .budget(budget)
        .opts(SweepOpts::default());
    let mut state = session.run_budgeted(&tally);
    let mut slices = 1;
    while let Some(token) = state.resume.take() {
        state = session.resume(&tally, token);
        slices += 1;
        assert!(slices <= universe.len() + 2, "resume chain must terminate");
    }
    let expected = expected_tally(&LocalDiff, &exhaustive_items(&c6, &bits()));
    assert_eq!(state.report.verdict, expected);
    assert!(!state.report.interrupted);
}

/// A star's center ball has four nodes, so its memo indices and digit
/// keys use slots beyond 2 — aliased slots collide distinct labelings onto
/// one entry. Three letters make the collisions verdict-relevant: the
/// dense verdict table's tally drifts from the brute force, and the
/// neighborhood scan's digit-keyed interner merges distinct views.
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
/// neither the verdict memo nor the interner's front cache may share a
/// class between them.
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
        "digit-keyed interning merged or split views"
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
    let keyed = interner.intern_keyed(0xBEEF, v0.clone());
    assert_eq!(keyed, a, "the keyed path converges on the canonical id");
    assert_eq!(interner.lookup_key(0xBEEF), Some(a));
    assert_eq!(interner.len(), 2);
    let snapshot = interner.snapshot();
    assert_eq!(snapshot[a as usize], v0);
    assert_eq!(snapshot[c as usize], v1);
}

/// A colorable neighborhood graph from a *partial* universe proves
/// nothing: the verdict must stay `Inconclusive`.
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
    // Both Lemma 3.1 paths must find the loop: the incremental `extend`
    // step and the engine sweep behind `build`.
    let mut nbhd = NbhdGraph::empty(1, IdMode::Anonymous);
    nbhd.extend(&YesMan, vec![li.clone()], bipartite::is_bipartite);
    let swept = NbhdGraph::build(
        &YesMan,
        IdMode::Anonymous,
        vec![li],
        bipartite::is_bipartite,
    );
    assert_eq!(
        nbhd.self_loop_views(),
        swept.self_loop_views(),
        "extend and sweep disagree about self-loops"
    );
    assert_eq!(nbhd.view_count(), 1, "all C4 views are identical");
    assert_eq!(nbhd.self_loop_views(), vec![0]);
    let verdict = check_hiding(&nbhd, 2, UniverseCoverage::Partial);
    assert_eq!(verdict, HidingVerdict::Hiding { odd_walk: vec![0] });
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
    let verdict = LazySweep::labeled(Coverage::Sampled)
        .run_labeled(&check, std::iter::once(variant_li))
        .verdict;
    let violation = verdict.expect_err("node 0's verdict changed");
    assert_eq!(violation.node, 0);
    let oracle_violation = oracle::invariance(&OddId, &instance, &labeling, &[variant])
        .expect_err("oracle sees the same flip");
    assert_eq!(oracle_violation.node, 0);
}

/// Erasure trials report *rejecting* node counts: zero faults mean zero
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

/// Drop and duplication decisions must be independent coin flips: at
/// equal rates the two decision streams cannot coincide everywhere.
pub fn fault_salts_independent() {
    let mut rates = FaultRates::none();
    rates.drop = 0.5;
    rates.duplicate = 0.5;
    let plan = FaultPlan::new(0xDECAF, rates);
    let mut drops = Vec::new();
    let mut dups = Vec::new();
    for round in 0..5 {
        for u in 0..4 {
            for v in 0..4 {
                if u != v {
                    drops.push(plan.drops(round, u, v));
                    dups.push(plan.duplicates(round, u, v));
                }
            }
        }
    }
    assert!(drops.iter().any(|&d| d), "a 50% drop rate fires sometimes");
    assert!(dups.iter().any(|&d| d), "a 50% dup rate fires sometimes");
    assert_ne!(
        drops, dups,
        "drop and duplication decisions share a salt — the streams are identical"
    );
}

/// The degradation harness is a pure function of its documented seed
/// derivation: the independent re-derivation must reproduce the report
/// byte for byte.
pub fn degradation_matches_oracle() {
    let honest = Instance::canonical(generators::cycle(6)).with_labeling(
        (0..6)
            .map(|v| Certificate::from_byte((v % 2) as u8))
            .collect(),
    );
    let adversarial = vec![Labeling::uniform(6, Certificate::from_byte(0))];
    let language = KCol::new(2);
    let rates = [0.1, 0.25, 0.5];
    let report = degradation_sweep(&LocalDiff, &language, &honest, &adversarial, &rates, 6, 11);
    let reference =
        oracle::degradation(&LocalDiff, &language, &honest, &adversarial, &rates, 6, 11);
    assert_eq!(report, reference);
    assert!(
        report.points[1].stats.total() > 0,
        "a 25% fault rate must fire some events"
    );
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
/// swap class, the representatives a quotient sweep visits must carry
/// multiplicities summing to exactly 2^5, each be its orbit's flat-index
/// minimum, and tile the space with pairwise-disjoint orbits; and the
/// quotient must reproduce the full walk's soundness verdict and checked
/// count bit-for-bit.
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
        .opts(SweepOpts::quotient())
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
        .opts(SweepOpts::default())
        .run(&check);
    let quot = SweepSession::over(&universe)
        .mode(ExecMode::Sequential)
        .opts(SweepOpts::quotient())
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

/// A quotient sweep's telemetry counters must tile the labeling space:
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
        .opts(SweepOpts::quotient())
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
