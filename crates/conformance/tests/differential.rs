//! Differential suites: every property checker against its brute-force
//! oracle, at every execution mode (sequential and `PARITY_THREADS`-way
//! parallel) under both sweep strategies (delta stepping, with its dense
//! tables and symmetry quotient, and the per-item decode oracle).
//!
//! The CI conformance job runs this binary at `PARITY_THREADS` ∈ {1, 2, 4}.

use hiding_lcp_conformance::oracle::{self, ViewGraph};
use hiding_lcp_conformance::parity_threads;
use hiding_lcp_conformance::probes::{self, bits, LocalDiff, StrictDiff, TriangleSpotter, YesMan};
use hiding_lcp_core::decoder::Decoder;
use hiding_lcp_core::instance::{Instance, LabeledInstance};
use hiding_lcp_core::label::{Certificate, Labeling};
use hiding_lcp_core::language::KCol;
use hiding_lcp_core::lower::PortObliviousCycleDecoder;
use hiding_lcp_core::nbhd::{NbhdGraph, NbhdSweep};
use hiding_lcp_core::properties::completeness::check_completeness;
use hiding_lcp_core::properties::erasure::erase_and_run;
use hiding_lcp_core::properties::hiding::check_hiding;
use hiding_lcp_core::properties::invariance::InvarianceCheck;
use hiding_lcp_core::properties::quantified::ExtractabilityMap;
use hiding_lcp_core::properties::soundness::{SoundnessCheck, SoundnessViolation};
use hiding_lcp_core::properties::strong::{StrongCheck, StrongViolation};
use hiding_lcp_core::prover::Prover;
use hiding_lcp_core::verify::{
    merge_fragments, merge_panel_fragments, Coverage, DynPropertyCheck, ExecMode, LazySweep,
    PropertyTag, ShardSpec, SweepBudget, SweepSession, SweepStrategy, Universe, VerificationReport,
};
use hiding_lcp_core::view::IdMode;
use hiding_lcp_graph::algo::bipartite;
use hiding_lcp_graph::{generators, IdAssignment};
use proptest::prelude::*;

/// The execution modes every differential comparison runs under.
fn modes() -> [ExecMode; 2] {
    [ExecMode::Sequential, ExecMode::Parallel(parity_threads())]
}

/// Both sweep strategies.
fn strategies() -> [SweepStrategy; 2] {
    [SweepStrategy::DeltaStepping, SweepStrategy::DecodeOracle]
}

/// Runs `check` over `universe` at every mode × strategy and asserts all
/// verdicts equal `expected`.
fn assert_all_runs_match<C, V>(check: &C, universe: &Universe, expected: &V, what: &str)
where
    C: hiding_lcp_core::verify::PropertyCheck<Verdict = V>,
    V: PartialEq + std::fmt::Debug,
{
    for mode in modes() {
        for strategy in strategies() {
            let report: VerificationReport<V> = SweepSession::over(universe)
                .mode(mode)
                .strategy(strategy)
                .run(check);
            assert!(
                report.errors.is_empty(),
                "{what}: sweep caught panics under {mode:?}"
            );
            assert_eq!(
                &report.verdict, expected,
                "{what}: engine disagrees with the oracle under {mode:?}"
            );
        }
    }
}

fn small_instances() -> Vec<Instance> {
    [
        generators::cycle(3),
        generators::cycle(4),
        generators::cycle(5),
        generators::path(4),
        generators::star(3),
        generators::complete(4),
    ]
    .into_iter()
    .map(Instance::canonical)
    .collect()
}

/// Certifies bipartite graphs with the 2-coloring as one-byte
/// certificates; declines everything else.
struct TwoColorProver;
impl Prover for TwoColorProver {
    fn name(&self) -> String {
        "two-color".into()
    }
    fn certify(&self, instance: &Instance) -> Option<Labeling> {
        let coloring = hiding_lcp_graph::algo::coloring::lex_first_coloring(instance.graph(), 2)?;
        Some(
            coloring
                .iter()
                .map(|&c| Certificate::from_byte(c as u8))
                .collect(),
        )
    }
}

#[test]
fn completeness_matches_oracle() {
    // A mix of certifiable (even cycles, paths) and declined (odd cycles,
    // K4) instances, so both report branches are exercised.
    let instances = small_instances();
    let engine = check_completeness(&LocalDiff, &TwoColorProver, instances.clone());
    let reference = oracle::completeness(&LocalDiff, &TwoColorProver, &instances);
    assert_eq!(engine, reference);
    assert!(engine.passed >= 3, "even cycles and the path certify");
    assert!(!engine.failures.is_empty(), "odd cycles decline");

    // A decoder that rejects some certified node: NodeRejected paths.
    let engine = check_completeness(&StrictDiff, &TwoColorProver, instances.clone());
    assert_eq!(
        engine,
        oracle::completeness(&StrictDiff, &TwoColorProver, &instances)
    );
}

#[test]
fn soundness_matches_oracle() {
    for instance in small_instances() {
        let universe = Universe::all_labelings_of(instance.clone(), bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        for run in 0..3 {
            let (check, expected): (SoundnessCheck<'_, dyn Decoder>, _) = match run {
                0 => (
                    SoundnessCheck {
                        decoder: &LocalDiff,
                    },
                    oracle::soundness(&LocalDiff, &instance, &bits()),
                ),
                1 => (
                    SoundnessCheck { decoder: &YesMan },
                    oracle::soundness(&YesMan, &instance, &bits()),
                ),
                _ => (
                    SoundnessCheck {
                        decoder: &TriangleSpotter,
                    },
                    oracle::soundness(&TriangleSpotter, &instance, &bits()),
                ),
            };
            // The engine short-circuits at the first violation; the oracle
            // scans the same odometer order, so the witnesses agree. When
            // no violation exists both report the exhaustive count.
            let expected = match expected {
                Ok(_) => Ok(universe.len()),
                Err(v) => Err(v),
            };
            assert_all_runs_match(&check, &universe, &expected, "soundness");
        }
    }
}

#[test]
fn strong_matches_oracle() {
    let language = KCol::new(2);
    for instance in small_instances() {
        let universe = Universe::all_labelings_of(instance.clone(), bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        for run in 0..2 {
            let (check, expected): (StrongCheck<'_, dyn Decoder>, _) = match run {
                0 => (
                    StrongCheck {
                        decoder: &LocalDiff,
                        language: &language,
                    },
                    oracle::strong(&LocalDiff, 2, &instance, &bits()),
                ),
                _ => (
                    StrongCheck {
                        decoder: &YesMan,
                        language: &language,
                    },
                    oracle::strong(&YesMan, 2, &instance, &bits()),
                ),
            };
            let expected = match expected {
                Ok(_) => Ok(universe.len()),
                Err(v) => Err(v),
            };
            assert_all_runs_match(&check, &universe, &expected, "strong soundness");
        }
    }
}

/// The labeled items of an exhaustive binary universe, in universe order —
/// the oracle-side mirror of `Universe::all_labelings_of`.
fn exhaustive_labeled(instance: &Instance) -> Vec<LabeledInstance> {
    oracle::all_labelings(instance.graph().node_count(), &bits())
        .into_iter()
        .map(|l| instance.clone().with_labeling(l))
        .collect()
}

#[test]
fn hiding_matches_oracle() {
    for instance in [
        Instance::canonical(generators::cycle(4)),
        Instance::canonical(generators::path(3)),
    ] {
        for run in 0..2 {
            let universe =
                Universe::all_labelings_of(instance.clone(), bits(), Coverage::Exhaustive)
                    .expect("small universe fits");
            let items = exhaustive_labeled(&instance);
            let (decoder, what): (&dyn Decoder, _) = if run == 0 {
                (&LocalDiff, "hiding/local-diff")
            } else {
                (&YesMan, "hiding/yes-man")
            };
            let reference = ViewGraph::build(decoder, &items, bipartite::is_bipartite);
            for mode in modes() {
                for strategy in strategies() {
                    let scan = NbhdSweep::new(
                        decoder,
                        IdMode::Anonymous,
                        &universe,
                        bipartite::is_bipartite,
                    );
                    let report = SweepSession::over(&universe)
                        .mode(mode)
                        .strategy(strategy)
                        .run(&scan);
                    let verdict = check_hiding(&report.verdict, 2, report.coverage);
                    let nbhd = report.verdict;
                    assert_eq!(
                        nbhd.view_count(),
                        reference.views.len(),
                        "{what}: view census"
                    );
                    assert_eq!(
                        nbhd.self_loop_views().len(),
                        reference.self_loops.iter().filter(|&&l| l).count(),
                        "{what}: self-loop census"
                    );
                    assert_eq!(
                        verdict.is_hiding(),
                        reference.hiding(2),
                        "{what}: Lemma 3.2 verdict under {mode:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn quantified_matches_oracle() {
    let instance = Instance::canonical(generators::cycle(4));
    let universe = Universe::all_labelings_of(instance.clone(), bits(), Coverage::Exhaustive)
        .expect("16 labelings fit");
    let items = exhaustive_labeled(&instance);
    let probe_li = instance.clone().with_labeling(
        (0..4)
            .map(|v| Certificate::from_byte((v % 2) as u8))
            .collect(),
    );
    for run in 0..2 {
        let (decoder, what): (&dyn Decoder, _) = if run == 0 {
            (&LocalDiff, "quantified/local-diff")
        } else {
            (&YesMan, "quantified/yes-man")
        };
        let reference = ViewGraph::build(decoder, &items, bipartite::is_bipartite);
        let ref_unext = reference.unextractable(2);
        let ref_fraction = reference.hidden_fraction(decoder.radius(), &probe_li, 2);
        for mode in modes() {
            for strategy in strategies() {
                let scan = NbhdSweep::new(
                    decoder,
                    IdMode::Anonymous,
                    &universe,
                    bipartite::is_bipartite,
                );
                let nbhd = SweepSession::over(&universe)
                    .mode(mode)
                    .strategy(strategy)
                    .run(&scan)
                    .verdict;
                let map = ExtractabilityMap::new(&nbhd, 2);
                assert_eq!(
                    map.unextractable_views(),
                    ref_unext.iter().filter(|&&b| b).count(),
                    "{what}: unextractable census under {mode:?}"
                );
                let fraction = map.hidden_fraction(&nbhd, &probe_li);
                assert!(
                    (fraction - ref_fraction).abs() < 1e-12,
                    "{what}: hidden fraction {fraction} vs oracle {ref_fraction}"
                );
            }
        }
    }
}

#[test]
fn erasure_matches_oracle_on_all_small_targets() {
    let honest = Instance::canonical(generators::cycle(6)).with_labeling(
        (0..6)
            .map(|v| Certificate::from_byte((v % 2) as u8))
            .collect(),
    );
    let mut targets: Vec<Vec<usize>> = vec![vec![]];
    targets.extend((0..6).map(|v| vec![v]));
    targets.extend((0..6).flat_map(|u| (u + 1..6).map(move |v| vec![u, v])));
    for t in &targets {
        for decoder in [&LocalDiff as &dyn Decoder, &StrictDiff] {
            assert_eq!(
                erase_and_run(decoder, &honest, t),
                oracle::erasure(decoder, &honest, t),
                "erasure outcome for targets {t:?}"
            );
        }
    }
}

/// Accepts iff the center's identifier is below 3 — id-sensitive, so
/// remappings produce real invariance violations.
struct SmallId;
impl Decoder for SmallId {
    fn name(&self) -> String {
        "small-id".into()
    }
    fn radius(&self) -> usize {
        0
    }
    fn id_mode(&self) -> hiding_lcp_core::view::IdMode {
        hiding_lcp_core::view::IdMode::Full
    }
    fn decide(&self, view: &hiding_lcp_core::view::View) -> hiding_lcp_core::decoder::Verdict {
        hiding_lcp_core::decoder::Verdict::from(view.center_id().expect("full mode") < 3)
    }
}

#[test]
fn invariance_matches_oracle() {
    let instance = Instance::canonical(generators::path(3));
    let labeling = Labeling::empty(3);
    let bound = instance.ids().bound();
    let variants: Vec<IdAssignment> = [
        vec![2, 1, 3], // permutation
        vec![3, 1, 2], // permutation
        vec![2, 4, 6], // order-preserving remap
        vec![5, 6, 7], // shifts every id past SmallId's threshold
    ]
    .into_iter()
    .map(|ids| IdAssignment::from_ids(ids, bound).expect("ids fit the canonical bound"))
    .collect();
    for run in 0..2 {
        let (decoder, what): (&dyn Decoder, _) = if run == 0 {
            (&LocalDiff, "invariance/anonymous")
        } else {
            (&SmallId, "invariance/id-sensitive")
        };
        let expected = oracle::invariance(decoder, &instance, &labeling, &variants);
        let check = InvarianceCheck::new(decoder, &instance, &labeling);
        let items: Vec<LabeledInstance> = variants
            .iter()
            .map(|ids| {
                LabeledInstance::new(
                    instance.replace_ids(ids.clone()).expect("ids fit"),
                    labeling.clone(),
                )
            })
            .collect();
        let verdict = LazySweep::labeled(Coverage::Sampled)
            .run_labeled(&check, items)
            .verdict;
        assert_eq!(verdict, expected, "{what}");
        if run == 0 {
            assert_eq!(verdict, Ok(()), "anonymous decoders are invariant");
        } else {
            assert!(verdict.is_err(), "the shifted variant flips node 0");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every port-oblivious cycle decoder (all 64 truth tables) is
    /// sound-or-not exactly as the brute force says, on both an even and
    /// an odd cycle, under every mode × strategy.
    #[test]
    fn cycle_decoder_soundness_parity(code in 0u8..64) {
        let decoder = PortObliviousCycleDecoder::from_code(code);
        for n in [4usize, 5] {
            let instance = Instance::canonical(generators::cycle(n));
            let universe = Universe::all_labelings_of(instance.clone(), bits(), Coverage::Exhaustive)
                .expect("small universe fits");
            let expected = match oracle::soundness(&decoder, &instance, &bits()) {
                Ok(_) => Ok(universe.len()),
                Err(v) => Err(v),
            };
            let check = SoundnessCheck { decoder: &decoder };
            for mode in modes() {
                for strategy in strategies() {
                    let report = SweepSession::over(&universe).mode(mode).strategy(strategy).run(&check);
                    prop_assert_eq!(&report.verdict, &expected, "code {} on C{}", code, n);
                }
            }
        }
    }

    /// Random labelings on random-ish small cycles: per-node verdict
    /// vectors from the engine-facing view pipeline equal the
    /// by-definition decode.
    #[test]
    fn per_node_verdicts_match_definition(code in 0u8..64, seed in 0u64..1024) {
        let n = 3 + (seed % 4) as usize;
        let instance = Instance::canonical(generators::cycle(n));
        let labeling: Labeling = (0..n)
            .map(|v| Certificate::from_byte(((seed >> v) & 1) as u8))
            .collect();
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let li = instance.clone().with_labeling(labeling.clone());
        let engine = hiding_lcp_core::decoder::run(&decoder, &li);
        let reference = oracle::run_by_definition(&decoder, &instance, &labeling);
        prop_assert_eq!(engine, reference);
    }
}

// ---------------------------------------------------------------------------
// Recorder-attached differentials: the telemetry layer rides every
// mode × strategy run without changing a verdict, and the counters it
// collects obey the engine's structural invariants.
// ---------------------------------------------------------------------------

use hiding_lcp_core::verify::{
    ItemCtx, MetricsRecorder, PropertyCheck, SweepOutcome, SymmetrySpec, UniverseItem,
};

/// Asserts the walk/orbit/memo accounting of one recorded run. Holds for
/// both strategies: the oracle inspects with multiplicity one, a
/// *complete* delta walk re-weights to exactly the universe size, and
/// every delta-channel decision consults the dense verdict memo exactly
/// once.
fn assert_counter_invariants(
    recorder: &MetricsRecorder,
    universe: &Universe,
    strategy: SweepStrategy,
    short_circuited: bool,
    members: usize,
    what: &str,
) {
    let snap = recorder.snapshot();
    let get = |name: &str| snap.get(name).unwrap_or(0);
    assert_eq!(
        get("items_inspected") + get("items_orbit_skipped"),
        get("items_walked"),
        "{what}: inspected + skipped tile the walk"
    );
    if strategy == SweepStrategy::DeltaStepping && !short_circuited {
        assert_eq!(
            get("items_walked"),
            (universe.len() * members) as u64,
            "{what}: complete walk covers the space once per member"
        );
        assert_eq!(
            get("orbit_multiplicity"),
            (universe.len() * members) as u64,
            "{what}: orbit multiplicities re-weight to |Sigma|^n per member"
        );
    } else if strategy == SweepStrategy::DecodeOracle {
        assert_eq!(
            get("orbit_multiplicity"),
            get("items_inspected"),
            "{what}: oracle items carry multiplicity one"
        );
    }
    assert_eq!(
        get("memo_hits") + get("memo_misses"),
        get("verdict_decisions"),
        "{what}: every decision consults the memo exactly once"
    );
    // Verdict channels belong to the delta path: the decode oracle never
    // touches them, and orbit-skipped items never reach them.
    if strategy == SweepStrategy::DecodeOracle {
        assert_eq!(
            get("verdict_refreshes") + get("verdict_readbacks"),
            0,
            "{what}: the oracle path has no channel traffic"
        );
    } else {
        assert_eq!(
            get("verdict_refreshes") + get("verdict_readbacks"),
            get("items_inspected"),
            "{what}: every inspected member-evaluation refreshes or reads back"
        );
    }
}

/// Re-runs the soundness and strong differentials with a recorder
/// attached: same oracle verdicts at every mode × strategy, plus the
/// counter invariants on each run.
#[test]
fn recorded_soundness_and_strong_match_oracle_with_invariants() {
    let language = KCol::new(2);
    for instance in small_instances() {
        let universe = Universe::all_labelings_of(instance.clone(), bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let sound_expected = match oracle::soundness(&LocalDiff, &instance, &bits()) {
            Ok(_) => Ok(universe.len()),
            Err(v) => Err(v),
        };
        let strong_expected = match oracle::strong(&YesMan, 2, &instance, &bits()) {
            Ok(_) => Ok(universe.len()),
            Err(v) => Err(v),
        };
        for mode in modes() {
            for strategy in strategies() {
                let recorder = MetricsRecorder::new();
                let check = SoundnessCheck {
                    decoder: &LocalDiff,
                };
                let report = SweepSession::over(&universe)
                    .mode(mode)
                    .strategy(strategy)
                    .metrics(&recorder)
                    .run(&check);
                assert_eq!(report.verdict, sound_expected, "recorded soundness");
                assert_counter_invariants(
                    &recorder,
                    &universe,
                    strategy,
                    report.short_circuited,
                    1,
                    "recorded soundness",
                );

                let recorder = MetricsRecorder::new();
                let check = StrongCheck {
                    decoder: &YesMan,
                    language: &language,
                };
                let report = SweepSession::over(&universe)
                    .mode(mode)
                    .strategy(strategy)
                    .metrics(&recorder)
                    .run(&check);
                assert_eq!(report.verdict, strong_expected, "recorded strong");
                assert_counter_invariants(
                    &recorder,
                    &universe,
                    strategy,
                    report.short_circuited,
                    1,
                    "recorded strong",
                );
            }
        }
    }
}

/// A probe declaring full symmetry (port automorphisms plus one
/// interchangeable certificate class), so the quotient really engages.
struct OrbitProbe {
    k: usize,
}

impl PropertyCheck for OrbitProbe {
    type Partial = u64;
    type Verdict = u64;

    fn inspect(&self, _item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<u64> {
        Some(ctx.multiplicity())
    }

    fn symmetry_class(&self, _alphabet: &[Certificate]) -> Option<SymmetrySpec> {
        Some(SymmetrySpec {
            automorphisms: true,
            alphabet_classes: Some(vec![0; self.k]),
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

/// The recorded delta walk over a rotation-symmetric cycle pins the
/// partition exactly: `items_walked == |Sigma|^n`, the skipped items are
/// the non-canonical representatives, and the surviving orbits re-weight
/// to the full space — at both execution modes.
#[test]
fn recorded_quotient_walk_partitions_the_labeling_space() {
    for n in 4usize..=6 {
        let g = generators::cycle(n);
        let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
        let instance = Instance::new(g, ports, IdAssignment::canonical(n))
            .expect("symmetric cycle ports are valid");
        let universe = Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let check = OrbitProbe { k: 2 };
        for mode in modes() {
            let recorder = MetricsRecorder::new();
            let report = SweepSession::over(&universe)
                .mode(mode)
                .metrics(&recorder)
                .run(&check);
            let snap = recorder.snapshot();
            let get = |name: &str| snap.get(name).unwrap_or(0);
            assert_eq!(get("items_walked"), 1 << n, "C{n}: walk covers |Sigma|^n");
            assert!(get("items_orbit_skipped") > 0, "C{n}: the quotient engaged");
            assert_eq!(
                get("items_inspected") + get("items_orbit_skipped"),
                get("items_walked"),
                "C{n}: partition tiles"
            );
            assert_eq!(
                get("orbit_multiplicity"),
                1 << n,
                "C{n}: multiplicities re-weight to the space"
            );
            assert_eq!(get("quotient_blocks"), 1, "C{n}: one active block");
            assert_eq!(report.verdict, 1 << n, "C{n}: reduction agrees");
        }
    }
}

/// The two-channel panel differential with a recorder attached: member
/// verdicts still match the plain panel, and the channel accounting
/// (memo, refresh/readback) holds member-summed.
#[test]
fn recorded_panel_matches_plain_panel_with_invariants() {
    let d1 = PortObliviousCycleDecoder::from_code(0);
    let d2 = PortObliviousCycleDecoder::from_code(63);
    let two_col = KCol::new(2);
    let universe = panel_universe();
    let members = two_channel_panel(&d1, &d2, &two_col);
    for mode in modes() {
        for strategy in strategies() {
            let plain = SweepSession::over(&universe)
                .mode(mode)
                .strategy(strategy)
                .run_panel(&members);
            let recorder = MetricsRecorder::new();
            let recorded = SweepSession::over(&universe)
                .mode(mode)
                .strategy(strategy)
                .metrics(&recorder)
                .run_panel(&members);
            for (a, b) in plain.members.iter().zip(&recorded.members) {
                assert_eq!(a.checked, b.checked, "{}", a.verdict.label);
                assert_eq!(a.short_circuited, b.short_circuited, "{}", a.verdict.label);
                assert_eq!(a.verdict.passed, b.verdict.passed, "{}", a.verdict.label);
                assert_eq!(a.verdict.detail, b.verdict.detail, "{}", a.verdict.label);
            }
            // The complete-walk pin only applies when every member rode
            // the walk to the end.
            let any_stopped = recorded.members.iter().any(|m| m.short_circuited);
            assert_counter_invariants(
                &recorder,
                &universe,
                strategy,
                any_stopped,
                members.len(),
                "recorded panel",
            );
        }
    }
}

/// Builds the standard two-channel panel: soundness and strong share
/// `d1`'s verdict channel, a second soundness member rides `d2`'s. Both
/// decoders are non-ZST (`PortObliviousCycleDecoder` stores its code), so
/// the two channel keys are genuinely distinct addresses.
fn two_channel_panel<'a>(
    d1: &'a PortObliviousCycleDecoder,
    d2: &'a PortObliviousCycleDecoder,
    two_col: &'a KCol,
) -> Vec<DynPropertyCheck<'a>> {
    vec![
        DynPropertyCheck::new(
            PropertyTag::Soundness,
            "soundness-d1",
            SoundnessCheck { decoder: d1 },
        )
        .with_channel(d1),
        DynPropertyCheck::new(
            PropertyTag::Strong,
            "strong-d1",
            StrongCheck {
                decoder: d1,
                language: two_col,
            },
        )
        .with_channel(d1),
        DynPropertyCheck::new(
            PropertyTag::Soundness,
            "soundness-d2",
            SoundnessCheck { decoder: d2 },
        )
        .with_channel(d2),
    ]
}

fn panel_universe() -> Universe {
    let blocks = [
        generators::cycle(4),
        generators::cycle(5),
        generators::path(4),
    ]
    .into_iter()
    .map(|g| {
        hiding_lcp_core::verify::Block::new(
            Instance::canonical(g),
            hiding_lcp_core::verify::LabelSource::All { alphabet: bits() },
        )
    })
    .collect();
    Universe::new(blocks, Coverage::Exhaustive).expect("small universe fits")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fused panel is the overlay of its members' own sweeps, at
    /// every execution mode under both sweep strategies: identical
    /// verdicts, member-level checked counts, short-circuit flags and
    /// coverage — including across two distinct verdict channels.
    #[test]
    fn panel_members_match_individual_sweeps(c1 in 0u8..64, c2 in 0u8..64) {
        let d1 = PortObliviousCycleDecoder::from_code(c1);
        let d2 = PortObliviousCycleDecoder::from_code(c2);
        let two_col = KCol::new(2);
        let universe = panel_universe();
        let members = two_channel_panel(&d1, &d2, &two_col);
        let sound1 = SoundnessCheck { decoder: &d1 };
        let strong1 = StrongCheck { decoder: &d1, language: &two_col };
        let sound2 = SoundnessCheck { decoder: &d2 };
        for mode in modes() {
            for strategy in strategies() {
                let panel = SweepSession::over(&universe)
                    .mode(mode)
                    .strategy(strategy)
                    .run_panel(&members);
                let solo = SweepSession::over(&universe)
                    .mode(ExecMode::Sequential)
                    .strategy(strategy);
                let solo_sound1 = solo.run(&sound1);
                let solo_strong1 = solo.run(&strong1);
                let solo_sound2 = solo.run(&sound2);
                prop_assert_eq!(
                    panel.members[0].verdict.get::<Result<usize, SoundnessViolation>>().unwrap(),
                    &solo_sound1.verdict,
                    "soundness-d1 under {:?}", mode
                );
                prop_assert_eq!(
                    panel.members[1].verdict.get::<Result<usize, StrongViolation>>().unwrap(),
                    &solo_strong1.verdict,
                    "strong-d1 under {:?}", mode
                );
                prop_assert_eq!(
                    panel.members[2].verdict.get::<Result<usize, SoundnessViolation>>().unwrap(),
                    &solo_sound2.verdict,
                    "soundness-d2 under {:?}", mode
                );
                for (member, solo_checked, solo_sc, solo_cov) in [
                    (&panel.members[0], solo_sound1.checked, solo_sound1.short_circuited, solo_sound1.coverage),
                    (&panel.members[1], solo_strong1.checked, solo_strong1.short_circuited, solo_strong1.coverage),
                    (&panel.members[2], solo_sound2.checked, solo_sound2.short_circuited, solo_sound2.coverage),
                ] {
                    prop_assert_eq!(member.checked, solo_checked, "{} under {:?}", member.verdict.label, mode);
                    prop_assert_eq!(member.short_circuited, solo_sc, "{} under {:?}", member.verdict.label, mode);
                    prop_assert_eq!(member.coverage, solo_cov, "{} under {:?}", member.verdict.label, mode);
                    prop_assert!(member.errors.is_empty(), "{} erred under {:?}", member.verdict.label, mode);
                }
            }
        }
    }

    /// A budget-sliced panel fragment chain, resumed to completion and
    /// merged, reproduces the uninterrupted panel bit-for-bit — per member
    /// and per channel — in every mode, under both strategies.
    #[test]
    fn budgeted_panel_resume_round_trip(c1 in 0u8..64, c2 in 0u8..64, step in 1usize..17) {
        let d1 = PortObliviousCycleDecoder::from_code(c1);
        let d2 = PortObliviousCycleDecoder::from_code(c2);
        let two_col = KCol::new(2);
        let universe = panel_universe();
        let members = two_channel_panel(&d1, &d2, &two_col);
        for mode in modes() {
            for strategy in strategies() {
                let whole = SweepSession::over(&universe)
                    .mode(mode)
                    .strategy(strategy)
                    .run_panel(&members);
                let budget = SweepBudget::unlimited().with_max_items(step);
                let session = SweepSession::over(&universe)
                    .mode(mode)
                    .budget(budget)
                    .strategy(strategy);
                let mut fragment = session.run_panel_fragment(&members, ShardSpec::new(0, 1));
                let mut slices = 1usize;
                while !fragment.is_complete() {
                    fragment = session.resume_panel_fragment(&members, fragment);
                    slices += 1;
                    prop_assert!(slices <= universe.len() + 2, "resume chain must terminate");
                }
                let resumed =
                    merge_panel_fragments(&members, &universe, mode, vec![fragment], None)
                        .expect("a finished chain covers the universe");
                prop_assert_eq!(whole.evidence.checked, resumed.evidence.checked);
                prop_assert_eq!(whole.evidence.short_circuited, resumed.evidence.short_circuited);
                prop_assert!(!resumed.evidence.interrupted);
                for (a, b) in whole.members.iter().zip(&resumed.members) {
                    prop_assert_eq!(a.checked, b.checked, "{} under {:?}", &a.verdict.label, mode);
                    prop_assert_eq!(a.short_circuited, b.short_circuited);
                    prop_assert_eq!(a.coverage, b.coverage);
                    prop_assert!(!b.interrupted);
                    prop_assert_eq!(a.verdict.passed, b.verdict.passed);
                    prop_assert_eq!(
                        a.verdict.get::<Result<usize, SoundnessViolation>>(),
                        b.verdict.get::<Result<usize, SoundnessViolation>>()
                    );
                    prop_assert_eq!(
                        a.verdict.get::<Result<usize, StrongViolation>>(),
                        b.verdict.get::<Result<usize, StrongViolation>>()
                    );
                }
            }
        }
    }
}

/// One Lemma 3.1 family the scan's fold is pinned on: decoder, alphabet,
/// size bound, and the counts a walk that kept every partial measured:
/// views, edges, self-loops, witnessing instances and retained labeled
/// yes-instances of `V(D, n)`.
type FoldCase = (Box<dyn Decoder>, Vec<Certificate>, usize, [usize; 5]);

/// Every [`FoldCase`].
fn fold_cases() -> [FoldCase; 4] {
    use hiding_lcp_certs::{degree_one, even_cycle, revealing};
    [
        (
            Box::new(degree_one::DegreeOneDecoder),
            degree_one::adversary_alphabet(),
            4,
            [74, 164, 0, 137, 16_530],
        ),
        (
            Box::new(revealing::RevealingDecoder::new(2)),
            revealing::adversary_alphabet(2),
            4,
            [18, 29, 0, 20, 2_172],
        ),
        (
            Box::new(revealing::RevealingDecoder::new(3)),
            revealing::adversary_alphabet(3),
            4,
            [93, 309, 0, 176, 6_804],
        ),
        (
            Box::new(even_cycle::EvenCycleDecoder),
            even_cycle::adversary_alphabet(),
            3,
            [32, 0, 0, 32, 10_132],
        ),
    ]
}

/// The scan interns only accepting views when its id mode is as fine as
/// the decoder's (both anonymous here), so its interner holds exactly the
/// views of `V(D, n)`.
#[test]
fn the_scan_interns_only_accepting_views() {
    for (decoder, alphabet, max_n, [views, ..]) in fold_cases() {
        let universe = Universe::lemma31(max_n, alphabet).expect("the family fits");
        let scan = NbhdSweep::new(
            &*decoder,
            IdMode::Anonymous,
            &universe,
            bipartite::is_bipartite,
        );
        let report = SweepSession::over(&universe).run(&scan);
        assert_eq!(report.verdict.view_count(), views, "{}", decoder.name());
        assert_eq!(scan.interned_views(), views, "{}", decoder.name());
    }
}

/// However the walk is cut, `V(D, n)` equals a one-worker decode-oracle
/// walk's, witness for witness, and the pinned counts: both strategies at
/// one and at 2, 3 and 4 threads, budget-stopped fragment chains whose
/// first slices walk 1, 7 and 1,000 items, and merges of 2 and 3 shards.
#[test]
fn the_folded_scan_matches_a_one_worker_oracle_walk() {
    for (decoder, alphabet, max_n, pinned) in fold_cases() {
        let name = decoder.name();
        let universe = Universe::lemma31(max_n, alphabet).expect("the family fits");
        let scan = || {
            NbhdSweep::new(
                &*decoder,
                IdMode::Anonymous,
                &universe,
                bipartite::is_bipartite,
            )
        };
        let reference = SweepSession::over(&universe)
            .mode(ExecMode::Sequential)
            .strategy(SweepStrategy::DecodeOracle)
            .run(&scan())
            .verdict;
        let counts = [
            reference.view_count(),
            reference.edge_count(),
            reference.self_loop_views().len(),
            reference.instances().len(),
            reference.retained_count(),
        ];
        assert_eq!(counts, pinned, "{name}");
        for strategy in strategies() {
            let session = SweepSession::over(&universe).strategy(strategy);
            let same = |what: String, nbhd: &NbhdGraph| {
                probes::assert_same_witnesses(
                    &format!("{name}, {strategy:?}, {what}"),
                    &reference,
                    nbhd,
                )
            };
            for threads in 1..=4 {
                let mode = match threads {
                    1 => ExecMode::Sequential,
                    t => ExecMode::Parallel(t),
                };
                same(
                    format!("{mode:?}"),
                    &session.mode(mode).run(&scan()).verdict,
                );
            }
            let session = session.mode(ExecMode::Parallel(2));
            for step in [1, 7, 1_000] {
                let check = scan();
                let sliced = session.budget(SweepBudget::unlimited().with_max_items(step));
                let mut fragment = sliced.run_fragment(&check, ShardSpec::new(0, 1));
                for _ in 0..2 {
                    fragment = sliced.resume_fragment(&check, fragment);
                }
                assert!(!fragment.is_complete(), "{name}: three slices of {step}");
                let fragment = session.resume_fragment(&check, fragment);
                let merged = merge_fragments(
                    &check,
                    &universe,
                    ExecMode::Sequential,
                    vec![fragment],
                    None,
                )
                .expect("a finished chain covers the universe");
                same(format!("slices of {step}"), &merged.verdict);
            }
            for shards in [2, 3] {
                let check = scan();
                let fragments = ShardSpec::partition(shards)
                    .into_iter()
                    .map(|spec| session.run_fragment(&check, spec))
                    .collect();
                let merged =
                    merge_fragments(&check, &universe, ExecMode::Sequential, fragments, None)
                        .expect("complete shards tile the universe");
                same(format!("{shards} shards"), &merged.verdict);
            }
        }
    }
}

/// A panel neighbor that asks for one anonymous view configuration and
/// records nothing: beside the scan it adds skeleton classes, which
/// renumbers the walk's classes.
struct AsksFor(usize);

impl PropertyCheck for AsksFor {
    type Partial = ();
    type Verdict = ();

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        vec![(self.0, IdMode::Anonymous)]
    }

    fn inspect(&self, _item: &UniverseItem<'_>, _ctx: &ItemCtx<'_>) -> Option<()> {
        None
    }

    // It records nothing, so every symmetry holds, and the walk jumps the
    // same copy blocks as the scan's solo walk.
    fn symmetry_class(&self, _alphabet: &[Certificate]) -> Option<SymmetrySpec> {
        Some(SymmetrySpec {
            automorphisms: true,
            alphabet_classes: None,
        })
    }

    fn reduce(&self, _universe: &Universe, _partials: Vec<(usize, ())>, _outcome: &SweepOutcome) {}
}

/// One scan walked solo, then as a panel member beside a check that asks
/// for radius-0 views and beside one that asks for radius-2 views, then
/// through a budget chain whose first slices walk 1,000 items, builds a
/// fresh scan's `V(D, n)`, witness for witness, every time: the view-id
/// tables belong to each walk and are keyed by its classes, and only the
/// scan's canonical map outlives a walk.
#[test]
fn one_scan_keeps_its_views_across_walks_of_different_panels() {
    use hiding_lcp_certs::{degree_one, revealing};
    let cases: [(Box<dyn Decoder>, Vec<Certificate>, usize); 3] = [
        (
            Box::new(degree_one::DegreeOneDecoder),
            degree_one::adversary_alphabet(),
            4,
        ),
        (
            Box::new(revealing::RevealingDecoder::new(2)),
            revealing::adversary_alphabet(2),
            4,
        ),
        (
            Box::new(revealing::RevealingDecoder::new(3)),
            revealing::adversary_alphabet(3),
            3,
        ),
    ];
    for (decoder, alphabet, max_n) in cases {
        let name = format!("{} at n <= {max_n}", decoder.name());
        let universe = Universe::lemma31(max_n, alphabet).expect("the family fits");
        let scan = || {
            NbhdSweep::new(
                &*decoder,
                IdMode::Anonymous,
                &universe,
                bipartite::is_bipartite,
            )
        };
        let session = SweepSession::over(&universe).mode(ExecMode::Parallel(parity_threads()));
        let fresh = session.run(&scan()).verdict;
        let same = |what: &str, nbhd: &NbhdGraph| {
            probes::assert_same_witnesses(&format!("{name}, {what}"), &fresh, nbhd)
        };
        let check = scan();
        same("solo", &session.run(&check).verdict);
        for radius in [0, 2] {
            let members = [
                DynPropertyCheck::new(PropertyTag::Hiding, "scan", &check),
                DynPropertyCheck::new(PropertyTag::Custom, "neighbor", AsksFor(radius)),
            ];
            let report = session.run_panel(&members);
            let nbhd = report.members[0]
                .verdict
                .get::<NbhdGraph>()
                .expect("the scan's verdict");
            same(&format!("beside a radius-{radius} member"), nbhd);
        }
        let sliced = session.budget(SweepBudget::unlimited().with_max_items(1_000));
        let mut fragment = sliced.run_fragment(&check, ShardSpec::new(0, 1));
        for _ in 0..2 {
            fragment = sliced.resume_fragment(&check, fragment);
        }
        let fragment = session.resume_fragment(&check, fragment);
        let merged = merge_fragments(
            &check,
            &universe,
            ExecMode::Sequential,
            vec![fragment],
            None,
        )
        .expect("a finished chain covers the universe");
        same("a budget chain", &merged.verdict);
    }
}
