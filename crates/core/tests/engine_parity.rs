//! Property-based parity between the verification engine's parallel
//! executor and its sequential fallback.
//!
//! The executor's contract (see `verify::executor` module docs) is that
//! parallel and sequential sweeps are observationally identical: same
//! verdict, same witness (the lowest-indexed violation), same
//! checked-count, same short-circuit flag. This suite hammers that
//! contract with random decoders over random instance universes, and
//! extends it to the resilience layer: lazy sweeps match flat sweeps,
//! interrupted-and-resumed sweeps match uninterrupted ones, and a
//! panicking item becomes the same structured [`SweepError`] under every
//! execution mode. `cache_hits`/`cache_misses`/`memo_*` are deliberately
//! *not* compared — a parallel short-circuiting sweep may inspect items
//! beyond the final witness, so its cache traffic can legitimately differ.
//!
//! The suite also proves the engine's two strategies equivalent: the
//! odometer/delta-evaluation hot path (`SweepStrategy::DeltaStepping`,
//! with its dense per-class tables, copy-block jumps and in-block orbit
//! quotient) against the unmemoized decode-from-index full walk
//! (`SweepStrategy::DecodeOracle`), over exhaustive, symmetric,
//! mixed-source and multi-block universes, including budgeted resume
//! chains and the full structural identity of Lemma 3.1 neighborhood
//! graphs.
//!
//! The parallel thread count defaults to 3 and can be pinned via the
//! `PARITY_THREADS` environment variable (the CI matrix runs 1, 2 and 4).
//!
//! [`SweepError`]: hiding_lcp_core::verify::SweepError

use hiding_lcp_conformance::probes::{LocalDiff, VerdictTally};
use hiding_lcp_core::decoder::Decoder;
use hiding_lcp_core::instance::Instance;
use hiding_lcp_core::label::{Certificate, Labeling};
use hiding_lcp_core::language::KCol;
use hiding_lcp_core::lower::PortObliviousCycleDecoder;
use hiding_lcp_core::nbhd::{NbhdGraph, NbhdSweep};
use hiding_lcp_core::properties::hiding::check_hiding;
use hiding_lcp_core::properties::soundness::{SoundnessCheck, SoundnessViolation};
use hiding_lcp_core::properties::strong::{StrongCheck, StrongViolation};
use hiding_lcp_core::prover::all_labelings;
use hiding_lcp_core::verify::{
    merge_fragments, merge_panel_fragments, Block, Coverage, DynPropertyCheck, ExecMode, ItemCtx,
    LabelSource, LazySweep, MetricsRecorder, PanelFragment, PropertyCheck, PropertyTag, ShardSpec,
    SweepBudget, SweepCounter, SweepOutcome, SweepSession, SweepStrategy, Universe, UniverseItem,
};
use hiding_lcp_core::view::IdMode;
use hiding_lcp_graph::algo::bipartite;
use proptest::prelude::*;

fn bits() -> Vec<Certificate> {
    vec![Certificate::from_byte(0), Certificate::from_byte(1)]
}

/// Thread count for the parallel side of every parity assertion. The CI
/// matrix sets `PARITY_THREADS` to 1, 2 and 4; locally it defaults to 3.
fn parity_threads() -> usize {
    std::env::var("PARITY_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(3)
}

fn cycle_or_path(shape: u8, n: usize) -> Instance {
    if shape.is_multiple_of(2) {
        Instance::canonical(hiding_lcp_graph::generators::cycle(n))
    } else {
        Instance::canonical(hiding_lcp_graph::generators::path(n))
    }
}

/// Runs `check` both ways and asserts the reports agree observationally.
fn assert_parity<C>(check: &C, universe: &Universe) -> Result<(), TestCaseError>
where
    C: PropertyCheck,
    C::Verdict: PartialEq + std::fmt::Debug,
{
    let seq = SweepSession::over(universe)
        .mode(ExecMode::Sequential)
        .run(check);
    let par = SweepSession::over(universe)
        .mode(ExecMode::Parallel(parity_threads()))
        .run(check);
    prop_assert_eq!(&seq.verdict, &par.verdict);
    prop_assert_eq!(seq.checked, par.checked);
    prop_assert_eq!(seq.universe_size, par.universe_size);
    prop_assert_eq!(seq.short_circuited, par.short_circuited);
    Ok(())
}

/// Runs `check` under the decode oracle (sequentially) and under delta
/// stepping (sequentially and in parallel) and asserts the four
/// observational report fields agree across all runs. Counters (`cache_*`,
/// `memo_*`) are exactly what the strategy is allowed to change, so they
/// are not compared.
fn assert_strategy_parity<C>(check: &C, universe: &Universe) -> Result<(), TestCaseError>
where
    C: PropertyCheck,
    C::Verdict: PartialEq + std::fmt::Debug,
{
    let reference = SweepSession::over(universe)
        .mode(ExecMode::Sequential)
        .strategy(SweepStrategy::DecodeOracle)
        .run(check);
    for (mode, strategy) in [
        (ExecMode::Sequential, SweepStrategy::DeltaStepping),
        (
            ExecMode::Parallel(parity_threads()),
            SweepStrategy::DeltaStepping,
        ),
        (
            ExecMode::Parallel(parity_threads()),
            SweepStrategy::DecodeOracle,
        ),
    ] {
        let other = SweepSession::over(universe)
            .mode(mode)
            .strategy(strategy)
            .run(check);
        prop_assert_eq!(&reference.verdict, &other.verdict);
        prop_assert_eq!(reference.checked, other.checked);
        prop_assert_eq!(reference.universe_size, other.universe_size);
        prop_assert_eq!(reference.short_circuited, other.short_circuited);
    }
    Ok(())
}

/// A universe mixing every [`LabelSource`] shape: exhaustive labelings of
/// a cycle (odometer + delta path), a fixed labeling batch of a path
/// (plain-inspect path), and one unlabeled instance.
fn mixed_universe(n: usize) -> Universe {
    let cycle = Instance::canonical(hiding_lcp_graph::generators::cycle(n));
    let path = Instance::canonical(hiding_lcp_graph::generators::path(n));
    let fixed = vec![
        Labeling::uniform(n, Certificate::from_byte(1)),
        Labeling::uniform(n, Certificate::from_byte(0)),
    ];
    let blocks = vec![
        Block::new(cycle, LabelSource::All { alphabet: bits() }),
        Block::new(path.clone(), LabelSource::Fixed(fixed)),
        Block::new(path, LabelSource::Unlabeled),
    ];
    Universe::new(blocks, Coverage::Sampled).expect("small universe fits")
}

/// Structural equality of two neighborhood graphs — `NbhdGraph` has no
/// `PartialEq`, so compare every observable: views (in insertion order),
/// adjacency, self-loops, all witnesses, the witnessing instances and the
/// retained count.
fn assert_nbhd_eq(a: &NbhdGraph, b: &NbhdGraph) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.view_count(), b.view_count());
    prop_assert_eq!(a.views(), b.views());
    prop_assert_eq!(a.edge_count(), b.edge_count());
    prop_assert_eq!(a.self_loop_views(), b.self_loop_views());
    prop_assert_eq!(a.retained_count(), b.retained_count());
    prop_assert_eq!(a.instances(), b.instances());
    for i in 0..a.view_count() {
        prop_assert_eq!(a.view_witness(i), b.view_witness(i));
        let na: Vec<usize> = a.neighbors(i).collect();
        let nb: Vec<usize> = b.neighbors(i).collect();
        prop_assert_eq!(&na, &nb);
        for &j in &na {
            prop_assert_eq!(a.edge_witness(i, j), b.edge_witness(i, j));
        }
        prop_assert_eq!(a.self_loop_witness(i), b.self_loop_witness(i));
    }
    Ok(())
}

/// A universe of whole-cycle blocks (odd cycles included, so the hiding
/// sweep's yes-filter drops some blocks entirely).
fn cycle_blocks_universe(max_n: usize) -> Universe {
    let blocks = (3..=max_n)
        .map(|m| {
            Block::new(
                Instance::canonical(hiding_lcp_graph::generators::cycle(m)),
                LabelSource::All { alphabet: bits() },
            )
        })
        .collect();
    Universe::new(blocks, Coverage::Sampled).expect("small universe fits")
}

/// Wraps a check so that inspecting item `panic_index` panics — the test
/// double for a decoder crashing mid-sweep. Its fold panics only after
/// the wrapped check has folded the item, so the engine must withdraw
/// whatever the item claimed.
struct PanicOn<'a, C> {
    inner: &'a C,
    panic_index: usize,
}

impl<C: PropertyCheck> PropertyCheck for PanicOn<'_, C> {
    type Partial = C::Partial;
    type Verdict = C::Verdict;

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        self.inner.view_configs()
    }

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<Self::Partial> {
        assert!(
            item.index != self.panic_index,
            "rigged panic at {}",
            self.panic_index
        );
        self.inner.inspect(item, ctx)
    }

    fn fold(
        &self,
        item: &UniverseItem<'_>,
        ctx: &ItemCtx<'_>,
        claim: &mut dyn FnMut(u64) -> bool,
    ) -> Option<Self::Partial> {
        let partial = self.inner.fold(item, ctx, claim);
        assert!(
            item.index != self.panic_index,
            "rigged panic at {}",
            self.panic_index
        );
        partial
    }

    fn short_circuits(&self, partial: &Self::Partial) -> bool {
        self.inner.short_circuits(partial)
    }

    fn reduce(
        &self,
        universe: &Universe,
        partials: Vec<(usize, Self::Partial)>,
        outcome: &SweepOutcome,
    ) -> Self::Verdict {
        self.inner.reduce(universe, partials, outcome)
    }
}

/// Swaps in a silent panic hook around `f` so expected panics don't spam
/// the test output.
fn quietly<T>(f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn soundness_sweeps_agree(code in 0u8..64, shape in 0u8..2, n in 3usize..7) {
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let instance = cycle_or_path(shape, n);
        let universe = Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let check = SoundnessCheck { decoder: &decoder };
        assert_parity(&check, &universe)?;
    }

    #[test]
    fn strong_sweeps_agree(code in 0u8..64, shape in 0u8..2, n in 3usize..7) {
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let two_col = KCol::new(2);
        let instance = cycle_or_path(shape, n);
        let universe = Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let check = StrongCheck { decoder: &decoder, language: &two_col };
        assert_parity(&check, &universe)?;
    }

    #[test]
    fn multi_block_sweeps_agree(code in 0u8..64, n in 3usize..6) {
        // Universes spanning several blocks exercise the chunked
        // work-stealing across block boundaries.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let blocks = (3..=n + 1)
            .map(|m| {
                hiding_lcp_core::verify::Block::new(
                    Instance::canonical(hiding_lcp_graph::generators::cycle(m)),
                    hiding_lcp_core::verify::LabelSource::All { alphabet: bits() },
                )
            })
            .collect();
        let universe = Universe::new(blocks, Coverage::Sampled).expect("small universe fits");
        let check = SoundnessCheck { decoder: &decoder };
        assert_parity(&check, &universe)?;
    }

    #[test]
    fn lazy_and_flat_sweeps_agree(code in 0u8..64, shape in 0u8..2, n in 3usize..7) {
        // `LazySweep` over the mixed-radix enumeration must match a
        // session sweep of the flat universe: same verdict, same witness,
        // same checked count, same short-circuit flag.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let instance = cycle_or_path(shape, n);
        let universe = Universe::all_labelings_of(instance.clone(), bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let check = SoundnessCheck { decoder: &decoder };
        let flat = SweepSession::over(&universe)
            .mode(ExecMode::Sequential)
            .run(&check);
        let alphabet = bits();
        let lazy = LazySweep::of(&instance, Coverage::Exhaustive).run(
            &check,
            all_labelings(instance.graph().node_count(), &alphabet),
        );
        prop_assert_eq!(&flat.verdict, &lazy.verdict);
        prop_assert_eq!(flat.checked, lazy.checked);
        prop_assert_eq!(flat.short_circuited, lazy.short_circuited);
        prop_assert_eq!(flat.coverage, lazy.coverage);
    }

    #[test]
    fn resume_token_round_trip_reproduces_uninterrupted_report(
        code in 0u8..64, shape in 0u8..2, n in 3usize..7, step in 1usize..12,
    ) {
        // Chop the sweep into `step`-item budget slices (run in parallel
        // mode), walking each slice on from the fragment the last one
        // stopped at; the merged chain must be indistinguishable from one
        // uninterrupted sequential sweep.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let instance = cycle_or_path(shape, n);
        let universe = Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let check = SoundnessCheck { decoder: &decoder };
        let full = SweepSession::over(&universe)
            .mode(ExecMode::Sequential)
            .run(&check);

        let mode = ExecMode::Parallel(parity_threads());
        let budget = SweepBudget::unlimited().with_max_items(step);
        let session = SweepSession::over(&universe).mode(mode).budget(budget);
        let mut fragment = session.run_fragment(&check, ShardSpec::new(0, 1));
        let mut slices = 1usize;
        while !fragment.is_complete() {
            fragment = session.resume_fragment(&check, fragment);
            slices += 1;
            prop_assert!(slices <= universe.len() + 2, "resume chain must terminate");
        }
        let resumed = merge_fragments(&check, &universe, mode, vec![fragment], None)
            .expect("a finished chain covers the universe");
        prop_assert_eq!(&full.verdict, &resumed.verdict);
        prop_assert_eq!(full.checked, resumed.checked);
        prop_assert_eq!(full.universe_size, resumed.universe_size);
        prop_assert_eq!(full.short_circuited, resumed.short_circuited);
        prop_assert_eq!(full.coverage, resumed.coverage);
        prop_assert!(!resumed.interrupted);
        prop_assert!(resumed.errors.is_empty());
    }

    #[test]
    fn panicking_item_yields_the_same_error_in_every_mode(
        panic_index in 0usize..32, threads in 1usize..5,
    ) {
        // A decoder blowing up mid-sweep must surface as a structured
        // SweepError naming the offending item — identically under
        // sequential and 1..4-thread parallel execution, with the verdict
        // computed from the surviving items agreeing across modes. Code 0
        // rejects every view, so the sweep never short-circuits and every
        // mode is guaranteed to reach the rigged item.
        let decoder = PortObliviousCycleDecoder::from_code(0);
        let instance = Instance::canonical(hiding_lcp_graph::generators::cycle(5));
        let universe = Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let inner = SoundnessCheck { decoder: &decoder };
        let check = PanicOn { inner: &inner, panic_index };

        let (seq, par) = quietly(|| {
            (
                SweepSession::over(&universe)
                    .mode(ExecMode::Sequential)
                    .run(&check),
                SweepSession::over(&universe)
                    .mode(ExecMode::Parallel(threads))
                    .run(&check),
            )
        });
        for report in [&seq, &par] {
            prop_assert_eq!(report.errors.len(), 1);
            prop_assert_eq!(report.errors[0].item_index, panic_index);
            prop_assert!(report.errors[0].payload.contains("rigged panic"));
            // A sweep that lost an item cannot claim exhaustiveness.
            prop_assert_eq!(report.coverage, Coverage::Sampled);
        }
        prop_assert_eq!(&seq.verdict, &par.verdict);
        prop_assert_eq!(seq.checked, par.checked);
        prop_assert_eq!(seq.short_circuited, par.short_circuited);

        // The Lemma 3.1 scan folds the rigged item, claims and all, before
        // it panics: the engine withdraws its claims, so V(D, n) is the
        // graph of the universe without that item, retained count
        // included, under every mode and strategy.
        let c4 = Instance::canonical(hiding_lcp_graph::generators::cycle(4));
        let universe = Universe::all_labelings_of(c4.clone(), bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let panic_index = panic_index % universe.len();
        let rest = (0..universe.len())
            .filter(|&i| i != panic_index)
            .map(|i| universe.labeled_instance(i).labeling().clone())
            .collect();
        let rest = Universe::labelings_of(c4, rest, Coverage::Sampled).expect("small universe fits");
        let without = SweepSession::over(&rest)
            .run(&NbhdSweep::new(&LocalDiff, IdMode::Anonymous, &rest, bipartite::is_bipartite))
            .verdict;
        prop_assert_eq!(without.retained_count(), universe.len() - 1);
        for (mode, strategy) in [
            (ExecMode::Sequential, SweepStrategy::DecodeOracle),
            (ExecMode::Sequential, SweepStrategy::DeltaStepping),
            (ExecMode::Parallel(threads), SweepStrategy::DeltaStepping),
        ] {
            let inner = NbhdSweep::new(&LocalDiff, IdMode::Anonymous, &universe, bipartite::is_bipartite);
            let check = PanicOn { inner: &inner, panic_index };
            let report = quietly(|| {
                SweepSession::over(&universe)
                    .mode(mode)
                    .strategy(strategy)
                    .run(&check)
            });
            prop_assert_eq!(report.errors.len(), 1);
            prop_assert_eq!(report.errors[0].item_index, panic_index);
            assert_nbhd_eq(&report.verdict, &without)?;
        }
    }

    #[test]
    fn delta_and_oracle_strategies_agree(code in 0u8..64, shape in 0u8..2, n in 3usize..7) {
        // The odometer/delta-evaluation hot path must be byte-identical to
        // the decode-from-index oracle — for a short-circuiting check
        // (soundness) and a full-scan one (strong soundness), sequentially
        // and in parallel.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let instance = cycle_or_path(shape, n);
        let universe = Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let check = SoundnessCheck { decoder: &decoder };
        assert_strategy_parity(&check, &universe)?;
        let two_col = KCol::new(2);
        let strong = StrongCheck { decoder: &decoder, language: &two_col };
        assert_strategy_parity(&strong, &universe)?;
    }

    #[test]
    fn mixed_label_sources_agree_across_strategies(code in 0u8..64, n in 3usize..7) {
        // All/Fixed/Unlabeled blocks in one universe: the walker resyncs
        // at block boundaries and the verdict fast path applies only to
        // the All block — every combination must match the oracle.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let universe = mixed_universe(n);
        let check = SoundnessCheck { decoder: &decoder };
        assert_strategy_parity(&check, &universe)?;
    }

    #[test]
    fn memoized_and_unmemoized_sweeps_agree(code in 0u8..64, n in 3usize..7) {
        // The dense per-class tables may only change counters, never
        // verdicts: delta stepping, whose memo tables the blocks of equal
        // skeleton classes share, against the unmemoized decode oracle.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let universe = cycle_blocks_universe(n);
        let check = SoundnessCheck { decoder: &decoder };
        assert_strategy_parity(&check, &universe)?;
        let two_col = KCol::new(2);
        let strong = StrongCheck { decoder: &decoder, language: &two_col };
        assert_strategy_parity(&strong, &universe)?;
    }

    #[test]
    fn nbhd_graph_is_identical_across_strategies_memo_and_threads(
        code in 0u8..64, n in 4usize..7,
    ) {
        // The Lemma 3.1 graph — views in insertion order, adjacency,
        // self-loops, every witness, the retained count — must not depend
        // on the strategy (its dense tables, copy-block jumps and orbit
        // quotient included) or the thread count. The Lemma 3.1 family at
        // n <= 3 has port-isomorphic copy blocks and blocks with
        // non-trivial automorphism groups. The interner is part of the
        // check's state, so each sweep gets a fresh check instance.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let family = Universe::lemma31(3, bits()).expect("the n <= 3 family fits");
        for universe in [cycle_blocks_universe(n), family] {
            let run = |mode: ExecMode, strategy: SweepStrategy| {
                let scan =
                    NbhdSweep::new(&decoder, IdMode::Anonymous, &universe, bipartite::is_bipartite);
                SweepSession::over(&universe)
                    .mode(mode)
                    .strategy(strategy)
                    .run(&scan)
            };
            let reference = run(ExecMode::Sequential, SweepStrategy::DecodeOracle);
            let ref_verdict = check_hiding(&reference.verdict, 2, reference.coverage);
            for mode in [ExecMode::Sequential, ExecMode::Parallel(parity_threads())] {
                let other = run(mode, SweepStrategy::DeltaStepping);
                assert_nbhd_eq(&reference.verdict, &other.verdict)?;
                prop_assert_eq!(&ref_verdict, &check_hiding(&other.verdict, 2, other.coverage));
                prop_assert_eq!(reference.checked, other.checked);
                prop_assert_eq!(reference.universe_size, other.universe_size);
            }
        }
    }

    #[test]
    fn budgeted_delta_resume_chain_matches_oracle(
        code in 0u8..64, shape in 0u8..2, n in 3usize..7, step in 1usize..12,
    ) {
        // A delta-stepping sweep chopped into budget slices and resumed
        // must reproduce the uninterrupted *oracle* sweep — stopped
        // fragments are strategy-agnostic.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let instance = cycle_or_path(shape, n);
        let universe = Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let check = SoundnessCheck { decoder: &decoder };
        let oracle = SweepSession::over(&universe)
            .mode(ExecMode::Sequential)
            .strategy(SweepStrategy::DecodeOracle)
            .run(&check);

        let mode = ExecMode::Parallel(parity_threads());
        let budget = SweepBudget::unlimited().with_max_items(step);
        let session = SweepSession::over(&universe).mode(mode).budget(budget);
        let mut fragment = session.run_fragment(&check, ShardSpec::new(0, 1));
        let mut slices = 1usize;
        while !fragment.is_complete() {
            fragment = session.resume_fragment(&check, fragment);
            slices += 1;
            prop_assert!(slices <= universe.len() + 2, "resume chain must terminate");
        }
        let resumed = merge_fragments(&check, &universe, mode, vec![fragment], None)
            .expect("a finished chain covers the universe");
        prop_assert_eq!(&oracle.verdict, &resumed.verdict);
        prop_assert_eq!(oracle.checked, resumed.checked);
        prop_assert_eq!(oracle.universe_size, resumed.universe_size);
        prop_assert_eq!(oracle.short_circuited, resumed.short_circuited);
        prop_assert_eq!(oracle.coverage, resumed.coverage);
        prop_assert!(!resumed.interrupted);
    }

    #[test]
    fn fused_panel_matches_single_member_sweeps(code in 0u8..64, shape in 0u8..2, n in 3usize..7) {
        // A fused panel is observationally the overlay of its members'
        // own sweeps: per member, parallel matches sequential, and the
        // member-level `checked` equals what that check's single-check
        // sequential sweep reports — a member stopped at item `s` counts
        // `s + 1` no matter how far the shared walk carried the others.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let two_col = KCol::new(2);
        let instance = cycle_or_path(shape, n);
        let universe = Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let soundness = SoundnessCheck { decoder: &decoder };
        let strong = StrongCheck { decoder: &decoder, language: &two_col };
        let members = [
            DynPropertyCheck::new(PropertyTag::Soundness, "soundness", SoundnessCheck {
                decoder: &decoder,
            })
            .with_channel(&decoder),
            DynPropertyCheck::new(PropertyTag::Strong, "strong", StrongCheck {
                decoder: &decoder,
                language: &two_col,
            })
            .with_channel(&decoder),
        ];
        let seq = SweepSession::over(&universe)
            .mode(ExecMode::Sequential)
            .run_panel(&members);
        let par = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(parity_threads()))
            .run_panel(&members);
        prop_assert_eq!(seq.evidence.checked, par.evidence.checked);
        prop_assert_eq!(seq.evidence.short_circuited, par.evidence.short_circuited);
        for (a, b) in seq.members.iter().zip(&par.members) {
            prop_assert_eq!(a.checked, b.checked);
            prop_assert_eq!(a.short_circuited, b.short_circuited);
            prop_assert_eq!(a.verdict.passed, b.verdict.passed);
            prop_assert_eq!(&a.verdict.detail, &b.verdict.detail);
        }

        let solo = SweepSession::over(&universe).mode(ExecMode::Sequential);
        let solo_soundness = solo.run(&soundness);
        let solo_strong = solo.run(&strong);
        prop_assert_eq!(seq.members[0].checked, solo_soundness.checked);
        prop_assert_eq!(seq.members[0].short_circuited, solo_soundness.short_circuited);
        prop_assert_eq!(
            seq.members[0].verdict.get::<Result<usize, SoundnessViolation>>().unwrap(),
            &solo_soundness.verdict
        );
        prop_assert_eq!(seq.members[1].checked, solo_strong.checked);
        prop_assert_eq!(seq.members[1].short_circuited, solo_strong.short_circuited);
        prop_assert_eq!(
            seq.members[1].verdict.get::<Result<usize, StrongViolation>>().unwrap(),
            &solo_strong.verdict
        );
        // The shared walk reaches exactly as far as the laggard member.
        prop_assert_eq!(
            seq.evidence.checked,
            solo_soundness.checked.max(solo_strong.checked)
        );
    }

    #[test]
    fn interrupted_shard_resume_matches_uninterrupted(
        code in 0u8..64, shape in 0u8..2, n in 3usize..6, step in 1usize..9, shards in 2usize..5,
    ) {
        // Shard the universe, run every shard as a budget-sliced resume
        // chain (each slice capped at `step` items), and merge: the panel
        // report must match an uninterrupted single-session run member for
        // member. Interruption points and shard boundaries are both
        // invisible in the merged output.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let two_col = KCol::new(2);
        let instance = cycle_or_path(shape, n);
        let universe = Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let members = [
            DynPropertyCheck::new(PropertyTag::Soundness, "soundness", SoundnessCheck {
                decoder: &decoder,
            })
            .with_channel(&decoder),
            DynPropertyCheck::new(PropertyTag::Strong, "strong", StrongCheck {
                decoder: &decoder,
                language: &two_col,
            })
            .with_channel(&decoder),
        ];
        let full = SweepSession::over(&universe)
            .mode(ExecMode::Sequential)
            .run_panel(&members);

        let budget = SweepBudget::unlimited().with_max_items(step);
        let mut fragments = Vec::new();
        for spec in ShardSpec::partition(shards) {
            let session = SweepSession::over(&universe)
                .mode(ExecMode::Sequential)
                .budget(budget);
            let mut frag = session.run_panel_fragment(&members, spec);
            let mut slices = 1usize;
            while !frag.is_complete() {
                frag = session.resume_panel_fragment(&members, frag);
                slices += 1;
                prop_assert!(slices <= universe.len() + 2, "resume chain must terminate");
            }
            fragments.push(frag);
        }
        let merged =
            merge_panel_fragments(&members, &universe, ExecMode::Sequential, fragments, None)
                .expect("complete shard fragments tile the universe");

        prop_assert_eq!(full.evidence.checked, merged.evidence.checked);
        prop_assert_eq!(full.evidence.short_circuited, merged.evidence.short_circuited);
        for (a, b) in full.members.iter().zip(&merged.members) {
            prop_assert_eq!(a.checked, b.checked);
            prop_assert_eq!(a.short_circuited, b.short_circuited);
            prop_assert_eq!(a.verdict.passed, b.verdict.passed);
            prop_assert_eq!(&a.verdict.detail, &b.verdict.detail);
        }
    }
}

// ---------------------------------------------------------------------------
// Symmetry quotient: delta stepping's orbit enumeration with
// multiplicity-weighted verdicts must be observationally identical to the
// decode oracle's full walk.
// ---------------------------------------------------------------------------

use hiding_lcp_core::verify::SymmetrySpec;

/// A cycle instance under the rotation-symmetric port assignment, where
/// the quotient actually bites (canonical ports leave only the identity).
fn symmetric_cycle(n: usize) -> Instance {
    let g = hiding_lcp_graph::generators::cycle(n);
    let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
    Instance::new(g, ports, hiding_lcp_graph::IdAssignment::canonical(n))
        .expect("symmetric cycle ports are valid")
}

/// Records every inspected item's orbit multiplicity. Declares port
/// automorphisms plus (optionally) a full-alphabet certificate class, so a
/// delta sweep visits exactly one representative per orbit.
struct MultiplicityRecorder {
    classes: Option<Vec<usize>>,
}

impl PropertyCheck for MultiplicityRecorder {
    type Partial = u64;
    type Verdict = Vec<(usize, u64)>;

    fn inspect(&self, _item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<u64> {
        Some(ctx.multiplicity())
    }

    fn symmetry_class(&self, _alphabet: &[Certificate]) -> Option<SymmetrySpec> {
        Some(SymmetrySpec {
            automorphisms: true,
            alphabet_classes: self.classes.clone(),
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

/// All permutations of `0..k`.
fn perms(k: usize) -> Vec<Vec<usize>> {
    fn rec(pool: Vec<usize>) -> Vec<Vec<usize>> {
        if pool.is_empty() {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for (i, &x) in pool.iter().enumerate() {
            let mut rest = pool.clone();
            rest.remove(i);
            for mut tail in rec(rest) {
                tail.insert(0, x);
                out.push(tail);
            }
        }
        out
    }
    rec((0..k).collect())
}

/// A mixed-source universe whose `All` block carries symmetric ports, so
/// the quotient engages on exactly one of the three blocks.
fn mixed_symmetric_universe(n: usize) -> Universe {
    let path = Instance::canonical(hiding_lcp_graph::generators::path(n));
    let fixed = vec![
        Labeling::uniform(n, Certificate::from_byte(1)),
        Labeling::uniform(n, Certificate::from_byte(0)),
    ];
    let blocks = vec![
        Block::new(symmetric_cycle(n), LabelSource::All { alphabet: bits() }),
        Block::new(path.clone(), LabelSource::Fixed(fixed)),
        Block::new(path, LabelSource::Unlabeled),
    ];
    Universe::new(blocks, Coverage::Sampled).expect("small universe fits")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn quotient_orbits_partition_the_universe(n in 3usize..7, k in 2usize..4) {
        // The representatives a delta sweep visits must partition the
        // full labeling space: orbit multiplicities sum to |Sigma|^n, every
        // representative is its orbit's flat-index minimum, and no two
        // representatives share an orbit. The group is recomputed here from
        // first principles (port automorphisms x alphabet permutations).
        let g = hiding_lcp_graph::generators::cycle(n);
        let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
        let auts = hiding_lcp_graph::algo::automorphism::port_automorphisms(&g, &ports, 1 << 12)
            .expect("cycle group is tiny");
        let instance = Instance::new(g, ports, hiding_lcp_graph::IdAssignment::canonical(n))
            .expect("symmetric cycle ports are valid");
        let alphabet: Vec<Certificate> = (0..k as u8).map(Certificate::from_byte).collect();
        let universe = Universe::all_labelings_of(instance, alphabet, Coverage::Exhaustive)
            .expect("small universe fits");
        let check = MultiplicityRecorder { classes: Some(vec![0; k]) };
        let report = SweepSession::over(&universe)
            .mode(ExecMode::Sequential)
            .run(&check);
        prop_assert_eq!(report.checked, universe.len());
        let reps = report.verdict;

        let total: u64 = reps.iter().map(|&(_, m)| m).sum();
        prop_assert_eq!(total, (k as u64).pow(n as u32), "multiplicities sum to |Sigma|^n");
        prop_assert!(reps.len() < universe.len(), "quotient visits strictly fewer items");

        let sigmas = perms(k);
        let digits_of = |mut idx: usize| -> Vec<usize> {
            (0..n).map(|_| { let d = idx % k; idx /= k; d }).collect()
        };
        let index_of = |digits: &[usize]| -> usize {
            digits.iter().rev().fold(0usize, |acc, &d| acc * k + d)
        };
        let mut covered = vec![false; universe.len()];
        for &(rep, mult) in &reps {
            let d = digits_of(rep);
            let mut orbit = std::collections::BTreeSet::new();
            for pi in &auts {
                let mut pinv = vec![0usize; n];
                for (v, &img) in pi.iter().enumerate() {
                    pinv[img] = v;
                }
                for sigma in &sigmas {
                    let image: Vec<usize> = (0..n).map(|v| sigma[d[pinv[v]]]).collect();
                    orbit.insert(index_of(&image));
                }
            }
            prop_assert_eq!(*orbit.iter().next().expect("orbit nonempty"), rep,
                "representative is the orbit minimum");
            prop_assert_eq!(orbit.len() as u64, mult, "multiplicity equals the orbit size");
            for &member in &orbit {
                prop_assert!(!covered[member], "two representatives share an orbit");
                covered[member] = true;
            }
        }
        prop_assert!(covered.iter().all(|&c| c), "orbits cover the universe");
    }

    #[test]
    fn quotient_delta_and_oracle_strategies_agree(code in 0u8..64, n in 3usize..7) {
        // The quotiented delta walk vs the decode oracle on a symmetric
        // cycle, sequential and parallel: same verdict, same witness, same
        // checked count — for a short-circuiting check (soundness) and a
        // full-scan one (strong).
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let universe = Universe::all_labelings_of(symmetric_cycle(n), bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let check = SoundnessCheck { decoder: &decoder };
        assert_strategy_parity(&check, &universe)?;
        let two_col = KCol::new(2);
        let strong = StrongCheck { decoder: &decoder, language: &two_col };
        assert_strategy_parity(&strong, &universe)?;
    }

    #[test]
    fn quotient_on_mixed_label_sources_agrees(code in 0u8..64, n in 3usize..7) {
        // All/Fixed/Unlabeled blocks in one universe: the quotient engages
        // on the All block only; Fixed and Unlabeled items pass through
        // with multiplicity one.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let universe = mixed_symmetric_universe(n);
        let check = SoundnessCheck { decoder: &decoder };
        assert_strategy_parity(&check, &universe)?;
    }

    #[test]
    fn quotient_nbhd_graph_preserves_views_edges_and_loops(code in 0u8..64, n in 4usize..7) {
        // The neighborhood scan declares automorphism symmetry only (no
        // alphabet classes); the quotiented delta walk must reproduce the
        // oracle's graph exactly: the view list (insertion order
        // included), adjacency, self-loops, every witness (each names an
        // orbit minimum, which the quotient walks) and the retained count
        // (the representatives' multiplicities sum to the full walk's).
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let blocks = (3..=n)
            .map(|m| Block::new(symmetric_cycle(m), LabelSource::All { alphabet: bits() }))
            .collect();
        let universe = Universe::new(blocks, Coverage::Sampled).expect("small universe fits");
        let run = |strategy: SweepStrategy| {
            let scan =
                NbhdSweep::new(&decoder, IdMode::Anonymous, &universe, bipartite::is_bipartite);
            SweepSession::over(&universe)
                .mode(ExecMode::Sequential)
                .strategy(strategy)
                .run(&scan)
        };
        let full = run(SweepStrategy::DecodeOracle);
        let quot = run(SweepStrategy::DeltaStepping);
        prop_assert_eq!(
            check_hiding(&full.verdict, 2, full.coverage),
            check_hiding(&quot.verdict, 2, quot.coverage)
        );
        assert_nbhd_eq(&full.verdict, &quot.verdict)?;
        prop_assert_eq!(full.checked, quot.checked);
    }

    #[test]
    fn quotient_panel_matches_delta_panel(code in 0u8..64, n in 3usize..7) {
        // A fused delta panel filters canonicity per member; every member
        // must report exactly what it reports under the decode oracle's
        // full walk, in both execution modes.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let two_col = KCol::new(2);
        let universe = Universe::all_labelings_of(symmetric_cycle(n), bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let members = [
            DynPropertyCheck::new(PropertyTag::Soundness, "soundness", SoundnessCheck {
                decoder: &decoder,
            })
            .with_channel(&decoder),
            DynPropertyCheck::new(PropertyTag::Strong, "strong", StrongCheck {
                decoder: &decoder,
                language: &two_col,
            })
            .with_channel(&decoder),
        ];
        let reference = SweepSession::over(&universe)
            .mode(ExecMode::Sequential)
            .strategy(SweepStrategy::DecodeOracle)
            .run_panel(&members);
        for mode in [ExecMode::Sequential, ExecMode::Parallel(parity_threads())] {
            let quotient = SweepSession::over(&universe)
                .mode(mode)
                .run_panel(&members);
            prop_assert_eq!(reference.evidence.checked, quotient.evidence.checked);
            prop_assert_eq!(
                reference.evidence.short_circuited,
                quotient.evidence.short_circuited
            );
            for (a, b) in reference.members.iter().zip(&quotient.members) {
                prop_assert_eq!(a.checked, b.checked);
                prop_assert_eq!(a.short_circuited, b.short_circuited);
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

// ---------------------------------------------------------------------------
// Per-shard budget semantics: each shard's calls draw on their own
// allowance (documented on `SweepBudget`).
// ---------------------------------------------------------------------------

/// Counts visited items and never short-circuits — the per-shard budget
/// test needs a walk whose length is exactly the budget's allowance.
struct CountItems;

impl PropertyCheck for CountItems {
    type Partial = usize;
    type Verdict = usize;

    fn inspect(&self, _item: &UniverseItem<'_>, _ctx: &ItemCtx<'_>) -> Option<usize> {
        Some(1)
    }

    fn reduce(
        &self,
        _universe: &Universe,
        partials: Vec<(usize, usize)>,
        _outcome: &SweepOutcome,
    ) -> usize {
        partials.len()
    }
}

#[test]
fn budget_max_items_is_per_shard() {
    // With `max_items = m` and `N` shards, one budgeted pass over every
    // shard visits `N * m` items — there is no cross-shard accounting —
    // and a shard's resume chain stays strictly inside `[lo, hi)` until
    // it completes the shard's full span.
    let universe = Universe::all_labelings_of(cycle_or_path(0, 4), bits(), Coverage::Exhaustive)
        .expect("small universe fits");
    let m = 3usize;
    let shards = 2usize;
    let budget = SweepBudget::unlimited().with_max_items(m);
    let mut first_pass_total = 0usize;
    let mut fragments = Vec::new();
    for spec in ShardSpec::partition(shards) {
        let session = SweepSession::over(&universe)
            .mode(ExecMode::Sequential)
            .budget(budget);
        let (lo, hi) = spec.range(universe.len());
        assert!(hi - lo > m, "shard span must exceed the allowance");
        let mut fragment = session.run_fragment(&CountItems, spec);
        // `next` is the walk frontier (an index of the whole universe);
        // the CountItems partials count actual visits.
        let visits = |f: &PanelFragment<usize>| f.members[0].partials.len();
        assert_eq!(visits(&fragment), m, "first slice visits exactly m items");
        assert_eq!(fragment.next, lo + m, "frontier advances by m from lo");
        first_pass_total += visits(&fragment);
        let mut slices = 1usize;
        while !fragment.is_complete() {
            assert!(
                fragment.next > lo && fragment.next < hi,
                "resume frontier stays inside the shard range"
            );
            fragment = session.resume_fragment(&CountItems, fragment);
            slices += 1;
            assert!(slices <= universe.len() + 2, "resume chain must terminate");
        }
        assert_eq!(
            visits(&fragment),
            hi - lo,
            "the drained chain covers the shard span exactly"
        );
        assert_eq!(fragment.next, hi, "the frontier ends at the shard's hi");
        fragments.push(fragment);
    }
    assert_eq!(first_pass_total, shards * m, "allowances are independent");
    let merged = merge_fragments(
        &CountItems,
        &universe,
        ExecMode::Sequential,
        fragments,
        None,
    )
    .expect("the drained shards tile the universe");
    assert_eq!(merged.verdict, universe.len(), "every item visited once");
}

// ---------------------------------------------------------------------------
// Dense-table cap: a skeleton class whose dense table would exceed the
// engine's 2^16-entry cap is not memoized, with the oracle's verdicts and
// every decision counted as a memo miss, and its views are interned
// through the canonical map, with the oracle's neighborhood graph.
// ---------------------------------------------------------------------------

#[test]
fn over_cap_classes_run_unmemoized() {
    // Every radius-1 ball of K4 is the whole graph, so with 17 letters its
    // class would need a 17^4 = 83,521-entry table, over the 2^16 cap.
    let g = hiding_lcp_graph::generators::complete(4);
    let ports = hiding_lcp_graph::ports::complete_symmetric(&g);
    let k4 = Instance::new(g, ports, hiding_lcp_graph::IdAssignment::canonical(4))
        .expect("valid K4 instance");
    let alphabet = (0..17).map(Certificate::from_byte).collect();
    let tally = VerdictTally {
        decoder: &LocalDiff,
    };
    let universe =
        Universe::all_labelings_of(k4, alphabet, Coverage::Exhaustive).expect("17^4 items fit");
    assert_strategy_parity(&tally, &universe).unwrap();
    for mode in [ExecMode::Sequential, ExecMode::Parallel(parity_threads())] {
        let delta = SweepSession::over(&universe).mode(mode).run(&tally);
        let count = |counter| delta.counts.get(counter);
        // A hit would mean the class got a table: the cap no longer
        // excludes 17^4 and this case stopped testing it.
        assert_eq!(
            count(SweepCounter::MemoHits),
            0,
            "{mode:?}: the over-cap class has no table"
        );
        assert_eq!(
            count(SweepCounter::MemoHits) + count(SweepCounter::MemoMisses),
            count(SweepCounter::VerdictDecisions),
            "{mode:?}: every decision consults the memo exactly once"
        );
    }
}

#[test]
fn over_cap_classes_intern_through_the_canonical_map() {
    // The center of K_{1,3} reads all four digits, so with 17 letters its
    // class would need a 17^4 = 83,521-entry view-id table, over the 2^16
    // cap; each leaf's class needs 17^2 and keeps its table. A budget
    // walks the first 4,096 items, the same prefix in every mode. The scan
    // and `LocalDiff` are both anonymous, so the scan interns only the
    // views of accepting nodes: a center's only where its letter differs
    // from all three leaves'.
    let star = Instance::canonical(hiding_lcp_graph::generators::star(3));
    let alphabet = (0..17).map(Certificate::from_byte).collect();
    let universe =
        Universe::all_labelings_of(star, alphabet, Coverage::Exhaustive).expect("17^4 items fit");
    let prefix = 4096;
    let mut accepting_centers = 0;
    let mut leaf_views = std::collections::HashSet::new();
    for i in 0..prefix {
        let labeled = universe.labeled_instance(i);
        let view = |v: usize| labeled.view(v, 1, IdMode::Anonymous);
        accepting_centers += usize::from(LocalDiff.decide(&view(0)).is_accept());
        leaf_views.extend(
            (1..4)
                .map(view)
                .filter(|leaf| LocalDiff.decide(leaf).is_accept()),
        );
    }
    assert!(
        (1..prefix).contains(&accepting_centers),
        "the prefix mixes accepting and rejecting centers"
    );
    for mode in [ExecMode::Sequential, ExecMode::Parallel(2)] {
        let session = |strategy| {
            SweepSession::over(&universe)
                .mode(mode)
                .strategy(strategy)
                .budget(SweepBudget::unlimited().with_max_items(prefix))
        };
        let scan = || NbhdSweep::new(&LocalDiff, IdMode::Anonymous, &universe, |_| true);
        let plain = session(SweepStrategy::DecodeOracle).run(&scan());
        let recorder = MetricsRecorder::new();
        let walked = session(SweepStrategy::DeltaStepping)
            .metrics(&recorder)
            .run(&scan());
        assert_eq!(walked.checked, prefix, "{mode:?}");
        assert_nbhd_eq(&walked.verdict, &plain.verdict).unwrap();
        let misses = recorder
            .snapshot()
            .get("interner_front_misses")
            .expect("interner lookups are counted") as usize;
        // One worker interns each accepting center view through the map
        // and misses each distinct accepting leaf view once; two workers
        // can both miss one leaf entry. Fewer misses would mean the center
        // got a table entry: the cap no longer excludes 17^4 and this case
        // stopped testing it.
        let expected = accepting_centers + leaf_views.len();
        if mode == ExecMode::Sequential {
            assert_eq!(misses, expected, "{mode:?}");
        } else {
            assert!(misses >= expected, "{mode:?}: {misses} < {expected}");
        }
    }
}

// ---------------------------------------------------------------------------
// Shared quotient plans: members whose symmetry declarations differ keep
// their own orbit quotient inside one fused walk, and members that agree
// share one.
// ---------------------------------------------------------------------------

use hiding_lcp_certs::revealing::{self, RevealingDecoder};
use hiding_lcp_conformance::probes::assert_same_witnesses;
use hiding_lcp_core::verify::{AuditPlan, InstanceSet, PanelReport};

/// Symmetric-port cycles C3..=C6 and K4, then the paths P3 and P4, whose
/// canonical ports admit no automorphism, so only the label classes
/// quotient them. Labeled over revealing:2's adversary alphabet they give
/// 27 + 81 + 243 + 729 + 81 + 27 + 81 = 1,269 items.
fn symmetric_port_family() -> Vec<Instance> {
    let mut family: Vec<Instance> = (3..=6).map(symmetric_cycle).collect();
    let k4 = hiding_lcp_graph::generators::complete(4);
    let ports = hiding_lcp_graph::ports::complete_symmetric(&k4);
    family.push(
        Instance::new(k4, ports, hiding_lcp_graph::IdAssignment::canonical(4))
            .expect("symmetric K4 ports are valid"),
    );
    family.extend((3..=4).map(|n| Instance::canonical(hiding_lcp_graph::generators::path(n))));
    family
}

fn symmetric_port_universe() -> Universe {
    let blocks = symmetric_port_family()
        .into_iter()
        .map(|instance| {
            Block::new(
                instance,
                LabelSource::All {
                    alphabet: revealing::adversary_alphabet(2),
                },
            )
        })
        .collect();
    Universe::new(blocks, Coverage::Sampled).expect("1,269 items fit")
}

/// Soundness and strong declare port automorphisms plus revealing:2's
/// label classes, so they share one quotient; the Lemma 3.1 scan declares
/// automorphisms only and gets its own.
fn two_symmetry_members<'a>(
    decoder: &'a RevealingDecoder,
    two_col: &'a KCol,
    universe: &Universe,
) -> [DynPropertyCheck<'a>; 3] {
    [
        DynPropertyCheck::new(
            PropertyTag::Soundness,
            "soundness",
            SoundnessCheck { decoder },
        )
        .with_channel(decoder),
        DynPropertyCheck::new(
            PropertyTag::Strong,
            "strong",
            StrongCheck {
                decoder,
                language: two_col,
            },
        )
        .with_channel(decoder),
        DynPropertyCheck::new(
            PropertyTag::Custom,
            "scan",
            NbhdSweep::new(
                decoder,
                IdMode::Anonymous,
                universe,
                bipartite::is_bipartite,
            ),
        )
        .with_channel(decoder),
    ]
}

/// Asserts each member of `panel` reports what its own one-member walk
/// reports: `checked`, short-circuit, verdict and, for the scan, V(D, n)
/// witness for witness.
fn assert_members_match_solo(
    panel: &PanelReport,
    universe: &Universe,
    decoder: &RevealingDecoder,
    two_col: &KCol,
    context: &str,
) {
    let solo = SweepSession::over(universe).mode(ExecMode::Sequential);
    let soundness = solo.run(&SoundnessCheck { decoder });
    let strong = solo.run(&StrongCheck {
        decoder,
        language: two_col,
    });
    let scan = solo.run(&NbhdSweep::new(
        decoder,
        IdMode::Anonymous,
        universe,
        bipartite::is_bipartite,
    ));
    let members = &panel.members;
    assert_eq!(
        members[0].checked, soundness.checked,
        "{context}: soundness"
    );
    assert_eq!(members[0].short_circuited, soundness.short_circuited);
    assert_eq!(
        members[0]
            .verdict
            .get::<Result<usize, SoundnessViolation>>(),
        Some(&soundness.verdict),
        "{context}: soundness"
    );
    assert_eq!(members[1].checked, strong.checked, "{context}: strong");
    assert_eq!(
        members[1].verdict.get::<Result<usize, StrongViolation>>(),
        Some(&strong.verdict),
        "{context}: strong"
    );
    assert_eq!(members[2].checked, scan.checked, "{context}: scan");
    let fused = members[2]
        .verdict
        .get::<NbhdGraph>()
        .expect("the scan's V(D, n)");
    assert_same_witnesses(context, fused, &scan.verdict);
}

#[test]
fn members_with_different_symmetries_keep_their_own_quotients() {
    let decoder = RevealingDecoder::new(2);
    let two_col = KCol::new(2);
    let universe = symmetric_port_universe();
    assert!(universe.len() > 8 * hiding_lcp_core::verify::PARALLEL_THRESHOLD);
    let session = |strategy, mode| SweepSession::over(&universe).strategy(strategy).mode(mode);
    for strategy in [SweepStrategy::DeltaStepping, SweepStrategy::DecodeOracle] {
        for threads in [1, 2, parity_threads()] {
            let members = two_symmetry_members(&decoder, &two_col, &universe);
            let panel = session(strategy, ExecMode::Parallel(threads)).run_panel(&members);
            let context = format!("{strategy:?} at {threads} threads");
            assert_members_match_solo(&panel, &universe, &decoder, &two_col, &context);
        }
        // Budget-stopped chains of 37 and 250 items start and stop inside
        // blocks; each shard's chain is walked on until complete and the
        // fragments merge into the uninterrupted report.
        for (step, shards) in [(37, 1), (37, 3), (250, 2)] {
            let members = two_symmetry_members(&decoder, &two_col, &universe);
            let chained = session(strategy, ExecMode::Parallel(parity_threads()))
                .budget(SweepBudget::unlimited().with_max_items(step));
            let fragments = ShardSpec::partition(shards)
                .into_iter()
                .map(|spec| {
                    let mut fragment = chained.run_panel_fragment(&members, spec);
                    while !fragment.is_complete() {
                        fragment = chained.resume_panel_fragment(&members, fragment);
                    }
                    fragment
                })
                .collect();
            let merged =
                merge_panel_fragments(&members, &universe, ExecMode::Sequential, fragments, None)
                    .expect("complete chains tile the universe");
            let context = format!("{strategy:?}, {shards} shards of {step}-item slices");
            assert_members_match_solo(&merged, &universe, &decoder, &two_col, &context);
        }
    }
}

#[test]
fn a_shard_replay_across_block_boundaries_matches_the_walk() {
    // Three shards of the 1,269 items end at 423 and 846, inside C6's
    // [351, 1080): the first shard's listed items run through C3, C4 and
    // C5 into C6, so its replay crosses three block boundaries.
    let decoder = RevealingDecoder::new(2);
    for strategy in [SweepStrategy::DeltaStepping, SweepStrategy::DecodeOracle] {
        let plan = || {
            AuditPlan::new(
                &decoder,
                2,
                InstanceSet::Explicit {
                    instances: symmetric_port_family(),
                    coverage: Coverage::Sampled,
                },
                revealing::adversary_alphabet(2),
            )
            .mode(ExecMode::Parallel(parity_threads()))
            .strategy(strategy)
        };
        let single = plan().run().to_stable_json();
        for shards in [2, 3] {
            let reports: Vec<String> = ShardSpec::partition(shards)
                .into_iter()
                .map(|spec| plan().run_shard(spec))
                .collect();
            let merged = plan()
                .run_with_shards(&reports)
                .expect("clean shard reports tile the universe");
            assert_eq!(
                single,
                merged.to_stable_json(),
                "{strategy:?}, {shards} shards"
            );
        }
    }
}
