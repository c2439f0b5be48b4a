//! The unified verification engine: one universe sweep behind every
//! property checker.
//!
//! Every certification property this crate checks — completeness,
//! soundness, strong soundness, hiding, erasure robustness, invariance,
//! quantified extractability — is ultimately a statement quantified over
//! labeled instances: *for all / exists (instance, labeling) such that the
//! decoder's node verdicts …*. This module factors that shared shape out of
//! the individual checkers:
//!
//! * [`Universe`] describes the quantification domain as a deterministic,
//!   chunkable stream of labeled instances, carrying its own [`Coverage`]
//!   (exhaustive vs sampled) so downstream verdicts can tell universal
//!   conclusions from mere refutations;
//! * [`PropertyCheck`] is the property: a per-item [`PropertyCheck::inspect`]
//!   plus a [`PropertyCheck::reduce`] fold, with optional short-circuiting;
//! * [`SweepSession`] is the single construction site for every run: one
//!   builder carrying execution mode, [`SweepStrategy`], budget and
//!   telemetry recorder, fired with
//!   [`run`](SweepSession::run) / [`run_panel`](SweepSession::run_panel)
//!   and the fragment walks — on one worker or several, with
//!   bit-identical verdicts, witnesses and counts at every thread count,
//!   and a shared
//!   [`crate::view::ViewSkeleton`] cache so each node's view is
//!   canonicalized once per block instead of once per labeling
//!   ([`LazySweep`] is the streaming counterpart for iterator sources);
//! * one engine walks the odometer for every entry point: a typed sweep
//!   is the engine over its one check, a fused panel the engine over
//!   type-erased [`DynPropertyCheck`] members, and both share one body
//!   (a whole-universe run is the fragment `[0, n)` walked and then
//!   reduced), one chunk-claiming walk for every thread count and both
//!   strategies, one per-item step, one reduce and one shard merge;
//! * every sweep returns a [`VerificationReport`]: the verdict plus how
//!   many instances were checked, the walk's counts
//!   ([`telemetry::WalkCounts`]), wall-clock time and thread count;
//! * execution is resilient ([`budget`]): a panicking check surfaces as a
//!   structured [`SweepError`] naming the item instead of poisoning the
//!   sweep, and a [`SweepBudget`] bounds a call by wall-clock deadline
//!   and/or item count (degrading the report to an explicit
//!   [`Coverage::Sampled`] partial verdict);
//! * work shards across processes ([`shard`]): a fragment walk
//!   ([`SweepSession::run_fragment`] /
//!   [`run_panel_fragment`](SweepSession::run_panel_fragment)) covers one
//!   [`ShardSpec`]'s contiguous range of the index space and returns a
//!   [`PanelFragment`], the un-reduced walk state and the engine's only
//!   stopped-walk type: a walk the budget stopped has `next < hi`, and
//!   [`SweepSession::resume_fragment`] walks on from there;
//!   [`merge_fragments`] / [`merge_panel_fragments`] recombine complete
//!   fragments into the exact single-process report, with [`run_shards`]
//!   owning concurrent dispatch and retry;
//! * the hot path is allocation-free: within a chunk, labelings are
//!   enumerated by *odometer stepping* (one digit of the mixed-radix
//!   counter per item, into reused per-thread scratch) rather than per-item
//!   div/mod decoding, and checks exposing a
//!   [`PropertyCheck::verdict_decoder`] get *delta-evaluated* verdicts:
//!   only nodes whose radius-r ball contains the changed digit are
//!   re-decided, with a dense per-class verdict memo short-cutting
//!   repeated local configurations, and symmetry shrinks the walk by what
//!   each check declares: port-isomorphic copy blocks are jumped and a
//!   check with a [`SymmetrySpec`] inspects one item per orbit. The
//!   decode-from-index oracle survives as [`SweepStrategy::DecodeOracle`],
//!   the unmemoized full walk, and the `engine_parity` suite proves the
//!   two paths observationally identical.
//!
//! The concrete properties live where they always did (in
//! [`crate::properties`] and [`crate::nbhd`]); what moved here is the
//! *iteration* — there is no hand-rolled "for each labeling" loop left
//! outside this engine.

pub mod budget;
mod check;
mod erased;
mod executor;
pub mod interner;
mod panel;
pub mod plan;
mod session;
pub mod shard;
mod symmetry;
pub mod telemetry;
pub mod universe;

pub use budget::{MemberFrontier, SweepBudget, SweepError};
pub use check::{ExecEvidence, PropertyCheck, SweepOutcome, VerificationReport};
pub use erased::{DynPropertyCheck, ErasedPartial, ErasedVerdict, PanelVerdict, PropertyTag};
pub use executor::{ExecMode, ItemCtx, SweepStrategy, PARALLEL_THRESHOLD};
pub use interner::{ViewId, ViewInterner};
pub use panel::{PanelFragment, PanelReport};
pub use plan::{
    AuditMemberReport, AuditPanelReport, AuditPlan, AuditReport, BlockGated, InstanceSet,
    PanelTelemetry, ALL_PROPERTIES,
};
pub use session::{LazySweep, SweepSession};
pub use shard::{
    merge_fragments, merge_panel_fragments, run_shards, sum_stable_counters, ShardAttempt,
    ShardRunReport, ShardSpec,
};
pub use symmetry::SymmetrySpec;
pub use telemetry::{MetricsRecorder, MetricsSnapshot, SweepCounter, SweepPhase, SweepRecorder};
pub use universe::{
    Block, Coverage, LabelSource, OwnedItem, Universe, UniverseItem, UniverseOverflow,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::label::Certificate;
    use crate::view::IdMode;
    use hiding_lcp_graph::generators;

    fn bits() -> Vec<Certificate> {
        vec![Certificate::from_byte(0), Certificate::from_byte(1)]
    }

    /// Counts items whose labeling is constant; short-circuits on a marker.
    struct CountConstant {
        stop_on_all_ones: bool,
    }

    impl PropertyCheck for CountConstant {
        type Partial = bool;
        type Verdict = (usize, Option<usize>);

        fn inspect(&self, item: &UniverseItem<'_>, _ctx: &ItemCtx<'_>) -> Option<bool> {
            let n = item.labeling.node_count();
            let constant = (1..n).all(|v| item.labeling.label(v) == item.labeling.label(0));
            let all_ones =
                n > 0 && (0..n).all(|v| item.labeling.label(v) == &Certificate::from_byte(1));
            (constant || all_ones).then_some(all_ones)
        }

        fn short_circuits(&self, partial: &bool) -> bool {
            self.stop_on_all_ones && *partial
        }

        fn reduce(
            &self,
            _universe: &Universe,
            partials: Vec<(usize, bool)>,
            _outcome: &SweepOutcome,
        ) -> (usize, Option<usize>) {
            let stop = partials.iter().find(|(_, p)| *p).map(|&(i, _)| i);
            (partials.len(), stop)
        }
    }

    fn small_universe() -> Universe {
        Universe::all_labelings_of(
            Instance::canonical(generators::cycle(5)),
            bits(),
            Coverage::Exhaustive,
        )
        .expect("32 labelings fit")
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let universe = small_universe();
        for check in [
            CountConstant {
                stop_on_all_ones: false,
            },
            CountConstant {
                stop_on_all_ones: true,
            },
        ] {
            let seq = SweepSession::over(&universe)
                .mode(ExecMode::Sequential)
                .run(&check);
            let par = SweepSession::over(&universe)
                .mode(ExecMode::Parallel(4))
                .run(&check);
            assert_eq!(seq.verdict, par.verdict);
            assert_eq!(seq.checked, par.checked);
            assert_eq!(seq.short_circuited, par.short_circuited);
            assert_eq!(seq.universe_size, 32);
        }
    }

    #[test]
    fn short_circuit_counts_sequentially() {
        let universe = small_universe();
        let check = CountConstant {
            stop_on_all_ones: true,
        };
        let report = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(3))
            .run(&check);
        // All-ones is labeling index 31 (odometer: every digit = 1).
        assert_eq!(report.verdict.1, Some(31));
        assert_eq!(report.checked, 32);
        assert!(report.short_circuited);
    }

    /// A check that requests a cached view config and uses it.
    struct ViewsMatchDirect;

    impl PropertyCheck for ViewsMatchDirect {
        type Partial = ();
        type Verdict = usize;

        fn view_configs(&self) -> Vec<(usize, IdMode)> {
            vec![(1, IdMode::Anonymous)]
        }

        fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<()> {
            for v in 0..item.instance.graph().node_count() {
                let cached = ctx.view(item, v, 1, IdMode::Anonymous);
                let direct = item.instance.view(item.labeling, v, 1, IdMode::Anonymous);
                assert_eq!(cached, direct);
            }
            Some(())
        }

        fn reduce(
            &self,
            _universe: &Universe,
            partials: Vec<(usize, ())>,
            _outcome: &SweepOutcome,
        ) -> usize {
            partials.len()
        }
    }

    #[test]
    fn cached_views_equal_direct_extraction() {
        let universe = small_universe();
        let report = SweepSession::over(&universe).run(&ViewsMatchDirect);
        assert_eq!(report.verdict, 32);
        // 5 nodes * 32 labelings stamped from 5 skeletons.
        assert_eq!(report.counts.get(SweepCounter::CacheHits), 160);
        assert_eq!(report.counts.get(SweepCounter::CacheMisses), 5);
    }

    #[test]
    fn unbudgeted_sweep_is_exhaustive_and_clean() {
        let universe = small_universe();
        let check = CountConstant {
            stop_on_all_ones: false,
        };
        let report = SweepSession::over(&universe)
            .mode(ExecMode::Sequential)
            .run(&check);
        assert!(!report.interrupted);
        assert!(report.errors.is_empty());
        assert_eq!(report.coverage, Coverage::Exhaustive);
    }

    /// The one shard that is the whole universe.
    const WHOLE: ShardSpec = ShardSpec { index: 0, of: 1 };

    #[test]
    fn max_items_interrupts_with_a_resume_token() {
        let universe = small_universe();
        let check = CountConstant {
            stop_on_all_ones: false,
        };
        let session = SweepSession::over(&universe).mode(ExecMode::Sequential);
        let budgeted = session.budget(SweepBudget::unlimited().with_max_items(10));
        let report = budgeted.run(&check);
        assert!(report.interrupted);
        assert_eq!(report.checked, 10);
        assert_eq!(report.coverage, Coverage::Sampled);
        let first = budgeted.run_fragment(&check, WHOLE);
        assert!(!first.is_complete(), "an interrupted walk stops short");
        assert_eq!(first.next, 10);
        // Finish with no budget: the chained result matches one
        // uninterrupted sweep exactly.
        let rest = session.resume_fragment(&check, first);
        assert!(rest.is_complete());
        let merged = merge_fragments(&check, &universe, ExecMode::Sequential, vec![rest], None)
            .expect("a finished fragment covers the universe");
        assert!(!merged.interrupted);
        assert_eq!(merged.coverage, Coverage::Exhaustive);
        let full = session.run(&check);
        assert_eq!(merged.verdict, full.verdict);
        assert_eq!(merged.checked, full.checked);
    }

    #[test]
    fn a_resumed_fragment_counts_its_whole_chain() {
        let universe = small_universe();
        let check = CountConstant {
            stop_on_all_ones: false,
        };
        let session = SweepSession::over(&universe).mode(ExecMode::Sequential);
        let whole = session.run_fragment(&check, WHOLE);
        let stepped = session.budget(SweepBudget::unlimited().with_max_items(10));
        let mut fragment = stepped.run_fragment(&check, WHOLE);
        assert_eq!(fragment.counts.get(SweepCounter::ItemsWalked), 10);
        let mut stops = 0;
        while !fragment.is_complete() {
            stops += 1;
            fragment = stepped.resume_fragment(&check, fragment);
        }
        for counter in [SweepCounter::ItemsWalked, SweepCounter::ItemsInspected] {
            let one = whole.counts.get(counter);
            assert_eq!(fragment.counts.get(counter), one, "{}", counter.name());
            assert_eq!(one, universe.len() as u64, "{}", counter.name());
        }
        let interruptions = fragment.counts.get(SweepCounter::BudgetInterruptions);
        assert_eq!(interruptions, stops, "one per budget stop in the chain");
        assert_eq!(whole.counts.get(SweepCounter::BudgetInterruptions), 0);
        // The merge walks nothing: its evidence counts nothing.
        let merged = merge_fragments(
            &check,
            &universe,
            ExecMode::Sequential,
            vec![fragment],
            None,
        )
        .expect("a finished fragment covers the universe");
        assert_eq!(merged.counts, telemetry::WalkCounts::default());
    }

    #[test]
    fn resume_chain_is_bit_identical_at_any_granularity() {
        let universe = small_universe();
        let check = CountConstant {
            stop_on_all_ones: true,
        };
        let session = SweepSession::over(&universe).mode(ExecMode::Sequential);
        let full = session.run(&check);
        for step in [1usize, 3, 7, 32] {
            let stepped = session.budget(SweepBudget::unlimited().with_max_items(step));
            let mut fragment = stepped.run_fragment(&check, WHOLE);
            while !fragment.is_complete() {
                fragment = stepped.resume_fragment(&check, fragment);
            }
            let merged = merge_fragments(
                &check,
                &universe,
                ExecMode::Sequential,
                vec![fragment],
                None,
            )
            .expect("a finished fragment covers the universe");
            assert_eq!(merged.verdict, full.verdict, "step {step}");
            assert_eq!(merged.checked, full.checked, "step {step}");
            assert_eq!(merged.short_circuited, full.short_circuited, "step {step}");
        }
    }

    /// Panics on one specific labeling index, counts the rest.
    struct PanicsAt {
        index: usize,
    }

    impl PropertyCheck for PanicsAt {
        type Partial = ();
        type Verdict = usize;

        fn inspect(&self, item: &UniverseItem<'_>, _ctx: &ItemCtx<'_>) -> Option<()> {
            if item.index == self.index {
                panic!("rigged failure at {}", self.index);
            }
            Some(())
        }

        fn reduce(
            &self,
            _universe: &Universe,
            partials: Vec<(usize, ())>,
            _outcome: &SweepOutcome,
        ) -> usize {
            partials.len()
        }
    }

    #[test]
    fn panicking_item_becomes_a_structured_error() {
        let universe = small_universe();
        let check = PanicsAt { index: 13 };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let seq = SweepSession::over(&universe)
            .mode(ExecMode::Sequential)
            .run(&check);
        let par = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(4))
            .run(&check);
        std::panic::set_hook(prev);
        for report in [&seq, &par] {
            assert_eq!(report.verdict, 31, "other items still inspected");
            assert_eq!(report.errors.len(), 1);
            assert_eq!(report.errors[0].item_index, 13);
            assert_eq!(report.errors[0].payload, "rigged failure at 13");
            assert_eq!(
                report.coverage,
                Coverage::Sampled,
                "errored items were not verified"
            );
            assert!(!report.interrupted);
        }
    }

    #[test]
    fn deadline_zero_interrupts_immediately() {
        let universe = small_universe();
        let check = CountConstant {
            stop_on_all_ones: false,
        };
        let session = SweepSession::over(&universe)
            .mode(ExecMode::Sequential)
            .budget(SweepBudget::unlimited().with_deadline(std::time::Duration::ZERO));
        let report = session.run(&check);
        assert!(report.interrupted);
        assert_eq!(report.checked, 0);
        let fragment = session.run_fragment(&check, WHOLE);
        assert_eq!(fragment.next, 0);
        assert!(fragment.members[0].partials.is_empty());
        let err = merge_fragments(
            &check,
            &universe,
            ExecMode::Sequential,
            vec![fragment],
            None,
        )
        .expect_err("a walk that never started does not merge");
        assert!(err.contains("torn") && err.contains("item 0"), "{err}");
    }

    /// A budgeted lazy sweep checks its budget before each pull, so a
    /// stateful source is never advanced past `max_items`.
    #[test]
    fn lazy_budget_never_pulls_past_max_items() {
        let c3 = Instance::canonical(generators::cycle(3));
        let check = CountConstant {
            stop_on_all_ones: false,
        };
        let pulls = std::cell::Cell::new(0usize);
        let source = (0..100).map(|_| {
            pulls.set(pulls.get() + 1);
            crate::label::Labeling::uniform(3, Certificate::from_byte(0))
        });
        let report = LazySweep::of(&c3, Coverage::Sampled)
            .budget(SweepBudget::unlimited().with_max_items(10))
            .run(&check, source);
        assert_eq!(pulls.get(), 10, "exactly max_items pulls");
        assert_eq!(report.checked, 10);
        assert!(report.interrupted);
    }

    /// Records exactly one partial, at a fixed index, and stops there.
    struct StopAtIndex(usize);

    impl PropertyCheck for StopAtIndex {
        type Partial = ();
        type Verdict = Option<usize>;

        fn inspect(&self, item: &UniverseItem<'_>, _ctx: &ItemCtx<'_>) -> Option<()> {
            (item.index == self.0).then_some(())
        }

        fn short_circuits(&self, _partial: &()) -> bool {
            true
        }

        fn reduce(
            &self,
            _universe: &Universe,
            partials: Vec<(usize, ())>,
            _outcome: &SweepOutcome,
        ) -> Option<usize> {
            partials.first().map(|&(i, _)| i)
        }
    }

    #[test]
    fn merged_fragments_equal_the_single_process_sweep() {
        let universe = small_universe();
        let check = CountConstant {
            stop_on_all_ones: false,
        };
        let full = SweepSession::over(&universe)
            .mode(ExecMode::Sequential)
            .run(&check);
        for of in [1usize, 2, 4] {
            let fragments: Vec<_> = ShardSpec::partition(of)
                .into_iter()
                .map(|spec| {
                    SweepSession::over(&universe)
                        .mode(ExecMode::Sequential)
                        .run_fragment(&check, spec)
                })
                .collect();
            let merged = merge_fragments(&check, &universe, ExecMode::Sequential, fragments, None)
                .expect("fragments tile the universe");
            assert_eq!(merged.verdict, full.verdict, "{of} shards");
            assert_eq!(merged.checked, full.checked, "{of} shards");
            assert_eq!(merged.short_circuited, full.short_circuited);
            assert_eq!(merged.coverage, full.coverage);
        }
    }

    #[test]
    fn short_circuit_frontier_composes_across_shards() {
        let universe = small_universe();
        // Stops inside shard 0; later shards walk their whole ranges and
        // find nothing, and the merge must still report the global stop.
        let check = StopAtIndex(7);
        let full = SweepSession::over(&universe)
            .mode(ExecMode::Sequential)
            .run(&check);
        assert_eq!(full.verdict, Some(7));
        assert_eq!(full.checked, 8);
        let fragments: Vec<_> = ShardSpec::partition(4)
            .into_iter()
            .map(|spec| {
                SweepSession::over(&universe)
                    .mode(ExecMode::Sequential)
                    .run_fragment(&check, spec)
            })
            .collect();
        assert_eq!(fragments[0].members[0].stop_at, Some(7));
        assert!(fragments[1..]
            .iter()
            .all(|f| f.members[0].stop_at.is_none()));
        let merged = merge_fragments(&check, &universe, ExecMode::Sequential, fragments, None)
            .expect("fragments tile the universe");
        assert_eq!(merged.verdict, full.verdict);
        assert_eq!(merged.checked, full.checked);
        assert!(merged.short_circuited);
    }

    #[test]
    fn interrupted_shard_resumes_to_the_uninterrupted_fragment() {
        let universe = small_universe();
        let check = CountConstant {
            stop_on_all_ones: false,
        };
        let spec = ShardSpec::new(0, 2);
        let session = SweepSession::over(&universe).mode(ExecMode::Sequential);
        let whole = session.run_fragment(&check, spec);
        assert!(whole.is_complete());
        // Walk the same range 3 items at a time; the chained fragment
        // must equal the uninterrupted one exactly.
        let stepped = session.budget(SweepBudget::unlimited().with_max_items(3));
        let mut frag = stepped.run_fragment(&check, spec);
        while !frag.is_complete() {
            frag = stepped.resume_fragment(&check, frag);
        }
        assert_eq!(frag.lo, whole.lo);
        assert_eq!(frag.hi, whole.hi);
        assert_eq!(frag.next, whole.next);
        assert_eq!(frag.members[0].stop_at, whole.members[0].stop_at);
        assert_eq!(frag.members[0].partials, whole.members[0].partials);
        let rest = session.run_fragment(&check, ShardSpec::new(1, 2));
        let merged = merge_fragments(
            &check,
            &universe,
            ExecMode::Sequential,
            vec![frag, rest],
            None,
        )
        .expect("the finished chain and its sibling tile the universe");
        assert_eq!(merged.verdict, session.run(&check).verdict);
    }

    #[test]
    fn merge_rejects_gaps_overlaps_and_torn_fragments() {
        let universe = small_universe();
        let check = CountConstant {
            stop_on_all_ones: false,
        };
        let frag_of = |spec: ShardSpec| {
            SweepSession::over(&universe)
                .mode(ExecMode::Sequential)
                .run_fragment(&check, spec)
        };
        // Gap: shard 1 of 4 missing.
        let gappy: Vec<_> = [0usize, 2, 3]
            .into_iter()
            .map(|i| frag_of(ShardSpec::new(i, 4)))
            .collect();
        let err = merge_fragments(&check, &universe, ExecMode::Sequential, gappy, None)
            .expect_err("a gap must be rejected");
        assert!(err.contains("gap"), "{err}");
        // Overlap: shard 0 of 2 twice plus shard 1 of 2.
        let doubled = vec![
            frag_of(ShardSpec::new(0, 2)),
            frag_of(ShardSpec::new(0, 2)),
            frag_of(ShardSpec::new(1, 2)),
        ];
        let err = merge_fragments(&check, &universe, ExecMode::Sequential, doubled, None)
            .expect_err("an overlap must be rejected");
        assert!(err.contains("overlap"), "{err}");
        // Torn: shard 0 of 2 interrupted mid-range by a budget.
        let torn = SweepSession::over(&universe)
            .mode(ExecMode::Sequential)
            .budget(SweepBudget::unlimited().with_max_items(3))
            .run_fragment(&check, ShardSpec::new(0, 2));
        assert!(!torn.is_complete());
        let err = merge_fragments(
            &check,
            &universe,
            ExecMode::Sequential,
            vec![torn, frag_of(ShardSpec::new(1, 2))],
            None,
        )
        .expect_err("a torn fragment must be rejected");
        assert!(err.contains("torn"), "{err}");
        assert!(err.contains("stopped at item 3"), "{err}");
        // Records outside the fragment's own walk, or out of index order.
        let mut stray = frag_of(ShardSpec::new(1, 2));
        stray.members[0].partials.insert(0, (3, false));
        let err = merge_fragments(
            &check,
            &universe,
            ExecMode::Sequential,
            vec![frag_of(ShardSpec::new(0, 2)), stray],
            None,
        )
        .expect_err("a partial outside its fragment must be rejected");
        assert!(err.contains("outside"), "{err}");
        let mut repeated = frag_of(ShardSpec::new(0, 2));
        repeated.members[0].partials.push((0, false));
        let err = merge_fragments(
            &check,
            &universe,
            ExecMode::Sequential,
            vec![repeated, frag_of(ShardSpec::new(1, 2))],
            None,
        )
        .expect_err("a repeated partial index must be rejected");
        assert!(err.contains("out of order"), "{err}");
        // A walk frontier past the range would admit records of the next
        // shard's range twice.
        let mut overrun = frag_of(ShardSpec::new(0, 2));
        overrun.next = overrun.hi + 1;
        let err = merge_fragments(
            &check,
            &universe,
            ExecMode::Sequential,
            vec![overrun, frag_of(ShardSpec::new(1, 2))],
            None,
        )
        .expect_err("a frontier outside the range must be rejected");
        assert!(err.contains("malformed"), "{err}");
    }

    #[test]
    fn a_lone_last_shard_fragment_never_merges_into_a_report() {
        let universe = small_universe();
        let check = CountConstant {
            stop_on_all_ones: false,
        };
        let last = SweepSession::over(&universe)
            .mode(ExecMode::Sequential)
            .run_fragment(&check, ShardSpec::new(1, 2));
        assert_eq!((last.lo, last.hi), (16, 32));
        assert!(last.is_complete());
        // One shard alone covers half the universe: the merge must name
        // the uncovered half instead of reporting it as walked.
        let err = merge_fragments(&check, &universe, ExecMode::Sequential, vec![last], None)
            .expect_err("a lone last shard leaves a gap");
        assert!(err.contains("gap") && err.contains("[0, 16)"), "{err}");
    }
}
