//! Determinism contract of the sweep telemetry layer.
//!
//! The recorder must be an *observer*: attaching one never changes a
//! verdict, and the **stable** counter section is a pure function of
//! (universe, check, strategy) — byte-identical across repeated runs and
//! across execution modes. The CI matrix runs this suite with
//! `PARITY_THREADS` set to 1, 2 and 4; locally it defaults to 3.
//!
//! Observed counters (`memo_*`, `verdict_decisions`, `interner_*`) are
//! allowed to move with scheduling, but still satisfy structural
//! invariants: every decision either hits or misses the memo, and an
//! orbit-quotiented walk's multiplicities partition the labeling space.

use std::sync::Arc;

use hiding_lcp_core::instance::Instance;
use hiding_lcp_core::label::Certificate;
use hiding_lcp_core::language::KCol;
use hiding_lcp_core::lower::PortObliviousCycleDecoder;
use hiding_lcp_core::properties::soundness::SoundnessCheck;
use hiding_lcp_core::properties::strong::StrongCheck;
use hiding_lcp_core::verify::{
    Coverage, DynPropertyCheck, ExecMode, ItemCtx, MetricsRecorder, PropertyCheck, PropertyTag,
    SweepOutcome, SweepSession, SweepStrategy, SymmetrySpec, Universe, UniverseItem,
};
use hiding_lcp_core::view::IdMode;

fn bits() -> Vec<Certificate> {
    vec![Certificate::from_byte(0), Certificate::from_byte(1)]
}

/// Thread count for the parallel side of every parity assertion.
fn parity_threads() -> usize {
    std::env::var("PARITY_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(3)
}

/// A cycle under the rotation-symmetric port assignment, so the orbit
/// quotient actually engages.
fn symmetric_cycle(n: usize) -> Instance {
    let g = hiding_lcp_graph::generators::cycle(n);
    let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
    Instance::new(g, ports, hiding_lcp_graph::IdAssignment::canonical(n))
        .expect("symmetric cycle ports are valid")
}

/// An exhaustive labeling universe big enough (2^7 = 128 items) that
/// `ExecMode::Parallel` really runs parallel (`PARALLEL_THRESHOLD` = 64).
fn big_universe() -> Universe {
    Universe::all_labelings_of(symmetric_cycle(7), bits(), Coverage::Exhaustive)
        .expect("small universe fits")
}

/// Code 0 rejects every view: no soundness violation exists, so the sweep
/// never short-circuits and every mode walks the whole universe.
fn full_walk_decoder() -> PortObliviousCycleDecoder {
    PortObliviousCycleDecoder::from_code(0)
}

/// A check that declares full symmetry (port automorphisms plus one
/// interchangeable certificate class), forcing the quotient to bite.
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

fn panel_members<'a>(
    decoder: &'a PortObliviousCycleDecoder,
    two_col: &'a KCol,
) -> [DynPropertyCheck<'a>; 2] {
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
    ]
}

/// Attaching a recorder never changes what a sweep reports — in both
/// execution modes, under both strategies.
#[test]
fn recorded_sweeps_match_plain_sweeps() {
    let decoder = full_walk_decoder();
    let universe = big_universe();
    let check = SoundnessCheck { decoder: &decoder };
    for mode in [ExecMode::Sequential, ExecMode::Parallel(parity_threads())] {
        for strategy in [SweepStrategy::DeltaStepping, SweepStrategy::DecodeOracle] {
            let plain = SweepSession::over(&universe)
                .mode(mode)
                .strategy(strategy)
                .run(&check);
            let recorder = MetricsRecorder::new();
            let recorded = SweepSession::over(&universe)
                .mode(mode)
                .strategy(strategy)
                .metrics(&recorder)
                .run(&check);
            assert_eq!(plain.verdict, recorded.verdict);
            assert_eq!(plain.checked, recorded.checked);
            assert_eq!(plain.universe_size, recorded.universe_size);
            assert_eq!(plain.short_circuited, recorded.short_circuited);
            assert_eq!(plain.coverage, recorded.coverage);
        }
    }
}

/// Same contract for fused panels: recorder attachment is invisible in
/// every member's verdict line.
#[test]
fn recorded_panels_match_plain_panels() {
    let decoder = full_walk_decoder();
    let two_col = KCol::new(2);
    let universe = big_universe();
    let members = panel_members(&decoder, &two_col);
    for mode in [ExecMode::Sequential, ExecMode::Parallel(parity_threads())] {
        let plain = SweepSession::over(&universe).mode(mode).run_panel(&members);
        let recorder = MetricsRecorder::new();
        let recorded = SweepSession::over(&universe)
            .mode(mode)
            .metrics(&recorder)
            .run_panel(&members);
        assert_eq!(plain.evidence.checked, recorded.evidence.checked);
        assert_eq!(
            plain.evidence.short_circuited,
            recorded.evidence.short_circuited
        );
        for (a, b) in plain.members.iter().zip(&recorded.members) {
            assert_eq!(a.checked, b.checked);
            assert_eq!(a.short_circuited, b.short_circuited);
            assert_eq!(a.verdict.passed, b.verdict.passed);
            assert_eq!(a.verdict.detail, b.verdict.detail);
        }
    }
}

/// The recorder's own contracts: stable counters, partition invariants,
/// deterministic documents and balanced traces.
mod enabled {
    use super::*;

    /// The stable counter section renders to the same bytes on every
    /// run and in every execution mode, under both strategies. (The
    /// observed section may move: chunk boundaries change how many full
    /// verdict recomputes happen.) The decode oracle stamps every view it
    /// decides through the item's context, so its `cache_hits` counts
    /// every stamp of every worker.
    #[test]
    fn stable_counters_are_byte_identical_across_runs_and_modes() {
        let decoder = full_walk_decoder();
        let universe = big_universe();
        let check = SoundnessCheck { decoder: &decoder };
        for strategy in [SweepStrategy::DeltaStepping, SweepStrategy::DecodeOracle] {
            let run = |mode: ExecMode| {
                let recorder = MetricsRecorder::new();
                SweepSession::over(&universe)
                    .mode(mode)
                    .strategy(strategy)
                    .metrics(&recorder)
                    .run(&check);
                recorder.snapshot().stable_bytes()
            };
            let reference = run(ExecMode::Sequential);
            assert!(reference.contains("items_walked=128\n"), "{reference}");
            if strategy == SweepStrategy::DecodeOracle {
                // Seven nodes decided on each of the 128 items.
                assert!(reference.contains("cache_hits=896\n"), "{reference}");
            }
            for _ in 0..2 {
                assert_eq!(reference, run(ExecMode::Sequential), "{strategy:?} rerun");
                assert_eq!(
                    reference,
                    run(ExecMode::Parallel(parity_threads())),
                    "{strategy:?} at {} threads",
                    parity_threads()
                );
            }
        }
    }

    /// Panel stable counters obey the same contract, member-summed.
    #[test]
    fn panel_stable_counters_are_byte_identical_across_modes() {
        let decoder = full_walk_decoder();
        let two_col = KCol::new(2);
        let universe = big_universe();
        let members = panel_members(&decoder, &two_col);
        let run = |mode: ExecMode| {
            let recorder = MetricsRecorder::new();
            SweepSession::over(&universe)
                .mode(mode)
                .metrics(&recorder)
                .run_panel(&members);
            recorder.snapshot().stable_bytes()
        };
        let reference = run(ExecMode::Sequential);
        // Two members, complete walk: every index is walked once per member.
        assert!(reference.contains("items_walked=256\n"), "{reference}");
        assert_eq!(reference, run(ExecMode::Sequential));
        assert_eq!(reference, run(ExecMode::Parallel(parity_threads())));
    }

    /// A complete orbit-quotiented walk partitions the labeling space:
    /// skipped and inspected items tile the walk, and the inspected
    /// orbits' multiplicities re-weight to exactly |Sigma|^n.
    #[test]
    fn quotient_snapshot_satisfies_the_partition_invariant() {
        let universe = big_universe();
        let check = OrbitProbe { k: 2 };
        let recorder = MetricsRecorder::new();
        let report = SweepSession::over(&universe)
            .mode(ExecMode::Sequential)
            .metrics(&recorder)
            .run(&check);
        let snap = recorder.snapshot();
        let get = |name: &str| snap.get(name).unwrap_or_else(|| panic!("no {name}"));
        let total = universe.len() as u64;
        assert_eq!(get("items_walked"), total);
        assert_eq!(
            get("items_inspected") + get("items_orbit_skipped"),
            get("items_walked"),
            "inspected and skipped tile the walk"
        );
        assert_eq!(
            get("orbit_multiplicity"),
            total,
            "orbit multiplicities sum to |Sigma|^n"
        );
        assert!(get("items_orbit_skipped") > 0, "the quotient engaged");
        assert_eq!(get("quotient_blocks"), 1);
        // The check's own reduction agrees with the recorder.
        assert_eq!(report.verdict, total);
    }

    /// Delta-stepping channel accounting: every verdict decision either
    /// hit or missed the verdict memo, and each inspected item was either
    /// refreshed or read back (an orbit-skipped item is neither).
    #[test]
    fn memo_and_refresh_counters_tile_the_decision_stream() {
        let decoder = full_walk_decoder();
        let two_col = KCol::new(2);
        let universe = big_universe();
        let members = panel_members(&decoder, &two_col);
        for mode in [ExecMode::Sequential, ExecMode::Parallel(parity_threads())] {
            let recorder = MetricsRecorder::new();
            SweepSession::over(&universe)
                .mode(mode)
                .metrics(&recorder)
                .run_panel(&members);
            let snap = recorder.snapshot();
            let get = |name: &str| snap.get(name).unwrap_or_else(|| panic!("no {name}"));
            assert_eq!(
                get("memo_hits") + get("memo_misses"),
                get("verdict_decisions"),
                "every decision consults the memo exactly once"
            );
            assert_eq!(
                get("verdict_refreshes") + get("verdict_readbacks"),
                get("items_inspected"),
                "every inspected member-evaluation refreshes or reads back"
            );
        }
    }

    /// With an injected manual clock the whole observability document —
    /// counters, phase histograms, spans — is byte-deterministic.
    #[test]
    fn manual_clock_makes_the_full_document_deterministic() {
        use hiding_lcp_core::verify::telemetry::ManualClock;
        let decoder = full_walk_decoder();
        let universe = big_universe();
        let check = SoundnessCheck { decoder: &decoder };
        let run = || {
            let recorder = MetricsRecorder::with_clock(Arc::new(ManualClock::default()));
            SweepSession::over(&universe)
                .mode(ExecMode::Sequential)
                .metrics(&recorder)
                .run(&check);
            (recorder.metrics_json(), recorder.trace_json())
        };
        let (metrics_a, trace_a) = run();
        let (metrics_b, trace_b) = run();
        assert_eq!(metrics_a, metrics_b, "metrics document is reproducible");
        assert_eq!(trace_a, trace_b, "trace document is reproducible");
    }

    /// One walk at every thread count: a one-worker sweep and a
    /// two-worker panel record their call span and exactly one `walk`
    /// span per worker, each on its worker's lane, and every lane
    /// balances.
    #[test]
    fn every_thread_count_records_only_call_and_worker_spans() {
        let decoder = full_walk_decoder();
        let two_col = KCol::new(2);
        let universe = big_universe();
        let check = SoundnessCheck { decoder: &decoder };
        let members = panel_members(&decoder, &two_col);
        // `(name, lane)` of every span entry in the exported trace.
        let entries = |recorder: &MetricsRecorder| -> Vec<(String, u64)> {
            let json = recorder.trace_json();
            json.split("{\"name\": \"")
                .skip(1)
                .filter(|event| event.contains("\"ph\": \"B\""))
                .map(|event| {
                    let name = &event[..event.find('"').expect("closing quote")];
                    let tid = event.split("\"tid\": ").nth(1).expect("a lane");
                    let lane = tid[..tid.find('}').expect("event end")].parse();
                    (name.to_string(), lane.expect("a numeric lane"))
                })
                .collect()
        };
        let sequential = MetricsRecorder::new();
        SweepSession::over(&universe)
            .mode(ExecMode::Sequential)
            .metrics(&sequential)
            .run(&check);
        let parallel = MetricsRecorder::new();
        SweepSession::over(&universe)
            .mode(ExecMode::Parallel(2))
            .metrics(&parallel)
            .run_panel(&members);
        for (recorder, call, workers) in [(&sequential, "sweep", 1), (&parallel, "panel", 2)] {
            assert!(recorder.trace_balanced(), "{call}: every lane balances");
            assert_eq!(recorder.trace_dropped(), 0);
            let entries = entries(recorder);
            let lanes = |span: &str| -> Vec<u64> {
                let lanes = entries.iter().filter(|(name, _)| name == span);
                lanes.map(|&(_, lane)| lane).collect()
            };
            assert_eq!(lanes(call).len(), 1, "{call}: one call span");
            let mut walks = lanes("walk");
            assert_eq!(walks.len(), workers, "{call}: one walk span per worker");
            walks.sort_unstable();
            walks.dedup();
            assert_eq!(walks.len(), workers, "{call}: one walk span per lane");
            assert_eq!(
                entries.len(),
                1 + workers,
                "{call}: only call and walk spans, got {entries:?}"
            );
        }
    }

    /// Every span a sweep opens it closes, and the export is a valid
    /// Chrome `trace_event` document.
    #[test]
    fn trace_is_balanced_and_chrome_shaped() {
        let decoder = full_walk_decoder();
        let two_col = KCol::new(2);
        let universe = big_universe();
        let members = panel_members(&decoder, &two_col);
        let recorder = MetricsRecorder::new();
        SweepSession::over(&universe)
            .mode(ExecMode::Parallel(parity_threads()))
            .metrics(&recorder)
            .run_panel(&members);
        assert!(recorder.trace_balanced(), "all spans closed");
        assert_eq!(recorder.trace_dropped(), 0);
        let json = recorder.trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"B\"") && json.contains("\"ph\": \"E\""));
        assert!(json.contains("\"name\": \"panel\""));
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
    }

    /// An audit plan's per-panel telemetry is its walks' own counts: a
    /// second thread adding to the plan's recorder for as long as the plan
    /// runs leaves the stable report exactly as a solo run's. The
    /// decoder's first decision waits until that thread has added, so its
    /// adds land inside the labelings panel's walk on every schedule.
    #[test]
    fn panel_sections_ignore_other_writers_to_the_recorder() {
        use hiding_lcp_certs::degree_one::{self, DegreeOneDecoder, DegreeOneProver};
        use hiding_lcp_core::decoder::{Decoder, Verdict};
        use hiding_lcp_core::verify::{AuditPlan, InstanceSet, SweepCounter, SweepRecorder};
        use hiding_lcp_core::view::View;
        use std::sync::atomic::{AtomicBool, Ordering};

        /// Degree-one's decoder, whose first decision waits until
        /// `recorder`'s `items_walked` moves.
        struct AwaitWriter<'r> {
            recorder: &'r MetricsRecorder,
            waited: AtomicBool,
        }
        impl Decoder for AwaitWriter<'_> {
            fn name(&self) -> String {
                DegreeOneDecoder.name()
            }
            fn radius(&self) -> usize {
                DegreeOneDecoder.radius()
            }
            fn id_mode(&self) -> IdMode {
                DegreeOneDecoder.id_mode()
            }
            fn decide(&self, view: &View) -> Verdict {
                if !self.waited.swap(true, Ordering::Relaxed) {
                    let walked = || self.recorder.snapshot().get("items_walked");
                    let seen = walked();
                    while walked() == seen {
                        std::thread::yield_now();
                    }
                }
                DegreeOneDecoder.decide(view)
            }
        }

        let audit = |decoder: &dyn Decoder, recorder: &MetricsRecorder| {
            AuditPlan::new(
                decoder,
                2,
                InstanceSet::Lemma31 { max_n: 3 },
                degree_one::adversary_alphabet(),
            )
            .prover(&DegreeOneProver)
            .mode(ExecMode::Sequential)
            .telemetry(recorder)
            .run()
        };
        let solo = audit(&DegreeOneDecoder, &MetricsRecorder::new()).to_stable_json();
        let shared = MetricsRecorder::new();
        let decoder = AwaitWriter {
            recorder: &shared,
            waited: AtomicBool::new(false),
        };
        /// Stops the writer however the audit ends, so an audit that
        /// panics fails the test instead of hanging it.
        struct Stop<'a>(&'a AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let done = AtomicBool::new(false);
        let (report, outside) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut adds = 0u64;
                while !done.load(Ordering::Relaxed) {
                    shared.add(SweepCounter::ItemsWalked, 1);
                    adds += 1;
                }
                adds
            });
            let stop = Stop(&done);
            let report = audit(&decoder, &shared);
            drop(stop);
            (report, writer.join().expect("the writer thread finishes"))
        });
        assert!(outside > 0, "the second thread wrote to the recorder");
        assert_eq!(report.to_stable_json(), solo);
    }
}

/// Members whose symmetry declarations agree share one orbit quotient,
/// yet each tallies its own walk, skips and multiplicities: on a panel
/// with a shared plan (soundness and strong under revealing:2) beside a
/// plan of its own (the Lemma 3.1 scan, automorphisms only), the stable
/// section is the one per-member plans produced, in every mode. Soundness
/// is gated to the no-instances, where revealing:2 never short-circuits,
/// so every mode walks the whole universe.
mod shared_plans {
    use super::*;
    use hiding_lcp_certs::revealing::{self, RevealingDecoder};
    use hiding_lcp_core::nbhd::NbhdSweep;
    use hiding_lcp_core::verify::{Block, BlockGated, LabelSource};
    use hiding_lcp_graph::algo::bipartite;

    /// The stable section of the panel below, as recorded when every
    /// member built its own quotient plan.
    const PER_MEMBER_PLANS: &str = "\
budget_interruptions=0
cache_hits=2
cache_misses=22
items_inspected=496
items_orbit_skipped=2987
items_walked=3483
orbit_multiplicity=3483
panics_caught=0
quotient_blocks=15
verdict_readbacks=128
verdict_refreshes=200
";
    fn symmetric_port_universe() -> Universe {
        let mut family: Vec<Instance> = (3..=6).map(symmetric_cycle).collect();
        let k4 = hiding_lcp_graph::generators::complete(4);
        let ports = hiding_lcp_graph::ports::complete_symmetric(&k4);
        family.push(
            Instance::new(k4, ports, hiding_lcp_graph::IdAssignment::canonical(4))
                .expect("symmetric K4 ports are valid"),
        );
        let blocks = family
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
        Universe::new(blocks, Coverage::Sampled).expect("1,161 items fit")
    }

    #[test]
    fn shared_plans_keep_every_stable_counter() {
        let decoder = RevealingDecoder::new(2);
        let two_col = KCol::new(2);
        let universe = symmetric_port_universe();
        let no_instances: Vec<bool> = universe
            .blocks()
            .iter()
            .map(|b| !bipartite::is_bipartite(b.instance().graph()))
            .collect();
        let run = |mode: ExecMode| {
            let members = [
                DynPropertyCheck::new(
                    PropertyTag::Soundness,
                    "soundness",
                    BlockGated {
                        check: SoundnessCheck { decoder: &decoder },
                        active: no_instances.clone(),
                    },
                )
                .with_channel(&decoder),
                DynPropertyCheck::new(
                    PropertyTag::Strong,
                    "strong",
                    StrongCheck {
                        decoder: &decoder,
                        language: &two_col,
                    },
                )
                .with_channel(&decoder),
                DynPropertyCheck::new(
                    PropertyTag::Custom,
                    "scan",
                    NbhdSweep::new(
                        &decoder,
                        IdMode::Anonymous,
                        &universe,
                        bipartite::is_bipartite,
                    ),
                )
                .with_channel(&decoder),
            ];
            let recorder = MetricsRecorder::new();
            SweepSession::over(&universe)
                .mode(mode)
                .metrics(&recorder)
                .run_panel(&members);
            recorder.snapshot().stable_bytes()
        };
        for mode in [ExecMode::Sequential, ExecMode::Parallel(parity_threads())] {
            assert_eq!(run(mode), PER_MEMBER_PLANS, "{mode:?}");
        }
    }
}
