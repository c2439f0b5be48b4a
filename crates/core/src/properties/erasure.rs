//! Erasure sensitivity — the contrast with *resilient labeling schemes*
//! (paper, Section 1.2 related work).
//!
//! Fischer–Oshman–Shamir resilient schemes demand **completeness under
//! erasures**: yes-instances must still be accepted after up to f
//! certificates are wiped. The paper's strong LCPs make no such promise —
//! their guarantees are on the *soundness* side — and indeed react to
//! erasures by rejecting locally. This module measures that reaction:
//! how many nodes reject after erasing f certificates, and whether strong
//! soundness survives arbitrary erasures (it must: an erased labeling is
//! just another labeling).
//!
//! Static erasures mangle certificates *at rest*. The dynamic analogue —
//! certificates mangled (or lost) *in flight* — lives in
//! [`crate::network::faults`]; [`communication_fault_trials`] bridges the
//! two, measuring the same rejection reaction when the broadcast itself
//! misbehaves.

use crate::decoder::{run, Decoder};
use crate::instance::LabeledInstance;
use crate::label::{Certificate, Labeling};
use crate::network::{run_distributed_faulty, FaultPlan, FaultRates, FaultStats};
use crate::verify::{
    Coverage, DynPropertyCheck, ItemCtx, PropertyCheck, PropertyTag, SweepOutcome, SweepSession,
    Universe, UniverseItem,
};
use crate::view::IdMode;
use rand::seq::index::sample;
use rand::Rng;

/// The result of an erasure trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErasureOutcome {
    /// How many certificates were erased.
    pub erased: usize,
    /// How many nodes rejected afterwards.
    pub rejecting: usize,
}

/// Erases the certificates of `targets` (replacing them with the empty
/// certificate) and reports how many nodes reject.
pub fn erase_and_run<D: Decoder + ?Sized>(
    decoder: &D,
    li: &LabeledInstance,
    targets: &[usize],
) -> ErasureOutcome {
    let mut labeling = li.labeling().clone();
    for &v in targets {
        labeling.set(v, Certificate::empty());
    }
    let erased_li = LabeledInstance::new(li.instance().clone(), labeling);
    let verdicts = run(decoder, &erased_li);
    ErasureOutcome {
        erased: targets.len(),
        rejecting: verdicts.iter().filter(|v| !v.is_accept()).count(),
    }
}

/// The erasure-reaction measurement as a sweepable check: each universe
/// item is one erased labeling of the same instance; inspection counts the
/// rejecting nodes. No short-circuit — every trial is reported.
pub struct ErasureCheck<'a, D: ?Sized> {
    /// The decoder under test.
    pub decoder: &'a D,
    /// How many certificates were erased in each item, by item index.
    pub erased_counts: Vec<usize>,
}

impl<D: Decoder + ?Sized> PropertyCheck for ErasureCheck<'_, D> {
    type Partial = ErasureOutcome;
    type Verdict = Vec<ErasureOutcome>;

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        vec![(self.decoder.radius(), self.decoder.id_mode())]
    }

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<ErasureOutcome> {
        let rejecting = ctx
            .run(item, self.decoder)
            .iter()
            .filter(|v| !v.is_accept())
            .count();
        #[cfg(conformance_mutants)]
        let rejecting = if crate::mutants::active("erasure_counts_accepts") {
            item.labeling.node_count() - rejecting
        } else {
            rejecting
        };
        Some(ErasureOutcome {
            erased: self.erased_counts[item.index],
            rejecting,
        })
    }

    fn reduce(
        &self,
        _universe: &Universe,
        partials: Vec<(usize, ErasureOutcome)>,
        _outcome: &SweepOutcome,
    ) -> Vec<ErasureOutcome> {
        partials.into_iter().map(|(_, outcome)| outcome).collect()
    }
}

/// [`ErasureCheck`] as a panel member: `erased_counts[i]` is how many
/// certificates were wiped in the universe's item `i`. The erased
/// labelings themselves are the universe's items, so the member keeps a
/// private verdict channel (every item is a *different* labeling of the
/// same instance and erasure counts rejecting nodes directly).
pub fn erasure_member(decoder: &dyn Decoder, erased_counts: Vec<usize>) -> DynPropertyCheck<'_> {
    DynPropertyCheck::with_summary(
        PropertyTag::Erasure,
        "erasure",
        ErasureCheck {
            decoder,
            erased_counts,
        },
        |v: &Vec<ErasureOutcome>| {
            let reacting = v.iter().filter(|o| o.rejecting > 0).count();
            (
                None,
                format!("{reacting} of {} trials drew rejections", v.len()),
            )
        },
    )
}

/// Runs `trials` random f-erasure trials and returns the outcomes.
///
/// The erasure targets are drawn up front (one `sample` per trial, same
/// stream as always); the resulting labelings then sweep on the engine
/// (as a one-member fused panel — observationally the plain sweep),
/// sharing one set of view skeletons across all trials.
pub fn random_erasure_trials<D: Decoder + ?Sized, R: Rng + ?Sized>(
    decoder: &D,
    li: &LabeledInstance,
    f: usize,
    trials: usize,
    rng: &mut R,
) -> Vec<ErasureOutcome> {
    let n = li.graph().node_count();
    let f = f.min(n);
    let target_sets: Vec<Vec<usize>> = (0..trials)
        .map(|_| sample(rng, n, f).into_iter().collect())
        .collect();
    let erased_counts = target_sets.iter().map(Vec::len).collect();
    let labelings = target_sets
        .iter()
        .map(|targets| erased_labeling(li, targets))
        .collect();
    let universe = Universe::labelings_of(li.instance().clone(), labelings, Coverage::Sampled)
        .expect("materialized labelings fit usize");
    let check = ErasureCheck {
        decoder,
        erased_counts,
    };
    SweepSession::over(&universe).run(&check).verdict
}

/// Produces the erased labeling itself (for feeding into strong-soundness
/// checks: erasures are just labelings, so strong soundness must hold).
pub fn erased_labeling(li: &LabeledInstance, targets: &[usize]) -> Labeling {
    let mut labeling = li.labeling().clone();
    for &v in targets {
        labeling.set(v, Certificate::empty());
    }
    labeling
}

/// The outcome of one communication-fault trial — the dynamic analogue of
/// an [`ErasureOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTrialOutcome {
    /// The fault-plan seed this trial ran under.
    pub seed: u64,
    /// How many nodes rejected.
    pub rejecting: usize,
    /// The fault events that actually fired.
    pub stats: FaultStats,
}

/// Runs `trials` distributed executions of `decoder` on `li`, each under
/// a fresh seeded [`FaultPlan`] at `rates`, and reports the rejection
/// reaction per trial.
///
/// Where [`random_erasure_trials`] wipes certificates *at rest*, this
/// drops, duplicates, corrupts and delays them *in flight* — the
/// dimension the degradation harness
/// ([`crate::network::degradation`]) sweeps systematically. Trial `t`
/// uses plan seed `seed + t`, so the whole batch is a pure function of
/// its arguments.
pub fn communication_fault_trials<D: Decoder + ?Sized>(
    decoder: &D,
    li: &LabeledInstance,
    rates: FaultRates,
    trials: usize,
    seed: u64,
) -> Vec<FaultTrialOutcome> {
    (0..trials)
        .map(|t| {
            let trial_seed = seed.wrapping_add(t as u64);
            let plan = FaultPlan::new(trial_seed, rates);
            let (verdicts, stats) = run_distributed_faulty(decoder, li, &plan);
            FaultTrialOutcome {
                seed: trial_seed,
                rejecting: verdicts.iter().filter(|v| !v.is_accept()).count(),
                stats,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::Verdict;
    use crate::instance::Instance;
    use crate::language::KCol;
    use crate::properties::strong;
    use crate::view::{IdMode, View};
    use hiding_lcp_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Accepts iff the node's certificate is one byte differing from all
    /// neighbors' (rejects empty certificates).
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

    fn honest_c6() -> LabeledInstance {
        let inst = Instance::canonical(generators::cycle(6));
        let labels = (0..6)
            .map(|v| crate::label::Certificate::from_byte((v % 2) as u8))
            .collect();
        inst.with_labeling(labels)
    }

    #[test]
    fn erasures_are_detected_locally() {
        let li = honest_c6();
        let outcome = erase_and_run(&LocalDiff, &li, &[2]);
        // The erased node and its two neighbors reject.
        assert_eq!(
            outcome,
            ErasureOutcome {
                erased: 1,
                rejecting: 3
            }
        );
        let outcome = erase_and_run(&LocalDiff, &li, &[]);
        assert_eq!(outcome.rejecting, 0);
    }

    #[test]
    fn random_trials_reject_proportionally() {
        let li = honest_c6();
        let mut rng = StdRng::seed_from_u64(5);
        for outcome in random_erasure_trials(&LocalDiff, &li, 2, 20, &mut rng) {
            assert_eq!(outcome.erased, 2);
            assert!(
                outcome.rejecting >= 2,
                "each erasure rejects at least itself"
            );
        }
    }

    #[test]
    fn fault_free_communication_trials_reject_nothing() {
        let li = honest_c6();
        let outcomes = communication_fault_trials(&LocalDiff, &li, FaultRates::none(), 5, 3);
        assert_eq!(outcomes.len(), 5);
        for o in &outcomes {
            assert_eq!(o.rejecting, 0, "completeness holds on a clean channel");
            assert_eq!(o.stats.total(), 0);
        }
    }

    #[test]
    fn communication_fault_trials_are_deterministic_and_disruptive() {
        let li = honest_c6();
        let rates = FaultRates::uniform(0.4);
        let a = communication_fault_trials(&LocalDiff, &li, rates, 10, 7);
        let b = communication_fault_trials(&LocalDiff, &li, rates, 10, 7);
        assert_eq!(a, b, "same seed, identical trial batch");
        assert!(
            a.iter().any(|o| o.rejecting > 0),
            "a 40% fault rate must disturb some trial"
        );
        assert!(a.iter().all(|o| o.stats.total() > 0 || o.rejecting == 0));
    }

    #[test]
    fn strong_soundness_survives_erasures() {
        // An erased labeling is just a labeling: the accepting set still
        // induces a bipartite graph, even on a no-instance.
        let inst = Instance::canonical(generators::cycle(5));
        let labels = (0..5)
            .map(|v| crate::label::Certificate::from_byte((v % 2) as u8))
            .collect();
        let li = inst.clone().with_labeling(labels);
        let two_col = KCol::new(2);
        for targets in [vec![], vec![0], vec![1, 3], vec![0, 1, 2, 3, 4]] {
            let erased = erased_labeling(&li, &targets);
            assert!(strong::strong_holds_for(&LocalDiff, &two_col, &inst, &erased).is_ok());
        }
    }
}
