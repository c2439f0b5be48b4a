//! Soundness: on no-instances every labeling is rejected by at least one
//! node (paper, Section 2.2).
//!
//! The search over labelings runs on the [`crate::verify`] engine:
//! [`SoundnessCheck`] is the [`PropertyCheck`] (a short-circuiting hunt for
//! a unanimously accepted labeling), and the `check_soundness_*` functions
//! below are thin constructors of the matching [`Universe`].

use crate::decoder::Decoder;
use crate::instance::Instance;
use crate::label::{Certificate, Labeling};
use crate::prover::{all_labelings, random_labeling};
use crate::verify::{
    Coverage, DynPropertyCheck, ExecMode, ItemCtx, LazySweep, PropertyCheck, PropertyTag,
    SweepBudget, SweepOutcome, SweepSession, SymmetrySpec, Universe, UniverseItem,
    VerificationReport,
};
use crate::view::IdMode;
use rand::Rng;

/// A soundness violation: a labeling of a no-instance accepted by every
/// node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoundnessViolation {
    /// The unanimously accepted labeling.
    pub labeling: Labeling,
}

/// The soundness property as a sweepable check: an item violates iff every
/// node accepts it. Short-circuits on the first (lowest-index) violation.
pub struct SoundnessCheck<'a, D: ?Sized> {
    /// The decoder under test.
    pub decoder: &'a D,
}

impl<D: Decoder + ?Sized> PropertyCheck for SoundnessCheck<'_, D> {
    type Partial = SoundnessViolation;
    type Verdict = Result<usize, SoundnessViolation>;

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        vec![(self.decoder.radius(), self.decoder.id_mode())]
    }

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<SoundnessViolation> {
        ctx.verdicts(item, self.decoder)
            .iter()
            .all(|v| v.is_accept())
            .then(|| SoundnessViolation {
                labeling: item.labeling.clone(),
            })
    }

    fn verdict_decoder(&self) -> Option<&dyn Decoder> {
        Some(&self.decoder)
    }

    fn short_circuits(&self, _partial: &SoundnessViolation) -> bool {
        true
    }

    // Unanimous acceptance is invariant under any port-preserving
    // relabeling of an anonymous decoder's input (each node's view under
    // the permuted labeling equals some node's view under the original)
    // and under decoder-equivalent certificate swaps.
    fn symmetry_class(&self, alphabet: &[Certificate]) -> Option<SymmetrySpec> {
        (self.decoder.id_mode() == IdMode::Anonymous).then(|| SymmetrySpec {
            automorphisms: true,
            alphabet_classes: self.decoder.label_classes(alphabet),
        })
    }

    fn reduce(
        &self,
        _universe: &Universe,
        partials: Vec<(usize, SoundnessViolation)>,
        outcome: &SweepOutcome,
    ) -> Result<usize, SoundnessViolation> {
        match partials.into_iter().next() {
            Some((_, violation)) => Err(violation),
            None => Ok(outcome.checked),
        }
    }
}

/// [`SoundnessCheck`] as a panel member: joined to `decoder`'s verdict
/// channel, so a fused audit maintains one delta-evaluated verdict vector
/// for every member built on the same decoder object.
pub fn soundness_member(decoder: &dyn Decoder) -> DynPropertyCheck<'_> {
    DynPropertyCheck::with_summary(
        PropertyTag::Soundness,
        "soundness",
        SoundnessCheck { decoder },
        |v: &Result<usize, SoundnessViolation>, _| match v {
            Ok(n) => (Some(true), format!("no unanimous accept in {n} labelings")),
            Err(_) => (Some(false), "unanimously accepted labeling found".into()),
        },
    )
    .with_channel(decoder)
}

/// Exhaustively checks soundness of `decoder` on the (no-instance)
/// `instance` over all labelings from `alphabet`.
///
/// Returns the first violation found, or `Ok(checked)` with the number of
/// labelings examined. The caller must ensure `instance` is a genuine
/// no-instance (e.g. non-bipartite for 2-col); this function only hunts
/// for unanimous acceptance.
pub fn check_soundness_exhaustive<D: Decoder + ?Sized>(
    decoder: &D,
    instance: &Instance,
    alphabet: &[Certificate],
) -> Result<usize, SoundnessViolation> {
    check_soundness_exhaustive_with(
        decoder,
        instance,
        alphabet,
        ExecMode::Auto,
        &SweepBudget::unlimited(),
    )
    .verdict
}

/// [`check_soundness_exhaustive`] with explicit execution control: the
/// sweep runs in `mode` under `budget`, and the full
/// [`VerificationReport`] is returned so callers can see the achieved
/// coverage, interruption status and any caught inspection panics. An
/// exhausted budget yields a partial verdict with
/// [`Coverage::Sampled`] — explicitly *not* a proof of soundness.
pub fn check_soundness_exhaustive_with<D: Decoder + ?Sized>(
    decoder: &D,
    instance: &Instance,
    alphabet: &[Certificate],
    mode: ExecMode,
    budget: &SweepBudget,
) -> VerificationReport<Result<usize, SoundnessViolation>> {
    let check = SoundnessCheck { decoder };
    match Universe::all_labelings_of(instance.clone(), alphabet.to_vec(), Coverage::Exhaustive) {
        Ok(universe) => SweepSession::over(&universe)
            .mode(mode)
            .budget(*budget)
            .run(&check),
        // |alphabet|^n overflows the flat index space; iterate lazily
        // instead (necessarily sequential, still budgeted), which a
        // violation can still end early.
        Err(_) => LazySweep::of(instance, Coverage::Exhaustive)
            .budget(*budget)
            .run(
                &check,
                all_labelings(instance.graph().node_count(), alphabet),
            ),
    }
}

/// Randomized soundness check: up to `samples` uniformly random labelings
/// over `alphabet`.
///
/// Labelings are drawn from `rng` one at a time and drawing stops at the
/// first violation, so the RNG advances exactly once per labeling actually
/// checked — the same stream a caller observed from the pre-engine loop.
///
/// # Panics
///
/// Panics if `alphabet` is empty.
pub fn check_soundness_random<D: Decoder + ?Sized, R: Rng + ?Sized>(
    decoder: &D,
    instance: &Instance,
    alphabet: &[Certificate],
    samples: usize,
    rng: &mut R,
) -> Result<usize, SoundnessViolation> {
    let n = instance.graph().node_count();
    LazySweep::of(instance, Coverage::Sampled)
        .run(
            &SoundnessCheck { decoder },
            (0..samples).map(|_| random_labeling(n, alphabet, rng)),
        )
        .verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::Verdict;
    use crate::view::{IdMode, View};
    use hiding_lcp_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Accepts iff the node's certificate differs from all neighbors'.
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
            let mine = view.center_label();
            Verdict::from(
                view.center_arcs()
                    .iter()
                    .all(|arc| view.node(arc.to).label != *mine),
            )
        }
    }

    /// Accepts everything.
    struct YesMan;
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

    fn bits() -> Vec<Certificate> {
        vec![Certificate::from_byte(0), Certificate::from_byte(1)]
    }

    #[test]
    fn local_diff_is_sound_on_odd_cycles_with_two_labels() {
        // With a 2-letter alphabet, local-diff accepts exactly the proper
        // 2-colorings, and C5 has none.
        let c5 = Instance::canonical(generators::cycle(5));
        let checked = check_soundness_exhaustive(&LocalDiff, &c5, &bits()).expect("sound");
        assert_eq!(checked, 32);
    }

    #[test]
    fn yes_man_is_unsound() {
        let c3 = Instance::canonical(generators::cycle(3));
        let violation = check_soundness_exhaustive(&YesMan, &c3, &bits()).expect_err("unsound");
        assert_eq!(violation.labeling.node_count(), 3);
    }

    #[test]
    fn first_violation_is_the_lowest_indexed_labeling() {
        // YesMan accepts everything, so the violation must be the very
        // first labeling in `all_labelings` order: all-zero.
        let c3 = Instance::canonical(generators::cycle(3));
        let violation = check_soundness_exhaustive(&YesMan, &c3, &bits()).expect_err("unsound");
        assert_eq!(
            violation.labeling,
            Labeling::uniform(3, Certificate::from_byte(0))
        );
    }

    #[test]
    fn randomized_check_finds_easy_violations() {
        let c3 = Instance::canonical(generators::cycle(3));
        let mut rng = StdRng::seed_from_u64(3);
        assert!(check_soundness_random(&YesMan, &c3, &bits(), 10, &mut rng).is_err());
        assert!(check_soundness_random(&LocalDiff, &c3, &bits(), 50, &mut rng).is_ok());
    }

    #[test]
    fn oversized_exhaustive_check_still_short_circuits() {
        // 2^65 labelings overflow the flat-indexed universe, but the lazy
        // fallback still finds YesMan's violation at the very first one.
        let c65 = Instance::canonical(generators::cycle(65));
        let violation = check_soundness_exhaustive(&YesMan, &c65, &bits()).expect_err("unsound");
        assert_eq!(
            violation.labeling,
            Labeling::uniform(65, Certificate::from_byte(0))
        );
    }

    #[test]
    fn random_check_draws_stop_at_first_violation() {
        use rand::RngCore;
        let c3 = Instance::canonical(generators::cycle(3));
        let mut used = StdRng::seed_from_u64(7);
        check_soundness_random(&YesMan, &c3, &bits(), 10, &mut used)
            .expect_err("violation at the first sample");
        // The RNG advanced by exactly one drawn labeling, not ten — the
        // pre-engine stream.
        let mut reference = StdRng::seed_from_u64(7);
        let _ = random_labeling(3, &bits(), &mut reference);
        assert_eq!(used.next_u64(), reference.next_u64());
    }

    #[test]
    fn budgeted_soundness_check_degrades_explicitly() {
        let c5 = Instance::canonical(generators::cycle(5));
        // Unlimited budget: full exhaustive verdict with full coverage.
        let full = check_soundness_exhaustive_with(
            &LocalDiff,
            &c5,
            &bits(),
            ExecMode::Sequential,
            &SweepBudget::unlimited(),
        );
        assert_eq!(full.verdict, Ok(32));
        assert_eq!(full.coverage, Coverage::Exhaustive);
        assert!(!full.interrupted);
        // A 10-item budget interrupts: partial verdict, sampled coverage.
        let partial = check_soundness_exhaustive_with(
            &LocalDiff,
            &c5,
            &bits(),
            ExecMode::Sequential,
            &SweepBudget::unlimited().with_max_items(10),
        );
        assert_eq!(partial.verdict, Ok(10));
        assert_eq!(partial.coverage, Coverage::Sampled);
        assert!(partial.interrupted);
    }
}
