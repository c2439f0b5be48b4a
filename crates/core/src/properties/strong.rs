//! Strong (promise) soundness: for every instance and every labeling, the
//! subgraph induced by the accepting nodes lies in `G(L)`
//! (paper, Sections 2.3 and 2.5).
//!
//! The quantification over labelings runs on the [`crate::verify`] engine
//! via [`StrongCheck`]; `check_strong_*` construct the matching universes.

use crate::decoder::Decoder;
use crate::instance::Instance;
use crate::label::{Certificate, Labeling};
use crate::language::KCol;
use crate::prover::random_labeling;
use crate::verify::{
    Coverage, DynPropertyCheck, ExecMode, ItemCtx, PropertyCheck, PropertyTag, SweepBudget,
    SweepOutcome, SweepSession, SymmetrySpec, Universe, UniverseItem, VerificationReport,
};
use crate::view::IdMode;
use rand::Rng;

/// A strong-soundness violation: the accepting set induces a non-member of
/// `G(L)` — for 2-col, a subgraph containing an odd cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrongViolation {
    /// The offending labeling.
    pub labeling: Labeling,
    /// The accepting nodes (original indices, sorted).
    pub accepting: Vec<usize>,
}

/// The strong-soundness property as a sweepable check: an item violates
/// iff its accepting set induces a graph outside `G(L)`. Short-circuits on
/// the first (lowest-index) violation.
///
/// On a graph of at most 64 nodes the accepting set is a `u64` mask and
/// [`KCol::is_yes_within`] decides it without building the induced
/// subgraph, so a non-violating inspection allocates nothing when k ≤ 2
/// (on the delta path, where the verdicts are the channel's); the
/// accepting list and the [`StrongViolation`] are built only for a
/// violating item. A wider graph induces the subgraph and colors it.
pub struct StrongCheck<'a, D: ?Sized> {
    /// The decoder under test.
    pub decoder: &'a D,
    /// The language whose graph class the accepting set must stay inside.
    pub language: &'a KCol,
}

impl<D: Decoder + ?Sized> PropertyCheck for StrongCheck<'_, D> {
    type Partial = StrongViolation;
    type Verdict = Result<usize, StrongViolation>;

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        vec![(self.decoder.radius(), self.decoder.id_mode())]
    }

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<StrongViolation> {
        let verdicts = ctx.verdicts(item, self.decoder);
        let accepts = verdicts.iter().enumerate().filter(|(_, v)| v.is_accept());
        let graph = item.instance.graph();
        let violation = |accepting| StrongViolation {
            labeling: item.labeling.clone(),
            accepting,
        };
        if graph.node_count() > 64 {
            let accepting: Vec<usize> = accepts.map(|(v, _)| v).collect();
            let (induced, _) = graph.induced(&accepting);
            return (!self.language.is_yes_graph(&induced)).then(|| violation(accepting));
        }
        #[cfg_attr(not(conformance_mutants), allow(unused_mut))]
        let mut mask = accepts.fold(0u64, |mask, (v, _)| mask | 1 << v);
        #[cfg(conformance_mutants)]
        if crate::mutants::active("strong_drops_last_acceptor") && mask != 0 {
            mask &= !(1 << (63 - mask.leading_zeros()));
        }
        (!self.language.is_yes_within(graph, mask))
            .then(|| violation((0..64).filter(|&v| mask >> v & 1 == 1).collect()))
    }

    fn verdict_decoder(&self) -> Option<&dyn Decoder> {
        Some(&self.decoder)
    }

    fn short_circuits(&self, _partial: &StrongViolation) -> bool {
        true
    }

    // A port automorphism maps the accepting set to its image, whose
    // induced subgraph is isomorphic -- and `KCol::is_yes_graph`
    // (k-colorability) is isomorphism-invariant; decoder-equivalent
    // certificate swaps leave the accepting set untouched.
    fn symmetry_class(&self, alphabet: &[Certificate]) -> Option<SymmetrySpec> {
        (self.decoder.id_mode() == IdMode::Anonymous).then(|| SymmetrySpec {
            automorphisms: true,
            alphabet_classes: self.decoder.label_classes(alphabet),
        })
    }

    fn reduce(
        &self,
        _universe: &Universe,
        partials: Vec<(usize, StrongViolation)>,
        outcome: &SweepOutcome,
    ) -> Result<usize, StrongViolation> {
        match partials.into_iter().next() {
            Some((_, violation)) => Err(violation),
            None => Ok(outcome.checked),
        }
    }
}

/// [`StrongCheck`] as a panel member: joined to `decoder`'s verdict
/// channel, so a fused audit maintains one delta-evaluated verdict vector
/// for every member built on the same decoder object.
pub fn strong_member<'a>(decoder: &'a dyn Decoder, language: &'a KCol) -> DynPropertyCheck<'a> {
    DynPropertyCheck::with_summary(
        PropertyTag::Strong,
        "strong",
        StrongCheck { decoder, language },
        |v: &Result<usize, StrongViolation>, _| match v {
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
    .with_channel(decoder)
}

/// Checks whether one labeled instance satisfies the strong condition:
/// the accepting set must induce a graph in `G(k-col)`.
pub fn strong_holds_for<D: Decoder + ?Sized>(
    decoder: &D,
    language: &KCol,
    instance: &Instance,
    labeling: &Labeling,
) -> Result<(), StrongViolation> {
    let (radius, id_mode) = (decoder.radius(), decoder.id_mode());
    let accepting: Vec<usize> = instance
        .graph()
        .nodes()
        .filter(|&v| {
            decoder
                .decide(&instance.view(labeling, v, radius, id_mode))
                .is_accept()
        })
        .collect();
    let (induced, _) = instance.graph().induced(&accepting);
    if language.is_yes_graph(&induced) {
        Ok(())
    } else {
        Err(StrongViolation {
            labeling: labeling.clone(),
            accepting,
        })
    }
}

/// Exhaustive strong-soundness check over all labelings from `alphabet`.
/// Unlike plain soundness, strong soundness quantifies over **every**
/// graph, so callers should feed both yes- and no-instances.
///
/// # Panics
///
/// As [`check_strong_exhaustive_with`]: when `|alphabet|^n` overflows
/// `usize`.
pub fn check_strong_exhaustive<D: Decoder + ?Sized>(
    decoder: &D,
    language: &KCol,
    instance: &Instance,
    alphabet: &[Certificate],
) -> Result<usize, StrongViolation> {
    check_strong_exhaustive_with(
        decoder,
        language,
        instance,
        alphabet,
        ExecMode::Auto,
        &SweepBudget::unlimited(),
    )
    .verdict
}

/// [`check_strong_exhaustive`] with explicit execution control: the sweep
/// runs in `mode` under `budget`, and the full [`VerificationReport`] is
/// returned so callers can see the achieved coverage, interruption status
/// and any caught inspection panics. An exhausted budget yields a partial
/// verdict with [`Coverage::Sampled`] — explicitly *not* a proof of
/// strong soundness.
///
/// # Panics
///
/// Panics with "too many labelings for an exhaustive check" when
/// `|alphabet|^n` overflows `usize`: the walk could not address every
/// labeling, so it does not start.
pub fn check_strong_exhaustive_with<D: Decoder + ?Sized>(
    decoder: &D,
    language: &KCol,
    instance: &Instance,
    alphabet: &[Certificate],
    mode: ExecMode,
    budget: &SweepBudget,
) -> VerificationReport<Result<usize, StrongViolation>> {
    let universe =
        Universe::all_labelings_of(instance.clone(), alphabet.to_vec(), Coverage::Exhaustive)
            .expect("too many labelings for an exhaustive check");
    SweepSession::over(&universe)
        .mode(mode)
        .budget(*budget)
        .run(&StrongCheck { decoder, language })
}

/// Randomized strong-soundness check over `samples` random labelings.
///
/// All `samples` labelings are drawn from `rng` up front, in order, and
/// swept as one sampled universe, so the RNG advances by `samples` draws
/// whatever the verdict; a violation is the first violating draw.
///
/// # Panics
///
/// Panics if `alphabet` is empty.
pub fn check_strong_random<D: Decoder + ?Sized, R: Rng + ?Sized>(
    decoder: &D,
    language: &KCol,
    instance: &Instance,
    alphabet: &[Certificate],
    samples: usize,
    rng: &mut R,
) -> Result<usize, StrongViolation> {
    let n = instance.graph().node_count();
    let labelings = (0..samples)
        .map(|_| random_labeling(n, alphabet, rng))
        .collect();
    let universe = Universe::labelings_of(instance.clone(), labelings, Coverage::Sampled)
        .expect("materialized labelings fit usize");
    SweepSession::over(&universe)
        .run(&StrongCheck { decoder, language })
        .verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::Verdict;
    use crate::view::{IdMode, View};
    use hiding_lcp_graph::generators;

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

    /// Accepts everything — violates strong soundness on any odd cycle.
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
    fn local_diff_is_strong_with_binary_alphabet() {
        // Accepting nodes of local-diff under a 2-letter alphabet carry a
        // locally proper 2-coloring, so the accepting set is bipartite.
        let two_col = KCol::new(2);
        for g in [
            generators::cycle(5),
            generators::complete(4),
            generators::cycle(6),
        ] {
            let inst = Instance::canonical(g);
            assert!(check_strong_exhaustive(&LocalDiff, &two_col, &inst, &bits()).is_ok());
        }
    }

    #[test]
    fn yes_man_violates_strong_soundness() {
        let two_col = KCol::new(2);
        let c3 = Instance::canonical(generators::cycle(3));
        let violation =
            check_strong_exhaustive(&YesMan, &two_col, &c3, &bits()).expect_err("violated");
        assert_eq!(violation.accepting, vec![0, 1, 2]);
    }

    #[test]
    fn graphs_past_the_mask_width_induce_the_subgraph() {
        // 65 nodes do not fit the accepting mask: the check builds the
        // induced subgraph, and reports the same violation as the mask
        // path does on a graph that fits.
        let two_col = KCol::new(2);
        let one = [Certificate::from_byte(0)];
        for n in [63, 65] {
            let cycle = Instance::canonical(generators::cycle(n));
            let violation =
                check_strong_exhaustive(&YesMan, &two_col, &cycle, &one).expect_err("odd cycle");
            assert_eq!(violation.accepting, (0..n).collect::<Vec<_>>());
            assert_eq!(violation.labeling, Labeling::uniform(n, one[0].clone()));
            let even = Instance::canonical(generators::cycle(n + 1));
            assert_eq!(
                check_strong_exhaustive(&YesMan, &two_col, &even, &one),
                Ok(1)
            );
        }
    }

    #[test]
    fn budgeted_strong_check_degrades_explicitly() {
        let two_col = KCol::new(2);
        let c5 = Instance::canonical(generators::cycle(5));
        let full = check_strong_exhaustive_with(
            &LocalDiff,
            &two_col,
            &c5,
            &bits(),
            ExecMode::Sequential,
            &SweepBudget::unlimited(),
        );
        assert_eq!(full.verdict, Ok(32));
        assert_eq!(full.coverage, Coverage::Exhaustive);
        let partial = check_strong_exhaustive_with(
            &LocalDiff,
            &two_col,
            &c5,
            &bits(),
            ExecMode::Sequential,
            &SweepBudget::unlimited().with_max_items(8),
        );
        assert_eq!(partial.verdict, Ok(8));
        assert_eq!(partial.coverage, Coverage::Sampled);
        assert!(partial.interrupted);
    }

    #[test]
    #[should_panic(expected = "too many labelings for an exhaustive check")]
    fn oversized_exhaustive_check_does_not_start() {
        let c65 = Instance::canonical(generators::cycle(65));
        let _ = check_strong_exhaustive(&YesMan, &KCol::new(2), &c65, &bits());
    }

    #[test]
    fn random_check_draws_every_sample_and_reports_the_first_violation() {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        // Over three letters local-diff accepts all of C3, a triangle,
        // exactly on its proper 3-colorings; a smaller accepting set
        // induces a bipartite graph.
        let two_col = KCol::new(2);
        let c3 = Instance::canonical(generators::cycle(3));
        let letters: Vec<Certificate> = (0..3).map(Certificate::from_byte).collect();
        let samples = 40;
        let mut used = StdRng::seed_from_u64(7);
        let violation =
            check_strong_random(&LocalDiff, &two_col, &c3, &letters, samples, &mut used)
                .expect_err("a proper 3-coloring among the draws");
        let mut reference = StdRng::seed_from_u64(7);
        let draws: Vec<Labeling> = (0..samples)
            .map(|_| random_labeling(3, &letters, &mut reference))
            .collect();
        let first = draws
            .iter()
            .position(|l| strong_holds_for(&LocalDiff, &two_col, &c3, l).is_err())
            .expect("the reference stream violates too");
        assert!(first > 0, "the seed's first draw is not the violation");
        assert_eq!(violation.labeling, draws[first]);
        assert_eq!(violation.accepting, vec![0, 1, 2]);
        // The check drew all `samples` labelings, not `first + 1`.
        assert_eq!(used.next_u64(), reference.next_u64());
    }

    #[test]
    fn strong_holds_for_single_labeling() {
        let two_col = KCol::new(2);
        let c3 = Instance::canonical(generators::cycle(3));
        let l = Labeling::uniform(3, Certificate::from_byte(0));
        assert!(strong_holds_for(&LocalDiff, &two_col, &c3, &l).is_ok());
        assert!(strong_holds_for(&YesMan, &two_col, &c3, &l).is_err());
    }
}
