//! Strong (promise) soundness: for every instance and every labeling, the
//! subgraph induced by the accepting nodes lies in `G(L)`
//! (paper, Sections 2.3 and 2.5).
//!
//! The quantification over labelings runs on the [`crate::verify`] engine
//! via [`StrongCheck`]; `check_strong_*` construct the matching universes.

use crate::decoder::{Decoder, Verdict};
use crate::instance::Instance;
use crate::label::{Certificate, Labeling};
use crate::language::KCol;
use crate::prover::{all_labelings, random_labeling};
use crate::verify::{
    Coverage, DynPropertyCheck, ExecMode, ItemCtx, LazySweep, PropertyCheck, PropertyTag,
    SweepBudget, SweepOutcome, SweepSession, SymmetrySpec, Universe, UniverseItem,
    VerificationReport,
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
        let accepting: Vec<usize> = ctx
            .run(item, self.decoder)
            .into_iter()
            .enumerate()
            .filter_map(|(v, verdict)| verdict.is_accept().then_some(v))
            .collect();
        #[cfg(conformance_mutants)]
        let accepting = {
            let mut accepting = accepting;
            if crate::mutants::active("strong_drops_last_acceptor") {
                accepting.pop();
            }
            accepting
        };
        let (induced, _) = item.instance.graph().induced(&accepting);
        (!self.language.is_yes_graph(&induced)).then(|| StrongViolation {
            labeling: item.labeling.clone(),
            accepting,
        })
    }

    fn verdict_decoder(&self) -> Option<&dyn Decoder> {
        Some(&self.decoder)
    }

    fn inspect_with_verdicts(
        &self,
        item: &UniverseItem<'_>,
        verdicts: &[Verdict],
        _ctx: &ItemCtx<'_>,
    ) -> Option<StrongViolation> {
        let accepting: Vec<usize> = verdicts
            .iter()
            .enumerate()
            .filter_map(|(v, verdict)| verdict.is_accept().then_some(v))
            .collect();
        #[cfg(conformance_mutants)]
        let accepting = {
            let mut accepting = accepting;
            if crate::mutants::active("strong_drops_last_acceptor") {
                accepting.pop();
            }
            accepting
        };
        let (induced, _) = item.instance.graph().induced(&accepting);
        (!self.language.is_yes_graph(&induced)).then(|| StrongViolation {
            labeling: item.labeling.clone(),
            accepting,
        })
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
        |v: &Result<usize, StrongViolation>| match v {
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
pub fn check_strong_exhaustive_with<D: Decoder + ?Sized>(
    decoder: &D,
    language: &KCol,
    instance: &Instance,
    alphabet: &[Certificate],
    mode: ExecMode,
    budget: &SweepBudget,
) -> VerificationReport<Result<usize, StrongViolation>> {
    let check = StrongCheck { decoder, language };
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

/// Randomized strong-soundness check over up to `samples` random
/// labelings.
///
/// Labelings are drawn from `rng` one at a time and drawing stops at the
/// first violation, so the RNG advances exactly once per labeling actually
/// checked — the same stream a caller observed from the pre-engine loop.
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
    LazySweep::of(instance, Coverage::Sampled)
        .run(
            &StrongCheck { decoder, language },
            (0..samples).map(|_| random_labeling(n, alphabet, rng)),
        )
        .verdict
}

/// Checks a batch of explicit labelings.
pub fn check_strong_labelings<'a, D: Decoder + ?Sized>(
    decoder: &D,
    language: &KCol,
    instance: &Instance,
    labelings: impl IntoIterator<Item = &'a Labeling>,
) -> Result<usize, StrongViolation> {
    let labelings: Vec<Labeling> = labelings.into_iter().cloned().collect();
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
    fn strong_holds_for_single_labeling() {
        let two_col = KCol::new(2);
        let c3 = Instance::canonical(generators::cycle(3));
        let l = Labeling::uniform(3, Certificate::from_byte(0));
        assert!(strong_holds_for(&LocalDiff, &two_col, &c3, &l).is_ok());
        assert!(strong_holds_for(&YesMan, &two_col, &c3, &l).is_err());
    }
}
