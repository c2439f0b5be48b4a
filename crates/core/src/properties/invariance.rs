//! Empirical anonymity and order-invariance checks (paper, Section 2.2).
//!
//! Because the runtime canonicalizes views to the decoder's declared
//! [`IdMode`], a decoder *cannot* depend on more
//! identifier information than declared. These checks run the other
//! direction: they certify that a decoder's observable behavior on a given
//! instance really is invariant under identifier permutations
//! (anonymity) or order-preserving remappings (order-invariance), which is
//! what the Lemma 6.2 reduction relies on.

use crate::decoder::{run, Decoder, Verdict};
use crate::instance::{Instance, LabeledInstance};
use crate::label::Labeling;
use crate::verify::{
    Coverage, DynPropertyCheck, ItemCtx, PropertyCheck, PropertyTag, SweepOutcome, SweepSession,
    Universe, UniverseItem,
};
use crate::view::IdMode;
use hiding_lcp_graph::IdAssignment;
use rand::seq::SliceRandom;
use rand::Rng;

/// A detected dependence on identifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvarianceViolation {
    /// The identifier assignment that changed some verdict.
    pub ids: IdAssignment,
    /// The node whose verdict changed.
    pub node: usize,
}

/// The invariance property as a sweepable check: each universe item is the
/// same labeled graph under a different identifier assignment, and a
/// violation is a verdict vector differing from the baseline. Stops at the
/// first divergence.
pub struct InvarianceCheck<'a, D: ?Sized> {
    /// The decoder under test.
    pub decoder: &'a D,
    /// The baseline verdicts on the original identifier assignment.
    pub base: Vec<Verdict>,
}

impl<'a, D: Decoder + ?Sized> InvarianceCheck<'a, D> {
    /// Records `decoder`'s baseline verdicts on `(instance, labeling)`.
    pub fn new(decoder: &'a D, instance: &Instance, labeling: &Labeling) -> Self {
        let base = run(
            decoder,
            &LabeledInstance::new(instance.clone(), labeling.clone()),
        );
        InvarianceCheck { decoder, base }
    }
}

impl<D: Decoder + ?Sized> PropertyCheck for InvarianceCheck<'_, D> {
    type Partial = InvarianceViolation;
    type Verdict = Result<(), InvarianceViolation>;

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        vec![(self.decoder.radius(), self.decoder.id_mode())]
    }

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<InvarianceViolation> {
        let verdicts = ctx.run(item, self.decoder);
        let first = 0;
        #[cfg(conformance_mutants)]
        let first = if crate::mutants::active("invariance_skips_node0") {
            1
        } else {
            first
        };
        (first..self.base.len())
            .find(|&v| self.base[v] != verdicts[v])
            .map(|node| InvarianceViolation {
                ids: item.instance.ids().clone(),
                node,
            })
    }

    fn short_circuits(&self, _violation: &InvarianceViolation) -> bool {
        true
    }

    fn reduce(
        &self,
        _universe: &Universe,
        partials: Vec<(usize, InvarianceViolation)>,
        _outcome: &SweepOutcome,
    ) -> Result<(), InvarianceViolation> {
        match partials.into_iter().next() {
            Some((_, violation)) => Err(violation),
            None => Ok(()),
        }
    }
}

/// [`InvarianceCheck`] as a panel member: the baseline verdicts on
/// `(instance, labeling)` are recorded at construction; the member keeps
/// a private verdict channel (every universe item carries a *different*
/// instance, so no delta-maintained vector applies). Pair it with a
/// materialized variant universe such as [`anonymity_universe`].
pub fn invariance_member<'a>(
    decoder: &'a dyn Decoder,
    instance: &Instance,
    labeling: &Labeling,
) -> DynPropertyCheck<'a> {
    DynPropertyCheck::with_summary(
        PropertyTag::Invariance,
        "invariance",
        InvarianceCheck::new(decoder, instance, labeling),
        |v: &Result<(), InvarianceViolation>, _| match v {
            Ok(()) => (Some(true), "verdicts unchanged under id remapping".into()),
            Err(viol) => (
                Some(false),
                format!("node {}'s verdict changed under an id remapping", viol.node),
            ),
        },
    )
}

/// A materialized universe of `samples` random identifier permutations of
/// `(instance, labeling)` — the anonymity condition's variants as flat
/// universe items, for fused panels and [`check_anonymous`].
/// Permutations are drawn up front from `rng`, one shuffle per variant.
pub fn anonymity_universe<R: Rng + ?Sized>(
    instance: &Instance,
    labeling: &Labeling,
    samples: usize,
    rng: &mut R,
) -> Universe {
    let variants: Vec<LabeledInstance> = (0..samples)
        .map(|_| {
            let mut perm: Vec<u64> = instance.ids().as_slice().to_vec();
            perm.shuffle(rng);
            let ids = IdAssignment::from_ids(perm, instance.ids().bound())
                .expect("permutation stays injective and bounded");
            id_variant(instance, labeling, ids)
        })
        .collect();
    Universe::from_labeled(variants, Coverage::Sampled)
        .expect("one item per materialized variant fits usize")
}

/// The labeled instance carrying one identifier variant.
fn id_variant(instance: &Instance, labeling: &Labeling, ids: IdAssignment) -> LabeledInstance {
    let alt = instance
        .replace_ids(ids)
        .expect("remapped ids fit the graph");
    LabeledInstance::new(alt, labeling.clone())
}

/// Checks that `decoder`'s verdicts on `(instance, labeling)` are
/// unchanged under `samples` random identifier **permutations** (the
/// anonymity condition of Section 2.2).
///
/// The permutations are [`anonymity_universe`]'s: all `samples` are drawn
/// from `rng` up front, so the RNG advances by `samples` shuffles whatever
/// the verdict; a violation names the first diverging variant.
pub fn check_anonymous<D: Decoder + ?Sized, R: Rng + ?Sized>(
    decoder: &D,
    instance: &Instance,
    labeling: &Labeling,
    samples: usize,
    rng: &mut R,
) -> Result<(), InvarianceViolation> {
    let universe = anonymity_universe(instance, labeling, samples, rng);
    SweepSession::over(&universe)
        .run(&InvarianceCheck::new(decoder, instance, labeling))
        .verdict
}

/// Checks that `decoder`'s verdicts are unchanged under `samples` random
/// **order-preserving** identifier remappings (the order-invariance
/// condition of Section 2.2).
///
/// All `samples` remappings are drawn from `rng` up front and swept as one
/// sampled universe, so the RNG advances by `samples` remappings whatever
/// the verdict; a violation names the first diverging variant.
pub fn check_order_invariant<D: Decoder + ?Sized, R: Rng + ?Sized>(
    decoder: &D,
    instance: &Instance,
    labeling: &Labeling,
    samples: usize,
    rng: &mut R,
) -> Result<(), InvarianceViolation> {
    let mut sorted: Vec<u64> = instance.ids().as_slice().to_vec();
    sorted.sort_unstable();
    let variants: Vec<LabeledInstance> = (0..samples)
        .map(|_| {
            // Random strictly increasing map: add strictly positive random
            // gaps in rank order.
            let mut image = Vec::with_capacity(sorted.len());
            let mut next = 0u64;
            for _ in &sorted {
                next += rng.random_range(1..=3u64);
                image.push(next);
            }
            let remap = |id: u64| {
                let rank = sorted.binary_search(&id).expect("id present");
                image[rank]
            };
            id_variant(
                instance,
                labeling,
                instance.ids().remap_order_preserving(remap),
            )
        })
        .collect();
    let universe = Universe::from_labeled(variants, Coverage::Sampled)
        .expect("one item per materialized variant fits usize");
    SweepSession::over(&universe)
        .run(&InvarianceCheck::new(decoder, instance, labeling))
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

    /// Accepts iff the center has the numerically largest id it can see —
    /// order-invariant but not anonymous.
    struct LocalMax;
    impl Decoder for LocalMax {
        fn name(&self) -> String {
            "local-max".into()
        }
        fn radius(&self) -> usize {
            1
        }
        fn id_mode(&self) -> IdMode {
            IdMode::Full
        }
        fn decide(&self, view: &View) -> Verdict {
            let me = view.center_id().expect("full mode");
            Verdict::from(
                view.center_arcs()
                    .iter()
                    .all(|arc| view.node(arc.to).id.expect("full mode") < me),
            )
        }
    }

    /// Accepts iff the center's id is even — not even order-invariant.
    struct EvenId;
    impl Decoder for EvenId {
        fn name(&self) -> String {
            "even-id".into()
        }
        fn radius(&self) -> usize {
            1
        }
        fn id_mode(&self) -> IdMode {
            IdMode::Full
        }
        fn decide(&self, view: &View) -> Verdict {
            Verdict::from(view.center_id().expect("full mode").is_multiple_of(2))
        }
    }

    #[test]
    fn local_max_is_order_invariant_but_not_anonymous() {
        let inst = Instance::canonical(generators::path(4));
        let labeling = Labeling::empty(4);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(check_order_invariant(&LocalMax, &inst, &labeling, 20, &mut rng).is_ok());
        assert!(check_anonymous(&LocalMax, &inst, &labeling, 50, &mut rng).is_err());
    }

    #[test]
    fn even_id_is_not_order_invariant() {
        let inst = Instance::canonical(generators::path(4));
        let labeling = Labeling::empty(4);
        let mut rng = StdRng::seed_from_u64(2);
        let violation = check_order_invariant(&EvenId, &inst, &labeling, 50, &mut rng)
            .expect_err("parity of ids is not order-invariant");
        assert!(violation.node < 4);
    }

    #[test]
    fn check_anonymous_sweeps_the_anonymity_universe() {
        use rand::RngCore;
        let inst = Instance::canonical(generators::path(4));
        let labeling = Labeling::empty(4);
        let samples = 30;
        let mut reference = StdRng::seed_from_u64(4);
        let universe = anonymity_universe(&inst, &labeling, samples, &mut reference);
        // The first variant whose verdicts differ from the canonical ids'.
        let base = run(&LocalMax, &inst.clone().with_labeling(labeling.clone()));
        let first = (0..universe.len()).find_map(|i| {
            let variant = universe.labeled_instance(i);
            let verdicts = run(&LocalMax, &variant);
            (0..4)
                .find(|&v| verdicts[v] != base[v])
                .map(|node| InvarianceViolation {
                    ids: variant.instance().ids().clone(),
                    node,
                })
        });
        assert!(first.is_some(), "local-max reads identifier values");
        let mut used = StdRng::seed_from_u64(4);
        let verdict = check_anonymous(&LocalMax, &inst, &labeling, samples, &mut used);
        assert_eq!(verdict.err(), first);
        // Both drew the same `samples` shuffles from the seed.
        assert_eq!(used.next_u64(), reference.next_u64());
    }

    #[test]
    fn anonymous_decoders_pass_by_construction() {
        struct ConstAccept;
        impl Decoder for ConstAccept {
            fn name(&self) -> String {
                "const".into()
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
        let inst = Instance::canonical(generators::cycle(5));
        let labeling = Labeling::empty(5);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(check_anonymous(&ConstAccept, &inst, &labeling, 20, &mut rng).is_ok());
        assert!(check_order_invariant(&ConstAccept, &inst, &labeling, 20, &mut rng).is_ok());
    }
}
