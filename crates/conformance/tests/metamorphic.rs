//! Metamorphic suites: verdicts must be invariant under node renaming
//! (graph isomorphism carrying ports and identifiers), certificate-
//! alphabet bijections, identifier remappings, and must compose across
//! disjoint union — each relation exercised through the production engine
//! under both sweep strategies.

use hiding_lcp_conformance::meta;
use hiding_lcp_conformance::oracle;
use hiding_lcp_conformance::parity_threads;
use hiding_lcp_conformance::probes::{bits, LocalDiff, TriangleSpotter, YesMan};
use hiding_lcp_core::decoder::{self, Decoder};
use hiding_lcp_core::instance::Instance;
use hiding_lcp_core::label::{Certificate, Labeling};
use hiding_lcp_core::language::KCol;
use hiding_lcp_core::lower::PortObliviousCycleDecoder;
use hiding_lcp_core::properties::soundness::SoundnessCheck;
use hiding_lcp_core::properties::strong::check_strong_exhaustive;
use hiding_lcp_core::verify::{Coverage, ExecMode, SweepSession, SweepStrategy, Universe};
use hiding_lcp_graph::canon::are_isomorphic;
use hiding_lcp_graph::generators;
use proptest::prelude::*;

fn modes() -> [ExecMode; 2] {
    [ExecMode::Sequential, ExecMode::Parallel(parity_threads())]
}

fn strategies() -> [SweepStrategy; 2] {
    [SweepStrategy::DeltaStepping, SweepStrategy::DecodeOracle]
}

/// A handful of permutations of `0..n` (identity, reversal, rotation).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let identity: Vec<usize> = (0..n).collect();
    let reversal: Vec<usize> = (0..n).rev().collect();
    let rotation: Vec<usize> = (0..n).map(|v| (v + 1) % n).collect();
    vec![identity, reversal, rotation]
}

/// Node renaming permutes per-node verdicts: node `perm[v]` of the image
/// decides exactly as node `v` of the original, for decoders of every
/// radius and id sensitivity the transform claims to preserve.
#[test]
fn renaming_permutes_verdicts() {
    for g in [
        generators::cycle(5),
        generators::path(4),
        generators::star(3),
    ] {
        let n = g.node_count();
        let instance = Instance::canonical(g);
        for perm in permutations(n) {
            let image = meta::permuted(&instance, &perm);
            assert!(
                are_isomorphic(instance.graph(), image.graph()),
                "renaming preserves the graph up to isomorphism"
            );
            for labeling in oracle::all_labelings(n, &bits()) {
                let image_labeling = meta::permuted_labeling(&labeling, &perm);
                for decoder in [&LocalDiff as &dyn Decoder, &TriangleSpotter] {
                    let original = oracle::run_by_definition(decoder, &instance, &labeling);
                    let renamed = oracle::run_by_definition(decoder, &image, &image_labeling);
                    for v in 0..n {
                        assert_eq!(
                            original[v], renamed[perm[v]],
                            "node {v} changed verdict under renaming {perm:?}"
                        );
                    }
                }
            }
        }
    }
}

/// Aggregate soundness verdicts are invariant under renaming: the count of
/// unanimously accepted labelings is a graph invariant, and the engine
/// agrees on the renamed instance under every strategy.
#[test]
fn renaming_preserves_unanimous_counts() {
    let instance = Instance::canonical(generators::cycle(5));
    let baseline = oracle::unanimous_count(&LocalDiff, &instance, &bits());
    for perm in permutations(5) {
        let image = meta::permuted(&instance, &perm);
        assert_eq!(
            oracle::unanimous_count(&LocalDiff, &image, &bits()),
            baseline,
            "unanimous-acceptance count drifted under {perm:?}"
        );
        let universe = Universe::all_labelings_of(image.clone(), bits(), Coverage::Exhaustive)
            .expect("32 labelings fit");
        let check = SoundnessCheck {
            decoder: &LocalDiff,
        };
        for mode in modes() {
            for strategy in strategies() {
                let report = SweepSession::over(&universe)
                    .mode(mode)
                    .strategy(strategy)
                    .run(&check);
                assert_eq!(
                    report.verdict.is_err(),
                    baseline > 0,
                    "engine soundness verdict drifted under renaming"
                );
            }
        }
    }
}

/// Swapping the two certificates of the binary alphabet is a bijection the
/// paper's equality-comparing decoders cannot observe: every per-node
/// verdict survives, and so does the strong-soundness verdict.
#[test]
fn alphabet_bijection_preserves_verdicts() {
    let (zero, one) = (Certificate::from_byte(0), Certificate::from_byte(1));
    for g in [
        generators::cycle(4),
        generators::cycle(5),
        generators::path(4),
    ] {
        let n = g.node_count();
        let instance = Instance::canonical(g);
        for labeling in oracle::all_labelings(n, &bits()) {
            let swapped = meta::swap_certs(&labeling, &zero, &one);
            assert_eq!(
                oracle::run_by_definition(&LocalDiff, &instance, &labeling),
                oracle::run_by_definition(&LocalDiff, &instance, &swapped),
                "local-diff observed the alphabet bijection"
            );
        }
        let violation = check_strong_exhaustive(&LocalDiff, &KCol::new(2), &instance, &bits());
        let swapped_violation = match check_strong_exhaustive(
            &LocalDiff,
            &KCol::new(2),
            &instance,
            &[one.clone(), zero.clone()],
        ) {
            // The swapped alphabet enumerates the same labelings in a
            // different order, so compare outcomes, not witnesses.
            Ok(count) => Ok(count),
            Err(v) => Err(v.accepting.len()),
        };
        match violation {
            Ok(count) => assert_eq!(swapped_violation, Ok(count)),
            Err(v) => {
                // A violating labeling maps to a violating labeling with
                // an accepting set of the same size (the swap is applied
                // nodewise, verdicts are preserved pointwise).
                assert_eq!(swapped_violation, Err(v.accepting.len()));
            }
        }
    }
}

/// Identifier remapping is invisible to anonymous decoders (the
/// anonymity half of Section 2.2), oracle and engine alike.
#[test]
fn id_remapping_invisible_to_anonymous_decoders() {
    let instance = Instance::canonical(generators::cycle(4));
    let bound = instance.ids().bound();
    let variants: Vec<_> = [vec![4, 3, 2, 1], vec![2, 4, 6, 8], vec![13, 1, 7, 2]]
        .into_iter()
        .map(|ids| hiding_lcp_graph::IdAssignment::from_ids(ids, bound).expect("ids fit"))
        .collect();
    for labeling in oracle::all_labelings(4, &bits()) {
        for decoder in [&LocalDiff as &dyn Decoder, &YesMan, &TriangleSpotter] {
            assert_eq!(
                oracle::invariance(decoder, &instance, &labeling, &variants),
                Ok(()),
                "{} observed an identifier remap",
                decoder.name()
            );
        }
    }
}

/// Views never cross a disjoint-union seam, so the union's verdict vector
/// is the concatenation of the parts' — for every decoder and labeling
/// pair tried, through the production per-node runner.
#[test]
fn disjoint_union_concatenates_verdicts() {
    let a_inst = Instance::canonical(generators::cycle(3));
    let b_inst = Instance::canonical(generators::path(3));
    for a_labeling in oracle::all_labelings(3, &bits()) {
        for b_labeling in oracle::all_labelings(3, &bits()) {
            let a = a_inst.clone().with_labeling(a_labeling.clone());
            let b = b_inst.clone().with_labeling(b_labeling.clone());
            let union = meta::disjoint_union(&a, &b);
            for decoder in [&LocalDiff as &dyn Decoder, &TriangleSpotter] {
                let mut expected = decoder::run(decoder, &a);
                expected.extend(decoder::run(decoder, &b));
                assert_eq!(
                    decoder::run(decoder, &union),
                    expected,
                    "{} verdicts failed to concatenate",
                    decoder.name()
                );
            }
        }
    }
}

/// Union composition at the property level: a union is unanimously
/// accepted iff both parts are, so the unanimous count over the union's
/// labelings is the product of the parts' counts.
#[test]
fn disjoint_union_multiplies_unanimous_counts() {
    let a_inst = Instance::canonical(generators::cycle(4));
    let b_inst = Instance::canonical(generators::path(2));
    let empty_a = a_inst.clone().with_labeling(Labeling::empty(4));
    let empty_b = b_inst.clone().with_labeling(Labeling::empty(2));
    let union_inst = meta::disjoint_union(&empty_a, &empty_b).instance().clone();
    let product = oracle::unanimous_count(&LocalDiff, &a_inst, &bits())
        * oracle::unanimous_count(&LocalDiff, &b_inst, &bits());
    assert_eq!(
        oracle::unanimous_count(&LocalDiff, &union_inst, &bits()),
        product,
        "the union's unanimous count is not the product of the parts'"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Renaming invariance for arbitrary port-oblivious cycle decoders:
    /// the engine's verdict vector on a rotated cycle is the rotation of
    /// the original's, under both strategies.
    #[test]
    fn rotation_invariance_on_cycles(code in 0u8..64, rot in 1usize..6, seed in 0u64..256) {
        let n = 6;
        let instance = Instance::canonical(generators::cycle(n));
        let perm: Vec<usize> = (0..n).map(|v| (v + rot) % n).collect();
        let image = meta::permuted(&instance, &perm);
        let labeling: Labeling = (0..n)
            .map(|v| Certificate::from_byte(((seed >> v) & 1) as u8))
            .collect();
        let image_labeling = meta::permuted_labeling(&labeling, &perm);
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let original = decoder::run(&decoder, &instance.clone().with_labeling(labeling));
        let renamed = decoder::run(&decoder, &image.with_labeling(image_labeling));
        for v in 0..n {
            prop_assert_eq!(original[v], renamed[perm[v]], "node {} under rotation {}", v, rot);
        }
    }
}
