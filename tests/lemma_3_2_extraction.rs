//! The Lemma 3.2 characterization, both directions, across crates:
//!
//! * the revealing baseline has a 2-colorable neighborhood graph over the
//!   exhaustive universe, so the extractor exists and recovers proper
//!   colorings on accepted yes-instances (not hiding);
//! * every hiding LCP of the paper has a non-2-colorable neighborhood
//!   graph over its witness universe, so no extractor exists.

use hiding_lcp::certs::{degree_one, even_cycle, revealing, shatter, watermelon};
use hiding_lcp::core::decoder::{accepts_all, Decoder};
use hiding_lcp::core::extract::Extractor;
use hiding_lcp::core::instance::{Instance, LabeledInstance};
use hiding_lcp::core::nbhd::NbhdGraph;
use hiding_lcp::core::properties::hiding::{check_hiding, verify_hiding, HidingVerdict};
use hiding_lcp::core::prover::Prover;
use hiding_lcp::core::verify::{Coverage, Universe};
use hiding_lcp::core::view::IdMode;
use hiding_lcp::graph::algo::bipartite;
use hiding_lcp::graph::classes::simple::is_even_cycle;
use hiding_lcp::graph::{generators, Graph};
use hiding_lcp_bench as workloads;

#[test]
fn revealing_baseline_is_extractable() {
    // Over the exhaustive Lemma 3.1 family, 2-colorability is conclusive.
    let universe = Universe::lemma31(4, revealing::adversary_alphabet(1)).expect("n <= 4 fits");
    let report = verify_hiding(
        &revealing::RevealingDecoder::new(2),
        &universe,
        2,
        bipartite::is_bipartite,
    );
    assert_eq!(report.coverage, Coverage::Exhaustive);
    let (nbhd, verdict) = report.verdict;
    let HidingVerdict::NotHiding { coloring } = verdict else {
        panic!("the revealing LCP must not hide, got {verdict:?}");
    };
    assert_eq!(coloring.len(), nbhd.view_count());

    // The extractor recovers proper colorings on accepted instances of
    // various shapes — including ones larger than the universe bound,
    // because anonymous views recur.
    let extractor = Extractor::from_nbhd(nbhd, 2).expect("colorable");
    let prover = revealing::RevealingProver::new(2);
    for g in [
        generators::cycle(4),
        generators::cycle(10),
        generators::path(9),
        generators::star(3),
    ] {
        let inst = Instance::canonical(g);
        let labeling = prover.certify(&inst).expect("bipartite");
        let li = inst.with_labeling(labeling);
        assert!(accepts_all(&revealing::RevealingDecoder::new(2), &li));
        assert!(
            extractor.extraction_succeeds(&li),
            "the revealing LCP leaks a 2-coloring"
        );
    }
}

/// `V(D, ·)` over a hiding LCP's witness universe, a sample, and Lemma
/// 3.2's verdict at the walk's coverage: only an odd closed walk can
/// conclude there.
fn hiding_over(
    decoder: &dyn Decoder,
    id_mode: IdMode,
    witnesses: Vec<LabeledInstance>,
    is_yes: fn(&Graph) -> bool,
) -> (NbhdGraph, HidingVerdict) {
    let universe = Universe::from_labeled(witnesses, Coverage::Sampled).expect("fits");
    let report = NbhdGraph::from_sweep(decoder, id_mode, &universe, is_yes);
    let verdict = check_hiding(&report.verdict, 2, report.coverage);
    (report.verdict, verdict)
}

#[test]
fn hiding_lcps_admit_no_extractor() {
    let anonymous = IdMode::Anonymous;
    for (name, (nbhd, verdict)) in [
        (
            "degree-one",
            hiding_over(
                &degree_one::DegreeOneDecoder,
                anonymous,
                workloads::degree_one_universe(),
                |g| bipartite::is_bipartite(g) && g.min_degree() == Some(1),
            ),
        ),
        (
            "even-cycle",
            hiding_over(
                &even_cycle::EvenCycleDecoder,
                anonymous,
                workloads::even_cycle_universe(),
                is_even_cycle,
            ),
        ),
        (
            "shatter",
            hiding_over(
                &shatter::ShatterDecoder,
                IdMode::Full,
                shatter::hiding_witness_instances(),
                bipartite::is_bipartite,
            ),
        ),
        (
            "watermelon",
            hiding_over(
                &watermelon::WatermelonDecoder,
                IdMode::Full,
                watermelon::hiding_witness_universe(),
                bipartite::is_bipartite,
            ),
        ),
    ] {
        assert!(verdict.is_hiding(), "{name} must hide (odd closed walk)");
        assert!(
            Extractor::from_nbhd(nbhd, 2).is_none(),
            "{name}: no extractor can exist"
        );
    }
}

#[test]
fn hiding_is_conclusive_even_over_partial_universes() {
    // The odd closed walk for the degree-one LCP survives inside the
    // exhaustive universe too (a superset of the witness universe).
    let alphabet = vec![
        degree_one::Letter::Zero.encode(),
        degree_one::Letter::One.encode(),
        degree_one::Letter::Bot.encode(),
        degree_one::Letter::Top.encode(),
    ];
    let universe = Universe::lemma31(4, alphabet).expect("n <= 4 fits");
    let report = verify_hiding(&degree_one::DegreeOneDecoder, &universe, 2, |g| {
        bipartite::is_bipartite(g) && g.min_degree() == Some(1)
    });
    assert_eq!(report.coverage, Coverage::Exhaustive);
    assert!(report.verdict.1.is_hiding());
}

#[test]
fn extraction_respects_the_single_node_rule() {
    // Section 2.4: extraction already fails if a SINGLE node outputs no
    // color. Demonstrate with a shrunken universe that misses one view.
    let alphabet = revealing::adversary_alphabet(1);
    // 1·2 + 1·4 items at n = 1, 2; at n = 3 the path's 2 port assignments
    // and the triangle's 8, each under 8 labelings.
    let universe = Universe::lemma31(3, alphabet).expect("n <= 3 universe fits");
    assert_eq!(universe.len(), 86);
    let nbhd = NbhdGraph::from_sweep(
        &revealing::RevealingDecoder::new(2),
        IdMode::Anonymous,
        &universe,
        bipartite::is_bipartite,
    )
    .verdict;
    let extractor = Extractor::from_nbhd(nbhd, 2).expect("colorable");
    // The degree-4 star center view never occurs at n <= 3.
    let inst = Instance::canonical(generators::star(4));
    let prover = revealing::RevealingProver::new(2);
    let labeling = prover.certify(&inst).unwrap();
    let li = inst.with_labeling(labeling);
    let outputs = extractor.extract_all(&li);
    assert_eq!(outputs[0], None, "center view unknown");
    // Leaves attached at ports 1 and 2 replicate views from P2/P3; leaves
    // at ports 3 and 4 see a port number that no 3-node graph produces.
    assert!(
        outputs[1].is_some() && outputs[2].is_some(),
        "small-port leaf views known"
    );
    assert!(
        outputs[3].is_none() && outputs[4].is_none(),
        "large-port leaf views unknown"
    );
    assert!(!extractor.extraction_succeeds(&li));
}

/// Identifier and port variants do not disturb the anonymous neighborhood
/// graph (anonymous views are assignment-blind), and enrich the Full-mode
/// one without breaking 2-colorability for the revealing LCP.
#[test]
fn nbhd_is_stable_across_assignment_variants() {
    use hiding_lcp::certs::revealing::{RevealingDecoder, RevealingProver};
    use hiding_lcp::core::enumerate::family_variants;
    use hiding_lcp::core::nbhd::sources::prover_labeled;
    let decoder = RevealingDecoder::new(2);
    let prover = RevealingProver::new(2);
    // One port assignment per graph, many id variants.
    let variants = family_variants(
        [generators::cycle(4), generators::path(5)],
        3, // extra id assignments
        0, // canonical ports only
        99,
    );
    let universe = prover_labeled(&prover, variants);
    assert_eq!(universe.len(), 8, "2 graphs x 4 id variants");
    // Anonymous mode: id variants collapse to the canonical views.
    let anon = NbhdGraph::build(&decoder, IdMode::Anonymous, universe.clone(), |g| {
        hiding_lcp::graph::algo::bipartite::is_bipartite(g)
    });
    let anon_base = NbhdGraph::build(
        &decoder,
        IdMode::Anonymous,
        prover_labeled(
            &prover,
            [generators::cycle(4), generators::path(5)].map(Instance::canonical),
        ),
        hiding_lcp::graph::algo::bipartite::is_bipartite,
    );
    assert_eq!(anon.view_count(), anon_base.view_count());
    assert_eq!(anon.edge_count(), anon_base.edge_count());
    // Full mode: more views (ids distinguish), still 2-colorable.
    let full = NbhdGraph::build(&decoder, IdMode::Full, universe, |g| {
        hiding_lcp::graph::algo::bipartite::is_bipartite(g)
    });
    assert!(full.view_count() > anon.view_count());
    assert!(full.k_colorable(2), "the revealing LCP never hides");
}
