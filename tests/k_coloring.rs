//! The general k-coloring side of the paper's title: the framework's
//! quantities (languages, revealing LCPs, neighborhood graphs, extraction,
//! the hiding spectrum) at k = 3.

use hiding_lcp::certs::revealing::{adversary_alphabet, RevealingDecoder, RevealingProver};
use hiding_lcp::core::decoder::accepts_all;
use hiding_lcp::core::extract::Extractor;
use hiding_lcp::core::instance::Instance;
use hiding_lcp::core::language::KCol;
use hiding_lcp::core::nbhd::NbhdGraph;
use hiding_lcp::core::properties::strong;
use hiding_lcp::core::prover::Prover;
use hiding_lcp::core::verify::Universe;
use hiding_lcp::core::view::IdMode;
use hiding_lcp::graph::algo::coloring;
use hiding_lcp::graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn three_col_revealing_dossier() {
    let three_col = KCol::new(3);
    let decoder = RevealingDecoder::new(3);
    let prover = RevealingProver::new(3);
    // Completeness on 3-chromatic graphs.
    for g in [
        generators::petersen(),
        generators::cycle(5),
        generators::cycle(7),
        generators::watermelon(&[2, 3]),
        generators::grid(3, 3),
    ] {
        let inst = Instance::canonical(g);
        let labeling = prover.certify(&inst).expect("3-colorable");
        assert!(accepts_all(&decoder, &inst.with_labeling(labeling)));
    }
    // Declines on K4 (chromatic number 4).
    assert!(prover
        .certify(&Instance::canonical(generators::complete(4)))
        .is_none());
    // Strong soundness w.r.t. 3-col: the accepting set induces a
    // 3-colorable subgraph, exhaustively on K4 and K5.
    let alphabet = adversary_alphabet(3);
    for g in [generators::complete(4), generators::complete(5)] {
        let inst = Instance::canonical(g);
        strong::check_strong_exhaustive(&decoder, &three_col, &inst, &alphabet)
            .expect("3-col strong soundness");
    }
}

#[test]
fn three_col_neighborhood_graph_and_extraction() {
    // Exhaustive universe at n <= 3 over the 3-color alphabet (plus the
    // out-of-range letter), yes-filter = 3-colorable.
    let alphabet = adversary_alphabet(2); // bytes {0,1,2}: exactly 3 colors
    let universe = Universe::lemma31(3, alphabet).expect("n <= 3 universe fits");
    let decoder = RevealingDecoder::new(3);
    let nbhd = NbhdGraph::from_sweep(&decoder, IdMode::Anonymous, &universe, |g| {
        coloring::is_k_colorable(g, 3)
    })
    .verdict;
    assert!(nbhd.view_count() > 0);
    // Lemma 3.2 at k = 3: the revealing LCP is not hiding.
    assert!(nbhd.k_colorable(3));
    let chi = nbhd.chromatic_number().expect("no self-loops");
    assert!(chi <= 3, "revealing certificates color the view graph");
    let extractor = Extractor::from_nbhd(nbhd, 3).expect("3-colorable");
    // Extraction succeeds on accepted 3-colored instances within the
    // universe's reach (triangles and paths).
    let three_col = KCol::new(3);
    let mut rng = StdRng::seed_from_u64(5);
    for g in [generators::cycle(3), generators::path(3)] {
        let inst = Instance::random(g, &mut rng);
        let labeling = RevealingProver::new(3).certify(&inst).unwrap();
        let li = inst.with_labeling(labeling);
        let outputs = extractor.extract_all(&li);
        assert!(three_col.is_extracted_witness(li.graph(), &outputs));
    }
}

/// The paper's "incidentally" remark after Theorem 1.2, mechanized: a
/// neighborhood graph that is not K-colorable is in particular not
/// k-colorable for k ≤ K, so hiding a K-coloring implies hiding a
/// k-coloring. Checked on the even-cycle scheme whose V has a self-loop
/// (non-K-colorable for every K).
#[test]
fn hiding_is_monotone_downward_in_k() {
    let nbhd = hiding_lcp_bench::even_cycle_nbhd();
    for k in 2..=6usize {
        assert!(
            !nbhd.k_colorable(k),
            "a self-loop defeats every palette, k = {k}"
        );
        assert!(Extractor::from_nbhd(nbhd.clone(), k).is_none());
    }
    // And on the degree-one scheme: not 2-colorable but 3-colorable, so
    // it hides a 2-coloring yet leaks a 3-coloring — the gap the paper's
    // separation program must close.
    let nbhd = hiding_lcp_bench::degree_one_nbhd();
    assert!(!nbhd.k_colorable(2));
    assert!(nbhd.k_colorable(3));
    assert!(Extractor::from_nbhd(nbhd, 3).is_some());
}

#[test]
fn kcol_language_basics_at_higher_k() {
    let four_col = KCol::new(4);
    assert!(four_col.is_yes_graph(&generators::complete(4)));
    assert!(!four_col.is_yes_graph(&generators::complete(5)));
    assert!(four_col.is_witness(&generators::complete(4), &[0, 1, 2, 3]));
    assert!(!four_col.is_witness(&generators::complete(4), &[0, 1, 2, 2]));
    // Chromatic numbers line up with the language.
    for (g, chi) in [
        (generators::petersen(), 3usize),
        (generators::complete(6), 6),
        (generators::cycle(9), 3),
        (generators::grid(4, 4), 2),
    ] {
        assert_eq!(coloring::chromatic_number(&g), chi);
        assert!(KCol::new(chi).is_yes_graph(&g));
        if chi > 1 {
            assert!(!KCol::new(chi - 1).is_yes_graph(&g));
        }
    }
}
