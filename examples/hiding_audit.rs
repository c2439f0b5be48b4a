//! Hiding audit: regenerate the paper's hiding witnesses (Figs. 3–6) by
//! building accepting neighborhood graphs and hunting for odd closed
//! walks (Lemma 3.2), then show the contrast: the revealing baseline's
//! neighborhood graph is 2-colorable and an extractor exists.
//!
//! ```text
//! cargo run --release --example hiding_audit
//! ```

use hiding_lcp::core::extract::Extractor;
use hiding_lcp::core::instance::Instance;
use hiding_lcp::core::nbhd::NbhdGraph;
use hiding_lcp::core::prover::Prover;
use hiding_lcp::core::verify::Universe;
use hiding_lcp::core::view::IdMode;
use hiding_lcp::graph::algo::bipartite;
use hiding_lcp::graph::generators;
use hiding_lcp_bench as workloads;

fn audit(name: &str, nbhd: &NbhdGraph) {
    println!("== {name} ==");
    println!(
        "V(D, ·): {} views, {} edges, {} self-loops (from {} accepted instances)",
        nbhd.view_count(),
        nbhd.edge_count(),
        nbhd.self_loop_views().len(),
        nbhd.retained_count()
    );
    match nbhd.odd_cycle() {
        Some(walk) if walk.len() == 1 => {
            println!("hiding witness: SELF-LOOP at view {}", walk[0]);
            println!("  view: {}", nbhd.view(walk[0]).describe());
        }
        Some(walk) => {
            println!("hiding witness: odd cycle of {} views", walk.len());
            for &v in walk.iter().take(5) {
                println!("  view {v}: {}", nbhd.view(v).describe());
            }
            if walk.len() > 5 {
                println!("  … ({} more)", walk.len() - 5);
            }
        }
        None => println!("no odd closed walk found (not hiding over this universe)"),
    }
    println!();
}

fn main() {
    // Figs. 3/4: the degree-one LCP over P4 with every accepting labeling.
    audit(
        "Lemma 4.1 (degree one), Figs. 3/4",
        &workloads::degree_one_nbhd(),
    );

    // Figs. 5/6: the even-cycle LCP over C4 under all port assignments.
    audit(
        "Lemma 4.2 (even cycle), Figs. 5/6",
        &workloads::even_cycle_nbhd(),
    );

    // Theorem 1.3: the P1/P2 path pair from the proof.
    audit(
        "Theorem 1.3 (shatter point), P1/P2",
        &workloads::shatter_nbhd(),
    );

    // Theorem 1.4: the identifier-swap universe on P8.
    audit(
        "Theorem 1.4 (watermelon), id swap",
        &workloads::watermelon_nbhd(),
    );

    // Contrast: the revealing baseline is NOT hiding. Its exhaustive
    // neighborhood graph is 2-colorable, and the Lemma 3.2 extractor
    // recovers a proper coloring from any accepted certificate.
    let nbhd = workloads::revealing_nbhd(4);
    println!("== revealing baseline (not hiding) ==");
    println!(
        "V(D, 4): {} views, {} edges — 2-colorable: {}",
        nbhd.view_count(),
        nbhd.edge_count(),
        nbhd.k_colorable(2)
    );
    let extractor = Extractor::from_nbhd(nbhd, 2).expect("revealing LCP leaks");
    let inst = Instance::canonical(generators::cycle(6));
    let prover = hiding_lcp::certs::revealing::RevealingProver::new(2);
    let li = inst.with_labeling(
        prover
            .certify(&Instance::canonical(generators::cycle(6)))
            .unwrap(),
    );
    let outputs = extractor.extract_all(&li);
    println!(
        "extractor on a certified C6: {:?} -> proper coloring: {}",
        outputs,
        extractor.extraction_succeeds(&li)
    );

    // And the sanity check in the other direction: over the same
    // exhaustive universe, the degree-one decoder's neighborhood graph is
    // NOT 2-colorable, so no extractor can exist.
    let alphabet = hiding_lcp::certs::degree_one::adversary_alphabet();
    let universe = Universe::lemma31(4, alphabet[..4].to_vec()).expect("n <= 4 universe fits");
    let nbhd = NbhdGraph::from_sweep(
        &hiding_lcp::certs::degree_one::DegreeOneDecoder,
        IdMode::Anonymous,
        &universe,
        |g| bipartite::is_bipartite(g) && g.min_degree() == Some(1),
    )
    .verdict;
    println!(
        "degree-one over the exhaustive n<=4 universe: extractor exists: {}",
        Extractor::from_nbhd(nbhd, 2).is_some()
    );
}
