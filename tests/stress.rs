//! Heavy sweeps, ignored by default. Run with:
//!
//! ```text
//! cargo test --release --test stress -- --ignored
//! ```
//!
//! These push the same invariants as the regular suites at scales the
//! default `cargo test` budget should not pay for.

use hiding_lcp::certs::{degree_one, even_cycle, shatter, watermelon};
use hiding_lcp::core::decoder::accepts_all;
use hiding_lcp::core::instance::Instance;
use hiding_lcp::core::language::KCol;
use hiding_lcp::core::nbhd::{sources, NbhdGraph};
use hiding_lcp::core::network::run_distributed;
use hiding_lcp::core::properties::strong;
use hiding_lcp::core::prover::Prover;
use hiding_lcp::core::view::IdMode;
use hiding_lcp::graph::algo::bipartite;
use hiding_lcp::graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Lemma 3.1 sweep over every 5-node tree (the H1 members at n = 5:
/// the path, the star and the spider), every port assignment, every
/// 4-letter labeling (~45k labeled instances).
#[test]
#[ignore = "minutes-scale exhaustive sweep"]
fn degree_one_exhaustive_trees_n5() {
    use hiding_lcp::graph::Graph;
    let alphabet = vec![
        degree_one::Letter::Zero.encode(),
        degree_one::Letter::One.encode(),
        degree_one::Letter::Bot.encode(),
        degree_one::Letter::Top.encode(),
    ];
    let trees = [
        generators::path(5),
        generators::star(4),
        // The "chair": a path of 4 with one extra leaf at position 1.
        Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (1, 4)]).unwrap(),
    ];
    let mut universe = Vec::new();
    for g in trees {
        for ports in hiding_lcp::graph::ports::all_port_assignments(&g, 1_000) {
            let inst = Instance::new(
                g.clone(),
                ports,
                hiding_lcp::graph::IdAssignment::canonical(5),
            )
            .unwrap();
            universe.extend(sources::with_all_labelings(&inst, &alphabet, None));
        }
    }
    let nbhd = NbhdGraph::build(
        &degree_one::DegreeOneDecoder,
        IdMode::Anonymous,
        universe,
        |g| bipartite::is_bipartite(g) && g.min_degree() == Some(1),
    );
    assert!(
        nbhd.odd_cycle().is_some(),
        "hiding survives the n = 5 tree sweep"
    );
    assert!(nbhd.view_count() > 30);
}

/// 100k random forgeries per LCP per no-instance.
#[test]
#[ignore = "large randomized campaign"]
fn strong_soundness_100k_random_forgeries() {
    let two_col = KCol::new(2);
    let mut rng = StdRng::seed_from_u64(4242);
    for g in [
        generators::cycle(5),
        generators::petersen(),
        generators::complete(4),
        generators::watermelon(&[3, 4, 5]),
    ] {
        let inst = Instance::canonical(g);
        strong::check_strong_random(
            &degree_one::DegreeOneDecoder,
            &two_col,
            &inst,
            &degree_one::adversary_alphabet(),
            100_000,
            &mut rng,
        )
        .expect("degree-one strong at scale");
        strong::check_strong_random(
            &even_cycle::EvenCycleDecoder,
            &two_col,
            &inst,
            &even_cycle::adversary_alphabet(),
            100_000,
            &mut rng,
        )
        .expect("even-cycle strong at scale");
        let shatter_alphabet: Vec<_> = shatter::adversary_labelings(&inst)
            .iter()
            .flat_map(|l| l.as_slice().to_vec())
            .collect();
        strong::check_strong_random(
            &shatter::ShatterDecoder,
            &two_col,
            &inst,
            &shatter_alphabet,
            100_000,
            &mut rng,
        )
        .expect("shatter strong at scale");
        let melon_alphabet: Vec<_> = watermelon::adversary_labelings(&inst)
            .iter()
            .flat_map(|l| l.as_slice().to_vec())
            .collect();
        strong::check_strong_random(
            &watermelon::WatermelonDecoder,
            &two_col,
            &inst,
            &melon_alphabet,
            100_000,
            &mut rng,
        )
        .expect("watermelon strong at scale");
    }
}

/// Large honest instances verify centrally and distributively.
#[test]
#[ignore = "large instances"]
fn large_instances_verify_both_ways() {
    let mut rng = StdRng::seed_from_u64(7);
    // A 2000-node random pendant forest for degree-one.
    let tree = generators::random_tree(2_000, &mut rng);
    let inst = Instance::canonical(tree);
    let labeling = degree_one::DegreeOneProver.certify(&inst).expect("trees");
    let li = inst.with_labeling(labeling);
    assert!(accepts_all(&degree_one::DegreeOneDecoder, &li));
    assert!(run_distributed(&degree_one::DegreeOneDecoder, &li)
        .iter()
        .all(|v| v.is_accept()));
    // A 2000-node even cycle.
    let inst = Instance::canonical(generators::cycle(2_000));
    let labeling = even_cycle::EvenCycleProver.certify(&inst).expect("even");
    let li = inst.with_labeling(labeling);
    assert!(accepts_all(&even_cycle::EvenCycleDecoder, &li));
    // A 64-slice watermelon (n = 962).
    let inst = Instance::canonical(generators::watermelon(&[16; 64]));
    let labeling = watermelon::WatermelonProver
        .certify(&inst)
        .expect("even slices");
    assert!(accepts_all(
        &watermelon::WatermelonDecoder,
        &inst.with_labeling(labeling)
    ));
}
