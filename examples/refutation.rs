//! Theorem 1.5 in action: a decoder cannot be hiding *and* strongly
//! sound. This example drives the refutation pipeline against the
//! cheating edge-3-coloring decoder — the hiding witness comes from
//! Lemma 3.2, the strong-soundness violation from an edge-colored `K₄` —
//! and then replays the Lemma 5.1 `G_bad` realization on a hand-built
//! odd view cycle.
//!
//! ```text
//! cargo run --release --example refutation
//! ```

use hiding_lcp::certs::edge3::{Edge3Decoder, Edge3Prover};
use hiding_lcp::core::decoder::{run, Decoder, Verdict};
use hiding_lcp::core::instance::Instance;
use hiding_lcp::core::label::Labeling;
use hiding_lcp::core::lower::{refute, try_realize_walk, RefutationOutcome};
use hiding_lcp::core::nbhd::NbhdGraph;
use hiding_lcp::core::prover::Prover;
use hiding_lcp::core::view::{IdMode, View};
use hiding_lcp::graph::algo::bipartite;
use hiding_lcp::graph::{generators, Graph, IdAssignment};

/// The degenerate "certify nothing" decoder: accepts every view. Its
/// neighborhood graph is as rich as the yes-instances fed in, which is
/// exactly what makes odd view cycles *realizable*.
struct YesMan;
impl Decoder for YesMan {
    fn name(&self) -> String {
        "accept-everything".into()
    }
    fn radius(&self) -> usize {
        1
    }
    fn id_mode(&self) -> IdMode {
        IdMode::Full
    }
    fn decide(&self, _view: &View) -> Verdict {
        Verdict::Accept
    }
}

/// Five 6-cycles `B_j`, each containing four consecutive members of the
/// identifier pentagon 1-2-3-4-5 plus two fresh identifiers. Every `B_j`
/// is bipartite, yet the views of the pentagon members glue into an odd
/// cycle of `V(D, ·)` whose Lemma 5.1 realization is the (non-bipartite!)
/// pentagon itself.
fn pentagon_universe() -> Vec<hiding_lcp::core::instance::LabeledInstance> {
    use hiding_lcp::graph::PortAssignment;
    let pent = |i: i64| -> u64 { ((i - 1).rem_euclid(5) + 1) as u64 };
    (1..=5i64)
        .map(|j| {
            // Cycle positions: i_{j-1}, i_j, i_{j+1}, i_{j+2}, x, y.
            let ids = vec![
                pent(j - 1),
                pent(j),
                pent(j + 1),
                pent(j + 2),
                (6 + 2 * j) as u64,
                (7 + 2 * j) as u64,
            ];
            let mut g = Graph::new(6);
            for k in 0..6usize {
                g.add_edge(k, (k + 1) % 6).expect("cycle edges");
            }
            // Globally consistent pentagon orientation: every pentagon
            // member reaches its cyclic successor through port 1 and its
            // predecessor through port 2, regardless of which B_j it sits
            // in. (Views glue across instances only if directed ports
            // agree globally.)
            let order = vec![
                vec![1, 5], // i_{j-1}: port1 -> successor i_j, port2 -> y
                vec![2, 0], // i_j: successor, predecessor
                vec![3, 1], // i_{j+1}
                vec![4, 2], // i_{j+2}: port1 -> x (filler), port2 -> predecessor
                vec![5, 3], // x
                vec![0, 4], // y
            ];
            let ports = PortAssignment::from_order(&g, order).expect("valid ports");
            let inst = Instance::new(
                g,
                ports,
                IdAssignment::from_ids(ids, 64).expect("injective"),
            )
            .expect("valid");
            let n = inst.graph().node_count();
            inst.with_labeling(Labeling::empty(n))
        })
        .collect()
}

fn main() {
    // Act I: the cheating edge-3-coloring decoder. Hiding witness via a
    // 1-edge-colored K2 (self-loop in V(D, ·)); violation via K4.
    println!("== Act I: edge-3-coloring decoder (adversarial route) ==");
    let universe: Vec<_> = [
        generators::path(2),
        generators::complete_bipartite(3, 3),
        generators::hypercube(3),
    ]
    .into_iter()
    .filter_map(|g| {
        let inst = Instance::canonical(g);
        let labeling = Edge3Prover.certify(&inst)?;
        Some(inst.with_labeling(labeling))
    })
    .collect();
    let k4 = Instance::canonical(generators::complete(4));
    let k4_labeling = Edge3Prover.certify(&k4).expect("K4 is 3-edge-colorable");
    match refute(
        &Edge3Decoder,
        universe,
        IdMode::Anonymous,
        bipartite::is_bipartite,
        &[(k4, vec![k4_labeling])],
    ) {
        RefutationOutcome::Refuted(r) => {
            println!(
                "hiding witness: odd closed walk of length {}",
                r.odd_walk.len()
            );
            println!(
                "strong-soundness violation on a {}-node instance (via realization: {}):",
                r.violation_instance.graph().node_count(),
                r.via_realization
            );
            println!("  accepting set: {:?}", r.violation.accepting);
        }
        other => panic!("expected refutation, got {other:?}"),
    }

    // Act II: the Lemma 5.1 realization route, on the accept-everything
    // decoder with the pentagon universe.
    println!("\n== Act II: accept-everything decoder (realization route) ==");
    let universe = pentagon_universe();
    let nbhd = NbhdGraph::build(&YesMan, IdMode::Full, universe, |g| {
        bipartite::is_bipartite(g)
    });
    println!(
        "V(D, ·): {} views, {} edges over {} bipartite 6-cycles",
        nbhd.view_count(),
        nbhd.edge_count(),
        nbhd.retained_count()
    );
    // The odd cycle of pentagon-member views: centers with ids 1..=5,
    // each seeing exactly its two pentagon neighbors.
    let pent = |i: i64| -> u64 { ((i - 1).rem_euclid(5) + 1) as u64 };
    let walk: Vec<usize> = (1..=5i64)
        .map(|i| {
            (0..nbhd.view_count())
                .find(|&v| {
                    let view = nbhd.view(v);
                    view.center_id() == Some(pent(i))
                        && view.node_with_id(pent(i - 1)).is_some()
                        && view.node_with_id(pent(i + 1)).is_some()
                })
                .expect("pentagon view present")
        })
        .collect();
    println!("candidate odd view cycle: centers with ids 1..=5");
    let realization = try_realize_walk(&nbhd, &walk).expect("the pentagon cycle is realizable");
    let g_bad = realization.labeled.graph();
    println!(
        "G_bad realized: {} nodes, {} edges, bipartite: {}",
        g_bad.node_count(),
        g_bad.edge_count(),
        bipartite::is_bipartite(g_bad)
    );
    let verdicts = run(&YesMan, &realization.labeled);
    let accepted: Vec<usize> = (1..=5u64)
        .map(|i| realization.node_of_id[&i])
        .filter(|&v| verdicts[v].is_accept())
        .collect();
    println!(
        "all five pentagon nodes accepted in G_bad: {} -> strong soundness refuted",
        accepted.len() == 5
    );
    assert!(!bipartite::is_bipartite(g_bad));
    assert_eq!(accepted.len(), 5);

    println!("\nrefutation: OK (Theorem 1.5 exercised on both routes)");
}
