//! A synchronous message-passing simulation of the LOCAL verifier.
//!
//! [`crate::view::View::extract`] reads views off the global instance —
//! convenient, but the paper's verifier is a *distributed algorithm*: "the
//! nodes broadcast to their neighbors everything they know for r rounds in
//! succession, followed by the execution of an internal procedure"
//! (Section 2.2). This module simulates exactly that:
//!
//! * round 0: every node knows its identifier, certificate, degree and
//!   port numbering — but not who sits behind its ports;
//! * each round, every node sends its entire knowledge through every
//!   port, stamped with the sending port number; receivers resolve the
//!   shared edge (both endpoints' identifiers and ports) and merge the
//!   sender's knowledge;
//! * after r rounds, the node assembles its view from what it heard.
//!
//! The simulation reproduces the paper's `G_v^r` on the nose: a boundary
//! node's own edge endpoints need one extra round to become known, so
//! edges between two radius-r nodes never materialize — which is exactly
//! the "no connections between nodes at r hops" clause of the view
//! definition. The tests check [`simulate_views`] against
//! [`crate::view::View::extract`] node-for-node.

use crate::decoder::{Decoder, Verdict};
use crate::instance::LabeledInstance;
use crate::label::Certificate;
use crate::view::{IdMode, KnownEdge, View};
use std::collections::{BTreeMap, BTreeSet};

/// Everything one node knows at some round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Knowledge {
    /// Certificates of the identifiers heard of.
    pub labels: BTreeMap<u64, Certificate>,
    /// Resolved edges `((id, port), (id, port))`, stored in the
    /// orientation with the smaller identifier first.
    pub edges: BTreeSet<KnownEdge>,
}

impl Knowledge {
    fn merge(&mut self, other: &Knowledge) {
        for (id, label) in &other.labels {
            self.labels.entry(*id).or_insert_with(|| label.clone());
        }
        self.edges.extend(other.edges.iter().copied());
    }

    fn add_edge(&mut self, a: (u64, u16), b: (u64, u16)) {
        let edge = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.edges.insert(edge);
    }
}

/// Runs `rounds` rounds of full-information broadcast on the labeled
/// instance, returning each node's final knowledge.
///
/// Knowledge at round `t` is a pure function of knowledge at round `t-1`.
/// Rather than cloning the whole state vector per round to snapshot round
/// `t-1`, the simulation double-buffers two vectors: knowledge
/// accumulation is monotone with first-seen-wins merging, so re-merging a
/// node's own newer state into its older buffered copy reconstructs the
/// snapshot without fresh allocations.
pub fn gather_knowledge(li: &LabeledInstance, rounds: usize) -> Vec<Knowledge> {
    let g = li.graph();
    let ids = li.instance().ids();
    let ports = li.instance().ports();
    // Round 0: self-knowledge only.
    let mut state: Vec<Knowledge> = g
        .nodes()
        .map(|v| {
            let mut k = Knowledge::default();
            k.labels.insert(ids.id(v), li.labeling().label(v).clone());
            k
        })
        .collect();
    // The double buffer. `state` holds round t-1; `scratch` holds round
    // t-2 and is rebuilt into round t in place, then the two swap.
    let mut scratch: Vec<Knowledge> = state.clone();
    for _ in 0..rounds {
        // Sync the scratch buffer from round t-2 up to round t-1.
        // Knowledge only ever grows by first-seen-wins merges, so each
        // entry of scratch[v] is already present in state[v] with the
        // identical value; merging reconstructs state[v] exactly.
        for v in g.nodes() {
            scratch[v].merge(&state[v]);
        }
        // v receives u's round t-1 knowledge through its port p; u
        // stamped the message with its own sending port.
        for v in g.nodes() {
            for p in 1..=g.degree(v) as u16 {
                let u = ports.neighbor_at(v, p);
                scratch[v].merge(&state[u]);
                scratch[v].add_edge((ids.id(v), p), (ids.id(u), ports.port_to(u, v)));
            }
        }
        std::mem::swap(&mut state, &mut scratch);
    }
    state
}

/// Simulates the r-round gathering phase and assembles every node's view,
/// canonicalized for `id_mode`.
pub fn simulate_views(li: &LabeledInstance, radius: usize, id_mode: IdMode) -> Vec<View> {
    let knowledge = gather_knowledge(li, radius);
    let ids = li.instance().ids();
    li.graph()
        .nodes()
        .map(|v| {
            let k = &knowledge[v];
            View::from_local_knowledge(ids.id(v), &k.labels, &k.edges, radius, id_mode, ids.bound())
        })
        .collect()
}

/// Runs `decoder` distributively: r rounds of broadcast, then the local
/// decision at every node. Agrees with [`crate::decoder::run`] by the
/// view-equality theorem exercised in this module's tests.
pub fn run_distributed<D: Decoder + ?Sized>(decoder: &D, li: &LabeledInstance) -> Vec<Verdict> {
    simulate_views(li, decoder.radius(), decoder.id_mode())
        .iter()
        .map(|view| decoder.decide(view))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::run;
    use crate::instance::Instance;
    use crate::label::Labeling;
    use hiding_lcp_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn labeled(g: hiding_lcp_graph::Graph, seed: u64) -> LabeledInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = Instance::random(g, &mut rng);
        let n = inst.graph().node_count();
        let labels = (0..n)
            .map(|v| Certificate::from_byte((v % 5) as u8))
            .collect::<Labeling>();
        inst.with_labeling(labels)
    }

    /// The pre-double-buffering reference: clone the whole state vector
    /// every round. Kept as the oracle for the buffered implementation.
    fn gather_knowledge_reference(li: &LabeledInstance, rounds: usize) -> Vec<Knowledge> {
        let g = li.graph();
        let ids = li.instance().ids();
        let ports = li.instance().ports();
        let mut state: Vec<Knowledge> = g
            .nodes()
            .map(|v| {
                let mut k = Knowledge::default();
                k.labels.insert(ids.id(v), li.labeling().label(v).clone());
                k
            })
            .collect();
        for _ in 0..rounds {
            let snapshot = state.clone();
            for v in g.nodes() {
                for p in 1..=g.degree(v) as u16 {
                    let u = ports.neighbor_at(v, p);
                    let sender_port = ports.port_to(u, v);
                    state[v].merge(&snapshot[u]);
                    state[v].add_edge((ids.id(v), p), (ids.id(u), sender_port));
                }
            }
        }
        state
    }

    #[test]
    fn simulated_views_equal_extracted_views() {
        let graphs = [
            generators::path(7),
            generators::cycle(8),
            generators::star(5),
            generators::grid(3, 4),
            generators::petersen(),
            generators::theta(2, 3, 4),
            generators::complete(5),
        ];
        for (i, g) in graphs.into_iter().enumerate() {
            let li = labeled(g, i as u64);
            for radius in 0..=3usize {
                for mode in [IdMode::Full, IdMode::OrderOnly, IdMode::Anonymous] {
                    let simulated = simulate_views(&li, radius, mode);
                    for v in li.graph().nodes() {
                        assert_eq!(
                            simulated[v],
                            li.view(v, radius, mode),
                            "graph #{i}, node {v}, r={radius}, {mode:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn double_buffered_gathering_matches_clone_reference() {
        let graphs = [
            generators::path(6),
            generators::cycle(7),
            generators::grid(3, 3),
            generators::complete(5),
            generators::petersen(),
        ];
        for (i, g) in graphs.into_iter().enumerate() {
            let li = labeled(g, 40 + i as u64);
            for rounds in 0..=4usize {
                assert_eq!(
                    gather_knowledge(&li, rounds),
                    gather_knowledge_reference(&li, rounds),
                    "graph #{i}, rounds {rounds}"
                );
            }
        }
    }

    #[test]
    fn boundary_edges_stay_unknown_for_one_extra_round() {
        // In K4 from any node with r = 1: the three neighbors are mutually
        // adjacent, but those edges resolve only at round 2.
        let li = labeled(generators::complete(4), 9);
        let k1 = gather_knowledge(&li, 1);
        let k2 = gather_knowledge(&li, 2);
        assert_eq!(k1[0].edges.len(), 3, "round 1: only own edges resolved");
        assert_eq!(k2[0].edges.len(), 6, "round 2: the whole K4 resolved");
    }

    #[test]
    fn distributed_run_matches_centralized_run() {
        use crate::view::View;

        /// Accepts iff the center sees an even number of distinct labels.
        struct ParityOfLabels;
        impl Decoder for ParityOfLabels {
            fn name(&self) -> String {
                "parity-of-labels".into()
            }
            fn radius(&self) -> usize {
                2
            }
            fn id_mode(&self) -> IdMode {
                IdMode::Anonymous
            }
            fn decide(&self, view: &View) -> Verdict {
                let mut labels: Vec<_> = view.nodes().iter().map(|n| n.label.clone()).collect();
                labels.sort();
                labels.dedup();
                Verdict::from(labels.len() % 2 == 0)
            }
        }

        for seed in 0..5u64 {
            let li = labeled(generators::grid(3, 3), seed);
            assert_eq!(
                run_distributed(&ParityOfLabels, &li),
                run(&ParityOfLabels, &li)
            );
        }
    }

    #[test]
    fn zero_rounds_know_only_oneself() {
        let li = labeled(generators::cycle(5), 3);
        let k = gather_knowledge(&li, 0);
        for knowledge in &k {
            assert_eq!(knowledge.labels.len(), 1);
            assert!(knowledge.edges.is_empty());
        }
    }
}
