//! The Lemma 4.1 LCP: strong and hiding certification of 2-colorability
//! on graphs with minimum degree one, hiding the coloring at a pendant
//! node.
//!
//! Certificates come from the four-letter alphabet `{0, 1, ⊥, ⊤}`: the
//! prover reveals a proper 2-coloring everywhere except at one degree-one
//! node of its choosing, which gets `⊥` while its unique neighbor gets
//! `⊤`. Strong soundness holds because an accepting `⊥` has degree one and
//! an accepting `⊤` funnels every odd cycle through its `⊥` neighbor —
//! neither can sit on a cycle.

use hiding_lcp_core::decoder::{Decoder, Verdict};
use hiding_lcp_core::instance::Instance;
use hiding_lcp_core::label::{Certificate, Labeling};
use hiding_lcp_core::prover::Prover;
use hiding_lcp_core::view::{IdMode, View, ViewArc};
use hiding_lcp_graph::algo::bipartite;

/// The four-letter label alphabet of Lemma 4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Letter {
    /// Color 0.
    Zero,
    /// Color 1.
    One,
    /// `⊥`: "I am the hidden pendant node".
    Bot,
    /// `⊤`: "my neighbor is the hidden pendant node".
    Top,
}

impl Letter {
    /// Decodes a certificate, `None` if malformed.
    pub fn decode(cert: &Certificate) -> Option<Letter> {
        match cert.bytes() {
            [0] => Some(Letter::Zero),
            [1] => Some(Letter::One),
            [2] => Some(Letter::Bot),
            [3] => Some(Letter::Top),
            _ => None,
        }
    }

    /// Encodes to a one-byte certificate.
    pub fn encode(self) -> Certificate {
        Certificate::from_byte(match self {
            Letter::Zero => 0,
            Letter::One => 1,
            Letter::Bot => 2,
            Letter::Top => 3,
        })
    }

    /// The color bit, if this letter is a color.
    pub fn color(self) -> Option<u8> {
        match self {
            Letter::Zero => Some(0),
            Letter::One => Some(1),
            Letter::Bot | Letter::Top => None,
        }
    }
}

/// The one-round anonymous decoder of Lemma 4.1.
///
/// # Example
///
/// ```
/// use hiding_lcp_certs::degree_one::{DegreeOneDecoder, DegreeOneProver};
/// use hiding_lcp_core::decoder::accepts_all;
/// use hiding_lcp_core::instance::Instance;
/// use hiding_lcp_core::prover::Prover;
/// use hiding_lcp_graph::generators;
///
/// let instance = Instance::canonical(generators::star(4));
/// let labeling = DegreeOneProver.certify(&instance).expect("stars are in H1");
/// assert!(accepts_all(&DegreeOneDecoder, &instance.with_labeling(labeling)));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DegreeOneDecoder;

impl Decoder for DegreeOneDecoder {
    fn name(&self) -> String {
        "degree-one (Lemma 4.1)".into()
    }
    fn radius(&self) -> usize {
        1
    }
    fn id_mode(&self) -> IdMode {
        IdMode::Anonymous
    }
    // The rules read the centre's arcs in place: a decision allocates
    // nothing, so a memo miss of the engine's walk stays allocation-free.
    fn decide(&self, view: &View) -> Verdict {
        let Some(mine) = Letter::decode(view.center_label()) else {
            return Verdict::Reject;
        };
        let arcs = view.center_arcs();
        let letter = |arc: &ViewArc| Letter::decode(&view.node(arc.to).label);
        if arcs.iter().any(|arc| letter(arc).is_none()) {
            return Verdict::Reject;
        }
        let neighbors = arcs.iter().filter_map(letter);
        let count = |l: Letter| neighbors.clone().filter(|&n| n == l).count();
        let accept = match mine {
            // Rule 1: ⊥ needs degree one and a ⊤ neighbor.
            Letter::Bot => arcs.len() == 1 && count(Letter::Top) == 1,
            // Rule 2: ⊤ needs exactly one ⊥ neighbor; all the others must
            // share one color β.
            Letter::Top => {
                let mut beta = None;
                count(Letter::Bot) == 1
                    && neighbors
                        .clone()
                        .filter(|&l| l != Letter::Bot)
                        .all(|l| l.color().is_some_and(|c| *beta.get_or_insert(c) == c))
            }
            // Rule 3: a colored node allows at most one ⊤ neighbor; every
            // other neighbor carries the opposite color.
            Letter::Zero | Letter::One => {
                let my_color = mine.color().expect("colored letter");
                count(Letter::Top) <= 1
                    && neighbors
                        .filter(|&l| l != Letter::Top)
                        .all(|l| l.color().is_some_and(|c| c != my_color))
            }
        };
        Verdict::from(accept)
    }
}

/// The Lemma 4.1 prover: a proper 2-coloring everywhere, with `⊥`/`⊤`
/// planted at the smallest degree-one node and its neighbor.
#[derive(Debug, Clone, Copy, Default)]
pub struct DegreeOneProver;

impl Prover for DegreeOneProver {
    fn name(&self) -> String {
        "degree-one (Lemma 4.1)".into()
    }
    fn certify(&self, instance: &Instance) -> Option<Labeling> {
        certify_hiding_at(instance, None)
    }
}

/// Like [`DegreeOneProver`], but hides at a chosen degree-one node
/// (`None` = the smallest). Returns `None` if the graph is not bipartite,
/// has no degree-one node, or the chosen node has a different degree.
pub fn certify_hiding_at(instance: &Instance, pendant: Option<usize>) -> Option<Labeling> {
    let g = instance.graph();
    let sides = bipartite::bipartition(g).ok()?;
    let pendant = match pendant {
        Some(v) => (v < g.node_count() && g.degree(v) == 1).then_some(v)?,
        None => g.nodes().find(|&v| g.degree(v) == 1)?,
    };
    let anchor = g.neighbors(pendant)[0];
    let labels = g
        .nodes()
        .map(|v| {
            if v == pendant {
                Letter::Bot
            } else if v == anchor {
                Letter::Top
            } else if sides[v] == 0 {
                Letter::Zero
            } else {
                Letter::One
            }
            .encode()
        })
        .collect();
    Some(labels)
}

/// Every accepting labeling family the completeness proof admits: for each
/// bipartition polarity, the plain revealing labeling (no `⊥`/`⊤` — rule 3
/// tolerates zero `⊤` neighbors) and one hidden labeling per degree-one
/// node. Used to seed hiding universes (the Figs. 3/4 odd cycle mixes
/// hidden and revealing instances of both polarities).
pub fn accepting_labelings(instance: &Instance) -> Vec<Labeling> {
    let g = instance.graph();
    let Ok(sides) = bipartite::bipartition(g) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for polarity in [0u8, 1u8] {
        let color = |v: usize| {
            if sides[v] == polarity {
                Letter::One
            } else {
                Letter::Zero
            }
        };
        out.push(g.nodes().map(|v| color(v).encode()).collect());
        for pendant in g.nodes().filter(|&v| g.degree(v) == 1) {
            let anchor = g.neighbors(pendant)[0];
            out.push(
                g.nodes()
                    .map(|v| {
                        if v == pendant {
                            Letter::Bot
                        } else if v == anchor {
                            Letter::Top
                        } else {
                            color(v)
                        }
                        .encode()
                    })
                    .collect(),
            );
        }
    }
    out
}

/// The full adversarial alphabet: the four letters plus a malformed byte.
pub fn adversary_alphabet() -> Vec<Certificate> {
    vec![
        Letter::Zero.encode(),
        Letter::One.encode(),
        Letter::Bot.encode(),
        Letter::Top.encode(),
        Certificate::from_byte(9),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiding_lcp_core::decoder::accepts_all;
    use hiding_lcp_core::language::KCol;
    use hiding_lcp_core::nbhd::{sources, NbhdGraph};
    use hiding_lcp_core::properties::{completeness, strong};
    use hiding_lcp_graph::generators;

    fn h1_instances() -> Vec<Instance> {
        vec![
            Instance::canonical(generators::path(4)),
            Instance::canonical(generators::path(7)),
            Instance::canonical(generators::star(4)),
            Instance::canonical(generators::caterpillar(4, 2)),
            Instance::canonical(generators::pendant_path(6, 2)),
            Instance::canonical(generators::balanced_tree(2, 3)),
            Instance::canonical(generators::with_pendant(&generators::grid(3, 3), 4).0),
        ]
    }

    #[test]
    fn complete_on_min_degree_one_bipartite_graphs() {
        let report =
            completeness::check_completeness(&DegreeOneDecoder, &DegreeOneProver, h1_instances());
        assert!(report.all_passed(), "{:?}", report.failures);
        assert_eq!(report.max_certificate_bits, 8, "constant-size certificates");
    }

    #[test]
    fn every_pendant_choice_is_accepted() {
        let inst = Instance::canonical(generators::caterpillar(3, 2));
        let g = inst.graph().clone();
        for v in g.nodes().filter(|&v| g.degree(v) == 1) {
            let labeling = certify_hiding_at(&inst, Some(v)).expect("pendant exists");
            assert!(accepts_all(
                &DegreeOneDecoder,
                &inst.clone().with_labeling(labeling)
            ));
        }
        assert!(
            certify_hiding_at(&inst, Some(0)).is_none(),
            "spine node is not a pendant"
        );
    }

    #[test]
    fn declines_outside_the_promise() {
        assert!(DegreeOneProver
            .certify(&Instance::canonical(generators::cycle(6)))
            .is_none());
        assert!(
            DegreeOneProver
                .certify(&Instance::canonical(generators::pendant_path(5, 2)))
                .is_none(),
            "odd cycle with a tail is not bipartite"
        );
    }

    #[test]
    fn strong_soundness_exhaustive_on_small_graphs() {
        // Strong soundness quantifies over arbitrary graphs: odd cycles,
        // odd cycles with tails, cliques, and even yes-instances.
        let two_col = KCol::new(2);
        let alphabet = adversary_alphabet();
        for g in [
            generators::cycle(3),
            generators::pendant_path(3, 1),
            generators::complete(4),
            generators::path(4),
            generators::star(3),
        ] {
            let inst = Instance::canonical(g);
            assert!(
                strong::check_strong_exhaustive(&DegreeOneDecoder, &two_col, &inst, &alphabet)
                    .is_ok(),
                "strong soundness violated"
            );
        }
    }

    #[test]
    fn hiding_odd_cycle_in_the_neighborhood_graph() {
        // The Figs. 3/4 phenomenon: mixing hidden and revealing accepting
        // labelings of P4 (both polarities, all port assignments) yields
        // an odd closed walk in V(D, ·).
        let g = generators::path(4);
        let mut universe = Vec::new();
        for ports in hiding_lcp_graph::ports::all_port_assignments(&g, 100) {
            let inst = Instance::new(
                g.clone(),
                ports,
                hiding_lcp_graph::IdAssignment::canonical(4),
            )
            .unwrap();
            for labeling in accepting_labelings(&inst) {
                universe.push(inst.clone().with_labeling(labeling));
            }
        }
        let nbhd = NbhdGraph::build(&DegreeOneDecoder, IdMode::Anonymous, universe, |g| {
            bipartite::is_bipartite(g) && g.min_degree() == Some(1)
        });
        let odd = nbhd
            .odd_cycle()
            .expect("Lemma 4.1's decoder must hide: V(D, ·) contains an odd closed walk");
        assert_eq!(odd.len() % 2, 1);
    }

    #[test]
    fn hiding_certified_over_exhaustive_small_universe() {
        // Full Lemma 3.1 sweep at n <= 4 over the 4-letter alphabet,
        // restricted to the promise class.
        let alphabet = vec![
            Letter::Zero.encode(),
            Letter::One.encode(),
            Letter::Bot.encode(),
            Letter::Top.encode(),
        ];
        let universe = sources::exhaustive_universe(4, &alphabet);
        let nbhd = NbhdGraph::build(&DegreeOneDecoder, IdMode::Anonymous, universe, |g| {
            bipartite::is_bipartite(g) && g.min_degree() == Some(1)
        });
        assert!(nbhd.view_count() > 0);
        assert!(nbhd.odd_cycle().is_some());
    }

    /// The three rules as first written, collecting the neighbours'
    /// letters and the ⊤ node's colours: the reference the in-place rules
    /// must agree with.
    fn collected_rules(view: &View) -> Verdict {
        let Some(mine) = Letter::decode(view.center_label()) else {
            return Verdict::Reject;
        };
        let neighbors: Option<Vec<Letter>> = view
            .center_arcs()
            .iter()
            .map(|arc| Letter::decode(&view.node(arc.to).label))
            .collect();
        let Some(neighbors) = neighbors else {
            return Verdict::Reject;
        };
        let accept = match mine {
            Letter::Bot => neighbors.len() == 1 && neighbors[0] == Letter::Top,
            Letter::Top => {
                let bots = neighbors.iter().filter(|&&l| l == Letter::Bot).count();
                let colors: Option<Vec<u8>> = neighbors
                    .iter()
                    .filter(|&&l| l != Letter::Bot)
                    .map(|l| l.color())
                    .collect();
                bots == 1 && colors.is_some_and(|cs| cs.windows(2).all(|w| w[0] == w[1]))
            }
            Letter::Zero | Letter::One => {
                let my_color = mine.color().expect("colored letter");
                let tops = neighbors.iter().filter(|&&l| l == Letter::Top).count();
                tops <= 1
                    && neighbors
                        .iter()
                        .filter(|&&l| l != Letter::Top)
                        .all(|l| l.color().is_some_and(|c| c != my_color))
            }
        };
        Verdict::from(accept)
    }

    #[test]
    fn in_place_rules_match_the_collected_rules() {
        let alphabet = adversary_alphabet();
        for g in [
            generators::star(1),
            generators::star(2),
            generators::star(3),
            generators::cycle(4),
        ] {
            let inst = Instance::canonical(g);
            let n = inst.graph().node_count();
            for labeling in hiding_lcp_core::prover::all_labelings(n, &alphabet) {
                for v in 0..n {
                    let view = inst.view(&labeling, v, 1, IdMode::Anonymous);
                    assert_eq!(
                        DegreeOneDecoder.decide(&view),
                        collected_rules(&view),
                        "node {v} of {labeling:?} on {n} nodes"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_forged_bot_on_high_degree_nodes() {
        // Plant ⊥ on a degree-2 node of a path: it must reject.
        let inst = Instance::canonical(generators::path(4));
        let labeling = Labeling::new(vec![
            Letter::Zero.encode(),
            Letter::Bot.encode(),
            Letter::Top.encode(),
            Letter::Zero.encode(),
        ]);
        let verdicts =
            hiding_lcp_core::decoder::run(&DegreeOneDecoder, &inst.with_labeling(labeling));
        assert!(!verdicts[1].is_accept(), "⊥ with degree 2 rejects");
    }

    #[test]
    fn rejects_top_with_two_bots() {
        let inst = Instance::canonical(generators::star(2));
        let labeling = Labeling::new(vec![
            Letter::Top.encode(),
            Letter::Bot.encode(),
            Letter::Bot.encode(),
        ]);
        let verdicts =
            hiding_lcp_core::decoder::run(&DegreeOneDecoder, &inst.with_labeling(labeling));
        assert!(!verdicts[0].is_accept());
    }

    #[test]
    fn rejects_mismatched_beta_at_top() {
        // ⊤ whose colored neighbors disagree (β not unique).
        let inst = Instance::canonical(generators::star(3));
        let labeling = Labeling::new(vec![
            Letter::Top.encode(),
            Letter::Bot.encode(),
            Letter::Zero.encode(),
            Letter::One.encode(),
        ]);
        let verdicts =
            hiding_lcp_core::decoder::run(&DegreeOneDecoder, &inst.with_labeling(labeling));
        assert!(!verdicts[0].is_accept());
    }
}
