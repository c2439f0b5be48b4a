//! Lower-bound drivers (paper, Theorems 1.2 and 1.5).
//!
//! Theorem 1.5 says no order-invariant LCP for 2-col on suitable classes
//! is simultaneously strong and hiding. Its executable content here:
//!
//! * [`refute`] — given a decoder, produce **both** witnesses that it
//!   cannot be strong and hiding at once: an odd closed walk in
//!   `V(D, n)` (hiding, via Lemma 3.2) *and* a strong-soundness violation
//!   — either by realizing the odd cycle through the Lemma 5.1 `G_bad`
//!   merge when the cycle is realizable, or by adversarial labeling
//!   search on no-instances;
//! * [`search_cycle_decoders`] — the Theorem 1.2 exhaustive form for a
//!   tractable slice: **every** port-oblivious anonymous 1-round decoder
//!   with 1-bit certificates on cycles is enumerated and none is
//!   complete, strong and hiding together. (The paper's Lemma 4.2 LCP
//!   escapes this slice precisely by reading port numbers.)

use crate::decoder::{Decoder, Verdict};
use crate::instance::{Instance, LabeledInstance};
use crate::label::{Certificate, Labeling};
use crate::language::KCol;
use crate::nbhd::NbhdGraph;
use crate::properties::soundness::check_soundness_exhaustive;
use crate::properties::strong::{check_strong_exhaustive, strong_holds_for, StrongViolation};
use crate::realize::{find_plan, realize, Realization};
use crate::verify::{Block, Coverage, LabelSource, Universe};
use crate::view::{IdMode, View};
use hiding_lcp_graph::algo::bipartite;
use hiding_lcp_graph::Graph;

/// The outcome of [`refute`].
#[derive(Debug, Clone)]
pub enum RefutationOutcome {
    /// No odd closed walk surfaced in `V(D, ·)` over the supplied
    /// universe — no hiding witness, nothing to refute (the decoder may
    /// simply be strong, like the paper's upper-bound LCPs).
    NoHidingWitness,
    /// Hiding was certified but no strong-soundness violation was found
    /// in the supplied adversarial budget — inconclusive.
    HidingOnly {
        /// The odd closed walk of view indices.
        odd_walk: Vec<usize>,
    },
    /// Both witnesses in hand: the decoder is hiding *and* not strong —
    /// Theorem 1.5's prediction, verified.
    Refuted(Box<Refutation>),
}

/// Both halves of a Theorem 1.5 refutation.
#[derive(Debug, Clone)]
pub struct Refutation {
    /// The odd closed walk in `V(D, ·)` certifying hiding (Lemma 3.2).
    pub odd_walk: Vec<usize>,
    /// The instance on which strong soundness breaks.
    pub violation_instance: Instance,
    /// The accepted labeling whose accepting set is not 2-colorable.
    pub violation: StrongViolation,
    /// Whether the violation came from realizing the odd cycle via the
    /// Lemma 5.1 `G_bad` merge (as opposed to adversarial search).
    pub via_realization: bool,
}

/// Attempts to realize the views of `walk` (an odd cycle in `nbhd`) as a
/// `G_bad` instance via Lemma 5.1, drawing reference views from all nodes
/// of `nbhd`'s witnessing instances ([`NbhdGraph::instances`]; [`refute`]
/// draws them from every retained yes-instance).
///
/// Only meaningful for [`IdMode::Full`] neighborhood graphs.
pub fn try_realize_walk(nbhd: &NbhdGraph, walk: &[usize]) -> Option<Realization> {
    realize_walk_over(nbhd, walk, nbhd.instances())
}

/// [`try_realize_walk`] with reference views from every node of `instances`.
fn realize_walk_over(
    nbhd: &NbhdGraph,
    walk: &[usize],
    instances: &[LabeledInstance],
) -> Option<Realization> {
    if nbhd.id_mode() != IdMode::Full {
        return None;
    }
    let views: Vec<View> = walk.iter().map(|&i| nbhd.view(i).clone()).collect();
    let pool: Vec<View> = instances
        .iter()
        .flat_map(|li| {
            li.graph()
                .nodes()
                .map(move |v| li.view(v, nbhd.radius(), nbhd.id_mode()))
        })
        .collect();
    let plan = find_plan(&views, &pool).ok()?;
    let realization = realize(&plan).ok()?;
    // All walk views must be reproduced exactly.
    views
        .iter()
        .all(|mu| realization.reproduces(mu))
        .then_some(realization)
}

/// Theorem 1.5, executably: hunts for both a hiding witness and a
/// strong-soundness violation for `decoder`.
///
/// * `universe` feeds the Lemma 3.1 construction (filtered by `is_yes`).
/// * `id_mode` picks the extractor class (see [`NbhdGraph::build`]).
/// * `adversarial` supplies instances with candidate cheating labelings
///   for the fallback violation search.
pub fn refute<D, F>(
    decoder: &D,
    universe: Vec<LabeledInstance>,
    id_mode: IdMode,
    is_yes: F,
    adversarial: &[(Instance, Vec<Labeling>)],
) -> RefutationOutcome
where
    D: Decoder + ?Sized,
    F: Fn(&Graph) -> bool,
{
    let two_col = KCol::new(2);
    let retained: Vec<LabeledInstance> = universe
        .into_iter()
        .filter(|li| is_yes(li.graph()))
        .collect();
    let nbhd = NbhdGraph::build(decoder, id_mode, retained.clone(), |_| true);
    let Some(odd_walk) = nbhd.odd_cycle() else {
        return RefutationOutcome::NoHidingWitness;
    };
    // Route 1: realize the odd cycle as G_bad (Lemma 5.1).
    if odd_walk.len() >= 3 {
        if let Some(realization) = realize_walk_over(&nbhd, &odd_walk, &retained) {
            let instance = realization.labeled.instance().clone();
            let labeling = realization.labeled.labeling().clone();
            if let Err(violation) = strong_holds_for(decoder, &two_col, &instance, &labeling) {
                return RefutationOutcome::Refuted(Box::new(Refutation {
                    odd_walk,
                    violation_instance: instance,
                    violation,
                    via_realization: true,
                }));
            }
        }
    }
    // Route 2: adversarial labelings on supplied no-instances.
    for (instance, labelings) in adversarial {
        for labeling in labelings {
            if let Err(violation) = strong_holds_for(decoder, &two_col, instance, labeling) {
                return RefutationOutcome::Refuted(Box::new(Refutation {
                    odd_walk,
                    violation_instance: instance.clone(),
                    violation,
                    via_realization: false,
                }));
            }
        }
    }
    RefutationOutcome::HidingOnly { odd_walk }
}

/// A port-oblivious anonymous one-round decoder on 2-regular views with
/// one-bit certificates: its verdict depends only on the center's bit and
/// the number of neighbors carrying bit 1. There are exactly `2^6 = 64`
/// such decoders; [`search_cycle_decoders`] enumerates them all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortObliviousCycleDecoder {
    /// Bit `2·c + ones.min(…)`… — entry `3·c + ones` of the table, where
    /// `c` is the center bit and `ones ∈ {0, 1, 2}` counts neighbor 1s.
    table: [bool; 6],
    code: u8,
}

impl PortObliviousCycleDecoder {
    /// The decoder with the given 6-bit truth table (entry `3c + ones`).
    pub fn from_code(code: u8) -> Self {
        let mut table = [false; 6];
        for (i, slot) in table.iter_mut().enumerate() {
            *slot = code >> i & 1 == 1;
        }
        PortObliviousCycleDecoder {
            table,
            code: code & 0x3f,
        }
    }

    /// The 6-bit code.
    pub fn code(&self) -> u8 {
        self.code
    }
}

impl Decoder for PortObliviousCycleDecoder {
    fn name(&self) -> String {
        format!("port-oblivious-{:02x}", self.code)
    }
    fn radius(&self) -> usize {
        1
    }
    fn id_mode(&self) -> IdMode {
        IdMode::Anonymous
    }
    fn decide(&self, view: &View) -> Verdict {
        if view.center_degree() != 2 {
            return Verdict::Reject;
        }
        let bit = |cert: &Certificate| -> Option<usize> {
            match cert.bytes() {
                [0] => Some(0),
                [1] => Some(1),
                _ => None,
            }
        };
        let Some(c) = bit(view.center_label()) else {
            return Verdict::Reject;
        };
        let mut ones = 0;
        for arc in view.center_arcs() {
            match bit(&view.node(arc.to).label) {
                Some(b) => ones += b,
                None => return Verdict::Reject,
            }
        }
        Verdict::from(self.table[3 * c + ones])
    }
}

/// The report of the exhaustive decoder search over
/// [`PortObliviousCycleDecoder`]s.
///
/// Interpretation guide: cycles are the class *exempted* by Theorems
/// 1.1/1.2 — strong and hiding LCPs exist there — so `all_three` need not
/// be empty. Two regimes are interesting:
///
/// * `even_sizes = [4]` (or any `C_{4k}` family): the "exactly one
///   neighbor carries 1" decoder (code 18) is complete, strong and hiding
///   — a port-oblivious cousin of Lemma 4.2's 2-edge-coloring LCP (the
///   1-labeled pairs encode one color class of the edge coloring);
/// * `even_sizes = [4, 6]`: no 1-bit port-oblivious decoder covers both
///   cycle lengths (code 18's certificates need `n ≡ 0 (mod 4)`), whereas
///   the paper's port-reading Lemma 4.2 decoder handles every even cycle —
///   an ablation showing the port numbers in its certificates are
///   essential at constant size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleSearchReport {
    /// Decoder codes that are complete on all supplied even cycles.
    pub complete: Vec<u8>,
    /// Codes that are strongly sound on all supplied cycles under every
    /// 1-bit labeling.
    pub strong: Vec<u8>,
    /// Codes whose neighborhood graph over the even cycles (all 1-bit
    /// labelings) contains an odd closed walk.
    pub hiding: Vec<u8>,
    /// Codes satisfying all three — Theorem 1.2 predicts this is empty.
    pub all_three: Vec<u8>,
}

/// Enumerates all 64 port-oblivious anonymous 1-round decoders with 1-bit
/// certificates and classifies them on cycles of the given sizes.
///
/// `even_sizes` are the yes-instances (completeness + hiding universe);
/// `all_sizes` (even and odd) are the strong-soundness test bed.
pub fn search_cycle_decoders(even_sizes: &[usize], all_sizes: &[usize]) -> CycleSearchReport {
    let alphabet = [Certificate::from_byte(0), Certificate::from_byte(1)];
    let two_col = KCol::new(2);
    let mut report = CycleSearchReport {
        complete: Vec::new(),
        strong: Vec::new(),
        hiding: Vec::new(),
        all_three: Vec::new(),
    };
    for code in 0u8..64 {
        let decoder = PortObliviousCycleDecoder::from_code(code);
        // Completeness: some labeling is unanimously accepted on every
        // even cycle — i.e. the exhaustive soundness sweep *finds* a
        // unanimously accepted labeling (returns a "violation").
        let complete = even_sizes.iter().all(|&n| {
            let inst = Instance::canonical(hiding_lcp_graph::generators::cycle(n));
            check_soundness_exhaustive(&decoder, &inst, &alphabet).is_err()
        });
        // Strong soundness: every labeling of every cycle leaves a
        // bipartite accepting set.
        let strong = all_sizes.iter().all(|&n| {
            let inst = Instance::canonical(hiding_lcp_graph::generators::cycle(n));
            check_strong_exhaustive(&decoder, &two_col, &inst, &alphabet).is_ok()
        });
        // Hiding: odd closed walk in V(D, ·) over all labelings of the
        // even cycles, swept on the engine.
        let universe = Universe::new(
            even_sizes
                .iter()
                .map(|&n| {
                    let inst = Instance::canonical(hiding_lcp_graph::generators::cycle(n));
                    Block::new(
                        inst,
                        LabelSource::All {
                            alphabet: alphabet.to_vec(),
                        },
                    )
                })
                .collect(),
            Coverage::Sampled,
        )
        .expect("small cycle universes fit usize");
        let nbhd = NbhdGraph::from_sweep(&decoder, IdMode::Anonymous, &universe, |g| {
            bipartite::is_bipartite(g)
        })
        .verdict;
        let hiding = nbhd.odd_cycle().is_some();
        if complete {
            report.complete.push(code);
        }
        if strong {
            report.strong.push(code);
        }
        if hiding {
            report.hiding.push(code);
        }
        if complete && strong && hiding {
            report.all_three.push(code);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::run;
    use hiding_lcp_graph::generators;

    #[test]
    fn port_oblivious_decoder_table() {
        // Code with bit for (c=0, ones=2) and (c=1, ones=0): the proper
        // 2-coloring acceptor.
        let code = (1 << 2) | (1 << 3);
        let d = PortObliviousCycleDecoder::from_code(code);
        assert_eq!(d.code(), code);
        let inst = Instance::canonical(generators::cycle(4));
        let proper: Labeling = (0..4)
            .map(|v| Certificate::from_byte((v % 2) as u8))
            .collect();
        assert!(run(&d, &inst.clone().with_labeling(proper))
            .iter()
            .all(|v| v.is_accept()));
        let constant = Labeling::uniform(4, Certificate::from_byte(0));
        assert!(run(&d, &inst.with_labeling(constant))
            .iter()
            .all(|v| !v.is_accept()));
    }

    #[test]
    fn non_two_regular_views_reject() {
        let d = PortObliviousCycleDecoder::from_code(0x3f);
        let inst = Instance::canonical(generators::path(3));
        let li = inst.with_labeling(Labeling::uniform(3, Certificate::from_byte(0)));
        let verdicts = run(&d, &li);
        assert!(!verdicts[0].is_accept(), "degree-1 endpoint rejects");
        assert!(verdicts[1].is_accept(), "degree-2 middle accepts");
    }

    #[test]
    fn malformed_certificates_reject() {
        let d = PortObliviousCycleDecoder::from_code(0x3f);
        let inst = Instance::canonical(generators::cycle(3));
        let li = inst.with_labeling(Labeling::uniform(3, Certificate::from_byte(7)));
        assert!(run(&d, &li).iter().all(|v| !v.is_accept()));
    }

    #[test]
    fn cycle_search_on_c4_finds_the_pair_encoding_decoder() {
        // Even cycles are the exempt class: on C4, the "exactly one
        // neighbor carries 1" decoder (code 18 = accept (c=0, ones=1) and
        // (c=1, ones=1)) is complete, strong and hiding.
        let report = search_cycle_decoders(&[4], &[3, 4, 5]);
        let pair_encoding = (1 << 1) | (1 << 4);
        assert_eq!(pair_encoding, 18);
        assert!(report.all_three.contains(&pair_encoding));
        // The proper-2-coloring acceptor is complete and strong but (being
        // revealing) not hiding.
        let reveal = (1 << 2) | (1 << 3);
        assert!(report.complete.contains(&reveal));
        assert!(report.strong.contains(&reveal));
        assert!(!report.hiding.contains(&reveal));
        // Accept-everything-2-regular is hiding but not strong.
        assert!(report.hiding.contains(&0x3f));
        assert!(!report.strong.contains(&0x3f));
    }

    #[test]
    fn cycle_search_on_c4_and_c6_needs_ports() {
        // Covering both C4 and C6 defeats every 1-bit port-oblivious
        // decoder (code 18's labelings only exist for n ≡ 0 mod 4), while
        // the paper's Lemma 4.2 decoder — which reads ports — handles all
        // even cycles. Ablation for experiment E11.
        let report = search_cycle_decoders(&[4, 6], &[3, 4, 5, 6]);
        assert!(
            report.all_three.is_empty(),
            "unexpected survivors: {:?}",
            report.all_three
        );
    }
}

#[cfg(test)]
mod mod4_tests {
    use super::search_cycle_decoders;

    /// The pair-encoding decoder (code 18) needs `n ≡ 0 (mod 4)`: it
    /// survives on {C4, C8} but not once C6 joins.
    #[test]
    fn pair_encoding_covers_exactly_the_mod_four_cycles() {
        let report = search_cycle_decoders(&[4, 8], &[3, 4, 5]);
        assert!(report.all_three.contains(&18), "C4 and C8 are both 0 mod 4");
        let report = search_cycle_decoders(&[4, 6, 8], &[3, 4, 5]);
        assert!(!report.complete.contains(&18), "C6 defeats code 18");
    }
}
