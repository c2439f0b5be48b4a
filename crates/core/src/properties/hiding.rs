//! The hiding property, checked through the Lemma 3.2 characterization.
//!
//! `D` hides a k-coloring iff `V(D, n)` is not k-colorable for some `n`.
//! The Lemma 3.1 scan [`NbhdSweep`] builds `V(D, ·)`; [`check_hiding`]
//! reads it at the [`Coverage`] the scan's walk achieved, which is what
//! makes the check one-sided:
//!
//! * a non-k-colorable `V(D, ·)` (odd closed walk for k = 2) is already
//!   conclusive — the views involved exist, so no decoder can color them
//!   consistently: **hiding**;
//! * a k-colorable `V(D, ·)` is conclusive only when the walk covered the
//!   full Lemma 3.1 family for the size bound in question (exhaustive
//!   universe, no interruption, no errored item): **not hiding (at this
//!   n)**, and [`crate::extract`] actually builds the extractor.
//!
//! [`verify_hiding`], [`hiding_member`] and the audit plan's hiding line
//! all take that coverage from the engine's report of the walk.

use crate::decoder::Decoder;
use crate::nbhd::{NbhdGraph, NbhdSweep};
use crate::verify::{
    Coverage, DynPropertyCheck, PropertyTag, SweepSession, Universe, VerificationReport,
};
use crate::view::IdMode;
use hiding_lcp_graph::Graph;

/// The outcome of a hiding check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HidingVerdict {
    /// `V(D, ·)` contains an odd closed walk (length 1 = self-loop):
    /// the decoder hides a 2-coloring. Conclusive even over a partial
    /// universe.
    Hiding {
        /// The odd closed walk, as view indices into the checked
        /// [`NbhdGraph`].
        odd_walk: Vec<usize>,
    },
    /// `V(D, ·)` is k-colorable over an exhaustive universe: the decoder
    /// is **not** hiding at this size bound; the coloring is the
    /// extractor's table.
    NotHiding {
        /// The lexicographically-first proper coloring of the views.
        coloring: Vec<usize>,
    },
    /// `V(D, ·)` is k-colorable but the walk covered only part of the
    /// family: no conclusion.
    Inconclusive,
}

impl HidingVerdict {
    /// Whether hiding was certified.
    pub fn is_hiding(&self) -> bool {
        matches!(self, HidingVerdict::Hiding { .. })
    }
}

/// Applies Lemma 3.2 to a built neighborhood graph, at the coverage of the
/// walk that built it: [`Coverage::Exhaustive`] only when that walk
/// covered every labeled yes-instance up to the size bound, so a
/// colorable `V(D, n)` genuinely refutes hiding at this `n`.
///
/// `k` is the number of colors of the certified language (2 throughout the
/// paper's main results).
pub fn check_hiding(nbhd: &NbhdGraph, k: usize, coverage: Coverage) -> HidingVerdict {
    #[cfg(conformance_mutants)]
    let coverage = if crate::mutants::active("hiding_partial_conclusive") {
        Coverage::Exhaustive
    } else {
        coverage
    };
    if k == 2 {
        if let Some(odd_walk) = nbhd.odd_cycle() {
            return HidingVerdict::Hiding { odd_walk };
        }
    } else if !nbhd.k_colorable(k) {
        // For k > 2 we have no compact witness object; report the whole
        // view set as the "walk".
        return HidingVerdict::Hiding {
            odd_walk: (0..nbhd.view_count()).collect(),
        };
    }
    match coverage {
        Coverage::Exhaustive => match nbhd.lex_coloring(k) {
            Some(coloring) => HidingVerdict::NotHiding { coloring },
            None => HidingVerdict::Hiding {
                odd_walk: (0..nbhd.view_count()).collect(),
            },
        },
        Coverage::Sampled => HidingVerdict::Inconclusive,
    }
}

/// The hiding property as a panel member: the Lemma 3.1 scan with anonymous
/// extractor views (the hiding definition quantifies over anonymous
/// decoders `D'`), summarized by Lemma 3.2 at the coverage the member
/// achieved. Its verdict is `V(D, ·)`. Joined to `decoder`'s verdict
/// channel, so a fused audit maintains one delta-evaluated verdict vector
/// for every member built on the same decoder object. As with the scan,
/// the member is tied to the universe it was built for, whose coverage
/// its summary names when the walk falls short.
pub fn hiding_member<'a, F>(
    decoder: &'a dyn Decoder,
    universe: &Universe,
    k: usize,
    is_yes: F,
) -> DynPropertyCheck<'a>
where
    F: Fn(&Graph) -> bool,
{
    let universe_coverage = universe.coverage();
    DynPropertyCheck::with_summary(
        PropertyTag::Hiding,
        "hiding",
        NbhdSweep::new(decoder, IdMode::Anonymous, universe, is_yes),
        move |nbhd: &NbhdGraph, coverage| hiding_line(nbhd, k, universe_coverage, coverage),
    )
    .with_channel(decoder)
}

/// The hiding audit line of `nbhd` built at the walk's achieved
/// `coverage`: Lemma 3.2's verdict as `passed` and its detail text. An
/// inconclusive line blames what fell short: the universe when
/// `universe_coverage` is itself sampled, the walk (interrupted or
/// errored) when the universe was exhaustive. The summary of
/// [`hiding_member`] and of the audit plan's hiding line.
pub(crate) fn hiding_line(
    nbhd: &NbhdGraph,
    k: usize,
    universe_coverage: Coverage,
    coverage: Coverage,
) -> (Option<bool>, String) {
    match check_hiding(nbhd, k, coverage) {
        HidingVerdict::Hiding { .. } => (Some(true), "V(D, .) is not k-colorable".into()),
        HidingVerdict::NotHiding { .. } => (
            Some(false),
            "V(D, .) is k-colorable over an exhaustive universe".into(),
        ),
        HidingVerdict::Inconclusive => (
            None,
            match universe_coverage {
                Coverage::Exhaustive => {
                    "V(D, .) k-colorable but the walk did not cover the universe"
                }
                Coverage::Sampled => "V(D, .) k-colorable but the universe was partial",
            }
            .into(),
        ),
    }
}

/// Checks hiding of `decoder` on the engine: sweeps `universe` with the
/// Lemma 3.1 scan (anonymous extractor views), then applies Lemma 3.2 at
/// the report's achieved coverage — the universe's own, downgraded when
/// the walk was interrupted or an item errored. The verdict comes with
/// the neighborhood graph (for witness extraction) and the sweep's
/// execution evidence.
pub fn verify_hiding<D, F>(
    decoder: &D,
    universe: &Universe,
    k: usize,
    is_yes: F,
) -> VerificationReport<(NbhdGraph, HidingVerdict)>
where
    D: Decoder + ?Sized,
    F: Fn(&Graph) -> bool,
{
    let check = NbhdSweep::new(decoder, IdMode::Anonymous, universe, is_yes);
    let report = SweepSession::over(universe).run(&check);
    let coverage = report.coverage;
    report.map(|nbhd| {
        let verdict = check_hiding(&nbhd, k, coverage);
        (nbhd, verdict)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{Decoder, Verdict};
    use crate::instance::{Instance, LabeledInstance};
    use crate::label::{Certificate, Labeling};
    use crate::verify::{AuditPlan, InstanceSet};
    use crate::view::{IdMode, View};
    use hiding_lcp_graph::algo::bipartite;
    use hiding_lcp_graph::generators;

    /// Accepts everything.
    struct YesMan;
    impl Decoder for YesMan {
        fn name(&self) -> String {
            "yes-man".into()
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

    /// Accepts iff the node's certificate differs from all neighbors'.
    struct LocalDiff;
    impl Decoder for LocalDiff {
        fn name(&self) -> String {
            "local-diff".into()
        }
        fn radius(&self) -> usize {
            1
        }
        fn id_mode(&self) -> IdMode {
            IdMode::Anonymous
        }
        fn decide(&self, view: &View) -> Verdict {
            let mine = view.center_label();
            Verdict::from(
                view.center_arcs()
                    .iter()
                    .all(|arc| view.node(arc.to).label != *mine),
            )
        }
    }

    /// Panics on every view, so every inspection that decides errors.
    struct PanicsOnEveryView;
    impl Decoder for PanicsOnEveryView {
        fn name(&self) -> String {
            "panics-on-every-view".into()
        }
        fn radius(&self) -> usize {
            1
        }
        fn id_mode(&self) -> IdMode {
            IdMode::Anonymous
        }
        fn decide(&self, _view: &View) -> Verdict {
            panic!("no verdict for any view")
        }
    }

    /// `V(D, ·)` of `li` alone, over a sampled universe.
    fn verify_sampled(decoder: &dyn Decoder, li: LabeledInstance) -> (NbhdGraph, HidingVerdict) {
        let universe = Universe::from_labeled(vec![li], Coverage::Sampled).expect("one item fits");
        let report = verify_hiding(decoder, &universe, 2, bipartite::is_bipartite);
        assert_eq!(report.coverage, Coverage::Sampled);
        report.verdict
    }

    #[test]
    fn yes_man_is_trivially_hiding() {
        // Accept-everything reveals nothing: its neighborhood graph over
        // unlabeled C4 has a self-loop.
        let li = Instance::canonical(generators::cycle(4)).with_labeling(Labeling::empty(4));
        let (_, verdict) = verify_sampled(&YesMan, li);
        assert!(verdict.is_hiding());
        assert_eq!(verdict, HidingVerdict::Hiding { odd_walk: vec![0] });
    }

    /// Lemma 4.1's rules on one-byte letters 0 and 1 (colours), 2 (⊥) and
    /// 3 (⊤), as the certs crate's degree-one decoder states them (that
    /// crate builds on this one, so its types are not this crate's).
    struct DegreeOne;
    impl Decoder for DegreeOne {
        fn name(&self) -> String {
            "degree-one".into()
        }
        fn radius(&self) -> usize {
            1
        }
        fn id_mode(&self) -> IdMode {
            IdMode::Anonymous
        }
        fn decide(&self, view: &View) -> Verdict {
            let letter = |c: &Certificate| match c.bytes() {
                [b @ 0..=3] => Some(*b),
                _ => None,
            };
            let neighbors: Option<Vec<u8>> = view
                .center_arcs()
                .iter()
                .map(|arc| letter(&view.node(arc.to).label))
                .collect();
            let (Some(mine), Some(neighbors)) = (letter(view.center_label()), neighbors) else {
                return Verdict::Reject;
            };
            let count = |l: u8| neighbors.iter().filter(|&&n| n == l).count();
            Verdict::from(match mine {
                2 => neighbors.len() == 1 && count(3) == 1,
                3 => count(2) == 1 && count(3) == 0 && (count(0) == 0 || count(1) == 0),
                color => count(3) <= 1 && count(2) == 0 && count(color) == 0,
            })
        }
    }

    /// `V(D, ·)` over `universe` materialized item by item, one `Fixed`
    /// block per labeled instance: the reference for the engine's walk of
    /// the indexed family, which jumps copy blocks and inspects one
    /// labeling per orbit.
    fn materialized<D: Decoder>(
        decoder: &D,
        universe: &Universe,
        is_yes: impl Fn(&Graph) -> bool,
    ) -> NbhdGraph {
        let items = (0..universe.len())
            .map(|i| universe.labeled_instance(i))
            .collect();
        NbhdGraph::build(decoder, IdMode::Anonymous, items, is_yes)
    }

    #[test]
    fn revealing_lcp_is_not_hiding_over_exhaustive_universe() {
        let alphabet = vec![Certificate::from_byte(0), Certificate::from_byte(1)];
        let universe = Universe::lemma31(4, alphabet).expect("n <= 4 universe fits");
        let report = verify_hiding(&LocalDiff, &universe, 2, bipartite::is_bipartite);
        assert_eq!(report.coverage, Coverage::Exhaustive);
        let (nbhd, verdict) = report.verdict;
        match verdict {
            HidingVerdict::NotHiding { coloring } => {
                assert_eq!(coloring.len(), nbhd.view_count());
            }
            other => panic!("revealing LCP must not hide: {other:?}"),
        }
        assert_eq!(
            nbhd,
            materialized(&LocalDiff, &universe, bipartite::is_bipartite)
        );
        // Degree-one over its four letters, on the promise class.
        let letters = (0..4).map(Certificate::from_byte).collect();
        let universe = Universe::lemma31(3, letters).expect("n <= 3 universe fits");
        let promise = |g: &Graph| bipartite::is_bipartite(g) && g.min_degree() == Some(1);
        let (nbhd, _) = verify_hiding(&DegreeOne, &universe, 2, promise).verdict;
        assert!(nbhd.view_count() > 0);
        assert_eq!(nbhd, materialized(&DegreeOne, &universe, promise));
    }

    #[test]
    fn engine_sweep_matches_materialized_build() {
        // The engine path (typed-coverage universe, skeleton cache,
        // odometer labelings) and the materialized path must agree on the
        // graph and, thanks to the typed coverage, on the verdict.
        let alphabet = vec![Certificate::from_byte(0), Certificate::from_byte(1)];
        let universe = Universe::lemma31(3, alphabet).expect("n <= 3 universe fits");
        let report = verify_hiding(&LocalDiff, &universe, 2, bipartite::is_bipartite);
        assert_eq!(report.universe_size, 86);
        let (nbhd, verdict) = report.verdict;
        assert_eq!(
            nbhd,
            materialized(&LocalDiff, &universe, bipartite::is_bipartite)
        );
        assert!(matches!(verdict, HidingVerdict::NotHiding { .. }));
    }

    #[test]
    fn partial_universe_without_odd_walk_is_inconclusive() {
        let li = {
            let inst = Instance::canonical(generators::cycle(4));
            let labels = (0..4)
                .map(|v| Certificate::from_byte((v % 2) as u8))
                .collect();
            inst.with_labeling(labels)
        };
        let universe =
            Universe::from_labeled(vec![li.clone()], Coverage::Sampled).expect("one item fits");
        assert_eq!(
            verify_sampled(&LocalDiff, li).1,
            HidingVerdict::Inconclusive
        );
        // A complete walk of a sampled universe blames the universe.
        let member = hiding_member(&LocalDiff, &universe, 2, bipartite::is_bipartite);
        let panel = SweepSession::over(&universe).run_panel(&[member]);
        assert_eq!(
            panel.members[0].verdict.detail,
            "V(D, .) k-colorable but the universe was partial"
        );
    }

    #[test]
    fn an_errored_walk_is_inconclusive_on_every_path() {
        // The one labeling of a one-letter C4 over an exhaustive universe:
        // its inspection panics, so V(D, .) is empty, and colorable, without
        // the walk covering the family. Every path must read the walk's
        // downgraded coverage instead of the universe's.
        let c4 = Instance::canonical(generators::cycle(4));
        let one_letter = vec![Certificate::from_byte(0)];
        let universe =
            Universe::all_labelings_of(c4.clone(), one_letter.clone(), Coverage::Exhaustive)
                .expect("one labeling fits");
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = verify_hiding(&PanicsOnEveryView, &universe, 2, bipartite::is_bipartite);
        let panel = SweepSession::over(&universe).run_panel(&[hiding_member(
            &PanicsOnEveryView,
            &universe,
            2,
            bipartite::is_bipartite,
        )]);
        let audit = AuditPlan::new(
            &PanicsOnEveryView,
            2,
            InstanceSet::Explicit {
                instances: vec![c4],
                coverage: Coverage::Exhaustive,
            },
            one_letter,
        )
        .properties([PropertyTag::Hiding])
        .run();
        std::panic::set_hook(prev);

        assert_eq!(
            report.verdict.1,
            HidingVerdict::Inconclusive,
            "verify_hiding"
        );
        assert_eq!(
            (report.coverage, report.errors.len()),
            (Coverage::Sampled, 1)
        );
        // The universe is exhaustive, so both lines blame the walk.
        let walk_short = "V(D, .) k-colorable but the walk did not cover the universe";
        let member = &panel.members[0];
        assert_eq!(member.verdict.passed, None, "hiding_member");
        assert_eq!(member.verdict.detail, walk_short, "hiding_member");
        assert_eq!(
            (member.coverage, member.errors.len()),
            (Coverage::Sampled, 1)
        );
        let line = &audit.panels[0].members[0];
        assert_eq!(line.property, "hiding");
        assert_eq!(line.passed, None, "audit plan");
        assert_eq!(line.detail, walk_short, "audit plan");
        assert_eq!((line.coverage, line.errors), (Coverage::Sampled, 1));
    }
}
