//! Completeness: on every yes-instance there is a labeling accepted by all
//! nodes (paper, Section 2.2).
//!
//! Runs on the [`crate::verify`] engine via [`CompletenessCheck`]: the
//! universe contributes one (unlabeled) item per instance, and the prover
//! supplies the labeling inside [`PropertyCheck::inspect`].

use crate::decoder::Decoder;
use crate::instance::Instance;
use crate::prover::Prover;
use crate::verify::{
    Coverage, DynPropertyCheck, ItemCtx, PropertyCheck, PropertyTag, SweepOutcome, SweepSession,
    Universe, UniverseItem,
};
use crate::view::IdMode;

/// The outcome of a completeness check over a batch of instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletenessReport {
    /// Number of instances on which the prover produced a labeling and all
    /// nodes accepted.
    pub passed: usize,
    /// Instances that failed, with the reason.
    pub failures: Vec<CompletenessFailure>,
    /// The largest certificate (in bits) the prover used across all
    /// passing instances.
    pub max_certificate_bits: usize,
}

impl CompletenessReport {
    /// Whether every instance passed.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Why one instance failed the completeness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompletenessFailure {
    /// The prover declined to certify (returned `None`).
    ProverDeclined {
        /// Index of the instance in the checked batch.
        instance: usize,
    },
    /// Some node rejected the prover's labeling.
    NodeRejected {
        /// Index of the instance in the checked batch.
        instance: usize,
        /// The rejecting node.
        node: usize,
    },
}

/// Per-instance completeness evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompletenessOutcome {
    /// The prover certified and every node accepted; records the largest
    /// certificate, in bits.
    Passed(usize),
    /// The prover declined.
    Declined,
    /// The first rejecting node under the prover's labeling.
    Rejected(usize),
}

/// The completeness property as a sweepable check: each universe item is
/// one (unlabeled) instance; the prover's labeling is produced and judged
/// during inspection. No short-circuit — every instance is reported.
pub struct CompletenessCheck<'a, D: ?Sized, P: ?Sized> {
    /// The decoder under test.
    pub decoder: &'a D,
    /// The prover whose labelings must be unanimously accepted.
    pub prover: &'a P,
}

impl<D: Decoder + ?Sized, P: Prover + ?Sized> PropertyCheck for CompletenessCheck<'_, D, P> {
    type Partial = CompletenessOutcome;
    type Verdict = CompletenessReport;

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        vec![(self.decoder.radius(), self.decoder.id_mode())]
    }

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<CompletenessOutcome> {
        let Some(labeling) = self.prover.certify(item.instance) else {
            return Some(CompletenessOutcome::Declined);
        };
        let bits = labeling.max_bits();
        let verdicts = ctx.run_with(item, &labeling, self.decoder);
        Some(match verdicts.iter().position(|v| !v.is_accept()) {
            Some(node) => CompletenessOutcome::Rejected(node),
            None => CompletenessOutcome::Passed(bits),
        })
    }

    fn reduce(
        &self,
        _universe: &Universe,
        partials: Vec<(usize, CompletenessOutcome)>,
        _outcome: &SweepOutcome,
    ) -> CompletenessReport {
        let mut report = CompletenessReport {
            passed: 0,
            failures: Vec::new(),
            max_certificate_bits: 0,
        };
        for (idx, outcome) in partials {
            match outcome {
                CompletenessOutcome::Passed(bits) => {
                    report.passed += 1;
                    #[cfg(conformance_mutants)]
                    if crate::mutants::active("completeness_bits_min") {
                        report.max_certificate_bits = if report.passed == 1 {
                            bits
                        } else {
                            report.max_certificate_bits.min(bits)
                        };
                        continue;
                    }
                    report.max_certificate_bits = report.max_certificate_bits.max(bits);
                }
                CompletenessOutcome::Declined => report
                    .failures
                    .push(CompletenessFailure::ProverDeclined { instance: idx }),
                CompletenessOutcome::Rejected(node) => {
                    report.failures.push(CompletenessFailure::NodeRejected {
                        instance: idx,
                        node,
                    })
                }
            }
        }
        report
    }
}

/// [`CompletenessCheck`] as a panel member. Completeness judges the
/// prover's labeling, not the item's, so the member keeps a private
/// verdict channel (its [`PropertyCheck::verdict_decoder`] is `None`).
pub fn completeness_member<'a>(
    decoder: &'a dyn Decoder,
    prover: &'a dyn Prover,
) -> DynPropertyCheck<'a> {
    DynPropertyCheck::with_summary(
        PropertyTag::Completeness,
        "completeness",
        CompletenessCheck { decoder, prover },
        |v: &CompletenessReport, _| {
            (
                Some(v.all_passed()),
                format!(
                    "{} passed, {} failed, max certificate {} bits",
                    v.passed,
                    v.failures.len(),
                    v.max_certificate_bits
                ),
            )
        },
    )
}

/// Checks completeness of `(prover, decoder)` on each instance.
///
/// The caller is responsible for passing only instances whose graphs lie
/// in the LCP's promise class (completeness quantifies over yes-instances
/// only).
pub fn check_completeness<D, P, I>(decoder: &D, prover: &P, instances: I) -> CompletenessReport
where
    D: Decoder + ?Sized,
    P: Prover + ?Sized,
    I: IntoIterator<Item = Instance>,
{
    // One unlabeled item per instance; completeness is an existential per
    // instance (the prover's labeling), not a sweep over labelings —
    // coverage over instances is whatever the caller sampled.
    let universe = Universe::instances_only(instances, Coverage::Sampled)
        .expect("one item per materialized instance fits usize");
    SweepSession::over(&universe)
        .run(&CompletenessCheck { decoder, prover })
        .verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::Verdict;
    use crate::label::{Certificate, Labeling};
    use crate::view::{IdMode, View};
    use hiding_lcp_graph::generators;

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

    /// Certifies bipartite graphs by revealing a 2-coloring.
    struct BipartiteProver;
    impl Prover for BipartiteProver {
        fn name(&self) -> String {
            "bipartite".into()
        }
        fn certify(&self, instance: &Instance) -> Option<Labeling> {
            let sides = hiding_lcp_graph::algo::bipartite::bipartition(instance.graph()).ok()?;
            Some(sides.iter().map(|&s| Certificate::from_byte(s)).collect())
        }
    }

    #[test]
    fn complete_on_bipartite_instances() {
        let instances = [
            Instance::canonical(generators::cycle(6)),
            Instance::canonical(generators::path(5)),
            Instance::canonical(generators::grid(3, 4)),
        ];
        let report = check_completeness(&LocalDiff, &BipartiteProver, instances);
        assert!(report.all_passed());
        assert_eq!(report.passed, 3);
        assert_eq!(report.max_certificate_bits, 8);
    }

    #[test]
    fn prover_decline_is_reported() {
        let instances = [Instance::canonical(generators::cycle(5))];
        let report = check_completeness(&LocalDiff, &BipartiteProver, instances);
        assert!(!report.all_passed());
        assert_eq!(
            report.failures,
            vec![CompletenessFailure::ProverDeclined { instance: 0 }]
        );
    }

    #[test]
    fn node_rejection_is_reported() {
        // A prover handing out a constant labeling fails local-diff.
        struct ConstantProver;
        impl Prover for ConstantProver {
            fn name(&self) -> String {
                "constant".into()
            }
            fn certify(&self, instance: &Instance) -> Option<Labeling> {
                Some(Labeling::uniform(
                    instance.graph().node_count(),
                    Certificate::from_byte(0),
                ))
            }
        }
        let instances = [Instance::canonical(generators::path(3))];
        let report = check_completeness(&LocalDiff, &ConstantProver, instances);
        assert_eq!(
            report.failures,
            vec![CompletenessFailure::NodeRejected {
                instance: 0,
                node: 0
            }]
        );
    }
}
