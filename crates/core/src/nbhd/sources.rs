//! Honest instance lists for neighborhood-graph construction.
//!
//! Lemma 3.1 iterates over *all* labeled yes-instances of size ≤ n. The
//! engine walks that family without materializing it:
//! [`Universe::lemma31`](crate::verify::Universe::lemma31) is every
//! connected graph on at most `n` nodes under every port assignment and
//! every labeling from an alphabet, and any other exhaustive family (one
//! instance, an identifier ordering per block, a chosen list of graphs) is
//! a [`Universe::new`](crate::verify::Universe::new) of
//! [`LabelSource::All`](crate::verify::LabelSource::All) blocks, which
//! [`NbhdGraph::from_sweep`](super::NbhdGraph::from_sweep) sweeps.
//!
//! What stays here is the honest end of the range, [`prover_labeled`]: a
//! prover's labeling on each instance of a family (the paper's hiding
//! proofs only ever need two seeded honest instances, e.g. Figs. 3 and 5),
//! materialized for [`NbhdGraph::build`](super::NbhdGraph::build).

use crate::instance::{Instance, LabeledInstance};
use crate::prover::Prover;

/// Labels each instance with `prover`'s certificate assignment, skipping
/// instances the prover declines.
pub fn prover_labeled<P: Prover + ?Sized>(
    prover: &P,
    instances: impl IntoIterator<Item = Instance>,
) -> Vec<LabeledInstance> {
    instances
        .into_iter()
        .filter_map(|inst| {
            let labeling = prover.certify(&inst)?;
            Some(inst.with_labeling(labeling))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Labeling;
    use crate::prover::FixedProver;
    use hiding_lcp_graph::generators;

    #[test]
    fn prover_labeled_skips_declined() {
        let prover = FixedProver::new(Labeling::empty(3));
        let instances = vec![
            Instance::canonical(generators::path(3)),
            Instance::canonical(generators::path(4)), // wrong arity: declined
        ];
        let labeled = prover_labeled(&prover, instances);
        assert_eq!(labeled.len(), 1);
    }
}
