//! Shared workload builders for the `hiding-lcp` benchmark harness and
//! the `repro` experiment binary.
//!
//! Each function corresponds to one experiment of `EXPERIMENTS.md` and
//! returns the exact object the experiment measures, so Criterion benches
//! and the printed tables cannot drift apart.

pub mod report;

use hiding_lcp_certs::{degree_one, even_cycle, revealing, shatter, watermelon};
use hiding_lcp_core::instance::{Instance, LabeledInstance};
use hiding_lcp_core::nbhd::NbhdGraph;
use hiding_lcp_core::prover::Prover;
use hiding_lcp_core::verify::Universe;
use hiding_lcp_core::view::IdMode;
use hiding_lcp_graph::algo::bipartite;
use hiding_lcp_graph::{generators, IdAssignment};

/// E2: the degree-one hiding universe over `P₄` (all ports, all accepting
/// labelings).
pub fn degree_one_universe() -> Vec<LabeledInstance> {
    let g = generators::path(4);
    let mut universe = Vec::new();
    for ports in hiding_lcp_graph::ports::all_port_assignments(&g, 100) {
        let inst = Instance::new(g.clone(), ports, IdAssignment::canonical(4)).expect("valid");
        for labeling in degree_one::accepting_labelings(&inst) {
            universe.push(inst.clone().with_labeling(labeling));
        }
    }
    universe
}

/// E2: the degree-one neighborhood graph.
pub fn degree_one_nbhd() -> NbhdGraph {
    NbhdGraph::build(
        &degree_one::DegreeOneDecoder,
        IdMode::Anonymous,
        degree_one_universe(),
        |g| bipartite::is_bipartite(g) && g.min_degree() == Some(1),
    )
}

/// E3: the even-cycle hiding universe over `C₄` (all ports, both
/// polarities).
pub fn even_cycle_universe() -> Vec<LabeledInstance> {
    let g = generators::cycle(4);
    let mut universe = Vec::new();
    for ports in hiding_lcp_graph::ports::all_port_assignments(&g, 100) {
        let inst = Instance::new(g.clone(), ports, IdAssignment::canonical(4)).expect("valid");
        for polarity in [0, 1] {
            if let Some(labeling) = even_cycle::certify_with_polarity(&inst, polarity) {
                universe.push(inst.clone().with_labeling(labeling));
            }
        }
    }
    universe
}

/// E3: the even-cycle neighborhood graph.
pub fn even_cycle_nbhd() -> NbhdGraph {
    NbhdGraph::build(
        &even_cycle::EvenCycleDecoder,
        IdMode::Anonymous,
        even_cycle_universe(),
        hiding_lcp_graph::classes::simple::is_even_cycle,
    )
}

/// E3 scaling series: the even-cycle universe at cycle size `n`
/// (canonical + rotation-symmetric ports, both polarities).
pub fn even_cycle_universe_sized(n: usize) -> Vec<LabeledInstance> {
    let g = generators::cycle(n);
    let assignments = vec![
        hiding_lcp_graph::PortAssignment::canonical(&g),
        hiding_lcp_graph::ports::cycle_symmetric(&g),
    ];
    let mut universe = Vec::new();
    for ports in assignments {
        let inst = Instance::new(g.clone(), ports, IdAssignment::canonical(n)).expect("valid");
        for polarity in [0, 1] {
            if let Some(labeling) = even_cycle::certify_with_polarity(&inst, polarity) {
                universe.push(inst.clone().with_labeling(labeling));
            }
        }
    }
    universe
}

/// E2 scaling series: the degree-one universe over a path of `len` nodes
/// (canonical ports, all accepting labelings).
pub fn degree_one_universe_sized(len: usize) -> Vec<LabeledInstance> {
    let inst = Instance::canonical(generators::path(len));
    degree_one::accepting_labelings(&inst)
        .into_iter()
        .map(|labeling| inst.clone().with_labeling(labeling))
        .collect()
}

/// E5: the shatter-point neighborhood graph over the paper's `P₁`/`P₂`
/// witnesses.
pub fn shatter_nbhd() -> NbhdGraph {
    NbhdGraph::build(
        &shatter::ShatterDecoder,
        IdMode::Full,
        shatter::hiding_witness_instances(),
        bipartite::is_bipartite,
    )
}

/// E6: the watermelon neighborhood graph over the id-swap universe.
pub fn watermelon_nbhd() -> NbhdGraph {
    NbhdGraph::build(
        &watermelon::WatermelonDecoder,
        IdMode::Full,
        watermelon::hiding_witness_universe(),
        bipartite::is_bipartite,
    )
}

/// E7: the exhaustive revealing-LCP neighborhood graph at size bound
/// `max_n` with the binary alphabet.
pub fn revealing_nbhd(max_n: usize) -> NbhdGraph {
    let alphabet = revealing::adversary_alphabet(1); // bytes {0, 1}
    let universe = Universe::lemma31(max_n, alphabet).expect("small universe fits");
    NbhdGraph::from_sweep(
        &revealing::RevealingDecoder::new(2),
        IdMode::Anonymous,
        &universe,
        bipartite::is_bipartite,
    )
    .verdict
}

/// E13: one honestly-labeled instance per LCP on a size-`n` workload,
/// for verification-throughput measurements. Returns
/// `(name, decoder, labeled instance)` triples.
pub fn throughput_workloads(
    n: usize,
) -> Vec<(
    String,
    Box<dyn hiding_lcp_core::decoder::Decoder>,
    LabeledInstance,
)> {
    let mut out: Vec<(
        String,
        Box<dyn hiding_lcp_core::decoder::Decoder>,
        LabeledInstance,
    )> = Vec::new();
    let even = if n.is_multiple_of(2) { n } else { n + 1 };

    let inst = Instance::canonical(generators::cycle(even.max(4)));
    let prover = revealing::RevealingProver::new(2);
    let labeling = prover.certify(&inst).expect("even cycle is 2-colorable");
    out.push((
        "revealing".into(),
        Box::new(revealing::RevealingDecoder::new(2)),
        inst.with_labeling(labeling),
    ));

    let inst = Instance::canonical(generators::path(n.max(2)));
    let labeling = degree_one::DegreeOneProver
        .certify(&inst)
        .expect("paths are in H1");
    out.push((
        "degree-one".into(),
        Box::new(degree_one::DegreeOneDecoder),
        inst.with_labeling(labeling),
    ));

    let inst = Instance::canonical(generators::cycle(even.max(4)));
    let labeling = even_cycle::EvenCycleProver
        .certify(&inst)
        .expect("even cycle");
    out.push((
        "even-cycle".into(),
        Box::new(even_cycle::EvenCycleDecoder),
        inst.with_labeling(labeling),
    ));

    let inst = Instance::canonical(generators::path(n.max(8)));
    let labeling = shatter::ShatterProver
        .certify(&inst)
        .expect("paths shatter");
    out.push((
        "shatter".into(),
        Box::new(shatter::ShatterDecoder),
        inst.with_labeling(labeling),
    ));

    // Keep endpoint degrees below the certificate format's 255-port cap
    // by growing path lengths rather than path counts.
    let count = (n / 8).clamp(2, 64);
    let len = ((n.saturating_sub(2)) / count).max(2) & !1; // even lengths
    let lens = vec![len.max(2); count];
    let inst = Instance::canonical(generators::watermelon(&lens));
    let labeling = watermelon::WatermelonProver
        .certify(&inst)
        .expect("even watermelon");
    out.push((
        "watermelon".into(),
        Box::new(watermelon::WatermelonDecoder),
        inst.with_labeling(labeling),
    ));

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universes_are_nonempty_and_hiding() {
        assert!(degree_one_nbhd().odd_cycle().is_some());
        assert!(even_cycle_nbhd().odd_cycle().is_some());
        assert!(shatter_nbhd().odd_cycle().is_some());
    }

    #[test]
    fn revealing_nbhd_is_colorable() {
        let nbhd = revealing_nbhd(3);
        assert!(nbhd.k_colorable(2));
    }

    #[test]
    fn sized_universes_scale_and_stay_accepted() {
        for n in [4usize, 8, 16] {
            let u = even_cycle_universe_sized(n);
            assert_eq!(u.len(), 4, "2 port assignments x 2 polarities");
            for li in &u {
                assert!(hiding_lcp_core::decoder::accepts_all(
                    &even_cycle::EvenCycleDecoder,
                    li
                ));
            }
        }
        // Paths always have two pendants: 2 polarities x (plain + 2
        // hidden) = 6 accepting labelings regardless of length.
        assert_eq!(degree_one_universe_sized(4).len(), 6);
        assert_eq!(degree_one_universe_sized(8).len(), 6);
        for li in degree_one_universe_sized(6) {
            assert!(hiding_lcp_core::decoder::accepts_all(
                &degree_one::DegreeOneDecoder,
                &li
            ));
        }
    }

    #[test]
    fn throughput_workloads_all_accept() {
        for (name, decoder, li) in throughput_workloads(16) {
            assert!(
                hiding_lcp_core::decoder::accepts_all(decoder.as_ref(), &li),
                "{name} workload rejected"
            );
        }
    }
}
