//! Exhaustive strong-soundness sweeps on the triangle (the smallest
//! no-instance) for every LCP, over focused-but-complete certificate
//! alphabets. A sweep of this kind concretely caught the far-port
//! transcription gap in the watermelon decoder (see
//! `certs/src/watermelon.rs`), so these are kept deliberately exhaustive
//! rather than randomized.

use hiding_lcp::certs::{degree_one, even_cycle, revealing, shatter, union, watermelon};
use hiding_lcp::core::decoder::Decoder;
use hiding_lcp::core::instance::Instance;
use hiding_lcp::core::label::Certificate;
use hiding_lcp::core::language::KCol;
use hiding_lcp::core::properties::strong;
use hiding_lcp::graph::generators;

fn triangle() -> Instance {
    Instance::canonical(generators::cycle(3))
}

fn sweep<D: Decoder>(decoder: &D, alphabet: &[Certificate]) -> usize {
    let two_col = KCol::new(2);
    let inst = triangle();
    strong::check_strong_exhaustive(decoder, &two_col, &inst, alphabet)
        .unwrap_or_else(|v| panic!("{}: violated by {:?}", decoder.name(), v.labeling))
}

#[test]
fn revealing_exhaustive_on_triangle() {
    let checked = sweep(
        &revealing::RevealingDecoder::new(2),
        &revealing::adversary_alphabet(2),
    );
    assert_eq!(checked, 27);
}

#[test]
fn degree_one_exhaustive_on_triangle() {
    let checked = sweep(
        &degree_one::DegreeOneDecoder,
        &degree_one::adversary_alphabet(),
    );
    assert_eq!(checked, 125);
}

#[test]
fn even_cycle_exhaustive_on_triangle() {
    let checked = sweep(
        &even_cycle::EvenCycleDecoder,
        &even_cycle::adversary_alphabet(),
    );
    assert_eq!(checked, 17usize.pow(3));
}

#[test]
fn union_exhaustive_on_triangle() {
    // The full union alphabet is large; sweep the degree-one half and the
    // even-cycle half separately (cross-tag edges reject at both ends, so
    // mixed-tag labelings only shrink the accepting set further — the
    // interesting adversaries are single-tag).
    let mut a = Vec::new();
    for payload in degree_one::adversary_alphabet() {
        a.push(union::tag_certificate(union::TAG_DEGREE_ONE, &payload));
    }
    a.push(Certificate::from_byte(9));
    let checked = sweep(&union::UnionDecoder, &a);
    assert_eq!(checked, 216);
    let mut b = Vec::new();
    for payload in even_cycle::adversary_alphabet() {
        b.push(union::tag_certificate(union::TAG_EVEN_CYCLE, &payload));
    }
    let checked = sweep(&union::UnionDecoder, &b);
    assert_eq!(checked, 17usize.pow(3));
}

/// Every well-formed shatter certificate a triangle adversary could use:
/// points/neighborhoods/components over the triangle's own identifiers
/// (plus one foreign identifier), all component numbers in 0..3, both
/// colors, color vectors up to length 2.
#[test]
fn shatter_exhaustive_on_triangle() {
    let inst = triangle();
    let width = shatter::id_width(inst.ids().bound());
    let mut alphabet = Vec::new();
    let ids: Vec<u64> = (1..=4).collect(); // 3 real ids + 1 foreign
    for &id in &ids {
        alphabet.push(shatter::ShatterLabel::Point { id }.encode(width));
        for colors in [
            vec![0],
            vec![1],
            vec![0, 0],
            vec![0, 1],
            vec![1, 0],
            vec![1, 1],
        ] {
            alphabet.push(shatter::ShatterLabel::Neighborhood { id, colors }.encode(width));
        }
        for component in 0..2u8 {
            for color in 0..=1u8 {
                alphabet.push(
                    shatter::ShatterLabel::Component {
                        id,
                        component,
                        color,
                    }
                    .encode(width),
                );
            }
        }
    }
    alphabet.push(Certificate::from_byte(7));
    // 4 * (1 + 6 + 4) + 1 = 45 letters -> 45^3 = 91125 labelings.
    let checked = sweep(&shatter::ShatterDecoder, &alphabet);
    assert_eq!(checked, 45usize.pow(3));
}

/// Every well-formed watermelon certificate over the triangle's ids: both
/// endpoint-pair orderings, path numbers 0/1, all far-port pairs in
/// {1, 2}², both color polarities.
#[test]
fn watermelon_exhaustive_on_triangle() {
    let inst = triangle();
    let width = shatter::id_width(inst.ids().bound());
    let mut alphabet = Vec::new();
    let pairs = [(1u64, 2u64), (1, 3), (2, 3)];
    for &(id1, id2) in &pairs {
        alphabet.push(watermelon::MelonLabel::Endpoint { id1, id2 }.encode(width));
        for path in 0..2u16 {
            for p1 in 1..=2u8 {
                for p2 in 1..=2u8 {
                    for c1 in 0..=1u8 {
                        alphabet.push(
                            watermelon::MelonLabel::PathNode {
                                id1,
                                id2,
                                path,
                                edges: [(p1, c1), (p2, 1 - c1)],
                            }
                            .encode(width),
                        );
                    }
                }
            }
        }
    }
    alphabet.push(Certificate::from_byte(7));
    // 3 * (1 + 16) + 1 = 52 letters -> 52^3 = 140608 labelings.
    let checked = sweep(&watermelon::WatermelonDecoder, &alphabet);
    assert_eq!(checked, 52usize.pow(3));
}

/// The same watermelon sweep on C5 with a reduced alphabet — odd cycles
/// longer than the triangle stress the path-consistency rules instead of
/// the endpoint rules.
#[test]
fn watermelon_exhaustive_on_c5_reduced() {
    let inst = Instance::canonical(generators::cycle(5));
    let width = shatter::id_width(inst.ids().bound());
    let mut alphabet = Vec::new();
    let (id1, id2) = (1u64, 3u64);
    alphabet.push(watermelon::MelonLabel::Endpoint { id1, id2 }.encode(width));
    for p1 in 1..=2u8 {
        for p2 in 1..=2u8 {
            for c1 in 0..=1u8 {
                alphabet.push(
                    watermelon::MelonLabel::PathNode {
                        id1,
                        id2,
                        path: 0,
                        edges: [(p1, c1), (p2, 1 - c1)],
                    }
                    .encode(width),
                );
            }
        }
    }
    // 9 letters -> 9^5 = 59049 labelings.
    let two_col = KCol::new(2);
    let checked =
        strong::check_strong_exhaustive(&watermelon::WatermelonDecoder, &two_col, &inst, &alphabet)
            .expect("strongly sound on C5");
    assert_eq!(checked, 9usize.pow(5));
}

/// Degree-one on the 5-cycle — the smallest odd cycle where a hidden
/// pocket could try to straddle two nodes.
#[test]
fn degree_one_exhaustive_on_c5() {
    let two_col = KCol::new(2);
    let inst = Instance::canonical(generators::cycle(5));
    let checked = strong::check_strong_exhaustive(
        &degree_one::DegreeOneDecoder,
        &two_col,
        &inst,
        &degree_one::adversary_alphabet(),
    )
    .expect("strongly sound on C5");
    assert_eq!(checked, 5usize.pow(5));
}

/// The paper's observation in Section 2.3, mechanized: strong soundness
/// implies plain soundness. For every LCP, the same triangle sweeps that
/// establish the strong property also pass the plain soundness checker
/// (no labeling is unanimously accepted on a no-instance).
#[test]
fn strong_implies_plain_soundness_on_the_triangle() {
    use hiding_lcp::core::properties::soundness;
    let inst = triangle();
    let checked = soundness::check_soundness_exhaustive(
        &degree_one::DegreeOneDecoder,
        &inst,
        &degree_one::adversary_alphabet(),
    )
    .expect("sound");
    assert_eq!(checked, 125);
    let checked = soundness::check_soundness_exhaustive(
        &even_cycle::EvenCycleDecoder,
        &inst,
        &even_cycle::adversary_alphabet(),
    )
    .expect("sound");
    assert_eq!(checked, 17usize.pow(3));
    let checked = soundness::check_soundness_exhaustive(
        &revealing::RevealingDecoder::new(2),
        &inst,
        &revealing::adversary_alphabet(2),
    )
    .expect("sound");
    assert_eq!(checked, 27);
}

/// Every ordering of the identifiers `1..=n`.
fn orderings(n: u64) -> Vec<Vec<u64>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    orderings(n - 1)
        .into_iter()
        .flat_map(|rest| {
            (0..=rest.len()).map(move |pos| {
                let mut next = rest.clone();
                next.insert(pos, n);
                next
            })
        })
        .collect()
}

/// Order-invariant extractor classes: over the order-enumerated Lemma 3.1
/// universe at n <= 3 (every connected graph under every identifier
/// ordering, every port assignment and every binary labeling), the
/// revealing LCP's OrderOnly neighborhood graph is still 2-colorable (not
/// hiding from order-invariant decoders either).
#[test]
fn revealing_not_hiding_from_order_invariant_extractors() {
    use hiding_lcp::core::nbhd::NbhdGraph;
    use hiding_lcp::core::verify::{Block, Coverage, LabelSource, Universe};
    use hiding_lcp::graph::algo::bipartite;
    use hiding_lcp::graph::{ids, ports, IdAssignment};
    let alphabet = revealing::adversary_alphabet(1);
    let mut blocks = Vec::new();
    for g in generators::connected_graphs_up_to(3) {
        let n = g.node_count();
        for order in orderings(n as u64) {
            let ids = IdAssignment::from_ids(order, ids::default_bound(n))
                .expect("an ordering of 1..=n is injective");
            for ports in ports::all_port_assignments(&g, 100_000) {
                let instance = Instance::new(g.clone(), ports, ids.clone())
                    .expect("enumerated assignments fit");
                let alphabet = alphabet.clone();
                blocks.push(Block::new(instance, LabelSource::All { alphabet }));
            }
        }
    }
    let universe = Universe::new(blocks, Coverage::Exhaustive).expect("490 items fit");
    // n = 1: 1 ordering × 1 port assignment × 2 labelings; n = 2: 2 × 1 × 4;
    // the path P3: 6 × 2 × 8; the triangle: 6 × 8 × 8.
    assert_eq!(universe.len(), 490);
    let nbhd = NbhdGraph::from_sweep(
        &revealing::RevealingDecoder::new(2),
        hiding_lcp::core::view::IdMode::OrderOnly,
        &universe,
        bipartite::is_bipartite,
    )
    .verdict;
    assert!(nbhd.view_count() > 0);
    assert!(nbhd.k_colorable(2));
    assert!(
        hiding_lcp::core::extract::Extractor::from_nbhd(nbhd, 2).is_some(),
        "an order-invariant extractor exists"
    );
}
