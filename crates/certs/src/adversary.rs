//! Structured malicious provers shared by the soundness experiments.
//!
//! Honest certificates are locally plausible by construction, so the most
//! dangerous forgeries are *small perturbations of honest proofs* rather
//! than random noise. These helpers derive such perturbations from any
//! prover.

use hiding_lcp_core::instance::Instance;
use hiding_lcp_core::label::{Certificate, Labeling};
use hiding_lcp_core::prover::Prover;
use rand::Rng;

/// All single-node substitutions of `base` with letters from `alphabet`:
/// `n · |alphabet|` labelings.
pub fn single_flips(base: &Labeling, alphabet: &[Certificate]) -> Vec<Labeling> {
    let mut out = Vec::with_capacity(base.node_count() * alphabet.len());
    for v in 0..base.node_count() {
        for letter in alphabet {
            let mut l = base.clone();
            l.set(v, letter.clone());
            out.push(l);
        }
    }
    out
}

/// All transpositions of two nodes' certificates in `base`:
/// `n(n−1)/2` labelings.
pub fn swaps(base: &Labeling) -> Vec<Labeling> {
    let n = base.node_count();
    let mut out = Vec::with_capacity(n * (n.saturating_sub(1)) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            let mut l = base.clone();
            let (a, b) = (base.label(u).clone(), base.label(v).clone());
            l.set(u, b);
            l.set(v, a);
            out.push(l);
        }
    }
    out
}

/// Single-bit flips: every one-bit perturbation of every certificate in
/// `base` — `Σ_v bit_len(cert_v)` labelings, probing whether decoders
/// validate certificate *contents* rather than just their shape.
pub fn bit_flips(base: &Labeling) -> Vec<Labeling> {
    let mut out = Vec::new();
    for v in 0..base.node_count() {
        let bytes = base.label(v).bytes();
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let mut l = base.clone();
            l.set(v, Certificate::from_bytes(flipped));
            out.push(l);
        }
    }
    out
}

/// Truncations: every prefix-shortened variant of each certificate (byte
/// granularity), probing format validation.
pub fn truncations(base: &Labeling) -> Vec<Labeling> {
    let mut out = Vec::new();
    for v in 0..base.node_count() {
        let bytes = base.label(v).bytes();
        for cut in 0..bytes.len() {
            let mut l = base.clone();
            l.set(v, Certificate::from_bytes(bytes[..cut].to_vec()));
            out.push(l);
        }
    }
    out
}

/// The full structured battery derived from a prover's honest labeling on
/// a *different* (donor) instance grafted onto `target` — labels that are
/// internally consistent but tell the story of another graph. Falls back
/// to flips/swaps/truncations of any honest labeling of `target` itself
/// when available.
pub fn battery<P: Prover + ?Sized>(
    prover: &P,
    target: &Instance,
    donors: &[Instance],
    alphabet: &[Certificate],
) -> Vec<Labeling> {
    let n = target.graph().node_count();
    let mut out = Vec::new();
    if let Some(honest) = prover.certify(target) {
        out.extend(single_flips(&honest, alphabet));
        out.extend(swaps(&honest));
        out.extend(truncations(&honest));
        out.extend(bit_flips(&honest));
        out.push(honest);
    }
    for donor in donors {
        if let Some(labels) = prover.certify(donor) {
            let m = labels.node_count();
            if m == 0 {
                continue;
            }
            // Graft by index modulo the donor size.
            out.push((0..n).map(|v| labels.label(v % m).clone()).collect());
        }
    }
    out
}

/// `count` random labelings over `alphabet` (thin wrapper kept here so
/// experiment code has a single adversary entry point).
pub fn random_batch<R: Rng + ?Sized>(
    n: usize,
    alphabet: &[Certificate],
    count: usize,
    rng: &mut R,
) -> Vec<Labeling> {
    (0..count)
        .map(|_| hiding_lcp_core::prover::random_labeling(n, alphabet, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree_one::{adversary_alphabet, DegreeOneProver};
    use hiding_lcp_core::language::KCol;
    use hiding_lcp_core::properties::strong;
    use hiding_lcp_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn flip_and_swap_counts() {
        let base = Labeling::uniform(4, Certificate::from_byte(0));
        assert_eq!(single_flips(&base, &adversary_alphabet()).len(), 20);
        assert_eq!(swaps(&base).len(), 6);
        assert_eq!(truncations(&base).len(), 4, "one byte per certificate");
        assert_eq!(bit_flips(&base).len(), 32, "8 bits per 1-byte certificate");
    }

    #[test]
    fn bit_flips_differ_from_base_in_one_bit() {
        let base = Labeling::uniform(3, Certificate::from_byte(0b1010_0101));
        for l in bit_flips(&base) {
            let differing: usize = (0..3)
                .map(|v| {
                    let a = base.label(v).bytes();
                    let b = l.label(v).bytes();
                    a.iter()
                        .zip(b)
                        .map(|(x, y)| (x ^ y).count_ones() as usize)
                        .sum::<usize>()
                })
                .sum();
            assert_eq!(differing, 1, "exactly one bit flipped across the labeling");
        }
    }

    #[test]
    fn battery_survives_strong_soundness_of_degree_one() {
        // The Lemma 4.1 decoder withstands the full structured battery on
        // a pendant odd cycle.
        let two_col = KCol::new(2);
        let target = Instance::canonical(generators::pendant_path(5, 1));
        let donors = vec![
            Instance::canonical(generators::path(7)),
            Instance::canonical(generators::star(5)),
        ];
        let labelings = battery(&DegreeOneProver, &target, &donors, &adversary_alphabet());
        assert!(!labelings.is_empty());
        for labeling in &labelings {
            if labeling.node_count() != target.graph().node_count() {
                continue;
            }
            assert!(strong::strong_holds_for(
                &crate::degree_one::DegreeOneDecoder,
                &two_col,
                &target,
                labeling
            )
            .is_ok());
        }
    }

    #[test]
    fn random_batch_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let batch = random_batch(5, &adversary_alphabet(), 7, &mut rng);
        assert_eq!(batch.len(), 7);
        assert!(batch.iter().all(|l| l.node_count() == 5));
    }
}
