//! Symmetry-quotient enumeration: walk only canonical orbit
//! representatives, carry exact orbit multiplicities.
//!
//! The paper's properties are invariant under two symmetry families on an
//! `All`-labeled block:
//!
//! * **instance automorphisms** — a port-preserving bijection `π` of the
//!   block's instance (see `hiding_lcp_graph::algo::automorphism`) maps
//!   the labeling `L` to `L ∘ π⁻¹` without changing any anonymous view
//!   multiset, hence no verdict an anonymous decoder can produce;
//! * **alphabet bijections** — a permutation `σ` of the certificate
//!   alphabet that respects the decoder's label classes
//!   ([`crate::decoder::Decoder::label_classes`]) maps `L` to `σ ∘ L`
//!   without changing any verdict.
//!
//! Together they generate the product group `G = Aut × Young` acting on
//! labelings by `(π, σ) · L = σ ∘ L ∘ π⁻¹`. Under delta stepping
//! ([`super::SweepStrategy::DeltaStepping`]) every check that declares a
//! [`SymmetrySpec`] inspects only the *minimal* element of each orbit
//! under the universe's flat index order and tags it with the exact orbit
//! size `|G| / |Stab(L)|` (orbit–stabilizer), so any count a check derives
//! per item can be re-weighted to match the full walk bit-for-bit.
//!
//! # Canonical-rejection soundness
//!
//! A labeling is *canonical* iff no `g ∈ G` maps it to a lexicographically
//! smaller digit vector (most significant digit = highest node index,
//! matching the flat index order of [`super::Universe`]). This needs no
//! orbit materialization: each element is applied lazily and compared
//! digit-by-digit with early exit. Exactly one element per orbit survives
//! — the orbit minimum (it admits no smaller image; any other member has
//! the minimum as a strictly smaller image). Short-circuit semantics are
//! preserved because the *first* violating index of the full walk is
//! itself canonical: its orbit minimum also violates (invariance) and
//! cannot be smaller (else it would be an earlier violation), so the
//! quotient walk stops at the same index with the same witness and the
//! same `checked` count.
//!
//! A plan depends only on what a check declares, so a fused walk builds
//! one [`QuotientPlan`] per distinct declaration: members whose
//! [`SymmetrySpec`]s agree on every alphabet the walk visits share it,
//! and a worker classifies each item once per plan, while every member
//! still counts its own walks, skips and multiplicities.
//!
//! # Between-block classes
//!
//! The same invariance also holds *between* blocks: a port-preserving
//! isomorphism `φ` from one block's instance onto another's maps every
//! labeling `L` of the first to the labeling `L ∘ φ⁻¹` of the second
//! with the same anonymous views node for node. [`BlockClasses`] keys every
//! `All`-labeled block by its alphabet plus [`port_code`], and the engine
//! walks only the lowest-index block of each class, weighting its items
//! by the class size. The first violator of a full walk is never in a
//! jumped block: its image in the class's first block lies at a lower flat
//! index and records the same. Unlike the in-block quotient this needs no
//! per-item classification, and a block is jumped only when every check
//! of the walk declares automorphisms; a check that declares none still
//! walks every item of every kept block. The decode oracle walks in full.

use super::universe::{LabelSource, Universe};
use crate::instance::Instance;
use crate::label::Certificate;
use hiding_lcp_graph::algo::automorphism;
use std::cmp::Ordering;
use std::collections::HashMap;

/// What a [`super::PropertyCheck`] declares invariant on an `All`-labeled
/// block, given that block's certificate alphabet. Returned by
/// [`super::PropertyCheck::symmetry_class`]; the executor only ever
/// *shrinks* work based on it, so a check that cannot vouch for a
/// symmetry must not declare it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetrySpec {
    /// The verdict is invariant under relabeling along port-preserving
    /// automorphisms of the block's instance, and along port-preserving
    /// isomorphisms between blocks: an item and its image in another
    /// block over the same alphabet give equivalent partials and the same
    /// short-circuit decision. Identifiers play no part in either map, so
    /// only a check that ignores them may declare this. The engine then
    /// walks one block per port-isomorphism class, provided the check
    /// also treats the two blocks alike through
    /// [`uses_verdicts`](super::PropertyCheck::uses_verdicts), which is
    /// where a check that gates blocks by caller data must say so.
    pub automorphisms: bool,
    /// Class partition of the alphabet (index-aligned): permutations of
    /// certificates *within* a class preserve the verdict. `None` claims
    /// no alphabet symmetry.
    pub alphabet_classes: Option<Vec<usize>>,
}

/// Per-block cap on the materialized group. Orbit classification costs
/// `O(|G| · n)` integer compares per item in the worst case, so a block
/// more symmetric than this falls back to the full walk rather than
/// trading enumeration for classification.
const GROUP_CAP: usize = 4096;

/// The quotient classification for one sweep: per universe block, either
/// a materialized symmetry group or `None` (full walk for that block).
pub(super) struct QuotientPlan {
    blocks: Vec<Option<BlockGroup>>,
}

impl QuotientPlan {
    /// Builds the plan from the check's per-block symmetry declarations,
    /// for the blocks the walk visits (copies in `classes` get no group).
    /// Returns `None` when no block has a usable (non-trivial, under-cap)
    /// group — the sweep then runs exactly as plain delta stepping.
    pub(super) fn build(
        universe: &Universe,
        classes: &BlockClasses,
        mut spec_of: impl FnMut(&[Certificate]) -> Option<SymmetrySpec>,
    ) -> Option<QuotientPlan> {
        let mut blocks = Vec::with_capacity(universe.blocks().len());
        let mut any = false;
        for (b, block) in universe.blocks().iter().enumerate() {
            let group = match block.labels() {
                LabelSource::All { alphabet } if !classes.is_copy(b) => spec_of(alphabet)
                    .and_then(|spec| BlockGroup::build(block.instance(), alphabet.len(), &spec)),
                _ => None,
            };
            any |= group.is_some();
            blocks.push(group);
        }
        any.then_some(QuotientPlan { blocks })
    }

    /// Classifies the item at `digits` of `block`: `Some(multiplicity)`
    /// when it is its orbit's canonical representative (multiplicity =
    /// orbit size; 1 on blocks without a group), `None` when some group
    /// element maps it strictly smaller and it must be skipped.
    pub(super) fn classify(&self, block: usize, digits: &[usize]) -> Option<u64> {
        match &self.blocks[block] {
            None => Some(1),
            Some(group) => group.classify(digits),
        }
    }

    /// Whether `block` is actually quotiented.
    pub(super) fn is_active(&self, block: usize) -> bool {
        self.blocks[block].is_some()
    }

    /// How many blocks carry a materialized group — the telemetry
    /// layer's `quotient_blocks` counter.
    pub(super) fn active_blocks(&self) -> u64 {
        (0..self.blocks.len())
            .filter(|&b| self.is_active(b))
            .count() as u64
    }
}

/// The port-order BFS code of a connected instance, or `None` for a
/// disconnected or empty graph. From a start node, a breadth-first search
/// visits each node's neighbours in port order and numbers nodes as it
/// discovers them; the code lists, node by node in discovery order, the
/// node's degree followed by its neighbours' discovery indices in port
/// order. The instance's code is the minimum over start nodes. Two
/// connected instances have equal codes iff a port-preserving isomorphism
/// maps one onto the other: the searches from matching start nodes
/// discover matching nodes, and equal codes make the discovery order
/// itself such an isomorphism. Identifiers are not read.
pub(super) fn port_code(instance: &Instance) -> Option<Vec<usize>> {
    let ports = instance.ports();
    let n = instance.graph().node_count();
    let mut best: Option<Vec<usize>> = None;
    let mut index = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut code = Vec::new();
    for start in 0..n {
        index.fill(usize::MAX);
        order.clear();
        code.clear();
        index[start] = 0;
        order.push(start);
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            let degree = ports.degree(u);
            code.push(degree);
            for p in 1..=degree {
                // invariant: degrees fit in u16 (`PortAssignment::port_to`).
                let w = ports.neighbor_at(u, p as u16);
                if index[w] == usize::MAX {
                    index[w] = order.len();
                    order.push(w);
                }
                code.push(index[w]);
            }
        }
        if order.len() < n {
            return None;
        }
        if best.as_ref().is_none_or(|b| code < *b) {
            best = Some(code.clone());
        }
    }
    best
}

/// The between-block classes of one walk (see the module docs): which
/// `All`-labeled blocks are port-isomorphic copies of a lower-index block
/// over the same alphabet, and how many blocks each walked block stands
/// for.
pub(super) struct BlockClasses {
    /// `weight[b]`: the class size on a class's first block, 1 on a block
    /// with no copies, 0 on a copy, which the walk jumps over.
    weight: Vec<u64>,
}

impl BlockClasses {
    /// No block is a copy: the decode oracle's full walk.
    pub(super) fn none(universe: &Universe) -> BlockClasses {
        BlockClasses {
            weight: vec![1; universe.blocks().len()],
        }
    }

    /// Groups the `All`-labeled blocks by alphabet and [`port_code`]. A
    /// block joins the class of the lowest-index block with its key only
    /// if `admit(alphabet, first, block)` holds; otherwise it is walked on
    /// its own.
    pub(super) fn build(
        universe: &Universe,
        mut admit: impl FnMut(&[Certificate], usize, usize) -> bool,
    ) -> BlockClasses {
        let mut weight = vec![1u64; universe.blocks().len()];
        let mut first: HashMap<(&[Certificate], Vec<usize>), usize> = HashMap::new();
        for (b, block) in universe.blocks().iter().enumerate() {
            let LabelSource::All { alphabet } = block.labels() else {
                continue;
            };
            let Some(code) = port_code(block.instance()) else {
                continue;
            };
            let key = (alphabet.as_slice(), code);
            let Some(&kept) = first.get(&key) else {
                first.insert(key, b);
                continue;
            };
            if !admit(alphabet, kept, b) {
                continue;
            }
            #[cfg(conformance_mutants)]
            if crate::mutants::active("copy_keeps_last_block") {
                weight[b] = weight[kept] + 1;
                weight[kept] = 0;
                first.insert(key, b);
                continue;
            }
            weight[kept] += 1;
            weight[b] = 0;
        }
        #[cfg(conformance_mutants)]
        if crate::mutants::active("copy_weight_off_by_one") {
            for w in weight.iter_mut().filter(|w| **w > 1) {
                *w -= 1;
            }
        }
        BlockClasses { weight }
    }

    /// Whether the walk jumps over block `b`.
    pub(super) fn is_copy(&self, b: usize) -> bool {
        self.weight[b] == 0
    }

    /// How many blocks block `b`'s items stand for.
    pub(super) fn weight(&self, b: usize) -> u64 {
        self.weight[b]
    }
}

/// One block's materialized group: every non-identity element, stored as
/// the pair `(π⁻¹, σ)` so the image digit vector of `d` is read off as
/// `d'[v] = σ[d[π⁻¹(v)]]` without composing permutations per item.
struct BlockGroup {
    elems: Vec<(Vec<usize>, Vec<usize>)>,
    /// Full group order (`elems.len() + 1` for the omitted identity) —
    /// the numerator of the orbit–stabilizer count.
    order: u64,
}

impl BlockGroup {
    fn build(
        instance: &crate::instance::Instance,
        alphabet_len: usize,
        spec: &SymmetrySpec,
    ) -> Option<BlockGroup> {
        let n = instance.graph().node_count();
        let auts = if spec.automorphisms {
            automorphism::port_automorphisms(instance.graph(), instance.ports(), GROUP_CAP)?
        } else {
            vec![(0..n).collect()]
        };
        let sigmas = match &spec.alphabet_classes {
            Some(classes) if classes.len() == alphabet_len => {
                class_permutations(classes, GROUP_CAP)?
            }
            _ => vec![(0..alphabet_len).collect()],
        };
        let order = auts.len().checked_mul(sigmas.len())?;
        if order <= 1 || order > GROUP_CAP {
            return None;
        }
        let mut elems = Vec::with_capacity(order - 1);
        for aut in &auts {
            let mut pinv = vec![0usize; n];
            for (v, &w) in aut.iter().enumerate() {
                pinv[w] = v;
            }
            for sigma in &sigmas {
                let identity = aut.iter().enumerate().all(|(v, &w)| v == w)
                    && sigma.iter().enumerate().all(|(d, &e)| d == e);
                if !identity {
                    elems.push((pinv.clone(), sigma.clone()));
                }
            }
        }
        Some(BlockGroup {
            elems,
            order: order as u64,
        })
    }

    fn classify(&self, digits: &[usize]) -> Option<u64> {
        #[cfg(conformance_mutants)]
        if crate::mutants::active("orbit_reject_inverted") {
            return self.classify_inverted(digits);
        }
        let mut stabilizer = 1u64;
        for (pinv, sigma) in &self.elems {
            match self.compare_image(pinv, sigma, digits) {
                Ordering::Less => return None,
                Ordering::Equal => stabilizer += 1,
                Ordering::Greater => {}
            }
        }
        #[cfg_attr(not(conformance_mutants), allow(unused_mut))]
        let mut multiplicity = self.order / stabilizer;
        #[cfg(conformance_mutants)]
        if crate::mutants::active("orbit_mult_off_by_one") && multiplicity > 1 {
            multiplicity -= 1;
        }
        Some(multiplicity)
    }

    /// The `orbit_reject_inverted` mutant body: keeps exactly the
    /// *non-minimal* orbit members, which both drops every orbit of size
    /// one and multi-counts the rest.
    #[cfg(conformance_mutants)]
    fn classify_inverted(&self, digits: &[usize]) -> Option<u64> {
        let mut stabilizer = 1u64;
        let mut minimal = true;
        for (pinv, sigma) in &self.elems {
            match self.compare_image(pinv, sigma, digits) {
                Ordering::Less => minimal = false,
                Ordering::Equal => stabilizer += 1,
                Ordering::Greater => {}
            }
        }
        (!minimal).then_some(self.order / stabilizer)
    }

    /// Compares `(π, σ) · digits` against `digits` in flat index order:
    /// node 0 is the least significant digit, so the scan starts at the
    /// highest node index and exits at the first difference.
    fn compare_image(&self, pinv: &[usize], sigma: &[usize], digits: &[usize]) -> Ordering {
        for v in (0..digits.len()).rev() {
            let image = sigma[digits[pinv[v]]];
            match image.cmp(&digits[v]) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        Ordering::Equal
    }
}

/// All permutations of `0..classes.len()` that keep every position inside
/// its class (the Young subgroup of the class partition), or `None` when
/// there are more than `cap`.
fn class_permutations(classes: &[usize], cap: usize) -> Option<Vec<Vec<usize>>> {
    let k = classes.len();
    let mut out: Vec<Vec<usize>> = vec![(0..k).collect()];
    let distinct: std::collections::BTreeSet<usize> = classes.iter().copied().collect();
    for class in distinct {
        let members: Vec<usize> = (0..k).filter(|&i| classes[i] == class).collect();
        if members.len() < 2 {
            continue;
        }
        let perms = permutations_of(&members);
        if out.len().checked_mul(perms.len())? > cap {
            return None;
        }
        let members = &members;
        out = out
            .iter()
            .flat_map(|base| {
                perms.iter().map(move |assignment| {
                    let mut next = base.clone();
                    for (slot, &target) in members.iter().zip(assignment) {
                        next[*slot] = base[target];
                    }
                    next
                })
            })
            .collect();
    }
    Some(out)
}

fn permutations_of(items: &[usize]) -> Vec<Vec<usize>> {
    if items.is_empty() {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for (i, &x) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations_of(&rest) {
            tail.insert(0, x);
            out.push(tail);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::universe::{Block, Coverage, LabelSource, Universe};
    use super::*;
    use crate::instance::Instance;
    use crate::label::Certificate;
    use hiding_lcp_graph::{generators, ports, IdAssignment};

    fn symmetric_cycle_universe(n: usize, k: usize) -> Universe {
        let g = generators::cycle(n);
        let prt = ports::cycle_symmetric(&g);
        let inst = Instance::new(g, prt, IdAssignment::canonical(n)).unwrap();
        let alphabet: Vec<Certificate> = (0..k).map(|c| Certificate::from_byte(c as u8)).collect();
        Universe::new(
            vec![Block::new(inst, LabelSource::All { alphabet })],
            Coverage::Exhaustive,
        )
        .unwrap()
    }

    fn plan_with(universe: &Universe, spec: SymmetrySpec) -> QuotientPlan {
        QuotientPlan::build(universe, &BlockClasses::none(universe), |_| {
            Some(spec.clone())
        })
        .expect("non-trivial group")
    }

    #[test]
    fn orbit_multiplicities_partition_the_universe() {
        let n = 6;
        let k = 2;
        let universe = symmetric_cycle_universe(n, k);
        let plan = plan_with(
            &universe,
            SymmetrySpec {
                automorphisms: true,
                alphabet_classes: None,
            },
        );
        assert!(plan.is_active(0));
        let mut total = 0u64;
        let mut representatives = 0usize;
        for i in 0..universe.len() {
            let (block, offset) = universe.locate(i);
            let digits = universe.digits_at(block, offset).unwrap();
            if let Some(mult) = plan.classify(block, &digits) {
                total += mult;
                representatives += 1;
            }
        }
        assert_eq!(total, (k as u64).pow(n as u32), "orbits partition Σ^n");
        // Burnside for Z_6 on 2 colors: (2^6 + 2 + 2^2 + 2^3 + 2^2 + 2)/6
        // = 14 binary necklaces of length 6.
        assert_eq!(representatives, 14);
    }

    #[test]
    fn alphabet_classes_compound_with_rotations() {
        let n = 4;
        let k = 2;
        let universe = symmetric_cycle_universe(n, k);
        let plan = plan_with(
            &universe,
            SymmetrySpec {
                automorphisms: true,
                alphabet_classes: Some(vec![0, 0]),
            },
        );
        let mut total = 0u64;
        let mut reps = Vec::new();
        for i in 0..universe.len() {
            let (block, offset) = universe.locate(i);
            let digits = universe.digits_at(block, offset).unwrap();
            if let Some(mult) = plan.classify(block, &digits) {
                total += mult;
                reps.push(digits);
            }
        }
        assert_eq!(total, 16);
        // Binary necklaces of length 4 up to rotation AND color swap:
        // 0000, 0001, 0011, 0101, 0111, 1111 collapse to 0000, 0001,
        // 0011, 0101 — four orbits.
        assert_eq!(reps.len(), 4);
        assert!(reps.contains(&vec![0, 0, 0, 0]));
        assert!(!reps.iter().any(|d| d.iter().all(|&x| x == 1)));
    }

    #[test]
    fn representative_is_the_orbit_minimum() {
        let universe = symmetric_cycle_universe(5, 3);
        let plan = plan_with(
            &universe,
            SymmetrySpec {
                automorphisms: true,
                alphabet_classes: None,
            },
        );
        // For every canonical representative, every rotation of it must
        // be ≥ it in flat-index order.
        let n = 5;
        let flat = |d: &[usize]| -> u64 {
            d.iter()
                .rev()
                .fold(0u64, |acc, &digit| acc * 3 + digit as u64)
        };
        for i in 0..universe.len() {
            let digits = universe.digits_at(0, i).unwrap();
            if plan.classify(0, &digits).is_some() {
                for s in 1..n {
                    let rotated: Vec<usize> = (0..n).map(|v| digits[(v + n - s) % n]).collect();
                    assert!(flat(&rotated) >= flat(&digits));
                }
            }
        }
    }

    #[test]
    fn trivial_symmetry_yields_no_plan() {
        let universe = symmetric_cycle_universe(4, 2);
        assert!(QuotientPlan::build(&universe, &BlockClasses::none(&universe), |_| None).is_none());
        assert!(
            QuotientPlan::build(&universe, &BlockClasses::none(&universe), |_| Some(
                SymmetrySpec {
                    automorphisms: false,
                    alphabet_classes: None,
                }
            ))
            .is_none()
        );
    }

    #[test]
    fn fixed_blocks_pass_through_with_multiplicity_one() {
        let g = generators::cycle(4);
        let prt = ports::cycle_symmetric(&g);
        let inst = Instance::new(g, prt, IdAssignment::canonical(4)).unwrap();
        let universe = Universe::new(
            vec![Block::new(inst, LabelSource::Unlabeled)],
            Coverage::Exhaustive,
        )
        .unwrap();
        assert!(
            QuotientPlan::build(&universe, &BlockClasses::none(&universe), |_| Some(
                SymmetrySpec {
                    automorphisms: true,
                    alphabet_classes: None,
                }
            ))
            .is_none()
        );
    }

    /// Whether some node bijection maps `a` onto `b` port for port, by
    /// trying every permutation of the nodes.
    fn port_isomorphic(a: &Instance, b: &Instance) -> bool {
        let n = a.graph().node_count();
        if n != b.graph().node_count() {
            return false;
        }
        let (pa, pb) = (a.ports(), b.ports());
        permutations_of(&(0..n).collect::<Vec<_>>())
            .iter()
            .any(|perm| {
                (0..n).all(|v| {
                    let d = pa.degree(v);
                    d == pb.degree(perm[v])
                        && (1..=d as u16)
                            .all(|p| perm[pa.neighbor_at(v, p)] == pb.neighbor_at(perm[v], p))
                })
            })
    }

    fn admit_all(_: &[Certificate], _: usize, _: usize) -> bool {
        true
    }

    #[test]
    fn lemma31_blocks_fall_into_124_port_classes() {
        let universe = Universe::lemma31(4, vec![Certificate::from_byte(0)]).unwrap();
        let classes = BlockClasses::build(&universe, admit_all);
        let blocks = universe.blocks();
        assert_eq!(blocks.len(), 1502);
        let kept: Vec<usize> = (0..blocks.len()).filter(|&b| !classes.is_copy(b)).collect();
        assert_eq!(kept.len(), 124);
        let k4 = |b: &&usize| blocks[**b].instance().graph().edge_count() == 6;
        assert_eq!(kept.iter().filter(k4).count(), 60);
        let weights: u64 = kept.iter().map(|&b| classes.weight(b)).sum();
        assert_eq!(weights, 1502, "class weights cover every block");
    }

    #[test]
    fn port_code_agrees_with_brute_force_isomorphism() {
        let universe = Universe::lemma31(4, vec![Certificate::from_byte(0)]).unwrap();
        let instances: Vec<&Instance> = universe.blocks().iter().map(|b| b.instance()).collect();
        // Port isomorphism is an equivalence, so a block's brute-force
        // class is the first class whose representative it maps onto.
        let mut reps: Vec<usize> = Vec::new();
        let mut class = Vec::with_capacity(instances.len());
        for (b, inst) in instances.iter().enumerate() {
            let c = match reps
                .iter()
                .position(|&r| port_isomorphic(instances[r], inst))
            {
                Some(c) => c,
                None => {
                    reps.push(b);
                    reps.len() - 1
                }
            };
            class.push(c);
        }
        assert_eq!(reps.len(), 124);
        let codes: Vec<Vec<usize>> = instances
            .iter()
            .map(|inst| port_code(inst).expect("Lemma 3.1 graphs are connected"))
            .collect();
        for a in 0..instances.len() {
            for b in a + 1..instances.len() {
                assert_eq!(
                    codes[a] == codes[b],
                    class[a] == class[b],
                    "blocks {a} and {b}"
                );
            }
        }
    }

    #[test]
    fn blocks_over_different_alphabets_never_merge() {
        let triangle = || Instance::canonical(generators::cycle(3));
        let alphabet = |k: u8| LabelSource::All {
            alphabet: (0..k).map(Certificate::from_byte).collect(),
        };
        let universe = Universe::new(
            vec![
                Block::new(triangle(), alphabet(2)),
                Block::new(triangle(), alphabet(3)),
                Block::new(triangle(), alphabet(2)),
                Block::new(triangle(), LabelSource::Unlabeled),
            ],
            Coverage::Exhaustive,
        )
        .unwrap();
        let classes = BlockClasses::build(&universe, admit_all);
        let weights: Vec<u64> = (0..4).map(|b| classes.weight(b)).collect();
        assert_eq!(weights, [2, 1, 0, 1]);
        let refused = BlockClasses::build(&universe, |_, _, _| false);
        assert!((0..4).all(|b| refused.weight(b) == 1));
    }

    #[test]
    fn disconnected_instances_get_no_code() {
        let mut g = hiding_lcp_graph::Graph::new(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(2, 3).unwrap();
        assert_eq!(port_code(&Instance::canonical(g)), None);
        assert!(port_code(&Instance::canonical(generators::path(3))).is_some());
    }

    #[test]
    fn class_permutations_respect_the_partition() {
        // Classes [0, 0, 1]: only the first two positions may swap.
        let perms = class_permutations(&[0, 0, 1], 100).unwrap();
        assert_eq!(perms.len(), 2);
        assert!(perms.contains(&vec![0, 1, 2]));
        assert!(perms.contains(&vec![1, 0, 2]));
        // All three in one class: 3! permutations.
        assert_eq!(class_permutations(&[7, 7, 7], 100).unwrap().len(), 6);
        // Cap respected.
        assert_eq!(class_permutations(&[0; 8], 100), None);
    }
}
