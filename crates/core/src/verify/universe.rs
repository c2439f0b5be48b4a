//! The instance universe a property sweep ranges over.
//!
//! A [`Universe`] is a deterministic, chunkable stream of labeled
//! instances: a list of [`Block`]s (one per [`Instance`]), each paired
//! with a [`LabelSource`] describing which labelings of that instance the
//! sweep visits. Items are addressed by a single flat index, so the
//! parallel executor can partition the stream into chunks without
//! materializing it; [`Universe::labeling_at`] decodes the labeling of any
//! item in `O(n)` by reading the index as a mixed-radix odometer.
//!
//! Crucially for the paper's claims, the universe carries its own
//! [`Coverage`]: a sweep over [`Coverage::Exhaustive`] input is entitled to
//! conclude universally quantified statements (Lemma 3.2 needs *every*
//! labeling of *every* yes-instance up to size `n`), while
//! [`Coverage::Sampled`] input only ever supports refutations. Callers no
//! longer assert coverage out of band — it travels with the data.

use crate::instance::{Instance, LabeledInstance};
use crate::label::{Certificate, Labeling};
use hiding_lcp_graph::generators;
use std::fmt;

/// A universe whose item count does not fit in `usize`, so its flat index
/// space cannot address every item.
///
/// Construction reports this instead of panicking: a sweep over `>= 2^64`
/// items could never complete anyway, and callers (e.g. the exhaustive
/// property checkers) can fall back to lazy per-labeling iteration, which
/// may still terminate via a short-circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniverseOverflow {
    /// Index of the block at which the running item count overflowed.
    pub block: usize,
}

impl fmt::Display for UniverseOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "universe item count overflows usize at block {}",
            self.block
        )
    }
}

impl std::error::Error for UniverseOverflow {}

/// Whether a universe provably contains every instance/labeling pair of the
/// family it describes, or only a sample of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Coverage {
    /// Every labeling of every listed instance is present; universal
    /// conclusions (e.g. Lemma 3.2 hiding verdicts) are sound.
    Exhaustive,
    /// A subset; only existential conclusions (counterexamples) are sound.
    Sampled,
}

/// The labelings a block contributes to the sweep.
#[derive(Debug, Clone)]
pub enum LabelSource {
    /// Every function `V -> alphabet`, enumerated in the same odometer
    /// order as [`all_labelings`](crate::prover::all_labelings) (node 0 is
    /// the least-significant digit).
    All {
        /// The certificate alphabet.
        alphabet: Vec<Certificate>,
    },
    /// An explicit list of labelings, visited in order.
    Fixed(Vec<Labeling>),
    /// A single all-empty labeling — for checks (like completeness) whose
    /// labeling comes from elsewhere (the prover), not the universe.
    Unlabeled,
}

impl LabelSource {
    /// Number of labelings this source yields on an `n`-node instance, or
    /// `None` if `|alphabet|^n` overflows `usize`.
    fn count(&self, n: usize) -> Option<usize> {
        match self {
            LabelSource::All { alphabet } => {
                if alphabet.is_empty() {
                    // Matches `all_labelings`: one empty labeling iff n == 0.
                    Some(usize::from(n == 0))
                } else {
                    u32::try_from(n)
                        .ok()
                        .and_then(|n| alphabet.len().checked_pow(n))
                }
            }
            LabelSource::Fixed(labelings) => Some(labelings.len()),
            LabelSource::Unlabeled => Some(1),
        }
    }
}

/// One instance together with the labelings swept over it.
#[derive(Debug, Clone)]
pub struct Block {
    instance: Instance,
    labels: LabelSource,
}

impl Block {
    /// Couples an instance with a label source.
    ///
    /// # Panics
    ///
    /// Panics if a `Fixed` labeling has the wrong arity.
    pub fn new(instance: Instance, labels: LabelSource) -> Block {
        if let LabelSource::Fixed(labelings) = &labels {
            for labeling in labelings {
                assert_eq!(
                    labeling.node_count(),
                    instance.graph().node_count(),
                    "fixed labeling must cover every node"
                );
            }
        }
        Block { instance, labels }
    }

    /// The block's instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The block's label source.
    pub fn labels(&self) -> &LabelSource {
        &self.labels
    }

    /// Number of items in this block, or `None` if it overflows `usize`.
    pub fn try_len(&self) -> Option<usize> {
        self.labels.count(self.instance.graph().node_count())
    }

    /// Number of items in this block.
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `usize`; use [`Block::try_len`] to
    /// handle that case gracefully.
    pub fn len(&self) -> usize {
        // invariant: inside the engine this is only called on blocks that
        // passed `Universe::new`'s overflow check (which sums `try_len`);
        // external callers get the documented panic and can opt into
        // `try_len` instead.
        self.try_len().expect("block item count overflows usize")
    }

    /// Whether the block contributes no items.
    pub fn is_empty(&self) -> bool {
        self.try_len() == Some(0)
    }
}

/// One element of a universe: an instance/labeling pair plus its address.
///
/// The labeling is *borrowed*: in the executor's hot loop it points at a
/// per-thread scratch buffer that is stepped in place from one item to the
/// next, so a sweep allocates nothing per item. Checks that need to keep a
/// labeling (e.g. as a violation witness) clone it explicitly.
#[derive(Debug, Clone, Copy)]
pub struct UniverseItem<'u> {
    /// Flat index into the universe stream.
    pub index: usize,
    /// Index of the owning block.
    pub block: usize,
    /// The (shared) instance.
    pub instance: &'u Instance,
    /// The labeling decoded for this item.
    pub labeling: &'u Labeling,
    /// For [`LabelSource::All`] blocks, the mixed-radix digits of the
    /// labeling: `digits[v]` is the alphabet index of node `v`'s
    /// certificate. `None` for `Fixed`/`Unlabeled` blocks (and for lazy
    /// sweeps, whose labelings come from outside the universe). Checks use
    /// this as a compact identity key for memoization.
    pub digits: Option<&'u [usize]>,
}

/// An owned buffer backing one [`UniverseItem`] — what [`Universe::item`]
/// returns, since a borrowed item needs storage to point into.
#[derive(Debug, Clone)]
pub struct OwnedItem<'u> {
    /// Flat index into the universe stream.
    pub index: usize,
    /// Index of the owning block.
    pub block: usize,
    /// The (shared) instance.
    pub instance: &'u Instance,
    /// The labeling decoded for this item.
    pub labeling: Labeling,
    /// Mixed-radix digits for `All` blocks (see [`UniverseItem::digits`]).
    pub digits: Option<Vec<usize>>,
}

impl OwnedItem<'_> {
    /// The borrowed view handed to [`crate::verify::PropertyCheck::inspect`].
    pub fn as_item(&self) -> UniverseItem<'_> {
        UniverseItem {
            index: self.index,
            block: self.block,
            instance: self.instance,
            labeling: &self.labeling,
            digits: self.digits.as_deref(),
        }
    }
}

/// A deterministic stream of labeled instances with typed coverage.
#[derive(Debug, Clone)]
pub struct Universe {
    blocks: Vec<Block>,
    /// `offsets[b]` = flat index of block `b`'s first item; the final entry
    /// is the total item count.
    offsets: Vec<usize>,
    coverage: Coverage,
}

impl Universe {
    /// Builds a universe from explicit blocks.
    ///
    /// Fails with [`UniverseOverflow`] when the total item count does not
    /// fit in `usize` (the flat index space could not address every item).
    pub fn new(blocks: Vec<Block>, coverage: Coverage) -> Result<Universe, UniverseOverflow> {
        let mut offsets = Vec::with_capacity(blocks.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for (b, block) in blocks.iter().enumerate() {
            total = block
                .try_len()
                .and_then(|len| total.checked_add(len))
                .ok_or(UniverseOverflow { block: b })?;
            offsets.push(total);
        }
        Ok(Universe {
            blocks,
            offsets,
            coverage,
        })
    }

    /// A universe visiting exactly the given labeled instances, in order.
    pub fn from_labeled(
        instances: impl IntoIterator<Item = LabeledInstance>,
        coverage: Coverage,
    ) -> Result<Universe, UniverseOverflow> {
        let blocks = instances
            .into_iter()
            .map(|li| {
                let (instance, labeling) = li.into_parts();
                Block::new(instance, LabelSource::Fixed(vec![labeling]))
            })
            .collect();
        Universe::new(blocks, coverage)
    }

    /// Every labeling of one instance over `alphabet`.
    pub fn all_labelings_of(
        instance: Instance,
        alphabet: Vec<Certificate>,
        coverage: Coverage,
    ) -> Result<Universe, UniverseOverflow> {
        Universe::new(
            vec![Block::new(instance, LabelSource::All { alphabet })],
            coverage,
        )
    }

    /// An explicit list of labelings of one instance.
    pub fn labelings_of(
        instance: Instance,
        labelings: Vec<Labeling>,
        coverage: Coverage,
    ) -> Result<Universe, UniverseOverflow> {
        Universe::new(
            vec![Block::new(instance, LabelSource::Fixed(labelings))],
            coverage,
        )
    }

    /// Bare instances (one empty-labeled item each), for checks whose
    /// labelings come from a prover.
    pub fn instances_only(
        instances: impl IntoIterator<Item = Instance>,
        coverage: Coverage,
    ) -> Result<Universe, UniverseOverflow> {
        let blocks = instances
            .into_iter()
            .map(|instance| Block::new(instance, LabelSource::Unlabeled))
            .collect();
        Universe::new(blocks, coverage)
    }

    /// The full Lemma 3.1 universe for tiny parameters: every connected
    /// graph on `1..=max_n` nodes (up to isomorphism), every port
    /// assignment, canonical identifiers, crossed with every labeling over
    /// `alphabet`. Exhaustive by construction — the engine-native
    /// counterpart of [`crate::nbhd::sources::exhaustive_universe`] (same
    /// family, same order, without materializing the labelings).
    ///
    /// # Panics
    ///
    /// Panics if `max_n > 8` (inherited from the graph enumerator) or if a
    /// single graph admits more than 10⁵ port assignments.
    pub fn lemma31(max_n: usize, alphabet: Vec<Certificate>) -> Result<Universe, UniverseOverflow> {
        let mut blocks = Vec::new();
        for g in generators::connected_graphs_up_to(max_n) {
            let ids = hiding_lcp_graph::IdAssignment::canonical(g.node_count());
            for ports in hiding_lcp_graph::ports::all_port_assignments(&g, 100_000) {
                // invariant: `connected_graphs_up_to` caps n at 8 and
                // `all_port_assignments` yields permutations of each
                // node's own ports, so the id/port vectors always match
                // the graph they were enumerated from.
                let instance = Instance::new(g.clone(), ports, ids.clone())
                    .expect("enumerated assignments fit");
                blocks.push(Block::new(
                    instance,
                    LabelSource::All {
                        alphabet: alphabet.clone(),
                    },
                ));
            }
        }
        Universe::new(blocks, Coverage::Exhaustive)
    }

    /// Total number of items.
    pub fn len(&self) -> usize {
        // invariant: every constructor builds `offsets` as a prefix-sum
        // vector with blocks.len() + 1 entries, so it is never empty.
        *self.offsets.last().expect("offsets non-empty")
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The coverage contract this universe was built under.
    pub fn coverage(&self) -> Coverage {
        self.coverage
    }

    /// Locates flat index `i` as `(block, offset_within_block)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn locate(&self, i: usize) -> (usize, usize) {
        assert!(i < self.len(), "universe index {i} out of range");
        // First block whose end offset exceeds i.
        let block = self.offsets.partition_point(|&off| off <= i) - 1;
        (block, i - self.offsets[block])
    }

    /// Decodes the labeling of item `offset` within `block`.
    pub fn labeling_at(&self, block: usize, offset: usize) -> Labeling {
        let mut labeling = Labeling::default();
        self.decode_into(block, offset, &mut labeling, &mut Vec::new());
        labeling
    }

    /// The mixed-radix digits of item `offset` within an `All` block
    /// (`None` for `Fixed`/`Unlabeled` blocks): `digits[v]` is the
    /// alphabet index of node `v`'s certificate, node 0 least significant.
    pub fn digits_at(&self, block: usize, offset: usize) -> Option<Vec<usize>> {
        match &self.blocks[block].labels {
            LabelSource::All { alphabet } if !alphabet.is_empty() => {
                let mut digits = Vec::new();
                self.decode_into(block, offset, &mut Labeling::default(), &mut digits);
                Some(digits)
            }
            _ => None,
        }
    }

    /// Decodes item `(block, offset)` into caller-owned scratch buffers,
    /// reusing their allocations: `labeling` is resized and overwritten
    /// certificate by certificate, and `digits` receives the mixed-radix
    /// digit vector for `All` blocks (cleared otherwise), node 0 least
    /// significant — the exact enumeration order of `all_labelings`. The
    /// universe's one decode: [`Universe::labeling_at`] and
    /// [`Universe::digits_at`] read it, and it is the executor's resync
    /// path, the only full decode in the hot chunk loop; all other items
    /// are reached by odometer stepping.
    pub fn decode_into(
        &self,
        block: usize,
        offset: usize,
        labeling: &mut Labeling,
        digits: &mut Vec<usize>,
    ) {
        let b = &self.blocks[block];
        let n = b.instance.graph().node_count();
        labeling.resize(n);
        digits.clear();
        match &b.labels {
            LabelSource::All { alphabet } => {
                if alphabet.is_empty() {
                    // Only addressable when n == 0 (the lone empty labeling).
                    return;
                }
                let k = alphabet.len();
                let mut rest = offset;
                for v in 0..n {
                    let digit = rest % k;
                    rest /= k;
                    labeling.assign(v, &alphabet[digit]);
                    digits.push(digit);
                }
            }
            LabelSource::Fixed(labelings) => {
                let src = &labelings[offset];
                for v in 0..n {
                    labeling.assign(v, src.label(v));
                }
            }
            LabelSource::Unlabeled => {
                let empty = Certificate::empty();
                for v in 0..n {
                    labeling.assign(v, &empty);
                }
            }
        }
    }

    /// The item at flat index `i`, as an owned buffer.
    pub fn item(&self, i: usize) -> OwnedItem<'_> {
        let (block, offset) = self.locate(i);
        OwnedItem {
            index: i,
            block,
            instance: &self.blocks[block].instance,
            labeling: self.labeling_at(block, offset),
            digits: self.digits_at(block, offset),
        }
    }

    /// Borrows item `i`'s instance and decodes its labeling — everything a
    /// caller needs from [`Universe::labeled_instance`] without the
    /// per-item graph clone.
    pub fn item_parts(&self, i: usize) -> (&Instance, Labeling) {
        let (block, offset) = self.locate(i);
        (
            &self.blocks[block].instance,
            self.labeling_at(block, offset),
        )
    }

    /// Materializes item `i` as an owned [`LabeledInstance`] (clones the
    /// instance; prefer [`Universe::item_parts`] where a borrow suffices).
    pub fn labeled_instance(&self, i: usize) -> LabeledInstance {
        let (instance, labeling) = self.item_parts(i);
        LabeledInstance::new(instance.clone(), labeling)
    }

    /// Iterates over all items in flat order.
    pub fn items(&self) -> impl Iterator<Item = OwnedItem<'_>> {
        (0..self.len()).map(move |i| self.item(i))
    }
}

/// Verifies the odometer decode agrees with `all_labelings` item by item.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::prover::all_labelings;
    use hiding_lcp_graph::Graph;

    fn bits() -> Vec<Certificate> {
        vec![Certificate::from_byte(0), Certificate::from_byte(1)]
    }

    #[test]
    fn odometer_matches_all_labelings() {
        let instance = Instance::canonical(generators::cycle(4));
        let alphabet = bits();
        let universe =
            Universe::all_labelings_of(instance.clone(), alphabet.clone(), Coverage::Exhaustive)
                .expect("32 labelings fit");
        let reference: Vec<Labeling> = all_labelings(4, &alphabet).collect();
        assert_eq!(universe.len(), reference.len());
        for (i, expect) in reference.iter().enumerate() {
            assert_eq!(&universe.item(i).labeling, expect, "item {i}");
        }
    }

    #[test]
    fn edge_cases_match_all_labelings() {
        // n = 0 with empty alphabet: exactly one (empty) labeling.
        let g0 = Graph::new(0);
        let u = Universe::all_labelings_of(
            Instance::canonical(g0.clone()),
            Vec::new(),
            Coverage::Exhaustive,
        )
        .expect("one empty labeling fits");
        assert_eq!(u.len(), all_labelings(0, &[]).count());
        assert_eq!(u.len(), 1);
        // n > 0 with empty alphabet: no labelings at all.
        let g2 = generators::path(2);
        let u =
            Universe::all_labelings_of(Instance::canonical(g2), Vec::new(), Coverage::Exhaustive)
                .expect("zero labelings fit");
        assert_eq!(u.len(), all_labelings(2, &[]).count());
        assert_eq!(u.len(), 0);
    }

    #[test]
    fn oversized_universe_is_an_error_not_a_panic() {
        // 2^64 labelings of a 64-node path: the flat index space cannot
        // address them, and construction must say so gracefully.
        let instance = Instance::canonical(generators::path(64));
        let err = Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive)
            .expect_err("2^64 items overflow usize");
        assert_eq!(err, UniverseOverflow { block: 0 });
        assert!(err.to_string().contains("overflows"));
    }

    #[test]
    fn locate_spans_blocks() {
        let alphabet = bits();
        let blocks = vec![
            Block::new(
                Instance::canonical(generators::cycle(3)),
                LabelSource::All {
                    alphabet: alphabet.clone(),
                },
            ),
            Block::new(
                Instance::canonical(generators::path(2)),
                LabelSource::Unlabeled,
            ),
            Block::new(
                Instance::canonical(generators::cycle(4)),
                LabelSource::All { alphabet },
            ),
        ];
        let u = Universe::new(blocks, Coverage::Exhaustive).expect("25 items fit");
        assert_eq!(u.len(), 8 + 1 + 16);
        assert_eq!(u.locate(0), (0, 0));
        assert_eq!(u.locate(7), (0, 7));
        assert_eq!(u.locate(8), (1, 0));
        assert_eq!(u.locate(9), (2, 0));
        assert_eq!(u.locate(24), (2, 15));
        let mut count = 0;
        for (i, item) in u.items().enumerate() {
            assert_eq!(item.index, i);
            count += 1;
        }
        assert_eq!(count, u.len());
    }

    fn mixed_universe() -> Universe {
        let alphabet = bits();
        let blocks = vec![
            Block::new(
                Instance::canonical(generators::cycle(3)),
                LabelSource::All {
                    alphabet: alphabet.clone(),
                },
            ),
            Block::new(
                Instance::canonical(generators::path(2)),
                LabelSource::Unlabeled,
            ),
            Block::new(
                Instance::canonical(generators::path(3)),
                LabelSource::Fixed(vec![
                    Labeling::uniform(3, Certificate::from_byte(7)),
                    Labeling::empty(3),
                ]),
            ),
        ];
        Universe::new(blocks, Coverage::Sampled).expect("11 items fit")
    }

    #[test]
    fn decode_into_matches_labeling_at_everywhere() {
        // Expectations built without the decode, in flat order: every
        // binary labeling of the triangle in `all_labelings`' order, the
        // bare path's empty labeling, and the two listed labelings.
        let alphabet = bits();
        let listed = [
            Labeling::uniform(3, Certificate::from_byte(7)),
            Labeling::empty(3),
        ];
        let expected: Vec<(Labeling, bool)> = all_labelings(3, &alphabet)
            .map(|labeling| (labeling, true))
            .chain([(Labeling::empty(2), false)])
            .chain(listed.map(|labeling| (labeling, false)))
            .collect();
        let u = mixed_universe();
        assert_eq!(u.len(), expected.len());
        let mut labeling = Labeling::empty(0);
        let mut digits = Vec::new();
        for (i, (expect, odometer)) in expected.iter().enumerate() {
            let (block, offset) = u.locate(i);
            u.decode_into(block, offset, &mut labeling, &mut digits);
            assert_eq!(&labeling, expect, "item {i}");
            assert_eq!(&u.labeling_at(block, offset), expect, "item {i}");
            // An odometer item's digits name its certificates' letters.
            let expect_digits = odometer.then(|| {
                let letter = |c| alphabet.iter().position(|a| a == c).expect("a letter");
                expect.as_slice().iter().map(letter).collect::<Vec<usize>>()
            });
            assert_eq!(
                digits,
                expect_digits.clone().unwrap_or_default(),
                "item {i}"
            );
            assert_eq!(u.digits_at(block, offset), expect_digits, "item {i}");
        }
    }

    #[test]
    fn digits_address_the_decoded_labeling() {
        let u = mixed_universe();
        let alphabet = bits();
        for item in u.items() {
            if let Some(digits) = &item.digits {
                assert_eq!(digits.len(), item.labeling.node_count());
                for (v, &d) in digits.iter().enumerate() {
                    assert_eq!(item.labeling.label(v), &alphabet[d]);
                }
            }
            // The borrowed view mirrors the owned buffer.
            let b = item.as_item();
            assert_eq!(b.index, item.index);
            assert_eq!(b.labeling, &item.labeling);
            assert_eq!(b.digits, item.digits.as_deref());
        }
    }

    #[test]
    fn item_parts_matches_labeled_instance() {
        let u = mixed_universe();
        for i in 0..u.len() {
            let (instance, labeling) = u.item_parts(i);
            let owned = u.labeled_instance(i);
            assert_eq!(instance, owned.instance());
            assert_eq!(&labeling, owned.labeling());
        }
    }
}
