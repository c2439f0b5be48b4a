//! The walk's building blocks: execution options, the skeleton cache,
//! the odometer walker, and delta-evaluated verdicts.
//!
//! The one sweep engine ([`super::panel`]) drives these per item in its
//! one chunk-claiming walk; this module owns what a single step needs —
//! how to reach an item, how to stamp its views, and how to keep the
//! decoder's verdicts current — plus the two settings ([`ExecMode`],
//! [`SweepStrategy`]) every sweep is configured with besides its budget
//! and recorder.
//!
//! # Hot path: odometer stepping and delta evaluation
//!
//! Within a claimed chunk, items of an `All`-labeled block are *not*
//! decoded independently: each worker keeps a scratch [`Labeling`] plus
//! its mixed-radix digit vector and steps it like an odometer — one full
//! decode ([`Universe::decode_into`]) at a chunk that does not continue
//! the worker's previous one, then one digit change per subsequent item,
//! reusing every certificate allocation. Nothing is allocated per item:
//! a verdict-memo miss and an over-cap class's decision stamp the view
//! into the channel's scratch view ([`ViewSkeleton::stamp_into`]), never
//! a fresh one.
//!
//! When the check opts in via [`PropertyCheck::verdict_decoder`], node
//! verdicts are *delta-evaluated* on top, and the check reads them through
//! [`ItemCtx::verdicts`] (which decides them on the item's stamped views
//! wherever no delta vector exists). A [`DeltaDriver`] precomputes,
//! per block, the radius-r ball around each node (by inverting the
//! skeleton cache's canonical node orders — `u ∈ ball(v)` iff `v` appears
//! in `u`'s skeleton), and when digit `v` steps, [`refresh_verdicts`]
//! re-runs the decoder only for nodes in `ball(v)`, patching a
//! per-thread verdict vector. This is sound because a node's verdict is a
//! function of its radius-r view alone (the LCP model), and the view of
//! `u` reads exactly the certificates of the nodes in `u`'s skeleton. A
//! memo short-cuts repeated local configurations without even stamping
//! the view: a node's `(skeleton class, ball digits)` identity indexes a
//! dense one-byte-per-entry table of its class (the ball digits read as a
//! base-`|alphabet|` number). Classes whose table would exceed
//! [`MEMO_TABLE_CAP`] entries are not memoized.
//!
//! The index-decoded path survives as [`SweepStrategy::DecodeOracle`],
//! the unmemoized full-walk reference: the same walk and per-item step,
//! reaching every item by a full decode into the same scratch; the
//! `engine_parity` suite proves the two strategies observationally
//! identical.
//! All of this is invisible to reports and fragments — the stepped
//! labeling at index `i` equals the decoded labeling at index `i`
//! exactly.
//!
//! # Dense per-class tables
//!
//! Every digit-indexed table is a [`ClassTables`]: one table per skeleton
//! class, allocated on the class's first touch and sized by the slot the
//! skeleton cache computed for it (class, radix, table size). The engine
//! builds them per walk, and every worker reads and fills the same ones:
//! each verdict channel's memo lives in its [`DeltaDriver`], and a member
//! that names views gets view-id tables on its first lookup, which
//! [`ItemCtx::view_id`] reads in front of the [`ViewInterner`] the member
//! passes it. A table is keyed by the class numbering of the walk that
//! built it, so none outlives that walk; the interner's canonical map
//! does, since the ids it mints key a member's fold claims across the
//! walks of a budget chain.
//!
//! # Skeleton cache
//!
//! Before the walk, the engine computes one [`ViewSkeleton`] per node per
//! requested `(radius, id_mode)` configuration per block. During the
//! walk, [`ItemCtx::view`] stamps the item's labeling onto the cached
//! skeleton instead of re-canonicalizing — the cache is read-only and
//! lock-free while workers run. For an all-labelings block this turns
//! `|alphabet|^n` BFS canonicalizations per node into one. Skeletons with
//! equal protos in blocks with equal alphabets additionally share a *class
//! id* (assigned in build order, hence deterministic), the anchor of every
//! digit-indexed table: the verdict memo's and the member's view ids.
//!
//! [`PropertyCheck::verdict_decoder`]: super::PropertyCheck::verdict_decoder

use super::interner::{ViewId, ViewInterner};
use super::telemetry::{SweepCounter, WorkerTally};
use super::universe::{LabelSource, Universe, UniverseItem};
use crate::decoder::{Decoder, Verdict};
use crate::label::{Certificate, Labeling};
use crate::view::{IdMode, View, ViewSkeleton};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::OnceLock;

/// How many workers the sweep's one walk runs on. Every mode runs the
/// same chunk-claiming walk; the calling thread is always its first
/// worker, and each further worker is a spawned thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One worker per core when the machine has more than one and the
    /// universe is large enough to amortize thread startup; one worker
    /// otherwise.
    Auto,
    /// One worker: the calling thread claims every chunk, in index order,
    /// and nothing is spawned.
    Sequential,
    /// Exactly this many workers (values ≤ 1 run one). Below [the
    /// small-universe threshold](PARALLEL_THRESHOLD) this also runs one:
    /// thread startup dominates such sweeps, and the determinism contract
    /// makes the fallback observationally invisible.
    Parallel(usize),
}

/// Below this many items, every mode runs one worker. Thread startup
/// costs more than the sweep itself at this size (`BENCH_engine.json`
/// records the crossover), and since every thread count is
/// observationally identical, only wall-clock changes.
pub const PARALLEL_THRESHOLD: usize = 64;

/// Largest dense table allocated for one skeleton class, in entries: one
/// byte each in the verdict memo, one [`ViewId`] each in a member's view-id
/// table. A class whose `|alphabet|^|ball|` exceeds it runs the decoder on
/// every verdict decision and interns every view through the canonical
/// map.
const MEMO_TABLE_CAP: usize = 1 << 16;

/// A verdict-table entry holding [`Verdict::Accept`].
const ACCEPTED: u8 = 1;
/// A verdict-table entry holding [`Verdict::Reject`].
const REJECTED: u8 = 2;

/// How the executor enumerates items: the engine's only strategy
/// setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepStrategy {
    /// Odometer stepping with delta-evaluated verdicts and the dense
    /// per-class tables — the production hot path (see the module docs).
    /// Symmetry shrinks the walk by what the members declare via
    /// [`PropertyCheck::symmetry_class`](super::PropertyCheck::symmetry_class):
    /// port-isomorphic copy blocks are jumped when every member declares
    /// automorphisms, and a member that declares a symmetry inspects only
    /// the canonical orbit representatives of each walked block. Each
    /// inspected item carries what it stands for in
    /// [`ItemCtx::multiplicity`]; a member that declares none inspects
    /// every item of the walked blocks.
    #[default]
    DeltaStepping,
    /// Independent div/mod index decoding with full, unmemoized per-item
    /// inspection of every item of every block — the reference oracle the
    /// parity suite compares against.
    DecodeOracle,
}

/// Per-block, per-configuration view skeletons, shared by all labelings.
pub(super) struct SkeletonCache {
    /// Requested `(radius, id_mode)` configurations.
    configs: Vec<(usize, IdMode)>,
    /// `per_block[b][c][v]` = skeleton of node `v` in block `b` under
    /// configuration `c`; empty for a copy block the walk jumps over.
    pub(super) per_block: Vec<Vec<Vec<ViewSkeleton>>>,
    /// `slots[b][c][v]` = the dense-table slot of node `v`'s skeleton in
    /// block `b` under configuration `c`, read by every [`ClassTables`].
    slots: Vec<Vec<Vec<MemoSlot>>>,
    /// How many classes the build numbered: every slot's class is below it.
    classes: u32,
    /// Skeletons computed while populating the cache.
    pub(super) populated: usize,
}

/// A skeleton's dense-table coordinates. The class is the dense id of the
/// skeleton's proto paired with its block's alphabet: equal pairs (across
/// nodes *and* blocks) share a class, so a `(class, ball digits)` pair
/// identifies a stamped view exactly — a digit names a certificate only
/// through its block's alphabet. Classes are assigned in build order,
/// deterministic for a given universe and config list. The radix is the
/// alphabet's size (the ball digits are read base-radix, see
/// [`dense_index`]) and `entries` the class's table size: `radix^|ball|`,
/// or `0` when the block has no digits or the size exceeds
/// [`MEMO_TABLE_CAP`], so the class gets no table.
#[derive(Clone, Copy)]
struct MemoSlot {
    class: u32,
    radix: usize,
    entries: usize,
}

impl SkeletonCache {
    /// Computes the skeletons of every block `walked` admits; the others
    /// (the copies a walk jumps over) get none.
    pub(super) fn build(
        universe: &Universe,
        mut configs: Vec<(usize, IdMode)>,
        walked: impl Fn(usize) -> bool,
    ) -> SkeletonCache {
        configs.dedup();
        configs.sort_unstable_by_key(|&(r, m)| (r, m as u8));
        configs.dedup();
        let mut populated = 0;
        // Alphabets are interned first so a class key stays one proto plus
        // a small id; blocks without digits (`Fixed`/`Unlabeled`) use `None`.
        let mut alphabets: HashMap<&[Certificate], u32> = HashMap::new();
        let mut classes: HashMap<(View, Option<u32>), u32> = HashMap::new();
        let mut slots: Vec<Vec<Vec<MemoSlot>>> = Vec::with_capacity(universe.blocks().len());
        let per_block: Vec<Vec<Vec<ViewSkeleton>>> = universe
            .blocks()
            .iter()
            .enumerate()
            .map(|(b, block)| {
                if !walked(b) {
                    slots.push(Vec::new());
                    return Vec::new();
                }
                let (alphabet, radix) = match block.labels() {
                    LabelSource::All { alphabet: letters } => {
                        let next = u32::try_from(alphabets.len()).expect("alphabet count fits u32");
                        let id = *alphabets.entry(letters.as_slice()).or_insert(next);
                        (Some(id), letters.len())
                    }
                    LabelSource::Fixed(_) | LabelSource::Unlabeled => (None, 0),
                };
                #[cfg(conformance_mutants)]
                let alphabet =
                    alphabet.filter(|_| !crate::mutants::active("class_ignores_alphabet"));
                let mut block_slots = Vec::with_capacity(configs.len());
                let per_config: Vec<Vec<ViewSkeleton>> = configs
                    .iter()
                    .map(|&(radius, id_mode)| {
                        let n = block.instance().graph().node_count();
                        populated += n;
                        let skeletons: Vec<ViewSkeleton> = (0..n)
                            .map(|v| ViewSkeleton::compute(block.instance(), v, radius, id_mode))
                            .collect();
                        block_slots.push(
                            skeletons
                                .iter()
                                .map(|s| {
                                    let next =
                                        u32::try_from(classes.len()).expect("class count fits u32");
                                    let class = *classes
                                        .entry((s.proto().clone(), alphabet))
                                        .or_insert(next);
                                    let entries = u32::try_from(s.original_nodes().len())
                                        .ok()
                                        .and_then(|len| radix.checked_pow(len))
                                        .filter(|&e| e <= MEMO_TABLE_CAP)
                                        .unwrap_or(0);
                                    MemoSlot {
                                        class,
                                        radix,
                                        entries,
                                    }
                                })
                                .collect::<Vec<MemoSlot>>(),
                        );
                        skeletons
                    })
                    .collect();
                slots.push(block_slots);
                per_config
            })
            .collect();
        SkeletonCache {
            configs,
            per_block,
            slots,
            classes: u32::try_from(classes.len()).expect("class count fits u32"),
            populated,
        }
    }

    pub(super) fn config_index(&self, radius: usize, id_mode: IdMode) -> Option<usize> {
        self.configs.iter().position(|&c| c == (radius, id_mode))
    }
}

/// One dense table per skeleton class of a walk's [`SkeletonCache`], each
/// allocated on its class's first touch by any worker, sized by the
/// class's [`MemoSlot`], and shared by every worker. A verdict channel's
/// memo holds one [`AtomicU8`] verdict code per entry, a member's view-id
/// table one [`AtomicU32`] per entry; either way a zero entry is one no
/// worker has filled yet. Entries are read and written `Relaxed`: each
/// holds a whole value and publishes no other data (the `OnceLock`
/// publishes the table itself). The tables are keyed by the cache's class
/// numbering, so they live only as long as the walk that built them.
pub(super) struct ClassTables<A> {
    tables: Box<[OnceLock<Box<[A]>>]>,
}

impl<A: Default> ClassTables<A> {
    /// One unallocated table per class of `cache`.
    pub(super) fn new(cache: &SkeletonCache) -> ClassTables<A> {
        ClassTables {
            tables: (0..cache.classes).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The table of `slot`'s class, allocated on first touch.
    fn table(&self, slot: MemoSlot) -> &[A] {
        self.tables[slot.class as usize].get_or_init(|| {
            std::iter::repeat_with(A::default)
                .take(slot.entries)
                .collect()
        })
    }
}

/// Handed to [`PropertyCheck::inspect`](super::PropertyCheck::inspect):
/// view extraction for the item's block, backed by the shared skeleton
/// cache, the member's view-id table, and the member's per-node verdicts.
/// The views it stamps and extracts, and the view ids it looks up, are
/// counted in the inspecting worker's own tally.
pub struct ItemCtx<'a> {
    block: usize,
    cache: &'a SkeletonCache,
    /// The inspecting worker's tally.
    tally: &'a WorkerTally,
    /// The member's view-id tables (delta stepping), each entry a view's
    /// id plus one, built on the member's first lookup.
    ids: Option<&'a OnceLock<ClassTables<AtomicU32>>>,
    multiplicity: u64,
    /// The member's delta channel vector, current for the item, where the
    /// walk keeps one.
    verdicts: Option<&'a [Verdict]>,
}

impl<'a> ItemCtx<'a> {
    /// Assembles a context for one item of `block`. Engine-internal: the
    /// engine builds contexts against its unioned cache.
    #[inline]
    pub(super) fn new(
        block: usize,
        cache: &'a SkeletonCache,
        tally: &'a WorkerTally,
        ids: Option<&'a OnceLock<ClassTables<AtomicU32>>>,
        multiplicity: u64,
        verdicts: Option<&'a [Verdict]>,
    ) -> ItemCtx<'a> {
        ItemCtx {
            block,
            cache,
            tally,
            ids,
            multiplicity,
            verdicts,
        }
    }
}

impl<'a> ItemCtx<'a> {
    /// The item's own view of node `v` (the item's labeling, stamped onto
    /// the block's cached skeleton when `(radius, id_mode)` was requested
    /// via [`PropertyCheck::view_configs`](super::PropertyCheck::view_configs)).
    pub fn view(&self, item: &UniverseItem<'_>, v: usize, radius: usize, id_mode: IdMode) -> View {
        self.view_with(item, item.labeling, v, radius, id_mode)
    }

    /// Like [`ItemCtx::view`] but stamping an arbitrary labeling of the
    /// same instance (e.g. a prover's labeling in a completeness check).
    pub fn view_with(
        &self,
        item: &UniverseItem<'_>,
        labeling: &Labeling,
        v: usize,
        radius: usize,
        id_mode: IdMode,
    ) -> View {
        if let Some(c) = self.cache.config_index(radius, id_mode) {
            self.tally.add(SweepCounter::CacheHits, 1);
            return self.cache.per_block[self.block][c][v].stamp(labeling);
        }
        self.tally.add(SweepCounter::CacheMisses, 1);
        View::extract(item.instance, labeling, v, radius, id_mode)
    }

    /// The id of node `v`'s view under `(radius, id_mode)` in
    /// `interner`'s canonical map. Where the member has a view-id table
    /// and the item carries odometer digits, the node's skeleton slot
    /// names one entry of its class's table (the ball digits read
    /// base-|alphabet|, as the verdict memo reads them): a hit is one
    /// `Relaxed` load; a miss stamps the view, interns it and publishes
    /// the id, and of the workers racing on one empty entry only the one
    /// whose exchange fills it counts its stamp, so `cache_hits` counts
    /// each entry once however they interleave. A view without an entry
    /// (the decode oracle, `Fixed` and `Unlabeled` blocks, a configuration
    /// not requested via
    /// [`PropertyCheck::view_configs`](super::PropertyCheck::view_configs),
    /// a class over the table cap) is interned through the map. Hits,
    /// misses and waits for the map's lock are counted in the worker's
    /// tally as `interner_front_hits`, `interner_front_misses` and
    /// `interner_contention`.
    pub fn view_id(
        &self,
        item: &UniverseItem<'_>,
        v: usize,
        (radius, id_mode): (usize, IdMode),
        interner: &ViewInterner,
    ) -> ViewId {
        let Some((entry, skeleton)) = self.id_entry(item, v, radius, id_mode) else {
            return self.intern(interner, self.view(item, v, radius, id_mode));
        };
        match entry.load(Ordering::Relaxed) {
            0 => {}
            stored => {
                self.tally.add(SweepCounter::InternerFrontHits, 1);
                return stored - 1;
            }
        }
        let id = self.intern(interner, skeleton.stamp(item.labeling));
        if entry
            .compare_exchange(0, id + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.tally.add(SweepCounter::CacheHits, 1);
        }
        id
    }

    /// Node `v`'s entry in the member's view-id table under `(radius,
    /// id_mode)`, with its cached skeleton, if it has one.
    fn id_entry(
        &self,
        item: &UniverseItem<'_>,
        v: usize,
        radius: usize,
        id_mode: IdMode,
    ) -> Option<(&'a AtomicU32, &'a ViewSkeleton)> {
        let (ids, digits, cache) = (self.ids?, item.digits?, self.cache);
        let c = cache.config_index(radius, id_mode)?;
        let (skeleton, slot) = (
            &cache.per_block[self.block][c][v],
            cache.slots[self.block][c][v],
        );
        if slot.entries == 0 {
            return None;
        }
        let ids = ids.get_or_init(|| ClassTables::new(cache));
        let index = dense_index(skeleton.original_nodes(), digits, slot.radix);
        #[cfg(conformance_mutants)]
        let slot = if crate::mutants::active("front_cache_class_collision") {
            MemoSlot { class: 0, ..slot }
        } else {
            slot
        };
        Some((ids.table(slot).get(index)?, skeleton))
    }

    /// Interns `view` through `interner`'s canonical map, counting one
    /// front-cache miss and, if the map's lock was held, one wait.
    fn intern(&self, interner: &ViewInterner, view: View) -> ViewId {
        let (id, waited) = interner.intern_waiting(view);
        self.tally.add(SweepCounter::InternerFrontMisses, 1);
        self.tally
            .add(SweepCounter::InternerContention, u64::from(waited));
        id
    }

    /// How many universe items this item stands for. An item of a block
    /// with port-isomorphic copies stands for itself and its image in
    /// every copy the walk jumps over (see
    /// [`SymmetrySpec::automorphisms`](super::SymmetrySpec::automorphisms)),
    /// and a canonical orbit representative also carries its in-block
    /// orbit size; the two multiply. Always 1 under
    /// [`SweepStrategy::DecodeOracle`] and for checks that declare no
    /// symmetry. Counting checks multiply per-item tallies by this to stay
    /// bit-exact against the full walk.
    pub fn multiplicity(&self) -> u64 {
        self.multiplicity
    }

    /// Runs `decoder` on every node of the item, in node order.
    pub fn run<D: Decoder + ?Sized>(&self, item: &UniverseItem<'_>, decoder: &D) -> Vec<Verdict> {
        self.run_with(item, item.labeling, decoder)
    }

    /// Runs `decoder` on every node under an arbitrary labeling.
    pub fn run_with<D: Decoder + ?Sized>(
        &self,
        item: &UniverseItem<'_>,
        labeling: &Labeling,
        decoder: &D,
    ) -> Vec<Verdict> {
        let (radius, id_mode) = (decoder.radius(), decoder.id_mode());
        (0..item.instance.graph().node_count())
            .map(|v| decoder.decide(&self.view_with(item, labeling, v, radius, id_mode)))
            .collect()
    }

    /// The per-node verdicts (index = node) of `decoder` on the item,
    /// which must be the check's
    /// [`PropertyCheck::verdict_decoder`]: the delta channel's vector where
    /// the walk keeps one, otherwise `decoder` run on the item's stamped
    /// views (the decode oracle, `Fixed` and `Unlabeled` blocks, lazy
    /// draws, a check that declares no verdict decoder). Either way they
    /// are the decoder's verdicts on the item, so a check reads them
    /// through this one call on every path.
    ///
    /// [`PropertyCheck::verdict_decoder`]: super::PropertyCheck::verdict_decoder
    pub fn verdicts<D: Decoder + ?Sized>(
        &self,
        item: &UniverseItem<'_>,
        decoder: &D,
    ) -> Cow<'a, [Verdict]> {
        match self.verdicts {
            Some(verdicts) => Cow::Borrowed(verdicts),
            None => Cow::Owned(self.run(item, decoder)),
        }
    }
}

pub(super) fn resolve_threads(mode: ExecMode, items: usize) -> usize {
    if items < PARALLEL_THRESHOLD {
        return 1;
    }
    match mode {
        ExecMode::Sequential => 1,
        ExecMode::Parallel(t) => t.max(1),
        ExecMode::Auto => std::thread::available_parallelism()
            .map(|p| p.get().min(items))
            .unwrap_or(1),
    }
}

/// The delta-evaluation plan for a check with a
/// [`PropertyCheck::verdict_decoder`].
pub(super) struct DeltaDriver<'a> {
    decoder: &'a dyn Decoder,
    /// Index of the decoder's `(radius, id_mode)` in the skeleton cache.
    config: usize,
    /// `balls[b][v]` = nodes of block `b` whose decoder-config view reads
    /// node `v`'s certificate (computed by inverting skeleton node
    /// orders). Empty for blocks outside the verdict fast path.
    balls: Vec<Vec<Vec<usize>>>,
    /// The channel's verdict memo: one code per entry, zero while no
    /// worker has decided it, then [`ACCEPTED`] or [`REJECTED`]. Two
    /// workers racing on one entry both run the decoder on the same view
    /// and store the same verdict, so the race is benign.
    memo: ClassTables<AtomicU8>,
    /// Whether block `b` gets the verdict fast path: an `All`-labeled
    /// block the check actually reads verdicts on.
    pub(super) verdict_blocks: Vec<bool>,
}

impl<'a> DeltaDriver<'a> {
    pub(super) fn build(
        decoder: &'a dyn Decoder,
        universe: &Universe,
        cache: &SkeletonCache,
        uses_verdicts: impl Fn(usize) -> bool,
    ) -> DeltaDriver<'a> {
        let config = cache
            .config_index(decoder.radius(), decoder.id_mode())
            .expect("decoder config was appended to the cache");
        let verdict_blocks: Vec<bool> = universe
            .blocks()
            .iter()
            .enumerate()
            .map(|(b, block)| matches!(block.labels(), LabelSource::All { .. }) && uses_verdicts(b))
            .collect();
        let balls = universe
            .blocks()
            .iter()
            .enumerate()
            .map(|(b, block)| {
                if !verdict_blocks[b] {
                    return Vec::new();
                }
                let n = block.instance().graph().node_count();
                let mut balls = vec![Vec::new(); n];
                for u in 0..n {
                    let order = cache.per_block[b][config][u].original_nodes();
                    #[cfg(conformance_mutants)]
                    let order = if crate::mutants::active("delta_ball_misindex") && order.len() > 1
                    {
                        &order[1..]
                    } else {
                        order
                    };
                    for &orig in order {
                        balls[orig].push(u);
                    }
                }
                balls
            })
            .collect();
        DeltaDriver {
            decoder,
            config,
            balls,
            memo: ClassTables::new(cache),
            verdict_blocks,
        }
    }
}

/// Per-thread odometer scratch: the enumeration state one worker steps
/// through the universe. Everything here is reused across items — the hot
/// loop performs no per-item allocation. Verdict state lives separately in
/// [`VerdictScratch`] so a fused panel can drive many verdict channels off
/// one walker.
#[derive(Default)]
pub(super) struct Walker {
    /// `(block, offset)` the scratch currently describes, if any.
    pos: Option<(usize, usize)>,
    /// Mixed-radix digits (node 0 least significant); empty for
    /// `Fixed`/`Unlabeled` blocks.
    pub(super) digits: Vec<usize>,
    /// The decoded labeling (certificate allocations reused in place).
    pub(super) labeling: Labeling,
    /// Digits changed by the last odometer step (a carry chain `0..=j`).
    changed: Vec<usize>,
}

impl Walker {
    /// Moves the scratch to `(block, offset)`. Returns `true` when reached
    /// by a single odometer step from the previous item (`changed` lists
    /// the carry chain), `false` when a full resync decode was needed.
    pub(super) fn advance_to(&mut self, universe: &Universe, block: usize, offset: usize) -> bool {
        if offset > 0 && self.pos == Some((block, offset - 1)) && !self.digits.is_empty() {
            if let LabelSource::All { alphabet } = universe.blocks()[block].labels() {
                let k = alphabet.len();
                self.changed.clear();
                for v in 0..self.digits.len() {
                    self.changed.push(v);
                    let d = self.digits[v] + 1;
                    if d < k {
                        self.digits[v] = d;
                        #[cfg(conformance_mutants)]
                        if crate::mutants::active("delta_stale_digit") {
                            self.pos = Some((block, offset));
                            return true;
                        }
                        self.labeling.assign(v, &alphabet[d]);
                        self.pos = Some((block, offset));
                        return true;
                    }
                    self.digits[v] = 0;
                    self.labeling.assign(v, &alphabet[0]);
                }
                // Carry ran off the top — `offset` is not in this block's
                // range. Unreachable for located indices; resync below
                // restores a consistent state regardless.
            }
        }
        self.decode(universe, block, offset);
        false
    }

    /// Moves the scratch to `(block, offset)` by a full index decode
    /// ([`Universe::decode_into`]), never a step: the resync path of
    /// [`Walker::advance_to`], and how the decode oracle reaches every
    /// item.
    pub(super) fn decode(&mut self, universe: &Universe, block: usize, offset: usize) {
        universe.decode_into(block, offset, &mut self.labeling, &mut self.digits);
        self.pos = Some((block, offset));
    }
}

/// One verdict channel's delta-maintained state: the per-node verdict
/// vector of a [`DeltaDriver`]'s decoder, tagged with the `(block,
/// offset)` it currently describes. A plain sweep owns exactly one; a
/// fused panel owns one per deduplicated decoder channel, all fed by the
/// same [`Walker`].
#[derive(Default)]
pub(super) struct VerdictScratch {
    /// `(block, offset)` the verdicts describe; `None` = invalid (never
    /// computed, mid-mutation panic, or deliberately dropped).
    pos: Option<(usize, usize)>,
    /// Per-node verdicts of the channel's decoder for `pos`.
    pub(super) verdicts: Vec<Verdict>,
    /// Dedup scratch for multi-digit carry steps (all-false between uses).
    touched: Vec<bool>,
    /// Node list scratch for multi-digit carry steps.
    pending: Vec<usize>,
    /// The view a memo miss or an over-cap decision is stamped into.
    view: View,
}

/// Reads the ball digits along a skeleton's canonical `order` as one
/// base-`radix` number, slot 0 least significant: the index of the
/// stamped view in its class's dense table, for the verdict memo and the
/// view-id table alike.
fn dense_index(order: &[usize], digits: &[usize], radix: usize) -> usize {
    #[cfg(conformance_mutants)]
    if crate::mutants::active("digit_key_slot_alias") {
        return order
            .iter()
            .enumerate()
            .map(|(slot, &orig)| digits[orig] * radix.pow(slot.min(2) as u32))
            .sum();
    }
    order
        .iter()
        .rev()
        .fold(0, |index, &orig| index * radix + digits[orig])
}

/// One node's verdict: the class's dense memo table first (when the
/// class is under the cap), otherwise the decoder run on the view stamped
/// into the worker's `scratch` ([`ViewSkeleton::stamp_into`]), so neither
/// a memo miss nor an over-cap class allocates a view. The memo hit or
/// miss is counted in the worker's `tally`.
#[allow(clippy::too_many_arguments)] // the args are the walk state, not a config
fn node_verdict(
    driver: &DeltaDriver<'_>,
    cache: &SkeletonCache,
    block: usize,
    u: usize,
    labeling: &Labeling,
    digits: &[usize],
    scratch: &mut View,
    tally: &WorkerTally,
) -> Verdict {
    let skel = &cache.per_block[block][driver.config][u];
    let slot = cache.slots[block][driver.config][u];
    #[cfg(conformance_mutants)]
    let slot = if crate::mutants::active("memo_key_class_collision") {
        MemoSlot { class: 0, ..slot }
    } else {
        slot
    };
    let mut decide = || {
        skel.stamp_into(labeling, scratch);
        driver.decoder.decide(scratch)
    };
    if slot.entries > 0 {
        let index = dense_index(skel.original_nodes(), digits, slot.radix);
        let entry = &driver.memo.table(slot)[index];
        match entry.load(Ordering::Relaxed) {
            ACCEPTED => {
                tally.add(SweepCounter::MemoHits, 1);
                return Verdict::Accept;
            }
            REJECTED => {
                tally.add(SweepCounter::MemoHits, 1);
                return Verdict::Reject;
            }
            _ => {}
        }
        let verdict = decide();
        let code = match verdict {
            Verdict::Accept => ACCEPTED,
            Verdict::Reject => REJECTED,
        };
        entry.store(code, Ordering::Relaxed);
        tally.add(SweepCounter::MemoMisses, 1);
        return verdict;
    }
    tally.add(SweepCounter::MemoMisses, 1);
    decide()
}

/// Brings one channel's [`VerdictScratch`] up to date for the item at
/// `(block, offset)`: a no-op when the scratch is already current, a full
/// recompute after a resync (or when the scratch describes any other
/// position), a ball-restricted patch when the walker reached `offset` by
/// a single odometer step from the position the scratch describes. Runs
/// under the caller's `catch_unwind` (the decoder is check code); the
/// scratch position is cleared for the duration of the mutation, so a
/// decoder panic leaves it invalid and the next refresh recomputes from
/// the odometer state, which engine code alone maintains.
#[allow(clippy::too_many_arguments)] // the args are the walk state, not a config
pub(super) fn refresh_verdicts(
    driver: &DeltaDriver<'_>,
    cache: &SkeletonCache,
    block: usize,
    offset: usize,
    walker: &Walker,
    scratch: &mut VerdictScratch,
    tally: &WorkerTally,
    stepped: bool,
) {
    if scratch.pos == Some((block, offset)) {
        // Already current: a second panel member on the same channel.
        tally.add(SweepCounter::VerdictReadbacks, 1);
        return;
    }
    tally.add(SweepCounter::VerdictRefreshes, 1);
    let can_patch = stepped && offset > 0 && scratch.pos == Some((block, offset - 1));
    #[cfg(conformance_mutants)]
    let can_patch = can_patch
        || (crate::mutants::active("delta_dropped_resync")
            && scratch.pos.is_some()
            && !scratch.verdicts.is_empty());
    let n = cache.per_block[block][driver.config].len();
    scratch.pos = None;
    let Walker {
        ref labeling,
        ref digits,
        ref changed,
        ..
    } = *walker;
    let VerdictScratch {
        ref mut verdicts,
        ref mut touched,
        ref mut pending,
        ref mut view,
        ..
    } = *scratch;
    if !can_patch {
        tally.add(SweepCounter::VerdictDecisions, n as u64);
        verdicts.clear();
        verdicts.extend(
            (0..n).map(|u| node_verdict(driver, cache, block, u, labeling, digits, view, tally)),
        );
    } else if changed.len() == 1 {
        // The common case (probability (k-1)/k): one digit stepped, only
        // its ball re-decides.
        let ball = &driver.balls[block][changed[0]];
        tally.add(SweepCounter::VerdictDecisions, ball.len() as u64);
        for &u in ball {
            verdicts[u] = node_verdict(driver, cache, block, u, labeling, digits, view, tally);
        }
    } else {
        // Carry chain: re-decide the union of the changed digits' balls.
        touched.resize(n, false);
        pending.clear();
        for &d in changed {
            for &u in &driver.balls[block][d] {
                if !touched[u] {
                    touched[u] = true;
                    pending.push(u);
                }
            }
        }
        tally.add(SweepCounter::VerdictDecisions, pending.len() as u64);
        for &u in pending.iter() {
            touched[u] = false;
            verdicts[u] = node_verdict(driver, cache, block, u, labeling, digits, view, tally);
        }
    }
    scratch.pos = Some((block, offset));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::verify::Coverage;
    use hiding_lcp_graph::generators;
    use std::collections::HashSet;

    /// Accepts every view.
    struct AcceptAll;

    impl Decoder for AcceptAll {
        fn name(&self) -> String {
            "accept-all".into()
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

    #[test]
    fn workers_share_the_verdict_tables() {
        let alphabet = (0..2).map(Certificate::from_byte).collect();
        let universe = Universe::all_labelings_of(
            Instance::canonical(generators::cycle(4)),
            alphabet,
            Coverage::Exhaustive,
        )
        .expect("16 labelings fit");
        let decoder = AcceptAll;
        let cache = SkeletonCache::build(&universe, vec![(1, IdMode::Anonymous)], |_| true);
        let driver = DeltaDriver::build(&decoder, &universe, &cache, |_| true);
        let mut walker = Walker::default();
        walker.advance_to(&universe, 0, 5);
        let (first, second) = (WorkerTally::default(), WorkerTally::default());
        let mut scratch = View::default();
        for tally in [&first, &second] {
            for u in 0..4 {
                node_verdict(
                    &driver,
                    &cache,
                    0,
                    u,
                    &walker.labeling,
                    &walker.digits,
                    &mut scratch,
                    tally,
                );
            }
        }
        let memo = |tally: &WorkerTally| {
            (
                tally.get(SweepCounter::MemoHits),
                tally.get(SweepCounter::MemoMisses),
            )
        };
        assert!(memo(&first).1 > 0, "the first worker fills the tables");
        assert_eq!(
            memo(&second),
            (4, 0),
            "a second worker reads every verdict the first one stored"
        );
    }

    /// Every labeling of a 3-pointed star over `letters` letters, with a
    /// skeleton cache of its radius-1 anonymous views and a view-id table.
    fn star_walk(letters: u8) -> (Universe, SkeletonCache) {
        let star = Instance::canonical(generators::star(3));
        let alphabet = (0..letters).map(Certificate::from_byte).collect();
        let universe = Universe::all_labelings_of(star, alphabet, Coverage::Exhaustive)
            .expect("the star's labelings fit");
        let cache = SkeletonCache::build(&universe, vec![STAR_CONFIG], |_| true);
        (universe, cache)
    }

    const STAR_CONFIG: (usize, IdMode) = (1, IdMode::Anonymous);

    /// `(interner_front_hits, interner_front_misses, cache_hits)`.
    fn lookups(tally: &WorkerTally) -> (u64, u64, u64) {
        (
            tally.get(SweepCounter::InternerFrontHits),
            tally.get(SweepCounter::InternerFrontMisses),
            tally.get(SweepCounter::CacheHits),
        )
    }

    #[test]
    fn a_front_cache_hit_returns_the_canonical_id() {
        let (universe, cache) = star_walk(2);
        let ids = OnceLock::new();
        let interner = ViewInterner::new();
        let item = universe.item(11);
        let item = item.as_item();
        let (first, second) = (WorkerTally::default(), WorkerTally::default());
        let ctx = ItemCtx::new(0, &cache, &first, Some(&ids), 1, None);
        let id = ctx.view_id(&item, 1, STAR_CONFIG, &interner);
        assert_eq!(lookups(&first), (0, 1, 1), "a miss stamps and fills");
        assert_eq!(ctx.view_id(&item, 1, STAR_CONFIG, &interner), id);
        assert_eq!(lookups(&first), (1, 1, 1), "a hit stamps nothing");
        let other = ItemCtx::new(0, &cache, &second, Some(&ids), 1, None);
        assert_eq!(
            other.view_id(&item, 1, STAR_CONFIG, &interner),
            id,
            "another worker reads the filled entry"
        );
        assert_eq!(lookups(&second), (1, 0, 0));
        assert_eq!(
            interner.intern(ctx.view(&item, 1, STAR_CONFIG.0, STAR_CONFIG.1)),
            id,
            "the canonical map agrees"
        );
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn distinct_ball_digits_of_one_class_fill_distinct_entries() {
        // Every labeling of a 3-letter star: the center's ball holds all
        // four nodes (81 entries), each leaf's two.
        let (universe, cache) = star_walk(3);
        let ids = OnceLock::new();
        let interner = ViewInterner::new();
        let (tally, scratch) = (WorkerTally::default(), WorkerTally::default());
        let ctx = ItemCtx::new(0, &cache, &tally, Some(&ids), 1, None);
        let views = ItemCtx::new(0, &cache, &scratch, None, 1, None);
        let mut centers = HashSet::new();
        for i in 0..universe.len() {
            let item = universe.item(i);
            let item = item.as_item();
            for v in 0..4 {
                let id = ctx.view_id(&item, v, STAR_CONFIG, &interner);
                let view = views.view(&item, v, STAR_CONFIG.0, STAR_CONFIG.1);
                assert_eq!(interner.intern(view), id, "one entry, one view");
                if v == 0 {
                    centers.insert(id);
                }
            }
        }
        // The center reads all four digits: its 81 digit vectors fill 81
        // entries of its class, and every distinct view fills one entry.
        assert_eq!(centers.len(), 81);
        let (hits, misses, filled) = lookups(&tally);
        assert_eq!(
            filled as usize,
            interner.len(),
            "distinct entries, distinct views"
        );
        assert_eq!(misses, filled, "one worker misses each entry once");
        assert_eq!(hits + misses, 4 * 81);
    }

    #[test]
    fn a_class_over_the_cap_has_no_slot() {
        // With 17 letters the star's center class would need 17^4 = 83,521
        // entries, over the 2^16 cap; a leaf's needs 17^2.
        let (universe, cache) = star_walk(17);
        let ids = OnceLock::new();
        let interner = ViewInterner::new();
        let item = universe.item(5);
        let item = item.as_item();
        let twice = |ids: Option<&OnceLock<ClassTables<AtomicU32>>>, v: usize| {
            let tally = WorkerTally::default();
            let ctx = ItemCtx::new(0, &cache, &tally, ids, 1, None);
            let id = ctx.view_id(&item, v, STAR_CONFIG, &interner);
            assert_eq!(ctx.view_id(&item, v, STAR_CONFIG, &interner), id);
            let (hits, misses, _) = lookups(&tally);
            (hits, misses)
        };
        assert_eq!(
            twice(Some(&ids), 0),
            (0, 2),
            "the center interns through the map"
        );
        assert_eq!(twice(Some(&ids), 1), (1, 1), "a leaf keeps its table");
        assert_eq!(twice(None, 1), (0, 2), "the decode oracle has no table");
    }

    #[test]
    fn racing_workers_fill_each_entry_once() {
        let (universe, cache) = star_walk(2);
        let ids = OnceLock::new();
        let interner = ViewInterner::new();
        let threads = 4;
        let runs: Vec<(Vec<ViewId>, u64)> = std::thread::scope(|scope| {
            (0..threads)
                .map(|t| {
                    let (universe, cache, ids, interner) = (&universe, &cache, &ids, &interner);
                    scope.spawn(move || {
                        let tally = WorkerTally::default();
                        let ctx = ItemCtx::new(0, cache, &tally, Some(ids), 1, None);
                        let mut seen = vec![ViewId::MAX; universe.len() * 4];
                        for round in 0..4 * universe.len() {
                            let i = (t * 5 + round) % universe.len();
                            let item = universe.item(i);
                            for v in 0..4 {
                                let id = ctx.view_id(&item.as_item(), v, STAR_CONFIG, interner);
                                seen[i * 4 + v] = id;
                            }
                        }
                        (seen, tally.get(SweepCounter::CacheHits))
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        for (seen, _) in &runs[1..] {
            assert_eq!(seen, &runs[0].0, "workers disagree on some view's id");
        }
        let stamps: u64 = runs.iter().map(|&(_, stamps)| stamps).sum();
        assert_eq!(
            stamps as usize,
            interner.len(),
            "each entry is filled, and its stamp counted, once"
        );
        let views = WorkerTally::default();
        let ctx = ItemCtx::new(0, &cache, &views, None, 1, None);
        for (i, ids) in runs[0].0.chunks(4).enumerate() {
            let item = universe.item(i);
            for (v, &id) in ids.iter().enumerate() {
                let view = ctx.view(&item.as_item(), v, STAR_CONFIG.0, STAR_CONFIG.1);
                assert_eq!(interner.intern(view), id, "the canonical map agrees");
            }
        }
    }
}
