//! The walk's building blocks: execution options, the skeleton cache,
//! the odometer walker, and delta-evaluated verdicts.
//!
//! The one sweep engine ([`super::panel`]) drives these per item; this
//! module owns what a single step needs — how to reach an item, how to
//! stamp its views, and how to keep the decoder's verdicts current —
//! plus the options ([`ExecMode`], [`SweepOpts`]) and the typed result
//! types ([`BudgetedSweep`], [`SweepFragment`]) every sweep is configured
//! and answered with.
//!
//! # Hot path: odometer stepping and delta evaluation
//!
//! Within a claimed chunk, items of an `All`-labeled block are *not*
//! decoded independently: each worker keeps a scratch [`Labeling`] plus
//! its mixed-radix digit vector and steps it like an odometer — one full
//! decode at the chunk's first item ([`Universe::decode_into`], the
//! oracle), then one digit change per subsequent item, reusing every
//! certificate allocation. Nothing is allocated per item.
//!
//! When the check opts in via [`PropertyCheck::verdict_decoder`], node
//! verdicts are *delta-evaluated* on top: a [`DeltaDriver`] precomputes,
//! per block, the radius-r ball around each node (by inverting the
//! skeleton cache's canonical node orders — `u ∈ ball(v)` iff `v` appears
//! in `u`'s skeleton), and when digit `v` steps, [`refresh_verdicts`]
//! re-runs the decoder only for nodes in `ball(v)`, patching a
//! per-thread verdict vector. This is sound because a node's verdict is a
//! function of its radius-r view alone (the LCP model), and the view of
//! `u` reads exactly the certificates of the nodes in `u`'s skeleton. A
//! per-thread memo short-cuts repeated local configurations without even
//! stamping the view: a node's `(skeleton class, ball digits)` identity
//! indexes a dense one-byte-per-entry table of its class (the ball digits
//! read as a base-`|alphabet|` number). Classes whose table would exceed
//! [`MEMO_TABLE_CAP`] entries are not memoized.
//!
//! The index-decoded path survives as [`SweepStrategy::DecodeOracle`]; the
//! `engine_parity` suite proves the strategies observationally identical.
//! All of this is invisible to reports and resume tokens — the stepped
//! labeling at index `i` equals the decoded labeling at index `i`
//! exactly.
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
//! digit-indexed memo.
//!
//! [`PropertyCheck::verdict_decoder`]: super::PropertyCheck::verdict_decoder

use super::budget::{ResumeToken, SweepError};
use super::check::VerificationReport;
use super::telemetry::WorkerTally;
use super::universe::{LabelSource, Universe, UniverseItem};
use crate::decoder::{Decoder, Verdict};
use crate::label::{Certificate, Labeling};
use crate::view::{IdMode, View, ViewSkeleton};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How to drive the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Parallel when the `parallel` feature is on, the machine has more
    /// than one core, and the universe is large enough to amortize thread
    /// startup; sequential otherwise.
    Auto,
    /// Always single-threaded, in index order.
    Sequential,
    /// Exactly this many worker threads (values ≤ 1 run sequentially;
    /// without the `parallel` feature this falls back to sequential).
    /// Below [the small-universe threshold](PARALLEL_THRESHOLD) this also
    /// runs sequentially: thread startup dominates such sweeps, and the
    /// determinism contract makes the fallback observationally invisible.
    Parallel(usize),
}

/// Below this many items, every mode runs sequentially. Thread startup
/// costs more than the sweep itself at this size (`BENCH_engine.json`
/// records the crossover), and since parallel and sequential execution are
/// observationally identical, only wall-clock changes.
pub const PARALLEL_THRESHOLD: usize = 64;

/// Largest dense verdict table the delta memo allocates for one skeleton
/// class, in entries (one byte each). A class whose `|alphabet|^|ball|`
/// exceeds it runs the decoder on every verdict decision.
const MEMO_TABLE_CAP: usize = 1 << 16;

/// How the executor enumerates items within a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepStrategy {
    /// Odometer stepping with delta-evaluated verdicts — the production
    /// hot path (see the module docs).
    #[default]
    DeltaStepping,
    /// Independent div/mod index decoding with full per-item inspection —
    /// the reference oracle the parity suite compares against.
    DecodeOracle,
    /// Delta stepping restricted to canonical orbit representatives under
    /// the symmetries the check declares via
    /// [`PropertyCheck::symmetry_class`](super::PropertyCheck::symmetry_class):
    /// non-canonical items are stepped over without inspection, and each
    /// representative carries its orbit size in
    /// [`ItemCtx::multiplicity`]. Observationally identical to
    /// [`SweepStrategy::DeltaStepping`] (verdicts, witnesses, `checked`);
    /// checks declaring no symmetry fall back to the full walk.
    Quotient,
}

/// Engine tuning knobs. `Default` is the production configuration:
/// delta-stepping enumeration with digit-key memoization enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOpts {
    /// Enumeration strategy.
    pub strategy: SweepStrategy,
    /// Whether digit-key memo layers (the executor's verdict memo and any
    /// check-side interner front cache, via [`ItemCtx::memo_enabled`]) are
    /// active. Disabling it must not change any verdict — only counters
    /// and wall-clock — which the parity suite asserts.
    pub memo: bool,
}

impl Default for SweepOpts {
    fn default() -> Self {
        SweepOpts {
            strategy: SweepStrategy::DeltaStepping,
            memo: true,
        }
    }
}

impl SweepOpts {
    /// The index-decoded, unmemoized reference configuration.
    pub fn oracle() -> Self {
        SweepOpts {
            strategy: SweepStrategy::DecodeOracle,
            memo: false,
        }
    }

    /// The symmetry-quotient configuration: delta stepping over canonical
    /// orbit representatives only.
    pub fn quotient() -> Self {
        SweepOpts {
            strategy: SweepStrategy::Quotient,
            memo: true,
        }
    }
}

/// Per-block, per-configuration view skeletons, shared by all labelings.
pub(super) struct SkeletonCache {
    /// Requested `(radius, id_mode)` configurations.
    configs: Vec<(usize, IdMode)>,
    /// `per_block[b][c][v]` = skeleton of node `v` in block `b` under
    /// configuration `c`.
    pub(super) per_block: Vec<Vec<Vec<ViewSkeleton>>>,
    /// `class_of[b][c][v]` = dense id of the skeleton's proto paired with
    /// block `b`'s alphabet: equal pairs (across nodes *and* blocks) share
    /// a class, so a `(class, ball digits)` pair identifies a stamped view
    /// exactly — a digit names a certificate only through its block's
    /// alphabet. Assigned in build order — deterministic for a given
    /// universe and config list.
    class_of: Vec<Vec<Vec<u32>>>,
    /// Skeletons computed while populating the cache.
    pub(super) populated: usize,
}

impl SkeletonCache {
    pub(super) fn build(universe: &Universe, mut configs: Vec<(usize, IdMode)>) -> SkeletonCache {
        configs.dedup();
        configs.sort_unstable_by_key(|&(r, m)| (r, m as u8));
        configs.dedup();
        let mut populated = 0;
        // Alphabets are interned first so a class key stays one proto plus
        // a small id; blocks without digits (`Fixed`/`Unlabeled`) use `None`.
        let mut alphabets: HashMap<&[Certificate], u32> = HashMap::new();
        let mut classes: HashMap<(View, Option<u32>), u32> = HashMap::new();
        let mut class_of: Vec<Vec<Vec<u32>>> = Vec::with_capacity(universe.blocks().len());
        let per_block: Vec<Vec<Vec<ViewSkeleton>>> = universe
            .blocks()
            .iter()
            .map(|block| {
                let alphabet = match block.labels() {
                    LabelSource::All { alphabet } => {
                        let next = u32::try_from(alphabets.len()).expect("alphabet count fits u32");
                        Some(*alphabets.entry(alphabet.as_slice()).or_insert(next))
                    }
                    LabelSource::Fixed(_) | LabelSource::Unlabeled => None,
                };
                #[cfg(conformance_mutants)]
                let alphabet =
                    alphabet.filter(|_| !crate::mutants::active("class_ignores_alphabet"));
                let mut block_classes = Vec::with_capacity(configs.len());
                let per_config: Vec<Vec<ViewSkeleton>> = configs
                    .iter()
                    .map(|&(radius, id_mode)| {
                        let n = block.instance().graph().node_count();
                        populated += n;
                        let skeletons: Vec<ViewSkeleton> = (0..n)
                            .map(|v| ViewSkeleton::compute(block.instance(), v, radius, id_mode))
                            .collect();
                        block_classes.push(
                            skeletons
                                .iter()
                                .map(|s| {
                                    let next =
                                        u32::try_from(classes.len()).expect("class count fits u32");
                                    *classes.entry((s.proto().clone(), alphabet)).or_insert(next)
                                })
                                .collect::<Vec<u32>>(),
                        );
                        skeletons
                    })
                    .collect();
                class_of.push(block_classes);
                per_config
            })
            .collect();
        SkeletonCache {
            configs,
            per_block,
            class_of,
            populated,
        }
    }

    pub(super) fn config_index(&self, radius: usize, id_mode: IdMode) -> Option<usize> {
        self.configs.iter().position(|&c| c == (radius, id_mode))
    }
}

/// Handed to [`PropertyCheck::inspect`](super::PropertyCheck::inspect):
/// view extraction for the item's block, backed by the shared skeleton
/// cache.
pub struct ItemCtx<'a> {
    block: usize,
    cache: &'a SkeletonCache,
    hits: &'a AtomicUsize,
    misses: &'a AtomicUsize,
    memo: bool,
    multiplicity: u64,
}

impl<'a> ItemCtx<'a> {
    /// Assembles a context for one item of `block`. Engine-internal: the
    /// engine builds contexts against its unioned cache.
    #[inline]
    pub(super) fn new(
        block: usize,
        cache: &'a SkeletonCache,
        hits: &'a AtomicUsize,
        misses: &'a AtomicUsize,
        memo: bool,
        multiplicity: u64,
    ) -> ItemCtx<'a> {
        ItemCtx {
            block,
            cache,
            hits,
            misses,
            memo,
            multiplicity,
        }
    }
}

impl ItemCtx<'_> {
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
            self.hits.fetch_add(1, Ordering::Relaxed);
            return self.cache.per_block[self.block][c][v].stamp(labeling);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        View::extract(item.instance, labeling, v, radius, id_mode)
    }

    /// Whether digit-key memo layers are enabled for this sweep (see
    /// [`SweepOpts::memo`]). Checks with their own caches (e.g. the
    /// neighborhood scan's view interner front cache) honor this so
    /// "memo off" really exercises the unmemoized path.
    pub fn memo_enabled(&self) -> bool {
        self.memo
    }

    /// How many universe items this item stands for: 1 on every strategy
    /// except [`SweepStrategy::Quotient`], where a canonical orbit
    /// representative carries its exact orbit size. Counting checks
    /// multiply per-item tallies by this to stay bit-exact against the
    /// full walk.
    pub fn multiplicity(&self) -> u64 {
        self.multiplicity
    }

    /// The cached skeleton identity of node `v` under `(radius,
    /// id_mode)`: the skeleton's class id (its proto and the block's
    /// alphabet) plus its canonical node order (which original nodes the
    /// view reads, in stamping order). `None` when the configuration was
    /// not requested via
    /// [`PropertyCheck::view_configs`](super::PropertyCheck::view_configs).
    /// Feed into [`digit_key`](super::interner::digit_key) with the item's
    /// digits to get a compact identity of the stamped view.
    pub fn skeleton_key(
        &self,
        v: usize,
        radius: usize,
        id_mode: IdMode,
    ) -> Option<(u32, &[usize])> {
        let c = self.cache.config_index(radius, id_mode)?;
        Some((
            self.cache.class_of[self.block][c][v],
            self.cache.per_block[self.block][c][v].original_nodes(),
        ))
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

    /// Whether every node accepts the item (early exit on first reject).
    pub fn accepts_all<D: Decoder + ?Sized>(&self, item: &UniverseItem<'_>, decoder: &D) -> bool {
        let (radius, id_mode) = (decoder.radius(), decoder.id_mode());
        (0..item.instance.graph().node_count()).all(|v| {
            decoder
                .decide(&self.view(item, v, radius, id_mode))
                .is_accept()
        })
    }
}

/// A budgeted sweep's result: the (possibly partial) report, plus the
/// continuation when the budget interrupted the sweep.
pub struct BudgetedSweep<V, P> {
    /// The report. When `report.interrupted` is set, the verdict covers
    /// only the visited prefix and `report.coverage` is
    /// [`Coverage::Sampled`](super::Coverage::Sampled).
    pub report: VerificationReport<V>,
    /// `Some` exactly when the sweep was interrupted; feed it to
    /// [`SweepSession::resume`](super::SweepSession::resume) to continue.
    pub resume: Option<ResumeToken<P>>,
}

/// One shard's slice of a sweep: the un-reduced walk state over the
/// contiguous index range `[lo, hi)`. Produced by
/// [`SweepSession::run_fragment`](super::SweepSession::run_fragment) and
/// consumed by [`merge_fragments`](super::shard::merge_fragments), which
/// validates that a set of fragments tiles the universe exactly and then
/// runs the one reduce a single-process sweep would have run.
#[derive(Debug)]
pub struct SweepFragment<P> {
    /// Range start (inclusive flat index).
    pub lo: usize,
    /// Range end (exclusive flat index).
    pub hi: usize,
    /// First index in `[lo, hi)` not visited; `hi` when the walk covered
    /// the whole range.
    pub next: usize,
    /// Lowest short-circuiting index, when one fired inside the range.
    pub stop_at: Option<usize>,
    /// Recorded partials, sorted by index, nothing past `stop_at`.
    pub partials: Vec<(usize, P)>,
    /// Caught inspection errors, sorted by index.
    pub errors: Vec<SweepError>,
}

impl<P> SweepFragment<P> {
    /// Whether the fragment's range is fully decided: the walk reached
    /// `hi`, or a short-circuit decided the remainder of the range.
    pub fn is_complete(&self) -> bool {
        self.stop_at.is_some() || self.next >= self.hi
    }

    /// The continuation of an incomplete (budget-interrupted) fragment.
    /// Feed it to
    /// [`SweepSession::resume_fragment`](super::SweepSession::resume_fragment)
    /// on a session with the same shard to finish the range; the chained
    /// fragment equals the uninterrupted one exactly.
    pub fn into_resume_token(self) -> ResumeToken<P> {
        ResumeToken {
            next_index: self.next,
            partials: self.partials,
            errors: self.errors,
        }
    }
}

pub(super) fn resolve_threads(mode: ExecMode, items: usize) -> usize {
    if !cfg!(feature = "parallel") || items < PARALLEL_THRESHOLD {
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
    /// `memo_slots[b][v]` = where node `v` of block `b` memoizes its
    /// verdict. Empty for blocks outside the verdict fast path.
    memo_slots: Vec<Vec<MemoSlot>>,
    /// Whether block `b` gets the verdict fast path: an `All`-labeled
    /// block the check actually reads verdicts on.
    pub(super) verdict_blocks: Vec<bool>,
}

/// A node's verdict-memo coordinates, fixed by its skeleton class: the
/// class id, the radix its ball digits are read in (the block alphabet's
/// size), and the class's dense table size — `0` when `radix^|ball|`
/// exceeds [`MEMO_TABLE_CAP`] and the class is not memoized.
#[derive(Clone, Copy)]
struct MemoSlot {
    class: u32,
    radix: usize,
    entries: usize,
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
        let memo_slots = universe
            .blocks()
            .iter()
            .enumerate()
            .map(|(b, block)| match block.labels() {
                LabelSource::All { alphabet } if verdict_blocks[b] => {
                    let radix = alphabet.len();
                    cache.per_block[b][config]
                        .iter()
                        .zip(&cache.class_of[b][config])
                        .map(|(skel, &class)| MemoSlot {
                            class,
                            radix,
                            entries: u32::try_from(skel.original_nodes().len())
                                .ok()
                                .and_then(|len| radix.checked_pow(len))
                                .filter(|&e| e <= MEMO_TABLE_CAP)
                                .unwrap_or(0),
                        })
                        .collect()
                }
                _ => Vec::new(),
            })
            .collect();
        DeltaDriver {
            decoder,
            config,
            balls,
            memo_slots,
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
        universe.decode_into(block, offset, &mut self.labeling, &mut self.digits);
        self.pos = Some((block, offset));
        false
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
}

/// Per-thread verdict memo (lock-free: each worker owns one): one dense
/// table per skeleton class under [`MEMO_TABLE_CAP`], allocated on the
/// class's first lookup.
pub(super) struct VerdictMemo {
    /// `tables[class][index]`, `None` = not decided yet. Empty until the
    /// class is first looked up.
    tables: Vec<Vec<Option<Verdict>>>,
    enabled: bool,
    pub(super) hits: usize,
    pub(super) misses: usize,
}

impl VerdictMemo {
    pub(super) fn new(enabled: bool) -> VerdictMemo {
        VerdictMemo {
            tables: Vec::new(),
            enabled,
            hits: 0,
            misses: 0,
        }
    }

    /// The dense table of `slot`'s class, allocated on first touch.
    fn table(&mut self, slot: MemoSlot) -> &mut [Option<Verdict>] {
        let class = slot.class as usize;
        if class >= self.tables.len() {
            self.tables.resize_with(class + 1, Vec::new);
        }
        let table = &mut self.tables[class];
        if table.is_empty() {
            *table = vec![None; slot.entries];
        }
        table
    }
}

/// Reads the ball digits along a skeleton's canonical `order` as one
/// base-`radix` number, slot 0 least significant: the index of the
/// stamped view in its class's dense table.
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

/// One node's verdict: the class's dense memo table first (when the memo
/// is enabled and the class is under the cap), decoder run on the stamped
/// view otherwise.
fn node_verdict(
    driver: &DeltaDriver<'_>,
    cache: &SkeletonCache,
    block: usize,
    u: usize,
    labeling: &Labeling,
    digits: &[usize],
    memo: &mut VerdictMemo,
) -> Verdict {
    let skel = &cache.per_block[block][driver.config][u];
    if memo.enabled {
        let slot = driver.memo_slots[block][u];
        #[cfg(conformance_mutants)]
        let slot = if crate::mutants::active("memo_key_class_collision") {
            MemoSlot { class: 0, ..slot }
        } else {
            slot
        };
        if slot.entries > 0 {
            let index = dense_index(skel.original_nodes(), digits, slot.radix);
            let entry = &mut memo.table(slot)[index];
            if let Some(verdict) = *entry {
                memo.hits += 1;
                return verdict;
            }
            let verdict = driver.decoder.decide(&skel.stamp(labeling));
            *entry = Some(verdict);
            memo.misses += 1;
            return verdict;
        }
    }
    memo.misses += 1;
    driver.decoder.decide(&skel.stamp(labeling))
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
    memo: &mut VerdictMemo,
    tally: &mut WorkerTally,
    stepped: bool,
) {
    if scratch.pos == Some((block, offset)) {
        // Already current: a second panel member on the same channel.
        tally.readback();
        return;
    }
    tally.refresh();
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
        ..
    } = *scratch;
    if !can_patch {
        tally.decisions(n as u64);
        verdicts.clear();
        verdicts
            .extend((0..n).map(|u| node_verdict(driver, cache, block, u, labeling, digits, memo)));
    } else if changed.len() == 1 {
        // The common case (probability (k-1)/k): one digit stepped, only
        // its ball re-decides.
        let ball = &driver.balls[block][changed[0]];
        tally.decisions(ball.len() as u64);
        for &u in ball {
            verdicts[u] = node_verdict(driver, cache, block, u, labeling, digits, memo);
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
        tally.decisions(pending.len() as u64);
        for &u in pending.iter() {
            touched[u] = false;
            verdicts[u] = node_verdict(driver, cache, block, u, labeling, digits, memo);
        }
    }
    scratch.pos = Some((block, offset));
}
