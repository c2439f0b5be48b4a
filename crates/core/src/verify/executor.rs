//! The sweep executor: runs a [`PropertyCheck`] over a [`Universe`],
//! sequentially or on worker threads, with identical observable results.
//!
//! # Determinism contract
//!
//! For any check and universe, [`sweep_with`] returns the same verdict,
//! the same `checked` count and the same partials (hence the same witness)
//! under every [`ExecMode`]. The parallel path guarantees this by:
//!
//! 1. claiming fixed-size chunks of the index space from an atomic cursor
//!    (which items run on which thread varies — it doesn't matter);
//! 2. folding every short-circuiting index into an atomic minimum
//!    (`fetch_min`), never a "first to finish" race;
//! 3. after joining, discarding partials above the final minimum and
//!    sorting the rest by index.
//!
//! Since [`PropertyCheck::inspect`] is a pure function of the item, the
//! surviving set equals exactly what the sequential loop records, and
//! `checked` is defined as `min_short_circuit_index + 1` either way.
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
//! verdicts are *delta-evaluated* on top: the executor precomputes, per
//! block, the radius-r ball around each node (by inverting the skeleton
//! cache's canonical node orders — `u ∈ ball(v)` iff `v` appears in `u`'s
//! skeleton), and when digit `v` steps it re-runs the decoder only for
//! nodes in `ball(v)`, patching a per-thread verdict vector. This is sound
//! because a node's verdict is a function of its radius-r view alone (the
//! LCP model), and the view of `u` reads exactly the certificates of the
//! nodes in `u`'s skeleton. A per-thread memo short-cuts repeated local
//! configurations without even stamping the view: a node's `(skeleton
//! class, ball digits)` identity indexes a dense one-byte-per-entry table
//! of its class (the ball digits read as a base-`|alphabet|` number).
//! Classes whose table would exceed [`MEMO_TABLE_CAP`] entries are not
//! memoized.
//!
//! The index-decoded path survives as [`SweepStrategy::DecodeOracle`]; the
//! `engine_parity` suite proves the two strategies observationally
//! identical. All of this is invisible to reports and resume tokens —
//! determinism is unchanged because the stepped labeling at index `i`
//! equals the decoded labeling at index `i` exactly.
//!
//! # Resilience
//!
//! Three failure modes degrade explicitly instead of aborting (see
//! [`super::budget`]):
//!
//! * every item inspection runs under `catch_unwind`, so a panicking
//!   decoder becomes a [`SweepError`] naming the item, not a poisoned
//!   sweep — worker threads never die of a check panic (a panic mid-patch
//!   leaves the thread's verdict scratch marked invalid, so the next item
//!   recomputes from the odometer state, which engine code alone
//!   maintains);
//! * [`sweep_budgeted`] accepts a [`SweepBudget`]; an expired budget ends
//!   the call with `interrupted` set, the report's coverage downgraded to
//!   [`Coverage::Sampled`], and a [`ResumeToken`];
//! * [`resume_sweep`] continues from a token. The visited set is always
//!   the contiguous prefix `[0, next_index)` — the parallel path checks
//!   the deadline *before* claiming a chunk and every claimed chunk runs
//!   to completion, so no holes — which is what makes a resumed chain
//!   reproduce the uninterrupted report bit-for-bit.
//!
//! # Skeleton cache
//!
//! Before the sweep, the executor computes one [`ViewSkeleton`] per node
//! per requested `(radius, id_mode)` configuration per block. During the
//! sweep, [`ItemCtx::view`] stamps the item's labeling onto the cached
//! skeleton instead of re-canonicalizing — the cache is read-only and
//! lock-free while workers run. For an all-labelings block this turns
//! `|alphabet|^n` BFS canonicalizations per node into one. Skeletons with
//! equal protos in blocks with equal alphabets additionally share a *class
//! id* (assigned in build order, hence deterministic), the anchor of every
//! digit-indexed memo.

use super::budget::{ResumeToken, SweepBudget, SweepError};
use super::check::{ExecEvidence, PropertyCheck, SweepOutcome, VerificationReport};
use super::session::{LazySweep, SweepSession};
use super::symmetry::QuotientPlan;
use super::telemetry::{MetricsRecorder, SweepCounter, SweepPhase, SweepRecorder, WorkerTally};
use super::universe::{Block, Coverage, LabelSource, Universe, UniverseItem};
use crate::decoder::{Decoder, Verdict};
use crate::instance::{Instance, LabeledInstance};
use crate::label::{Certificate, Labeling};
use crate::view::{IdMode, View, ViewSkeleton};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

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
    /// [`PropertyCheck::symmetry_class`]: non-canonical items are stepped
    /// over without inspection, and each representative carries its orbit
    /// size in [`ItemCtx::multiplicity`]. Observationally identical to
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

/// Handed to [`PropertyCheck::inspect`]: view extraction for the item's
/// block, backed by the shared skeleton cache.
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
    /// fused panel executor builds contexts against its unioned cache.
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
    /// via [`PropertyCheck::view_configs`]).
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
    /// view reads, in stamping order). `None`
    /// when the configuration was not requested via
    /// [`PropertyCheck::view_configs`]. Feed into
    /// [`digit_key`](super::interner::digit_key) with the item's digits to
    /// get a compact identity of the stamped view.
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
    /// [`Coverage::Sampled`].
    pub report: VerificationReport<V>,
    /// `Some` exactly when the sweep was interrupted; feed it to
    /// [`resume_sweep`] to continue.
    pub resume: Option<ResumeToken<P>>,
}

/// Sweeps `check` over `universe` in [`ExecMode::Auto`].
#[deprecated(note = "use `SweepSession::over(universe).run(check)`")]
pub fn sweep<C: PropertyCheck>(check: &C, universe: &Universe) -> VerificationReport<C::Verdict> {
    SweepSession::over(universe).run(check)
}

/// Sweeps `check` over `universe` in the given mode. See the module docs
/// for the determinism contract.
#[deprecated(note = "use `SweepSession::over(universe).mode(mode).run(check)`")]
pub fn sweep_with<C: PropertyCheck>(
    check: &C,
    universe: &Universe,
    mode: ExecMode,
) -> VerificationReport<C::Verdict> {
    SweepSession::over(universe).mode(mode).run(check)
}

/// [`sweep_with`] under explicit engine options — for parity testing and
/// benchmarking the enumeration strategies against each other. Every
/// option combination produces the same report fields except the cache and
/// memo counters.
#[deprecated(note = "use `SweepSession::over(universe).mode(mode).opts(opts).run(check)`")]
pub fn sweep_with_opts<C: PropertyCheck>(
    check: &C,
    universe: &Universe,
    mode: ExecMode,
    opts: SweepOpts,
) -> VerificationReport<C::Verdict> {
    SweepSession::over(universe)
        .mode(mode)
        .opts(opts)
        .run(check)
}

/// [`sweep_with_opts`] with a telemetry recorder attached: the engine
/// streams counters, phase timings and spans into `recorder` as it runs
/// (see [`super::telemetry`]). Without the `telemetry` feature the
/// recorder is inert and this is exactly [`sweep_with_opts`].
#[deprecated(note = "use `SweepSession::over(universe).metrics(recorder).run(check)`")]
pub fn sweep_recorded<C: PropertyCheck>(
    check: &C,
    universe: &Universe,
    mode: ExecMode,
    opts: SweepOpts,
    recorder: &MetricsRecorder,
) -> VerificationReport<C::Verdict> {
    SweepSession::over(universe)
        .mode(mode)
        .opts(opts)
        .metrics(recorder)
        .run(check)
}

/// Sweeps `check` over `universe` under an execution budget. An expired
/// budget ends the call early: the report is flagged `interrupted`, its
/// coverage is downgraded to [`Coverage::Sampled`], and
/// [`BudgetedSweep::resume`] carries the continuation.
#[deprecated(note = "use `SweepSession::over(universe).budget(budget).run_budgeted(check)`")]
pub fn sweep_budgeted<C: PropertyCheck>(
    check: &C,
    universe: &Universe,
    mode: ExecMode,
    budget: &SweepBudget,
) -> BudgetedSweep<C::Verdict, C::Partial>
where
    C::Partial: Clone,
{
    SweepSession::over(universe)
        .mode(mode)
        .budget(*budget)
        .run_budgeted(check)
}

/// [`sweep_budgeted`] under explicit engine options.
#[deprecated(
    note = "use `SweepSession::over(universe).budget(budget).opts(opts).run_budgeted(check)`"
)]
pub fn sweep_budgeted_with_opts<C: PropertyCheck>(
    check: &C,
    universe: &Universe,
    mode: ExecMode,
    budget: &SweepBudget,
    opts: SweepOpts,
) -> BudgetedSweep<C::Verdict, C::Partial>
where
    C::Partial: Clone,
{
    SweepSession::over(universe)
        .mode(mode)
        .budget(*budget)
        .opts(opts)
        .run_budgeted(check)
}

/// Continues an interrupted sweep from its [`ResumeToken`], under a fresh
/// budget. The chain of budgeted calls visits exactly the indices an
/// uninterrupted sweep would and reproduces its verdict, partials and
/// `checked` count.
#[deprecated(note = "use `SweepSession::over(universe).budget(budget).resume(check, token)`")]
pub fn resume_sweep<C: PropertyCheck>(
    check: &C,
    universe: &Universe,
    mode: ExecMode,
    budget: &SweepBudget,
    token: ResumeToken<C::Partial>,
) -> BudgetedSweep<C::Verdict, C::Partial>
where
    C::Partial: Clone,
{
    SweepSession::over(universe)
        .mode(mode)
        .budget(*budget)
        .resume(check, token)
}

/// [`resume_sweep`] under explicit engine options.
#[deprecated(
    note = "use `SweepSession::over(universe).budget(budget).opts(opts).resume(check, token)`"
)]
pub fn resume_sweep_with_opts<C: PropertyCheck>(
    check: &C,
    universe: &Universe,
    mode: ExecMode,
    budget: &SweepBudget,
    token: ResumeToken<C::Partial>,
    opts: SweepOpts,
) -> BudgetedSweep<C::Verdict, C::Partial>
where
    C::Partial: Clone,
{
    SweepSession::over(universe)
        .mode(mode)
        .budget(*budget)
        .opts(opts)
        .resume(check, token)
}

/// The cloning tokenizer the budgeted entry points pass to
/// [`run_resumable`] (they carry the `C::Partial: Clone` bound; the
/// unbudgeted [`SweepSession::run`] passes a `None`-returning closure and
/// imposes no bound).
pub(super) fn tokenize<P: Clone>(
    partials: &[(usize, P)],
    errors: &[SweepError],
    next_index: usize,
) -> Option<ResumeToken<P>> {
    Some(ResumeToken {
        next_index,
        partials: partials.to_vec(),
        errors: errors.to_vec(),
    })
}

/// What one capped executor pass over the universe produced: the merged,
/// sorted, retention-filtered walk state plus the walk's counters. This is
/// the shared middle of [`run_resumable`] (which reduces it into a report)
/// and [`run_fragment`] (which hands it to the shard merge un-reduced).
struct SweepPassState<P> {
    /// Recorded partials (token-merged, sorted by index, nothing past the
    /// short-circuit).
    partials: Vec<(usize, P)>,
    /// Caught inspection errors, sorted by index.
    errors: Vec<SweepError>,
    /// Lowest short-circuiting index (`usize::MAX` = none).
    stop_at: usize,
    /// First index not visited by the walk.
    next: usize,
    threads: usize,
    cache_hits: usize,
    cache_misses: usize,
    memo_hits: usize,
    memo_misses: usize,
}

/// One capped pass: cache build, engine assembly, the walk over
/// `[token.next_index, min(next_index + max_items, limit))`, counter
/// flushing, and the token merge + retention. `limit` is the exclusive
/// end cap — the universe size for a whole sweep, the shard's `hi` for a
/// fragment. Emits every recorder event of a sweep except the enclosing
/// span and the reduce phase, which the callers own.
#[allow(clippy::too_many_arguments)] // the args are the sweep's state, not a config
fn run_pass<C: PropertyCheck>(
    check: &C,
    universe: &Universe,
    mode: ExecMode,
    budget: &SweepBudget,
    token: ResumeToken<C::Partial>,
    opts: SweepOpts,
    recorder: Option<&dyn SweepRecorder>,
    limit: usize,
    start: Instant,
) -> SweepPassState<C::Partial> {
    let deadline = budget.deadline.map(|d| start + d);
    let oracle = opts.strategy == SweepStrategy::DecodeOracle;
    let decoder = if oracle {
        None
    } else {
        check.verdict_decoder()
    };
    let mut configs = check.view_configs();
    if let Some(d) = decoder {
        // The delta path stamps the decoder's views off the cache; make
        // sure its configuration is cached even if the check forgot to
        // list it.
        configs.push((d.radius(), d.id_mode()));
    }
    let phase_start = recorder.map(|r| r.now_micros());
    let cache = SkeletonCache::build(universe, configs);
    if let (Some(r), Some(t0)) = (recorder, phase_start) {
        r.record_phase(SweepPhase::CacheBuild, r.now_micros().saturating_sub(t0));
    }
    let hits = AtomicUsize::new(0);
    let misses = AtomicUsize::new(cache.populated);
    let memo_hits = AtomicUsize::new(0);
    let memo_misses = AtomicUsize::new(0);
    let driver =
        decoder.map(|d| DeltaDriver::build(d, universe, &cache, |b| check.uses_verdicts(b)));
    let quotient = (opts.strategy == SweepStrategy::Quotient)
        .then(|| QuotientPlan::build(universe, |alphabet| check.symmetry_class(alphabet)))
        .flatten();
    let engine = Engine {
        check,
        universe,
        cache: &cache,
        driver,
        quotient,
        hits: &hits,
        misses: &misses,
        memo_hits: &memo_hits,
        memo_misses: &memo_misses,
        memo_on: opts.memo,
        oracle,
        recorder,
    };
    let begin = token.next_index.min(limit);
    // `max_items` is enforced by clamping the sweep's end index, which
    // makes it exact — and identical — in every execution mode.
    let end = match budget.max_items {
        Some(m) => begin.saturating_add(m).min(limit),
        None => limit,
    };
    let threads = resolve_threads(mode, end.saturating_sub(begin));

    let walk_start = recorder.map(|r| r.now_micros());
    let outcome = if threads > 1 {
        run_parallel(&engine, threads, begin, end, deadline)
    } else {
        run_sequential(&engine, begin, end, deadline)
    };
    if let (Some(r), Some(t0)) = (recorder, walk_start) {
        r.record_phase(SweepPhase::Walk, r.now_micros().saturating_sub(t0));
    }
    if let Some(r) = recorder {
        r.add(SweepCounter::PanicsCaught, outcome.errors.len() as u64);
        r.add(SweepCounter::CacheHits, hits.load(Ordering::Relaxed) as u64);
        r.add(
            SweepCounter::CacheMisses,
            misses.load(Ordering::Relaxed) as u64,
        );
        r.add(
            SweepCounter::MemoHits,
            memo_hits.load(Ordering::Relaxed) as u64,
        );
        r.add(
            SweepCounter::MemoMisses,
            memo_misses.load(Ordering::Relaxed) as u64,
        );
        if let Some(plan) = &engine.quotient {
            r.add(SweepCounter::QuotientBlocks, plan.active_blocks());
        }
    }

    let mut partials = token.partials;
    partials.extend(outcome.partials);
    partials.sort_by_key(|&(i, _)| i);
    let mut errors = token.errors;
    errors.extend(outcome.errors);
    errors.sort_by_key(|e| e.item_index);

    let short_circuited = outcome.stop_at != usize::MAX;
    if short_circuited {
        partials.retain(|&(i, _)| i <= outcome.stop_at);
        errors.retain(|e| e.item_index <= outcome.stop_at);
    }
    SweepPassState {
        partials,
        errors,
        stop_at: outcome.stop_at,
        next: outcome.next,
        threads,
        cache_hits: hits.load(Ordering::Relaxed),
        cache_misses: misses.load(Ordering::Relaxed),
        memo_hits: memo_hits.load(Ordering::Relaxed),
        memo_misses: memo_misses.load(Ordering::Relaxed),
    }
}

/// The shared engine behind every whole-universe entry point (today that
/// means [`SweepSession`]; the deprecated free functions shim onto it).
/// `make_token` builds the continuation when the sweep is interrupted; see
/// [`tokenize`]. When a recorder is attached, phase timings are measured
/// by the *recorder's* clock (never ambient time) and the engine
/// additionally emits sweep/block/chunk spans.
#[allow(clippy::too_many_arguments)] // the args are the sweep's state, not a config
pub(super) fn run_resumable<C: PropertyCheck>(
    check: &C,
    universe: &Universe,
    mode: ExecMode,
    budget: &SweepBudget,
    token: ResumeToken<C::Partial>,
    opts: SweepOpts,
    recorder: Option<&dyn SweepRecorder>,
    make_token: impl Fn(&[(usize, C::Partial)], &[SweepError], usize) -> Option<ResumeToken<C::Partial>>,
) -> BudgetedSweep<C::Verdict, C::Partial> {
    let start = Instant::now();
    if let Some(r) = recorder {
        r.span_enter("sweep");
    }
    let n = universe.len();
    let pass = run_pass(
        check, universe, mode, budget, token, opts, recorder, n, start,
    );
    let short_circuited = pass.stop_at != usize::MAX;
    // `checked` keeps sequential semantics: the visited set is the prefix
    // [0, next), so this is simply how far the prefix reaches.
    let checked = if short_circuited {
        pass.stop_at + 1
    } else {
        pass.next
    };
    #[cfg(conformance_mutants)]
    let checked = if crate::mutants::active("checked_off_by_one") && short_circuited {
        checked - 1
    } else {
        checked
    };
    let interrupted = !short_circuited && pass.next < n;
    let resume = if interrupted {
        make_token(&pass.partials, &pass.errors, pass.next)
    } else {
        None
    };
    // An interrupted or error-bearing sweep visited (or verified) only
    // part of the universe: whatever it concludes is evidence from a
    // sample, never a universal statement.
    let coverage = if interrupted || !pass.errors.is_empty() {
        Coverage::Sampled
    } else {
        universe.coverage()
    };

    if interrupted {
        budget.note_interruption(recorder);
    }
    let sweep_outcome = SweepOutcome {
        checked,
        universe_size: n,
        short_circuited,
    };
    let reduce_start = recorder.map(|r| r.now_micros());
    let verdict = check.reduce(universe, pass.partials, &sweep_outcome);
    if let (Some(r), Some(t0)) = (recorder, reduce_start) {
        r.record_phase(SweepPhase::Reduce, r.now_micros().saturating_sub(t0));
    }
    let interner = check.interner_report();
    if let (Some(r), Some(report)) = (recorder, &interner) {
        report.record_into(r);
    }
    if let Some(r) = recorder {
        r.span_exit("sweep");
    }
    BudgetedSweep {
        report: VerificationReport {
            verdict,
            evidence: ExecEvidence {
                checked,
                universe_size: n,
                short_circuited,
                interrupted,
                coverage,
                errors: pass.errors,
                cache_hits: pass.cache_hits,
                cache_misses: pass.cache_misses,
                memo_hits: pass.memo_hits,
                memo_misses: pass.memo_misses,
                elapsed: start.elapsed(),
                threads: pass.threads,
                interner,
            },
        },
        resume,
    }
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

/// Runs one shard's pass over `[lo, hi)` without reducing: the fragment
/// carries everything the merge needs. A budget applies to this call
/// alone (`max_items` caps this shard's items; `deadline` is wall-clock
/// from this call), and a budget stop inside the range marks a budget
/// interruption exactly as a whole-universe sweep would.
#[allow(clippy::too_many_arguments)] // the args are the sweep's state, not a config
pub(super) fn run_fragment<C: PropertyCheck>(
    check: &C,
    universe: &Universe,
    mode: ExecMode,
    budget: &SweepBudget,
    token: ResumeToken<C::Partial>,
    opts: SweepOpts,
    recorder: Option<&dyn SweepRecorder>,
    lo: usize,
    hi: usize,
) -> SweepFragment<C::Partial> {
    let start = Instant::now();
    if let Some(r) = recorder {
        r.span_enter("sweep");
    }
    let hi = hi.min(universe.len());
    let mut token = token;
    if token.next_index < lo {
        token.next_index = lo;
    }
    let pass = run_pass(
        check, universe, mode, budget, token, opts, recorder, hi, start,
    );
    if pass.stop_at == usize::MAX && pass.next < hi {
        budget.note_interruption(recorder);
    }
    if let Some(r) = recorder {
        r.span_exit("sweep");
    }
    SweepFragment {
        lo,
        hi,
        next: pass.next,
        stop_at: (pass.stop_at != usize::MAX).then_some(pass.stop_at),
        partials: pass.partials,
        errors: pass.errors,
    }
}

/// Sweeps `check` over labelings pulled lazily from `labelings`, all on
/// the same `instance`.
///
/// Unlike [`sweep`], nothing is materialized: items are drawn one at a
/// time and the sweep stops *pulling* at the first short-circuiting item.
/// A stateful source — e.g. labelings drawn from a caller's RNG — is
/// therefore advanced exactly `checked` times, matching the pre-engine
/// sampling loops, and memory stays `O(1)` in the stream length.
///
/// The sweep is necessarily sequential (the source is a stateful
/// iterator), but the view-skeleton cache is still built once for
/// `instance` and shared by every item. Because the stream length is
/// unknown until exhausted, the report's `universe_size` equals the number
/// of items drawn, and [`PropertyCheck::reduce`] receives a synthetic
/// one-block universe describing the bare `instance` — lazy sweeps suit
/// checks whose `reduce` depends only on the partials and the
/// [`SweepOutcome`], which is every check in this crate.
#[deprecated(note = "use `LazySweep::of(instance, coverage).run(check, labelings)`")]
pub fn sweep_lazy<C: PropertyCheck>(
    check: &C,
    instance: &Instance,
    labelings: impl IntoIterator<Item = Labeling>,
    coverage: Coverage,
) -> VerificationReport<C::Verdict> {
    LazySweep::of(instance, coverage).run(check, labelings)
}

/// [`sweep_lazy`] under a [`SweepBudget`]. An expired budget stops
/// *drawing* (a stateful source is never advanced past the limit); the
/// report is flagged `interrupted` with [`Coverage::Sampled`], and
/// `checked` says how many items were drawn — a caller can resume by
/// skipping that many items of a replayed source.
#[deprecated(note = "use `LazySweep::of(instance, coverage).budget(budget).run(check, labelings)`")]
pub fn sweep_lazy_budgeted<C: PropertyCheck>(
    check: &C,
    instance: &Instance,
    labelings: impl IntoIterator<Item = Labeling>,
    coverage: Coverage,
    budget: &SweepBudget,
) -> VerificationReport<C::Verdict> {
    LazySweep::of(instance, coverage)
        .budget(*budget)
        .run(check, labelings)
}

/// The engine behind [`LazySweep::run`]: draws labelings one at a time,
/// stops pulling at the first short-circuit or budget expiry.
pub(super) fn run_lazy<C: PropertyCheck>(
    check: &C,
    instance: &Instance,
    labelings: impl IntoIterator<Item = Labeling>,
    coverage: Coverage,
    budget: &SweepBudget,
) -> VerificationReport<C::Verdict> {
    let start = Instant::now();
    let deadline = budget.deadline.map(|d| start + d);
    // invariant: one `Unlabeled` block contributes exactly one item, far
    // from overflowing the flat index space.
    let universe = Universe::new(
        vec![Block::new(instance.clone(), LabelSource::Unlabeled)],
        coverage,
    )
    .expect("a single bare instance cannot overflow");
    let cache = SkeletonCache::build(&universe, check.view_configs());
    let hits = AtomicUsize::new(0);
    let misses = AtomicUsize::new(cache.populated);
    let shared = universe.blocks()[0].instance();
    let mut partials = Vec::new();
    let mut errors = Vec::new();
    let mut checked = 0usize;
    let mut short_circuited = false;
    let mut interrupted = false;
    for labeling in labelings {
        if budget.max_items.is_some_and(|m| checked >= m)
            || deadline.is_some_and(|d| Instant::now() >= d)
        {
            interrupted = true;
            break;
        }
        let item = UniverseItem {
            index: checked,
            block: 0,
            instance: shared,
            labeling: &labeling,
            digits: None,
        };
        checked += 1;
        let ctx = ItemCtx {
            block: 0,
            cache: &cache,
            hits: &hits,
            misses: &misses,
            memo: true,
            multiplicity: 1,
        };
        match catch_unwind(AssertUnwindSafe(|| check.inspect(&item, &ctx))) {
            Ok(Some(partial)) => {
                let stop = check.short_circuits(&partial);
                partials.push((item.index, partial));
                if stop {
                    short_circuited = true;
                    break;
                }
            }
            Ok(None) => {}
            Err(payload) => errors.push(SweepError::from_panic(item.index, payload)),
        }
    }
    finish_lazy(
        check,
        &universe,
        partials,
        errors,
        checked,
        short_circuited,
        interrupted,
        &hits,
        &misses,
        start,
    )
}

/// Sweeps `check` over labeled instances pulled lazily from `items`.
///
/// The streaming counterpart of a `Fixed`-per-block universe (one instance
/// per item, e.g. the identifier variants of the invariance checks): draws
/// stop at the first short-circuiting item, so a stateful source advances
/// exactly `checked` times and memory stays `O(1)` in the stream length.
/// Each item's view skeletons are computed on arrival — the same
/// per-variant cost the eager universe pays. As with [`sweep_lazy`], the
/// report's `universe_size` equals the number of items drawn and
/// [`PropertyCheck::reduce`] receives a synthetic universe (here an empty
/// one, as there is no single shared instance).
#[deprecated(note = "use `LazySweep::labeled(coverage).run_labeled(check, items)`")]
pub fn sweep_lazy_labeled<C: PropertyCheck>(
    check: &C,
    items: impl IntoIterator<Item = LabeledInstance>,
    coverage: Coverage,
) -> VerificationReport<C::Verdict> {
    LazySweep::labeled(coverage).run_labeled(check, items)
}

/// The engine behind [`LazySweep::run_labeled`]: draws labeled instances
/// one at a time, each with its own one-item skeleton cache. An expired
/// budget stops *drawing*, exactly as [`run_lazy`] does.
pub(super) fn run_lazy_labeled<C: PropertyCheck>(
    check: &C,
    items: impl IntoIterator<Item = LabeledInstance>,
    coverage: Coverage,
    budget: &SweepBudget,
) -> VerificationReport<C::Verdict> {
    let start = Instant::now();
    let deadline = budget.deadline.map(|d| start + d);
    let configs = check.view_configs();
    // invariant: zero blocks sum to zero items — overflow is impossible.
    let reduce_universe =
        Universe::new(Vec::new(), coverage).expect("an empty universe cannot overflow");
    let hits = AtomicUsize::new(0);
    let misses = AtomicUsize::new(0);
    let mut partials = Vec::new();
    let mut errors = Vec::new();
    let mut checked = 0usize;
    let mut short_circuited = false;
    let mut interrupted = false;
    for li in items {
        if budget.max_items.is_some_and(|m| checked >= m)
            || deadline.is_some_and(|d| Instant::now() >= d)
        {
            interrupted = true;
            break;
        }
        let (instance, labeling) = li.into_parts();
        // invariant: one `Unlabeled` block contributes exactly one item,
        // far from overflowing the flat index space.
        let mini = Universe::new(vec![Block::new(instance, LabelSource::Unlabeled)], coverage)
            .expect("a single bare instance cannot overflow");
        let cache = SkeletonCache::build(&mini, configs.clone());
        misses.fetch_add(cache.populated, Ordering::Relaxed);
        let item = UniverseItem {
            index: checked,
            block: 0,
            instance: mini.blocks()[0].instance(),
            labeling: &labeling,
            digits: None,
        };
        checked += 1;
        let ctx = ItemCtx {
            block: 0,
            cache: &cache,
            hits: &hits,
            misses: &misses,
            memo: true,
            multiplicity: 1,
        };
        match catch_unwind(AssertUnwindSafe(|| check.inspect(&item, &ctx))) {
            Ok(Some(partial)) => {
                let stop = check.short_circuits(&partial);
                partials.push((item.index, partial));
                if stop {
                    short_circuited = true;
                    break;
                }
            }
            Ok(None) => {}
            Err(payload) => errors.push(SweepError::from_panic(item.index, payload)),
        }
    }
    finish_lazy(
        check,
        &reduce_universe,
        partials,
        errors,
        checked,
        short_circuited,
        interrupted,
        &hits,
        &misses,
        start,
    )
}

#[allow(clippy::too_many_arguments)]
fn finish_lazy<C: PropertyCheck>(
    check: &C,
    universe: &Universe,
    partials: Vec<(usize, C::Partial)>,
    errors: Vec<SweepError>,
    checked: usize,
    short_circuited: bool,
    interrupted: bool,
    hits: &AtomicUsize,
    misses: &AtomicUsize,
    start: Instant,
) -> VerificationReport<C::Verdict> {
    let coverage = if interrupted || !errors.is_empty() {
        Coverage::Sampled
    } else {
        universe.coverage()
    };
    let outcome = SweepOutcome {
        checked,
        universe_size: checked,
        short_circuited,
    };
    let verdict = check.reduce(universe, partials, &outcome);
    VerificationReport {
        verdict,
        evidence: ExecEvidence {
            checked,
            universe_size: checked,
            short_circuited,
            interrupted,
            coverage,
            errors,
            cache_hits: hits.load(Ordering::Relaxed),
            cache_misses: misses.load(Ordering::Relaxed),
            memo_hits: 0,
            memo_misses: 0,
            elapsed: start.elapsed(),
            threads: 1,
            interner: check.interner_report(),
        },
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

/// What one executor pass over `[begin, end)` produced.
struct PassOutcome<P> {
    partials: Vec<(usize, P)>,
    errors: Vec<SweepError>,
    /// Lowest short-circuiting index (`usize::MAX` = none).
    stop_at: usize,
    /// First index not visited: `end` on natural completion, earlier when
    /// the deadline fired. Everything below it was inspected.
    next: usize,
}

/// Immutable per-sweep state shared by every worker thread.
struct Engine<'e, C: PropertyCheck> {
    check: &'e C,
    universe: &'e Universe,
    cache: &'e SkeletonCache,
    driver: Option<DeltaDriver<'e>>,
    quotient: Option<QuotientPlan>,
    hits: &'e AtomicUsize,
    misses: &'e AtomicUsize,
    memo_hits: &'e AtomicUsize,
    memo_misses: &'e AtomicUsize,
    memo_on: bool,
    oracle: bool,
    recorder: Option<&'e dyn SweepRecorder>,
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

/// A worker thread's mutable state.
struct WorkerState {
    walker: Walker,
    scratch: VerdictScratch,
    memo: VerdictMemo,
    tally: WorkerTally,
}

impl WorkerState {
    fn new(memo_on: bool) -> WorkerState {
        WorkerState {
            walker: Walker::default(),
            scratch: VerdictScratch::default(),
            memo: VerdictMemo::new(memo_on),
            tally: WorkerTally::default(),
        }
    }
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

impl<C: PropertyCheck> Engine<'_, C> {
    /// Inspects item `i` via the delta-stepping walker (or the decode
    /// oracle when so configured), under panic isolation.
    ///
    /// `AssertUnwindSafe` is justified because `inspect` is required to be
    /// a pure function of the item, and the walker's odometer state is
    /// only mutated by engine code *before* the guarded region — a panic
    /// inside the decoder or the check invalidates the verdict scratch but
    /// leaves the odometer consistent.
    fn run_item(
        &self,
        state: &mut WorkerState,
        i: usize,
    ) -> Result<Option<C::Partial>, SweepError> {
        state.tally.walk();
        if self.oracle {
            state.tally.inspect(1);
            return self.inspect_decoded(i);
        }
        let (block, offset) = self.universe.locate(i);
        let stepped = state.walker.advance_to(self.universe, block, offset);
        let mut multiplicity = 1u64;
        if let Some(plan) = &self.quotient {
            // Quotient strategy: only canonical orbit representatives are
            // inspected. A skipped item still cost one odometer step, so
            // the walker stays consistent and `checked` keeps counting
            // every index; the verdict scratch goes stale, which the next
            // representative repairs with a full recompute.
            match plan.classify(block, &state.walker.digits) {
                Some(m) => multiplicity = m,
                None => {
                    state.tally.orbit_skip();
                    return Ok(None);
                }
            }
        }
        state.tally.inspect(multiplicity);
        let instance = self.universe.blocks()[block].instance();
        let ctx = ItemCtx {
            block,
            cache: self.cache,
            hits: self.hits,
            misses: self.misses,
            memo: self.memo_on,
            multiplicity,
        };
        let use_verdicts = self
            .driver
            .as_ref()
            .is_some_and(|d| d.verdict_blocks[block]);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let WorkerState {
                walker,
                scratch,
                memo,
                tally,
            } = state;
            if use_verdicts {
                let driver = self.driver.as_ref().expect("checked above");
                refresh_verdicts(
                    driver, self.cache, block, offset, walker, scratch, memo, tally, stepped,
                );
                let item = UniverseItem {
                    index: i,
                    block,
                    instance,
                    labeling: &walker.labeling,
                    digits: Some(&walker.digits),
                };
                self.check
                    .inspect_with_verdicts(&item, &scratch.verdicts, &ctx)
            } else {
                let item = UniverseItem {
                    index: i,
                    block,
                    instance,
                    labeling: &walker.labeling,
                    digits: (!walker.digits.is_empty()).then_some(walker.digits.as_slice()),
                };
                self.check.inspect(&item, &ctx)
            }
        }));
        result.map_err(|payload| SweepError::from_panic(i, payload))
    }

    /// The decode-from-index oracle: materializes item `i` independently
    /// and runs the plain `inspect`.
    fn inspect_decoded(&self, i: usize) -> Result<Option<C::Partial>, SweepError> {
        catch_unwind(AssertUnwindSafe(|| {
            let buf = self.universe.item(i);
            let ctx = ItemCtx {
                block: buf.block,
                cache: self.cache,
                hits: self.hits,
                misses: self.misses,
                memo: self.memo_on,
                multiplicity: 1,
            };
            self.check.inspect(&buf.as_item(), &ctx)
        }))
        .map_err(|payload| SweepError::from_panic(i, payload))
    }

    /// Folds a worker's local memo counters into the sweep totals and
    /// its telemetry tally into the attached recorder (if any).
    fn flush_memo(&self, state: &WorkerState) {
        self.memo_hits.fetch_add(state.memo.hits, Ordering::Relaxed);
        self.memo_misses
            .fetch_add(state.memo.misses, Ordering::Relaxed);
        state.tally.flush(self.recorder);
    }
}

fn run_sequential<C: PropertyCheck>(
    engine: &Engine<'_, C>,
    begin: usize,
    end: usize,
    deadline: Option<Instant>,
) -> PassOutcome<C::Partial> {
    let mut state = WorkerState::new(engine.memo_on);
    let mut partials = Vec::new();
    let mut errors = Vec::new();
    let mut stop_at = usize::MAX;
    let mut next = end;
    // Span bookkeeping (recorder-only): the sequential walk visits
    // blocks in order, so one `locate` per item — paid only when a
    // recorder is attached — detects every block transition.
    let mut span_block: Option<usize> = None;
    for i in begin..end {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            next = i;
            break;
        }
        if let Some(r) = engine.recorder {
            let (block, _) = engine.universe.locate(i);
            if span_block != Some(block) {
                if let Some(b) = span_block {
                    r.span_exit(&format!("block:{b}"));
                }
                r.span_enter(&format!("block:{block}"));
                span_block = Some(block);
            }
        }
        match engine.run_item(&mut state, i) {
            Ok(Some(partial)) => {
                let stop = engine.check.short_circuits(&partial);
                partials.push((i, partial));
                if stop {
                    stop_at = i;
                    next = i + 1;
                    break;
                }
            }
            Ok(None) => {}
            Err(err) => errors.push(err),
        }
    }
    if let (Some(r), Some(b)) = (engine.recorder, span_block) {
        r.span_exit(&format!("block:{b}"));
    }
    engine.flush_memo(&state);
    PassOutcome {
        partials,
        errors,
        stop_at,
        next,
    }
}

#[cfg(feature = "parallel")]
fn run_parallel<C: PropertyCheck>(
    engine: &Engine<'_, C>,
    threads: usize,
    begin: usize,
    end: usize,
    deadline: Option<Instant>,
) -> PassOutcome<C::Partial> {
    let span = end - begin;
    // Chunks small enough that threads converge quickly on a low
    // short-circuit index, but with a floor: every chunk boundary costs
    // the claiming worker one odometer resync (a full decode plus, on the
    // delta path, a full verdict recompute), so tiny chunks would erase
    // the delta win.
    let chunk = (span / (threads * 8)).clamp(16, 1024);
    let cursor = AtomicUsize::new(begin);
    // Lowest short-circuiting index seen so far (usize::MAX = none).
    let stop_at = AtomicUsize::new(usize::MAX);

    let mut partials: Vec<(usize, C::Partial)> = Vec::new();
    let mut errors: Vec<SweepError> = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = WorkerState::new(engine.memo_on);
                    let mut local: Vec<(usize, C::Partial)> = Vec::new();
                    let mut local_errors: Vec<SweepError> = Vec::new();
                    loop {
                        // The deadline is checked before claiming, and a
                        // claimed chunk always runs to completion — so
                        // the visited set stays the contiguous prefix
                        // [begin, cursor) and a ResumeToken can describe
                        // it with one index.
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            break;
                        }
                        let claim = chunk;
                        #[cfg(conformance_mutants)]
                        let claim = if crate::mutants::active("chunk_claim_overlap") {
                            chunk - 1
                        } else {
                            claim
                        };
                        let start = cursor.fetch_add(claim, Ordering::Relaxed);
                        // The cursor only grows, so once a claimed chunk
                        // lies entirely past the stop index, all later
                        // claims will too.
                        if start >= end || start > stop_at.load(Ordering::Relaxed) {
                            break;
                        }
                        if let Some(r) = engine.recorder {
                            r.span_enter(&format!("chunk:{start}"));
                        }
                        for i in start..(start + chunk).min(end) {
                            if i > stop_at.load(Ordering::Relaxed) {
                                break;
                            }
                            match engine.run_item(&mut state, i) {
                                Ok(Some(partial)) => {
                                    let stop = engine.check.short_circuits(&partial);
                                    local.push((i, partial));
                                    if stop {
                                        stop_at.fetch_min(i, Ordering::Relaxed);
                                        break;
                                    }
                                }
                                Ok(None) => {}
                                Err(err) => local_errors.push(err),
                            }
                        }
                        if let Some(r) = engine.recorder {
                            r.span_exit(&format!("chunk:{start}"));
                        }
                    }
                    engine.flush_memo(&state);
                    (local, local_errors)
                })
            })
            .collect();
        for worker in workers {
            // invariant: check panics are caught per item by `run_item`,
            // so a worker can only die of a bug in the executor itself —
            // propagate that loudly.
            let (local, local_errors) = worker.join().expect("sweep worker panicked");
            partials.extend(local);
            errors.extend(local_errors);
        }
    });
    let stop = stop_at.load(Ordering::Relaxed);
    // Natural termination bumps the cursor past `end`; a deadline stop
    // leaves it at the first unclaimed index. Claimed chunks always
    // complete, so everything below this index was inspected.
    let next = if stop != usize::MAX {
        end
    } else {
        cursor.load(Ordering::Relaxed).min(end)
    };
    PassOutcome {
        partials,
        errors,
        stop_at: stop,
        next,
    }
}

#[cfg(not(feature = "parallel"))]
fn run_parallel<C: PropertyCheck>(
    engine: &Engine<'_, C>,
    _threads: usize,
    begin: usize,
    end: usize,
    deadline: Option<Instant>,
) -> PassOutcome<C::Partial> {
    run_sequential(engine, begin, end, deadline)
}
