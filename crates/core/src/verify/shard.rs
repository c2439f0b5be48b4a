//! Sharded sweep orchestration: deterministic universe partitioning,
//! a retrying dispatch coordinator, and the fragment merge that makes a
//! sharded run reproduce the single-process report bit-for-bit.
//!
//! # Partitioning
//!
//! [`ShardSpec`] names one of `N` contiguous ranges of the flat odometer
//! index space, and a fragment walk
//! ([`SweepSession::run_fragment`](super::SweepSession::run_fragment) /
//! [`run_panel_fragment`](super::SweepSession::run_panel_fragment))
//! takes it as an argument. Because the executor's visited set is always
//! a contiguous prefix of its range and every [`SweepStrategy`] is a pure
//! function of the item index, shard `i`'s walk over `[lo, hi)` records
//! exactly the partials a single-process walk records while passing
//! through that range. A walk the budget stopped is the same
//! [`PanelFragment`] with `next < hi`: resuming it continues the range,
//! and the merge rejects it as torn until it is complete.
//!
//! # Merge
//!
//! [`merge_fragments`] / [`merge_panel_fragments`] validate that the
//! fragments *tile* the universe exactly (no gap, no overlap, nothing
//! torn), compose the short-circuit frontier (the global stop is the
//! minimum over shards — exactly the `fetch_min` rule worker threads
//! already obey within one process), apply the same retention rule the
//! walk applies, and then run the one reduce a single-process
//! sweep would have run. Orbit multiplicities need no special handling: a
//! representative's multiplicity is a function of the item alone, so
//! weighted partials compose by concatenation.
//!
//! Across processes no fragment is shipped whole. A shard report lists
//! the item indices of its records, and the merging process rebuilds the
//! fragment by replaying exactly those items through the engine's per-item
//! step, rejecting the report unless the replay reproduces every listed
//! record (see [`AuditPlan::run_with_shards`](super::AuditPlan::run_with_shards)).
//! The fragments merged here are the replayed ones.
//!
//! # Coordinator
//!
//! [`run_shards`] owns dispatch and retry: each shard is handed to a
//! caller-supplied closure, which launches an attempt (a child `audit
//! --shard` process for the CLI) or runs it in process (tests, benches),
//! and is re-dispatched on failure up to a retry cap. Up to one attempt
//! per core runs at once, and every attempt is collected before the
//! coordinator returns. Dispatch/retry counters and per-shard spans flow
//! into the attached [`SweepRecorder`].
//!
//! [`SweepStrategy`]: super::SweepStrategy

use super::budget::MemberFrontier;
use super::check::{PropertyCheck, VerificationReport};
use super::erased::DynPropertyCheck;
use super::executor::{resolve_threads, ExecMode};
use super::panel::{reduce, PanelFragment, PanelReport, Reduced};
use super::telemetry::{SweepCounter, SweepPhase, SweepRecorder, WalkCounts};
use super::universe::Universe;
use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// One of `of` contiguous shards of a universe's flat index space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's position, `0 ≤ index < of`.
    pub index: usize,
    /// Total number of shards.
    pub of: usize,
}

impl ShardSpec {
    /// Builds a spec.
    ///
    /// # Panics
    ///
    /// When `of` is zero or `index` is out of range.
    pub fn new(index: usize, of: usize) -> ShardSpec {
        assert!(of >= 1, "shard count must be at least 1");
        assert!(
            index < of,
            "shard index {index} out of range for {of} shards"
        );
        ShardSpec { index, of }
    }

    /// Parses the CLI form `i/N` (e.g. `0/4`).
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (i, of) = s
            .split_once('/')
            .ok_or_else(|| format!("bad shard spec `{s}`: expected the form i/N, e.g. 0/4"))?;
        let index: usize = i
            .trim()
            .parse()
            .map_err(|_| format!("bad shard index `{i}` in `{s}`"))?;
        let of: usize = of
            .trim()
            .parse()
            .map_err(|_| format!("bad shard count `{of}` in `{s}`"))?;
        if of == 0 {
            return Err(format!(
                "bad shard spec `{s}`: shard count must be at least 1"
            ));
        }
        if index >= of {
            return Err(format!(
                "bad shard spec `{s}`: index {index} out of range for {of} shards"
            ));
        }
        Ok(ShardSpec { index, of })
    }

    /// The CLI form `i/N`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.index, self.of)
    }

    /// This shard's contiguous index range `[lo, hi)` of a universe with
    /// `n` items. The first `n mod of` shards get one extra item, so the
    /// ranges tile `[0, n)` exactly and every shard's size differs by at
    /// most one — deterministic, no rounding holes.
    pub fn range(&self, n: usize) -> (usize, usize) {
        let base = n / self.of;
        let rem = n % self.of;
        let lo = self.index * base + self.index.min(rem);
        let hi = lo + base + usize::from(self.index < rem);
        #[cfg(conformance_mutants)]
        let hi = if crate::mutants::active("shard_range_overlap") && self.index + 1 < self.of {
            // Seeded fault: every non-final shard annexes its successor's
            // first item, so adjacent ranges overlap by one.
            (hi + 1).min(n)
        } else {
            hi
        };
        (lo, hi)
    }

    /// All `of` shards, in index order.
    pub fn partition(of: usize) -> Vec<ShardSpec> {
        assert!(of >= 1, "shard count must be at least 1");
        (0..of).map(|index| ShardSpec { index, of }).collect()
    }
}

/// What the coordinator produced: the per-shard results (in shard order)
/// plus the dispatch accounting, mirrored into the recorder's
/// `shard_dispatches` / `shard_retries` counters.
#[derive(Debug)]
pub struct ShardRunReport<T> {
    /// One result per shard, in shard-index order.
    pub results: Vec<T>,
    /// Total dispatch attempts (successes + retries).
    pub dispatches: u64,
    /// Re-dispatches after a failed attempt.
    pub retries: u64,
}

/// One launched attempt at a shard, as [`run_shards`]'s `dispatch`
/// returns it.
///
/// The coordinator waits for every attempt on a thread of its own, so
/// [`wait`](ShardAttempt::wait) may still be blocking when the
/// coordinator's thread calls [`abort`](ShardAttempt::abort).
pub trait ShardAttempt: Send + Sync {
    /// What a successful attempt yields.
    type Output;

    /// Blocks until the attempt has ended.
    fn wait(&self);

    /// Ends the attempt early if it is still running, so that
    /// [`wait`](ShardAttempt::wait) returns.
    fn abort(&self);

    /// The ended attempt's result; reaps whatever the attempt started.
    fn finish(self) -> Result<Self::Output, String>;
}

/// An attempt run in process: `dispatch` did its work before returning,
/// so the attempt has already ended.
impl<T: Send + Sync> ShardAttempt for Result<T, String> {
    type Output = T;

    fn wait(&self) {}

    fn abort(&self) {}

    fn finish(self) -> Result<T, String> {
        self
    }
}

/// Dispatches every shard of an `of`-way partition through `dispatch`,
/// re-dispatching failures up to `retry_cap` extra attempts per shard.
///
/// `dispatch` receives the shard spec and the attempt number (0 = first
/// try), starts the attempt and returns it (a child process for the CLI);
/// an in-process `dispatch` does the shard's work and returns its
/// `Result`, an attempt that has already ended. Up to one attempt per
/// core ([`std::thread::available_parallelism`]) runs at once: the
/// coordinator launches attempts until that many are in flight, then
/// collects whichever ends first and launches the next. Each attempt
/// bumps [`SweepCounter::ShardDispatches`] and runs under a `shard:i/N`
/// span on the lane of the thread that waits for it; each retry
/// additionally bumps [`SweepCounter::ShardRetries`]. A failure — a
/// crashed child, a torn report, a timeout; the coordinator does not care
/// which — puts its shard back at the head of the queue. A shard that
/// fails `retry_cap + 1` times fails the whole run with its last error,
/// once every other attempt in flight has been aborted and finished.
/// Results come back in shard order, whatever order the attempts end in.
pub fn run_shards<A: ShardAttempt>(
    of: usize,
    retry_cap: usize,
    recorder: Option<&dyn SweepRecorder>,
    dispatch: impl FnMut(ShardSpec, usize) -> A,
) -> Result<ShardRunReport<A::Output>, String> {
    let window = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_window(of, retry_cap, window, recorder, dispatch)
}

/// [`run_shards`] with at most `window` (at least one) attempts in flight.
fn run_window<A: ShardAttempt>(
    of: usize,
    retry_cap: usize,
    window: usize,
    recorder: Option<&dyn SweepRecorder>,
    mut dispatch: impl FnMut(ShardSpec, usize) -> A,
) -> Result<ShardRunReport<A::Output>, String> {
    let specs = ShardSpec::partition(of);
    let mut results: Vec<Option<A::Output>> = specs.iter().map(|_| None).collect();
    let mut running: Vec<Option<Arc<A>>> = specs.iter().map(|_| None).collect();
    let mut launched = vec![0usize; of];
    let mut queue: VecDeque<usize> = (0..of).collect();
    let (mut dispatches, mut retries) = (0u64, 0u64);
    let mut failure: Option<String> = None;
    let (ended, collect) = mpsc::channel::<usize>();
    std::thread::scope(|scope| {
        let mut in_flight = 0usize;
        loop {
            while failure.is_none() && in_flight < window {
                let Some(index) = queue.pop_front() else {
                    break;
                };
                let (spec, attempt) = (specs[index], launched[index]);
                launched[index] += 1;
                dispatches += 1;
                if attempt > 0 {
                    retries += 1;
                }
                if let Some(r) = recorder {
                    r.add(SweepCounter::ShardDispatches, 1);
                    if attempt > 0 {
                        r.add(SweepCounter::ShardRetries, 1);
                    }
                }
                let handle = Arc::new(dispatch(spec, attempt));
                running[index] = Some(Arc::clone(&handle));
                let ended = ended.clone();
                scope.spawn(move || {
                    // Declared before the handle, so dropped after it:
                    // the coordinator hears of the attempt once the
                    // waiter let go of it, even when `wait` panics.
                    let _ended = Ended(ended, index);
                    let handle = handle;
                    let span = format!("shard:{}", spec.label());
                    if let Some(r) = recorder {
                        r.span_enter(&span);
                    }
                    handle.wait();
                    // The coordinator finishes the attempt by value.
                    drop(handle);
                    if let Some(r) = recorder {
                        r.span_exit(&span);
                    }
                });
                in_flight += 1;
            }
            if in_flight == 0 {
                break;
            }
            let index = collect.recv().expect("every waiter reports its attempt");
            in_flight -= 1;
            let handle = running[index]
                .take()
                .expect("a reported attempt is running");
            let outcome = Arc::into_inner(handle)
                .expect("the waiter let go of its attempt")
                .finish();
            match outcome {
                Ok(value) => results[index] = Some(value),
                Err(_) if failure.is_some() => {}
                Err(_) if launched[index] <= retry_cap => queue.push_front(index),
                Err(e) => {
                    failure = Some(format!(
                        "shard {} failed after {} attempts: {e}",
                        specs[index].label(),
                        retry_cap + 1
                    ));
                    for attempt in running.iter().flatten() {
                        attempt.abort();
                    }
                }
            }
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    Ok(ShardRunReport {
        results: results
            .into_iter()
            .map(|r| r.expect("every shard succeeded"))
            .collect(),
        dispatches,
        retries,
    })
}

/// Sends a waiter's shard index to the coordinator when the waiter ends,
/// by return or by panic; a panic then reaches the coordinator's caller
/// through [`std::thread::scope`].
struct Ended(mpsc::Sender<usize>, usize);

impl Drop for Ended {
    fn drop(&mut self) {
        let _ = self.0.send(self.1);
    }
}

/// Checks that `fragments` (any order) tile `[0, n)` exactly, are all
/// complete, describe `members` members each, and record only items
/// their own walk visited: every partial, error and stop index lies in
/// the fragment's `[lo, next)`, and partial and error indices strictly
/// increase within a member. Returns the fragments sorted by range start.
fn validate_tiling<P>(
    mut fragments: Vec<PanelFragment<P>>,
    n: usize,
    members: usize,
) -> Result<Vec<PanelFragment<P>>, String> {
    if fragments.is_empty() {
        return Err("no fragments to merge".to_string());
    }
    fragments.sort_by_key(|f| f.lo);
    let mut expect = 0usize;
    for f in &fragments {
        let (lo, hi) = (f.lo, f.hi);
        if lo != expect {
            return Err(if lo > expect {
                format!("fragments leave a gap: [{expect}, {lo}) is uncovered")
            } else {
                format!("fragments overlap: [{lo}, {expect}) is covered twice")
            });
        }
        if hi < lo || !(lo..=hi).contains(&f.next) {
            return Err(format!(
                "fragment range [{lo}, {hi}) with walk frontier {} is malformed",
                f.next
            ));
        }
        if !f.is_complete() {
            return Err(format!(
                "fragment over [{lo}, {hi}) is torn: its walk stopped at item {} and did not \
                 finish the range",
                f.next
            ));
        }
        if f.members.len() != members {
            return Err(format!(
                "fragment over [{lo}, {hi}) describes {} members, expected {members}",
                f.members.len()
            ));
        }
        for (m, member) in f.members.iter().enumerate() {
            let recorded = |what: &str, indices: &mut dyn Iterator<Item = usize>| {
                let mut prev: Option<usize> = None;
                for i in indices {
                    if i < lo || i >= f.next {
                        return Err(format!(
                            "fragment over [{lo}, {hi}) records a member {m} {what} at item {i}, \
                             outside its walked range [{lo}, {})",
                            f.next
                        ));
                    }
                    if let Some(p) = prev.filter(|&p| i <= p) {
                        return Err(format!(
                            "fragment over [{lo}, {hi}) records member {m} {what}s out of \
                             order: item {i} after item {p}"
                        ));
                    }
                    prev = Some(i);
                }
                Ok(())
            };
            recorded("partial", &mut member.partials.iter().map(|&(i, _)| i))?;
            recorded("error", &mut member.errors.iter().map(|e| e.item_index))?;
            recorded("stop", &mut member.stop_at.into_iter())?;
        }
        expect = hi;
    }
    if expect != n {
        return Err(format!(
            "fragments cover [0, {expect}) but the universe has {n} items"
        ));
    }
    Ok(fragments)
}

/// The one merge behind [`merge_fragments`] and [`merge_panel_fragments`]:
/// validates the tiling, composes each member's short-circuit frontier
/// (the global stop is the minimum over shards — exactly the `fetch_min`
/// rule worker threads obey within one process), applies the walk's
/// retention rule, and runs the reduce a single-process walk would have
/// run. Records one [`SweepPhase::Merge`] sample from `begun` (the
/// recorder's clock when the merge began, which the audit plan sets
/// before its parse and replay; this call's start if `None`) up to the
/// reduce. The merge walks nothing, so its evidence's counts are zero. A
/// member's records are concatenated, not re-folded: a folding member's
/// reduce takes each key from its lowest-index partial
/// ([`PropertyCheck::fold`]).
pub(super) fn merge<C: PropertyCheck>(
    checks: &[C],
    universe: &Universe,
    mode: ExecMode,
    fragments: Vec<PanelFragment<C::Partial>>,
    recorder: Option<&dyn SweepRecorder>,
    begun: Option<u64>,
) -> Result<Reduced<C::Verdict>, String> {
    let start = Instant::now();
    let begun = recorder.map(|r| begun.unwrap_or_else(|| r.now_micros()));
    let n = universe.len();
    let fragments = validate_tiling(fragments, n, checks.len())?;
    if let Some(r) = recorder {
        r.add(SweepCounter::ShardMerges, 1);
        r.span_enter("merge");
    }
    let mut members: Vec<MemberFrontier<C::Partial>> =
        checks.iter().map(|_| MemberFrontier::new()).collect();
    // Fragments are sorted by disjoint ranges and internally sorted, so
    // concatenation preserves index order.
    for f in fragments {
        for (merged, frontier) in members.iter_mut().zip(f.members) {
            merged.stop_at = match (merged.stop_at, frontier.stop_at) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            merged.partials.extend(frontier.partials);
            merged.errors.extend(frontier.errors);
        }
    }
    for member in &mut members {
        member.settle();
    }
    if let (Some(r), Some(t0)) = (recorder, begun) {
        r.record_phase(SweepPhase::Merge, r.now_micros().saturating_sub(t0));
    }
    let (threads, counts) = (resolve_threads(mode, n), WalkCounts::default());
    let merged = reduce(
        checks, universe, n, members, n, false, threads, counts, recorder, start,
    );
    if let Some(r) = recorder {
        r.span_exit("merge");
    }
    Ok(merged)
}

/// Merges single-check shard fragments (one member each, from
/// [`SweepSession::run_fragment`](super::SweepSession::run_fragment))
/// into the report a single-process sweep over the whole universe would
/// produce.
///
/// The fragments must tile `[0, universe.len())` exactly and be complete:
/// a fragment the budget stopped (`next < hi`) is rejected as torn until
/// it is resumed to its `hi` or re-dispatched. The global
/// short-circuit frontier is the minimum `stop_at` over fragments, and
/// partials/errors past it are discarded — the same rule the in-process
/// parallel walk applies across threads. `mode` is only consulted for the
/// report's `threads` field, which mirrors what the equivalent unsharded
/// run would have used.
pub fn merge_fragments<C: PropertyCheck>(
    check: &C,
    universe: &Universe,
    mode: ExecMode,
    fragments: Vec<PanelFragment<C::Partial>>,
    recorder: Option<&dyn SweepRecorder>,
) -> Result<VerificationReport<C::Verdict>, String> {
    let (mut reports, _) = merge(
        std::slice::from_ref(&check),
        universe,
        mode,
        fragments,
        recorder,
        None,
    )?;
    Ok(reports.pop().expect("one member, one report"))
}

/// Merges panel shard fragments into the report a single-process fused
/// panel over the whole universe would produce. Validation, frontier
/// composition and retention follow [`merge_fragments`], applied per
/// member; the reduce is the very one the live panel runs, so member
/// verdicts, `checked` counts and coverage are structurally identical to
/// the unsharded report.
pub fn merge_panel_fragments(
    checks: &[DynPropertyCheck<'_>],
    universe: &Universe,
    mode: ExecMode,
    fragments: Vec<PanelFragment>,
    recorder: Option<&dyn SweepRecorder>,
) -> Result<PanelReport, String> {
    let (reports, evidence) = merge(checks, universe, mode, fragments, recorder, None)?;
    Ok(PanelReport::assemble(checks, reports, evidence))
}

/// Sums per-shard stable-counter lists (name → value, any order) into one
/// merged list, sorted by name — the rule the `audit` merge applies to
/// the counter sections of its shard reports.
///
/// Every stable counter is additive per item walked, so shard counts sum
/// — except `quotient_blocks`, which every shard reports identically
/// (the quotient plan is a function of the universe, not the range), so
/// the merge takes it once.
pub fn sum_stable_counters(per_shard: &[Vec<(String, u64)>]) -> Vec<(String, u64)> {
    let mut merged: Vec<(String, u64)> = Vec::new();
    for (shard, counters) in per_shard.iter().enumerate() {
        #[cfg(not(conformance_mutants))]
        let _ = shard;
        #[cfg(conformance_mutants)]
        if crate::mutants::active("shard_merge_drop_counters") && shard > 0 {
            // Seeded fault: the merge folds only the first shard's
            // counters, silently dropping every other shard's work.
            continue;
        }
        for (name, value) in counters {
            match merged.iter_mut().find(|(n, _)| n == name) {
                Some((_, total)) => {
                    if name == "quotient_blocks" {
                        *total = (*total).max(*value);
                    } else {
                        *total += *value;
                    }
                }
                None => merged.push((name.clone(), *value)),
            }
        }
    }
    merged.sort_by(|a, b| a.0.cmp(&b.0));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Condvar, Mutex};

    #[test]
    fn ranges_tile_the_index_space_exactly() {
        for n in [0usize, 1, 2, 5, 31, 32, 64, 100] {
            for of in [1usize, 2, 3, 4, 7, 16] {
                let mut expect = 0;
                for spec in ShardSpec::partition(of) {
                    let (lo, hi) = spec.range(n);
                    assert_eq!(lo, expect, "shard {} of {of} over {n}", spec.index);
                    assert!(hi >= lo);
                    expect = hi;
                }
                assert_eq!(expect, n, "{of} shards over {n} items");
            }
        }
    }

    #[test]
    fn shard_sizes_differ_by_at_most_one() {
        for n in [1usize, 31, 32, 100] {
            for of in [2usize, 3, 4, 7] {
                let sizes: Vec<usize> = ShardSpec::partition(of)
                    .iter()
                    .map(|s| {
                        let (lo, hi) = s.range(n);
                        hi - lo
                    })
                    .collect();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max - min <= 1, "{sizes:?} for {of} shards over {n}");
            }
        }
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let spec = ShardSpec::parse("2/4").unwrap();
        assert_eq!(spec, ShardSpec::new(2, 4));
        assert_eq!(spec.label(), "2/4");
        assert!(ShardSpec::parse("4/4").is_err());
        assert!(ShardSpec::parse("0/0").is_err());
        assert!(ShardSpec::parse("nope").is_err());
        assert!(ShardSpec::parse("1:2").is_err());
        assert!(ShardSpec::parse("-1/2").is_err());
    }

    #[test]
    fn coordinator_retries_up_to_the_cap() {
        // Shard 1 fails twice then succeeds; cap 2 admits it.
        let mut failures_left = 2;
        let out = run_shards(3, 2, None, |spec, attempt| {
            if spec.index == 1 && failures_left > 0 {
                failures_left -= 1;
                Err(format!("boom on attempt {attempt}"))
            } else {
                Ok(spec.index * 10 + attempt)
            }
        })
        .unwrap();
        assert_eq!(out.results, vec![0, 12, 20]);
        assert_eq!(out.dispatches, 5);
        assert_eq!(out.retries, 2);
    }

    #[test]
    fn coordinator_fails_past_the_cap() {
        let err = run_shards(2, 1, None, |spec, _| {
            if spec.index == 0 {
                Err("always".to_string())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert!(err.contains("shard 0/2 failed after 2 attempts"), "{err}");
    }

    /// What happened to a mock attempt at shard `i`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Event {
        Launch(usize),
        Abort(usize),
        Finish(usize),
    }

    /// What the mock attempts of one run share with their test.
    #[derive(Default)]
    struct Log {
        events: Vec<Event>,
        /// Shards whose attempts have ended, in the order they ended.
        ended: Vec<usize>,
        aborted: Vec<usize>,
    }

    struct Board {
        log: Mutex<Log>,
        changed: Condvar,
        /// Whether shard `i`'s running attempt may end, given the log.
        may_end: fn(&Log, usize) -> bool,
    }

    impl Board {
        fn new(may_end: fn(&Log, usize) -> bool) -> Arc<Board> {
            Arc::new(Board {
                log: Mutex::new(Log::default()),
                changed: Condvar::new(),
                may_end,
            })
        }

        /// Launches a mock attempt at `spec` that yields `outcome`.
        fn launch(self: &Arc<Board>, spec: ShardSpec, outcome: Result<usize, String>) -> Mock {
            let mut log = self.log.lock().unwrap();
            log.events.push(Event::Launch(spec.index));
            Mock {
                index: spec.index,
                outcome,
                board: Arc::clone(self),
            }
        }

        fn events(&self) -> Vec<Event> {
            self.log.lock().unwrap().events.clone()
        }
    }

    /// An attempt that ends when its board lets it or once aborted, and
    /// logs its launch, abort and finish.
    struct Mock {
        index: usize,
        outcome: Result<usize, String>,
        board: Arc<Board>,
    }

    impl ShardAttempt for Mock {
        type Output = usize;

        fn wait(&self) {
            let board = &self.board;
            let mut log = board.log.lock().unwrap();
            while !(board.may_end)(&log, self.index) && !log.aborted.contains(&self.index) {
                log = board.changed.wait(log).unwrap();
            }
            log.ended.push(self.index);
            board.changed.notify_all();
        }

        fn abort(&self) {
            let mut log = self.board.log.lock().unwrap();
            log.events.push(Event::Abort(self.index));
            log.aborted.push(self.index);
            self.board.changed.notify_all();
        }

        fn finish(self) -> Result<usize, String> {
            let mut log = self.board.log.lock().unwrap();
            log.events.push(Event::Finish(self.index));
            self.outcome
        }
    }

    #[test]
    fn every_shard_launches_before_any_is_collected() {
        let board = Board::new(|_, _| true);
        let out = run_window(3, 0, 4, None, |spec, _| board.launch(spec, Ok(spec.index))).unwrap();
        assert_eq!(out.results, vec![0, 1, 2]);
        let events = board.events();
        assert_eq!(
            events[..3],
            [Event::Launch(0), Event::Launch(1), Event::Launch(2)],
            "{events:?}"
        );
    }

    #[test]
    fn results_come_in_shard_order_whatever_order_attempts_end_in() {
        // Shard i ends only after every later shard has: 2, then 1, then 0.
        let board = Board::new(|log, i| (i + 1..3).all(|j| log.ended.contains(&j)));
        let recorder = crate::verify::MetricsRecorder::new();
        let out = run_window(3, 0, 3, Some(&recorder), |spec, _| {
            board.launch(spec, Ok(spec.index * 10))
        })
        .unwrap();
        assert_eq!(out.results, vec![0, 10, 20]);
        assert_eq!(board.log.lock().unwrap().ended, vec![2, 1, 0]);
        // Three overlapping spans, each on its waiter's lane.
        assert!(recorder.trace_balanced(), "{}", recorder.trace_json());
        assert_eq!(recorder.snapshot().get("shard_dispatches"), Some(3));
    }

    #[test]
    fn never_more_attempts_in_flight_than_the_window() {
        for window in [1usize, 2, 3] {
            let board = Board::new(|_, _| true);
            // Shard 3 fails once, so a retry takes a slot too.
            let out = run_window(5, 1, window, None, |spec, attempt| {
                let outcome = if spec.index == 3 && attempt == 0 {
                    Err("boom".to_string())
                } else {
                    Ok(spec.index)
                };
                board.launch(spec, outcome)
            })
            .unwrap();
            assert_eq!(out.results, vec![0, 1, 2, 3, 4]);
            assert_eq!((out.dispatches, out.retries), (6, 1));
            let mut in_flight = 0usize;
            let mut most = 0usize;
            for event in board.events() {
                match event {
                    Event::Launch(_) => in_flight += 1,
                    Event::Finish(_) => in_flight -= 1,
                    Event::Abort(_) => {}
                }
                most = most.max(in_flight);
            }
            assert_eq!(most, window, "window {window}");
        }
    }

    #[test]
    fn a_failure_past_the_cap_returns_after_every_other_attempt_ended() {
        // Shard 1 fails at once, every time; shards 0 and 2 run until
        // they are aborted.
        let board = Board::new(|_, i| i == 1);
        let err = run_window(3, 1, 3, None, |spec, _| {
            let outcome = if spec.index == 1 {
                Err("boom".to_string())
            } else {
                Ok(spec.index)
            };
            board.launch(spec, outcome)
        })
        .unwrap_err();
        assert!(
            err.contains("shard 1/3 failed after 2 attempts: boom"),
            "{err}"
        );
        let events = board.events();
        for shard in 0..3 {
            let launched = events
                .iter()
                .filter(|e| **e == Event::Launch(shard))
                .count();
            let finished = events
                .iter()
                .filter(|e| **e == Event::Finish(shard))
                .count();
            assert_eq!(launched, finished, "shard {shard}: {events:?}");
        }
        assert_eq!(events.iter().filter(|e| **e == Event::Launch(1)).count(), 2);
        for shard in [0, 2] {
            let abort = events.iter().position(|e| *e == Event::Abort(shard));
            let finish = events.iter().position(|e| *e == Event::Finish(shard));
            assert!(
                abort.is_some() && abort < finish,
                "shard {shard}: {events:?}"
            );
        }
    }

    #[test]
    fn retry_counts_do_not_depend_on_the_window() {
        for window in [1usize, 2, 3, 4] {
            // The `coordinator_retries_up_to_the_cap` schedule.
            let mut failures_left = 2;
            let out = run_window(3, 2, window, None, |spec, attempt| {
                if spec.index == 1 && failures_left > 0 {
                    failures_left -= 1;
                    Err(format!("boom on attempt {attempt}"))
                } else {
                    Ok(spec.index * 10 + attempt)
                }
            })
            .unwrap();
            assert_eq!(out.results, vec![0, 12, 20], "window {window}");
            assert_eq!((out.dispatches, out.retries), (5, 2), "window {window}");
        }
    }

    #[test]
    fn a_panicking_wait_reaches_the_coordinators_caller() {
        struct Panics;
        impl ShardAttempt for Panics {
            type Output = ();

            fn wait(&self) {
                panic!("the attempt's wait panicked");
            }

            fn abort(&self) {}

            fn finish(self) -> Result<(), String> {
                Ok(())
            }
        }
        // On a helper thread, so a coordinator that blocks for ever fails
        // the test instead of hanging it.
        let (done, outcome) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let run = std::panic::catch_unwind(|| run_window(2, 0, 2, None, |_, _| Panics));
            let _ = done.send(run.is_err());
        });
        let panicked = outcome
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("the coordinator returns instead of blocking");
        helper.join().expect("the helper caught the panic");
        assert!(panicked, "the waiter's panic is re-raised");
    }

    #[test]
    fn counter_sums_are_additive_except_quotient_blocks() {
        let merged = sum_stable_counters(&[
            vec![
                ("items_walked".to_string(), 16),
                ("quotient_blocks".to_string(), 3),
            ],
            vec![
                ("items_walked".to_string(), 16),
                ("quotient_blocks".to_string(), 3),
                ("panics_caught".to_string(), 1),
            ],
        ]);
        assert_eq!(
            merged,
            vec![
                ("items_walked".to_string(), 32),
                ("panics_caught".to_string(), 1),
                ("quotient_blocks".to_string(), 3),
            ]
        );
    }
}
