//! Sharded sweep orchestration: deterministic universe partitioning,
//! a retrying dispatch coordinator, and the fragment merge that makes a
//! sharded run reproduce the single-process report bit-for-bit.
//!
//! # Partitioning
//!
//! [`ShardSpec`] names one of `N` contiguous ranges of the flat odometer
//! index space. Because the executor's visited set is always a contiguous
//! prefix of its range and every [`SweepStrategy`] is a pure function of
//! the item index, shard `i`'s walk over `[lo, hi)` records exactly the
//! partials a single-process walk records while passing through that
//! range — the whole sharding story rides the existing resume-token
//! machinery, no new walk semantics.
//!
//! # Merge
//!
//! [`merge_fragments`] / [`merge_panel_fragments`] validate that the
//! fragments *tile* the universe exactly (no gap, no overlap, nothing
//! torn), compose the short-circuit frontier (the global stop is the
//! minimum over shards — exactly the `fetch_min` rule worker threads
//! already obey within one process), apply the same retention rule the
//! sequential walk applies, and then run the one reduce a single-process
//! sweep would have run. Orbit multiplicities under
//! [`SweepStrategy::Quotient`] need no special handling: a representative's
//! multiplicity is a function of the item alone, so weighted partials
//! compose by concatenation.
//!
//! # Coordinator
//!
//! [`run_shards`] owns dispatch and retry: each shard is handed to a
//! caller-supplied closure (in-process for tests, a child `audit --shard`
//! process for the CLI) and re-dispatched on failure up to a retry cap,
//! with dispatch/retry counters and per-shard spans flowing into the
//! attached [`SweepRecorder`].
//!
//! [`SweepStrategy`]: super::SweepStrategy
//! [`SweepStrategy::Quotient`]: super::SweepStrategy::Quotient

use super::budget::MemberFrontier;
use super::check::{PropertyCheck, VerificationReport};
use super::erased::DynPropertyCheck;
use super::executor::{resolve_threads, ExecMode, SweepFragment};
use super::panel::{reduce, PanelFragment, PanelReport, Reduced, WalkStats};
use super::telemetry::{SweepCounter, SweepRecorder};
use super::universe::Universe;
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

/// Dispatches every shard of an `of`-way partition through `dispatch`,
/// re-dispatching failures up to `retry_cap` extra attempts per shard.
///
/// `dispatch` receives the shard spec and the attempt number (0 = first
/// try) and returns the shard's result or a failure description — a
/// crashed child process, a torn report, a timeout; the coordinator does
/// not care which. Each attempt bumps [`SweepCounter::ShardDispatches`]
/// and runs under a `shard:i/N` span; each retry additionally bumps
/// [`SweepCounter::ShardRetries`]. A shard that fails `retry_cap + 1`
/// times fails the whole run with the last error.
pub fn run_shards<T>(
    of: usize,
    retry_cap: usize,
    recorder: Option<&dyn SweepRecorder>,
    mut dispatch: impl FnMut(ShardSpec, usize) -> Result<T, String>,
) -> Result<ShardRunReport<T>, String> {
    let mut results = Vec::with_capacity(of);
    let mut dispatches = 0u64;
    let mut retries = 0u64;
    for spec in ShardSpec::partition(of) {
        let label = spec.label();
        let mut last_err = String::new();
        let mut done = false;
        for attempt in 0..=retry_cap {
            dispatches += 1;
            if let Some(r) = recorder {
                r.add(SweepCounter::ShardDispatches, 1);
                if attempt > 0 {
                    r.add(SweepCounter::ShardRetries, 1);
                }
                r.span_enter(&format!("shard:{label}"));
            }
            if attempt > 0 {
                retries += 1;
            }
            let outcome = dispatch(spec, attempt);
            if let Some(r) = recorder {
                r.span_exit(&format!("shard:{label}"));
            }
            match outcome {
                Ok(value) => {
                    results.push(value);
                    done = true;
                    break;
                }
                Err(e) => last_err = e,
            }
        }
        if !done {
            return Err(format!(
                "shard {label} failed after {} attempts: {last_err}",
                retry_cap + 1
            ));
        }
    }
    Ok(ShardRunReport {
        results,
        dispatches,
        retries,
    })
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
        if hi < lo {
            return Err(format!("fragment range [{lo}, {hi}) is inverted"));
        }
        if !f.is_complete() {
            return Err(format!(
                "fragment over [{lo}, {hi}) is torn: its walk did not finish the range"
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
/// run. The walk counters (cache/memo hits) are reported as zero — they
/// are observed, not stable, and the stable rendering never reads them.
fn merge<C: PropertyCheck>(
    checks: &[C],
    universe: &Universe,
    mode: ExecMode,
    fragments: Vec<PanelFragment<C::Partial>>,
    recorder: Option<&dyn SweepRecorder>,
) -> Result<Reduced<C::Verdict>, String> {
    let start = Instant::now();
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
    let stats = WalkStats {
        threads: resolve_threads(mode, n),
        ..WalkStats::default()
    };
    let merged = reduce(
        checks, universe, n, members, n, false, stats, recorder, start,
    );
    if let Some(r) = recorder {
        r.span_exit("merge");
    }
    Ok(merged)
}

/// Merges single-check shard fragments into the report a single-process
/// sweep over the whole universe would produce.
///
/// The fragments must tile `[0, universe.len())` exactly and be complete
/// (use the coordinator's retry to replace torn ones). The global
/// short-circuit frontier is the minimum `stop_at` over fragments, and
/// partials/errors past it are discarded — the same rule the in-process
/// parallel walk applies across threads. `mode` is only consulted for the
/// report's `threads` field, which mirrors what the equivalent unsharded
/// run would have used.
pub fn merge_fragments<C: PropertyCheck>(
    check: &C,
    universe: &Universe,
    mode: ExecMode,
    fragments: Vec<SweepFragment<C::Partial>>,
    recorder: Option<&dyn SweepRecorder>,
) -> Result<VerificationReport<C::Verdict>, String> {
    let fragments = fragments.into_iter().map(PanelFragment::from).collect();
    let (mut reports, _) = merge(
        std::slice::from_ref(&check),
        universe,
        mode,
        fragments,
        recorder,
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
    let (reports, evidence) = merge(checks, universe, mode, fragments, recorder)?;
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
