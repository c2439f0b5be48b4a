//! Seeded semantic mutants for the conformance mutation battery.
//!
//! Compiled only under `RUSTFLAGS="--cfg conformance_mutants"`. Each
//! mutant is a named, deliberately wrong variant of one decision in the
//! verification engine or a property checker, dormant until activated via
//! [`set_active`]. The `hiding-lcp-conformance` battery activates each in
//! turn and fails unless some conformance probe kills it — the battery
//! certifies the *test suite*, not the code.
//!
//! [`set_active`] forwards to the graph crate's registry too, so one call
//! arms a mutant wherever it lives. Mutants seeded in this crate:
//!
//! * `view_radius_shrink` — view skeletons are assembled at radius r−1.
//! * `delta_stale_digit` — an odometer step updates the digit but not the
//!   decoded labeling.
//! * `delta_dropped_resync` — the verdict refresh treats a resync as a
//!   plain step, patching a stale verdict scratch instead of recomputing.
//! * `delta_ball_misindex` — ball inversion skips each skeleton's first
//!   (center) node, so a node's own digit never re-decides it.
//! * `memo_key_class_collision` — the verdict memo keys every node with
//!   skeleton class 0, colliding distinct local structures.
//! * `digit_key_slot_alias` — the dense table index, shared by the
//!   verdict memo and the view-id tables, aliases every digit past slot 2
//!   onto slot 2.
//! * `class_ignores_alphabet` — skeleton classes are assigned by proto
//!   alone, so blocks with different alphabets share memo entries.
//! * `interner_always_fresh` — the view interner mints a fresh id on
//!   every call, breaking "distinct id ⟺ distinct view".
//! * `front_cache_class_collision` — the walk's view-id lookup
//!   (`ItemCtx::view_id`) reads every skeleton class's ids from class 0's
//!   table, so views of distinct classes at one index share an id.
//! * `checked_off_by_one` — a short-circuited sweep reports `stop_at`
//!   instead of `stop_at + 1` items checked.
//! * `chunk_claim_overlap` — parallel workers advance the shared cursor
//!   by one less than the chunk they process, re-inspecting boundaries.
//! * `hiding_partial_conclusive` — a partial universe is treated as the
//!   exhaustive Lemma 3.1 sweep, upgrading `Inconclusive` to a verdict.
//! * `invariance_skips_node0` — invariance inspection starts at node 1.
//! * `erasure_counts_accepts` — erasure trials report accepting instead
//!   of rejecting node counts.
//! * `completeness_bits_min` — the completeness report aggregates the
//!   minimum certificate length instead of the maximum.
//! * `strong_drops_last_acceptor` — strong soundness clears the highest
//!   bit of its accepting mask, so both the bitset test and the violation
//!   it builds drop that node.
//! * `nbhd_selfloop_dropped` — the neighborhood graph forgets self-loops
//!   (equal adjacent accepting views), the length-1 odd walks.
//! * `witness_remap_off_by_one` — the neighborhood graph renumbers each
//!   witness one instance past the one it names, cyclically.
//! * `fold_join_keeps_caller` — after a walk's join, a key the calling
//!   worker claimed keeps the calling worker's item even where a helper
//!   claimed it at a lower one, so a fold keeps a later witness.
//! * `panel_channel_swap` — fused-panel members read the *next* member's
//!   verdict channel instead of their own (multi-channel panels only).
//! * `panel_frontier_off_by_one` — a short-circuiting panel member
//!   records its stop frontier one item past the witness.
//! * `orbit_mult_off_by_one` — the symmetry quotient undercounts every
//!   nontrivial orbit by one member.
//! * `orbit_reject_inverted` — the canonical-representative test keeps
//!   the non-minimal orbit members and skips the minimum.
//! * `quotient_share_ignores_spec` — every fused member after the first
//!   shares the first member's orbit quotient, whatever it declares.
//! * `stamp_into_keeps_stale_label` — restamping a scratch view that
//!   already holds as many nodes skips the certificate copy, so a memo
//!   miss decides on the previous view's labels.
//! * `copy_keeps_last_block` — a port-isomorphism class of blocks walks
//!   its last block instead of its first, jumping the lower-index ones.
//! * `copy_weight_off_by_one` — a class's walked block weighs one block
//!   less than the class holds.
//! * `telemetry_counter_drop` — the metrics recorder silently drops
//!   `items_orbit_skipped` increments, breaking the quotient partition
//!   identity inspected + skipped = walked.
//! * `span_unbalanced_exit` — the trace recorder suppresses span exits,
//!   so every entered span stays open and the trace never balances.
//! * `shard_range_overlap` — every non-final shard's range annexes its
//!   successor's first item, so adjacent shard ranges overlap by one.
//! * `shard_merge_drop_counters` — the shard-report merge folds only the
//!   first shard's stable counters, dropping every other shard's work.
//! * `shard_replay_trusted` — the shard-report merge keeps a report's
//!   listed records without comparing them to their replay.

use std::sync::RwLock;

static ACTIVE: RwLock<Option<String>> = RwLock::new(None);

/// Activates the named mutant (or deactivates all with `None`), in this
/// crate **and** in `hiding-lcp-graph`.
///
/// Process-global: the battery runs mutants one at a time on one thread.
pub fn set_active(name: Option<&str>) {
    *ACTIVE.write().expect("mutant registry lock") = name.map(str::to_owned);
    hiding_lcp_graph::mutants::set_active(name);
}

/// Whether the named mutant is currently active.
pub fn active(name: &str) -> bool {
    ACTIVE.read().expect("mutant registry lock").as_deref() == Some(name)
}
