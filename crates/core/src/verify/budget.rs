//! Resilience primitives for the sweep engine: structured per-item
//! errors, execution budgets, and resume tokens.
//!
//! These types turn the engine from "all or nothing" into a machine that
//! degrades explicitly:
//!
//! * [`SweepError`] — a [`super::PropertyCheck::inspect`] call (or the
//!   item decode feeding it) panicked. The engine catches the unwind,
//!   records the offending flat index and panic payload, and keeps
//!   sweeping; the report's coverage downgrades to
//!   [`super::Coverage::Sampled`] because the erroring items were not
//!   actually verified.
//! * [`SweepBudget`] — a wall-clock deadline and/or an item cap for one
//!   engine call. A budget that expires mid-sweep ends it with an
//!   `interrupted` report (again [`super::Coverage::Sampled`] — an
//!   interrupted `Exhaustive` sweep proves nothing universal) instead of
//!   running unbounded.
//! * [`ResumeToken`] — everything needed to continue an interrupted
//!   sweep: the next unvisited index plus the partials and errors
//!   recorded so far. Because inspection is pure and the visited set is
//!   always the contiguous prefix `[0, next_index)`, feeding the token
//!   back into [`super::SweepSession::resume`] and letting it finish
//!   yields the *same verdict, partials and checked count* as one
//!   uninterrupted sweep — bit-identical resume, asserted by the engine
//!   parity suite. [`PanelResumeToken`] is the panel counterpart, one
//!   [`MemberFrontier`] per member.

use super::erased::ErasedPartial;
use std::any::Any;
use std::time::Duration;

/// A structured record of a panic caught during one item's inspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Flat universe index of the item whose inspection panicked.
    pub item_index: usize,
    /// The panic payload, stringified (`&str` and `String` payloads pass
    /// through verbatim).
    pub payload: String,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "item {} panicked: {}", self.item_index, self.payload)
    }
}

impl SweepError {
    /// Builds the error from a caught unwind payload.
    pub(super) fn from_panic(item_index: usize, payload: Box<dyn Any + Send>) -> SweepError {
        let payload = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        SweepError {
            item_index,
            payload,
        }
    }
}

/// Execution limits for one engine call.
///
/// Both limits are per-call: a resumed sweep gets a fresh deadline and a
/// fresh item allowance. [`SweepBudget::unlimited`] (the default) imposes
/// neither, which is what [`super::SweepSession::run`] uses.
///
/// # Per-shard semantics
///
/// A budget attached to a sharded session
/// ([`super::SweepSession::shard`], or the `audit --shards N`
/// coordinator) governs *each shard's calls independently* — there is no
/// cross-shard accounting:
///
/// * `max_items` caps the items visited by one call **within one
///   shard's range**; `N` shards budgeted at `max_items = m` may visit
///   up to `N * m` items in total per pass.
/// * `deadline` is wall-clock **per call, per process**. Shards running
///   concurrently each get the full allowance; a stalled shard times out
///   on its own clock without charging its siblings.
/// * Merging ([`super::merge_fragments`] /
///   [`super::merge_panel_fragments`]) never consults the budget: a
///   shard interrupted mid-range must be resumed (or re-dispatched) to
///   the end of its range before its fragment can merge. The
///   `engine_parity` suite pins that an interrupted-then-resumed shard
///   chain merges into the exact uninterrupted report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepBudget {
    /// Wall-clock limit for this call. Checked between items (sequential)
    /// or between chunk claims (parallel), so the visited set stays a
    /// contiguous prefix; a slow single inspection can overshoot.
    pub deadline: Option<Duration>,
    /// Maximum number of items to visit in this call. Exact in every
    /// execution mode.
    pub max_items: Option<usize>,
}

impl SweepBudget {
    /// No limits: the sweep runs to completion.
    pub fn unlimited() -> SweepBudget {
        SweepBudget::default()
    }

    /// Limits this call to `deadline` of wall-clock time.
    pub fn with_deadline(mut self, deadline: Duration) -> SweepBudget {
        self.deadline = Some(deadline);
        self
    }

    /// Limits this call to `max_items` visited items.
    pub fn with_max_items(mut self, max_items: usize) -> SweepBudget {
        self.max_items = Some(max_items);
        self
    }

    /// Whether this budget can never interrupt a sweep.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_items.is_none()
    }

    /// Tells the attached telemetry recorder (if any) that this budget
    /// interrupted a sweep. The engine calls this exactly once per
    /// interrupted pass, so `budget_interruptions` counts interruptions,
    /// not polls.
    pub(super) fn note_interruption(&self, recorder: Option<&dyn super::SweepRecorder>) {
        if let Some(r) = recorder {
            r.add(super::SweepCounter::BudgetInterruptions, 1);
        }
    }
}

/// The continuation of an interrupted sweep.
///
/// Holds the engine's whole interim state: the next unvisited flat
/// index (the visited set is always the prefix `[0, next_index)`) plus
/// every partial and error recorded so far. Pass it to
/// [`super::SweepSession::resume`] to continue; the chain of calls
/// reproduces an uninterrupted sweep's report exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeToken<P> {
    /// First flat index not yet visited.
    pub next_index: usize,
    /// Partials recorded in `[0, next_index)`, sorted by index.
    pub partials: Vec<(usize, P)>,
    /// Errors recorded in `[0, next_index)`, sorted by index.
    pub errors: Vec<SweepError>,
}

impl<P> ResumeToken<P> {
    /// The token a fresh (never-started) sweep resumes from.
    pub fn start() -> ResumeToken<P> {
        ResumeToken {
            next_index: 0,
            partials: Vec::new(),
            errors: Vec::new(),
        }
    }
}

/// The continuation of an interrupted fused panel
/// ([`super::SweepSession::run_panel_budgeted`]).
///
/// One shared `next_index` describes the enumeration frontier — as with
/// [`ResumeToken`], the visited set is always the contiguous prefix
/// `[0, next_index)` — while each member keeps its own
/// [`MemberFrontier`]: its recorded partials and errors, plus its
/// short-circuit index if it already dropped out of the walk. Feeding the
/// token to [`super::SweepSession::resume_panel`] continues every
/// still-active member from the shared frontier; members that stopped are
/// carried through untouched, so the resumed chain reproduces an
/// uninterrupted panel's per-member reports exactly.
///
/// `P` is the members' partial type: type-erased for a panel; the engine
/// runs a typed sweep on the same shape with one member.
#[derive(Debug)]
pub struct PanelResumeToken<P = ErasedPartial> {
    /// First flat index not yet visited by the panel walk.
    pub next_index: usize,
    /// Per-member state, in panel member order.
    pub members: Vec<MemberFrontier<P>>,
}

impl PanelResumeToken {
    /// The token a fresh (never-started) panel of `members` members
    /// resumes from.
    pub fn start(members: usize) -> PanelResumeToken {
        PanelResumeToken {
            next_index: 0,
            members: (0..members).map(|_| MemberFrontier::new()).collect(),
        }
    }
}

/// One panel member's interim state inside a [`PanelResumeToken`].
#[derive(Debug)]
pub struct MemberFrontier<P = ErasedPartial> {
    /// The member's short-circuit index: `Some(s)` when its lowest
    /// deciding item was `s` (the member inspects nothing past it on
    /// resume and reports `checked = s + 1`), `None` while still active.
    pub stop_at: Option<usize>,
    /// Partials the member recorded in `[0, next_index)`, sorted by
    /// index (for a panel, type-erased clones of the member's concrete
    /// partials).
    pub partials: Vec<(usize, P)>,
    /// Errors the member recorded in `[0, next_index)`, sorted by index.
    pub errors: Vec<SweepError>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_builders() {
        assert!(SweepBudget::unlimited().is_unlimited());
        let b = SweepBudget::unlimited()
            .with_deadline(Duration::from_millis(5))
            .with_max_items(10);
        assert!(!b.is_unlimited());
        assert_eq!(b.max_items, Some(10));
    }

    #[test]
    fn panic_payloads_stringify() {
        let e = SweepError::from_panic(3, Box::new("boom"));
        assert_eq!(e.payload, "boom");
        let e = SweepError::from_panic(4, Box::new(String::from("owned boom")));
        assert_eq!(e.payload, "owned boom");
        let e = SweepError::from_panic(5, Box::new(17u32));
        assert_eq!(e.payload, "non-string panic payload");
        assert_eq!(e.to_string(), "item 5 panicked: non-string panic payload");
    }
}
