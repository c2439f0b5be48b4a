//! Resilience primitives for the sweep engine: structured per-item
//! errors, execution budgets, and the per-member walk record a stopped
//! walk hands back.
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
//! * [`MemberFrontier`] — one member's record inside a
//!   [`super::PanelFragment`], the engine's only stopped-walk type. A
//!   fragment whose walk the budget stopped has `next < hi`; because
//!   inspection is pure and the visited set is always the contiguous
//!   prefix `[lo, next)`, continuing it with
//!   [`super::SweepSession::resume_fragment`] (or the panel counterpart)
//!   and merging the finished fragments yields the *same verdict,
//!   partials and checked count* as one uninterrupted sweep, asserted by
//!   the engine parity suite.

use super::erased::ErasedPartial;
use std::any::Any;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Duration;

/// A structured record of a panic caught during one item's inspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Flat universe index of the item whose inspection panicked.
    pub item_index: usize,
    /// The panic payload, stringified (`&str` and `String` payloads pass
    /// through verbatim).
    pub payload: String,
    /// How many universe items the errored item stood for (its
    /// [`super::ItemCtx::multiplicity`]), summed into
    /// [`super::SweepOutcome::errored`].
    pub(super) multiplicity: u64,
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
            multiplicity: 1,
        }
    }
}

/// Execution limits for one engine call.
///
/// Both limits are per-call: a resumed fragment gets a fresh deadline and
/// a fresh item allowance. [`SweepBudget::unlimited`] (the default)
/// imposes neither.
///
/// # Per-shard semantics
///
/// A budget on a fragment walk
/// ([`super::SweepSession::run_fragment`], or each child of the
/// `audit --shards N` coordinator) bounds *that shard's one walk* — there
/// is no cross-shard accounting:
///
/// * `max_items` caps the items one call visits **within the shard's
///   range**; `N` shards budgeted at `max_items = m` visit up to `N * m`
///   items in total.
/// * `deadline` is wall-clock **per call, per process**. Shards running
///   concurrently each get the full allowance; a stalled shard times out
///   on its own clock without charging its siblings.
/// * Merging ([`super::merge_fragments`] /
///   [`super::merge_panel_fragments`]) never consults the budget: a
///   fragment the budget stopped (`next < hi`) is torn and does not merge
///   until it is resumed to the end of its range. The `engine_parity`
///   suite pins that an interrupted-then-resumed shard chain merges into
///   the exact uninterrupted report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepBudget {
    /// Wall-clock limit for this call. Checked before each chunk claim at
    /// every thread count, and a claimed chunk runs to its end, so the
    /// visited set stays a contiguous prefix; a slow chunk or a slow
    /// single inspection can overshoot.
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
}

/// One member's walk record inside a [`super::PanelFragment`].
#[derive(Debug)]
pub struct MemberFrontier<P = ErasedPartial> {
    /// The member's short-circuit index: `Some(s)` when its lowest
    /// deciding item was `s` (the member inspects nothing past it when
    /// the fragment is resumed, and reports `checked = s + 1`), `None`
    /// while still active.
    pub stop_at: Option<usize>,
    /// Partials the member recorded in the fragment's `[lo, next)`,
    /// sorted by index.
    pub partials: Vec<(usize, P)>,
    /// Errors the member recorded in `[lo, next)`, sorted by index.
    pub errors: Vec<SweepError>,
    /// The member's fold ([`super::PropertyCheck::fold`]): every key its
    /// items claimed, with the lowest item that claimed it. Empty for a
    /// member that keeps every partial.
    pub(super) claims: Claims,
}

/// A record's fold claims: key → the lowest item that claimed it.
pub(super) type Claims = HashMap<u64, usize, BuildHasherDefault<KeyHasher>>;

/// The hasher of [`Claims`]: the SplitMix64 finalizer of the one `u64`
/// key, a few multiplies where the default hasher runs SipHash.
#[derive(Default)]
pub(super) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
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
