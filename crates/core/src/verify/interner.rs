//! Hash-consed view interning for sweep checks.
//!
//! The delta-stepping executor (see `executor.rs`) visits `|Σ|^n`
//! labelings per block, but the *distinct* radius-r views a node ever sees
//! is tiny. [`ViewInterner`] hash-conses views into dense `u32` ids so
//! checks can store and compare ids instead of cloning and re-hashing
//! whole [`View`]s: one canonical `View → id` map under one lock.
//!
//! The map sits behind the walk's dense view-id tables
//! ([`ItemCtx::view_id`](super::ItemCtx::view_id)), which resolve a repeat
//! view of a digit-indexed class with one relaxed load, so it sees only
//! their misses and the views without a table entry: the Lemma 3.1 scan
//! interns only accepting views, so an audit's map takes tens to hundreds
//! of lookups under delta stepping and a few tens of thousands under the
//! decode oracle, and one lock serves them. The tables belong to the walk
//! that built them; the map belongs to the check and outlives its walks,
//! because a check's fold claims are keyed by the ids it mints.
//!
//! The invariant is **distinct id ⟺ distinct view**: [`ViewInterner::intern`]
//! get-or-inserts through the map, so concurrent threads racing on equal
//! views converge on one id, and a table entry only ever holds an id
//! minted here. Ids are *not* deterministic across runs (they depend on
//! thread interleaving) — consumers must treat them as opaque and derive
//! any ordered output from item order, never id order.

use crate::view::View;
use std::collections::HashMap;
use std::sync::{Mutex, TryLockError};

/// Interned view identifier. Opaque; dense from 0 per interner, and never
/// `ViewId::MAX`, so an id plus one fits a `u32`.
pub type ViewId = u32;

/// A concurrent hash-consing table from [`View`] to dense [`ViewId`].
///
/// Checks own one interner per sweep (it is part of the check's state, so
/// resumed sweeps must reuse the same check instance for their ids to stay
/// meaningful).
#[derive(Debug, Default)]
pub struct ViewInterner {
    /// The canonical `View → id` map. Ids are minted in insertion order,
    /// so they are dense from 0 and the map's length is the next one.
    map: Mutex<HashMap<View, ViewId>>,
}

impl ViewInterner {
    /// An empty interner.
    pub fn new() -> Self {
        ViewInterner::default()
    }

    /// Interns a stamped view through the canonical map, returning its id
    /// (existing or fresh).
    pub fn intern(&self, view: View) -> ViewId {
        self.intern_waiting(view).0
    }

    /// Like [`ViewInterner::intern`], also telling whether the map's lock
    /// was held by another thread when this call asked for it.
    pub(super) fn intern_waiting(&self, view: View) -> (ViewId, bool) {
        let (mut map, waited) = match self.map.try_lock() {
            Ok(map) => (map, false),
            Err(TryLockError::WouldBlock) => (self.map.lock().expect("interner lock"), true),
            Err(TryLockError::Poisoned(_)) => panic!("interner lock poisoned"),
        };
        #[cfg(conformance_mutants)]
        let probe_existing = !crate::mutants::active("interner_always_fresh");
        #[cfg(not(conformance_mutants))]
        let probe_existing = true;
        if probe_existing {
            if let Some(&id) = map.get(&view) {
                return (id, waited);
            }
        }
        let id = ViewId::try_from(map.len())
            .ok()
            .filter(|&id| id != ViewId::MAX)
            .expect("view ids fit u32");
        map.insert(view, id);
        (id, waited)
    }

    /// Number of distinct views interned so far.
    pub fn len(&self) -> usize {
        self.map.lock().expect("interner lock").len()
    }

    /// Whether no view has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every interned view, in id order (index = id).
    pub fn snapshot(&self) -> Vec<View> {
        let mut views: Vec<(ViewId, View)> = self
            .map
            .lock()
            .expect("interner lock")
            .iter()
            .map(|(view, &id)| (id, view.clone()))
            .collect();
        views.sort_unstable_by_key(|&(id, _)| id);
        views.into_iter().map(|(_, view)| view).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::label::{Certificate, Labeling};
    use crate::view::IdMode;
    use hiding_lcp_graph::generators;

    fn some_views() -> Vec<View> {
        let instance = Instance::canonical(generators::cycle(5));
        let bits = [Certificate::from_byte(0), Certificate::from_byte(1)];
        let mut out = Vec::new();
        for bit in &bits {
            let labeling = Labeling::uniform(5, bit.clone());
            for v in 0..5 {
                out.push(instance.view(&labeling, v, 1, IdMode::Full));
            }
        }
        out
    }

    #[test]
    fn equal_views_share_an_id_distinct_views_do_not() {
        let interner = ViewInterner::new();
        let views = some_views();
        let ids: Vec<ViewId> = views.iter().map(|v| interner.intern(v.clone())).collect();
        for (i, vi) in views.iter().enumerate() {
            for (j, vj) in views.iter().enumerate() {
                assert_eq!(ids[i] == ids[j], vi == vj, "ids must mirror view equality");
            }
        }
        let table = interner.snapshot();
        assert_eq!(table.len(), interner.len());
        for (i, v) in views.iter().enumerate() {
            assert_eq!(&table[ids[i] as usize], v, "snapshot resolves id {i}");
        }
    }

    #[test]
    fn interner_is_send_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<ViewInterner>();
    }

    #[test]
    fn report_snapshots_occupancy_and_counters() {
        use crate::verify::executor::{ItemCtx, SkeletonCache};
        use crate::verify::telemetry::{SweepCounter, WorkerTally};
        use crate::verify::{Coverage, Universe};
        // The views of `some_views`, looked up through a walk's context
        // without a view-id table (the decode oracle's): every lookup
        // interns through the map and is tallied by the looking worker.
        let instance = Instance::canonical(generators::cycle(5));
        let labelings = (0..2)
            .map(|bit| Labeling::uniform(5, Certificate::from_byte(bit)))
            .collect();
        let universe = Universe::labelings_of(instance, labelings, Coverage::Exhaustive)
            .expect("two labelings fit");
        let config = (1, IdMode::Full);
        let cache = SkeletonCache::build(&universe, vec![config], |_| true);
        let tally = WorkerTally::default();
        let interner = ViewInterner::new();
        for i in 0..universe.len() {
            let item = universe.item(i);
            let ctx = ItemCtx::new(item.block, &cache, &tally, None, 1, None);
            for v in 0..5 {
                ctx.view_id(&item.as_item(), v, config, &interner);
            }
        }
        let views = some_views();
        let distinct: std::collections::HashSet<&View> = views.iter().collect();
        assert_eq!(interner.len(), distinct.len());
        assert_eq!(
            tally.get(SweepCounter::InternerFrontMisses),
            views.len() as u64
        );
        assert_eq!(tally.get(SweepCounter::InternerFrontHits), 0);
        assert_eq!(
            tally.get(SweepCounter::InternerContention),
            0,
            "single-threaded use never blocks"
        );
    }
}
