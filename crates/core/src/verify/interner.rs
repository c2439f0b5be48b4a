//! Hash-consed view interning for sweep checks.
//!
//! The delta-stepping executor (see `executor.rs`) visits `|Σ|^n`
//! labelings per block, but the *distinct* radius-r views a node ever sees
//! is tiny: a view is determined by its skeleton class (the unlabeled
//! canonical form plus the block's alphabet, shared across nodes and
//! blocks) and the `|ball|` certificate digits stamped onto it.
//! [`ViewInterner`] hash-conses views into dense `u32` ids so checks can
//! store and compare ids instead of cloning and re-hashing whole
//! [`View`]s, and its dense front cache resolves the common case without
//! stamping the view at all: one `AtomicU32` table per skeleton class,
//! indexed by the node's [`ViewSlot`] (its ball digits read as one
//! base-`|alphabet|` number, the verdict memo's index), so a hit is one
//! relaxed load — no lock, no hash, no write another worker shares.
//!
//! Behind the front cache sits one canonical `View → id` map under one
//! lock. It sees only the front cache's misses and the views without a
//! slot: the Lemma 3.1 scan interns only accepting views, so an audit's
//! map takes tens to hundreds of lookups under delta stepping and a few
//! tens of thousands under the decode oracle, and one lock serves them.
//!
//! Both layers keep one invariant: **distinct id ⟺ distinct view**.
//! [`ViewInterner::intern`] get-or-inserts through the canonical map, so
//! concurrent threads racing on equal views converge on one id, and a
//! front-cache entry only ever holds an id minted there. Ids are *not*
//! deterministic across runs (they depend on thread interleaving) —
//! consumers must treat them as opaque and derive any ordered output from
//! item order, never id order.

use super::{ItemCtx, UniverseItem};
use crate::view::{IdMode, View};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, TryLockError};

/// Interned view identifier. Opaque; dense from 0 per interner.
pub type ViewId = u32;

/// A front-cache entry no view has filled yet. Never a minted id: ids are
/// dense from 0 and [`ViewInterner::intern`] refuses to reach it.
const EMPTY: ViewId = ViewId::MAX;

/// One skeleton class's front-cache table, allocated on first touch.
type ClassTable = OnceLock<Box<[AtomicU32]>>;

/// Where one stamped view lives in a [`ViewInterner`]'s front cache, as
/// [`ItemCtx::view_slot`] computes it: equal slots denote equal views, and
/// distinct views of one class sit at distinct indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ViewSlot {
    /// The view's skeleton class: the skeleton's proto paired with its
    /// block's alphabet.
    pub class: u32,
    /// How many classes the engine numbered. The interner sizes its class
    /// vector from the first slot it sees.
    pub classes: u32,
    /// Entries of the class's table: `|alphabet|^|ball|`.
    pub entries: usize,
    /// The view's entry: its ball digits read as one base-`|alphabet|`
    /// number along the skeleton's canonical node order.
    pub index: usize,
}

/// Counters of one [`ViewInterner`], snapshot by [`ViewInterner::report`]
/// into sweep evidence: how many views the map holds, how often the front
/// cache answered, and how often the map's lock made a worker wait.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternerReport {
    /// Distinct views interned. The Lemma 3.1 scan interns only the
    /// views of accepting nodes when its id mode is as fine as its
    /// decoder's (see [`crate::nbhd::NbhdSweep`]), so there this is the
    /// view count of `V(D, n)`; otherwise it counts every view the scan
    /// saw.
    pub distinct_views: usize,
    /// Front-cache lookups that found the view's id without stamping it.
    pub front_hits: usize,
    /// Views stamped and interned through the canonical map: front-cache
    /// misses plus the views with no [`ViewSlot`].
    pub front_misses: usize,
    /// Lock acquisitions that found the map's lock already held (a failed
    /// `try_lock` before the blocking wait).
    pub contention: usize,
}

impl InternerReport {
    /// Folds the report's traffic counters into a telemetry recorder —
    /// the executor calls this once per recorded sweep, after `reduce`.
    pub fn record_into(&self, recorder: &dyn super::SweepRecorder) {
        use super::SweepCounter;
        recorder.add(SweepCounter::InternerFrontHits, self.front_hits as u64);
        recorder.add(SweepCounter::InternerFrontMisses, self.front_misses as u64);
        recorder.add(SweepCounter::InternerContention, self.contention as u64);
    }
}

/// A concurrent hash-consing table from [`View`] to dense [`ViewId`],
/// fronted by one dense id table per skeleton class.
///
/// Checks own one interner per sweep (it is part of the check's state, so
/// resumed sweeps must reuse the same check instance for their ids to stay
/// meaningful). The front cache is keyed by the engine's skeleton classes,
/// which are a function of the universe and of the view configurations
/// the walk's members request, so an interner serves the walks of one
/// member list over one universe. `hits`/`misses` count front-cache
/// traffic: a hit resolved an id without stamping a view, a miss stamped
/// one and interned it through the canonical map.
#[derive(Debug)]
pub struct ViewInterner {
    /// The canonical `View → id` map. Ids are minted in insertion order,
    /// so they are dense from 0 and the map's length is the next one.
    map: Mutex<HashMap<View, ViewId>>,
    /// The front cache: `front[class][index]` = the id of the view a
    /// [`ViewSlot`] names, or [`EMPTY`]. The class vector is sized on the
    /// first lookup from the slot's class count and each class's table is
    /// allocated on the class's first lookup; the `OnceLock`s publish them.
    /// Entries are read `Relaxed` and filled by `compare_exchange`: each
    /// holds a whole id and publishes no other data.
    front: OnceLock<Box<[ClassTable]>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// Map-lock acquisitions that had to wait (see [`InternerReport`]).
    contention: AtomicUsize,
}

impl Default for ViewInterner {
    fn default() -> Self {
        ViewInterner::new()
    }
}

impl ViewInterner {
    /// An empty interner.
    pub fn new() -> Self {
        ViewInterner {
            map: Mutex::new(HashMap::new()),
            front: OnceLock::new(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            contention: AtomicUsize::new(0),
        }
    }

    /// Locks the map, counting the acquisition as contended when another
    /// thread currently holds it.
    fn lock_counted(&self) -> MutexGuard<'_, HashMap<View, ViewId>> {
        match self.map.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                self.map.lock().expect("interner lock")
            }
            Err(TryLockError::Poisoned(_)) => panic!("interner lock poisoned"),
        }
    }

    /// The front-cache entry `slot` names, allocating its class's table on
    /// first touch. `None` for a class or index beyond the tables the first
    /// lookups sized.
    fn entry(&self, slot: ViewSlot) -> Option<&AtomicU32> {
        let tables = self
            .front
            .get_or_init(|| (0..slot.classes).map(|_| OnceLock::new()).collect());
        #[cfg(conformance_mutants)]
        let slot = if crate::mutants::active("front_cache_class_collision") {
            ViewSlot { class: 0, ..slot }
        } else {
            slot
        };
        tables
            .get(slot.class as usize)?
            .get_or_init(|| {
                std::iter::repeat_with(|| AtomicU32::new(EMPTY))
                    .take(slot.entries)
                    .collect()
            })
            .get(slot.index)
    }

    /// The id of the view `slot` names, if the front cache holds it: one
    /// `Relaxed` load. Counts nothing; [`ViewInterner::intern_nodes`]
    /// tallies its hits once per item.
    pub fn front(&self, slot: ViewSlot) -> Option<ViewId> {
        let id = self.entry(slot)?.load(Ordering::Relaxed);
        (id != EMPTY).then_some(id)
    }

    /// Interns `view`, the view `slot` names, and publishes its id into
    /// the slot's front-cache entry. Returns the id and whether this call
    /// filled the entry: of several calls racing on one empty entry
    /// exactly one fills it, and the others find the same id there, since
    /// equal views share an id. Counts one front-cache miss.
    pub fn fill(&self, slot: ViewSlot, view: View) -> (ViewId, bool) {
        let id = self.intern(view);
        let filled = self.entry(slot).is_some_and(|entry| {
            entry
                .compare_exchange(EMPTY, id, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        });
        (id, filled)
    }

    /// Interns a stamped view through the canonical map, returning its id
    /// (existing or fresh). Counts one front-cache miss.
    pub fn intern(&self, view: View) -> ViewId {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = self.lock_counted();
        #[cfg(conformance_mutants)]
        let probe_existing = !crate::mutants::active("interner_always_fresh");
        #[cfg(not(conformance_mutants))]
        let probe_existing = true;
        if probe_existing {
            if let Some(&id) = map.get(&view) {
                return id;
            }
        }
        let id = ViewId::try_from(map.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("view ids fit u32");
        map.insert(view, id);
        id
    }

    /// Writes into `ids[v]` the id of node `v`'s view of one item under
    /// `(radius, id_mode)` for every node `wanted` admits, and `None` for
    /// the rest, which are neither stamped nor interned. A node with a
    /// [`ViewSlot`] ([`ItemCtx::view_slot`]) reads the front cache; on a
    /// miss its view is stamped and [`fill`](ViewInterner::fill)s the
    /// entry, and the stamp counts as a skeleton-cache hit only if this
    /// call filled it, so the sweep's `cache_hits` counts each entry once
    /// however the workers interleave. A node without one (the decode
    /// oracle, no odometer digits, a class over the table cap) interns its
    /// stamped view through the canonical map, every stamp counted.
    /// Front-cache hits are tallied once per item.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is shorter than the item's node count.
    pub fn intern_nodes(
        &self,
        item: &UniverseItem<'_>,
        ctx: &ItemCtx<'_>,
        (radius, id_mode): (usize, IdMode),
        wanted: impl Fn(usize) -> bool,
        ids: &mut [Option<ViewId>],
    ) {
        let mut hits = 0;
        for (v, id) in ids[..item.instance.graph().node_count()]
            .iter_mut()
            .enumerate()
        {
            *id = wanted(v).then(|| {
                let Some(slot) = ctx.view_slot(item, v, radius, id_mode) else {
                    return self.intern(ctx.view(item, v, radius, id_mode));
                };
                if let Some(id) = self.front(slot) {
                    hits += 1;
                    return id;
                }
                let (id, filled) = self.fill(slot, ctx.stamp_uncounted(item, v, radius, id_mode));
                if filled {
                    ctx.count_stamp();
                }
                id
            });
        }
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
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

    /// `(front-cache hits, front-cache misses)` so far.
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Snapshots the counters (locks the map briefly; meant for
    /// after-sweep reporting, not the hot path).
    pub fn report(&self) -> InternerReport {
        let (front_hits, front_misses) = self.stats();
        InternerReport {
            distinct_views: self.len(),
            front_hits,
            front_misses,
            contention: self.contention.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::label::{Certificate, Labeling};
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
    fn a_front_cache_hit_returns_the_canonical_id() {
        let interner = ViewInterner::new();
        let views = some_views();
        let slot = ViewSlot {
            class: 1,
            classes: 2,
            entries: 4,
            index: 3,
        };
        assert_eq!(interner.front(slot), None);
        let (id, filled) = interner.fill(slot, views[0].clone());
        assert!(filled, "the first fill of an empty entry fills it");
        assert_eq!(interner.front(slot), Some(id));
        assert_eq!(
            interner.intern(views[0].clone()),
            id,
            "the canonical map agrees"
        );
        assert_eq!(
            interner.fill(slot, views[0].clone()),
            (id, false),
            "a filled entry is filled once"
        );
        let (hits, misses) = interner.stats();
        assert_eq!(
            (hits, misses),
            (0, 3),
            "lookups count nothing, interns count misses"
        );
    }

    #[test]
    fn distinct_ball_digits_of_one_class_fill_distinct_entries() {
        use crate::verify::executor::{ItemCtx, SkeletonCache};
        use crate::verify::telemetry::WorkerTally;
        use crate::verify::{Coverage, Universe, UniverseItem};
        // Every labeling of a 3-letter star: the center's ball holds all
        // four nodes (81 entries), each leaf's two.
        let star = Instance::canonical(generators::star(3));
        let trits = (0..3).map(Certificate::from_byte).collect();
        let universe = Universe::all_labelings_of(star, trits, Coverage::Exhaustive)
            .expect("81 labelings fit");
        let config = (1, IdMode::Anonymous);
        let cache = SkeletonCache::build(&universe, vec![config], |_| true);
        let tally = WorkerTally::default();
        let ctx = ItemCtx::new(0, &cache, &tally, true, 1, None);
        let interner = ViewInterner::new();
        let mut view_at: HashMap<ViewSlot, View> = HashMap::new();
        let (mut labeling, mut digits) = (Labeling::empty(4), Vec::new());
        for offset in 0..universe.len() {
            universe.decode_into(0, offset, &mut labeling, &mut digits);
            let item = UniverseItem {
                index: offset,
                block: 0,
                instance: universe.blocks()[0].instance(),
                labeling: &labeling,
                digits: Some(&digits),
            };
            for v in 0..4 {
                let slot = ctx
                    .view_slot(&item, v, config.0, config.1)
                    .expect("under the cap");
                assert!(slot.index < slot.entries, "the index stays in its table");
                let view = ctx.view(&item, v, config.0, config.1);
                assert_eq!(
                    view_at.entry(slot).or_insert_with(|| view.clone()),
                    &view,
                    "one slot, one view"
                );
                let id = interner.fill(slot, view.clone()).0;
                assert_eq!(interner.front(slot), Some(id));
                assert_eq!(interner.intern(view), id);
            }
        }
        let distinct: std::collections::HashSet<&View> = view_at.values().collect();
        assert_eq!(
            distinct.len(),
            view_at.len(),
            "distinct slots, distinct views"
        );
        assert_eq!(interner.len(), view_at.len());
        // The center reads all four digits: its 81 digit vectors fill 81
        // entries of its class.
        let item = universe.item(0);
        let center = ctx.view_slot(&item.as_item(), 0, config.0, config.1);
        let center = center.expect("under the cap").class;
        assert_eq!(view_at.keys().filter(|s| s.class == center).count(), 81);
    }

    #[test]
    fn a_class_over_the_cap_has_no_slot() {
        use crate::verify::executor::{ItemCtx, SkeletonCache};
        use crate::verify::telemetry::WorkerTally;
        use crate::verify::{Coverage, Universe};
        // With 17 letters the star's center class would need 17^4 = 83,521
        // entries, over the 2^16 cap; a leaf's needs 17^2.
        let star = Instance::canonical(generators::star(3));
        let letters = (0..17).map(Certificate::from_byte).collect();
        let universe = Universe::all_labelings_of(star, letters, Coverage::Exhaustive)
            .expect("17^4 labelings fit");
        let config = (1, IdMode::Anonymous);
        let cache = SkeletonCache::build(&universe, vec![config], |_| true);
        let tally = WorkerTally::default();
        let item = universe.item(5);
        let item = item.as_item();
        let slot = |dense: bool, v: usize| {
            ItemCtx::new(0, &cache, &tally, dense, 1, None).view_slot(&item, v, config.0, config.1)
        };
        assert_eq!(slot(true, 0), None, "the center interns through the map");
        assert_eq!(slot(true, 1).map(|s| s.entries), Some(17 * 17));
        assert_eq!(slot(false, 1), None, "the decode oracle has no front cache");
    }

    #[test]
    fn interner_is_send_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<ViewInterner>();
    }

    #[test]
    fn report_snapshots_occupancy_and_counters() {
        let interner = ViewInterner::new();
        let views = some_views();
        for v in &views {
            interner.intern(v.clone());
        }
        let report = interner.report();
        assert_eq!(report.distinct_views, interner.len());
        assert_eq!(report.front_misses, views.len());
        assert_eq!(report.front_hits, 0);
        assert_eq!(report.contention, 0, "single-threaded use never blocks");
    }
}
