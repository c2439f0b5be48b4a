//! Hash-consed view interning for sweep checks.
//!
//! The delta-stepping executor (see `executor.rs`) visits `|Σ|^n`
//! labelings per block, but the *distinct* radius-r views a node ever sees
//! is tiny: a view is determined by its skeleton class (the unlabeled
//! canonical form plus the block's alphabet, shared across nodes and
//! blocks) and the `|ball|` certificate digits stamped onto it.
//! [`ViewInterner`] hash-conses views into dense `u32` ids so checks can
//! store and compare ids instead of cloning and re-hashing whole
//! [`View`]s, and [`digit_key`] packs the
//! `(class, digits)` identity into a `u128` so the common case skips view
//! stamping entirely — the id is found by one integer-keyed map probe.
//!
//! Two front-cache layers share the same invariant: **distinct id ⟺
//! distinct view**. `intern` get-or-inserts through the canonical
//! `View → id` map, so concurrent threads racing on equal views converge
//! on one id; the digit-key map is only ever a shortcut to ids minted
//! there. Ids are *not* deterministic across runs (they depend on thread
//! interleaving) — consumers must treat them as opaque and derive any
//! ordered output from item order, never id order.

use crate::view::View;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// Interned view identifier. Opaque; dense from 0 per interner.
pub type ViewId = u32;

/// Maximum view size (in nodes) for digit-key packing: 12 digits of 8 bits
/// each plus a 32-bit class id fill a `u128`.
pub const DIGIT_KEY_MAX_NODES: usize = 12;

/// Packs a view identity into a `u128`: the skeleton class id in the low
/// 32 bits, then one byte per view node holding the labeling digit of the
/// corresponding original node, in the skeleton's canonical node order.
///
/// Because the class id pins the skeleton (and hence the number of view
/// nodes and which original node fills each slot) and the alphabet the
/// digits index, two equal keys denote stamped views that are equal, and
/// two distinct stampings of the same class differ in some digit byte. Returns `None` when the identity does
/// not fit (more than [`DIGIT_KEY_MAX_NODES`] view nodes, or an alphabet
/// beyond 256 symbols) — callers then fall back to interning the stamped
/// view by full hash.
pub fn digit_key(class: ViewId, order: &[usize], digits: &[usize]) -> Option<u128> {
    if order.len() > DIGIT_KEY_MAX_NODES {
        return None;
    }
    let mut key = u128::from(class);
    for (slot, &orig) in order.iter().enumerate() {
        let digit = digits[orig];
        if digit > 0xFF {
            return None;
        }
        #[cfg(conformance_mutants)]
        let slot = if crate::mutants::active("digit_key_slot_alias") {
            slot.min(2)
        } else {
            slot
        };
        key |= (digit as u128) << (32 + 8 * slot);
    }
    Some(key)
}

/// Shard count for a fresh interner: scaled with the machine's available
/// parallelism (each worker thread should rarely collide on a shard lock)
/// rather than a compile-time constant, with a floor for key dispersion
/// and a ceiling to bound the occupancy snapshot.
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|p| (p.get() * 4).next_power_of_two())
        .unwrap_or(16)
        .clamp(8, 128)
}

/// Counters and occupancy of one [`ViewInterner`], snapshot by
/// [`ViewInterner::report`] into sweep evidence — the data answering
/// "are shard locks the parallel bottleneck?".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternerReport {
    /// Distinct views interned.
    pub distinct_views: usize,
    /// Front-cache (digit-key) probes that resolved an id directly.
    pub front_hits: usize,
    /// Probes that had to stamp and full-hash a view.
    pub front_misses: usize,
    /// Number of shards (chosen from `available_parallelism`).
    pub shards: usize,
    /// Entries per shard of the canonical `View → id` map.
    pub view_occupancy: Vec<usize>,
    /// Entries per shard of the digit-key shortcut map.
    pub key_occupancy: Vec<usize>,
    /// Lock acquisitions that found a shard lock already held (a failed
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
/// with an integer-keyed front cache for digit-packed identities.
///
/// Checks own one interner per sweep (it is part of the check's state, so
/// resumed sweeps must reuse the same check instance for their ids to stay
/// meaningful). `hits`/`misses` count front-cache probes: a hit resolved
/// an id without stamping a view, a miss had to stamp and full-hash one.
#[derive(Debug)]
pub struct ViewInterner {
    /// Canonical `View → id` map, sharded by view hash.
    shards: Vec<Mutex<HashMap<View, ViewId>>>,
    /// Digit-key shortcut `u128 → id`, sharded by key.
    keyed: Vec<Mutex<HashMap<u128, ViewId>>>,
    /// `id → View`, in id order.
    table: Mutex<Vec<View>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// Shard-lock acquisitions that had to wait (see [`InternerReport`]).
    contention: AtomicUsize,
}

impl Default for ViewInterner {
    fn default() -> Self {
        ViewInterner::new()
    }
}

impl ViewInterner {
    /// An empty interner, sharded for this machine's parallelism.
    pub fn new() -> Self {
        let shards = default_shards();
        ViewInterner {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            keyed: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            table: Mutex::new(Vec::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            contention: AtomicUsize::new(0),
        }
    }

    /// Locks a shard, counting the acquisition as contended when another
    /// thread currently holds it.
    fn lock_counted<'m, T>(&self, mutex: &'m Mutex<T>) -> MutexGuard<'m, T> {
        match mutex.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                mutex.lock().expect("interner lock")
            }
            Err(TryLockError::Poisoned(_)) => panic!("interner lock poisoned"),
        }
    }

    fn view_shard(&self, view: &View) -> &Mutex<HashMap<View, ViewId>> {
        let mut h = DefaultHasher::new();
        view.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    fn key_shard(&self, key: u128) -> &Mutex<HashMap<u128, ViewId>> {
        &self.keyed[((key ^ (key >> 67)) as usize) % self.keyed.len()]
    }

    /// Looks up a digit key in the front cache. Counts a hit on success;
    /// the corresponding miss is counted by the [`ViewInterner::intern`]
    /// the caller performs instead.
    pub fn lookup_key(&self, key: u128) -> Option<ViewId> {
        let id = self.lock_counted(self.key_shard(key)).get(&key).copied();
        if id.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        id
    }

    /// Interns a stamped view, returning its id (existing or fresh).
    /// Counts one front-cache miss.
    pub fn intern(&self, view: View) -> ViewId {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let shard = self.view_shard(&view);
        let mut map = self.lock_counted(shard);
        #[cfg(conformance_mutants)]
        let probe_existing = !crate::mutants::active("interner_always_fresh");
        #[cfg(not(conformance_mutants))]
        let probe_existing = true;
        if probe_existing {
            if let Some(&id) = map.get(&view) {
                return id;
            }
        }
        let mut table = self.table.lock().expect("interner lock");
        let id = ViewId::try_from(table.len()).expect("view table fits u32");
        table.push(view.clone());
        drop(table);
        map.insert(view, id);
        id
    }

    /// Interns a stamped view and records `key` as a shortcut to its id.
    pub fn intern_keyed(&self, key: u128, view: View) -> ViewId {
        let id = self.intern(view);
        self.lock_counted(self.key_shard(key)).insert(key, id);
        id
    }

    /// Number of distinct views interned so far.
    pub fn len(&self) -> usize {
        self.table.lock().expect("interner lock").len()
    }

    /// Whether no view has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the id → view table (index = id).
    pub fn snapshot(&self) -> Vec<View> {
        self.table.lock().expect("interner lock").clone()
    }

    /// `(front-cache hits, front-cache misses)` so far.
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Snapshots counters and per-shard occupancy (locks each shard
    /// briefly; meant for after-sweep reporting, not the hot path).
    pub fn report(&self) -> InternerReport {
        let (front_hits, front_misses) = self.stats();
        InternerReport {
            distinct_views: self.len(),
            front_hits,
            front_misses,
            shards: self.shards.len(),
            view_occupancy: self
                .shards
                .iter()
                .map(|s| s.lock().expect("interner lock").len())
                .collect(),
            key_occupancy: self
                .keyed
                .iter()
                .map(|s| s.lock().expect("interner lock").len())
                .collect(),
            contention: self.contention.load(Ordering::Relaxed),
        }
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
    fn keyed_lookup_shortcuts_to_the_same_id() {
        let interner = ViewInterner::new();
        let views = some_views();
        let key = 0xBEEFu128;
        assert_eq!(interner.lookup_key(key), None);
        let id = interner.intern_keyed(key, views[0].clone());
        assert_eq!(interner.lookup_key(key), Some(id));
        let (hits, misses) = interner.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn digit_key_is_injective_per_class() {
        // Same class, different digit vectors → different keys; order
        // longer than the packing limit → None.
        let order = [3usize, 1, 4];
        let a = digit_key(7, &order, &[9, 1, 0, 0, 2, 5]).unwrap();
        let b = digit_key(7, &order, &[9, 1, 0, 0, 3, 5]).unwrap();
        let c = digit_key(7, &order, &[9, 1, 0, 0, 2, 5]).unwrap();
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert_ne!(digit_key(8, &order, &[9, 1, 0, 0, 2, 5]).unwrap(), a);
        let long: Vec<usize> = (0..13).collect();
        let digits = vec![0usize; 13];
        assert_eq!(digit_key(0, &long, &digits), None);
        assert_eq!(digit_key(0, &[0], &[256]), None, "digit beyond one byte");
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
        assert_eq!(report.shards, report.view_occupancy.len());
        assert_eq!(report.shards, report.key_occupancy.len());
        assert_eq!(
            report.view_occupancy.iter().sum::<usize>(),
            interner.len(),
            "every distinct view lives in exactly one shard"
        );
        assert_eq!(report.front_misses, views.len());
        assert_eq!(report.front_hits, 0);
        assert_eq!(report.contention, 0, "single-threaded use never blocks");
    }
}
