//! ViewInterner contract tests: dense id allocation, id stability under
//! concurrent interning, `ViewId` → view round-trips, and the dense front
//! cache's agreement with the canonical map.

use hiding_lcp_conformance::oracle;
use hiding_lcp_core::instance::Instance;
use hiding_lcp_core::label::Certificate;
use hiding_lcp_core::verify::{ViewInterner, ViewSlot};
use hiding_lcp_core::view::{IdMode, View};
use hiding_lcp_graph::generators;
use std::collections::HashMap;

/// Two bits of certificate alphabet.
fn bits() -> Vec<Certificate> {
    vec![Certificate::from_byte(0), Certificate::from_byte(1)]
}

/// Every radius-`radius` anonymous view of every binary labeling of `g`'s
/// instance — lots of duplicates, a controlled set of distinct views.
fn view_pool(instance: &Instance, radius: usize) -> Vec<View> {
    let n = instance.graph().node_count();
    oracle::all_labelings(n, &bits())
        .iter()
        .flat_map(|labeling| {
            (0..n)
                .map(|v| instance.view(labeling, v, radius, IdMode::Anonymous))
                .collect::<Vec<_>>()
        })
        .collect()
}

fn distinct_count(pool: &[View]) -> usize {
    let mut distinct: Vec<&View> = Vec::new();
    for v in pool {
        if !distinct.contains(&v) {
            distinct.push(v);
        }
    }
    distinct.len()
}

/// Interning a pool with few distinct views mints dense ids `0..len`,
/// re-interning hits, and the snapshot round-trips id → view.
#[test]
fn dense_ids_and_snapshot_round_trip() {
    let instance = Instance::canonical(generators::cycle(5));
    let pool = view_pool(&instance, 1);
    let expected_distinct = distinct_count(&pool);
    let interner = ViewInterner::new();
    let mut id_of: HashMap<View, u32> = HashMap::new();
    for view in &pool {
        let id = interner.intern(view.clone());
        let prev = id_of.insert(view.clone(), id);
        if let Some(prev) = prev {
            assert_eq!(prev, id, "an equal view re-interned under a new id");
        }
    }
    assert_eq!(interner.len(), expected_distinct);
    let mut ids: Vec<u32> = id_of.values().copied().collect();
    ids.sort_unstable();
    let dense: Vec<u32> = (0..expected_distinct as u32).collect();
    assert_eq!(ids, dense, "ids must be dense from 0 with no gaps");
    let snapshot = interner.snapshot();
    assert_eq!(snapshot.len(), expected_distinct);
    for (view, &id) in &id_of {
        assert_eq!(&snapshot[id as usize], view, "snapshot[id] round-trips");
    }
    // `intern` counts one front-cache miss per call (front-cache hits are
    // tallied only by `intern_nodes`), so the miss counter equals the call
    // count.
    let (hits, misses) = interner.stats();
    assert_eq!(misses, pool.len(), "one counted miss per intern call");
    assert_eq!(hits, 0, "no front-cache lookups were tallied");
}

/// A larger distinct set, interned with many repeats, still gets every id
/// of `0..len` exactly once: allocation may not leave gaps or collide.
#[test]
fn ids_allocate_densely() {
    let c6 = Instance::canonical(generators::cycle(6));
    let p5 = Instance::canonical(generators::path(5));
    let mut pool = view_pool(&c6, 2);
    pool.extend(view_pool(&p5, 1));
    let expected_distinct = distinct_count(&pool);
    assert!(
        expected_distinct >= 32,
        "pool too small to exercise allocation"
    );
    let interner = ViewInterner::new();
    let mut seen = vec![false; expected_distinct];
    for view in &pool {
        let id = interner.intern(view.clone()) as usize;
        assert!(id < expected_distinct, "id {id} out of the dense range");
        seen[id] = true;
    }
    assert!(seen.iter().all(|&s| s), "every dense id must be assigned");
    assert_eq!(interner.len(), expected_distinct);
}

/// Concurrent interning from several threads agrees on one id per view,
/// with the same dense guarantee — the sweep executor's workers rely on
/// exactly this.
#[test]
fn ids_stable_across_threads() {
    let instance = Instance::canonical(generators::cycle(6));
    let pool = view_pool(&instance, 2);
    let expected_distinct = distinct_count(&pool);
    let interner = ViewInterner::new();
    let threads = 4;
    let maps: Vec<HashMap<View, u32>> = std::thread::scope(|scope| {
        (0..threads)
            .map(|t| {
                let pool = &pool;
                let interner = &interner;
                scope.spawn(move || {
                    // Each thread walks the pool from a different offset so
                    // insertion races actually happen.
                    let mut map = HashMap::new();
                    let start = t * pool.len() / threads;
                    for i in 0..pool.len() {
                        let view = &pool[(start + i) % pool.len()];
                        map.insert(view.clone(), interner.intern(view.clone()));
                    }
                    map
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("interner thread panicked"))
            .collect()
    });
    assert_eq!(interner.len(), expected_distinct);
    for map in &maps[1..] {
        assert_eq!(map, &maps[0], "threads disagree on some view's id");
    }
    let snapshot = interner.snapshot();
    for (view, &id) in &maps[0] {
        assert_eq!(&snapshot[id as usize], view);
    }
}

/// The star's center view under two binary digits (leaf 1's and the
/// other leaves'), with its front-cache slot: class 7 of 8, the four ball
/// digits read base 2 along the node order.
fn center_view(instance: &Instance, bit1: usize, rest: usize) -> (ViewSlot, View) {
    let labeling = (0..4)
        .map(|v| Certificate::from_byte(if v == 1 { bit1 } else { rest } as u8))
        .collect();
    let slot = ViewSlot {
        class: 7,
        classes: 8,
        entries: 16,
        index: bit1 * 2 + rest * (4 + 8) + rest,
    };
    (slot, instance.view(&labeling, 0, 1, IdMode::Anonymous))
}

/// The front cache converges on the same ids as structural interning,
/// and distinct ball digits of one class fill distinct entries.
#[test]
fn front_cache_interning_matches_structural() {
    let instance = Instance::canonical(generators::star(3));
    let interner = ViewInterner::new();
    for (digits_a, digits_b) in [((0, 0), (1, 0)), ((0, 1), (1, 1))] {
        let (slot_a, va) = center_view(&instance, digits_a.0, digits_a.1);
        let (slot_b, vb) = center_view(&instance, digits_b.0, digits_b.1);
        assert_ne!(
            slot_a.index, slot_b.index,
            "distinct digits, distinct entries"
        );
        assert_eq!(interner.front(slot_a), None, "an unfilled entry misses");
        let (a, filled_a) = interner.fill(slot_a, va.clone());
        let (b, filled_b) = interner.fill(slot_b, vb.clone());
        assert!(filled_a && filled_b, "each fill fills its own entry");
        assert_eq!(interner.front(slot_a), Some(a));
        assert_eq!(interner.front(slot_b), Some(b));
        assert_eq!(
            interner.intern(va),
            a,
            "front-cache and structural ids agree"
        );
        assert_eq!(
            interner.intern(vb),
            b,
            "front-cache and structural ids agree"
        );
    }
    assert_eq!(interner.len(), 4);
}

/// Threads racing to fill the same entries agree on every id with each
/// other and with the canonical map, and each entry is filled exactly
/// once: the fill count is what the sweep counts as stamps, so it may not
/// depend on the interleaving.
#[test]
fn concurrent_fills_agree_and_fill_each_entry_once() {
    let instance = Instance::canonical(generators::star(3));
    let pool: Vec<(ViewSlot, View)> = (0..4)
        .map(|digits| center_view(&instance, digits & 1, digits >> 1))
        .collect();
    let interner = ViewInterner::new();
    let threads = 4;
    let runs: Vec<(Vec<u32>, usize)> = std::thread::scope(|scope| {
        (0..threads)
            .map(|t| {
                let (pool, interner) = (&pool, &interner);
                scope.spawn(move || {
                    let mut ids = vec![u32::MAX; pool.len()];
                    let mut fills = 0;
                    for round in 0..64 {
                        let i = (t + round) % pool.len();
                        let (slot, view) = &pool[i];
                        ids[i] = match interner.front(*slot) {
                            Some(id) => id,
                            None => {
                                let (id, filled) = interner.fill(*slot, view.clone());
                                fills += usize::from(filled);
                                id
                            }
                        };
                    }
                    (ids, fills)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("interner thread panicked"))
            .collect()
    });
    for (ids, _) in &runs[1..] {
        assert_eq!(ids, &runs[0].0, "threads disagree on some view's id");
    }
    let fills: usize = runs.iter().map(|(_, fills)| fills).sum();
    assert_eq!(fills, pool.len(), "each entry is filled exactly once");
    for ((_, view), &id) in pool.iter().zip(&runs[0].0) {
        assert_eq!(interner.intern(view.clone()), id);
    }
}
