//! ViewInterner contract tests: dense id allocation, id stability under
//! concurrent interning, `ViewId` → view round-trips, and the agreement of
//! a walk's view-id tables ([`ItemCtx::view_id`]) with the canonical map.

use hiding_lcp_conformance::oracle;
use hiding_lcp_core::instance::Instance;
use hiding_lcp_core::label::Certificate;
use hiding_lcp_core::verify::{
    Coverage, ExecMode, ItemCtx, MetricsRecorder, PropertyCheck, SweepOutcome, SweepSession,
    Universe, UniverseItem, ViewId, ViewInterner,
};
use hiding_lcp_core::view::{IdMode, View};
use hiding_lcp_graph::generators;
use std::collections::{HashMap, HashSet};

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

/// The radius-1 anonymous configuration every view below is named in.
const CONFIG: (usize, IdMode) = (1, IdMode::Anonymous);

/// Names every node's view through the walk's view-id table into its own
/// interner: the item's ids in node order.
#[derive(Default)]
struct IdScan {
    interner: ViewInterner,
}

impl PropertyCheck for IdScan {
    type Partial = Vec<ViewId>;
    type Verdict = Vec<(usize, Vec<ViewId>)>;

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        vec![CONFIG]
    }

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<Vec<ViewId>> {
        let n = item.instance.graph().node_count();
        Some(
            (0..n)
                .map(|v| ctx.view_id(item, v, CONFIG, &self.interner))
                .collect(),
        )
    }

    fn reduce(
        &self,
        _universe: &Universe,
        partials: Vec<(usize, Vec<ViewId>)>,
        _outcome: &SweepOutcome,
    ) -> Self::Verdict {
        partials
    }
}

/// Every labeling of a 3-pointed star over `letters` letters.
fn star_universe(letters: u8) -> Universe {
    let star = Instance::canonical(generators::star(3));
    let alphabet = (0..letters).map(Certificate::from_byte).collect();
    Universe::all_labelings_of(star, alphabet, Coverage::Exhaustive).expect("the star fits")
}

/// What [`walk_ids`] returns: the scan (its interner), the walk's
/// recorder and each item's ids.
type IdWalk = (IdScan, MetricsRecorder, Vec<(usize, Vec<ViewId>)>);

/// Walks an [`IdScan`] over `universe` in `mode` and checks every id it
/// named against structural interning of the stamped view.
fn walk_ids(universe: &Universe, mode: ExecMode) -> IdWalk {
    let scan = IdScan::default();
    let recorder = MetricsRecorder::new();
    let report = SweepSession::over(universe)
        .mode(mode)
        .metrics(&recorder)
        .run(&scan);
    assert_eq!(report.verdict.len(), universe.len(), "{mode:?}");
    for (i, ids) in &report.verdict {
        let (instance, labeling) = universe.item_parts(*i);
        for (v, &id) in ids.iter().enumerate() {
            let view = instance.view(&labeling, v, CONFIG.0, CONFIG.1);
            assert_eq!(
                scan.interner.intern(view),
                id,
                "{mode:?}: table and structural ids agree"
            );
        }
    }
    (scan, recorder, report.verdict)
}

/// Reads one counter of a walk's recorder.
fn counter(recorder: &MetricsRecorder, name: &str) -> u64 {
    recorder
        .snapshot()
        .get(name)
        .expect("every counter is snapshot")
}

/// A walk's view-id tables converge on the same ids as structural
/// interning, and distinct ball digits of one class fill distinct
/// entries: the center reads all four digits of a binary star, so its 16
/// digit vectors name 16 views.
#[test]
fn front_cache_interning_matches_structural() {
    let universe = star_universe(2);
    let (scan, recorder, ids) = walk_ids(&universe, ExecMode::Sequential);
    let centers: HashSet<ViewId> = ids.iter().map(|(_, ids)| ids[0]).collect();
    assert_eq!(centers.len(), 16, "distinct digits, distinct entries");
    let distinct = scan.interner.len() as u64;
    assert_eq!(
        counter(&recorder, "interner_front_misses"),
        distinct,
        "one worker misses each entry once"
    );
    assert_eq!(
        counter(&recorder, "interner_front_hits"),
        4 * 16 - distinct,
        "every other lookup is one load"
    );
}

/// Workers racing to fill the same entries agree on every id with the
/// canonical map, and each entry is filled exactly once: the fill count
/// is what the walk counts as stamps (`cache_hits`), so it may not depend
/// on the interleaving.
#[test]
fn concurrent_fills_agree_and_fill_each_entry_once() {
    let universe = star_universe(3);
    let threads = hiding_lcp_conformance::parity_threads().max(2);
    for mode in std::iter::once(ExecMode::Sequential)
        .chain(std::iter::repeat_n(ExecMode::Parallel(threads), 8))
    {
        let (scan, recorder, _) = walk_ids(&universe, mode);
        let distinct = scan.interner.len() as u64;
        assert_eq!(
            counter(&recorder, "cache_hits"),
            distinct,
            "{mode:?}: each entry's stamp counted once"
        );
        let misses = counter(&recorder, "interner_front_misses");
        assert!(misses >= distinct, "{mode:?}: every entry missed once");
        assert_eq!(
            counter(&recorder, "interner_front_hits") + misses,
            4 * 81,
            "{mode:?}: one lookup per node per item"
        );
    }
}
