//! The walk's per-item step allocates nothing.
//!
//! A counting global allocator sees every allocation of this test binary.
//! A sequential soundness + strong panel walks every labeling of an
//! 8-node graph under the degree-one decoder's 5-letter adversary
//! alphabet (390,625 items): stepping the odometer, patching the verdict
//! channel, classifying orbits and testing each accepting set allocate
//! nothing, and a memo miss decides on the worker's scratch view, so the
//! whole walk, setup included, allocates fewer than one time per hundred
//! items. The Lemma 3.1 scan fused onto that panel allocates per view and
//! witness of `V(D, n)`, not per item: its allocations barely grow from a
//! 6-node graph's 15,625 items to an 8-node graph's 390,625, whose
//! `V(D, n)` is the same.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hiding_lcp_certs::degree_one::{adversary_alphabet, DegreeOneDecoder};
use hiding_lcp_core::instance::Instance;
use hiding_lcp_core::language::KCol;
use hiding_lcp_core::nbhd::NbhdGraph;
use hiding_lcp_core::properties::hiding::hiding_member;
use hiding_lcp_core::properties::soundness::soundness_member;
use hiding_lcp_core::properties::strong::strong_member;
use hiding_lcp_core::verify::{Coverage, DynPropertyCheck, ExecMode, SweepSession, Universe};
use hiding_lcp_graph::algo::bipartite;
use hiding_lcp_graph::{generators, Graph};

/// Counts every allocation and reallocation, then defers to the system
/// allocator.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by each test for its whole run: the count is process-wide, so two
/// tests counting at once would count each other's allocations.
static COUNTING: Mutex<()> = Mutex::new(());

#[test]
fn a_strong_and_soundness_walk_allocates_nothing_per_item() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let decoder = DegreeOneDecoder;
    let two_col = KCol::new(2);
    for (name, graph) in [
        ("cycle(8)", generators::cycle(8)),
        ("path(8)", generators::path(8)),
    ] {
        let universe = Universe::all_labelings_of(
            Instance::canonical(graph),
            adversary_alphabet(),
            Coverage::Exhaustive,
        )
        .expect("5^8 labelings fit");
        let items = universe.len();
        assert_eq!(items, 390_625);
        let members = [
            soundness_member(&decoder),
            strong_member(&decoder, &two_col),
        ];
        let session = SweepSession::over(&universe).mode(ExecMode::Sequential);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = session.run_panel(&members);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(
            report.evidence.checked, items,
            "{name}: strong walks it all"
        );
        assert_eq!(report.members[1].verdict.passed, Some(true), "{name}");
        eprintln!("{name}: {allocations} allocations over {items} items");
        assert!(
            allocations < items / 100,
            "{name}: {allocations} allocations over {items} items"
        );
    }
}

/// Every degree-one labeling of `graph`, its 5-letter adversary alphabet.
fn degree_one_universe(graph: Graph) -> Universe {
    Universe::all_labelings_of(
        Instance::canonical(graph),
        adversary_alphabet(),
        Coverage::Exhaustive,
    )
    .expect("5^8 labelings fit")
}

/// What a sequential walk of `members` over `universe` allocates, and the
/// walk's report.
fn allocations_of(
    universe: &Universe,
    members: &[DynPropertyCheck<'_>],
) -> (usize, hiding_lcp_core::verify::PanelReport) {
    let session = SweepSession::over(universe).mode(ExecMode::Sequential);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = session.run_panel(members);
    (ALLOCATIONS.load(Ordering::Relaxed) - before, report)
}

#[test]
fn the_fused_scan_allocates_per_view_not_per_item() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let decoder = DegreeOneDecoder;
    let two_col = KCol::new(2);
    for (shape, graph) in [
        ("cycle", generators::cycle as fn(usize) -> Graph),
        ("path", generators::path),
    ] {
        // The scan's allocations beyond the soundness + strong walk's, and
        // V(D, n)'s views and edges, at 6 and at 8 nodes.
        let scan_at = |n: usize| {
            let universe = degree_one_universe(graph(n));
            let base = [
                soundness_member(&decoder),
                strong_member(&decoder, &two_col),
            ];
            let fused = [
                soundness_member(&decoder),
                strong_member(&decoder, &two_col),
                hiding_member(&decoder, &universe, 2, bipartite::is_bipartite),
            ];
            let (without, _) = allocations_of(&universe, &base);
            let (with, report) = allocations_of(&universe, &fused);
            let nbhd = report.members[2]
                .verdict
                .get::<NbhdGraph>()
                .expect("the scan's verdict");
            let extra = with.saturating_sub(without);
            eprintln!(
                "{shape}({n}): the scan allocates {extra} times over {} items \
                 ({} views, {} edges)",
                universe.len(),
                nbhd.view_count(),
                nbhd.edge_count()
            );
            (extra, (nbhd.view_count(), nbhd.edge_count()))
        };
        let (small, nbhd_small) = scan_at(6);
        let (large, nbhd_large) = scan_at(8);
        assert_eq!(nbhd_small, nbhd_large, "{shape}: V(D, n) is size-free");
        if shape == "cycle" {
            assert_eq!(nbhd_large, (30, 59), "{shape}: V(D, n)");
        }
        assert!(
            large < 2 * small,
            "{shape}: the scan allocates {large} times at 8 nodes, {small} at 6"
        );
    }
}
