//! The walk's per-item step allocates nothing.
//!
//! A counting global allocator sees every allocation of this test binary.
//! A sequential soundness + strong panel walks every labeling of an
//! 8-node graph under the degree-one decoder's 5-letter adversary
//! alphabet (390,625 items): stepping the odometer, patching the verdict
//! channel, classifying orbits and testing each accepting set allocate
//! nothing, and a memo miss decides on the worker's scratch view, so the
//! whole walk, setup included, allocates fewer than one time per hundred
//! items.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hiding_lcp_certs::degree_one::{adversary_alphabet, DegreeOneDecoder};
use hiding_lcp_core::instance::Instance;
use hiding_lcp_core::language::KCol;
use hiding_lcp_core::properties::soundness::soundness_member;
use hiding_lcp_core::properties::strong::strong_member;
use hiding_lcp_core::verify::{Coverage, ExecMode, SweepSession, Universe};
use hiding_lcp_graph::generators;

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

#[test]
fn a_strong_and_soundness_walk_allocates_nothing_per_item() {
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
