//! Seeded semantic mutants for the conformance mutation battery.
//!
//! This module only exists when the crate is compiled with
//! `RUSTFLAGS="--cfg conformance_mutants"`. Each *mutant* is a named,
//! deliberately wrong variant of one decision in this crate, dormant until
//! activated through [`set_active`]; production builds carry none of the
//! hooks. The `hiding-lcp-conformance` battery activates each mutant in
//! turn and asserts that at least one conformance probe notices — a
//! surviving mutant is a hole in the test suite, not a bug in the code.
//!
//! Mutants seeded in this crate (activated by name):
//!
//! * `dsatur_no_fresh_color` — the DSATUR search never opens a fresh
//!   color beyond the first, so most graphs become "uncolorable".
//! * `dsatur_sat_undo_dropped` — backtracking forgets to clear the
//!   saturation bit it set, over-constraining later branches.
//! * `iso_degree_sequence_only` — `are_isomorphic` degenerates to
//!   comparing degree sequences.
//! * `induced_drops_edge` — `Graph::induced` silently omits one edge.
//! * `bipartite_within_same_layer_edge` —
//!   `algo::bipartite::is_bipartite_within` ignores edges inside one
//!   breadth-first layer, so an odd cycle reads bipartite.
//! * `orbit_drop_generator` — `algo::automorphism::port_automorphisms`
//!   silently loses one non-identity element, so the returned set is no
//!   longer a group and quotient multiplicities stop summing to `|Σ|^n`.

use std::sync::RwLock;

static ACTIVE: RwLock<Option<String>> = RwLock::new(None);

/// Activates the named mutant (or deactivates all with `None`).
///
/// Process-global: the battery runs mutants one at a time on one thread.
pub fn set_active(name: Option<&str>) {
    *ACTIVE.write().expect("mutant registry lock") = name.map(str::to_owned);
}

/// Whether the named mutant is currently active.
pub fn active(name: &str) -> bool {
    ACTIVE.read().expect("mutant registry lock").as_deref() == Some(name)
}
