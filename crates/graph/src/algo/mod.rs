//! Graph algorithms used throughout the workspace.
//!
//! * [`bfs`] — single/all-source distances, balls `N^r(v)`, eccentricities
//!   and diameter (Lemma 2.1 checks);
//! * [`components`] — connected components;
//! * [`bipartite`] — 2-colorability with a two-sided certificate: a
//!   bipartition on success, an odd cycle on failure; and an
//!   allocation-free bitset test of the subgraph a node mask induces;
//! * [`coloring`] — proper-coloring validation, exact k-coloring, the
//!   *lexicographically first* proper coloring required by the extraction
//!   decoder of Lemma 3.2, and chromatic numbers;
//! * [`cycles`] — girth, cycle-space dimension, cycle finding (Lemma 5.5
//!   needs a cycle in a prescribed component avoiding a prescribed node);
//! * [`paths`] — shortest paths (with forbidden nodes) and shortest
//!   *non-backtracking* walks with optional parity constraints (the walk
//!   manipulations of Section 5.2);
//! * [`automorphism`] — port-preserving automorphism enumeration backing
//!   the symmetry-quotient sweep.

pub mod automorphism;
pub mod bfs;
pub mod bipartite;
pub mod coloring;
pub mod components;
pub mod cycles;
pub mod paths;
