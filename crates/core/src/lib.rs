//! The locally-checkable-proof (LCP) framework of *"Strong and Hiding
//! Distributed Certification of k-Coloring"* (Modanese, Montealegre,
//! Ríos-Wilson; PODC 2025).
//!
//! This crate mechanizes every definition and construction of the paper:
//!
//! * certificates and labelings ([`label`]), instances `(G, prt, Id)` and
//!   labeled instances `(G, prt, Id, ℓ)` ([`instance`]);
//! * radius-r *views* with full/order-only/anonymous identifier
//!   canonicalization ([`view`], Section 2.2 of the paper);
//! * r-round binary decoders and distributed execution ([`decoder`]),
//!   provers and adversarial labelers ([`prover`]);
//! * the distributed language `k-col` and the paper's promise classes
//!   ([`language`], Sections 2.1 and 2.5);
//! * executable checkers for completeness, soundness, strong (promise)
//!   soundness and hiding ([`properties`], Sections 2.2–2.4);
//! * the *accepting neighborhood graph* `V(D, n)` with the
//!   yes-instance-compatibility edges of Section 3, its sequential
//!   construction (Lemma 3.1) and odd-cycle analysis ([`nbhd`]);
//! * the extraction decoder of Lemma 3.2 ([`extract`]);
//! * the realizability machinery of Section 5.1 — view compatibility,
//!   (component-wise) realizable subgraphs, and the `G_bad` merge
//!   construction of Lemmas 5.1–5.3 ([`realize`]);
//! * the walk manipulations of Section 5.2 — non-backtracking lifts, the
//!   Lemma 5.4 edge expansion and the Lemma 5.5 repair ([`walks`]);
//! * the finite Ramsey search and the order-invariantization reduction of
//!   Section 6 ([`ramsey`]);
//! * the lower-bound drivers: the Theorem 1.5 refutation pipeline and the
//!   exhaustive small-decoder search for Theorem 1.2 ([`lower`]);
//! * labeled-instance enumeration for small n ([`enumerate`], the
//!   iteration underlying Lemma 3.1);
//! * a synchronous message-passing simulation of the r-round verifier
//!   ([`network`]) — the distributed algorithm the paper describes,
//!   validated view-for-view against the omniscient extraction;
//! * the motivating LCL problem Π of Section 1 — 3-coloring under a
//!   2-colorability certificate — with its verifier, a solver powered by
//!   strong soundness, and the concrete defeat of view-based rules
//!   ([`lcl`]);
//! * the unified verification engine behind all of the above checkers
//!   ([`verify`]): typed-coverage instance universes, the
//!   [`verify::PropertyCheck`] map/reduce interface, a shared
//!   view-canonicalization cache, and a sequential-identical parallel
//!   sweep executor.
//!
//! # Quick start
//!
//! ```
//! use hiding_lcp_core::prelude::*;
//! use hiding_lcp_graph::generators;
//!
//! // An instance is a graph plus port and identifier assignments.
//! let instance = Instance::canonical(generators::cycle(6));
//! assert_eq!(instance.graph().node_count(), 6);
//! ```

pub mod decoder;
pub mod enumerate;
pub mod extract;
pub mod instance;
pub mod label;
pub mod language;
pub mod lcl;
pub mod lower;
#[cfg(conformance_mutants)]
pub mod mutants;
pub mod nbhd;
pub mod network;
pub mod properties;
pub mod prover;
pub mod ramsey;
pub mod realize;
pub mod verify;
pub mod view;
pub mod walks;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::decoder::{run, Decoder, Verdict};
    pub use crate::instance::{Instance, LabeledInstance};
    pub use crate::label::{Certificate, Labeling};
    pub use crate::language::KCol;
    pub use crate::nbhd::NbhdGraph;
    pub use crate::prover::Prover;
    pub use crate::verify::{
        AuditPlan, Coverage, ExecMode, LazySweep, MetricsRecorder, PropertyCheck, SweepBudget,
        SweepRecorder, SweepSession, SweepStrategy, Universe, VerificationReport,
    };
    pub use crate::view::{IdMode, View};
}
