//! Public-API snapshot: the blessed surface as a curated symbol list,
//! pinned against `tests/api_snapshot.txt`.
//!
//! Two failure modes, two guards:
//!
//! * a blessed symbol disappears or moves — the `exists` re-imports below
//!   stop compiling;
//! * the curated list itself changes (a symbol is added, dropped or
//!   renamed) — the runtime comparison against the committed snapshot
//!   fails, so widening or narrowing the surface requires a deliberate
//!   edit of `tests/api_snapshot.txt` in the same change.
//!
//! The list is curated, not generated: it is the surface new code is
//! expected to build against — `hiding_lcp::prelude` plus the
//! fragment/shard machinery the `audit` coordinator and external harnesses
//! use. Everything else re-exported from `core`/`graph`/`certs` is public
//! but not pinned here.

macro_rules! blessed_surface {
    ($($path:path),+ $(,)?) => {
        #[allow(unused_imports)]
        mod exists {
            $(pub use $path;)+
        }
        const SURFACE: &[&str] = &[$(stringify!($path)),+];
    };
}

blessed_surface![
    // One-import everyday surface.
    hiding_lcp::prelude::AuditPlan,
    hiding_lcp::prelude::AuditReport,
    hiding_lcp::prelude::Certificate,
    hiding_lcp::prelude::Coverage,
    hiding_lcp::prelude::Decoder,
    hiding_lcp::prelude::ExecMode,
    hiding_lcp::prelude::IdMode,
    hiding_lcp::prelude::Instance,
    hiding_lcp::prelude::KCol,
    hiding_lcp::prelude::LabeledInstance,
    hiding_lcp::prelude::Labeling,
    hiding_lcp::prelude::MetricsRecorder,
    hiding_lcp::prelude::MetricsSnapshot,
    hiding_lcp::prelude::NbhdGraph,
    hiding_lcp::prelude::PropertyCheck,
    hiding_lcp::prelude::Prover,
    hiding_lcp::prelude::ShardSpec,
    hiding_lcp::prelude::SweepBudget,
    hiding_lcp::prelude::SweepError,
    hiding_lcp::prelude::SweepRecorder,
    hiding_lcp::prelude::SweepSession,
    hiding_lcp::prelude::SweepStrategy,
    hiding_lcp::prelude::Universe,
    hiding_lcp::prelude::VerificationReport,
    hiding_lcp::prelude::Verdict,
    hiding_lcp::prelude::View,
    hiding_lcp::prelude::run,
    // Fragment and shard machinery for external coordinators.
    hiding_lcp::core::verify::MemberFrontier,
    hiding_lcp::core::verify::PanelFragment,
    hiding_lcp::core::verify::ShardAttempt,
    hiding_lcp::core::verify::ShardRunReport,
    hiding_lcp::core::verify::merge_fragments,
    hiding_lcp::core::verify::merge_panel_fragments,
    hiding_lcp::core::verify::run_shards,
    hiding_lcp::core::verify::sum_stable_counters,
    hiding_lcp::core::verify::plan::STABLE_COUNTER_ALLOWLIST,
];

/// `stringify!` spacing around `::` differs across toolchains; strip all
/// whitespace so the snapshot is toolchain-independent.
fn normalize(symbol: &str) -> String {
    symbol.split_whitespace().collect()
}

#[test]
fn public_api_matches_committed_snapshot() {
    let actual: Vec<String> = SURFACE.iter().map(|s| normalize(s)).collect();
    let expected: Vec<String> = include_str!("api_snapshot.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(normalize)
        .collect();

    if actual != expected {
        let added: Vec<_> = actual.iter().filter(|s| !expected.contains(s)).collect();
        let removed: Vec<_> = expected.iter().filter(|s| !actual.contains(s)).collect();
        panic!(
            "public API surface drifted from tests/api_snapshot.txt\n\
             added (in code, not in snapshot):   {added:#?}\n\
             removed (in snapshot, not in code): {removed:#?}\n\
             If the change is intentional, update tests/api_snapshot.txt to match."
        );
    }
}

#[test]
fn snapshot_is_sorted_and_duplicate_free() {
    // Within each group the list stays alphabetical so diffs are stable;
    // duplicates would let a drifted symbol hide behind its twin.
    let mut seen = std::collections::BTreeSet::new();
    for symbol in SURFACE {
        assert!(
            seen.insert(normalize(symbol)),
            "duplicate symbol in curated surface: {symbol}"
        );
    }
}
