//! The mutant catalog and the battery that runs it.
//!
//! [`MUTANTS`] lists every seeded mutant in the production crates — name,
//! host crate, mutated site, and the probes expected to kill it. The
//! catalog is the human-readable coverage contract; `run_battery`
//! (compiled only under `--cfg conformance_mutants`, like the mutants
//! themselves) is its enforcement: activate each mutant, replay the whole
//! probe list, and demand at least one probe panics. A surviving mutant
//! is a hole in the probe battery, and the run fails naming it.

/// One seeded mutant: where it lives and which probes are expected to
/// notice it.
///
/// `expected_killers` documents intent; the battery verifies the weaker
/// (and more important) property that *some* probe kills the mutant, and
/// additionally warns when none of the expected killers is among the
/// actual ones — that means coverage drifted even though it didn't break.
pub struct Mutant {
    /// Registry name, passed to `mutants::set_active`.
    pub name: &'static str,
    /// Crate hosting the mutated code.
    pub host: &'static str,
    /// The decision the mutant corrupts.
    pub site: &'static str,
    /// Probe names (from [`crate::probes::ALL`]) expected to kill it.
    pub expected_killers: &'static [&'static str],
}

/// Every seeded mutant across the workspace. The battery fails if any
/// entry survives the probe list.
pub const MUTANTS: &[Mutant] = &[
    Mutant {
        name: "view_radius_shrink",
        host: "hiding-lcp-core",
        site: "view skeletons assembled at radius r-1",
        expected_killers: &["view_radius_structure"],
    },
    Mutant {
        name: "delta_stale_digit",
        host: "hiding-lcp-core",
        site: "odometer step updates digit but not decoded labeling",
        expected_killers: &["delta_oracle_parity_cycles", "memo_digit_slots"],
    },
    Mutant {
        name: "delta_dropped_resync",
        host: "hiding-lcp-core",
        site: "verdict refresh patches from a stale scratch after a resync",
        expected_killers: &["delta_mixed_blocks_resync", "delta_budget_resume_parity"],
    },
    Mutant {
        name: "delta_ball_misindex",
        host: "hiding-lcp-core",
        site: "ball inversion skips each skeleton's center node",
        expected_killers: &["delta_oracle_parity_cycles"],
    },
    Mutant {
        name: "memo_key_class_collision",
        host: "hiding-lcp-core",
        site: "verdict memo keys every node with skeleton class 0",
        expected_killers: &["delta_mixed_blocks_resync"],
    },
    Mutant {
        name: "digit_key_slot_alias",
        host: "hiding-lcp-core",
        site: "the dense index shared by the verdict memo and the view-id tables aliases digits past slot 2 onto slot 2",
        expected_killers: &["memo_digit_slots"],
    },
    Mutant {
        name: "class_ignores_alphabet",
        host: "hiding-lcp-core",
        site: "skeleton classes are shared across blocks with different alphabets",
        expected_killers: &["classes_respect_alphabet"],
    },
    Mutant {
        name: "interner_always_fresh",
        host: "hiding-lcp-core",
        site: "view interner mints a fresh id on every call",
        expected_killers: &["interner_identity"],
    },
    Mutant {
        name: "front_cache_class_collision",
        host: "hiding-lcp-core",
        site: "the walk's view-id lookup reads every class's ids from class 0's table",
        expected_killers: &["nbhd_witnesses_recheck", "classes_respect_alphabet"],
    },
    Mutant {
        name: "checked_off_by_one",
        host: "hiding-lcp-core",
        site: "shared reduce reports stop_at items checked for a short-circuited member",
        expected_killers: &["short_circuit_count"],
    },
    Mutant {
        name: "chunk_claim_overlap",
        host: "hiding-lcp-core",
        site: "shared parallel walk's cursor advances one less than the processed chunk",
        expected_killers: &["parallel_chunk_census"],
    },
    Mutant {
        name: "hiding_partial_conclusive",
        host: "hiding-lcp-core",
        site: "partial universe treated as the exhaustive Lemma 3.1 sweep",
        expected_killers: &["hiding_partial_inconclusive"],
    },
    Mutant {
        name: "invariance_skips_node0",
        host: "hiding-lcp-core",
        site: "invariance inspection starts at node 1",
        expected_killers: &["invariance_checks_node0"],
    },
    Mutant {
        name: "erasure_counts_accepts",
        host: "hiding-lcp-core",
        site: "erasure trials report accepting instead of rejecting counts",
        expected_killers: &["erasure_counts_rejections"],
    },
    Mutant {
        name: "completeness_bits_min",
        host: "hiding-lcp-core",
        site: "completeness aggregates min certificate length, not max",
        expected_killers: &["completeness_reports_max_bits"],
    },
    Mutant {
        name: "strong_drops_last_acceptor",
        host: "hiding-lcp-core",
        site: "strong soundness drops the highest accepting node",
        expected_killers: &["strong_keeps_all_acceptors"],
    },
    Mutant {
        name: "nbhd_selfloop_dropped",
        host: "hiding-lcp-core",
        site: "neighborhood graph forgets self-loops (length-1 odd walks)",
        expected_killers: &["hiding_selfloop_walk"],
    },
    Mutant {
        name: "witness_remap_off_by_one",
        host: "hiding-lcp-core",
        site: "V(D, n) witnesses renumbered one instance past the one they name",
        expected_killers: &["nbhd_witnesses_recheck"],
    },
    Mutant {
        name: "fold_join_keeps_caller",
        host: "hiding-lcp-core",
        site: "the post-join fold keeps the calling worker's claim of a key a helper claimed at a lower item",
        expected_killers: &["nbhd_fold_join_parity"],
    },
    Mutant {
        name: "tally_join_keeps_caller",
        host: "hiding-lcp-core",
        site: "the walk's summed tally keeps only the calling worker's counts",
        expected_killers: &["tally_join_parity"],
    },
    Mutant {
        name: "panel_channel_swap",
        host: "hiding-lcp-core",
        site: "panel member reads the next member's verdict channel",
        expected_killers: &["panel_channel_isolation"],
    },
    Mutant {
        name: "panel_frontier_off_by_one",
        host: "hiding-lcp-core",
        site: "panel short-circuit frontier records stop index plus one",
        expected_killers: &["panel_member_frontiers"],
    },
    Mutant {
        name: "orbit_mult_off_by_one",
        host: "hiding-lcp-core",
        site: "symmetry quotient undercounts every nontrivial orbit by one",
        expected_killers: &["orbit_partition_weighted"],
    },
    Mutant {
        name: "orbit_reject_inverted",
        host: "hiding-lcp-core",
        site: "canonical test keeps non-minimal orbit members, drops minima",
        expected_killers: &["orbit_partition_weighted"],
    },
    Mutant {
        name: "quotient_share_ignores_spec",
        host: "hiding-lcp-core",
        site: "every fused member shares the first member's orbit quotient, whatever it declares",
        expected_killers: &["quotient_share_respects_spec"],
    },
    Mutant {
        name: "stamp_into_keeps_stale_label",
        host: "hiding-lcp-core",
        site: "restamping a scratch view of the same length skips the certificate copy",
        expected_killers: &["delta_oracle_parity_cycles"],
    },
    Mutant {
        name: "copy_keeps_last_block",
        host: "hiding-lcp-core",
        site: "a port-isomorphism class walks its last block and jumps the lower-index ones",
        expected_killers: &["copy_blocks_match_full_walk"],
    },
    Mutant {
        name: "copy_weight_off_by_one",
        host: "hiding-lcp-core",
        site: "a class's walked block weighs one block less than the class holds",
        expected_killers: &["copy_blocks_match_full_walk"],
    },
    Mutant {
        name: "orbit_drop_generator",
        host: "hiding-lcp-graph",
        site: "port_automorphisms omits one group element",
        expected_killers: &["orbit_partition_weighted"],
    },
    Mutant {
        name: "dsatur_no_fresh_color",
        host: "hiding-lcp-graph",
        site: "DSATUR never opens a fresh color beyond the first",
        expected_killers: &["coloring_matches_bruteforce"],
    },
    Mutant {
        name: "dsatur_sat_undo_dropped",
        host: "hiding-lcp-graph",
        site: "DSATUR backtracking keeps a stale saturation bit",
        expected_killers: &["coloring_matches_bruteforce"],
    },
    Mutant {
        name: "iso_degree_sequence_only",
        host: "hiding-lcp-graph",
        site: "are_isomorphic degenerates to degree-sequence comparison",
        expected_killers: &["isomorphism_beyond_degrees"],
    },
    Mutant {
        name: "induced_drops_edge",
        host: "hiding-lcp-graph",
        site: "Graph::induced silently omits one edge",
        expected_killers: &["induced_subgraph_exact"],
    },
    Mutant {
        name: "bipartite_within_same_layer_edge",
        host: "hiding-lcp-graph",
        site: "the bitset bipartiteness search ignores an edge inside one layer",
        expected_killers: &["bipartite_within_matches_oracle"],
    },
    Mutant {
        name: "telemetry_counter_drop",
        host: "hiding-lcp-core",
        site: "MetricsRecorder::add drops items_orbit_skipped increments",
        expected_killers: &["telemetry_quotient_partition"],
    },
    Mutant {
        name: "span_unbalanced_exit",
        host: "hiding-lcp-core",
        site: "MetricsRecorder::span_exit returns before closing the span",
        expected_killers: &["telemetry_span_balance"],
    },
    Mutant {
        name: "shard_range_overlap",
        host: "hiding-lcp-core",
        site: "non-final shard ranges annex the successor's first item",
        expected_killers: &["shard_merge_byte_identical"],
    },
    Mutant {
        name: "shard_merge_drop_counters",
        host: "hiding-lcp-core",
        site: "counter merge folds only the first shard's stable counters",
        expected_killers: &["shard_counter_sums"],
    },
    Mutant {
        name: "shard_replay_trusted",
        host: "hiding-lcp-core",
        site: "shard merge keeps a report's listed records without comparing them to the replay",
        expected_killers: &["shard_forged_record_rejected"],
    },
];

/// The catalog must agree with the probe battery: every expected killer
/// names a real probe, every probe is someone's expected killer, and
/// names are unique. Checked by the clean-build suite so catalog drift is
/// caught without the mutant cfg.
pub fn check_catalog_consistency() {
    let probe_names: Vec<&str> = crate::probes::ALL.iter().map(|(n, _)| *n).collect();
    let mut seen = Vec::new();
    for m in MUTANTS {
        assert!(
            !seen.contains(&m.name),
            "duplicate catalog entry for mutant `{}`",
            m.name
        );
        seen.push(m.name);
        assert!(
            !m.expected_killers.is_empty(),
            "mutant `{}` lists no expected killers",
            m.name
        );
        for k in m.expected_killers {
            assert!(
                probe_names.contains(k),
                "mutant `{}` expects unknown probe `{k}`",
                m.name
            );
        }
    }
    for p in &probe_names {
        assert!(
            MUTANTS.iter().any(|m| m.expected_killers.contains(p)),
            "probe `{p}` is nobody's expected killer — dead weight or missing catalog entry"
        );
    }
}

/// The outcome of one mutant's battery round.
#[cfg(conformance_mutants)]
pub struct KillRecord {
    /// The mutant this round armed.
    pub mutant: &'static str,
    /// Probes that panicked while the mutant was active.
    pub killers: Vec<&'static str>,
    /// Whether any expected killer is among the actual killers.
    pub expected_hit: bool,
}

/// Runs every probe against every mutant and returns the kill matrix.
///
/// Process-global and single-threaded by design: the mutant registry is
/// one shared switch, so the battery must own the whole process (its test
/// lives alone in its own binary). Probe panics are the kill signal; the
/// default panic hook is silenced for the duration so the matrix, not a
/// hook backtrace per kill, is the output.
#[cfg(conformance_mutants)]
pub fn run_battery() -> Vec<KillRecord> {
    use std::panic;

    check_catalog_consistency();
    hiding_lcp_core::mutants::set_active(None);
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut matrix = Vec::with_capacity(MUTANTS.len());
    for mutant in MUTANTS {
        hiding_lcp_core::mutants::set_active(Some(mutant.name));
        let mut killers = Vec::new();
        for (name, probe) in crate::probes::ALL {
            if panic::catch_unwind(panic::AssertUnwindSafe(probe)).is_err() {
                killers.push(*name);
            }
        }
        hiding_lcp_core::mutants::set_active(None);
        let expected_hit = killers.iter().any(|k| mutant.expected_killers.contains(k));
        matrix.push(KillRecord {
            mutant: mutant.name,
            killers,
            expected_hit,
        });
    }
    panic::set_hook(prev_hook);
    matrix
}

/// Renders the kill matrix as the battery's report: one line per mutant,
/// its killers, and a flag when only unexpected probes did the killing.
#[cfg(conformance_mutants)]
pub fn render_matrix(matrix: &[KillRecord]) -> String {
    let width = MUTANTS.iter().map(|m| m.name.len()).max().unwrap_or(0);
    let mut out = String::from("mutation kill matrix\n");
    for record in matrix {
        let status = if record.killers.is_empty() {
            "SURVIVED"
        } else if record.expected_hit {
            "killed"
        } else {
            "killed (unexpected probe)"
        };
        out.push_str(&format!(
            "  {:width$}  {status:8}  {}\n",
            record.mutant,
            record.killers.join(", "),
        ));
    }
    out
}
