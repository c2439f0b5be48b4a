//! `engine_sweep`: sequential vs parallel Lemma 3.1 sweeps on the
//! verification engine (experiments E17 and E21).
//!
//! Symmetric-port cycles up to n = 8 under every adversary labeling,
//! swept through the Lemma 3.1 scan [`NbhdSweep`] in
//! `ExecMode::Sequential` and `ExecMode::Parallel(t)` for the full
//! `{1, 2, 4}` thread ladder
//! (always emitted, even on small boxes, where the extra rows measure
//! oversubscription). The default engine path is odometer enumeration
//! with delta-evaluated verdicts, dense per-class memos and the symmetry
//! quotient (only canonical orbit representatives inspected); this bench
//! also times the `DecodeOracle` reference strategy, so the JSON records
//! what the delta path buys. All modes and strategies must return
//! identical graphs (the executor's determinism contract); the harness
//! asserts it before recording timings, then writes the medians — plus
//! the machine's thread count, a per-size `scaling_efficiency` table
//! (t1/t2 and t1/t4 speedups), and the engine's small-universe
//! sequential-fallback threshold, so single-core results read honestly —
//! to `BENCH_engine.json` at the repository root, together with per-size
//! memo and view-interner hit-rate statistics. A `sequential-recorded`
//! routine runs the same sweep with a live `MetricsRecorder` attached;
//! its ratio against `sequential` lands as the `recorder_overhead` field
//! and, per size, in a `telemetry` section alongside the stable sweep
//! counters one sequential walk fires. The parity check also splits the
//! sweep into 2 and 4 in-process fragments recombined with
//! `merge_fragments`; the shard seam itself is timed across a real
//! process boundary by audit-bench's `lemma31-degree-one-shards2`
//! workload, not here.
//!
//! ```text
//! cargo bench -p hiding-lcp-bench --bench engine_sweep
//! ```
//!
//! With `ENGINE_SWEEP_SMOKE=1` the harness instead runs a reduced n = 6
//! measurement and exits nonzero if the measured medians regress more
//! than 2x against the committed `BENCH_engine.json` baseline, if the
//! t4/t1 parallel speedup falls below 1.5x on a multi-core runner, or if
//! the attached-recorder overhead exceeds 1.05x — all three in the CI
//! bench-smoke job's one run. Smoke mode never rewrites the JSON.

use criterion::{BenchResult, Criterion};
use hiding_lcp_bench::report::{self, ReportDoc};
use hiding_lcp_certs::revealing::{adversary_alphabet, RevealingDecoder};
use hiding_lcp_core::instance::Instance;
use hiding_lcp_core::nbhd::{NbhdGraph, NbhdSweep};
use hiding_lcp_core::verify::telemetry::WalkCounts;
use hiding_lcp_core::verify::{
    merge_fragments, Block, Coverage, ExecMode, LabelSource, MetricsRecorder, ShardSpec,
    SweepCounter, SweepSession, SweepStrategy, Universe, PARALLEL_THRESHOLD,
};
use hiding_lcp_core::view::IdMode;
use hiding_lcp_graph::algo::bipartite;
use hiding_lcp_graph::generators;
use std::fs;
use std::hint::black_box;

/// All 2-symbol labelings of even cycles `4..=max_n`, under the
/// rotation-symmetric port assignment so the symmetry quotient has a
/// nontrivial automorphism group to exploit. Ports change no decoder's
/// view content, so the oracle's cost is unaffected.
fn cycle_universe(max_n: usize) -> Universe {
    let alphabet = adversary_alphabet(2);
    let blocks = (4..=max_n)
        .step_by(2)
        .map(|n| {
            let g = generators::cycle(n);
            let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
            let instance = Instance::new(g, ports, hiding_lcp_graph::IdAssignment::canonical(n))
                .expect("symmetric cycle ports are valid");
            Block::new(
                instance,
                LabelSource::All {
                    alphabet: alphabet.clone(),
                },
            )
        })
        .collect();
    Universe::new(blocks, Coverage::Sampled).expect("bench universe fits")
}

fn sweep_nbhd(universe: &Universe, mode: ExecMode, strategy: SweepStrategy) -> NbhdGraph {
    let decoder = RevealingDecoder::new(2);
    let check = NbhdSweep::new(
        &decoder,
        IdMode::Anonymous,
        universe,
        bipartite::is_bipartite,
    );
    SweepSession::over(universe)
        .mode(mode)
        .strategy(strategy)
        .run(&check)
        .verdict
}

/// The sweep split into `shards` in-process fragments (each walked
/// sequentially over its contiguous odometer range) and recombined with
/// [`merge_fragments`]: the parity check's sharded reference.
fn sweep_nbhd_sharded(universe: &Universe, shards: usize) -> NbhdGraph {
    let decoder = RevealingDecoder::new(2);
    let check = NbhdSweep::new(
        &decoder,
        IdMode::Anonymous,
        universe,
        bipartite::is_bipartite,
    );
    let mode = ExecMode::Sequential;
    let fragments = ShardSpec::partition(shards)
        .into_iter()
        .map(|spec| {
            SweepSession::over(universe)
                .mode(mode)
                .run_fragment(&check, spec)
        })
        .collect();
    merge_fragments(&check, universe, mode, fragments, None)
        .expect("complete shard fragments tile the universe")
        .verdict
}

/// The same delta sweep with a live [`MetricsRecorder`] attached — the
/// routine whose ratio against `sequential` is the telemetry layer's
/// overhead.
fn sweep_nbhd_recorded(
    universe: &Universe,
    mode: ExecMode,
    recorder: &MetricsRecorder,
) -> NbhdGraph {
    let decoder = RevealingDecoder::new(2);
    let check = NbhdSweep::new(
        &decoder,
        IdMode::Anonymous,
        universe,
        bipartite::is_bipartite,
    );
    SweepSession::over(universe)
        .mode(mode)
        .metrics(recorder)
        .run(&check)
        .verdict
}

/// Per-size engine statistics, read off one sequential delta sweep's
/// report: its memo traffic, its view-id tables' traffic in front of the
/// view interner, and the stable counters it moved.
struct SweepStats {
    group: String,
    items: usize,
    counts: WalkCounts,
    distinct_views: usize,
}

fn collect_stats(universe: &Universe, group: String) -> SweepStats {
    let decoder = RevealingDecoder::new(2);
    let check = NbhdSweep::new(
        &decoder,
        IdMode::Anonymous,
        universe,
        bipartite::is_bipartite,
    );
    let report = SweepSession::over(universe)
        .mode(ExecMode::Sequential)
        .run(&check);
    SweepStats {
        group,
        items: universe.len(),
        counts: report.counts,
        distinct_views: report.verdict.view_count(),
    }
}

/// Which thread counts to record: always the full `{1, 2, 4}` ladder —
/// even on small boxes, where the extra rows measure oversubscription and
/// keep the JSON schema identical across hosts — plus the machine's own
/// count, so scaling curves are comparable.
fn thread_ladder(available: usize) -> Vec<usize> {
    let mut ladder = vec![1usize, 2, 4];
    if !ladder.contains(&available) {
        ladder.push(available);
    }
    ladder
}

fn bench_sizes(c: &mut Criterion, sizes: &[usize], stats: &mut Vec<SweepStats>) {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let ladder = thread_ladder(threads);
    let (delta, oracle) = (SweepStrategy::DeltaStepping, SweepStrategy::DecodeOracle);
    for &max_n in sizes {
        let universe = cycle_universe(max_n);
        // Determinism contract: modes and strategies agree before we time
        // them.
        let seq = sweep_nbhd(&universe, ExecMode::Sequential, delta);
        let par = sweep_nbhd(&universe, ExecMode::Parallel(threads), delta);
        let dec = sweep_nbhd(&universe, ExecMode::Sequential, oracle);
        let sh2 = sweep_nbhd_sharded(&universe, 2);
        let sh4 = sweep_nbhd_sharded(&universe, 4);
        for other in [&par, &dec, &sh2, &sh4] {
            assert_eq!(
                seq.view_count(),
                other.view_count(),
                "parity at n <= {max_n}"
            );
            assert_eq!(
                seq.edge_count(),
                other.edge_count(),
                "parity at n <= {max_n}"
            );
        }
        stats.push(collect_stats(&universe, format!("engine-sweep-n{max_n}")));

        // Interleave samples across all configurations of a size: on a
        // host whose effective speed drifts under sustained load, taking
        // each bench's samples back to back charges the drift to whatever
        // runs later (measured here as a spurious ~40% parallel-t1 "loss"
        // at n = 8), and the whole point of this group is the ratio
        // between its members.
        let routine = |mode: ExecMode, strategy: SweepStrategy| {
            let universe = &universe;
            move || drop(black_box(sweep_nbhd(black_box(universe), mode, strategy)))
        };
        let mut routines: Vec<(String, Box<dyn FnMut() + '_>)> = Vec::new();
        routines.push((
            "sequential".into(),
            Box::new(routine(ExecMode::Sequential, delta)),
        ));
        // The telemetry layer's price: the identical sequential sweep
        // with a live recorder attached. Interleaved with `sequential`,
        // so the ratio is the overhead, not host drift.
        routines.push((
            "sequential-recorded".into(),
            Box::new({
                let universe = &universe;
                let recorder = MetricsRecorder::new();
                move || {
                    drop(black_box(sweep_nbhd_recorded(
                        black_box(universe),
                        ExecMode::Sequential,
                        &recorder,
                    )))
                }
            }),
        ));
        for &t in &ladder {
            routines.push((
                format!("parallel-t{t}"),
                Box::new(routine(ExecMode::Parallel(t), delta)),
            ));
        }
        // The reference configuration: index-decoded, unmemoized full
        // inspection (what every sweep cost before the delta path).
        routines.push((
            "oracle".into(),
            Box::new(routine(ExecMode::Sequential, oracle)),
        ));
        let mut g = c.benchmark_group(format!("engine-sweep-n{max_n}"));
        g.sample_size(if max_n >= 8 { 15 } else { 20 });
        g.bench_interleaved(routines);
        g.finish();
    }
}

/// `recorded / plain` sequential-median ratio for one size group, i.e.
/// what attaching a live recorder costs.
#[allow(clippy::cast_precision_loss)]
fn overhead_ratio(results: &[BenchResult], group: &str) -> Option<f64> {
    let plain = report::median(results, &format!("{group}/sequential"))?;
    let recorded = report::median(results, &format!("{group}/sequential-recorded"))?;
    Some(recorded as f64 / plain as f64)
}

fn write_json(results: &[BenchResult], stats: &[SweepStats], threads: usize) {
    let groups: Vec<&str> = {
        let mut seen = Vec::new();
        for r in results {
            if let Some(g) = r.name.split('/').next() {
                if !seen.contains(&g) {
                    seen.push(g);
                }
            }
        }
        seen
    };
    let mut doc = ReportDoc::new();
    doc.scalar("threads", threads)
        .scalar("parallel_threshold", PARALLEL_THRESHOLD);
    // Headline recorder overhead: the largest measured size, where the
    // fixed per-sweep cost is most amortized.
    if let Some(ratio) = groups.iter().rev().find_map(|g| overhead_ratio(results, g)) {
        doc.scalar("recorder_overhead", format!("{ratio:.3}"));
    }
    doc.section("benches", &report::bench_rows(results));
    let scaling: Vec<String> = groups
        .iter()
        .filter_map(|g| {
            let t1 = report::median(results, &format!("{g}/parallel-t1"))?;
            let t2 = report::median(results, &format!("{g}/parallel-t2"))?;
            let t4 = report::median(results, &format!("{g}/parallel-t4"))?;
            #[allow(clippy::cast_precision_loss)]
            Some(format!(
                "    {{ \"group\": \"{g}\", \"speedup_t2\": {:.3}, \"speedup_t4\": {:.3}, \
                 \"efficiency_t4\": {:.3} }}",
                t1 as f64 / t2 as f64,
                t1 as f64 / t4 as f64,
                t1 as f64 / t4 as f64 / 4.0,
            ))
        })
        .collect();
    doc.section("scaling_efficiency", &scaling);
    // Per-size recorder price plus the stable counters one sequential
    // sweep fires — deterministic, so diffs of this file are meaningful.
    let telemetry_rows: Vec<String> = stats
        .iter()
        .map(|s| {
            let overhead = overhead_ratio(results, &s.group)
                .map_or(String::new(), |r| format!(" \"overhead\": {r:.3},"));
            let mut stable: Vec<(&str, u64)> = SweepCounter::ALL
                .into_iter()
                .filter(|c| c.is_stable())
                .map(|c| (c.name(), s.counts.get(c)))
                .filter(|&(_, value)| value > 0)
                .collect();
            stable.sort_unstable();
            let counters: Vec<String> = stable
                .iter()
                .map(|(name, value)| format!("\"{name}\": {value}"))
                .collect();
            format!(
                "    {{ \"group\": \"{}\",{overhead} \"counters\": {{ {} }} }}",
                s.group,
                counters.join(", ")
            )
        })
        .collect();
    doc.section("telemetry", &telemetry_rows);
    let stat_rows: Vec<String> = stats
        .iter()
        .map(|s| {
            format!(
                "    {{ \"group\": \"{}\", \"items\": {}, \"memo_hits\": {}, \"memo_misses\": {}, \
                 \"interner_hits\": {}, \"interner_misses\": {}, \"distinct_views\": {} }}",
                s.group,
                s.items,
                s.counts.get(SweepCounter::MemoHits),
                s.counts.get(SweepCounter::MemoMisses),
                s.counts.get(SweepCounter::InternerFrontHits),
                s.counts.get(SweepCounter::InternerFrontMisses),
                s.distinct_views
            )
        })
        .collect();
    doc.section("stats", &stat_rows);
    report::write("BENCH_engine.json", &doc.finish());
}

/// CI bench-smoke: a reduced n = 6 measurement compared against the
/// committed baseline; >2x regressions fail the process. Returns the exit
/// code.
fn smoke() -> i32 {
    let mut c = Criterion::new();
    let mut stats = Vec::new();
    bench_sizes(&mut c, &[6], &mut stats);
    let baseline = match fs::read_to_string(report::repo_root_path("BENCH_engine.json")) {
        Ok(s) => s,
        Err(e) => {
            println!("smoke: no committed BENCH_engine.json ({e}); nothing to compare");
            return 0;
        }
    };
    let mut failed = false;
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    if available >= 4 {
        let t1 = c
            .results
            .iter()
            .find(|r| r.name == "engine-sweep-n6/parallel-t1");
        let t4 = c
            .results
            .iter()
            .find(|r| r.name == "engine-sweep-n6/parallel-t4");
        if let (Some(t1), Some(t4)) = (t1, t4) {
            let speedup = t1.median.as_nanos() as f64 / t4.median.as_nanos() as f64;
            let verdict = if speedup < 1.5 {
                failed = true;
                "SCALING REGRESSION"
            } else {
                "ok"
            };
            println!("smoke: t4/t1 speedup {speedup:.2}x (floor 1.5x) -> {verdict}");
        }
    } else {
        println!("smoke: {available} core(s); skipping the t4/t1 scaling gate");
    }
    // Telemetry must be observationally cheap: a live recorder may cost at
    // most 5% over the identical plain sequential sweep, same run, same
    // interleaved sample schedule.
    match overhead_ratio(&c.results, "engine-sweep-n6") {
        Some(ratio) => {
            let verdict = if ratio > 1.05 {
                failed = true;
                "TELEMETRY OVERHEAD"
            } else {
                "ok"
            };
            println!("smoke: recorder overhead {ratio:.3}x (ceiling 1.05x) -> {verdict}");
        }
        None => println!("smoke: no recorded/plain pair at n = 6; skipping the overhead gate"),
    }
    for name in ["engine-sweep-n6/sequential", "engine-sweep-n6/parallel-t1"] {
        let Some(base) = report::median_in_json(&baseline, name) else {
            println!("smoke: baseline lacks {name}; skipping");
            continue;
        };
        let Some(measured) = report::median(&c.results, name) else {
            // This host's thread ladder did not produce the bench (e.g.
            // parallel-t1 exists on every ladder, but be defensive).
            println!("smoke: no measurement for {name}; skipping");
            continue;
        };
        let verdict = if measured > base.saturating_mul(2) {
            failed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!("smoke: {name}: measured {measured} ns vs baseline {base} ns -> {verdict}");
    }
    i32::from(failed)
}

fn main() {
    if std::env::var("ENGINE_SWEEP_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::process::exit(smoke());
    }
    let mut c = Criterion::new();
    let mut stats = Vec::new();
    bench_sizes(&mut c, &[4, 6, 8], &mut stats);
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    write_json(&c.results, &stats, threads);
}
