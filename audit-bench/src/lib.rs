//! audit-bench: times real audits end to end and splits each one by
//! layer. See `README.md` beside this crate for the workloads, the
//! metrics and their bounds, and how to read the trace.
//!
//! One run measures one workload: closed loop, one client, audits back
//! to back for a fixed time, every output checked. [`end_to_end`] runs
//! with tracing off; [`layers::traced_run`] is the separate traced run.

pub mod host;
pub mod layers;
pub mod reference;
pub mod stats;
pub mod workload;

use std::path::Path;
use std::time::{Duration, Instant};

use hiding_lcp_bench::report::ReportDoc;
use hiding_lcp_core::verify::ShardSpec;

use reference::{ReferenceWalk, NOMINAL_S};
use stats::{median, nearest_rank, Summary};
use workload::{Fixture, Workload, THREADS};

/// Each `setup_s` sample times back-to-back calls of the universe
/// constructor, enough of them to take this long, so a constructor that
/// takes microseconds is not timed one call at a time.
const SETUP_SAMPLE_S: f64 = 1e-3;
/// Untimed audits before timing; the first one goes through the gate.
const WARMUPS: usize = 3;

/// One reported number and the samples it summarizes.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric measured once.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: vec![value],
        }
    }
}

/// What one run measured, and how many of its audits failed.
#[derive(Debug)]
pub struct RunOutcome {
    /// The metrics `BENCHMARK.json` names, in its order.
    pub metrics: Vec<Metric>,
    /// Numbers that explain the metrics, printed and kept in
    /// `BENCH_audit.json` but left out of the result line.
    pub context: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
}

/// The untraced run: warm-up with the correctness gate, then audits back
/// to back for `seconds`. A timed audit fails when it errs or its stable
/// output differs from the first audit's; failed audits are counted, not
/// timed. Before each timed audit the [`ReferenceWalk`] is timed, and
/// after it one set-up sample: set-up takes a millisecond, and sampling
/// it across the whole run keeps one noisy moment from deciding it.
///
/// Every time metric is normalized: each audit's and each set-up
/// sample's time is divided by the walk timed with it, and the median
/// (or p90) of those ratios is scaled by [`NOMINAL_S`]. The raw medians
/// are in [`RunOutcome::context`].
pub fn end_to_end(fx: &Fixture, seconds: f64, peak_rss_mb: f64) -> Result<RunOutcome, String> {
    let setup_batch = setup_batch(fx);
    let labelings = fx.universe().len() as f64;
    let walk = ReferenceWalk::new();

    let reference = fx.audit()?;
    fx.gate(&reference)?;
    for _ in 1..WARMUPS {
        walk.time();
        if fx.audit()? != reference {
            return Err("warm-up audit output differs from the first audit's".into());
        }
    }

    let (mut attempted, mut failed, mut cpu) = (0usize, 0usize, 0.0);
    let (mut raw, mut times, mut setup, mut walks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while attempted == 0 || Instant::now() < deadline {
        let walk_s = walk.time();
        walks.push(walk_s);
        let cpu_before = host::cpu_seconds()?;
        let start = Instant::now();
        let out = fx.audit();
        let elapsed = start.elapsed().as_secs_f64();
        let cpu_after = host::cpu_seconds()?;
        // CLI audits burn CPU in reaped children, in-process ones in
        // this process.
        cpu += if fx.workload.is_cli() {
            cpu_after.1 - cpu_before.1
        } else {
            cpu_after.0 - cpu_before.0
        };
        attempted += 1;
        match out {
            Ok(json) if json == reference => {
                raw.push(elapsed);
                times.push(elapsed / walk_s * NOMINAL_S);
            }
            _ => failed += 1,
        }
        setup.push(setup_sample(fx, setup_batch) / walk_s * NOMINAL_S);
    }
    if times.is_empty() {
        return Err(format!("all {attempted} timed audits failed"));
    }

    let audit_s = median(&times);
    let walk_s = median(&walks);
    let mut sorted = times.clone();
    sorted.sort_by(f64::total_cmp);
    Ok(RunOutcome {
        metrics: vec![
            Metric {
                name: "audit_s",
                unit: "s",
                value: audit_s,
                samples: times.clone(),
            },
            Metric {
                name: "audit_p90_s",
                unit: "s",
                value: nearest_rank(&sorted, 0.90),
                samples: times.clone(),
            },
            Metric {
                name: "labelings_per_s",
                unit: "1/s",
                value: labelings / audit_s,
                samples: times.iter().map(|t| labelings / t).collect(),
            },
            Metric::single(
                "cpu_per_audit_s",
                "s",
                cpu / attempted as f64 / walk_s * NOMINAL_S,
            ),
            Metric::single("peak_rss_mb", "MB", peak_rss_mb),
            Metric {
                name: "setup_s",
                unit: "s",
                value: median(&setup),
                samples: setup,
            },
        ],
        context: vec![
            Metric {
                name: "raw.audit_s",
                unit: "s",
                value: median(&raw),
                samples: raw,
            },
            Metric {
                name: "raw.reference_walk_s",
                unit: "s",
                value: walk_s,
                samples: walks,
            },
        ],
        attempted,
        failed,
    })
}

/// Per-call seconds of `calls` back-to-back calls of the workload's
/// universe constructor.
fn setup_sample(fx: &Fixture, calls: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        std::hint::black_box(fx.universe());
    }
    start.elapsed().as_secs_f64() / calls as f64
}

/// Constructor calls per `setup_s` sample.
fn setup_batch(fx: &Fixture) -> usize {
    let once: Vec<f64> = (0..10).map(|_| setup_sample(fx, 1)).collect();
    ((SETUP_SAMPLE_S / median(&once)).ceil() as usize).max(1)
}

/// Runs the workload's path once in this process and returns its peak
/// resident set in MiB: `AuditPlan::run`, or for the sharded workload
/// both `run_shard`s and then `run_with_shards`. Meant for a fresh
/// process, so the peak is the path's own.
pub fn rss_probe(fx: &Fixture) -> Result<f64, String> {
    let plan = fx.plan();
    if fx.workload == Workload::Lemma31DegreeOneShards2 {
        let reports: Vec<String> = ShardSpec::partition(2)
            .into_iter()
            .map(|spec| plan.run_shard(spec))
            .collect();
        std::hint::black_box(plan.run_with_shards(&reports)?);
    } else {
        std::hint::black_box(plan.run());
    }
    host::peak_rss_mb()
}

/// The `--smoke` gate: `audits` audits of every workload at `seed`, the
/// first through the correctness gate and the rest compared with it.
pub fn smoke(seed: u64, audits: usize, audit_bin: &Path) -> Result<(), String> {
    for workload in Workload::ALL {
        let start = Instant::now();
        let fx = Fixture::new(workload, seed, Some(audit_bin))?;
        let reference = fx.audit()?;
        fx.gate(&reference)
            .map_err(|e| format!("{}: {e}", workload.name()))?;
        for _ in 1..audits {
            if fx.audit()? != reference {
                return Err(format!("{}: audit output changed", workload.name()));
            }
        }
        println!(
            "{} smoke ok: {audits} audit(s), seed {seed}, {:.2} s",
            workload.name(),
            start.elapsed().as_secs_f64()
        );
    }
    Ok(())
}

/// The run's last output line: one JSON object with the verdict, the
/// audit counts and every metric's value.
pub fn result_line(outcome: &RunOutcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// `BENCH_audit.json` rows for one run: every metric with the summary of
/// its samples and the host facts needed to read it.
pub fn bench_rows(
    workload: Workload,
    seed: u64,
    traced: bool,
    outcome: &RunOutcome,
) -> Vec<String> {
    let cores = host::cores();
    // Shard children run one after another, so one process carries the
    // load at any time.
    let processes = 1;
    let fail_ratio = Metric::single(
        "audit_fail_ratio",
        "ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    outcome
        .metrics
        .iter()
        .chain(&outcome.context)
        .chain(std::iter::once(&fail_ratio))
        .map(|m| {
            let s = Summary::of(&m.samples);
            format!(
                "    {{ \"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \
                 \"value\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"p90\": {}, \
                 \"n\": {}, \"host_cores\": {cores}, \"threads\": {THREADS}, \
                 \"processes\": {processes}, \"seed\": {seed}, \"traced\": {traced}, \
                 \"oversubscribed\": {} }}",
                workload.name(),
                m.name,
                m.unit,
                m.value,
                s.median,
                s.q1,
                s.q3,
                s.p90,
                s.n,
                THREADS * processes > cores,
            )
        })
        .collect()
}

/// Stores one run's rows in `out_dir` and rewrites `BENCH_audit.json`
/// there from the latest rows of every workload and mode.
pub fn write_report(out_dir: &Path, run: &str, rows: &[String]) -> Result<(), String> {
    let io = |path: &Path, e: std::io::Error| format!("{}: {e}", path.display());
    let rows_path = out_dir.join(format!("{run}.rows"));
    std::fs::write(&rows_path, rows.join("\n")).map_err(|e| io(&rows_path, e))?;
    let mut all = Vec::new();
    for workload in Workload::ALL {
        for mode in ["untraced", "traced"] {
            let path = out_dir.join(format!("{}.{mode}.rows", workload.name()));
            if let Ok(text) = std::fs::read_to_string(&path) {
                all.extend(text.lines().map(String::from));
            }
        }
    }
    let mut doc = ReportDoc::new();
    doc.scalar("host_cores", host::cores())
        .scalar("threads", THREADS)
        .section("rows", &all);
    let path = out_dir.join("BENCH_audit.json");
    std::fs::write(&path, doc.finish()).map_err(|e| io(&path, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> RunOutcome {
        RunOutcome {
            metrics: vec![
                Metric {
                    name: "audit_s",
                    unit: "s",
                    value: 0.25,
                    samples: vec![0.3, 0.25, 0.2],
                },
                Metric::single("peak_rss_mb", "MB", 41.5),
            ],
            context: vec![Metric::single("raw.audit_s", "s", 0.5)],
            attempted: 4,
            failed: 1,
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_result_keys() {
        assert_eq!(
            result_line(&outcome()),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": \
             {\"audit_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 41.5, \"unit\": \"MB\"}}}"
        );
    }
}
