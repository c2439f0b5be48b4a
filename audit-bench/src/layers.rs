//! The traced run: per-layer numbers for one workload, measured by timing
//! calls into each layer's public functions from outside and by reading
//! the recorder the engine already has.
//!
//! Every call is wrapped in a span of the harness's own `SpanTrace`,
//! under one `workload:<name>` parent span, so the written Chrome trace
//! shows where the run's time went and [`crate::stats::self_times`] can
//! split it.

use std::path::Path;
use std::time::{Duration, Instant};

use hiding_lcp_core::nbhd::NbhdSweep;
use hiding_lcp_core::properties::hiding::hiding_member;
use hiding_lcp_core::properties::strong::strong_member;
use hiding_lcp_core::verify::{
    run_shards, ExecMode, MetricsRecorder, ShardSpec, SweepSession, Universe,
};
use hiding_lcp_core::view::IdMode;
use hiding_lcp_telemetry::SpanTrace;

use crate::reference::ReferenceWalk;
use crate::stats::{median, self_times};
use crate::workload::{enumerate_family, Fixture, Workload, THREADS};
use crate::{Metric, RunOutcome};

/// Audits timed in the traced run, for `audit_s` and `cli.overhead_s`.
const TRACED_AUDITS: usize = 5;
/// Bounds on the interleaved untraced/traced `AuditPlan::run` pairs.
const MIN_PLAN_PAIRS: usize = 3;
const MAX_PLAN_PAIRS: usize = 10;
/// Repetitions of each cheaper layer call (median reported).
const LAYER_REPS: usize = 3;

struct Tracer {
    trace: SpanTrace,
    epoch: Instant,
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Runs `f` under a span named `name`; returns its value and wall time.
    fn timed<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.trace.enter(name, self.now());
        let start = Instant::now();
        let value = std::hint::black_box(f());
        let seconds = start.elapsed().as_secs_f64();
        self.trace.exit(name, self.now());
        (value, seconds)
    }

    /// The median wall time of `reps` spans of `f`, plus the last value.
    fn median_of<T>(&self, name: &str, reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
        let mut times = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps.max(1) {
            let (value, t) = self.timed(name, &mut f);
            times.push(t);
            last = Some(value);
        }
        (last.expect("at least one repetition"), median(&times))
    }
}

/// Sum of one recorder phase, in seconds, read from the recorder's
/// metrics document (`"<phase>": {"count": …, "sum": <µs>, …}`).
fn phase_seconds(metrics_json: &str, phase: &str) -> Option<f64> {
    let at = metrics_json.find(&format!("\"{phase}\": {{"))?;
    let sum = metrics_json[at..].split("\"sum\": ").nth(1)?;
    let digits: String = sum.chars().take_while(char::is_ascii_digit).collect();
    digits.parse::<u64>().ok().map(|us| us as f64 / 1e6)
}

/// A counter's value from a metrics document (`"<name>": <value>`).
fn counter_in_json(metrics_json: &str, name: &str) -> Option<u64> {
    let rest = metrics_json.split(&format!("\"{name}\": ")).nth(1)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// The traced run of `fx`'s workload. `seconds` bounds the interleaved
/// plan runs; the Chrome trace and the CLI's own trace and metrics land
/// in `out_dir`.
pub fn traced_run(fx: &Fixture, seconds: f64, out_dir: &Path) -> Result<RunOutcome, String> {
    let started = Instant::now();
    let tracer = Tracer {
        trace: SpanTrace::new(1 << 16),
        epoch: started,
    };
    let name = fx.workload.name();
    let root = format!("workload:{name}");
    tracer.trace.enter(&root, tracer.now());

    let (_, enumerate_s) = tracer.median_of("graph.enumerate", LAYER_REPS, || {
        enumerate_family(fx.workload, fx.seed)
    });

    // The gate, then a few audits timed end to end.
    let (reference, _) = tracer.timed("audit", || fx.audit());
    let reference = reference?;
    fx.gate(&reference)?;
    let (mut attempted, mut failed, mut audits) = (0, 0, Vec::new());
    for _ in 0..TRACED_AUDITS {
        let (out, t) = tracer.timed("audit", || fx.audit());
        attempted += 1;
        match out {
            Ok(json) if json == reference => audits.push(t),
            _ => failed += 1,
        }
    }
    if audits.is_empty() {
        return Err("every traced audit failed".into());
    }
    let audit_s = median(&audits);

    // Untraced and traced plan runs in pairs, after one warm-up run. The
    // pairs alternate which run goes first: whichever runs second
    // inherits the first one's warm heap, which alone moved the ratio by
    // 10%.
    let deadline = started + Duration::from_secs_f64(seconds / 2.0);
    let mut report = tracer.timed("plan.run.warmup", || fx.plan().run()).0;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut first_traced: Option<(MetricsRecorder, f64)> = None;
    while untraced.len() < MIN_PLAN_PAIRS
        || (untraced.len() < MAX_PLAN_PAIRS && Instant::now() < deadline)
    {
        let traced_first = untraced.len() % 2 == 1;
        let recorder = MetricsRecorder::new();
        let mut run_traced = || {
            let (_, t) = tracer.timed("plan.run.traced", || fx.plan().telemetry(&recorder).run());
            traced.push(t);
            t
        };
        let wall = if traced_first {
            Some(run_traced())
        } else {
            None
        };
        let (untraced_report, t) = tracer.timed("plan.run", || fx.plan().run());
        untraced.push(t);
        report = untraced_report;
        let wall = wall.unwrap_or_else(run_traced);
        if first_traced.is_none() {
            first_traced = Some((recorder, wall));
        }
    }
    let plan_run_s = median(&untraced);
    let (recorder, traced_wall) = first_traced.expect("at least one traced run");
    let metrics_json = recorder.metrics_json();
    let phase = |p: &str| {
        phase_seconds(&metrics_json, p).ok_or_else(|| format!("recorder has no {p} phase"))
    };
    let (cache_build_s, walk_s, reduce_s) =
        (phase("cache_build")?, phase("walk")?, phase("reduce")?);
    let snapshot = recorder.snapshot();
    let counter = |c: &str| snapshot.get(c).unwrap_or(0);

    let ((json, stable), render_s) = tracer.median_of("plan.render", LAYER_REPS, || {
        (report.to_json(), report.to_stable_json())
    });
    let report_bytes = json.len() + stable.len();

    // Single layers over the workload's labelings universe.
    let universe: Universe = tracer.timed("setup", || fx.universe()).0;
    let language = fx.language();
    let k = language.k();
    let is_yes = |g: &hiding_lcp_graph::Graph| language.is_yes_graph(g);
    let session = || SweepSession::over(&universe).mode(ExecMode::Parallel(THREADS));
    let (_, strong_solo_s) = tracer.median_of("panel.strong_solo", LAYER_REPS, || {
        session().run_panel(&[strong_member(fx.decoder(), &language)])
    });
    let (nbhd, scan_executor_s) = tracer.median_of("nbhd.scan_executor", LAYER_REPS, || {
        let check = NbhdSweep::new(fx.decoder(), IdMode::Anonymous, &universe, is_yes);
        session().run(&check).verdict
    });
    let (_, scan_panel_s) = tracer.median_of("nbhd.scan_panel", LAYER_REPS, || {
        session().run_panel(&[hiding_member(fx.decoder(), &universe, k, is_yes)])
    });
    let (_, k_colorable_s) =
        tracer.median_of("coloring.k_colorable", LAYER_REPS, || nbhd.k_colorable(k));

    // The shard layer in process: one coordinator pass over a 2-way
    // partition, then the merge.
    let plan = fx.plan();
    let mut shard_runs = Vec::new();
    let shards = run_shards(2, 0, None, |spec: ShardSpec, _attempt| {
        let (text, t) = tracer.timed("shard.run", || plan.run_shard(spec));
        shard_runs.push((t, text.len()));
        Ok(text)
    })?;
    let (merged, merge_s) = tracer.timed("shard.merge", || plan.run_with_shards(&shards.results));
    if merged?.to_stable_json() != reference {
        return Err("in-process shard merge differs from the audit".into());
    }
    let (mut dispatches, mut retries) = (shards.dispatches, shards.retries);
    if fx.workload.is_cli() {
        let trace_out = out_dir.join(format!("{name}.audit-trace.json"));
        let metrics_out = out_dir.join(format!("{name}.audit-metrics.json"));
        let mut args = fx.cli_args();
        for (flag, path) in [("--trace-out", &trace_out), ("--metrics-out", &metrics_out)] {
            args.push(flag.to_string());
            args.push(path.display().to_string());
        }
        tracer.timed("audit.recorded", || fx.spawn_audit(&args)).0?;
        if fx.workload == Workload::Lemma31DegreeOneShards2 {
            let cli_metrics = std::fs::read_to_string(&metrics_out)
                .map_err(|e| format!("cannot read {}: {e}", metrics_out.display()))?;
            dispatches = counter_in_json(&cli_metrics, "shard_dispatches").unwrap_or(0);
            retries = counter_in_json(&cli_metrics, "shard_retries").unwrap_or(0);
        }
    }
    // The layer times above are raw; the walk tells how fast the host
    // ran while they were taken.
    let walk = ReferenceWalk::new();
    let walks: Vec<f64> = (0..LAYER_REPS).map(|_| walk.time()).collect();

    let run_max = shard_runs.iter().map(|r| r.0).fold(0.0, f64::max);
    let run_min = shard_runs.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
    let bytes_max = shard_runs.iter().map(|r| r.1).max().unwrap_or(0);
    let bytes_min = shard_runs.iter().map(|r| r.1).min().unwrap_or(0);
    let shard_sum: f64 = shard_runs.iter().map(|r| r.0).sum();
    let cli_overhead_s = if fx.workload == Workload::Lemma31DegreeOneShards2 {
        audit_s - shard_sum - merge_s
    } else {
        audit_s - plan_run_s - render_s
    };

    tracer.trace.exit(&root, tracer.now());
    let events = tracer.trace.events();
    let selves = self_times(&events);
    let trace_path = out_dir.join(format!("{name}.trace.json"));
    std::fs::write(&trace_path, tracer.trace.to_chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    for (span, micros) in &selves {
        println!("{name} self:{span} {} s", *micros as f64 / 1e6);
    }

    let walked = counter("items_walked") as f64;
    let count = |name, value: u64| Metric::single(name, "count", value as f64);
    let seconds = |name, value| Metric::single(name, "s", value);
    let share = |name, hits: &str, misses: &str| {
        Metric::single(name, "ratio", ratio(counter(hits), counter(misses)))
    };
    let metrics: Vec<Metric> = vec![
        seconds("graph.enumerate_s", enumerate_s),
        seconds("plan.run_s", plan_run_s),
        seconds(
            "plan.outside_phases_s",
            traced_wall - (cache_build_s + walk_s + reduce_s),
        ),
        seconds("plan.render_s", render_s),
        Metric::single("plan.report_bytes", "bytes", report_bytes as f64),
        seconds("panel.cache_build_s", cache_build_s),
        seconds("panel.walk_s", walk_s),
        seconds("panel.reduce_s", reduce_s),
        Metric::single("panel.items_walked", "count", walked),
        count("panel.items_inspected", counter("items_inspected")),
        count("panel.verdict_refreshes", counter("verdict_refreshes")),
        count("panel.verdict_readbacks", counter("verdict_readbacks")),
        share("panel.cache_hit_ratio", "cache_hits", "cache_misses"),
        Metric::single(
            "panel.walk_items_per_s",
            "1/s",
            if walk_s > 0.0 { walked / walk_s } else { 0.0 },
        ),
        share("delta.memo_hit_ratio", "memo_hits", "memo_misses"),
        count("delta.memo_misses", counter("memo_misses")),
        seconds("panel.strong_solo_s", strong_solo_s),
        seconds("nbhd.scan_executor_s", scan_executor_s),
        seconds("nbhd.scan_panel_s", scan_panel_s),
        count("nbhd.views", nbhd.view_count() as u64),
        count("nbhd.edges", nbhd.edge_count() as u64),
        share(
            "interner.front_hit_ratio",
            "interner_front_hits",
            "interner_front_misses",
        ),
        count("interner.contention", counter("interner_contention")),
        seconds("coloring.k_colorable_s", k_colorable_s),
        seconds("shard.run_max_s", run_max),
        seconds("shard.run_min_s", run_min),
        Metric::single("shard.report_bytes_max", "bytes", bytes_max as f64),
        Metric::single("shard.report_bytes_min", "bytes", bytes_min as f64),
        seconds("shard.merge_s", merge_s),
        count("shard.dispatches", dispatches),
        count("shard.retries", retries),
        seconds("cli.overhead_s", cli_overhead_s),
        Metric::single(
            "telemetry.overhead_ratio",
            "ratio",
            median(&traced) / plan_run_s,
        ),
    ];
    Ok(RunOutcome {
        metrics,
        context: vec![Metric {
            name: "raw.reference_walk_s",
            unit: "s",
            value: median(&walks),
            samples: walks,
        }],
        attempted,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_documents_parse() {
        let recorder = MetricsRecorder::new();
        use hiding_lcp_core::verify::{SweepCounter, SweepPhase, SweepRecorder};
        recorder.record_phase(SweepPhase::Walk, 1_500);
        recorder.record_phase(SweepPhase::Walk, 500);
        recorder.add(SweepCounter::ShardRetries, 3);
        let json = recorder.metrics_json();
        assert_eq!(phase_seconds(&json, "walk"), Some(0.002));
        assert_eq!(phase_seconds(&json, "reduce"), Some(0.0));
        assert_eq!(phase_seconds(&json, "nope"), None);
        assert_eq!(counter_in_json(&json, "shard_retries"), Some(3));
        assert_eq!(counter_in_json(&json, "shard_dispatches"), Some(0));
    }
}
