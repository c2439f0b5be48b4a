//! The harness against the real program: every workload through the
//! gate, the report round trip, and the metric names `BENCHMARK.json`
//! promises.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use hiding_lcp_audit_bench::layers::traced_run;
use hiding_lcp_audit_bench::workload::{Fixture, Workload, THREADS};
use hiding_lcp_audit_bench::{
    bench_rows, end_to_end, host, smoke, write_report, Metric, RunOutcome,
};

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// A temporary directory of this test binary's own inside the target
/// directory.
fn tmp_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("temporary directory");
    dir
}

/// The `audit` binary, built from the repository's root manifest into
/// this test's target directory.
fn audit_bin() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let target = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .parent()
            .expect("the tmp directory sits in the target directory");
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "audit",
            ])
            .arg("--manifest-path")
            .arg(repo_root().join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building the audit binary failed");
        target.join("release").join("audit")
    })
}

#[test]
fn every_workload_passes_the_gate_at_two_seeds() {
    for seed in [1, 2] {
        smoke(seed, 1, audit_bin()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn sharded_output_must_match_the_unsharded_audit() {
    let fx =
        Fixture::new(Workload::Lemma31DegreeOneShards2, 3, Some(audit_bin())).expect("fixture");
    let other_seed = Fixture::new(Workload::Lemma31DegreeOne, 4, Some(audit_bin()))
        .expect("fixture")
        .audit()
        .expect("audit");
    let err = fx
        .gate(&other_seed)
        .expect_err("a report of another seed must fail");
    assert!(err.contains("differs"), "{err}");
}

/// `"name": "<n>"` entries of one top-level array of `BENCHMARK.json`.
fn names_in(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("closed array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closed string")].to_string())
        .collect()
}

fn names(metrics: &[Metric]) -> Vec<String> {
    metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn runs_report_exactly_the_metrics_benchmark_json_names() {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let fx = Fixture::new(Workload::FamilyN8Revealing, 1, None).expect("fixture");
    let untraced = end_to_end(&fx, 0.05, 1.0).expect("untraced run");
    assert_eq!(names(&untraced.metrics), names_in(&json, "end_to_end"));
    let traced = traced_run(&fx, 0.05, &tmp_dir("trace")).expect("traced run");
    assert_eq!(names(&traced.metrics), names_in(&json, "per_layer"));
    assert_eq!((untraced.failed, traced.failed), (0, 0));
    for m in untraced.metrics.iter().chain(&traced.metrics) {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

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
fn report_round_trips_rows_of_every_run() {
    let dir = tmp_dir("report");
    let w = Workload::FamilyN8Revealing;
    let untraced = bench_rows(w, 7, false, &outcome());
    let traced = bench_rows(w, 7, true, &outcome());
    write_report(&dir, &format!("{}.untraced", w.name()), &untraced).expect("write");
    write_report(&dir, &format!("{}.traced", w.name()), &traced).expect("write");
    let json = std::fs::read_to_string(dir.join("BENCH_audit.json")).expect("report");

    assert!(json.starts_with("{\n  \"host_cores\": "));
    let rows: Vec<&str> = json.lines().filter(|l| l.contains("\"metric\"")).collect();
    assert_eq!(
        rows.len(),
        8,
        "two metrics, one context number and the fail ratio, per mode"
    );
    assert!(rows[0].contains(
        "\"metric\": \"audit_s\", \"unit\": \"s\", \"value\": 0.25, \"median\": 0.25, \
         \"q1\": 0.2, \"q3\": 0.3, \"p90\": 0.3, \"n\": 3"
    ));
    assert!(rows[0].contains("\"threads\": 2, \"processes\": 1, \"seed\": 7"));
    assert!(rows[2].contains("\"metric\": \"raw.audit_s\""));
    assert!(
        rows[3].contains("\"metric\": \"audit_fail_ratio\", \"unit\": \"ratio\", \"value\": 0.25")
    );
    assert!(rows[4].contains("\"traced\": true"));
    let oversubscribed = host::cores() < THREADS;
    assert!(rows
        .iter()
        .all(|r| r.contains(&format!("\"oversubscribed\": {oversubscribed}"))));
}
