//! `audit-bench` command line; see `README.md` beside this crate.
//!
//! ```text
//! audit-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! audit-bench --seed <n> [--seconds <s>] [--trace <0|1>]  # every workload, one subprocess each
//! audit-bench --smoke [--seed <n>]                        # 3 audits per workload + the gate
//! ```
//!
//! The `audit` binary must sit next to this one (`bash audit-bench/run.sh`
//! builds both). Output goes to `audit-bench/` in the same target
//! directory: `BENCH_audit.json`, and for traced runs the Chrome traces.

use std::path::Path;
use std::process::{Command, ExitCode};

use hiding_lcp_audit_bench::layers::traced_run;
use hiding_lcp_audit_bench::workload::{Fixture, Workload};
use hiding_lcp_audit_bench::{bench_rows, end_to_end, result_line, rss_probe, smoke, write_report};

/// Audits per workload in `--smoke` mode.
const SMOKE_AUDITS: usize = 3;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Internal: run the workload's path once and print the peak RSS.
    rss_probe: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 28.0,
        trace: false,
        smoke: false,
        rss_probe: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => args.smoke = true,
            "--rss-probe" => args.rss_probe = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&raw).and_then(|args| run(&args, &raw));
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("audit-bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args, raw: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let bin_dir = exe.parent().ok_or("binary has no parent directory")?;
    let audit_bin = bin_dir.join("audit");
    if args.smoke {
        smoke(args.seed, SMOKE_AUDITS, &audit_bin)?;
        return Ok(ExitCode::SUCCESS);
    }
    let Some(workload) = args.workload else {
        return run_each_workload(&exe, raw);
    };
    let fx = Fixture::new(workload, args.seed, Some(&audit_bin))?;
    if args.rss_probe {
        println!("{}", rss_probe(&fx)?);
        return Ok(ExitCode::SUCCESS);
    }
    let out_dir = bin_dir
        .parent()
        .ok_or("target directory not found")?
        .join("audit-bench");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;

    let outcome = if args.trace {
        traced_run(&fx, args.seconds, &out_dir)?
    } else {
        end_to_end(&fx, args.seconds, peak_rss_of(&exe, workload, args.seed)?)?
    };
    let mode = if args.trace { "traced" } else { "untraced" };
    let rows = bench_rows(workload, args.seed, args.trace, &outcome);
    write_report(&out_dir, &format!("{}.{mode}", workload.name()), &rows)?;
    for m in outcome.metrics.iter().chain(&outcome.context) {
        if !m.value.is_finite() {
            return Err(format!("{} measured {}", m.name, m.value));
        }
        println!("{} {} {} {}", workload.name(), m.name, m.value, m.unit);
    }
    println!(
        "{} audit_fail_ratio {} ratio",
        workload.name(),
        outcome.failed as f64 / outcome.attempted as f64
    );
    println!("{}", result_line(&outcome));
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Peak RSS of the workload's path, measured in a fresh subprocess so
/// nothing else this process holds counts against it.
fn peak_rss_of(exe: &Path, workload: Workload, seed: u64) -> Result<f64, String> {
    let out = Command::new(exe)
        .args(["--rss-probe", "--workload", workload.name(), "--seed"])
        .arg(seed.to_string())
        .output()
        .map_err(|e| format!("cannot spawn the RSS probe: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "RSS probe failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| "RSS probe printed no number".to_string())
}

/// Without `--workload`: every workload in a subprocess of its own, one
/// at a time, with the same flags.
fn run_each_workload(exe: &Path, raw: &[String]) -> Result<ExitCode, String> {
    let mut code = ExitCode::SUCCESS;
    for workload in Workload::ALL {
        let status = Command::new(exe)
            .args(raw)
            .args(["--workload", workload.name()])
            .status()
            .map_err(|e| format!("cannot spawn {}: {e}", workload.name()))?;
        if !status.success() {
            eprintln!("audit-bench: {} exited with {status}", workload.name());
            code = ExitCode::FAILURE;
        }
    }
    Ok(code)
}
