//! `audit` — run a declarative property audit and emit a JSON report.
//!
//! Compiles an [`AuditPlan`] for one of the paper's concrete LCPs and
//! executes it as fused panels (one enumeration per universe shape, every
//! selected property riding the same walk). Exits nonzero when any
//! property is violated, so the binary doubles as a CI gate.
//!
//! ```text
//! cargo run --release --bin audit -- --decoder even-cycle --max-n 4
//! cargo run --release --bin audit -- --decoder revealing:3 --max-n 3 \
//!     --properties soundness,strong,hiding --threads 4 --out audit.json
//! ```
//!
//! The combinatorial labelings walk also shards across processes. A
//! coordinator (`--shards N`) partitions the universe into N contiguous
//! ranges, re-invokes itself once per range (`--shard i/N --shard-out
//! FILE`), retries crashed shards up to `--shard-retries`, and merges the
//! reports — byte-identical stable JSON (`--stable`) to a single-process
//! run. `--shards-from DIR` merges reports someone else produced (e.g. on
//! other machines).

use std::process::ExitCode;

use hiding_lcp_certs::{degree_one, even_cycle, revealing};
use hiding_lcp_core::decoder::Decoder;
use hiding_lcp_core::label::Certificate;
use hiding_lcp_core::prover::Prover;
use hiding_lcp_core::verify::{
    run_shards, AuditPlan, AuditReport, ExecMode, FaultSpec, InstanceSet, MetricsRecorder,
    PropertyTag, ShardSpec, SweepBudget, SweepOpts, SweepRecorder, ALL_PROPERTIES,
};
use std::time::Duration;

/// The largest `--max-n` the Lemma 3.1 family is built for: it enumerates
/// every port assignment of every connected graph, and K5 alone has
/// (4!)^5 = 7,962,624 of them, past `Universe::lemma31`'s cap.
const MAX_N: usize = 4;

struct Args {
    decoder: String,
    max_n: usize,
    properties: Vec<PropertyTag>,
    mode: ExecMode,
    opts: SweepOpts,
    /// `--strategy` as given, for re-invoking shard children.
    strategy_flag: String,
    budget: Option<SweepBudget>,
    fault_rates: Vec<f64>,
    fault_trials: usize,
    seed: u64,
    out: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    /// Child mode: walk one shard (`i/N`) of the labelings universe.
    shard: Option<String>,
    /// Where the child writes its shard report (stdout otherwise).
    shard_out: Option<String>,
    /// Coordinator mode: dispatch N shard children and merge.
    shards: Option<usize>,
    /// Retries per shard before the coordinator gives up.
    shard_retries: usize,
    /// Merge mode: read shard reports from a directory.
    shards_from: Option<String>,
    /// Emit the deterministic stable-JSON projection.
    stable: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: audit [--decoder degree-one|even-cycle|revealing:<k>] [--max-n N]\n\
         \x20            [--properties p1,p2,...] [--threads T] [--budget-ms MS]\n\
         \x20            [--budget-items N] [--fault-rates r1,r2,...] [--fault-trials T]\n\
         \x20            [--strategy delta|oracle|quotient] [--seed S] [--out FILE]\n\
         \x20            [--trace-out FILE] [--metrics-out FILE] [--stable]\n\
         \x20            [--shards N] [--shard-retries R]\n\
         \x20            [--shard i/N] [--shard-out FILE] [--shards-from DIR]\n\
         \n\
         Audits one of the paper's LCPs over the Lemma 3.1 family up to N nodes\n\
         (1 <= N <= 4; default: even-cycle, N=4, all seven properties) and prints\n\
         the fused-panel report as JSON. --strategy quotient sweeps only canonical\n\
         orbit representatives (same verdicts, less wall-clock). --trace-out writes a\n\
         Chrome trace_event file (open in chrome://tracing or Perfetto);\n\
         --metrics-out writes the counter/phase snapshot. --stable zeroes\n\
         scheduling-dependent fields so reports byte-compare across runs.\n\
         \n\
         Sharding: --shards N re-invokes this binary once per contiguous\n\
         range of the labelings universe, retries crashed children up to R\n\
         times (default 2), and merges — the merged --stable report is\n\
         byte-identical to an unsharded run. --shard i/N runs one child and\n\
         writes its shard report to --shard-out; --shards-from DIR merges\n\
         previously written reports. Exit code 1 = some property was\n\
         violated."
    );
    std::process::exit(2)
}

fn parse_tag(name: &str) -> Option<PropertyTag> {
    ALL_PROPERTIES
        .into_iter()
        .find(|t| t.as_str() == name.trim())
}

fn parse_args() -> Args {
    let mut args = Args {
        decoder: "even-cycle".into(),
        max_n: 4,
        properties: ALL_PROPERTIES.to_vec(),
        mode: ExecMode::Auto,
        opts: SweepOpts::default(),
        strategy_flag: "delta".into(),
        budget: None,
        fault_rates: Vec::new(),
        fault_trials: 16,
        seed: 0xA0D1_7E57,
        out: None,
        trace_out: None,
        metrics_out: None,
        shard: None,
        shard_out: None,
        shards: None,
        shard_retries: 2,
        shards_from: None,
        stable: false,
    };
    let mut budget = SweepBudget::unlimited();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().unwrap_or_else(|| usage_missing(flag));
        match flag.as_str() {
            "--decoder" => args.decoder = value("--decoder"),
            "--max-n" => args.max_n = parse_or_usage(&value("--max-n")),
            "--properties" => {
                args.properties = value("--properties")
                    .split(',')
                    .map(|p| parse_tag(p).unwrap_or_else(|| usage_missing(p)))
                    .collect();
            }
            "--threads" => args.mode = ExecMode::Parallel(parse_or_usage(&value("--threads"))),
            "--sequential" => args.mode = ExecMode::Sequential,
            "--strategy" => {
                let name = value("--strategy");
                args.opts = match name.as_str() {
                    "delta" => SweepOpts::default(),
                    "oracle" => SweepOpts::oracle(),
                    "quotient" => SweepOpts::quotient(),
                    other => usage_missing(other),
                };
                args.strategy_flag = name;
            }
            "--budget-ms" => {
                budget.deadline = Some(Duration::from_millis(parse_or_usage(&value("--budget-ms"))))
            }
            "--budget-items" => budget.max_items = Some(parse_or_usage(&value("--budget-items"))),
            "--fault-rates" => {
                args.fault_rates = value("--fault-rates")
                    .split(',')
                    .map(|r| parse_or_usage(r.trim()))
                    .collect();
            }
            "--fault-trials" => args.fault_trials = parse_or_usage(&value("--fault-trials")),
            "--seed" => args.seed = parse_or_usage(&value("--seed")),
            "--out" => args.out = Some(value("--out")),
            "--trace-out" => args.trace_out = Some(value("--trace-out")),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")),
            "--shard" => args.shard = Some(value("--shard")),
            "--shard-out" => args.shard_out = Some(value("--shard-out")),
            "--shards" => args.shards = Some(parse_or_usage(&value("--shards"))),
            "--shard-retries" => args.shard_retries = parse_or_usage(&value("--shard-retries")),
            "--shards-from" => args.shards_from = Some(value("--shards-from")),
            "--stable" => args.stable = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("audit: unknown flag {other}");
                usage()
            }
        }
    }
    if budget.deadline.is_some() || budget.max_items.is_some() {
        args.budget = Some(budget);
    }
    if !(1..=MAX_N).contains(&args.max_n) {
        eprintln!(
            "audit: --max-n {} is out of range: the Lemma 3.1 family is built for \
             1 to {MAX_N} nodes",
            args.max_n
        );
        usage()
    }
    args
}

fn usage_missing(flag: &str) -> ! {
    eprintln!("audit: missing or bad value for {flag}");
    usage()
}

fn parse_or_usage<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| usage_missing(s))
}

/// The decoder, its honest prover, its adversarial certificate alphabet
/// and the k it certifies.
#[allow(clippy::type_complexity)]
fn select(name: &str) -> Option<(Box<dyn Decoder>, Box<dyn Prover>, Vec<Certificate>, usize)> {
    match name {
        "degree-one" => Some((
            Box::new(degree_one::DegreeOneDecoder),
            Box::new(degree_one::DegreeOneProver),
            degree_one::adversary_alphabet(),
            2,
        )),
        "even-cycle" => Some((
            Box::new(even_cycle::EvenCycleDecoder),
            Box::new(even_cycle::EvenCycleProver),
            even_cycle::adversary_alphabet(),
            2,
        )),
        _ => {
            let k: usize = name.strip_prefix("revealing:")?.parse().ok()?;
            Some((
                Box::new(revealing::RevealingDecoder::new(k)),
                Box::new(revealing::RevealingProver::new(k)),
                revealing::adversary_alphabet(k),
                k,
            ))
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let Some((decoder, prover, alphabet, k)) = select(&args.decoder) else {
        eprintln!("audit: unknown decoder {:?}", args.decoder);
        usage()
    };
    let mut plan = AuditPlan::new(
        decoder.as_ref(),
        k,
        InstanceSet::Lemma31 { max_n: args.max_n },
        alphabet,
    )
    .prover(prover.as_ref())
    .properties(args.properties.clone())
    .mode(args.mode)
    .opts(args.opts)
    .seed(args.seed);
    if let Some(budget) = args.budget {
        plan = plan.budget(budget);
    }
    if !args.fault_rates.is_empty() {
        plan = plan.fault_plan(FaultSpec {
            rates: args.fault_rates.clone(),
            trials: args.fault_trials,
        });
    }
    let recorder = MetricsRecorder::new();
    let recording = args.trace_out.is_some() || args.metrics_out.is_some();
    if recording {
        plan = plan.telemetry(&recorder);
    }

    if [
        args.shard.is_some(),
        args.shards.is_some(),
        args.shards_from.is_some(),
    ]
    .iter()
    .filter(|set| **set)
    .count()
        > 1
    {
        eprintln!("audit: --shard, --shards and --shards-from are mutually exclusive");
        return ExitCode::from(2);
    }

    if let Some(spec) = &args.shard {
        return run_shard_child(&plan, spec, args.shard_out.as_deref());
    }

    let report = if let Some(dir) = &args.shards_from {
        match read_shard_reports(dir).and_then(|r| plan.run_with_shards(&r)) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("audit: shard merge failed: {e}");
                return ExitCode::from(2);
            }
        }
    } else if let Some(n) = args.shards {
        let attached = recording.then_some(&recorder as &dyn SweepRecorder);
        match run_sharded(&plan, &args, n, attached) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("audit: sharded run failed: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        plan.run()
    };
    let json = if args.stable {
        report.to_stable_json()
    } else {
        report.to_json()
    };
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("audit: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            eprintln!("audit: report written to {path}");
        }
        None => print!("{json}"),
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, recorder.trace_json()) {
            eprintln!("audit: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("audit: trace written to {path}");
    }
    if let Some(path) = &args.metrics_out {
        if let Err(e) = std::fs::write(path, recorder.metrics_json()) {
            eprintln!("audit: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("audit: metrics written to {path}");
    }

    let failures = report.failures();
    for f in &failures {
        eprintln!("audit: VIOLATED {f}");
    }
    for note in &report.notes {
        eprintln!("audit: note: {note}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Child mode: walk one shard of the labelings universe and ship the
/// serialized shard report to `--shard-out` (or stdout).
///
/// When `AUDIT_SHARD_CRASH` names a token file that does not exist yet,
/// the first child to get here creates it, writes a deliberately torn
/// report, and dies with exit code 17 — a crash-once hook so CI can
/// prove the coordinator's retry path re-dispatches and still merges
/// byte-identically. Subsequent children see the token and proceed.
fn run_shard_child(plan: &AuditPlan<'_>, spec: &str, out: Option<&str>) -> ExitCode {
    let shard = match ShardSpec::parse(spec) {
        Ok(shard) => shard,
        Err(e) => {
            eprintln!("audit: {e}");
            return ExitCode::from(2);
        }
    };
    let report = plan.run_shard(shard);
    if let Ok(token) = std::env::var("AUDIT_SHARD_CRASH") {
        if !token.is_empty() && !std::path::Path::new(&token).exists() {
            let _ = std::fs::write(&token, b"crashed once\n");
            if let Some(path) = out {
                let torn = &report[..report.len() / 2];
                let _ = std::fs::write(path, torn);
            }
            eprintln!("audit: simulated shard crash (AUDIT_SHARD_CRASH)");
            std::process::exit(17);
        }
    }
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &report) {
                eprintln!("audit: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            eprintln!("audit: shard {spec} report written to {path}");
        }
        None => print!("{report}"),
    }
    ExitCode::SUCCESS
}

/// Coordinator mode: re-invoke this binary once per shard, retry crashed
/// children, and merge the collected reports in-process.
fn run_sharded(
    plan: &AuditPlan<'_>,
    args: &Args,
    shards: usize,
    recorder: Option<&dyn SweepRecorder>,
) -> Result<AuditReport, String> {
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let dir = std::env::temp_dir().join(format!("audit-shards-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let base = child_args(args);
    let run = run_shards(shards, args.shard_retries, recorder, |spec, attempt| {
        let out = dir.join(format!("shard-{}-of-{}.txt", spec.index, spec.of));
        let _ = std::fs::remove_file(&out);
        let status = std::process::Command::new(&exe)
            .args(&base)
            .arg("--shard")
            .arg(spec.label())
            .arg("--shard-out")
            .arg(&out)
            .status()
            .map_err(|e| format!("cannot spawn shard {}: {e}", spec.label()))?;
        if !status.success() {
            return Err(format!(
                "shard {} (attempt {attempt}) exited with {status}",
                spec.label()
            ));
        }
        std::fs::read_to_string(&out)
            .map_err(|e| format!("shard {} left no report: {e}", spec.label()))
    })?;
    eprintln!(
        "audit: {} shards merged ({} dispatches, {} retries)",
        shards, run.dispatches, run.retries
    );
    let report = plan.run_with_shards(&run.results)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}

/// The flags a shard child needs to rebuild the coordinator's plan with
/// an identical fingerprint (decoder, k, seed, universe, strategy, mode,
/// budget). Output/fault/shard flags are deliberately not forwarded:
/// faults and degradation run only on the merge side.
fn child_args(args: &Args) -> Vec<String> {
    let mut v = vec![
        "--decoder".to_string(),
        args.decoder.clone(),
        "--max-n".to_string(),
        args.max_n.to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--strategy".to_string(),
        args.strategy_flag.clone(),
        "--properties".to_string(),
        args.properties
            .iter()
            .map(|t| t.as_str())
            .collect::<Vec<_>>()
            .join(","),
    ];
    match args.mode {
        ExecMode::Sequential => v.push("--sequential".to_string()),
        ExecMode::Parallel(t) => {
            v.push("--threads".to_string());
            v.push(t.to_string());
        }
        ExecMode::Auto => {}
    }
    if let Some(budget) = args.budget {
        if let Some(deadline) = budget.deadline {
            v.push("--budget-ms".to_string());
            v.push(deadline.as_millis().to_string());
        }
        if let Some(max_items) = budget.max_items {
            v.push("--budget-items".to_string());
            v.push(max_items.to_string());
        }
    }
    v
}

/// Merge mode input: every regular file in `dir`, sorted by name.
fn read_shard_reports(dir: &str) -> Result<Vec<String>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|path| path.is_file())
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no shard reports in {dir}"));
    }
    paths
        .iter()
        .map(|path| {
            std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
        })
        .collect()
}
