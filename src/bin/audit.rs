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
//! run. The children run at once, up to one per core, and each keeps the
//! coordinator's `--threads`, so `--shards N --threads T` may run up to
//! min(N, cores) × T walk threads. `--shards-from DIR` merges reports
//! someone else produced (e.g. on other machines). A budget bounds each
//! child's one walk; a child the budget stopped writes a torn report,
//! which the merge rejects.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::sync::Mutex;

use hiding_lcp_certs::{degree_one, even_cycle, revealing};
use hiding_lcp_core::decoder::Decoder;
use hiding_lcp_core::label::Certificate;
use hiding_lcp_core::prover::Prover;
use hiding_lcp_core::verify::{
    run_shards, AuditPlan, AuditReport, ExecMode, InstanceSet, MetricsRecorder, PropertyTag,
    ShardAttempt, ShardSpec, SweepBudget, SweepRecorder, SweepStrategy, ALL_PROPERTIES,
};
use std::time::Duration;

/// The largest `--max-n` the Lemma 3.1 family is built for: it enumerates
/// every port assignment of every connected graph, and K5 alone has
/// (4!)^5 = 7,962,624 of them, past `Universe::lemma31`'s cap.
const MAX_N: usize = 4;

/// The largest `--threads`: every worker is an OS thread with its own
/// stack, and far past the host's cores a thread count only costs memory
/// (100,000 aborts the process when the stack guard pages run out).
const MAX_THREADS: usize = 1024;

/// The largest `--shards`: a coordinator launches one child process per
/// shard, so a count far past any useful split only costs process starts.
const MAX_SHARDS: usize = 1024;

struct Args {
    decoder: String,
    max_n: usize,
    properties: Vec<PropertyTag>,
    mode: ExecMode,
    strategy: SweepStrategy,
    /// `--strategy` as given, for re-invoking shard children.
    strategy_flag: String,
    budget: Option<SweepBudget>,
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
    /// Retries per shard before the coordinator gives up (default 2).
    shard_retries: Option<usize>,
    /// Merge mode: read shard reports from a directory.
    shards_from: Option<String>,
    /// Emit the deterministic stable-JSON projection.
    stable: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: audit [--decoder degree-one|even-cycle|revealing:<k>] [--max-n N]\n\
         \x20            [--properties p1,p2,...] [--threads T] [--budget-ms MS]\n\
         \x20            [--budget-items N] [--strategy delta|oracle] [--seed S]\n\
         \x20            [--out FILE] [--trace-out FILE] [--metrics-out FILE] [--stable]\n\
         \x20            [--shards N] [--shard-retries R]\n\
         \x20            [--shard i/N] [--shard-out FILE] [--shards-from DIR]\n\
         \n\
         Audits one of the paper's LCPs over the Lemma 3.1 family up to N nodes\n\
         (1 <= N <= 4; default: even-cycle, N=4, all seven properties) and prints\n\
         the fused-panel report as JSON, walking with T worker threads\n\
         (1 <= T <= {MAX_THREADS}; default: one per core). The default delta\n\
         strategy walks one block per port-isomorphism class of the family and\n\
         one labeling per orbit of each block's symmetries, each weighted by\n\
         what it stands for; oracle walks every labeling of every block (same\n\
         report, ~10x the wall-clock at N=4). --trace-out writes a Chrome\n\
         trace_event file (open in chrome://tracing or Perfetto);\n\
         --metrics-out writes the counter/phase snapshot. --stable zeroes\n\
         scheduling-dependent fields so reports byte-compare across runs.\n\
         \n\
         Sharding: --shards N (1 <= N <= {MAX_SHARDS}) re-invokes this binary\n\
         once per contiguous range of the labelings universe, retries crashed\n\
         children up to R times (default 2), and merges — the merged --stable\n\
         report is byte-identical to an unsharded run. The children run at\n\
         once, up to one per core, each with the coordinator's --threads, so\n\
         --shards N --threads T may run up to min(N, cores) x T walk threads.\n\
         --shard i/N runs one child and writes its shard report to\n\
         --shard-out (stdout without it); --shards-from DIR merges\n\
         previously written reports. A budget bounds each child's walk,\n\
         and the report of a child the budget stopped does not merge\n\
         (exit 2). A flag that does nothing in the chosen mode is a usage\n\
         error. Exit code 1 = some property was violated."
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
        strategy: SweepStrategy::DeltaStepping,
        strategy_flag: "delta".into(),
        budget: None,
        seed: 0xA0D1_7E57,
        out: None,
        trace_out: None,
        metrics_out: None,
        shard: None,
        shard_out: None,
        shards: None,
        shard_retries: None,
        shards_from: None,
        stable: false,
    };
    let mut budget = SweepBudget::unlimited();
    let mut it = std::env::args_os().skip(1).map(|arg| {
        arg.into_string().unwrap_or_else(|raw| {
            eprintln!("audit: argument {raw:?} is not valid UTF-8");
            usage()
        })
    });
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
            "--strategy" => {
                let name = value("--strategy");
                args.strategy = match name.as_str() {
                    "delta" => SweepStrategy::DeltaStepping,
                    "oracle" => SweepStrategy::DecodeOracle,
                    other => usage_missing(other),
                };
                args.strategy_flag = name;
            }
            "--budget-ms" => {
                budget.deadline = Some(Duration::from_millis(parse_or_usage(&value("--budget-ms"))))
            }
            "--budget-items" => budget.max_items = Some(parse_or_usage(&value("--budget-items"))),
            "--seed" => args.seed = parse_or_usage(&value("--seed")),
            "--out" => args.out = Some(value("--out")),
            "--trace-out" => args.trace_out = Some(value("--trace-out")),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")),
            "--shard" => args.shard = Some(value("--shard")),
            "--shard-out" => args.shard_out = Some(value("--shard-out")),
            "--shards" => args.shards = Some(parse_or_usage(&value("--shards"))),
            "--shard-retries" => {
                args.shard_retries = Some(parse_or_usage(&value("--shard-retries")))
            }
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
    if let ExecMode::Parallel(t) = args.mode {
        if !(1..=MAX_THREADS).contains(&t) {
            eprintln!(
                "audit: --threads {t} is out of range: a thread count runs from 1 to {MAX_THREADS}"
            );
            usage()
        }
    }
    if let Some(n) = args.shards {
        if !(1..=MAX_SHARDS).contains(&n) {
            eprintln!(
                "audit: --shards {n} is out of range: a shard count runs from 1 to {MAX_SHARDS}"
            );
            usage()
        }
    }
    if !(1..=MAX_N).contains(&args.max_n) {
        eprintln!(
            "audit: --max-n {} is out of range: the Lemma 3.1 family is built for \
             1 to {MAX_N} nodes",
            args.max_n
        );
        usage()
    }
    // Revealing certificates are one-byte colors.
    if let Some(k) = args.decoder.strip_prefix("revealing:") {
        if !k.parse::<usize>().is_ok_and(|k| (1..=255).contains(&k)) {
            eprintln!("audit: --decoder revealing:{k} is out of range: k runs from 1 to 255");
            usage()
        }
    }
    // A flag that the chosen mode never reads would let a run do less
    // than its command line says.
    let merging = args.shards_from.is_some();
    let child = args.shard.is_some();
    let idle = [
        (
            "--shard-out",
            args.shard_out.is_some() && args.shard.is_none(),
            "only a --shard child writes a shard report",
        ),
        (
            "--shard-retries",
            args.shard_retries.is_some() && args.shards.is_none(),
            "only a --shards coordinator retries children",
        ),
        (
            "--out",
            args.out.is_some() && child,
            "a --shard child writes its report to --shard-out or stdout",
        ),
        (
            "--stable",
            args.stable && child,
            "a --shard child writes a shard report, not a JSON report",
        ),
        (
            "--trace-out",
            args.trace_out.is_some() && child,
            "a --shard child writes no trace",
        ),
        (
            "--metrics-out",
            args.metrics_out.is_some() && child,
            "a --shard child puts its stable counters in its shard report",
        ),
        (
            "--budget-ms",
            budget.deadline.is_some() && merging,
            "a --shards-from merge walks nothing",
        ),
        (
            "--budget-items",
            budget.max_items.is_some() && merging,
            "a --shards-from merge walks nothing",
        ),
    ];
    if let Some((flag, _, why)) = idle.iter().find(|(_, set, _)| *set) {
        eprintln!("audit: {flag} does nothing in this mode: {why}");
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
    .strategy(args.strategy)
    .seed(args.seed);
    if let Some(budget) = args.budget {
        plan = plan.budget(budget);
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
/// the child that creates it (exactly one: the file is created only if
/// absent) writes a deliberately torn report and dies with exit code 17 —
/// a crash-once hook so CI can prove the coordinator's retry path
/// re-dispatches and still merges byte-identically. The children run at
/// once, so which shard crashes is whichever reaches the hook first; every
/// other child sees the token and proceeds.
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
        let created = std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&token);
        if let Ok(mut file) = created {
            let _ = file.write_all(b"crashed once\n");
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

/// Coordinator mode: re-invoke this binary once per shard, up to one
/// child per core at once, retry crashed children, and merge the
/// collected reports in-process. The children's reports go to a fresh
/// temp directory, removed on every exit path once every child has been
/// waited for.
fn run_sharded(
    plan: &AuditPlan<'_>,
    args: &Args,
    shards: usize,
    recorder: Option<&dyn SweepRecorder>,
) -> Result<AuditReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let dir = std::env::temp_dir().join(format!("audit-shards-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let merged = dispatch_and_merge(plan, args, shards, recorder, &exe, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    merged
}

/// One launched `--shard` child. The child never writes to its standard
/// output, a pipe to the coordinator that reaches end of file when the
/// child exits: so one thread can wait for the exit while another may
/// still kill the child.
struct ShardChild {
    label: String,
    attempt: usize,
    out: PathBuf,
    /// The child and the read end of its standard output, or why it
    /// could not be started.
    launched: Result<(Mutex<Child>, Mutex<ChildStdout>), String>,
}

impl ShardAttempt for ShardChild {
    type Output = String;

    fn wait(&self) {
        if let Ok((_, stdout)) = &self.launched {
            let mut stdout = stdout.lock().expect("only the waiter reads the pipe");
            let _ = std::io::copy(&mut *stdout, &mut std::io::sink());
        }
    }

    fn abort(&self) {
        if let Ok((child, _)) = &self.launched {
            let _ = child.lock().expect("the child's lock").kill();
        }
    }

    fn finish(self) -> Result<String, String> {
        let (child, _) = self.launched?;
        let label = self.label;
        let status = child
            .into_inner()
            .expect("the child's lock")
            .wait()
            .map_err(|e| format!("cannot wait for shard {label}: {e}"))?;
        if !status.success() {
            return Err(format!(
                "shard {label} (attempt {}) exited with {status}",
                self.attempt
            ));
        }
        std::fs::read_to_string(&self.out).map_err(|e| format!("shard {label} left no report: {e}"))
    }
}

/// Runs the `shards` children, each writing its report into `dir`, and
/// merges their reports.
fn dispatch_and_merge(
    plan: &AuditPlan<'_>,
    args: &Args,
    shards: usize,
    recorder: Option<&dyn SweepRecorder>,
    exe: &Path,
    dir: &Path,
) -> Result<AuditReport, String> {
    let base = child_args(args);
    let retries = args.shard_retries.unwrap_or(2);
    let run = run_shards(shards, retries, recorder, |spec, attempt| {
        let label = spec.label();
        let out = dir.join(format!("shard-{}-of-{}.txt", spec.index, spec.of));
        let _ = std::fs::remove_file(&out);
        let launched = Command::new(exe)
            .args(&base)
            .arg("--shard")
            .arg(&label)
            .arg("--shard-out")
            .arg(&out)
            .stdout(Stdio::piped())
            .spawn()
            .map(|mut child| {
                let stdout = child.stdout.take().expect("the child's stdout is piped");
                (Mutex::new(child), Mutex::new(stdout))
            })
            .map_err(|e| format!("cannot spawn shard {label}: {e}"));
        ShardChild {
            label,
            attempt,
            out,
            launched,
        }
    })?;
    let merged = plan.run_with_shards(&run.results)?;
    eprintln!(
        "audit: {} shards merged ({} dispatches, {} retries)",
        shards, run.dispatches, run.retries
    );
    Ok(merged)
}

/// The flags a shard child needs to rebuild the coordinator's plan with
/// an identical fingerprint (decoder, k, seed, universe, strategy, mode,
/// budget). Output and shard flags are deliberately not forwarded.
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
    if let ExecMode::Parallel(t) = args.mode {
        v.push("--threads".to_string());
        v.push(t.to_string());
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
