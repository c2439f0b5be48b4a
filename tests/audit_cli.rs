//! End-to-end checks of the built `audit` binary: flag validation, shard
//! report hardening, the sharded byte-identity contract (strategies and
//! a crashed child included), and what a budget means sharded and
//! unsharded.

use hiding_lcp::core::verify::plan::STABLE_COUNTER_ALLOWLIST;
use hiding_lcp::core::verify::ShardSpec;
use proptest::prelude::*;
use proptest::rand::rngs::StdRng;
use proptest::rand::Rng;
use std::ffi::OsStr;
use std::os::unix::ffi::OsStrExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn audit<S: AsRef<OsStr>>(args: &[S]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_audit"))
        .args(args)
        .output()
        .expect("the audit binary runs")
}

/// A fresh directory under the system temp dir, unique to this
/// process and `name`.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("audit-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn max_n_outside_the_buildable_family_is_a_usage_error() {
    // 0 would audit an empty family, 5 trips the port-assignment cap on
    // K5, and 9 is past the graph enumerator.
    for n in ["0", "5", "9"] {
        let out = audit(&["--decoder", "degree-one", "--max-n", n]);
        assert_eq!(out.status.code(), Some(2), "--max-n {n}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(
            err.contains("--max-n") && err.contains("1 to 4"),
            "--max-n {n} must name the limit: {err}"
        );
    }
}

#[test]
fn bad_flag_values_are_usage_errors() {
    // Each row must exit 2 with a message, never panic: revealing
    // certificates are one-byte colors.
    let rows: &[&[&str]] = &[
        &["--decoder", "revealing:0"],
        &["--decoder", "revealing:300"],
        &["--decoder", "revealing:99999999999"],
        &["--decoder", "revealing:two"],
        &["--decoder", "nope"],
        &["--strategy", "fastest"],
        &["--strategy", "quotient"],
        &["--sequential"],
        &["--threads", "x"],
        &["--threads", "0"],
        &["--threads", "100000"],
        &["--shard", "2/2"],
        &["--shards", "0"],
        &["--shards", "1025"],
    ];
    // A value that is not UTF-8 names itself instead of panicking.
    let raw = OsStr::from_bytes(b"\xff");
    let rows = rows
        .iter()
        .map(|row| row.iter().map(OsStr::new).collect::<Vec<_>>())
        .chain([vec![OsStr::new("--decoder"), raw]]);
    for row in rows {
        let out = audit(&[&[OsStr::new("--max-n"), OsStr::new("1")], &row[..]].concat());
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{row:?}: {err}");
        assert!(!err.contains("panicked"), "{row:?}: {err}");
    }
    let err = stderr(&audit(&[OsStr::new("--decoder"), raw]));
    assert!(err.contains("\\xFF"), "the bad argument is named: {err}");
    for (flag, value, range) in [
        ("--decoder", "revealing:0", "1 to 255"),
        ("--threads", "0", "1 to 1024"),
        ("--shards", "0", "1 to 1024"),
    ] {
        let err = stderr(&audit(&["--max-n", "1", flag, value]));
        assert!(
            err.contains(range),
            "{flag} {value} must name the range: {err}"
        );
    }
    // No flag injects communication faults: a command line that asks
    // for them must fail rather than audit less than it says.
    for (flag, value) in [("--fault-rates", "0.1"), ("--fault-trials", "4")] {
        let out = audit(&["--max-n", "1", flag, value]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{flag}: {err}");
        assert!(
            err.contains(&format!("audit: unknown flag {flag}")),
            "{flag}: {err}"
        );
    }
}

/// The value-taking flags that name no output file.
const VALUE_FLAGS: [&str; 12] = [
    "--decoder",
    "--max-n",
    "--properties",
    "--threads",
    "--strategy",
    "--budget-ms",
    "--budget-items",
    "--seed",
    "--shard",
    "--shards",
    "--shard-retries",
    "--shards-from",
];

/// Raw argument bytes that reach every parser branch: arbitrary bytes
/// (mostly not UTF-8; never NUL, which no argument can hold), decimal
/// numbers from one digit to past `u64`, printable ASCII, and `i/N`-shaped
/// pairs of decimals.
#[derive(Debug, Clone, Copy)]
struct RawArg;

impl Strategy for RawArg {
    type Value = Vec<u8>;

    fn sample(&self, rng: &mut StdRng) -> Vec<u8> {
        let decimal = |rng: &mut StdRng, max_digits: usize| -> Vec<u8> {
            let digits = rng.random_range(1..=max_digits);
            (0..digits).map(|_| rng.random_range(b'0'..=b'9')).collect()
        };
        let len = rng.random_range(0..=8usize);
        match rng.random_range(0..4u8) {
            0 => (0..len).map(|_| rng.random_range(1..=255u8)).collect(),
            1 => decimal(rng, 21),
            2 => (0..len).map(|_| rng.random_range(b' '..=b'~')).collect(),
            _ => {
                let mut pair = decimal(rng, 3);
                pair.push(b'/');
                pair.extend(decimal(rng, 3));
                pair
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `ShardSpec::parse` never panics, and every spec it accepts prints a
    /// label that parses back to the same spec.
    #[test]
    fn shard_spec_parse_round_trips(raw in RawArg) {
        let text = String::from_utf8_lossy(&raw);
        if let Ok(spec) = ShardSpec::parse(&text) {
            prop_assert_eq!(ShardSpec::parse(&spec.label()), Ok(spec));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any raw bytes after any value-taking flag end in a verdict (exit 0
    /// or 1) or a usage error (exit 2), never a panic; and `--threads` is
    /// a usage error exactly when its value is not a count from 1 to 1024.
    #[test]
    fn random_flag_values_exit_cleanly(values in collection::vec(RawArg, Just(VALUE_FLAGS.len()))) {
        for (flag, raw) in VALUE_FLAGS.iter().zip(values) {
            let number = std::str::from_utf8(&raw)
                .ok()
                .and_then(|s| s.parse::<usize>().ok());
            // A coordinator spawns one child per shard and retries each:
            // keep both counts small.
            let raw = match number {
                Some(n) if matches!(*flag, "--shards" | "--shard-retries") => {
                    (n % 3).to_string().into_bytes()
                }
                _ => raw,
            };
            let out = audit(&[
                OsStr::new("--decoder"),
                OsStr::new("degree-one"),
                OsStr::new("--max-n"),
                OsStr::new("1"),
                OsStr::new(flag),
                OsStr::from_bytes(&raw),
            ]);
            let err = stderr(&out);
            let shown = String::from_utf8_lossy(&raw);
            prop_assert!(
                matches!(out.status.code(), Some(0..=2)),
                "{} {:?}: {} {}", flag, shown, out.status, err
            );
            prop_assert!(!err.contains("panicked"), "{} {:?}: {}", flag, shown, err);
            if *flag == "--threads" {
                let in_range = number.is_some_and(|t| (1..=1024).contains(&t));
                prop_assert_eq!(
                    out.status.code() == Some(2),
                    !in_range,
                    "--threads {:?}: {}", shown, err
                );
            }
        }
    }
}

/// Writes the two shard reports of the `degree-one`, `--max-n 3` audit
/// into `dir` (`[0, 640)` and `[640, 1280)` of its 1,280 labelings).
fn write_shard_reports(dir: &Path, extra: &[&str]) -> (PathBuf, PathBuf) {
    let paths = (dir.join("shard-0.txt"), dir.join("shard-1.txt"));
    for (spec, path) in [("0/2", &paths.0), ("1/2", &paths.1)] {
        let path = path.to_str().expect("utf-8 path");
        let args = ["--decoder", "degree-one", "--max-n", "3", "--shard", spec];
        let out = audit(&[&args[..], extra, &["--shard-out", path]].concat());
        assert!(out.status.success(), "shard {spec}: {}", stderr(&out));
    }
    (paths.0, paths.1)
}

/// FNV-1a 64, the shard report checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Rewrites the shard report at `path` through `edit`, which sees its
/// lines without the trailer, and seals the result with a fresh checksum,
/// as a deliberate forger would.
fn reseal(path: &Path, edit: impl FnOnce(&mut Vec<String>)) {
    let text = std::fs::read_to_string(path).expect("shard report");
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let trailer = lines.pop().expect("a trailer line");
    assert!(trailer.starts_with("end shardreport "), "{trailer}");
    edit(&mut lines);
    let mut body: String = lines.iter().map(|l| format!("{l}\n")).collect();
    body.push_str(&format!(
        "end shardreport {:016x}\n",
        fnv1a64(body.as_bytes())
    ));
    std::fs::write(path, body).expect("rewrite shard report");
}

/// The index of the first line starting with `prefix`.
fn line_index(lines: &[String], prefix: &str) -> usize {
    lines
        .iter()
        .position(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no line starting with `{prefix}`"))
}

/// Inserts `line` right after the first line of `path` that starts with
/// `after`, and reseals the report.
fn insert_after(path: &Path, after: &str, line: &str) {
    reseal(path, |lines| {
        let at = line_index(lines, after) + 1;
        lines.insert(at, line.to_string());
    });
}

fn merge(dir: &Path) -> Output {
    audit(&[
        "--decoder",
        "degree-one",
        "--max-n",
        "3",
        "--stable",
        "--shards-from",
        dir.to_str().expect("utf-8 path"),
    ])
}

/// Asserts that merging `dir` fails with exit 2 and a message naming
/// every one of `names`.
fn assert_merge_rejected(dir: &Path, names: &[&str]) {
    let out = merge(dir);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    for name in names {
        assert!(err.contains(name), "the error must name `{name}`: {err}");
    }
}

#[test]
fn shard_merge_rejects_partials_outside_the_shard_range() {
    let dir = fresh_dir("tamper");
    let (_, second) = write_shard_reports(&dir, &[]);
    let clean = merge(&dir);
    assert_ne!(clean.status.code(), Some(2), "{}", stderr(&clean));
    let pristine = std::fs::read_to_string(&second).expect("shard report");
    assert!(pristine.contains("range 640 1280"), "{pristine}");

    // An item past the universe must be rejected before it is decoded.
    insert_after(&second, "member 0 ", "p 99999");
    assert_merge_rejected(&dir, &["member 0", "item 99999"]);

    // An in-universe item outside this report's own range must not merge:
    // it would flip the strong verdict.
    std::fs::write(&second, &pristine).expect("restore shard report");
    insert_after(&second, "member 1 strong", "p 5");
    assert_merge_rejected(&dir, &["member 1", "item 5"]);

    // A counter the engine does not define must not reach the recorder.
    std::fs::write(&second, &pristine).expect("restore shard report");
    insert_after(&second, "next ", "counter items_forged 7");
    assert_merge_rejected(&dir, &["items_forged"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-sealed reports whose records the walk could not have made fail the
/// merge's replay. Item 700 is a labeled triangle, a no-instance.
#[test]
fn shard_merge_rejects_forged_records() {
    let dir = fresh_dir("forged");
    let (first, second) = write_shard_reports(&dir, &[]);
    let pristine = [&first, &second].map(|p| std::fs::read_to_string(p).expect("shard report"));
    let restore = || {
        for (path, text) in [&first, &second].into_iter().zip(&pristine) {
            std::fs::write(path, text).expect("restore shard report");
        }
    };

    // A scan record moved from the first report onto item 700: the scan
    // never records a no-instance.
    reseal(&first, |lines| {
        let at = line_index(lines, "member 2 scan") + 1;
        assert!(lines[at].starts_with("p "), "a scan record: {}", lines[at]);
        lines.remove(at);
    });
    insert_after(&second, "member 2 scan", "p 700");
    assert_merge_rejected(&dir, &["member 2", "item 700"]);

    // A strong-soundness violation at item 700, which would flip strong.
    restore();
    insert_after(&second, "member 1 strong", "p 700");
    assert_merge_rejected(&dir, &["member 1", "item 700"]);

    // Reports walked under another strategy: the replay classifies orbits
    // under the merging plan's.
    restore();
    write_shard_reports(&dir, &["--strategy", "oracle"]);
    assert_merge_rejected(&dir, &["strategy"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The item indices a shard report lists for `member`'s partials.
fn listed_partials(report: &str, member: &str) -> Vec<usize> {
    report
        .lines()
        .skip_while(|l| !l.starts_with(member))
        .skip(1)
        .take_while(|l| l.starts_with("p ") || l.starts_with("e "))
        .filter_map(|l| l.strip_prefix("p "))
        .map(|i| i.parse().expect("an item index"))
        .collect()
}

/// The Lemma 3.1 scan folds its records, so a shard report lists only the
/// range's witness items: at most one per view, edge and self-loop of the
/// unsharded `V(D, n)` (74 + 164 + 0 for degree-one at n <= 4), where a
/// report that kept every partial listed all 3,335 yes-items of shard 0/2.
#[test]
fn scan_shard_records_are_witness_items() {
    let out = audit(&["--decoder", "degree-one", "--max-n", "4", "--shard", "0/2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let report = String::from_utf8(out.stdout).expect("a utf-8 report");
    let scan = listed_partials(&report, "member 2 scan");
    assert!(
        (1..=74 + 164).contains(&scan.len()),
        "{} scan records",
        scan.len()
    );
    assert!(scan.windows(2).all(|w| w[0] < w[1]), "one line per item");
}

/// The merge replays a report's scan items in order and keeps what the
/// fold keeps, so a re-sealed report that adds a yes-item witnessing
/// nothing its listed predecessors do not fails its replay.
#[test]
fn shard_merge_rejects_a_scan_item_the_fold_would_not_keep() {
    use hiding_lcp::certs::degree_one;
    use hiding_lcp::core::verify::Universe;
    let dir = fresh_dir("unkept");
    let oracle = ["--strategy", "oracle"];
    let (first, _) = write_shard_reports(&dir, &oracle);
    let report = std::fs::read_to_string(&first).expect("shard report");
    let listed = listed_partials(&report, "member 2 scan");
    // The first bipartite (yes-instance) item past the first witness that
    // the report does not list.
    let universe = Universe::lemma31(3, degree_one::adversary_alphabet()).expect("n <= 3 fits");
    let yes = |i: usize| {
        let block = &universe.blocks()[universe.locate(i).0];
        hiding_lcp::graph::algo::bipartite::is_bipartite(block.instance().graph())
    };
    let forged = (listed[0]..640)
        .find(|&i| yes(i) && !listed.contains(&i))
        .expect("a yes-item the fold does not keep");
    reseal(&first, |lines| {
        let before = listed.iter().filter(|&&i| i < forged).count();
        let at = line_index(lines, "member 2 scan") + 1 + before;
        lines.insert(at, format!("p {forged}"));
    });
    let out = audit(&[
        "--decoder",
        "degree-one",
        "--max-n",
        "3",
        "--strategy",
        "oracle",
        "--stable",
        "--shards-from",
        dir.to_str().expect("utf-8 path"),
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    for name in ["fails its replay", "member 2", &format!("item {forged}")] {
        assert!(err.contains(name), "the error must name `{name}`: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Item 700 lies in a triangle block that is a port-isomorphic copy of
/// an earlier one, so the walk jumps over it and no report can list a
/// record there. The merge must reject such a listing before replaying
/// it: a copy has no skeletons, so its replay would panic into a caught
/// error, and a listed error would merge as a silent coverage downgrade.
#[test]
fn shard_merge_rejects_records_in_copy_blocks() {
    let dir = fresh_dir("copy");
    let (_, second) = write_shard_reports(&dir, &[]);
    insert_after(&second, "member 0 soundness", "e 700");
    assert_merge_rejected(&dir, &["member 0", "item 700", "copy"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `audit --stable` with `args` plus `--out` into `dir/name`, and
/// returns the exit code, the report bytes and the standard error.
fn stable_run(
    dir: &Path,
    name: &str,
    args: &[&str],
    env: &[(&str, &Path)],
) -> (Option<i32>, Vec<u8>, String) {
    let path = dir.join(name);
    let out = Command::new(env!("CARGO_BIN_EXE_audit"))
        .args(args)
        .args(["--stable", "--out", path.to_str().expect("utf-8 path")])
        .envs(env.iter().copied())
        .output()
        .expect("the audit binary runs");
    let report = std::fs::read(&path).unwrap_or_default();
    assert!(!report.is_empty(), "{name}: {}", stderr(&out));
    (out.status.code(), report, stderr(&out))
}

#[test]
fn two_shards_merge_byte_identical_to_one_process() {
    let dir = fresh_dir("bytes");
    let token = dir.join("crash.token");
    // The merge replays the listed items under the plan's strategy, so
    // both strategies must merge back to the unsharded bytes; so must a
    // run one of whose children crashes once (exit 17 after writing a
    // torn report) and is retried.
    let cases: [(&[&str], bool); 3] = [
        (&["--max-n", "4"], false),
        (&["--max-n", "3", "--strategy", "oracle"], false),
        (&["--max-n", "3"], true),
    ];
    for (flags, crash) in cases {
        let args = [&["--decoder", "degree-one"], flags].concat();
        let one = stable_run(&dir, "single.json", &args, &[]);
        let sharded = [&args[..], &["--shards", "2"]].concat();
        let env: &[_] = if crash {
            &[("AUDIT_SHARD_CRASH", token.as_path())]
        } else {
            &[]
        };
        let two = stable_run(&dir, "merged.json", &sharded, env);
        if crash {
            assert!(token.exists(), "the crash hook fired: {}", two.2);
            assert!(two.2.contains("1 retries"), "{}", two.2);
        }
        assert_eq!(one.0, two.0, "{flags:?}: {}", two.2);
        assert!(
            one.1 == two.1,
            "{flags:?}: the 2-shard --stable report differs"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Only the decode oracle walks every labeling of every block; delta
/// stepping jumps the port-isomorphic copies and skips non-canonical
/// orbit members. The reports must not tell them apart.
#[test]
fn jumping_copy_blocks_keeps_the_oracle_bytes() {
    let dir = fresh_dir("oracle");
    for decoder in ["degree-one", "even-cycle", "revealing:2"] {
        let args = ["--decoder", decoder, "--max-n", "3"];
        let jumped = stable_run(&dir, "jumped.json", &args, &[]);
        let oracle = [&args[..], &["--strategy", "oracle"]].concat();
        let full = stable_run(&dir, "full.json", &oracle, &[]);
        assert_eq!(jumped.0, full.0, "{decoder}: {}", jumped.2);
        assert!(jumped.1 == full.1, "{decoder}: the --stable reports differ");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The degree-one audit at n <= 4 steps through 74,780 of its 932,530
/// labelings, the 124 port-isomorphism classes' first blocks, and
/// inspects 67,450 orbit representatives among them. The three members
/// (soundness, strong, scan) each count every labeling as walked, the
/// multiplicities re-add to the same total, and each representative
/// refreshes the shared verdict channel once and reads it back once.
#[test]
fn copy_blocks_move_only_the_inspection_counters() {
    let dir = fresh_dir("metrics");
    let metrics = dir.join("metrics.json");
    let out = audit(&[
        "--decoder",
        "degree-one",
        "--max-n",
        "4",
        "--metrics-out",
        metrics.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = std::fs::read_to_string(&metrics).expect("metrics file");
    let counter = |name: &str| {
        let at = json.find(&format!("\"{name}\": ")).expect(name) + name.len() + 4;
        let digits: String = json[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse::<u64>().expect(name)
    };
    assert_eq!(counter("items_inspected"), 202_387);
    assert_eq!(counter("items_walked"), 2_797_627);
    assert_eq!(counter("orbit_multiplicity"), 2_797_627);
    assert_eq!(counter("verdict_refreshes"), 67_450);
    assert_eq!(counter("verdict_readbacks"), 67_450);
    assert_eq!(counter("quotient_blocks"), 69);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sharded run's metrics file counts the children's walk: every
/// shard-composable stable counter equals the unsharded run's, the walk
/// included. `cache_hits` and `cache_misses` stay per-process.
#[test]
fn sharded_metrics_carry_the_childrens_walk() {
    let dir = fresh_dir("sharded-metrics");
    let metrics = dir.join("metrics.json");
    let allowlisted = |shards: &[&str]| {
        let args = [
            "--decoder",
            "degree-one",
            "--max-n",
            "4",
            "--threads",
            "2",
            "--metrics-out",
            metrics.to_str().expect("utf-8 path"),
        ];
        let out = audit(&[&args[..], shards].concat());
        assert!(out.status.success(), "{shards:?}: {}", stderr(&out));
        let json = std::fs::read_to_string(&metrics).expect("metrics file");
        let start = json.find("\"stable\": {").expect("a stable section");
        let stable = &json[start..start + json[start..].find('}').expect("the section closes")];
        STABLE_COUNTER_ALLOWLIST
            .iter()
            .map(|name| {
                let at = stable.find(&format!("\"{name}\": ")).expect(name) + name.len() + 4;
                let digits: String = stable[at..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                (*name, digits.parse::<u64>().expect(name))
            })
            .collect::<Vec<_>>()
    };
    let unsharded = allowlisted(&[]);
    assert!(
        unsharded.contains(&("items_walked", 2_797_627)),
        "{unsharded:?}"
    );
    for shards in ["2", "3"] {
        assert_eq!(
            allowlisted(&["--shards", shards]),
            unsharded,
            "--shards {shards}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sharded run records one `merge` phase (parse, replay and tiling
/// check), and its merge still records the labelings panel's `reduce`, so
/// both runs record one reduce per panel; an unsharded run merges nothing.
#[test]
fn only_a_sharded_run_records_a_merge_phase() {
    let dir = fresh_dir("merge-phase");
    let metrics = dir.join("metrics.json");
    for (shards, merges) in [(&[][..], 0), (&["--shards", "2"][..], 1)] {
        let args = ["--decoder", "degree-one", "--max-n", "3", "--metrics-out"];
        let out = audit(&[&args[..], &[metrics.to_str().expect("utf-8 path")], shards].concat());
        // At n <= 3 degree-one is not hiding yet: exit 1, a verdict.
        assert_eq!(out.status.code(), Some(1), "{shards:?}: {}", stderr(&out));
        let json = std::fs::read_to_string(&metrics).expect("metrics file");
        let phase = format!("\"merge\": {{\"count\": {merges},");
        assert!(json.contains(&phase), "{shards:?}: no `{phase}` in {json}");
        assert!(
            json.contains("\"reduce\": {\"count\": 4,"),
            "{shards:?}: {json}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The metrics snapshot's stable counters are a function of the walk's
/// inputs, not of how its workers interleave. The revealing:3 scan's
/// workers race to fill the same front-cache entries, and only the fill
/// that lands counts its stamp in `cache_hits`.
#[test]
fn stable_counters_do_not_depend_on_the_thread_count() {
    let dir = fresh_dir("stable-counters");
    let metrics = dir.join("metrics.json");
    let stable = |threads: &str| {
        let out = audit(&[
            "--decoder",
            "revealing:3",
            "--max-n",
            "4",
            "--threads",
            threads,
            "--metrics-out",
            metrics.to_str().expect("utf-8 path"),
        ]);
        assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
        let json = std::fs::read_to_string(&metrics).expect("metrics file");
        let start = json.find("\"stable\": {").expect("a stable section");
        let end = start + json[start..].find('}').expect("the section closes");
        json[start..=end].to_string()
    };
    let sequential = stable("1");
    assert!(sequential.contains("\"cache_hits\": "), "{sequential}");
    for run in 0..5 {
        assert_eq!(stable("2"), sequential, "run {run} at --threads 2");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each row names a flag the chosen mode never reads; the run must stop
/// with a usage error naming it instead of doing less than it says.
#[test]
fn flags_idle_in_the_chosen_mode_are_usage_errors() {
    let dir = fresh_dir("idle");
    let reports = dir.join("reports");
    std::fs::create_dir_all(&reports).expect("reports dir");
    write_shard_reports(&reports, &[]);
    let reports = reports.to_str().expect("utf-8 path");
    let file = dir.join("unwritten.txt");
    let file = file.to_str().expect("utf-8 path");
    let rows: [(&str, &[&str]); 8] = [
        ("--shard-out", &["--shard-out", file]),
        ("--shard-retries", &["--shard-retries", "1"]),
        ("--out", &["--shard", "0/2", "--out", file]),
        ("--stable", &["--shard", "0/2", "--stable"]),
        ("--trace-out", &["--shard", "0/2", "--trace-out", file]),
        ("--metrics-out", &["--shard", "0/2", "--metrics-out", file]),
        (
            "--budget-ms",
            &["--shards-from", reports, "--budget-ms", "5"],
        ),
        (
            "--budget-items",
            &["--shards-from", reports, "--budget-items", "5"],
        ),
    ];
    for (flag, row) in rows {
        let out = audit(&[&["--decoder", "degree-one", "--max-n", "3"], row].concat());
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{row:?}: {err}");
        assert!(
            err.contains(&format!("audit: {flag} does nothing")),
            "{row:?} must name {flag}: {err}"
        );
        assert!(!Path::new(file).exists(), "{row:?} wrote {file}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The coordinator waits for each child on a thread of its own, so each
/// `shard:i/N` span sits on a lane of its own and the trace stays
/// balanced while the children overlap.
#[test]
fn a_sharded_trace_keeps_each_child_on_its_own_lane() {
    let dir = fresh_dir("shard-trace");
    let trace = dir.join("trace.json");
    let args = ["--decoder", "degree-one", "--max-n", "3", "--shards", "2"];
    let out = audit(
        &[
            &args[..],
            &["--trace-out", trace.to_str().expect("utf-8 path")],
        ]
        .concat(),
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let json = std::fs::read_to_string(&trace).expect("trace file");
    assert!(json.contains("\"droppedEvents\": 0"), "{json}");
    // (name, phase, lane) of each event; the export writes one per line.
    let events: Vec<(String, String, String)> = json
        .lines()
        .filter_map(|line| {
            let field = |key: &str| {
                let rest = line.split_once(&format!("\"{key}\": "))?.1;
                let value = rest.split([',', '}']).next()?;
                Some(value.trim_matches('"').to_string())
            };
            Some((field("name")?, field("ph")?, field("tid")?))
        })
        .collect();
    let mut open: std::collections::HashMap<&str, Vec<&str>> = Default::default();
    for (name, phase, lane) in &events {
        let stack = open.entry(lane).or_default();
        if phase == "B" {
            stack.push(name);
        } else {
            assert_eq!(stack.pop(), Some(name.as_str()), "lane {lane}: {json}");
        }
    }
    assert!(open.values().all(|stack| stack.is_empty()), "{json}");
    let lanes = |span: &str| -> Vec<&str> {
        events
            .iter()
            .filter(|(name, phase, _)| name == span && phase == "B")
            .map(|(_, _, lane)| lane.as_str())
            .collect()
    };
    let (first, second) = (lanes("shard:0/2"), lanes("shard:1/2"));
    assert_eq!((first.len(), second.len()), (1, 1), "{json}");
    assert_ne!(first, second, "the children share a lane: {json}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The coordinator's shard reports live in a temp directory of their
/// own, which must go on every exit path, a failed merge and a child
/// past its retry cap included.
#[test]
fn sharded_audits_leave_no_shard_files_behind() {
    let tmp = fresh_dir("tmpdir");
    let token = fresh_dir("tmpdir-token").join("crash.token");
    let sharded = |extra: &[&str], crash: bool| {
        let args = ["--decoder", "degree-one", "--max-n", "3", "--shards", "2"];
        let mut command = Command::new(env!("CARGO_BIN_EXE_audit"));
        command
            .args([&args[..], extra].concat())
            .env("TMPDIR", &tmp);
        if crash {
            command.env("AUDIT_SHARD_CRASH", &token);
        }
        command.output().expect("the audit binary runs")
    };
    let leftovers = || std::fs::read_dir(&tmp).expect("temp dir").count();
    let merged = sharded(&[], false);
    assert!(
        matches!(merged.status.code(), Some(0 | 1)),
        "{}",
        stderr(&merged)
    );
    assert_eq!(leftovers(), 0, "a merged run left files behind");
    // A zero deadline stops both children before their first item.
    let torn = sharded(&["--budget-ms", "0"], false);
    assert_eq!(torn.status.code(), Some(2), "{}", stderr(&torn));
    assert_eq!(leftovers(), 0, "a failed merge left files behind");
    // With no retries, the child that crashes fails the run.
    let crashed = sharded(&["--shard-retries", "0"], true);
    let err = stderr(&crashed);
    assert_eq!(crashed.status.code(), Some(2), "{err}");
    assert!(err.contains("failed after 1 attempts"), "{err}");
    assert_eq!(leftovers(), 0, "a child past its cap left files behind");
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir_all(token.parent().expect("the token's dir"));
}

/// `--stable` stdout of the budgeted degree-one audit at `--max-n 4`,
/// `--threads 2`, over the labelings panel's four properties, stopped
/// after 1,000 items.
const BUDGET_ITEMS_1000: &str = r#"{
  "decoder": "degree-one (Lemma 4.1)",
  "k": 2,
  "seed": 2698083927,
  "panels": [
    {
      "shape": "labelings",
      "universe_size": 932530,
      "checked": 1000,
      "threads": 2,
      "elapsed_ms": 0.000,
      "cache_hits": 0,
      "cache_misses": 0,
      "memo_hits": 0,
      "memo_misses": 0,
      "interrupted": true,
      "members": [
        {"property": "soundness", "label": "soundness", "passed": true, "detail": "no unanimous accept on a no-instance", "checked": 1000, "short_circuited": false, "interrupted": true, "coverage": "sampled", "errors": 0},
        {"property": "strong", "label": "strong", "passed": true, "detail": "every accepting set in 1000 labelings induces G(L)", "checked": 1000, "short_circuited": false, "interrupted": true, "coverage": "sampled", "errors": 0},
        {"property": "hiding", "label": "hiding", "passed": null, "detail": "V(D, .) k-colorable but the walk did not cover the universe", "checked": 1000, "short_circuited": false, "interrupted": true, "coverage": "sampled", "errors": 0},
        {"property": "quantified", "label": "quantified", "passed": null, "detail": "0 of 24 views unextractable", "checked": 1000, "short_circuited": false, "interrupted": true, "coverage": "sampled", "errors": 0}
      ]
    }
  ],
  "telemetry": [],
  "notes": ["labelings panel interrupted by budget; verdicts cover the visited prefix"]
}
"#;

/// The same audit under a zero deadline, which stops the walk before
/// its first item.
const BUDGET_MS_0: &str = r#"{
  "decoder": "degree-one (Lemma 4.1)",
  "k": 2,
  "seed": 2698083927,
  "panels": [
    {
      "shape": "labelings",
      "universe_size": 932530,
      "checked": 0,
      "threads": 2,
      "elapsed_ms": 0.000,
      "cache_hits": 0,
      "cache_misses": 0,
      "memo_hits": 0,
      "memo_misses": 0,
      "interrupted": true,
      "members": [
        {"property": "soundness", "label": "soundness", "passed": true, "detail": "no unanimous accept on a no-instance", "checked": 0, "short_circuited": false, "interrupted": true, "coverage": "sampled", "errors": 0},
        {"property": "strong", "label": "strong", "passed": true, "detail": "every accepting set in 0 labelings induces G(L)", "checked": 0, "short_circuited": false, "interrupted": true, "coverage": "sampled", "errors": 0},
        {"property": "hiding", "label": "hiding", "passed": null, "detail": "V(D, .) k-colorable but the walk did not cover the universe", "checked": 0, "short_circuited": false, "interrupted": true, "coverage": "sampled", "errors": 0},
        {"property": "quantified", "label": "quantified", "passed": null, "detail": "0 of 0 views unextractable", "checked": 0, "short_circuited": false, "interrupted": true, "coverage": "sampled", "errors": 0}
      ]
    }
  ],
  "telemetry": [],
  "notes": ["labelings panel interrupted by budget; verdicts cover the visited prefix"]
}
"#;

/// A budget means one walk, sharded or not: a `--shard` child the budget
/// stops writes how far it got, the coordinator refuses to merge that
/// torn range, and an unsharded budgeted run reports its sample.
#[test]
fn a_budget_bounds_each_walk_and_a_stopped_child_does_not_merge() {
    let degree_one = ["--decoder", "degree-one", "--max-n", "4"];
    let budget = ["--budget-items", "1000"];
    let child = audit(&[&degree_one[..], &["--shard", "1/2"], &budget].concat());
    assert!(child.status.success(), "{}", stderr(&child));
    let report = String::from_utf8_lossy(&child.stdout);
    assert!(
        report.contains("\nrange 466265 932530\nnext 467265\n"),
        "the child walks 1,000 items of its range: {report}"
    );

    let sharded = audit(&[&degree_one[..], &["--shards", "2"], &budget].concat());
    let err = stderr(&sharded);
    assert_eq!(sharded.status.code(), Some(2), "{err}");
    assert!(
        err.contains("[0, 466265) is torn") && err.contains("stopped at item 1000"),
        "the merge names the torn range and where its walk stopped: {err}"
    );
    assert!(
        !err.contains("shards merged"),
        "a rejected merge is not announced as merged: {err}"
    );
    let merged = audit(
        &[
            &degree_one[..],
            &["--shards", "2", "--budget-items", "466265"],
        ]
        .concat(),
    );
    let err = stderr(&merged);
    assert!(merged.status.success(), "{err}");
    assert!(
        err.contains("2 shards merged (2 dispatches, 0 retries)"),
        "a budget past every range merges and says so: {err}"
    );

    let labelings = ["--properties", "soundness,strong,hiding,quantified"];
    for (budget, expected) in [
        (&budget[..], BUDGET_ITEMS_1000),
        (&["--budget-ms", "0"][..], BUDGET_MS_0),
    ] {
        let args = [
            &degree_one[..],
            &["--threads", "2", "--stable"],
            &labelings,
            budget,
        ]
        .concat();
        let out = audit(&args);
        assert_eq!(out.status.code(), Some(0), "{budget:?}: {}", stderr(&out));
        assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "{budget:?}");
    }
}
