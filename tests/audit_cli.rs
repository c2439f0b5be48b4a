//! End-to-end checks of the built `audit` binary: flag validation, shard
//! report hardening, and the 2-shard byte-identity contract.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn audit(args: &[&str]) -> Output {
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

/// Writes the two shard reports of the `degree-one`, `--max-n 3` audit
/// into `dir` (`[0, 640)` and `[640, 1280)` of its 1,280 labelings).
fn write_shard_reports(dir: &Path) -> (PathBuf, PathBuf) {
    let paths = (dir.join("shard-0.txt"), dir.join("shard-1.txt"));
    for (spec, path) in [("0/2", &paths.0), ("1/2", &paths.1)] {
        let out = audit(&[
            "--decoder",
            "degree-one",
            "--max-n",
            "3",
            "--shard",
            spec,
            "--shard-out",
            path.to_str().expect("utf-8 path"),
        ]);
        assert!(out.status.success(), "shard {spec}: {}", stderr(&out));
    }
    (paths.0, paths.1)
}

/// Inserts `line` right after the first line of `path` that starts with
/// `after`.
fn insert_after(path: &Path, after: &str, line: &str) {
    let text = std::fs::read_to_string(path).expect("shard report");
    let mut out = String::new();
    let mut done = false;
    for l in text.lines() {
        out.push_str(l);
        out.push('\n');
        if !done && l.starts_with(after) {
            out.push_str(line);
            out.push('\n');
            done = true;
        }
    }
    assert!(
        done,
        "no line starting with `{after}` in {}",
        path.display()
    );
    std::fs::write(path, out).expect("rewrite shard report");
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

#[test]
fn shard_merge_rejects_partials_outside_the_shard_range() {
    let dir = fresh_dir("tamper");
    let (_, second) = write_shard_reports(&dir);
    let clean = merge(&dir);
    assert_ne!(clean.status.code(), Some(2), "{}", stderr(&clean));
    let header = std::fs::read_to_string(&second).expect("shard report");
    assert!(header.contains("range 640 1280"), "{header}");

    // An item past the universe must be rejected before it is decoded.
    let pristine = header.clone();
    insert_after(&second, "member 0 ", "p 99999 1");
    let out = merge(&dir);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("99999"), "{}", stderr(&out));

    // An in-universe item outside this report's own range must not merge:
    // it would flip the strong verdict.
    std::fs::write(&second, &pristine).expect("restore shard report");
    insert_after(&second, "member 1 strong", "p 5 -");
    let out = merge(&dir);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("item 5"), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_shards_merge_byte_identical_to_one_process() {
    let dir = fresh_dir("bytes");
    let single = dir.join("single.json");
    let merged = dir.join("merged.json");
    let base = [
        "--decoder",
        "degree-one",
        "--max-n",
        "4",
        "--stable",
        "--out",
    ];
    let one = audit(&[&base[..], &[single.to_str().expect("utf-8 path")]].concat());
    let two = audit(
        &[
            &base[..],
            &[merged.to_str().expect("utf-8 path"), "--shards", "2"],
        ]
        .concat(),
    );
    assert_eq!(one.status.code(), two.status.code(), "{}", stderr(&two));
    let single = std::fs::read(&single).expect("single-process report");
    let merged = std::fs::read(&merged).expect("merged report");
    assert!(!single.is_empty());
    assert!(single == merged, "2-shard --stable report differs");
    let _ = std::fs::remove_dir_all(&dir);
}
