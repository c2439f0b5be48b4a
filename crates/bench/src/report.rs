//! Shared serialization for the repo-root `BENCH_*.json` reports.
//!
//! Both bench harnesses that write a report (`engine_sweep`, `panel`)
//! emit the same document shape — scalar header fields, a `benches` array
//! of `{ "name", "median_ns" }` rows, then harness-specific sections — and
//! the CI smoke gates read medians back out of the committed files. This
//! module centralizes the hand-rolled writer and the needle parser so the
//! harnesses cannot drift apart: a document built here always
//! round-trips through [`median_in_json`].
//!
//! The JSON is hand-rolled (no serde anywhere in the workspace); the
//! layout is fixed two-space-indented with one row per line, which is
//! what makes the needle parser sound.

use criterion::BenchResult;
use std::path::{Path, PathBuf};

/// Incremental builder for one `BENCH_*.json` document: scalar fields
/// first, then array sections, in insertion order.
#[derive(Default)]
pub struct ReportDoc {
    out: String,
}

impl ReportDoc {
    /// An empty document (an open brace).
    pub fn new() -> Self {
        ReportDoc { out: "{\n".into() }
    }

    /// Appends a raw scalar field: `"name": value`. The value is written
    /// verbatim, so strings must arrive pre-quoted.
    pub fn scalar(&mut self, name: &str, value: impl std::fmt::Display) -> &mut Self {
        self.out.push_str(&format!("  \"{name}\": {value},\n"));
        self
    }

    /// Appends an array section of pre-rendered rows (each row a full
    /// line, four-space indented, no trailing comma — commas are added
    /// here).
    pub fn section(&mut self, name: &str, rows: &[String]) -> &mut Self {
        self.out.push_str(&format!("  \"{name}\": [\n"));
        self.out.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            self.out.push('\n');
        }
        self.out.push_str("  ],\n");
        self
    }

    /// Closes the document and returns the JSON text.
    pub fn finish(mut self) -> String {
        if self.out.ends_with(",\n") {
            self.out.truncate(self.out.len() - 2);
            self.out.push('\n');
        }
        self.out.push_str("}\n");
        self.out
    }
}

/// The standard `benches` rows: one `{ "name", "median_ns" }` per result,
/// in measurement order.
pub fn bench_rows(results: &[BenchResult]) -> Vec<String> {
    results
        .iter()
        .map(|r| {
            format!(
                "    {{ \"name\": \"{}\", \"median_ns\": {} }}",
                r.name,
                r.median.as_nanos()
            )
        })
        .collect()
}

/// The median of the named bench from in-memory results, in nanoseconds.
pub fn median(results: &[BenchResult], name: &str) -> Option<u128> {
    results
        .iter()
        .find(|r| r.name == name)
        .map(|r| r.median.as_nanos())
}

/// Extracts `"median_ns": <u128>` for bench `name` from a committed
/// baseline document. Sound because [`bench_rows`] fixes the layout: the
/// name and the median share a line in a known order.
pub fn median_in_json(json: &str, name: &str) -> Option<u128> {
    let needle = format!("\"name\": \"{name}\", \"median_ns\": ");
    let at = json.find(&needle)? + needle.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The repo-root path of a `BENCH_*.json` file.
pub fn repo_root_path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file)
}

/// Writes a finished document to the repo root and announces the path.
///
/// # Panics
/// On I/O failure — a bench harness has nothing sensible to fall back to.
pub fn write(file: &str, contents: &str) {
    let path = repo_root_path(file);
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn results() -> Vec<BenchResult> {
        vec![
            BenchResult {
                name: "group-a/fast".into(),
                median: Duration::from_nanos(1_234),
            },
            BenchResult {
                name: "group-a/slow".into(),
                median: Duration::from_nanos(98_765_432),
            },
            BenchResult {
                name: "group-b/only".into(),
                median: Duration::from_nanos(7),
            },
        ]
    }

    /// Structural validity without a JSON parser: brackets and braces
    /// balance outside string literals, and no two values share a line.
    fn assert_wellformed(json: &str) {
        let (mut depth, mut in_str, mut esc) = (0i32, false, false);
        for c in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "closer before opener in {json}");
        }
        assert_eq!(depth, 0, "unbalanced document: {json}");
        assert!(!in_str, "unterminated string: {json}");
    }

    #[test]
    fn document_round_trips_every_median() {
        let results = results();
        let mut doc = ReportDoc::new();
        doc.scalar("threads", 4)
            .scalar("bound", 0.15)
            .section("benches", &bench_rows(&results))
            .section(
                "stats",
                &["    { \"group\": \"group-a\", \"items\": 7 }".into()],
            );
        let json = doc.finish();
        assert_wellformed(&json);
        assert!(json.starts_with("{\n"), "document must open an object");
        assert!(json.ends_with("  ]\n}\n"), "last section closes the doc");
        for r in &results {
            assert_eq!(
                median_in_json(&json, &r.name),
                Some(r.median.as_nanos()),
                "median for {} must survive the round trip",
                r.name
            );
        }
        assert_eq!(median_in_json(&json, "group-x/missing"), None);
    }

    #[test]
    fn in_memory_median_matches_serialized_median() {
        let results = results();
        let json = {
            let mut doc = ReportDoc::new();
            doc.section("benches", &bench_rows(&results));
            doc.finish()
        };
        for r in &results {
            assert_eq!(median(&results, &r.name), median_in_json(&json, &r.name));
        }
        assert_eq!(median(&results, "nope"), None);
    }

    #[test]
    fn scalar_only_and_empty_sections_stay_wellformed() {
        let mut doc = ReportDoc::new();
        doc.scalar("threads", 1);
        let json = doc.finish();
        assert_wellformed(&json);
        assert_eq!(json, "{\n  \"threads\": 1\n}\n");

        let mut doc = ReportDoc::new();
        doc.section("benches", &[]);
        let json = doc.finish();
        assert_wellformed(&json);
        assert_eq!(json, "{\n  \"benches\": [\n  ]\n}\n");
    }
}
