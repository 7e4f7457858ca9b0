//! Validates emitted bench JSONL files against the schema of
//! [`bench::jsonl`].
//!
//! ```text
//! cargo run -p bench --bin validate_jsonl [FILE...]
//! ```
//!
//! With no arguments, validates every `BENCH_*.jsonl` under the output
//! directory (`target/bench-json`, or `KCM_BENCH_JSON` when set). Exits
//! non-zero if any line fails, if a named file is unreadable, or if there
//! is nothing to validate at all — so CI catches a driver that silently
//! stopped emitting.

use bench::jsonl::{validate_line, Json};
use std::path::PathBuf;

/// Bench-specific shape checks on top of the generic record schema: the
/// fields each `factscale` record kind must carry. Cold-start rows carry
/// every metric the consult-vs-snapshot comparison is made of; per-tier
/// rows carry both the hot (execute-layer) and the end-to-end (request)
/// lookup p50. A driver that stops emitting one of them would otherwise
/// validate while quietly losing an acceptance number.
fn required_fields(v: &Json) -> &'static [&'static str] {
    let bench = v.get("bench").and_then(Json::as_str).unwrap_or("");
    let label = v.get("label").and_then(Json::as_str).unwrap_or("");
    let summary = v.get("kind").and_then(Json::as_str) == Some("summary");
    if bench != "factscale" {
        return &[];
    }
    match label {
        l if l.starts_with("coldstart") && summary => &["facts_max", "load_host_ms_at_max"],
        l if l.starts_with("coldstart") => &[
            "facts",
            "consult_host_ms",
            "snapshot_save_host_ms",
            "snapshot_bytes",
            "snapshot_load_host_ms",
            "load_speedup",
        ],
        E2E_SUMMARY if summary => &[
            "facts_min",
            "facts_max",
            "e2e_p50_min_us",
            "e2e_p50_max_us",
            "e2e_ratio_max_vs_min",
        ],
        l if is_tier_row(l) && !summary => {
            &["facts", "lookup_p50_us", "lookup_p99_us", "e2e_p50_us"]
        }
        _ => &[],
    }
}

/// Label of the `factscale` summary a file with per-tier rows must hold.
const E2E_SUMMARY: &str = "e2e-p50-scaling";

/// A `factscale` per-(size, tier) row label: `n=<facts>/<tier>`.
fn is_tier_row(label: &str) -> bool {
    label.starts_with("n=") && label.contains('/')
}

fn check_shape(v: &Json) -> Result<(), String> {
    let label = v.get("label").and_then(Json::as_str).unwrap_or("");
    for key in required_fields(v) {
        match v.get(key) {
            Some(Json::Num(_)) => {}
            Some(_) => return Err(format!("`{label}` field `{key}` is not a number")),
            None => return Err(format!("`{label}` record missing `{key}`")),
        }
    }
    Ok(())
}

fn default_files() -> Vec<PathBuf> {
    let Some(dir) = bench::jsonl::output_dir() else {
        return Vec::new();
    };
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".jsonl"))
        })
        .collect();
    files.sort();
    files
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let files: Vec<PathBuf> = if args.is_empty() {
        default_files()
    } else {
        args.into_iter().map(PathBuf::from).collect()
    };
    if files.is_empty() {
        eprintln!("validate_jsonl: no BENCH_*.jsonl files found");
        std::process::exit(1);
    }
    let mut failures = 0usize;
    let mut records = 0usize;
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{}: unreadable: {e}", path.display());
                failures += 1;
                continue;
            }
        };
        let mut file_records = 0usize;
        let (mut tier_rows, mut e2e_summary) = (false, false);
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match validate_line(line).and_then(|v| check_shape(&v).map(|()| v)) {
                Ok(v) => {
                    file_records += 1;
                    if v.get("bench").and_then(Json::as_str) == Some("factscale") {
                        let label = v.get("label").and_then(Json::as_str).unwrap_or("");
                        tier_rows |= is_tier_row(label);
                        e2e_summary |= label == E2E_SUMMARY;
                    }
                }
                Err(e) => {
                    eprintln!("{}:{}: {e}", path.display(), lineno + 1);
                    failures += 1;
                }
            }
        }
        if tier_rows && !e2e_summary {
            eprintln!(
                "{}: factscale rows without the `{E2E_SUMMARY}` summary",
                path.display()
            );
            failures += 1;
        }
        if file_records == 0 {
            eprintln!("{}: no records", path.display());
            failures += 1;
        }
        records += file_records;
        println!("{}: {file_records} records ok", path.display());
    }
    println!("validated {records} records in {} files", files.len());
    if failures > 0 {
        eprintln!("validate_jsonl: {failures} failures");
        std::process::exit(1);
    }
}
