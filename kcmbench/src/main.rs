//! `kcmbench` — the request-level benchmark of the KCM reproduction.
//!
//! ```text
//! cargo run --release --manifest-path kcmbench/Cargo.toml -- \
//!     --workload <kb_lookup|kb_ingest|suite_serve|paper_cycle> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run sets up, measures its workload for `--seconds`
//! and reports the end-to-end metrics. With `--trace 1` it replays a fixed,
//! seeded list of the workload's requests in-process under one span per
//! public call and reports the per-layer metrics. Human-readable lines come
//! first; the last line of standard output is one JSON object. Any answer
//! that disagrees with its oracle fails the run with exit code 1.

mod gen;
mod oracle;
mod replay;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines, printed before the JSON result.
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    fn json(&self, correct: bool) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Finite by construction; `{:?}` keeps every digit of an f64.
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    };
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; expected one of {:?}",
            args.workload,
            workloads::NAMES
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kcmbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let run = workloads::run(&args, &mut report);
    for line in &report.lines {
        println!("{line}");
    }
    match run {
        Ok(()) => {
            println!("{}", report.json(true));
            ExitCode::SUCCESS
        }
        Err(workloads::Failure::Oracle(why)) => {
            println!("ORACLE FAILURE: {why}");
            // At least the op that disagreed was attempted.
            report.attempted = report.attempted.max(1);
            println!("{}", report.json(false));
            ExitCode::from(1)
        }
        Err(workloads::Failure::Harness(why)) => {
            eprintln!("kcmbench: {why}");
            ExitCode::from(2)
        }
    }
}
