//! The golden counter file of `kcm-difftest`
//! (`crates/kcm-difftest/tests/data/golden_counters.txt`, rendered in
//! full by its `tests/golden.rs`), read case by case so suite-level
//! tests can hold a run to the numbers it records. The file was rendered
//! byte-identically with the naive reference paths (per-word code fetch,
//! no fall-through hints, no host TLB, no last-line hint, linear switch
//! scans) and with the fast paths, so it stands for the naive
//! interpreter that is no longer runnable.

use kcm_system::{MachineConfig, Outcome};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("../../../kcm-difftest/tests/data/golden_counters.txt");

/// The configuration the golden file was rendered under: the
/// paper-calibrated defaults with per-address profiling on. (The file's
/// step budget only bounds a runaway run; it changes no counter.)
pub fn config() -> MachineConfig {
    MachineConfig {
        profile: true,
        ..MachineConfig::default()
    }
}

/// The body of the case headed `== {case}`: every line up to the next
/// case header.
pub fn section(case: &str) -> String {
    let header = format!("== {case}");
    let mut lines = GOLDEN.lines().skip_while(|l| *l != header);
    assert!(
        lines.next().is_some(),
        "no `{header}` case in the golden file"
    );
    lines
        .take_while(|l| !l.starts_with("== "))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// One run's answers, output and counters, rendered the way the golden
/// file renders them.
pub fn render_outcome(o: &Outcome) -> String {
    let mut out = String::new();
    writeln!(out, "success {}", o.success).unwrap();
    for s in &o.solutions {
        let bindings: Vec<String> = s.iter().map(|(v, t)| format!("{v}={t}")).collect();
        writeln!(out, "solution {}", bindings.join(", ")).unwrap();
    }
    writeln!(out, "output {:?}", o.output).unwrap();
    writeln!(out, "stats {:?}", o.stats).unwrap();
    writeln!(out, "profile {:?}", o.profile).unwrap();
    out
}
