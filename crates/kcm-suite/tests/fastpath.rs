//! The fast-path invariant, proved over the whole suite: the host-side
//! fast paths (fall-through dispatch, host TLB, last-line data-cache hit,
//! batched code fetch, reused unify stacks) are *speed-only*. They are
//! the interpreter's only path; what they are held to is the naive
//! interpreter's recording in the golden counter file (see
//! `golden/mod.rs`). Every benchmark must reproduce it byte-for-byte
//! everywhere the simulation is observable: solutions, output,
//! [`RunStats`](kcm_system::RunStats) (including the memory-system and
//! prefetch counters), the hardware-mechanism
//! [`Profile`](kcm_system::Profile), and the per-predicate cycle
//! attribution — serially and across the session pool.

mod golden;

use kcm_suite::programs;
use kcm_suite::runner::{run_suite_pooled, Variant};
use kcm_system::{Kcm, SessionPool};

/// The golden case body without its per-predicate lines.
fn without_predicates(section: &str) -> String {
    section
        .lines()
        .filter(|l| !l.starts_with("predicate "))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn fast_paths_are_byte_identical_over_the_full_suite() {
    let suite = programs::suite();
    for workers in [1usize, 4] {
        let pool = SessionPool::new(workers);
        let runs = run_suite_pooled(&suite, Variant::Timed, &golden::config(), &pool);
        for (p, run) in suite.iter().zip(&runs) {
            let run = run
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: run failed: {e}", p.name));
            assert_eq!(
                golden::render_outcome(&run.outcome),
                without_predicates(&golden::section(&format!("suite {} cycle", p.name))),
                "{} ({workers} workers): run diverged from the golden file",
                p.name
            );
        }
    }
}

#[test]
fn fast_paths_preserve_the_predicate_profile() {
    // The per-predicate cycle attribution walks the flat per-address
    // profile vector (a fast-path refactor of its own); it must agree
    // with the naive interpreter for every program.
    for p in programs::suite() {
        let mut kcm = Kcm::with_config(golden::config());
        kcm.load(p.source)
            .unwrap_or_else(|e| panic!("{}: consult: {e}", p.name));
        let (mut machine, vars) = kcm
            .prepare(p.query)
            .unwrap_or_else(|e| panic!("{}: prepare: {e}", p.name));
        machine
            .run_query(&vars, p.enumerate)
            .unwrap_or_else(|e| panic!("{}: run: {e}", p.name));
        let mut per_pred = machine.profile();
        per_pred.sort();
        let got: String = per_pred
            .iter()
            .map(|(pred, cycles)| format!("predicate {pred} {cycles}\n"))
            .collect();
        let expected: String = golden::section(&format!("suite {} cycle", p.name))
            .lines()
            .filter(|l| l.starts_with("predicate "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(
            !expected.is_empty(),
            "{}: no predicate profile pinned",
            p.name
        );
        assert_eq!(got, expected, "{}: per-predicate profile diverged", p.name);
    }
}

#[test]
fn reused_machines_stay_identical_across_runs() {
    // Fall-through hints, the host TLB and the last-line hint all carry
    // state from run to run; a second run on the same machine must still
    // match the naive interpreter exactly.
    let p = programs::program("nrev1").expect("nrev1 is in the suite");
    let mut kcm = Kcm::with_config(golden::config());
    kcm.load(p.source)
        .unwrap_or_else(|e| panic!("consult: {e}"));
    let (mut machine, vars) = kcm.prepare(p.query).unwrap_or_else(|e| panic!("{e}"));
    for run in 1..=2 {
        let outcome = machine
            .run_query(&vars, p.enumerate)
            .unwrap_or_else(|e| panic!("run {run}: {e}"));
        assert_eq!(
            golden::render_outcome(&outcome),
            without_predicates(&golden::section(&format!("reused nrev1 run {run}"))),
            "run {run} diverged from the golden file"
        );
    }
}
