//! The hash-switch invariant: resolving `switch_on_constant` /
//! `switch_on_structure` through the link-time hash side table is
//! *speed-only*. Hash dispatch is the interpreter's only path for
//! indexed tables; what it is held to is the linear-scan interpreter's
//! recording in the golden counter file (see `golden/mod.rs`). Every
//! benchmark, and every switch-table shape below, must reproduce it
//! byte-for-byte: solutions, [`RunStats`](kcm_system::RunStats) and the
//! switch counters, which are dispatch outcomes and so identical on both
//! paths.
//!
//! The remaining tests check what the numbers mean on the shapes the
//! 14-program suite cannot reach: tables big enough to get a hash index
//! (≥ 8 entries), depth-2 second-level dispatch, and the bitwise float
//! key semantics (`-0.0` ≠ `0.0`; dispatch must agree with unification).

mod golden;

use kcm_suite::programs::{self, BenchProgram};
use kcm_system::{Kcm, QueryOpts, SessionPool, Tier};

/// A suite program's native-tier run, rendered the way the golden file
/// renders it.
fn render_native(p: &BenchProgram) -> String {
    let mut kcm = Kcm::with_config(golden::config());
    kcm.load(p.source)
        .unwrap_or_else(|e| panic!("{}: consult: {e}", p.name));
    let opts = QueryOpts {
        enumerate_all: p.enumerate,
        tier: Tier::Native,
        ..QueryOpts::default()
    };
    let o = kcm
        .query(p.query, &opts)
        .unwrap_or_else(|e| panic!("{}: run: {e}", p.name));
    format!("stats {:?}\nswitches {:?}\n", o.stats, o.profile.switches)
}

#[test]
fn hash_switch_is_byte_identical_over_the_full_suite() {
    // The suite's own switch tables, on the native tier (where the
    // resolved-dispatch loop takes the hash index), serially and across
    // the session pool.
    let suite = programs::suite();
    for workers in [1usize, 4] {
        let runs = SessionPool::new(workers).map(&suite, render_native);
        for (p, run) in suite.iter().zip(&runs) {
            assert_eq!(
                *run,
                golden::section(&format!("suite {} native", p.name)),
                "{} ({workers} workers): native run diverged from the golden file",
                p.name
            );
        }
    }
    // The indexed shapes: wide, depth-2 and float-key tables, hits and
    // misses, on both tiers.
    let (wide200, wide100, wide50) = (wide_facts(200), wide_facts(100), wide_facts(50));
    let cases: [(&str, &str, &str); 15] = [
        ("wide200", &wide200, "f(k137, V)"),
        ("wide100", &wide100, "f(k42, V)"),
        ("wide50", &wide50, "f(zzz, V)"),
        ("pairs", PAIRS, "pair(g1, b, X)"),
        ("pairs", PAIRS, "pair(g1, M, X)"),
        ("pairs", PAIRS, "pair(G, M, X)"),
        ("pairs", PAIRS, "pair(g1, z, X)"),
        ("pairs", PAIRS, "pair(g1, f(a), X)"),
        ("pairs", PAIRS, "pair(g1, [a], X)"),
        ("pairs", PAIRS, "pair(g2, c, X)"),
        ("pairs", PAIRS, "pair(g9, c, X)"),
        ("floats", FLOATS, "fk(0.0, V)"),
        ("floats", FLOATS, "fk(-0.0, V)"),
        ("floats", FLOATS, "fk(0.5, V)"),
        ("single", "p0(0.0).", "p0(-0.0)"),
    ];
    for (label, src, query) in cases {
        let mut kcm = Kcm::with_config(golden::config());
        kcm.load(src).unwrap_or_else(|e| panic!("consult: {e}"));
        for tier in [Tier::Cycle, Tier::Native] {
            let opts = QueryOpts {
                enumerate_all: true,
                tier,
                ..QueryOpts::default()
            };
            let o = kcm
                .query(query, &opts)
                .unwrap_or_else(|e| panic!("{query}: run: {e}"));
            assert_eq!(
                golden::render_outcome(&o),
                golden::section(&format!("switch {label} {query} {tier:?}")),
                "{label} {query} ({tier:?}): diverged from the golden file"
            );
        }
    }
}

/// Runs one enumerating query on a fresh session and returns the outcome.
fn run_all(src: &str, query: &str) -> kcm_system::Outcome {
    let mut kcm = Kcm::new();
    kcm.load(src).unwrap_or_else(|e| panic!("consult: {e}"));
    kcm.query(query, &QueryOpts::all())
        .unwrap_or_else(|e| panic!("run: {e}"))
}

/// A flat fact base wide enough for a hash index: `f(kI, vI)` for
/// `I` in `0..n` (unique constant first keys).
fn wide_facts(n: usize) -> String {
    (0..n).map(|i| format!("f(k{i}, v{i}). ")).collect()
}

/// A fact base shaped for depth-2 indexing: three first-key groups of
/// three constant second keys each.
const PAIRS: &str = "
    pair(g0, a, 1). pair(g0, b, 2). pair(g0, c, 3).
    pair(g1, a, 4). pair(g1, b, 5). pair(g1, c, 6).
    pair(g2, a, 7). pair(g2, b, 8). pair(g2, c, 9).
";

#[test]
fn wide_fact_lookup_hits_the_hash_index() {
    let src = wide_facts(200);
    let h = run_all(&src, "f(k137, V)");
    assert!(h.success);
    assert_eq!(h.solutions.len(), 1);
    assert_eq!(h.solutions[0][0].1.to_string(), "v137");
    assert_eq!(
        h.profile.switches.hits, 1,
        "the constant switch must have dispatched through the table"
    );
    // A hit at table ordinal k charges k + 1 probes — the linear-scan
    // cost of the simulated machine, whatever the host looked it up with.
    assert_eq!(h.profile.switches.probes, 137 + 1);
}

#[test]
fn wide_fact_miss_charges_the_full_table() {
    let h = run_all(&wide_facts(50), "f(zzz, V)");
    assert!(!h.success);
    assert_eq!(h.profile.switches.misses, 1);
    assert_eq!(h.profile.switches.hits, 0);
    assert_eq!(h.profile.switches.probes, 50, "a miss probes every entry");
}

#[test]
fn depth2_point_lookup_takes_the_second_level_switch() {
    let h = run_all(PAIRS, "pair(g1, b, X)");
    assert!(h.success);
    assert_eq!(h.solutions.len(), 1);
    assert_eq!(h.solutions[0][0].1.to_string(), "5");
    assert!(
        h.profile.switches.depth2 >= 1,
        "the A2 switch of depth-2 indexing must have executed"
    );
}

#[test]
fn depth2_with_unbound_second_arg_enumerates_the_bucket_in_order() {
    let h = run_all(PAIRS, "pair(g1, M, X)");
    assert!(h.success);
    let got: Vec<String> = h
        .solutions
        .iter()
        .map(|s| format!("{}-{}", s[0].1, s[1].1))
        .collect();
    assert_eq!(got, ["a-4", "b-5", "c-6"], "clause order must survive");
}

#[test]
fn depth2_with_everything_unbound_enumerates_all_facts() {
    let h = run_all(PAIRS, "pair(G, M, X)");
    assert!(h.success);
    assert_eq!(h.solutions.len(), 9);
}

#[test]
fn depth2_rejects_missing_and_mistyped_second_keys() {
    // A second key absent from every clause is a genuine failure...
    let missing = run_all(PAIRS, "pair(g1, z, X)");
    assert!(!missing.success);
    // ...and so is a compound second argument: a constant head arg can
    // never unify with a structure or a list.
    let structure = run_all(PAIRS, "pair(g1, f(a), X)");
    assert!(!structure.success);
    let list = run_all(PAIRS, "pair(g1, [a], X)");
    assert!(!list.success);
}

/// Nine float-keyed facts — wide enough for a hash index — including the
/// `0.0` / `-0.0` pair whose keys must stay distinct.
const FLOATS: &str = "
    fk(0.0, pos). fk(-0.0, neg). fk(1.0, one). fk(2.0, two). fk(3.0, three).
    fk(4.0, four). fk(5.0, five). fk(6.0, six). fk(7.0, seven).
";

#[test]
fn float_keys_dispatch_bitwise() {
    let pos = run_all(FLOATS, "fk(0.0, V)");
    assert_eq!(pos.solutions.len(), 1);
    assert_eq!(pos.solutions[0][0].1.to_string(), "pos");
    let neg = run_all(FLOATS, "fk(-0.0, V)");
    assert_eq!(neg.solutions.len(), 1);
    assert_eq!(
        neg.solutions[0][0].1.to_string(),
        "neg",
        "-0.0 must select its own table entry, not 0.0's"
    );
}

#[test]
fn switch_counters_are_tier_independent() {
    // The probe/hit/miss/depth-2 counters are dispatch outcomes,
    // determined by program semantics alone — the clockless native tier
    // must report exactly the numbers the cycle tier does.
    let wide = wide_facts(100);
    for (src, query) in [
        (wide.as_str(), "f(k42, V)"),
        (PAIRS, "pair(g2, c, X)"),
        (PAIRS, "pair(g9, c, X)"),
    ] {
        let run_tier = |tier: Tier| {
            let mut kcm = Kcm::new();
            kcm.load(src).unwrap_or_else(|e| panic!("consult: {e}"));
            let opts = QueryOpts {
                enumerate_all: true,
                tier,
                ..QueryOpts::default()
            };
            kcm.query(query, &opts)
                .unwrap_or_else(|e| panic!("run: {e}"))
        };
        let c = run_tier(Tier::Cycle);
        let n = run_tier(Tier::Native);
        assert_eq!(c.solutions, n.solutions, "{query}: solutions diverged");
        assert_eq!(
            c.profile.switches, n.profile.switches,
            "{query}: switch counters diverged across tiers"
        );
    }
}

#[test]
fn float_dispatch_agrees_with_unification() {
    // The invariant behind the bitwise keys: table dispatch may only
    // prune clauses head unification would reject. Unification compares
    // float constants bitwise (same_constant), so a single-clause
    // predicate — no switch at all — must make the same distinction the
    // indexed one does.
    let single = run_all("p0(0.0).", "p0(-0.0)");
    assert!(!single.success, "-0.0 must not unify with 0.0");
    let indexed = run_all(FLOATS, "fk(0.5, V)");
    assert!(!indexed.success, "an absent float key must fail");
}
