//! The golden counter pin: every simulated number the reproduction
//! reports — solutions, output, [`RunStats`](kcm_system::RunStats)
//! (memory-system and prefetch counters included), the hardware
//! [`Profile`](kcm_system::Profile) and the per-predicate cycle
//! attribution — rendered as text and compared byte-for-byte with
//! `tests/data/golden_counters.txt`.
//!
//! The host-side fast paths (fall-through dispatch, batched code fetch,
//! the host TLB, the data-cache last-line hint, hash switch dispatch) may
//! only skip work whose outcome is already proven, so they must leave
//! every one of these numbers unchanged. The file was generated with the
//! naive reference paths still selectable, and each of them rendered it
//! byte-identically; this test keeps that proof standing without keeping
//! the reference paths alive.
//!
//! Covered: the 14-program suite on the cycle tier (profiling on) and on
//! the native tier, a reused machine run twice (fall-through hints, the
//! TLB and the last-line hint carry state across runs), a traced native
//! run (the generic step loop), the wide, depth-2 and float-key switch
//! tables, the 30 regression-corpus cases on the cycle tier, and a page
//! hand-over trace on the MMU.
//!
//! On a mismatch the actual rendering is written to
//! `<target>/tmp/golden_counters.actual.txt` and the first differing line
//! is named. A deliberate change to the simulated numbers updates the pin
//! by copying that file over the data file (see TESTING.md).

use kcm_arch::{CodeAddr, VAddr, PAGE_SIZE_WORDS};
use kcm_difftest::corpus::CORPUS;
use kcm_difftest::oracle::STEP_BUDGET;
use kcm_mem::{MainMemory, MemStats, Mmu};
use kcm_suite::programs::{self, BenchProgram};
use kcm_system::{error_class, Kcm, MachineConfig, Outcome, QueryOpts, Solution, Tier};
use kcm_testkit::TestRng;
use std::fmt::{Display, Write as _};

const GOLDEN: &str = include_str!("data/golden_counters.txt");

/// The configuration every case runs under: the paper-calibrated
/// defaults with per-address profiling on, so the per-predicate profile
/// is pinned too. The step budget (far above any case's needs) keeps a
/// broken build from spinning to the cycle fuel limit.
fn config() -> MachineConfig {
    MachineConfig {
        profile: true,
        step_budget: STEP_BUDGET,
        ..MachineConfig::default()
    }
}

fn loaded(source: &str) -> Kcm {
    let mut kcm = Kcm::with_config(config());
    kcm.load(source).unwrap_or_else(|e| panic!("consult: {e}"));
    kcm
}

fn opts(enumerate_all: bool, tier: Tier) -> QueryOpts {
    QueryOpts {
        enumerate_all,
        tier,
        ..QueryOpts::default()
    }
}

fn render_solutions(out: &mut String, solutions: &[Solution]) {
    for s in solutions {
        let bindings: Vec<String> = s.iter().map(|(v, t)| format!("{v}={t}")).collect();
        writeln!(out, "solution {}", bindings.join(", ")).unwrap();
    }
}

/// Renders a run with `render`, or its error: a drifted build still
/// renders every case, so the whole diff is visible at once.
fn render_run<E: Display>(
    out: &mut String,
    run: Result<Outcome, E>,
    render: fn(&mut String, &Outcome),
) {
    match run {
        Ok(o) => render(out, &o),
        Err(e) => writeln!(out, "error {e}").unwrap(),
    }
}

/// Everything observable about one run: answers, output and counters.
fn render_outcome(out: &mut String, o: &Outcome) {
    writeln!(out, "success {}", o.success).unwrap();
    render_solutions(out, &o.solutions);
    writeln!(out, "output {:?}", o.output).unwrap();
    writeln!(out, "stats {:?}", o.stats).unwrap();
    writeln!(out, "profile {:?}", o.profile).unwrap();
}

fn render_predicates(out: &mut String, mut per_pred: Vec<(String, u64)>) {
    per_pred.sort();
    for (pred, cycles) in per_pred {
        writeln!(out, "predicate {pred} {cycles}").unwrap();
    }
}

fn render_suite_program(out: &mut String, p: &BenchProgram) {
    let mut kcm = loaded(p.source);

    writeln!(out, "== suite {} cycle", p.name).unwrap();
    let cycle = kcm.query(p.query, &opts(p.enumerate, Tier::Cycle));
    render_run(out, cycle, render_outcome);
    let (mut machine, vars) = kcm
        .prepare(p.query)
        .unwrap_or_else(|e| panic!("{}: {e}", p.name));
    render_run(out, machine.run_query(&vars, p.enumerate), |_, _| {});
    render_predicates(out, machine.profile());

    writeln!(out, "== suite {} native", p.name).unwrap();
    let native = kcm.query(p.query, &opts(p.enumerate, Tier::Native));
    render_run(out, native, |out, o| {
        writeln!(out, "stats {:?}", o.stats).unwrap();
        writeln!(out, "switches {:?}", o.profile.switches).unwrap();
    });
}

/// One machine, two runs: per-run deltas of the second run start from
/// whatever the first left in the hints, the TLB and the caches.
fn render_reused_machine(out: &mut String) {
    let p = programs::program("nrev1").expect("nrev1 is in the suite");
    let mut kcm = loaded(p.source);
    let (mut machine, vars) = kcm.prepare(p.query).unwrap_or_else(|e| panic!("{e}"));
    for run in 1..=2 {
        writeln!(out, "== reused nrev1 run {run}").unwrap();
        render_run(out, machine.run_query(&vars, p.enumerate), render_outcome);
    }
    render_predicates(out, machine.profile());
}

/// A traced native run takes the generic step loop instead of the
/// resolved-dispatch loop.
fn render_traced_native(out: &mut String) {
    let p = programs::program("qs4").expect("qs4 is in the suite");
    let mut kcm = loaded(p.source);
    let traced = QueryOpts {
        trace: 6,
        ..opts(p.enumerate, Tier::Native)
    };
    writeln!(out, "== traced qs4 native").unwrap();
    render_run(out, kcm.query(p.query, &traced), |out, o| {
        render_solutions(out, &o.solutions);
        writeln!(out, "stats {:?}", o.stats).unwrap();
        for line in &o.trace {
            writeln!(out, "trace {line}").unwrap();
        }
    });
}

/// `f(kI, vI)` for `I` in `0..n`: unique constant first keys, wide
/// enough for a hash index from 8 facts on.
fn wide_facts(n: usize) -> String {
    (0..n).map(|i| format!("f(k{i}, v{i}). ")).collect()
}

/// Three first-key groups of three constant second keys: depth-2
/// indexing.
const PAIRS: &str = "
    pair(g0, a, 1). pair(g0, b, 2). pair(g0, c, 3).
    pair(g1, a, 4). pair(g1, b, 5). pair(g1, c, 6).
    pair(g2, a, 7). pair(g2, b, 8). pair(g2, c, 9).
";

/// Nine float keys, including the bitwise-distinct `0.0` / `-0.0` pair.
const FLOATS: &str = "
    fk(0.0, pos). fk(-0.0, neg). fk(1.0, one). fk(2.0, two). fk(3.0, three).
    fk(4.0, four). fk(5.0, five). fk(6.0, six). fk(7.0, seven).
";

fn render_switch_tables(out: &mut String) {
    let cases: Vec<(&str, String, &str)> = vec![
        ("wide200", wide_facts(200), "f(k137, V)"),
        ("wide100", wide_facts(100), "f(k42, V)"),
        ("wide50", wide_facts(50), "f(zzz, V)"),
        ("pairs", PAIRS.to_owned(), "pair(g1, b, X)"),
        ("pairs", PAIRS.to_owned(), "pair(g1, M, X)"),
        ("pairs", PAIRS.to_owned(), "pair(G, M, X)"),
        ("pairs", PAIRS.to_owned(), "pair(g1, z, X)"),
        ("pairs", PAIRS.to_owned(), "pair(g1, f(a), X)"),
        ("pairs", PAIRS.to_owned(), "pair(g1, [a], X)"),
        ("pairs", PAIRS.to_owned(), "pair(g2, c, X)"),
        ("pairs", PAIRS.to_owned(), "pair(g9, c, X)"),
        ("floats", FLOATS.to_owned(), "fk(0.0, V)"),
        ("floats", FLOATS.to_owned(), "fk(-0.0, V)"),
        ("floats", FLOATS.to_owned(), "fk(0.5, V)"),
        ("single", "p0(0.0).".to_owned(), "p0(-0.0)"),
    ];
    for (label, source, query) in &cases {
        let mut kcm = loaded(source);
        for tier in [Tier::Cycle, Tier::Native] {
            writeln!(out, "== switch {label} {query} {tier:?}").unwrap();
            render_run(out, kcm.query(query, &opts(true, tier)), render_outcome);
        }
    }
}

fn render_corpus(out: &mut String) {
    for case in CORPUS {
        writeln!(out, "== corpus {} cycle", case.name).unwrap();
        let mut kcm = Kcm::with_config(config());
        let opts = opts(case.enumerate, Tier::Cycle);
        match kcm
            .load(case.source)
            .and_then(|()| kcm.query(case.query, &opts))
        {
            Ok(o) => render_outcome(out, &o),
            Err(e) => writeln!(out, "error {}", error_class(&e)).unwrap(),
        }
    }
}

/// The batch-compiled code hand-over of §3.2.1 (a data page's frame
/// re-attached to the code space), driven on the MMU directly: no
/// compiled program hands pages over, yet a translation cached across a
/// hand-over would silently alias the code page. Pages 0, 64 and 128
/// share a host TLB slot.
fn render_page_handover(out: &mut String) {
    const PAGES: [u32; 6] = [0, 1, 2, 64, 65, 128];
    let mut rng = TestRng::new(0x6b63_6d6d);
    let mut mmu = Mmu::new();
    let mut memory = MainMemory::new();
    let mut stats = MemStats::default();
    writeln!(out, "== mmu page hand-over").unwrap();
    for _ in 0..96 {
        let vp = *rng.choose(&PAGES);
        if rng.chance(1, 6) {
            let code = CodeAddr::new(rng.below(1 << 10) as u32 * PAGE_SIZE_WORDS);
            let moved = mmu.move_data_page_to_code(VAddr::new(vp * PAGE_SIZE_WORDS), code);
            writeln!(out, "handover {vp} {moved}").unwrap();
        } else {
            let addr =
                VAddr::new(vp * PAGE_SIZE_WORDS + rng.below(u64::from(PAGE_SIZE_WORDS)) as u32);
            let phys = mmu
                .translate_data(addr, &mut memory, &mut stats)
                .expect("the board has room");
            writeln!(out, "translate {} {}", addr.value(), phys.value()).unwrap();
        }
    }
    writeln!(out, "mem {stats:?}").unwrap();
}

fn render() -> String {
    let mut out = String::new();
    for p in programs::suite() {
        render_suite_program(&mut out, &p);
    }
    render_reused_machine(&mut out);
    render_traced_native(&mut out);
    render_switch_tables(&mut out);
    render_corpus(&mut out);
    render_page_handover(&mut out);
    out
}

/// The first line at which `expected` and `actual` differ, 1-based, with
/// both sides (`None` past the end of a side).
fn first_difference<'a>(
    expected: &'a str,
    actual: &'a str,
) -> Option<(usize, Option<&'a str>, Option<&'a str>)> {
    let (mut e, mut a) = (expected.lines(), actual.lines());
    for n in 1.. {
        match (e.next(), a.next()) {
            (None, None) => return None,
            (x, y) if x != y => return Some((n, x, y)),
            _ => {}
        }
    }
    unreachable!()
}

#[test]
fn simulated_counters_match_the_golden_file() {
    let actual = render();
    let Some((line, expected, got)) = first_difference(GOLDEN, &actual) else {
        return;
    };
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_counters.actual.txt");
    std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    let header = actual
        .lines()
        .take(line)
        .filter(|l| l.starts_with("== "))
        .last()
        .unwrap_or("(before the first case)");
    let (expected, got) = (
        expected.unwrap_or("<end of file>"),
        got.unwrap_or("<end of file>"),
    );
    // The lines are long (one struct each): show where in the line the
    // first difference sits.
    let column = expected
        .bytes()
        .zip(got.bytes())
        .take_while(|(e, a)| e == a)
        .count();
    let window = |s: &str| {
        let start = s.floor_char_boundary(column.saturating_sub(60));
        let end = s.ceil_char_boundary((column + 60).min(s.len()));
        s[start..end].to_owned()
    };
    panic!(
        "simulated counters drifted from tests/data/golden_counters.txt at line {line}, \
         column {column}, in `{header}`\n\
         expected: …{}…\n\
         actual:   …{}…\n\
         full actual rendering: {}",
        window(expected),
        window(got),
        path.display()
    );
}
