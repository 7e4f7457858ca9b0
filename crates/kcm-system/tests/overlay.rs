//! A query is an overlay on the shared program: its code, static
//! literals and symbols live in the top layers of the program's image and
//! symbol table. These checks run each layered case on both tiers and
//! require them to agree, and pin the invalidation rule: an update never
//! runs against a dispatch table derived from the code it replaced.

use kcm_system::{Kcm, MachineConfig, Program, QueryOpts, Tier};

fn render(outcome: &kcm_system::Outcome) -> Vec<String> {
    outcome
        .solutions
        .iter()
        .map(|s| {
            s.iter()
                .map(|(n, t)| format!("{n}={t}"))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect()
}

/// All answers of `query` on `tier`.
fn answers_on(program: &Program, query: &str, tier: Tier) -> Vec<String> {
    let opts = QueryOpts::all().with_tier(tier);
    let outcome = program
        .query(query, &MachineConfig::default(), &opts)
        .unwrap_or_else(|e| panic!("{query} on {tier:?}: {e}"));
    render(&outcome)
}

/// All answers of `query`, after checking that both tiers give them.
fn answers(program: &Program, query: &str) -> Vec<String> {
    let native = answers_on(program, query, Tier::Native);
    assert_eq!(
        native,
        answers_on(program, query, Tier::Cycle),
        "tiers disagree on {query}"
    );
    native
}

/// A fact predicate wide enough for a hashed constant switch, a rule
/// over it, and a ground compound literal in the base's static area.
fn facts_src() -> String {
    let mut src: String = (1..=20).map(|i| format!("f(k{i}, v{i}).\n")).collect();
    src.push_str("r(K, V) :- f(K, V).\nlit(h([1, 2, 3])).\n");
    src
}

#[test]
fn query_layer_meta_calls_base_code_with_its_own_literals_and_atoms() {
    let program = Program::load(facts_src().as_str()).unwrap();
    let query =
        "lit(L), call(f(K, v3)), Y = g(t(1), [a, b]), atom_codes(A, [122, 113, 110, 101, 119])";
    assert_eq!(
        answers(&program, query),
        vec!["L=h([1,2,3]),K=k3,Y=g(t(1),[a,b]),A=zqnew"]
    );
    // The query's literal sits after the base's static area, in the
    // query image's top layer; the program itself never saw the atom.
    let session = program
        .solutions(query, &MachineConfig::default(), &QueryOpts::all())
        .unwrap();
    let (_, base_static) = program.image.static_data();
    let (_, query_static) = session.image().static_data();
    assert!(!base_static.is_empty());
    assert!(query_static.len() > base_static.len());
    assert_eq!(query_static[..base_static.len()], base_static[..]);
    assert_eq!(program.symbols.find_atom("zqnew"), None);
}

#[test]
fn compiling_a_query_against_a_query_image_replaces_its_query() {
    let program = Program::load(facts_src().as_str()).unwrap();
    let mut symbols = kcm_arch::SymbolTable::clone(&program.symbols);
    let first = kcm_prolog::read_term("f(k1, V)").unwrap();
    let (q1, _) = kcm_compiler::compile_query(&program.image, &first, &mut symbols).unwrap();
    let second = kcm_prolog::read_term("r(K, v2) ; f(k4, K)").unwrap();
    let (q2, vars) = kcm_compiler::compile_query(&q1, &second, &mut symbols).unwrap();
    assert_ne!(q1.query_entry(), q2.query_entry());
    assert!(std::sync::Arc::ptr_eq(
        q2.base_layer(),
        program.image.base_layer()
    ));
    let mut cycle = kcm_system::Machine::new(q2.clone(), symbols.clone(), MachineConfig::default());
    let mut native = kcm_native::native_machine(q2, symbols, MachineConfig::default());
    let want = vec!["K=k2", "K=v4"];
    assert_eq!(render(&cycle.run_query(&vars, true).unwrap()), want);
    assert_eq!(render(&native.run_query(&vars, true).unwrap()), want);
}

#[test]
fn successors_never_run_on_a_stale_dispatch_table() {
    let program = Program::load(facts_src().as_str()).unwrap();
    // A native query builds the base layer's fall-through table.
    assert_eq!(answers_on(&program, "f(k3, V)", Tier::Native), ["V=v3"]);

    // Fast path: an atomic fact patched into the shared base's copy.
    let fast = program.assertz("f(k21, v21)").unwrap();
    assert_eq!(answers(&fast, "f(k21, V)"), ["V=v21"]);
    assert_eq!(answers(&fast, "f(K, V)").len(), 21);
    // Recompile fallback: a compound argument relinks f/2 and retargets
    // r/2's call into the new code.
    let relinked = fast.assertz("f(k22, h(1))").unwrap();
    assert_eq!(answers(&relinked, "r(k22, V)"), ["V=h(1)"]);
    assert_eq!(answers(&relinked, "r(K, V)").len(), 22);
    // Retract tombstones a clause in place.
    let retracted = relinked.retract("f(k1, v1)").unwrap().expect("matched");
    assert_eq!(answers(&retracted, "f(k1, V)"), Vec::<String>::new());
    assert_eq!(answers(&retracted, "r(K, V)").len(), 21);
    // Every predecessor still answers as it did.
    assert_eq!(answers(&program, "f(K, V)").len(), 20);
    assert_eq!(answers(&fast, "r(k22, V)"), Vec::<String>::new());
}

#[test]
fn in_place_updates_clear_the_table_they_invalidate() {
    let mut kcm = Kcm::new();
    kcm.load(facts_src().as_str()).unwrap();
    let native = QueryOpts::all().with_tier(Tier::Native);
    let cycle = QueryOpts::all().with_tier(Tier::Cycle);
    for (clause, query, want) in [
        ("f(k21, v21)", "f(k21, V)", 21),
        ("f(k22, h(2))", "r(k22, V)", 22),
    ] {
        // Build the table, then patch the (now sole-owned) base in place.
        assert_eq!(
            kcm.query("f(K, V)", &native).unwrap().solutions.len(),
            want - 1
        );
        kcm.assertz(clause).unwrap();
        let got = render(&kcm.query(query, &native).unwrap());
        assert_eq!(got, render(&kcm.query(query, &cycle).unwrap()));
        assert_eq!(got.len(), 1, "{query}");
        assert_eq!(kcm.query("r(K, V)", &native).unwrap().solutions.len(), want);
    }
    assert!(kcm.retract("f(k2, v2)").unwrap());
    assert!(kcm.query("f(k2, V)", &native).unwrap().solutions.is_empty());
    assert_eq!(kcm.query("r(K, V)", &native).unwrap().solutions.len(), 21);
}

#[test]
fn snapshot_of_a_successor_with_a_new_atom_round_trips() {
    let program = Program::load(facts_src().as_str()).unwrap();
    let next = program.assertz("f(k_fresh, v_fresh)").unwrap();
    assert!(program.symbols.find_atom("v_fresh").is_none());
    let bytes = next.snapshot();
    let restored = Program::load(bytes.as_slice()).unwrap();
    assert_eq!(answers(&restored, "f(k_fresh, V)"), ["V=v_fresh"]);
    assert_eq!(answers(&restored, "r(K, v_fresh)"), ["K=k_fresh"]);
    assert_eq!(restored.snapshot(), bytes, "re-save is byte-identical");
}
