//! The compiled program: one value shared by every way of running a
//! query.
//!
//! In KCM the workstation owns one compiled program and downloads each
//! query into a fresh back-end machine (§4.2). [`Program`] is that
//! program; every query front end ends in `prepare`, which compiles the
//! query against the shared image and builds the machine.

use crate::session::Solutions;
use crate::{KcmError, Machine, MachineConfig, Outcome, ProgramSource, QueryOpts, Tier};
use kcm_arch::{Instr, PredId, SymbolTable, Word};
use kcm_compiler::{CodeImage, CompileError, Linker};
use kcm_cpu::SessionStep;
use kcm_prolog::Term;
use std::sync::Arc;

/// A compiled program, cheap to clone and safe to share across threads.
///
/// Programs are values: [`Program::assertz`] and [`Program::retract`]
/// leave `self` untouched and return a successor, so a holder of the old
/// value keeps running the program it started on.
///
/// ```
/// use kcm_system::{MachineConfig, Program, QueryOpts};
///
/// # fn main() -> Result<(), kcm_system::KcmError> {
/// let program = Program::load("f(1, a). f(2, b).")?;
/// let config = MachineConfig::default();
/// let first = program.query("f(2, V)", &config, &QueryOpts::first())?;
/// assert!(first.success);
///
/// let next = program.assertz("f(3, c)")?;
/// assert_eq!(next.solutions("f(K, V)", &config, &QueryOpts::all())?.count(), 3);
/// assert_eq!(program.solutions("f(K, V)", &config, &QueryOpts::all())?.count(), 2);
/// assert!(next.retract("f(9, z)")?.is_none(), "nothing matched");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Program {
    /// The linked code image every query machine runs against.
    pub image: Arc<CodeImage>,
    /// The symbol table the image was compiled against. Query
    /// compilation works on a private clone, since a query may intern
    /// symbols of its own.
    ///
    /// Both the image and the table are frozen: their top layers are
    /// empty, so the clones a query makes share everything and own only
    /// what the query adds.
    pub symbols: Arc<SymbolTable>,
    /// The clause source the image was compiled from — what an update's
    /// recompile fallback rebuilds a predicate from. `None` for a program
    /// restored from a snapshot, which holds no source.
    clauses: Option<Arc<Vec<Term>>>,
}

impl Program {
    /// Loads a program artifact: parses and compiles source text, or
    /// restores a snapshot saved by [`Program::snapshot`] without
    /// recompiling.
    ///
    /// # Errors
    ///
    /// Parse or compile errors for source, [`KcmError::Snapshot`] for a
    /// damaged or version-skewed snapshot.
    pub fn load<'a>(source: impl Into<ProgramSource<'a>>) -> Result<Program, KcmError> {
        match source.into() {
            ProgramSource::Source(src) => {
                Program::compile(kcm_prolog::read_program(src)?, SymbolTable::new())
            }
            ProgramSource::Snapshot(bytes) => {
                let (image, symbols) = kcm_arch::snapshot::load(bytes)?;
                Ok(Program {
                    image,
                    symbols: Arc::new(symbols),
                    clauses: None,
                })
            }
        }
    }

    /// Compiles and statically links `clauses` against `symbols`.
    pub(crate) fn compile(
        clauses: Vec<Term>,
        mut symbols: SymbolTable,
    ) -> Result<Program, KcmError> {
        let image = kcm_compiler::compile_program(&clauses, &mut symbols)?;
        Ok(Program {
            image: frozen(image),
            symbols: frozen_symbols(symbols),
            clauses: Some(Arc::new(clauses)),
        })
    }

    /// The program with the clauses of `src` appended, recompiled.
    ///
    /// # Errors
    ///
    /// Parse or compile errors; [`KcmError::Update`] when the program was
    /// restored from a snapshot (no clause source to extend).
    pub(crate) fn extend(&self, src: &str) -> Result<Program, KcmError> {
        let new_clauses = kcm_prolog::read_program(src)?;
        let Some(clauses) = &self.clauses else {
            return Err(KcmError::Update(
                "program was restored from a snapshot; no clause source is held to extend — \
                 load the snapshot into a fresh system or reload from source"
                    .to_owned(),
            ));
        };
        let mut all = Vec::clone(clauses);
        all.extend(new_clauses);
        Program::compile(all, SymbolTable::clone(&self.symbols))
    }

    /// The clause source, or `None` for a program restored from a
    /// snapshot.
    pub(crate) fn clauses(&self) -> Option<&[Term]> {
        self.clauses.as_deref().map(Vec::as_slice)
    }

    /// Serializes the program into the binary snapshot format of
    /// [`kcm_arch::snapshot`]; [`Program::load`] restores it.
    pub fn snapshot(&self) -> Vec<u8> {
        kcm_arch::snapshot::save(&self.image, &self.symbols)
    }

    /// The successor program with `clause` added at the end of its
    /// predicate ([`crate::Kcm::assertz`] semantics).
    ///
    /// # Errors
    ///
    /// Every [`crate::Kcm::assertz`] condition.
    pub fn assertz(&self, clause: &str) -> Result<Program, KcmError> {
        let mut next = self.clone();
        next.assertz_in_place(kcm_prolog::read_term(clause)?)?;
        Ok(next)
    }

    /// The successor program with the first clause equal to `clause`
    /// removed ([`crate::Kcm::retract`] semantics), or `None` when no
    /// clause matched.
    ///
    /// # Errors
    ///
    /// Every [`crate::Kcm::retract`] condition.
    pub fn retract(&self, clause: &str) -> Result<Option<Program>, KcmError> {
        let mut next = self.clone();
        let removed = next.retract_in_place(&kcm_prolog::read_term(clause)?)?;
        Ok(removed.then_some(next))
    }

    /// Adds `term` at the end of its predicate. A sole owner patches its
    /// image without a copy; a shared image is copied first. On error the
    /// program is left as it was.
    pub(crate) fn assertz_in_place(&mut self, term: Term) -> Result<(), KcmError> {
        let pred = clause_pred(&term)?;
        // Fast path: an atomic-argument fact on a predicate that already
        // has an entry — patch the compiled dispatch in place.
        let mut symbols = SymbolTable::clone(&self.symbols);
        let fast = self.fact_code(&pred, &term, &mut symbols)?;
        let why = match fast.zip(self.image.entry(&pred.name, pred.arity)) {
            Some((code, entry)) => {
                let (key1, key2) = fact_keys(&term, &mut symbols);
                let image = Arc::make_mut(&mut self.image);
                match image.assert_fact_clause(entry, key1, key2, &code) {
                    Ok(()) => {
                        self.symbols = frozen_symbols(symbols);
                        if let Some(clauses) = &mut self.clauses {
                            Arc::make_mut(clauses).push(term);
                        }
                        return Ok(());
                    }
                    Err(why) => why.to_string(),
                }
            }
            None => "not a ground atomic-argument fact of an existing predicate".to_owned(),
        };
        // Fallback: recompile just this predicate from the clause source.
        let mut pred_clauses = predicate_clauses(self.source(&pred, &why)?.iter(), &pred);
        pred_clauses.push(term.clone());
        self.relink(&pred, &pred_clauses, |clauses| clauses.push(term))
    }

    /// Removes the first clause equal to `term`; returns whether one was
    /// removed. On error the program is left as it was.
    pub(crate) fn retract_in_place(&mut self, term: &Term) -> Result<bool, KcmError> {
        let pred = clause_pred(term)?;
        let Some(entry) = self.image.entry(&pred.name, pred.arity) else {
            return Ok(false);
        };
        // Fast path: tombstone the first chain slot whose code matches the
        // fact's exactly. A match only uses interned symbols, so the probe
        // copy of the table is dropped either way.
        let why = match self.fact_code(&pred, term, &mut SymbolTable::clone(&self.symbols))? {
            Some(code) => match Arc::make_mut(&mut self.image).retract_fact_clause(entry, &code) {
                Ok(removed) => {
                    if let (true, Some(clauses)) = (removed, &mut self.clauses) {
                        if let Some(at) = clauses.iter().position(|t| t == term) {
                            Arc::make_mut(clauses).remove(at);
                        }
                    }
                    return Ok(removed);
                }
                Err(why) => why.to_string(),
            },
            None => "not a ground atomic-argument fact".to_owned(),
        };
        // Fallback: drop the clause from source and recompile the predicate.
        let clauses = self.source(&pred, &why)?;
        let Some(at) = clauses.iter().position(|t| t == term) else {
            return Ok(false);
        };
        let pred_clauses = predicate_clauses(clauses[..at].iter().chain(&clauses[at + 1..]), &pred);
        self.relink(&pred, &pred_clauses, |clauses| {
            clauses.remove(at);
        })?;
        Ok(true)
    }

    /// The clause code of `term` when it is a ground atomic-argument fact
    /// of arity ≥ 1 — the shape the in-place patchers take.
    fn fact_code(
        &self,
        pred: &PredId,
        term: &Term,
        symbols: &mut SymbolTable,
    ) -> Result<Option<Vec<Instr>>, KcmError> {
        let code = kcm_compiler::compile_fact_instrs(pred, term, symbols, self.image.options())?;
        Ok(code.filter(|_| pred.arity >= 1))
    }

    /// The clause source an update of `pred` that cannot be patched in
    /// place (`why`) recompiles from, or the classed refusal when the
    /// program was restored from a snapshot.
    fn source(&self, pred: &PredId, why: &str) -> Result<&[Term], KcmError> {
        self.clauses().ok_or_else(|| {
            KcmError::Update(format!(
                "{pred} cannot be patched in place ({why}) and the program was restored from \
                 a snapshot, so no clause source is held to recompile it"
            ))
        })
    }

    /// The recompile fallback: relinks `pred` from `pred_clauses` into a
    /// copy of the image, then applies `edit` to the clause source.
    fn relink(
        &mut self,
        pred: &PredId,
        pred_clauses: &[Term],
        edit: impl FnOnce(&mut Vec<Term>),
    ) -> Result<(), KcmError> {
        let mut symbols = SymbolTable::clone(&self.symbols);
        let mut image = CodeImage::clone(&self.image);
        Linker::relink_predicate(&mut image, pred, pred_clauses, &mut symbols)?;
        edit(Arc::make_mut(self.clauses.as_mut().expect("source held")));
        self.symbols = frozen_symbols(symbols);
        self.image = frozen(image);
        Ok(())
    }

    /// Runs `query` on a fresh machine of the tier `opts` selects, with
    /// `opts` overlaid on `config`.
    ///
    /// # Errors
    ///
    /// Parse/compile errors for the query, or a machine fault. A query
    /// that simply fails is `Ok` with `success == false`.
    pub fn query(
        &self,
        query: &str,
        config: &MachineConfig,
        opts: &QueryOpts,
    ) -> Result<Outcome, KcmError> {
        run_query(&self.image, &self.symbols, config, query, opts)
    }

    /// Opens a suspendable session for `query` ([`crate::Kcm::solutions`]
    /// semantics).
    ///
    /// # Errors
    ///
    /// Query parse/compile errors, or a fault arming the session.
    pub fn solutions(
        &self,
        query: &str,
        config: &MachineConfig,
        opts: &QueryOpts,
    ) -> Result<Solutions, KcmError> {
        crate::open_session(&self.image, &self.symbols, config, query, opts)
    }
}

/// A query machine of either tier: what every query front end builds.
pub(crate) enum QueryMachine {
    Cycle(Box<Machine>),
    Native(Box<kcm_native::NativeMachine>),
}

impl QueryMachine {
    /// Loads a compiled query image into a fresh machine of `tier`.
    pub(crate) fn new(
        tier: Tier,
        image: CodeImage,
        symbols: SymbolTable,
        config: MachineConfig,
    ) -> QueryMachine {
        match tier {
            Tier::Cycle => QueryMachine::Cycle(Box::new(Machine::new(image, symbols, config))),
            Tier::Native => {
                QueryMachine::Native(Box::new(kcm_native::native_machine(image, symbols, config)))
            }
        }
    }

    fn run_query(&mut self, vars: &[String], enumerate_all: bool) -> Result<Outcome, KcmError> {
        match self {
            QueryMachine::Cycle(m) => Ok(m.run_query(vars, enumerate_all)?),
            QueryMachine::Native(m) => Ok(m.run_query(vars, enumerate_all)?),
        }
    }

    pub(crate) fn begin_session(&mut self, vars: &[String]) -> Result<(), KcmError> {
        match self {
            QueryMachine::Cycle(m) => Ok(m.begin_query_session(vars)?),
            QueryMachine::Native(m) => Ok(m.begin_query_session(vars)?),
        }
    }

    pub(crate) fn next_solution(&mut self) -> Result<SessionStep, KcmError> {
        match self {
            QueryMachine::Cycle(m) => Ok(m.next_solution()?),
            QueryMachine::Native(m) => Ok(m.next_solution()?),
        }
    }

    pub(crate) fn image(&self) -> &CodeImage {
        match self {
            QueryMachine::Cycle(m) => m.image(),
            QueryMachine::Native(m) => m.image(),
        }
    }

    pub(crate) fn symbols(&self) -> &SymbolTable {
        match self {
            QueryMachine::Cycle(m) => m.symbols(),
            QueryMachine::Native(m) => m.symbols(),
        }
    }

    pub(crate) fn exhausted(&self) -> bool {
        match self {
            QueryMachine::Cycle(m) => m.session_exhausted(),
            QueryMachine::Native(m) => m.session_exhausted(),
        }
    }
}

/// The one query front half: parses `query`, compiles it against `image`
/// on a private clone of `symbols`, overlays `opts` on `config`, and hands
/// the pieces to `build` for the machine. Returns the machine and the
/// query's variable names. Against a frozen program both clones share the
/// program's layers, so the work is the query's alone.
pub(crate) fn prepare<M>(
    image: &CodeImage,
    symbols: &SymbolTable,
    config: &MachineConfig,
    query: &str,
    opts: &QueryOpts,
    build: impl FnOnce(CodeImage, SymbolTable, MachineConfig) -> M,
) -> Result<(M, Vec<String>), KcmError> {
    let goal = kcm_prolog::read_term(query)?;
    let mut symbols = symbols.clone();
    let (qimage, vars) = kcm_compiler::compile_query(image, &goal, &mut symbols)?;
    let mut config = config.clone();
    opts.apply(&mut config);
    Ok((build(qimage, symbols, config), vars))
}

/// Runs `query` to completion on a fresh machine of the tier `opts`
/// selects.
pub(crate) fn run_query(
    image: &CodeImage,
    symbols: &SymbolTable,
    config: &MachineConfig,
    query: &str,
    opts: &QueryOpts,
) -> Result<Outcome, KcmError> {
    let (mut machine, vars) = prepare(image, symbols, config, query, opts, |i, s, c| {
        QueryMachine::new(opts.tier, i, s, c)
    })?;
    machine.run_query(&vars, opts.enumerate_all)
}

/// A program's image: its top layer merged into the base.
fn frozen(mut image: CodeImage) -> Arc<CodeImage> {
    image.freeze();
    Arc::new(image)
}

/// A program's symbol table: its top layer merged into the base.
fn frozen_symbols(mut symbols: SymbolTable) -> Arc<SymbolTable> {
    symbols.freeze();
    Arc::new(symbols)
}

/// The clauses among `clauses` that belong to `pred`, in order.
fn predicate_clauses<'a>(clauses: impl Iterator<Item = &'a Term>, pred: &PredId) -> Vec<Term> {
    clauses
        .filter(|t| clause_pred(t).ok().as_ref() == Some(pred))
        .cloned()
        .collect()
}

/// The predicate a clause belongs to: the head's functor for a rule, the
/// term's own functor for a fact.
pub(crate) fn clause_pred(term: &Term) -> Result<PredId, KcmError> {
    let head = match term {
        Term::Struct(f, args) if f == ":-" && args.len() == 2 => &args[0],
        t => t,
    };
    match head {
        Term::Atom(name) => Ok(PredId {
            name: name.clone(),
            arity: 0,
        }),
        Term::Struct(name, args) => {
            if args.len() > usize::from(u8::MAX) {
                return Err(KcmError::Compile(CompileError::ArityTooLarge {
                    pred: name.clone(),
                    arity: args.len(),
                }));
            }
            Ok(PredId {
                name: name.clone(),
                arity: args.len() as u8,
            })
        }
        t => Err(KcmError::Compile(CompileError::BadClauseHead(
            t.to_string(),
        ))),
    }
}

/// The switch key of one atomic fact argument — mirrors the compiler's
/// first-argument index key derivation.
fn const_key(t: &Term, symbols: &mut SymbolTable) -> Option<Word> {
    match t {
        Term::Int(v) => Some(Word::int(*v)),
        Term::Float(v) => Some(Word::float(*v)),
        Term::Atom(n) if n == "[]" => Some(Word::nil()),
        Term::Atom(n) => Some(Word::atom(symbols.atom(n))),
        _ => None,
    }
}

/// Dispatch keys for a ground atomic-argument fact of arity ≥ 1: the
/// first-argument key, plus the second-argument key (used when the
/// predicate dispatches depth-2 on A2) for arity ≥ 2.
fn fact_keys(fact: &Term, symbols: &mut SymbolTable) -> (Word, Option<Word>) {
    let args = match fact {
        Term::Struct(_, args) => args.as_slice(),
        _ => &[],
    };
    let key1 = args
        .first()
        .and_then(|t| const_key(t, symbols))
        .expect("fact_keys requires a compiled atomic-argument fact");
    let key2 = args.get(1).and_then(|t| const_key(t, symbols));
    (key1, key2)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `f(kN, vN)` for `N` in `0..n`.
    fn facts(n: usize) -> Program {
        let src: String = (0..n).map(|i| format!("f(k{i}, v{i}).\n")).collect();
        Program::load(src.as_str()).expect("load")
    }

    /// A request must not copy the program: the query's own layers hold
    /// the same amount at 10³ and 10⁴ facts, over the program's shared
    /// base layers.
    #[test]
    fn a_query_owns_only_its_own_layer() {
        let config = MachineConfig::default();
        let tops: Vec<(usize, usize)> = [1_000, 10_000]
            .into_iter()
            .map(|n| {
                let program = facts(n);
                let ((image, symbols), vars) = prepare(
                    &program.image,
                    &program.symbols,
                    &config,
                    "f(k7, V)",
                    &QueryOpts::first(),
                    |image, symbols, _| (image, symbols),
                )
                .expect("prepare");
                assert_eq!(vars, ["V"]);
                assert!(Arc::ptr_eq(image.base_layer(), program.image.base_layer()));
                assert!(Arc::ptr_eq(
                    symbols.base_layer(),
                    program.symbols.base_layer()
                ));
                (image.top_instrs(), symbols.top_len())
            })
            .collect();
        assert!(tops[0].0 > 0, "the query's code is in the top layer");
        assert_eq!(
            tops[0], tops[1],
            "(top instrs, top symbols) grew with the program"
        );
    }

    /// Open cursors share the program's base layers; none holds a copy.
    #[test]
    fn open_cursors_share_the_program() {
        let program = facts(10_000);
        let config = MachineConfig::default();
        let cursors: Vec<Solutions> = (0..32)
            .map(|i| {
                let tier = if i % 2 == 0 {
                    Tier::Native
                } else {
                    Tier::Cycle
                };
                let query = format!("f(k{}, V)", i * 311);
                let mut cursor = program
                    .solutions(&query, &config, &QueryOpts::all().with_tier(tier))
                    .expect("open");
                assert!(cursor.next_step().expect("pull").is_some());
                cursor
            })
            .collect();
        for cursor in &cursors {
            assert!(Arc::ptr_eq(
                cursor.image().base_layer(),
                program.image.base_layer()
            ));
            assert!(Arc::ptr_eq(
                cursor.symbols().base_layer(),
                program.symbols.base_layer()
            ));
            assert_eq!(cursor.image().top_instrs(), cursors[0].image().top_instrs());
        }
    }
}
