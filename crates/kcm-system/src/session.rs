//! Suspendable query sessions: pull-based solution streaming.
//!
//! The paper's host-interface model (§2.1) has the workstation *pull*
//! solutions from the KCM one backtrack at a time — the machine reports a
//! solution, the host reads it, and requesting the next answer is exactly
//! a command to fail and resume the search. [`Solutions`] is that model as
//! a Rust iterator: each [`Solutions::next_step`] drives the machine to
//! its next `ReportSolution`, suspends there, and hands back the decoded
//! solution plus that slice's [`RunStats`] delta. Nothing is materialized:
//! a session streaming 10⁶ answers holds one machine and one in-flight
//! solution.
//!
//! Both tiers are supported through the same `DataMem`-generic
//! interpreter, so a cursor on the native tier takes the identical
//! instruction sequence an uninterrupted enumerate-all run would — the
//! property the difftest enumeration oracle checks byte-for-byte.

use crate::program::{prepare, QueryMachine};
use crate::{KcmError, MachineConfig, QueryOpts, RunStats, Solution};
use kcm_arch::SymbolTable;
use kcm_compiler::CodeImage;
use std::sync::Arc;

/// One pulled solution with its slice accounting.
#[derive(Debug, Clone)]
pub struct SolutionStep {
    /// The solution, in the same shape [`crate::Outcome::solutions`] uses.
    pub solution: Solution,
    /// This pull's execution deltas (one budget slice).
    pub stats: RunStats,
    /// Host output produced during this slice.
    pub output: String,
}

/// A suspended query session: a pull-based stream of solutions.
///
/// Obtained from [`crate::Kcm::solutions`], [`crate::Program::solutions`]
/// or [`open_session`]. Pull with [`Solutions::next_step`] for per-slice
/// accounting, or use the [`Iterator`] impl for the solutions alone.
/// Dropping the session at any point releases the machine — there is
/// nothing else to clean up.
pub struct Solutions {
    machine: QueryMachine,
    dead: bool,
    pulled: u64,
    totals: RunStats,
    output: String,
}

impl Solutions {
    /// Runs the machine to its next solution and suspends there.
    ///
    /// Returns `Ok(None)` when the enumeration is exhausted (the final
    /// failing search's stats still accumulate into
    /// [`Solutions::totals`]). After an `Err` — a machine fault, or the
    /// per-slice budget running out mid-search — the session is dead:
    /// further calls return `Ok(None)`.
    ///
    /// # Errors
    ///
    /// A [`KcmError::Machine`] fault, including
    /// [`crate::MachineError::BudgetExhausted`] /
    /// [`crate::MachineError::Fuel`] when one pull's budget slice is
    /// exhausted.
    pub fn next_step(&mut self) -> Result<Option<SolutionStep>, KcmError> {
        if self.dead || self.machine.exhausted() {
            return Ok(None);
        }
        let step = match self.machine.next_solution() {
            Ok(step) => step,
            Err(e) => {
                self.dead = true;
                return Err(e);
            }
        };
        self.totals.cycle_ns = step.stats.cycle_ns;
        self.totals.merge(&step.stats);
        self.output.push_str(&step.output);
        match step.solution {
            Some(solution) => {
                self.pulled += 1;
                Ok(Some(SolutionStep {
                    solution,
                    stats: step.stats,
                    output: step.output,
                }))
            }
            None => Ok(None),
        }
    }

    /// Whether the session has ended (exhausted, or dead after an error).
    pub fn exhausted(&self) -> bool {
        self.dead || self.machine.exhausted()
    }

    /// Solutions pulled so far.
    pub fn pulled(&self) -> u64 {
        self.pulled
    }

    /// Accumulated stats over every slice pulled so far (including the
    /// final failing slice once the session is exhausted). Over a fully
    /// drained session these equal a one-shot enumerate-all run's stats.
    pub fn totals(&self) -> &RunStats {
        &self.totals
    }

    /// The query image the session's machine runs: the program's image
    /// with the query linked into its top layer.
    pub fn image(&self) -> &CodeImage {
        self.machine.image()
    }

    /// The session machine's symbol table: the program's, plus whatever
    /// the query and its builtins interned.
    pub fn symbols(&self) -> &SymbolTable {
        self.machine.symbols()
    }

    /// Accumulated host output over every slice pulled so far.
    pub fn output(&self) -> &str {
        &self.output
    }
}

impl Iterator for Solutions {
    type Item = Result<Solution, KcmError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_step() {
            Ok(Some(step)) => Some(Ok(step.solution)),
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

/// Opens a suspendable session for `query` against an already-linked
/// `image`: [`crate::Program::solutions`] for callers that hold the image
/// and symbol table apart. `opts.enumerate_all` is ignored — a session
/// enumerates by construction, the *caller* decides when to stop
/// pulling.
///
/// # Errors
///
/// Query parse/compile errors, or a fault arming the session.
pub fn open_session(
    image: &Arc<CodeImage>,
    symbols: &SymbolTable,
    config: &MachineConfig,
    query: &str,
    opts: &QueryOpts,
) -> Result<Solutions, KcmError> {
    let (mut machine, vars) = prepare(image, symbols, config, query, opts, |i, s, c| {
        QueryMachine::new(opts.tier, i, s, c)
    })?;
    machine.begin_session(&vars)?;
    Ok(Solutions {
        machine,
        dead: false,
        pulled: 0,
        totals: RunStats::default(),
        output: String::new(),
    })
}
