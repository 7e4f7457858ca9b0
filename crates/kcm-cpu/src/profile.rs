//! The execution profile and event tracer — the observability layer of
//! the simulator.
//!
//! The paper's tool set includes "monitors (at microcode, macrocode, and
//! Prolog levels)" (§4); mature Prolog systems grew the same facilities
//! into first-class subsystems (SICStus `statistics/2` and its profiler,
//! B-Prolog's event-driven instrumentation). This module is that layer
//! for the KCM model:
//!
//! * [`Profile`] — per-run event counters for the paper's hardware
//!   mechanisms: retired count and cycles per instruction class, MWAC
//!   dispatch outcomes (§3.1.4), shallow vs. deep backtracks (§3.1.5),
//!   trail-condition checks (§3.1.5), a dereference-chain length
//!   histogram (§3.1.4) and zone-grow traps (§3.2.3). Like
//!   [`RunStats`](crate::RunStats), profiles of independent sessions
//!   merge deterministically in session order.
//! * [`Tracer`] — a bounded ring buffer of [`TraceEvent`]s. Recording is
//!   behind a single branch on the configured depth, so a disabled
//!   tracer costs one predictable-not-taken branch per event site and
//!   allocates nothing.

use crate::mwac::UnifyCase;
use kcm_arch::isa::Instr;
use kcm_arch::{CodeAddr, VAddr, Zone};
use std::collections::VecDeque;

/// Instruction classes of the per-opcode execution profile. Every ISA
/// opcode maps to exactly one class ([`InstrClass::of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstrClass {
    /// Procedural control: call/execute/proceed, environments, jumps,
    /// halt and the inference-accounting `mark`.
    Control,
    /// Choice-point machinery: try/retry/trust chains, neck, cut, fail.
    Choice,
    /// Clause indexing: the three `switch_on_*` instructions.
    Index,
    /// Head unification: the `get_*` family.
    Get,
    /// Argument construction: the `put_*` family.
    Put,
    /// Structure-argument unification: the `unify_*` family.
    Unify,
    /// Built-in escapes to the host monitor.
    Escape,
    /// Generic ALU/FPU work: arithmetic, compares, branches, register
    /// moves and tag manipulation.
    Arith,
    /// Explicit loads and stores of the general-purpose subset.
    Mem,
}

impl InstrClass {
    /// Number of classes (array dimension of [`Profile::classes`]).
    pub const COUNT: usize = 9;

    /// All classes, in display order.
    pub const ALL: [InstrClass; InstrClass::COUNT] = [
        InstrClass::Control,
        InstrClass::Choice,
        InstrClass::Index,
        InstrClass::Get,
        InstrClass::Put,
        InstrClass::Unify,
        InstrClass::Escape,
        InstrClass::Arith,
        InstrClass::Mem,
    ];

    /// Stable lower-case name (used by reports and the JSONL schema).
    pub fn name(self) -> &'static str {
        match self {
            InstrClass::Control => "control",
            InstrClass::Choice => "choice",
            InstrClass::Index => "index",
            InstrClass::Get => "get",
            InstrClass::Put => "put",
            InstrClass::Unify => "unify",
            InstrClass::Escape => "escape",
            InstrClass::Arith => "arith",
            InstrClass::Mem => "mem",
        }
    }

    /// The class of a decoded instruction.
    pub fn of(instr: &Instr) -> InstrClass {
        match instr {
            Instr::Call { .. }
            | Instr::Execute { .. }
            | Instr::Proceed
            | Instr::Allocate { .. }
            | Instr::Deallocate
            | Instr::Jump { .. }
            | Instr::Halt { .. }
            | Instr::Mark => InstrClass::Control,
            Instr::TryMeElse { .. }
            | Instr::RetryMeElse { .. }
            | Instr::TrustMe
            | Instr::Try { .. }
            | Instr::Retry { .. }
            | Instr::Trust { .. }
            | Instr::Neck
            | Instr::Cut
            | Instr::CutEnv
            | Instr::Fail => InstrClass::Choice,
            Instr::SwitchOnTerm { .. }
            | Instr::SwitchOnConstant { .. }
            | Instr::SwitchOnStructure { .. } => InstrClass::Index,
            Instr::GetVariable { .. }
            | Instr::GetVariableY { .. }
            | Instr::GetValue { .. }
            | Instr::GetValueY { .. }
            | Instr::GetConstant { .. }
            | Instr::GetNil { .. }
            | Instr::GetList { .. }
            | Instr::GetStructure { .. } => InstrClass::Get,
            Instr::PutVariable { .. }
            | Instr::PutVariableY { .. }
            | Instr::PutValue { .. }
            | Instr::PutValueY { .. }
            | Instr::PutUnsafeValue { .. }
            | Instr::PutConstant { .. }
            | Instr::PutNil { .. }
            | Instr::PutList { .. }
            | Instr::PutStructure { .. } => InstrClass::Put,
            Instr::UnifyVariable { .. }
            | Instr::UnifyVariableY { .. }
            | Instr::UnifyValue { .. }
            | Instr::UnifyValueY { .. }
            | Instr::UnifyLocalValue { .. }
            | Instr::UnifyLocalValueY { .. }
            | Instr::UnifyConstant { .. }
            | Instr::UnifyNil
            | Instr::UnifyVoid { .. }
            | Instr::UnifyTailList => InstrClass::Unify,
            Instr::Escape { .. } => InstrClass::Escape,
            Instr::Move2 { .. }
            | Instr::LoadConst { .. }
            | Instr::Alu { .. }
            | Instr::CmpRegs { .. }
            | Instr::Branch { .. }
            | Instr::Deref { .. }
            | Instr::TvmSwap { .. }
            | Instr::TvmGc { .. } => InstrClass::Arith,
            Instr::Load { .. }
            | Instr::Store { .. }
            | Instr::LoadDirect { .. }
            | Instr::StoreDirect { .. } => InstrClass::Mem,
            // Future `non_exhaustive` opcodes fault before retiring, but
            // classify conservatively if they ever reach the profile.
            _ => InstrClass::Control,
        }
    }
}

/// Retired count and consumed cycles of one instruction class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// Instructions of this class retired.
    pub retired: u64,
    /// Cycles consumed executing them (including memory-miss extras
    /// charged during the instruction).
    pub cycles: u64,
}

/// MWAC dispatch outcome counters (§3.1.4): how often the 16-way type
/// branch of general unification selected each microcode case.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MwacCounters {
    /// Left operand unbound: bind left to right.
    pub bind_left: u64,
    /// Right operand unbound: bind right to left.
    pub bind_right: u64,
    /// Both constants: compare tag and value.
    pub compare_constants: u64,
    /// Both lists: descend.
    pub descend_list: u64,
    /// Both structures: compare functors, descend.
    pub descend_struct: u64,
    /// Type clash: fail.
    pub clash: u64,
}

impl MwacCounters {
    /// Total dispatches.
    pub fn total(&self) -> u64 {
        self.bind_left
            + self.bind_right
            + self.compare_constants
            + self.descend_list
            + self.descend_struct
            + self.clash
    }
}

/// Clause-indexing switch dispatch counters: how the table switches
/// (`switch_on_constant` / `switch_on_structure`) resolved their lookups.
///
/// Probes count the *charged* table probes of the simulated machine — a
/// hit at table ordinal `k` charges `k + 1` probes, a miss charges the
/// full table length. These are dispatch outcomes, determined by program
/// semantics alone, so the numbers are the same whether the host
/// resolved the lookup through the link-time hash side table or a scan
/// (and identical across execution tiers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchCounters {
    /// Table probes charged across all table-switch dispatches.
    pub probes: u64,
    /// Dispatches that found their key in the table.
    pub hits: u64,
    /// Dispatches that missed the table (took the default or failed).
    pub misses: u64,
    /// Second-level (depth-2) dispatches: `switch_on_term` on an
    /// argument register other than A1, i.e. entries into the
    /// second-level tables of depth-2 fact indexing.
    pub depth2: u64,
}

/// Dereference-chain histogram buckets: chains of length 0..=7 links,
/// plus one overflow bucket for 8 links and longer.
pub const DEREF_HIST_BUCKETS: usize = 9;

/// Per-run execution profile: event counters for the paper's hardware
/// mechanisms plus the per-opcode-class breakdown. All counters are
/// plain sums, so profiles merge exactly like [`RunStats`](crate::RunStats)
/// — counter-by-counter, in session order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Profile {
    /// Retired count + cycles per instruction class, indexed in
    /// [`InstrClass::ALL`] order.
    pub classes: [ClassCounters; InstrClass::COUNT],
    /// MWAC dispatch outcomes of general unification (§3.1.4).
    pub mwac: MwacCounters,
    /// Clause-indexing switch dispatch outcomes.
    pub switches: SwitchCounters,
    /// Failures resolved by shadow-register restore (§3.1.5).
    pub shallow_backtracks: u64,
    /// Failures resolved from a materialised choice point.
    pub deep_backtracks: u64,
    /// Trail-condition evaluations (every binding checks it; the
    /// hardware runs the check in parallel with dereferencing, §3.1.5).
    pub trail_checks: u64,
    /// Trail checks that actually pushed an entry.
    pub trail_pushes: u64,
    /// Dereference chains by length: `deref_hist[n]` counts chains that
    /// followed exactly `n` links; the last bucket collects 8+.
    pub deref_hist: [u64; DEREF_HIST_BUCKETS],
    /// Zone-limit traps serviced by growing the zone (§3.2.3).
    pub zone_grow_traps: u64,
}

impl Profile {
    /// Records one retired instruction of class `class` that consumed
    /// `cycles`.
    #[inline]
    pub(crate) fn retire(&mut self, class: InstrClass, cycles: u64) {
        let c = &mut self.classes[class as usize];
        c.retired += 1;
        c.cycles += cycles;
    }

    /// Records one MWAC dispatch outcome.
    #[inline]
    pub(crate) fn record_dispatch(&mut self, case: UnifyCase) {
        match case {
            UnifyCase::BindLeft => self.mwac.bind_left += 1,
            UnifyCase::BindRight => self.mwac.bind_right += 1,
            UnifyCase::CompareConstants => self.mwac.compare_constants += 1,
            UnifyCase::DescendList => self.mwac.descend_list += 1,
            UnifyCase::DescendStruct => self.mwac.descend_struct += 1,
            UnifyCase::Clash => self.mwac.clash += 1,
        }
    }

    /// Records one completed dereference chain of `links` links.
    #[inline]
    pub(crate) fn record_deref_chain(&mut self, links: usize) {
        let bucket = links.min(DEREF_HIST_BUCKETS - 1);
        self.deref_hist[bucket] += 1;
    }

    /// Total instructions retired across every class.
    pub fn retired_total(&self) -> u64 {
        self.classes.iter().map(|c| c.retired).sum()
    }

    /// Total cycles attributed across every class.
    pub fn cycles_total(&self) -> u64 {
        self.classes.iter().map(|c| c.cycles).sum()
    }

    /// The counters of one class.
    pub fn class(&self, class: InstrClass) -> ClassCounters {
        self.classes[class as usize]
    }

    /// Total dereference chains observed (all histogram buckets).
    pub fn deref_chains_total(&self) -> u64 {
        self.deref_hist.iter().sum()
    }

    /// Adds another session's profile into this aggregate. Every counter
    /// sums, the same discipline as
    /// [`RunStats::merge`](crate::RunStats::merge).
    pub fn merge(&mut self, other: &Profile) {
        for (mine, theirs) in self.classes.iter_mut().zip(&other.classes) {
            mine.retired += theirs.retired;
            mine.cycles += theirs.cycles;
        }
        self.mwac.bind_left += other.mwac.bind_left;
        self.mwac.bind_right += other.mwac.bind_right;
        self.mwac.compare_constants += other.mwac.compare_constants;
        self.mwac.descend_list += other.mwac.descend_list;
        self.mwac.descend_struct += other.mwac.descend_struct;
        self.mwac.clash += other.mwac.clash;
        self.switches.probes += other.switches.probes;
        self.switches.hits += other.switches.hits;
        self.switches.misses += other.switches.misses;
        self.switches.depth2 += other.switches.depth2;
        self.shallow_backtracks += other.shallow_backtracks;
        self.deep_backtracks += other.deep_backtracks;
        self.trail_checks += other.trail_checks;
        self.trail_pushes += other.trail_pushes;
        for (mine, theirs) in self.deref_hist.iter_mut().zip(&other.deref_hist) {
            *mine += theirs;
        }
        self.zone_grow_traps += other.zone_grow_traps;
    }

    /// Deterministic aggregate of per-session profiles: counters summed
    /// in iteration order (the [`RunStats::merged`](crate::RunStats::merged)
    /// discipline). An empty iterator yields the zero profile.
    pub fn merged<'a>(profiles: impl IntoIterator<Item = &'a Profile>) -> Profile {
        let mut out = Profile::default();
        for p in profiles {
            out.merge(p);
        }
        out
    }

    /// The per-run delta between this (cumulative) profile and an
    /// earlier snapshot of it. Every counter subtracts; `earlier` must
    /// be a genuine earlier snapshot of `self`.
    pub fn delta_since(&self, earlier: &Profile) -> Profile {
        let mut out = *self;
        for (mine, theirs) in out.classes.iter_mut().zip(&earlier.classes) {
            mine.retired -= theirs.retired;
            mine.cycles -= theirs.cycles;
        }
        out.mwac.bind_left -= earlier.mwac.bind_left;
        out.mwac.bind_right -= earlier.mwac.bind_right;
        out.mwac.compare_constants -= earlier.mwac.compare_constants;
        out.mwac.descend_list -= earlier.mwac.descend_list;
        out.mwac.descend_struct -= earlier.mwac.descend_struct;
        out.mwac.clash -= earlier.mwac.clash;
        out.switches.probes -= earlier.switches.probes;
        out.switches.hits -= earlier.switches.hits;
        out.switches.misses -= earlier.switches.misses;
        out.switches.depth2 -= earlier.switches.depth2;
        out.shallow_backtracks -= earlier.shallow_backtracks;
        out.deep_backtracks -= earlier.deep_backtracks;
        out.trail_checks -= earlier.trail_checks;
        out.trail_pushes -= earlier.trail_pushes;
        for (mine, theirs) in out.deref_hist.iter_mut().zip(&earlier.deref_hist) {
            *mine -= theirs;
        }
        out.zone_grow_traps -= earlier.zone_grow_traps;
        out
    }
}

/// One traced machine event — the paper's hardware mechanisms, observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A failure resolved by shadow-register restore, jumping to the
    /// armed alternative (§3.1.5).
    ShallowBacktrack {
        /// The alternative clause the machine jumped to.
        alternative: CodeAddr,
    },
    /// A failure resolved from a materialised choice point.
    DeepBacktrack {
        /// The choice-point frame restored from.
        frame: VAddr,
        /// The alternative clause the machine jumped to.
        alternative: CodeAddr,
    },
    /// A choice point materialised (at `neck`, or eagerly when shallow
    /// backtracking is disabled).
    ChoicePointPushed {
        /// The frame's base address on the control stack.
        frame: VAddr,
    },
    /// The trail condition held: a binding was trailed (§3.1.5).
    TrailPush {
        /// The bound cell recorded on the trail.
        cell: VAddr,
    },
    /// A zone-limit trap serviced by growing the zone (§3.2.3).
    ZoneGrow {
        /// The zone that grew.
        zone: Zone,
        /// The faulting address that triggered the trap.
        addr: VAddr,
    },
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceEvent::ShallowBacktrack { alternative } => {
                write!(f, "shallow-backtrack -> code {}", alternative.value())
            }
            TraceEvent::DeepBacktrack { frame, alternative } => {
                write!(
                    f,
                    "deep-backtrack from frame {:#x} -> code {}",
                    frame.value(),
                    alternative.value()
                )
            }
            TraceEvent::ChoicePointPushed { frame } => {
                write!(f, "choice-point at {:#x}", frame.value())
            }
            TraceEvent::TrailPush { cell } => write!(f, "trail-push {:#x}", cell.value()),
            TraceEvent::ZoneGrow { zone, addr } => {
                write!(f, "zone-grow {zone:?} at {:#x}", addr.value())
            }
        }
    }
}

/// A bounded ring buffer of machine events. With depth 0 (the default)
/// every [`Tracer::record`] reduces to one not-taken branch: the closure
/// constructing the event is never called and nothing allocates.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    depth: usize,
    buf: VecDeque<TraceEvent>,
}

impl Tracer {
    /// A tracer keeping the most recent `depth` events (0 = disabled).
    pub fn new(depth: usize) -> Tracer {
        Tracer {
            depth,
            buf: VecDeque::with_capacity(depth.min(4096)),
        }
    }

    /// Whether recording is enabled.
    pub fn enabled(&self) -> bool {
        self.depth > 0
    }

    /// Records an event. The single `depth == 0` branch is the entire
    /// disabled-path cost; `make` runs only when enabled.
    #[inline]
    pub fn record(&mut self, make: impl FnOnce() -> TraceEvent) {
        if self.depth == 0 {
            return; // disabled: the no-op branch
        }
        if self.buf.len() == self.depth {
            self.buf.pop_front();
        }
        self.buf.push_back(make());
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of retained events (at most the configured depth).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Drops all retained events (the depth is kept).
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_has_a_distinct_name() {
        let mut names: Vec<&str> = InstrClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), InstrClass::COUNT);
    }

    #[test]
    fn classifier_covers_representative_opcodes() {
        use kcm_arch::isa::Reg;
        assert_eq!(InstrClass::of(&Instr::Proceed), InstrClass::Control);
        assert_eq!(InstrClass::of(&Instr::TrustMe), InstrClass::Choice);
        assert_eq!(InstrClass::of(&Instr::UnifyNil), InstrClass::Unify);
        assert_eq!(
            InstrClass::of(&Instr::GetNil { a: Reg::new(0) }),
            InstrClass::Get
        );
        assert_eq!(
            InstrClass::of(&Instr::PutNil { a: Reg::new(0) }),
            InstrClass::Put
        );
    }

    #[test]
    fn merge_and_delta_are_inverse() {
        let mut a = Profile::default();
        a.retire(InstrClass::Get, 7);
        a.record_dispatch(UnifyCase::DescendList);
        a.record_deref_chain(3);
        a.trail_checks = 5;
        a.trail_pushes = 2;
        a.shallow_backtracks = 1;
        a.switches.probes = 9;
        a.switches.hits = 2;
        let snapshot = a;
        let mut b = a;
        b.retire(InstrClass::Unify, 11);
        b.record_dispatch(UnifyCase::Clash);
        b.record_deref_chain(20); // overflow bucket
        b.deep_backtracks += 1;
        b.zone_grow_traps += 1;
        b.switches.probes += 4;
        b.switches.misses += 1;
        b.switches.depth2 += 1;
        let delta = b.delta_since(&snapshot);
        assert_eq!(delta.class(InstrClass::Unify).retired, 1);
        assert_eq!(delta.class(InstrClass::Unify).cycles, 11);
        assert_eq!(delta.class(InstrClass::Get).retired, 0);
        assert_eq!(delta.mwac.clash, 1);
        assert_eq!(delta.mwac.descend_list, 0);
        assert_eq!(delta.deref_hist[DEREF_HIST_BUCKETS - 1], 1);
        assert_eq!(delta.deep_backtracks, 1);
        assert_eq!(delta.zone_grow_traps, 1);
        assert_eq!(delta.switches.probes, 4);
        assert_eq!(delta.switches.hits, 0);
        assert_eq!(delta.switches.misses, 1);
        assert_eq!(delta.switches.depth2, 1);
        let mut rebuilt = snapshot;
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, b);
    }

    #[test]
    fn merged_is_order_summed() {
        let mut a = Profile::default();
        a.retire(InstrClass::Control, 1);
        let mut b = Profile::default();
        b.retire(InstrClass::Control, 2);
        b.record_dispatch(UnifyCase::BindLeft);
        let m = Profile::merged([&a, &b]);
        assert_eq!(m.class(InstrClass::Control).retired, 2);
        assert_eq!(m.class(InstrClass::Control).cycles, 3);
        assert_eq!(m.mwac.bind_left, 1);
        assert_eq!(Profile::merged([]), Profile::default());
    }

    #[test]
    fn disabled_tracer_never_builds_events() {
        let mut t = Tracer::new(0);
        t.record(|| panic!("closure must not run when disabled"));
        assert!(t.is_empty());
        assert!(!t.enabled());
    }

    #[test]
    fn tracer_ring_keeps_newest() {
        let mut t = Tracer::new(2);
        for i in 0..5u32 {
            t.record(|| TraceEvent::TrailPush {
                cell: VAddr::new(Zone::Trail.base().value() + i),
            });
        }
        assert_eq!(t.len(), 2);
        let cells: Vec<u32> = t
            .events()
            .map(|e| match e {
                TraceEvent::TrailPush { cell } => cell.value() - Zone::Trail.base().value(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(cells, vec![3, 4]);
    }

    #[test]
    fn trace_events_render() {
        let events = [
            TraceEvent::ShallowBacktrack {
                alternative: CodeAddr::new(4),
            },
            TraceEvent::ChoicePointPushed {
                frame: VAddr::new(Zone::Control.base().value()),
            },
            TraceEvent::ZoneGrow {
                zone: Zone::Global,
                addr: VAddr::new(Zone::Global.base().value()),
            },
        ];
        for e in events {
            assert!(!e.to_string().is_empty());
        }
    }
}
