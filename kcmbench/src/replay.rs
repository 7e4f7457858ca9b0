//! The traced in-process replay. Each request the traced run sends over
//! the wire is replayed against an identically published in-process copy
//! of the server's programs, under one span per public call, so that the
//! wire round trip can be split into the layers that serve it.

use crate::trace::Tracer;
use crate::wire::{ok_body, Conn, Result};
use kcm_arch::SymbolTable;
use kcm_serve::{render_outcome, Reply, Request};
use kcm_system::pool::run_session;
use kcm_system::{
    open_session, Kcm, MachineConfig, Outcome, ProgramRegistry, QueryJob, QueryOpts, Tier,
};
use std::collections::BTreeMap;

/// The serving step budget of `ServeConfig::default()`, applied to every
/// replayed query so replay and server run the same job.
const SERVE_BUDGET: u64 = 50_000_000;
/// Most answers a replayed cursor pulls.
const CURSOR_PULLS: usize = 4;

/// Parent span of the decomposition of the serving tier's query path;
/// its children are the stages whose coverage is reported.
pub const PRIMARY: &str = "replay.primary";

/// Exact counts the replay gathers, summed over replayed requests.
#[derive(Debug, Default)]
pub struct Counts {
    /// Instructions retired by the serving-tier runs of the replayed
    /// wire requests (what the server's `steps` counter must match).
    pub steps: u64,
    pub inferences: u64,
    pub sim_cycles: u64,
    pub switch_hits: u64,
    pub switch_misses: u64,
    pub switch_probes: u64,
    pub dcache_hits: u64,
    pub dcache_misses: u64,
    pub icache_hits: u64,
    pub icache_misses: u64,
    pub page_faults: u64,
    /// Per request: instructions in the query image, symbols in the table.
    pub image_instrs: Vec<f64>,
    pub symbols: Vec<f64>,
    /// Per request: simulated ms of the cycle-tier run.
    pub sim_ms: BTreeMap<String, f64>,
}

/// The in-process copy of what the server publishes.
pub struct Replica {
    registry: ProgramRegistry,
    kcms: BTreeMap<String, Kcm>,
    tier: Tier,
    config: MachineConfig,
    pub counts: Counts,
}

impl Replica {
    /// Publishes every tenant in-process, timing the load path's layers.
    pub fn build(t: &mut Tracer, tenants: &[(String, String)], tier: Tier) -> Result<Replica> {
        let config = MachineConfig::default();
        let registry = ProgramRegistry::new(tenants.len().max(1));
        let mut kcms = BTreeMap::new();
        for (name, source) in tenants {
            t.span("setup.tenant", |t| -> Result<()> {
                let clauses = t
                    .span("prolog.read_program", |_| kcm_prolog::read_program(source))
                    .map_err(|e| format!("{name}: {e}"))?;
                let mut symbols = SymbolTable::new();
                let image = t
                    .span("compiler.compile_program", |_| {
                        kcm_compiler::compile_program(&clauses, &mut symbols)
                    })
                    .map_err(|e| format!("{name}: {e}"))?;
                drop(image);
                t.span("system.publish", |_| {
                    registry.publish(name, source.as_str(), &config, None)
                })
                .map_err(|e| format!("{name}: {e}"))?;
                let mut kcm = Kcm::new();
                kcm.load(source.as_str())
                    .map_err(|e| format!("{name}: {e}"))?;
                kcms.insert(name.clone(), kcm);
                Ok(())
            })?;
        }
        Ok(Replica {
            registry,
            kcms,
            tier,
            config,
            counts: Counts::default(),
        })
    }

    fn opts(&self, tier: Tier, enumerate_all: bool) -> QueryOpts {
        QueryOpts {
            enumerate_all,
            step_budget: Some(SERVE_BUDGET),
            trace: 0,
            tier,
        }
    }

    /// Sends one query over `conn` and replays it in-process, all under a
    /// `serve.request` span. Checks that the replay renders the very bytes
    /// the server sent.
    pub fn query(
        &mut self,
        t: &mut Tracer,
        conn: &mut Conn,
        tenant: &str,
        query: &str,
        enumerate_all: bool,
    ) -> Result<()> {
        let request = Request::Query {
            tenant: Some(tenant.to_owned()),
            query: query.to_owned(),
            enumerate_all,
            step_budget: None,
            cursor: false,
        };
        t.span("serve.request", |t| -> Result<()> {
            let payload = request.encode();
            let wire_reply = t.span("serve.roundtrip", |_| -> Result<Vec<u8>> {
                conn.send(&payload)?;
                conn.recv()
            })?;
            let wire_body = ok_body(&wire_reply).map_err(|e| format!("{query}: {e}"))?;
            t.span("serve.codec", |_| -> Result<()> {
                let encoded = std::hint::black_box(request.encode());
                Request::parse(&encoded)?;
                Reply::parse(&wire_reply)?;
                Ok(())
            })?;
            let published = t
                .span("system.registry_lookup", |_| self.registry.lookup(tenant))
                .map_err(|e| e.to_string())?;
            let serving = self.tier;
            let other = match serving {
                Tier::Native => Tier::Cycle,
                Tier::Cycle => Tier::Native,
            };
            let serving_opts = self.opts(serving, enumerate_all);
            let other_opts = self.opts(other, enumerate_all);
            let cursor_opts = self.opts(serving, true);
            let job = QueryJob::with_opts(query, serving_opts.clone());
            let outcome = t
                .span("system.run_session", |_| {
                    run_session(&published.image, &published.symbols, &self.config, &job)
                })
                .map_err(|e| format!("{query}: {e}"))?;
            let body = t.span("serve.render", |_| {
                Reply::Ok {
                    body: render_outcome(&outcome),
                }
                .encode()
            });
            if body != wire_reply {
                return Err(format!(
                    "replay of {query:?} renders {:?}, the server sent {wire_body:?}",
                    String::from_utf8_lossy(&body)
                ));
            }
            self.counts.steps += outcome.stats.instructions;
            self.counts.inferences += outcome.stats.inferences;
            self.counts.switch_hits += outcome.profile.switches.hits;
            self.counts.switch_misses += outcome.profile.switches.misses;
            self.counts.switch_probes += outcome.profile.switches.probes;
            self.counts
                .symbols
                .push((published.symbols.atom_count() + published.symbols.functor_count()) as f64);

            let kcm = self
                .kcms
                .get_mut(tenant)
                .ok_or_else(|| format!("no replica of {tenant}"))?;
            let direct = t
                .span("system.query", |_| kcm.query(query, &serving_opts))
                .map_err(|e| format!("{query}: {e}"))?;
            if render_outcome(&direct) != render_outcome(&outcome) {
                return Err(format!("Kcm::query and run_session disagree on {query:?}"));
            }

            let primary = t.span(PRIMARY, |t| stages(t, kcm, query, serving_opts, true))?;
            let secondary = t.span("replay.secondary", |t| {
                stages(t, kcm, query, other_opts, false)
            })?;
            let (cycle, instrs) = match serving {
                Tier::Cycle => (&primary.0, primary.1),
                Tier::Native => (&secondary.0, primary.1),
            };
            self.counts.image_instrs.push(instrs as f64);
            self.counts.sim_cycles += cycle.stats.cycles;
            let mem = &cycle.stats.mem;
            self.counts.dcache_hits += mem.dcache_hits;
            self.counts.dcache_misses += mem.dcache_misses;
            self.counts.icache_hits += mem.icache_hits;
            self.counts.icache_misses += mem.icache_misses;
            self.counts.page_faults += mem.data_page_faults + mem.code_page_faults;
            self.counts
                .sim_ms
                .insert(format!("{tenant}:{query}"), cycle.stats.ms());
            for (tier_outcome, tier) in [(&primary.0, serving), (&secondary.0, other)] {
                if tier_outcome.solutions != outcome.solutions
                    || tier_outcome.stats.instructions != outcome.stats.instructions
                {
                    return Err(format!("{tier:?} replay of {query:?} disagrees with serve"));
                }
            }

            t.span("replay.cursor", |t| -> Result<()> {
                let published = self.registry.lookup(tenant).map_err(|e| e.to_string())?;
                let mut session = t
                    .span("system.open_session", |_| {
                        open_session(
                            &published.image,
                            &published.symbols,
                            &self.config,
                            query,
                            &cursor_opts,
                        )
                    })
                    .map_err(|e| format!("{query}: {e}"))?;
                for _ in 0..CURSOR_PULLS {
                    let step = t
                        .span("system.next_step", |_| session.next_step())
                        .map_err(|e| format!("{query}: {e}"))?;
                    if step.is_none() {
                        break;
                    }
                }
                Ok(())
            })
        })
    }

    /// Sends one `ASSERT`/`RETRACT` over `conn` and replays it on the
    /// registry copy and on the `Kcm` copy.
    pub fn update(
        &mut self,
        t: &mut Tracer,
        conn: &mut Conn,
        tenant: &str,
        clause: &str,
        assert: bool,
    ) -> Result<()> {
        let request = if assert {
            Request::Assert {
                name: tenant.to_owned(),
                clause: clause.to_owned(),
            }
        } else {
            Request::Retract {
                name: tenant.to_owned(),
                clause: clause.to_owned(),
            }
        };
        t.span("serve.update", |t| -> Result<()> {
            let payload = request.encode();
            let reply = t.span("serve.update_roundtrip", |_| -> Result<Vec<u8>> {
                conn.send(&payload)?;
                conn.recv()
            })?;
            ok_body(&reply).map_err(|e| format!("{clause}: {e}"))?;
            self.local_update(t, tenant, clause, assert)
        })
    }

    /// Applies one update to both in-process copies under spans.
    pub fn local_update(
        &mut self,
        t: &mut Tracer,
        tenant: &str,
        clause: &str,
        assert: bool,
    ) -> Result<()> {
        let kcm = self
            .kcms
            .get_mut(tenant)
            .ok_or_else(|| format!("no replica of {tenant}"))?;
        let registry = &self.registry;
        let applied = if assert {
            t.span("system.registry_assertz", |_| {
                registry.assertz(tenant, clause)
            })
            .map(|_| true)
            .and_then(|_| {
                t.span("system.kcm_assertz", |_| kcm.assertz(clause))
                    .map(|()| true)
            })
        } else {
            t.span("system.registry_retract", |_| {
                registry.retract(tenant, clause)
            })
            .map(|(_, removed)| removed)
            .and_then(|a| {
                t.span("system.kcm_retract", |_| kcm.retract(clause))
                    .map(|b| a && b)
            })
        };
        match applied {
            Ok(true) => Ok(()),
            Ok(false) => Err(format!("retract of {clause} removed nothing")),
            Err(e) => Err(format!("{clause}: {e}")),
        }
    }
}

/// The query path of `Kcm::query` taken apart into its public calls, one
/// span each. Returns the outcome and the query image's size.
fn stages(
    t: &mut Tracer,
    kcm: &Kcm,
    query: &str,
    opts: QueryOpts,
    primary: bool,
) -> Result<(Outcome, usize)> {
    let image = kcm.image().ok_or("no program")?;
    let (name_new, name_run, name_drop) = match opts.tier {
        Tier::Native => ("native.machine_new", "native.run", "native.drop"),
        Tier::Cycle => ("cpu.machine_new", "cpu.run", "cpu.drop"),
    };
    // Only the serving tier's front half is timed: the other tier's copy
    // of it is set-up for the machine spans, not a stage of its own.
    let front = |t: &mut Tracer| -> Result<_> {
        let goal = t
            .span("prolog.read_term", |_| kcm_prolog::read_term(query))
            .map_err(|e| e.to_string())?;
        let mut symbols = t.span("arch.symbols_clone", |_| kcm.symbols().clone());
        let (qimage, vars) = t
            .span("compiler.compile_query", |_| {
                kcm_compiler::compile_query(image, &goal, &mut symbols)
            })
            .map_err(|e| e.to_string())?;
        Ok((qimage, vars, symbols))
    };
    let (qimage, vars, symbols) = if primary {
        front(t)?
    } else {
        t.span("replay.front", front)?
    };
    let instrs = qimage.num_instrs();
    let mut config = kcm.config().clone();
    opts.apply(&mut config);
    let outcome = match opts.tier {
        Tier::Native => {
            let mut m = t.span(name_new, |_| {
                kcm_native::native_machine(qimage, symbols, config)
            });
            let out = t.span(name_run, |_| m.run_query(&vars, opts.enumerate_all));
            t.span(name_drop, |_| drop(m));
            out
        }
        Tier::Cycle => {
            let mut m = t.span(name_new, |_| {
                kcm_system::Machine::new(qimage, symbols, config)
            });
            let out = t.span(name_run, |_| m.run_query(&vars, opts.enumerate_all));
            t.span(name_drop, |_| drop(m));
            out
        }
    }
    .map_err(|e| format!("{query}: {e}"))?;
    Ok((outcome, instrs))
}
