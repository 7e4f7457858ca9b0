//! The four workloads and the traced replay run.
//!
//! | workload      | traffic                                              | op            | side op            |
//! |---------------|------------------------------------------------------|---------------|--------------------|
//! | `kb_lookup`   | closed loop, 2 connections, `QUERY @kb` + cursors    | QUERY         | cursor open→drained|
//! | `kb_ingest`   | open loop: reader 250 QUERY/s, writer 2 updates/s    | ASSERT/RETRACT| reader stall       |
//! | `suite_serve` | closed loop, 2 connections, the 8 standard tenants   | QUERY         | round of 8 cases   |
//! | `paper_cycle` | in-process, 2 threads, cycle tier, 14 PLM programs   | suite pass    | cold suite pass    |
//!
//! Why the gated ones exist is recorded beside them in `BENCHMARK.json`;
//! `kcmbench/README.md` says why the other two are not gated.

use crate::gen::{
    case_request, CaseStream, Kb, KbLookupStream, KbOp, Schedule, Update, Writer, KB,
};
use crate::oracle::{
    ingested_lines, kb_body, kb_cursor_lines, parse_batch, same_body, Fingerprint,
};
use crate::replay::{Counts, Replica, PRIMARY};
use crate::stats::{beyond, median, percentile};
use crate::trace::{coverage, self_time_by_layer, Tracer};
use crate::wire::{ok_body, Conn, Served};
use crate::{Args, Report};
use kcm_serve::protocol::write_frame;
use kcm_serve::workload::{direct_body, standard};
use kcm_serve::{Request, ServeConfig};
use kcm_suite::programs::{suite, BenchProgram};
use kcm_system::{Kcm, QueryOpts, Tier};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = ["kb_lookup", "kb_ingest", "suite_serve", "paper_cycle"];

/// Why a run stopped.
#[derive(Debug)]
pub enum Failure {
    /// An answer disagreed with its oracle: the run is wrong.
    Oracle(String),
    /// The harness itself failed (socket, bind, thread).
    Harness(String),
}

impl From<String> for Failure {
    fn from(why: String) -> Failure {
        Failure::Harness(why)
    }
}

type Run<T> = Result<T, Failure>;

fn oracle(why: String) -> Failure {
    Failure::Oracle(why)
}

/// Set-ups per run, and the time after which no more are started once the
/// minimum is met; `setup_s` is their median.
const MIN_SETUPS: usize = 9;
const MAX_SETUPS: usize = 100;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Client connections (or threads) of the closed loops: `nproc` on the
/// reference machine.
const CONNS: usize = 2;
/// An open-loop op sent later than this after its due time counts as
/// failed: the generator fell behind its schedule. Latency is timed from
/// the due time either way; the limit is far above the scheduler hiccups
/// a loaded 2-core host gives a sleeping sender (up to ≈25 ms seen), so
/// it counts only a generator that cannot keep up.
const LATE_LIMIT: Duration = Duration::from_millis(100);
/// Untimed ops per connection before the window.
const WARMUP: usize = 2;
/// `kb_ingest` schedules: the reader's mean period keeps it far from
/// saturating its connection even when an update holds it up, and the
/// writer's leaves the reader unblocked most of the time.
const READER_PERIOD: Duration = Duration::from_millis(4);
const WRITER_PERIOD: Duration = Duration::from_millis(500);
/// Every 8th `paper_cycle` op is a cold pass.
const COLD_EVERY: u64 = 8;
/// Update probes a traced run makes when its traffic has no updates.
const PROBES: u64 = 4;

pub fn run(args: &Args, report: &mut Report) -> Run<()> {
    report.line(format!(
        "kcmbench workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    ));
    if args.trace {
        return traced(args, report);
    }
    match args.workload.as_str() {
        "kb_lookup" => kb_lookup(args, report),
        "kb_ingest" => kb_ingest(args, report),
        "suite_serve" => suite_serve(args, report),
        _ => paper_cycle(args, report),
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Host CPU time counters (`/proc/stat`): (stolen, total) ticks.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// CPU time the process has had, every thread, user and system, in
/// seconds. Unlike the wall clock it leaves out the time threads waited
/// for a CPU, which is what moves most when the host is busy.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The share of CPU time the hypervisor took from the (virtual) machine
/// running the benchmark since `start`: time no code here could run,
/// reported beside the metrics it inflates.
fn steal_since((steal0, total0): (u64, u64)) -> f64 {
    let (steal, total) = cpu_ticks();
    (steal - steal0) as f64 / (total - total0).max(1) as f64
}

/// A field of `/proc/self/status` given in kB, in MiB.
fn status_mb(field: &str) -> Run<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| Failure::Harness(format!("no {field} in /proc/self/status")))
}

/// The process-wide counters of a measured window, taken from its start.
struct Meter {
    ticks: (u64, u64),
    cpu0: f64,
    start: Instant,
}

/// What a [`Meter`] measured.
#[derive(Debug, Default)]
struct Metered {
    /// From the window start to the last op's end, in seconds.
    elapsed: f64,
    /// Share of host CPU time stolen during the window.
    steal: f64,
    /// Process CPU seconds spent during the window.
    cpu: f64,
    /// Peak resident set, in MiB.
    peak_rss: f64,
}

impl Meter {
    /// Resets the peak resident set to the current one and notes the CPU
    /// counters.
    fn start() -> Meter {
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        Meter {
            ticks: cpu_ticks(),
            cpu0: process_cpu_s(),
            start: Instant::now(),
        }
    }

    fn finish(self) -> Run<Metered> {
        Ok(Metered {
            elapsed: self.start.elapsed().as_secs_f64(),
            cpu: process_cpu_s() - self.cpu0,
            steal: steal_since(self.ticks),
            peak_rss: status_mb("VmHWM:")?,
        })
    }
}

/// Samples of a measured window.
#[derive(Debug, Default)]
struct Window {
    main: Vec<f64>,
    side: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Open loops: how late each op was sent, in ms.
    late: Vec<f64>,
    /// Open loops: each op's due time and the time its reply was read,
    /// from the window start, in plan order.
    spans: Vec<(Duration, Duration)>,
    /// The process-wide counters of the window.
    metered: Metered,
}

impl Window {
    fn merge(&mut self, other: Window) {
        self.main.extend(other.main);
        self.side.extend(other.side);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.late.extend(other.late);
    }
}

/// What one closed-loop op produced.
#[derive(Debug, Default)]
struct Step {
    main: Option<f64>,
    side: Option<f64>,
    failed: bool,
}

/// Runs `step` on every state on its own thread until `window` has
/// passed; an op started inside the window is always finished.
fn closed_loop<S: Send>(
    states: Vec<S>,
    window: Duration,
    step: impl Fn(&mut S) -> Run<Step> + Sync,
) -> Run<Window> {
    let meter = Meter::start();
    let deadline = meter.start + window;
    let results: Vec<Run<Window>> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .map(|mut state| {
                let step = &step;
                scope.spawn(move || -> Run<Window> {
                    let mut w = Window::default();
                    while Instant::now() < deadline {
                        let s = step(&mut state)?;
                        w.attempted += 1;
                        w.failed += u64::from(s.failed);
                        w.main.extend(s.main);
                        w.side.extend(s.side);
                    }
                    Ok(w)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(Failure::Harness("load thread panicked".to_owned())))
            })
            .collect()
    });
    let mut total = Window {
        metered: meter.finish()?,
        ..Window::default()
    };
    for r in results {
        total.merge(r?);
    }
    Ok(total)
}

/// One op an open loop sends: when it is due, its frame, and what its
/// reply is checked against.
struct Planned<C> {
    due: Duration,
    payload: Vec<u8>,
    check: C,
}

/// Sends the planned ops on their schedule from a sender thread and
/// reads the replies on this one. Latency runs from each op's due time to
/// its whole reply. `check` returns whether the reply is a success
/// (`false` counts the op failed) or an oracle failure. The sender only
/// sleeps, stamps and writes: the plan is built beforehand, so nothing it
/// does allocates while the server under test is stalling.
fn open_loop<C: Sync>(
    conn: Conn,
    start: Instant,
    plan: &[Planned<C>],
    check: impl Fn(&C, &[u8]) -> Run<bool>,
) -> Run<Window> {
    let Conn {
        mut reader,
        mut writer,
    } = conn;
    // Nanoseconds after `start` at which each op was written.
    let sent: Vec<AtomicU64> = plan.iter().map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| -> Run<Window> {
        let sender = scope.spawn(|| -> Run<()> {
            for (op, stamp) in plan.iter().zip(&sent) {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if let Some(wait) = (start + op.due).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                // Release: the receiver reads the stamp after the reply,
                // which the write below causes.
                stamp.store(start.elapsed().as_nanos() as u64, Ordering::Release);
                write_frame(&mut writer, &op.payload).map_err(|e| format!("write: {e}"))?;
            }
            Ok(())
        });
        let mut w = Window {
            main: Vec::with_capacity(plan.len()),
            late: Vec::with_capacity(plan.len()),
            ..Window::default()
        };
        let mut outcome = Ok(());
        for (op, stamp) in plan.iter().zip(&sent) {
            let reply = match kcm_serve::protocol::read_frame(&mut reader) {
                Ok(Some(reply)) => reply,
                Ok(None) => {
                    outcome = Err(Failure::Harness("server closed the connection".into()));
                    break;
                }
                Err(e) => {
                    outcome = Err(Failure::Harness(format!("read: {e}")));
                    break;
                }
            };
            let end = start.elapsed();
            let lat = us(end.saturating_sub(op.due));
            let late = Duration::from_nanos(stamp.load(Ordering::Acquire)).saturating_sub(op.due);
            w.attempted += 1;
            w.late.push(late.as_secs_f64() * 1e3);
            match check(&op.check, &reply) {
                Ok(ok) => w.failed += u64::from(!ok || late > LATE_LIMIT),
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
            w.main.push(lat);
            w.spans.push((op.due, end));
        }
        stop.store(true, Ordering::Relaxed);
        let sent = sender
            .join()
            .unwrap_or_else(|_| Err(Failure::Harness("sender panicked".into())));
        outcome?;
        sent?;
        Ok(w)
    })
}

/// An open-loop plan: every op `next` yields for the due times of
/// `schedule` that fall inside `window`.
fn plan<C>(
    schedule: Schedule,
    window: Duration,
    mut next: impl FnMut() -> (Vec<u8>, C),
) -> Vec<Planned<C>> {
    schedule
        .take_while(|due| *due < window)
        .map(|due| {
            let (payload, check) = next();
            Planned {
                due,
                payload,
                check,
            }
        })
        .collect()
}

/// Each set-up's seconds, on the wall clock and on the process CPU clock.
#[derive(Debug, Default)]
struct Setups {
    wall: Vec<f64>,
    cpu: Vec<f64>,
}

/// Runs `setup` at least `MIN_SETUPS` times and until `SETUP_BUDGET` is
/// spent (at most `MAX_SETUPS`), disposing of all but the last result;
/// returns it with each set-up's seconds.
fn repeat_setup<T>(
    mut setup: impl FnMut() -> Run<T>,
    mut dispose: impl FnMut(T) -> Run<()>,
) -> Run<(T, Setups)> {
    let mut times = Setups::default();
    let mut last: Option<T> = None;
    let begun = Instant::now();
    while times.wall.len() < MIN_SETUPS
        || (times.wall.len() < MAX_SETUPS && begun.elapsed() < SETUP_BUDGET)
    {
        if let Some(prev) = last.take() {
            dispose(prev)?;
        }
        let (t0, cpu0) = (Instant::now(), process_cpu_s());
        last = Some(setup()?);
        times.wall.push(t0.elapsed().as_secs_f64());
        times.cpu.push(process_cpu_s() - cpu0);
    }
    Ok((last.expect("MIN_SETUPS > 0"), times))
}

/// Starts a server and publishes `tenants`, repeatedly; returns the last
/// server (the others are stopped) and each set-up's seconds.
fn serve_setup(tenants: &[(String, String)], cfg: &ServeConfig) -> Run<(Served, Setups)> {
    repeat_setup(
        || {
            let served = Served::start(cfg.clone())?;
            served.publish(tenants)?;
            Ok(served)
        },
        |s: Served| Ok(s.stop()?),
    )
}

/// The 8 standard tenants and the oracle body of each case.
fn standard_tenants() -> (Vec<(String, String)>, Vec<String>) {
    let cases = standard();
    let tenants = cases
        .iter()
        .map(|c| (c.name.to_owned(), c.source.to_owned()))
        .collect();
    let bodies = cases.iter().map(|c| direct_body(c, Tier::Native)).collect();
    (tenants, bodies)
}

/// Names of one workload's end-to-end numbers in the human report.
struct Names {
    op: &'static str,
    ops: &'static str,
    side: &'static str,
    /// Report the op in ms instead of µs (suite passes).
    op_ms: bool,
}

/// Reports the end-to-end metrics of a finished window. The JSON result
/// holds the two that stay steady from run to run on a shared host, both
/// on the process CPU clock: the median set-up and the CPU time per op.
/// The human lines add every wall-clock figure: the op's p50 and p90, its
/// rate, the side op's median, the failure share, the peak resident set
/// and the host's steal.
fn report_window(report: &mut Report, setups: &Setups, w: &Window, names: &Names) -> Run<()> {
    let need = |v: Option<f64>, what: &str| {
        v.ok_or_else(|| Failure::Harness(format!("no {what} samples in the window")))
    };
    let setup = need(median(&setups.cpu), "set-up")?;
    let setup_wall = need(median(&setups.wall), "set-up")?;
    let p50 = need(median(&w.main), names.op)?;
    let p90 = need(percentile(&w.main, 90.0), names.op)?;
    let side = need(median(&w.side), names.side)?;
    let m = &w.metered;
    let rate = w.main.len() as f64 / m.elapsed;
    let frac = w.failed as f64 / w.attempted.max(1) as f64;
    let cpu_per_op = m.cpu * 1e6 / w.attempted.max(1) as f64;
    let (scale, unit) = if names.op_ms {
        (1e-3, "ms")
    } else {
        (1.0, "us")
    };
    let n = w.main.len();
    let (lo, hi) = setups
        .cpu
        .iter()
        .fold((f64::MAX, 0.0_f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
    report.line(format!(
        "setup_s = {setup:.4} s of process CPU (median of {} set-ups, {lo:.4}..{hi:.4}; wall-clock median {setup_wall:.4} s)",
        setups.cpu.len()
    ));
    report.line(format!(
        "op_cpu_us = {cpu_per_op:.1} us ({:.3} s of process CPU over {} ops of every kind in {:.3} s)",
        m.cpu, w.attempted, m.elapsed
    ));
    report.line(format!(
        "{}_p50_{unit} = {:.1} {unit} (n={n})",
        names.op,
        p50 * scale
    ));
    report.line(format!(
        "{}_p90_{unit} = {:.1} {unit} (n={n}, {} beyond)",
        names.op,
        p90 * scale,
        beyond(n, 90.0)
    ));
    report.line(format!("{} = {rate:.2} 1/s", names.ops));
    report.line(format!(
        "{}_p50_{unit} = {:.1} {unit} (n={})",
        names.side,
        side * scale,
        w.side.len()
    ));
    report.line(format!(
        "failed_frac = {frac} ({} of {} ops)",
        w.failed, w.attempted
    ));
    report.line(format!("peak_rss_mb = {:.1} MB", m.peak_rss));
    report.line(format!(
        "host cpu stolen during the window: {:.1}%",
        m.steal * 100.0
    ));
    report.attempted = w.attempted;
    report.failed = w.failed;
    report.metric("setup_s", setup, "s");
    report.metric("op_cpu_us", cpu_per_op, "us");
    Ok(())
}

/// One `kb_lookup` op over `conn`.
fn kb_step(conn: &mut Conn, kb: &Kb, op: KbOp) -> Run<Step> {
    let failed = Step {
        failed: true,
        ..Step::default()
    };
    match op {
        KbOp::Point(_) | KbOp::Join(_) => {
            let (reply, dt) = conn.timed(&op.request().encode())?;
            let Ok(body) = ok_body(&reply) else {
                return Ok(failed);
            };
            same_body(&op.query(), &kb_body(kb, op), &body).map_err(oracle)?;
            Ok(Step {
                main: Some(us(dt)),
                ..Step::default()
            })
        }
        KbOp::Cursor(k) => {
            let t0 = Instant::now();
            let Ok(body) = ok_body(&conn.timed(&op.request().encode())?.0) else {
                return Ok(failed);
            };
            let id: u64 = body
                .strip_prefix("cursor=")
                .and_then(|r| r.trim_end().parse().ok())
                .ok_or_else(|| oracle(format!("bad cursor open body {body:?}")))?;
            let mut lines = Vec::new();
            loop {
                let reply = conn.timed(&Request::Next { id, count: None }.encode())?.0;
                let Ok(body) = ok_body(&reply) else {
                    return Ok(failed);
                };
                let (batch, done) = parse_batch(&body).map_err(oracle)?;
                lines.extend(batch);
                if done {
                    break;
                }
                if lines.len() > kb.owns[k].len() {
                    return Err(oracle(format!("cursor on p{k} streams too many answers")));
                }
            }
            let dt = t0.elapsed();
            if lines != kb_cursor_lines(kb, k) {
                return Err(oracle(format!(
                    "cursor on p{k} streamed {lines:?}, expected {:?}",
                    kb_cursor_lines(kb, k)
                )));
            }
            Ok(Step {
                side: Some(us(dt)),
                ..Step::default()
            })
        }
    }
}

fn kb_lookup(args: &Args, report: &mut Report) -> Run<()> {
    let kb = Kb::generate(args.seed);
    let tenants = vec![(KB.to_owned(), kb.source(false))];
    report.line(format!(
        "tenant kb: {} owns facts, {} price facts",
        kb.owns_facts(),
        kb.price.len()
    ));
    let (served, setups) = serve_setup(&tenants, &ServeConfig::default())?;
    let mut states = Vec::new();
    for c in 0..CONNS {
        let mut conn = served.connect()?;
        let mut stream = KbLookupStream::new(args.seed, c);
        for _ in 0..WARMUP {
            kb_step(&mut conn, &kb, stream.next().expect("endless"))?;
        }
        states.push((conn, stream));
    }
    let w = closed_loop(
        states,
        Duration::from_secs(args.seconds),
        |(conn, stream)| kb_step(conn, &kb, stream.next().expect("endless")),
    )?;
    served.stop()?;
    report_window(
        report,
        &setups,
        &w,
        &Names {
            op: "query",
            ops: "queries_per_s",
            side: "cursor",
            op_ms: false,
        },
    )
}

fn suite_serve(args: &Args, report: &mut Report) -> Run<()> {
    let (tenants, bodies) = standard_tenants();
    let cases = standard();
    let (served, setups) = serve_setup(&tenants, &ServeConfig::default())?;
    let step = |(conn, stream, round): &mut (Conn, CaseStream, (usize, f64))| -> Run<Step> {
        let i = stream.next().expect("endless");
        let (reply, dt) = conn.timed(&case_request(&cases[i]).encode())?;
        let Ok(body) = ok_body(&reply) else {
            *round = (0, 0.0);
            return Ok(Step {
                failed: true,
                ..Step::default()
            });
        };
        same_body(cases[i].name, &bodies[i], &body).map_err(oracle)?;
        round.0 += 1;
        round.1 += us(dt);
        let side = (round.0 == cases.len()).then_some(round.1);
        if side.is_some() {
            *round = (0, 0.0);
        }
        Ok(Step {
            main: Some(us(dt)),
            side,
            failed: false,
        })
    };
    let mut states = Vec::new();
    for c in 0..CONNS {
        let conn = served.connect()?;
        let stream = CaseStream::new(args.seed, &format!("suite_serve.conn{c}"), cases.len());
        let mut state = (conn, stream, (0, 0.0));
        // Warm-up is one whole round, so measured rounds stay aligned.
        for _ in 0..cases.len() {
            step(&mut state)?;
        }
        state.2 = (0, 0.0);
        states.push(state);
    }
    let w = closed_loop(states, Duration::from_secs(args.seconds), step)?;
    served.stop()?;
    report_window(
        report,
        &setups,
        &w,
        &Names {
            op: "query",
            ops: "queries_per_s",
            side: "round",
            op_ms: false,
        },
    )
}

fn kb_ingest(args: &Args, report: &mut Report) -> Run<()> {
    let kb = Kb::generate(args.seed);
    let (mut tenants, bodies) = standard_tenants();
    tenants.insert(0, (KB.to_owned(), kb.source(true)));
    let cases = standard();
    let (served, setups) = serve_setup(&tenants, &ServeConfig::default())?;
    let reader_conn = served.connect()?;
    let writer_conn = served.connect()?;
    // Warm-up: one reader round, untimed.
    {
        let mut conn = served.connect()?;
        for (i, case) in cases.iter().enumerate() {
            let body = ok_body(&conn.timed(&case_request(case).encode())?.0)?;
            same_body(case.name, &bodies[i], &body).map_err(oracle)?;
        }
    }
    let window = Duration::from_secs(args.seconds);
    let mut reader_cases = CaseStream::new(args.seed, "kb_ingest.reader.cases", cases.len());
    let reader_plan = plan(
        Schedule::new(args.seed, "kb_ingest.reader", READER_PERIOD),
        window,
        || {
            let i = reader_cases.next().expect("endless");
            (case_request(&cases[i]).encode(), i)
        },
    );
    let mut writer = Writer::new(args.seed, &kb);
    let writer_plan = plan(
        Schedule::new(args.seed, "kb_ingest.writer", WRITER_PERIOD),
        window,
        || {
            let op = writer.next().expect("endless");
            (op.request().encode(), op)
        },
    );
    let meter = Meter::start();
    let start = meter.start + Duration::from_millis(5);
    let (reader, updates) = std::thread::scope(|scope| {
        let w = scope.spawn(|| {
            open_loop(writer_conn, start, &writer_plan, |op: &Update, reply| {
                let Ok(body) = ok_body(reply) else {
                    return Ok(false);
                };
                match op {
                    Update::Retract(clause) if !body.contains("removed=true") => Err(oracle(
                        format!("RETRACT {clause} removed nothing: {body:?}"),
                    )),
                    _ => Ok(true),
                }
            })
        });
        let r = open_loop(reader_conn, start, &reader_plan, |&i: &usize, reply| {
            let Ok(body) = ok_body(reply) else {
                return Ok(false);
            };
            same_body(cases[i].name, &bodies[i], &body).map_err(oracle)?;
            Ok(true)
        });
        let w = w
            .join()
            .unwrap_or_else(|_| Err(Failure::Harness("writer panicked".into())));
        (r, w)
    });
    let metered = meter.finish()?;
    let (reader, updates) = (reader?, updates?);

    // The writer's oracle: one drain of ingested/2 after the window.
    let mut conn = served.connect()?;
    let open = Request::Query {
        tenant: Some(KB.to_owned()),
        query: "ingested(J, I)".to_owned(),
        enumerate_all: false,
        step_budget: None,
        cursor: true,
    };
    let body = ok_body(&conn.timed(&open.encode())?.0)?;
    let id: u64 = body
        .strip_prefix("cursor=")
        .and_then(|r| r.trim_end().parse().ok())
        .ok_or_else(|| format!("bad cursor open body {body:?}"))?;
    let mut drained = Vec::new();
    loop {
        let next = Request::Next {
            id,
            count: Some(256),
        };
        let (batch, done) =
            parse_batch(&ok_body(&conn.timed(&next.encode())?.0)?).map_err(oracle)?;
        drained.extend(batch);
        if done {
            break;
        }
    }
    let expected = ingested_lines(&writer.expected());
    if drained != expected {
        return Err(oracle(format!(
            "ingested/2 holds {} facts after the window, the generator expects {}",
            drained.len(),
            expected.len()
        )));
    }
    served.stop()?;

    let late_max = reader
        .late
        .iter()
        .chain(&updates.late)
        .fold(0.0, |a: f64, b| a.max(*b));
    report.line(format!(
        "generator lateness: reader p50 {:.3} ms, writer p50 {:.3} ms, max {late_max:.3} ms (limit {} ms)",
        median(&reader.late).unwrap_or(0.0),
        median(&updates.late).unwrap_or(0.0),
        LATE_LIMIT.as_millis()
    ));
    report.line(format!(
        "ingested/2 after the window: {} facts, as the generator expects",
        drained.len()
    ));
    let n = reader.main.len();
    let need = |v: Option<f64>| v.ok_or_else(|| Failure::Harness("no reader samples".into()));
    report.line(format!(
        "query_p50_us = {:.1} us (reader, n={n})",
        need(median(&reader.main))?
    ));
    report.line(format!(
        "query_p90_us = {:.1} us (reader, n={n}, {} beyond)",
        need(percentile(&reader.main, 90.0))?,
        beyond(n, 90.0)
    ));
    report.line(format!(
        "queries_per_s = {:.2} 1/s (reader)",
        n as f64 / metered.elapsed
    ));
    let w = Window {
        side: stalls(&updates.spans, &reader.spans),
        attempted: reader.attempted + updates.attempted,
        failed: reader.failed + updates.failed,
        main: updates.main,
        metered,
        ..Window::default()
    };
    report_window(
        report,
        &setups,
        &w,
        &Names {
            op: "update",
            ops: "updates_per_s",
            side: "stall",
            op_ms: false,
        },
    )
}

/// How long the reader waited behind each update: for every update, the
/// longest reader op due while the update was in flight (from its due
/// time to its reply), or, when none fell due then, the first reader op
/// due after it. Latencies run from due time to reply, in µs. An update
/// with no reader op due after it has no stall.
fn stalls(updates: &[(Duration, Duration)], reader: &[(Duration, Duration)]) -> Vec<f64> {
    updates
        .iter()
        .filter_map(|&(due, end)| {
            let first = reader.partition_point(|&(r, _)| r < due);
            let (r0, e0) = *reader.get(first)?;
            let longest = reader[first..]
                .iter()
                .take_while(|&&(r, _)| r <= end)
                .map(|&(r, e)| e.saturating_sub(r))
                .max()
                .unwrap_or(e0.saturating_sub(r0));
            Some(us(longest))
        })
        .collect()
}

/// Loads the 14 PLM programs, one `Kcm` each.
fn load_suite(programs: &[BenchProgram]) -> Run<Vec<Kcm>> {
    programs
        .iter()
        .map(|p| {
            let mut kcm = Kcm::new();
            kcm.load(p.source)
                .map_err(|e| format!("{}: load: {e}", p.name))?;
            Ok(kcm)
        })
        .collect()
}

fn cycle_opts(p: &BenchProgram) -> QueryOpts {
    QueryOpts {
        enumerate_all: p.enumerate,
        tier: Tier::Cycle,
        ..QueryOpts::default()
    }
}

/// One suite pass: every program's `main` in table order on a fresh
/// cycle-tier machine.
fn pass(programs: &[BenchProgram], kcms: &mut [Kcm]) -> Run<Vec<Fingerprint>> {
    programs
        .iter()
        .zip(kcms)
        .map(|(p, kcm)| {
            let o = kcm
                .query(p.query, &cycle_opts(p))
                .map_err(|e| format!("{}: {e}", p.name))?;
            Ok(Fingerprint::of(&o))
        })
        .collect()
}

fn paper_cycle(args: &Args, report: &mut Report) -> Run<()> {
    // The suite and its order are fixed; the seed changes nothing here.
    let programs = suite();
    let (mut loaded, setups) = repeat_setup(
        || {
            (0..CONNS)
                .map(|_| load_suite(&programs))
                .collect::<Run<Vec<_>>>()
        },
        |_| Ok(()),
    )?;
    let expected = pass(&programs, &mut loaded[0])?;
    for kcms in &mut loaded[1..] {
        if pass(&programs, kcms)? != expected {
            return Err(oracle("suite passes disagree across threads".into()));
        }
    }
    let check = |got: Vec<Fingerprint>| -> Run<()> {
        for ((p, g), e) in programs.iter().zip(&got).zip(&expected) {
            if g != e {
                return Err(oracle(format!(
                    "{}: pass gave {g:?}, the set-up pass gave {e:?}",
                    p.name
                )));
            }
        }
        Ok(())
    };
    let states: Vec<(Vec<Kcm>, u64)> = loaded.into_iter().map(|k| (k, 0)).collect();
    let w = closed_loop(states, Duration::from_secs(args.seconds), |(kcms, n)| {
        *n += 1;
        let t0 = Instant::now();
        if *n % COLD_EVERY == 0 {
            let mut fresh = load_suite(&programs)?;
            check(pass(&programs, &mut fresh)?)?;
            Ok(Step {
                side: Some(us(t0.elapsed())),
                ..Step::default()
            })
        } else {
            check(pass(&programs, kcms)?)?;
            Ok(Step {
                main: Some(us(t0.elapsed())),
                ..Step::default()
            })
        }
    })?;
    report_window(
        report,
        &setups,
        &w,
        &Names {
            op: "pass",
            ops: "passes_per_s",
            side: "cold_pass",
            op_ms: true,
        },
    )
}

/// One request of a traced run.
enum Traced {
    Query {
        tenant: String,
        query: String,
        enumerate_all: bool,
    },
    Update(Update),
}

/// Per-layer metrics timed by spans: (metric, span, unit). Set-up spans
/// (`_ms`) report the run's total, request spans (`_us`) the median.
const SPAN_METRICS: [(&str, &str, &str); 22] = [
    ("prolog.read_term_us", "prolog.read_term", "us"),
    ("prolog.read_program_ms", "prolog.read_program", "ms"),
    (
        "compiler.compile_program_ms",
        "compiler.compile_program",
        "ms",
    ),
    ("compiler.compile_query_us", "compiler.compile_query", "us"),
    ("arch.symbols_clone_us", "arch.symbols_clone", "us"),
    ("native.machine_new_us", "native.machine_new", "us"),
    ("native.run_us", "native.run", "us"),
    ("native.drop_us", "native.drop", "us"),
    ("cpu.machine_new_us", "cpu.machine_new", "us"),
    ("cpu.run_us", "cpu.run", "us"),
    ("system.query_us", "system.query", "us"),
    ("system.run_session_us", "system.run_session", "us"),
    ("system.registry_lookup_us", "system.registry_lookup", "us"),
    (
        "system.registry_assertz_us",
        "system.registry_assertz",
        "us",
    ),
    (
        "system.registry_retract_us",
        "system.registry_retract",
        "us",
    ),
    ("system.kcm_assertz_us", "system.kcm_assertz", "us"),
    ("system.open_session_us", "system.open_session", "us"),
    ("system.next_step_us", "system.next_step", "us"),
    ("system.publish_ms", "system.publish", "ms"),
    ("serve.render_us", "serve.render", "us"),
    ("serve.codec_us", "serve.codec", "us"),
    ("serve.roundtrip_us", "serve.roundtrip", "us"),
];

/// Stages of the serving tier's query path, in the order they run.
const STAGES: [&str; 9] = [
    "prolog.read_term",
    "arch.symbols_clone",
    "compiler.compile_query",
    "native.machine_new",
    "native.run",
    "native.drop",
    "cpu.machine_new",
    "cpu.run",
    "cpu.drop",
];

/// The traced run: sets the workload's programs up on a server and in
/// process, sends a fixed, seeded list of its requests once untraced and
/// once traced with an in-process replay of each, and reports the
/// per-layer metrics.
fn traced(args: &Args, report: &mut Report) -> Run<()> {
    let (tenants, tier, ops, probe): (Vec<(String, String)>, Tier, Vec<Traced>, &str) =
        match args.workload.as_str() {
            "kb_lookup" => {
                let kb = Kb::generate(args.seed);
                let ops = KbLookupStream::new(args.seed, 0)
                    .filter(|op| !matches!(op, KbOp::Cursor(_)))
                    .take(8)
                    .map(|op| Traced::Query {
                        tenant: KB.to_owned(),
                        query: op.query(),
                        enumerate_all: false,
                    })
                    .collect();
                (
                    vec![(KB.to_owned(), kb.source(false))],
                    Tier::Native,
                    ops,
                    "owns(pprobe{i}, item{i})",
                )
            }
            "kb_ingest" => {
                let kb = Kb::generate(args.seed);
                let (mut tenants, _) = standard_tenants();
                tenants.insert(0, (KB.to_owned(), kb.source(true)));
                let cases = standard();
                let mut reader = CaseStream::new(args.seed, "kb_ingest.reader.cases", cases.len());
                let mut writer = Writer::new(args.seed, &kb);
                let mut ops = Vec::new();
                for _ in 0..4 {
                    ops.push(Traced::Update(writer.next().expect("endless")));
                    for i in reader.by_ref().take(4) {
                        ops.push(case_op(&cases[i]));
                    }
                }
                (tenants, Tier::Native, ops, "")
            }
            "suite_serve" => {
                let cases = standard();
                let ops = CaseStream::new(args.seed, "suite_serve.conn0", cases.len())
                    .take(2 * cases.len())
                    .map(|i| case_op(&cases[i]))
                    .collect();
                (
                    standard_tenants().0,
                    Tier::Native,
                    ops,
                    "kcmbench_probe({i})",
                )
            }
            _ => {
                let programs = suite();
                let tenants = programs
                    .iter()
                    .map(|p| (p.name.to_owned(), p.source.to_owned()))
                    .collect();
                let ops = (0..2)
                    .flat_map(|_| programs.iter())
                    .map(|p| Traced::Query {
                        tenant: p.name.to_owned(),
                        query: p.query.to_owned(),
                        enumerate_all: p.enumerate,
                    })
                    .collect();
                (tenants, Tier::Cycle, ops, "kcmbench_probe({i})")
            }
        };
    let cfg = ServeConfig {
        tier,
        ..ServeConfig::default()
    };
    let served = Served::start(cfg)?;
    served.publish(&tenants)?;
    let mut t = Tracer::default();
    let mut replica = Replica::build(&mut t, &tenants, tier).map_err(oracle)?;
    let mut conn = served.connect()?;

    // Untraced passes over the same queries, the second of which is the
    // tracing-overhead baseline (the first warms what the traced pass
    // finds warm).
    let mut untraced = Vec::new();
    for op in ops.iter().chain(&ops) {
        if let Traced::Query {
            tenant,
            query,
            enumerate_all,
        } = op
        {
            let request = Request::Query {
                tenant: Some(tenant.clone()),
                query: query.clone(),
                enumerate_all: *enumerate_all,
                step_budget: None,
                cursor: false,
            };
            let (reply, dt) = conn.timed(&request.encode())?;
            ok_body(&reply).map_err(|e| oracle(format!("{query}: {e}")))?;
            untraced.push(us(dt));
        }
    }
    let untraced = untraced.split_off(untraced.len() / 2);

    let before = served.stats()?;
    for (i, op) in ops.iter().enumerate() {
        t.request(i as u64 + 1);
        match op {
            Traced::Query {
                tenant,
                query,
                enumerate_all,
            } => replica.query(&mut t, &mut conn, tenant, query, *enumerate_all),
            Traced::Update(u) => {
                let (clause, assert) = match u {
                    Update::Assert(c) => (c, true),
                    Update::Retract(c) => (c, false),
                };
                replica.update(&mut t, &mut conn, KB, clause, assert)
            }
        }
        .map_err(oracle)?;
    }
    let after = served.stats()?;
    served.stop()?;
    if !probe.is_empty() {
        let tenant = &tenants[0].0;
        for i in 0..PROBES {
            t.request(10_000 + i);
            let clause = probe.replace("{i}", &i.to_string());
            replica
                .local_update(&mut t, tenant, &clause, true)
                .and_then(|()| replica.local_update(&mut t, tenant, &clause, false))
                .map_err(oracle)?;
        }
    }
    let delta = |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);
    let counts = &replica.counts;
    if delta("steps") != counts.steps {
        return Err(oracle(format!(
            "server STATS steps moved by {} over the traced requests, the replay retired {}",
            delta("steps"),
            counts.steps
        )));
    }

    report_layers(
        report,
        &t,
        counts,
        &untraced,
        [delta("busy"), delta("errors"), delta("steps")],
    )?;
    if args.workload == "paper_cycle" {
        report_model_error(report, counts);
    }
    report.attempted = ops.len() as u64;
    write_trace(args, &t, report);
    Ok(())
}

fn case_op(case: &kcm_serve::workload::ServeCase) -> Traced {
    Traced::Query {
        tenant: case.name.to_owned(),
        query: case.query.to_owned(),
        enumerate_all: case.enumerate_all,
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        1.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Reports every per-layer metric, self time per layer, stage coverage
/// and tracing overhead.
fn report_layers(
    report: &mut Report,
    t: &Tracer,
    c: &Counts,
    untraced: &[f64],
    [busy, errors, steps]: [u64; 3],
) -> Run<()> {
    for (metric, span, unit) in SPAN_METRICS {
        let d = t.durations(span);
        let v = match unit {
            "ms" => Some(d.iter().sum::<f64>() * 1e-6).filter(|_| !d.is_empty()),
            _ => median(&d).map(|v| v * 1e-3),
        }
        .ok_or_else(|| Failure::Harness(format!("no {span} spans in the traced run")))?;
        report.line(format!("{metric} = {v:.3} {unit} (n={})", d.len()));
        report.metric(metric, v, unit);
    }
    // The wire residual per request: round trip minus the replayed
    // stages the server runs for it.
    let mut per_req: BTreeMap<u64, [f64; 2]> = BTreeMap::new();
    for s in &t.spans {
        let e = per_req.entry(s.req).or_insert([0.0, 0.0]);
        match s.name {
            "serve.roundtrip" => e[0] += s.dur() as f64,
            "serve.codec" | "system.registry_lookup" | "system.run_session" | "serve.render" => {
                e[1] += s.dur() as f64
            }
            _ => {}
        }
    }
    let wire: Vec<f64> = per_req
        .values()
        .filter(|[rt, _]| *rt > 0.0)
        .map(|[rt, stages]| (rt - stages) / 1e3)
        .collect();
    let wire_p50 = median(&wire).ok_or_else(|| Failure::Harness("no round trips".into()))?;
    report.line(format!(
        "serve.wire_us = {wire_p50:.3} us (n={})",
        wire.len()
    ));
    report.metric("serve.wire_us", wire_p50, "us");

    let counts: [(&'static str, f64, &'static str); 15] = [
        (
            "compiler.query_image_instrs",
            median(&c.image_instrs).unwrap_or(0.0),
            "count",
        ),
        ("arch.symbols", median(&c.symbols).unwrap_or(0.0), "count"),
        ("cpu.steps", c.steps as f64, "count"),
        ("cpu.inferences", c.inferences as f64, "count"),
        ("cpu.sim_cycles", c.sim_cycles as f64, "count"),
        (
            "cpu.switch_hit_ratio",
            ratio(c.switch_hits, c.switch_misses),
            "ratio",
        ),
        ("cpu.switch_probes", c.switch_probes as f64, "count"),
        (
            "mem.dcache_hit_ratio",
            ratio(c.dcache_hits, c.dcache_misses),
            "ratio",
        ),
        (
            "mem.icache_hit_ratio",
            ratio(c.icache_hits, c.icache_misses),
            "ratio",
        ),
        ("mem.page_faults", c.page_faults as f64, "count"),
        ("serve.busy", busy as f64, "count"),
        ("serve.errors", errors as f64, "count"),
        ("serve.steps", steps as f64, "count"),
        (
            "trace.coverage",
            coverage(&t.spans, "system.query", PRIMARY, &STAGES),
            "ratio",
        ),
        (
            "trace.overhead",
            median(&t.durations("serve.roundtrip")).unwrap_or(0.0)
                / 1e3
                / median(untraced).unwrap_or(f64::NAN),
            "ratio",
        ),
    ];
    for (name, v, unit) in counts {
        report.line(format!("{name} = {v} {unit}"));
        report.metric(name, v, unit);
    }

    for total in ["system.query", "system.run_session"] {
        let cov = coverage(&t.spans, total, PRIMARY, &STAGES);
        let flag = if cov < 0.9 { "  << under 90%" } else { "" };
        report.line(format!(
            "coverage: stage self times = {:.1}% of {total}{flag}",
            cov * 100.0
        ));
    }
    report.line(format!(
        "tracing overhead: traced round trip p50 / untraced p50 = {:.3} (untraced n={})",
        median(&t.durations("serve.roundtrip")).unwrap_or(0.0)
            / 1e3
            / median(untraced).unwrap_or(f64::NAN),
        untraced.len()
    ));
    for (layer, ns) in self_time_by_layer(&t.spans) {
        report.line(format!("self time {layer}: {:.3} ms", ns as f64 / 1e6));
    }
    Ok(())
}

/// The cycle model's error against the paper: the geometric mean over
/// programs of simulated ms over Table 2's measured KCM ms.
fn report_model_error(report: &mut Report, c: &Counts) {
    let mut logs = Vec::new();
    for row in kcm_suite::paper::TABLE2 {
        if let Some((_, ms)) = c
            .sim_ms
            .iter()
            .find(|(k, _)| k.split(':').next() == Some(row.program))
        {
            logs.push((ms / row.kcm_ms).ln());
        }
    }
    let gm = (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp();
    report.line(format!(
        "model error vs paper Table 2: geometric-mean simulated/paper ms = {gm:.4} over {} programs",
        logs.len()
    ));
}

/// Writes the spans out, once, now that the run is over.
fn write_trace(args: &Args, t: &Tracer, report: &mut Report) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        t.write_jsonl(&mut f)
    });
    match written {
        Ok(()) => report.line(format!(
            "trace: {} spans in {}",
            t.spans.len(),
            path.display()
        )),
        Err(e) => report.line(format!("trace: not written ({e})")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn stall_is_the_longest_reader_op_due_during_each_update() {
        // Reader ops as (due, reply), in plan order.
        let reader = [
            (ms(0), ms(1)),
            (ms(10), ms(90)),
            (ms(20), ms(91)),
            (ms(200), ms(201)),
            (ms(300), ms(302)),
        ];
        // An update in flight 5..90 ms holds up the ops due at 10 and 20;
        // one in flight 250..260 has no reader op due then, so the next
        // one due stands in; one sent after the last reader op has none.
        let updates = [(ms(5), ms(90)), (ms(250), ms(260)), (ms(400), ms(410))];
        assert_eq!(stalls(&updates, &reader), vec![80_000.0, 2_000.0]);
    }
}
