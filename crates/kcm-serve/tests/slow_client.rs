//! The slow-client framing tests: a peer that dribbles bytes with long
//! pauses must decode identically to one that writes whole frames.
//!
//! The previous thread-per-connection server polled with a 100ms read
//! timeout and retried `read_frame` from scratch on timeout, discarding
//! whatever prefix of the frame had already been consumed — a client
//! straddling a tick boundary desynced the stream and got garbage (or
//! hung). The readiness-loop server keeps all partial state in the
//! connection's `FrameBuf`, so these tests dribble bytes with gaps well
//! over the server's tick and assert both the answer *and* that the
//! stream stays in sync for the next request.

use kcm_serve::protocol::{read_frame, render_outcome};
use kcm_serve::{Client, Reply, ServeConfig, Server};
use kcm_system::{Kcm, QueryOpts, Tier};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Comfortably longer than the server's 100ms wait tick, so every gap
/// guarantees at least one tick fires mid-frame.
const GAP: Duration = Duration::from_millis(150);

fn spawn_server() -> (
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<kcm_serve::ServeMetrics>>,
) {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    (addr, std::thread::spawn(move || server.run()))
}

fn frame(payload: &str) -> Vec<u8> {
    format!("{}\n{payload}", payload.len()).into_bytes()
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> Reply {
    let payload = read_frame(reader)
        .expect("read reply frame")
        .expect("server kept the connection");
    Reply::parse(&payload).expect("parse reply")
}

fn direct_body(source: &str, query: &str, enumerate_all: bool) -> String {
    let mut kcm = Kcm::new();
    kcm.load(source).expect("consult");
    let opts = QueryOpts {
        enumerate_all,
        tier: Tier::Native,
        ..QueryOpts::default()
    };
    render_outcome(&kcm.query(query, &opts).expect("query"))
}

#[test]
fn frame_dribbled_across_tick_boundaries_parses_and_stays_in_sync() {
    let (addr, server) = spawn_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // A whole consult frame at once: the fast path still works.
    stream
        .write_all(&frame("CONSULT\nok(42). loop :- loop."))
        .expect("consult");
    assert!(read_reply(&mut reader).is_ok(), "consult");

    // Now the query frame, cut so that the server sees (a) half a length
    // line, (b) a complete length line with no payload, and (c) half a
    // payload — each straddling at least one 100ms tick.
    let query = frame("QUERY ok(X)");
    let cuts = [1, 3, 8]; // "1" | "1\nQUERY" ... within b"11\nQUERY ok(X)"
    let mut at = 0;
    for cut in cuts {
        stream.write_all(&query[at..cut]).expect("dribble");
        std::thread::sleep(GAP);
        at = cut;
    }
    stream.write_all(&query[at..]).expect("dribble tail");
    match read_reply(&mut reader) {
        Reply::Ok { body } => {
            assert_eq!(body, direct_body("ok(42). loop :- loop.", "ok(X)", false));
            assert!(body.contains("X=42"), "{body}");
        }
        other => panic!("dribbled query answered {other:?}"),
    }

    // The stream must still be perfectly framed: an immediate follow-up
    // (whole frame, no pauses) gets a clean answer, not desync garbage.
    stream.write_all(&frame("QUERY ok(Y)")).expect("follow-up");
    match read_reply(&mut reader) {
        Reply::Ok { body } => assert!(body.contains("Y=42"), "{body}"),
        other => panic!("follow-up answered {other:?}"),
    }

    stream.write_all(&frame("SHUTDOWN")).expect("shutdown");
    assert!(read_reply(&mut reader).is_ok(), "shutdown");
    let metrics = server.join().expect("server thread").expect("run");
    assert_eq!(metrics.served, 2);
    assert_eq!(metrics.errors, 0, "{metrics:?}");
}

#[test]
fn byte_by_byte_client_decodes_identically_to_whole_frames() {
    // The degenerate slow client: every single byte its own write. Short
    // inter-byte delays keep the test fast; two long gaps land mid-length
    // and mid-payload to cross tick boundaries as well.
    let (addr, server) = spawn_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    stream
        .write_all(&frame("CONSULT\np(1). p(2). p(3)."))
        .expect("consult");
    assert!(read_reply(&mut reader).is_ok(), "consult");

    let query = frame("QUERYALL p(X)");
    for (i, byte) in query.iter().enumerate() {
        stream.write_all(std::slice::from_ref(byte)).expect("byte");
        match i {
            1 | 9 => std::thread::sleep(GAP), // mid-length-line, mid-payload
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    match read_reply(&mut reader) {
        Reply::Ok { body } => {
            assert_eq!(body, direct_body("p(1). p(2). p(3).", "p(X)", true));
        }
        other => panic!("byte-by-byte query answered {other:?}"),
    }

    stream.write_all(&frame("SHUTDOWN")).expect("shutdown");
    assert!(read_reply(&mut reader).is_ok(), "shutdown");
    server.join().expect("server thread").expect("run");
}

#[test]
fn byte_by_byte_cursor_pull_decodes_and_keeps_the_session_suspended() {
    // A cursor's NEXT dribbled one byte at a time, with gaps straddling
    // the server's tick: the suspended session must sit untouched until
    // the frame completes, then serve exactly the requested batch, and
    // the idle reaper must not confuse a slow *frame* with an idle
    // *cursor* (last_used refreshes when the pull lands).
    let (addr, server) = spawn_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    stream
        .write_all(&frame("CONSULT\nd(1). d(2). d(3). d(4)."))
        .expect("consult");
    assert!(read_reply(&mut reader).is_ok(), "consult");
    stream
        .write_all(&frame("QUERY CURSOR d(X)"))
        .expect("open cursor");
    let id: u64 = match read_reply(&mut reader) {
        Reply::Ok { body } => body
            .strip_prefix("cursor=")
            .and_then(|rest| rest.trim_end().parse().ok())
            .unwrap_or_else(|| panic!("bad open body {body:?}")),
        other => panic!("cursor open answered {other:?}"),
    };

    // Every byte of `NEXT <id> 2` its own write; two long gaps land
    // mid-length-line and mid-payload to cross tick boundaries.
    let next = frame(&format!("NEXT {id} 2"));
    for (i, byte) in next.iter().enumerate() {
        stream.write_all(std::slice::from_ref(byte)).expect("byte");
        match i {
            1 | 5 => std::thread::sleep(GAP),
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    match read_reply(&mut reader) {
        Reply::Ok { body } => {
            assert!(
                body.starts_with(&format!("cursor={id} answers=2 done=false")),
                "{body:?}"
            );
            assert!(body.contains("X=1\n") && body.contains("X=2\n"), "{body:?}");
        }
        other => panic!("dribbled NEXT answered {other:?}"),
    }

    // The stream is still perfectly framed and the cursor still live: a
    // whole-frame follow-up drains the rest.
    stream
        .write_all(&frame(&format!("NEXT {id} 10")))
        .expect("follow-up NEXT");
    match read_reply(&mut reader) {
        Reply::Ok { body } => {
            assert!(
                body.starts_with(&format!("cursor={id} answers=2 done=true")),
                "{body:?}"
            );
            assert!(body.contains("X=3\n") && body.contains("X=4\n"), "{body:?}");
        }
        other => panic!("follow-up NEXT answered {other:?}"),
    }

    stream.write_all(&frame("SHUTDOWN")).expect("shutdown");
    assert!(read_reply(&mut reader).is_ok(), "shutdown");
    let metrics = server.join().expect("server thread").expect("run");
    assert_eq!(metrics.cursors_opened, 1);
    assert_eq!(metrics.cursor_batches, 2);
    assert_eq!(metrics.cursor_answers, 4);
    assert_eq!(metrics.errors, 0, "{metrics:?}");
}

#[test]
fn pipelined_frames_in_one_write_are_all_answered_in_order() {
    // The inverse of dribbling: many frames in a single write. The
    // decoder must pop them one at a time and the per-connection FIFO
    // gate must answer them in order.
    let (addr, server) = spawn_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let mut batch = Vec::new();
    batch.extend_from_slice(&frame("CONSULT\nn(1). n(2)."));
    batch.extend_from_slice(&frame("QUERY n(A)"));
    batch.extend_from_slice(&frame("QUERYALL n(B)"));
    batch.extend_from_slice(&frame("STATS"));
    stream.write_all(&batch).expect("batch");

    assert!(read_reply(&mut reader).is_ok(), "consult");
    match read_reply(&mut reader) {
        Reply::Ok { body } => assert!(body.contains("A=1"), "{body}"),
        other => panic!("first query answered {other:?}"),
    }
    match read_reply(&mut reader) {
        Reply::Ok { body } => assert!(body.contains("solutions=2"), "{body}"),
        other => panic!("second query answered {other:?}"),
    }
    match read_reply(&mut reader) {
        Reply::Ok { body } => assert!(body.contains("served=2"), "{body}"),
        other => panic!("stats answered {other:?}"),
    }

    stream.write_all(&frame("SHUTDOWN")).expect("shutdown");
    assert!(read_reply(&mut reader).is_ok(), "shutdown");
    server.join().expect("server thread").expect("run");
}

/// CPU time (user + system) the named thread of this process has used,
/// from `/proc/self/task/*/stat` at 100 ticks per second; `None` when no
/// thread has that name (at most 15 bytes) or the files don't parse.
fn thread_cpu(name: &str) -> Option<Duration> {
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let dir = task.ok()?.path();
        if std::fs::read_to_string(dir.join("comm")).ok()?.trim_end() != name {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("stat")).ok()?;
        // Fields after the parenthesized name: state is [0], utime [11],
        // stime [12].
        let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
        let ticks: u64 =
            fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
        return Some(Duration::from_millis(ticks * 10));
    }
    None
}

#[test]
fn pipelined_requests_wait_while_their_replies_sit_unread() {
    // The inverse of a slow writer: a client that pipelines requests,
    // half-closes and never reads. While a reply is unflushed the server
    // must neither read nor process that connection's later frames, so
    // what it holds for the client is bounded by the kernel socket
    // buffers, not by how much the client sends. Thirty-two SNAPSHOT
    // replies of a 10^4-fact program (~1.5 MB each) overflow those buffers
    // many times over; the PUBLISH queued behind them must not run -- a
    // second connection's STATS shows no `marker` tenant -- until the
    // client starts reading. The paused connection must not wake the
    // loop meanwhile: its peer's half-close is a read-side event, and
    // level-triggered it would spin the loop thread.
    const SNAPSHOTS: usize = 32;
    const LOOP_THREAD: &str = "paused-loop";
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server = std::thread::Builder::new()
        .name(LOOP_THREAD.to_owned())
        .spawn(move || server.run())
        .expect("spawn loop");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let kb: String = (0..10_000).map(|i| format!("f(k{i}, v{i}).\n")).collect();
    stream
        .write_all(&frame(&format!("PUBLISH kb\n{kb}")))
        .expect("publish");
    assert!(read_reply(&mut reader).is_ok(), "publish");
    let mut batch = frame("SNAPSHOT @kb").repeat(SNAPSHOTS);
    batch.extend_from_slice(&frame("PUBLISH marker\nm(1)."));
    stream.write_all(&batch).expect("pipeline");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    let mut observer = Client::connect(addr).expect("connect observer");
    std::thread::sleep(Duration::from_millis(300));
    // Off Linux there is no per-thread CPU clock to read; skip that check.
    let on_proc = std::path::Path::new("/proc/self/task").exists();
    let cpu_before = on_proc.then(|| thread_cpu(LOOP_THREAD).expect("loop thread CPU"));
    let deadline = Instant::now() + Duration::from_millis(1500);
    while Instant::now() < deadline {
        let stats = observer.stats().expect("stats");
        assert!(
            !stats.contains("tenant.marker."),
            "the PUBLISH behind {SNAPSHOTS} unread replies ran: {stats}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    if let Some(before) = cpu_before {
        let after = thread_cpu(LOOP_THREAD).expect("loop thread CPU");
        assert!(
            after - before < Duration::from_millis(300),
            "the loop thread used {:?} of CPU in 1.5 s while waiting on the peer",
            after - before
        );
    }

    // Reading releases the backlog: every reply arrives, in order, and
    // the server then closes the half-closed connection.
    let mut first: Option<Vec<u8>> = None;
    for i in 0..SNAPSHOTS {
        match read_reply(&mut reader) {
            Reply::Snapshot { bytes } => match &first {
                Some(first) => assert!(bytes == *first, "snapshot {i} differs"),
                None => {
                    assert!(bytes.len() > 512 * 1024, "{} bytes", bytes.len());
                    first = Some(bytes);
                }
            },
            other => panic!("SNAPSHOT {i} answered {other:?}"),
        }
    }
    match read_reply(&mut reader) {
        Reply::Ok { body } => assert!(body.contains("name=marker"), "{body}"),
        other => panic!("PUBLISH marker answered {other:?}"),
    }
    assert!(read_frame(&mut reader).expect("eof").is_none());
    let stats = observer.stats().expect("stats");
    assert!(stats.contains("tenant.marker.version=1\n"), "{stats}");

    assert!(observer.shutdown().expect("shutdown").is_ok());
    let metrics = server.join().expect("server thread").expect("run");
    assert_eq!(metrics.publishes, 2);
}
