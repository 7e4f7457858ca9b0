//! Program-artifact verbs over loopback: `SNAPSHOT @name` export,
//! `PUBLISH … SNAPSHOT` import, and incremental `ASSERT`/`RETRACT` — a
//! knowledge base must round-trip the wire as a binary artifact and
//! serve byte-identical answers, updates must be visible to the very
//! next query without a re-consult, and damaged artifacts must come
//! back as classed errors on a connection that keeps working.

use kcm_serve::{Client, Reply, ServeConfig, Server};
use std::net::SocketAddr;

fn spawn_server(
    cfg: ServeConfig,
) -> (
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<kcm_serve::ServeMetrics>>,
) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr");
    (addr, std::thread::spawn(move || server.run()))
}

fn body_of(reply: Reply) -> String {
    match reply {
        Reply::Ok { body } => body,
        other => panic!("expected OK, got {other:?}"),
    }
}

const KB: &str = "
    fact(1, a). fact(2, b). fact(3, c).
    lookup(K, V) :- fact(K, V).
";

#[test]
fn snapshot_round_trips_the_wire_and_serves_identical_answers() {
    // Publish source as `kb`, export its snapshot, re-publish the bytes
    // under `clone`, and require the clone to answer byte-identically —
    // the wire-level half of the snapshot-equivalence oracle.
    let (addr, server) = spawn_server(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    body_of(client.publish("kb", KB, None).expect("publish"));

    let bytes = client.snapshot("kb").expect("snapshot");
    assert!(!bytes.is_empty());
    // The artifact is binary, not text — the frame layer must carry it
    // untouched, magic bytes (with their NUL) first.
    assert_eq!(&bytes[..8], b"KCMSNAP\0");

    let body = body_of(
        client
            .publish_snapshot("clone", &bytes, None)
            .expect("publish snapshot"),
    );
    assert!(body.contains("name=clone"), "{body}");
    assert!(body.contains("version=1"), "{body}");

    let want = body_of(
        client
            .query_tenant_all("kb", "lookup(K, V)")
            .expect("query"),
    );
    let got = body_of(
        client
            .query_tenant_all("clone", "lookup(K, V)")
            .expect("query"),
    );
    assert_eq!(got, want, "snapshot clone diverged from source original");

    // Second-generation export: the clone's own snapshot must load too.
    let again = client.snapshot("clone").expect("re-snapshot");
    body_of(
        client
            .publish_snapshot("grandclone", &again, None)
            .expect("publish"),
    );
    let got2 = body_of(
        client
            .query_tenant_all("grandclone", "lookup(K, V)")
            .expect("query"),
    );
    assert_eq!(got2, want);

    client.shutdown().expect("shutdown");
    let metrics = server.join().expect("server thread").expect("server run");
    assert_eq!(metrics.errors, 0, "{metrics:?}");
}

#[test]
fn assert_and_retract_are_visible_to_the_next_query() {
    let (addr, server) = spawn_server(ServeConfig::default());
    let mut writer = Client::connect(addr).expect("connect");
    let mut reader = Client::connect(addr).expect("connect");
    body_of(writer.publish("kb", KB, None).expect("publish"));

    // ASSERT from one connection is visible to the next query from
    // another — no re-consult, no reconnect.
    let body = body_of(writer.assertz("kb", "fact(4, d)").expect("assert"));
    assert!(body.contains("version=2"), "{body}");
    let got = body_of(
        reader
            .query_tenant_all("kb", "lookup(4, V)")
            .expect("query"),
    );
    assert!(got.contains("V=d"), "{got}");

    // RETRACT removes the first matching clause; the reply says whether
    // anything matched.
    let body = body_of(writer.retract("kb", "fact(2, b)").expect("retract"));
    assert!(body.contains("removed=true"), "{body}");
    assert!(body.contains("version=3"), "{body}");
    let got = body_of(
        reader
            .query_tenant_all("kb", "lookup(2, V)")
            .expect("query"),
    );
    assert!(got.contains("success=false"), "{got}");

    // Retracting a clause that is no longer there is not an error —
    // `removed=false` reports the miss.
    let body = body_of(writer.retract("kb", "fact(2, b)").expect("retract"));
    assert!(body.contains("removed=false"), "{body}");

    // The surviving facts still answer, through the same switch tables.
    let got = body_of(
        reader
            .query_tenant_all("kb", "lookup(K, V)")
            .expect("query"),
    );
    for pair in ["K=1", "K=3", "K=4", "V=a", "V=c", "V=d"] {
        assert!(got.contains(pair), "{pair} missing from {got}");
    }

    writer.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

#[test]
fn damaged_artifacts_get_classed_errors_not_disconnects() {
    let (addr, server) = spawn_server(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    body_of(client.publish("kb", KB, None).expect("publish"));
    let good = client.snapshot("kb").expect("snapshot");

    // Truncated, corrupted and wrong-magic artifacts are classed
    // `snapshot` errors; the connection survives each one.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xff;
    let cases: Vec<Vec<u8>> = vec![
        good[..good.len() / 2].to_vec(),
        flipped,
        b"NOTSNAP\0garbage".to_vec(),
        Vec::new(),
    ];
    for bad in cases {
        match client
            .publish_snapshot("broken", &bad, None)
            .expect("request")
        {
            Reply::Err { class, message } => {
                assert_eq!(class, "snapshot", "{message}")
            }
            other => panic!("damaged artifact answered {other:?}"),
        }
    }
    // Nothing was published under the failing name.
    match client
        .query_tenant("broken", "lookup(1, V)")
        .expect("query")
    {
        Reply::Err { class, .. } => assert_eq!(class, "unknown_program"),
        other => panic!("answered {other:?}"),
    }

    // Artifact verbs against an unknown tenant are classed, too.
    match client.request_raw("SNAPSHOT @ghost").expect("request") {
        Reply::Err { class, .. } => assert_eq!(class, "unknown_program"),
        other => panic!("answered {other:?}"),
    }
    match client.assertz("ghost", "fact(9, z)").expect("request") {
        Reply::Err { class, .. } => assert_eq!(class, "unknown_program"),
        other => panic!("answered {other:?}"),
    }

    // A malformed clause is a parse error, not an update.
    match client.assertz("kb", "fact(1,").expect("request") {
        Reply::Err { class, .. } => assert_eq!(class, "parse"),
        other => panic!("answered {other:?}"),
    }

    // A tenant published from snapshot bytes holds no clause source, so
    // a rule ASSERT (which needs a predicate recompile) is a classed
    // `update` refusal that leaves the tenant serving at its version.
    body_of(
        client
            .publish_snapshot("restored", &good, None)
            .expect("publish snapshot"),
    );
    match client
        .assertz("restored", "lookup2(K, V) :- fact(K, V)")
        .expect("request")
    {
        Reply::Err { class, .. } => assert_eq!(class, "update"),
        other => panic!("answered {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert!(stats.contains("tenant.restored.version=1"), "{stats}");
    let got = body_of(
        client
            .query_tenant_all("restored", "lookup(2, V)")
            .expect("query"),
    );
    assert!(got.contains("V=b"), "{got}");

    // Non-UTF-8 bytes in a *text* command are a protocol error on the
    // wire — the 8-bit-clean frame layer carries them to the parser,
    // which rejects them without dropping the connection.
    match client
        .request_raw(b"QUERY @kb lookup(\xff, V)".as_slice())
        .expect("request")
    {
        Reply::Err { class, .. } => assert_eq!(class, "protocol"),
        other => panic!("answered {other:?}"),
    }

    // After every rejection the connection still serves.
    let got = body_of(
        client
            .query_tenant_all("kb", "lookup(1, V)")
            .expect("query"),
    );
    assert!(got.contains("V=a"), "{got}");

    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}
