//! The wire protocol: length-delimited frames, text commands, with two
//! binary-bodied forms for program artifacts.
//!
//! Both directions use the same framing:
//!
//! ```text
//! frame   := length "\n" payload
//! length  := decimal byte length of payload
//! ```
//!
//! Payloads are UTF-8 text except for the two artifact forms: the body
//! of a `PUBLISH … SNAPSHOT` request and the body of a `SNAPSHOT`
//! reply carry raw [`kcm_arch::snapshot`] bytes. A non-UTF-8 payload
//! anywhere else is a classed protocol error, not a disconnect.
//!
//! Request payloads (first word selects the command):
//!
//! ```text
//! "PUBLISH " name [" BUDGET " steps] "\n" source
//!                             publish source as the named shared program
//! "PUBLISH " name [" BUDGET " steps] " SNAPSHOT\n" bytes
//!                             publish a binary snapshot artifact
//! "CONSULT\n" source          consult a program for this connection
//! "QUERY "    [tenant] [opts] query    run query, first solution
//! "QUERYALL " [tenant] [opts] query    run query, every solution
//! "SNAPSHOT @" name           export the named program as a snapshot
//! "ASSERT @" name " " clause  add one clause to the named program
//! "RETRACT @" name " " clause retract the first matching clause
//! "NEXT " id [" " count]      pull the next answer batch from a cursor
//! "CLOSE " id                 release a cursor
//! "STATS"                     server-wide and per-tenant metrics
//! "SHUTDOWN"                  drain and stop the server
//! tenant  := "@" name " "
//! name    := [A-Za-z_] [A-Za-z0-9_-]{0,63}
//! opts    := ["BUDGET " steps " "] ["CURSOR "]
//! steps   := plain decimal digits, at least 1, at most u64::MAX
//! count   := plain decimal digits, at least 1, at most u64::MAX
//! id      := plain decimal digits, at most u64::MAX
//! ```
//!
//! `SNAPSHOT @name` replies with the binary artifact form below; the
//! bytes are exactly what `PUBLISH … SNAPSHOT` accepts (and what
//! `kcm_arch::snapshot::load` restores), so a knowledge base round-trips
//! through the wire without ever reparsing source. A snapshot larger
//! than [`MAX_FRAME`] cannot be carried — million-fact images ship by
//! file, not by frame. `ASSERT`/`RETRACT` update the named program
//! copy-on-write: queries already running keep their image; the next
//! `QUERY @name` sees the new version (the reply's `version=` line).
//! The clause text follows the same grammar `CONSULT` accepts, without
//! the trailing period.
//!
//! A query without a `@name` runs against the connection's own
//! `CONSULT`ed program (session mode: the paper's single host that
//! downloads its program and queries it); with one it runs against the
//! shared program published under that name. The server hosts both the
//! same way — the consulted program is a tenant scoped to the
//! connection, never entered in the registry — so the two differ only
//! in who can address the program: the consulted one takes no registry
//! slot, never evicts a published one, appears in `STATS` only through
//! the `consults=` counter, and dies with its connection. `@` cannot
//! begin a Prolog query term under the reader's grammar, so the form is
//! unambiguous.
//!
//! `QUERY ... CURSOR ` opens a *cursor* instead of running the query: the
//! reply is `cursor=<id>`, and the enumeration streams on demand through
//! `NEXT <id> [count]` — each pull resumes the suspended machine through
//! its normal backtrack path and returns up to `count` answers (default
//! 1, clamped to the server's batch cap). The `NEXT` reply body starts
//! `cursor=<id> answers=<k> done=<bool> inferences=<n> cycles=<n>`
//! followed by one line per answer and the slice's `output=` line; when
//! `done=true` the enumeration is exhausted and the cursor is already
//! released. `CLOSE <id>` releases a cursor early. `CURSOR` composes
//! with `@name` and `BUDGET` (the budget bounds each pull's slice, not
//! the whole enumeration) but is meaningless on `QUERYALL`, where it is
//! rejected. Cursor ids are never reused, so a `NEXT` on a closed,
//! exhausted or reaped cursor is an `ERR protocol` — never someone
//! else's stream.
//!
//! `steps` is deliberately strict: no sign (`+10` is not "10"), no
//! leading/extra whitespace, no value a u64 cannot hold, and never 0 —
//! a zero budget would silently reject every query, which is always a
//! client bug, so it is a protocol error rather than a degenerate run.
//!
//! Reply payloads (first line is the status):
//!
//! ```text
//! "OK\n" body                 consult: empty; publish: name/version
//!                             lines; query: rendered outcome; stats:
//!                             "key=value" lines
//! "SNAPSHOT\n" bytes          binary snapshot artifact (SNAPSHOT @name)
//! "BUSY\n"                    request queue full — retry later
//! "ERR " class ": " message   error, classed as in kcm_system::error_class
//! ```
//!
//! # Framing slow readers
//!
//! [`read_frame`] is for *blocking* streams (the [`crate::Client`]):
//! it must never be used on a socket with a read timeout, because a
//! timeout firing mid-frame loses whatever bytes the frame had already
//! consumed and desynchronizes the stream. The server's readiness loop
//! instead decodes through [`FrameBuf`], which owns the partial-frame
//! state explicitly: bytes are fed in whenever the socket is readable,
//! frames pop out only when complete, and a length line or payload
//! split across arbitrarily many reads — the slow-client case — is
//! correct by construction.

use kcm_system::{Outcome, RunStats, Solution};
use std::io::{self, BufRead, Write};

/// Upper bound on one frame's payload; a frame this large is a protocol
/// error, not a workload.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Upper bound on the length *line* itself (digits + newline). A frame
/// length needs at most 20 digits to express `u64::MAX`; a longer line
/// is garbage, and bounding it keeps an unframed byte stream from
/// buffering without limit while [`FrameBuf`] waits for a newline.
pub const MAX_LENGTH_LINE: usize = 32;

/// Longest accepted tenant name.
pub const MAX_NAME: usize = 64;

/// Validates a tenant name: `[A-Za-z_][A-Za-z0-9_-]{0,63}`.
///
/// # Errors
///
/// Describes the malformation (empty, too long, bad character).
pub fn validate_name(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("empty program name".to_owned());
    }
    if name.len() > MAX_NAME {
        return Err(format!(
            "program name of {} bytes exceeds the {MAX_NAME}-byte cap",
            name.len()
        ));
    }
    let mut bytes = name.bytes();
    let first = bytes.next().expect("nonempty");
    if !(first.is_ascii_alphabetic() || first == b'_') {
        return Err(format!("bad program name {name:?}: must start [A-Za-z_]"));
    }
    if !bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-') {
        return Err(format!(
            "bad program name {name:?}: want [A-Za-z0-9_-] after the first character"
        ));
    }
    Ok(())
}

/// Writes one length-delimited frame.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame(w: &mut impl Write, payload: impl AsRef<[u8]>) -> io::Result<()> {
    // One write for the whole frame: a separate length-line write would
    // interact with Nagle + delayed ACK into a ~40ms stall per request.
    w.write_all(&encode_frame(payload))?;
    w.flush()
}

/// The on-wire bytes of one frame (length line + payload), as written by
/// [`write_frame`].
pub fn encode_frame(payload: impl AsRef<[u8]>) -> Vec<u8> {
    let payload = payload.as_ref();
    let mut frame = Vec::with_capacity(payload.len() + 12);
    frame.extend_from_slice(payload.len().to_string().as_bytes());
    frame.push(b'\n');
    frame.extend_from_slice(payload);
    frame
}

/// Reads one frame from a **blocking** stream; `Ok(None)` on a clean EOF
/// before the length line.
///
/// The payload comes back as raw bytes: framing is 8-bit clean so binary
/// snapshot artifacts can travel; UTF-8 is a *command*-level rule,
/// enforced by [`Request::parse`]/[`Reply::parse`].
///
/// Not safe on a stream with a read timeout: a timeout mid-frame loses
/// the already-consumed bytes (see the module docs). Nonblocking readers
/// decode through [`FrameBuf`] instead.
///
/// # Errors
///
/// Transport errors, oversized or malformed frames, and EOF mid-frame.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<Vec<u8>>> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let len = parse_length_line(&line)?;
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

fn parse_length_line(line: &str) -> io::Result<usize> {
    let len: usize = line
        .trim()
        .parse()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, format!("bad length {line:?}")))?;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    Ok(len)
}

/// An incremental frame decoder for nonblocking readers.
///
/// Feed raw bytes with [`FrameBuf::feed`] whenever the transport has
/// them; pop complete frames with [`FrameBuf::next_frame`]. All partial
/// state — half a length line, a payload still in flight — lives in the
/// buffer between calls, so it does not matter how the byte stream is
/// sliced: one byte at a time with arbitrary pauses decodes identically
/// to one big read. This is the structural fix for the slow-client
/// desync the old timeout-driven `read_frame` loop suffered.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Payload length of the current frame, once its length line has
    /// fully arrived (the line itself is already drained from `buf`).
    pending: Option<usize>,
}

impl FrameBuf {
    /// An empty decoder.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Appends transport bytes to the decode buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether any undecoded bytes (a partial frame) are buffered.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty() || self.pending.is_some()
    }

    /// Pops the next complete frame, or `Ok(None)` when more bytes are
    /// needed. Payloads are raw bytes, exactly as [`read_frame`] returns
    /// them; UTF-8 is enforced per command by [`Request::parse`].
    ///
    /// # Errors
    ///
    /// Malformed or oversized length lines, with the same
    /// classifications as [`read_frame`]. The decoder is not usable
    /// after an error (framing has no resynchronization point — the
    /// connection is the unit of failure).
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.pending.is_none() {
            let Some(nl) = self.buf.iter().position(|&b| b == b'\n') else {
                if self.buf.len() > MAX_LENGTH_LINE {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "length line exceeds the cap without a newline",
                    ));
                }
                return Ok(None);
            };
            let line = std::str::from_utf8(&self.buf[..nl])
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            self.pending = Some(parse_length_line(line)?);
            self.buf.drain(..=nl);
        }
        let len = self.pending.expect("set above or on a previous call");
        if self.buf.len() < len {
            return Ok(None);
        }
        let payload: Vec<u8> = self.buf.drain(..len).collect();
        self.pending = None;
        Ok(Some(payload))
    }
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Publish a program into the server's shared registry.
    Publish {
        /// Registry name to publish under.
        name: String,
        /// Prolog source text.
        source: String,
        /// Per-tenant step budget for queries that don't carry their own
        /// `BUDGET`.
        step_budget: Option<u64>,
    },
    /// Publish a binary snapshot artifact into the shared registry
    /// (`PUBLISH <name> SNAPSHOT`): the body is [`kcm_arch::snapshot`]
    /// bytes instead of source text, restored without recompiling.
    PublishSnapshot {
        /// Registry name to publish under.
        name: String,
        /// The serialized program artifact.
        snapshot: Vec<u8>,
        /// Per-tenant step budget for queries that don't carry their own
        /// `BUDGET`.
        step_budget: Option<u64>,
    },
    /// Export the named published program as a binary snapshot artifact
    /// (`SNAPSHOT @name`); the reply is [`Reply::Snapshot`].
    Snapshot {
        /// Registry name to export.
        name: String,
    },
    /// Add one clause to the named published program (`ASSERT @name
    /// <clause>`), copy-on-write: the tenant's version bumps and the
    /// next query sees the clause without a re-publish.
    Assert {
        /// Registry name to update.
        name: String,
        /// The clause text, without the trailing period.
        clause: String,
    },
    /// Retract the first clause equal to the given one from the named
    /// published program (`RETRACT @name <clause>`), copy-on-write.
    Retract {
        /// Registry name to update.
        name: String,
        /// The clause text, without the trailing period.
        clause: String,
    },
    /// Consult a program (replacing this connection's program state).
    Consult {
        /// Prolog source text.
        source: String,
    },
    /// Run a query against a published program (`tenant` set) or the
    /// connection's consulted program (`tenant` empty).
    Query {
        /// Registry name to run against, or `None` for session mode.
        tenant: Option<String>,
        /// Query text, as accepted by `Kcm::query`.
        query: String,
        /// Enumerate every solution instead of stopping at the first.
        enumerate_all: bool,
        /// Per-request step budget overriding the tenant and server
        /// defaults. For a cursor, bounds each pull's slice.
        step_budget: Option<u64>,
        /// Open a cursor over the enumeration instead of running the
        /// query (the `CURSOR` option; `QUERY` only).
        cursor: bool,
    },
    /// Pull the next answer batch from an open cursor.
    Next {
        /// Cursor id from the `cursor=<id>` open reply.
        id: u64,
        /// Batch size; `None` means 1. Clamped to the server's cap.
        count: Option<u64>,
    },
    /// Release an open cursor.
    Close {
        /// Cursor id from the `cursor=<id>` open reply.
        id: u64,
    },
    /// Fetch server-wide aggregate and per-tenant metrics.
    Stats,
    /// Drain in-flight requests and stop the server.
    Shutdown,
}

/// Parses a `BUDGET` step count under the strict grammar: plain decimal
/// digits only (`u64::from_str` would admit a `+` sign), fitting in a
/// u64, and never 0.
fn parse_budget(steps: &str) -> Result<u64, String> {
    if steps.is_empty() || !steps.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("bad BUDGET count {steps:?}: want decimal digits"));
    }
    let n: u64 = steps
        .parse()
        .map_err(|_| format!("bad BUDGET count {steps:?}: exceeds u64"))?;
    if n == 0 {
        return Err("bad BUDGET count 0: a zero budget rejects every query".to_owned());
    }
    Ok(n)
}

/// Parses a cursor id: plain decimal digits fitting a u64 (same
/// strictness as [`parse_budget`]; 0 is syntactically fine — it is just
/// never allocated, so it resolves to "unknown cursor" downstream).
fn parse_cursor_id(id: &str) -> Result<u64, String> {
    if id.is_empty() || !id.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("bad cursor id {id:?}: want decimal digits"));
    }
    id.parse()
        .map_err(|_| format!("bad cursor id {id:?}: exceeds u64"))
}

/// Parses a `NEXT` batch count: like [`parse_budget`], a zero batch is
/// always a client bug and therefore a protocol error.
fn parse_batch_count(count: &str) -> Result<u64, String> {
    if count.is_empty() || !count.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("bad NEXT count {count:?}: want decimal digits"));
    }
    let n: u64 = count
        .parse()
        .map_err(|_| format!("bad NEXT count {count:?}: exceeds u64"))?;
    if n == 0 {
        return Err("bad NEXT count 0: an empty batch pulls nothing".to_owned());
    }
    Ok(n)
}

impl Request {
    /// Encodes the request as a frame payload. Bytes, not a string: the
    /// `PUBLISH … SNAPSHOT` body is a binary artifact; every other
    /// request is UTF-8 text.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Publish {
                name,
                source,
                step_budget,
            } => match step_budget {
                Some(steps) => format!("PUBLISH {name} BUDGET {steps}\n{source}"),
                None => format!("PUBLISH {name}\n{source}"),
            },
            Request::PublishSnapshot {
                name,
                snapshot,
                step_budget,
            } => {
                let header = match step_budget {
                    Some(steps) => format!("PUBLISH {name} BUDGET {steps} SNAPSHOT\n"),
                    None => format!("PUBLISH {name} SNAPSHOT\n"),
                };
                let mut payload = header.into_bytes();
                payload.extend_from_slice(snapshot);
                return payload;
            }
            Request::Snapshot { name } => format!("SNAPSHOT @{name}"),
            Request::Assert { name, clause } => format!("ASSERT @{name} {clause}"),
            Request::Retract { name, clause } => format!("RETRACT @{name} {clause}"),
            Request::Consult { source } => format!("CONSULT\n{source}"),
            Request::Query {
                tenant,
                query,
                enumerate_all,
                step_budget,
                cursor,
            } => {
                let verb = if *enumerate_all { "QUERYALL" } else { "QUERY" };
                let mut s = String::from(verb);
                s.push(' ');
                if let Some(name) = tenant {
                    s.push('@');
                    s.push_str(name);
                    s.push(' ');
                }
                if let Some(steps) = step_budget {
                    s.push_str(&format!("BUDGET {steps} "));
                }
                if *cursor {
                    s.push_str("CURSOR ");
                }
                s.push_str(query);
                s
            }
            Request::Next { id, count } => match count {
                Some(n) => format!("NEXT {id} {n}"),
                None => format!("NEXT {id}"),
            },
            Request::Close { id } => format!("CLOSE {id}"),
            Request::Stats => "STATS".to_owned(),
            Request::Shutdown => "SHUTDOWN".to_owned(),
        }
        .into_bytes()
    }

    /// Parses a frame payload (raw bytes; `&str` coerces through
    /// `AsRef`). `PUBLISH … SNAPSHOT` keeps its body as bytes; every
    /// other command must be UTF-8 — a violation is a parse error (and
    /// so a classed `ERR protocol` reply), never a dropped connection.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the malformation.
    pub fn parse(payload: impl AsRef<[u8]>) -> Result<Request, String> {
        Request::parse_bytes(payload.as_ref())
    }

    fn parse_bytes(payload: &[u8]) -> Result<Request, String> {
        // PUBLISH first, at the byte level: its body may be a binary
        // artifact, so only the header line is held to UTF-8.
        if let Some(rest) = payload.strip_prefix(b"PUBLISH ") {
            let nl = rest
                .iter()
                .position(|&b| b == b'\n')
                .ok_or_else(|| "PUBLISH needs a source body after the name line".to_owned())?;
            let header = std::str::from_utf8(&rest[..nl])
                .map_err(|_| "PUBLISH header line is not valid UTF-8".to_owned())?;
            let body = &rest[nl + 1..];
            let (header, is_snapshot) = match header.strip_suffix(" SNAPSHOT") {
                Some(header) => (header, true),
                None => (header, false),
            };
            let (name, step_budget) = match header.split_once(' ') {
                None => (header, None),
                Some((name, opts)) => {
                    let steps = opts
                        .strip_prefix("BUDGET ")
                        .ok_or_else(|| format!("bad PUBLISH options {opts:?}: want BUDGET n"))?;
                    (name, Some(parse_budget(steps)?))
                }
            };
            validate_name(name)?;
            if is_snapshot {
                return Ok(Request::PublishSnapshot {
                    name: name.to_owned(),
                    snapshot: body.to_vec(),
                    step_budget,
                });
            }
            let source = std::str::from_utf8(body).map_err(|_| {
                format!(
                    "PUBLISH {name} source is not valid UTF-8 \
                     (binary artifacts go through PUBLISH {name} SNAPSHOT)"
                )
            })?;
            return Ok(Request::Publish {
                name: name.to_owned(),
                source: source.to_owned(),
                step_budget,
            });
        }
        let payload =
            std::str::from_utf8(payload).map_err(|_| "request is not valid UTF-8".to_owned())?;
        if let Some(name) = payload.strip_prefix("SNAPSHOT @") {
            validate_name(name)?;
            return Ok(Request::Snapshot {
                name: name.to_owned(),
            });
        }
        for (verb, retract) in [("ASSERT @", false), ("RETRACT @", true)] {
            let Some(rest) = payload.strip_prefix(verb) else {
                continue;
            };
            let (name, clause) = rest.split_once(' ').ok_or_else(|| {
                format!(
                    "{} needs a clause after the name",
                    verb.trim_end_matches(" @")
                )
            })?;
            validate_name(name)?;
            if clause.is_empty() {
                return Err("empty clause".to_owned());
            }
            return Ok(if retract {
                Request::Retract {
                    name: name.to_owned(),
                    clause: clause.to_owned(),
                }
            } else {
                Request::Assert {
                    name: name.to_owned(),
                    clause: clause.to_owned(),
                }
            });
        }
        if let Some(source) = payload.strip_prefix("CONSULT\n") {
            return Ok(Request::Consult {
                source: source.to_owned(),
            });
        }
        for (verb, enumerate_all) in [("QUERY ", false), ("QUERYALL ", true)] {
            let Some(rest) = payload.strip_prefix(verb) else {
                continue;
            };
            let (tenant, rest) = match rest.strip_prefix('@') {
                Some(after) => {
                    let (name, rest) = after
                        .split_once(' ')
                        .ok_or_else(|| "tenant query needs a query after the name".to_owned())?;
                    validate_name(name)?;
                    (Some(name.to_owned()), rest)
                }
                None => (None, rest),
            };
            let (step_budget, rest) = match rest.strip_prefix("BUDGET ") {
                Some(after) => {
                    let (steps, rest) = after
                        .split_once(' ')
                        .ok_or_else(|| "BUDGET needs a count and a query".to_owned())?;
                    (Some(parse_budget(steps)?), rest)
                }
                None => (None, rest),
            };
            let (cursor, query) = match rest.strip_prefix("CURSOR ") {
                Some(query) => {
                    if enumerate_all {
                        return Err(
                            "CURSOR is a QUERY option (a cursor already enumerates)".to_owned()
                        );
                    }
                    (true, query)
                }
                None => (false, rest),
            };
            if query.is_empty() {
                return Err("empty query".to_owned());
            }
            return Ok(Request::Query {
                tenant,
                query: query.to_owned(),
                enumerate_all,
                step_budget,
                cursor,
            });
        }
        if let Some(rest) = payload.strip_prefix("NEXT ") {
            let (id, count) = match rest.split_once(' ') {
                Some((id, count)) => (id, Some(parse_batch_count(count)?)),
                None => (rest, None),
            };
            return Ok(Request::Next {
                id: parse_cursor_id(id)?,
                count,
            });
        }
        if let Some(id) = payload.strip_prefix("CLOSE ") {
            return Ok(Request::Close {
                id: parse_cursor_id(id)?,
            });
        }
        match payload {
            "STATS" => Ok(Request::Stats),
            "SHUTDOWN" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown command {:?}",
                other.lines().next().unwrap_or_default()
            )),
        }
    }
}

/// One parsed server reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// The request succeeded; `body` is command-specific.
    Ok {
        /// Rendered outcome, metrics lines, publish receipt, or empty.
        body: String,
    },
    /// The request succeeded with a binary snapshot artifact (the
    /// `SNAPSHOT @name` reply). The bytes restore through
    /// `kcm_arch::snapshot::load` or republish through
    /// [`Request::PublishSnapshot`].
    Snapshot {
        /// The serialized program artifact.
        bytes: Vec<u8>,
    },
    /// The request queue was full; the client should back off and retry.
    Busy,
    /// The request failed.
    Err {
        /// Stable error class (`kcm_system::error_class`, plus
        /// `"protocol"` for malformed frames).
        class: String,
        /// Human-readable message.
        message: String,
    },
}

impl Reply {
    /// Encodes the reply as a frame payload. Bytes, not a string: a
    /// [`Reply::Snapshot`] body is a binary artifact; every other reply
    /// is UTF-8 text.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Reply::Ok { body } => format!("OK\n{body}").into_bytes(),
            Reply::Snapshot { bytes } => {
                let mut payload = b"SNAPSHOT\n".to_vec();
                payload.extend_from_slice(bytes);
                payload
            }
            Reply::Busy => b"BUSY\n".to_vec(),
            Reply::Err { class, message } => format!("ERR {class}: {message}\n").into_bytes(),
        }
    }

    /// Parses a frame payload (raw bytes; `&str` coerces through
    /// `AsRef`).
    ///
    /// # Errors
    ///
    /// Returns a description when the payload fits no reply form.
    pub fn parse(payload: impl AsRef<[u8]>) -> Result<Reply, String> {
        Reply::parse_bytes(payload.as_ref())
    }

    fn parse_bytes(payload: &[u8]) -> Result<Reply, String> {
        if let Some(bytes) = payload.strip_prefix(b"SNAPSHOT\n") {
            return Ok(Reply::Snapshot {
                bytes: bytes.to_vec(),
            });
        }
        let payload = std::str::from_utf8(payload)
            .map_err(|_| "non-snapshot reply is not valid UTF-8".to_owned())?;
        if let Some(body) = payload.strip_prefix("OK\n") {
            return Ok(Reply::Ok {
                body: body.to_owned(),
            });
        }
        if payload == "BUSY\n" {
            return Ok(Reply::Busy);
        }
        if let Some(rest) = payload.strip_prefix("ERR ") {
            let (class, message) = rest
                .split_once(": ")
                .ok_or_else(|| "ERR reply without a class".to_owned())?;
            return Ok(Reply::Err {
                class: class.to_owned(),
                message: message.trim_end_matches('\n').to_owned(),
            });
        }
        Err(format!(
            "unknown reply {:?}",
            payload.lines().next().unwrap_or_default()
        ))
    }

    /// Whether this is an `OK` reply.
    pub fn is_ok(&self) -> bool {
        matches!(self, Reply::Ok { .. })
    }
}

/// Renders a query outcome as the `OK` reply body. The loopback tests
/// compare this rendering of a served outcome byte-for-byte against the
/// same rendering of a direct [`kcm_system::Kcm::query`] outcome, so
/// everything observable goes in: success, solutions (in enumeration
/// order), `write/1` output, and the simulation counters.
pub fn render_outcome(o: &Outcome) -> String {
    let mut s = format!(
        "success={} solutions={} inferences={} cycles={}\n",
        o.success,
        o.solutions.len(),
        o.stats.inferences,
        o.stats.cycles
    );
    for sol in &o.solutions {
        s.push_str(&solution_line(sol));
        s.push('\n');
    }
    s.push_str(&format!("output={:?}\n", o.output));
    s
}

/// One solution rendered `Var=term,...` — the per-answer line shared by
/// [`render_outcome`] and [`render_batch`], so a streamed enumeration is
/// byte-comparable line-by-line against a materialized one.
pub fn solution_line(sol: &Solution) -> String {
    sol.iter()
        .map(|(n, t)| format!("{n}={t}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Renders one `NEXT` batch as the `OK` reply body: the cursor id, how
/// many answers follow, whether the enumeration is exhausted (in which
/// case the cursor is already released), and this batch's slice counters
/// — then the answer lines (same rendering as [`render_outcome`]) and
/// the slice's `write/1` output.
pub fn render_batch(
    id: u64,
    answers: &[Solution],
    done: bool,
    stats: &RunStats,
    output: &str,
) -> String {
    let mut s = format!(
        "cursor={id} answers={} done={done} inferences={} cycles={}\n",
        answers.len(),
        stats.inferences,
        stats.cycles
    );
    for sol in answers {
        s.push_str(&solution_line(sol));
        s.push('\n');
    }
    s.push_str(&format!("output={output:?}\n"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "QUERY p(X)").expect("write");
        write_frame(&mut wire, "").expect("write");
        let mut r = BufReader::new(wire.as_slice());
        assert_eq!(
            read_frame(&mut r).expect("read").as_deref(),
            Some(b"QUERY p(X)".as_slice())
        );
        assert_eq!(
            read_frame(&mut r).expect("read").as_deref(),
            Some(b"".as_slice())
        );
        assert_eq!(read_frame(&mut r).expect("read"), None);
    }

    #[test]
    fn frames_carry_newlines_in_payloads() {
        let mut wire = Vec::new();
        let program = "CONSULT\np(1).\np(2).\n";
        write_frame(&mut wire, program).expect("write");
        let mut r = BufReader::new(wire.as_slice());
        assert_eq!(
            read_frame(&mut r).expect("read").as_deref(),
            Some(program.as_bytes())
        );
    }

    #[test]
    fn frames_are_8_bit_clean() {
        // Binary artifact bytes — including bytes that are not UTF-8 and
        // embedded newlines — pass through both frame decoders intact.
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).expect("write");
        let mut r = BufReader::new(wire.as_slice());
        assert_eq!(
            read_frame(&mut r).expect("read").as_deref(),
            Some(&payload[..])
        );
        let mut fb = FrameBuf::new();
        fb.feed(&wire);
        assert_eq!(
            fb.next_frame().expect("frame").as_deref(),
            Some(&payload[..])
        );
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let mut r = BufReader::new(b"10\nshort".as_slice());
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn frame_buf_decodes_whole_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "QUERY p(X)").expect("write");
        write_frame(&mut wire, "").expect("write");
        let mut fb = FrameBuf::new();
        fb.feed(&wire);
        assert_eq!(
            fb.next_frame().expect("a").as_deref(),
            Some(b"QUERY p(X)".as_slice())
        );
        assert_eq!(fb.next_frame().expect("b").as_deref(), Some(b"".as_slice()));
        assert_eq!(fb.next_frame().expect("c"), None);
        assert!(!fb.has_partial());
    }

    #[test]
    fn frame_buf_survives_byte_by_byte_feeding() {
        // The slow-client regression at the decoder level: every frame
        // boundary lands mid-feed and nothing is lost. Interleave two
        // frames so the tail of one arrives glued to the head of the
        // next.
        let mut wire = Vec::new();
        write_frame(&mut wire, "CONSULT\np(1).\np(2).\n").expect("write");
        write_frame(&mut wire, "QUERYALL p(X)").expect("write");
        for chunk in [1usize, 2, 3] {
            let mut fb = FrameBuf::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                fb.feed(piece);
                while let Some(frame) = fb.next_frame().expect("frame") {
                    got.push(frame);
                }
            }
            assert_eq!(
                got,
                vec![
                    b"CONSULT\np(1).\np(2).\n".to_vec(),
                    b"QUERYALL p(X)".to_vec()
                ],
                "chunk size {chunk}"
            );
            assert!(!fb.has_partial(), "chunk size {chunk}");
        }
    }

    #[test]
    fn frame_buf_reports_partial_state() {
        let mut fb = FrameBuf::new();
        assert!(!fb.has_partial());
        fb.feed(b"1");
        assert!(fb.has_partial());
        assert_eq!(fb.next_frame().expect("need more"), None);
        fb.feed(b"0\n");
        assert_eq!(fb.next_frame().expect("need payload"), None);
        assert!(fb.has_partial(), "a parsed length line is partial state");
        fb.feed(b"0123456789");
        assert_eq!(
            fb.next_frame().expect("frame").as_deref(),
            Some(b"0123456789".as_slice())
        );
        assert!(!fb.has_partial());
    }

    #[test]
    fn frame_buf_rejects_garbage_lengths() {
        for bad in [
            &b"x\n"[..],
            &b"-3\nabc"[..],
            &b"999999999999999999999\n"[..],
        ] {
            let mut fb = FrameBuf::new();
            fb.feed(bad);
            assert!(fb.next_frame().is_err(), "{bad:?}");
        }
        // An unbounded "length line" that never sends a newline must not
        // buffer forever.
        let mut fb = FrameBuf::new();
        fb.feed(&[b'1'; MAX_LENGTH_LINE + 1]);
        assert!(fb.next_frame().is_err());
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Consult {
                source: "p(1).\np(2).".to_owned(),
            },
            Request::Publish {
                name: "alpha".to_owned(),
                source: "p(1).\np(2).".to_owned(),
                step_budget: None,
            },
            Request::Publish {
                name: "tight-kb_2".to_owned(),
                source: "loop :- loop.".to_owned(),
                step_budget: Some(10_000),
            },
            Request::Query {
                tenant: None,
                query: "p(X)".to_owned(),
                enumerate_all: false,
                step_budget: None,
                cursor: false,
            },
            Request::Query {
                tenant: Some("alpha".to_owned()),
                query: "p(X)".to_owned(),
                enumerate_all: true,
                step_budget: None,
                cursor: false,
            },
            Request::Query {
                tenant: Some("alpha".to_owned()),
                query: "serialise(\"ABA\", R)".to_owned(),
                enumerate_all: true,
                step_budget: Some(10_000),
                cursor: false,
            },
            Request::Query {
                tenant: None,
                query: "p(X)".to_owned(),
                enumerate_all: false,
                step_budget: None,
                cursor: true,
            },
            Request::Query {
                tenant: Some("alpha".to_owned()),
                query: "p(X, Y)".to_owned(),
                enumerate_all: false,
                step_budget: Some(5_000),
                cursor: true,
            },
            Request::Next { id: 7, count: None },
            Request::Next {
                id: 7,
                count: Some(64),
            },
            Request::Close { id: u64::MAX },
            Request::Stats,
            Request::Shutdown,
            Request::PublishSnapshot {
                name: "alpha".to_owned(),
                snapshot: vec![0x2a, 0xff, 0x00, b'\n', 0x80, 0x01],
                step_budget: None,
            },
            Request::PublishSnapshot {
                name: "beta-2".to_owned(),
                snapshot: (0..=255).collect(),
                step_budget: Some(9_000),
            },
            Request::Snapshot {
                name: "alpha".to_owned(),
            },
            Request::Assert {
                name: "kb".to_owned(),
                clause: "f(k9, v1)".to_owned(),
            },
            Request::Retract {
                name: "kb".to_owned(),
                clause: "f(k9, v1)".to_owned(),
            },
        ] {
            assert_eq!(Request::parse(req.encode()).expect("parse"), req);
        }
    }

    #[test]
    fn artifact_grammar_is_enforced() {
        // The SNAPSHOT suffix only means "binary body" in option
        // position; a program named SNAPSHOT still publishes as text.
        assert_eq!(
            Request::parse("PUBLISH SNAPSHOT\np(1)."),
            Ok(Request::Publish {
                name: "SNAPSHOT".to_owned(),
                source: "p(1).".to_owned(),
                step_budget: None,
            })
        );
        // An empty snapshot body is syntactically fine; it fails later
        // with a classed snapshot error (truncated).
        assert_eq!(
            Request::parse(b"PUBLISH kb SNAPSHOT\n".as_slice()),
            Ok(Request::PublishSnapshot {
                name: "kb".to_owned(),
                snapshot: Vec::new(),
                step_budget: None,
            })
        );
        for bad in [
            "SNAPSHOT kb",        // export addresses a tenant: needs @
            "SNAPSHOT @",         // empty name
            "SNAPSHOT @bad!name", // name grammar
            "ASSERT @kb",         // no clause
            "ASSERT @kb ",        // empty clause
            "ASSERT kb f(1)",     // missing @
            "RETRACT @kb",
            "RETRACT @9lives f(1)",
            "PUBLISH kb BUDGET 0 SNAPSHOT\n", // budget grammar still applies
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn binary_garbage_is_a_parse_error_not_a_panic() {
        // A non-UTF-8 payload outside the PUBLISH … SNAPSHOT form is a
        // classed protocol error (the server replies ERR, it does not
        // drop the connection).
        assert!(Request::parse(b"QUERY p(\xff\xfe)".as_slice()).is_err());
        assert!(Request::parse(b"\x00\x01\x02".as_slice()).is_err());
        // Binary garbage in a text PUBLISH body names the escape hatch.
        let err = Request::parse(b"PUBLISH kb\n\xde\xad\xbe\xef".as_slice()).unwrap_err();
        assert!(err.contains("SNAPSHOT"), "{err}");
        // A non-UTF-8 header line is rejected before name validation.
        assert!(Request::parse(b"PUBLISH \xffkb\np(1).".as_slice()).is_err());
    }

    #[test]
    fn cursor_grammar_is_enforced() {
        // CURSOR composes after tenant and BUDGET, before the query.
        assert_eq!(
            Request::parse("QUERY @kb BUDGET 5 CURSOR p(X)").expect("parse"),
            Request::Query {
                tenant: Some("kb".to_owned()),
                query: "p(X)".to_owned(),
                enumerate_all: false,
                step_budget: Some(5),
                cursor: true,
            }
        );
        // In query position, CURSOR is just an atom — only the option
        // slot means "open a cursor".
        assert_eq!(
            Request::parse("QUERY CURSOR CURSOR").expect("parse"),
            Request::Query {
                tenant: None,
                query: "CURSOR".to_owned(),
                enumerate_all: false,
                step_budget: None,
                cursor: true,
            }
        );
        for bad in [
            "QUERYALL CURSOR p(X)", // a cursor already enumerates
            "QUERY CURSOR ",        // no query after the option
            "NEXT",                 // verb without an id
            "NEXT x",
            "NEXT -1",
            "NEXT 1 0", // empty batch is a client bug
            "NEXT 1 +2",
            "NEXT 1 2 3",
            "NEXT 99999999999999999999999999",
            "CLOSE",
            "CLOSE x",
            "CLOSE 1 2",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?}");
        }
        // Id 0 is syntactically valid; it is just never allocated.
        assert_eq!(
            Request::parse("NEXT 0").expect("parse"),
            Request::Next { id: 0, count: None }
        );
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "QUERY ",
            "QUERY BUDGET x p",
            "QUERY BUDGET 5",
            "QUERY @name",
            "QUERY @ p(X)",
            "QUERY @bad!name p(X)",
            "QUERY @9lives p(X)",
            "PUBLISH alpha",
            "PUBLISH alpha FOO 3\np(1).",
            "PUBLISH alpha BUDGET 0\np(1).",
            "PUBLISH \np(1).",
            "PUBLISH a.b\np(1).",
            "NOPE",
            "",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?}");
        }
        let long = format!("PUBLISH {}\np(1).", "n".repeat(MAX_NAME + 1));
        assert!(Request::parse(&long).is_err());
    }

    #[test]
    fn tenant_queries_keep_the_query_text_intact() {
        // `@` only means "tenant" in verb position; the query text after
        // the name is untouched, including any @ inside it.
        assert_eq!(
            Request::parse("QUERY @kb p(@, X)").expect("parse"),
            Request::Query {
                tenant: Some("kb".to_owned()),
                query: "p(@, X)".to_owned(),
                enumerate_all: false,
                step_budget: None,
                cursor: false,
            }
        );
        // BUDGET composes after the tenant, exactly as in session mode.
        assert_eq!(
            Request::parse("QUERYALL @kb BUDGET 5 p(X)").expect("parse"),
            Request::Query {
                tenant: Some("kb".to_owned()),
                query: "p(X)".to_owned(),
                enumerate_all: true,
                step_budget: Some(5),
                cursor: false,
            }
        );
    }

    #[test]
    fn budget_counts_follow_the_strict_grammar() {
        // Rejected: zero, signs (u64::from_str would take "+5"), empty,
        // embedded garbage, double spaces, and counts beyond u64.
        for bad in [
            "QUERYALL BUDGET 0 p(X)",
            "QUERY BUDGET +5 p(X)",
            "QUERY BUDGET -5 p(X)",
            "QUERY BUDGET  5 p(X)",
            "QUERY BUDGET 5x p(X)",
            "QUERY BUDGET 5_000 p(X)",
            "QUERY BUDGET 99999999999999999999999999 p(X)",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?}");
        }
        // Accepted: any positive count up to u64::MAX; the query keeps
        // everything after the single separating space.
        assert_eq!(
            Request::parse("QUERY BUDGET 1 p(X)").expect("min budget"),
            Request::Query {
                tenant: None,
                query: "p(X)".to_owned(),
                enumerate_all: false,
                step_budget: Some(1),
                cursor: false,
            }
        );
        assert_eq!(
            Request::parse(format!("QUERYALL BUDGET {} p(a, b)", u64::MAX)).expect("max budget"),
            Request::Query {
                tenant: None,
                query: "p(a, b)".to_owned(),
                enumerate_all: true,
                step_budget: Some(u64::MAX),
                cursor: false,
            }
        );
    }

    #[test]
    fn name_grammar_is_enforced() {
        for good in ["a", "_x", "kb-2", "A_long-Name9", &"n".repeat(MAX_NAME)] {
            assert!(validate_name(good).is_ok(), "{good:?}");
        }
        for bad in [
            "",
            "9a",
            "-a",
            "a b",
            "a.b",
            "a@b",
            &"n".repeat(MAX_NAME + 1),
        ] {
            assert!(validate_name(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn replies_round_trip() {
        for reply in [
            Reply::Ok {
                body: "success=true solutions=1 inferences=3 cycles=40\nX=1\noutput=\"\"\n"
                    .to_owned(),
            },
            Reply::Busy,
            Reply::Err {
                class: "budget".to_owned(),
                message: "step budget exhausted after 10001 steps".to_owned(),
            },
            Reply::Snapshot {
                bytes: vec![b'K', 0x00, 0xff, b'\n', 0x7f],
            },
            Reply::Snapshot { bytes: Vec::new() },
        ] {
            assert_eq!(Reply::parse(reply.encode()).expect("parse"), reply);
        }
    }

    /// Seeded wire property tests: generated requests, random read
    /// slicing, and damaged frames.
    mod wire_properties {
        use super::*;
        use kcm_testkit::{cases_seeded, charset, TestRng};

        /// Base seed of every case below ("wire").
        const SEED: u64 = 0x7769_7265;

        fn name(rng: &mut TestRng) -> String {
            let head = charset(&[('A', 'Z'), ('a', 'z'), ('_', '_')]);
            let tail = charset(&[('A', 'Z'), ('a', 'z'), ('0', '9'), ('_', '_'), ('-', '-')]);
            let mut name = rng.choose(&head).to_string();
            name.push_str(&rng.string_from(&tail, 0, MAX_NAME));
            name
        }

        fn count(rng: &mut TestRng) -> u64 {
            match rng.below(4) {
                0 => 1,
                1 => u64::MAX,
                _ => 1 + rng.below(u64::MAX - 1),
            }
        }

        /// Free text built from random characters and the fragments the
        /// grammar gives meaning to, so option words, `@` and newlines
        /// land inside bodies and queries.
        fn text(rng: &mut TestRng, min: usize) -> String {
            const FRAGMENTS: [&str; 9] = [
                "@", "BUDGET ", "CURSOR ", "SNAPSHOT", " ", "\n", "p(X)", "é", "中",
            ];
            let chars = charset(&[(' ', '~'), ('\n', '\n'), ('λ', 'λ')]);
            let mut s = String::new();
            while s.len() < min || rng.chance(2, 3) {
                if rng.chance(1, 2) {
                    s.push_str(rng.choose::<&str>(&FRAGMENTS));
                } else {
                    s.push_str(&rng.string_from(&chars, 1, 12));
                }
            }
            s
        }

        /// Query text the encoder can carry: non-empty and not opening
        /// with a word the parser reads as a tenant or an option.
        fn query(rng: &mut TestRng) -> String {
            let q = text(rng, 1);
            if ["@", "BUDGET ", "CURSOR "].iter().any(|p| q.starts_with(p)) {
                format!("q{q}")
            } else {
                q
            }
        }

        fn request(rng: &mut TestRng) -> Request {
            let budget = |rng: &mut TestRng| rng.chance(1, 2).then(|| count(rng));
            match rng.below(12) {
                0 => Request::Publish {
                    name: name(rng),
                    source: text(rng, 0),
                    step_budget: budget(rng),
                },
                1 => Request::PublishSnapshot {
                    name: name(rng),
                    snapshot: rng.vec_of(0, 64, |r| r.next_u32() as u8),
                    step_budget: budget(rng),
                },
                2 => Request::Snapshot { name: name(rng) },
                3 => Request::Assert {
                    name: name(rng),
                    clause: text(rng, 1),
                },
                4 => Request::Retract {
                    name: name(rng),
                    clause: text(rng, 1),
                },
                5 => Request::Consult {
                    source: text(rng, 0),
                },
                6 | 7 => {
                    let enumerate_all = rng.chance(1, 2);
                    Request::Query {
                        tenant: rng.chance(1, 2).then(|| name(rng)),
                        query: query(rng),
                        enumerate_all,
                        step_budget: budget(rng),
                        cursor: !enumerate_all && rng.chance(1, 2),
                    }
                }
                8 => Request::Next {
                    id: rng.next_u64(),
                    count: budget(rng),
                },
                9 => Request::Close { id: rng.next_u64() },
                10 => Request::Stats,
                _ => Request::Shutdown,
            }
        }

        /// Every frame a fresh [`FrameBuf`] yields for `wire` fed in
        /// pieces whose sizes `cut` picks, or its first error.
        fn decode_sliced(
            wire: &[u8],
            rng: &mut TestRng,
            mut cut: impl FnMut(&mut TestRng, usize) -> usize,
        ) -> io::Result<Vec<Vec<u8>>> {
            let mut fb = FrameBuf::new();
            let mut frames = Vec::new();
            let mut at = 0;
            while at < wire.len() {
                let end = at + cut(rng, wire.len() - at).clamp(1, wire.len() - at);
                fb.feed(&wire[at..end]);
                at = end;
                while let Some(frame) = fb.next_frame()? {
                    frames.push(frame);
                }
            }
            Ok(frames)
        }

        #[test]
        fn generated_requests_round_trip() {
            cases_seeded(SEED, 4000, |rng| {
                let req = request(rng);
                assert_eq!(Request::parse(req.encode()), Ok(req));
            });
        }

        #[test]
        fn frames_decode_identically_under_any_read_slicing() {
            cases_seeded(SEED + 1, 1000, |rng| {
                let payloads: Vec<Vec<u8>> = rng.vec_of(1, 8, |r| request(r).encode());
                let wire: Vec<u8> = payloads.iter().flat_map(encode_frame).collect();
                let whole = decode_sliced(&wire, rng, |_, left| left).expect("whole");
                assert_eq!(whole, payloads);
                let sliced = decode_sliced(&wire, rng, |r, left| match r.below(3) {
                    0 => 1,
                    1 => r.usize_in(1, 8),
                    _ => r.usize_in(1, left + 1),
                })
                .expect("sliced");
                assert_eq!(sliced, whole);
                for payload in &sliced {
                    assert!(Request::parse(payload).is_ok());
                }
            });
        }

        #[test]
        fn damaged_frames_and_requests_never_panic() {
            cases_seeded(SEED + 2, 4000, |rng| {
                let payloads: Vec<Vec<u8>> = rng.vec_of(1, 4, |r| request(r).encode());
                let mut wire: Vec<u8> = payloads.iter().flat_map(encode_frame).collect();
                let slices = |r: &mut TestRng, left: usize| r.usize_in(1, left + 1);
                match rng.below(3) {
                    0 => {
                        for _ in 0..rng.usize_in(1, 5) {
                            let at = rng.index(wire.len());
                            wire[at] ^= 1 << rng.below(8);
                        }
                        let _ = decode_sliced(&wire, rng, slices);
                    }
                    1 => {
                        // A cut stream decodes a prefix of its frames.
                        wire.truncate(rng.index(wire.len()));
                        let got = decode_sliced(&wire, rng, slices).expect("truncated");
                        assert_eq!(got[..], payloads[..got.len()]);
                    }
                    _ => {
                        let oversize = if rng.chance(1, 2) {
                            format!("{}\n", MAX_FRAME as u64 + 1 + rng.below(1 << 40))
                        } else {
                            "9".repeat(MAX_LENGTH_LINE + 1 + rng.index(16))
                        };
                        wire.splice(0..0, oversize.into_bytes());
                        assert!(decode_sliced(&wire, rng, slices).is_err());
                    }
                }
                // Bit flips and truncations of bare payloads reach the
                // command parser.
                for mut payload in payloads {
                    if !payload.is_empty() && rng.chance(1, 2) {
                        let at = rng.index(payload.len());
                        payload[at] ^= 1 << rng.below(8);
                    }
                    payload.truncate(rng.usize_in(0, payload.len() + 1));
                    let _ = Request::parse(&payload);
                }
            });
        }
    }
}
