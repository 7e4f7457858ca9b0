//! The server under test, run inside the benchmark process on an
//! ephemeral loopback port, and a raw connection that times each request
//! from writing its frame to reading the whole reply.

use kcm_serve::protocol::{read_frame, write_frame};
use kcm_serve::{Reply, Request, ServeConfig, Server};
use std::collections::BTreeMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub type Result<T> = std::result::Result<T, String>;

/// A running server.
pub struct Served {
    addr: SocketAddr,
    handle: JoinHandle<io::Result<kcm_serve::ServeMetrics>>,
}

impl Served {
    pub fn start(cfg: ServeConfig) -> Result<Served> {
        let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let handle = std::thread::spawn(move || server.run());
        Ok(Served { addr, handle })
    }

    pub fn connect(&self) -> Result<Conn> {
        Conn::connect(self.addr)
    }

    /// Publishes every `(name, source)` and checks each receipt.
    pub fn publish(&self, tenants: &[(String, String)]) -> Result<()> {
        let mut conn = self.connect()?;
        for (name, source) in tenants {
            let reply = conn.call(&Request::Publish {
                name: name.clone(),
                source: source.clone(),
                step_budget: None,
            })?;
            match reply {
                Reply::Ok { body } if body.starts_with(&format!("name={name}\n")) => {}
                other => return Err(format!("PUBLISH {name} answered {other:?}")),
            }
        }
        Ok(())
    }

    /// The server's `STATS` counters.
    pub fn stats(&self) -> Result<BTreeMap<String, u64>> {
        match self.connect()?.call(&Request::Stats)? {
            Reply::Ok { body } => Ok(body
                .lines()
                .filter_map(|l| l.split_once('='))
                .filter_map(|(k, v)| Some((k.to_owned(), v.parse().ok()?)))
                .collect()),
            other => Err(format!("STATS answered {other:?}")),
        }
    }

    /// Drains the server and waits for its thread to end.
    pub fn stop(self) -> Result<()> {
        let ack = self.connect()?.call(&Request::Shutdown)?;
        if !ack.is_ok() {
            return Err(format!("SHUTDOWN answered {ack:?}"));
        }
        match self.handle.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    }
}

/// One client connection, reading and writing frames directly so a
/// sender and a receiver thread can share it in an open loop.
pub struct Conn {
    pub reader: BufReader<TcpStream>,
    pub writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("timeout: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    pub fn send(&mut self, payload: &[u8]) -> Result<()> {
        write_frame(&mut self.writer, payload).map_err(|e| format!("write: {e}"))
    }

    /// Reads one reply frame, undecoded.
    pub fn recv(&mut self) -> Result<Vec<u8>> {
        read_frame(&mut self.reader)
            .map_err(|e| format!("read: {e}"))?
            .ok_or_else(|| "server closed the connection".to_owned())
    }

    /// One round trip: the reply and its time from the first byte written
    /// to the last byte read.
    pub fn timed(&mut self, payload: &[u8]) -> Result<(Vec<u8>, Duration)> {
        let t0 = Instant::now();
        self.send(payload)?;
        let reply = self.recv()?;
        Ok((reply, t0.elapsed()))
    }

    pub fn call(&mut self, request: &Request) -> Result<Reply> {
        self.send(&request.encode())?;
        Reply::parse(self.recv()?)
    }
}

/// The body of an `OK` reply; anything else is a failed op.
pub fn ok_body(payload: &[u8]) -> Result<String> {
    match Reply::parse(payload)? {
        Reply::Ok { body } => Ok(body),
        other => Err(format!("{other:?}")),
    }
}
