//! The socket side: the daemon as a child process of its own (this
//! binary re-executed in serve mode, running `spsel_serve::Server` with
//! default options on a loaded artifact), and a raw closed-loop client
//! that sends pre-encoded request bytes and keeps only a digest of each
//! reply.

use crate::inputs::{digest, Pool};
use spsel_serve::protocol::StatsReply;
use spsel_serve::{framing, Client, Protocol, Request, MAGIC};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A daemon child process on an ephemeral loopback port.
pub struct Daemon {
    /// Where it listens.
    pub addr: SocketAddr,
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Start a daemon serving the artifact at `model`, with a journal at
    /// `journal` when given, and wait until it listens.
    pub fn spawn(model: &Path, journal: Option<&Path>) -> std::io::Result<Daemon> {
        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.arg("--serve").arg(model);
        if let Some(j) = journal {
            cmd.arg("--journal").arg(j);
        }
        let mut child = cmd.stdin(Stdio::null()).stdout(Stdio::piped()).spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        match line.trim().parse() {
            Ok(addr) => Ok(Daemon {
                addr,
                child,
                stdout,
            }),
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(std::io::Error::other(format!(
                    "daemon announced `{}`",
                    line.trim()
                )))
            }
        }
    }

    /// The daemon's own counters.
    pub fn stats(&self) -> std::io::Result<StatsReply> {
        let response = Client::connect(self.addr)?.roundtrip(&Request::Stats)?;
        response
            .stats
            .ok_or_else(|| std::io::Error::other("stats request refused"))
    }

    /// Shut the daemon down with a `Shutdown` request, wait for it to
    /// exit, and return the peak resident set it reported on the way out.
    pub fn stop(mut self) -> std::io::Result<f64> {
        Client::connect(self.addr)?.roundtrip(&Request::Shutdown)?;
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        let status = self.child.wait()?;
        if !status.success() {
            return Err(std::io::Error::other(format!(
                "daemon exited with {status}"
            )));
        }
        line.trim()
            .parse()
            .map_err(|_| std::io::Error::other(format!("daemon reported `{}`", line.trim())))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A no-op after `stop`; otherwise a failed run still leaves no
        // process behind.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One persistent connection speaking raw wire bytes.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    protocol: Protocol,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect, negotiating the binary protocol when asked.
    pub fn connect(addr: SocketAddr, protocol: Protocol) -> std::io::Result<Conn> {
        let mut writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let mut reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        if protocol == Protocol::Binary {
            writer.write_all(&MAGIC)?;
            let mut ack = [0u8; MAGIC.len()];
            reader.read_exact(&mut ack)?;
            if ack != MAGIC {
                return Err(std::io::Error::other("binary handshake refused"));
            }
        }
        Ok(Conn {
            writer,
            reader,
            protocol,
            buf: Vec::with_capacity(4096),
        })
    }

    fn send(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(payload)
    }

    /// Read one reply and return its digest: the JSON line without its
    /// newline, or the whole binary frame (length prefix included).
    fn recv(&mut self) -> std::io::Result<u64> {
        self.buf.clear();
        match self.protocol {
            Protocol::Json => {
                if self.reader.read_until(b'\n', &mut self.buf)? == 0 {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                let body = self.buf.strip_suffix(b"\n").unwrap_or(&self.buf);
                Ok(digest(body))
            }
            Protocol::Binary => {
                let mut len = [0u8; 4];
                self.reader.read_exact(&mut len)?;
                let n = u32::from_le_bytes(len);
                if n == 0 || n > framing::MAX_FRAME {
                    return Err(std::io::Error::other(format!("reply frame of {n} bytes")));
                }
                self.buf.extend_from_slice(&len);
                self.buf.resize(4 + n as usize, 0);
                self.reader.read_exact(&mut self.buf[4..])?;
                Ok(digest(&self.buf))
            }
        }
    }
}

/// Replies of one phase: `(sequence position, reply digest)`.
pub type Replies = Vec<(usize, u64)>;

/// Lockstep: one connection, one request in flight, for `window`.
/// Returns per-request latencies (nanoseconds, send to full reply) and
/// the replies.
pub fn lockstep(
    conn: &mut Conn,
    pool: &Pool,
    first: usize,
    window: Duration,
) -> std::io::Result<(Vec<u64>, Replies)> {
    let mut samples = Vec::with_capacity(1 << 16);
    let mut replies = Vec::with_capacity(1 << 16);
    let start = Instant::now();
    let mut pos = first;
    while start.elapsed() < window {
        let sent = Instant::now();
        conn.send(&pool.payloads[pool.at(pos)])?;
        let reply = conn.recv()?;
        samples.push(sent.elapsed().as_nanos() as u64);
        replies.push((pos, reply));
        pos += 1;
    }
    Ok((samples, replies))
}

/// Saturation: every connection kept `depth` requests deep for
/// `window`, serviced round-robin by this one thread; each reply frees a
/// slot for the next request (closed loop). Returns completed requests
/// per second and the replies.
pub fn saturate(
    conns: &mut [Conn],
    depth: usize,
    pool: &Pool,
    first: usize,
    window: Duration,
) -> std::io::Result<(f64, Replies)> {
    let mut inflight: Vec<std::collections::VecDeque<usize>> =
        vec![Default::default(); conns.len()];
    let mut replies = Vec::with_capacity(1 << 17);
    let mut pos = first;
    let start = Instant::now();
    for (conn, q) in conns.iter_mut().zip(&mut inflight) {
        for _ in 0..depth {
            conn.send(&pool.payloads[pool.at(pos)])?;
            q.push_back(pos);
            pos += 1;
        }
    }
    let mut open = true;
    while inflight.iter().any(|q| !q.is_empty()) {
        open = open && start.elapsed() < window;
        for (conn, q) in conns.iter_mut().zip(&mut inflight) {
            let Some(p) = q.pop_front() else { continue };
            replies.push((p, conn.recv()?));
            if open {
                conn.send(&pool.payloads[pool.at(pos)])?;
                q.push_back(pos);
                pos += 1;
            }
        }
    }
    Ok((
        replies.len() as f64 / start.elapsed().as_secs_f64(),
        replies,
    ))
}
