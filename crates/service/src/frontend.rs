//! The TCP frontend: line-in, line-out over `std::net`.
//!
//! One acceptor thread plus one thread per connection, each holding a
//! cheap [`Service`] clone. The frontend is deliberately thin — parse a
//! line, admit it (never blocking on a full shard queue: admission
//! sheds), write the reply — so that swapping the transport for an
//! async reactor changes nothing behind [`Service::try_call`]. A tokio
//! frontend would replace exactly this file (one task per connection,
//! `try_call`'s reply receiver awaited instead of blocked on); the
//! dependency is not vendored in this workspace, so the thread-based
//! frontend is the one that ships (DESIGN.md §15).
//!
//! Write path: every reply leaves as exactly one `write` (rendered by
//! `Reply`'s `Display` into a per-connection buffer, then one
//! `write_all`), on a socket with Nagle's algorithm off (`TCP_NODELAY`).
//! Both halves matter. With Nagle on, each piece of a reply written in
//! pieces after the first waits until the client ACKs the first, and a
//! client with ordinary delayed ACKs sends that ACK only with its next
//! request or when its 40 ms timer fires, so every round trip stalls
//! for about 40 ms. The farewell lines (`err idle-timeout`, `err parse
//! line too long`) take the same path.
//!
//! Protocol details live in [`crate::wire`]; a session's requests must
//! arrive on one connection (or otherwise be externally ordered) for
//! per-key ordering to be meaningful, which is the natural affinity a
//! tenant connection has anyway.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::service::Service;
use crate::wire::{parse_request, ErrKind, Reply, Request, MAX_LINE};

/// Frontend connection policy.
#[derive(Clone, Copy, Debug)]
pub struct FrontendConfig {
    /// How long a connection may sit idle (no complete line read)
    /// before the frontend writes a typed `err idle-timeout` line and
    /// closes it. `None` disables the timeout.
    pub read_timeout: Option<Duration>,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            read_timeout: Some(Duration::from_secs(60)),
        }
    }
}

/// A running TCP frontend.
pub struct TcpFrontend {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

fn serve_conn(service: Service, stream: TcpStream, stop: Arc<AtomicBool>, cfg: FrontendConfig) {
    let _ = stream.set_read_timeout(cfg.read_timeout);
    let _ = stream.set_nodelay(true);
    serve_lines(BufReader::new(&stream), &stream, &stop, |req| {
        service.call(req)
    });
}

/// The connection loop behind [`serve_conn`], generic over the
/// transport so the write path can be tested without sockets: read a
/// bounded line, answer it through `call`, write the reply with
/// [`send_reply`]. Returns on EOF, `quit`, a read or write error, or a
/// farewell line (idle timeout, oversized line).
fn serve_lines<R: BufRead, W: Write>(
    mut reader: R,
    mut writer: W,
    stop: &AtomicBool,
    mut call: impl FnMut(Request) -> Reply,
) {
    let mut line = String::new();
    // One render buffer per connection, cleared and reused per reply.
    let mut out = Vec::new();
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        line.clear();
        // Bounded read: a peer streaming an endless line gets cut off.
        match reader
            .by_ref()
            .take(MAX_LINE as u64 + 1)
            .read_line(&mut line)
        {
            Ok(0) => return, // EOF
            Ok(_) => {}
            // An idle socket trips the read timeout (reported as
            // WouldBlock on unix, TimedOut on windows): tell the peer
            // why it is being hung up on, then close.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                let reply = Reply::err(ErrKind::IdleTimeout, "connection idle, closing");
                let _ = send_reply(&mut writer, &mut out, &reply);
                return;
            }
            Err(_) => return,
        }
        if line.len() > MAX_LINE {
            let reply = Reply::err(ErrKind::Parse, "line too long");
            let _ = send_reply(&mut writer, &mut out, &reply);
            return;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed == "quit" {
            return;
        }
        let reply = match parse_request(trimmed) {
            Ok(req) => call(req),
            Err(msg) => Reply::err(ErrKind::Parse, msg),
        };
        if send_reply(&mut writer, &mut out, &reply).is_err() {
            return;
        }
    }
}

/// Renders `reply` and its newline into `buf` (cleared first) and sends
/// the line with one `write_all`: with Nagle on, a line sent in pieces
/// waits on the peer's delayed ACK after the first piece.
fn send_reply<W: Write>(writer: &mut W, buf: &mut Vec<u8>, reply: &Reply) -> std::io::Result<()> {
    buf.clear();
    writeln!(buf, "{reply}")?;
    writer.write_all(buf)
}

impl TcpFrontend {
    /// Binds `addr` (e.g. `127.0.0.1:7077`, port 0 for ephemeral) and
    /// starts accepting connections against `service` with the default
    /// connection policy.
    pub fn spawn(service: Service, addr: &str) -> std::io::Result<TcpFrontend> {
        TcpFrontend::spawn_with(service, addr, FrontendConfig::default())
    }

    /// [`TcpFrontend::spawn`] with an explicit connection policy.
    pub fn spawn_with(
        service: Service,
        addr: &str,
        cfg: FrontendConfig,
    ) -> std::io::Result<TcpFrontend> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let acceptor = std::thread::Builder::new()
            .name("ceal-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let svc = service.clone();
                    let stop3 = Arc::clone(&stop2);
                    let _ = std::thread::Builder::new()
                        .name("ceal-conn".into())
                        .spawn(move || serve_conn(svc, stream, stop3, cfg));
                }
            })?;
        Ok(TcpFrontend {
            addr: local,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections and joins the acceptor thread.
    /// In-flight connection threads exit on their next read or on EOF.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Poke the blocking accept() so the acceptor observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(j) = self.acceptor.take() {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{CounterDelta, ServiceCounters, ShardStat};
    use ceal_runtime::Value;
    use std::io::Cursor;

    /// A sink that records every `write` call separately.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Yields `data`, then fails every read with `end` (EOF if `None`),
    /// the way a socket's read timeout surfaces.
    struct Scripted {
        data: Cursor<Vec<u8>>,
        end: Option<std::io::ErrorKind>,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.data.read(buf)? {
                0 => match self.end {
                    Some(kind) => Err(kind.into()),
                    None => Ok(0),
                },
                n => Ok(n),
            }
        }
    }

    /// Runs the connection loop over `input`, answering the i-th
    /// request with `replies[i]`; returns the writes it made.
    fn drive(input: &str, end: Option<std::io::ErrorKind>, replies: &[Reply]) -> Vec<Vec<u8>> {
        let reader = BufReader::new(Scripted {
            data: Cursor::new(input.as_bytes().to_vec()),
            end,
        });
        let mut writes = Writes::default();
        let mut next = replies.iter().cloned();
        serve_lines(reader, &mut writes, &AtomicBool::new(false), |_| {
            next.next().expect("one canned reply per request")
        });
        writes.0
    }

    fn lines(replies: &[Reply]) -> Vec<Vec<u8>> {
        replies
            .iter()
            .map(|r| format!("{r}\n").into_bytes())
            .collect()
    }

    #[test]
    fn every_reply_is_one_write_of_its_display_line() {
        let counters = CounterDelta {
            reads_reexecuted: 3,
            propagations: 1,
            memo_hits: 2,
            dirty_marks: 4,
            demand_cleans: 5,
        };
        let replies = [
            Reply::Opened {
                value: Value::Int(17),
            },
            Reply::Edited {
                applied: 2,
                elided: 1,
                counters,
            },
            Reply::Observed {
                value: Value::Int(-4),
                counters,
                restored: true,
            },
            Reply::Stats {
                counters: ServiceCounters {
                    admitted: 9,
                    ..Default::default()
                },
                shards: vec![
                    ShardStat {
                        shard: 0,
                        queue_depth: 2,
                        live_sessions: 5,
                        evicted_sessions: 1,
                        live_bytes: 4096,
                    },
                    ShardStat {
                        shard: 1,
                        ..Default::default()
                    },
                ],
            },
            Reply::Metrics("{\"schema\":\"ceal-metrics/v1\"}".into()),
            Reply::Pong,
            Reply::err(ErrKind::Shed, "queue full"),
            Reply::Closed,
        ];
        let input = "open s sum 4 1\nedit s d1 d2\nobserve s\n\nstats\nmetrics\nping\n\
                     observe s\nclose s\n";
        let parse_err = Reply::err(ErrKind::Parse, parse_request("frobnicate").unwrap_err());
        let writes = drive(&format!("{input}frobnicate\nquit\nping\n"), None, &replies);
        let mut want = lines(&replies);
        want.extend(lines(&[parse_err]));
        assert_eq!(writes, want);
    }

    #[test]
    fn farewell_lines_are_one_write_each() {
        let writes = drive(
            "ping\n",
            Some(std::io::ErrorKind::WouldBlock),
            &[Reply::Pong],
        );
        let idle = Reply::err(ErrKind::IdleTimeout, "connection idle, closing");
        assert_eq!(writes, lines(&[Reply::Pong, idle]));

        let huge = format!("ping\nedit s {}\nping\n", "d1 ".repeat(MAX_LINE / 3 + 1));
        let writes = drive(&huge, None, &[Reply::Pong, Reply::Pong]);
        let too_long = Reply::err(ErrKind::Parse, "line too long");
        assert_eq!(writes, lines(&[Reply::Pong, too_long]));
    }
}
