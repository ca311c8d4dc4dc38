//! A minimal client for the incremental-session service.
//!
//! Start the server, then point this client at it:
//!
//! ```text
//! cargo run -p cealc -- --serve --addr 127.0.0.1:7077 &
//! cargo run -p ceal-examples --bin service_client -- 127.0.0.1:7077
//! ```
//!
//! The client is deliberately plain `std::net` + the ASCII line
//! protocol (see `crates/service/src/wire.rs`) — anything that can
//! write lines to a socket is a full-fledged tenant. It opens two
//! sessions with different workloads and policies, interleaves edits
//! and observations, and prints every request/reply pair, demonstrating
//! that each session propagates independently: deleting elements from
//! `alice`'s sum never re-executes anything in `bob`'s minimum.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn dial(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn call(&mut self, line: &str) -> std::io::Result<String> {
        // One write per request line: see README "Running as a service".
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply)?;
        let reply = reply.trim_end().to_string();
        println!("> {line}\n< {reply}");
        if reply.starts_with("err") {
            return Err(std::io::Error::other(format!("server said: {reply}")));
        }
        Ok(reply)
    }
}

fn main() -> std::io::Result<()> {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:7077".into());
    println!("connecting to {addr}");
    let mut conn = Conn::dial(&addr)?;

    // Session 1: an eagerly-propagating list sum.
    conn.call("open alice sum 16 42")?;
    // Session 2: a demand-driven list minimum (edits defer until
    // observed).
    conn.call("open bob min 16 7 demand")?;

    // Edit alice: one batch, one coalesced propagation. The reply's
    // reexec/props fields show what the edit cost.
    conn.call("edit alice d3 d8")?;
    conn.call("observe alice")?;

    // Edit bob twice without observing: under the demand policy the
    // replies show props=0 (marks only) ...
    conn.call("edit bob d0")?;
    conn.call("edit bob d1 d2")?;
    // ... and the observe runs a single coalesced demand-clean pass.
    conn.call("observe bob")?;

    // Idempotent edits elide (delete of an already-deleted element).
    conn.call("edit alice d3")?;

    // Per-service counters: opened=2, plus the edit/observe tallies.
    conn.call("stats")?;

    conn.call("close alice")?;
    conn.call("close bob")?;
    println!("round trip complete");
    Ok(())
}
