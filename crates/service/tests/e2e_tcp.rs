//! End-to-end over real sockets: boot the TCP frontend on an ephemeral
//! port, drive two independent sessions from two connections, and check
//! the replies line by line — the same round trip
//! `examples/service_client.rs` demonstrates against `cealc --serve`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ceal_service::frontend::{FrontendConfig, TcpFrontend};
use ceal_service::service::{Service, ServiceConfig};
use ceal_service::wire::Request;
use ceal_suite::input::random_ints;

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let writer = stream.try_clone().expect("clone stream");
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn call(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("recv");
        reply.trim_end().to_string()
    }
}

#[test]
fn two_sessions_edit_observe_round_trip() {
    let svc = Service::start(ServiceConfig {
        shards: 2,
        ..Default::default()
    });
    let frontend = TcpFrontend::spawn(svc.clone(), "127.0.0.1:0").expect("bind");
    let addr = frontend.addr();

    let mut alice = Client::connect(addr);
    let mut bob = Client::connect(addr);

    // Two tenants, different workloads and seeds, interleaved.
    let a_data = random_ints(16, 5);
    let a_sum: i64 = a_data.iter().sum();
    assert_eq!(
        alice.call("open alice sum 16 5"),
        format!("ok opened value={a_sum}")
    );

    let b_data = random_ints(8, 6);
    let b_min: i64 = *b_data.iter().min().unwrap();
    assert_eq!(
        bob.call("open bob min 8 6 demand"),
        format!("ok opened value={b_min}")
    );

    let r = alice.call("edit alice d3 d3");
    assert!(r.starts_with("ok edited applied=1 elided=1"), "{r}");
    let a_after: i64 = a_sum - a_data[3];
    let r = alice.call("observe alice");
    assert!(
        r.starts_with(&format!("ok value={a_after} restored=0")),
        "{r}"
    );

    let r = bob.call("edit bob d0 d1 d2");
    assert!(r.starts_with("ok edited applied=3"), "{r}");
    let b_after: i64 = *b_data[3..].iter().min().unwrap();
    let r = bob.call("observe bob");
    assert!(
        r.starts_with(&format!("ok value={b_after} restored=0")),
        "{r}"
    );

    // Cross-tenant isolation: bob cannot see alice's session going away.
    assert_eq!(alice.call("close alice"), "ok closed");
    let r = alice.call("observe alice");
    assert!(r.starts_with("err unknown-session"), "{r}");
    let r = bob.call("observe bob");
    assert!(r.starts_with(&format!("ok value={b_after}")), "{r}");

    // Wire errors come back typed, and the connection survives them.
    let r = bob.call("open bob sum 8 6");
    assert!(r.starts_with("err session-exists"), "{r}");
    let r = bob.call("frobnicate");
    assert!(r.starts_with("err parse"), "{r}");
    let r = bob.call("ping");
    assert_eq!(r, "ok pong");

    // Stats reflect both connections' traffic, with the per-shard
    // breakdown appended.
    let r = alice.call("stats");
    assert!(r.starts_with("ok stats"), "{r}");
    assert!(r.contains("opened=2"), "{r}");
    assert!(r.contains("closed=1"), "{r}");
    assert!(r.contains("shard0.queue="), "{r}");
    assert!(r.contains("shard1.live="), "{r}");

    // The metrics verb returns the merged registry as one JSON line.
    let r = alice.call("metrics");
    assert!(r.starts_with("ok metrics {"), "{r}");
    assert!(r.contains("ceal_requests_total"), "{r}");

    frontend.stop();
    svc.shutdown();
    let reply = svc.call(Request::Ping);
    assert!(!reply.is_ok(), "service must refuse after shutdown");
}

#[test]
fn idle_connections_get_a_typed_timeout() {
    let svc = Service::start(ServiceConfig {
        shards: 1,
        ..Default::default()
    });
    let frontend = TcpFrontend::spawn_with(
        svc.clone(),
        "127.0.0.1:0",
        FrontendConfig {
            read_timeout: Some(Duration::from_millis(150)),
        },
    )
    .expect("bind");
    let mut c = Client::connect(frontend.addr());
    // An active connection is unaffected by the timeout between its
    // own requests.
    assert_eq!(c.call("ping"), "ok pong");
    // Then go idle past the threshold: the frontend announces the
    // typed close reason and hangs up (EOF on the next read).
    let mut line = String::new();
    c.reader.read_line(&mut line).expect("read close reason");
    assert!(line.starts_with("err idle-timeout"), "{line}");
    line.clear();
    let n = c.reader.read_line(&mut line).expect("read EOF");
    assert_eq!(n, 0, "connection must be closed after the timeout line");
    frontend.stop();
    svc.shutdown();
}

#[test]
fn oversized_lines_are_cut_off() {
    let svc = Service::start(ServiceConfig {
        shards: 1,
        ..Default::default()
    });
    let frontend = TcpFrontend::spawn(svc.clone(), "127.0.0.1:0").expect("bind");
    // The server cuts the line off at MAX_LINE and hangs up; depending
    // on timing the client sees the typed parse error, or a reset while
    // still streaming the tail of the oversized line. Either way the
    // connection must die and the server must keep serving others.
    let stream = TcpStream::connect(frontend.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let huge = format!("edit x {}\n", "d1 ".repeat(40_000));
    let _ = writer.write_all(huge.as_bytes());
    let mut reply = String::new();
    if reader.read_line(&mut reply).is_ok() && !reply.is_empty() {
        assert!(reply.starts_with("err parse"), "{reply}");
    }
    let mut fresh = Client::connect(frontend.addr());
    assert_eq!(fresh.call("ping"), "ok pong");
    frontend.stop();
    svc.shutdown();
}

/// A client with default socket options (Nagle on, ordinary delayed
/// ACKs) that sends each request as one write gets each reply without
/// waiting on its own delayed-ACK timer. Linux's minimum delayed-ACK
/// timeout is 40 ms, so a p50 under half of that means no round trip
/// waited on it: the bound is a protocol constant, not a machine speed.
#[test]
fn plain_socket_round_trips_do_not_wait_on_delayed_acks() {
    let svc = Service::start(ServiceConfig {
        shards: 2,
        ..Default::default()
    });
    let frontend = TcpFrontend::spawn(svc.clone(), "127.0.0.1:0").expect("bind");
    let stream = TcpStream::connect(frontend.addr()).expect("connect");
    let mut reader = BufReader::new(&stream);
    let mut call = |line: &str| {
        (&stream)
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("recv");
        assert!(reply.starts_with("ok "), "{line} -> {reply}");
    };
    call("open plain sum 64 9");
    let mut rtts: Vec<Duration> = (0..50)
        .map(|i| {
            let line = if i % 2 == 0 {
                format!("edit plain d{i}")
            } else {
                "observe plain".to_string()
            };
            let t = Instant::now();
            call(&line);
            t.elapsed()
        })
        .collect();
    rtts.sort();
    let p50 = rtts[rtts.len() / 2];
    assert!(
        p50 < Duration::from_millis(20),
        "plain-client p50 round trip {p50:?}: replies wait on the delayed-ACK timer"
    );
    frontend.stop();
    svc.shutdown();
}
