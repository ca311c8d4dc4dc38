//! The `service` workload: `Service` with two shards behind
//! `TcpFrontend`, driven over real sockets by one process with two
//! connections, each with one sending and one reading thread.
//!
//! Sessions are `sum`/`min` folds (every fourth on the demand policy),
//! each pinned to one connection. Session choice is skewed: a hot set
//! that fits the per-shard memory budget gets most requests, and a cold
//! tail about twice the budget forces evictions and restores. Requests
//! are `edit` batches of 1–4 ops and `observe`s; every `observe` value
//! is checked against the client's own model of the session's live
//! elements. The session length, the budget, the batch sizes and the
//! edit/observe split come from the repository's own service load model
//! (`ceal_service::bench::GATE_SPEC`).
//!
//! A run repeats *rounds* until its time is used. A round sets the
//! service up afresh (service start, connections, every session opened),
//! runs a closed loop, in which a connection sends its next line only
//! after the previous reply (the connections taking turns), and sends the
//! open-loop base rate. The first round also runs a closed loop on the
//! plain client, and, in a traced run, the open-loop rate ladder.
//! Open-loop latency runs from each request's scheduled send time to the
//! moment its reply line is read.
//!
//! At this commit the frontend writes each reply in several pieces with
//! Nagle's algorithm on, so the tail of a reply waits for the client to
//! acknowledge the head. A client that delays its ACKs, as a plain
//! socket does, then waits for its own next send or the delayed-ACK
//! timer (40 ms) on every reply. The first round's closed loop uses such
//! a plain client, so `rtt_p50_ms` shows what a user of the frontend
//! sees. Every
//! other phase uses a client that acknowledges each segment at once
//! ([`quick_ack`]), so its figures measure the service and the
//! transport rather than the client's send gap or the ACK timer.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, TryRecvError};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use ceal_runtime::prng::Prng;
use ceal_runtime::telemetry::{HistogramSnapshot, MetricsSnapshot};
use ceal_service::bench::GATE_SPEC;
use ceal_service::{route_key, Service, ServiceConfig, ServiceCounters, TcpFrontend};
use ceal_suite::input::random_ints;

use crate::util::{block_p99, median, pct, ratio, wait_until, Report, Tracer};
use crate::{Args, LATENESS_BOUND_MS, SLO_MS};

const SHARDS: usize = 2;
const CONNS: usize = 2;
/// Elements per session list, as in the repository's load model.
const SESSION_N: usize = GATE_SPEC.n as usize;
/// Per-shard memory budget driving LRU eviction, as in the load model.
const MEM_BUDGET: usize = GATE_SPEC.mem_budget_bytes;
/// Ops per `edit`: uniform over 1..=MAX_BATCH, whose mean (2.5) is
/// close to the load model's fixed batch of 2.
const MAX_BATCH: usize = 2 * GATE_SPEC.batch_size;
/// Share of `edit`s among edits and observes: the load model observes
/// on every `observe_every`-th active round, one observe per that many
/// edits.
const EDIT_SHARE: f64 = GATE_SPEC.observe_every as f64 / (GATE_SPEC.observe_every as f64 + 1.0);
/// Hot sessions per shard. A fresh session of `SESSION_N` elements
/// takes about 18 KB, so the hot set takes about 40% of the budget,
/// leaving room for the history it accumulates in a run.
const HOT_PER_SHARD: usize = 12;
/// Cold sessions per shard: about twice the budget, so cold requests
/// evict and restore.
const COLD_PER_SHARD: usize = 56;
/// Share of requests addressed to the hot set. The load model has no
/// skew (every session equally active), so this is a stand-in, not a
/// measured figure; `perfbench/README.md` reports how much the gated
/// metrics move with it.
const P_HOT: f64 = 0.95;
/// Share of base-rate requests that are `ping`s: the transport probe of
/// the parts-add-up check. They are not counted in `req_*`.
const PING_SHARE: f64 = 0.1;
/// Open-loop base rate, requests per second over both connections.
const BASE_RATE: f64 = 1_000.0;
/// The fixed ladder: geometric, 10% apart, from well below the knee on
/// the machine this was tuned on to well above it.
const LADDER: &[f64] = &[
    2_000.0, 2_200.0, 2_420.0, 2_660.0, 2_930.0, 3_220.0, 3_540.0, 3_900.0, 4_290.0, 4_720.0,
    5_190.0, 5_710.0, 6_280.0, 6_900.0, 7_590.0, 8_350.0, 9_190.0, 10_110.0, 11_120.0, 12_230.0,
    13_450.0, 14_800.0, 16_280.0, 17_910.0, 19_700.0, 21_670.0, 23_840.0, 26_220.0, 28_840.0,
];
/// Requests each ladder rung sends: two blocks for its p99.
const RUNG_REQUESTS: usize = 2_000;
/// Requests per connection of the plain closed loop (at this commit
/// each waits for the delayed-ACK timer, so this takes about a second).
const PLAIN_REQUESTS: usize = 12;
/// Requests per connection of the quick-ACK closed loop, per round.
const CLOSED_REQUESTS: usize = 5_000;
/// Requests of the base rate, per round: two blocks for its p99.
const BASE_REQUESTS: usize = 2_000;
/// Unanswered requests per connection at which an open-loop phase
/// stops sending.
const MAX_OUTSTANDING: usize = 500;
/// How long a phase waits for outstanding replies after its last send.
const DRAIN: Duration = Duration::from_secs(10);

/// The client's model of one session.
struct Sess {
    sid: String,
    sum: bool,
    demand: bool,
    seed: u64,
    data: Vec<i64>,
    live: Vec<bool>,
}

impl Sess {
    fn new(i: usize, run_seed: u64) -> Sess {
        let seed = run_seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
        Sess {
            sid: format!("s{i}"),
            sum: i % 2 == 0,
            demand: i % 4 == 3,
            seed,
            data: random_ints(SESSION_N, seed),
            live: vec![true; SESSION_N],
        }
    }

    fn open_line(&self) -> String {
        format!(
            "open {} {} {} {} {}",
            self.sid,
            if self.sum { "sum" } else { "min" },
            self.data.len(),
            self.seed,
            if self.demand { "demand" } else { "eager" }
        )
    }

    /// The output value the session must report, as the wire prints it.
    fn expect(&self) -> String {
        let live = self
            .data
            .iter()
            .zip(&self.live)
            .filter(|(_, &l)| l)
            .map(|(&x, _)| x);
        let v = if self.sum {
            live.reduce(|a, b| a + b)
        } else {
            live.min()
        };
        // An empty list folds to nil, as in the suite's oracles.
        v.map_or("nil".to_string(), |x| x.to_string())
    }
}

/// What a reply must say.
enum Expect {
    Opened(String),
    Edited(usize),
    Value(String),
    Pong,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Open,
    Edit,
    Observe,
    Ping,
}

fn check_reply(line: &str, expect: &Expect) -> Result<(), String> {
    let field = |key: &str| {
        line.split_whitespace()
            .find_map(|w| w.strip_prefix(key))
            .map(str::to_string)
    };
    let ok = match expect {
        Expect::Opened(v) => line.starts_with("ok opened") && field("value=").as_ref() == Some(v),
        Expect::Edited(n) => {
            line.starts_with("ok edited")
                && field("applied=") == Some(n.to_string())
                && field("elided=") == Some("0".into())
        }
        Expect::Value(v) => line.starts_with("ok value=") && field("value=").as_ref() == Some(v),
        Expect::Pong => line == "ok pong",
    };
    if ok {
        Ok(())
    } else {
        let want = match expect {
            Expect::Opened(v) | Expect::Value(v) => format!("value={v}"),
            Expect::Edited(n) => format!("applied={n} elided=0"),
            Expect::Pong => "ok pong".into(),
        };
        Err(format!(
            "reply `{line}` does not match the client model ({want})"
        ))
    }
}

/// The reading half of a client connection, with its line buffer.
struct Reader {
    stream: TcpStream,
    pending: Vec<u8>,
    /// When the first byte of `pending` arrived.
    first: Option<Instant>,
    buf: Vec<u8>,
    /// Acknowledge every segment at once (see [`quick_ack`]).
    quick_ack: bool,
}

/// Asks the kernel to acknowledge received data at once rather than
/// delay the ACK. Linux clears the request as the connection's traffic
/// turns interactive, so it is repeated after every read. A reply the
/// server writes in several pieces with Nagle's algorithm on then
/// arrives within one extra round trip instead of after the next send
/// or the delayed-ACK timer. A no-op elsewhere.
#[cfg(target_os = "linux")]
fn quick_ack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, val: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let one: i32 = 1;
    // SAFETY: `fd` is an open socket owned by `stream`, and `val`
    // points to an `int` of the length passed.
    unsafe {
        setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &one, 4);
    }
}

#[cfg(not(target_os = "linux"))]
fn quick_ack(_: &TcpStream) {}

/// A reply line, with the instants its first byte and its end arrived.
struct Line {
    first: Instant,
    end: Instant,
    text: String,
}

impl Reader {
    /// Waits at most `timeout` for bytes and appends the complete lines
    /// received to `out`. Socket read timeouts are only as fine as the
    /// kernel's tick, so this is used where a coarse wait is fine;
    /// timing comes from the instant the read returns.
    fn poll(&mut self, timeout: Duration, out: &mut Vec<Line>) -> std::io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))?;
        match self.stream.read(&mut self.buf) {
            Ok(0) => Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                let now = Instant::now();
                if self.quick_ack {
                    quick_ack(&self.stream);
                }
                self.pending.extend_from_slice(&self.buf[..n]);
                while let Some(i) = self.pending.iter().position(|&c| c == b'\n') {
                    let line: Vec<u8> = self.pending.drain(..=i).collect();
                    out.push(Line {
                        first: self.first.take().unwrap_or(now),
                        end: now,
                        text: String::from_utf8_lossy(&line).trim_end().to_string(),
                    });
                }
                if !self.pending.is_empty() {
                    self.first.get_or_insert(now);
                }
                Ok(())
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Matches reply lines to the requests the generator announces on
    /// `announced` (each before it is sent), until the generator is done
    /// and every request is answered, or `DRAIN` after the generator
    /// finished. Unanswered requests count as failures.
    fn serve(
        &mut self,
        announced: Receiver<Pending>,
        answered: &AtomicUsize,
        tracer: &mut Tracer,
        parent: u32,
    ) -> PhaseOut {
        let mut out = PhaseOut::default();
        let mut queue = VecDeque::new();
        let mut lines = Vec::new();
        let mut done_at: Option<Instant> = None;
        loop {
            loop {
                match announced.try_recv() {
                    Ok(p) => queue.push_back(p),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        done_at.get_or_insert_with(Instant::now);
                        break;
                    }
                }
            }
            if let Some(t) = done_at {
                if queue.is_empty() || t.elapsed() > DRAIN {
                    break;
                }
            }
            lines.clear();
            if let Err(e) = self.poll(Duration::from_millis(20), &mut lines) {
                out.failures.push(format!("connection failed: {e}"));
                break;
            }
            for line in lines.drain(..) {
                let p = match queue.pop_front() {
                    Some(p) => p,
                    // Announced before sent, so it is in the channel.
                    None => match announced.recv() {
                        Ok(p) => p,
                        Err(_) => {
                            out.failures
                                .push(format!("unsolicited reply `{}`", line.text));
                            continue;
                        }
                    },
                };
                answered.fetch_add(1, Ordering::Relaxed);
                let sample = Sample::new(p.kind, p.due, p.sent, &line);
                let ms = sample.line_ms;
                out.samples.push(sample);
                if let Err(e) = check_reply(&line.text, &p.expect) {
                    out.failures.push(e);
                }
                if tracer.on {
                    // Every other request is traced, so the run
                    // measures its own tracing overhead.
                    if p.req % 2 == 0 {
                        tracer.span("client.request", p.sent, line.end, parent, p.req);
                        out.traced_ms.push(ms);
                    } else {
                        out.untraced_ms.push(ms);
                    }
                }
            }
        }
        for p in queue {
            out.failures.push(format!(
                "request {} unanswered at the end of its phase",
                p.req
            ));
        }
        out
    }
}

/// A request sent and not yet answered.
struct Pending {
    due: Instant,
    sent: Instant,
    kind: Kind,
    expect: Expect,
    req: u64,
}

/// One answered request's latency, ms, from its scheduled (open loop)
/// or actual (closed loop) send.
struct Sample {
    kind: Kind,
    /// Actual minus scheduled send time.
    late_ms: f64,
    /// Until the reply's first byte arrived.
    first_ms: f64,
    /// Until the reply's whole line arrived. At this commit the frontend
    /// writes a reply in several pieces with Nagle's algorithm on, so
    /// the rest of the line waits for an ACK: one extra round trip on
    /// the quick-ACK client, the client's next send or the delayed-ACK
    /// timer on the plain one.
    line_ms: f64,
}

impl Sample {
    fn new(kind: Kind, due: Instant, sent: Instant, line: &Line) -> Sample {
        let ms = |t: Instant| t.saturating_duration_since(due).as_secs_f64() * 1e3;
        Sample {
            kind,
            late_ms: ms(sent),
            first_ms: ms(line.first),
            line_ms: ms(line.end),
        }
    }
}

/// Everything one connection measured in one phase.
#[derive(Default)]
struct PhaseOut {
    sent: usize,
    samples: Vec<Sample>,
    /// Actual minus scheduled send time, ms.
    late_ms: Vec<f64>,
    /// Requests outstanding when the last one was sent.
    backlog: usize,
    /// Sending stopped at `MAX_OUTSTANDING` unanswered requests.
    cut_short: bool,
    failures: Vec<String>,
    /// Latency split for the tracing-overhead estimate: (traced, untraced).
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
}

impl PhaseOut {
    /// First-byte latencies of the requests whose kind `pick` accepts.
    fn latencies(&self, pick: impl Fn(Kind) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|x| pick(x.kind))
            .map(|x| x.first_ms)
            .collect()
    }

    /// Whole-line latencies of the requests whose kind `pick` accepts.
    fn line_latencies(&self, pick: impl Fn(Kind) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|x| pick(x.kind))
            .map(|x| x.line_ms)
            .collect()
    }

    /// Whole-line latencies from the actual send, not the scheduled one.
    fn since_send(&self, pick: impl Fn(Kind) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|x| pick(x.kind))
            .map(|x| x.line_ms - x.late_ms)
            .collect()
    }

    fn absorb(&mut self, o: PhaseOut) {
        self.sent += o.sent;
        self.samples.extend(o.samples);
        self.late_ms.extend(o.late_ms);
        self.backlog += o.backlog;
        self.cut_short |= o.cut_short;
        self.failures.extend(o.failures);
        self.traced_ms.extend(o.traced_ms);
        self.untraced_ms.extend(o.untraced_ms);
    }
}

/// The sending side of a connection: socket, sessions, generator state.
struct Gen {
    writer: TcpStream,
    sessions: Vec<Sess>,
    rng: Prng,
    next_req: u64,
    id: usize,
}

impl Gen {
    fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut b = Vec::with_capacity(line.len() + 1);
        b.extend_from_slice(line.as_bytes());
        b.push(b'\n');
        self.writer.write_all(&b)
    }

    /// Picks a session (hot with probability `P_HOT`) and builds an
    /// `edit` or `observe` for it, or, with probability `ping_share`, a
    /// `ping`.
    fn request(&mut self, ping_share: f64) -> (String, Kind, Expect) {
        if ping_share > 0.0 && self.rng.gen_bool(ping_share) {
            return ("ping".into(), Kind::Ping, Expect::Pong);
        }
        let i = if self.rng.gen_bool(P_HOT) {
            self.rng.gen_range(0..HOT_PER_SHARD)
        } else {
            self.rng.gen_range(HOT_PER_SHARD..self.sessions.len())
        };
        if self.rng.gen_bool(EDIT_SHARE) {
            let nops = self.rng.gen_range(1..MAX_BATCH + 1);
            let s = &mut self.sessions[i];
            let mut line = format!("edit {}", s.sid);
            for _ in 0..nops {
                let j = self.rng.gen_range(0..s.data.len());
                line.push_str(&format!(" {}{j}", if s.live[j] { 'd' } else { 'r' }));
                s.live[j] = !s.live[j];
            }
            (line, Kind::Edit, Expect::Edited(nops))
        } else {
            let s = &self.sessions[i];
            (
                format!("observe {}", s.sid),
                Kind::Observe,
                Expect::Value(s.expect()),
            )
        }
    }

    fn req_id(&mut self) -> u64 {
        self.next_req += 1;
        ((self.id as u64 + 1) << 40) | self.next_req
    }
}

/// One client connection, pinned to its sessions.
struct Client {
    gen: Gen,
    reader: Reader,
    tracer: Tracer,
}

impl Client {
    fn dial(addr: SocketAddr, id: usize, seed: u64, tracer: Tracer) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        // The client sends each request as one write; with Nagle off
        // on this side, any delay measured is the server's.
        writer.set_nodelay(true)?;
        let reader = Reader {
            stream: writer.try_clone()?,
            pending: Vec::new(),
            first: None,
            quick_ack: true,
            buf: vec![0; 64 << 10],
        };
        Ok(Client {
            gen: Gen {
                writer,
                sessions: Vec::new(),
                rng: Prng::seed_from_u64(seed ^ (0xC11E47 + id as u64)),
                next_req: 0,
                id,
            },
            reader,
            tracer,
        })
    }

    /// Open loop: sends `n` requests at `rate` per second, evenly spaced,
    /// each at its scheduled time or as soon after as the thread runs,
    /// while a reader thread matches the replies. Latency runs from each
    /// request's scheduled time; `ping_share` of the requests are pings. Sending stops early once
    /// `MAX_OUTSTANDING` requests are unanswered: the server is past
    /// saturation, and the rest of the schedule would only lengthen
    /// the drain.
    fn open_loop(&mut self, rate: f64, n: usize, ping_share: f64, parent: u32) -> PhaseOut {
        let Client {
            gen,
            reader,
            tracer,
        } = self;
        let answered = AtomicUsize::new(0);
        let (tx, rx) = channel::<Pending>();
        std::thread::scope(|scope| {
            let answered = &answered;
            let rh = scope.spawn(move || reader.serve(rx, answered, tracer, parent));
            let mut late_ms = Vec::with_capacity(n);
            let mut failures = Vec::new();
            let period = Duration::from_secs_f64(1.0 / rate);
            let mut due = Instant::now() + Duration::from_millis(2);
            let mut sent = 0;
            while sent < n
                && sent.saturating_sub(answered.load(Ordering::Relaxed)) < MAX_OUTSTANDING
            {
                due += period;
                let (line, kind, expect) = gen.request(ping_share);
                wait_until(due);
                let req = gen.req_id();
                let at = Instant::now();
                late_ms.push((at - due).as_secs_f64() * 1e3);
                // Announced before it is sent, so the reader can match
                // the reply.
                let pending = Pending {
                    due,
                    sent: at,
                    kind,
                    expect,
                    req,
                };
                if tx.send(pending).is_err() {
                    break;
                }
                if let Err(e) = gen.send(&line) {
                    failures.push(format!("send failed: {e}"));
                    break;
                }
                sent += 1;
            }
            let backlog = sent.saturating_sub(answered.load(Ordering::Relaxed));
            drop(tx);
            let mut out = rh.join().expect("reader thread panicked");
            out.sent = sent;
            out.backlog = backlog;
            out.cut_short = sent < n && backlog >= MAX_OUTSTANDING;
            out.late_ms = late_ms;
            out.failures.extend(failures);
            out
        })
    }

    /// Closed loop: sends the requests `next` yields, each only after
    /// the previous reply has been read.
    fn closed(
        &mut self,
        parent: u32,
        mut next: impl FnMut(&mut Gen) -> Option<(String, Kind, Expect)>,
    ) -> PhaseOut {
        let mut out = PhaseOut::default();
        let mut lines = Vec::new();
        while let Some((line, kind, expect)) = next(&mut self.gen) {
            let req = self.gen.req_id();
            let sent = Instant::now();
            out.sent += 1;
            if let Err(e) = self.gen.send(&line) {
                out.failures.push(format!("send failed: {e}"));
                break;
            }
            lines.clear();
            while lines.is_empty() && sent.elapsed() < DRAIN {
                if let Err(e) = self.reader.poll(Duration::from_millis(100), &mut lines) {
                    out.failures.push(format!("connection failed: {e}"));
                    return out;
                }
            }
            let Some(reply) = lines.pop() else {
                out.failures.push(format!("request {req} unanswered"));
                break;
            };
            out.samples.push(Sample::new(kind, sent, sent, &reply));
            if let Err(e) = check_reply(&reply.text, &expect) {
                out.failures.push(e);
            }
            self.tracer
                .span("client.request", sent, reply.end, parent, req);
        }
        out
    }
}

/// One phase of a round. Phases are sized in requests, not seconds, so
/// the history the sessions accumulate, and with it the cost of each
/// restore, is a function of the seed alone.
#[derive(Clone, Copy)]
enum Phase {
    /// Each connection keeps one request in flight and sends
    /// `requests`; `quick` picks the quick-ACK client over the plain one.
    Closed { requests: usize, quick: bool },
    /// `requests` requests on a fixed schedule at `rate` per second
    /// (both connections together), on the quick-ACK client. `rung`
    /// marks ladder phases.
    Open {
        rate: f64,
        requests: usize,
        rung: bool,
    },
}

/// Bucket-wise `a - b` of two snapshots of the same histogram.
fn hist_delta(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut d = HistogramSnapshot::empty();
    for (i, (x, y)) in a.buckets.iter().zip(&b.buckets).enumerate() {
        d.buckets[i] = x - y;
    }
    d.count = a.count - b.count;
    d.sum = a.sum.wrapping_sub(b.sum);
    d
}

/// The server's own view of a phase, over every round that ran it: its
/// metrics and counters at each start and end.
#[derive(Default)]
struct Window {
    spans: Vec<(
        MetricsSnapshot,
        MetricsSnapshot,
        ServiceCounters,
        ServiceCounters,
    )>,
}

impl Window {
    /// The phase's samples of histogram `name`, all shards, restricted
    /// to the request kinds in `kinds` (all when empty).
    fn h(&self, name: &str, kinds: &[&str]) -> HistogramSnapshot {
        let pick = |labels: &[(String, String)]| {
            kinds.is_empty()
                || labels
                    .iter()
                    .any(|(k, v)| k == "kind" && kinds.contains(&v.as_str()))
        };
        let mut sum = HistogramSnapshot::empty();
        for (m0, m1, _, _) in &self.spans {
            sum.merge(&hist_delta(
                &m1.merged_histogram(name, pick),
                &m0.merged_histogram(name, pick),
            ));
        }
        sum
    }

    /// How much the service counter `f` grew over the phase.
    fn grew(&self, f: impl Fn(&ServiceCounters) -> u64) -> f64 {
        self.spans
            .iter()
            .map(|(_, _, c0, c1)| (f(c1) - f(c0)) as f64)
            .sum()
    }
}

/// What one phase measured, client and server side.
struct PhaseResult {
    phase: Phase,
    out: PhaseOut,
    window: Window,
}

impl PhaseResult {
    /// Pools another round's run of the same phase into this one.
    fn absorb(&mut self, o: PhaseResult) {
        // Backlogs add up over connections, not over rounds.
        let backlog = self.out.backlog.max(o.out.backlog);
        self.out.absorb(o.out);
        self.out.backlog = backlog;
        self.window.spans.extend(o.window.spans);
    }

    fn rate(&self) -> f64 {
        match self.phase {
            Phase::Open { rate, .. } => rate,
            Phase::Closed { .. } => 0.0,
        }
    }

    fn lateness_p99(&self) -> f64 {
        block_p99(&self.out.late_ms)
    }

    /// Whole-line p99: what the limit is tested against.
    fn p99(&self) -> f64 {
        block_p99(&self.out.line_latencies(|_| true))
    }

    /// The backlog grows when more requests are outstanding at the last
    /// send than arrive in one SLO window (plus one per connection).
    fn backlog_grows(&self) -> bool {
        self.out.backlog as f64 > self.rate() * SLO_MS / 1e3 + CONNS as f64
    }

    fn valid(&self) -> bool {
        self.lateness_p99() <= LATENESS_BOUND_MS && !self.backlog_grows()
    }

    fn meets_slo(&self) -> bool {
        self.valid() && self.out.failures.is_empty() && self.p99() <= SLO_MS
    }

    fn print(&self, label: &str) {
        let first = self.out.latencies(|_| true);
        let line = self.out.line_latencies(|_| true);
        println!(
            "  {label:>6} rate={:>6.0}/s sent={:>6} first byte p50={:.3}ms p99={:.3}ms, line p50={:.3}ms p99={:.3}ms; lateness max={:.3}ms p99={:.3}ms backlog={} failed={} valid={} meets_slo={}",
            self.rate(),
            self.out.sent,
            pct(&first, 0.5),
            block_p99(&first),
            pct(&line, 0.5),
            self.p99(),
            self.out.late_ms.iter().cloned().fold(0.0, f64::max),
            self.lateness_p99(),
            self.out.backlog,
            self.out.failures.len(),
            self.valid(),
            self.meets_slo()
        );
    }
}

/// A running service with its frontend and client connections.
struct Stack {
    svc: Service,
    fe: TcpFrontend,
    clients: Vec<Client>,
}

impl Stack {
    fn stop(self) {
        drop(self.clients);
        self.fe.stop();
        self.svc.shutdown();
    }
}

/// The sessions of each shard, hot ones first: session keys are taken
/// in order and placed by the service's own routing, so every shard
/// gets the same hot and cold counts.
fn sessions_by_shard(seed: u64) -> Vec<Vec<Sess>> {
    let mut shards: Vec<Vec<Sess>> = (0..SHARDS).map(|_| Vec::new()).collect();
    let per = HOT_PER_SHARD + COLD_PER_SHARD;
    let mut i = 0;
    while shards.iter().any(|s| s.len() < per) {
        let shard = &mut shards[route_key(&format!("s{i}"), SHARDS)];
        if shard.len() < per {
            shard.push(Sess::new(i, seed));
        }
        i += 1;
    }
    shards
}

/// Starts the service and frontend, dials the connections and opens
/// every session, all drawn from `seed`; `opens` collects the open
/// round trips.
fn start_stack(seed: u64, tr: &mut Tracer, opens: &mut PhaseOut) -> std::io::Result<Stack> {
    let t = Instant::now();
    let svc = Service::start(ServiceConfig {
        shards: SHARDS,
        mem_budget_bytes: MEM_BUDGET,
        ..ServiceConfig::default()
    });
    let fe = TcpFrontend::spawn(svc.clone(), "127.0.0.1:0")?;
    tr.span("service_start", t, Instant::now(), 0, 0);
    // Connection c carries the sessions of shard c.
    let mut clients = Vec::with_capacity(CONNS);
    for (c, sessions) in sessions_by_shard(seed).into_iter().enumerate() {
        let mut client = Client::dial(fe.addr(), c, seed, tr.child())?;
        client.gen.sessions = sessions;
        clients.push(client);
    }
    // Sessions open one at a time, one connection after the other (as
    // in every closed loop here), cold ones first, so the hot set is
    // resident when the load starts.
    let t = Instant::now();
    for c in &mut clients {
        let mut lines: Vec<_> = c
            .gen
            .sessions
            .iter()
            .map(|s| (s.open_line(), Kind::Open, Expect::Opened(s.expect())))
            .collect();
        opens.absorb(c.closed(0, |_| lines.pop()));
    }
    tr.span("session_opens", t, Instant::now(), 0, 0);
    Ok(Stack { svc, fe, clients })
}

/// The phases of one round: on the first round the plain closed loop,
/// then the quick-ACK closed loop and the base rate, then, on the first
/// round of a traced run, the ladder.
fn plan(first: bool, ladder: bool) -> Vec<Phase> {
    let mut plan = Vec::new();
    if first {
        plan.push(Phase::Closed {
            requests: PLAIN_REQUESTS,
            quick: false,
        });
    }
    plan.push(Phase::Closed {
        requests: CLOSED_REQUESTS,
        quick: true,
    });
    plan.push(Phase::Open {
        rate: BASE_RATE,
        requests: BASE_REQUESTS,
        rung: false,
    });
    if first && ladder {
        plan.extend(LADDER.iter().map(|&rate| Phase::Open {
            rate,
            requests: RUNG_REQUESTS,
            rung: true,
        }));
    }
    plan
}

/// Runs `plan` on the client threads in lockstep with this thread,
/// which snapshots the server between phases. A rung that had to stop
/// sending at `MAX_OUTSTANDING` ends the ladder: the server is past
/// saturation, and so is every higher rung. Skipped rungs are absent
/// from the result.
fn drive(svc: &Service, clients: &mut [Client], plan: &[Phase], parent: u32) -> Vec<PhaseResult> {
    let barrier = Barrier::new(CONNS + 1);
    // Closed loops take turns, one connection at a time: with one
    // request in flight per connection, two connections at once would
    // put two runnable threads on a two-core machine at every moment,
    // and each request would wait for a core as often as not. Measured,
    // that doubled the closed-loop p50 and made it depend on where the
    // scheduler put the threads.
    let turn = Mutex::new(());
    let stop = AtomicBool::new(false);
    let skip = |phase: &Phase| {
        matches!(phase, Phase::Open { rung: true, .. }) && stop.load(Ordering::SeqCst)
    };
    let mut results = Vec::new();
    std::thread::scope(|scope| {
        let (tx, rx) = channel::<PhaseOut>();
        for c in clients.iter_mut() {
            let (barrier, skip, tx, turn) = (&barrier, &skip, tx.clone(), &turn);
            scope.spawn(move || {
                for phase in plan {
                    barrier.wait();
                    if !skip(phase) {
                        let out = match *phase {
                            Phase::Open {
                                rate,
                                requests,
                                rung,
                            } => {
                                c.reader.quick_ack = true;
                                let pings = if rung { 0.0 } else { PING_SHARE };
                                let n = requests / CONNS;
                                c.open_loop(rate / CONNS as f64, n, pings, parent)
                            }
                            Phase::Closed { requests, quick } => {
                                c.reader.quick_ack = quick;
                                let _turn = turn.lock().expect("no client thread panicked");
                                let mut left = requests;
                                c.closed(parent, |g| {
                                    left = left.checked_sub(1)?;
                                    Some(g.request(0.0))
                                })
                            }
                        };
                        tx.send(out).expect("main thread receives");
                    }
                    barrier.wait();
                }
            });
        }
        drop(tx);
        for &phase in plan {
            let (m0, c0) = (svc.metrics_snapshot(), svc.stats());
            barrier.wait();
            let skipped = skip(&phase);
            barrier.wait();
            if skipped {
                continue;
            }
            let mut out = PhaseOut::default();
            for _ in 0..CONNS {
                out.absorb(rx.recv().expect("client result"));
            }
            let window = Window {
                spans: vec![(m0, svc.metrics_snapshot(), c0, svc.stats())],
            };
            let r = PhaseResult { phase, out, window };
            if r.out.cut_short {
                stop.store(true, Ordering::SeqCst);
            }
            results.push(r);
        }
    });
    results
}

/// Per-layer metrics of the in-process layers, which this workload does
/// not time: inputs, compiler, VM, and the engine's own timings and
/// counters (the service aggregates only re-executions).
const IN_PROCESS_LAYERS: [&str; 22] = [
    "input.",
    "compile.",
    "vm.",
    "engine.run_core_s",
    "engine.stage_us",
    "engine.commit_us",
    "engine.memo_hit_ratio",
    "engine.alloc_reuse_ratio",
    "engine.purged",
    "engine.collected",
    "engine.queue_ops",
    "engine.om_ops",
    "engine.interval",
    "engine.reads",
    "engine.writes",
    "engine.allocs",
    "engine.trace_intervals",
    "engine.map.",
    "engine.sum.",
    "engine.quicksort.",
    "engine.exptrees.",
    "engine.tcon.",
];

/// Resident bytes per resident session, all shards.
fn bytes_per_session(snap: &MetricsSnapshot) -> f64 {
    ratio(
        snap.counter_total("ceal_live_bytes") as f64,
        snap.counter_total("ceal_live_sessions") as f64,
    )
}

pub fn run(args: &Args, rep: &mut Report, tr: &mut Tracer) {
    // Rounds fill the run (at least one). Each sets the service up
    // afresh and runs its phases on sessions with no history yet.
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut opens = PhaseOut::default();
    let mut session_bytes = 0.0;
    let mut plain: Option<PhaseResult> = None;
    let mut closed: Option<PhaseResult> = None;
    let mut base: Option<PhaseResult> = None;
    let mut rungs = Vec::new();
    let mut counters = ServiceCounters::default();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < budget {
        let first = rounds == 0;
        let seed = args
            .seed
            .wrapping_mul(1_000_003)
            .wrapping_add(rounds as u64);
        let t = Instant::now();
        let mut stack = match start_stack(seed, tr, &mut opens) {
            Ok(s) => s,
            Err(e) => {
                rep.fail(format!("service set-up failed: {e}"));
                return;
            }
        };
        setups.push(t.elapsed().as_secs_f64());
        if first {
            // Every session is fresh here (no history yet), so this is
            // a function of the seed alone.
            session_bytes = bytes_per_session(&stack.svc.metrics_snapshot());
        }
        let span = tr.open("phases", 0, rounds as u64);
        let plan = plan(first, tr.on);
        let mut results = drive(&stack.svc, &mut stack.clients, &plan, span).into_iter();
        tr.close(span);
        for c in &mut stack.clients {
            tr.absorb(std::mem::replace(&mut c.tracer, tr.child()));
        }
        if first {
            plain = results.next();
        }
        for slot in [&mut closed, &mut base] {
            match (slot.as_mut(), results.next()) {
                (Some(pooled), Some(r)) => pooled.absorb(r),
                (None, r) => *slot = r,
                (Some(_), None) => {}
            }
        }
        rungs.extend(results);
        counters.add(&stack.svc.stats());
        stack.stop();
        rounds += 1;
    }
    let (Some(plain), Some(closed), Some(base)) = (plain, closed, base) else {
        rep.fail("a service phase did not run".into());
        return;
    };

    // Correctness: every failure in every phase counts.
    rep.attempted += opens.sent as u64;
    for f in std::mem::take(&mut opens.failures) {
        rep.fail(f);
    }
    for r in [&plain, &closed, &base].into_iter().chain(&rungs) {
        rep.attempted += r.out.sent as u64;
        for f in &r.out.failures {
            rep.fail(f.clone());
        }
    }

    // End to end. Request latency is the quick-ACK closed loop's: with
    // one request in flight per connection, a stall of the machine
    // delays one request per connection, where in the open loop it
    // delays every request due during it. On the shared machine this
    // was tuned on, stalls of 1-30 ms made the open-loop p99 vary
    // several-fold between runs; the open-loop figures are reported as
    // `client.open_req_*`.
    let work = |k: Kind| k != Kind::Ping;
    let all = closed.out.line_latencies(work);
    let edits = closed.out.line_latencies(|k| k == Kind::Edit);
    let sessions = (SHARDS * (HOT_PER_SHARD + COLD_PER_SHARD)) as f64;
    rep.set("setup_s", median(&setups), "s");
    rep.set(
        "from_scratch_s",
        median(&opens.line_latencies(|_| true)) / 1e3,
        "s",
    );
    rep.set("update_p50_us", pct(&edits, 0.5) * 1e3, "us");
    rep.set("update_p99_us", block_p99(&edits) * 1e3, "us");
    rep.set("max_live_mb", session_bytes * sessions / 1e6, "MB");
    rep.set("req_p50_ms", pct(&all, 0.5), "ms");
    rep.set("req_p99_ms", block_p99(&all), "ms");
    let max_rps = rungs
        .iter()
        .filter(|r| r.meets_slo())
        .map(PhaseResult::rate)
        .fold(0.0, f64::max);
    rep.set("max_rps_at_slo", max_rps, "1/s");
    let plain_rtt = plain.out.line_latencies(|_| true);
    rep.set("rtt_p50_ms", pct(&plain_rtt, 0.5), "ms");
    let open = base.out.line_latencies(work);
    rep.set("client.open_req_p50_ms", pct(&open, 0.5), "ms");
    rep.set("client.open_req_p99_ms", block_p99(&open), "ms");

    // Service layers, from the server's own histograms (bucket upper
    // bounds, at most 12.5% above the exact figure) and counters over
    // the base-rate phase.
    let w = &base.window;
    let q = w.h("ceal_queue_wait_us", &[]);
    rep.set("queue.wait_us.p50", q.p50() as f64, "us");
    rep.set("queue.wait_us.p99", q.p99() as f64, "us");
    rep.set(
        "shard.handle_us.p50",
        w.h("ceal_handle_us", &[]).p50() as f64,
        "us",
    );
    rep.set(
        "service.engine_us.p50",
        w.h("ceal_engine_us", &[]).p50() as f64,
        "us",
    );
    rep.set(
        "reply.reply_us.p50",
        w.h("ceal_reply_us", &[]).p50() as f64,
        "us",
    );
    let restore = w.h("ceal_restore_us", &[]);
    rep.set("session.restore_us.p50", restore.p50() as f64, "us");
    rep.set("session.restore_us.p99", restore.p99() as f64, "us");
    let handled = w.h("ceal_request_us", &[]).count as f64;
    let restored = w.grew(|c| c.restored);
    rep.set("session.restore_share", ratio(restored, handled), "ratio");
    rep.set(
        "session.replayed_ops_per_restore",
        ratio(w.grew(|c| c.replayed_ops), restored),
        "count",
    );
    rep.set(
        "session.snapshot_bytes_per_evict",
        ratio(counters.snapshot_bytes as f64, counters.evicted as f64),
        "bytes",
    );
    rep.set(
        "engine.reexec_per_update",
        ratio(w.grew(|c| c.engine_reexec), w.grew(|c| c.edit_ops)),
        "count",
    );
    rep.absent(&IN_PROCESS_LAYERS);
    // Transport: the base-rate ping latency (from its actual send)
    // minus the server's own time for the ping. The parts-add-up check
    // then adds it to the server's time for edits and observes and
    // compares the sum with their client-side latency, measured on
    // other requests.
    let ping_ms = pct(&base.out.since_send(|k| k == Kind::Ping), 0.5);
    let ping_srv = w.h("ceal_request_us", &["ping"]).p50() as f64 / 1e3;
    let transport = ping_ms - ping_srv;
    rep.set("frontend.transport_ms.p50", transport, "ms");
    let work_srv = w.h("ceal_request_us", &["edit", "observe"]).p50() as f64 / 1e3;
    let work_ms = pct(&base.out.since_send(work), 0.5);
    rep.set("parts.server_ms", work_srv, "ms");
    rep.set("parts.client_ms", work_ms, "ms");
    rep.set(
        "client.lateness_ms.max",
        [&base]
            .into_iter()
            .chain(&rungs)
            .flat_map(|r| r.out.late_ms.iter().cloned())
            .fold(0.0, f64::max),
        "ms",
    );
    if tr.on {
        rep.set(
            "trace.overhead_frac",
            ratio(
                pct(&base.out.traced_ms, 0.5),
                pct(&base.out.untraced_ms, 0.5),
            ) - 1.0,
            "ratio",
        );
    }

    println!(
        "service: {SHARDS} shards, {CONNS} connections, {HOT_PER_SHARD} hot + {COLD_PER_SHARD} cold sessions per shard of {SESSION_N} elements ({:.0} bytes each when fresh), budget {} KiB per shard",
        session_bytes,
        MEM_BUDGET >> 10
    );
    println!(
        "rounds: {rounds}; set-up median {:.4}s; {} opens, median round trip {:.3}ms",
        median(&setups),
        opens.samples.len(),
        median(&opens.line_latencies(|_| true))
    );
    println!(
        "closed loop, plain client: {} requests, round trip p50 {:.3}ms (first byte of the reply p50 {:.3}ms)",
        plain.out.sent,
        pct(&plain_rtt, 0.5),
        pct(&plain.out.latencies(|_| true), 0.5),
    );
    println!(
        "closed loop, quick-ACK client: {} requests, round trip p50 {:.3}ms p99 {:.3}ms (first byte p50 {:.3}ms)",
        closed.out.sent,
        pct(&all, 0.5),
        block_p99(&all),
        pct(&closed.out.latencies(work), 0.5),
    );
    println!(
        "transport: ping p50 {ping_ms:.3}ms, server {ping_srv:.3}ms; edit/observe p50 {work_ms:.3}ms, server {work_srv:.3}ms"
    );
    println!("open loop, quick-ACK client (latency from scheduled send to reply read):");
    base.print("base");
    for r in &rungs {
        r.print("ladder");
    }
    println!(
        "server: evicted={} restored={} replayed_ops={} snapshot_bytes={} shed={}",
        counters.evicted,
        counters.restored,
        counters.replayed_ops,
        counters.snapshot_bytes,
        counters.shed
    );
}

/// The service's parts-add-up check, in ms: the server's time for
/// edits and observes plus the transport estimate, against their
/// client-side latency.
pub fn parts(rep: &Report) -> (f64, f64) {
    (
        rep.get("parts.server_ms") + rep.get("frontend.transport_ms.p50"),
        rep.get("parts.client_ms"),
    )
}
