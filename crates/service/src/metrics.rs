//! Service-tier telemetry: per-shard metric registries, request
//! tracing configuration, and the slow-request surface (DESIGN.md §17).
//!
//! One [`ShardTelemetry`] per shard, created by [`crate::Service`] and
//! owned (via `Arc`) by both the shard worker and the service handle:
//! the worker is the only *writer* on the request path (the frontend
//! also bumps `shed` and `queue_depth` at admission), so the atomics in
//! [`ceal_runtime::telemetry`] rarely bounce between cores; the service
//! handle reads them at scrape time, merging all shards' snapshots into
//! one exposition ([`crate::Service::metrics_snapshot`]).
//!
//! The registry is the service's **only counter store**: the `stats`
//! verb, [`crate::Service::stats`], [`crate::Shard::counters`], the
//! per-shard [`ShardStat`] rows and the lockstep gate all read the same
//! atomics ([`ShardTelemetry::counters`], [`ShardTelemetry::stat`]).
//! Two kinds of series live here:
//!
//! * **Counters and gauges** — request totals by kind, the lifecycle
//!   and edit counts behind [`ServiceCounters`], engine-work sums,
//!   errors, queue depth and resident sessions. They always count,
//!   whatever [`TelemetryConfig::enabled`] says; in the lockstep bench
//!   they are pure functions of the schedule and are gated against
//!   `service_golden.json`.
//! * **Wall-clock series** — queue-wait / handle / restore / reply
//!   histograms, the engine-segment timer and the slow-request path.
//!   Recorded only when telemetry is enabled; reported, never gated.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use ceal_runtime::telemetry::{
    Counter, Gauge, Histogram, MetricsSnapshot, Registry, SlowRequestRecord,
};

use crate::wire::{CounterDelta, Request, ServiceCounters, ShardStat};

/// How many slow-request records each shard retains for inspection
/// (`metrics.json` exposes them; the log line is the durable artifact).
pub const SLOW_RING_CAP: usize = 8;

/// Telemetry configuration, carried in [`crate::ShardConfig`] and
/// [`crate::ServiceConfig`].
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Clock switch. Off means the request path reads no clock: no
    /// histogram samples, no slow-request path, no engine tracing (the
    /// baseline the overhead gate compares against). Counters and
    /// gauges count either way — they are the service's only record of
    /// what it did.
    pub enabled: bool,
    /// Requests whose queue-wait + handle time reaches this many
    /// microseconds emit a [`SlowRequestRecord`]. `0` marks every
    /// request slow (deterministic — the lockstep gate uses it);
    /// `u64::MAX` disables slow tracking.
    pub slow_threshold_us: u64,
    /// Whether slow-request records are written to stderr as structured
    /// one-liners (they always enter the in-memory ring).
    pub slow_log: bool,
    /// Top-k sites reported in slow records. `> 0` enables per-request
    /// engine profiling and the [`ceal_runtime::SiteTally`] hook on
    /// every session; `0` skips both (phases and sites come back
    /// empty).
    pub top_sites: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            slow_threshold_us: 250_000,
            slow_log: true,
            top_sites: 3,
        }
    }
}

impl TelemetryConfig {
    /// Every clock-driven series off — the overhead-gate baseline.
    pub fn disabled() -> TelemetryConfig {
        TelemetryConfig {
            enabled: false,
            slow_threshold_us: u64::MAX,
            slow_log: false,
            top_sites: 0,
        }
    }
}

/// Request kinds the telemetry layer distinguishes. `stats` and
/// `metrics` are service-level aggregation reads, answered without
/// touching a session; they are deliberately *not* counted here so the
/// scrape consistency check (`requests_total` vs client round trip)
/// stays exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqKind {
    /// `open` — from-scratch session build.
    Open,
    /// `edit` — batched structural edits.
    Edit,
    /// `observe` — output read (demand-clean under demand policy).
    Observe,
    /// `close` — session teardown.
    Close,
    /// `ping` — liveness probe.
    Ping,
}

/// All kinds, in label order.
pub const REQ_KINDS: [ReqKind; 5] = [
    ReqKind::Open,
    ReqKind::Edit,
    ReqKind::Observe,
    ReqKind::Close,
    ReqKind::Ping,
];

impl ReqKind {
    /// Label value / wire verb.
    pub fn name(self) -> &'static str {
        match self {
            ReqKind::Open => "open",
            ReqKind::Edit => "edit",
            ReqKind::Observe => "observe",
            ReqKind::Close => "close",
            ReqKind::Ping => "ping",
        }
    }

    /// The kind of a request, `None` for the service-level aggregation
    /// verbs (`stats`, `metrics`).
    pub fn of(req: &Request) -> Option<ReqKind> {
        match req {
            Request::Open { .. } => Some(ReqKind::Open),
            Request::Edit { .. } => Some(ReqKind::Edit),
            Request::Observe { .. } => Some(ReqKind::Observe),
            Request::Close { .. } => Some(ReqKind::Close),
            Request::Ping => Some(ReqKind::Ping),
            Request::Stats | Request::Metrics => None,
        }
    }

    fn index(self) -> usize {
        match self {
            ReqKind::Open => 0,
            ReqKind::Edit => 1,
            ReqKind::Observe => 2,
            ReqKind::Close => 3,
            ReqKind::Ping => 4,
        }
    }
}

/// The engine-work sums each shard keeps (name, help), in the order of
/// [`CounterDelta`]'s fields and of the `engine_*` [`ServiceCounters`].
const ENGINE_COUNTERS: [(&str, &str); 5] = [
    (
        "ceal_engine_reexec_total",
        "Reads re-executed by propagation",
    ),
    ("ceal_engine_props_total", "Propagation passes run"),
    (
        "ceal_engine_memo_hits_total",
        "Memo hits during re-execution",
    ),
    (
        "ceal_engine_dirty_marks_total",
        "Dirty marks recorded (demand policy)",
    ),
    ("ceal_engine_demand_cleans_total", "Demand-clean passes run"),
];

/// Per-request metadata stamped at admission and carried to the shard:
/// the monotonic request id and the measured queue wait.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReqMeta {
    /// Monotonic id assigned by the service frontend (0 when the shard
    /// is driven directly, e.g. lockstep or unit tests).
    pub id: u64,
    /// Microseconds spent in the shard's admission queue (0 when driven
    /// directly).
    pub queue_us: u64,
}

/// One shard's metric handles. Registration happens once at
/// construction; everything on the request path is an `Arc`'d atomic.
pub struct ShardTelemetry {
    cfg: TelemetryConfig,
    index: usize,
    registry: Registry,

    requests: [Arc<Counter>; 5],
    /// Typed-error replies (any [`crate::wire::ErrKind`]).
    pub errors: Arc<Counter>,
    /// Admission rejections for this shard (written by the frontend —
    /// shed requests never reach the worker).
    pub shed: Arc<Counter>,
    /// Requests at or over the slow threshold.
    pub slow_requests: Arc<Counter>,
    /// Sessions opened.
    pub opened: Arc<Counter>,
    /// Sessions closed.
    pub closed: Arc<Counter>,
    /// Edit batches applied.
    pub edit_batches: Arc<Counter>,
    /// Edit ops that changed state.
    pub edit_ops: Arc<Counter>,
    /// Edit ops elided (already in the requested state).
    pub elided_ops: Arc<Counter>,
    /// Observations served.
    pub observes: Arc<Counter>,
    /// Sessions evicted to snapshot bytes.
    pub evicted: Arc<Counter>,
    /// Sessions restored from snapshot bytes.
    pub restored: Arc<Counter>,
    /// Snapshot bytes written by evictions.
    pub snapshot_bytes: Arc<Counter>,
    /// History ops replayed by restores.
    pub replayed_ops: Arc<Counter>,
    /// Engine-work sums, in [`ENGINE_COUNTERS`] order.
    engine: [Arc<Counter>; 5],

    /// Requests currently queued for this shard.
    pub queue_depth: Arc<Gauge>,
    /// Live (un-evicted) sessions.
    pub live_sessions: Arc<Gauge>,
    /// Sessions parked as snapshot bytes.
    pub evicted_sessions: Arc<Gauge>,
    /// Estimated resident session bytes.
    pub live_bytes: Arc<Gauge>,

    request_us: [Arc<Histogram>; 5],
    /// Queue-wait segment (µs).
    pub queue_wait_us: Arc<Histogram>,
    /// Shard-handler segment (µs).
    pub handle_us: Arc<Histogram>,
    /// Snapshot-restore segment (µs), recorded only when a restore ran.
    pub restore_us: Arc<Histogram>,
    /// Engine segment — the session op itself (µs).
    pub engine_us: Arc<Histogram>,
    /// Reply-delivery segment (µs), recorded by the worker.
    pub reply_us: Arc<Histogram>,

    slow_ring: Mutex<VecDeque<SlowRequestRecord>>,
}

impl std::fmt::Debug for ShardTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardTelemetry(shard {}, {:?})", self.index, self.cfg)
    }
}

impl ShardTelemetry {
    /// Builds the metric family for shard `index`.
    pub fn new(index: usize, cfg: TelemetryConfig) -> ShardTelemetry {
        let r = Registry::new();
        let shard = ("shard", index.to_string());
        let base = [shard.clone()];
        let kind_labels = |k: ReqKind| [shard.clone(), ("kind", k.name().to_string())];
        let requests = REQ_KINDS.map(|k| {
            r.counter(
                "ceal_requests_total",
                "Requests handled, by kind (service-level stats/metrics excluded)",
                &kind_labels(k),
            )
        });
        let request_us = REQ_KINDS.map(|k| {
            r.histogram(
                "ceal_request_us",
                "End-to-end request latency (queue wait + handler), microseconds",
                &kind_labels(k),
            )
        });
        let counter = |name: &str, help: &str| r.counter(name, help, &base);
        let gauge = |name: &str, help: &str| r.gauge(name, help, &base);
        let histogram = |name: &str, help: &str| r.histogram(name, help, &base);
        ShardTelemetry {
            requests,
            request_us,
            errors: counter("ceal_errors_total", "Typed error replies"),
            shed: counter(
                "ceal_shed_total",
                "Requests refused at admission (queue full)",
            ),
            slow_requests: counter(
                "ceal_slow_requests_total",
                "Requests at or over the slow threshold",
            ),
            opened: counter("ceal_sessions_opened_total", "Sessions opened"),
            closed: counter("ceal_sessions_closed_total", "Sessions closed"),
            edit_batches: counter("ceal_edit_batches_total", "Edit batches applied"),
            edit_ops: counter("ceal_edit_ops_total", "Edit ops that changed state"),
            elided_ops: counter(
                "ceal_elided_ops_total",
                "Edit ops already in the requested state",
            ),
            observes: counter("ceal_observes_total", "Observations served"),
            evicted: counter(
                "ceal_sessions_evicted_total",
                "Sessions evicted to snapshot bytes",
            ),
            restored: counter(
                "ceal_sessions_restored_total",
                "Sessions restored from snapshot bytes",
            ),
            snapshot_bytes: counter(
                "ceal_snapshot_bytes_total",
                "Snapshot bytes written by evictions",
            ),
            replayed_ops: counter(
                "ceal_replayed_ops_total",
                "History ops replayed by restores",
            ),
            engine: ENGINE_COUNTERS.map(|(name, help)| counter(name, help)),
            queue_depth: gauge("ceal_queue_depth", "Requests queued for this shard"),
            live_sessions: gauge("ceal_live_sessions", "Live (un-evicted) sessions"),
            evicted_sessions: gauge("ceal_evicted_sessions", "Sessions parked as snapshot bytes"),
            live_bytes: gauge("ceal_live_bytes", "Estimated resident session bytes"),
            queue_wait_us: histogram("ceal_queue_wait_us", "Admission-queue wait, microseconds"),
            handle_us: histogram("ceal_handle_us", "Shard handler time, microseconds"),
            restore_us: histogram("ceal_restore_us", "Snapshot-restore time, microseconds"),
            engine_us: histogram(
                "ceal_engine_us",
                "Engine segment (session op) time, microseconds",
            ),
            reply_us: histogram("ceal_reply_us", "Reply-delivery time, microseconds"),
            slow_ring: Mutex::new(VecDeque::with_capacity(SLOW_RING_CAP)),
            cfg,
            index,
            registry: r,
        }
    }

    /// The configuration this telemetry was built with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// Shard index (also the `shard` label on every series).
    pub fn shard_index(&self) -> usize {
        self.index
    }

    /// `true` when the request path should read clocks (histograms, the
    /// slow path, engine tracing). Counters count regardless. One
    /// branch.
    #[inline]
    pub fn on(&self) -> bool {
        self.cfg.enabled
    }

    /// Request counter for `kind`.
    pub fn requests(&self, kind: ReqKind) -> &Counter {
        &self.requests[kind.index()]
    }

    /// End-to-end latency histogram for `kind`.
    pub fn request_hist(&self, kind: ReqKind) -> &Histogram {
        &self.request_us[kind.index()]
    }

    /// Adds one request's engine work to the engine-work sums.
    pub fn add_engine(&self, d: &CounterDelta) {
        let values = [
            d.reads_reexecuted,
            d.propagations,
            d.memo_hits,
            d.dirty_marks,
            d.demand_cleans,
        ];
        for (c, v) in self.engine.iter().zip(values) {
            c.add(v);
        }
    }

    /// This shard's service counters, read from the registry. `admitted`
    /// is the sum of the per-kind request counters: every routed request
    /// a shard handles was admitted, and nothing else is.
    pub fn counters(&self) -> ServiceCounters {
        let engine = |i: usize| self.engine[i].get();
        ServiceCounters {
            admitted: self.requests.iter().map(|c| c.get()).sum(),
            shed: self.shed.get(),
            opened: self.opened.get(),
            closed: self.closed.get(),
            edit_batches: self.edit_batches.get(),
            edit_ops: self.edit_ops.get(),
            elided_ops: self.elided_ops.get(),
            observes: self.observes.get(),
            evicted: self.evicted.get(),
            restored: self.restored.get(),
            snapshot_bytes: self.snapshot_bytes.get(),
            replayed_ops: self.replayed_ops.get(),
            engine_reexec: engine(0),
            engine_props: engine(1),
            engine_memo_hits: engine(2),
            engine_dirty_marks: engine(3),
            engine_demand_cleans: engine(4),
        }
    }

    /// This shard's live gauges as a `stats` row.
    pub fn stat(&self) -> ShardStat {
        ShardStat {
            shard: self.index as u32,
            queue_depth: self.queue_depth.get(),
            live_sessions: self.live_sessions.get(),
            evicted_sessions: self.evicted_sessions.get(),
            live_bytes: self.live_bytes.get(),
        }
    }

    /// Records a slow request: counter, ring, and (if configured) the
    /// structured stderr line.
    pub fn note_slow(&self, rec: SlowRequestRecord) {
        self.slow_requests.inc();
        if self.cfg.slow_log {
            eprintln!("{}", rec.render_line());
        }
        let mut ring = self.slow_ring.lock().expect("slow ring poisoned");
        if ring.len() == SLOW_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(rec);
    }

    /// The retained slow-request records, oldest first.
    pub fn slow_records(&self) -> Vec<SlowRequestRecord> {
        self.slow_ring
            .lock()
            .expect("slow ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// A point-in-time snapshot of this shard's registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// Merges per-shard snapshots into one exposition-ready snapshot
/// (counters add, gauges add, histograms merge bucket-wise).
pub fn merge_shards(tels: &[Arc<ShardTelemetry>]) -> MetricsSnapshot {
    let mut out = MetricsSnapshot::default();
    for t in tels {
        out.merge(&t.snapshot());
    }
    out
}

/// Service counters summed over every shard registry.
pub(crate) fn sum_counters(tels: &[Arc<ShardTelemetry>]) -> ServiceCounters {
    let mut out = ServiceCounters::default();
    for t in tels {
        out.add(t.counters());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_mapping_is_total_over_routed_requests() {
        assert_eq!(ReqKind::of(&Request::Ping), Some(ReqKind::Ping));
        assert_eq!(ReqKind::of(&Request::Stats), None);
        assert_eq!(ReqKind::of(&Request::Metrics), None);
        for k in REQ_KINDS {
            assert_eq!(REQ_KINDS[k.index()], k);
        }
    }

    #[test]
    fn shard_label_appears_on_every_series() {
        let t = ShardTelemetry::new(3, TelemetryConfig::default());
        t.requests(ReqKind::Edit).inc();
        t.queue_depth.set(5);
        let snap = t.snapshot();
        assert!(!snap.series.is_empty());
        for s in &snap.series {
            assert!(
                s.labels.iter().any(|(k, v)| k == "shard" && v == "3"),
                "series {} missing shard label",
                s.name
            );
        }
        assert_eq!(
            snap.counter_with_label("ceal_requests_total", "kind", "edit"),
            1
        );
    }

    #[test]
    fn slow_ring_is_bounded() {
        let t = ShardTelemetry::new(
            0,
            TelemetryConfig {
                slow_log: false,
                ..Default::default()
            },
        );
        for i in 0..(SLOW_RING_CAP as u64 + 5) {
            t.note_slow(SlowRequestRecord {
                id: i,
                kind: "edit",
                ..Default::default()
            });
        }
        let recs = t.slow_records();
        assert_eq!(recs.len(), SLOW_RING_CAP);
        assert_eq!(recs[0].id, 5, "oldest records evicted first");
        assert_eq!(t.slow_requests.get(), SLOW_RING_CAP as u64 + 5);
    }

    #[test]
    fn counters_and_stat_read_the_registry() {
        let t = ShardTelemetry::new(2, TelemetryConfig::disabled());
        t.requests(ReqKind::Open).inc();
        t.requests(ReqKind::Edit).add(2);
        t.shed.inc();
        t.evicted.add(3);
        t.add_engine(&CounterDelta {
            reads_reexecuted: 5,
            demand_cleans: 1,
            ..Default::default()
        });
        t.live_sessions.set(4);
        let c = t.counters();
        assert_eq!(c.admitted, 3, "admitted is the sum over request kinds");
        assert_eq!((c.shed, c.evicted), (1, 3));
        assert_eq!((c.engine_reexec, c.engine_demand_cleans), (5, 1));
        let snap = t.snapshot();
        assert_eq!(snap.counter_total("ceal_engine_reexec_total"), 5);
        assert_eq!(snap.counter_total("ceal_sessions_evicted_total"), 3);
        let stat = t.stat();
        assert_eq!((stat.shard, stat.live_sessions), (2, 4));
    }

    #[test]
    fn merge_shards_adds_across_registries() {
        let a = Arc::new(ShardTelemetry::new(0, TelemetryConfig::default()));
        let b = Arc::new(ShardTelemetry::new(1, TelemetryConfig::default()));
        a.requests(ReqKind::Open).inc();
        b.requests(ReqKind::Open).add(2);
        let snap = merge_shards(&[a, b]);
        assert_eq!(snap.counter_total("ceal_requests_total"), 3);
        // Distinct shard labels stay distinct series.
        assert_eq!(
            snap.counter_with_label("ceal_requests_total", "shard", "1"),
            2
        );
    }
}
