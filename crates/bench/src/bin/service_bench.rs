//! `service-bench` — the service load generator and its counter gate.
//!
//! ```text
//! service-bench [--quick] [--gate] [--overhead-gate] [--out BENCH_service.json]
//! ```
//!
//! Always runs the fixed deterministic lockstep pass (the gated
//! counters are independent of `--quick`), then one or more timed rungs
//! against the threaded service:
//!
//! * `--quick`  — one small timed rung (CI smoke; seconds).
//! * default    — a load ladder (1×, 2×, 4× sessions) to place
//!   `sessions_per_core_at_slo`.
//! * `--gate`   — additionally diff the lockstep counter rows against
//!   `crates/bench/baselines/service_golden.json`; bless deliberate
//!   changes with `UPDATE_GOLDEN=1`.
//! * `--overhead-gate` — price the telemetry instrumentation: run the
//!   lockstep schedule with telemetry off and on (production config)
//!   and fail if the instrumented hot path costs more than 5% (plus a
//!   small absolute floor for timer noise on tiny runs).
//! * `--out`    — write `BENCH_service.json`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use ceal_bench::profile::{diff_counters, parse_golden, render_golden_schema};
use ceal_bench::Opts;
use ceal_service::bench::{
    overhead_probe, render_json, run_lockstep, run_timed, LoadSpec, TimedResult, GATE_SPEC, SLO_MS,
};

/// The checked-in service golden, next to the crate sources.
fn golden_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/baselines/service_golden.json"
    ))
}

fn main() -> ExitCode {
    let (sub, opts) = Opts::from_env();
    // No subcommands: tolerate the binary name's args starting at the
    // first `--flag` (Opts treats the first arg as a subcommand slot).
    let quick = opts.has("quick") || sub.as_deref() == Some("--quick");
    let gate = opts.has("gate") || sub.as_deref() == Some("--gate");
    let overhead_gate = opts.has("overhead-gate") || sub.as_deref() == Some("--overhead-gate");

    eprintln!(
        "service-bench: lockstep gate pass ({} sessions, {} shards)",
        GATE_SPEC.sessions, GATE_SPEC.shards
    );
    let lockstep = run_lockstep(&GATE_SPEC);
    let c = lockstep.counters();
    eprintln!(
        "  admitted={} shed={} opened={} evicted={} restored={} replayed_ops={}",
        c.admitted, c.shed, c.opened, c.evicted, c.restored, c.replayed_ops
    );

    if overhead_gate {
        // Best-of-3 each way; the absolute floor keeps sub-second runs
        // from failing on scheduler jitter alone.
        let (off_s, on_s) = overhead_probe(&GATE_SPEC, 3);
        let budget = off_s * 1.05 + 0.030;
        eprintln!(
            "service-bench: telemetry overhead — off={:.3}s on={:.3}s budget={:.3}s ({:+.1}%)",
            off_s,
            on_s,
            budget,
            (on_s / off_s - 1.0) * 100.0
        );
        if on_s > budget {
            eprintln!("service-bench: telemetry hot-path overhead exceeds 5% gate");
            return ExitCode::FAILURE;
        }
        eprintln!("service-bench: overhead gate OK");
    }

    if gate {
        let flat = lockstep.rows();
        let path = golden_path();
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            let rendered = render_golden_schema("ceal-service-golden/v1", &flat);
            if let Err(e) = std::fs::write(&path, rendered) {
                eprintln!("service-bench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("service-bench: blessed {}", path.display());
        } else {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!(
                        "service-bench: cannot read golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
                        path.display()
                    );
                    return ExitCode::FAILURE;
                }
            };
            let golden = match parse_golden(&text) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("service-bench: bad golden: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(table) = diff_counters(&flat, &golden) {
                eprintln!("service-bench: deterministic counters drifted from golden:\n{table}");
                eprintln!("If the change is deliberate, bless with UPDATE_GOLDEN=1.");
                return ExitCode::FAILURE;
            }
            eprintln!("service-bench: counter gate OK ({} counters)", flat.len());
        }
    }

    // Timed rungs. Tick pacing and the client pool are wall-clock
    // domain: reported, never gated.
    let tick = Duration::from_micros(opts.get_usize("tick-us", 20_000) as u64);
    let clients = opts.get_usize("clients", 8);
    let mut rungs: Vec<TimedResult> = Vec::new();
    let scales: &[usize] = if quick { &[1] } else { &[1, 2, 4] };
    for &scale in scales {
        let spec = LoadSpec {
            sessions: GATE_SPEC.sessions * scale,
            // Generous budget and queue, and no storm burst: the rungs
            // measure steady-state scheduling latency, not eviction
            // thrash or shed behaviour (the gate pass covers those);
            // either would distort the percentiles.
            mem_budget_bytes: 512 << 20,
            queue_cap: 1024,
            storm_round: usize::MAX,
            ..GATE_SPEC
        };
        eprintln!("service-bench: timed rung — {} sessions", spec.sessions);
        let r = run_timed(&spec, tick, clients);
        eprintln!(
            "  measured={} shed={} hist p50={:.0}us p99={:.0}us p999={:.0}us (sched p99={:.0}us, crosscheck={}) {:.0} req/s",
            r.measured, r.shed, r.p50_us, r.p99_us, r.p999_us, r.sched_p99_us, r.crosscheck_ok,
            r.throughput_rps
        );
        if !r.crosscheck_ok {
            eprintln!("service-bench: histogram percentiles disagree with external stopwatch");
            return ExitCode::FAILURE;
        }
        rungs.push(r);
        if r.sched_p99_us > SLO_MS * 1e3 {
            break; // the ladder found the knee; higher rungs add nothing
        }
    }
    let best = rungs
        .iter()
        .rev()
        .find(|r| r.sched_p99_us <= SLO_MS * 1e3)
        .map_or(0.0, |r| r.sessions as f64 / r.shards as f64);
    eprintln!("service-bench: sessions/core at p99<={SLO_MS}ms SLO: {best:.1}");

    let json = render_json(&lockstep, &rungs, quick, best);
    if let Some(out) = opts.get("out") {
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("service-bench: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("service-bench: wrote {out}");
    } else {
        println!("{json}");
    }
    ExitCode::SUCCESS
}
