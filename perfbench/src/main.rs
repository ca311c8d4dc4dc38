//! The repository benchmark: one command per workload, printing every
//! end-to-end metric (or, traced, every per-layer metric) as the last
//! line of standard output. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload paper|compiled|service --seed N --seconds S --trace 0|1
//! ```
//!
//! The metrics printed, with their units, are those `BENCHMARK.json`
//! (read from the working directory, the repository root) lists. Exit
//! status is nonzero when any output check fails.

mod engine;
mod service;
mod util;

use std::time::Instant;

use util::{Report, Tracer};

/// Latency limit on the p99 of the open-loop rungs (the service's
/// `SLO_MS`).
pub const SLO_MS: f64 = 5.0;
/// A rung is invalid when the generator's p99 send lateness exceeds
/// this many milliseconds. Latency counts from the scheduled send, so
/// such a rung misses the limit anyway; the flag says why.
pub const LATENESS_BOUND_MS: f64 = SLO_MS;
/// Tolerance of the engine's parts-add-up check, as a share of the
/// whole.
const ENGINE_PARTS_TOLERANCE: f64 = 0.10;
/// Tolerance of the service's parts-add-up check, in ms.
const SERVICE_PARTS_TOLERANCE_MS: f64 = 0.05;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad)?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad)?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|_| bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper|compiled|service --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let list = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let wanted = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))
        .and_then(|json| util::metric_list(&json, list))
    {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let epoch = Instant::now();
    let mut tr = Tracer::new(args.trace, epoch);
    let mut rep = Report::default();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    match args.workload.as_str() {
        "paper" => engine::run(engine::Path::Paper, &args, &mut rep, &mut tr),
        "compiled" => engine::run(engine::Path::Compiled, &args, &mut rep, &mut tr),
        "service" => service::run(&args, &mut rep, &mut tr),
        other => {
            eprintln!("perfbench: unknown workload {other} (paper, compiled, service)");
            std::process::exit(2);
        }
    }
    if args.trace {
        finish_trace(&args, &mut rep, &tr);
    }
    println!(
        "operations: attempted={} failed={}",
        rep.attempted, rep.failed
    );
    for f in rep.failures.iter().take(20) {
        println!("FAILED: {f}");
    }
    match rep.result_line(&wanted) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
    if rep.failed > 0 {
        std::process::exit(1);
    }
}

/// Traced run: derive the span-based layer metrics, run the
/// parts-add-up check and write the spans out. The check is reported,
/// not counted as a failed operation: it tests the breakdown, not the
/// program's output.
fn finish_trace(args: &Args, rep: &mut Report, tr: &Tracer) {
    let (parts, whole, tolerance, unit, what) = if args.workload == "service" {
        let (p, w) = service::parts(rep);
        (
            p,
            w,
            SERVICE_PARTS_TOLERANCE_MS,
            "ms",
            "server request p50 + transport p50 vs edit/observe latency p50, base rate",
        )
    } else {
        let stage = tr.durations_us("stage");
        let commit = tr.durations_us("commit");
        rep.set("engine.stage_us.p50", util::pct(&stage, 0.5), "us");
        rep.set("engine.commit_us.p50", util::pct(&commit, 0.5), "us");
        rep.set("engine.commit_us.p99", util::pct(&commit, 0.99), "us");
        let (p, w) = engine::parts(rep);
        (
            p,
            w,
            ENGINE_PARTS_TOLERANCE * w,
            "us",
            "stage p50 + commit p50 (traced edits) vs update p50 (untraced edits)",
        )
    };
    rep.set(
        "trace.parts_err_frac",
        util::ratio((parts - whole).abs(), whole),
        "ratio",
    );
    println!(
        "parts add up: {what}: parts={parts:.4}{unit} whole={whole:.4}{unit} off by {:.4}{unit}, tolerance {tolerance:.4}{unit} -> {}",
        (parts - whole).abs(),
        if (parts - whole).abs() <= tolerance {
            "ok"
        } else {
            "FAILED"
        }
    );
    println!(
        "tracing overhead: {:.2}% (traced over untraced p50)",
        rep.get("trace.overhead_frac") * 100.0
    );
    let path = std::path::Path::new("perfbench/out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    match tr.write(&path) {
        Ok(()) => println!("spans: {} written to {}", tr.spans.len(), path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}
