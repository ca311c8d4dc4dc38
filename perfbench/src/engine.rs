//! The `paper` and `compiled` workloads: suite programs run in process on
//! one thread, from scratch and then under single-element edits.
//!
//! A run repeats *rounds*. Each round sets every program up afresh
//! (program construction, compilation on the compiled path, engine and
//! input), runs it from scratch once, and applies `UPDATES` edits: a
//! delete (or leaf swap) and its undo at shuffled positions, each staged
//! on its own `EditBatch` and committed. Outputs are checked against the
//! suite's conventional oracles after the from-scratch run, at every
//! `CHECK_EVERY`-th edit and at the end of the round. Rounds repeat until
//! the run's time is used; set-up is reported as the median over rounds,
//! from scratch as the mean over rounds.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ceal_runtime::prelude::*;
use ceal_runtime::prng::Prng;
use ceal_runtime::OpCounters;
use ceal_suite::conv;
use ceal_suite::input::{self, InputList};
use ceal_suite::sac::exptrees::{self, ExpTree};
use ceal_suite::sac::tcon::{self, InputTree};
use ceal_suite::sac::{listops, reduce, sort};
use ceal_vm::{LoadedProgram, VmOptions};

use crate::util::{block_p99, geomean, mean, median, pct, ratio, Report, Tracer};
use crate::Args;

/// Edits per program per round (≥ 1000, so each program's p99 has at
/// least ten samples beyond it in every round).
const UPDATES: usize = 1000;
/// Every this many edits, the output is checked against the oracle.
const CHECK_EVERY: usize = 97;
/// `max_live_mb` is the mean over this many first rounds, and a run
/// has at least this many. Their inputs come from the seed alone, so the
/// figure is exact for a seed, and the mean over several inputs keeps
/// it close across seeds.
const MAX_LIVE_ROUNDS: usize = 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Prog {
    Map,
    Sum,
    Quicksort,
    Exptrees,
    Tcon,
}

impl Prog {
    pub fn name(self) -> &'static str {
        match self {
            Prog::Map => "map",
            Prog::Sum => "sum",
            Prog::Quicksort => "quicksort",
            Prog::Exptrees => "exptrees",
            Prog::Tcon => "tcon",
        }
    }

    /// Input size: list length, leaf count or tree nodes.
    fn size(self) -> usize {
        match self {
            Prog::Map => 20_000,
            Prog::Sum => 20_000,
            Prog::Quicksort => 2_000,
            Prog::Exptrees => 16_384,
            Prog::Tcon => 4_000,
        }
    }

    /// CEAL source and entry point of the compiled twin, if any.
    fn source(self) -> Option<(&'static str, &'static str)> {
        use ceal_lang::benchmarks::{LIST, QUICKSORT, TCON};
        match self {
            Prog::Map => Some((LIST, "map")),
            Prog::Quicksort => Some((QUICKSORT, "quicksort")),
            Prog::Tcon => Some((TCON, "tcon")),
            Prog::Sum | Prog::Exptrees => None,
        }
    }

    /// The hand-specialized suite program.
    fn hand_program(self) -> (Arc<Program>, FuncId) {
        match self {
            Prog::Map => listops::map_program(),
            Prog::Sum => reduce::sum_program(),
            Prog::Quicksort => sort::quicksort_program(),
            Prog::Exptrees => exptrees::exptrees_program(),
            Prog::Tcon => tcon::tcon_program(),
        }
    }
}

/// Where a program's code comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// Hand-specialized `ceal-suite` program.
    Paper,
    /// CEAL source compiled by `cealc`'s pipeline and run on `ceal-vm`.
    Compiled,
}

enum Input {
    List(InputList, Vec<i64>),
    Exp(ExpTree),
    Tree(InputTree),
}

/// One program instance: engine, input, output and its edit stream.
struct Inst {
    prog: Prog,
    path: Path,
    engine: Engine,
    entry: FuncId,
    vm: Option<LoadedProgram>,
    input: Input,
    out: ModRef,
    /// Shuffled edit positions; edit `k` touches `positions[k / 2]`,
    /// deleting on even `k` and undoing on odd `k`.
    positions: Vec<usize>,
    /// Edits applied so far.
    edits: usize,
}

impl Inst {
    fn root_args(&self) -> [Value; 2] {
        let root = match &self.input {
            Input::List(l, _) => l.head,
            Input::Exp(t) => t.root,
            Input::Tree(t) => t.root,
        };
        [Value::ModRef(root), Value::ModRef(self.out)]
    }

    /// Applies the next edit: stages it on a fresh batch and commits.
    /// Returns the stage start, commit start and commit end instants.
    fn update(&mut self) -> (Instant, Instant, Instant) {
        let s0 = Instant::now();
        let mut b = self.engine.batch();
        stage(&self.input, &self.positions, self.edits, &mut b);
        let s1 = Instant::now();
        b.commit();
        let s2 = Instant::now();
        self.edits += 1;
        (s0, s1, s2)
    }

    /// The list elements currently linked in (list programs).
    fn live(&self, data: &[i64]) -> Vec<i64> {
        let mut live = data.to_vec();
        if self.edits % 2 == 1 {
            live.remove(self.positions[(self.edits / 2) % self.positions.len()]);
        }
        live
    }

    /// Checks the output against the suite's conventional oracle for
    /// the current input. `Err` describes the mismatch.
    fn check(&self) -> Result<(), String> {
        let e = &self.engine;
        let ok = match (&self.input, self.prog) {
            (Input::List(_, data), Prog::Map) => {
                let expect = conv::map_list(
                    &conv::List::from_slice(&self.live(data)),
                    listops::paper_map_fn,
                )
                .to_vec();
                let got: Vec<i64> = input::collect_list(e, self.out)
                    .into_iter()
                    .map(|v| v.int())
                    .collect();
                got == expect
            }
            (Input::List(_, data), Prog::Sum) => {
                let expect = conv::sum_list(&conv::List::from_slice(&self.live(data)))
                    .map_or(Value::Nil, Value::Int);
                e.deref(self.out) == expect
            }
            (Input::List(_, data), Prog::Quicksort) => {
                let expect =
                    conv::quicksort_list(&conv::List::from_slice(&self.live(data)), |a, b| a <= b)
                        .to_vec();
                let got: Vec<i64> = input::collect_list(e, self.out)
                    .into_iter()
                    .map(|v| v.int())
                    .collect();
                got == expect
            }
            (Input::Exp(t), _) => {
                let expect = exptrees::eval_conventional(e, e.deref(t.root));
                let got = e.deref(self.out).float();
                (got - expect).abs() <= 1e-6 * (1.0 + expect.abs())
            }
            (Input::Tree(t), _) => e.deref(self.out).int() == tcon::count_reachable(e, t.root),
            _ => unreachable!("list input for a tree program"),
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{}/{:?}: output differs from the conventional oracle after {} edits",
                self.prog.name(),
                self.path,
                self.edits
            ))
        }
    }

    /// Conventional from-scratch seconds (Table 1's "conv" column).
    fn conv_seconds(&self) -> f64 {
        let e = &self.engine;
        match &self.input {
            Input::List(_, data) => {
                let l = conv::List::from_slice(data);
                match self.prog {
                    Prog::Map => ceal_suite::harness::time_avg(|| {
                        std::hint::black_box(conv::map_list(&l, listops::paper_map_fn));
                    }),
                    Prog::Sum => ceal_suite::harness::time_avg(|| {
                        std::hint::black_box(conv::sum_list(&l));
                    }),
                    _ => ceal_suite::harness::time_avg(|| {
                        std::hint::black_box(conv::quicksort_list(&l, |a, b| a <= b));
                    }),
                }
            }
            Input::Exp(t) => {
                let mirror = exp_mirror(e, e.deref(t.root));
                ceal_suite::harness::time_avg(|| {
                    std::hint::black_box(conv::eval_exp(&mirror));
                })
            }
            Input::Tree(t) => {
                let mirror = tree_mirror(e, t.root);
                ceal_suite::harness::time_avg(|| {
                    std::hint::black_box(conv::contract_tree(&mirror));
                })
            }
        }
    }
}

/// Stages edit number `k` of an instance's edit stream on `b`.
fn stage(input: &Input, positions: &[usize], k: usize, b: &mut EditBatch<'_>) {
    let pos = positions[(k / 2) % positions.len()];
    let undo = k % 2 == 1;
    match input {
        Input::List(l, _) => {
            if undo {
                l.insert(b, pos);
            } else {
                l.delete(b, pos);
            }
        }
        Input::Exp(t) => {
            let (slot, _, leaf, alt) = t.leaves[pos];
            b.modify(slot, if undo { leaf } else { alt });
        }
        Input::Tree(t) => {
            if undo {
                t.insert_edge(b, pos);
            } else {
                t.delete_edge(b, pos);
            }
        }
    }
}

fn exp_mirror(e: &Engine, v: Value) -> conv::ExpMirror {
    use exptrees::{KIND_LEAF, ND_KIND, ND_LEFT, ND_PAYLOAD, ND_RIGHT};
    let t = v.ptr();
    if e.load(t, ND_KIND).int() == KIND_LEAF {
        conv::ExpMirror::Leaf(e.load(t, ND_PAYLOAD).float())
    } else {
        let l = exp_mirror(e, e.deref(e.load(t, ND_LEFT).modref()));
        let r = exp_mirror(e, e.deref(e.load(t, ND_RIGHT).modref()));
        conv::ExpMirror::Node(e.load(t, ND_PAYLOAD).int(), Box::new(l), Box::new(r))
    }
}

fn tree_mirror(e: &Engine, root: ModRef) -> conv::TreeMirror {
    fn go(e: &Engine, v: Value, out: &mut Vec<(u32, u32)>) -> u32 {
        let Value::Ptr(t) = v else { return u32::MAX };
        let me = out.len() as u32;
        out.push((u32::MAX, u32::MAX));
        let l = go(e, e.deref(e.load(t, tcon::TN_LEFT).modref()), out);
        let r = go(e, e.deref(e.load(t, tcon::TN_RIGHT).modref()), out);
        out[me as usize] = (l, r);
        me
    }
    let mut children = Vec::new();
    go(e, e.deref(root), &mut children);
    conv::TreeMirror { children }
}

/// Per-program results accumulated over rounds.
#[derive(Default)]
struct Tally {
    from_scratch_s: Vec<f64>,
    update_us: Vec<f64>,
    /// Closed-loop request time: update plus output read, in ms.
    request_ms: Vec<f64>,
    /// `Stats::max_live_bytes` of each of the first `MAX_LIVE_ROUNDS`
    /// rounds.
    max_live: Vec<f64>,
    interval_bytes: usize,
    scratch: OpCounters,
    updates: OpCounters,
    update_count: u64,
    vm_steps_scratch: u64,
    vm_steps_updates: u64,
    conv_s: f64,
    /// Traced-run split of update latency: (traced pairs, untraced pairs).
    traced_us: Vec<f64>,
    untraced_us: Vec<f64>,
}

struct Setup {
    insts: Vec<Inst>,
    /// Setup time of the programs the end-to-end metrics describe.
    setup_s: f64,
    input_build_s: f64,
    compile_ms: f64,
    c_bytes: usize,
}

/// Builds every program of the workload afresh for one round: program
/// (compiled on the compiled path), engine, input and edit positions,
/// all drawn from `seed`.
fn setup(progs: &[(Prog, Path)], primary: Path, seed: u64, trace: bool, tr: &mut Tracer) -> Setup {
    let mut s = Setup {
        insts: Vec::new(),
        setup_s: 0.0,
        input_build_s: 0.0,
        compile_ms: 0.0,
        c_bytes: 0,
    };
    for &(prog, path) in progs {
        let t0 = Instant::now();
        let (program, entry, vm) = match path {
            Path::Paper => {
                let (p, f) = prog.hand_program();
                (p, f, None)
            }
            Path::Compiled => {
                let (src, name) = prog.source().expect("compiled program has a source");
                let tc = Instant::now();
                let (cl, _) = ceal_lang::frontend(src).expect("benchmark source parses");
                let out = ceal_compiler::pipeline::compile(&cl).expect("benchmark source compiles");
                let tc_end = Instant::now();
                tr.span("compile", tc, tc_end, 0, 0);
                s.compile_ms += (tc_end - tc).as_secs_f64() * 1e3;
                s.c_bytes += out.c_code.len();
                let mut b = ProgramBuilder::new();
                let opts = VmOptions {
                    count_steps: trace,
                    ..VmOptions::default()
                };
                let vm = ceal_vm::load(&out.target, &mut b, opts).expect("target validates");
                let entry = vm.entry(&out.target, name).expect("entry point exists");
                (b.build(), entry, Some(vm))
            }
        };
        let mut engine = Engine::new(program);
        let ti = Instant::now();
        let n = prog.size();
        let input = match prog {
            Prog::Map | Prog::Sum | Prog::Quicksort => {
                let data = input::random_ints(n, seed);
                let vals: Vec<Value> = data.iter().map(|&x| Value::Int(x)).collect();
                Input::List(input::build_list(&mut engine, &vals), data)
            }
            Prog::Exptrees => Input::Exp(exptrees::build_exptree(&mut engine, n, seed)),
            Prog::Tcon => Input::Tree(tcon::build_tree(&mut engine, n, seed)),
        };
        let out = engine.meta_modref();
        let ti_end = Instant::now();
        tr.span("input_build", ti, ti_end, 0, 0);
        let slots = match &input {
            Input::List(l, _) => l.len(),
            Input::Exp(t) => t.leaves.len(),
            Input::Tree(t) => t.edges.len(),
        };
        // Stratified: one position per equal stretch of the input, at a
        // seeded offset, in shuffled order. Every round then edits near
        // the head of the input as well as the tail, which is where
        // the cost of an edit varies most (the top-level pivots of
        // quicksort), so rounds and seeds see the same mix.
        let mut rng = Prng::seed_from_u64(seed ^ 0xED17);
        let k = (UPDATES / 2).min(slots);
        let stride = slots / k;
        let offset = rng.gen_range(0..stride);
        let mut positions: Vec<usize> = (0..k).map(|i| offset + i * stride).collect();
        rng.shuffle(&mut positions);
        if path == primary {
            s.setup_s += (ti_end - t0).as_secs_f64();
            s.input_build_s += (ti_end - ti).as_secs_f64();
        }
        s.insts.push(Inst {
            prog,
            path,
            engine,
            entry,
            vm,
            input,
            out,
            positions,
            edits: 0,
        });
    }
    s
}

/// Runs one program instance through a round: from scratch, `UPDATES`
/// edits with sampled checks, the final check, and (first round only)
/// the engine's invariant check.
fn round(
    inst: &mut Inst,
    first: bool,
    spans: bool,
    tr: &mut Tracer,
    t: &mut Tally,
    rep: &mut Report,
) {
    let steps = |i: &Inst| i.vm.as_ref().map_or(0, |v| v.steps());
    let c0 = OpCounters::from_stats(inst.engine.stats());
    let s0 = steps(inst);
    let args_v = inst.root_args();
    let t0 = Instant::now();
    inst.engine.run_core(inst.entry, &args_v);
    let t1 = Instant::now();
    let scratch_span = tr.span("run_core", t0, t1, 0, 0);
    t.from_scratch_s.push((t1 - t0).as_secs_f64());
    let c1 = OpCounters::from_stats(inst.engine.stats());
    let s1 = steps(inst);
    let check = |inst: &Inst, tr: &mut Tracer, rep: &mut Report, parent: u32| {
        let tc = Instant::now();
        rep.attempted += 1;
        if let Err(msg) = inst.check() {
            rep.fail(msg);
        }
        tr.span("oracle_check", tc, Instant::now(), parent, 0);
    };
    check(inst, tr, rep, scratch_span);
    for k in 0..UPDATES {
        // With `spans`, alternate pairs of edits between traced and
        // untraced, so the run measures its own tracing overhead.
        let traced = (k / 2) % 2 == 0;
        let req = (inst.edits + 1) as u64;
        let a = Instant::now();
        let (s0, s1, s2) = inst.update();
        let b = Instant::now();
        std::hint::black_box(inst.engine.deref(inst.out));
        let c = Instant::now();
        let us = (b - a).as_secs_f64() * 1e6;
        t.update_us.push(us);
        t.request_ms.push((c - a).as_secs_f64() * 1e3);
        if spans {
            if traced {
                let u = tr.span("update", a, b, 0, req);
                tr.span("stage", s0, s1, u, req);
                tr.span("commit", s1, s2, u, req);
                t.traced_us.push(us);
            } else {
                t.untraced_us.push(us);
            }
        }
        rep.attempted += 1;
        if k % CHECK_EVERY == CHECK_EVERY - 1 {
            check(inst, tr, rep, 0);
        }
    }
    check(inst, tr, rep, 0);
    if t.max_live.len() < MAX_LIVE_ROUNDS {
        t.max_live.push(inst.engine.stats().max_live_bytes as f64);
    }
    let c2 = OpCounters::from_stats(inst.engine.stats());
    if first {
        rep.attempted += 1;
        let ok = catch_unwind(AssertUnwindSafe(|| inst.engine.check_invariants()));
        if ok.is_err() {
            rep.fail(format!("{}: engine invariants violated", inst.prog.name()));
        }
        t.scratch = c1.delta(&c0);
        t.updates = c2.delta(&c1);
        t.update_count = UPDATES as u64;

        t.interval_bytes = inst.engine.stats().interval_bytes;
        t.vm_steps_scratch = s1 - s0;
        t.vm_steps_updates = steps(inst) - s1;
    }
}

/// The workload's programs, in the order they are run.
fn programs(path: Path) -> Vec<(Prog, Path)> {
    match path {
        Path::Paper => [
            Prog::Map,
            Prog::Sum,
            Prog::Quicksort,
            Prog::Exptrees,
            Prog::Tcon,
        ]
        .iter()
        .map(|&p| (p, Path::Paper))
        .collect(),
        // Each compiled program runs next to its hand-specialized twin,
        // on the same input and edit positions, so the VM's cost is a
        // ratio measured in one process.
        Path::Compiled => [Prog::Map, Prog::Quicksort, Prog::Tcon]
            .iter()
            .flat_map(|&p| [(p, Path::Compiled), (p, Path::Paper)])
            .collect(),
    }
}

pub fn run(path: Path, args: &Args, rep: &mut Report, tr: &mut Tracer) {
    let progs = programs(path);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut tallies: Vec<Tally> = progs.iter().map(|_| Tally::default()).collect();
    let mut setups = Vec::new();
    let mut input_build = Vec::new();
    let mut compile_ms = Vec::new();
    let mut c_bytes = 0;
    let mut last = Vec::new();
    let mut rounds = 0;
    // Rounds fill the run.
    while rounds < MAX_LIVE_ROUNDS || start.elapsed() < budget {
        drop(std::mem::take(&mut last));
        // Each round draws fresh inputs, so a run's medians cover many
        // inputs rather than one.
        let seed = args
            .seed
            .wrapping_mul(1_000_003)
            .wrapping_add(rounds as u64);
        let s = setup(&progs, path, seed, args.trace, tr);
        setups.push(s.setup_s);
        input_build.push(s.input_build_s);
        compile_ms.push(s.compile_ms);
        c_bytes = s.c_bytes;
        let mut insts = s.insts;
        for (inst, t) in insts.iter_mut().zip(tallies.iter_mut()) {
            // Update spans are recorded for the workload's own programs,
            // not for the compiled path's hand-specialized twins.
            let spans = tr.on && inst.path == path;
            round(inst, rounds == 0, spans, tr, t, rep);
        }
        last = insts;
        rounds += 1;
    }
    for (inst, t) in last.iter().zip(tallies.iter_mut()) {
        t.conv_s = inst.conv_seconds();
    }

    report(path, &progs, &tallies, rounds, rep);
    rep.set("setup_s", median(&setups), "s");
    rep.set("input.build_s", median(&input_build), "s");
    match path {
        Path::Compiled => {
            rep.set("compile.ms", median(&compile_ms), "ms");
            rep.set("compile.c_bytes", c_bytes as f64, "bytes");
            rep.absent(&["engine.sum.", "engine.exptrees."]);
        }
        Path::Paper => rep.absent(&["compile.", "vm."]),
    }
    rep.absent(&SERVICE_LAYERS);
}

/// Per-layer metrics of the service and its client, which the
/// in-process workloads do not exercise.
const SERVICE_LAYERS: [&str; 7] = [
    "queue.",
    "shard.",
    "service.",
    "reply.",
    "session.",
    "frontend.",
    "client.",
];

/// Fills the end-to-end and engine-layer metrics from the tallies and
/// prints the per-program rows.
fn report(path: Path, progs: &[(Prog, Path)], tallies: &[Tally], rounds: usize, rep: &mut Report) {
    let primary: Vec<&Tally> = progs
        .iter()
        .zip(tallies)
        .filter(|((_, p), _)| *p == path)
        .map(|(_, t)| t)
        .collect();
    // From scratch, a program's mean over rounds: there are only as many
    // samples as rounds, and the machine's speed can make them fall into
    // two groups, between which a median jumps.
    let fs: Vec<f64> = primary.iter().map(|t| mean(&t.from_scratch_s)).collect();
    let p50: Vec<f64> = primary.iter().map(|t| pct(&t.update_us, 0.5)).collect();
    let p99: Vec<f64> = primary.iter().map(|t| block_p99(&t.update_us)).collect();
    rep.set("from_scratch_s", geomean(&fs), "s");
    rep.set("update_p50_us", geomean(&p50), "us");
    rep.set("update_p99_us", geomean(&p99), "us");
    rep.set(
        "max_live_mb",
        primary.iter().map(|t| mean(&t.max_live)).sum::<f64>() / 1e6,
        "MB",
    );
    // In process there is no transport and no arrival schedule: a
    // request is one update plus the output read, answered in closed
    // loop, so req and rtt share that distribution, and the sustained
    // rate is requests completed per second of request time.
    let req = |f: &dyn Fn(&[f64]) -> f64| -> f64 {
        geomean(&primary.iter().map(|t| f(&t.request_ms)).collect::<Vec<_>>())
    };
    let req_p50 = req(&|xs| pct(xs, 0.5));
    rep.set("req_p50_ms", req_p50, "ms");
    rep.set("req_p99_ms", req(&block_p99), "ms");
    rep.set("rtt_p50_ms", req_p50, "ms");
    let rps: Vec<f64> = primary
        .iter()
        .map(|t| t.request_ms.len() as f64 / (t.request_ms.iter().sum::<f64>() / 1e3))
        .collect();
    rep.set("max_rps_at_slo", geomean(&rps), "1/s");

    // Engine layer: counter deltas over the first round's updates.
    let mut upd = OpCounters::default();
    let mut scr = OpCounters::default();
    let mut count = 0u64;
    for t in &primary {
        upd.add(&t.updates);
        scr.add(&t.scratch);
        count += t.update_count;
    }
    let per = |x: u64| ratio(x as f64, count as f64);
    rep.set("engine.run_core_s", geomean(&fs), "s");
    rep.set(
        "engine.reexec_per_update",
        per(upd.reads_reexecuted),
        "count",
    );
    rep.set(
        "engine.memo_hit_ratio",
        ratio(
            upd.memo_hits as f64,
            (upd.memo_hits + upd.memo_misses) as f64,
        ),
        "ratio",
    );
    rep.set(
        "engine.alloc_reuse_ratio",
        ratio(
            upd.allocs_stolen as f64,
            (upd.allocs_stolen + upd.allocs_created) as f64,
        ),
        "ratio",
    );
    rep.set("engine.purged_per_update", per(upd.nodes_purged), "count");
    rep.set(
        "engine.collected_per_update",
        per(upd.blocks_collected),
        "count",
    );
    rep.set(
        "engine.queue_ops_per_update",
        per(upd.queue_pushes + upd.queue_pops),
        "count",
    );
    rep.set(
        "engine.om_ops_per_update",
        per(upd.order_group_relabels
            + upd.order_local_renumbers
            + upd.order_group_splits
            + upd.order_group_merges),
        "count",
    );
    rep.set(
        "engine.interval_splits_per_update",
        per(upd.interval_splits),
        "count",
    );
    rep.set(
        "engine.reads_from_scratch",
        scr.reads_created as f64,
        "count",
    );
    rep.set(
        "engine.writes_from_scratch",
        scr.writes_created as f64,
        "count",
    );
    rep.set(
        "engine.allocs_from_scratch",
        scr.allocs_created as f64,
        "count",
    );
    rep.set(
        "engine.trace_intervals_from_scratch",
        scr.trace_intervals as f64,
        "count",
    );
    rep.set(
        "engine.interval_mb",
        primary.iter().map(|t| t.interval_bytes).sum::<usize>() as f64 / 1e6,
        "MB",
    );
    for ((prog, p), t) in progs.iter().zip(tallies) {
        if *p == path {
            let u = &t.updates;
            rep.set(
                &format!("engine.{}.memo_hit_ratio", prog.name()),
                ratio(u.memo_hits as f64, (u.memo_hits + u.memo_misses) as f64),
                "ratio",
            );
            rep.set(
                &format!("engine.{}.reexec_per_update", prog.name()),
                ratio(u.reads_reexecuted as f64, t.update_count as f64),
                "count",
            );
        }
    }
    if path == Path::Compiled {
        let steps_s: u64 = primary.iter().map(|t| t.vm_steps_scratch).sum();
        let steps_u: u64 = primary.iter().map(|t| t.vm_steps_updates).sum();
        rep.set("vm.steps_from_scratch", steps_s as f64, "count");
        rep.set("vm.steps_per_update", per(steps_u), "count");
    }
    let traced: Vec<f64> = primary.iter().map(|t| pct(&t.traced_us, 0.5)).collect();
    let untraced: Vec<f64> = primary.iter().map(|t| pct(&t.untraced_us, 0.5)).collect();
    if !traced.is_empty() && traced.iter().all(|&x| x > 0.0) {
        rep.set(
            "trace.overhead_frac",
            geomean(&traced) / geomean(&untraced) - 1.0,
            "ratio",
        );
        // The whole of the parts-add-up check: update latency measured
        // on the edits that record no spans.
        let pooled: Vec<f64> = primary.iter().flat_map(|t| t.untraced_us.clone()).collect();
        rep.set("parts.untraced_update_us", pct(&pooled, 0.5), "us");
    }

    println!("rounds: {rounds} (each: set up, from scratch once, {UPDATES} edits per program)");
    println!(
        "{:<10} {:<8} {:>10} {:>10} {:>9} {:>12} {:>10} {:>10} {:>10}",
        "program",
        "path",
        "conv_s",
        "self_s",
        "overhead",
        "update_us",
        "speedup",
        "p99_us",
        "max_live_mb"
    );
    let mut ratios_fs = Vec::new();
    let mut ratios_up = Vec::new();
    for (i, ((prog, p), t)) in progs.iter().zip(tallies).enumerate() {
        let self_s = mean(&t.from_scratch_s);
        let mean_us = t.update_us.iter().sum::<f64>() / t.update_us.len().max(1) as f64;
        println!(
            "{:<10} {:<8} {:>10.6} {:>10.6} {:>9.1} {:>12.2} {:>10.1} {:>10.2} {:>10.3}",
            prog.name(),
            format!("{p:?}").to_lowercase(),
            t.conv_s,
            self_s,
            ratio(self_s, t.conv_s),
            mean_us,
            ratio(t.conv_s, mean_us / 1e6),
            pct(&t.update_us, 0.99),
            mean(&t.max_live) / 1e6
        );
        if *p == Path::Compiled {
            let twin = &tallies[i + 1];
            ratios_fs.push(self_s / mean(&twin.from_scratch_s));
            ratios_up.push(pct(&t.update_us, 0.5) / pct(&twin.update_us, 0.5));
            println!(
                "  vm.cost_ratio {}: from_scratch={:.3} update={:.3}",
                prog.name(),
                ratios_fs.last().unwrap(),
                ratios_up.last().unwrap()
            );
        }
    }
    if path == Path::Compiled {
        rep.set("vm.cost_ratio.from_scratch", geomean(&ratios_fs), "ratio");
        rep.set("vm.cost_ratio.update", geomean(&ratios_up), "ratio");
    }
}

/// The engine's parts-add-up check, in µs: the stage and commit span
/// medians of the traced edits, against the update latency median of
/// the untraced edits of the same run.
pub fn parts(rep: &Report) -> (f64, f64) {
    (
        rep.get("engine.stage_us.p50") + rep.get("engine.commit_us.p50"),
        rep.get("parts.untraced_update_us"),
    )
}
