//! Order statistics, the span recorder and the metric report.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Nearest-rank quantile `q` of `xs`, 0 when empty.
pub fn pct(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `xs`, 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    pct(xs, 0.5)
}

/// Samples per block for [`block_p99`]: enough for ten beyond the p99.
pub const P99_BLOCK: usize = 1000;

/// The p99 of each of `len / P99_BLOCK` consecutive blocks of samples
/// (in arrival order, the last block taking the remainder), then the
/// median over blocks; the plain p99 when there is less than one block.
/// A stall of the machine that spoils one block does not move it.
pub fn block_p99(xs: &[f64]) -> f64 {
    let blocks = (xs.len() / P99_BLOCK).max(1);
    let size = xs.len() / blocks;
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                xs.len()
            } else {
                (b + 1) * size
            };
            pct(&xs[b * size..end], 0.99)
        })
        .collect();
    median(&per_block)
}

/// Arithmetic mean, 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// Geometric mean of positive values, 0 when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sleeps until `due`. No spinning: the load generator shares the
/// machine's cores with the server it measures, so it wakes a little
/// late (timer slack) rather than burn a core.
pub fn wait_until(due: Instant) {
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
    }
}

/// One traced interval: a call into a layer, timed from outside.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Request (or update) id the span belongs to, 0 for none.
    pub req: u64,
}

/// In-memory span recorder. Disabled, every call is a no-op and
/// returns id 0; enabled, spans are kept until [`Tracer::write`].
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

/// Spans kept per run; later spans are dropped (and counted as such
/// in the written file) to bound memory.
const MAX_SPANS: usize = 2_000_000;

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id (index + 1).
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        req: u64,
    ) -> u32 {
        if !self.on || self.spans.len() >= MAX_SPANS {
            return 0;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        });
        self.spans.len() as u32
    }

    /// Opens a span whose end is filled in by [`Tracer::close`], so
    /// children can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let now = Instant::now();
        self.span(name, now, now, parent, req)
    }

    pub fn close(&mut self, id: u32) {
        if id != 0 {
            let end = self.ns(Instant::now());
            self.spans[id as usize - 1].end_ns = end;
        }
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// A recorder for another thread: same switch and epoch, no spans.
    /// Its spans may name this recorder's spans as parents.
    pub fn child(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    /// Appends the spans of a [`Tracer::child`].
    pub fn absorb(&mut self, child: Tracer) {
        let room = MAX_SPANS.saturating_sub(self.spans.len());
        self.spans.extend(child.spans.into_iter().take(room));
    }

    /// Writes the spans as JSON lines (`id`, `name`, `start_ns`,
    /// `end_ns`, `parent`, `req`).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.req
            )?;
        }
        out.flush()
    }
}

/// The metrics of one run, printed as the final JSON line.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Name prefixes of the metrics the workload does not exercise.
    absent: Vec<&'static str>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable failure descriptions (first few are printed).
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.metrics.iter_mut().find(|m| m.0 == name) {
            Some(m) => m.1 = value,
            None => self.metrics.push((name.to_string(), value, unit)),
        }
    }

    /// Value of metric `name`, 0 when it was not set.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(0.0, |m| m.1)
    }

    /// Declares that the metrics whose names start with one of
    /// `prefixes` measure a layer this workload does not exercise: they
    /// print as 0 rather than fail the run.
    pub fn absent(&mut self, prefixes: &[&'static str]) {
        self.absent.extend_from_slice(prefixes);
    }

    /// Counts one failed operation, keeping its description.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 1000 {
            self.failures.push(what);
        }
    }

    /// The result line with the metrics in `wanted` (name, unit), in
    /// that order. An error names a wanted metric the run neither set
    /// nor declared absent, or set with another unit.
    pub fn result_line(&self, wanted: &[(String, String)]) -> Result<String, String> {
        let correct = self.failed == 0;
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let v = match self.metrics.iter().find(|m| &m.0 == name) {
                Some(&(_, _, u)) if u != unit => {
                    return Err(format!("metric {name} measured in {u}, listed in {unit}"))
                }
                Some(&(_, v, _)) => v,
                None if self.absent.iter().any(|p| name.starts_with(p)) => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_num(v)
            );
        }
        s.push_str("}}");
        Ok(s)
    }
}

/// A JSON number with every digit the measurement has.
pub fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The `(name, unit)` pairs of the metric list `key` (`end_to_end` or
/// `per_layer`) of `BENCHMARK.json`, in order. Reads only the shape that
/// file has: an array of flat objects whose strings hold no escapes.
pub fn metric_list(json: &str, key: &str) -> Result<Vec<(String, String)>, String> {
    let bad = || format!("BENCHMARK.json: no metric list `{key}`");
    let at = json.find(&format!("\"{key}\"")).ok_or_else(bad)?;
    let rest = &json[at..];
    let open = rest.find('[').ok_or_else(bad)?;
    let close = rest.find(']').ok_or_else(bad)?;
    let field = |obj: &str, f: &str| -> Result<String, String> {
        let i = obj
            .find(&format!("\"{f}\""))
            .ok_or(format!("BENCHMARK.json: a `{key}` entry has no `{f}`"))?;
        let after = obj[i + f.len() + 2..].trim_start().strip_prefix(':');
        let val = after.map(str::trim_start).and_then(|v| v.strip_prefix('"'));
        val.and_then(|v| v.split('"').next())
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json: bad `{f}` in `{key}`"))
    };
    rest[open + 1..close]
        .split('}')
        .filter(|obj| obj.contains('{'))
        .map(|obj| Ok((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}
