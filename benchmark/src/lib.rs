//! # rmt-benchmark
//!
//! The repository's end-to-end benchmark. It drives every layer of the
//! RMT pipeline — kernel build and generation, transform, `verify_rmt`,
//! lint, translation validation, coverage, compile, simulation, fault
//! injection, reference check — only through its public functions, and
//! times those calls from outside.
//!
//! It is one closed-loop client: one process, one thread, and the next op
//! starts when the previous one ends. See `README.md` for the workloads,
//! the metrics, and which layer should move which metric.

#![forbid(unsafe_code)]

mod compile_suite;
mod fault_small;
mod fuzz_oracle;
mod pool;
mod sim_paper;
mod trace;

pub use pool::KNOWN_FAILING;

use gcn_sim::LaunchStats;
use rmt_bench::baseline::Json;
use rmt_core::{transform, RmtKernel, TransformOptions};
use rmt_ir::Kernel;
use std::time::{Duration, Instant};
use trace::Recorder;

/// Workload names, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = ["sim-paper", "fault-small", "compile-suite", "fuzz-oracle"];

/// Set-ups per run. `setup_s` is their median, so one slow first set-up
/// (cold caches, page faults) does not move it. The count is fixed
/// because the set-ups shape the heap that `peak_rss_mb` measures.
const SETUPS: usize = 5;

/// Rounds a time-bounded run plays at least, so that every op's fastest
/// repetition is taken over two or more.
const MIN_ROUNDS: u32 = 2;

/// How long a run measures. The first round always runs in full: it is
/// the fixed set of ops the per-layer counts are taken over.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Whole rounds until about this many seconds have passed.
    Seconds(f64),
    /// Rounds until `n` untraced ops have run, the last one cut short: a
    /// short run for tests.
    Ops(usize),
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `BENCHMARK.json` name.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run of one workload.
#[derive(Debug)]
pub struct Report {
    /// Ops attempted in the measured rounds.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Ops in one round: the latency samples the percentiles were taken
    /// over, each the fastest of its repetitions.
    pub samples: usize,
    /// Untraced rounds played (the last may be cut short).
    pub rounds: u32,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Self time per span name over the traced rounds, in ms per op
    /// (`"op"` is the part no layer span covers). Empty when untraced.
    pub self_ms_per_op: Vec<(&'static str, f64)>,
    /// The traced rounds as Chrome `trace_event` JSON.
    pub chrome_trace: Option<String>,
}

impl Report {
    /// `true` when every op's output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// every metric with its value and unit.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.clone(), v)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_string()
    }

    /// The metric named `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

enum Workload {
    SimPaper(sim_paper::SimPaper),
    FaultSmall(fault_small::FaultSmall),
    CompileSuite(compile_suite::CompileSuite),
    FuzzOracle(fuzz_oracle::FuzzOracle),
}

impl Workload {
    fn setup(name: &str, seed: u64) -> Result<Self, String> {
        Ok(match name {
            "sim-paper" => Workload::SimPaper(sim_paper::SimPaper::setup()?),
            "fault-small" => Workload::FaultSmall(fault_small::FaultSmall::setup(seed)?),
            "compile-suite" => Workload::CompileSuite(compile_suite::CompileSuite::setup(seed)?),
            "fuzz-oracle" => Workload::FuzzOracle(fuzz_oracle::FuzzOracle::setup(seed)?),
            _ => {
                return Err(format!(
                    "unknown workload {name:?}; expected one of {WORKLOADS:?}"
                ))
            }
        })
    }

    /// Plays the workload's round: the same seed-determined ops every time.
    fn round(&mut self, rec: &mut Recorder) {
        match self {
            Workload::SimPaper(w) => w.round(rec),
            Workload::FaultSmall(w) => w.round(rec),
            Workload::CompileSuite(w) => w.round(rec),
            Workload::FuzzOracle(w) => w.round(rec),
        }
    }
}

/// Checks every case of the generated-kernel pool that `compile-suite`
/// and `fuzz-oracle` draw from, and returns the ones some layer rejects,
/// each with its reason. The benchmark skips exactly these
/// (`pool::KNOWN_FAILING`); a fix in the program shrinks the list.
pub fn screen_pool() -> Vec<(u64, String)> {
    pool::screen()
}

/// Runs one workload: repeated set-ups (each ending in untimed warm-up
/// ops), then the workload's round again and again until `limit`. Every
/// round plays the same seed-determined ops, so each op's latency is the
/// fastest of its repetitions and a slow stretch of the host weighs
/// little. A traced run plays every round twice — untraced, then traced —
/// so the tracing overhead is measured on identical ops; its counts cover
/// the first traced round only, a fixed set of ops whatever the run's
/// length. `peak_rss_mb` is the peak after the set-ups and the first
/// round.
///
/// # Errors
///
/// An unknown workload name, or a set-up that fails.
pub fn run(workload: &str, seed: u64, limit: Limit, trace: bool) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(Workload::setup(workload, seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = state.expect("at least one set-up");

    let mut rec = Recorder::new(None);
    let mut peak_rss = None;
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        let budget = match limit {
            Limit::Ops(n) if rounds > 0 => Some(n.saturating_sub(untraced_ops(&rec))),
            _ => None,
        };
        rec.start_round(budget, false, false);
        w.round(&mut rec);
        if trace {
            rec.start_round(budget, true, rounds == 0);
            w.round(&mut rec);
        }
        // The peak after a fixed amount of work, so that it does not
        // depend on how many rounds the host's speed allows.
        if rounds == 0 {
            peak_rss = Some(peak_rss_mb()?);
        }
        rounds += 1;
        let done = match limit {
            Limit::Ops(n) => untraced_ops(&rec) >= n,
            // Stop where the next round would overshoot by more than half.
            Limit::Seconds(s) => {
                let elapsed = start.elapsed();
                rounds >= MIN_ROUNDS
                    && elapsed + elapsed / (2 * rounds) >= Duration::from_secs_f64(s)
            }
        };
        if done {
            break;
        }
    }

    let best = &mut rec.best_ms;
    let best_total_s = best.iter().sum::<f64>() / 1e3;
    let metrics = if trace {
        let traced_total_s = rec.best_traced_ms.iter().sum::<f64>() / 1e3;
        per_layer(&rec, traced_total_s / best_total_s)
    } else {
        vec![
            metric("ops_per_s", best.len() as f64 / best_total_s, "1/s"),
            metric("op_ms_p50", percentile(best, 0.50), "ms"),
            metric("op_ms_p90", percentile(best, 0.90), "ms"),
            metric("peak_rss_mb", peak_rss.expect("one round ran"), "MB"),
            metric("setup_s", median(&mut setup_s), "s"),
        ]
    };
    let ops = rec.traced_ops.max(1) as f64;
    let self_ms_per_op = rec
        .self_ms()
        .into_iter()
        .map(|(name, ms)| (name, ms / ops))
        .collect();
    Ok(Report {
        attempted: rec.attempted,
        failed: rec.failed,
        failures: rec.failures.clone(),
        samples: rec.best_ms.len(),
        rounds,
        metrics,
        self_ms_per_op,
        chrome_trace: trace.then(|| rec.chrome_trace()),
    })
}

fn untraced_ops(rec: &Recorder) -> usize {
    (rec.attempted - rec.traced_ops) as usize
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Layers timed from outside, each with the counters it reports.
const LAYERS: [(&str, &[&str]); 14] = [
    ("kernels.build", &["insts_out"]),
    ("kernels.plan", &["input_bytes"]),
    ("kernels.verify", &["failed"]),
    ("ir.fuzz", &["insts_out"]),
    ("ir.lint", &["diagnostics"]),
    ("core.transform", &["failed", "insts_out"]),
    ("core.verify", &["violations"]),
    ("core.tv", &["unproved"]),
    ("core.coverage", &["vulnerable"]),
    ("sim.compile", &["insts_in"]),
    ("sim.launch", &["sim_insts", "sim_cycles"]),
    ("core.launcher", &["sim_insts", "sim_cycles", "detections"]),
    ("core.oracle", &["failed", "launches", "injections"]),
    ("harness", &[]),
];

/// Injection outcomes; with `missed` they partition `sim.fault.attempts`.
const FAULT_OUTCOMES: [&str; 5] = ["detected", "sdc", "masked", "due", "crashed"];

/// Per-layer metrics: counts per op of the counted round, busy times per
/// op of every traced round. `slowdown` is the traced over the untraced
/// time of a round.
fn per_layer(rec: &Recorder, slowdown: f64) -> Vec<Metric> {
    let counted = rec.counted_ops.max(1) as f64;
    let traced = rec.traced_ops.max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out = Vec::new();
    let mut layer_ms = 0.0;
    for (layer, counters) in LAYERS {
        let ms = rec.busy_ms(layer);
        layer_ms += ms;
        let calls = format!("{layer}.calls");
        out.push(metric(&calls, rec.count(&calls) / counted, "1/op"));
        out.push(metric(&format!("{layer}.busy_ms"), ms / traced, "ms/op"));
        for c in counters {
            let key = format!("{layer}.{c}");
            let unit = if c.ends_with("_bytes") {
                "B/op"
            } else {
                "1/op"
            };
            out.push(metric(&key, rec.count(&key) / counted, unit));
        }
        if counters.contains(&"sim_insts") {
            // Every round plays the same ops, so the counted round's
            // instructions per op hold for every traced round.
            let insts = rec.count(&format!("{layer}.sim_insts")) / counted;
            out.push(metric(
                &format!("{layer}.ns_per_inst"),
                ratio(ms / traced * 1e6, insts),
                "ns",
            ));
        }
    }
    for key in [
        "core.transform.code_growth_geomean",
        "core.launcher.slowdown_geomean",
    ] {
        out.push(metric(key, rec.geomean(key), "ratio"));
    }
    let attempts = rec.count("sim.fault.attempts");
    let applied = attempts - rec.count("sim.fault.missed");
    out.push(metric("sim.fault.attempts", attempts / counted, "1/op"));
    out.push(metric(
        "sim.fault.applied_ratio",
        ratio(applied, attempts),
        "ratio",
    ));
    for o in FAULT_OUTCOMES {
        let n = rec.count(&format!("sim.fault.{o}"));
        out.push(metric(
            &format!("sim.fault.{o}_frac"),
            ratio(n, applied),
            "ratio",
        ));
    }
    out.push(metric(
        "trace.coverage",
        ratio(layer_ms, rec.busy_ms("op")),
        "ratio",
    ));
    out.push(metric("trace.overhead_pct", (slowdown - 1.0) * 100.0, "%"));
    out
}

/// The median; 0 for no samples.
fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linear-interpolation percentile (`q` in 0..=1); 0 for no samples.
fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Transform postures by label; `"Original"` is no transform.
fn flavor_ops(labels: &[&'static str]) -> Vec<(&'static str, Option<TransformOptions>)> {
    labels
        .iter()
        .map(|&l| {
            let opts = match l {
                "Original" => None,
                "Intra+LDS" => Some(TransformOptions::intra_plus_lds()),
                "Intra-LDS" => Some(TransformOptions::intra_minus_lds()),
                "Inter" => Some(TransformOptions::inter()),
                "FAST" => Some(TransformOptions::intra_plus_lds().with_swizzle()),
                "Sel-0" => Some(TransformOptions::selective(0)),
                "Sel-50" => Some(TransformOptions::selective(50)),
                "Sel-100" => Some(TransformOptions::selective(100)),
                _ => unreachable!("unknown posture {l}"),
            };
            (l, opts)
        })
        .collect()
}

/// Transforms under a `core.transform` span, recording the output size
/// and the static code growth.
fn transform_recorded(
    kernel: &Kernel,
    opts: &TransformOptions,
    rec: &mut Recorder,
) -> Result<RmtKernel, String> {
    match rec.span("core.transform", || transform(kernel, opts)) {
        Ok(rk) => {
            let (before, after) = (kernel.total_insts(), rk.kernel.total_insts());
            rec.add("core.transform", "insts_out", after as f64);
            rec.geo(
                "core.transform.code_growth_geomean",
                after as f64 / before.max(1) as f64,
            );
            Ok(rk)
        }
        Err(e) => {
            rec.add("core.transform", "failed", 1.0);
            Err(format!("transform: {e}"))
        }
    }
}

/// Records a launch's simulated instructions and cycles under `layer`.
fn add_launch(rec: &mut Recorder, layer: &str, stats: &LaunchStats) {
    rec.add(layer, "sim_insts", stats.counters.dyn_insts as f64);
    rec.add(layer, "sim_cycles", stats.cycles as f64);
}
