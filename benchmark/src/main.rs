//! Command line of the RMT benchmark.
//!
//! ```text
//! rmt-benchmark run --workload W --seed S [--seconds N] [--trace 0|1] [--trace-out FILE]
//! rmt-benchmark all --seed S [--seconds N] [--trace 0|1] [--out FILE]
//! ```
//!
//! `run` prints every metric by name with its unit, then, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. It exits 0 when every output check passed, 1
//! when one failed, and 2 on a usage or set-up error (with no result).
//! `all` runs each workload in a child process of its own, so each gets
//! its own peak memory, and writes the results to `--out`.

use rmt_benchmark::{run, Limit, Report, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  rmt-benchmark run --workload W --seed S [--seconds N] [--trace 0|1] [--trace-out FILE]
  rmt-benchmark all --seed S [--seconds N] [--trace 0|1] [--out FILE]
workloads: sim-paper, fault-small, compile-suite, fuzz-oracle";

/// Seconds measured per run when `--seconds` is not given.
const DEFAULT_SECONDS: &str = "25";

fn main() -> ExitCode {
    // Injected faults can panic the simulator; those panics are contained
    // and counted, so one line each is enough (a backtrace would also be
    // timed as part of the op).
    std::panic::set_hook(Box::new(|info| eprintln!("panic: {info}")));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parses `--key value` pairs after the subcommand, rejecting unknown keys.
fn options<'a>(args: &'a [String], known: &[&str]) -> Result<BTreeMap<&'a str, &'a str>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .filter(|k| known.contains(k))
            .ok_or_else(|| format!("unknown argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key, v.as_str());
    }
    Ok(out)
}

/// The value of `--key`, or `default` when it is absent.
fn parse<T: std::str::FromStr>(
    opts: &BTreeMap<&str, &str>,
    key: &str,
    default: Option<&str>,
) -> Result<T, String> {
    let v = opts
        .get(key)
        .copied()
        .or(default)
        .ok_or_else(|| format!("missing --{key}"))?;
    v.parse().map_err(|_| format!("bad --{key} {v:?}"))
}

fn cli(args: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    match cmd.as_str() {
        "run" => {
            let o = options(rest, &["workload", "seed", "seconds", "trace", "trace-out"])?;
            let workload = o.get("workload").ok_or("missing --workload")?;
            let seed: u64 = parse(&o, "seed", None)?;
            let seconds: f64 = parse(&o, "seconds", Some(DEFAULT_SECONDS))?;
            if !(seconds > 0.0 && seconds.is_finite()) {
                return Err(format!("--seconds must be positive, got {seconds}"));
            }
            let trace = match o.get("trace").copied().unwrap_or("0") {
                "0" => false,
                "1" => true,
                t => return Err(format!("--trace takes 0 or 1, got {t:?}")),
            };
            let report = run(workload, seed, Limit::Seconds(seconds), trace)?;
            if let (Some(path), Some(json)) = (o.get("trace-out"), &report.chrome_trace) {
                std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
                println!("wrote the Chrome trace to {path}");
            }
            print_report(workload, seed, &report);
            Ok(if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        "all" => {
            let o = options(rest, &["seed", "seconds", "trace", "out"])?;
            let seed: u64 = parse(&o, "seed", None)?;
            all(seed, &o)
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn print_report(workload: &str, seed: u64, r: &Report) {
    println!(
        "workload {workload}, seed {seed}: {} ops, {} failed",
        r.attempted, r.failed
    );
    for f in &r.failures {
        println!("  FAILED {f}");
    }
    if r.self_ms_per_op.is_empty() {
        println!(
            "  ({} op latency samples, each op's fastest of {} rounds)",
            r.samples, r.rounds
        );
    } else {
        let total: f64 = r.self_ms_per_op.iter().map(|(_, ms)| ms).sum();
        println!("  self time per op (\"op\" = not inside any layer span):");
        let mut rows = r.self_ms_per_op.clone();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, ms) in rows {
            println!("    {name:<16} {ms:>12.4} ms  {:>6.2}%", 100.0 * ms / total);
        }
    }
    for m in &r.metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", r.result_line());
}

/// Runs every workload in its own child process and collects the result
/// lines into one JSON document.
fn all(seed: u64, o: &BTreeMap<&str, &str>) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let seconds = o.get("seconds").copied().unwrap_or(DEFAULT_SECONDS);
    let trace = o.get("trace").copied().unwrap_or("0");
    let mut results = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        let seed = seed.to_string();
        let out = Command::new(&exe)
            .args(["run", "--workload", w, "--seed", &seed])
            .args(["--seconds", seconds, "--trace", trace])
            .output()
            .map_err(|e| format!("starting {w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        ok &= out.status.success();
        let last = stdout.lines().last().unwrap_or("");
        let result = rmt_bench::baseline::parse(last).unwrap_or(rmt_bench::baseline::Json::Null);
        results.push((w.to_string(), result));
    }
    let doc = rmt_bench::baseline::Json::Obj(results).to_string();
    if let Some(path) = o.get("out") {
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
