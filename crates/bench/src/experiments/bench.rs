//! `repro bench` — wall-clock benchmark of the simulator core, with a
//! tracked baseline.
//!
//! Times warm iterations of a fixed kernel set covering the interpreter's
//! hot paths (ALU, LDS/barrier, and memory-bound kernels), each original
//! and under three RMT postures — Intra+LDS, Inter (whose communication
//! atomics and polling are the paper's blow-up case) and Selective-50 —
//! then writes `BENCH_sim.json` to the working directory.
//! When a previous `BENCH_sim.json` is already present (the committed
//! baseline), the report prints the delta and the experiment **fails** on
//! a regression worse than 25% — CI runs this at small scale on every
//! push.
//!
//! Every cell is timed under **both** execution engines: the event-driven
//! default and the lock-step reference (`SimEngine::LockStep`). The two
//! are bit-identical in observables (see `crates/sim/tests/engine_equiv.rs`),
//! so the per-cell `speedup` column isolates exactly what the time-skipping
//! scheduler buys. The run fails if the event engine is not faster on the
//! memory-bound kernels (MM, FWT) — those are where fully-stalled spans
//! dominate and skipping them is the engine's whole point.
//!
//! Raw throughput (million simulated instructions per second) depends on
//! the host, so the tracked figure is a normalized *score*:
//!
//! ```text
//! score = Minst/s × calib_ms
//! ```
//!
//! where `calib_ms` times a fixed scalar xorshift loop on the same host
//! immediately before the measurement. A machine that runs the calibration
//! loop twice as fast is expected to run the simulator twice as fast, so
//! the product cancels most machine-to-machine variation while preserving
//! simulator-relative changes.
//!
//! Cells run serially (never through the pool) regardless of `--jobs`:
//! wall-clock timing wants an unloaded machine and no cross-thread cache
//! interference.

use crate::baseline::{self, Json};
use crate::table::Table;
use crate::ExpConfig;
use gcn_sim::{Device, SimEngine};
use rmt_core::{transform, RmtLauncher, TransformOptions};
use rmt_kernels::by_abbrev;
use std::time::Instant;

/// Timed iterations per cell and engine (after one untimed warm-up).
const ITERS: usize = 3;

/// Baseline file name, in the working directory (the repo root in CI).
const BASELINE_FILE: &str = "BENCH_sim.json";

/// Version of the `BENCH_sim.json` schema this writer emits. The reader
/// side (`baseline::parse` + keyed lookups) tolerates unknown keys, so
/// adding fields does not need a bump; only renames/removals do.
const SCHEMA_VERSION: u32 = 1;

/// Fail when the normalized score drops below this fraction of baseline.
const FAIL_BELOW: f64 = 0.75;

/// The kernels whose runtime is dominated by memory stalls — the rows
/// where the event engine's time skipping must pay off.
const MEMORY_BOUND: [&str; 2] = ["MM", "FWT"];

/// Iterations of the calibration loop.
const CALIB_ROUNDS: u64 = 50_000_000;

/// Times a fixed scalar xorshift loop: a stand-in for the host's
/// single-thread integer speed, used to normalize the simulator score.
fn calibrate_ms() -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let t0 = Instant::now();
    for _ in 0..CALIB_ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(x);
    ms
}

struct CellResult {
    kernel: &'static str,
    flavor: &'static str,
    insts: u64,
    /// Best wall-clock seconds under the event engine.
    best_s: f64,
    /// Best wall-clock seconds under the lock-step reference.
    best_s_lockstep: f64,
}

/// The `bench` experiment. Not part of `repro all`: its output is
/// wall-clock timing, which is intentionally not byte-stable.
///
/// # Errors
///
/// On simulation failure, on an unwritable `BENCH_sim.json`, when the
/// event-engine score regresses more than 25% against the committed
/// baseline, or when the event engine fails to beat the lock-step
/// reference on the memory-bound kernels.
pub fn bench(cfg: &ExpConfig) -> Result<String, String> {
    let kernels: [&'static str; 5] = ["R", "MM", "PS", "BlkSch", "FWT"];
    let flavors: [(&'static str, Option<TransformOptions>); 4] = [
        ("Original", None),
        ("Intra+LDS", Some(TransformOptions::intra_plus_lds())),
        ("Inter", Some(TransformOptions::inter())),
        ("Selective-50", Some(TransformOptions::selective(50))),
    ];

    let mut cells: Vec<CellResult> = Vec::new();
    for abbrev in kernels {
        let b = by_abbrev(abbrev).expect("known benchmark");
        for (fname, opts) in &flavors {
            let mut insts = 0;
            let mut best = [f64::INFINITY; 2];
            for (ei, engine) in [SimEngine::Event, SimEngine::LockStep].iter().enumerate() {
                // Per-cell setup happens once, outside the timed loop: the
                // benchmark is the *simulator core*, so transform, plan
                // building, compilation, and result verification (covered
                // by the test suite) stay off the clock.
                let rk = opts
                    .as_ref()
                    .map(|o| transform(&b.kernel(), o))
                    .transpose()
                    .map_err(|e| format!("{abbrev} {fname}: {e}"))?;
                let mut dev_cfg = cfg.device.clone();
                dev_cfg.engine = *engine;
                let mut dev = Device::new(dev_cfg);
                let plan = b.plan(cfg.scale, &mut dev);
                let kernel = rk
                    .as_ref()
                    .map_or_else(|| b.kernel(), |rk| rk.kernel.clone());
                let compiled = dev
                    .compile(&kernel)
                    .map_err(|e| format!("{abbrev} {fname}: {e}"))?;
                let mut launcher = RmtLauncher::new();
                let mut run_once = |dev: &mut Device| -> Result<u64, String> {
                    let mut n = 0;
                    for pass in &plan.passes {
                        n += match &rk {
                            Some(rk) => {
                                launcher
                                    .launch_compiled(dev, rk, &compiled, pass)
                                    .map_err(|e| format!("{abbrev} {fname}: {e}"))?
                                    .stats
                            }
                            None => dev
                                .launch_compiled(&compiled, pass)
                                .map_err(|e| format!("{abbrev} {fname}: {e}"))?,
                        }
                        .counters
                        .dyn_insts;
                    }
                    Ok(n)
                };
                let warm = run_once(&mut dev)?;
                if ei == 0 {
                    insts = warm;
                } else if warm != insts {
                    return Err(format!(
                        "{abbrev} {fname}: engines disagree on instruction count"
                    ));
                }
                for _ in 0..ITERS {
                    let t0 = Instant::now();
                    let n = run_once(&mut dev)?;
                    let dt = t0.elapsed().as_secs_f64();
                    if n != insts {
                        return Err(format!(
                            "{abbrev} {fname}: nondeterministic instruction count"
                        ));
                    }
                    best[ei] = best[ei].min(dt);
                }
            }
            cells.push(CellResult {
                kernel: abbrev,
                flavor: fname,
                insts,
                best_s: best[0],
                best_s_lockstep: best[1],
            });
        }
    }

    let total_insts: u64 = cells.iter().map(|c| c.insts).sum();
    let total_best_s: f64 = cells.iter().map(|c| c.best_s).sum();
    let total_lockstep_s: f64 = cells.iter().map(|c| c.best_s_lockstep).sum();
    let calib_ms = calibrate_ms();
    let minsts_per_s = total_insts as f64 / 1e6 / total_best_s;
    let score = minsts_per_s * calib_ms;
    let lockstep_minsts_per_s = total_insts as f64 / 1e6 / total_lockstep_s;
    let lockstep_score = lockstep_minsts_per_s * calib_ms;

    // The event engine must actually win where it is supposed to: on the
    // memory-bound kernels, summed over flavors. Small-scale cells run in
    // a few milliseconds, so a 10% noise floor keeps the gate from
    // tripping on timer jitter; a real scheduling regression (the engine
    // degenerating to tick-burning) overshoots that band immediately.
    let mut engine_failures = Vec::new();
    for k in MEMORY_BOUND {
        let ev: f64 = cells
            .iter()
            .filter(|c| c.kernel == k)
            .map(|c| c.best_s)
            .sum();
        let ls: f64 = cells
            .iter()
            .filter(|c| c.kernel == k)
            .map(|c| c.best_s_lockstep)
            .sum();
        if ev > ls * 1.10 {
            engine_failures.push(format!(
                "event engine not faster than lock-step on memory-bound {k}: \
                 {:.1} ms vs {:.1} ms",
                ev * 1e3,
                ls * 1e3
            ));
        }
    }

    let mut json = format!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"experiment\":\"bench\",\
         \"scale\":\"{:?}\",\"iters\":{ITERS},\
         \"calib_ms\":{calib_ms:.3},\"total_minsts\":{:.3},\
         \"minsts_per_s\":{minsts_per_s:.3},\"score\":{score:.3},\
         \"lockstep_minsts_per_s\":{lockstep_minsts_per_s:.3},\
         \"lockstep_score\":{lockstep_score:.3},\"cells\":[",
        cfg.scale,
        total_insts as f64 / 1e6,
    );
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"kernel\":\"{}\",\"flavor\":\"{}\",\"minsts\":{:.3},\"best_ms\":{:.3},\
             \"best_ms_lockstep\":{:.3},\"speedup\":{:.3}}}",
            c.kernel,
            c.flavor,
            c.insts as f64 / 1e6,
            c.best_s * 1e3,
            c.best_s_lockstep * 1e3,
            c.best_s_lockstep / c.best_s
        ));
    }
    json.push_str("]}\n");

    // Compare against the committed baseline before overwriting it,
    // through the same noise-aware differ `repro report` uses (scores
    // within the 25% threshold pass; per-cell times get 2×; changes in
    // deterministic instruction counts surface as drift, not failure).
    let mut notes = Vec::new();
    let mut regression = None;
    match std::fs::read_to_string(BASELINE_FILE) {
        Ok(txt) => match baseline::parse(&txt) {
            Ok(old) => {
                match old.get("score").and_then(Json::as_f64) {
                    Some(old_score) if old_score > 0.0 => {
                        notes.push(format!(
                            "baseline score {old_score:.1}, new score {score:.1} ({:+.1}%)",
                            (score / old_score - 1.0) * 100.0
                        ));
                    }
                    _ => notes.push(format!("baseline {BASELINE_FILE} has no score; replacing")),
                }
                match old.get("lockstep_score").and_then(Json::as_f64) {
                    Some(old_ls) if old_ls > 0.0 => {
                        notes.push(format!(
                            "baseline lockstep score {old_ls:.1}, new {lockstep_score:.1} \
                             ({:+.1}%)",
                            (lockstep_score / old_ls - 1.0) * 100.0
                        ));
                    }
                    _ => notes
                        .push("baseline has no lockstep score (pre-engine-split); adding".into()),
                }
                let new_doc = baseline::parse(&json).expect("bench writer emits valid JSON");
                match crate::report::diff_docs(&old, &new_doc, (1.0 - FAIL_BELOW) * 100.0) {
                    Ok(rep) => {
                        if rep.regressions > 0 {
                            regression = Some(format!(
                                "perf regression against {BASELINE_FILE}:\n{}",
                                rep.render()
                            ));
                        }
                    }
                    Err(e) => notes.push(format!("baseline diff skipped: {e}")),
                }
            }
            Err(e) => notes.push(format!(
                "baseline {BASELINE_FILE} unreadable ({e}); replacing"
            )),
        },
        Err(_) => notes.push(format!("no {BASELINE_FILE} baseline; writing a fresh one")),
    }
    let baseline_note = notes.join("\n");

    std::fs::write(BASELINE_FILE, &json).map_err(|e| format!("writing {BASELINE_FILE}: {e}"))?;
    // The delta always lands on stderr, so CI logs show it even in
    // `--json` mode (where stdout must stay pure JSON). `banner` is the
    // single formatting path: it mirrors the line into the campaign
    // trace when one is being recorded.
    rmt_obs::banner(&format!("bench: {}", baseline_note.replace('\n', "; ")));

    let report = if cfg.json {
        json
    } else {
        let mut t = Table::new(&[
            "kernel",
            "flavor",
            "Minst",
            "event ms",
            "lockstep ms",
            "speedup",
            "Minst/s",
        ]);
        for c in &cells {
            t.row(vec![
                c.kernel.into(),
                c.flavor.into(),
                format!("{:.2}", c.insts as f64 / 1e6),
                format!("{:.1}", c.best_s * 1e3),
                format!("{:.1}", c.best_s_lockstep * 1e3),
                format!("{:.2}x", c.best_s_lockstep / c.best_s),
                format!("{:.2}", c.insts as f64 / 1e6 / c.best_s),
            ]);
        }
        format!(
            "Simulator benchmark (best of {ITERS} warm iterations per cell and engine)\n\n{}\n\
             event:    {:.2} Minst in {:.1} ms -> {minsts_per_s:.2} Minst/s\n\
             lockstep: {:.2} Minst in {:.1} ms -> {lockstep_minsts_per_s:.2} Minst/s\n\
             calibration: {calib_ms:.1} ms -> normalized scores {score:.1} (event), \
             {lockstep_score:.1} (lockstep)\n\
             {baseline_note}\n\
             wrote {BASELINE_FILE}\n",
            t.render(),
            total_insts as f64 / 1e6,
            total_best_s * 1e3,
            total_insts as f64 / 1e6,
            total_lockstep_s * 1e3,
        )
    };
    let mut failures: Vec<String> = engine_failures;
    if let Some(r) = regression {
        failures.push(r);
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(format!("{report}\n{}", failures.join("\n")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_positive() {
        assert!(calibrate_ms() > 0.0);
    }
}
