//! `repro` — regenerates the paper's tables and figures on the simulator.
//!
//! ```text
//! repro all                      # every experiment at paper scale
//! repro fig2 fig6                # specific experiments
//! repro fig4 --scale small       # quick run with tiny inputs
//! repro list                     # list experiment ids
//! ```

use rmt_bench::cells::CellStore;
use rmt_bench::experiments::{self, ALL_IDS};
use rmt_bench::{report, ExpConfig};
use rmt_kernels::Scale;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> String {
    format!(
        "usage: repro <experiment>... [--scale small|paper|large] [--json] [--jobs N]\n\
         \x20                        [--seed N] [--budget N] [--protect N]\n\
         \x20                        [--kernel K] [--flavor F] [--timeline OUT.json]\n\
         \x20                        [--engine event|lockstep] [--deterministic]\n\
         \x20                        [--trace-out OUT.json] [--metrics-out OUT.json]\n\
         \x20      repro report OLD.json NEW.json [--threshold PCT]\n\
         --jobs N      worker threads for independent simulation cells\n\
         \x20             (default: available parallelism; output is identical for any N)\n\
         --engine E    machine-loop implementation: event (time-skipping, default)\n\
         \x20             or lockstep (tick-by-tick reference); observables are\n\
         \x20             bit-identical either way, only wall-clock differs\n\
         --seed N      campaign seed for `fuzz` (default 1)\n\
         --budget N    generated cases for `fuzz` (default 200)\n\
         --protect N   single protection budget for `pareto` in percent\n\
         \x20             (default: sweep 0/25/50/75/90/100)\n\
         --kernel K    single-kernel mode for `profile` (benchmark abbreviation)\n\
         --flavor F    flavor for `profile --kernel`: Original, Intra+LDS,\n\
         \x20             Intra-LDS, Inter, FAST (default Intra+LDS)\n\
         --timeline P  write a Chrome trace_event timeline (needs --kernel)\n\
         --trace-out P    write the whole campaign as Chrome trace_event JSON\n\
         \x20                (cell spans, oracle stages, fault ledger, and any\n\
         \x20                device timelines recorded by `profile` — one file,\n\
         \x20                open in Perfetto)\n\
         --metrics-out P  write the campaign metrics snapshot (counters,\n\
         \x20                gauges, histograms) as JSON\n\
         --deterministic  logical timestamps (cell indices) instead of wall\n\
         \x20                clock: metrics snapshots are byte-identical for\n\
         \x20                any --jobs value\n\
         --threshold N    allowed relative change in percent for noisy\n\
         \x20                quantities in `repro report` (default 25)\n\
         experiments: all, {}\n\
         extra: bench (wall-clock simulator benchmark, writes BENCH_sim.json),\n\
         \x20      fuzz (generative differential campaign over random kernels),\n\
         \x20      profile (stall taxonomy, hotspots, RMT cycle split, timelines),\n\
         \x20      report (noise-aware diff of two bench/metrics snapshots)",
        ALL_IDS.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }

    let mut ids: Vec<String> = Vec::new();
    let mut cfg = ExpConfig::paper().with_jobs(gcn_sim::pool::default_jobs());
    let mut threshold = report::DEFAULT_THRESHOLD_PCT;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                cfg.scale = match args.get(i).map(String::as_str) {
                    Some("small") => Scale::Small,
                    Some("paper") => Scale::Paper,
                    Some("large") => Scale::Large,
                    other => {
                        eprintln!("bad --scale {other:?}\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--jobs" => {
                i += 1;
                cfg.jobs = match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => {
                        eprintln!("bad --jobs {:?}\n{}", args.get(i), usage());
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--seed" => {
                i += 1;
                cfg.seed = match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("bad --seed {:?}\n{}", args.get(i), usage());
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--budget" => {
                i += 1;
                cfg.budget = match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => {
                        eprintln!("bad --budget {:?}\n{}", args.get(i), usage());
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--protect" => {
                i += 1;
                cfg.protect = match args.get(i).and_then(|s| s.parse::<u8>().ok()) {
                    Some(n) if n <= 100 => Some(n),
                    _ => {
                        eprintln!("bad --protect {:?}\n{}", args.get(i), usage());
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--kernel" => {
                i += 1;
                cfg.kernel = match args.get(i) {
                    Some(k) if !k.starts_with('-') => Some(k.clone()),
                    _ => {
                        eprintln!("bad --kernel {:?}\n{}", args.get(i), usage());
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--flavor" => {
                i += 1;
                cfg.flavor = match args.get(i) {
                    Some(f) if !f.starts_with("--") => Some(f.clone()),
                    _ => {
                        eprintln!("bad --flavor {:?}\n{}", args.get(i), usage());
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--timeline" => {
                i += 1;
                cfg.timeline = match args.get(i) {
                    Some(p) if !p.starts_with('-') => Some(p.clone()),
                    _ => {
                        eprintln!("bad --timeline {:?}\n{}", args.get(i), usage());
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--engine" => {
                i += 1;
                cfg.device.engine = match args.get(i).map(|s| s.parse::<gcn_sim::SimEngine>()) {
                    Some(Ok(e)) => e,
                    _ => {
                        eprintln!("bad --engine {:?}\n{}", args.get(i), usage());
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--trace-out" => {
                i += 1;
                cfg.trace_out = match args.get(i) {
                    Some(p) if !p.starts_with('-') => Some(p.clone()),
                    _ => {
                        eprintln!("bad --trace-out {:?}\n{}", args.get(i), usage());
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--metrics-out" => {
                i += 1;
                cfg.metrics_out = match args.get(i) {
                    Some(p) if !p.starts_with('-') => Some(p.clone()),
                    _ => {
                        eprintln!("bad --metrics-out {:?}\n{}", args.get(i), usage());
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--threshold" => {
                i += 1;
                threshold = match args.get(i).and_then(|s| s.parse::<f64>().ok()) {
                    Some(t) if t >= 0.0 => t,
                    _ => {
                        eprintln!("bad --threshold {:?}\n{}", args.get(i), usage());
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--deterministic" => cfg.deterministic = true,
            "--json" => cfg.json = true,
            "list" => {
                println!("{}", ALL_IDS.join("\n"));
                return ExitCode::SUCCESS;
            }
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }

    // `repro report OLD NEW`: the snapshot differ, no simulation at all.
    if ids[0] == "report" {
        if ids.len() != 3 {
            eprintln!("report needs exactly two snapshot files\n{}", usage());
            return ExitCode::FAILURE;
        }
        return match report::report_files(&ids[1], &ids[2], threshold) {
            Ok((rendered, regressed)) => {
                print!("{rendered}");
                if regressed {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("report failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // A campaign is recorded only when an export was requested; disabled
    // observability costs one atomic load per probe.
    let recording = cfg.trace_out.is_some() || cfg.metrics_out.is_some();
    if recording {
        rmt_obs::enable(if cfg.deterministic {
            rmt_obs::Clock::Logical
        } else {
            rmt_obs::Clock::Wall
        });
    }

    // One store per invocation: a cell two experiments share runs once.
    let mut cells = CellStore::new();
    let mut failed = false;
    for id in ids {
        let t0 = Instant::now();
        match experiments::run(&id, &cfg, &mut cells) {
            Ok(report) => {
                if cfg.json {
                    // Machine-readable mode: the report itself, no banners.
                    print!("{report}");
                } else {
                    println!("==== {id} ====\n");
                    println!("{report}");
                    // Timing goes to stderr: stdout stays byte-identical
                    // across hosts and `--jobs` values. `banner` is the
                    // single formatting path; it also mirrors the line
                    // into the campaign trace when one is recording.
                    rmt_obs::banner(&format!("[{id} completed in {:.1?}]\n", t0.elapsed()));
                }
            }
            Err(e) => {
                eprintln!("==== {id} FAILED ====\n{e}\n");
                failed = true;
            }
        }
    }

    if recording {
        if let Some(path) = &cfg.trace_out {
            if let Err(e) = std::fs::write(path, rmt_obs::chrome_trace_json()) {
                eprintln!("writing --trace-out {path}: {e}");
                failed = true;
            }
        }
        if let Some(path) = &cfg.metrics_out {
            if let Err(e) = std::fs::write(path, rmt_obs::metrics_json()) {
                eprintln!("writing --metrics-out {path}: {e}");
                failed = true;
            }
        }
        rmt_obs::disable();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
