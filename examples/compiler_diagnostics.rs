//! Compiler-facing view of the RMT pass: for every suite kernel, what each
//! flavor did to the code (instruction growth, register pressure, LDS
//! footprint, instrumented sphere-of-replication exits) — the diagnostics
//! a build system would log when "RMT-izing" a kernel, plus a full
//! profiler dump for one kernel.
//!
//! ```text
//! cargo run --release --example compiler_diagnostics [-- --jobs N] [-- --profile]
//! ```
//!
//! `--jobs N` fans the per-kernel transform work across N worker threads
//! (default: available parallelism); the printed diagnostics are identical
//! for any N. `--profile` appends a cycle-attributed profile of one
//! transformed kernel: the stall-taxonomy breakdown plus the
//! provenance-derived split of its cycles into original / redundant /
//! detect-compare / protocol work.

use gpu_rmt::ir::analysis::lint::{lint_kernel, LintAssumptions, LintConfig};
use gpu_rmt::ir::analysis::{Protection, Residency};
use gpu_rmt::ir::{Block, Inst, KernelBuilder, MemSpace};
use gpu_rmt::kernels::{all, by_abbrev, run_original, run_rmt_profiled, Scale};
use gpu_rmt::rmt::{
    coverage, split_cycles, transform, verify_rmt, CycleBucket, TransformOptions, TransformReport,
};
use gpu_rmt::sim::{DeviceConfig, ProfileConfig};

fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--jobs" {
            i += 1;
            match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => return n,
                _ => {
                    eprintln!("bad --jobs {:?}; using 1", args.get(i));
                    return 1;
                }
            }
        }
        i += 1;
    }
    gpu_rmt::sim::pool::default_jobs()
}

fn profile_requested() -> bool {
    std::env::args().skip(1).any(|a| a == "--profile")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let jobs = jobs_from_args();
    println!(
        "{:<8} {:<18} {:>6} {:>7} {:>9} {:>9} {:>6}",
        "kernel", "flavor", "insts", "growth", "vgprs", "lds B", "exits"
    );
    // Transform every (kernel, flavor) cell across the worker pool; the
    // results come back in submission order, so output order is stable.
    let suite = all();
    let cells: Vec<_> = suite
        .iter()
        .flat_map(|b| {
            [
                TransformOptions::intra_plus_lds(),
                TransformOptions::intra_minus_lds(),
                TransformOptions::inter(),
                TransformOptions::selective(50),
            ]
            .map(|opts| (b.as_ref(), opts))
        })
        .collect();
    let lines = gpu_rmt::sim::pool::map(jobs, cells, |(b, opts)| {
        let kernel = b.kernel();
        let rk = transform(&kernel, &opts).map_err(|e| e.to_string())?;
        let r = TransformReport::new(&kernel, &rk);
        Ok::<_, String>(format!(
            "{:<8} {:<18} {:>2}->{:<3} {:>6.2}x {:>3}->{:<4} {:>3}->{:<5} {:>6}",
            b.abbrev(),
            r.flavor.to_string(),
            r.insts.0,
            r.insts.1,
            r.inst_growth(),
            r.pressure.0,
            r.pressure.1,
            r.lds_bytes.0,
            r.lds_bytes.1,
            r.total_exits(),
        ))
    });
    for line in lines {
        println!("{}", line?);
    }

    // A full single-kernel report + the profiler view of a run.
    let b = by_abbrev("R").expect("Reduction exists");
    let kernel = b.kernel();
    let rk = transform(&kernel, &TransformOptions::intra_minus_lds())?;
    println!("\n== detailed report ==\n");
    print!("{}", TransformReport::new(&kernel, &rk));

    println!("\n== profiler view of the original Reduction (paper scale) ==\n");
    let run = run_original(b.as_ref(), Scale::Paper, &DeviceConfig::radeon_hd_7790())?;
    print!("{}", run.stats.counters);

    // == static protection coverage ==
    //
    // The per-kernel report a compiler would print next to its transform
    // diagnostics: for each flavor, how every residency class of the
    // transformed kernel is protected, derived from the IR by the
    // coverage analysis (the same pass that regenerates Tables 2/3 and is
    // cross-validated by `repro coverage-static`).
    println!("\n== protection coverage of Reduction, per flavor ==\n");
    println!(
        "{:<18} {:>9} {:>4} {:>4} {:>4} {:>7}",
        "flavor", "residency", "D", "V", "M", "vuln%"
    );
    for opts in [
        TransformOptions::intra_plus_lds(),
        TransformOptions::intra_minus_lds(),
        TransformOptions::inter(),
        TransformOptions::intra_plus_lds().with_swizzle(),
        TransformOptions::selective(50),
    ] {
        let rk = transform(&kernel, &opts)?;
        let report = coverage::analyze(&rk);
        for res in Residency::ALL {
            let t = report.tallies(Some(res), false);
            if t.total() == 0 {
                continue;
            }
            println!(
                "{:<18} {:>9} {:>4} {:>4} {:>4} {:>6.1}%",
                opts.flavor.to_string(),
                res.label(),
                t.detected,
                t.vulnerable,
                t.masked,
                100.0 * t.vulnerability_fraction()
            );
        }
        // The heaviest vulnerable windows, with the analyzer's reasons —
        // where a compiler would point the user first.
        let mut vulns: Vec<_> = report
            .windows
            .iter()
            .filter(|w| !w.machinery && w.protection == Protection::Vulnerable)
            .collect();
        vulns.sort_by_key(|w| std::cmp::Reverse(w.weight));
        for w in vulns.iter().take(2) {
            println!(
                "    worst: r{} ({}, weight {}): {}",
                w.reg.0,
                w.residency.label(),
                w.weight,
                w.reason
            );
        }
    }

    // == static analysis: what the lint passes say about a buggy kernel ==
    //
    // A kernel in which every work-item writes its id to LDS byte 0, then
    // a barrier under a lane-dependent `if` — the two classic LDS bugs.
    println!("\n== lint diagnostics on a deliberately buggy kernel ==\n");
    let mut bld = KernelBuilder::new("buggy");
    bld.set_lds_bytes(64);
    let out = bld.buffer_param("out");
    let lid = bld.local_id(0);
    let zero = bld.const_u32(0);
    bld.store_local(zero, lid); // every work-item races on LDS byte 0
    bld.barrier();
    let v = bld.load_local(zero);
    let gid = bld.global_id(0);
    let sixteen = bld.const_u32(16);
    let c = bld.lt_u32(lid, sixteen);
    bld.if_(c, |b| b.barrier()); // divergent barrier
    let a = bld.elem_addr(out, gid);
    bld.store_global(a, v);
    let buggy = bld.finish();

    let cfg = LintConfig::with_assumptions(LintAssumptions {
        local_size: [Some(64), Some(1), Some(1)],
        wavefront: 64,
    });
    for d in lint_kernel(&buggy, &cfg) {
        println!("  {d}");
    }

    // == transform-invariant verifier ==
    //
    // The same machinery that runs as a debug assertion inside
    // `transform`: re-derive the RMT contract from the output IR. Strip
    // the detect-counter bumps from a transformed kernel and the verifier
    // reports exactly what was lost.
    println!("\n== RMT invariant verifier ==\n");
    let errs = verify_rmt(&kernel, &rk);
    println!("  intact transform: {} violations", errs.len());

    fn strip_atomics(b: &Block) -> Block {
        let mut insts = Vec::new();
        for inst in b.iter() {
            match inst {
                Inst::Atomic {
                    space: MemSpace::Global,
                    ..
                } => {}
                Inst::If {
                    cond,
                    then_blk,
                    else_blk,
                } => insts.push(Inst::If {
                    cond: *cond,
                    then_blk: strip_atomics(then_blk),
                    else_blk: strip_atomics(else_blk),
                }),
                Inst::While {
                    cond,
                    cond_reg,
                    body,
                } => insts.push(Inst::While {
                    cond: strip_atomics(cond),
                    cond_reg: *cond_reg,
                    body: strip_atomics(body),
                }),
                other => insts.push(other.clone()),
            }
        }
        Block(insts)
    }
    let mut tampered = rk.clone();
    tampered.kernel.body = strip_atomics(&tampered.kernel.body);
    for e in verify_rmt(&kernel, &tampered) {
        println!("  tampered (detect bumps removed): {e}");
    }

    // == --profile: where do the transformed kernel's cycles go? ==
    //
    // A profiled run of Reduction under Intra-Group+LDS: every wave-slot
    // tick attributed to a stall category, and the provenance tags used
    // to split the wave-occupied ticks into the paper's overhead buckets.
    if profile_requested() {
        println!("\n== cycle-attributed profile: Reduction / Intra+LDS (small scale) ==\n");
        let (_, prof, rk) = run_rmt_profiled(
            b.as_ref(),
            Scale::Small,
            &DeviceConfig::radeon_hd_7790(),
            &TransformOptions::intra_plus_lds(),
            &ProfileConfig::default(),
        )?;
        print!("{}", prof.render());
        let split = split_cycles(&rk, &prof);
        println!(
            "\nRMT cycle split: original {:.1}%, redundant {:.1}%, \
             detect-compare {:.1}%, protocol {:.1}%",
            split.pct(CycleBucket::Original),
            split.pct(CycleBucket::Redundant),
            split.pct(CycleBucket::DetectCompare),
            split.pct(CycleBucket::Protocol),
        );
    }
    Ok(())
}
