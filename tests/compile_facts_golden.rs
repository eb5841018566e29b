//! Golden snapshot of the static facts `compile` derives: pins, byte for
//! byte, what the simulator's compile step and the shared register
//! fixpoints report for a fixed set of kernels.
//!
//! The analyses behind these facts (the uniformity and divergence
//! fixpoints, liveness, validation) get reworked for cost; this test is
//! the proof such rewrites leave their answers unchanged. One cell is one
//! kernel and holds:
//!
//! * the `validate` verdict;
//! * `nregs` and `pressure` of the compiled kernel;
//! * per flat op, whether it issues on the scalar unit and the registers
//!   it reads, in operand order;
//! * the `uniform_regs` and `group_divergent_regs` sets;
//! * every register's `live_spans` entry.
//!
//! A cell of a kernel as written also holds the `harden` plan at budgets
//! 0, 50 and 100: every exit site, the selected exits, each candidate
//! slice's exits, instructions, cost and marginal cost, and the plan's
//! total and selected cost. A cell of a transformed kernel also holds the
//! `verify_rmt` verdict, every window of `rmt_core::coverage::analyze`,
//! one line per window, and the `validate_transform` summary: the exits,
//! compares and loops proved, and each residue's kind and detail.
//!
//! The kernels are every suite kernel and the first [`POOL_POSTURED`]
//! generated pool cases, each as written and under the seven postures
//! `compile-suite` runs, and the rest of the first [`POOL_CASES`] pool
//! cases as written.
//!
//! To regenerate after an intentional change to the analyses:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test compile_facts_golden
//! ```

use gpu_rmt::ir::analysis::{group_divergent_regs, harden, live_spans, uniform_regs, HardenConfig};
use gpu_rmt::ir::fuzz::{child_seed, generate, GenConfig};
use gpu_rmt::ir::{validate, Kernel, Reg};
use gpu_rmt::kernels::all;
use gpu_rmt::rmt::{
    coverage, transform, validate_transform, verify_rmt, RmtKernel, TransformOptions,
};
use gpu_rmt::sim::{Device, DeviceConfig};
use std::fmt::Write as _;

const SNAP_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/compile_facts_golden.snap"
);

/// Root seed of the generated cases (the benchmark pool's seed).
const POOL_SEED: u64 = 2014;

/// Generated cases pinned, starting at case 0.
const POOL_CASES: u64 = 64;

/// Leading generated cases pinned under every posture too, as
/// `compile-suite` transforms them.
const POOL_POSTURED: u64 = 16;

/// The original kernel plus the seven postures `compile-suite` runs.
fn postures() -> Vec<(&'static str, Option<TransformOptions>)> {
    let [a, b, c, d] = TransformOptions::full_stage();
    vec![
        ("Original", None),
        (a.0, Some(a.1)),
        (b.0, Some(b.1)),
        (c.0, Some(c.1)),
        (d.0, Some(d.1)),
        ("Sel-0", Some(TransformOptions::selective(0))),
        ("Sel-50", Some(TransformOptions::selective(50))),
        ("Sel-100", Some(TransformOptions::selective(100))),
    ]
}

/// Registers as sorted, run-length ranges: `0-3,7,9-10`.
fn ranges(mut regs: Vec<Reg>) -> String {
    regs.sort();
    let mut out = String::new();
    let mut i = 0;
    while i < regs.len() {
        let start = regs[i].0;
        let mut end = start;
        while i + 1 < regs.len() && regs[i + 1].0 == end + 1 {
            i += 1;
            end += 1;
        }
        if !out.is_empty() {
            out.push(',');
        }
        if start == end {
            let _ = write!(out, "{start}");
        } else {
            let _ = write!(out, "{start}-{end}");
        }
        i += 1;
    }
    out
}

/// Comma-joined values of a sorted collection of indices.
fn list<'a>(xs: impl IntoIterator<Item = &'a usize>) -> String {
    xs.into_iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Appends one kernel's cell; `false` if the kernel does not validate.
fn cell(out: &mut String, header: &str, kernel: &Kernel, dev: &Device) -> bool {
    let _ = writeln!(out, "== {header}");
    match validate(kernel) {
        Ok(()) => {
            let _ = writeln!(out, "validate: ok");
        }
        Err(e) => {
            let _ = writeln!(out, "validate: {e}");
            return false;
        }
    }
    let ck = dev.compile(kernel).expect("a valid kernel compiles");
    let _ = writeln!(out, "nregs {} pressure {}", ck.nregs, ck.pressure);
    let mut ops = String::new();
    for pc in 0..ck.ops.len() {
        ops.push(if ck.issues_scalar(pc) { 'S' } else { 'V' });
        let srcs: Vec<String> = ck.op_srcs(pc).iter().map(|r| r.0.to_string()).collect();
        if !srcs.is_empty() {
            let _ = write!(ops, "{}", srcs.join(","));
        }
        ops.push(' ');
    }
    let _ = writeln!(out, "ops: {}", ops.trim_end());
    let uniform: Vec<Reg> = uniform_regs(kernel).into_iter().collect();
    let _ = writeln!(out, "uniform: {}", ranges(uniform));
    let divergent: Vec<Reg> = group_divergent_regs(kernel).into_iter().collect();
    let _ = writeln!(out, "divergent: {}", ranges(divergent));
    let spans: Vec<String> = live_spans(kernel)
        .iter()
        .enumerate()
        .filter_map(|(r, span)| span.map(|(s, e)| format!("{r}:{s}-{e}")))
        .collect();
    let _ = writeln!(out, "spans: {}", spans.join(" "));
    true
}

/// Appends the `harden` plans of a kernel as written.
fn plan_lines(out: &mut String, kernel: &Kernel) {
    for budget in [0, 50, 100] {
        let plan = harden(kernel, &HardenConfig::with_budget(budget));
        let exits: Vec<String> = plan
            .exits
            .iter()
            .map(|e| {
                let kind = if e.is_store { 's' } else { 'a' };
                format!("{}@{}{kind}d{}", e.ordinal, e.idx, e.loop_depth)
            })
            .collect();
        let _ = writeln!(
            out,
            "harden {budget}: exits {} selected {} cost {}/{}",
            exits.join(" "),
            list(&plan.selected_exits),
            plan.selected_cost,
            plan.total_cost
        );
        for s in &plan.slices {
            let _ = writeln!(
                out,
                "  slice exits {} insts {} cost {} marginal {}",
                list(&s.exits),
                list(&s.insts),
                s.cost,
                s.marginal_cost
            );
        }
    }
}

/// Appends the `verify_rmt` verdict, coverage windows and `tv` summary of
/// a transformed kernel.
fn rmt_lines(out: &mut String, original: &Kernel, rk: &RmtKernel) {
    let errors: Vec<String> = verify_rmt(original, rk)
        .iter()
        .map(ToString::to_string)
        .collect();
    if errors.is_empty() {
        let _ = writeln!(out, "verify: ok");
    } else {
        let _ = writeln!(out, "verify: {}", errors.join("; "));
    }
    let report = coverage::analyze(rk);
    let _ = writeln!(out, "windows: {}", report.windows.len());
    for w in &report.windows {
        let _ = writeln!(
            out,
            "  {} {} {} w{}{} {}",
            w.reg,
            w.residency.label(),
            w.protection.letter(),
            w.weight,
            if w.machinery { " m" } else { "" },
            w.reason
        );
    }
    let tv = validate_transform(original, rk);
    let _ = writeln!(
        out,
        "tv: exits {} compares {} loops {} residue {}",
        tv.exits_proved,
        tv.compares_proved,
        tv.loops_proved,
        tv.residue.len()
    );
    for r in &tv.residue {
        let _ = writeln!(out, "  {:?} {}", r.kind, r.detail);
    }
}

/// Every posture of one kernel.
fn kernel_cells(out: &mut String, name: &str, kernel: &Kernel, dev: &Device) {
    for (label, opts) in postures() {
        let header = format!("{name} {label}");
        match &opts {
            None => {
                if cell(out, &header, kernel, dev) {
                    plan_lines(out, kernel);
                }
            }
            Some(o) => match transform(kernel, o) {
                Ok(rk) => {
                    if cell(out, &header, &rk.kernel, dev) {
                        rmt_lines(out, kernel, &rk);
                    }
                }
                Err(e) => {
                    let _ = writeln!(out, "== {header}: transform failed: {e}");
                }
            },
        }
    }
}

fn snapshot() -> String {
    let dev = Device::new(DeviceConfig::radeon_hd_7790());
    let mut out = String::new();
    for bench in all() {
        kernel_cells(&mut out, bench.abbrev(), &bench.kernel(), &dev);
    }
    for i in 0..POOL_CASES {
        let case = generate(child_seed(POOL_SEED, i), &GenConfig::default());
        let name = format!("pool case {i}");
        if i < POOL_POSTURED {
            kernel_cells(&mut out, &name, &case.kernel, &dev);
        } else if cell(&mut out, &name, &case.kernel, &dev) {
            plan_lines(&mut out, &case.kernel);
        }
    }
    out
}

#[test]
fn compile_facts_match_golden_snapshot() {
    let got = snapshot();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(SNAP_PATH, &got).expect("write golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(SNAP_PATH).expect(
        "golden snapshot missing; create it with \
         UPDATE_GOLDEN=1 cargo test --test compile_facts_golden",
    );
    if got != want {
        let mismatch = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w);
        match mismatch {
            Some((i, (g, w))) => panic!(
                "compile facts diverged from the golden snapshot at line {}:\n  \
                 got:  {g}\n  want: {w}\n\
                 (if intended, regenerate with UPDATE_GOLDEN=1)",
                i + 1
            ),
            None => panic!(
                "compile facts diverged from the golden snapshot (length only: \
                 {} vs {} bytes); if intended, regenerate with UPDATE_GOLDEN=1",
                got.len(),
                want.len()
            ),
        }
    }
}
