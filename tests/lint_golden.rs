//! Golden lint snapshot: pins every diagnostic the lint emits on a fixed
//! set of cells, byte for byte.
//!
//! The lint's cost structure gets reworked over time (how branches merge,
//! how accesses are stored, when race facts are derived); this test is the
//! proof such rewrites leave the analysis unchanged. A cell is one kernel
//! linted at one work-group shape under one configuration; the snapshot
//! holds each cell's sorted diagnostic messages. The cells are:
//!
//! * every suite kernel, as written and under the seven postures
//!   `repro tv` proves, at each work-group shape its small-scale plan
//!   launches (dimension 0 doubled where the transform doubles the group),
//!   with those launch assumptions;
//! * the same cells with no launch assumptions (`LintConfig::default()`),
//!   which reach the race, message and opaque-atom rendering paths;
//! * the first generated pool cases, as written and under the seven
//!   postures, at their own work-group size.
//!
//! To regenerate after an intentional change to the analysis:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test lint_golden
//! ```

use gpu_rmt::ir::analysis::lint::{lint_kernel, LintAssumptions, LintConfig};
use gpu_rmt::ir::fuzz::{child_seed, generate, GenConfig};
use gpu_rmt::ir::Kernel;
use gpu_rmt::kernels::{all, Scale};
use gpu_rmt::rmt::{transform, TransformOptions};
use gpu_rmt::sim::{Device, DeviceConfig};
use std::fmt::Write as _;

const SNAP_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/lint_golden.snap");

/// Root seed of the generated cases (the benchmark pool's seed).
const POOL_SEED: u64 = 2014;

/// Generated cases pinned, starting at case 0.
const POOL_CASES: u64 = 48;

/// The original kernel plus the seven postures `repro tv` proves.
fn postures() -> Vec<(&'static str, Option<TransformOptions>)> {
    vec![
        ("Original", None),
        ("Intra+LDS", Some(TransformOptions::intra_plus_lds())),
        ("Intra-LDS", Some(TransformOptions::intra_minus_lds())),
        ("Inter", Some(TransformOptions::inter())),
        (
            "FAST",
            Some(TransformOptions::intra_plus_lds().with_swizzle()),
        ),
        ("Sel-0", Some(TransformOptions::selective(0))),
        ("Sel-50", Some(TransformOptions::selective(50))),
        ("Sel-100", Some(TransformOptions::selective(100))),
    ]
}

fn assumptions(local: [usize; 3]) -> LintConfig {
    LintConfig::with_assumptions(LintAssumptions {
        local_size: local.map(|n| Some(n as u32)),
        wavefront: 64,
    })
}

/// Appends one cell: a header line, then the sorted diagnostics.
fn cell(out: &mut String, header: &str, kernel: &Kernel, cfg: &LintConfig) {
    let mut diags: Vec<String> = lint_kernel(kernel, cfg)
        .iter()
        .map(|d| d.to_string())
        .collect();
    diags.sort();
    let _ = writeln!(out, "== {header} ({} diagnostics)", diags.len());
    for d in diags {
        let _ = writeln!(out, "{d}");
    }
}

/// Lints `kernel` under every posture at each of `shapes`; with
/// `unassumed`, each posture is also linted with no launch assumptions.
fn kernel_cells(
    out: &mut String,
    name: &str,
    kernel: &Kernel,
    shapes: &[[usize; 3]],
    unassumed: bool,
) {
    for (label, opts) in postures() {
        let (k, doubles) = match &opts {
            None => (kernel.clone(), false),
            Some(o) => match transform(kernel, o) {
                Ok(rk) => {
                    let doubles = rk.meta.doubles_workgroup();
                    (rk.kernel, doubles)
                }
                Err(e) => {
                    let _ = writeln!(out, "== {name} {label}: transform failed: {e}");
                    continue;
                }
            },
        };
        for &shape in shapes {
            let mut local = shape;
            if doubles {
                local[0] *= 2;
            }
            cell(
                out,
                &format!("{name} {label} local {local:?}"),
                &k,
                &assumptions(local),
            );
        }
        if unassumed {
            cell(
                out,
                &format!("{name} {label} unassumed"),
                &k,
                &LintConfig::default(),
            );
        }
    }
}

fn snapshot() -> String {
    let mut out = String::new();
    for bench in all() {
        let mut dev = Device::new(DeviceConfig::radeon_hd_7790());
        let mut shapes: Vec<[usize; 3]> = Vec::new();
        for pass in bench.plan(Scale::Small, &mut dev).passes {
            if !shapes.contains(&pass.local) {
                shapes.push(pass.local);
            }
        }
        kernel_cells(&mut out, bench.abbrev(), &bench.kernel(), &shapes, true);
    }
    for i in 0..POOL_CASES {
        let case = generate(child_seed(POOL_SEED, i), &GenConfig::default());
        let shape = [case.local as usize, 1, 1];
        kernel_cells(
            &mut out,
            &format!("pool case {i}"),
            &case.kernel,
            &[shape],
            false,
        );
    }
    out
}

#[test]
fn lint_diagnostics_match_golden_snapshot() {
    let got = snapshot();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(SNAP_PATH, &got).expect("write golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(SNAP_PATH).expect(
        "golden snapshot missing; create it with \
         UPDATE_GOLDEN=1 cargo test --test lint_golden",
    );
    if got != want {
        let mismatch = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w);
        match mismatch {
            Some((i, (g, w))) => panic!(
                "lint diagnostics diverged from the golden snapshot at line {}:\n  \
                 got:  {g}\n  want: {w}\n\
                 (if intended, regenerate with UPDATE_GOLDEN=1)",
                i + 1
            ),
            None => panic!(
                "lint diagnostics diverged from the golden snapshot (length only: \
                 {} vs {} bytes); if intended, regenerate with UPDATE_GOLDEN=1",
                got.len(),
                want.len()
            ),
        }
    }
}
