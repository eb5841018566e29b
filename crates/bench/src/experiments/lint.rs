//! `repro lint` — static analysis over the whole benchmark suite.
//!
//! Runs the `rmt-ir` lint passes (barrier-interval race detector,
//! divergence checker, LDS bounds) over every suite kernel as written and
//! under every RMT transform flavor, at the work-group shapes each
//! benchmark actually launches with (dimension 0 doubled for intra-group
//! flavors, mirroring the launcher). A clean table is the static
//! counterpart of the simulator's output-equivalence tests: the
//! transforms introduce no races, divergent barriers, or out-of-bounds
//! LDS traffic.

use crate::{ExpConfig, Matrix};
use gcn_sim::Device;
use rmt_core::{transform, RmtFlavor, TransformOptions};
use rmt_ir::analysis::lint::{lint_kernel, LintAssumptions, LintConfig};
use rmt_ir::Kernel;
use rmt_kernels::{all, Benchmark};

/// The five lint postures, in paper order: the original kernel and the
/// four full-stage flavors.
fn variants() -> Vec<(&'static str, Option<TransformOptions>)> {
    let flavors = TransformOptions::full_stage().map(|(label, opts)| (label, Some(opts)));
    std::iter::once(("Original", None)).chain(flavors).collect()
}

/// Distinct per-pass work-group shapes of a benchmark's plan.
fn shapes(bench: &dyn Benchmark, cfg: &ExpConfig, double_dim0: bool) -> Vec<[usize; 3]> {
    let mut dev = Device::new(cfg.device.clone());
    let plan = bench.plan(cfg.scale, &mut dev);
    let mut shapes: Vec<[usize; 3]> = Vec::new();
    for pass in &plan.passes {
        let mut local = pass.local;
        if double_dim0 {
            local[0] *= 2;
        }
        if !shapes.contains(&local) {
            shapes.push(local);
        }
    }
    shapes
}

fn lint_at(kernel: &Kernel, local: [usize; 3]) -> Vec<String> {
    let cfg = LintConfig::with_assumptions(LintAssumptions {
        local_size: [
            Some(local[0] as u32),
            Some(local[1] as u32),
            Some(local[2] as u32),
        ],
        wavefront: 64,
    });
    lint_kernel(kernel, &cfg)
        .into_iter()
        .map(|d| format!("(local {local:?}) {d}"))
        .collect()
}

/// Renders the suite-wide lint table. Errs (with the full report) when any
/// kernel/flavor combination produces diagnostics, so `repro lint` exits
/// nonzero on regressions.
///
/// # Errors
///
/// Returns the rendered report as an error string if any diagnostics were
/// produced.
pub fn lint(cfg: &ExpConfig) -> Result<String, String> {
    let vs = variants();
    let columns: Vec<&str> = vs.iter().map(|(label, _)| *label).collect();
    let mut matrix = Matrix::new("kernel", &columns);

    let mut details: Vec<String> = Vec::new();
    let mut total = 0usize;

    // One cell per (kernel, posture), fanned across the pool; the merge
    // below and the explicit row sort keep the table stable for any job
    // count.
    let suite = all();
    let cells_in: Vec<(&dyn Benchmark, &str, Option<TransformOptions>)> = suite
        .iter()
        .flat_map(|b| {
            vs.iter()
                .map(move |(label, opts)| (b.as_ref(), *label, *opts))
        })
        .collect();
    let outs = gcn_sim::pool::map(cfg.jobs, cells_in, |(bench, label, opts)| {
        let kernel = match &opts {
            None => bench.kernel(),
            Some(o) => match transform(&bench.kernel(), o) {
                Ok(rk) => rk.kernel,
                Err(e) => {
                    let detail = format!("{} {label}: transform failed: {e}", bench.abbrev());
                    return (String::from("ERR"), vec![detail]);
                }
            },
        };
        let doubles = matches!(&opts, Some(o) if o.flavor != RmtFlavor::Inter);
        let mut cell_details = Vec::new();
        for local in shapes(bench, cfg, doubles) {
            for d in lint_at(&kernel, local) {
                cell_details.push(format!("{} {label} {d}", bench.abbrev()));
            }
        }
        let cell = if cell_details.is_empty() {
            "clean".into()
        } else {
            cell_details.len().to_string()
        };
        (cell, cell_details)
    });
    let mut outs = outs.into_iter();
    for bench in &suite {
        let mut cells = Vec::new();
        for _ in &vs {
            let (cell, cell_details) = outs.next().expect("one result per cell");
            total += cell_details.len();
            details.extend(cell_details);
            cells.push(cell);
        }
        matrix.row(bench.abbrev(), cells);
    }
    let order: Vec<&str> = suite.iter().map(|b| b.abbrev()).collect();
    matrix.sort_rows_by_label_order(&order);

    let mut out = if cfg.json {
        format!(
            "{{\"experiment\":\"lint\",\"diagnostics\":{total},\"matrix\":{}}}\n",
            matrix.to_json()
        )
    } else {
        let mut s = matrix.render();
        s.push_str(&format!("\n{total} diagnostics\n"));
        s
    };
    if total > 0 {
        if !cfg.json {
            out.push('\n');
            out.push_str(&details.join("\n"));
            out.push('\n');
        }
        return Err(out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_lints_clean_at_small_scale() {
        let report = lint(&ExpConfig::small()).expect("suite must lint clean");
        assert!(report.contains("clean"));
        assert!(report.contains("0 diagnostics"));
    }
}
