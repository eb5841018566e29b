//! `repro tv` — translation validation over the whole benchmark suite.
//!
//! Runs the symbolic equivalence engine ([`rmt_core::validate_transform`])
//! over every suite kernel under every full-stage RMT flavor and three
//! Selective budgets. Each cell reports the discharged obligations
//! (`<exits>e <compares>c <loops>l`); any unproved obligation turns the
//! cell into a residue count and fails the experiment. A fully-proved
//! table is the static counterpart of the simulator's output-equivalence
//! tests: every transform in the suite is *proved* fault-free-equivalent
//! to its original, with every covered sphere exit compare-dominated —
//! not merely observed to agree on one input.

use crate::{ExpConfig, Matrix};
use rmt_core::{transform, validate_transform, TransformOptions};
use rmt_kernels::{all, Benchmark};

/// The seven validated postures: the paper's flavors plus the Selective
/// budget sweep endpoints and midpoint.
fn variants() -> Vec<(&'static str, TransformOptions)> {
    let mut vs = TransformOptions::full_stage().to_vec();
    vs.extend([
        ("Sel-0", TransformOptions::selective(0)),
        ("Sel-50", TransformOptions::selective(50)),
        ("Sel-100", TransformOptions::selective(100)),
    ]);
    vs
}

/// Renders the suite-wide translation-validation table. Errs (with the
/// full residue report) when any kernel/flavor pair leaves an obligation
/// unproved, so `repro tv` exits nonzero on regressions.
///
/// # Errors
///
/// Returns the rendered report as an error string if any obligation did
/// not discharge.
pub fn tv(cfg: &ExpConfig) -> Result<String, String> {
    let vs = variants();
    let columns: Vec<&str> = vs.iter().map(|(label, _)| *label).collect();
    let mut matrix = Matrix::new("kernel", &columns);

    let mut details: Vec<String> = Vec::new();
    let mut unproved = 0usize;
    let mut proved_cells = 0usize;

    // One cell per (kernel, flavor), fanned across the pool; the merge
    // below and the explicit row sort keep the table byte-stable for any
    // job count (the engine itself is deterministic).
    let suite = all();
    let cells_in: Vec<(&dyn Benchmark, &str, TransformOptions)> = suite
        .iter()
        .flat_map(|b| {
            vs.iter()
                .map(move |(label, opts)| (b.as_ref(), *label, *opts))
        })
        .collect();
    let outs = gcn_sim::pool::map(cfg.jobs, cells_in, |(bench, label, opts)| {
        let kernel = bench.kernel();
        let rk = match transform(&kernel, &opts) {
            Ok(rk) => rk,
            Err(e) => {
                let detail = format!("{} {label}: transform failed: {e}", bench.abbrev());
                return (String::from("ERR"), vec![detail]);
            }
        };
        let rep = validate_transform(&kernel, &rk);
        if rep.proved() {
            let cell = format!(
                "{}e {}c {}l",
                rep.exits_proved, rep.compares_proved, rep.loops_proved
            );
            (cell, Vec::new())
        } else {
            let cell_details: Vec<String> = rep
                .residue
                .iter()
                .map(|r| format!("{} {label}: {}", bench.abbrev(), r.detail))
                .collect();
            (rep.residue.len().to_string(), cell_details)
        }
    });
    let mut outs = outs.into_iter();
    for bench in &suite {
        let mut cells = Vec::new();
        for _ in &vs {
            let (cell, cell_details) = outs.next().expect("one result per cell");
            if cell_details.is_empty() {
                proved_cells += 1;
            }
            unproved += cell_details.len();
            details.extend(cell_details);
            cells.push(cell);
        }
        matrix.row(bench.abbrev(), cells);
    }
    let order: Vec<&str> = suite.iter().map(|b| b.abbrev()).collect();
    matrix.sort_rows_by_label_order(&order);

    let mut out = if cfg.json {
        format!(
            "{{\"experiment\":\"tv\",\"proved_cells\":{proved_cells},\"unproved\":{unproved},\
             \"matrix\":{}}}\n",
            matrix.to_json()
        )
    } else {
        let mut s = matrix.render();
        s.push_str(&format!(
            "\n{proved_cells} cells proved, {unproved} obligations unproved\n"
        ));
        s
    };
    if unproved > 0 {
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
    fn suite_proves_at_small_scale() {
        let report = tv(&ExpConfig::small()).expect("every transform must prove");
        assert!(report.contains("0 obligations unproved"));
    }
}
