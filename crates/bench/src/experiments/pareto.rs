//! `repro pareto` — the overhead-vs-coverage Pareto frontier of the
//! budgeted Selective flavor.
//!
//! Every suite kernel is transformed with `Selective{budget}` for each
//! budget on the grid (or the single `--protect` value), then measured
//! three ways:
//!
//! * **Overhead** — fault-free cycles over the original kernel's cycles,
//!   both runs verified against the CPU reference (so every Selective
//!   plan is also an end-to-end semantics check);
//! * **Coverage** — the static analysis's liveness-weighted Vulnerable
//!   fraction and Detected/Vulnerable window counts for the transformed
//!   kernel;
//! * **Soundness** — the same seeded fault-injection campaign as
//!   `coverage-static`, with each SDC classified through the unified
//!   [`rmt_core::coverage::fault_class`] lookup: silent corruption at a
//!   site the plan claims Detected falsifies the plan and fails the
//!   experiment.
//!
//! The summary aggregates each budget across the suite (mean overhead,
//! mean vulnerable fraction) and marks the budgets on the Pareto
//! frontier — those not dominated by another budget that is both cheaper
//! and better covered. Cells fan out across `--jobs` workers and merge in
//! submission order, so the report is byte-identical for any job count.

use super::coverage_static::{inject, json_strings, with_violations};
use crate::cells::{CellStore, Posture};
use crate::table::{pct, x, Matrix, Table};
use crate::ExpConfig;
use rmt_core::campaign::Outcome;
use rmt_core::{coverage as cov, transform, TransformOptions};
use rmt_kernels::{Benchmark, RunOutcome};

/// The default budget grid, in percent.
const BUDGETS: [u8; 6] = [0, 25, 50, 75, 90, 100];

/// One (kernel, budget) measurement.
struct Point {
    budget: u8,
    overhead: f64,
    vuln_fraction: f64,
    detected: usize,
    vulnerable: usize,
    planned_exits: u32,
    candidate_exits: u32,
    injections: usize,
    violations: Vec<String>,
}

/// Runs one (kernel, budget) cell from the stored fault-free runs of the
/// original and the Selective kernel: transform, static coverage and the
/// injection campaign. Pure in (benchmark, budget, config).
fn run_cell(
    cfg: &ExpConfig,
    bench: &dyn Benchmark,
    budget: u8,
    [base, rmt]: [&RunOutcome; 2],
) -> Result<Point, String> {
    let ctx = format!("{} Selective({budget}%)", bench.abbrev());
    let opts = TransformOptions::selective(budget);
    let rk = transform(&bench.kernel(), &opts).map_err(|e| format!("{ctx}: transform: {e}"))?;
    let sel = rk
        .meta
        .selective
        .expect("Selective transform carries its plan meta");
    let report = cov::analyze(&rk);
    let t = report.tallies(None, false);

    if rmt.detections != 0 {
        return Err(format!(
            "{ctx}: fault-free run reported {} detections",
            rmt.detections
        ));
    }
    let overhead = rmt.stats.cycles as f64 / base.stats.cycles as f64;

    // The injection campaign, exactly as `coverage-static` runs it.
    let (outcomes, violations) = inject(cfg, bench, &rk, &report, &ctx)?;

    Ok(Point {
        budget,
        overhead,
        vuln_fraction: t.vulnerability_fraction(),
        detected: t.detected,
        vulnerable: t.vulnerable,
        planned_exits: sel.planned_exits,
        candidate_exits: sel.candidate_exits,
        injections: outcomes.iter().filter(|&&o| o != Outcome::Missed).count(),
        violations,
    })
}

/// Budgets on the Pareto frontier of (mean overhead, mean vulnerable
/// fraction): a budget is dominated when another is no worse on both axes
/// and strictly better on one.
fn frontier(means: &[(u8, f64, f64)]) -> Vec<u8> {
    means
        .iter()
        .filter(|(_, o, v)| {
            !means
                .iter()
                .any(|(_, o2, v2)| (o2 <= o && v2 <= v) && (o2 < o || v2 < v))
        })
        .map(|(b, _, _)| *b)
        .collect()
}

/// The `pareto` experiment.
///
/// # Errors
///
/// Returns the full report as an error string when any soundness or
/// recall violation is found (so `repro pareto` exits nonzero), or when a
/// transform or fault-free launch fails outright.
pub fn pareto(cfg: &ExpConfig, cells: &mut CellStore) -> Result<String, String> {
    let budgets: Vec<u8> = match cfg.protect {
        Some(b) => vec![b.min(100)],
        None => BUDGETS.to_vec(),
    };
    let columns: Vec<String> = budgets.iter().map(|b| format!("{b}%")).collect();
    let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut matrix = Matrix::new("kernel", &column_refs);

    let suite = rmt_kernels::all();
    // Fault-free runs from the store; one injection campaign per cell.
    let selective = budgets
        .iter()
        .map(|&b| Posture::Rmt(TransformOptions::selective(b)));
    let postures: Vec<Posture> = std::iter::once(Posture::Original)
        .chain(selective)
        .collect();
    let runs = cells.suite(cfg, "pareto", &postures)?;
    let campaigns: Vec<_> = suite
        .iter()
        .zip(&runs)
        .flat_map(|(b, (_, r))| {
            let cells = budgets.iter().zip(&r[1..]);
            cells.map(move |(&budget, rmt)| (b.as_ref(), budget, [r[0], *rmt]))
        })
        .enumerate()
        .collect();
    let outs = gcn_sim::pool::map(cfg.jobs, campaigns, |(i, (bench, budget, runs))| {
        crate::obs::cell_obs(
            "pareto",
            bench.abbrev(),
            // Distinct from the stored fault-free Selective cell's label.
            &format!("Selective({budget}%)+inject"),
            i,
            |_: &Point| (0, 0),
            || run_cell(cfg, bench, budget, runs),
        )
    });

    let mut violations: Vec<String> = Vec::new();
    let mut injections = 0usize;
    // points[j] collects the suite's measurements for budgets[j].
    let mut points: Vec<Vec<Point>> = budgets.iter().map(|_| Vec::new()).collect();
    let mut outs = outs.into_iter();
    let mut json_rows = String::new();
    for bench in &suite {
        let mut row_cells = Vec::new();
        let mut json_points = String::new();
        for budget_points in points.iter_mut() {
            let p = outs.next().expect("one result per cell")?;
            row_cells.push(format!(
                "{} {} {}/{}",
                x(p.overhead),
                pct(100.0 * p.vuln_fraction),
                p.planned_exits,
                p.candidate_exits
            ));
            if !json_points.is_empty() {
                json_points.push(',');
            }
            json_points.push_str(&format!(
                "{{\"budget\":{},\"overhead\":{:.4},\"vulnerable_fraction\":{:.4},\
                 \"detected\":{},\"vulnerable\":{},\"planned_exits\":{},\"candidate_exits\":{}}}",
                p.budget,
                p.overhead,
                p.vuln_fraction,
                p.detected,
                p.vulnerable,
                p.planned_exits,
                p.candidate_exits
            ));
            violations.extend(p.violations.iter().cloned());
            injections += p.injections;
            budget_points.push(p);
        }
        matrix.row(bench.abbrev(), row_cells);
        if !json_rows.is_empty() {
            json_rows.push(',');
        }
        json_rows.push_str(&format!(
            "{{\"kernel\":{:?},\"points\":[{json_points}]}}",
            bench.abbrev()
        ));
    }
    let order: Vec<&str> = suite.iter().map(|b| b.abbrev()).collect();
    matrix.sort_rows_by_label_order(&order);

    // Per-budget suite means and the frontier over them.
    let means: Vec<(u8, f64, f64)> = budgets
        .iter()
        .zip(&points)
        .map(|(&b, ps)| {
            let n = ps.len() as f64;
            let o = ps.iter().map(|p| p.overhead).sum::<f64>() / n;
            let v = ps.iter().map(|p| p.vuln_fraction).sum::<f64>() / n;
            (b, o, v)
        })
        .collect();
    let front = frontier(&means);

    let mut summary = Table::new(&["budget", "mean overhead", "mean vulnerable", "frontier"]);
    for &(b, o, v) in &means {
        summary.row(vec![
            format!("{b}%"),
            x(o),
            pct(100.0 * v),
            if front.contains(&b) {
                "*".into()
            } else {
                String::new()
            },
        ]);
    }

    let out = if cfg.json {
        let viol = json_strings(&violations);
        let budgets_json = budgets
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let frontier_json = front
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"experiment\":\"pareto\",\"budgets\":[{budgets_json}],\
             \"rows\":[{json_rows}],\"frontier\":[{frontier_json}],\
             \"injections\":{injections},\"violations\":{viol}}}\n"
        )
    } else {
        format!(
            "Selective hardening: overhead vs coverage per protection budget\n\
             (slowdown over original, liveness-weighted vulnerable fraction,\n\
             protected/candidate SoR exits):\n\n{}\n\
             Suite means per budget (`*` marks the Pareto frontier):\n\n{}\n\
             {injections} injections, {} violations\n",
            matrix.render(),
            summary.render(),
            violations.len()
        )
    };
    with_violations(out, &violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn protect_cfg(budget: u8) -> ExpConfig {
        let mut cfg = ExpConfig::small();
        cfg.protect = Some(budget);
        cfg
    }

    #[test]
    fn single_budget_cell_is_sound_at_small_scale() {
        let report =
            pareto(&protect_cfg(60), &mut CellStore::new()).expect("soundness/recall must hold");
        assert!(report.contains("0 violations"), "{report}");
        assert!(report.contains("60%"), "{report}");
    }

    #[test]
    fn report_is_byte_identical_for_any_job_count() {
        let serial = pareto(&protect_cfg(75), &mut CellStore::new()).unwrap();
        let fanned = pareto(&protect_cfg(75).with_jobs(8), &mut CellStore::new()).unwrap();
        assert_eq!(serial, fanned);
    }

    #[test]
    fn json_mode_emits_the_frontier() {
        let mut cfg = protect_cfg(100);
        cfg.json = true;
        let out = pareto(&cfg, &mut CellStore::new()).unwrap();
        assert!(out.starts_with("{\"experiment\":\"pareto\""), "{out}");
        assert!(out.contains("\"frontier\":[100]"), "{out}");
        assert!(out.contains("\"violations\":[]"), "{out}");
    }

    #[test]
    fn frontier_drops_dominated_budgets() {
        let means = vec![
            (0u8, 1.0, 0.9),
            (50u8, 1.5, 0.4),
            (75u8, 1.6, 0.4),
            (100u8, 2.0, 0.1),
        ];
        assert_eq!(frontier(&means), vec![0, 50, 100]);
    }
}
