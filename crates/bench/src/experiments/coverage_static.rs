//! `repro coverage-static` — static protection-coverage matrix, cross-
//! validated against fault injection.
//!
//! For every suite kernel under every full-stage RMT flavor, the static
//! coverage analysis ([`rmt_core::coverage`]) classifies each residency
//! window as Detected / Vulnerable / Masked. The experiment renders the
//! 16×4 matrix of liveness-weighted vulnerability fractions, then checks
//! the analysis against the simulator's fault injector on concrete sites
//! the analysis itself attributed ([`FaultTarget::ir_reg`]):
//!
//! * **Soundness** — a fault injected at a site the analysis classified
//!   *Detected* must never surface as silent data corruption. One SDC at a
//!   Detected site falsifies the analysis and fails the experiment.
//! * **Recall** — every observed SDC must land at a site the analysis
//!   classified *Vulnerable* (detection-or-hang is acceptable anywhere;
//!   silent corruption is only acceptable where predicted).

use crate::table::Matrix;
use crate::ExpConfig;
use gcn_sim::{CompiledKernel, Device, DeviceConfig, FaultPlan};
use rmt_core::campaign::{self, Observed, Outcome, SiteKind, Violation};
use rmt_core::{coverage as cov, transform, RmtError, RmtKernel, RmtLauncher, TransformOptions};
use rmt_ir::analysis::{CoverageReport, Protection};
use rmt_kernels::{Benchmark, Scale};

/// One full (multi-pass) run of a transformed benchmark on `dev` reset to
/// `dev_cfg`, faults applied on the first pass only; `dyn_insts` counts
/// the first pass. `compiled` is `rk.kernel` compiled.
fn run_transformed(
    dev: &mut Device,
    bench: &dyn Benchmark,
    scale: Scale,
    dev_cfg: &DeviceConfig,
    (rk, compiled): (&RmtKernel, &CompiledKernel),
    faults: FaultPlan,
) -> Result<Observed, RmtError> {
    dev.reset(dev_cfg);
    let plan = bench.plan(scale, dev);
    let mut launcher = RmtLauncher::new();
    let mut obs = Observed::default();
    for (i, pass) in plan.passes.iter().enumerate() {
        let cfg = if i == 0 {
            pass.clone().faults(faults.clone())
        } else {
            pass.clone()
        };
        let run = launcher.launch_compiled(dev, rk, compiled, &cfg)?;
        obs.detections += run.detections;
        obs.faults_applied += run.stats.faults_applied;
        if i == 0 {
            obs.dyn_insts = run.stats.counters.dyn_insts;
        }
    }
    obs.bufs = plan.buffers.iter().map(|b| dev.read_buffer(*b)).collect();
    Ok(obs)
}

/// The injection campaign `coverage-static` and `pareto` share. A golden
/// run fixes the reference buffers and the dynamic-instruction budget;
/// then each analysis-chosen site is corrupted at fixed coordinates, each
/// at two trigger points. Returns every attempt's
/// outcome in order, and every soundness/recall violation prefixed with
/// `ctx`.
pub(super) fn inject(
    cfg: &ExpConfig,
    bench: &dyn Benchmark,
    rk: &RmtKernel,
    report: &CoverageReport,
    ctx: &str,
) -> Result<(Vec<Outcome>, Vec<String>), String> {
    // One device serves the golden and every injected run, reset before
    // each; the kernel is compiled once.
    let mut dev = Device::new(cfg.device.clone());
    let program = dev
        .compile(&rk.kernel)
        .map_err(|e| format!("{ctx}: fault-free run failed: {}", RmtError::from(e)))?;
    let program = (rk, &program);
    let golden = run_transformed(
        &mut dev,
        bench,
        cfg.scale,
        &cfg.device,
        program,
        FaultPlan::none(),
    )
    .map_err(|e| format!("{ctx}: fault-free run failed: {e}"))?;
    if golden.detections != 0 {
        return Err(format!(
            "{ctx}: fault-free run reported {} detections",
            golden.detections
        ));
    }
    let insts = golden.dyn_insts;
    let sites = campaign::pick_sites(rk, report);
    let lds_offset = (rk.kernel.lds_bytes / 2) & !3;
    let attempts = sites.iter().flat_map(|site| {
        let coords: &[(usize, u8)] = match site.kind {
            SiteKind::Vgpr(_) if site.class == Protection::Detected => &[(1, 9), (2, 20)],
            SiteKind::Vgpr(_) => &[(1, 9)],
            SiteKind::Sgpr(_) => &[(0, 3)],
            SiteKind::Lds => &[(0, 1)],
        };
        coords.iter().flat_map(move |&(lane, bit)| {
            let target = site.target(lane, lds_offset, bit);
            [insts / 4 + 1, insts / 2 + 1].map(|trigger| (site, target, trigger))
        })
    });
    let inj_dev = campaign::injected_device(&cfg.device, insts);
    let mut outcomes = Vec::new();
    let mut violations = Vec::new();
    for entry in campaign::run(attempts, &golden.bufs, |plan| {
        run_transformed(&mut dev, bench, cfg.scale, &inj_dev, program, plan)
    }) {
        outcomes.push(entry.outcome);
        match campaign::verdict(report, &entry) {
            Some(Violation::Soundness(m)) => violations.push(format!("SOUNDNESS: {ctx}: {m}")),
            Some(Violation::Recall(m)) => violations.push(format!("RECALL: {ctx}: {m}")),
            None => {}
        }
    }
    Ok((outcomes, violations))
}

/// The rendered report; with violations, the report plus every violation
/// as the error, so `repro` exits nonzero.
pub(super) fn with_violations(out: String, violations: &[String]) -> Result<String, String> {
    if violations.is_empty() {
        Ok(out)
    } else {
        Err(format!("{out}\n{}", violations.join("\n")))
    }
}

/// Strings as a JSON array.
pub(super) fn json_strings(items: &[String]) -> String {
    let items: Vec<String> = items.iter().map(|s| format!("{s:?}")).collect();
    format!("[{}]", items.join(","))
}

/// Everything one (kernel, flavor) cell contributes to the report.
struct CellOut {
    static_cell: String,
    inj_cell: String,
    violations: Vec<String>,
    injections: usize,
}

/// Runs one (kernel, flavor) cell: static analysis, golden run, and the
/// injection campaign over analysis-chosen sites. Pure in (benchmark,
/// flavor, config), so cells fan out across the pool.
fn run_cell(
    cfg: &ExpConfig,
    bench: &dyn Benchmark,
    label: &str,
    opts: &TransformOptions,
) -> Result<CellOut, String> {
    let ctx = format!("{} {label}", bench.abbrev());
    let rk =
        transform(&bench.kernel(), opts).map_err(|e| format!("{ctx}: transform failed: {e}"))?;
    let report = cov::analyze(&rk);
    let t = report.tallies(None, false);
    let static_cell = format!(
        "{:.1}% {}D/{}V/{}M",
        100.0 * t.vulnerability_fraction(),
        t.detected,
        t.vulnerable,
        t.masked
    );

    let (outcomes, violations) = inject(cfg, bench, &rk, &report, &ctx)?;
    let count = |o: Outcome| outcomes.iter().filter(|&&x| x == o).count();
    let inj_cell = format!(
        "{}d/{}s/{}m/{}h",
        count(Outcome::Detected),
        count(Outcome::Sdc),
        count(Outcome::Masked),
        count(Outcome::Due)
    );
    Ok(CellOut {
        static_cell,
        inj_cell,
        violations,
        // Attempts whose fault applied, hangs included.
        injections: outcomes.len() - count(Outcome::Missed),
    })
}

/// The `coverage-static` experiment.
///
/// # Errors
///
/// Returns the full report as an error string when any soundness or recall
/// violation is found (so `repro coverage-static` exits nonzero), or when
/// a transform / fault-free launch fails outright.
pub fn coverage_static(cfg: &ExpConfig) -> Result<String, String> {
    let vs = TransformOptions::full_stage();
    let columns: Vec<&str> = vs.iter().map(|(l, _)| *l).collect();
    let mut static_matrix = Matrix::new("kernel", &columns);
    let mut inj_matrix = Matrix::new("kernel", &columns);
    let mut violations: Vec<String> = Vec::new();
    let mut injections = 0usize;

    // 16 kernels × 4 flavors = 64 independent cells. Fan them across the
    // pool; the merge below walks results in submission order, so the
    // matrices (and any violation report) are byte-identical for any job
    // count.
    let suite = rmt_kernels::all();
    let cells: Vec<(&dyn Benchmark, &str, TransformOptions)> = suite
        .iter()
        .flat_map(|b| {
            vs.iter()
                .map(move |(label, opts)| (b.as_ref(), *label, *opts))
        })
        .collect();
    let cells: Vec<_> = cells.into_iter().enumerate().collect();
    let outs = gcn_sim::pool::map(cfg.jobs, cells, |(i, (bench, label, opts))| {
        crate::obs::cell_obs(
            "coverage-static",
            bench.abbrev(),
            label,
            i,
            |_: &CellOut| (0, 0),
            || run_cell(cfg, bench, label, &opts),
        )
    });
    let mut outs = outs.into_iter();
    for bench in &suite {
        let mut static_cells = Vec::new();
        let mut inj_cells = Vec::new();
        for _ in &vs {
            let out = outs.next().expect("one result per cell")?;
            static_cells.push(out.static_cell);
            inj_cells.push(out.inj_cell);
            violations.extend(out.violations);
            injections += out.injections;
        }
        static_matrix.row(bench.abbrev(), static_cells);
        inj_matrix.row(bench.abbrev(), inj_cells);
    }
    let order: Vec<&str> = suite.iter().map(|b| b.abbrev()).collect();
    static_matrix.sort_rows_by_label_order(&order);
    inj_matrix.sort_rows_by_label_order(&order);

    let out = if cfg.json {
        format!(
            "{{\"experiment\":\"coverage-static\",\"injections\":{injections},\
             \"violations\":{},\"static\":{},\"injection\":{}}}\n",
            json_strings(&violations),
            static_matrix.to_json(),
            inj_matrix.to_json()
        )
    } else {
        format!(
            "Static protection coverage (liveness-weighted vulnerable fraction,\n\
             Detected/Vulnerable/Masked window counts per kernel and flavor):\n\n{}\n\
             Fault-injection cross-validation (detected/sdc/masked/hang over\n\
             sites chosen and classified by the static analysis):\n\n{}\n\
             {injections} injections, {} violations\n",
            static_matrix.render(),
            inj_matrix.render(),
            violations.len()
        )
    };
    with_violations(out, &violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_validation_holds_at_small_scale() {
        let report = coverage_static(&ExpConfig::small()).expect("soundness/recall must hold");
        assert!(report.contains("0 violations"), "{report}");
        assert!(report.contains("injections"), "{report}");
    }
}
