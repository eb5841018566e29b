//! The fault-injection campaign primitive end to end: a suite kernel's
//! campaign upholds the static coverage analysis, and a report sabotaged
//! to mispredict its Vulnerable VGPRs makes the verdict fire on the very
//! injections that produced silent corruption.

use gpu_rmt::ir::analysis::{CoverageReport, Protection, Residency};
use gpu_rmt::kernels::{by_abbrev, Benchmark, Scale};
use gpu_rmt::rmt::campaign::{self, Entry, Observed, Outcome, Site, Violation};
use gpu_rmt::rmt::{coverage, transform, RmtError, RmtKernel, RmtLauncher, TransformOptions};
use gpu_rmt::sim::{Device, DeviceConfig, FaultPlan, FaultTarget};

/// One full run of `rk` with `faults` on the first pass.
fn run(
    bench: &dyn Benchmark,
    dev_cfg: &DeviceConfig,
    rk: &RmtKernel,
    faults: FaultPlan,
) -> Result<Observed, RmtError> {
    let mut dev = Device::new(dev_cfg.clone());
    let plan = bench.plan(Scale::Small, &mut dev);
    let mut launcher = RmtLauncher::new();
    let mut obs = Observed::default();
    for (i, pass) in plan.passes.iter().enumerate() {
        let cfg = if i == 0 {
            pass.clone().faults(faults.clone())
        } else {
            pass.clone()
        };
        let r = launcher.launch(&mut dev, rk, &cfg)?;
        obs.detections += r.detections;
        obs.faults_applied += r.stats.faults_applied;
        if i == 0 {
            obs.dyn_insts = r.stats.counters.dyn_insts;
        }
    }
    obs.bufs = plan.buffers.iter().map(|b| dev.read_buffer(*b)).collect();
    Ok(obs)
}

/// Runs the reduction kernel's Intra+LDS campaign at small scale — every
/// analysis-chosen site, two lanes, two bits, two triggers — and hands
/// the report and the ledger entries to `check`.
fn reduction_campaign(check: impl FnOnce(&CoverageReport, &[Entry<&Site>])) {
    let bench = by_abbrev("R").expect("reduction is in the suite");
    let dev_cfg = DeviceConfig::small_test();
    let rk = transform(&bench.kernel(), &TransformOptions::intra_plus_lds()).expect("transform");
    let report = coverage::analyze(&rk);
    let golden = run(bench.as_ref(), &dev_cfg, &rk, FaultPlan::none()).expect("fault-free run");
    assert_eq!(golden.detections, 0);
    let insts = golden.dyn_insts;
    let sites = campaign::pick_sites(&rk, &report);
    let lds_offset = (rk.kernel.lds_bytes / 2) & !3;
    let mut attempts = Vec::new();
    for site in &sites {
        for (lane, bit) in [(1, 9), (2, 20)] {
            for trigger in [insts / 4 + 1, insts / 2 + 1] {
                attempts.push((site, site.target(lane, lds_offset, bit), trigger));
            }
        }
    }
    let inj_dev = campaign::injected_device(&dev_cfg, insts);
    let entries: Vec<_> = campaign::run(attempts, &golden.bufs, |plan| {
        run(bench.as_ref(), &inj_dev, &rk, plan)
    })
    .collect();
    check(&report, &entries);
}

/// The report with every Vulnerable VGPR window (lane or in-flight store)
/// relabelled `to`.
fn relabel(report: &CoverageReport, to: Protection) -> CoverageReport {
    let mut sabotaged = report.clone();
    for w in &mut sabotaged.windows {
        if w.protection == Protection::Vulnerable
            && matches!(w.residency, Residency::VgprLane | Residency::InFlightStore)
        {
            w.protection = to;
        }
    }
    sabotaged
}

/// The entries that silently corrupted a VGPR.
fn vgpr_sdcs<'a>(entries: &'a [Entry<&'a Site>]) -> Vec<&'a Entry<&'a Site>> {
    let sdcs: Vec<_> = entries
        .iter()
        .filter(|e| e.outcome == Outcome::Sdc && matches!(e.target, FaultTarget::Vgpr { .. }))
        .collect();
    assert!(
        !sdcs.is_empty(),
        "the campaign must produce a VGPR SDC: {entries:?}"
    );
    sdcs
}

#[test]
fn reduction_campaign_has_no_violations() {
    reduction_campaign(|report, entries| {
        assert!(entries.iter().any(|e| e.outcome != Outcome::Missed));
        let violations: Vec<Violation> = entries
            .iter()
            .filter_map(|e| campaign::verdict(report, e))
            .collect();
        assert!(violations.is_empty(), "{violations:?}");
    });
}

#[test]
fn vulnerable_relabelled_detected_is_a_soundness_violation() {
    reduction_campaign(|report, entries| {
        let sabotaged = relabel(report, Protection::Detected);
        for e in vgpr_sdcs(entries) {
            let v = campaign::verdict(&sabotaged, e);
            assert!(matches!(v, Some(Violation::Soundness(_))), "{e:?}: {v:?}");
        }
    });
}

#[test]
fn vulnerable_relabelled_masked_is_a_recall_violation() {
    reduction_campaign(|report, entries| {
        let sabotaged = relabel(report, Protection::Masked);
        for e in vgpr_sdcs(entries) {
            let v = campaign::verdict(&sabotaged, e);
            assert!(
                matches!(&v, Some(Violation::Recall(m)) if m.starts_with("SDC at Masked-class")),
                "{e:?}: {v:?}"
            );
        }
    });
}
