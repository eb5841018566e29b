//! The fault-injection campaign primitive: sites in, ledger entries out.
//!
//! [`pick_sites`] chooses sites from the coverage report, the caller
//! builds `(site, target, trigger)` attempts with [`Site::target`],
//! [`run`] launches, classifies and records each one as an [`Entry`], and
//! [`verdict`] checks an entry against the analysis. The
//! [`oracle`](crate::oracle) and the `coverage-static`, `pareto` and
//! `coverage` experiments differ only in their attempts and in what they
//! do with the entries.

use crate::coverage::fault_class;
use crate::transform::RmtKernel;
use gcn_sim::{DeviceConfig, FaultPlan, FaultTarget};
use rmt_ir::analysis::{CoverageReport, Protection, Residency};
use rmt_ir::Reg;
use std::collections::BTreeSet;
use std::fmt;

/// Which storage a [`Site`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// A user vector register (one lane per injection).
    Vgpr(Reg),
    /// A user scalar register broadcast to the whole wavefront.
    Sgpr(Reg),
    /// The kernel's LDS allocation.
    Lds,
}

/// One injection site, carrying the class the analysis predicts for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// Ledger label: `VGPR/detected`, `VGPR/vulnerable`, `SRF` or `LDS`.
    pub label: &'static str,
    /// The static coverage class the campaign must uphold.
    pub class: Protection,
    /// The storage the site corrupts.
    pub kind: SiteKind,
}

impl Site {
    /// The fault target at the given coordinates in work-group 0, wave 0:
    /// `lane` and `bit` for a VGPR, `bit` for an SGPR, byte `offset` and
    /// `bit` for LDS. Coordinates the kind does not use are ignored.
    pub fn target(&self, lane: usize, offset: u32, bit: u8) -> FaultTarget {
        let (group, wave) = (0, 0);
        match self.kind {
            SiteKind::Vgpr(Reg(reg)) => FaultTarget::Vgpr {
                group,
                wave,
                reg,
                lane,
                bit,
            },
            SiteKind::Sgpr(Reg(reg)) => FaultTarget::Sgpr {
                group,
                wave,
                reg,
                bit,
            },
            SiteKind::Lds => FaultTarget::Lds { group, offset, bit },
        }
    }
}

/// A site displays as its ledger label.
impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label)
    }
}

/// Sites chosen from the coverage report, in this order: the first
/// Detected-class user VGPR, the first Vulnerable-class user VGPR, the
/// first user SRF broadcast that has an SGPR class, and the LDS
/// allocation when the kernel has one.
pub fn pick_sites(rk: &RmtKernel, report: &CoverageReport) -> Vec<Site> {
    let user_regs = |residency: Residency| -> BTreeSet<Reg> {
        let windows = report.windows.iter();
        windows
            .filter(|w| !w.machinery && w.residency == residency)
            .map(|w| w.reg)
            .collect()
    };
    let vgprs = user_regs(Residency::VgprLane);
    let mut sites: Vec<Site> = [
        ("VGPR/detected", Protection::Detected),
        ("VGPR/vulnerable", Protection::Vulnerable),
    ]
    .into_iter()
    .filter_map(|(label, class)| {
        let &r = vgprs
            .iter()
            .find(|&&r| report.vgpr_fault_class(r) == Some(class))?;
        Some(Site {
            label,
            class,
            kind: SiteKind::Vgpr(r),
        })
    })
    .collect();
    if let Some(&r) = user_regs(Residency::SrfBroadcast).first() {
        if let Some(class) = report.sgpr_fault_class(r) {
            sites.push(Site {
                label: "SRF",
                class,
                kind: SiteKind::Sgpr(r),
            });
        }
    }
    if rk.kernel.lds_bytes > 0 {
        sites.push(Site {
            label: "LDS",
            class: report.lds_fault_class(),
            kind: SiteKind::Lds,
        });
    }
    sites
}

/// The observables of one (possibly injected) run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Observed {
    /// Output mismatches the redundant threads reported.
    pub detections: u32,
    /// Faults the simulator actually applied.
    pub faults_applied: usize,
    /// Dynamic wavefront instructions of the (first) launch.
    pub dyn_insts: u64,
    /// User buffer contents after the run.
    pub bufs: Vec<Vec<u8>>,
}

/// How one injection attempt resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The redundant comparison bumped the detect counter.
    Detected,
    /// Outputs differ from the golden run with no detection.
    Sdc,
    /// Outputs match the golden run with no detection.
    Masked,
    /// The launch errored (watchdog or deadlock): detectable-by-timeout.
    Due,
    /// The fault never applied (e.g. its work-group had already retired).
    Missed,
}

impl Outcome {
    /// Classifies a run against the golden buffers.
    fn of<E>(run: &Result<Observed, E>, golden: &[Vec<u8>]) -> Outcome {
        match run {
            Err(_) => Outcome::Due,
            Ok(r) if r.faults_applied == 0 => Outcome::Missed,
            Ok(r) if r.detections > 0 => Outcome::Detected,
            Ok(r) if r.bufs != golden => Outcome::Sdc,
            Ok(_) => Outcome::Masked,
        }
    }

    /// The ledger's `outcome` label.
    fn label(self) -> &'static str {
        match self {
            Outcome::Detected => "detected",
            Outcome::Sdc => "sdc",
            Outcome::Masked => "masked",
            Outcome::Due => "due",
            Outcome::Missed => "missed",
        }
    }
}

/// The device for injected runs: faults that corrupt protocol state can
/// spin, so the watchdog is a few times the fault-free length.
pub fn injected_device(device: &DeviceConfig, fault_free_insts: u64) -> DeviceConfig {
    let mut device = device.clone();
    device.watchdog_insts = fault_free_insts.saturating_mul(8).max(200_000);
    device
}

/// One ledger entry: an attempt and how it resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<S> {
    /// What the attempt corrupted.
    pub site: S,
    /// The exact fault target.
    pub target: FaultTarget,
    /// The dynamic-instruction trigger.
    pub trigger: u64,
    /// How the attempt resolved.
    pub outcome: Outcome,
}

/// A silent corruption the analysis did not predict, with a one-line
/// account of the entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// SDC at a Detected-class site.
    Soundness(String),
    /// SDC at a site classified neither Detected nor Vulnerable.
    Recall(String),
}

/// Checks an entry against the analysis. Only an SDC can violate; it is
/// classified by its actual target through [`fault_class`], falling back
/// to the site's class.
pub fn verdict(report: &CoverageReport, entry: &Entry<&Site>) -> Option<Violation> {
    if entry.outcome != Outcome::Sdc {
        return None;
    }
    let class = fault_class(report, &entry.target).unwrap_or(entry.site.class);
    let message = || {
        format!(
            "SDC at {}-class site {} ({:?}, trigger {})",
            class.label(),
            entry.site.label,
            entry.target,
            entry.trigger
        )
    };
    match class {
        Protection::Detected => Some(Violation::Soundness(message())),
        Protection::Vulnerable => None,
        Protection::Masked => Some(Violation::Recall(message())),
    }
}

/// Launches each `(site, target, trigger)` through `launch` with a
/// single-injection plan, classifies it against `golden`, records it in
/// the ledger, and yields its entry. Lazy, so a caller that stops at the
/// first violation launches nothing after it. A site is an
/// analysis-chosen [`Site`] or, for campaigns without a coverage report,
/// a bare structure label; the ledger names it by its `Display`.
///
/// The ledger is a deterministic `fault.outcome{structure, outcome}`
/// counter plus an instant trace event carrying the exact target and
/// trigger; it costs one atomic load when no campaign is being recorded.
pub fn run<'a, S: Copy + fmt::Display + 'a, E>(
    attempts: impl IntoIterator<Item = (S, FaultTarget, u64)> + 'a,
    golden: &'a [Vec<u8>],
    mut launch: impl FnMut(FaultPlan) -> Result<Observed, E> + 'a,
) -> impl Iterator<Item = Entry<S>> + 'a {
    attempts.into_iter().map(move |(site, target, trigger)| {
        let outcome = Outcome::of(&launch(FaultPlan::single(trigger, target)), golden);
        if rmt_obs::enabled() {
            let (structure, label) = (site.to_string(), outcome.label());
            rmt_obs::add(
                "fault.outcome",
                &[("structure", &structure), ("outcome", label)],
                1,
            );
            rmt_obs::instant(
                "fault",
                label,
                vec![
                    ("structure".to_string(), structure.into()),
                    ("target".to_string(), format!("{target:?}").into()),
                    ("trigger".to_string(), trigger.into()),
                ],
            );
        }
        Entry {
            site,
            target,
            trigger,
            outcome,
        }
    })
}
