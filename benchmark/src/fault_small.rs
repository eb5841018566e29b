//! `fault-small`: seeded single-bit injection campaigns over the whole
//! suite at small scale.
//!
//! Set-up transforms the 16 kernels under three postures, classifies
//! every residency window with the static coverage analysis, and runs
//! each cell once fault-free (the golden outputs, checked against the CPU
//! reference, and the instruction count that places triggers and sizes
//! the watchdog). A round then runs [`INJECTIONS`] seeded injections per
//! cell, each on a fresh device; one op is one injected run. Launches
//! last about a millisecond, so the fixed cost around each launch —
//! device set-up, planning, the compile inside every
//! `RmtLauncher::launch`, readback — shows next to the simulation.

use crate::trace::Recorder;
use crate::{flavor_ops, transform_recorded};
use gcn_sim::{Device, DeviceConfig, FaultPlan, FaultSampler, FaultTarget};
use rmt_core::{coverage as cov, RmtKernel, RmtLauncher};
use rmt_ir::analysis::{CoverageReport, Protection, Residency};
use rmt_ir::fuzz::child_seed;
use rmt_ir::Reg;
use rmt_kernels::{Benchmark, Plan, Scale};
use std::panic::{catch_unwind, AssertUnwindSafe};

const FLAVORS: [&str; 3] = ["Intra+LDS", "Inter", "Sel-50"];

/// Injections per cell in a round: 480 injected runs over the 48 cells.
const INJECTIONS: u64 = 10;

/// One (kernel, flavor) cell with everything its injections need.
struct Cell {
    bench: usize,
    flavor: &'static str,
    rk: RmtKernel,
    report: CoverageReport,
    /// User registers resident in VGPR lanes / broadcast from the SRF.
    vgprs: Vec<Reg>,
    sgprs: Vec<Reg>,
    golden: Vec<Vec<u8>>,
    /// Dynamic instructions of the golden run's first pass, where faults
    /// are injected.
    first_insts: u64,
    /// The device with the watchdog sized for injected runs.
    device: DeviceConfig,
}

/// What one run of a cell observed.
struct Run {
    detections: u32,
    applied: usize,
    first_insts: u64,
    bufs: Vec<Vec<u8>>,
    /// The device and plan after the run, for the reference check.
    dev: Device,
    plan: Plan,
}

/// The `fault-small` workload.
pub struct FaultSmall {
    seed: u64,
    suite: Vec<Box<dyn Benchmark>>,
    cells: Vec<Cell>,
}

fn user_regs(report: &CoverageReport, residency: Residency) -> Vec<Reg> {
    let mut regs: Vec<Reg> = report
        .windows
        .iter()
        .filter(|w| !w.machinery && w.residency == residency)
        .map(|w| w.reg)
        .collect();
    regs.sort_unstable();
    regs.dedup();
    regs
}

impl FaultSmall {
    /// Transforms and classifies every cell, runs each golden run and
    /// checks it against the CPU reference, and runs one untimed warm-up
    /// injection.
    ///
    /// # Errors
    ///
    /// When a transform or golden run fails, a golden run reports a
    /// detection, or its outputs differ from the reference.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let suite = rmt_kernels::all();
        let mut scratch = Recorder::new(None);
        let mut cells = Vec::new();
        for (bench, b) in suite.iter().enumerate() {
            for (flavor, opts) in flavor_ops(&FLAVORS) {
                let ctx = format!("{} {flavor}", b.abbrev());
                let opts = opts.expect("every fault-small posture transforms");
                let rk = transform_recorded(&b.kernel(), &opts, &mut scratch)
                    .map_err(|e| format!("{ctx}: {e}"))?;
                let report = cov::analyze(&rk);
                let mut cell = Cell {
                    bench,
                    flavor,
                    vgprs: user_regs(&report, Residency::VgprLane),
                    sgprs: user_regs(&report, Residency::SrfBroadcast),
                    report,
                    rk,
                    golden: Vec::new(),
                    first_insts: 0,
                    device: DeviceConfig::radeon_hd_7790(),
                };
                let golden = run(b.as_ref(), &cell, FaultPlan::none(), &mut scratch)
                    .map_err(|e| format!("{ctx}: golden run: {e}"))?;
                if golden.detections > 0 {
                    return Err(format!(
                        "{ctx}: golden run reported {} detections",
                        golden.detections
                    ));
                }
                b.verify(Scale::Small, &golden.dev, &golden.plan)
                    .map_err(|e| format!("{ctx}: golden run: reference check: {e}"))?;
                // Injected runs that corrupt protocol state can spin; bound
                // them by a watchdog a few times the fault-free length.
                cell.device.watchdog_insts = golden.first_insts.saturating_mul(8).max(200_000);
                cell.first_insts = golden.first_insts;
                cell.golden = golden.bufs;
                cells.push(cell);
            }
        }
        let mut w = FaultSmall { seed, suite, cells };
        let mut warm = Recorder::new(Some(1));
        w.round(&mut warm);
        match warm.failures.pop() {
            Some(f) => Err(format!("warm-up failed: {f}")),
            None => Ok(w),
        }
    }

    /// Runs the round: [`INJECTIONS`] passes over the cells, one seeded
    /// injection into every cell per pass.
    pub fn round(&mut self, rec: &mut Recorder) {
        for pass in 0..INJECTIONS {
            for (i, cell) in self.cells.iter().enumerate() {
                if !rec.more() {
                    return;
                }
                let seed = child_seed(child_seed(self.seed, pass), i as u64);
                let mut sampler = FaultSampler::new(seed);
                let target = draw(cell, &mut sampler);
                let trigger = sampler.trigger(cell.first_insts);
                let failure = self.inject(cell, target, trigger, rec);
                rec.op_done(failure);
            }
        }
    }

    /// One injected run, classified. Returns the failure, if the outcome
    /// contradicts the static analysis.
    fn inject(
        &self,
        cell: &Cell,
        target: FaultTarget,
        trigger: u64,
        rec: &mut Recorder,
    ) -> Option<String> {
        let b = self.suite[cell.bench].as_ref();
        rec.add("sim.fault", "attempts", 1.0);
        // A corrupted address can panic the simulator instead of raising a
        // `SimError` (a known failure class); contain it and count it.
        let plan = FaultPlan::single(trigger, target);
        let outcome = catch_unwind(AssertUnwindSafe(|| run(b, cell, plan, rec)));
        let run = match outcome {
            Err(_) => {
                rec.add("sim.fault", "crashed", 1.0);
                return None;
            }
            Ok(Err(_)) => {
                rec.add("sim.fault", "due", 1.0);
                return None;
            }
            Ok(Ok(run)) => run,
        };
        if run.applied == 0 {
            rec.add("sim.fault", "missed", 1.0);
            return None;
        }
        let sdc = rec.span("harness", || run.detections == 0 && run.bufs != cell.golden);
        let class = if run.detections > 0 {
            "detected"
        } else if sdc {
            "sdc"
        } else {
            "masked"
        };
        rec.add("sim.fault", class, 1.0);
        (sdc && cov::fault_class(&cell.report, &target) == Some(Protection::Detected)).then(|| {
            format!(
                "{} {}: SDC at a Detected-class site ({target:?}, trigger {trigger})",
                b.abbrev(),
                cell.flavor
            )
        })
    }
}

/// Draws a VGPR, SGPR or LDS target for the cell.
fn draw(cell: &Cell, s: &mut FaultSampler) -> FaultTarget {
    let lds_words = cell.rk.kernel.lds_bytes / 4;
    let mut kinds = Vec::with_capacity(3);
    if !cell.vgprs.is_empty() {
        kinds.push(Residency::VgprLane);
    }
    if !cell.sgprs.is_empty() {
        kinds.push(Residency::SrfBroadcast);
    }
    if lds_words > 0 {
        kinds.push(Residency::LdsWord);
    }
    let pick = |s: &mut FaultSampler, regs: &[Reg]| regs[s.below(regs.len() as u64) as usize].0;
    match kinds[s.below(kinds.len() as u64) as usize] {
        Residency::VgprLane => FaultTarget::Vgpr {
            group: 0,
            wave: 0,
            reg: pick(s, &cell.vgprs),
            lane: s.lane(),
            bit: s.bit32(),
        },
        Residency::SrfBroadcast => FaultTarget::Sgpr {
            group: 0,
            wave: 0,
            reg: pick(s, &cell.sgprs),
            bit: s.bit32(),
        },
        _ => FaultTarget::Lds {
            group: 0,
            offset: s.below(u64::from(lds_words)) as u32 * 4,
            bit: s.bit8(),
        },
    }
}

/// One full (multi-pass) run of a cell on a fresh device, faults on the
/// first pass only.
fn run(
    b: &dyn Benchmark,
    cell: &Cell,
    faults: FaultPlan,
    rec: &mut Recorder,
) -> Result<Run, String> {
    let mut dev = rec.span("harness", || Device::new(cell.device.clone()));
    let plan = rec.span("kernels.plan", || b.plan(Scale::Small, &mut dev));
    let bytes: u32 = plan.buffers.iter().map(|&id| dev.buffer_size(id)).sum();
    rec.add("kernels.plan", "input_bytes", f64::from(bytes));
    let mut launcher = RmtLauncher::new();
    let mut detections = 0;
    let mut applied = 0;
    let mut first_insts = 0;
    for (i, pass) in plan.passes.iter().enumerate() {
        let cfg = if i == 0 {
            pass.clone().faults(faults.clone())
        } else {
            pass.clone()
        };
        let r = rec
            .span("core.launcher", || {
                launcher.launch(&mut dev, &cell.rk, &cfg)
            })
            .map_err(|e| e.to_string())?;
        crate::add_launch(rec, "core.launcher", &r.stats);
        rec.add("core.launcher", "detections", f64::from(r.detections));
        detections += r.detections;
        applied += r.stats.faults_applied;
        if i == 0 {
            first_insts = r.stats.counters.dyn_insts;
        }
    }
    let bufs = rec.span("harness", || {
        plan.buffers.iter().map(|&id| dev.read_buffer(id)).collect()
    });
    Ok(Run {
        detections,
        applied,
        first_insts,
        bufs,
        dev,
        plan,
    })
}
