//! `sim-paper`: paper-scale launches of six suite kernels under four
//! RMT postures on the HD 7790 model.
//!
//! A round is the 24 (kernel, flavor) cells in a fixed order; the suite's
//! inputs are fixed too, so the seed does not change this workload. Each
//! cell builds its kernel, transforms it, plans its inputs on a fresh
//! device, launches its one pass and checks the result against the CPU
//! reference. One op is one launch, and each of these kernels launches
//! once, so one op is one cell. Launches run for tens to hundreds of
//! milliseconds, so the machine loop dominates and the static layers stay
//! under a percent.
//!
//! The round is kept to a few seconds so that a run replays it often
//! enough for each op's fastest repetition to shed the host's noise.
//! That leaves out the suite's heavy cells (Reduction and the multi-pass
//! kernels take seconds under Inter each); `fault-small` runs all 16
//! kernels at small scale.

use crate::flavor_ops;
use crate::trace::Recorder;
use gcn_sim::{Device, DeviceConfig};
use rmt_core::{RmtLauncher, TransformOptions};
use rmt_kernels::{by_abbrev, Benchmark, Scale};

/// MatrixMultiplication, BlackScholes, DCT, DwtHaar1D, SobelFilter,
/// UniformRandomNoise: LDS-tiled compute, transcendental ALU, ALU+LDS,
/// LDS/barrier-bound, memory-bound stencil, and integer ALU — the
/// suite's single-pass bottleneck classes whose four postures together
/// take a few seconds.
const KERNELS: [&str; 6] = ["MM", "BlkSch", "DCT", "DWT", "SF", "URNG"];

/// Original first: the slowdown of every other posture is taken
/// against it.
const FLAVORS: [&str; 4] = ["Original", "Intra+LDS", "Inter", "Sel-50"];

/// The `sim-paper` workload.
pub struct SimPaper {
    suite: Vec<Box<dyn Benchmark>>,
    flavors: Vec<(&'static str, Option<TransformOptions>)>,
    device: DeviceConfig,
}

impl SimPaper {
    /// Looks up the kernels and runs one untimed warm-up op (the first
    /// launch of MatrixMultiplication, untransformed).
    ///
    /// # Errors
    ///
    /// When a kernel is missing from the registry or the warm-up fails.
    pub fn setup() -> Result<Self, String> {
        let suite = KERNELS
            .iter()
            .map(|a| by_abbrev(a).ok_or_else(|| format!("kernel {a} not in the registry")))
            .collect::<Result<Vec<_>, _>>()?;
        let w = SimPaper {
            suite,
            flavors: flavor_ops(&FLAVORS),
            device: DeviceConfig::radeon_hd_7790(),
        };
        let mut warm = Recorder::new(Some(1));
        w.cell(0, 0, &mut warm);
        match warm.failures.pop() {
            Some(f) => Err(format!("warm-up failed: {f}")),
            None => Ok(w),
        }
    }

    /// Runs one round: every cell once.
    pub fn round(&mut self, rec: &mut Recorder) {
        let mut cycles = vec![vec![None; self.flavors.len()]; self.suite.len()];
        for (k, row) in cycles.iter_mut().enumerate() {
            for (f, c) in row.iter_mut().enumerate() {
                if !rec.more() {
                    break;
                }
                *c = self.cell(k, f, rec);
            }
        }
        for row in &cycles {
            for c in &row[1..] {
                if let (Some(c), Some(orig)) = (c, row[0]) {
                    rec.geo("core.launcher.slowdown_geomean", *c as f64 / orig as f64);
                }
            }
        }
    }

    /// Runs one cell, one op per launch. Returns the cell's simulated
    /// cycles, or `None` if it failed or the op budget ran out.
    fn cell(&self, k: usize, f: usize, rec: &mut Recorder) -> Option<u64> {
        let b = self.suite[k].as_ref();
        let (label, opts) = &self.flavors[f];
        let ctx = format!("{} {label}", b.abbrev());
        match self.cell_inner(b, opts.as_ref(), rec) {
            Ok(cycles) => cycles,
            Err(e) => {
                rec.op_done(Some(format!("{ctx}: {e}")));
                None
            }
        }
    }

    fn cell_inner(
        &self,
        b: &dyn Benchmark,
        opts: Option<&TransformOptions>,
        rec: &mut Recorder,
    ) -> Result<Option<u64>, String> {
        let kernel = rec.span("kernels.build", || b.kernel());
        rec.add("kernels.build", "insts_out", kernel.total_insts() as f64);
        let rk = match opts {
            Some(o) => Some(crate::transform_recorded(&kernel, o, rec)?),
            None => None,
        };
        let mut dev = rec.span("harness", || Device::new(self.device.clone()));
        let plan = rec.span("kernels.plan", || b.plan(Scale::Paper, &mut dev));
        let bytes: u32 = plan.buffers.iter().map(|&id| dev.buffer_size(id)).sum();
        rec.add("kernels.plan", "input_bytes", f64::from(bytes));
        let compiled = match &rk {
            Some(_) => None,
            None => {
                rec.add("sim.compile", "insts_in", kernel.total_insts() as f64);
                Some(
                    rec.span("sim.compile", || dev.compile(&kernel))
                        .map_err(|e| e.to_string())?,
                )
            }
        };
        let mut launcher = RmtLauncher::new();
        let mut cycles = 0;
        for (i, pass) in plan.passes.iter().enumerate() {
            if !rec.more() {
                return Ok(None);
            }
            let (stats, detections) = match (&rk, &compiled) {
                (Some(rk), _) => {
                    let run = rec
                        .span("core.launcher", || launcher.launch(&mut dev, rk, pass))
                        .map_err(|e| format!("pass {i}: {e}"))?;
                    rec.add("core.launcher", "detections", f64::from(run.detections));
                    (run.stats, run.detections)
                }
                (None, Some(c)) => (
                    rec.span("sim.launch", || dev.launch_compiled(c, pass))
                        .map_err(|e| format!("pass {i}: {e}"))?,
                    0,
                ),
                (None, None) => unreachable!("an untransformed cell is compiled up front"),
            };
            let layer = if rk.is_some() {
                "core.launcher"
            } else {
                "sim.launch"
            };
            crate::add_launch(rec, layer, &stats);
            cycles += stats.cycles;
            if detections > 0 {
                return Err(format!("pass {i}: {detections} fault-free detections"));
            }
            if i + 1 == plan.passes.len() {
                let verdict = rec.span("kernels.verify", || b.verify(Scale::Paper, &dev, &plan));
                if let Err(e) = verdict {
                    rec.add("kernels.verify", "failed", 1.0);
                    return Err(format!("reference check: {e}"));
                }
            }
            rec.op_done(None);
        }
        Ok(Some(cycles))
    }
}
