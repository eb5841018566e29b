//! `compile-suite`: the static layers alone, with no simulation.
//!
//! A round takes the 16 suite kernels and [`CORE_KERNELS`] +
//! [`DRAWN_KERNELS`] generated kernels of the pool (see
//! [`pool::round_cases`]) through every transform posture. One op is one
//! pipeline: build or generate the kernel, transform it, check the
//! transform invariants, lint it at each work-group shape it launches
//! with, prove it fault-free-equivalent, classify its residency windows,
//! and compile it for the simulator. The lint dominates; this is the only
//! workload where a cheaper analysis shows.

use crate::trace::Recorder;
use crate::{flavor_ops, pool, transform_recorded};
use gcn_sim::{Device, DeviceConfig};
use rmt_core::{coverage as cov, validate_transform, verify_rmt, TransformOptions};
use rmt_ir::analysis::lint::{lint_kernel, LintAssumptions, LintConfig};
use rmt_ir::Kernel;
use rmt_kernels::{Benchmark, Scale};

/// The seven postures `repro tv` proves.
pub(crate) const FLAVORS: [&str; 7] = [
    "Intra+LDS",
    "Intra-LDS",
    "Inter",
    "FAST",
    "Sel-0",
    "Sel-50",
    "Sel-100",
];

/// Generated kernels every round takes, whatever the seed.
const CORE_KERNELS: usize = 32;

/// Generated kernels the seed draws from the rest of the pool.
const DRAWN_KERNELS: usize = 8;

/// Suite kernels the untimed warm-up takes through every posture.
const WARM_KERNELS: usize = 4;

/// Where a pipeline's input kernel comes from: a suite kernel or a pool
/// case, by index.
#[derive(Clone, Copy)]
enum Source {
    Suite(usize),
    Pool(u64),
}

/// The `compile-suite` workload.
pub struct CompileSuite {
    suite: Vec<Box<dyn Benchmark>>,
    /// The distinct work-group shapes each suite kernel launches with.
    shapes: Vec<Vec<[usize; 3]>>,
    /// Pool indices of the round's generated kernels.
    generated: Vec<u64>,
    flavors: Vec<(&'static str, Option<TransformOptions>)>,
    device: Device,
}

impl CompileSuite {
    /// Reads each suite kernel's launch shapes from its small-scale plan,
    /// draws the round's generated kernels, and warms up, untimed, on the
    /// first suite kernels under every posture — the same for every seed,
    /// so that set-up time does not depend on it.
    ///
    /// # Errors
    ///
    /// When a warm-up pipeline fails.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let suite = rmt_kernels::all();
        let shapes = suite
            .iter()
            .map(|b| {
                let mut dev = Device::new(DeviceConfig::radeon_hd_7790());
                let mut shapes = Vec::new();
                for pass in b.plan(Scale::Small, &mut dev).passes {
                    if !shapes.contains(&pass.local) {
                        shapes.push(pass.local);
                    }
                }
                shapes
            })
            .collect();
        let mut w = CompileSuite {
            suite,
            shapes,
            generated: pool::round_cases(seed, CORE_KERNELS, DRAWN_KERNELS),
            flavors: flavor_ops(&FLAVORS),
            device: Device::new(DeviceConfig::radeon_hd_7790()),
        };
        // The round starts with the suite, so these are its first ops.
        let mut warm = Recorder::new(Some(WARM_KERNELS * FLAVORS.len()));
        w.round(&mut warm);
        match warm.failures.pop() {
            Some(f) => Err(format!("warm-up failed: {f}")),
            None => Ok(w),
        }
    }

    /// Runs the round: every source under every posture.
    pub fn round(&mut self, rec: &mut Recorder) {
        let generated = self.generated.iter().map(|&i| Source::Pool(i));
        let sources: Vec<Source> = (0..self.suite.len())
            .map(Source::Suite)
            .chain(generated)
            .collect();
        for source in sources {
            for (label, opts) in &self.flavors {
                if !rec.more() {
                    return;
                }
                let opts = opts.expect("every compile-suite posture transforms");
                let (name, kernel, shapes) = match source {
                    Source::Suite(bench) => {
                        let b = self.suite[bench].as_ref();
                        let k = rec.span("kernels.build", || b.kernel());
                        rec.add("kernels.build", "insts_out", k.total_insts() as f64);
                        (b.abbrev().to_string(), k, self.shapes[bench].clone())
                    }
                    Source::Pool(index) => {
                        let case = rec.span("ir.fuzz", || pool::case(index));
                        rec.add("ir.fuzz", "insts_out", case.kernel.total_insts() as f64);
                        let shape = [case.local as usize, 1, 1];
                        (format!("pool case {index}"), case.kernel, vec![shape])
                    }
                };
                let failure = pipeline(&kernel, &shapes, &opts, &self.device, rec)
                    .err()
                    .map(|e| format!("{name} {label}: {e}"));
                rec.op_done(failure);
            }
        }
    }
}

/// Transforms `kernel`, checks the transform invariants, lints it at each
/// work-group shape (dimension 0 doubled where the transform doubles the
/// group), proves it, classifies it, and compiles it. Stops at the first
/// layer that rejects it.
pub(crate) fn pipeline(
    kernel: &Kernel,
    shapes: &[[usize; 3]],
    opts: &TransformOptions,
    device: &Device,
    rec: &mut Recorder,
) -> Result<(), String> {
    let rk = transform_recorded(kernel, opts, rec)?;

    let errs = rec.span("core.verify", || verify_rmt(kernel, &rk));
    rec.add("core.verify", "violations", errs.len() as f64);
    if let Some(e) = errs.first() {
        return Err(format!("verify_rmt: {e}"));
    }

    for &shape in shapes {
        let mut local = shape;
        if rk.meta.doubles_workgroup() {
            local[0] *= 2;
        }
        let cfg = LintConfig::with_assumptions(LintAssumptions {
            local_size: local.map(|n| Some(n as u32)),
            wavefront: 64,
        });
        let diags = rec.span("ir.lint", || lint_kernel(&rk.kernel, &cfg));
        rec.add("ir.lint", "diagnostics", diags.len() as f64);
        if let Some(d) = diags.first() {
            return Err(format!("lint at local {local:?}: {d}"));
        }
    }

    let tv = rec.span("core.tv", || validate_transform(kernel, &rk));
    rec.add("core.tv", "unproved", tv.residue.len() as f64);
    if let Some(r) = tv.residue.first() {
        return Err(format!("tv: {}", r.detail));
    }

    let report = rec.span("core.coverage", || cov::analyze(&rk));
    let vulnerable = report.tallies(None, false).vulnerable;
    rec.add("core.coverage", "vulnerable", vulnerable as f64);

    rec.add("sim.compile", "insts_in", rk.kernel.total_insts() as f64);
    rec.span("sim.compile", || device.compile(&rk.kernel))
        .map(|_| ())
        .map_err(|e| format!("compile: {e}"))
}
