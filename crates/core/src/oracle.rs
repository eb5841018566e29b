//! The differential oracle for generated kernels.
//!
//! [`rmt_ir::fuzz`] produces random well-formed kernels; this module is
//! the judge that decides whether the RMT stack handled one correctly.
//! For a [`FuzzCase`] it checks, in order:
//!
//! 1. the original kernel validates, lints clean, and runs fault-free on
//!    the simulator (its output buffers become the *golden* reference);
//! 2. every full-stage flavor (Intra+LDS, Intra−LDS, Inter, FAST,
//!    Selective) transforms without error, still validates, upholds
//!    [`verify_rmt`](crate::verify_rmt)'s transform invariants, proves
//!    fault-free-equivalent to the original under the symbolic
//!    translation validator ([`crate::tv`]), and lints clean at the
//!    doubled launch shape;
//! 3. each transformed kernel's fault-free run produces **bit-identical**
//!    user buffers and **zero** detections — RMT must be invisible when
//!    nothing goes wrong;
//! 4. a small seeded fault-injection campaign over sites chosen *and
//!    classified* by the static coverage analysis upholds its verdicts:
//!    no silent corruption at a Detected-class site (soundness), and no
//!    silent corruption anywhere the analysis did not predict (recall).
//!
//! Any failure is reported as an [`OracleFailure`] naming the layer and
//! flavor; [`run_case`] couples the check to the shrinker so a failing
//! seed comes back as a minimized, replayable [`Finding`]. Everything is
//! a pure function of `(case, config)` — fault coordinates come from
//! [`FaultSampler`], not a wall clock — so failures reproduce exactly.

use std::fmt;

use crate::campaign::{self, Observed, Outcome, SiteKind, Violation};
use crate::coverage as cov;
use crate::error::RmtError;
use crate::launcher::RmtLauncher;
use crate::options::TransformOptions;
use crate::transform::{transform, RmtKernel};
use crate::verify::verify_rmt;
use gcn_sim::{
    Arg, BufferId, CompiledKernel, Device, DeviceConfig, FaultPlan, FaultSampler, LaunchConfig,
};
use rmt_ir::analysis::lint::{lint_kernel, LintAssumptions, LintConfig};
use rmt_ir::fuzz::{generate, shrink, ArgSpec, FuzzCase, GenConfig};
use rmt_ir::{validate, ParamKind, Ty};

/// The five full-stage flavor columns every case is checked under: the
/// paper's four in paper order, plus the budgeted Selective flavor,
/// exercised at a mid-range budget so both planned and unplanned exits
/// occur.
pub fn flavors() -> [(&'static str, TransformOptions); 5] {
    let [a, b, c, d] = TransformOptions::full_stage();
    [a, b, c, d, ("Selective", TransformOptions::selective(60))]
}

/// Which oracle layer rejected the case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// `validate` rejected the kernel (before or after a transform).
    Invalid,
    /// The transform itself returned an error.
    Transform,
    /// `verify_rmt` found a broken transform invariant.
    Verify,
    /// The symbolic translation validator ([`crate::tv`]) left unproven
    /// equivalence or compare-dominance obligations.
    Unproven,
    /// The lint reported a diagnostic.
    LintDirty,
    /// A fault-free launch failed in the simulator.
    Sim,
    /// A fault-free run bumped the detection counter.
    FalseDetection,
    /// A transformed run's user buffers differ from the original's.
    OutputMismatch,
    /// SDC at a site the coverage analysis classified Detected.
    CoverageSoundness,
    /// SDC at a site the coverage analysis did not classify Vulnerable.
    CoverageRecall,
}

impl FailureKind {
    /// Stable short label, used in reports and corpus file headers.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Invalid => "invalid",
            FailureKind::Transform => "transform",
            FailureKind::Verify => "verify",
            FailureKind::Unproven => "tv-unproven",
            FailureKind::LintDirty => "lint",
            FailureKind::Sim => "sim",
            FailureKind::FalseDetection => "false-detection",
            FailureKind::OutputMismatch => "output-mismatch",
            FailureKind::CoverageSoundness => "coverage-soundness",
            FailureKind::CoverageRecall => "coverage-recall",
        }
    }

    /// `true` for the two kinds that only the injection campaign can
    /// produce — shrinking any other kind can skip the campaign.
    pub fn needs_faults(self) -> bool {
        matches!(
            self,
            FailureKind::CoverageSoundness | FailureKind::CoverageRecall
        )
    }
}

/// One oracle rejection: the layer, the flavor it happened under, and a
/// human-readable account.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// The layer that rejected the case.
    pub kind: FailureKind,
    /// `"original"` or the flavor label.
    pub flavor: &'static str,
    /// What exactly went wrong.
    pub message: String,
}

impl fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]: {}",
            self.kind.label(),
            self.flavor,
            self.message
        )
    }
}

fn fail(kind: FailureKind, flavor: &'static str, message: String) -> OracleFailure {
    OracleFailure {
        kind,
        flavor,
        message,
    }
}

/// Work tally of one successful check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Simulator launches performed (golden, per-flavor, injected).
    pub launches: usize,
    /// Faults actually applied across the campaign.
    pub injections: usize,
}

impl OracleReport {
    /// Accumulates another report's tallies (used when merging per-case
    /// reports into a campaign total).
    pub fn absorb(&mut self, other: OracleReport) {
        self.launches += other.launches;
        self.injections += other.injections;
    }
}

/// Oracle configuration.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Simulated device for every launch (the watchdog for injected runs
    /// is derived from the fault-free run, not taken from here).
    pub device: DeviceConfig,
    /// Upper bound on injection *attempts* per flavor; `0` disables the
    /// campaign entirely (layers 1–3 still run).
    pub max_injections: usize,
    /// Seed for the fault-coordinate sampler.
    pub fault_seed: u64,
}

impl OracleConfig {
    /// A small-device config with a modest campaign — the default for
    /// fuzzing, where throughput matters.
    pub fn quick() -> Self {
        OracleConfig {
            device: DeviceConfig::small_test(),
            max_injections: 6,
            fault_seed: 0,
        }
    }

    /// The same config with the injection campaign disabled.
    pub fn without_faults(mut self) -> Self {
        self.max_injections = 0;
        self
    }
}

/// Creates the kernel's arguments on `dev` from the case's [`ArgSpec`]s.
/// Returns the positional [`Arg`]s plus the handles of the buffer args
/// (in parameter order) for reading back results.
fn materialize(dev: &mut Device, case: &FuzzCase) -> (Vec<Arg>, Vec<BufferId>) {
    let mut args = Vec::new();
    let mut bufs = Vec::new();
    for (spec, param) in case.args.iter().zip(&case.kernel.params) {
        match spec {
            ArgSpec::Buffer { .. } => {
                let words = spec.buffer_words().expect("buffer spec");
                let b = dev.create_buffer(words.len() as u32 * 4);
                dev.write_u32s(b, &words);
                bufs.push(b);
                args.push(Arg::Buffer(b));
            }
            ArgSpec::Scalar { bits } => args.push(match param.kind {
                ParamKind::Scalar(Ty::F32) => Arg::F32(f32::from_bits(*bits)),
                ParamKind::Scalar(Ty::I32) => Arg::I32(*bits as i32),
                _ => Arg::U32(*bits),
            }),
        }
    }
    (args, bufs)
}

/// Runs `compiled` — the original kernel (`rk` is `None`) or the
/// transformed `rk` — optionally with faults, on `dev` reset to `dev_cfg`,
/// which is the state a new device would have.
fn run(
    dev: &mut Device,
    case: &FuzzCase,
    dev_cfg: &DeviceConfig,
    compiled: &CompiledKernel,
    rk: Option<&RmtKernel>,
    faults: FaultPlan,
) -> Result<Observed, String> {
    dev.reset(dev_cfg);
    let (args, bufs) = materialize(dev, case);
    let cfg = LaunchConfig::new_1d(case.global as usize, case.local as usize)
        .args(args)
        .faults(faults);
    let (detections, stats) = match rk {
        None => (
            0,
            dev.launch_compiled(compiled, &cfg)
                .map_err(|e| format!("original launch failed: {e}"))?,
        ),
        Some(rk) => {
            let run = RmtLauncher::new()
                .launch_compiled(dev, rk, compiled, &cfg)
                .map_err(|e| e.to_string())?;
            (run.detections, run.stats)
        }
    };
    Ok(Observed {
        detections,
        faults_applied: stats.faults_applied,
        dyn_insts: stats.counters.dyn_insts,
        bufs: bufs.iter().map(|b| dev.read_buffer(*b)).collect(),
    })
}

fn lint_at(kernel: &rmt_ir::Kernel, local: u32) -> Vec<String> {
    let cfg = LintConfig::with_assumptions(LintAssumptions::one_dim(local));
    lint_kernel(kernel, &cfg)
        .into_iter()
        .map(|d| d.to_string())
        .collect()
}

/// The sampled injection campaign for one flavor, run on `dev`.
/// `fault_free_insts` and `golden` come from the flavor's own clean run.
#[allow(clippy::too_many_arguments)]
fn inject(
    dev: &mut Device,
    case: &FuzzCase,
    cfg: &OracleConfig,
    flavor_index: u64,
    flavor: &'static str,
    rk: &RmtKernel,
    compiled: &CompiledKernel,
    fault_free_insts: u64,
    golden: &[Vec<u8>],
    rep: &mut OracleReport,
) -> Result<(), OracleFailure> {
    let report = cov::analyze(rk);
    let sites = campaign::pick_sites(rk, &report);
    let mut sampler = FaultSampler::new(cfg.fault_seed ^ flavor_index.wrapping_mul(0x9E37));
    let lds_words = u64::from((rk.kernel.lds_bytes / 4).max(1));
    // Arguments evaluate left to right, so each target draws its
    // coordinates in a fixed order before the trigger.
    let attempts = sites.iter().cycle().take(cfg.max_injections).map(|site| {
        let target = match site.kind {
            SiteKind::Lds => site.target(0, sampler.below(lds_words) as u32 * 4, sampler.bit8()),
            SiteKind::Sgpr(_) => site.target(0, 0, sampler.bit32()),
            SiteKind::Vgpr(_) => site.target(sampler.lane(), 0, sampler.bit32()),
        };
        (site, target, sampler.trigger(fault_free_insts))
    });
    let inj_dev = campaign::injected_device(&cfg.device, fault_free_insts);
    let launch = |plan| run(dev, case, &inj_dev, compiled, Some(rk), plan);
    for entry in campaign::run(attempts, golden, launch) {
        rep.launches += 1;
        if matches!(
            entry.outcome,
            Outcome::Detected | Outcome::Sdc | Outcome::Masked
        ) {
            rep.injections += 1;
        }
        match campaign::verdict(&report, &entry) {
            Some(Violation::Soundness(m)) => {
                return Err(fail(FailureKind::CoverageSoundness, flavor, m))
            }
            Some(Violation::Recall(m)) => return Err(fail(FailureKind::CoverageRecall, flavor, m)),
            None => {}
        }
    }
    Ok(())
}

/// Checks one case against the full oracle stack.
///
/// # Errors
///
/// Returns the first [`OracleFailure`] encountered, in layer order.
pub fn check_case(case: &FuzzCase, cfg: &OracleConfig) -> Result<OracleReport, OracleFailure> {
    check_case_with(case, cfg, &|_| {})
}

/// [`check_case`], with a hook that mutates each transformed kernel
/// before it is verified and run — the seam the broken-transform tests
/// (and `coverage_negative`-style sabotage) plug into.
///
/// # Errors
///
/// Returns the first [`OracleFailure`] encountered, in layer order.
pub fn check_case_with(
    case: &FuzzCase,
    cfg: &OracleConfig,
    mutate: &dyn Fn(&mut RmtKernel),
) -> Result<OracleReport, OracleFailure> {
    let mut rep = OracleReport::default();

    // Stage counters feed the campaign metrics snapshot; they count
    // stage *entries*, so a failing case shows exactly how deep into the
    // oracle stack it got.
    let stage = |name: &'static str, flavor: &'static str| {
        if rmt_obs::enabled() {
            rmt_obs::add("oracle.stage", &[("flavor", flavor), ("stage", name)], 1);
        }
    };

    stage("validate", "original");
    validate(&case.kernel).map_err(|e| fail(FailureKind::Invalid, "original", format!("{e:?}")))?;
    stage("lint", "original");
    let diags = lint_at(&case.kernel, case.local);
    if !diags.is_empty() {
        return Err(fail(FailureKind::LintDirty, "original", diags.join("; ")));
    }
    // One device serves every run of the case, reset before each; each
    // kernel is compiled once.
    let mut dev = Device::new(cfg.device.clone());
    stage("golden_run", "original");
    let original = dev
        .compile(&case.kernel)
        .map_err(|e| format!("original launch failed: {e}"))
        .and_then(|ck| run(&mut dev, case, &cfg.device, &ck, None, FaultPlan::none()))
        .map_err(|m| fail(FailureKind::Sim, "original", m))?;
    let golden = original.bufs;
    rep.launches += 1;

    for (flavor_index, (label, opts)) in flavors().into_iter().enumerate() {
        let _span = rmt_obs::span("oracle", label).logical_ts(flavor_index as u64);
        stage("transform", label);
        let mut rk = transform(&case.kernel, &opts)
            .map_err(|e| fail(FailureKind::Transform, label, format!("{e}")))?;
        mutate(&mut rk);
        stage("validate", label);
        validate(&rk.kernel).map_err(|e| fail(FailureKind::Invalid, label, format!("{e:?}")))?;
        stage("verify", label);
        let errs = verify_rmt(&case.kernel, &rk);
        if !errs.is_empty() {
            let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
            return Err(fail(FailureKind::Verify, label, msgs.join("; ")));
        }
        stage("tv", label);
        let tv_report = crate::tv::validate_transform(&case.kernel, &rk);
        if !tv_report.proved() {
            let msgs: Vec<&str> = tv_report
                .residue
                .iter()
                .map(|r| r.detail.as_str())
                .collect();
            return Err(fail(FailureKind::Unproven, label, msgs.join("; ")));
        }
        let lint_local = if rk.meta.doubles_workgroup() {
            case.local * 2
        } else {
            case.local
        };
        stage("lint", label);
        let diags = lint_at(&rk.kernel, lint_local);
        if !diags.is_empty() {
            return Err(fail(FailureKind::LintDirty, label, diags.join("; ")));
        }

        stage("fault_free_run", label);
        let compiled = dev
            .compile(&rk.kernel)
            .map_err(|e| fail(FailureKind::Sim, label, RmtError::from(e).to_string()))?;
        let clean = run(
            &mut dev,
            case,
            &cfg.device,
            &compiled,
            Some(&rk),
            FaultPlan::none(),
        )
        .map_err(|m| fail(FailureKind::Sim, label, m))?;
        rep.launches += 1;
        let (det, insts, bufs) = (clean.detections, clean.dyn_insts, clean.bufs);
        if det != 0 {
            return Err(fail(
                FailureKind::FalseDetection,
                label,
                format!("fault-free run reported {det} detections"),
            ));
        }
        if bufs != golden {
            let which: Vec<usize> = bufs
                .iter()
                .zip(&golden)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .map(|(i, _)| i)
                .collect();
            return Err(fail(
                FailureKind::OutputMismatch,
                label,
                format!("user buffers {which:?} differ from the original run"),
            ));
        }

        if cfg.max_injections > 0 {
            stage("campaign", label);
            inject(
                &mut dev,
                case,
                cfg,
                flavor_index as u64,
                label,
                &rk,
                &compiled,
                insts.max(original.dyn_insts),
                &bufs,
                &mut rep,
            )?;
        }
    }
    Ok(rep)
}

/// A minimized counterexample: everything needed to file, commit, and
/// replay the failure.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The case seed that produced the failure.
    pub seed: u64,
    /// The oracle layer that rejected it.
    pub kind: FailureKind,
    /// The original failure, rendered.
    pub message: String,
    /// The minimized case (still fails with the same [`FailureKind`]).
    pub case: FuzzCase,
    /// Instruction count before shrinking.
    pub original_insts: usize,
    /// Instruction count after shrinking.
    pub minimized_insts: usize,
}

/// Generates the case for `seed`, checks it, and — on failure — shrinks
/// it while it keeps failing with the same [`FailureKind`].
///
/// For failure kinds the injection campaign cannot produce, the campaign
/// is disabled during shrinking: the predicate can only flip to a
/// coverage failure through the campaign, so skipping it is sound and
/// much faster.
///
/// # Errors
///
/// Returns the minimized [`Finding`] when the oracle rejects the case.
pub fn run_case(
    seed: u64,
    gen_cfg: &GenConfig,
    cfg: &OracleConfig,
    mutate: &dyn Fn(&mut RmtKernel),
) -> Result<OracleReport, Box<Finding>> {
    let case = generate(seed, gen_cfg);
    let failure = match check_case_with(&case, cfg, mutate) {
        Ok(rep) => return Ok(rep),
        Err(f) => f,
    };
    let mut shrink_cfg = cfg.clone();
    if !failure.kind.needs_faults() {
        shrink_cfg.max_injections = 0;
    }
    let kind = failure.kind;
    let mut pred =
        |c: &FuzzCase| matches!(check_case_with(c, &shrink_cfg, mutate), Err(f) if f.kind == kind);
    let small = shrink(&case, &mut pred);
    Err(Box::new(Finding {
        seed,
        kind,
        message: failure.to_string(),
        original_insts: case.kernel.total_insts(),
        minimized_insts: small.kernel.total_insts(),
        case: small,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_ir::fuzz::child_seed;
    use rmt_ir::{AtomicOp, Inst, MemSpace, Reg};

    #[test]
    fn generated_cases_pass_the_oracle() {
        let gen_cfg = GenConfig::default();
        let cfg = OracleConfig::quick();
        for i in 0..10 {
            let seed = child_seed(0xFEED, i);
            let rep = run_case(seed, &gen_cfg, &cfg, &|_| {}).unwrap_or_else(|f| {
                panic!(
                    "seed {seed:#x}: {} ({} -> {} insts)\n{}",
                    f.message,
                    f.original_insts,
                    f.minimized_insts,
                    rmt_ir::fuzz::serialize(&f.case)
                )
            });
            assert!(rep.launches >= 6, "golden + five flavors at minimum");
        }
    }

    /// Sabotage that bumps the detect counter unconditionally: a clean
    /// run can no longer report zero detections, so some layer of the
    /// oracle must reject every case.
    fn spurious_detection(rk: &mut RmtKernel) {
        let base = Reg(rk.kernel.next_reg);
        let one = Reg(rk.kernel.next_reg + 1);
        rk.kernel.next_reg += 2;
        let detect = rk.meta.detect_param;
        rk.kernel.body.0.push(Inst::ReadParam {
            dst: base,
            index: detect,
        });
        rk.kernel.body.0.push(Inst::Const {
            dst: one,
            ty: Ty::U32,
            bits: 1,
        });
        rk.kernel.body.0.push(Inst::Atomic {
            dst: None,
            space: MemSpace::Global,
            op: AtomicOp::Add,
            addr: base,
            value: one,
        });
    }

    #[test]
    fn oracle_rejects_a_sabotaged_transform() {
        let cfg = OracleConfig::quick().without_faults();
        let case = generate(child_seed(0xFEED, 0), &GenConfig::default());
        let failure =
            check_case_with(&case, &cfg, &spurious_detection).expect_err("sabotage must be caught");
        assert!(
            matches!(
                failure.kind,
                FailureKind::Verify | FailureKind::Unproven | FailureKind::FalseDetection
            ),
            "unexpected failure: {failure}"
        );
    }

    #[test]
    fn findings_are_shrunk_and_still_fail() {
        let gen_cfg = GenConfig::default();
        let cfg = OracleConfig::quick().without_faults();
        let f = run_case(child_seed(0xFEED, 0), &gen_cfg, &cfg, &spurious_detection)
            .expect_err("sabotage must be caught");
        assert!(f.minimized_insts <= f.original_insts);
        let again = check_case_with(&f.case, &cfg, &spurious_detection)
            .expect_err("minimized case must still fail");
        assert_eq!(again.kind, f.kind);
    }

    /// Sabotage that blinds one detection compare: the *second* compare
    /// tagged [`RmtTag::DetectCompare`] (the value leg of the first
    /// protected exit) is replaced by constant `false`. The structure the
    /// verifier checks survives — a detect bump still exists, guarded by
    /// a channel-consuming condition — so only the translation
    /// validator's coverage obligation can catch it.
    fn blind_value_compare(rk: &mut RmtKernel) {
        use crate::transform::RmtTag;
        fn walk(insts: &mut [Inst], seen: &mut usize, rk_tags: &crate::Provenance) {
            for inst in insts {
                match inst {
                    Inst::Cmp { dst, .. } if rk_tags.is(*dst, RmtTag::DetectCompare) => {
                        *seen += 1;
                        if *seen == 2 {
                            *inst = Inst::Const {
                                dst: match inst.dst() {
                                    Some(d) => d,
                                    None => unreachable!("Cmp has a destination"),
                                },
                                ty: Ty::U32,
                                bits: 0,
                            };
                        }
                    }
                    Inst::If {
                        then_blk, else_blk, ..
                    } => {
                        walk(&mut then_blk.0, seen, rk_tags);
                        walk(&mut else_blk.0, seen, rk_tags);
                    }
                    Inst::While { cond, body, .. } => {
                        walk(&mut cond.0, seen, rk_tags);
                        walk(&mut body.0, seen, rk_tags);
                    }
                    _ => {}
                }
            }
        }
        let tags = rk.provenance.clone();
        let mut seen = 0;
        walk(&mut rk.kernel.body.0, &mut seen, &tags);
    }

    #[test]
    fn oracle_tv_stage_catches_a_blinded_compare() {
        let cfg = OracleConfig::quick().without_faults();
        let gen_cfg = GenConfig::default();
        // Find a generated case whose Intra+LDS transform has at least
        // two detection compares, so the sabotage has a target.
        let case = (0..32)
            .map(|i| generate(child_seed(0xFEED, i), &gen_cfg))
            .find(|c| {
                transform(&c.kernel, &TransformOptions::intra_plus_lds()).is_ok_and(|rk| {
                    rk.provenance.regs_with(crate::RmtTag::DetectCompare).len() >= 2
                })
            })
            .expect("some fuzz case has a protected exit");
        let failure = check_case_with(&case, &cfg, &blind_value_compare)
            .expect_err("blinded compare must be caught");
        assert_eq!(failure.kind, FailureKind::Unproven, "{failure}");
        assert!(
            failure.message.contains("no channel-sourced compare"),
            "message must name the uncovered obligation: {failure}"
        );
    }

    #[test]
    fn failure_labels_are_stable() {
        assert_eq!(FailureKind::OutputMismatch.label(), "output-mismatch");
        assert_eq!(FailureKind::CoverageSoundness.label(), "coverage-soundness");
        assert!(FailureKind::CoverageRecall.needs_faults());
        assert!(!FailureKind::FalseDetection.needs_faults());
        let f = fail(FailureKind::Sim, "Inter", "boom".into());
        assert_eq!(f.to_string(), "sim [Inter]: boom");
    }
}
