//! Benchmark registry and run drivers.

use crate::stats::AggregateStats;
use crate::{Benchmark, Plan, Scale};
use gcn_sim::{Device, DeviceConfig, LaunchConfig, SimError};
use rmt_core::{transform, RmtError, RmtKernel, RmtLauncher, TransformOptions};
use std::error::Error;
use std::fmt;

/// Errors from running a benchmark end-to-end.
#[derive(Debug)]
pub enum SuiteError {
    /// The simulator failed.
    Sim(SimError),
    /// RMT transform or launch failed.
    Rmt(RmtError),
    /// Device results did not match the CPU reference.
    Verify {
        /// Benchmark abbreviation.
        bench: &'static str,
        /// Mismatch description.
        detail: String,
    },
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::Sim(e) => write!(f, "simulator: {e}"),
            SuiteError::Rmt(e) => write!(f, "rmt: {e}"),
            SuiteError::Verify { bench, detail } => {
                write!(f, "{bench} verification failed: {detail}")
            }
        }
    }
}

impl Error for SuiteError {}

impl From<SimError> for SuiteError {
    fn from(e: SimError) -> Self {
        SuiteError::Sim(e)
    }
}

impl From<RmtError> for SuiteError {
    fn from(e: RmtError) -> Self {
        SuiteError::Rmt(e)
    }
}

/// Outcome of a verified benchmark run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Aggregated statistics over all passes.
    pub stats: AggregateStats,
    /// Error detections reported by RMT (0 for original runs, and for
    /// fault-free RMT runs).
    pub detections: u32,
}

/// All 16 benchmarks, in the paper's figure order.
pub fn all() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(crate::binary_search::BinarySearch),
        Box::new(crate::binomial_option::BinomialOption),
        Box::new(crate::bitonic_sort::BitonicSort),
        Box::new(crate::black_scholes::BlackScholes),
        Box::new(crate::dct::Dct),
        Box::new(crate::dwt_haar::DwtHaar1d),
        Box::new(crate::fast_walsh::FastWalshTransform),
        Box::new(crate::floyd_warshall::FloydWarshall),
        Box::new(crate::matmul::MatrixMultiplication),
        Box::new(crate::nbody::NBody),
        Box::new(crate::prefix_sum::PrefixSum),
        Box::new(crate::quasi_random::QuasiRandomSequence),
        Box::new(crate::reduction::Reduction),
        Box::new(crate::convolution::SimpleConvolution),
        Box::new(crate::sobel::SobelFilter),
        Box::new(crate::urng::Urng),
    ]
}

/// Looks a benchmark up by its paper abbreviation (case-insensitive).
pub fn by_abbrev(abbrev: &str) -> Option<Box<dyn Benchmark>> {
    all()
        .into_iter()
        .find(|b| b.abbrev().eq_ignore_ascii_case(abbrev))
}

/// Runs the original (untransformed) benchmark, verifying results.
/// An occupancy cap goes in `dev_cfg.max_groups_per_cu`.
///
/// # Errors
///
/// Simulator failures and verification mismatches.
pub fn run_original(
    bench: &dyn Benchmark,
    scale: Scale,
    dev_cfg: &DeviceConfig,
) -> Result<RunOutcome, SuiteError> {
    run_passes(bench, scale, dev_cfg, None, &|c| c)
}

/// Runs the RMT-transformed benchmark, verifying results against the CPU
/// reference (which also proves the transform preserved semantics).
///
/// # Errors
///
/// Transform, launch, and verification failures.
pub fn run_rmt(
    bench: &dyn Benchmark,
    scale: Scale,
    dev_cfg: &DeviceConfig,
    opts: &TransformOptions,
) -> Result<RunOutcome, SuiteError> {
    let rk = transform(&bench.kernel(), opts)?;
    run_passes(bench, scale, dev_cfg, Some(&rk), &|c| c)
}

/// Like [`run_original`], with cycle-attributed profiling enabled on
/// every pass. Per-pass [`gcn_sim::Profile`]s are accumulated into one
/// (wall ticks concatenate, category and per-PC counters add), so the
/// conservation invariant still holds on the returned profile.
///
/// # Errors
///
/// Simulator failures and verification mismatches.
pub fn run_original_profiled(
    bench: &dyn Benchmark,
    scale: Scale,
    dev_cfg: &DeviceConfig,
    pcfg: &gcn_sim::ProfileConfig,
) -> Result<(RunOutcome, gcn_sim::Profile), SuiteError> {
    let outcome = run_passes(bench, scale, dev_cfg, None, &|c| c.profile(pcfg.clone()))?;
    Ok(take_profile(outcome))
}

/// Like [`run_rmt`], with cycle-attributed profiling enabled on every
/// pass. Also returns the transformed kernel so callers can decompose
/// the profile with [`rmt_core::split_cycles`] without re-running the
/// transform.
///
/// # Errors
///
/// Transform, launch, and verification failures.
pub fn run_rmt_profiled(
    bench: &dyn Benchmark,
    scale: Scale,
    dev_cfg: &DeviceConfig,
    opts: &TransformOptions,
    pcfg: &gcn_sim::ProfileConfig,
) -> Result<(RunOutcome, gcn_sim::Profile, RmtKernel), SuiteError> {
    let rk = transform(&bench.kernel(), opts)?;
    let outcome = run_passes(bench, scale, dev_cfg, Some(&rk), &|c| {
        c.profile(pcfg.clone())
    })?;
    let (outcome, profile) = take_profile(outcome);
    Ok((outcome, profile, rk))
}

/// The one pass loop: plans the benchmark on a new device, compiles the
/// original kernel (`rk` is `None`) or the transformed one, launches
/// every pass as `modify` adjusts it, and verifies the results.
fn run_passes(
    bench: &dyn Benchmark,
    scale: Scale,
    dev_cfg: &DeviceConfig,
    rk: Option<&RmtKernel>,
    modify: &dyn Fn(LaunchConfig) -> LaunchConfig,
) -> Result<RunOutcome, SuiteError> {
    let mut dev = Device::new(dev_cfg.clone());
    let plan = bench.plan(scale, &mut dev);
    let compiled = match rk {
        Some(rk) => dev.compile(&rk.kernel)?,
        None => dev.compile(&bench.kernel())?,
    };
    let mut launcher = RmtLauncher::new();
    let mut agg = AggregateStats::new();
    let mut detections = 0;
    for pass in &plan.passes {
        let cfg = modify(pass.clone());
        let stats = match rk {
            Some(rk) => {
                let run = launcher.launch_compiled(&mut dev, rk, &compiled, &cfg)?;
                detections += run.detections;
                run.stats
            }
            None => dev.launch_compiled(&compiled, &cfg)?,
        };
        agg.add(&stats);
    }
    verify(bench, scale, &dev, &plan)?;
    Ok(RunOutcome {
        stats: agg,
        detections,
    })
}

/// Moves the accumulated profile of a profiled run out of its outcome.
fn take_profile(mut outcome: RunOutcome) -> (RunOutcome, gcn_sim::Profile) {
    let profile = outcome
        .stats
        .profile
        .take()
        .expect("benchmarks have at least one pass");
    (outcome, profile)
}

/// Runs the naive full-duplication baseline the paper's related work
/// discusses (Dimitrov et al.): execute the entire kernel launch twice on
/// independent state and let the *host* compare every buffer afterwards.
/// Simulated cost is the sum of both launches; host-side comparison time
/// is not simulated (it is off-GPU), mirroring how the paper accounts
/// kernel time. Detections count mismatching buffer words.
///
/// # Errors
///
/// Simulator failures and verification mismatches (primary copy).
pub fn run_duplicated(
    bench: &dyn Benchmark,
    scale: Scale,
    dev_cfg: &DeviceConfig,
) -> Result<RunOutcome, SuiteError> {
    let kernel = bench.kernel();
    let mut agg = AggregateStats::new();

    let run_copy = |agg: &mut AggregateStats| -> Result<(Device, Plan), SuiteError> {
        let mut dev = Device::new(dev_cfg.clone());
        let plan = bench.plan(scale, &mut dev);
        let compiled = dev.compile(&kernel)?;
        for pass in &plan.passes {
            let stats = dev.launch_compiled(&compiled, pass)?;
            agg.add(&stats);
        }
        Ok((dev, plan))
    };
    let (dev_a, plan_a) = run_copy(&mut agg)?;
    let (dev_b, plan_b) = run_copy(&mut agg)?;

    // Host-side output comparison over every buffer.
    let mut detections = 0u32;
    for (a, b) in plan_a.buffers.iter().zip(&plan_b.buffers) {
        let ba = dev_a.read_buffer(*a);
        let bb = dev_b.read_buffer(*b);
        detections += ba.iter().zip(&bb).filter(|(x, y)| x != y).count() as u32;
    }
    verify(bench, scale, &dev_a, &plan_a)?;
    Ok(RunOutcome {
        stats: agg,
        detections,
    })
}

fn verify(
    bench: &dyn Benchmark,
    scale: Scale,
    dev: &Device,
    plan: &Plan,
) -> Result<(), SuiteError> {
    bench
        .verify(scale, dev, plan)
        .map_err(|detail| SuiteError::Verify {
            bench: bench.abbrev(),
            detail,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_sixteen() {
        let v = all();
        assert_eq!(v.len(), 16);
        let abbrevs: Vec<&str> = v.iter().map(|b| b.abbrev()).collect();
        for a in [
            "BinS", "BO", "BitS", "BlkSch", "DCT", "DWT", "FWT", "FW", "MM", "NB", "PS", "QRS",
            "R", "SC", "SF", "URNG",
        ] {
            assert!(abbrevs.contains(&a), "missing {a}");
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(by_abbrev("bins").is_some());
        assert!(by_abbrev("BLKSCH").is_some());
        assert!(by_abbrev("nope").is_none());
    }
}
