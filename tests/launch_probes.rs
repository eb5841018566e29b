//! Trace and profile are probes on `LaunchConfig`, beside the fault plan.
//! They compose on one launch, and they only observe: a launch carrying
//! both returns the plain launch's statistics, the trace a trace-only
//! launch records and the profile a profile-only launch records — with
//! and without injected faults, for the original kernel and for the RMT
//! launcher, on both simulator engines.

use gpu_rmt::kernels::{by_abbrev, Scale};
use gpu_rmt::rmt::{transform, RmtKernel, RmtLauncher, TransformOptions};
use gpu_rmt::sim::{
    Device, DeviceConfig, FaultPlan, FaultTarget, LaunchConfig, LaunchStats, Profile,
    ProfileConfig, SimEngine, Trace, TraceConfig, TICKS_PER_CYCLE,
};

/// One pass: its statistics and RMT detections, or its error.
type Pass = Result<(LaunchStats, u32), String>;

/// Runs every pass of `abbrev`'s small-scale plan on a new device — the
/// original kernel when `rk` is `None`, else the transformed one through
/// the RMT launcher — with `probe` applied to each pass's launch.
fn run(
    abbrev: &str,
    engine: SimEngine,
    rk: Option<&RmtKernel>,
    probe: &dyn Fn(LaunchConfig) -> LaunchConfig,
) -> Vec<Pass> {
    let bench = by_abbrev(abbrev).expect("known benchmark");
    let mut cfg = DeviceConfig::radeon_hd_7790();
    cfg.engine = engine;
    let mut dev = Device::new(cfg);
    let plan = bench.plan(Scale::Small, &mut dev);
    let kernel = rk.map_or_else(|| bench.kernel(), |rk| rk.kernel.clone());
    let compiled = dev.compile(&kernel).expect("compile");
    let mut launcher = RmtLauncher::new();
    plan.passes
        .iter()
        .map(|pass| {
            let cfg = probe(pass.clone());
            match rk {
                None => dev
                    .launch_compiled(&compiled, &cfg)
                    .map(|s| (s, 0))
                    .map_err(|e| e.to_string()),
                Some(rk) => launcher
                    .launch_compiled(&mut dev, rk, &compiled, &cfg)
                    .map(|r| (r.stats, r.detections))
                    .map_err(|e| e.to_string()),
            }
        })
        .collect()
}

/// Splits what the probes recorded off a pass.
fn split(pass: Pass) -> (Pass, Option<Trace>, Option<Profile>) {
    match pass {
        Ok((mut stats, detections)) => {
            let trace = stats.trace.take();
            let profile = stats.profile.take();
            (Ok((stats, detections)), trace, profile)
        }
        Err(e) => (Err(e), None, None),
    }
}

fn traced(c: LaunchConfig) -> LaunchConfig {
    c.trace(TraceConfig::wavefront(0, 0, 0))
}

fn profiled(c: LaunchConfig) -> LaunchConfig {
    c.profile(ProfileConfig {
        sample_interval: 64 * TICKS_PER_CYCLE,
    })
}

/// A VGPR flip in the first wave while it is resident; the RMT flavors
/// detect it in some of the cases below.
fn faulted(c: LaunchConfig) -> LaunchConfig {
    c.faults(FaultPlan::single(
        2000,
        FaultTarget::Vgpr {
            group: 0,
            wave: 0,
            reg: 2,
            lane: 5,
            bit: 7,
        },
    ))
}

#[test]
fn probes_compose_and_only_observe() {
    let (mut faults_applied, mut detections) = (0, 0);
    for abbrev in ["R", "MM"] {
        let bench = by_abbrev(abbrev).expect("known benchmark");
        let flavors = [
            ("Original", None),
            (
                "Intra+LDS",
                Some(transform(&bench.kernel(), &TransformOptions::intra_plus_lds()).unwrap()),
            ),
            (
                "Inter",
                Some(transform(&bench.kernel(), &TransformOptions::inter()).unwrap()),
            ),
        ];
        for (flavor, rk) in &flavors {
            for engine in [SimEngine::Event, SimEngine::LockStep] {
                let at = format!("{abbrev} {flavor} {engine:?}");
                let rk = rk.as_ref();
                let plain = run(abbrev, engine, rk, &|c| c);
                let trace_only = run(abbrev, engine, rk, &traced);
                let profile_only = run(abbrev, engine, rk, &profiled);
                let both = run(abbrev, engine, rk, &|c| profiled(traced(c)));
                assert_eq!(plain.len(), both.len(), "{at}: pass count");
                for (i, (((plain, t), p), b)) in plain
                    .into_iter()
                    .zip(trace_only)
                    .zip(profile_only)
                    .zip(both)
                    .enumerate()
                {
                    assert!(plain.is_ok(), "{at} pass {i}: {plain:?}");
                    let (b, b_trace, b_profile) = split(b);
                    assert_eq!(b, plain, "{at} pass {i}: probes perturbed the launch");
                    let (_, t_trace, _) = split(t);
                    let (_, _, p_profile) = split(p);
                    assert!(b_trace.is_some() && b_profile.is_some(), "{at} pass {i}");
                    assert_eq!(b_trace, t_trace, "{at} pass {i}: trace differs");
                    assert_eq!(b_profile, p_profile, "{at} pass {i}: profile differs");
                }

                let faulty = run(abbrev, engine, rk, &faulted);
                let faulty_both = run(abbrev, engine, rk, &|c| profiled(traced(faulted(c))));
                assert_eq!(faulty.len(), faulty_both.len(), "{at}: pass count");
                for (i, (f, fb)) in faulty.into_iter().zip(faulty_both).enumerate() {
                    let (fb, _, _) = split(fb);
                    assert_eq!(fb, f, "{at} pass {i}: probes perturbed a faulted launch");
                    if let Ok((stats, detected)) = &f {
                        faults_applied += stats.faults_applied;
                        detections += detected;
                    }
                }
            }
        }
    }
    assert!(faults_applied > 0, "no planned fault was ever applied");
    assert!(detections > 0, "no injected fault was ever detected");
}
