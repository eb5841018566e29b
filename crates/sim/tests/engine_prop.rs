//! Property test: for *generated* kernels — not just the curated suite —
//! the event engine and the lock-step reference are bit-identical in
//! every observable, including under the profiler and under seeded fault
//! injection. Divergences shrink to a minimal reproducer before failing.
//!
//! The test is deterministic: cases come from the seeded `rmt-ir` fuzz
//! generator, fault coordinates from the seeded [`FaultSampler`], so a
//! failure reproduces from the printed seed and serialized case alone.

use gcn_sim::{
    Arg, BufferId, Device, DeviceConfig, FaultPlan, FaultSampler, FaultTarget, LaunchConfig,
    LaunchStats, Profile, ProfileConfig, SimEngine, TICKS_PER_CYCLE,
};
use rmt_ir::fuzz::{self, ArgSpec, FuzzCase, GenConfig};
use rmt_ir::{ParamKind, Ty};

const ROOT_SEED: u64 = 0x1CA4_2014;
const CASES: u64 = 40;

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

/// Everything one engine run can observe. Errors count as observations:
/// both engines must fail identically or succeed identically.
type Observation = Result<(LaunchStats, Profile, Vec<Vec<u8>>), String>;

fn run_engine(
    case: &FuzzCase,
    engine: SimEngine,
    plan: &FaultPlan,
    pcfg: &ProfileConfig,
) -> Observation {
    let mut cfg = DeviceConfig::small_test();
    cfg.engine = engine;
    let mut dev = Device::new(cfg);
    let (args, bufs) = materialize(&mut dev, case);
    let launch = LaunchConfig::new_1d(case.global as usize, case.local as usize)
        .args(args)
        .faults(plan.clone())
        .profile(pcfg.clone());
    match dev.launch(&case.kernel, &launch) {
        Ok(mut stats) => {
            let profile = stats.profile.take().expect("profile requested");
            let contents = bufs.iter().map(|b| dev.read_buffer(*b)).collect();
            Ok((stats, profile, contents))
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Derives a device-independent fault target for the case: the kind
/// rotates with the seed, the coordinates come from the seeded sampler,
/// and the trigger point is drawn from the case's real fault-free
/// dynamic-instruction count (measured on the event engine).
fn fault_plan(case: &FuzzCase, seed: u64) -> FaultPlan {
    let baseline = run_engine(
        case,
        SimEngine::Event,
        &FaultPlan::none(),
        &ProfileConfig::default(),
    );
    let dyn_insts = match &baseline {
        Ok((stats, ..)) => stats.counters.dyn_insts,
        // A case that errors even fault-free still gets compared across
        // engines; an arbitrary trigger is fine.
        Err(_) => 1,
    };
    let mut s = FaultSampler::new(seed);
    let groups = (case.global / case.local).max(1) as usize;
    let group = s.below(groups as u64) as usize;
    let waves = case.local.div_ceil(64).max(1) as usize;
    let wave = s.below(waves as u64) as usize;
    let reg = s.below(u64::from(case.kernel.next_reg.max(1))) as u32;
    let target = match seed % 3 {
        0 => FaultTarget::Vgpr {
            group,
            wave,
            reg,
            lane: s.lane(),
            bit: s.bit32(),
        },
        1 => FaultTarget::Sgpr {
            group,
            wave,
            reg,
            bit: s.bit32(),
        },
        _ if case.kernel.lds_bytes > 0 => FaultTarget::Lds {
            group,
            offset: s.below(u64::from(case.kernel.lds_bytes)) as u32,
            bit: s.bit8(),
        },
        _ => FaultTarget::Vgpr {
            group,
            wave,
            reg,
            lane: s.lane(),
            bit: s.bit32(),
        },
    };
    FaultPlan::single(s.trigger(dyn_insts), target)
}

/// Runs the case under both engines (profiled, with the seed's fault
/// plan) and describes the first observable divergence, if any.
fn divergence(case: &FuzzCase, seed: u64) -> Option<String> {
    let plan = fault_plan(case, seed);
    // A nonzero sample interval so the timeline sampler runs under both
    // engines too.
    let pcfg = ProfileConfig {
        sample_interval: 8 * TICKS_PER_CYCLE,
    };
    let event = run_engine(case, SimEngine::Event, &plan, &pcfg);
    let lockstep = run_engine(case, SimEngine::LockStep, &plan, &pcfg);
    match (event, lockstep) {
        (Ok(ev), Ok(ls)) => {
            if ev.0.counters != ls.0.counters {
                Some(format!(
                    "counters: {:?} vs {:?}",
                    ev.0.counters, ls.0.counters
                ))
            } else if ev.0.cycles != ls.0.cycles {
                Some(format!("cycles: {} vs {}", ev.0.cycles, ls.0.cycles))
            } else if ev.0.faults_applied != ls.0.faults_applied {
                Some(format!(
                    "faults_applied: {} vs {}",
                    ev.0.faults_applied, ls.0.faults_applied
                ))
            } else if let Some(diff) = ev.1.first_difference(&ls.1) {
                Some(format!("profile: {diff}"))
            } else if ev.2 != ls.2 {
                Some("buffer contents differ".to_string())
            } else {
                None
            }
        }
        (Err(a), Err(b)) if a == b => None,
        (event, lockstep) => Some(format!(
            "outcome kind: event={:?} vs lockstep={:?}",
            event.map(|_| "ok"),
            lockstep.map(|_| "ok")
        )),
    }
}

#[test]
fn generated_kernels_are_engine_invariant_under_faults() {
    for i in 0..CASES {
        let seed = fuzz::child_seed(ROOT_SEED, i);
        let case = fuzz::generate(seed, &GenConfig::default());
        if let Some(diff) = divergence(&case, seed) {
            // Shrink to a minimal diverging case before reporting, so the
            // failure is directly debuggable.
            let shrunk = fuzz::shrink(&case, &mut |c| divergence(c, seed).is_some());
            let final_diff = divergence(&shrunk, seed).unwrap_or(diff);
            panic!(
                "seed {seed:#x} (case {i}): engines diverge: {final_diff}\n\
                 shrunk case:\n{}",
                fuzz::serialize(&shrunk)
            );
        }
    }
}
