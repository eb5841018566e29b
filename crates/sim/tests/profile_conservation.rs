//! Property tests for the profiling layer's conservation invariant:
//! every tick of every wave slot is attributed to exactly one stall
//! category, so per CU the attributed ticks (including empty slots) sum
//! to `wall_ticks x slot count` — over fuzz-generated kernels, and with
//! zero perturbation of an unprofiled run's results or timing.

use gcn_sim::{
    Arg, BufferId, Device, DeviceConfig, LaunchConfig, Profile, ProfileConfig, SimError, SlotCat,
    TICKS_PER_CYCLE,
};
use rmt_ir::fuzz::{generate, ArgSpec, FuzzCase, GenConfig};
use rmt_ir::{ParamKind, Ty};

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

fn profiled_launch(case: &FuzzCase, interval: u64) -> Result<Profile, SimError> {
    let mut dev = Device::new(DeviceConfig::small_test());
    let (args, _) = materialize(&mut dev, case);
    let cfg = LaunchConfig::new_1d(case.global as usize, case.local as usize)
        .args(args)
        .profile(ProfileConfig {
            sample_interval: interval,
        });
    let stats = dev.launch(&case.kernel, &cfg)?;
    Ok(stats.profile.expect("profile requested"))
}

/// The conservation invariant holds on arbitrary generated kernels
/// (loops, divergence, barriers, LDS, atomics — whatever the generator
/// produced for these seeds), with timeline sampling enabled.
#[test]
fn conservation_holds_on_fuzz_generated_kernels() {
    let cfg = GenConfig::default();
    let mut checked = 0;
    for seed in 0..48u64 {
        let case = generate(seed, &cfg);
        let profile = match profiled_launch(&case, 64 * TICKS_PER_CYCLE) {
            Ok(p) => p,
            // The generator targets the full device range; a case the
            // small test device cannot schedule is skipped, not a bug.
            Err(SimError::Unschedulable(_)) => continue,
            Err(e) => panic!("seed {seed}: launch failed: {e}"),
        };
        profile
            .check_conservation()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // Device-wide restatement of the invariant.
        assert_eq!(
            profile.totals().iter().sum::<u64>(),
            profile.capacity(),
            "seed {seed}: totals must sum to wall_ticks x slots x CUs"
        );
        // Per-PC attributed ticks cover exactly the wave-occupied ticks.
        let pc_ticks: u64 = profile.pc.iter().map(|p| p.ticks).sum();
        assert_eq!(
            pc_ticks,
            profile.occupied_ticks(),
            "seed {seed}: per-PC ticks must tile wave residency"
        );
        checked += 1;
    }
    assert!(checked >= 24, "only {checked} cases were schedulable");
}

/// Profiling is observational: an unprofiled launch and a profiled one
/// produce bit-identical memory contents and performance counters.
#[test]
fn profiling_does_not_perturb_results_or_timing() {
    for seed in [3u64, 7, 11] {
        let case = generate(seed, &GenConfig::default());
        let run = |profiled: bool| {
            let mut dev = Device::new(DeviceConfig::small_test());
            let (args, bufs) = materialize(&mut dev, &case);
            let cfg = LaunchConfig::new_1d(case.global as usize, case.local as usize).args(args);
            let stats = if profiled {
                dev.launch(&case.kernel, &cfg.profile(ProfileConfig::default()))
            } else {
                dev.launch(&case.kernel, &cfg)
            };
            stats.map(|s| {
                let contents: Vec<Vec<u8>> = bufs.iter().map(|&b| dev.read_buffer(b)).collect();
                (s.counters, contents)
            })
        };
        match (run(false), run(true)) {
            (Ok((c0, b0)), Ok((c1, b1))) => {
                assert_eq!(c0, c1, "seed {seed}: counters perturbed by profiling");
                assert_eq!(b0, b1, "seed {seed}: memory perturbed by profiling");
            }
            (Err(e0), Err(e1)) => assert_eq!(e0.to_string(), e1.to_string()),
            (a, b) => panic!("seed {seed}: divergent outcomes {a:?} vs {b:?}"),
        }
    }
}

/// Accumulating per-pass profiles (the multi-pass benchmark path)
/// preserves conservation.
#[test]
fn accumulated_profiles_stay_conserved() {
    let case = generate(5, &GenConfig::default());
    let p1 = match profiled_launch(&case, 0) {
        Ok(p) => p,
        Err(SimError::Unschedulable(_)) => return,
        Err(e) => panic!("launch failed: {e}"),
    };
    let p2 = profiled_launch(&case, 0).expect("second pass");
    let mut acc = p1.clone();
    acc.accumulate(&p2);
    acc.check_conservation().expect("accumulated conservation");
    assert_eq!(acc.wall_ticks, p1.wall_ticks + p2.wall_ticks);
    assert_eq!(
        acc.totals()[SlotCat::EmptySlot.index()],
        p1.totals()[SlotCat::EmptySlot.index()] + p2.totals()[SlotCat::EmptySlot.index()]
    );
}
