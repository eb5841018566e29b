//! Differential equivalence tests: the event-driven machine loop must be
//! bit-identical to the lock-step reference in every observable —
//! performance counters, cycle counts, profile breakdowns, trace streams,
//! detection counts, and final memory contents.
//!
//! The committed golden snapshots in `crates/kernels/tests` additionally
//! pin both engines to the same historical numbers; these tests compare
//! the engines against *each other* on the benchmark suite and on the
//! committed fuzz corpus.

use gcn_sim::{
    Arg, BufferId, Device, DeviceConfig, LaunchConfig, ProfileConfig, SimEngine, TraceConfig,
};
use rmt_core::TransformOptions;
use rmt_ir::fuzz::{ArgSpec, FuzzCase};
use rmt_ir::{ParamKind, Ty};
use rmt_kernels::{by_abbrev, run_original_profiled, run_rmt_profiled, Scale};

fn engine_cfg(engine: SimEngine) -> DeviceConfig {
    let mut cfg = DeviceConfig::small_test();
    cfg.engine = engine;
    cfg
}

/// The transform flavors of the satellite matrix. `None` = original run.
fn flavors() -> Vec<(&'static str, Option<TransformOptions>)> {
    vec![
        ("Original", None),
        ("Intra+LDS", Some(TransformOptions::intra_plus_lds())),
        ("Inter", Some(TransformOptions::inter())),
        ("Selective-50", Some(TransformOptions::selective(50))),
    ]
}

/// Creates the kernel's arguments on `dev` from the case's [`ArgSpec`]s
/// (same recipe as the `rmt-core` oracle, which keeps `materialize`
/// private).
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

/// Every fuzz-corpus kernel, parsed from the committed `.rmt` files.
fn corpus() -> Vec<(String, FuzzCase)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../fuzz/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("fuzz/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rmt"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "corpus must not be empty");
    entries
        .into_iter()
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            let text = std::fs::read_to_string(&p).expect("readable corpus file");
            let case = rmt_ir::fuzz::parse(&text)
                .unwrap_or_else(|e| panic!("corpus file {name} failed to parse: {e}"));
            (name, case)
        })
        .collect()
}

/// Satellite 1, suite half: R/MM/PS/BlkSch/FWT × {Original, Intra+LDS,
/// Inter, Selective-50}, run profiled under both engines; counters,
/// cycles, detections, and full profiles must match bit for bit.
#[test]
fn suite_matrix_is_engine_invariant() {
    let pcfg = ProfileConfig { sample_interval: 0 };
    for abbrev in ["R", "MM", "PS", "BlkSch", "FWT"] {
        let bench = by_abbrev(abbrev).expect("known benchmark");
        for (flavor, opts) in flavors() {
            let mut runs = Vec::new();
            for engine in [SimEngine::Event, SimEngine::LockStep] {
                let cfg = engine_cfg(engine);
                let (outcome, profile) = match &opts {
                    None => run_original_profiled(bench.as_ref(), Scale::Small, &cfg, &pcfg)
                        .unwrap_or_else(|e| panic!("{abbrev} {flavor} {engine:?}: {e}")),
                    Some(o) => {
                        let (outcome, profile, _) =
                            run_rmt_profiled(bench.as_ref(), Scale::Small, &cfg, o, &pcfg)
                                .unwrap_or_else(|e| panic!("{abbrev} {flavor} {engine:?}: {e}"));
                        (outcome, profile)
                    }
                };
                profile
                    .check_conservation()
                    .unwrap_or_else(|e| panic!("{abbrev} {flavor} {engine:?}: {e}"));
                runs.push((outcome, profile));
            }
            let (event, lockstep) = (&runs[0], &runs[1]);
            assert_eq!(
                event.0.stats.counters, lockstep.0.stats.counters,
                "{abbrev} {flavor}: PerfCounters diverge between engines"
            );
            assert_eq!(
                event.0.stats.cycles, lockstep.0.stats.cycles,
                "{abbrev} {flavor}: cycle counts diverge between engines"
            );
            assert_eq!(
                event.0.detections, lockstep.0.detections,
                "{abbrev} {flavor}: detection counts diverge between engines"
            );
            if let Some(diff) = event.1.first_difference(&lockstep.1) {
                panic!("{abbrev} {flavor}: profiles diverge between engines: {diff}");
            }
        }
    }
}

/// Satellite 1, corpus half: every committed fuzz-corpus kernel runs
/// under both engines with full tracing; counters, trace streams, and
/// final buffer contents must match bit for bit.
#[test]
fn fuzz_corpus_is_engine_invariant() {
    for (name, case) in corpus() {
        let mut runs = Vec::new();
        for engine in [SimEngine::Event, SimEngine::LockStep] {
            let mut dev = Device::new(engine_cfg(engine));
            let (args, bufs) = materialize(&mut dev, &case);
            let cfg = LaunchConfig::new_1d(case.global as usize, case.local as usize)
                .args(args)
                .trace(TraceConfig::default());
            let mut stats = dev
                .launch(&case.kernel, &cfg)
                .unwrap_or_else(|e| panic!("{name} {engine:?}: {e}"));
            let trace = stats.trace.take().expect("trace requested");
            assert!(!trace.truncated, "{name}: unbounded trace truncated");
            let contents: Vec<Vec<u8>> = bufs.iter().map(|b| dev.read_buffer(*b)).collect();
            runs.push((stats, trace, contents));
        }
        let (event, lockstep) = (&runs[0], &runs[1]);
        assert_eq!(
            event.0.counters, lockstep.0.counters,
            "{name}: PerfCounters diverge between engines"
        );
        if let Some(diff) = event.1.first_difference(&lockstep.1) {
            panic!("{name}: traces diverge between engines: {diff}");
        }
        assert_eq!(
            event.2, lockstep.2,
            "{name}: buffer contents diverge between engines"
        );
    }
}

/// Regression for the drain-vs-fill intra-tick ordering (satellite 4): a
/// store-heavy kernel that overruns the write buffer — so the drain clock
/// and same-step L2/DRAM charges interact — must agree across engines,
/// including the `write_stall_ticks` counter that the implicit ordering
/// used to put at risk.
#[test]
fn write_buffer_backlog_is_engine_invariant() {
    use rmt_ir::KernelBuilder;
    let mut b = KernelBuilder::new("store_storm");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let n = b.const_u32(64);
    // Each work-item stores to 64 strided addresses: every store touches a
    // fresh line, so lines pile into the write buffer far faster than the
    // drain rate and the backlog stall engages.
    let zero = b.const_u32(0);
    b.for_range(zero, n, |b, i| {
        let stride = b.const_u32(256);
        let scaled = b.mul_u32(i, stride);
        let idx = b.add_u32(gid, scaled);
        let a = b.elem_addr(out, idx);
        b.store_global(a, i);
    });
    let kernel = b.finish();

    // Under the default latencies the mem unit issues store lines exactly
    // as fast as the write buffer drains them, so the backlog never grows.
    // Slow the drain so the buffer genuinely falls behind and the stall
    // path (and its interaction with same-step cache/DRAM charges) runs.
    let words = 64 * 256 + 4096;
    let mut runs = Vec::new();
    for engine in [SimEngine::Event, SimEngine::LockStep] {
        let mut cfg = engine_cfg(engine);
        cfg.lat.write_drain = 4 * cfg.lat.l1_issue;
        cfg.lat.write_buffer_lines = 4;
        let mut dev = Device::new(cfg);
        let buf = dev.create_buffer(words * 4);
        let cfg = LaunchConfig::new_1d(4096, 64).arg(Arg::Buffer(buf));
        let stats = dev
            .launch(&kernel, &cfg)
            .unwrap_or_else(|e| panic!("{engine:?}: {e}"));
        runs.push((stats, dev.read_u32s(buf)));
    }
    let (event, lockstep) = (&runs[0], &runs[1]);
    assert!(
        event.0.counters.write_stall_ticks > 0,
        "kernel must actually exercise the write-buffer backlog"
    );
    assert_eq!(event.0.counters, lockstep.0.counters);
    assert_eq!(event.1, lockstep.1);
}
