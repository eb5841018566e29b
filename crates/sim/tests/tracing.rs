//! The execution-trace facility: records match the program, filters work,
//! and tracing never perturbs functional results or timing.

use gcn_sim::{Arg, Device, DeviceConfig, LaunchConfig, TraceConfig};
use rmt_ir::{Kernel, KernelBuilder};

fn kernel() -> Kernel {
    let mut b = KernelBuilder::new("traced");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let three = b.const_u32(3);
    let c = b.lt_u32(gid, three);
    let v = b.fresh();
    b.mov_to(v, gid);
    b.if_(c, |b| {
        let t = b.mul_u32(gid, three);
        b.mov_to(v, t);
    });
    let oa = b.elem_addr(out, gid);
    b.store_global(oa, v);
    b.finish()
}

#[test]
fn trace_records_one_wavefronts_program() {
    let mut dev = Device::new(DeviceConfig::small_test());
    let ob = dev.create_buffer(256 * 4);
    let stats = dev
        .launch(
            &kernel(),
            &LaunchConfig::new_1d(256, 64)
                .arg(Arg::Buffer(ob))
                .trace(TraceConfig::wavefront(1, 0, 0)),
        )
        .unwrap();
    let trace = stats.trace.unwrap();
    assert!(stats.cycles > 0);
    assert!(!trace.truncated);
    assert!(!trace.records.is_empty());
    // Everything recorded belongs to group 1, wave 0.
    assert!(trace.records.iter().all(|r| r.group == 1 && r.wave == 0));
    // The listing names real operations, in program order by pc prefix.
    let listing = trace.render();
    assert!(listing.contains("global_id.0"), "{listing}");
    assert!(listing.contains("store.global"), "{listing}");
    assert!(listing.contains("if.begin"), "{listing}");
    // Group 1 covers gids 64..128: the divergent branch is never taken, so
    // its body (the gid*3 multiply on %1, %2) must not appear — only the
    // address multiply from elem_addr remains.
    assert!(
        !listing.contains("mul.u32 %1, %2"),
        "branch body should be skipped for group 1:\n{listing}"
    );
    // Ticks never decrease (global time order).
    assert!(trace.records.windows(2).all(|w| w[0].tick <= w[1].tick));
}

#[test]
fn trace_for_group_zero_takes_divergent_branch() {
    let mut dev = Device::new(DeviceConfig::small_test());
    let ob = dev.create_buffer(256 * 4);
    let trace = dev
        .launch(
            &kernel(),
            &LaunchConfig::new_1d(256, 64)
                .arg(Arg::Buffer(ob))
                .trace(TraceConfig::wavefront(0, 0, 0)),
        )
        .unwrap()
        .trace
        .unwrap();
    let listing = trace.render();
    assert!(
        listing.contains("mul.u32 %1, %2"),
        "lanes 0..3 diverge:\n{listing}"
    );
    // The branch executed with a partial mask: some record has mask 0b111.
    assert!(
        trace.records.iter().any(|r| r.mask == 0b111),
        "expected a 3-lane mask:\n{listing}"
    );
}

#[test]
fn truncation_respects_max_records() {
    let mut dev = Device::new(DeviceConfig::small_test());
    let ob = dev.create_buffer(256 * 4);
    let trace = dev
        .launch(
            &kernel(),
            &LaunchConfig::new_1d(256, 64)
                .arg(Arg::Buffer(ob))
                .trace(TraceConfig {
                    group: None,
                    wave: None,
                    max_records: 5,
                }),
        )
        .unwrap()
        .trace
        .unwrap();
    assert_eq!(trace.records.len(), 5);
    assert!(trace.truncated);
    assert!(trace.render().contains("truncated"));
}

#[test]
fn tracing_does_not_perturb_results_or_timing() {
    let run_plain = || {
        let mut dev = Device::new(DeviceConfig::small_test());
        let ob = dev.create_buffer(256 * 4);
        let s = dev
            .launch(
                &kernel(),
                &LaunchConfig::new_1d(256, 64).arg(Arg::Buffer(ob)),
            )
            .unwrap();
        (s.cycles, dev.read_u32s(ob))
    };
    let run_traced = || {
        let mut dev = Device::new(DeviceConfig::small_test());
        let ob = dev.create_buffer(256 * 4);
        let s = dev
            .launch(
                &kernel(),
                &LaunchConfig::new_1d(256, 64)
                    .arg(Arg::Buffer(ob))
                    .trace(TraceConfig::default()),
            )
            .unwrap();
        (s.cycles, dev.read_u32s(ob))
    };
    assert_eq!(run_plain(), run_traced());
}
