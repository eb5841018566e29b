//! Timing-model behaviour: the phenomena the paper's analysis relies on
//! must emerge from the resource model (latency hiding, occupancy loss,
//! write stalls, bank conflicts, counter sanity) — plus fault injection.

use gcn_sim::{Arg, Device, DeviceConfig, FaultPlan, FaultTarget, LaunchConfig, SimError};
use rmt_ir::{Kernel, KernelBuilder};

fn device() -> Device {
    Device::new(DeviceConfig::small_test())
}

/// Streaming kernel: out[i] = in[i] (memory bound).
fn stream_kernel() -> Kernel {
    let mut b = KernelBuilder::new("stream");
    let inp = b.buffer_param("in");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let ia = b.elem_addr(inp, gid);
    let oa = b.elem_addr(out, gid);
    let v = b.load_global(ia);
    b.store_global(oa, v);
    b.finish()
}

/// ALU-heavy kernel: `rounds` dependent multiplies per item, one store.
fn alu_kernel(rounds: usize) -> Kernel {
    let mut b = KernelBuilder::new("alu");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let three = b.const_u32(3);
    let mut v = b.add_u32(gid, three);
    for _ in 0..rounds {
        v = b.mul_u32(v, three);
        v = b.xor_u32(v, gid);
    }
    let oa = b.elem_addr(out, gid);
    b.store_global(oa, v);
    b.finish()
}

#[test]
fn memory_bound_kernel_shows_high_mem_unit_busy() {
    let mut dev = device();
    let n = 16 * 1024;
    let ib = dev.create_buffer(n as u32 * 4);
    let ob = dev.create_buffer(n as u32 * 4);
    let stats = dev
        .launch(
            &stream_kernel(),
            &LaunchConfig::new_1d(n, 64)
                .arg(Arg::Buffer(ib))
                .arg(Arg::Buffer(ob)),
        )
        .unwrap();
    let c = &stats.counters;
    assert!(
        c.mem_unit_busy_pct() > c.valu_busy_pct(),
        "stream: mem {}% vs valu {}%",
        c.mem_unit_busy_pct(),
        c.valu_busy_pct()
    );
    assert!(c.memory_boundedness() > 1.0);
}

#[test]
fn alu_bound_kernel_shows_high_valu_busy() {
    let mut dev = device();
    let n = 16 * 1024;
    let ob = dev.create_buffer(n as u32 * 4);
    let stats = dev
        .launch(
            &alu_kernel(64),
            &LaunchConfig::new_1d(n, 64).arg(Arg::Buffer(ob)),
        )
        .unwrap();
    let c = &stats.counters;
    assert!(
        c.valu_busy_pct() > 50.0,
        "alu kernel: valu busy {}%",
        c.valu_busy_pct()
    );
    assert!(c.memory_boundedness() < 1.0);
}

#[test]
fn latency_hiding_makes_added_alu_nearly_free_when_memory_bound() {
    // A memory-bound kernel with extra ALU work should cost barely more
    // than without it — the key mechanism behind the paper's low
    // Intra-Group overheads on memory-bound kernels (Section 6.4).
    let n = 32 * 1024;

    let run = |rounds: usize| {
        let mut b = KernelBuilder::new("mix");
        let inp = b.buffer_param("in");
        let out = b.buffer_param("out");
        let gid = b.global_id(0);
        let ia = b.elem_addr(inp, gid);
        let mut v = b.load_global(ia);
        let c3 = b.const_u32(3);
        for _ in 0..rounds {
            v = b.mul_u32(v, c3);
        }
        let oa = b.elem_addr(out, gid);
        b.store_global(oa, v);
        let k = b.finish();

        let mut dev = device();
        let ib = dev.create_buffer(n as u32 * 4);
        let ob = dev.create_buffer(n as u32 * 4);
        dev.launch(
            &k,
            &LaunchConfig::new_1d(n, 64)
                .arg(Arg::Buffer(ib))
                .arg(Arg::Buffer(ob)),
        )
        .unwrap()
        .cycles
    };

    let base = run(0);
    let extra = run(8); // 8 extra VALU ops per item
    let ratio = extra as f64 / base as f64;
    // 8 dependent ALU ops add 32 busy cycles per wave against a ~44+ cycle
    // memory path: most (not all) of the cost should hide.
    assert!(
        ratio < 1.55,
        "8 ALU ops behind memory latency should be mostly hidden: {ratio:.2}x"
    );
}

#[test]
fn alu_bound_kernel_scales_with_work() {
    // Without memory stalls to hide behind, doubling ALU work should
    // roughly double runtime.
    let n = 8 * 1024;
    let run = |rounds: usize| {
        let mut dev = device();
        let ob = dev.create_buffer(n as u32 * 4);
        dev.launch(
            &alu_kernel(rounds),
            &LaunchConfig::new_1d(n, 64).arg(Arg::Buffer(ob)),
        )
        .unwrap()
        .cycles
    };
    let r64 = run(64);
    let r128 = run(128);
    let ratio = r128 as f64 / r64 as f64;
    assert!(
        (1.6..2.4).contains(&ratio),
        "ALU-bound work should scale ~2x, got {ratio:.2}x"
    );
}

#[test]
fn vgpr_inflation_reduces_occupancy_and_hurts_memory_bound_kernels() {
    let n = 32 * 1024;
    let run = |extra: u32| {
        let mut cfg = DeviceConfig::small_test();
        cfg.reserved_vgprs += extra;
        let mut dev = Device::new(cfg);
        let ib = dev.create_buffer(n as u32 * 4);
        let ob = dev.create_buffer(n as u32 * 4);
        let s = dev
            .launch(
                &stream_kernel(),
                &LaunchConfig::new_1d(n, 64)
                    .arg(Arg::Buffer(ib))
                    .arg(Arg::Buffer(ob)),
            )
            .unwrap();
        (s.cycles, s.occupancy.waves_per_cu)
    };
    let (fast, occ_full) = run(0);
    let (slow, occ_low) = run(120); // ~2 waves per SIMD
    assert!(
        occ_low < occ_full,
        "occupancy must drop: {occ_low} vs {occ_full}"
    );
    assert!(
        slow > fast,
        "fewer waves => less latency hiding => slower ({slow} vs {fast})"
    );
}

#[test]
fn lds_inflation_limits_resident_groups() {
    let kernel = |lds_bytes: u32| {
        let mut b = KernelBuilder::new("ldsuser");
        b.set_lds_bytes(lds_bytes);
        let out = b.buffer_param("out");
        let lid = b.local_id(0);
        let four = b.const_u32(4);
        let lo = b.mul_u32(lid, four);
        b.store_local(lo, lid);
        b.barrier();
        let v = b.load_local(lo);
        let gid = b.global_id(0);
        let oa = b.elem_addr(out, gid);
        b.store_global(oa, v);
        b.finish()
    };

    let mut dev = device();
    let ob = dev.create_buffer(4096 * 4);
    let mut occ = |extra: u32| {
        dev.launch(
            &kernel(1024 + extra),
            &LaunchConfig::new_1d(4096, 64).arg(Arg::Buffer(ob)),
        )
        .unwrap()
        .occupancy
        .groups_per_cu
    };
    let full = occ(0);
    let half = occ(31 * 1024); // 1k + 31k = 32k per group => 2 groups/CU
    assert!(
        full > half,
        "LDS inflation must cut occupancy: {full} vs {half}"
    );
    assert_eq!(half, 2);
}

#[test]
fn write_heavy_kernel_stalls_write_unit() {
    // Scattered stores, many lines per wavefront, no loads.
    let mut b = KernelBuilder::new("scatter");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let c64 = b.const_u32(64); // 64 u32s apart = one line each
    let idx = b.mul_u32(gid, c64);
    let oa = b.elem_addr(out, idx);
    for _ in 0..8 {
        b.store_global(oa, gid);
    }
    let k = b.finish();

    let mut dev = device();
    let n = 4096;
    let ob = dev.create_buffer((n * 64 * 4) as u32);
    let stats = dev
        .launch(&k, &LaunchConfig::new_1d(n, 64).arg(Arg::Buffer(ob)))
        .unwrap();
    assert!(
        stats.counters.write_unit_stalled_pct() > 1.0,
        "uncoalesced store storm should stall: {}%",
        stats.counters.write_unit_stalled_pct()
    );
}

#[test]
fn coalesced_loads_use_fewer_transactions_than_strided() {
    let n = 8 * 1024;
    let run = |stride: u32| {
        let mut b = KernelBuilder::new("stride");
        let inp = b.buffer_param("in");
        let out = b.buffer_param("out");
        let gid = b.global_id(0);
        let s = b.const_u32(stride);
        let idx = b.mul_u32(gid, s);
        let ia = b.elem_addr(inp, idx);
        let v = b.load_global(ia);
        let oa = b.elem_addr(out, gid);
        b.store_global(oa, v);
        let k = b.finish();

        let mut dev = device();
        let ib = dev.create_buffer((n as u32) * 4 * stride.max(1));
        let ob = dev.create_buffer(n as u32 * 4);
        let st = dev
            .launch(
                &k,
                &LaunchConfig::new_1d(n, 64)
                    .arg(Arg::Buffer(ib))
                    .arg(Arg::Buffer(ob)),
            )
            .unwrap();
        st.counters.l1_transactions
    };
    let coalesced = run(1);
    let strided = run(16);
    assert!(
        strided > coalesced * 4,
        "stride-16 must generate many more transactions: {strided} vs {coalesced}"
    );
}

#[test]
fn lds_bank_conflicts_are_detected_and_cost_time() {
    let n = 4096;
    let run = |stride: u32| {
        let mut b = KernelBuilder::new("banks");
        b.set_lds_bytes(64 * 4 * 32);
        let out = b.buffer_param("out");
        let lid = b.local_id(0);
        let s = b.const_u32(stride * 4);
        let lo = b.mul_u32(lid, s);
        b.store_local(lo, lid);
        let v = b.load_local(lo);
        let gid = b.global_id(0);
        let oa = b.elem_addr(out, gid);
        b.store_global(oa, v);
        let k = b.finish();

        let mut dev = device();
        let ob = dev.create_buffer(n as u32 * 4);
        let st = dev
            .launch(&k, &LaunchConfig::new_1d(n, 64).arg(Arg::Buffer(ob)))
            .unwrap();
        (st.cycles, st.counters.lds_conflicts)
    };
    let (fast, no_conflicts) = run(1); // stride 1 word: conflict-free
    let (slow, conflicts) = run(32); // stride 32 words: all lanes same bank
    assert_eq!(no_conflicts, 0);
    assert!(conflicts > 0);
    assert!(slow > fast, "conflicted LDS access must cost time");
}

#[test]
fn vgpr_fault_flips_observable_output() {
    // out[gid] = gid, but a VGPR fault hits the value register of group 0
    // wave 0 before the store: exactly one output is corrupted by one bit.
    let mut b = KernelBuilder::new("vf");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    // burn instructions so the injection point (after a few dyn insts)
    // lands between the id read and the store
    let zero = b.const_u32(0);
    let v = b.add_u32(gid, zero);
    let _pad = (0..20).map(|_| b.add_u32(v, v)).count();
    let oa = b.elem_addr(out, gid);
    b.store_global(oa, v);
    let k = b.finish();
    let value_reg = v;

    // Golden run.
    let mut dev = device();
    let ob = dev.create_buffer(64 * 4);
    dev.launch(&k, &LaunchConfig::new_1d(64, 64).arg(Arg::Buffer(ob)))
        .unwrap();
    let golden = dev.read_u32s(ob);

    // Faulty run.
    let mut dev = device();
    let ob = dev.create_buffer(64 * 4);
    let plan = FaultPlan::single(
        10,
        FaultTarget::Vgpr {
            group: 0,
            wave: 0,
            reg: value_reg.0,
            lane: 5,
            bit: 7,
        },
    );
    let stats = dev
        .launch(
            &k,
            &LaunchConfig::new_1d(64, 64)
                .arg(Arg::Buffer(ob))
                .faults(plan),
        )
        .unwrap();
    assert_eq!(stats.faults_applied, 1);
    let faulty = dev.read_u32s(ob);
    let diffs: Vec<usize> = (0..64).filter(|&i| faulty[i] != golden[i]).collect();
    assert_eq!(diffs, vec![5], "exactly lane 5 corrupted");
    assert_eq!(faulty[5], golden[5] ^ (1 << 7));
}

#[test]
fn sgpr_fault_corrupts_whole_wavefront() {
    let mut b = KernelBuilder::new("sf");
    let out = b.buffer_param("out");
    let grp = b.group_id(0);
    let hundred = b.const_u32(100);
    let base = b.mul_u32(grp, hundred); // uniform -> scalar register
    let _pad = (0..20).map(|_| b.add_u32(base, base)).count();
    let gid = b.global_id(0);
    let v = b.add_u32(base, gid);
    let oa = b.elem_addr(out, gid);
    b.store_global(oa, v);
    let k = b.finish();
    let sreg = base;

    let mut dev = device();
    let ob = dev.create_buffer(64 * 4);
    let plan = FaultPlan::single(
        8,
        FaultTarget::Sgpr {
            group: 0,
            wave: 0,
            reg: sreg.0,
            bit: 3,
        },
    );
    let stats = dev
        .launch(
            &k,
            &LaunchConfig::new_1d(64, 64)
                .arg(Arg::Buffer(ob))
                .faults(plan),
        )
        .unwrap();
    assert_eq!(stats.faults_applied, 1);
    let out = dev.read_u32s(ob);
    // All 64 lanes observe the same corrupted base (group 0: base was 0).
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, (i as u32) + 8, "lane {i}: base corrupted to 8");
    }
}

#[test]
fn missed_fault_targets_are_reported() {
    let mut dev = device();
    let ob = dev.create_buffer(64 * 4);
    let plan = FaultPlan::single(
        1,
        FaultTarget::Vgpr {
            group: 999, // never exists
            wave: 0,
            reg: 0,
            lane: 0,
            bit: 0,
        },
    );
    let stats = dev
        .launch(
            &alu_kernel(4),
            &LaunchConfig::new_1d(64, 64)
                .arg(Arg::Buffer(ob))
                .faults(plan),
        )
        .unwrap();
    assert_eq!(stats.faults_applied, 0);
}

#[test]
fn watchdog_catches_infinite_loops() {
    let mut b = KernelBuilder::new("hang");
    let out = b.buffer_param("out");
    let one = b.const_u32(1);
    b.while_(|b| b.or_u32(one, one), |_| {});
    b.store_global(out, one);
    let k = b.finish();

    let mut cfg = DeviceConfig::small_test();
    cfg.watchdog_insts = 50_000;
    let mut dev = Device::new(cfg);
    let ob = dev.create_buffer(4);
    let err = dev.launch(&k, &LaunchConfig::new_1d(64, 64).arg(Arg::Buffer(ob)));
    assert!(matches!(err, Err(SimError::Watchdog { .. })));
}

#[test]
fn power_tracks_activity() {
    let mut dev = device();
    let n = 16 * 1024;
    let ob = dev.create_buffer(n as u32 * 4);
    let stats = dev
        .launch(
            &alu_kernel(128),
            &LaunchConfig::new_1d(n, 64).arg(Arg::Buffer(ob)),
        )
        .unwrap();
    let idle = dev.config().power.idle_watts;
    assert!(
        stats.power.avg_watts > idle + 0.5,
        "busy kernel must draw above idle: {} W",
        stats.power.avg_watts
    );
    assert!(stats.power.peak_watts >= stats.power.avg_watts);
}

#[test]
fn more_cus_run_faster() {
    let n = 64 * 1024;
    let run = |cus: usize| {
        let mut cfg = DeviceConfig::radeon_hd_7790();
        cfg.num_cus = cus;
        let mut dev = Device::new(cfg);
        let ob = dev.create_buffer(n as u32 * 4);
        dev.launch(
            &alu_kernel(32),
            &LaunchConfig::new_1d(n, 64).arg(Arg::Buffer(ob)),
        )
        .unwrap()
        .cycles
    };
    let slow = run(2);
    let fast = run(12);
    assert!(
        (slow as f64) > (fast as f64) * 3.0,
        "12 CUs should be much faster than 2: {slow} vs {fast}"
    );
}

#[test]
fn determinism_same_inputs_same_cycles() {
    let run = || {
        let mut dev = device();
        let ob = dev.create_buffer(8192 * 4);
        dev.launch(
            &alu_kernel(16),
            &LaunchConfig::new_1d(8192, 64).arg(Arg::Buffer(ob)),
        )
        .unwrap()
        .cycles
    };
    assert_eq!(run(), run());
}
