//! Functional SIMT semantics of the simulator: divergence, loops, barriers,
//! LDS, atomics, swizzles, and the non-coherent L1.

use gcn_sim::{alu, Arg, Device, DeviceConfig, LaunchConfig, SimEngine, SimError};
use rmt_ir::{AtomicOp, BinOp, CmpOp, Inst, KernelBuilder, MemSpace, Reg, SwizzleMode, Ty, UnOp};

fn device() -> Device {
    Device::new(DeviceConfig::small_test())
}

#[test]
fn divergent_if_else_assigns_per_lane() {
    // out[i] = (i % 2 == 0) ? i * 100 : i + 7
    let mut b = KernelBuilder::new("div");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let two = b.const_u32(2);
    let zero = b.const_u32(0);
    let r = b.rem_u32(gid, two);
    let is_even = b.eq_u32(r, zero);
    let addr = b.elem_addr(out, gid);
    b.if_else(
        is_even,
        |b| {
            let c = b.const_u32(100);
            let v = b.mul_u32(gid, c);
            b.store_global(addr, v);
        },
        |b| {
            let c = b.const_u32(7);
            let v = b.add_u32(gid, c);
            b.store_global(addr, v);
        },
    );
    let k = b.finish();

    let mut dev = device();
    let buf = dev.create_buffer(256 * 4);
    dev.launch(&k, &LaunchConfig::new_1d(256, 64).arg(Arg::Buffer(buf)))
        .unwrap();
    let out = dev.read_u32s(buf);
    for i in 0..256u32 {
        let expect = if i % 2 == 0 { i * 100 } else { i + 7 };
        assert_eq!(out[i as usize], expect, "lane {i}");
    }
}

#[test]
fn nested_divergence() {
    // out[i] = i<32 ? (i<16 ? 1 : 2) : 3  — nested divergent ifs in a wave.
    let mut b = KernelBuilder::new("nest");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let c32 = b.const_u32(32);
    let c16 = b.const_u32(16);
    let addr = b.elem_addr(out, gid);
    let lt32 = b.lt_u32(gid, c32);
    b.if_else(
        lt32,
        |b| {
            let lt16 = b.lt_u32(gid, c16);
            b.if_else(
                lt16,
                |b| {
                    let v = b.const_u32(1);
                    b.store_global(addr, v);
                },
                |b| {
                    let v = b.const_u32(2);
                    b.store_global(addr, v);
                },
            );
        },
        |b| {
            let v = b.const_u32(3);
            b.store_global(addr, v);
        },
    );
    let k = b.finish();

    let mut dev = device();
    let buf = dev.create_buffer(64 * 4);
    dev.launch(&k, &LaunchConfig::new_1d(64, 64).arg(Arg::Buffer(buf)))
        .unwrap();
    let out = dev.read_u32s(buf);
    #[allow(clippy::needless_range_loop)] // lane index is the subject under test
    for i in 0..64usize {
        let expect = if i < 16 {
            1
        } else if i < 32 {
            2
        } else {
            3
        };
        assert_eq!(out[i], expect, "lane {i}");
    }
}

#[test]
fn per_lane_loop_trip_counts() {
    // out[i] = sum(0..i) — each lane iterates a different number of times.
    let mut b = KernelBuilder::new("tri");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let zero = b.const_u32(0);
    let one = b.const_u32(1);
    let acc = b.fresh();
    b.mov_to(acc, zero);
    let i = b.fresh();
    b.mov_to(i, zero);
    b.while_(
        |b| b.lt_u32(i, gid),
        |b| {
            let a2 = b.add_u32(acc, i);
            b.mov_to(acc, a2);
            let i2 = b.add_u32(i, one);
            b.mov_to(i, i2);
        },
    );
    let addr = b.elem_addr(out, gid);
    b.store_global(addr, acc);
    let k = b.finish();

    let mut dev = device();
    let buf = dev.create_buffer(128 * 4);
    dev.launch(&k, &LaunchConfig::new_1d(128, 64).arg(Arg::Buffer(buf)))
        .unwrap();
    let out = dev.read_u32s(buf);
    for i in 0..128u32 {
        assert_eq!(
            out[i as usize],
            i * (i.wrapping_sub(1)) / 2,
            "lane {i}: sum 0..{i}"
        );
        assert_eq!(out[i as usize], (0..i).sum::<u32>());
    }
}

#[test]
fn lds_reverse_with_barrier() {
    // Classic scratchpad shuffle: lds[lid] = in[gid]; barrier;
    // out[gid] = lds[localsize-1-lid].
    let mut b = KernelBuilder::new("rev");
    b.set_lds_bytes(64 * 4);
    let inp = b.buffer_param("in");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let lid = b.local_id(0);
    let ls = b.local_size(0);
    let one = b.const_u32(1);
    let ia = b.elem_addr(inp, gid);
    let v = b.load_global(ia);
    let four = b.const_u32(4);
    let lo = b.mul_u32(lid, four);
    b.store_local(lo, v);
    b.barrier();
    let lsm1 = b.sub_u32(ls, one);
    let ridx = b.sub_u32(lsm1, lid);
    let ro = b.mul_u32(ridx, four);
    let rv = b.load_local(ro);
    let oa = b.elem_addr(out, gid);
    b.store_global(oa, rv);
    let k = b.finish();

    let mut dev = device();
    let ib = dev.create_buffer(128 * 4);
    let ob = dev.create_buffer(128 * 4);
    dev.write_u32s(ib, &(0..128).collect::<Vec<_>>());
    dev.launch(
        &k,
        &LaunchConfig::new_1d(128, 64)
            .arg(Arg::Buffer(ib))
            .arg(Arg::Buffer(ob)),
    )
    .unwrap();
    let out = dev.read_u32s(ob);
    for g in 0..2usize {
        for l in 0..64usize {
            assert_eq!(out[g * 64 + l] as usize, g * 64 + (63 - l));
        }
    }
}

#[test]
fn barrier_across_multiple_waves() {
    // 128-item groups (2 waves): wave 1 writes, wave 0 reads after barrier.
    let mut b = KernelBuilder::new("xwave");
    b.set_lds_bytes(128 * 4);
    let out = b.buffer_param("out");
    let lid = b.local_id(0);
    let gid = b.global_id(0);
    let four = b.const_u32(4);
    let lo = b.mul_u32(lid, four);
    let thousand = b.const_u32(1000);
    let tagged = b.add_u32(lid, thousand);
    b.store_local(lo, tagged);
    b.barrier();
    // read the mirror item from the other wave
    let c127 = b.const_u32(127);
    let mirror = b.sub_u32(c127, lid);
    let mo = b.mul_u32(mirror, four);
    let mv = b.load_local(mo);
    let oa = b.elem_addr(out, gid);
    b.store_global(oa, mv);
    let k = b.finish();

    let mut dev = device();
    let ob = dev.create_buffer(128 * 4);
    dev.launch(&k, &LaunchConfig::new_1d(128, 128).arg(Arg::Buffer(ob)))
        .unwrap();
    let out = dev.read_u32s(ob);
    for (l, &v) in out.iter().enumerate().take(128) {
        assert_eq!(v as usize, 1000 + (127 - l), "lane {l}");
    }
}

#[test]
fn global_atomics_count_exactly() {
    let mut b = KernelBuilder::new("count");
    let ctr = b.buffer_param("ctr");
    let one = b.const_u32(1);
    b.atomic_noret(MemSpace::Global, AtomicOp::Add, ctr, one);
    let k = b.finish();

    let mut dev = device();
    let ctr = dev.create_buffer(4);
    let stats = dev
        .launch(&k, &LaunchConfig::new_1d(512, 64).arg(Arg::Buffer(ctr)))
        .unwrap();
    assert_eq!(dev.read_u32s(ctr)[0], 512);
    assert_eq!(stats.counters.atomic_ops, 512);
}

#[test]
fn atomic_ticket_order_is_dense() {
    // Every work-item takes a ticket; set of tickets must be 0..n.
    let mut b = KernelBuilder::new("ticket");
    let ctr = b.buffer_param("ctr");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let one = b.const_u32(1);
    let ticket = b.atomic(MemSpace::Global, AtomicOp::Add, ctr, one);
    let oa = b.elem_addr(out, gid);
    b.store_global(oa, ticket);
    let k = b.finish();

    let mut dev = device();
    let ctr = dev.create_buffer(4);
    let out = dev.create_buffer(256 * 4);
    dev.launch(
        &k,
        &LaunchConfig::new_1d(256, 64)
            .arg(Arg::Buffer(ctr))
            .arg(Arg::Buffer(out)),
    )
    .unwrap();
    let mut tickets = dev.read_u32s(out);
    tickets.sort_unstable();
    let expect: Vec<u32> = (0..256).collect();
    assert_eq!(tickets, expect);
}

#[test]
fn swizzle_exchanges_pair_values() {
    // Odd lanes receive even-lane values (DupEven) and vice versa.
    let mut b = KernelBuilder::new("swz");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let got = b.swizzle(gid, SwizzleMode::DupEven);
    let oa = b.elem_addr(out, gid);
    b.store_global(oa, got);
    let k = b.finish();

    let mut dev = device();
    let ob = dev.create_buffer(128 * 4);
    dev.launch(&k, &LaunchConfig::new_1d(128, 64).arg(Arg::Buffer(ob)))
        .unwrap();
    let out = dev.read_u32s(ob);
    for (i, &v) in out.iter().enumerate().take(128) {
        assert_eq!(v as usize, i & !1, "lane {i} sees its even partner");
    }
}

#[test]
fn swap_pairs_round_trips() {
    let mut b = KernelBuilder::new("swap");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let once = b.swizzle(gid, SwizzleMode::SwapPairs);
    let twice = b.swizzle(once, SwizzleMode::SwapPairs);
    let diff = b.sub_u32(twice, gid); // must be 0
    let oa = b.elem_addr(out, gid);
    b.store_global(oa, diff);
    let k = b.finish();

    let mut dev = device();
    let ob = dev.create_buffer(64 * 4);
    dev.write_u32s(ob, &[9; 64]);
    dev.launch(&k, &LaunchConfig::new_1d(64, 64).arg(Arg::Buffer(ob)))
        .unwrap();
    assert!(dev.read_u32s(ob).iter().all(|&v| v == 0));
}

#[test]
fn two_d_ids_cover_grid() {
    // out[y * W + x] = y * 1000 + x via 2-D ids.
    let mut b = KernelBuilder::new("grid");
    let out = b.buffer_param("out");
    let gx = b.global_id(0);
    let gy = b.global_id(1);
    let w = b.global_size(0);
    let row = b.mul_u32(gy, w);
    let idx = b.add_u32(row, gx);
    let thousand = b.const_u32(1000);
    let tag = b.mul_u32(gy, thousand);
    let v = b.add_u32(tag, gx);
    let oa = b.elem_addr(out, idx);
    b.store_global(oa, v);
    let k = b.finish();

    let mut dev = device();
    let ob = dev.create_buffer(32 * 16 * 4);
    dev.launch(
        &k,
        &LaunchConfig::new([32, 16, 1], [16, 4, 1]).arg(Arg::Buffer(ob)),
    )
    .unwrap();
    let out = dev.read_u32s(ob);
    for y in 0..16u32 {
        for x in 0..32u32 {
            assert_eq!(out[(y * 32 + x) as usize], y * 1000 + x);
        }
    }
}

#[test]
fn partial_wavefront_masks_tail_lanes() {
    // group size 48 (< 64): lanes 48..63 must not store.
    let mut b = KernelBuilder::new("tail");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let oa = b.elem_addr(out, gid);
    let one = b.const_u32(1);
    b.store_global(oa, one);
    let k = b.finish();

    let mut dev = device();
    let ob = dev.create_buffer(64 * 4);
    dev.launch(&k, &LaunchConfig::new_1d(48, 48).arg(Arg::Buffer(ob)))
        .unwrap();
    let out = dev.read_u32s(ob);
    assert!(out[..48].iter().all(|&v| v == 1));
    assert!(out[48..].iter().all(|&v| v == 0));
}

#[test]
fn stale_l1_requires_atomic_reads() {
    // Producer group 0 stores a flag; consumer group 1 (other CU) first
    // warms its L1 with the flag line, then re-reads it with a plain load:
    // it must observe the STALE value. An atomic add(0) read must observe
    // the fresh value. This is the paper's Section 7.2 hazard.
    //
    // Kernel: every work-item of group 1 reads flag twice (plain, atomic)
    // after a long producer delay; group 0 item 0 sets flag to 1 early.
    let mut b = KernelBuilder::new("stale");
    let flag = b.buffer_param("flag");
    let out_plain = b.buffer_param("out_plain");
    let out_atomic = b.buffer_param("out_atomic");
    let grp = b.group_id(0);
    let zero = b.const_u32(0);
    let one = b.const_u32(1);
    let is_producer = b.eq_u32(grp, zero);
    b.if_else(
        is_producer,
        |b| {
            // Producer: spin a while (ALU delay), then set the flag.
            let i = b.fresh();
            b.mov_to(i, zero);
            let n = b.const_u32(200);
            let one_i = b.const_u32(1);
            b.while_(
                |b| b.lt_u32(i, n),
                |b| {
                    let i2 = b.add_u32(i, one_i);
                    b.mov_to(i, i2);
                },
            );
            b.store_global(flag, one);
        },
        |b| {
            // Consumer: warm L1 with the flag line (likely 0), burn time so
            // the producer's store lands, then re-read both ways.
            let warm = b.load_global(flag);
            let i = b.fresh();
            b.mov_to(i, warm);
            let n = b.const_u32(4000);
            let one_i = b.const_u32(1);
            b.while_(
                |b| b.lt_u32(i, n),
                |b| {
                    let i2 = b.add_u32(i, one_i);
                    b.mov_to(i, i2);
                },
            );
            let plain = b.load_global(flag);
            let atomic = b.atomic(MemSpace::Global, AtomicOp::Add, flag, zero);
            b.store_global(out_plain, plain);
            b.store_global(out_atomic, atomic);
        },
    );
    let k = b.finish();

    let mut dev = device();
    let flag = dev.create_buffer(4);
    let op = dev.create_buffer(4);
    let oa = dev.create_buffer(4);
    dev.launch(
        &k,
        &LaunchConfig::new_1d(128, 64)
            .arg(Arg::Buffer(flag))
            .arg(Arg::Buffer(op))
            .arg(Arg::Buffer(oa)),
    )
    .unwrap();
    assert_eq!(dev.read_u32s(flag)[0], 1, "producer stored");
    assert_eq!(
        dev.read_u32s(oa)[0],
        1,
        "atomic read is coherent (L2-backed)"
    );
    assert_eq!(
        dev.read_u32s(op)[0],
        0,
        "plain load hits the stale L1 copy — the Section 7.2 hazard"
    );
}

#[test]
fn oob_global_access_is_reported() {
    let mut b = KernelBuilder::new("oob");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let big = b.const_u32(1 << 20);
    let idx = b.add_u32(gid, big);
    let oa = b.elem_addr(out, idx);
    let one = b.const_u32(1);
    b.store_global(oa, one);
    let k = b.finish();

    let mut dev = device();
    let ob = dev.create_buffer(64);
    let err = dev.launch(&k, &LaunchConfig::new_1d(64, 64).arg(Arg::Buffer(ob)));
    assert!(matches!(err, Err(SimError::BadGlobalAccess { .. })));
}

#[test]
fn oob_lds_access_is_reported() {
    let mut b = KernelBuilder::new("ldsoob");
    b.set_lds_bytes(16);
    let out = b.buffer_param("out");
    let lid = b.local_id(0);
    let four = b.const_u32(4);
    let lo = b.mul_u32(lid, four); // lanes ≥ 4 go out of bounds
    b.store_local(lo, lid);
    let v = b.load_local(lo);
    b.store_global(out, v);
    let k = b.finish();

    let mut dev = device();
    let ob = dev.create_buffer(4);
    let err = dev.launch(&k, &LaunchConfig::new_1d(64, 64).arg(Arg::Buffer(ob)));
    assert!(matches!(err, Err(SimError::BadLdsAccess { .. })));
}

#[test]
fn select_blends_without_branching() {
    let mut b = KernelBuilder::new("sel");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let c10 = b.const_u32(10);
    let cond = b.lt_u32(gid, c10);
    let a = b.const_u32(111);
    let z = b.const_u32(222);
    let v = b.select(cond, a, z);
    let oa = b.elem_addr(out, gid);
    b.store_global(oa, v);
    let k = b.finish();

    let mut dev = device();
    let ob = dev.create_buffer(64 * 4);
    dev.launch(&k, &LaunchConfig::new_1d(64, 64).arg(Arg::Buffer(ob)))
        .unwrap();
    let out = dev.read_u32s(ob);
    for (i, &v) in out.iter().enumerate().take(64) {
        assert_eq!(v, if i < 10 { 111 } else { 222 });
    }
}

#[test]
fn float_pipeline_matches_cpu() {
    // out[i] = sqrt(exp(ln(i+1))) computed in f32.
    let mut b = KernelBuilder::new("fp");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let one = b.const_u32(1);
    let ip1 = b.add_u32(gid, one);
    let f = b.u32_to_f32(ip1);
    let ln = b.log_f32(f);
    let ex = b.exp_f32(ln);
    let sq = b.sqrt_f32(ex);
    let oa = b.elem_addr(out, gid);
    b.store_global(oa, sq);
    let k = b.finish();

    let mut dev = device();
    let ob = dev.create_buffer(64 * 4);
    dev.launch(&k, &LaunchConfig::new_1d(64, 64).arg(Arg::Buffer(ob)))
        .unwrap();
    let out = dev.read_f32s(ob);
    for (i, &v) in out.iter().enumerate().take(64) {
        let expect = ((i as f32 + 1.0).ln().exp()).sqrt();
        assert!((v - expect).abs() < 1e-4, "{v} vs {expect}");
    }
}

#[test]
fn three_d_ids_cover_volume() {
    // out[z*H*W + y*W + x] = x + 100*y + 10000*z via 3-D ids.
    let mut b = KernelBuilder::new("vol");
    let out = b.buffer_param("out");
    let gx = b.global_id(0);
    let gy = b.global_id(1);
    let gz = b.global_id(2);
    let w = b.global_size(0);
    let h = b.global_size(1);
    let hw = b.mul_u32(h, w);
    let zp = b.mul_u32(gz, hw);
    let yp = b.mul_u32(gy, w);
    let i0 = b.add_u32(zp, yp);
    let idx = b.add_u32(i0, gx);
    let c100 = b.const_u32(100);
    let c10k = b.const_u32(10000);
    let ty = b.mul_u32(gy, c100);
    let tz = b.mul_u32(gz, c10k);
    let v0 = b.add_u32(gx, ty);
    let v = b.add_u32(v0, tz);
    let oa = b.elem_addr(out, idx);
    b.store_global(oa, v);
    let k = b.finish();

    let (w_, h_, d_) = (16usize, 8usize, 4usize);
    let mut dev = Device::new(DeviceConfig::small_test());
    let ob = dev.create_buffer((w_ * h_ * d_ * 4) as u32);
    dev.launch(
        &k,
        &LaunchConfig::new([w_, h_, d_], [8, 4, 2]).arg(Arg::Buffer(ob)),
    )
    .unwrap();
    let out = dev.read_u32s(ob);
    for z in 0..d_ as u32 {
        for y in 0..h_ as u32 {
            for x in 0..w_ as u32 {
                let idx = (z * (h_ as u32) * (w_ as u32) + y * (w_ as u32) + x) as usize;
                assert_eq!(out[idx], x + 100 * y + 10000 * z, "({x},{y},{z})");
            }
        }
    }
}

#[test]
fn local_ids_delinearize_in_three_d() {
    // Check lid decomposition: llid = lz*(lsx*lsy) + ly*lsx + lx.
    let mut b = KernelBuilder::new("lid3");
    let out = b.buffer_param("out");
    let lx = b.local_id(0);
    let ly = b.local_id(1);
    let lz = b.local_id(2);
    let lsx = b.local_size(0);
    let lsy = b.local_size(1);
    let gx = b.global_id(0);
    let gy = b.global_id(1);
    let gz = b.global_id(2);
    let w = b.global_size(0);
    let h = b.global_size(1);
    let hw = b.mul_u32(h, w);
    let zp = b.mul_u32(gz, hw);
    let yp = b.mul_u32(gy, w);
    let i0 = b.add_u32(zp, yp);
    let idx = b.add_u32(i0, gx);
    let sxy = b.mul_u32(lsx, lsy);
    let t0 = b.mul_u32(lz, sxy);
    let t1 = b.mul_u32(ly, lsx);
    let s0 = b.add_u32(t0, t1);
    let llid = b.add_u32(s0, lx);
    let oa = b.elem_addr(out, idx);
    b.store_global(oa, llid);
    let k = b.finish();

    let mut dev = Device::new(DeviceConfig::small_test());
    let ob = dev.create_buffer((8 * 4 * 4 * 4) as u32);
    dev.launch(
        &k,
        &LaunchConfig::new([8, 4, 4], [4, 2, 2]).arg(Arg::Buffer(ob)),
    )
    .unwrap();
    let out = dev.read_u32s(ob);
    // Each group holds 16 items; every local-linear id 0..16 appears once
    // per group across the 8 groups.
    let mut counts = vec![0u32; 16];
    for &v in &out {
        counts[v as usize] += 1;
    }
    assert!(counts.iter().all(|&c| c == 8), "{counts:?}");
}

/// Work-items of the aliasing kernels: two full waves.
const ALIAS_ITEMS: u32 = 128;

/// The three per-item values the aliasing kernels start from, in
/// registers `x`, `y` and `z`: distinct in every lane, and `z` is zero in
/// some lanes so that it can serve as a select condition.
fn alias_values(g: u32) -> [u32; 3] {
    [g.wrapping_mul(0x9E37_79B1) ^ 0x5BD1_E995, g * 7 + 3, g % 5]
}

/// Lanes where the partially masked kernels run the instruction.
fn alias_active(g: u32) -> bool {
    !g.is_multiple_of(3)
}

/// Builds `x`, `y`, `z` (see [`alias_values`]), runs `inst(x, y, z)` —
/// one instruction whose destination is one of its own sources — under a
/// full EXEC mask or a divergent `if` (`partial`), and stores `x` per
/// item. Runs it on both engines and returns what `x` held, checking that
/// the engines agree.
fn run_aliased(inst: impl Fn(Reg, Reg, Reg) -> Inst, partial: bool) -> Vec<u32> {
    let mut b = KernelBuilder::new("alias");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let (c1, c2, seven, three, five) = (
        b.const_u32(0x9E37_79B1),
        b.const_u32(0x5BD1_E995),
        b.const_u32(7),
        b.const_u32(3),
        b.const_u32(5),
    );
    let m = b.mul_u32(gid, c1);
    let x = b.xor_u32(m, c2);
    let m = b.mul_u32(gid, seven);
    let y = b.add_u32(m, three);
    let z = b.rem_u32(gid, five);
    let zero = b.const_u32(0);
    let r = b.rem_u32(gid, three);
    let active = b.ne_u32(r, zero);
    if partial {
        b.if_(active, |b| b.emit(inst(x, y, z)));
    } else {
        b.emit(inst(x, y, z));
    }
    let addr = b.elem_addr(out, gid);
    b.store_global(addr, x);
    let k = b.finish();

    let mut results = Vec::new();
    for engine in [SimEngine::Event, SimEngine::LockStep] {
        let mut cfg = DeviceConfig::small_test();
        cfg.engine = engine;
        let mut dev = Device::new(cfg);
        let buf = dev.create_buffer(ALIAS_ITEMS * 4);
        dev.launch(
            &k,
            &LaunchConfig::new_1d(ALIAS_ITEMS as usize, 64).arg(Arg::Buffer(buf)),
        )
        .unwrap();
        results.push(dev.read_u32s(buf));
    }
    assert_eq!(results[0], results[1], "the engines disagree");
    results.pop().unwrap()
}

/// Checks `inst` against `want(values, lane)`, the per-lane result the
/// scalar ALU gives on the operands as they were before the instruction,
/// under both masks; inactive lanes keep `x`.
fn check_aliased(
    what: &str,
    inst: impl Fn(Reg, Reg, Reg) -> Inst,
    want: impl Fn(&dyn Fn(u32) -> [u32; 3], u32) -> u32,
) {
    for partial in [false, true] {
        let got = run_aliased(&inst, partial);
        for g in 0..ALIAS_ITEMS {
            let expect = if partial && !alias_active(g) {
                alias_values(g)[0]
            } else {
                want(&alias_values, g)
            };
            assert_eq!(
                got[g as usize], expect,
                "{what}, partial {partial}, item {g}"
            );
        }
    }
}

#[test]
fn destinations_aliasing_their_sources_read_the_old_values() {
    // Operand patterns over (x, y): dst == a, dst == b, dst == a == b.
    type Pattern = (
        &'static str,
        fn(Reg, Reg) -> (Reg, Reg),
        fn([u32; 3]) -> (u32, u32),
    );
    let patterns: [Pattern; 3] = [
        ("dst == a", |x, y| (x, y), |v| (v[0], v[1])),
        ("dst == b", |x, y| (y, x), |v| (v[1], v[0])),
        ("dst == a == b", |x, _| (x, x), |v| (v[0], v[0])),
    ];
    for (pat, regs, vals) in patterns {
        for op in [BinOp::Sub, BinOp::Shl, BinOp::Max] {
            check_aliased(
                &format!("{op:?} {pat}"),
                |x, y, _| {
                    let (a, b) = regs(x, y);
                    Inst::Binary {
                        dst: x,
                        op,
                        ty: Ty::U32,
                        a,
                        b,
                    }
                },
                |v, g| {
                    let (a, b) = vals(v(g));
                    alu::eval_bin(op, Ty::U32, a, b)
                },
            );
        }
        for op in [CmpOp::Lt, CmpOp::Ge] {
            check_aliased(
                &format!("{op:?} {pat}"),
                |x, y, _| {
                    let (a, b) = regs(x, y);
                    Inst::Cmp {
                        dst: x,
                        op,
                        ty: Ty::U32,
                        a,
                        b,
                    }
                },
                |v, g| {
                    let (a, b) = vals(v(g));
                    alu::eval_cmp(op, Ty::U32, a, b)
                },
            );
        }
    }
    for op in [UnOp::Not, UnOp::Neg] {
        check_aliased(
            &format!("{op:?} dst == a"),
            |x, _, _| Inst::Unary { dst: x, op, a: x },
            |v, g| alu::eval_un(op, v(g)[0]),
        );
    }
    // Select over (cond, if_true, if_false), with x in each slot and in
    // all three; z is the condition otherwise.
    type Sel = (
        &'static str,
        fn(Reg, Reg, Reg) -> [Reg; 3],
        fn([u32; 3]) -> [u32; 3],
    );
    let selects: [Sel; 4] = [
        ("dst == cond", |x, y, _| [x, y, x], |v| [v[0], v[1], v[0]]),
        (
            "dst == if_true",
            |x, y, z| [z, x, y],
            |v| [v[2], v[0], v[1]],
        ),
        (
            "dst == if_false",
            |x, y, z| [z, y, x],
            |v| [v[2], v[1], v[0]],
        ),
        (
            "dst == all three",
            |x, _, _| [x, x, x],
            |v| [v[0], v[0], v[0]],
        ),
    ];
    for (pat, regs, vals) in selects {
        check_aliased(
            &format!("Select {pat}"),
            |x, y, z| {
                let [cond, if_true, if_false] = regs(x, y, z);
                Inst::Select {
                    dst: x,
                    cond,
                    if_true,
                    if_false,
                }
            },
            |v, g| {
                let [c, t, f] = vals(v(g));
                if c != 0 {
                    t
                } else {
                    f
                }
            },
        );
    }
    // A swizzle reads every source lane before writing any, inactive
    // source lanes included.
    for mode in [
        SwizzleMode::SwapPairs,
        SwizzleMode::DupEven,
        SwizzleMode::DupOdd,
    ] {
        check_aliased(
            &format!("Swizzle {mode} dst == src"),
            |x, _, _| Inst::Swizzle {
                dst: x,
                src: x,
                mode,
            },
            |v, g| {
                let lane = (g % 64) as usize;
                v(g - g % 64 + mode.source_lane(lane) as u32)[0]
            },
        );
    }
}
