//! Negative tests: each lint pass family must actually fire on a kernel
//! seeded with the bug it hunts. The companion positive suite
//! (`rmt-kernels/tests/lint_clean.rs`) proves zero false positives over
//! the benchmark suite; this file proves non-zero recall.

use rmt_ir::analysis::lint::{lint_kernel, LintAssumptions, LintConfig, LintKind};
use rmt_ir::{KernelBuilder, SwizzleMode};

fn cfg() -> LintConfig {
    LintConfig::with_assumptions(LintAssumptions {
        local_size: [Some(64), Some(1), Some(1)],
        wavefront: 64,
    })
}

fn kinds(k: &rmt_ir::Kernel) -> Vec<LintKind> {
    lint_kernel(k, &cfg()).into_iter().map(|d| d.kind).collect()
}

#[test]
fn unsynchronized_lds_write_races() {
    // Every work-item writes its id to the same LDS word in one barrier
    // interval: a definite write/write race.
    let mut b = KernelBuilder::new("racy_lds");
    b.set_lds_bytes(64);
    let lid = b.local_id(0);
    let zero = b.const_u32(0);
    b.store_local(zero, lid);
    assert!(kinds(&b.finish()).contains(&LintKind::LocalRace));
}

#[test]
fn missing_barrier_between_write_and_read_races() {
    // The classic bug: neighbour exchange without a barrier. Item i
    // writes slot i, then reads slot i+1 — which its neighbour is still
    // writing.
    let mut b = KernelBuilder::new("no_barrier");
    b.set_lds_bytes(4 * 64);
    let out = b.buffer_param("out");
    let lid = b.local_id(0);
    let four = b.const_u32(4);
    let one = b.const_u32(1);
    let slot = b.mul_u32(lid, four);
    b.store_local(slot, lid);
    let n1 = b.add_u32(lid, one);
    let wrapped = {
        let ls = b.local_size(0);
        b.rem_u32(n1, ls)
    };
    let nslot = b.mul_u32(wrapped, four);
    let v = b.load_local(nslot);
    let gid = b.global_id(0);
    let a = b.elem_addr(out, gid);
    b.store_global(a, v);
    assert!(kinds(&b.finish()).contains(&LintKind::LocalRace));
}

#[test]
fn colliding_global_store_is_a_definite_race() {
    // `out[gid >> 1]` — work-items 2k and 2k+1 store different values to
    // the same element. Global memory uses the bug-finder posture, so
    // only a *proven* collision like this one may fire.
    let mut b = KernelBuilder::new("global_collide");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let one = b.const_u32(1);
    let half = b.shr_u32(gid, one);
    let a = b.elem_addr(out, half);
    b.store_global(a, gid);
    assert!(kinds(&b.finish()).contains(&LintKind::GlobalRace));
}

#[test]
fn barrier_under_lane_dependent_if_is_divergent() {
    let mut b = KernelBuilder::new("div_barrier");
    let lid = b.local_id(0);
    let n = b.const_u32(16);
    let c = b.lt_u32(lid, n);
    b.if_(c, |b| b.barrier());
    assert!(kinds(&b.finish()).contains(&LintKind::DivergentBarrier));
}

#[test]
fn barrier_in_lane_dependent_loop_is_divergent() {
    // Trip count varies per lane: the barrier stops being reached by the
    // whole group after the first lane exits.
    let mut b = KernelBuilder::new("div_loop_barrier");
    let lid = b.local_id(0);
    let i = b.fresh();
    let zero = b.const_u32(0);
    b.mov_to(i, zero);
    b.while_(
        |b| b.lt_u32(i, lid),
        |b| {
            b.barrier();
            let one = b.const_u32(1);
            let next = b.add_u32(i, one);
            b.mov_to(i, next);
        },
    );
    assert!(kinds(&b.finish()).contains(&LintKind::DivergentBarrier));
}

#[test]
fn swizzle_of_value_defined_under_pair_splitting_guard() {
    // The guard `lid < 16` splits even/odd pairs at the boundary; a value
    // produced under it and exchanged through the VRF reads a stale
    // register on the inactive lane.
    let mut b = KernelBuilder::new("div_swizzle");
    let out = b.buffer_param("out");
    let lid = b.local_id(0);
    let n = b.const_u32(16);
    let c = b.lt_u32(lid, n);
    b.if_(c, |b| {
        let one = b.const_u32(1);
        let v = b.add_u32(lid, one);
        let s = b.swizzle(v, SwizzleMode::DupEven);
        let gid = b.global_id(0);
        let a = b.elem_addr(out, gid);
        b.store_global(a, s);
    });
    assert!(kinds(&b.finish()).contains(&LintKind::DivergentSwizzle));
}

#[test]
fn lds_access_past_allocation_is_flagged() {
    let mut b = KernelBuilder::new("oob");
    b.set_lds_bytes(16);
    let lid = b.local_id(0);
    let addr = b.const_u32(64);
    b.store_local(addr, lid);
    assert!(kinds(&b.finish()).contains(&LintKind::LdsOutOfBounds));
}

#[test]
fn lds_access_under_unsatisfiable_guard_is_dead_code_not_a_bug() {
    // Found by `repro fuzz`: guarding an access with `lid == K` where K
    // exceeds the assumed local size pins `lid` to K in the guarded
    // region. The bounds pass used to substitute the pin into comm-slot
    // addresses and flag an "out of bounds" access that can never
    // execute. An unsatisfiable guard means dead code, not a bug.
    let mut b = KernelBuilder::new("dead_guard");
    b.set_lds_bytes(16);
    let lid = b.local_id(0);
    let huge = b.const_u32(0x15cc_797a);
    let cond = b.cmp(rmt_ir::CmpOp::Eq, rmt_ir::Ty::U32, lid, huge);
    b.if_(cond, |b| {
        let four = b.const_u32(4);
        let slot = b.mul_u32(lid, four);
        b.store_local(slot, lid);
    });
    assert_eq!(kinds(&b.finish()), Vec::<LintKind>::new());
}

#[test]
fn and_with_a_mask_wider_than_32_bits_does_not_overflow() {
    // Found by the benchmark's kernel pool: the lint evaluates address
    // arithmetic on ideal integers, so `0xffff_ffff * 0xffff_ffff`
    // saturates to the constant `0x7fff_ffff_ffff_ffff`. The `And` rule
    // took `mask + 1` to test for a low-bit mask, which overflowed (a
    // panic with overflow checks, a 63-bit remainder without). A mask
    // wider than 32 bits is no low-bit mask: `x & mask` is only bounded
    // by `x`, and the access below stays provably inside the allocation.
    let mut b = KernelBuilder::new("wide_mask");
    b.set_lds_bytes(4 * 64);
    let lid = b.local_id(0);
    let all_ones = b.const_u32(0xffff_ffff);
    let mask = b.mul_u32(all_ones, all_ones);
    let x = b.binary(rmt_ir::BinOp::And, rmt_ir::Ty::U32, lid, mask);
    let four = b.const_u32(4);
    let slot = b.mul_u32(x, four);
    b.store_local(slot, lid);
    assert!(!kinds(&b.finish()).contains(&LintKind::LdsOutOfBounds));
}

#[test]
fn clean_kernel_stays_clean() {
    // Sanity: the standard tiled pattern (write own slot, barrier, read
    // neighbour) produces no findings.
    let mut b = KernelBuilder::new("clean");
    b.set_lds_bytes(4 * 64);
    let out = b.buffer_param("out");
    let lid = b.local_id(0);
    let four = b.const_u32(4);
    let one = b.const_u32(1);
    let slot = b.mul_u32(lid, four);
    b.store_local(slot, lid);
    b.barrier();
    let n1 = b.add_u32(lid, one);
    let wrapped = {
        let ls = b.local_size(0);
        b.rem_u32(n1, ls)
    };
    let nslot = b.mul_u32(wrapped, four);
    let v = b.load_local(nslot);
    let gid = b.global_id(0);
    let a = b.elem_addr(out, gid);
    b.store_global(a, v);
    assert_eq!(kinds(&b.finish()), Vec::<LintKind>::new());
}
