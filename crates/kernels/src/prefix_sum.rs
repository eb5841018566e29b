//! PrefixSum (PS) — single-work-group Blelchoch exclusive scan in the LDS.
//! By construction it launches exactly one work-group, so it utilizes one
//! of the twelve CUs — the paper's second CU-under-utilization example
//! (1.59× under Inter-Group, Section 7.4), and a heavy communicator under
//! Intra-Group (Figure 4).
//!
//! Buffers: `[0]` input, `[1]` exclusive prefix sums.

use crate::util::{check_u32s, Xorshift};
use crate::{Benchmark, Plan, Scale};
use gcn_sim::{Arg, Device, LaunchConfig};
use rmt_ir::{Kernel, KernelBuilder};

/// See module docs.
pub struct PrefixSum;

fn group_items(scale: Scale) -> usize {
    match scale {
        Scale::Small => 64,
        Scale::Paper | Scale::Large => 128,
    }
}

fn make_input(scale: Scale) -> Vec<u32> {
    let n = group_items(scale) * 2;
    let mut rng = Xorshift::new(0x9F1E_F1C5);
    (0..n).map(|_| rng.below(100)).collect()
}

impl Benchmark for PrefixSum {
    fn name(&self) -> &'static str {
        "PrefixSum"
    }

    fn abbrev(&self) -> &'static str {
        "PS"
    }

    fn kernel(&self) -> Kernel {
        // Each work-item owns elements 2·lid and 2·lid+1; n = 2·local_size.
        let mut b = KernelBuilder::new("prefix_sum");
        b.set_lds_bytes(256 * 4);
        let inp = b.buffer_param("in");
        let out = b.buffer_param("out");
        let lid = b.local_id(0);
        let ls = b.local_size(0);
        let gid = b.global_id(0);
        let zero = b.const_u32(0);
        let one = b.const_u32(1);
        let two = b.const_u32(2);
        let four = b.const_u32(4);
        let n = b.mul_u32(ls, two);

        // Load both elements.
        let e0 = b.mul_u32(gid, two);
        let e1 = b.add_u32(e0, one);
        let a0 = b.elem_addr(inp, e0);
        let a1 = b.elem_addr(inp, e1);
        let v0 = b.load_global(a0);
        let v1 = b.load_global(a1);
        let l0 = b.mul_u32(lid, two);
        let l1 = b.add_u32(l0, one);
        let lo0 = b.mul_u32(l0, four);
        let lo1 = b.mul_u32(l1, four);
        b.store_local(lo0, v0);
        b.store_local(lo1, v1);

        // Helper producing the byte offsets of the Blelloch pair.
        // ai = offset*(2*lid+1) - 1; bi = offset*(2*lid+2) - 1.
        let pair = |b: &mut KernelBuilder, offset: rmt_ir::Reg| {
            let tl = b.mul_u32(lid, two);
            let tl1 = b.add_u32(tl, one);
            let tl2 = b.add_u32(tl, two);
            let ai0 = b.mul_u32(offset, tl1);
            let ai = b.sub_u32(ai0, one);
            let bi0 = b.mul_u32(offset, tl2);
            let bi = b.sub_u32(bi0, one);
            let ao = b.mul_u32(ai, four);
            let bo = b.mul_u32(bi, four);
            (ao, bo)
        };

        // Up-sweep.
        let offset = b.fresh();
        b.mov_to(offset, one);
        let d = b.fresh();
        let half = b.shr_u32(n, one);
        b.mov_to(d, half);
        b.while_(
            |b| b.gt_u32(d, zero),
            |b| {
                b.barrier();
                let active = b.lt_u32(lid, d);
                b.if_(active, |b| {
                    let (ao, bo) = pair(b, offset);
                    let av = b.load_local(ao);
                    let bv = b.load_local(bo);
                    let s = b.add_u32(av, bv);
                    b.store_local(bo, s);
                });
                let o2 = b.shl_u32(offset, one);
                b.mov_to(offset, o2);
                let d2 = b.shr_u32(d, one);
                b.mov_to(d, d2);
            },
        );

        // Clear the root.
        b.barrier();
        let is0 = b.eq_u32(lid, zero);
        b.if_(is0, |b| {
            let nm1 = b.sub_u32(n, one);
            let ro = b.mul_u32(nm1, four);
            b.store_local(ro, zero);
        });

        // Down-sweep.
        b.mov_to(d, one);
        b.while_(
            |b| b.lt_u32(d, n),
            |b| {
                let o2 = b.shr_u32(offset, one);
                b.mov_to(offset, o2);
                b.barrier();
                let active = b.lt_u32(lid, d);
                b.if_(active, |b| {
                    let (ao, bo) = pair(b, offset);
                    let av = b.load_local(ao);
                    let bv = b.load_local(bo);
                    b.store_local(ao, bv);
                    let s = b.add_u32(av, bv);
                    b.store_local(bo, s);
                });
                let d2 = b.shl_u32(d, one);
                b.mov_to(d, d2);
            },
        );
        b.barrier();

        // Write both results.
        let r0 = b.load_local(lo0);
        let r1 = b.load_local(lo1);
        let oa0 = b.elem_addr(out, e0);
        let oa1 = b.elem_addr(out, e1);
        b.store_global(oa0, r0);
        b.store_global(oa1, r1);
        b.finish()
    }

    fn plan(&self, scale: Scale, dev: &mut Device) -> Plan {
        let items = group_items(scale);
        let input = make_input(scale);
        let ib = dev.create_buffer((input.len() * 4) as u32);
        let ob = dev.create_buffer((input.len() * 4) as u32);
        dev.write_u32s(ib, &input);
        Plan {
            passes: vec![LaunchConfig::new_1d(items, items)
                .arg(Arg::Buffer(ib))
                .arg(Arg::Buffer(ob))],
            buffers: vec![ib, ob],
        }
    }

    fn verify(&self, scale: Scale, dev: &Device, plan: &Plan) -> Result<(), String> {
        let input = make_input(scale);
        let mut want = Vec::with_capacity(input.len());
        let mut acc = 0u32;
        for &v in &input {
            want.push(acc);
            acc = acc.wrapping_add(v);
        }
        check_u32s(&dev.read_u32s(plan.buffers[1]), &want)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_original, run_rmt};
    use gcn_sim::DeviceConfig;
    use rmt_core::TransformOptions;

    #[test]
    fn original_scans() {
        run_original(&PrefixSum, Scale::Small, &DeviceConfig::small_test()).unwrap();
    }

    #[test]
    fn rmt_scans() {
        for opts in [
            TransformOptions::intra_plus_lds(),
            TransformOptions::intra_minus_lds(),
            TransformOptions::intra_plus_lds().with_swizzle(),
            TransformOptions::inter(),
        ] {
            let r = run_rmt(&PrefixSum, Scale::Small, &DeviceConfig::small_test(), &opts).unwrap();
            assert_eq!(r.detections, 0, "{opts:?}");
        }
    }
}
