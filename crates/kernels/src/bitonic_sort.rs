//! BitonicSort (BitS) — the classic multi-pass compare-exchange network.
//! Every pass streams the whole array through global memory: heavily
//! memory- and write-bound, which is why it suffers the paper's worst
//! Inter-Group slowdown (9.48×, Section 7.3).
//!
//! Buffers: `[0]` the data (sorted ascending in place).

use crate::util::{check_u32s, Xorshift};
use crate::{Benchmark, Plan, Scale};
use gcn_sim::{Arg, Device, LaunchConfig};
use rmt_ir::{Kernel, KernelBuilder, Ty};

/// See module docs.
pub struct BitonicSort;

fn n_elems(scale: Scale) -> usize {
    match scale {
        Scale::Small => 512,
        Scale::Paper => 131072,
        Scale::Large => 262144,
    }
}

fn make_input(scale: Scale) -> Vec<u32> {
    let n = n_elems(scale);
    let mut rng = Xorshift::new(0xB170_50B7);
    (0..n).map(|_| rng.next_u32() & 0xFFFF).collect()
}

impl Benchmark for BitonicSort {
    fn name(&self) -> &'static str {
        "BitonicSort"
    }

    fn abbrev(&self) -> &'static str {
        "BitS"
    }

    fn kernel(&self) -> Kernel {
        // One compare-exchange per work-item; `p` is the pass distance
        // shift (k = 1 << p), `sp1` = stage + 1 (block direction shift).
        let mut b = KernelBuilder::new("bitonic_pass");
        let data = b.buffer_param("data");
        let p = b.scalar_param("p", Ty::U32);
        let sp1 = b.scalar_param("sp1", Ty::U32);
        let gid = b.global_id(0);
        let one = b.const_u32(1);
        let k = b.shl_u32(one, p);
        let km1 = b.sub_u32(k, one);

        // left = ((i >> p) << (p+1)) | (i & (k-1)); right = left + k.
        let hi_part = b.shr_u32(gid, p);
        let pp1 = b.add_u32(p, one);
        let hi_sh = b.shl_u32(hi_part, pp1);
        let lo_part = b.and_u32(gid, km1);
        let left = b.or_u32(hi_sh, lo_part);
        let right = b.add_u32(left, k);

        let la = b.elem_addr(data, left);
        let ra = b.elem_addr(data, right);
        let lv = b.load_global(la);
        let rv = b.load_global(ra);

        // Ascending block iff bit (stage+1) of `left` is 0.
        let blk = b.shr_u32(left, sp1);
        let dir = b.and_u32(blk, one);
        let zero = b.const_u32(0);
        let asc = b.eq_u32(dir, zero);
        let gt = b.gt_u32(lv, rv);
        let lt = b.lt_u32(lv, rv);
        let swap = b.select(asc, gt, lt);
        b.if_(swap, |b| {
            b.store_global(la, rv);
            b.store_global(ra, lv);
        });
        b.finish()
    }

    fn plan(&self, scale: Scale, dev: &mut Device) -> Plan {
        let n = n_elems(scale);
        let input = make_input(scale);
        let buf = dev.create_buffer((n * 4) as u32);
        dev.write_u32s(buf, &input);
        let stages = n.trailing_zeros();
        let mut passes = Vec::new();
        for stage in 0..stages {
            for p in (0..=stage).rev() {
                passes.push(
                    LaunchConfig::new_1d(n / 2, 64)
                        .arg(Arg::Buffer(buf))
                        .arg(Arg::U32(p))
                        .arg(Arg::U32(stage + 1)),
                );
            }
        }
        Plan {
            passes,
            buffers: vec![buf],
        }
    }

    fn verify(&self, scale: Scale, dev: &Device, plan: &Plan) -> Result<(), String> {
        let mut want = make_input(scale);
        want.sort_unstable();
        let got = dev.read_u32s(plan.buffers[0]);
        check_u32s(&got, &want)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_original, run_rmt};
    use gcn_sim::DeviceConfig;
    use rmt_core::TransformOptions;

    #[test]
    fn original_sorts() {
        run_original(&BitonicSort, Scale::Small, &DeviceConfig::small_test()).unwrap();
    }

    #[test]
    fn rmt_sorts() {
        for opts in [
            TransformOptions::intra_minus_lds(),
            TransformOptions::inter(),
        ] {
            let r = run_rmt(
                &BitonicSort,
                Scale::Small,
                &DeviceConfig::small_test(),
                &opts,
            )
            .unwrap();
            assert_eq!(r.detections, 0);
        }
    }
}
