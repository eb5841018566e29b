//! Reduction (R) — per-group LDS tree reduction producing one partial sum
//! per work-group. Memory-read-bound with tiny write traffic; only lane 0
//! of each group stores, so most redundant work hides behind global
//! memory latency (Section 7.4's "ghost" discussion), yet the group
//! doubling and communication costs still bite (Figure 4).
//!
//! Buffers: `[0]` input, `[1]` per-group partial sums.

use crate::util::{check_u32s, Xorshift};
use crate::{Benchmark, Plan, Scale};
use gcn_sim::{Arg, Device, LaunchConfig};
use rmt_ir::{Kernel, KernelBuilder};

/// See module docs.
pub struct Reduction;

const LOCAL: usize = 128;

fn n_elems(scale: Scale) -> usize {
    match scale {
        Scale::Small => 4096,
        Scale::Paper => 524288,
        Scale::Large => 2097152,
    }
}

fn make_input(scale: Scale) -> Vec<u32> {
    let mut rng = Xorshift::new(0x4ED0_C710);
    (0..n_elems(scale)).map(|_| rng.below(1000)).collect()
}

impl Benchmark for Reduction {
    fn name(&self) -> &'static str {
        "Reduction"
    }

    fn abbrev(&self) -> &'static str {
        "R"
    }

    fn kernel(&self) -> Kernel {
        let mut b = KernelBuilder::new("reduction");
        b.set_lds_bytes((LOCAL * 4) as u32);
        let inp = b.buffer_param("in");
        let out = b.buffer_param("partials");
        let gid = b.global_id(0);
        let lid = b.local_id(0);
        let grp = b.group_id(0);
        let ls = b.local_size(0);
        let four = b.const_u32(4);
        let one = b.const_u32(1);
        let zero = b.const_u32(0);

        let ia = b.elem_addr(inp, gid);
        let v = b.load_global(ia);
        let lo = b.mul_u32(lid, four);
        b.store_local(lo, v);

        // Tree reduce: s = ls/2; while s > 0 { barrier; if lid < s: add }.
        let s = b.fresh();
        let init = b.shr_u32(ls, one);
        b.mov_to(s, init);
        b.while_(
            |b| b.gt_u32(s, zero),
            |b| {
                b.barrier();
                let active = b.lt_u32(lid, s);
                b.if_(active, |b| {
                    let partner = b.add_u32(lid, s);
                    let po = b.mul_u32(partner, four);
                    let pv = b.load_local(po);
                    let mine = b.load_local(lo);
                    let sum = b.add_u32(mine, pv);
                    b.store_local(lo, sum);
                });
                let half = b.shr_u32(s, one);
                b.mov_to(s, half);
            },
        );
        b.barrier();
        let is0 = b.eq_u32(lid, zero);
        b.if_(is0, |b| {
            let total = b.load_local(zero);
            let oa = b.elem_addr(out, grp);
            b.store_global(oa, total);
        });
        b.finish()
    }

    fn plan(&self, scale: Scale, dev: &mut Device) -> Plan {
        let n = n_elems(scale);
        let input = make_input(scale);
        let ib = dev.create_buffer((n * 4) as u32);
        let ob = dev.create_buffer((n / LOCAL * 4) as u32);
        dev.write_u32s(ib, &input);
        Plan {
            passes: vec![LaunchConfig::new_1d(n, LOCAL)
                .arg(Arg::Buffer(ib))
                .arg(Arg::Buffer(ob))],
            buffers: vec![ib, ob],
        }
    }

    fn verify(&self, scale: Scale, dev: &Device, plan: &Plan) -> Result<(), String> {
        let input = make_input(scale);
        let want: Vec<u32> = input
            .chunks_exact(LOCAL)
            .map(|c| c.iter().fold(0u32, |a, &b| a.wrapping_add(b)))
            .collect();
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
    fn original_reduces() {
        run_original(&Reduction, Scale::Small, &DeviceConfig::small_test()).unwrap();
    }

    #[test]
    fn rmt_reduces() {
        // LDS staging makes +LDS vs −LDS interesting here.
        for opts in [
            TransformOptions::intra_plus_lds(),
            TransformOptions::intra_minus_lds(),
            TransformOptions::inter(),
        ] {
            let r = run_rmt(&Reduction, Scale::Small, &DeviceConfig::small_test(), &opts).unwrap();
            assert_eq!(r.detections, 0, "{opts:?}");
        }
    }
}
