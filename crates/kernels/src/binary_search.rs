//! BinarySearch (BinS) — every work-item binary-searches a sorted array
//! for its key. Memory-latency-bound with data-dependent branching; most
//! work-items write at most one word (the "ghost" behaviour Section 7.4
//! credits for BinS's low Inter-Group overhead).
//!
//! Buffers: `[0]` sorted array, `[1]` keys, `[2]` result indices
//! (`u32::MAX` when absent).

use crate::util::{check_u32s, Xorshift};
use crate::{Benchmark, Plan, Scale};
use gcn_sim::{Arg, Device, LaunchConfig};
use rmt_ir::{Kernel, KernelBuilder, Ty};

/// See module docs.
pub struct BinarySearch;

fn sizes(scale: Scale) -> (usize, usize) {
    // (array length, number of keys)
    match scale {
        Scale::Small => (4096, 2048),
        Scale::Paper => (262144, 98304),
        Scale::Large => (1048576, 393216),
    }
}

fn make_inputs(scale: Scale) -> (Vec<u32>, Vec<u32>) {
    let (len, nkeys) = sizes(scale);
    let mut rng = Xorshift::new(0xB15E_ACC0);
    let mut arr = Vec::with_capacity(len);
    let mut acc = 0u32;
    for _ in 0..len {
        acc = acc.wrapping_add(rng.below(3)); // non-decreasing, duplicates
        arr.push(acc);
    }
    let max = acc + 2;
    let keys = (0..nkeys).map(|_| rng.below(max)).collect();
    (arr, keys)
}

impl Benchmark for BinarySearch {
    fn name(&self) -> &'static str {
        "BinarySearch"
    }

    fn abbrev(&self) -> &'static str {
        "BinS"
    }

    fn kernel(&self) -> Kernel {
        let mut b = KernelBuilder::new("binary_search");
        let arr = b.buffer_param("sorted");
        let keys = b.buffer_param("keys");
        let out = b.buffer_param("found");
        let len = b.scalar_param("len", Ty::U32);
        let gid = b.global_id(0);
        let ka = b.elem_addr(keys, gid);
        let key = b.load_global(ka);

        let zero = b.const_u32(0);
        let one = b.const_u32(1);
        let lo = b.fresh();
        b.mov_to(lo, zero);
        let hi = b.fresh();
        b.mov_to(hi, len);
        // lower_bound: while lo < hi { mid; arr[mid] < key ? lo=mid+1 : hi=mid }
        b.while_(
            |b| b.lt_u32(lo, hi),
            |b| {
                let sum = b.add_u32(lo, hi);
                let mid = b.shr_u32(sum, one);
                let ma = b.elem_addr(arr, mid);
                let v = b.load_global(ma);
                let less = b.lt_u32(v, key);
                let midp1 = b.add_u32(mid, one);
                let new_lo = b.select(less, midp1, lo);
                let new_hi = b.select(less, hi, mid);
                b.mov_to(lo, new_lo);
                b.mov_to(hi, new_hi);
            },
        );
        // found = lo < len && arr[lo] == key (guard the probe address).
        let lenm1 = b.sub_u32(len, one);
        let probe_idx = b.min_u32(lo, lenm1);
        let pa = b.elem_addr(arr, probe_idx);
        let pv = b.load_global(pa);
        let in_range = b.lt_u32(lo, len);
        let eq = b.eq_u32(pv, key);
        let found = b.and_u32(in_range, eq);
        let miss = b.const_u32(u32::MAX);
        let res = b.select(found, lo, miss);
        let oa = b.elem_addr(out, gid);
        b.store_global(oa, res);
        b.finish()
    }

    fn plan(&self, scale: Scale, dev: &mut Device) -> Plan {
        let (len, nkeys) = sizes(scale);
        let (arr, keys) = make_inputs(scale);
        let ab = dev.create_buffer((len * 4) as u32);
        let kb = dev.create_buffer((nkeys * 4) as u32);
        let ob = dev.create_buffer((nkeys * 4) as u32);
        dev.write_u32s(ab, &arr);
        dev.write_u32s(kb, &keys);
        Plan {
            passes: vec![LaunchConfig::new_1d(nkeys, 64)
                .arg(Arg::Buffer(ab))
                .arg(Arg::Buffer(kb))
                .arg(Arg::Buffer(ob))
                .arg(Arg::U32(len as u32))],
            buffers: vec![ab, kb, ob],
        }
    }

    fn verify(&self, scale: Scale, dev: &Device, plan: &Plan) -> Result<(), String> {
        let (arr, keys) = make_inputs(scale);
        let want: Vec<u32> = keys
            .iter()
            .map(|&k| {
                let lb = arr.partition_point(|&v| v < k);
                if lb < arr.len() && arr[lb] == k {
                    lb as u32
                } else {
                    u32::MAX
                }
            })
            .collect();
        let got = dev.read_u32s(plan.buffers[2]);
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
    fn original_verifies() {
        run_original(&BinarySearch, Scale::Small, &DeviceConfig::small_test()).unwrap();
    }

    #[test]
    fn rmt_flavors_verify() {
        for opts in [
            TransformOptions::intra_plus_lds(),
            TransformOptions::inter(),
        ] {
            let r = run_rmt(
                &BinarySearch,
                Scale::Small,
                &DeviceConfig::small_test(),
                &opts,
            )
            .unwrap();
            assert_eq!(r.detections, 0);
        }
    }
}
