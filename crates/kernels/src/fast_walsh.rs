//! FastWalshTransform (FWT) — multi-pass global-memory butterfly. Like
//! BitonicSort it is bound by global memory traffic, which the paper shows
//! makes Intra-Group RMT nearly free (Figure 2) and Inter-Group RMT
//! catastrophic (9.37×, Figure 6).
//!
//! Buffers: `[0]` the signal (transformed in place).

use crate::util::{check_f32s, Xorshift};
use crate::{Benchmark, Plan, Scale};
use gcn_sim::{Arg, Device, LaunchConfig};
use rmt_ir::{Kernel, KernelBuilder, Ty};

/// See module docs.
pub struct FastWalshTransform;

fn n_elems(scale: Scale) -> usize {
    match scale {
        Scale::Small => 512,
        Scale::Paper => 131072,
        Scale::Large => 262144,
    }
}

fn make_input(scale: Scale) -> Vec<f32> {
    let mut rng = Xorshift::new(0xFA57_3A15);
    (0..n_elems(scale))
        .map(|_| rng.range_f32(-1.0, 1.0))
        .collect()
}

fn cpu_fwt(data: &mut [f32]) {
    let n = data.len();
    let mut step = 1;
    while step < n {
        for group in (0..n).step_by(step * 2) {
            for i in group..group + step {
                let a = data[i];
                let b = data[i + step];
                data[i] = a + b;
                data[i + step] = a - b;
            }
        }
        step *= 2;
    }
}

impl Benchmark for FastWalshTransform {
    fn name(&self) -> &'static str {
        "FastWalshTransform"
    }

    fn abbrev(&self) -> &'static str {
        "FWT"
    }

    fn kernel(&self) -> Kernel {
        // One butterfly per work-item: `p` = log2(step).
        let mut b = KernelBuilder::new("fwt_pass");
        let data = b.buffer_param("data");
        let p = b.scalar_param("p", Ty::U32);
        let gid = b.global_id(0);
        let one = b.const_u32(1);
        let step = b.shl_u32(one, p);
        let sm1 = b.sub_u32(step, one);

        // left = ((i >> p) << (p+1)) | (i & (step-1)); right = left + step.
        let hi = b.shr_u32(gid, p);
        let pp1 = b.add_u32(p, one);
        let hi_sh = b.shl_u32(hi, pp1);
        let lo = b.and_u32(gid, sm1);
        let left = b.or_u32(hi_sh, lo);
        let right = b.add_u32(left, step);

        let la = b.elem_addr(data, left);
        let ra = b.elem_addr(data, right);
        let a = b.load_global(la);
        let v = b.load_global(ra);
        let sum = b.add_f32(a, v);
        let diff = b.sub_f32(a, v);
        b.store_global(la, sum);
        b.store_global(ra, diff);
        b.finish()
    }

    fn plan(&self, scale: Scale, dev: &mut Device) -> Plan {
        let n = n_elems(scale);
        let input = make_input(scale);
        let buf = dev.create_buffer((n * 4) as u32);
        dev.write_f32s(buf, &input);
        let passes = (0..n.trailing_zeros())
            .map(|p| {
                LaunchConfig::new_1d(n / 2, 64)
                    .arg(Arg::Buffer(buf))
                    .arg(Arg::U32(p))
            })
            .collect();
        Plan {
            passes,
            buffers: vec![buf],
        }
    }

    fn verify(&self, scale: Scale, dev: &Device, plan: &Plan) -> Result<(), String> {
        let mut want = make_input(scale);
        cpu_fwt(&mut want);
        check_f32s(&dev.read_f32s(plan.buffers[0]), &want, 1e-4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_original, run_rmt};
    use gcn_sim::DeviceConfig;
    use rmt_core::TransformOptions;

    #[test]
    fn original_transforms() {
        run_original(
            &FastWalshTransform,
            Scale::Small,
            &DeviceConfig::small_test(),
        )
        .unwrap();
    }

    #[test]
    fn rmt_transforms() {
        let r = run_rmt(
            &FastWalshTransform,
            Scale::Small,
            &DeviceConfig::small_test(),
            &TransformOptions::intra_plus_lds(),
        )
        .unwrap();
        assert_eq!(r.detections, 0);
    }

    #[test]
    fn cpu_fwt_is_involutive_up_to_n() {
        // WHT applied twice = n * identity.
        let mut d = vec![1.0f32, 2.0, 3.0, 4.0];
        cpu_fwt(&mut d);
        cpu_fwt(&mut d);
        assert_eq!(d, vec![4.0, 8.0, 12.0, 16.0]);
    }
}
