//! UniformRandomNoise (URNG) — adds uniform noise to an image, one LCG
//! chain per pixel. Pure integer ALU work with one load and one store:
//! compute-bound, ~2× under every full RMT flavor in the paper.
//!
//! Buffers: `[0]` input image, `[1]` noisy output.

use crate::util::{check_u32s, Xorshift};
use crate::{Benchmark, Plan, Scale};
use gcn_sim::{Arg, Device, LaunchConfig};
use rmt_ir::{Kernel, KernelBuilder};

/// See module docs.
pub struct Urng;

const LCG_A: u32 = 1103515245;
const LCG_C: u32 = 12345;
const ROUNDS: usize = 24;

fn n_pixels(scale: Scale) -> usize {
    match scale {
        Scale::Small => 4096,
        Scale::Paper => 65536,
        Scale::Large => 262144,
    }
}

fn make_input(scale: Scale) -> Vec<u32> {
    let mut rng = Xorshift::new(0x0123_4567);
    (0..n_pixels(scale)).map(|_| rng.below(256)).collect()
}

fn cpu_noise(pixel: u32, gid: u32) -> u32 {
    let mut s = pixel ^ gid.wrapping_mul(2654435761);
    for _ in 0..ROUNDS {
        s = s.wrapping_mul(LCG_A).wrapping_add(LCG_C);
    }
    let noise = (s >> 16) & 0xFF;
    pixel.wrapping_add(noise).wrapping_sub(128)
}

impl Benchmark for Urng {
    fn name(&self) -> &'static str {
        "UniformRandomNoise"
    }

    fn abbrev(&self) -> &'static str {
        "URNG"
    }

    fn kernel(&self) -> Kernel {
        let mut b = KernelBuilder::new("urng");
        let inp = b.buffer_param("in");
        let out = b.buffer_param("out");
        let gid = b.global_id(0);
        let ia = b.elem_addr(inp, gid);
        let pixel = b.load_global(ia);
        let knuth = b.const_u32(2654435761);
        let seed0 = b.mul_u32(gid, knuth);
        let mut s = b.xor_u32(pixel, seed0);
        let a = b.const_u32(LCG_A);
        let c = b.const_u32(LCG_C);
        for _ in 0..ROUNDS {
            let t = b.mul_u32(s, a);
            s = b.add_u32(t, c);
        }
        let sixteen = b.const_u32(16);
        let mask = b.const_u32(0xFF);
        let hi = b.shr_u32(s, sixteen);
        let noise = b.and_u32(hi, mask);
        let c128 = b.const_u32(128);
        let plus = b.add_u32(pixel, noise);
        let res = b.sub_u32(plus, c128);
        let oa = b.elem_addr(out, gid);
        b.store_global(oa, res);
        b.finish()
    }

    fn plan(&self, scale: Scale, dev: &mut Device) -> Plan {
        let n = n_pixels(scale);
        let input = make_input(scale);
        let ib = dev.create_buffer((n * 4) as u32);
        let ob = dev.create_buffer((n * 4) as u32);
        dev.write_u32s(ib, &input);
        Plan {
            passes: vec![LaunchConfig::new_1d(n, 64)
                .arg(Arg::Buffer(ib))
                .arg(Arg::Buffer(ob))],
            buffers: vec![ib, ob],
        }
    }

    fn verify(&self, scale: Scale, dev: &Device, plan: &Plan) -> Result<(), String> {
        let input = make_input(scale);
        let want: Vec<u32> = input
            .iter()
            .enumerate()
            .map(|(i, &p)| cpu_noise(p, i as u32))
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
    fn original_adds_noise() {
        run_original(&Urng, Scale::Small, &DeviceConfig::small_test()).unwrap();
    }

    #[test]
    fn rmt_adds_noise() {
        for opts in [
            TransformOptions::intra_plus_lds(),
            TransformOptions::intra_plus_lds().with_swizzle(),
        ] {
            let r = run_rmt(&Urng, Scale::Small, &DeviceConfig::small_test(), &opts).unwrap();
            assert_eq!(r.detections, 0);
        }
    }
}
