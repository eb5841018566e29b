//! SimpleConvolution (SC) — 3×3 integer convolution over an image. Its
//! neighbourhood reads are highly cache-friendly and largely shared
//! between redundant threads, which is how the paper explains SC's RMT
//! *speedups* (reduced contention + slipstream prefetching, Sections 6.4
//! and 7.4).
//!
//! Buffers: `[0]` input image (u32), `[1]` output image.

use crate::util::{check_u32s, Xorshift};
use crate::{Benchmark, Plan, Scale};
use gcn_sim::{Arg, Device, LaunchConfig};
use rmt_ir::{Kernel, KernelBuilder, Reg, Ty};

/// See module docs.
pub struct SimpleConvolution;

/// 3×3 kernel weights (integer box-ish blur, normalized by shift).
const MASK: [[u32; 3]; 3] = [[1, 2, 1], [2, 4, 2], [1, 2, 1]];
const NORM_SHIFT: u32 = 4; // divide by 16

fn dims(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Small => (64, 32),
        Scale::Paper => (256, 128),
        Scale::Large => (512, 256),
    }
}

fn make_input(scale: Scale) -> Vec<u32> {
    let (w, h) = dims(scale);
    let mut rng = Xorshift::new(0x5C0C_0DE5);
    (0..w * h).map(|_| rng.below(256)).collect()
}

fn cpu_conv(input: &[u32], w: usize, h: usize) -> Vec<u32> {
    let mut out = vec![0u32; w * h];
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0u32;
            for (dy, row) in MASK.iter().enumerate() {
                for (dx, &m) in row.iter().enumerate() {
                    // Clamped borders.
                    let sx = (x + dx).saturating_sub(1).min(w - 1);
                    let sy = (y + dy).saturating_sub(1).min(h - 1);
                    acc = acc.wrapping_add(input[sy * w + sx].wrapping_mul(m));
                }
            }
            out[y * w + x] = acc >> NORM_SHIFT;
        }
    }
    out
}

impl Benchmark for SimpleConvolution {
    fn name(&self) -> &'static str {
        "SimpleConvolution"
    }

    fn abbrev(&self) -> &'static str {
        "SC"
    }

    fn kernel(&self) -> Kernel {
        let mut b = KernelBuilder::new("simple_convolution");
        let inp = b.buffer_param("in");
        let out = b.buffer_param("out");
        let w = b.scalar_param("w", Ty::U32);
        let h = b.scalar_param("h", Ty::U32);
        let x = b.global_id(0);
        let y = b.global_id(1);
        let one = b.const_u32(1);
        let zero = b.const_u32(0);
        let wm1 = b.sub_u32(w, one);
        let hm1 = b.sub_u32(h, one);

        // Clamp helper: min(max(c + d - 1, 0), limit) using the trick
        // saturating_sub on unsigned: (c + d).saturating_sub(1) == max with
        // wrapping avoided because c + d >= 0 always; emulate with select.
        let clamp = |b: &mut KernelBuilder, c: Reg, d: u32, limit: Reg| -> Reg {
            let dc = b.const_u32(d);
            let sum = b.add_u32(c, dc);
            let is_zero = b.eq_u32(sum, zero);
            let sum_m1 = b.sub_u32(sum, one);
            let lo = b.select(is_zero, zero, sum_m1);
            b.min_u32(lo, limit)
        };

        let mut acc = zero;
        for (dy, row) in MASK.iter().enumerate() {
            for (dx, &m) in row.iter().enumerate() {
                let sx = clamp(&mut b, x, dx as u32, wm1);
                let sy = clamp(&mut b, y, dy as u32, hm1);
                let rowb = b.mul_u32(sy, w);
                let idx = b.add_u32(rowb, sx);
                let a = b.elem_addr(inp, idx);
                let v = b.load_global(a);
                let mc = b.const_u32(m);
                let t = b.mul_u32(v, mc);
                acc = b.add_u32(acc, t);
            }
        }
        let shift = b.const_u32(NORM_SHIFT);
        let res = b.shr_u32(acc, shift);
        let rowb = b.mul_u32(y, w);
        let idx = b.add_u32(rowb, x);
        let oa = b.elem_addr(out, idx);
        b.store_global(oa, res);
        let _ = h; // bound via hm1
        b.finish()
    }

    fn plan(&self, scale: Scale, dev: &mut Device) -> Plan {
        let (w, h) = dims(scale);
        let input = make_input(scale);
        let ib = dev.create_buffer((w * h * 4) as u32);
        let ob = dev.create_buffer((w * h * 4) as u32);
        dev.write_u32s(ib, &input);
        Plan {
            passes: vec![LaunchConfig::new([w, h, 1], [32, 4, 1])
                .arg(Arg::Buffer(ib))
                .arg(Arg::Buffer(ob))
                .arg(Arg::U32(w as u32))
                .arg(Arg::U32(h as u32))],
            buffers: vec![ib, ob],
        }
    }

    fn verify(&self, scale: Scale, dev: &Device, plan: &Plan) -> Result<(), String> {
        let (w, h) = dims(scale);
        let want = cpu_conv(&make_input(scale), w, h);
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
    fn original_convolves() {
        run_original(
            &SimpleConvolution,
            Scale::Small,
            &DeviceConfig::small_test(),
        )
        .unwrap();
    }

    #[test]
    fn rmt_convolves() {
        for opts in [
            TransformOptions::intra_minus_lds(),
            TransformOptions::inter(),
        ] {
            let r = run_rmt(
                &SimpleConvolution,
                Scale::Small,
                &DeviceConfig::small_test(),
                &opts,
            )
            .unwrap();
            assert_eq!(r.detections, 0);
        }
    }

    #[test]
    fn cpu_reference_blurs_flat_image_to_itself() {
        let img = vec![16u32; 8 * 8];
        let out = cpu_conv(&img, 8, 8);
        assert!(out.iter().all(|&v| v == 16));
    }
}
