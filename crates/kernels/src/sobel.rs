//! SobelFilter (SF) — 3×3 gradient-magnitude edge detector. A memory-bound
//! 2-D stencil whose shared neighbourhood reads put it in the paper's
//! low-overhead group (Figures 2 and 6), with slipstream-style prefetching
//! between redundant groups (Section 7.4).
//!
//! Buffers: `[0]` grayscale input (u32), `[1]` gradient magnitude (f32).

use crate::util::{check_f32s, Xorshift};
use crate::{Benchmark, Plan, Scale};
use gcn_sim::{Arg, Device, LaunchConfig};
use rmt_ir::{Kernel, KernelBuilder, Reg, Ty};

/// See module docs.
pub struct SobelFilter;

fn dims(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Small => (64, 32),
        Scale::Paper => (256, 128),
        Scale::Large => (512, 256),
    }
}

fn make_input(scale: Scale) -> Vec<u32> {
    let (w, h) = dims(scale);
    let mut rng = Xorshift::new(0x50B3_1F17);
    (0..w * h).map(|_| rng.below(256)).collect()
}

fn cpu_sobel(input: &[u32], w: usize, h: usize) -> Vec<f32> {
    let px = |x: usize, y: usize| -> f32 {
        let cx = x.min(w - 1);
        let cy = y.min(h - 1);
        input[cy * w + cx] as f32
    };
    let mut out = vec![0.0f32; w * h];
    for y in 0..h {
        for x in 0..w {
            // Interior only; borders stay zero (SDK behaviour).
            if x == 0 || y == 0 || x == w - 1 || y == h - 1 {
                continue;
            }
            let gx = px(x + 1, y - 1) - px(x - 1, y - 1)
                + 2.0 * (px(x + 1, y) - px(x - 1, y))
                + px(x + 1, y + 1)
                - px(x - 1, y + 1);
            let gy = px(x - 1, y + 1) - px(x - 1, y - 1)
                + 2.0 * (px(x, y + 1) - px(x, y - 1))
                + px(x + 1, y + 1)
                - px(x + 1, y - 1);
            out[y * w + x] = (gx * gx + gy * gy).sqrt() / 2.0;
        }
    }
    out
}

impl Benchmark for SobelFilter {
    fn name(&self) -> &'static str {
        "SobelFilter"
    }

    fn abbrev(&self) -> &'static str {
        "SF"
    }

    fn kernel(&self) -> Kernel {
        let mut b = KernelBuilder::new("sobel_filter");
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

        let rowb = b.mul_u32(y, w);
        let idx = b.add_u32(rowb, x);
        let oa = b.elem_addr(out, idx);
        let fzero = b.const_f32(0.0);
        b.store_global(oa, fzero); // borders (and a default) are zero

        // interior = x>0 && y>0 && x<w-1 && y<h-1
        let x_ok_lo = b.gt_u32(x, zero);
        let y_ok_lo = b.gt_u32(y, zero);
        let x_ok_hi = b.lt_u32(x, wm1);
        let y_ok_hi = b.lt_u32(y, hm1);
        let a1 = b.and_u32(x_ok_lo, y_ok_lo);
        let a2 = b.and_u32(x_ok_hi, y_ok_hi);
        let interior = b.and_u32(a1, a2);

        b.if_(interior, |b| {
            // Load the 3×3 neighbourhood as f32.
            let px = |b: &mut KernelBuilder, dx: i32, dy: i32| -> Reg {
                let xx = if dx >= 0 {
                    let d = b.const_u32(dx as u32);
                    b.add_u32(x, d)
                } else {
                    let d = b.const_u32((-dx) as u32);
                    b.sub_u32(x, d)
                };
                let yy = if dy >= 0 {
                    let d = b.const_u32(dy as u32);
                    b.add_u32(y, d)
                } else {
                    let d = b.const_u32((-dy) as u32);
                    b.sub_u32(y, d)
                };
                let r = b.mul_u32(yy, w);
                let i = b.add_u32(r, xx);
                let a = b.elem_addr(inp, i);
                let v = b.load_global(a);
                b.u32_to_f32(v)
            };
            let two = b.const_f32(2.0);

            let p_e_n = px(b, 1, -1);
            let p_w_n = px(b, -1, -1);
            let p_e = px(b, 1, 0);
            let p_w = px(b, -1, 0);
            let p_e_s = px(b, 1, 1);
            let p_w_s = px(b, -1, 1);
            let p_n = px(b, 0, -1);
            let p_s = px(b, 0, 1);

            // gx = (E-W at N) + 2*(E-W) + (E_S - W_S)
            let d1 = b.sub_f32(p_e_n, p_w_n);
            let d2 = b.sub_f32(p_e, p_w);
            let d2x = b.mul_f32(two, d2);
            let d3 = b.sub_f32(p_e_s, p_w_s);
            let gx0 = b.add_f32(d1, d2x);
            let gx = b.add_f32(gx0, d3);

            // gy = (W_S - W_N) + 2*(S - N) + (E_S - E_N)
            let e1 = b.sub_f32(p_w_s, p_w_n);
            let e2 = b.sub_f32(p_s, p_n);
            let e2x = b.mul_f32(two, e2);
            let e3 = b.sub_f32(p_e_s, p_e_n);
            let gy0 = b.add_f32(e1, e2x);
            let gy = b.add_f32(gy0, e3);

            let gx2 = b.mul_f32(gx, gx);
            let gy2 = b.mul_f32(gy, gy);
            let s = b.add_f32(gx2, gy2);
            let mag = b.sqrt_f32(s);
            let half = b.const_f32(0.5);
            let res = b.mul_f32(mag, half);
            b.store_global(oa, res);
        });
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
        let want = cpu_sobel(&make_input(scale), w, h);
        // f32 addition is reassociated between kernel and reference.
        check_f32s(&dev.read_f32s(plan.buffers[1]), &want, 1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_original, run_rmt};
    use gcn_sim::DeviceConfig;
    use rmt_core::TransformOptions;

    #[test]
    fn original_edges() {
        run_original(&SobelFilter, Scale::Small, &DeviceConfig::small_test()).unwrap();
    }

    #[test]
    fn rmt_edges() {
        let r = run_rmt(
            &SobelFilter,
            Scale::Small,
            &DeviceConfig::small_test(),
            &TransformOptions::inter(),
        )
        .unwrap();
        assert_eq!(r.detections, 0);
    }

    #[test]
    fn flat_image_has_no_edges() {
        let img = vec![100u32; 16 * 16];
        let out = cpu_sobel(&img, 16, 16);
        assert!(out.iter().all(|&v| v == 0.0));
    }
}
