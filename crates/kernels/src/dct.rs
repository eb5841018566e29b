//! DCT — 8×8 two-dimensional discrete cosine transform per work-group,
//! staged through the LDS (`out = T · X · Tᵀ`). ALU-heavy (cosines are
//! computed in-kernel) with LDS traffic: under RMT both the redundant
//! compute and the doubled LDS hurt (Figures 2/4).
//!
//! Buffers: `[0]` input image (f32), `[1]` DCT coefficients (f32).

use crate::util::{check_f32s, Xorshift};
use crate::{Benchmark, Plan, Scale};
use gcn_sim::{Arg, Device, LaunchConfig};
use rmt_ir::{Kernel, KernelBuilder, Reg, Ty};

/// See module docs.
pub struct Dct;

const B: usize = 8; // block edge
const PI: f32 = std::f32::consts::PI;

fn dims(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Small => (32, 16),
        Scale::Paper => (128, 64),
        Scale::Large => (256, 128),
    }
}

fn make_input(scale: Scale) -> Vec<f32> {
    let (w, h) = dims(scale);
    let mut rng = Xorshift::new(0xDC7_0001);
    (0..w * h).map(|_| rng.range_f32(-128.0, 128.0)).collect()
}

/// DCT basis entry T[i][k] = a(i) · cos((2k+1)·i·π/16).
fn t_entry(i: usize, k: usize) -> f32 {
    let a = if i == 0 { (1.0f32 / 8.0).sqrt() } else { 0.5 };
    a * ((2 * k + 1) as f32 * i as f32 * PI / 16.0).cos()
}

fn cpu_dct(input: &[f32], w: usize, h: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; w * h];
    for by in (0..h).step_by(B) {
        for bx in (0..w).step_by(B) {
            // temp = T · X
            let mut temp = [[0.0f32; B]; B];
            for (i, row) in temp.iter_mut().enumerate() {
                for (j, cell) in row.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for k in 0..B {
                        acc += t_entry(i, k) * input[(by + k) * w + bx + j];
                    }
                    *cell = acc;
                }
            }
            // out = temp · Tᵀ
            for (i, row) in temp.iter().enumerate() {
                for j in 0..B {
                    let mut acc = 0.0f32;
                    for (k, &tv) in row.iter().enumerate() {
                        acc += tv * t_entry(j, k);
                    }
                    out[(by + i) * w + bx + j] = acc;
                }
            }
        }
    }
    out
}

impl Benchmark for Dct {
    fn name(&self) -> &'static str {
        "DCT"
    }

    fn abbrev(&self) -> &'static str {
        "DCT"
    }

    fn kernel(&self) -> Kernel {
        let mut b = KernelBuilder::new("dct8x8");
        // block[64] + temp[64] f32 in LDS.
        b.set_lds_bytes((2 * B * B * 4) as u32);
        let inp = b.buffer_param("in");
        let out = b.buffer_param("out");
        let w = b.scalar_param("w", Ty::U32);

        let gx = b.global_id(0);
        let gy = b.global_id(1);
        let lx = b.local_id(0);
        let ly = b.local_id(1);
        let four = b.const_u32(4);
        let eight = b.const_u32(B as u32);
        let temp_base = b.const_u32((B * B * 4) as u32);

        // Load my pixel into block[ly][lx].
        let grow = b.mul_u32(gy, w);
        let gidx = b.add_u32(grow, gx);
        let ga = b.elem_addr(inp, gidx);
        let v = b.load_global(ga);
        let lrow = b.mul_u32(ly, eight);
        let lidx = b.add_u32(lrow, lx);
        let loff = b.mul_u32(lidx, four);
        b.store_local(loff, v);
        b.barrier();

        // T[i][k] with runtime row index i: a(i) * cos((2k+1) i π/16).
        let t_coef = |b: &mut KernelBuilder, i: Reg, k: usize| -> Reg {
            let fi = b.u32_to_f32(i);
            let ang_c = b.const_f32((2 * k + 1) as f32 * PI / 16.0);
            let ang = b.mul_f32(fi, ang_c);
            let c = b.cos_f32(ang);
            let zero = b.const_u32(0);
            let is0 = b.eq_u32(i, zero);
            let a0 = b.const_f32((1.0f32 / 8.0).sqrt());
            let a1 = b.const_f32(0.5);
            let a = b.select(is0, a0, a1);
            b.mul_f32(a, c)
        };

        // Stage 1: temp[ly][lx] = Σ_k T[ly][k] · block[k][lx]
        let fzero = b.const_f32(0.0);
        let acc = b.fresh();
        b.mov_to(acc, fzero);
        for k in 0..B {
            let kc = b.const_u32(k as u32);
            let krow = b.mul_u32(kc, eight);
            let bi = b.add_u32(krow, lx);
            let bo = b.mul_u32(bi, four);
            let x = b.load_local(bo);
            let t = t_coef(&mut b, ly, k);
            let p = b.mul_f32(t, x);
            let s = b.add_f32(acc, p);
            b.mov_to(acc, s);
        }
        let toff = b.add_u32(temp_base, loff);
        b.store_local(toff, acc);
        b.barrier();

        // Stage 2: out[ly][lx] = Σ_k temp[ly][k] · T[lx][k]
        let acc2 = b.fresh();
        b.mov_to(acc2, fzero);
        for k in 0..B {
            let kc = b.const_u32(k as u32);
            let ti = b.add_u32(lrow, kc);
            let to4 = b.mul_u32(ti, four);
            let to = b.add_u32(temp_base, to4);
            let x = b.load_local(to);
            let t = t_coef(&mut b, lx, k);
            let p = b.mul_f32(t, x);
            let s = b.add_f32(acc2, p);
            b.mov_to(acc2, s);
        }
        let oa = b.elem_addr(out, gidx);
        b.store_global(oa, acc2);
        b.finish()
    }

    fn plan(&self, scale: Scale, dev: &mut Device) -> Plan {
        let (w, h) = dims(scale);
        let input = make_input(scale);
        let ib = dev.create_buffer((w * h * 4) as u32);
        let ob = dev.create_buffer((w * h * 4) as u32);
        dev.write_f32s(ib, &input);
        Plan {
            passes: vec![LaunchConfig::new([w, h, 1], [B, B, 1])
                .arg(Arg::Buffer(ib))
                .arg(Arg::Buffer(ob))
                .arg(Arg::U32(w as u32))],
            buffers: vec![ib, ob],
        }
    }

    fn verify(&self, scale: Scale, dev: &Device, plan: &Plan) -> Result<(), String> {
        let (w, h) = dims(scale);
        let want = cpu_dct(&make_input(scale), w, h);
        check_f32s(&dev.read_f32s(plan.buffers[1]), &want, 2e-3)
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
        run_original(&Dct, Scale::Small, &DeviceConfig::small_test()).unwrap();
    }

    #[test]
    fn rmt_transforms() {
        for opts in [
            TransformOptions::intra_plus_lds(),
            TransformOptions::inter(),
        ] {
            let r = run_rmt(&Dct, Scale::Small, &DeviceConfig::small_test(), &opts).unwrap();
            assert_eq!(r.detections, 0);
        }
    }

    #[test]
    fn dct_of_constant_block_concentrates_dc() {
        // A flat 8x8 block transforms to a single DC coefficient.
        let img = vec![8.0f32; 64];
        let out = cpu_dct(&img, 8, 8);
        assert!(
            (out[0] - 64.0).abs() < 1e-3,
            "DC = 8 * 8 = 64, got {}",
            out[0]
        );
        assert!(out[1..].iter().all(|&v| v.abs() < 1e-3));
    }
}
