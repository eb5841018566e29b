//! DwtHaar1D (DWT) — per-work-group multi-level 1-D Haar wavelet
//! decomposition staged through ping-pong LDS regions. Memory-bound at the
//! window loads but with heavy LDS traffic and barriers per level; in the
//! paper its communication and group-doubling costs dominate (Figure 4)
//! and it blows up under Inter-Group (Figure 6).
//!
//! Buffers: `[0]` signal, `[1]` coefficients in standard DWT layout
//! (per 128-sample window: `[approx, d_1, d_2(2), d_3(4), …, d_7(64)]`).

use crate::util::{check_f32s, Xorshift};
use crate::{Benchmark, Plan, Scale};
use gcn_sim::{Arg, Device, LaunchConfig};
use rmt_ir::{Kernel, KernelBuilder};

/// See module docs.
pub struct DwtHaar1d;

const WINDOW: usize = 128; // samples per work-group (local 64, 2 each)
const INV_SQRT2: f32 = std::f32::consts::FRAC_1_SQRT_2;

fn n_samples(scale: Scale) -> usize {
    match scale {
        Scale::Small => 1024,
        Scale::Paper => 32768,
        Scale::Large => 131072,
    }
}

fn make_input(scale: Scale) -> Vec<f32> {
    let mut rng = Xorshift::new(0xD3_7AA2);
    (0..n_samples(scale))
        .map(|_| rng.range_f32(-10.0, 10.0))
        .collect()
}

fn cpu_dwt_window(window: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; window.len()];
    let mut cur = window.to_vec();
    while cur.len() > 1 {
        let half = cur.len() / 2;
        let mut next = vec![0.0f32; half];
        for i in 0..half {
            let a = cur[2 * i];
            let b = cur[2 * i + 1];
            next[i] = (a + b) * INV_SQRT2;
            out[half + i] = (a - b) * INV_SQRT2;
        }
        cur = next;
    }
    out[0] = cur[0];
    out
}

impl Benchmark for DwtHaar1d {
    fn name(&self) -> &'static str {
        "DwtHaar1D"
    }

    fn abbrev(&self) -> &'static str {
        "DWT"
    }

    fn kernel(&self) -> Kernel {
        let mut b = KernelBuilder::new("dwt_haar1d");
        // Two ping-pong regions of 128 f32 each.
        b.set_lds_bytes((2 * WINDOW * 4) as u32);
        let inp = b.buffer_param("signal");
        let out = b.buffer_param("coeffs");
        let lid = b.local_id(0);
        let grp = b.group_id(0);
        let zero = b.const_u32(0);
        let one = b.const_u32(1);
        let two = b.const_u32(2);
        let four = b.const_u32(4);
        let win = b.const_u32(WINDOW as u32);
        let ping = b.const_u32(0);
        let pong = b.const_u32((WINDOW * 4) as u32);
        let isq = b.const_f32(INV_SQRT2);

        // Load my two samples into the ping region.
        let wbase = b.mul_u32(grp, win);
        let s0 = b.mul_u32(lid, two);
        let s1 = b.add_u32(s0, one);
        let g0 = b.add_u32(wbase, s0);
        let g1 = b.add_u32(wbase, s1);
        let ga0 = b.elem_addr(inp, g0);
        let ga1 = b.elem_addr(inp, g1);
        let v0 = b.load_global(ga0);
        let v1 = b.load_global(ga1);
        let lo0 = b.mul_u32(s0, four);
        let lo1 = b.mul_u32(s1, four);
        b.store_local(lo0, v0);
        b.store_local(lo1, v1);

        // Level loop with ping-pong bases.
        let cur = b.fresh();
        b.mov_to(cur, win);
        let src = b.fresh();
        b.mov_to(src, ping);
        let dst = b.fresh();
        b.mov_to(dst, pong);
        b.while_(
            |b| b.gt_u32(cur, one),
            |b| {
                let half = b.shr_u32(cur, one);
                b.barrier();
                let active = b.lt_u32(lid, half);
                b.if_(active, |b| {
                    let i0 = b.mul_u32(lid, two);
                    let i1 = b.add_u32(i0, one);
                    let o0b = b.mul_u32(i0, four);
                    let o1b = b.mul_u32(i1, four);
                    let sa = b.add_u32(src, o0b);
                    let sb = b.add_u32(src, o1b);
                    let a = b.load_local(sa);
                    let v = b.load_local(sb);
                    let sum = b.add_f32(a, v);
                    let diff = b.sub_f32(a, v);
                    let approx = b.mul_f32(sum, isq);
                    let detail = b.mul_f32(diff, isq);
                    let dob = b.mul_u32(lid, four);
                    let da = b.add_u32(dst, dob);
                    b.store_local(da, approx);
                    // Detail coefficient straight to global memory at
                    // out[window_base + half + lid].
                    let pos0 = b.add_u32(half, lid);
                    let pos = b.add_u32(wbase, pos0);
                    let oa = b.elem_addr(out, pos);
                    b.store_global(oa, detail);
                });
                // Swap ping/pong and halve the level (uniform).
                let t = b.fresh();
                b.mov_to(t, src);
                b.mov_to(src, dst);
                b.mov_to(dst, t);
                b.mov_to(cur, half);
            },
        );
        b.barrier();
        let is0 = b.eq_u32(lid, zero);
        b.if_(is0, |b| {
            let final_approx = b.load_local(src);
            let oa = b.elem_addr(out, wbase);
            b.store_global(oa, final_approx);
        });
        b.finish()
    }

    fn plan(&self, scale: Scale, dev: &mut Device) -> Plan {
        let n = n_samples(scale);
        let input = make_input(scale);
        let ib = dev.create_buffer((n * 4) as u32);
        let ob = dev.create_buffer((n * 4) as u32);
        dev.write_f32s(ib, &input);
        Plan {
            passes: vec![LaunchConfig::new_1d(n / 2, 64)
                .arg(Arg::Buffer(ib))
                .arg(Arg::Buffer(ob))],
            buffers: vec![ib, ob],
        }
    }

    fn verify(&self, scale: Scale, dev: &Device, plan: &Plan) -> Result<(), String> {
        let input = make_input(scale);
        let want: Vec<f32> = input
            .chunks_exact(WINDOW)
            .flat_map(cpu_dwt_window)
            .collect();
        check_f32s(&dev.read_f32s(plan.buffers[1]), &want, 1e-4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_original, run_rmt};
    use gcn_sim::DeviceConfig;
    use rmt_core::TransformOptions;

    #[test]
    fn original_decomposes() {
        run_original(&DwtHaar1d, Scale::Small, &DeviceConfig::small_test()).unwrap();
    }

    #[test]
    fn rmt_decomposes() {
        for opts in [
            TransformOptions::intra_plus_lds(),
            TransformOptions::intra_plus_lds().with_swizzle(),
            TransformOptions::inter(),
        ] {
            let r = run_rmt(&DwtHaar1d, Scale::Small, &DeviceConfig::small_test(), &opts).unwrap();
            assert_eq!(r.detections, 0, "{opts:?}");
        }
    }

    #[test]
    fn cpu_dwt_preserves_energy() {
        // Orthonormal transform: sum of squares preserved.
        let w: Vec<f32> = (0..WINDOW).map(|i| (i as f32 * 0.1).sin()).collect();
        let c = cpu_dwt_window(&w);
        let e_in: f32 = w.iter().map(|v| v * v).sum();
        let e_out: f32 = c.iter().map(|v| v * v).sum();
        assert!((e_in - e_out).abs() / e_in < 1e-4);
    }
}
