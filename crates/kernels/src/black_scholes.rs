//! BlackScholes (BlkSch) — European option pricing. Heavy on transcendental
//! vector ALU work (exp/log/sqrt and the Abramowitz–Stegun CND polynomial)
//! with one load and two stores per item: the paper's canonical
//! compute-bound kernel (≈2× under every full RMT flavor).
//!
//! Buffers: `[0]` uniform randoms, `[1]` call prices, `[2]` put prices.

use crate::util::{check_f32s, Xorshift};
use crate::{Benchmark, Plan, Scale};
use gcn_sim::{Arg, Device, LaunchConfig};
use rmt_ir::{Kernel, KernelBuilder, Reg};

/// See module docs.
pub struct BlackScholes;

fn n_options(scale: Scale) -> usize {
    match scale {
        Scale::Small => 1024,
        Scale::Paper => 32768,
        Scale::Large => 131072,
    }
}

fn make_input(scale: Scale) -> Vec<f32> {
    let mut rng = Xorshift::new(0xB1AC_5C01);
    (0..n_options(scale)).map(|_| rng.next_f32()).collect()
}

const A1: f32 = 0.319_381_54;
const A2: f32 = -0.356_563_78;
const A3: f32 = 1.781_477_9;
const A4: f32 = -1.821_255_9;
const A5: f32 = 1.330_274_5;
const INV_SQRT_2PI: f32 = 0.398_942_3;

/// CPU reference mirroring the kernel's f32 operation order.
fn cpu_price(r: f32) -> (f32, f32) {
    let s = 10.0 + 90.0 * r;
    let k = 10.0 + 90.0 * r;
    let t = 1.0 + 9.0 * r;
    let rf = 0.01 + 0.09 * r;
    let v = 0.01 + 0.09 * r;

    let cnd = |d: f32| -> f32 {
        let l = d.abs();
        let kk = 1.0 / (1.0 + 0.2316419 * l);
        let poly = kk * (A1 + kk * (A2 + kk * (A3 + kk * (A4 + kk * A5))));
        let w = 1.0 - INV_SQRT_2PI * (-l * l / 2.0).exp() * poly;
        if d < 0.0 {
            1.0 - w
        } else {
            w
        }
    };
    let sqrt_t = t.sqrt();
    let d1 = ((s / k).ln() + (rf + v * v / 2.0) * t) / (v * sqrt_t);
    let d2 = d1 - v * sqrt_t;
    let kexp = k * (-rf * t).exp();
    let call = s * cnd(d1) - kexp * cnd(d2);
    let put = kexp * (1.0 - cnd(d2)) - s * (1.0 - cnd(d1));
    (call, put)
}

impl Benchmark for BlackScholes {
    fn name(&self) -> &'static str {
        "BlackScholes"
    }

    fn abbrev(&self) -> &'static str {
        "BlkSch"
    }

    fn kernel(&self) -> Kernel {
        let mut b = KernelBuilder::new("black_scholes");
        let rand = b.buffer_param("rand");
        let call_out = b.buffer_param("call");
        let put_out = b.buffer_param("put");
        let gid = b.global_id(0);
        let ra = b.elem_addr(rand, gid);
        let r = b.load_global(ra);

        let c10 = b.const_f32(10.0);
        let c90 = b.const_f32(90.0);
        let c1 = b.const_f32(1.0);
        let c9 = b.const_f32(9.0);
        let c001 = b.const_f32(0.01);
        let c009 = b.const_f32(0.09);
        let half = b.const_f32(0.5);

        let scale = |b: &mut KernelBuilder, base: Reg, m: Reg| {
            let t = b.mul_f32(m, r);
            b.add_f32(base, t)
        };
        let s = scale(&mut b, c10, c90);
        let k = scale(&mut b, c10, c90);
        let t = scale(&mut b, c1, c9);
        let rf = scale(&mut b, c001, c009);
        let v = scale(&mut b, c001, c009);

        // Abramowitz–Stegun cumulative normal distribution.
        let cnd = |b: &mut KernelBuilder, d: Reg| -> Reg {
            let l = b.abs_f32(d);
            let c2316 = b.const_f32(0.2316419);
            let one = b.const_f32(1.0);
            let lk = b.mul_f32(c2316, l);
            let denom = b.add_f32(one, lk);
            let kk = b.div_f32(one, denom);
            let a1 = b.const_f32(A1);
            let a2 = b.const_f32(A2);
            let a3 = b.const_f32(A3);
            let a4 = b.const_f32(A4);
            let a5 = b.const_f32(A5);
            let p4 = b.mul_f32(kk, a5);
            let p4 = b.add_f32(a4, p4);
            let p3 = b.mul_f32(kk, p4);
            let p3 = b.add_f32(a3, p3);
            let p2 = b.mul_f32(kk, p3);
            let p2 = b.add_f32(a2, p2);
            let p1 = b.mul_f32(kk, p2);
            let p1 = b.add_f32(a1, p1);
            let poly = b.mul_f32(kk, p1);
            let l2 = b.mul_f32(l, l);
            let halfc = b.const_f32(0.5);
            let hl2 = b.mul_f32(l2, halfc);
            let zero = b.const_f32(0.0);
            let nhl2 = b.sub_f32(zero, hl2);
            let e = b.exp_f32(nhl2);
            let isq = b.const_f32(INV_SQRT_2PI);
            let m = b.mul_f32(isq, e);
            let mp = b.mul_f32(m, poly);
            let w = b.sub_f32(one, mp);
            let neg = b.lt_f32(d, zero);
            let om_w = b.sub_f32(one, w);
            b.select(neg, om_w, w)
        };

        let sqrt_t = b.sqrt_f32(t);
        let sok = b.div_f32(s, k);
        let lsok = b.log_f32(sok);
        let v2 = b.mul_f32(v, v);
        let hv2 = b.mul_f32(v2, half);
        let drift = b.add_f32(rf, hv2);
        let dt = b.mul_f32(drift, t);
        let num = b.add_f32(lsok, dt);
        let vst = b.mul_f32(v, sqrt_t);
        let d1 = b.div_f32(num, vst);
        let d2 = b.sub_f32(d1, vst);

        let nd1 = cnd(&mut b, d1);
        let nd2 = cnd(&mut b, d2);
        let zero = b.const_f32(0.0);
        let nrt = b.mul_f32(rf, t);
        let nnrt = b.sub_f32(zero, nrt);
        let disc = b.exp_f32(nnrt);
        let kexp = b.mul_f32(k, disc);

        let snd1 = b.mul_f32(s, nd1);
        let knd2 = b.mul_f32(kexp, nd2);
        let call = b.sub_f32(snd1, knd2);
        let one = b.const_f32(1.0);
        let om2 = b.sub_f32(one, nd2);
        let om1 = b.sub_f32(one, nd1);
        let kom2 = b.mul_f32(kexp, om2);
        let som1 = b.mul_f32(s, om1);
        let put = b.sub_f32(kom2, som1);

        let ca = b.elem_addr(call_out, gid);
        let pa = b.elem_addr(put_out, gid);
        b.store_global(ca, call);
        b.store_global(pa, put);
        b.finish()
    }

    fn plan(&self, scale: Scale, dev: &mut Device) -> Plan {
        let n = n_options(scale);
        let input = make_input(scale);
        let rb = dev.create_buffer((n * 4) as u32);
        let cb = dev.create_buffer((n * 4) as u32);
        let pb = dev.create_buffer((n * 4) as u32);
        dev.write_f32s(rb, &input);
        Plan {
            passes: vec![LaunchConfig::new_1d(n, 64)
                .arg(Arg::Buffer(rb))
                .arg(Arg::Buffer(cb))
                .arg(Arg::Buffer(pb))],
            buffers: vec![rb, cb, pb],
        }
    }

    fn verify(&self, scale: Scale, dev: &Device, plan: &Plan) -> Result<(), String> {
        let input = make_input(scale);
        let (want_call, want_put): (Vec<f32>, Vec<f32>) =
            input.iter().map(|&r| cpu_price(r)).unzip();
        check_f32s(&dev.read_f32s(plan.buffers[1]), &want_call, 1e-3)?;
        check_f32s(&dev.read_f32s(plan.buffers[2]), &want_put, 1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_original, run_rmt};
    use gcn_sim::DeviceConfig;
    use rmt_core::TransformOptions;

    #[test]
    fn original_prices_options() {
        run_original(&BlackScholes, Scale::Small, &DeviceConfig::small_test()).unwrap();
    }

    #[test]
    fn rmt_prices_options() {
        for opts in [
            TransformOptions::intra_plus_lds().with_swizzle(),
            TransformOptions::inter(),
        ] {
            let r = run_rmt(
                &BlackScholes,
                Scale::Small,
                &DeviceConfig::small_test(),
                &opts,
            )
            .unwrap();
            assert_eq!(r.detections, 0);
        }
    }

    #[test]
    fn cpu_reference_sane() {
        let (c, p) = cpu_price(0.5);
        assert!(c > 0.0 && c.is_finite());
        assert!(p >= 0.0 && p.is_finite());
    }
}
