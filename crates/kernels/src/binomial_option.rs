//! BinomialOption (BO) — Cox-Ross-Rubinstein binomial option pricing: one
//! work-group per option walks a 63-step lattice backwards in the LDS with
//! a barrier per step. The lattice is ping-pong double-buffered: with a
//! single barrier per step, reading `v[i+1]` while a neighbouring
//! wavefront writes it would race once the work-group spans more than one
//! wavefront — exactly what the Intra-Group transform's group doubling
//! causes. The paper's poster child for LDS-access-bound
//! behaviour: Intra-Group−LDS trades its redundant-computation cost for an
//! equally large communication cost (Section 6.4), and the FAST swizzle
//! variant recovers most of it (Figure 9).
//!
//! Buffers: `[0]` per-option uniform randoms, `[1]` option prices.

use crate::util::{check_f32s, Xorshift};
use crate::{Benchmark, Plan, Scale};
use gcn_sim::{Arg, Device, LaunchConfig};
use rmt_ir::{Kernel, KernelBuilder};

/// See module docs.
pub struct BinomialOption;

const STEPS: usize = 63; // local size 64 = STEPS + 1
const RISK_FREE: f32 = 0.02;
const VOLATILITY: f32 = 0.30;

fn n_options(scale: Scale) -> usize {
    match scale {
        Scale::Small => 32,
        Scale::Paper => 512,
        Scale::Large => 4096,
    }
}

fn make_input(scale: Scale) -> Vec<f32> {
    let mut rng = Xorshift::new(0xB100_0713);
    (0..n_options(scale)).map(|_| rng.next_f32()).collect()
}

/// CPU pricing mirroring the kernel's f32 operation order.
fn cpu_price(r: f32) -> f32 {
    let s = 10.0f32 + 90.0 * r;
    let k = 10.0f32 + 90.0 * r;
    let t = 1.0f32 + 9.0 * r;
    let dt = t / STEPS as f32;
    let vsdt = VOLATILITY * dt.sqrt();
    let rdt = (RISK_FREE * dt).exp();
    let u = vsdt.exp();
    let d = (-vsdt).exp();
    let pu = (rdt - d) / (u - d);
    let pu_by_r = pu / rdt;
    let pd_by_r = (1.0 - pu) / rdt;

    let mut v: Vec<f32> = (0..=STEPS)
        .map(|i| {
            let price = s * (vsdt * (2.0 * i as f32 - STEPS as f32)).exp();
            (price - k).max(0.0)
        })
        .collect();
    for j in (1..=STEPS).rev() {
        for i in 0..j {
            v[i] = pu_by_r * v[i + 1] + pd_by_r * v[i];
        }
    }
    v[0]
}

impl Benchmark for BinomialOption {
    fn name(&self) -> &'static str {
        "BinomialOption"
    }

    fn abbrev(&self) -> &'static str {
        "BO"
    }

    fn kernel(&self) -> Kernel {
        let mut b = KernelBuilder::new("binomial_option");
        b.set_lds_bytes(2 * 64 * 4); // ping-pong lattice buffers
        let rand = b.buffer_param("rand");
        let out = b.buffer_param("price");
        let lid = b.local_id(0);
        let grp = b.group_id(0);
        let zero = b.const_u32(0);
        let one = b.const_u32(1);
        let four = b.const_u32(4);

        // Per-option parameters from the group's random.
        let ra = b.elem_addr(rand, grp);
        let r = b.load_global(ra);
        let c10 = b.const_f32(10.0);
        let c90 = b.const_f32(90.0);
        let c1 = b.const_f32(1.0);
        let c9 = b.const_f32(9.0);
        let sr = b.mul_f32(c90, r);
        let s = b.add_f32(c10, sr);
        let kr = b.mul_f32(c90, r);
        let k = b.add_f32(c10, kr);
        let tr = b.mul_f32(c9, r);
        let t = b.add_f32(c1, tr);

        let steps_f = b.const_f32(STEPS as f32);
        let dt = b.div_f32(t, steps_f);
        let vol = b.const_f32(VOLATILITY);
        let sdt = b.sqrt_f32(dt);
        let vsdt = b.mul_f32(vol, sdt);
        let rf = b.const_f32(RISK_FREE);
        let rdt_e = b.mul_f32(rf, dt);
        let rdt = b.exp_f32(rdt_e);
        let u = b.exp_f32(vsdt);
        let fzero = b.const_f32(0.0);
        let nvsdt = b.sub_f32(fzero, vsdt);
        let d = b.exp_f32(nvsdt);
        let num = b.sub_f32(rdt, d);
        let den = b.sub_f32(u, d);
        let pu = b.div_f32(num, den);
        let pu_by_r = b.div_f32(pu, rdt);
        let ompu = b.sub_f32(c1, pu);
        let pd_by_r = b.div_f32(ompu, rdt);

        // Leaf payoff at node `lid`: max(S·exp(vsdt·(2·lid − steps)) − K, 0).
        let two_f = b.const_f32(2.0);
        let lid_f = b.u32_to_f32(lid);
        let tl = b.mul_f32(two_f, lid_f);
        let e0 = b.sub_f32(tl, steps_f);
        let e1 = b.mul_f32(vsdt, e0);
        let growth = b.exp_f32(e1);
        let price = b.mul_f32(s, growth);
        let pk = b.sub_f32(price, k);
        let payoff = b.max_f32(pk, fzero);
        let lo = b.mul_u32(lid, four);
        b.store_local(lo, payoff);

        // Backward induction with ping-pong regions (safe across multiple
        // wavefronts in the group): j = steps … 1.
        let pong = b.const_u32(64 * 4);
        let src = b.fresh();
        b.mov_to(src, zero);
        let dst = b.fresh();
        b.mov_to(dst, pong);
        let j = b.fresh();
        let steps_c = b.const_u32(STEPS as u32);
        b.mov_to(j, steps_c);
        b.while_(
            |b| b.gt_u32(j, zero),
            |b| {
                b.barrier();
                let active = b.lt_u32(lid, j);
                b.if_(active, |b| {
                    let lp1 = b.add_u32(lid, one);
                    let lo1 = b.mul_u32(lp1, four);
                    let sa_up = b.add_u32(src, lo1);
                    let sa_here = b.add_u32(src, lo);
                    let up = b.load_local(sa_up);
                    let here = b.load_local(sa_here);
                    let a = b.mul_f32(pu_by_r, up);
                    let c = b.mul_f32(pd_by_r, here);
                    let nv = b.add_f32(a, c);
                    let da = b.add_u32(dst, lo);
                    b.store_local(da, nv);
                });
                let t = b.fresh();
                b.mov_to(t, src);
                b.mov_to(src, dst);
                b.mov_to(dst, t);
                let jm1 = b.sub_u32(j, one);
                b.mov_to(j, jm1);
            },
        );
        b.barrier();
        let is0 = b.eq_u32(lid, zero);
        b.if_(is0, |b| {
            let v0 = b.load_local(src);
            let oa = b.elem_addr(out, grp);
            b.store_global(oa, v0);
        });
        b.finish()
    }

    fn plan(&self, scale: Scale, dev: &mut Device) -> Plan {
        let n = n_options(scale);
        let input = make_input(scale);
        let rb = dev.create_buffer((n * 4) as u32);
        let ob = dev.create_buffer((n * 4) as u32);
        dev.write_f32s(rb, &input);
        Plan {
            passes: vec![LaunchConfig::new_1d(n * 64, 64)
                .arg(Arg::Buffer(rb))
                .arg(Arg::Buffer(ob))],
            buffers: vec![rb, ob],
        }
    }

    fn verify(&self, scale: Scale, dev: &Device, plan: &Plan) -> Result<(), String> {
        let input = make_input(scale);
        let want: Vec<f32> = input.iter().map(|&r| cpu_price(r)).collect();
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
    fn original_prices() {
        run_original(&BinomialOption, Scale::Small, &DeviceConfig::small_test()).unwrap();
    }

    #[test]
    fn rmt_prices() {
        for opts in [
            TransformOptions::intra_plus_lds(),
            TransformOptions::intra_minus_lds(),
            TransformOptions::intra_minus_lds().with_swizzle(),
            TransformOptions::inter(),
        ] {
            let r = run_rmt(
                &BinomialOption,
                Scale::Small,
                &DeviceConfig::small_test(),
                &opts,
            )
            .unwrap();
            assert_eq!(r.detections, 0, "{opts:?}");
        }
    }

    #[test]
    fn cpu_price_is_intrinsic_bounded() {
        // The option value is at least intrinsic value (S == K here, so 0)
        // and below the stock price.
        let p = cpu_price(0.5);
        assert!((0.0..55.0).contains(&p), "price {p}");
    }
}
