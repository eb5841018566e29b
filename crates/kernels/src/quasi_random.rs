//! QuasiRandomSequence (QRS) — Sobol' sequence generation: each point is
//! an XOR-fold of direction numbers selected by its index bits. Integer
//! ALU plus small, heavily-shared table reads (scalar-cached); its
//! communication-heavy RMT profile makes it one of the kernels the FAST
//! swizzle path helps most (Figure 9).
//!
//! Buffers: `[0]` direction numbers (32 per dimension), `[1]` output
//! points (`dims × n` values).

use crate::util::{check_u32s, Xorshift};
use crate::{Benchmark, Plan, Scale};
use gcn_sim::{Arg, Device, LaunchConfig};
use rmt_ir::{Kernel, KernelBuilder, Ty};

/// See module docs.
pub struct QuasiRandomSequence;

const DIMS: usize = 4;

fn n_points(scale: Scale) -> usize {
    match scale {
        Scale::Small => 2048,
        Scale::Paper => 32768,
        Scale::Large => 131072,
    }
}

/// Direction numbers: dimension 0 is the classic van-der-Corput set; the
/// rest are deterministic pseudo-directions (adequate for a performance
/// workload; numerically faithful Sobol' initialisation is out of scope).
fn directions() -> Vec<u32> {
    let mut v = Vec::with_capacity(DIMS * 32);
    for d in 0..DIMS {
        let mut rng = Xorshift::new(0x50B0_1000 + d as u32);
        for bit in 0..32 {
            if d == 0 {
                v.push(1u32 << (31 - bit));
            } else {
                // Odd values shifted to the top bits, as real direction
                // numbers are.
                let m = (rng.next_u32() | 1) & (((1u64 << (bit + 1)) - 1) as u32);
                v.push(m << (31 - bit));
            }
        }
    }
    v
}

fn cpu_sobol(dirs: &[u32], dim: usize, i: u32) -> u32 {
    let mut acc = 0u32;
    for bit in 0..32 {
        if (i >> bit) & 1 == 1 {
            acc ^= dirs[dim * 32 + bit];
        }
    }
    acc
}

impl Benchmark for QuasiRandomSequence {
    fn name(&self) -> &'static str {
        "QuasiRandomSequence"
    }

    fn abbrev(&self) -> &'static str {
        "QRS"
    }

    fn kernel(&self) -> Kernel {
        // One work-item per (point, dim): gid = dim * n + i.
        let mut b = KernelBuilder::new("quasi_random");
        let dirs = b.buffer_param("directions");
        let out = b.buffer_param("out");
        let n = b.scalar_param("n", Ty::U32);
        let gid = b.global_id(0);
        let dim = b.div_u32(gid, n);
        let i = b.rem_u32(gid, n);

        let zero = b.const_u32(0);
        let one = b.const_u32(1);
        let c32 = b.const_u32(32);
        let dbase = b.mul_u32(dim, c32);

        let acc = b.fresh();
        b.mov_to(acc, zero);
        let bit = b.fresh();
        b.mov_to(bit, zero);
        b.while_(
            |b| b.lt_u32(bit, c32),
            |b| {
                let sh = b.shr_u32(i, bit);
                let set = b.and_u32(sh, one);
                let taken = b.ne_u32(set, zero);
                b.if_(taken, |b| {
                    let di = b.add_u32(dbase, bit);
                    let da = b.elem_addr(dirs, di);
                    let dv = b.load_global(da);
                    let x = b.xor_u32(acc, dv);
                    b.mov_to(acc, x);
                });
                let nb = b.add_u32(bit, one);
                b.mov_to(bit, nb);
            },
        );
        let oa = b.elem_addr(out, gid);
        b.store_global(oa, acc);
        b.finish()
    }

    fn plan(&self, scale: Scale, dev: &mut Device) -> Plan {
        let n = n_points(scale);
        let dirs = directions();
        let db = dev.create_buffer((dirs.len() * 4) as u32);
        let ob = dev.create_buffer((DIMS * n * 4) as u32);
        dev.write_u32s(db, &dirs);
        Plan {
            passes: vec![LaunchConfig::new_1d(DIMS * n, 64)
                .arg(Arg::Buffer(db))
                .arg(Arg::Buffer(ob))
                .arg(Arg::U32(n as u32))],
            buffers: vec![db, ob],
        }
    }

    fn verify(&self, scale: Scale, dev: &Device, plan: &Plan) -> Result<(), String> {
        let n = n_points(scale);
        let dirs = directions();
        let want: Vec<u32> = (0..DIMS * n)
            .map(|g| cpu_sobol(&dirs, g / n, (g % n) as u32))
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
    fn original_generates() {
        run_original(
            &QuasiRandomSequence,
            Scale::Small,
            &DeviceConfig::small_test(),
        )
        .unwrap();
    }

    #[test]
    fn rmt_generates() {
        for opts in [
            TransformOptions::intra_plus_lds().with_swizzle(),
            TransformOptions::inter(),
        ] {
            let r = run_rmt(
                &QuasiRandomSequence,
                Scale::Small,
                &DeviceConfig::small_test(),
                &opts,
            )
            .unwrap();
            assert_eq!(r.detections, 0);
        }
    }

    #[test]
    fn dimension_zero_is_van_der_corput() {
        let dirs = directions();
        // Van der Corput: value of index 1 is 0.5 (top bit).
        assert_eq!(cpu_sobol(&dirs, 0, 1), 1 << 31);
        // Gray-code-free direct XOR: index 3 = dir0 ^ dir1.
        assert_eq!(cpu_sobol(&dirs, 0, 3), (1 << 31) | (1 << 30));
    }
}
