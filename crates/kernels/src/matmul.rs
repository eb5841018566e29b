//! MatrixMultiplication (MM) — classic LDS-tiled GEMM with 8×8 tiles.
//! Compute- and LDS-bound; under Intra-Group+LDS the doubled tile
//! allocations make LDS the occupancy limiter, the effect behind MM's
//! large "doubling" overhead bar in Figure 4.
//!
//! Buffers: `[0]` A, `[1]` B, `[2]` C (all n×n row-major f32).

use crate::util::{check_f32s, Xorshift};
use crate::{Benchmark, Plan, Scale};
use gcn_sim::{Arg, Device, LaunchConfig};
use rmt_ir::{Kernel, KernelBuilder, Ty};

/// See module docs.
pub struct MatrixMultiplication;

const TILE: usize = 8;

fn n_dim(scale: Scale) -> usize {
    match scale {
        Scale::Small => 32,
        Scale::Paper => 128,
        Scale::Large => 256,
    }
}

fn make_inputs(scale: Scale) -> (Vec<f32>, Vec<f32>) {
    let n = n_dim(scale);
    let mut rng = Xorshift::new(0x3A7_121F);
    let a = (0..n * n).map(|_| rng.range_f32(-1.0, 1.0)).collect();
    let b = (0..n * n).map(|_| rng.range_f32(-1.0, 1.0)).collect();
    (a, b)
}

fn cpu_matmul(a: &[f32], b: &[f32], n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..n {
            // Accumulate in the same order as the kernel (t outer, k inner).
            let mut acc = 0.0f32;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

impl Benchmark for MatrixMultiplication {
    fn name(&self) -> &'static str {
        "MatrixMultiplication"
    }

    fn abbrev(&self) -> &'static str {
        "MM"
    }

    fn kernel(&self) -> Kernel {
        let mut b = KernelBuilder::new("matmul_tiled");
        // Two 8×8 f32 tiles in LDS.
        b.set_lds_bytes((2 * TILE * TILE * 4) as u32);
        let a_buf = b.buffer_param("a");
        let b_buf = b.buffer_param("b");
        let c_buf = b.buffer_param("c");
        let n = b.scalar_param("n", Ty::U32);

        let gx = b.global_id(0);
        let gy = b.global_id(1);
        let lx = b.local_id(0);
        let ly = b.local_id(1);
        let zero = b.const_u32(0);
        let one = b.const_u32(1);
        let four = b.const_u32(4);
        let tile_c = b.const_u32(TILE as u32);
        let ntiles = b.div_u32(n, tile_c);
        let b_tile_base = b.const_u32((TILE * TILE * 4) as u32);

        let fzero = b.const_f32(0.0);
        let acc = b.fresh();
        b.mov_to(acc, fzero);

        // lds word index of (row, col) within a tile: row*8 + col.
        let lrow = b.mul_u32(ly, tile_c);
        let lidx = b.add_u32(lrow, lx);
        let loff = b.mul_u32(lidx, four);
        let boff0 = b.add_u32(b_tile_base, loff);

        let t = b.fresh();
        b.mov_to(t, zero);
        b.while_(
            |b| b.lt_u32(t, ntiles),
            |b| {
                let tbase = b.mul_u32(t, tile_c);
                // A[gy][t*8 + lx]
                let acol = b.add_u32(tbase, lx);
                let arow = b.mul_u32(gy, n);
                let aidx = b.add_u32(arow, acol);
                let aa = b.elem_addr(a_buf, aidx);
                let av = b.load_global(aa);
                b.store_local(loff, av);
                // B[t*8 + ly][gx]
                let brow = b.add_u32(tbase, ly);
                let brow_b = b.mul_u32(brow, n);
                let bidx = b.add_u32(brow_b, gx);
                let ba = b.elem_addr(b_buf, bidx);
                let bv = b.load_global(ba);
                b.store_local(boff0, bv);
                b.barrier();

                // acc += sum_k Atile[ly][k] * Btile[k][lx]
                for k in 0..TILE as u32 {
                    let kc = b.const_u32(k);
                    let arow_l = b.mul_u32(ly, tile_c);
                    let ai = b.add_u32(arow_l, kc);
                    let ao = b.mul_u32(ai, four);
                    let a_el = b.load_local(ao);
                    let brow_l = b.mul_u32(kc, tile_c);
                    let bi = b.add_u32(brow_l, lx);
                    let bo4 = b.mul_u32(bi, four);
                    let bo = b.add_u32(b_tile_base, bo4);
                    let b_el = b.load_local(bo);
                    let prod = b.mul_f32(a_el, b_el);
                    let new = b.add_f32(acc, prod);
                    b.mov_to(acc, new);
                }
                b.barrier();
                let tn = b.add_u32(t, one);
                b.mov_to(t, tn);
            },
        );

        let crow = b.mul_u32(gy, n);
        let cidx = b.add_u32(crow, gx);
        let ca = b.elem_addr(c_buf, cidx);
        b.store_global(ca, acc);
        b.finish()
    }

    fn plan(&self, scale: Scale, dev: &mut Device) -> Plan {
        let n = n_dim(scale);
        let (a, bm) = make_inputs(scale);
        let ab = dev.create_buffer((n * n * 4) as u32);
        let bb = dev.create_buffer((n * n * 4) as u32);
        let cb = dev.create_buffer((n * n * 4) as u32);
        dev.write_f32s(ab, &a);
        dev.write_f32s(bb, &bm);
        Plan {
            passes: vec![LaunchConfig::new([n, n, 1], [TILE, TILE, 1])
                .arg(Arg::Buffer(ab))
                .arg(Arg::Buffer(bb))
                .arg(Arg::Buffer(cb))
                .arg(Arg::U32(n as u32))],
            buffers: vec![ab, bb, cb],
        }
    }

    fn verify(&self, scale: Scale, dev: &Device, plan: &Plan) -> Result<(), String> {
        let n = n_dim(scale);
        let (a, bm) = make_inputs(scale);
        let want = cpu_matmul(&a, &bm, n);
        check_f32s(&dev.read_f32s(plan.buffers[2]), &want, 1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_original, run_rmt};
    use gcn_sim::DeviceConfig;
    use rmt_core::TransformOptions;

    #[test]
    fn original_multiplies() {
        run_original(
            &MatrixMultiplication,
            Scale::Small,
            &DeviceConfig::small_test(),
        )
        .unwrap();
    }

    #[test]
    fn rmt_multiplies() {
        for opts in [
            TransformOptions::intra_plus_lds(),
            TransformOptions::intra_minus_lds(),
            TransformOptions::inter(),
        ] {
            let r = run_rmt(
                &MatrixMultiplication,
                Scale::Small,
                &DeviceConfig::small_test(),
                &opts,
            )
            .unwrap();
            assert_eq!(r.detections, 0, "{opts:?}");
        }
    }

    #[test]
    fn cpu_identity_matmul() {
        let n = 4;
        let mut eye = vec![0.0f32; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let a: Vec<f32> = (0..n * n).map(|i| i as f32).collect();
        assert_eq!(cpu_matmul(&a, &eye, n), a);
    }
}
