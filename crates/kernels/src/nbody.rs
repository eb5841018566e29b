//! NBody (NB) — all-pairs gravitational interaction. Strongly ALU-bound
//! (rsqrt chains) and deliberately small: with 512 bodies and 64-wide
//! groups only 8 work-groups launch, under-utilizing the 12-CU device —
//! which is why NB is one of the paper's cheapest Inter-Group kernels
//! (1.16×, Section 7.4).
//!
//! Buffers: `[0]` positions (x‖y‖z planes, 3n f32), `[1]` velocities
//! (same layout), `[2]` new positions, `[3]` new velocities.

use crate::util::{check_f32s, Xorshift};
use crate::{Benchmark, Plan, Scale};
use gcn_sim::{Arg, Device, LaunchConfig};
use rmt_ir::{Kernel, KernelBuilder, Ty};

/// See module docs.
pub struct NBody;

const DT: f32 = 0.005;
const EPS2: f32 = 50.0;

fn n_bodies(scale: Scale) -> usize {
    match scale {
        Scale::Small => 128,
        Scale::Paper => 1024,
        Scale::Large => 2048,
    }
}

fn make_inputs(scale: Scale) -> (Vec<f32>, Vec<f32>) {
    let n = n_bodies(scale);
    let mut rng = Xorshift::new(0x2B0D_1E50);
    let pos: Vec<f32> = (0..3 * n).map(|_| rng.range_f32(-100.0, 100.0)).collect();
    let vel: Vec<f32> = (0..3 * n).map(|_| rng.range_f32(-1.0, 1.0)).collect();
    (pos, vel)
}

/// CPU step mirroring the kernel's operation order exactly.
fn cpu_step(pos: &[f32], vel: &[f32], n: usize) -> (Vec<f32>, Vec<f32>) {
    let mut npos = vec![0.0f32; 3 * n];
    let mut nvel = vec![0.0f32; 3 * n];
    for i in 0..n {
        let (xi, yi, zi) = (pos[i], pos[n + i], pos[2 * n + i]);
        let (mut ax, mut ay, mut az) = (0.0f32, 0.0f32, 0.0f32);
        for j in 0..n {
            let dx = pos[j] - xi;
            let dy = pos[n + j] - yi;
            let dz = pos[2 * n + j] - zi;
            let r2 = dx * dx + dy * dy + dz * dz + EPS2;
            let inv = 1.0 / r2.sqrt();
            let inv3 = inv * inv * inv;
            ax += dx * inv3;
            ay += dy * inv3;
            az += dz * inv3;
        }
        let vx = vel[i] + ax * DT;
        let vy = vel[n + i] + ay * DT;
        let vz = vel[2 * n + i] + az * DT;
        nvel[i] = vx;
        nvel[n + i] = vy;
        nvel[2 * n + i] = vz;
        npos[i] = xi + vx * DT;
        npos[n + i] = yi + vy * DT;
        npos[2 * n + i] = zi + vz * DT;
    }
    (npos, nvel)
}

impl Benchmark for NBody {
    fn name(&self) -> &'static str {
        "NBody"
    }

    fn abbrev(&self) -> &'static str {
        "NB"
    }

    fn kernel(&self) -> Kernel {
        let mut b = KernelBuilder::new("nbody_step");
        let pos = b.buffer_param("pos");
        let vel = b.buffer_param("vel");
        let npos = b.buffer_param("npos");
        let nvel = b.buffer_param("nvel");
        let n = b.scalar_param("n", Ty::U32);
        let i = b.global_id(0);
        let zero = b.const_u32(0);
        let _one = b.const_u32(1);
        let two_n = b.add_u32(n, n);

        let iy = b.add_u32(n, i);
        let iz = b.add_u32(two_n, i);
        let load_at = |b: &mut KernelBuilder, buf, idx| {
            let a = b.elem_addr(buf, idx);
            b.load_global(a)
        };
        let xi = load_at(&mut b, pos, i);
        let yi = load_at(&mut b, pos, iy);
        let zi = load_at(&mut b, pos, iz);

        let fzero = b.const_f32(0.0);
        let ax = b.fresh();
        let ay = b.fresh();
        let az = b.fresh();
        b.mov_to(ax, fzero);
        b.mov_to(ay, fzero);
        b.mov_to(az, fzero);
        let eps2 = b.const_f32(EPS2);

        // The inner loop is unrolled 4× (the SDK kernel is float4-
        // vectorized and unrolled the same way): VALU throughput, not loop
        // latency, is the bottleneck, matching the paper's NBody profile.
        let j = b.fresh();
        b.mov_to(j, zero);
        let four_u = b.const_u32(4);
        b.while_(
            |b| b.lt_u32(j, n),
            |b| {
                for u in 0..4u32 {
                    let uc = b.const_u32(u);
                    let ju = b.add_u32(j, uc);
                    let jy = b.add_u32(n, ju);
                    let jz = b.add_u32(two_n, ju);
                    let xj = load_at(b, pos, ju);
                    let yj = load_at(b, pos, jy);
                    let zj = load_at(b, pos, jz);
                    let dx = b.sub_f32(xj, xi);
                    let dy = b.sub_f32(yj, yi);
                    let dz = b.sub_f32(zj, zi);
                    let dx2 = b.mul_f32(dx, dx);
                    let dy2 = b.mul_f32(dy, dy);
                    let dz2 = b.mul_f32(dz, dz);
                    let s1 = b.add_f32(dx2, dy2);
                    let s2 = b.add_f32(s1, dz2);
                    let r2 = b.add_f32(s2, eps2);
                    let inv = b.rsqrt_f32(r2);
                    let inv2 = b.mul_f32(inv, inv);
                    let inv3 = b.mul_f32(inv2, inv);
                    let tx = b.mul_f32(dx, inv3);
                    let ty = b.mul_f32(dy, inv3);
                    let tz = b.mul_f32(dz, inv3);
                    let nx = b.add_f32(ax, tx);
                    let ny = b.add_f32(ay, ty);
                    let nz = b.add_f32(az, tz);
                    b.mov_to(ax, nx);
                    b.mov_to(ay, ny);
                    b.mov_to(az, nz);
                }
                let jn = b.add_u32(j, four_u);
                b.mov_to(j, jn);
            },
        );

        let dt = b.const_f32(DT);
        let store_at = |b: &mut KernelBuilder, buf, idx, v| {
            let a = b.elem_addr(buf, idx);
            b.store_global(a, v);
        };
        let vx0 = load_at(&mut b, vel, i);
        let vy0 = load_at(&mut b, vel, iy);
        let vz0 = load_at(&mut b, vel, iz);
        let dvx = b.mul_f32(ax, dt);
        let dvy = b.mul_f32(ay, dt);
        let dvz = b.mul_f32(az, dt);
        let vx = b.add_f32(vx0, dvx);
        let vy = b.add_f32(vy0, dvy);
        let vz = b.add_f32(vz0, dvz);
        store_at(&mut b, nvel, i, vx);
        store_at(&mut b, nvel, iy, vy);
        store_at(&mut b, nvel, iz, vz);
        let dpx = b.mul_f32(vx, dt);
        let dpy = b.mul_f32(vy, dt);
        let dpz = b.mul_f32(vz, dt);
        let px = b.add_f32(xi, dpx);
        let py = b.add_f32(yi, dpy);
        let pz = b.add_f32(zi, dpz);
        store_at(&mut b, npos, i, px);
        store_at(&mut b, npos, iy, py);
        store_at(&mut b, npos, iz, pz);
        b.finish()
    }

    fn plan(&self, scale: Scale, dev: &mut Device) -> Plan {
        let n = n_bodies(scale);
        let (pos, vel) = make_inputs(scale);
        let pb = dev.create_buffer((3 * n * 4) as u32);
        let vb = dev.create_buffer((3 * n * 4) as u32);
        let npb = dev.create_buffer((3 * n * 4) as u32);
        let nvb = dev.create_buffer((3 * n * 4) as u32);
        dev.write_f32s(pb, &pos);
        dev.write_f32s(vb, &vel);
        Plan {
            passes: vec![LaunchConfig::new_1d(n, 64)
                .arg(Arg::Buffer(pb))
                .arg(Arg::Buffer(vb))
                .arg(Arg::Buffer(npb))
                .arg(Arg::Buffer(nvb))
                .arg(Arg::U32(n as u32))],
            buffers: vec![pb, vb, npb, nvb],
        }
    }

    fn verify(&self, scale: Scale, dev: &Device, plan: &Plan) -> Result<(), String> {
        let n = n_bodies(scale);
        let (pos, vel) = make_inputs(scale);
        let (want_pos, want_vel) = cpu_step(&pos, &vel, n);
        check_f32s(&dev.read_f32s(plan.buffers[2]), &want_pos, 1e-3)?;
        check_f32s(&dev.read_f32s(plan.buffers[3]), &want_vel, 1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_original, run_rmt};
    use gcn_sim::DeviceConfig;
    use rmt_core::TransformOptions;

    #[test]
    fn original_steps() {
        run_original(&NBody, Scale::Small, &DeviceConfig::small_test()).unwrap();
    }

    #[test]
    fn rmt_steps() {
        for opts in [
            TransformOptions::intra_plus_lds(),
            TransformOptions::inter(),
        ] {
            let r = run_rmt(&NBody, Scale::Small, &DeviceConfig::small_test(), &opts).unwrap();
            assert_eq!(r.detections, 0);
        }
    }

    #[test]
    fn momentum_roughly_conserved() {
        // Pairwise symmetric forces: total velocity change ≈ 0.
        let n = 32;
        let (pos, vel) = make_inputs(Scale::Small);
        let (_, nvel) = cpu_step(&pos[..3 * n], &vel[..3 * n], n);
        let before: f32 = vel[..n].iter().sum();
        let after: f32 = nvel[..n].iter().sum();
        assert!((before - after).abs() < 1e-2, "{before} vs {after}");
    }
}
