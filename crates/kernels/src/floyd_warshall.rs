//! FloydWarshall (FW) — all-pairs shortest paths, one kernel launch per
//! pivot `k`. Global-memory-bound with a long-running multi-pass profile
//! (one of the paper's power-measurement workloads, Figure 5).
//!
//! Buffers: `[0]` the n×n distance matrix (u32, in place).

use crate::util::{check_u32s, Xorshift};
use crate::{Benchmark, Plan, Scale};
use gcn_sim::{Arg, Device, LaunchConfig};
use rmt_ir::{Kernel, KernelBuilder, Ty};

/// See module docs.
pub struct FloydWarshall;

const INF: u32 = 1 << 24;

fn n_nodes(scale: Scale) -> usize {
    match scale {
        Scale::Small => 32,
        Scale::Paper => 128,
        Scale::Large => 192,
    }
}

fn make_input(scale: Scale) -> Vec<u32> {
    let n = n_nodes(scale);
    let mut rng = Xorshift::new(0xF10D_3A11);
    let mut d = vec![INF; n * n];
    for i in 0..n {
        d[i * n + i] = 0;
        // Sparse random edges.
        for _ in 0..4 {
            let j = rng.below(n as u32) as usize;
            if j != i {
                d[i * n + j] = 1 + rng.below(100);
            }
        }
    }
    d
}

fn cpu_fw(d: &mut [u32], n: usize) {
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i * n + k].saturating_add(d[k * n + j]);
                if via < d[i * n + j] {
                    d[i * n + j] = via;
                }
            }
        }
    }
}

impl Benchmark for FloydWarshall {
    fn name(&self) -> &'static str {
        "FloydWarshall"
    }

    fn abbrev(&self) -> &'static str {
        "FW"
    }

    fn kernel(&self) -> Kernel {
        let mut b = KernelBuilder::new("fw_pass");
        let dist = b.buffer_param("dist");
        let n = b.scalar_param("n", Ty::U32);
        let k = b.scalar_param("k", Ty::U32);
        let i = b.global_id(1);
        let j = b.global_id(0);
        let row = b.mul_u32(i, n);
        let ij = b.add_u32(row, j);
        let ik = b.add_u32(row, k);
        let krow = b.mul_u32(k, n);
        let kj = b.add_u32(krow, j);
        let a_ij = b.elem_addr(dist, ij);
        let a_ik = b.elem_addr(dist, ik);
        let a_kj = b.elem_addr(dist, kj);
        let d_ij = b.load_global(a_ij);
        let d_ik = b.load_global(a_ik);
        let d_kj = b.load_global(a_kj);
        let via = b.add_u32(d_ik, d_kj);
        let better = b.lt_u32(via, d_ij);
        b.if_(better, |b| {
            b.store_global(a_ij, via);
        });
        b.finish()
    }

    fn plan(&self, scale: Scale, dev: &mut Device) -> Plan {
        let n = n_nodes(scale);
        let input = make_input(scale);
        let buf = dev.create_buffer((n * n * 4) as u32);
        dev.write_u32s(buf, &input);
        let passes = (0..n as u32)
            .map(|k| {
                LaunchConfig::new([n, n, 1], [16, 4, 1])
                    .arg(Arg::Buffer(buf))
                    .arg(Arg::U32(n as u32))
                    .arg(Arg::U32(k))
            })
            .collect();
        Plan {
            passes,
            buffers: vec![buf],
        }
    }

    fn verify(&self, scale: Scale, dev: &Device, plan: &Plan) -> Result<(), String> {
        let n = n_nodes(scale);
        let mut want = make_input(scale);
        cpu_fw(&mut want, n);
        check_u32s(&dev.read_u32s(plan.buffers[0]), &want)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_original, run_rmt};
    use gcn_sim::DeviceConfig;
    use rmt_core::TransformOptions;

    #[test]
    fn original_shortest_paths() {
        run_original(&FloydWarshall, Scale::Small, &DeviceConfig::small_test()).unwrap();
    }

    #[test]
    fn rmt_shortest_paths() {
        for opts in [
            TransformOptions::intra_plus_lds(),
            TransformOptions::inter(),
        ] {
            let r = run_rmt(
                &FloydWarshall,
                Scale::Small,
                &DeviceConfig::small_test(),
                &opts,
            )
            .unwrap();
            assert_eq!(r.detections, 0);
        }
    }
}
