//! Extension experiments.
//!
//! * `coverage` — validates Tables 2/3 *experimentally*: bit-flip campaigns
//!   against each structure under each RMT flavor, classifying outcomes as
//!   detected / silent data corruption / masked. The paper derives its SoR
//!   tables analytically; on the simulator we can actually inject.
//! * `staleness` — demonstrates the Section 7.2 hazard: a plain load can
//!   observe a stale, non-coherent L1 line where `atomic_add(·, 0)` sees
//!   the fresh value.

use crate::table::Table;
use crate::ExpConfig;
use gcn_sim::{Arg, Device, FaultPlan, FaultTarget, LaunchConfig};
use rmt_core::campaign::{self, Observed, Outcome};
use rmt_core::{transform, RmtError, RmtLauncher, TransformOptions};
use rmt_ir::{Kernel, KernelBuilder, Reg};
use rmt_kernels::util::Xorshift;

const N: usize = 64; // one original work-group

/// Probe kernel with a vector value, a scalar (uniform) value and an LDS
/// word all live across a long window; every structure can be targeted.
/// Returns (kernel, vector reg, scalar reg).
fn probe_kernel() -> (Kernel, Reg, Reg) {
    let mut b = KernelBuilder::new("probe");
    b.set_lds_bytes(64 * 4);
    let inp = b.buffer_param("in");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let lid = b.local_id(0);
    let grp = b.group_id(0);
    let four = b.const_u32(4);
    let zero = b.const_u32(0);

    // Vector value from memory; scalar value from the group id.
    let ia = b.elem_addr(inp, gid);
    let v = b.load_global(ia);
    let thousand = b.const_u32(1000);
    let s = b.mul_u32(grp, thousand); // uniform → SRF
                                      // Pad #1: `v` (and `s`) stay live in registers across this window.
    let mut pad = gid;
    let c = b.const_u32(31);
    for _ in 0..250 {
        pad = b.add_u32(pad, c);
    }
    // Stage through the LDS.
    let lo = b.mul_u32(lid, four);
    b.store_local(lo, v);
    b.barrier();
    // Pad #2: the data sits in the LDS across this window.
    for _ in 0..250 {
        pad = b.add_u32(pad, c);
    }
    let sink = b.and_u32(pad, zero);
    let w = b.load_local(lo);
    let t1 = b.add_u32(w, s);
    let t2 = b.or_u32(t1, sink);
    let oa = b.elem_addr(out, gid);
    b.store_global(oa, t2);
    (b.finish(), v, s)
}

/// Probe for L1 faults: each work-item reads its input word twice with a
/// long pad between — the second read hits the (possibly corrupted) L1
/// line. Whether redundant threads share that line decides detectability.
fn l1_probe_kernel() -> Kernel {
    let mut b = KernelBuilder::new("l1_probe");
    let inp = b.buffer_param("in");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let zero = b.const_u32(0);
    let ia = b.elem_addr(inp, gid);
    let v1 = b.load_global(ia); // fills the L1 line
    let mut pad = gid;
    let c = b.const_u32(13);
    for _ in 0..400 {
        pad = b.add_u32(pad, c);
    }
    let sink = b.and_u32(pad, zero);
    let v2 = b.load_global(ia); // re-read: may observe a corrupted copy
    let t = b.add_u32(v1, v2);
    let t2 = b.or_u32(t, sink);
    let oa = b.elem_addr(out, gid);
    b.store_global(oa, t2);
    b.finish()
}

/// Injects every target into `structure` at each trigger and returns the
/// outcomes in order. A hang is an error here: the probe never spins.
fn run_campaign(
    dev_cfg: &gcn_sim::DeviceConfig,
    opts: &TransformOptions,
    structure: &'static str,
    targets: &[FaultTarget],
    kernel: &Kernel,
) -> Result<Vec<Outcome>, String> {
    let rk = transform(kernel, opts).map_err(|e| e.to_string())?;
    // One device serves every run, reset before each; the kernel is
    // compiled once.
    let mut dev = Device::new(dev_cfg.clone());
    let compiled = dev
        .compile(&rk.kernel)
        .map_err(|e| RmtError::from(e).to_string())?;
    let mut run_once = |plan: FaultPlan| -> Result<Observed, String> {
        dev.reset(dev_cfg);
        let ib = dev.create_buffer((N * 4) as u32);
        let ob = dev.create_buffer((N * 4) as u32);
        dev.write_u32s(ib, &(0..N as u32).map(|i| i * 3 + 7).collect::<Vec<_>>());
        let cfg = LaunchConfig::new_1d(N, N)
            .arg(Arg::Buffer(ib))
            .arg(Arg::Buffer(ob))
            .faults(plan);
        let r = RmtLauncher::new()
            .launch_compiled(&mut dev, &rk, &compiled, &cfg)
            .map_err(|e| e.to_string())?;
        Ok(Observed {
            detections: r.detections,
            faults_applied: r.stats.faults_applied,
            dyn_insts: r.stats.counters.dyn_insts,
            bufs: vec![dev.read_buffer(ob)],
        })
    };
    let golden = run_once(FaultPlan::none())?;
    if golden.detections != 0 {
        return Err("fault-free run reported detections".into());
    }
    // Triggers sample both pad windows (registers live, then LDS live).
    let attempts = targets.iter().flat_map(|&target| {
        [120u64, 220, 320, 520, 640, 760].map(|trigger| (structure, target, trigger))
    });
    let mut due = None;
    let outcomes = campaign::run(attempts, &golden.bufs, |plan| {
        run_once(plan).map_err(|e| due = Some(e))
    })
    .map(|entry| entry.outcome)
    .take_while(|&o| o != Outcome::Due)
    .collect();
    due.map_or(Ok(outcomes), Err)
}

/// The `coverage` experiment: fault-injection validation of Tables 2/3.
pub fn coverage(cfg: &ExpConfig) -> Result<String, String> {
    let (_, vreg, sreg) = probe_kernel();
    let mut rng = Xorshift::new(0xC04E_ACE5);
    let mut vrf_targets = Vec::new();
    let mut srf_targets = Vec::new();
    let mut lds_targets = Vec::new();
    let mut mem_targets = Vec::new();
    for _ in 0..8 {
        vrf_targets.push(FaultTarget::Vgpr {
            group: 0,
            wave: 0,
            reg: vreg.0,
            lane: rng.below(64) as usize,
            bit: rng.below(32) as u8,
        });
        srf_targets.push(FaultTarget::Sgpr {
            group: 0,
            wave: 0,
            reg: sreg.0,
            bit: rng.below(32) as u8,
        });
        lds_targets.push(FaultTarget::Lds {
            group: 0,
            offset: rng.below(64) * 4,
            bit: rng.below(8) as u8,
        });
    }
    // Global memory: corrupt input words (outside every software SoR; the
    // paper assumes DRAM ECC covers this).
    for _ in 0..4 {
        mem_targets.push(FaultTarget::GlobalMem {
            addr: 0x1000 + rng.below(N as u32) * 4,
            bit: rng.below(8) as u8,
        });
    }

    // The three SoR designs of Tables 2/3 (FAST shares Intra+LDS's).
    let full_stage = TransformOptions::full_stage();
    let flavors = &full_stage[..3];
    // L1 data-array faults: corrupt the cached copy of an input line in a
    // specific CU's L1 between the first and second read.
    let mut l1_targets = Vec::new();
    for _ in 0..8 {
        l1_targets.push(FaultTarget::L1Data {
            cu: rng.below(cfg.device.num_cus as u32) as usize,
            // First allocation of a fresh device starts at 0x1000: the
            // probe's input buffer.
            addr: 0x1000 + rng.below(N as u32) * 4,
            bit: rng.below(8) as u8,
        });
    }

    let (probe, _, _) = probe_kernel();
    let l1_probe = l1_probe_kernel();
    let structures: [(&str, &[FaultTarget], &Kernel); 5] = [
        ("VRF (one lane)", &vrf_targets, &probe),
        ("SRF (broadcast)", &srf_targets, &probe),
        ("LDS", &lds_targets, &probe),
        ("R/W L1 (cached line)", &l1_targets, &l1_probe),
        ("Global memory", &mem_targets, &probe),
    ];

    let mut t = Table::new(&[
        "structure",
        "flavor",
        "detected",
        "SDC",
        "masked",
        "applied",
    ]);
    // 15 independent (structure, flavor) campaigns, fanned across the
    // pool and merged in submission order.
    let cells: Vec<(&str, &str, &[FaultTarget], TransformOptions, &Kernel)> = structures
        .iter()
        .flat_map(|&(sname, targets, kernel)| {
            flavors
                .iter()
                .map(move |&(fname, opts)| (sname, fname, targets, opts, kernel))
        })
        .collect();
    let cells: Vec<_> = cells.into_iter().enumerate().collect();
    let cells_out = gcn_sim::pool::map(
        cfg.jobs,
        cells,
        |(i, (sname, fname, targets, opts, kernel))| {
            crate::obs::cell_obs(
                "coverage",
                sname,
                fname,
                i,
                |_: &_| (0, 0),
                || {
                    run_campaign(&cfg.device, &opts, sname, targets, kernel)
                        .map(|outcomes| (sname, fname, outcomes))
                },
            )
        },
    );
    for cell in cells_out {
        let (sname, fname, outcomes) = cell?;
        let count = |o: Outcome| outcomes.iter().filter(|&&x| x == o).count();
        t.row(vec![
            sname.into(),
            fname.into(),
            count(Outcome::Detected).to_string(),
            count(Outcome::Sdc).to_string(),
            count(Outcome::Masked).to_string(),
            (outcomes.len() - count(Outcome::Missed)).to_string(),
        ]);
    }
    Ok(format!(
        "Coverage: fault-injection validation of the spheres of replication\n\
         (Tables 2/3 predict: VRF detected by all flavors; SRF and shared-LDS\n\
         faults escape Intra flavors as SDCs but are caught by Inter; L1\n\
         faults can be shared by redundant threads — the reason the paper\n\
         conservatively excludes the L1 from every SoR; global-memory faults\n\
         escape every software SoR — the paper assumes off-chip ECC)\n\n{}",
        t.render()
    ))
}

/// The `staleness` experiment: why inter-group flag reads must be atomics.
pub fn staleness(cfg: &ExpConfig) -> Result<String, String> {
    use rmt_ir::{AtomicOp, MemSpace};
    let mut b = KernelBuilder::new("stale_demo");
    let flag = b.buffer_param("flag");
    let out_plain = b.buffer_param("plain");
    let out_atomic = b.buffer_param("atomic");
    let grp = b.group_id(0);
    let zero = b.const_u32(0);
    let one = b.const_u32(1);
    let is_producer = b.eq_u32(grp, zero);
    b.if_else(
        is_producer,
        |b| {
            let i = b.fresh();
            b.mov_to(i, zero);
            let n = b.const_u32(200);
            let one_i = b.const_u32(1);
            b.while_(
                |b| b.lt_u32(i, n),
                |b| {
                    let i2 = b.add_u32(i, one_i);
                    b.mov_to(i, i2);
                },
            );
            b.store_global(flag, one);
        },
        |b| {
            let warm = b.load_global(flag); // caches the line (value 0)
            let i = b.fresh();
            b.mov_to(i, warm);
            let n = b.const_u32(4000);
            let one_i = b.const_u32(1);
            b.while_(
                |b| b.lt_u32(i, n),
                |b| {
                    let i2 = b.add_u32(i, one_i);
                    b.mov_to(i, i2);
                },
            );
            let plain = b.load_global(flag);
            let atomic = b.atomic(MemSpace::Global, AtomicOp::Add, flag, zero);
            b.store_global(out_plain, plain);
            b.store_global(out_atomic, atomic);
        },
    );
    let k = b.finish();

    let mut dev = Device::new(cfg.device.clone());
    let fb = dev.create_buffer(4);
    let pb = dev.create_buffer(4);
    let ab = dev.create_buffer(4);
    dev.launch(
        &k,
        &LaunchConfig::new_1d(128, 64)
            .arg(Arg::Buffer(fb))
            .arg(Arg::Buffer(pb))
            .arg(Arg::Buffer(ab)),
    )
    .map_err(|e| e.to_string())?;
    let plain = dev.read_u32s(pb)[0];
    let atomic = dev.read_u32s(ab)[0];
    Ok(format!(
        "Staleness: the Section 7.2 hazard on write-through, non-coherent L1s\n\n\
         producer (work-group 0 on CU0) stores flag = 1\n\
         consumer (work-group 1 on CU1), after warming its L1 with flag = 0:\n\
           plain load        observed {plain}   (stale L1 line{})\n\
           atomic_add(·, 0)  observed {atomic}   (forced to the coherent L2)\n\n\
         This is why every flag poll in the Inter-Group communication protocol\n\
         is an atomic_add with constant 0.\n",
        if plain == 0 {
            ", as the paper warns"
        } else {
            ""
        }
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staleness_demonstrates_divergence() {
        let out = staleness(&ExpConfig::small()).unwrap();
        assert!(out.contains("plain load        observed 0"), "{out}");
        assert!(out.contains("atomic_add(·, 0)  observed 1"), "{out}");
    }

    #[test]
    fn coverage_matches_sor_tables() {
        let out = coverage(&ExpConfig::small()).unwrap();
        assert!(out.contains("VRF"));
        assert!(out.contains("Inter"));
    }
}
