//! Register allocation in `compile`: each wave holds `slots` registers, not
//! one per virtual register, and what it computes must not change.
//!
//! The allocator's pressure must equal the IR analysis that occupancy was
//! always computed from; a slot shared over time must never show its
//! previous register's value where a fresh virtual register reads zero;
//! and a fault on a register that is dead at the trigger must land without
//! effect, as it did on the virtual file.

use gcn_sim::{
    Arg, Device, DeviceConfig, FaultPlan, FaultTarget, Injection, LaunchConfig, SimEngine,
};
use rmt_core::{transform, TransformOptions};
use rmt_ir::analysis::register_pressure;
use rmt_ir::fuzz::{child_seed, generate, GenConfig};
use rmt_ir::{Inst, Kernel, KernelBuilder, Reg, SwizzleMode, Ty};

/// The seven postures `compile-suite` transforms the suite under.
fn postures() -> Vec<TransformOptions> {
    let mut p: Vec<TransformOptions> = TransformOptions::full_stage()
        .into_iter()
        .map(|(_, o)| o)
        .collect();
    p.extend([0, 50, 100].map(TransformOptions::selective));
    p
}

#[test]
fn compiled_pressure_equals_the_ir_analysis() {
    let dev = Device::new(DeviceConfig::small_test());
    let mut kernels: Vec<Kernel> = Vec::new();
    for bench in rmt_kernels::all() {
        let k = bench.kernel();
        for opts in postures() {
            kernels.push(
                transform(&k, &opts)
                    .expect("suite kernels transform")
                    .kernel,
            );
        }
        kernels.push(k);
    }
    // The benchmark pool's root seed.
    kernels.extend((0..200).map(|i| generate(child_seed(2014, i), &GenConfig::default()).kernel));
    assert_eq!(kernels.len(), 16 * 8 + 200);
    for k in &kernels {
        let ck = dev.compile(k).expect("compiles");
        assert_eq!(ck.pressure, register_pressure(k), "{}", k.name);
        assert!(ck.slots >= ck.pressure, "{}", k.name);
        assert!(ck.slots <= ck.nregs, "{}", k.name);
    }
}

#[test]
fn slots_equal_pressure_on_the_paper_scale_cells() {
    let dev = Device::new(DeviceConfig::radeon_hd_7790());
    let flavors = [
        None,
        Some(TransformOptions::intra_plus_lds()),
        Some(TransformOptions::inter()),
        Some(TransformOptions::selective(50)),
    ];
    for abbrev in ["MM", "BlkSch", "DCT", "DWT", "SF", "URNG"] {
        let k = rmt_kernels::by_abbrev(abbrev)
            .expect("suite kernel")
            .kernel();
        for opts in &flavors {
            let k = match opts {
                Some(o) => transform(&k, o).expect("transforms").kernel,
                None => k.clone(),
            };
            let ck = dev.compile(&k).expect("compiles");
            assert_eq!(ck.slots, ck.pressure, "{abbrev} {opts:?}");
            assert!(ck.slots < ck.nregs, "{abbrev} {opts:?}");
        }
    }
}

const N: usize = 128;
const SENTINEL: u32 = 0xFFFF_FFFF;

/// Runs `k(scratch, out)` over `N` items in groups of 64 on both engines
/// and returns each engine's `out`, which starts at [`SENTINEL`].
fn outputs(k: &Kernel) -> Vec<Vec<u32>> {
    [SimEngine::Event, SimEngine::LockStep]
        .into_iter()
        .map(|engine| {
            let mut cfg = DeviceConfig::small_test();
            cfg.engine = engine;
            let mut dev = Device::new(cfg);
            let scratch = dev.create_buffer(N as u32 * 4);
            let out = dev.create_buffer(N as u32 * 4);
            dev.write_u32s(out, &[SENTINEL; N]);
            let launch = LaunchConfig::new_1d(N, 64)
                .arg(Arg::Buffer(scratch))
                .arg(Arg::Buffer(out));
            dev.launch(k, &launch).unwrap();
            dev.read_u32s(out)
        })
        .collect()
}

/// A kernel `(scratch, out)` under construction whose first values are
/// nonzero and dead once stored to `scratch`, so their slots are free and
/// dirty for whatever the test allocates next.
struct AfterDeadValues {
    b: KernelBuilder,
    scratch: Reg,
    out: Reg,
    gid: Reg,
    /// `gid % 2`, kept alive to the end by [`AfterDeadValues::finish`]:
    /// its own slot, zero in the even lanes, would be the next one taken.
    odd: Reg,
}

impl AfterDeadValues {
    fn new(name: &str) -> Self {
        let mut b = KernelBuilder::new(name);
        let scratch = b.buffer_param("scratch");
        let out = b.buffer_param("out");
        let gid = b.global_id(0);
        let two = b.const_u32(2);
        let odd = b.rem_u32(gid, two);
        let junk = b.const_u32(0xDEAD_BEEF);
        let sum = b.add_u32(junk, gid);
        let sa = b.elem_addr(scratch, gid);
        b.store_global(sa, sum);
        AfterDeadValues {
            b,
            scratch,
            out,
            gid,
            odd,
        }
    }

    fn finish(mut self) -> Kernel {
        let sa = self.b.elem_addr(self.scratch, self.gid);
        self.b.store_global(sa, self.odd);
        self.b.finish()
    }
}

#[test]
fn a_partially_written_register_reads_zero_not_a_dead_registers_value() {
    let mut k = AfterDeadValues::new("partial_after_dead");
    let (out, gid) = (k.out, k.gid);
    let x = k.b.fresh();
    k.b.if_(k.odd, |b| {
        b.emit(Inst::Const {
            dst: x,
            ty: Ty::U32,
            bits: 7,
        })
    });
    let oa = k.b.elem_addr(out, gid);
    k.b.store_global(oa, x);
    // With a virtual file, the even lanes never wrote `x` and read 0.
    for got in outputs(&k.finish()) {
        for (g, &v) in got.iter().enumerate() {
            assert_eq!(v, if g % 2 == 1 { 7 } else { 0 }, "item {g}");
        }
    }
}

#[test]
fn a_swizzle_reads_zero_from_lanes_its_source_never_wrote() {
    let mut k = AfterDeadValues::new("swizzle_after_dead");
    let (out, gid) = (k.out, k.gid);
    k.b.if_(k.odd, |b| {
        // Only odd lanes write `x`; each reads its even neighbour's lane,
        // which no write reached.
        let x = b.const_u32(7);
        let y = b.swizzle(x, SwizzleMode::SwapPairs);
        let oa = b.elem_addr(out, gid);
        b.store_global(oa, y);
    });
    for got in outputs(&k.finish()) {
        for (g, &v) in got.iter().enumerate() {
            assert_eq!(v, if g % 2 == 1 { 0 } else { SENTINEL }, "item {g}");
        }
    }
}

#[test]
fn a_flip_of_a_dead_register_lands_and_changes_nothing() {
    // One wave, straight-line, so the trigger is the PC: `a` is written at
    // op 3, stored at op 7 and dead after it.
    let mut b = KernelBuilder::new("dead_flip");
    let scratch = b.buffer_param("scratch"); // op 0
    let out = b.buffer_param("out"); // op 1
    let gid = b.global_id(0); // op 2
    let a = b.const_u32(5); // op 3
    let sa = b.elem_addr(scratch, gid); // ops 4-6
    b.store_global(sa, a); // op 7
    let c = b.const_u32(6);
    let d = b.add_u32(c, gid);
    let oa = b.elem_addr(out, gid);
    b.store_global(oa, d);
    let k = b.finish();

    let run = |after_dyn_inst: u64| {
        let mut dev = Device::new(DeviceConfig::small_test());
        let scratch = dev.create_buffer(64 * 4);
        let out = dev.create_buffer(64 * 4);
        let plan = FaultPlan {
            injections: vec![Injection {
                after_dyn_inst,
                target: FaultTarget::Vgpr {
                    group: 0,
                    wave: 0,
                    reg: a.0,
                    lane: 3,
                    bit: 4,
                },
            }],
        };
        let launch = LaunchConfig::new_1d(64, 64)
            .arg(Arg::Buffer(scratch))
            .arg(Arg::Buffer(out))
            .faults(plan);
        let stats = dev.launch(&k, &launch).unwrap();
        let mut got = dev.read_u32s(scratch);
        got.extend(dev.read_u32s(out));
        (stats.faults_applied, got)
    };
    let golden = run(u64::MAX).1;
    // Live: flipped after `a` is written and before it is stored.
    let (applied, got) = run(5);
    assert_eq!(applied, 1);
    assert_eq!(got[3], golden[3] ^ 1 << 4);
    // Dead: the wave is past the store, and later registers may hold the
    // slot `a` had.
    for after in 8..k.total_insts() as u64 {
        let (applied, got) = run(after);
        assert_eq!(
            applied, 1,
            "a flip of a dead register still lands ({after})"
        );
        assert_eq!(got, golden, "flip after {after} instructions");
    }
}
