//! Reusing a device must be invisible: a sequence of launches on one
//! device, with [`Device::reset`] between them, gives the same results —
//! statistics, errors and buffer contents — as the same launches on new
//! devices.
//!
//! The sequence is built so that any state the device keeps between
//! launches would show: a kernel with many registers and a large LDS
//! writes nonzero values everywhere, then a smaller kernel reads a
//! loop-carried register before defining it (the zero-initialized
//! register file), reads LDS words it never wrote, and loads from buffers
//! at the addresses the first kernel's buffers had (a stale L1 line would
//! serve the old contents). Launches that end in `Watchdog` and
//! `BadGlobalAccess` are mixed in, so the state an aborted launch leaves
//! behind is covered too, and so are configuration changes: a shorter
//! watchdog, and a different cache geometry.

use gcn_sim::{Arg, Device, DeviceConfig, LaunchConfig, LaunchStats, SimEngine, SimError};
use rmt_ir::{Inst, Kernel, KernelBuilder, Ty};

const N: usize = 256;
const LOCAL: usize = 128;

/// Many registers and 8 KiB of LDS, all written with nonzero values; reads
/// `inp` (filling the L1) and writes `out`.
fn wide_kernel() -> Kernel {
    let mut b = KernelBuilder::new("wide");
    b.set_lds_bytes(8192);
    let inp = b.buffer_param("in");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let lid = b.local_id(0);
    let ia = b.elem_addr(inp, gid);
    let v = b.load_global(ia);
    let mut acc = v;
    for i in 0..40 {
        let c = b.const_u32(0x9E37_79B9u32.wrapping_mul(i + 1));
        acc = b.add_u32(acc, c);
    }
    // Every LDS word gets a nonzero value: 2048 words, 128 lanes, 16 each.
    let four = b.const_u32(4);
    let stride = b.const_u32(LOCAL as u32 * 4);
    let mut la = b.mul_u32(lid, four);
    for _ in 0..16 {
        b.store_local(la, acc);
        la = b.add_u32(la, stride);
    }
    let oa = b.elem_addr(out, gid);
    b.store_global(oa, acc);
    b.finish()
}

/// Few registers, 512 B of LDS. Stores, per work-item: the value loaded
/// from `inp`, an LDS word it never wrote, and a loop-carried register
/// read on iteration 0 before its first definition.
fn narrow_kernel() -> Kernel {
    let mut b = KernelBuilder::new("narrow");
    b.set_lds_bytes(512);
    let inp = b.buffer_param("in");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let lid = b.local_id(0);
    let ia = b.elem_addr(inp, gid);
    let v = b.load_global(ia);
    let four = b.const_u32(4);
    let la = b.mul_u32(lid, four);
    let lds = b.load_local(la);
    let three = b.const_u32(3);
    let base = b.mul_u32(gid, three);
    let oa = b.elem_addr(out, base);
    b.store_global(oa, v);
    let one = b.const_u32(1);
    let oa1 = b.add_u32(base, one);
    let oa1 = b.elem_addr(out, oa1);
    b.store_global(oa1, lds);
    // `carried` is read before it is defined on iteration 0.
    let carried = b.fresh();
    let i = b.fresh();
    let zero = b.const_u32(0);
    b.mov_to(i, zero);
    let two = b.const_u32(2);
    let oa2 = b.add_u32(base, two);
    let oa2 = b.elem_addr(out, oa2);
    b.while_(
        |b| b.lt_u32(i, one),
        |b| {
            b.store_global(oa2, carried);
            b.mov_to(carried, gid);
            let next = b.add_u32(i, one);
            b.mov_to(i, next);
        },
    );
    b.finish()
}

/// Never terminates: ends in `Watchdog`.
fn spin_kernel() -> Kernel {
    let mut b = KernelBuilder::new("spin");
    b.set_lds_bytes(1024);
    let _inp = b.buffer_param("in");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let one = b.const_u32(1);
    let oa = b.elem_addr(out, gid);
    b.while_(
        |b| b.const_u32(1),
        |b| {
            let x = b.add_u32(gid, one);
            b.store_global(oa, x);
        },
    );
    b.finish()
}

/// Writes registers, LDS and its output, then stores far out of bounds:
/// ends in `BadGlobalAccess`.
fn wild_store_kernel() -> Kernel {
    let mut b = KernelBuilder::new("wild");
    b.set_lds_bytes(4096);
    let _inp = b.buffer_param("in");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let lid = b.local_id(0);
    let four = b.const_u32(4);
    let la = b.mul_u32(lid, four);
    let k = b.const_u32(0xDEAD);
    b.store_local(la, k);
    let oa = b.elem_addr(out, gid);
    b.store_global(oa, k);
    let far = b.const_u32(0x4000_0000);
    let wild = b.add_u32(oa, far);
    b.store_global(wild, k);
    b.finish()
}

/// One launch of the sequence: the kernel, its device configuration, and
/// the word every input element starts from.
struct Step {
    kernel: Kernel,
    config: DeviceConfig,
    seed: u32,
}

type Outcome = (Result<LaunchStats, SimError>, Vec<u32>, Vec<u32>);

/// Creates the buffers, launches, and reads them back.
fn launch(dev: &mut Device, step: &Step, compiled: bool) -> Outcome {
    let inp = dev.create_buffer((N * 4) as u32);
    let out = dev.create_buffer((N * 3 * 4) as u32);
    let words: Vec<u32> = (0..N as u32)
        .map(|i| step.seed.wrapping_add(i * 7))
        .collect();
    dev.write_u32s(inp, &words);
    let cfg = LaunchConfig::new_1d(N, LOCAL)
        .arg(Arg::Buffer(inp))
        .arg(Arg::Buffer(out));
    let result = if compiled {
        let ck = dev.compile(&step.kernel).expect("test kernels validate");
        dev.launch_compiled(&ck, &cfg)
    } else {
        dev.launch(&step.kernel, &cfg)
    };
    (result, dev.read_u32s(inp), dev.read_u32s(out))
}

fn sequence(engine: SimEngine) -> Vec<Step> {
    let mut config = DeviceConfig::small_test();
    config.engine = engine;
    let mut short_watchdog = config.clone();
    short_watchdog.watchdog_insts = 20_000;
    // Different cache geometry: the device must rebuild its caches.
    let mut reshaped = config.clone();
    reshaped.num_cus = 3;
    reshaped.l1_bytes *= 2;
    reshaped.l2_bytes /= 4;
    let step = |kernel: Kernel, config: &DeviceConfig, seed: u32| Step {
        kernel,
        config: config.clone(),
        seed,
    };
    vec![
        step(wide_kernel(), &config, 11),
        step(narrow_kernel(), &config, 500),
        step(wide_kernel(), &config, 3),
        step(spin_kernel(), &short_watchdog, 1),
        step(narrow_kernel(), &config, 9),
        step(wide_kernel(), &config, 77),
        step(wild_store_kernel(), &config, 5),
        step(narrow_kernel(), &config, 1234),
        step(wide_kernel(), &reshaped, 21),
        step(narrow_kernel(), &reshaped, 4),
        step(narrow_kernel(), &short_watchdog, 8),
    ]
}

#[test]
fn reused_devices_match_new_devices() {
    for engine in [SimEngine::Event, SimEngine::LockStep] {
        for compiled in [false, true] {
            let steps = sequence(engine);
            let mut dev = Device::new(steps[0].config.clone());
            for (i, step) in steps.iter().enumerate() {
                dev.reset(&step.config);
                let reused = launch(&mut dev, step, compiled);
                let fresh = launch(&mut Device::new(step.config.clone()), step, compiled);
                assert_eq!(
                    reused, fresh,
                    "{engine:?} step {i} ({}) differs on a reused device",
                    step.kernel.name
                );
            }
        }
    }
}

#[test]
fn the_sequence_reaches_every_ending() {
    let steps = sequence(SimEngine::Event);
    let mut dev = Device::new(steps[0].config.clone());
    let mut endings = Vec::new();
    for step in &steps {
        dev.reset(&step.config);
        let (result, _, out) = launch(&mut dev, step, false);
        if step.kernel.name == "narrow" && result.is_ok() {
            // The never-written LDS word and the carried register read as
            // zero, whatever ran before.
            for gi in 0..N {
                assert_eq!(out[gi * 3 + 1], 0, "LDS word of item {gi}");
                assert_eq!(out[gi * 3 + 2], 0, "carried register of item {gi}");
            }
        }
        endings.push(match result {
            Ok(_) => "ok",
            Err(SimError::Watchdog { .. }) => "watchdog",
            Err(SimError::BadGlobalAccess { .. }) => "bad-global",
            Err(e) => panic!("unexpected error {e}"),
        });
    }
    for want in ["ok", "watchdog", "bad-global"] {
        assert!(
            endings.contains(&want),
            "no launch ended {want}: {endings:?}"
        );
    }
}

#[test]
fn reset_gives_the_addresses_of_a_new_device() {
    let mut dev = Device::new(DeviceConfig::small_test());
    let a = dev.create_buffer(100);
    let first_base = dev.buffer_base(a);
    let b = dev.create_buffer(3000);
    dev.write_u32s(b, &[7; 750]);
    dev.reset(&DeviceConfig::small_test());
    let c = dev.create_buffer(100);
    assert_eq!(dev.buffer_base(c), first_base);
    let d = dev.create_buffer(3000);
    assert_eq!(
        dev.read_u32s(d),
        vec![0; 750],
        "a new buffer reads as zeros"
    );
}

/// A register first written under a partial EXEC mask reads zero in the
/// other lanes, also when the register file it lives in last held the
/// wide kernel's values.
#[test]
fn a_register_first_written_under_a_partial_mask_reads_zero_elsewhere() {
    let mut b = KernelBuilder::new("partial");
    let _inp = b.buffer_param("in");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let two = b.const_u32(2);
    let odd = b.rem_u32(gid, two);
    let x = b.fresh();
    b.if_(odd, |b| {
        b.emit(Inst::Const {
            dst: x,
            ty: Ty::U32,
            bits: 7,
        })
    });
    let oa = b.elem_addr(out, gid);
    b.store_global(oa, x);
    let partial = b.finish();

    for engine in [SimEngine::Event, SimEngine::LockStep] {
        let mut cfg = DeviceConfig::small_test();
        cfg.engine = engine;
        let mut dev = Device::new(cfg);
        let inp = dev.create_buffer(N as u32 * 4);
        let out = dev.create_buffer(N as u32 * 4);
        dev.write_u32s(inp, &[0x1234_5678; N]);
        for k in [wide_kernel(), partial.clone()] {
            let launch = LaunchConfig::new_1d(N, LOCAL)
                .arg(Arg::Buffer(inp))
                .arg(Arg::Buffer(out));
            dev.launch(&k, &launch).unwrap();
        }
        let got = dev.read_u32s(out);
        for (g, &v) in got.iter().enumerate() {
            assert_eq!(v, if g % 2 == 1 { 7 } else { 0 }, "{engine:?}, item {g}");
        }
    }
}
