//! Stress tests for the Inter-Group protocol's deadlock freedom.
//!
//! Section 7.2's ticket counter exists precisely so that the resident
//! work-group window always contains the producer of every resident
//! consumer. These tests shrink the window to its minimum — one CU, then a
//! hard two-group residency cap — and push many communicating group pairs
//! through it. A naive group-id parity scheme would deadlock here (all
//! residents consumers, producers unscheduled); the ticket scheme must
//! complete and verify.

use gcn_sim::{Arg, Device, DeviceConfig, LaunchConfig};
use rmt_core::{launch_rmt, transform, TransformOptions};
use rmt_ir::{Kernel, KernelBuilder};

/// A kernel where every work-item stores (maximum communication pressure).
fn chatty_kernel() -> Kernel {
    let mut b = KernelBuilder::new("chatty");
    let inp = b.buffer_param("in");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let ia = b.elem_addr(inp, gid);
    let v = b.load_global(ia);
    let c = b.const_u32(0x85EB_CA6B);
    let w = b.mul_u32(v, c);
    let x = b.xor_u32(w, gid);
    let oa = b.elem_addr(out, gid);
    // Two stores per item: slot reuse forces the producer to wait for the
    // consumer's release, exercising both directions of the protocol.
    b.store_global(oa, w);
    b.store_global(oa, x);
    b.finish()
}

fn run_inter(mut dev_cfg: DeviceConfig, n: usize, local: usize, cap: Option<usize>) {
    if let Some(c) = cap {
        dev_cfg.max_groups_per_cu = c.min(dev_cfg.max_groups_per_cu);
    }
    let k = chatty_kernel();
    let rk = transform(&k, &TransformOptions::inter()).unwrap();
    let mut dev = Device::new(dev_cfg);
    let ib = dev.create_buffer((n * 4) as u32);
    let ob = dev.create_buffer((n * 4) as u32);
    let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
    dev.write_u32s(ib, &input);
    let cfg = LaunchConfig::new_1d(n, local)
        .arg(Arg::Buffer(ib))
        .arg(Arg::Buffer(ob));
    let run = launch_rmt(&mut dev, &rk, &cfg).unwrap();
    assert_eq!(run.detections, 0);
    let got = dev.read_u32s(ob);
    for (i, &inv) in input.iter().enumerate() {
        let want = inv.wrapping_mul(0x85EB_CA6B) ^ (i as u32);
        assert_eq!(got[i], want, "item {i}");
    }
}

#[test]
fn single_cu_device_does_not_deadlock() {
    // 32 original groups -> 64 redundant groups funneled through one CU.
    let mut cfg = DeviceConfig::small_test();
    cfg.num_cus = 1;
    run_inter(cfg, 32 * 64, 64, None);
}

#[test]
fn two_group_residency_window_does_not_deadlock() {
    // The absolute minimum: at most two work-groups resident at once, so
    // exactly one producer/consumer pair fits. Dozens of pairs must stream
    // through the window strictly in ticket order.
    let mut cfg = DeviceConfig::small_test();
    cfg.num_cus = 1;
    run_inter(cfg, 24 * 64, 64, Some(2));
}

#[test]
fn single_cu_multiwave_groups_do_not_deadlock() {
    // Two waves per group interacting with the barrier in the ticket
    // prologue, still through one CU.
    let mut cfg = DeviceConfig::small_test();
    cfg.num_cus = 1;
    run_inter(cfg, 16 * 128, 128, Some(4));
}

#[test]
fn watchdog_would_catch_a_broken_protocol() {
    // Sanity for the safety net the stress tests rely on: a consumer
    // spinning on a flag nobody sets must hit the watchdog, not hang.
    use rmt_ir::{AtomicOp, MemSpace};
    let mut b = KernelBuilder::new("orphan_consumer");
    let flag = b.buffer_param("flag");
    let zero = b.const_u32(0);
    let one = b.const_u32(1);
    b.while_(
        |b| {
            let s = b.atomic(MemSpace::Global, AtomicOp::Add, flag, zero);
            b.ne_u32(s, one)
        },
        |_| {},
    );
    b.store_global(flag, one);
    let k = b.finish();

    let mut cfg = DeviceConfig::small_test();
    cfg.watchdog_insts = 100_000;
    let mut dev = Device::new(cfg);
    let fb = dev.create_buffer(4);
    let err = dev.launch(&k, &LaunchConfig::new_1d(64, 64).arg(Arg::Buffer(fb)));
    assert!(matches!(err, Err(gcn_sim::SimError::Watchdog { .. })));
}
