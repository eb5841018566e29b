//! Launch geometry whose sizes overflow — a work-group size, a group
//! count, a doubled NDRange or an RMT communication buffer — must end the
//! launch with a typed geometry error, never a panic or a silently
//! wrapped launch.

use gpu_rmt::ir::{Kernel, KernelBuilder};
use gpu_rmt::rmt::{transform, RmtError, RmtLauncher, TransformOptions};
use gpu_rmt::sim::{Arg, Device, DeviceConfig, LaunchConfig, SimError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// `buf[gid] += 1`.
fn inc_kernel() -> Kernel {
    let mut b = KernelBuilder::new("inc");
    let buf = b.buffer_param("buf");
    let gid = b.global_id(0);
    let a = b.elem_addr(buf, gid);
    let v = b.load_global(a);
    let one = b.const_u32(1);
    let w = b.add_u32(v, one);
    b.store_global(a, w);
    b.finish()
}

/// Launches `global`/`local` on a new device, with a panic reported as an
/// error naming the geometry.
fn launch<T>(
    global: [usize; 3],
    local: [usize; 3],
    run: impl FnOnce(&mut Device, &LaunchConfig) -> T,
) -> T {
    let mut dev = Device::new(DeviceConfig::small_test());
    let buf = dev.create_buffer(64 * 4);
    let cfg = LaunchConfig::new(global, local).arg(Arg::Buffer(buf));
    catch_unwind(AssertUnwindSafe(|| run(&mut dev, &cfg)))
        .unwrap_or_else(|_| panic!("global {global:?} local {local:?}: the launch panicked"))
}

#[test]
fn device_launches_with_overflowing_geometry_are_bad_geometry() {
    let kernel = inc_kernel();
    for (global, local) in [
        // Every dimension within 32 bits, but the work-group size or the
        // work-group count overflows.
        ([1 << 31; 3], [1 << 31; 3]),
        ([1 << 31; 3], [1, 1, 1]),
        // Dimensions past the 32-bit id range; the first two also
        // overflow the work-group size or the work-group count.
        ([1 << 33, 1 << 31, 1], [1 << 33, 1 << 31, 1]),
        ([1 << 40, 1 << 40, 1], [64, 1, 1]),
        ([1 << 33, 1, 1], [64, 1, 1]),
    ] {
        let got = launch(global, local, |dev, cfg| dev.launch(&kernel, cfg));
        assert!(
            matches!(got, Err(SimError::BadGeometry(_))),
            "global {global:?} local {local:?}: {got:?}"
        );
    }
}

#[test]
fn rmt_launches_with_overflowing_geometry_are_geometry_errors() {
    let kernel = inc_kernel();
    let cases = [
        // Doubling dimension 0 overflows.
        (
            TransformOptions::intra_plus_lds(),
            [1 << 63, 1, 1],
            [64, 1, 1],
        ),
        (TransformOptions::inter(), [1 << 63, 1, 1], [64, 1, 1]),
        // Inter's communication buffer passes 32 bits: more work-items
        // than a u32 counts, or 2^30 items of 16 bytes.
        (TransformOptions::inter(), [1 << 33, 1, 1], [64, 1, 1]),
        (TransformOptions::inter(), [1 << 30, 1, 1], [64, 1, 1]),
    ];
    for (opts, global, local) in cases {
        let rk = transform(&kernel, &opts).expect("transform");
        let got = launch(global, local, |dev, cfg| {
            RmtLauncher::new().launch(dev, &rk, cfg)
        });
        assert!(
            matches!(got, Err(RmtError::Geometry(_))),
            "{opts:?} global {global:?} local {local:?}: {got:?}"
        );
    }
}
