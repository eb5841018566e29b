//! A kernel that names a register at or beyond its `next_reg` is invalid
//! at every layer that accepts kernels: `validate` says so, the simulator
//! returns an error instead of indexing past the register file, and the
//! transform refuses it.

use gpu_rmt::ir::{validate, Inst, Kernel, KernelBuilder, Reg, ValidateError};
use gpu_rmt::rmt::{transform, RmtError, TransformOptions};
use gpu_rmt::sim::{Arg, Device, DeviceConfig, LaunchConfig, SimError};

/// Copies each element through register 500 of a kernel that declares
/// far fewer registers.
fn kernel() -> Kernel {
    let mut b = KernelBuilder::new("wild_reg");
    let buf = b.buffer_param("buf");
    let gid = b.global_id(0);
    let a = b.elem_addr(buf, gid);
    let v = b.load_global(a);
    b.emit(Inst::Mov {
        dst: Reg(500),
        src: v,
    });
    b.store_global(a, Reg(500));
    b.finish()
}

#[test]
fn validate_rejects_the_register() {
    let k = kernel();
    assert!(k.next_reg < 500);
    assert_eq!(
        validate(&k),
        Err(ValidateError::RegOutOfRange {
            reg: Reg(500),
            next_reg: k.next_reg,
        })
    );
}

#[test]
fn launch_returns_invalid_kernel() {
    let mut dev = Device::new(DeviceConfig::small_test());
    let buf = dev.create_buffer(64 * 4);
    let err = dev.launch(
        &kernel(),
        &LaunchConfig::new_1d(64, 64).arg(Arg::Buffer(buf)),
    );
    assert!(matches!(err, Err(SimError::InvalidKernel(_))), "{err:?}");
}

#[test]
fn transform_returns_invalid_kernel() {
    for (label, opts) in TransformOptions::full_stage() {
        let err = transform(&kernel(), &opts);
        assert!(
            matches!(err, Err(RmtError::InvalidKernel(_))),
            "{label}: {:?}",
            err.err()
        );
    }
}
