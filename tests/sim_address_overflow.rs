//! A corrupted address at the top of the 32-bit space (as a bit flip can
//! produce) must end a launch with a typed error for every memory
//! instruction: the bounds checks compare without wrapping, so none of them
//! reaches a slice index and panics.

use gpu_rmt::ir::{AtomicOp, BinOp, CmpOp, Kernel, KernelBuilder, MemSpace, Reg, Ty};
use gpu_rmt::sim::{Arg, Device, DeviceConfig, LaunchConfig, SimError};

const TOP: u32 = 0xFFFF_FFFC;

#[derive(Clone, Copy, Debug)]
enum Access {
    Load,
    Store,
    Atomic,
}

/// A one-wave kernel whose lane `bad_lane` accesses `TOP` in `space` while
/// every other lane accesses a valid word (its own slot of `out`, or of a
/// 256-byte LDS array).
fn kernel(space: MemSpace, access: Access, bad_lane: u32) -> Kernel {
    let mut b = KernelBuilder::new("overflow");
    b.set_lds_bytes(256);
    let out = b.buffer_param("out");
    let lid = b.local_id(0);
    let base = match space {
        MemSpace::Global => out,
        MemSpace::Local => b.const_u32(0),
    };
    let good = b.elem_addr(base, lid);
    let top = b.const_u32(TOP);
    let bad = b.const_u32(bad_lane);
    let is_bad = b.cmp(CmpOp::Eq, Ty::U32, lid, bad);
    let addr = b.select(is_bad, top, good);
    let one = b.const_u32(1);
    let v: Reg = match access {
        Access::Load => match space {
            MemSpace::Global => b.load_global(addr),
            MemSpace::Local => b.load_local(addr),
        },
        Access::Store => {
            match space {
                MemSpace::Global => b.store_global(addr, one),
                MemSpace::Local => b.store_local(addr, one),
            }
            one
        }
        Access::Atomic => b.atomic(space, AtomicOp::Add, addr, one),
    };
    let sum = b.binary(BinOp::Add, Ty::U32, v, one);
    let slot = b.elem_addr(out, lid);
    b.store_global(slot, sum);
    b.finish()
}

fn launch(space: MemSpace, access: Access, bad_lane: u32) -> Result<(), SimError> {
    let mut dev = Device::new(DeviceConfig::small_test());
    let buf = dev.create_buffer(64 * 4);
    let k = kernel(space, access, bad_lane);
    dev.launch(&k, &LaunchConfig::new_1d(64, 64).arg(Arg::Buffer(buf)))
        .map(|_| ())
}

#[test]
fn global_accesses_at_the_top_of_memory_are_bad_global_accesses() {
    for access in [Access::Load, Access::Store, Access::Atomic] {
        for bad_lane in [0, 37, 63] {
            let err = launch(MemSpace::Global, access, bad_lane);
            assert!(
                matches!(err, Err(SimError::BadGlobalAccess { addr: TOP, .. })),
                "{access:?}, lane {bad_lane}: {err:?}"
            );
        }
    }
}

#[test]
fn lds_accesses_at_the_top_of_memory_are_bad_lds_accesses() {
    for access in [Access::Load, Access::Store, Access::Atomic] {
        for bad_lane in [0, 37, 63] {
            let err = launch(MemSpace::Local, access, bad_lane);
            assert!(
                matches!(
                    err,
                    Err(SimError::BadLdsAccess {
                        offset: TOP,
                        lds_bytes: 256
                    })
                ),
                "{access:?}, lane {bad_lane}: {err:?}"
            );
        }
    }
}

#[test]
fn the_same_kernels_run_cleanly_without_the_bad_lane() {
    // Lane 64 does not exist in a 64-lane launch: every access is valid.
    for space in [MemSpace::Global, MemSpace::Local] {
        for access in [Access::Load, Access::Store, Access::Atomic] {
            let r = launch(space, access, 64);
            assert!(r.is_ok(), "{space:?} {access:?}: {r:?}");
        }
    }
}
