//! Kernels shared by the nesting tests: deep nests of constant-trip loops
//! around an LDS exchange, which the lint and `tv` must both handle in
//! bounded time.
//!
//! Each kernel nests `for 0..trip` loops whose innermost body stores an
//! accumulator to LDS at `lid*4`, waits at a barrier, loads its own word
//! back and adds it to the accumulator, then runs one more `for 0..trip`
//! loop with the same exchange. In the racy variant that last loop loads
//! its neighbour's word, with no barrier before the next iteration's
//! store: a write-after-read race between iterations.

use gpu_rmt::ir::{validate, Kernel, KernelBuilder, Reg};
use std::time::Duration;

/// Work-items per group, and LDS words.
pub const GROUP: u32 = 64;

/// The registers the loops use.
#[derive(Clone, Copy)]
struct Body {
    zero: Reg,
    trips: Reg,
    own: Reg,
    acc: Reg,
}

/// Stores the accumulator at `own`, waits, and adds the word at `load_at`.
fn exchange(b: &mut KernelBuilder, r: Body, load_at: Reg) {
    b.store_local(r.own, r.acc);
    b.barrier();
    let v = b.load_local(load_at);
    let sum = b.add_u32(r.acc, v);
    b.mov_to(r.acc, sum);
}

/// `left` more levels of loops around the race-free exchange.
fn level(b: &mut KernelBuilder, left: u32, r: Body) {
    if left == 0 {
        exchange(b, r, r.own);
        return;
    }
    b.for_range(r.zero, r.trips, |b, _| level(b, left - 1, r));
}

/// `depth` nested loops of `trip` iterations around the LDS exchange,
/// then one loop of `trip` iterations, racy or not.
pub fn nest(depth: u32, trip: u32, racy: bool) -> Kernel {
    let mut b = KernelBuilder::new(format!("nest{depth}x{trip}"));
    b.set_lds_bytes(GROUP * 4);
    let out = b.buffer_param("out");
    let lid = b.local_id(0);
    let four = b.const_u32(4);
    let one = b.const_u32(1);
    let mask = b.const_u32(GROUP - 1);
    let zero = b.const_u32(0);
    let trips = b.const_u32(trip);
    let own = b.mul_u32(lid, four);
    let next = b.add_u32(lid, one);
    let wrapped = b.and_u32(next, mask);
    let neighbour = b.mul_u32(wrapped, four);
    let acc = b.fresh();
    b.mov_to(acc, zero);
    let body = Body {
        zero,
        trips,
        own,
        acc,
    };
    level(&mut b, depth, body);
    let load_at = if racy { neighbour } else { own };
    b.for_range(zero, trips, |b, _| exchange(b, body, load_at));
    let gid = b.global_id(0);
    let at = b.elem_addr(out, gid);
    b.store_global(at, acc);
    let k = b.finish();
    validate(&k).expect("the nest validates");
    k
}

/// What one nest may take to lint or to validate: well under a second
/// in release, where the slowest nests lint in about 0.2 s on a 2-vCPU
/// host and validate in under a millisecond; debug builds run the same
/// walks several times slower.
pub fn bound() -> Duration {
    if cfg!(debug_assertions) {
        Duration::from_secs(20)
    } else {
        Duration::from_secs(1)
    }
}
