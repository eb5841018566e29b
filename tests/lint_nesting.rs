//! The lint stays bounded on deeply nested constant-trip loops.
//!
//! The lint walks a loop whose condition folds to a constant iteration by
//! iteration, so nested counted loops multiply: `d` levels of `t` trips
//! are `t^d` walks of the innermost body. A per-kernel budget on loop-body
//! walks caps that; once it is spent, a loop is havocked and walked in its
//! two phases, which is sound, so a race between iterations is still
//! reported.
//!
//! Each kernel here nests `for 0..trip` loops whose innermost body stores
//! an accumulator to LDS at `lid*4`, waits at a barrier, loads its own
//! word back and adds it to the accumulator, then runs one more
//! `for 0..trip` loop with the same exchange. In the racy variant that
//! last loop loads its neighbour's word, with no barrier before the next
//! iteration's store: a write-after-read race between iterations. A deep
//! nest spends the budget, so the race sits in a loop walked after it is
//! spent.

use gpu_rmt::ir::analysis::lint::{lint_kernel, LintAssumptions, LintConfig, LintKind};
use gpu_rmt::ir::{validate, Kernel, KernelBuilder, Reg};
use std::time::{Duration, Instant};

/// Work-items per group, and LDS words.
const GROUP: u32 = 64;

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
fn nest(depth: u32, trip: u32, racy: bool) -> Kernel {
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

/// Lints `k` at the nest's launch shape; returns whether an LDS race was
/// reported and how long the lint took.
fn lint_races(k: &Kernel) -> (bool, Duration) {
    let cfg = LintConfig::with_assumptions(LintAssumptions {
        local_size: [Some(GROUP), Some(1), Some(1)],
        wavefront: 64,
    });
    let start = Instant::now();
    let diags = lint_kernel(k, &cfg);
    let took = start.elapsed();
    (diags.iter().any(|d| d.kind == LintKind::LocalRace), took)
}

/// What one nest may take: well under a second in release (about 0.1 s
/// at depth 4 x 64 and 0.4 s at depth 6 x 8 on a 2-vCPU host); debug
/// builds run the same walks several times slower.
fn bound() -> Duration {
    if cfg!(debug_assertions) {
        Duration::from_secs(20)
    } else {
        Duration::from_secs(1)
    }
}

#[test]
fn deep_constant_nests_lint_quickly_and_keep_their_races() {
    // 1 x 64 unrolls both loops; the deep nests spend the walk budget
    // before the last loop.
    for (depth, trip) in [(1, 64), (4, 64), (6, 8)] {
        for racy in [false, true] {
            let (race, took) = lint_races(&nest(depth, trip, racy));
            assert_eq!(
                race, racy,
                "depth {depth} x {trip}: the planted race must be reported, and only it"
            );
            assert!(took < bound(), "depth {depth} x {trip}: lint took {took:?}");
        }
    }
}
