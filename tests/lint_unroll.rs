//! A constant-trip loop of up to 64 iterations is unrolled exactly, and
//! leaves by its exit edge.
//!
//! The lint walks a loop whose condition folds to a constant iteration by
//! iteration, up to 64 of them. Each kernel here bumps a counter in a
//! `for 0..trip` loop, then stores to LDS at `counter*4` with exactly
//! `trip*4` bytes allocated: one word past the end. When the unrolling
//! is exact the bounds diagnostic names the one address `4*trip`; a loop
//! that fell back to the range analysis would report the counter as a
//! range instead.

use gpu_rmt::ir::analysis::lint::{lint_kernel, LintAssumptions, LintConfig, LintKind};
use gpu_rmt::ir::{validate, Kernel, KernelBuilder};

fn counted_store(trip: u32) -> Kernel {
    let mut b = KernelBuilder::new(format!("count{trip}"));
    b.set_lds_bytes(trip * 4);
    let zero = b.const_u32(0);
    let one = b.const_u32(1);
    let four = b.const_u32(4);
    let trips = b.const_u32(trip);
    let cnt = b.fresh();
    b.mov_to(cnt, zero);
    b.for_range(zero, trips, |b, _| {
        let next = b.add_u32(cnt, one);
        b.mov_to(cnt, next);
    });
    let at = b.mul_u32(cnt, four);
    b.store_local(at, cnt);
    let k = b.finish();
    validate(&k).expect("the kernel validates");
    k
}

#[test]
fn loops_up_to_the_unroll_cap_leave_by_their_exit_edge() {
    let cfg = LintConfig::with_assumptions(LintAssumptions::one_dim(64));
    for trip in [8, 63, 64] {
        let diags = lint_kernel(&counted_store(trip), &cfg);
        let bounds: Vec<&str> = diags
            .iter()
            .filter(|d| d.kind == LintKind::LdsOutOfBounds)
            .map(|d| d.message.as_str())
            .collect();
        let end = trip * 4;
        let expected = format!(
            "store local@{end}: address range [{end}, {end}] exceeds the {end}-byte LDS allocation"
        );
        assert_eq!(bounds, [expected.as_str()], "trip {trip}");
    }
}
