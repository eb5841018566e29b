//! The lint stays bounded on deeply nested constant-trip loops.
//!
//! The lint walks a loop whose condition folds to a constant iteration by
//! iteration, so nested counted loops multiply: `d` levels of `t` trips
//! are `t^d` walks of the innermost body. A per-kernel budget on loop-body
//! walks caps that; once it is spent, a loop is havocked and walked in its
//! two phases, which is sound, so a race between iterations is still
//! reported.
//!
//! The kernels come from `common::nest`. A deep nest spends the budget,
//! so the race planted in its last loop sits in a loop walked after the
//! budget is spent.

mod common;

use common::{bound, nest, GROUP};
use gpu_rmt::ir::analysis::lint::{lint_kernel, LintAssumptions, LintConfig, LintKind};
use gpu_rmt::ir::Kernel;
use std::time::{Duration, Instant};

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
