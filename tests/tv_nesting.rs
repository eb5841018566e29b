//! Translation validation stays bounded on deeply nested constant-trip
//! loops, and proves them.
//!
//! `tv` walks the original and the transformed kernel side by side, so a
//! deep nest is as much an adversarial input for it as for the lint. Each
//! race-free nest from `common::nest` is transformed under Intra+LDS,
//! Inter and FAST, and `validate_transform` must discharge every
//! obligation within the same time bound the lint gets.

mod common;

use common::{bound, nest};
use gpu_rmt::rmt::{transform, validate_transform, TransformOptions};
use std::time::Instant;

#[test]
fn deep_constant_nests_validate_quickly() {
    let flavors = [
        ("Intra+LDS", TransformOptions::intra_plus_lds()),
        ("Inter", TransformOptions::inter()),
        ("FAST", TransformOptions::intra_plus_lds().with_swizzle()),
    ];
    for (depth, trip) in [(1, 64), (4, 64), (6, 8), (8, 4), (12, 2)] {
        let k = nest(depth, trip, false);
        for (label, opts) in flavors {
            let rk = transform(&k, &opts).expect("the nest transforms");
            let start = Instant::now();
            let report = validate_transform(&k, &rk);
            let took = start.elapsed();
            assert!(
                report.proved(),
                "depth {depth} x {trip} under {label}: {:?}",
                report.residue
            );
            assert!(
                took < bound(),
                "depth {depth} x {trip} under {label}: tv took {took:?}"
            );
        }
    }
}
