//! The fixed pool of generated kernels that `compile-suite` and
//! `fuzz-oracle` draw from.
//!
//! Case `i` of the pool is `generate(child_seed(POOL_SEED, i))`. A run's
//! seed draws some of a round's cases, so different seeds measure
//! different kernels, but every kernel either workload can meet was
//! checked when the pool was fixed: the cases some layer rejected then are
//! listed in [`KNOWN_FAILING`] and skipped. A kernel that starts failing
//! later is a regression in the program, not bad luck of the seed.

use crate::compile_suite;
use crate::trace::Recorder;
use gcn_sim::{Device, DeviceConfig};
use rmt_core::oracle::{check_case, OracleConfig};
use rmt_ir::fuzz::{child_seed, generate, FuzzCase, FuzzRng, GenConfig};
use rmt_kernels::Scale;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Root seed of the pool; also the oracle's fault seed, so each case's
/// injection campaign is fixed too.
pub const POOL_SEED: u64 = 2014;

/// Cases in the pool.
pub const POOL_SIZE: u64 = 2048;

/// Pool cases that the oracle or a `compile-suite` pipeline rejected when
/// the pool was fixed. Each is a finding in the program under test:
/// `rmt_benchmark::screen_pool` lists them again.
///
/// * 381: the lint reports a divergent swizzle in the FAST transform of a
///   kernel every other check accepts;
/// * 720: the lint's `And`-mask test (`m + 1` on an `i64` constant mask,
///   `ir/src/analysis/lint/engine.rs`) overflows at `m = i64::MAX`: a
///   panic where overflow checks are on, silent wrapping in release;
/// * the rest: under Selective, an injected LDS fault at a site the
///   coverage analysis classes Masked ends in silent data corruption (a
///   recall violation of the analysis).
pub const KNOWN_FAILING: &[u64] = &[248, 381, 667, 720, 955, 971, 1925, 1992];

/// The case with pool index `i`.
pub fn case(i: u64) -> FuzzCase {
    generate(child_seed(POOL_SEED, i), &GenConfig::default())
}

/// The `repro fuzz --scale small` oracle configuration, with the fault
/// seed tied to the pool.
pub fn oracle_config() -> OracleConfig {
    rmt_bench::experiments::fuzz::oracle_config(Scale::Small, POOL_SEED)
}

/// The cases of a round: the first `core` passing cases of the pool, the
/// same for every seed, then `drawn` more that `seed` draws from the rest.
///
/// The layers' cost per case is heavy-tailed (1% of the pool takes about
/// 10% of its time), so a round of drawn cases alone would cost a
/// different amount for every seed; the core holds it steady while the
/// drawn cases still change with the seed.
pub fn round_cases(seed: u64, core: usize, drawn: usize) -> Vec<u64> {
    let mut idx: Vec<u64> = (0..POOL_SIZE)
        .filter(|i| !KNOWN_FAILING.contains(i))
        .collect();
    // Fisher–Yates over the rest.
    let rest = &mut idx[core..];
    let mut rng = FuzzRng::new(seed);
    for i in (1..rest.len()).rev() {
        rest.swap(i, rng.below(i as u32 + 1) as usize);
    }
    idx.truncate(core + drawn);
    idx
}

/// Checks every pool case through the oracle and through every
/// `compile-suite` pipeline; returns the indices some layer rejects, each
/// with the first reason.
pub fn screen() -> Vec<(u64, String)> {
    let cfg = oracle_config();
    let device = Device::new(DeviceConfig::radeon_hd_7790());
    let flavors = crate::flavor_ops(&compile_suite::FLAVORS);
    let mut rec = Recorder::new(None);
    let mut out = Vec::new();
    for i in 0..POOL_SIZE {
        let c = case(i);
        let shape = [[c.local as usize, 1, 1]];
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            check_case(&c, &cfg).map_err(|f| f.to_string())?;
            for (label, opts) in &flavors {
                let opts = opts.expect("every compile-suite posture transforms");
                compile_suite::pipeline(&c.kernel, &shape, &opts, &device, &mut rec)
                    .map_err(|e| format!("{label}: {e}"))?;
            }
            Ok(())
        }));
        match verdict {
            Ok(Ok(())) => {}
            Ok(Err(e)) => out.push((i, e)),
            Err(_) => out.push((i, "panicked".to_string())),
        }
    }
    out
}
