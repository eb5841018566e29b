//! `fuzz-oracle`: the differential oracle on generated kernels.
//!
//! A round takes [`CORE_CASES`] fixed cases of the generated-kernel pool
//! and [`DRAWN_CASES`] more that the seed draws from the rest. One op runs
//! one case through `oracle::check_case` with the `repro fuzz --scale
//! small` configuration: validate, lint, golden run, then per flavor
//! transform, verify, prove, lint, run fault-free against the golden
//! outputs, and run a small injection campaign. The kernels are tiny and
//! random, so every layer runs on shapes that nobody tuned for.

use crate::pool;
use crate::trace::Recorder;
use rmt_core::oracle::{check_case, OracleConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cases every round checks, whatever the seed.
const CORE_CASES: usize = 150;

/// Cases the seed draws from the rest of the pool.
const DRAWN_CASES: usize = 50;

/// Untimed warm-up cases in each set-up: the first of the core.
const WARM_CASES: usize = 4;

/// The `fuzz-oracle` workload.
pub struct FuzzOracle {
    /// Pool indices of the round's cases.
    cases: Vec<u64>,
    cfg: OracleConfig,
}

impl FuzzOracle {
    /// Draws the round's cases and runs a few untimed warm-up cases, the
    /// same for every seed so that set-up time does not depend on it.
    ///
    /// # Errors
    ///
    /// When a warm-up case fails the oracle.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let w = FuzzOracle {
            cases: pool::round_cases(seed, CORE_CASES, DRAWN_CASES),
            cfg: pool::oracle_config(),
        };
        for &warm in &w.cases[..WARM_CASES] {
            check_case(&pool::case(warm), &w.cfg).map_err(|f| format!("warm-up failed: {f}"))?;
        }
        Ok(w)
    }

    /// Runs the round: every case once.
    pub fn round(&mut self, rec: &mut Recorder) {
        for &index in &self.cases {
            if !rec.more() {
                return;
            }
            let case = rec.span("ir.fuzz", || pool::case(index));
            rec.add("ir.fuzz", "insts_out", case.kernel.total_insts() as f64);
            let verdict = catch_unwind(AssertUnwindSafe(|| {
                rec.span("core.oracle", || check_case(&case, &self.cfg))
            }));
            let failure = match verdict {
                Ok(Ok(rep)) => {
                    rec.add("core.oracle", "launches", rep.launches as f64);
                    rec.add("core.oracle", "injections", rep.injections as f64);
                    None
                }
                Ok(Err(f)) => Some(f.to_string()),
                Err(_) => Some("panicked".to_string()),
            };
            if failure.is_some() {
                rec.add("core.oracle", "failed", 1.0);
            }
            rec.op_done(failure.map(|f| format!("pool case {index}: {f}")));
        }
    }
}
