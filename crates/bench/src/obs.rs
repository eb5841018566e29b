//! Observability glue shared by the experiment modules.
//!
//! The experiment harness records one span per (kernel, flavor)
//! simulation cell and a deterministic counter family keyed by
//! `{exp, kernel, flavor, outcome}`. Everything funnels through
//! [`cell_obs`], so the cost of a disabled campaign is one relaxed
//! atomic load per cell, and every experiment reports cells the same
//! way.

use rmt_core::{CommMode, Stage, TransformOptions};
use std::time::Instant;

/// Canonical flavor label for a cell: the paper's flavor names, with
/// `+FAST` / `+nocomm` suffixes for the swizzle-communication and
/// decomposition-stage variants. `None` is an untransformed run.
pub(crate) fn flavor_label(opts: Option<&TransformOptions>) -> String {
    match opts {
        None => "Original".to_string(),
        Some(o) => {
            let mut s = o.flavor.to_string();
            if o.comm == CommMode::Swizzle && o.flavor.is_intra() {
                s.push_str("+FAST");
            }
            if o.stage == Stage::RedundantNoComm {
                s.push_str("+nocomm");
            }
            s
        }
    }
}

/// Runs one simulation cell under campaign observability.
///
/// Records an `exp.cell` span (logical timestamp = submission index, so
/// deterministic traces read in sweep order) carrying the kernel,
/// flavor and outcome; bumps the `exp.cells` counter keyed by
/// `{exp, kernel, flavor, outcome}`; and — when the cell succeeded —
/// adds the cell's simulated cycles and instructions to per-cell
/// counters plus a wall-clock latency observation (dropped from
/// deterministic snapshots, like every wall quantity).
pub(crate) fn cell_obs<T, E>(
    exp: &'static str,
    kernel: &str,
    flavor: &str,
    index: usize,
    cycles_insts: impl Fn(&T) -> (u64, u64),
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, E> {
    if !rmt_obs::enabled() {
        return f();
    }
    let mut span = rmt_obs::span("exp", format!("{kernel}/{flavor}")).logical_ts(index as u64);
    span.set_arg("exp", exp);
    span.set_arg("kernel", kernel);
    span.set_arg("flavor", flavor);
    let t0 = Instant::now();
    let res = f();
    let wall_us = t0.elapsed().as_micros() as u64;
    let outcome = if res.is_ok() { "ok" } else { "err" };
    span.set_arg("outcome", outcome);
    span.set_arg("wall_us", wall_us);
    rmt_obs::add(
        "exp.cells",
        &[
            ("exp", exp),
            ("flavor", flavor),
            ("kernel", kernel),
            ("outcome", outcome),
        ],
        1,
    );
    rmt_obs::observe_wall_us("exp.cell_us", &[("exp", exp)], wall_us);
    if let Ok(v) = &res {
        let (cycles, insts) = cycles_insts(v);
        if cycles != 0 || insts != 0 {
            span.set_arg("sim_cycles", cycles);
            span.set_arg("sim_insts", insts);
            let labels = [("exp", exp), ("flavor", flavor), ("kernel", kernel)];
            rmt_obs::add("exp.cell_cycles", &labels, cycles);
            rmt_obs::add("exp.cell_insts", &labels, insts);
        }
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flavor_labels_are_distinct() {
        let labels: Vec<String> = [
            None,
            Some(TransformOptions::intra_plus_lds()),
            Some(TransformOptions::intra_minus_lds()),
            Some(TransformOptions::inter()),
            Some(TransformOptions::intra_plus_lds().with_swizzle()),
            Some(TransformOptions::intra_plus_lds().without_comm()),
            Some(TransformOptions::selective(60)),
        ]
        .iter()
        .map(|o| flavor_label(o.as_ref()))
        .collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "labels collide: {labels:?}");
        assert_eq!(labels[0], "Original");
        assert!(labels[4].ends_with("+FAST"));
        assert!(labels[5].ends_with("+nocomm"));
    }

    #[test]
    fn cell_obs_disabled_is_passthrough() {
        rmt_obs::disable();
        let r: Result<u64, ()> = cell_obs("t", "MM", "Original", 0, |v| (*v, 1), || Ok(7));
        assert_eq!(r, Ok(7));
    }
}
