//! Acceptance test for the generative differential oracle: a transform
//! broken on purpose — the detect-compare check dropped before SoR
//! exits, the exact bug shape `coverage_negative` hand-builds — must be
//! caught by the oracle within a realistic campaign budget, and the
//! counterexample must shrink to a small, readable kernel.

use rmt_core::oracle::{run_case, Finding, OracleConfig};
use rmt_core::{RmtKernel, RmtTag};
use rmt_ir::fuzz::{child_seed, GenConfig};
use rmt_ir::{Block, Inst, RegSet};

/// Removes every `if` whose condition the transform tagged as a
/// detect-compare, recursively: the fault checks guarding the SoR exits
/// silently disappear while the rest of the machinery stays intact.
fn drop_detect_checks(blk: &mut Block, detect: &RegSet) {
    blk.0.retain_mut(|inst| {
        if let Inst::If {
            cond,
            then_blk,
            else_blk,
        } = inst
        {
            if detect.contains(*cond) {
                return false;
            }
            drop_detect_checks(then_blk, detect);
            drop_detect_checks(else_blk, detect);
        }
        true
    });
}

fn sabotage(rk: &mut RmtKernel) {
    let detect = rk.provenance.regs_with(RmtTag::DetectCompare);
    drop_detect_checks(&mut rk.kernel.body, &detect);
}

#[test]
fn dropped_detect_compare_is_caught_and_shrunk() {
    let gen_cfg = GenConfig::default();
    // Fault-free layers (verify/lint/bit-identity) are enough to catch a
    // missing check; skip the injection campaign to keep the test quick.
    let cfg = OracleConfig::quick().without_faults();

    let budget = 500u64;
    let mut caught: Option<Box<Finding>> = None;
    for i in 0..budget {
        let seed = child_seed(0x0BAD_C0DE, i);
        if let Err(f) = run_case(seed, &gen_cfg, &cfg, &sabotage) {
            caught = Some(f);
            break;
        }
    }

    let f = caught.expect("a 500-case budget must catch the dropped detect checks");
    assert!(
        f.minimized_insts <= 25,
        "counterexample must shrink small, got {} insts:\n{}",
        f.minimized_insts,
        f.message
    );
    assert!(
        f.minimized_insts <= f.original_insts,
        "shrinking must not grow the case"
    );
    // The report names the violated oracle layer, not a bare panic.
    assert!(
        !f.message.is_empty() && f.message.contains(f.kind.label()),
        "finding must carry a labeled failure message, got: {}",
        f.message
    );
}
