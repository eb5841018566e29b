//! The simulator and the static analyses number the same pre-order: a
//! compiled op's source line `l` (from 0) is the instruction the
//! analyses' [`Linear`] table numbers `l + 1`. Mapping an injected fault
//! at a PC back to a coverage `Window` relies on this.
//!
//! Checked over every suite kernel, as written and under the seven
//! postures `compile-suite` runs, and the first generated pool cases.

use gpu_rmt::ir::analysis::Linear;
use gpu_rmt::ir::fuzz::{child_seed, generate, GenConfig};
use gpu_rmt::ir::{validate, Inst, Kernel};
use gpu_rmt::kernels::all;
use gpu_rmt::rmt::{transform, TransformOptions};
use gpu_rmt::sim::{Device, DeviceConfig, FlatOp};

/// Root seed of the generated cases (the benchmark pool's seed).
const POOL_SEED: u64 = 2014;

/// Generated cases checked, starting at case 0.
const POOL_CASES: u64 = 64;

fn check(label: &str, kernel: &Kernel, dev: &Device) {
    let ck = dev.compile(kernel).expect("a valid kernel compiles");
    let lin = Linear::new(kernel);
    let mut seen = vec![false; lin.nodes.len()];
    for (pc, (op, &line)) in ck.ops.iter().zip(&ck.lines).enumerate() {
        let node = lin.node(line as usize + 1);
        let same = match (op, node.inst) {
            (FlatOp::Op(inst), src) => {
                seen[node.idx - 1] = true;
                inst == src
            }
            (FlatOp::IfBegin { cond, .. }, Inst::If { cond: c, .. }) => cond == c,
            (FlatOp::Else { .. } | FlatOp::EndIf, Inst::If { .. }) => true,
            (FlatOp::LoopTest { cond, .. }, Inst::While { cond_reg, .. }) => cond == cond_reg,
            (FlatOp::LoopBegin { .. } | FlatOp::LoopEnd { .. }, Inst::While { .. }) => true,
            _ => false,
        };
        assert!(same, "{label}: op {pc} {op:?} is not node {}", node.idx);
    }
    // Every instruction that is not a control container is lowered once.
    for (n, lowered) in lin.nodes.iter().zip(&seen) {
        assert_eq!(
            *lowered,
            !n.inst.is_control(),
            "{label}: node {} lowered {} times",
            n.idx,
            if *lowered { "some" } else { "no" }
        );
    }
}

#[test]
fn compiled_lines_are_linear_indices_minus_one() {
    let dev = Device::new(DeviceConfig::radeon_hd_7790());
    let [a, b, c, d] = TransformOptions::full_stage();
    let postures = [a.1, b.1, c.1, d.1]
        .into_iter()
        .chain([0, 50, 100].map(TransformOptions::selective));
    let postures: Vec<TransformOptions> = postures.collect();
    for bench in all() {
        let kernel = bench.kernel();
        check(bench.abbrev(), &kernel, &dev);
        for opts in &postures {
            let rk = transform(&kernel, opts).expect("suite kernels transform");
            check(&format!("{} {opts:?}", bench.abbrev()), &rk.kernel, &dev);
        }
    }
    for i in 0..POOL_CASES {
        let case = generate(child_seed(POOL_SEED, i), &GenConfig::default());
        if validate(&case.kernel).is_ok() {
            check(&format!("pool case {i}"), &case.kernel, &dev);
        }
    }
}
