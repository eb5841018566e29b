//! Cross-crate integration: the full pipeline through the facade crate —
//! benchmark suite → RMT transforms → simulator → verification.

use gpu_rmt::kernels::{all, by_abbrev, run_original, run_rmt, Scale};
use gpu_rmt::rmt::{RmtFlavor, TransformOptions};
use gpu_rmt::sim::DeviceConfig;

#[test]
fn whole_suite_runs_and_verifies_original() {
    let cfg = DeviceConfig::small_test();
    for b in all() {
        let run = run_original(b.as_ref(), Scale::Small, &cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", b.abbrev()));
        assert!(run.stats.cycles > 0, "{}", b.abbrev());
        assert_eq!(run.detections, 0);
    }
}

#[test]
fn whole_suite_runs_under_every_full_flavor() {
    let cfg = DeviceConfig::small_test();
    for b in all() {
        for opts in [
            TransformOptions::intra_plus_lds(),
            TransformOptions::intra_minus_lds(),
            TransformOptions::inter(),
            TransformOptions::intra_plus_lds().with_swizzle(),
            TransformOptions::intra_minus_lds().with_swizzle(),
        ] {
            let run = run_rmt(b.as_ref(), Scale::Small, &cfg, &opts)
                .unwrap_or_else(|e| panic!("{} under {opts:?}: {e}", b.abbrev()));
            assert_eq!(
                run.detections,
                0,
                "{} under {opts:?}: spurious detection",
                b.abbrev()
            );
        }
    }
}

#[test]
fn rmt_is_never_catastrophically_slow_at_small_scale() {
    // Guardrail on the cost model: full RMT stays within an order of
    // magnitude of the original for every suite kernel.
    let cfg = DeviceConfig::small_test();
    for b in all() {
        let base = run_original(b.as_ref(), Scale::Small, &cfg)
            .unwrap()
            .stats
            .cycles as f64;
        for flavor in RmtFlavor::ALL {
            let opts = TransformOptions {
                flavor,
                comm: gpu_rmt::rmt::CommMode::Lds,
                stage: gpu_rmt::rmt::Stage::Full,
            };
            let cycles = run_rmt(b.as_ref(), Scale::Small, &cfg, &opts)
                .unwrap()
                .stats
                .cycles as f64;
            let slowdown = cycles / base;
            assert!(
                slowdown < 40.0,
                "{} under {flavor:?}: {slowdown:.1}x",
                b.abbrev()
            );
        }
    }
}

#[test]
fn memory_bound_kernels_are_cheap_under_intra() {
    // The paper's headline Intra-Group finding, checked end-to-end.
    let cfg = DeviceConfig::radeon_hd_7790();
    for abbrev in ["BinS", "FWT"] {
        let b = by_abbrev(abbrev).unwrap();
        let base = run_original(b.as_ref(), Scale::Small, &cfg)
            .unwrap()
            .stats
            .cycles as f64;
        let rmt = run_rmt(
            b.as_ref(),
            Scale::Small,
            &cfg,
            &TransformOptions::intra_plus_lds(),
        )
        .unwrap()
        .stats
        .cycles as f64;
        assert!(
            rmt / base < 1.9,
            "{abbrev}: memory-bound kernel should hide redundancy, got {:.2}x",
            rmt / base
        );
    }
}

#[test]
fn compute_bound_kernels_pay_roughly_double_under_intra() {
    let cfg = DeviceConfig::radeon_hd_7790();
    for abbrev in ["URNG", "QRS"] {
        let b = by_abbrev(abbrev).unwrap();
        let base = run_original(b.as_ref(), Scale::Paper, &cfg)
            .unwrap()
            .stats
            .cycles as f64;
        let rmt = run_rmt(
            b.as_ref(),
            Scale::Paper,
            &cfg,
            &TransformOptions::intra_plus_lds(),
        )
        .unwrap()
        .stats
        .cycles as f64;
        let slowdown = rmt / base;
        assert!(
            (1.5..2.6).contains(&slowdown),
            "{abbrev}: expected ~2x, got {slowdown:.2}x"
        );
    }
}

#[test]
fn counters_flow_through_the_facade() {
    let cfg = DeviceConfig::small_test();
    let b = by_abbrev("R").unwrap();
    let run = run_original(b.as_ref(), Scale::Small, &cfg).unwrap();
    let c = &run.stats.counters;
    assert!(c.dyn_insts > 0);
    assert!(c.bytes_loaded > 0);
    assert!(c.lds_insts > 0, "reduction stages through the LDS");
    assert!(c.barrier_waits > 0);
    assert!(run.stats.power.unwrap().avg_watts > 0.0);
}
