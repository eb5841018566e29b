//! Scaling tests: 2-D geometries under RMT doubling, and (ignored by
//! default) full paper/large-scale verification sweeps.
//!
//! Run the slow sweeps with:
//!
//! ```text
//! cargo test -p rmt-kernels --release --test scales -- --ignored
//! ```

use gcn_sim::DeviceConfig;
use rmt_core::TransformOptions;
use rmt_kernels::{all, by_abbrev, run_original, run_rmt, Scale};

#[test]
fn two_d_kernels_double_dimension_zero_under_intra() {
    // DCT ([8,8] locals), FW ([16,4]) and SC ([32,4]) exercise the 2-D
    // doubling path: local[0] doubles, local[1] is untouched.
    let cfg = DeviceConfig::small_test();
    for abbrev in ["DCT", "FW", "SC", "MM", "SF"] {
        let b = by_abbrev(abbrev).unwrap();
        for opts in [
            TransformOptions::intra_plus_lds(),
            TransformOptions::intra_plus_lds().with_swizzle(),
        ] {
            let run = run_rmt(b.as_ref(), Scale::Small, &cfg, &opts)
                .unwrap_or_else(|e| panic!("{abbrev} {opts:?}: {e}"));
            assert_eq!(run.detections, 0, "{abbrev} {opts:?}");
        }
    }
}

#[test]
fn inter_handles_2d_group_delinearization() {
    // The inter transform halves the dimension-0 group count and
    // re-derives 2-D group coordinates from the ticket.
    let cfg = DeviceConfig::small_test();
    for abbrev in ["DCT", "FW", "SC"] {
        let b = by_abbrev(abbrev).unwrap();
        let run = run_rmt(b.as_ref(), Scale::Small, &cfg, &TransformOptions::inter())
            .unwrap_or_else(|e| panic!("{abbrev}: {e}"));
        assert_eq!(run.detections, 0, "{abbrev}");
    }
}

#[test]
#[ignore = "slow: full paper-scale original sweep (~1 min release)"]
fn paper_scale_originals_verify() {
    let cfg = DeviceConfig::radeon_hd_7790();
    for b in all() {
        run_original(b.as_ref(), Scale::Paper, &cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", b.abbrev()));
    }
}

#[test]
#[ignore = "slow: full paper-scale RMT sweep (~5 min release)"]
fn paper_scale_rmt_verifies() {
    let cfg = DeviceConfig::radeon_hd_7790();
    for b in all() {
        for opts in [
            TransformOptions::intra_plus_lds(),
            TransformOptions::inter(),
        ] {
            let run = run_rmt(b.as_ref(), Scale::Paper, &cfg, &opts)
                .unwrap_or_else(|e| panic!("{} {opts:?}: {e}", b.abbrev()));
            assert_eq!(run.detections, 0, "{} {opts:?}", b.abbrev());
        }
    }
}

#[test]
#[ignore = "slow: large-scale spot checks (~5 min release)"]
fn large_scale_spot_checks_verify() {
    let cfg = DeviceConfig::radeon_hd_7790();
    for abbrev in ["BlkSch", "R", "SC", "URNG"] {
        let b = by_abbrev(abbrev).unwrap();
        run_original(b.as_ref(), Scale::Large, &cfg).unwrap_or_else(|e| panic!("{abbrev}: {e}"));
        let run = run_rmt(
            b.as_ref(),
            Scale::Large,
            &cfg,
            &TransformOptions::intra_plus_lds(),
        )
        .unwrap_or_else(|e| panic!("{abbrev}: {e}"));
        assert_eq!(run.detections, 0, "{abbrev}");
    }
}

#[test]
#[ignore = "slow: paper-scale character regression (~1 min release)"]
fn workload_characters_match_the_paper() {
    // Pin the Figure 3 clusters: if a kernel drifts out of its class
    // (e.g. an input-size change makes BitS L2-resident), the figures
    // silently lose their meaning. This test makes that drift loud.
    let cfg = DeviceConfig::radeon_hd_7790();
    let memory_bound = ["BinS", "BitS", "FWT"];
    let compute_bound = ["BlkSch", "QRS", "URNG", "DCT"];
    for abbrev in memory_bound {
        let b = by_abbrev(abbrev).unwrap();
        let run = run_original(b.as_ref(), Scale::Paper, &cfg).unwrap();
        let c = &run.stats.counters;
        assert!(
            c.memory_boundedness() > 1.0,
            "{abbrev} must be memory-bound: mem {:.1}% vs valu {:.1}%",
            c.mem_unit_busy_pct(),
            c.valu_busy_pct()
        );
    }
    for abbrev in compute_bound {
        let b = by_abbrev(abbrev).unwrap();
        let run = run_original(b.as_ref(), Scale::Paper, &cfg).unwrap();
        let c = &run.stats.counters;
        assert!(
            c.memory_boundedness() < 1.0,
            "{abbrev} must be compute-bound: valu {:.1}% vs mem {:.1}%",
            c.valu_busy_pct(),
            c.mem_unit_busy_pct()
        );
    }
    // BO is the LDS-bound outlier (Section 6.4).
    let bo = by_abbrev("BO").unwrap();
    let run = run_original(bo.as_ref(), Scale::Paper, &cfg).unwrap();
    let c = &run.stats.counters;
    assert!(
        c.lds_busy_pct() > c.mem_unit_busy_pct(),
        "BO must be LDS-bound: lds {:.1}% vs mem {:.1}%",
        c.lds_busy_pct(),
        c.mem_unit_busy_pct()
    );
    // NB and PS under-utilize the device (Section 7.4).
    for abbrev in ["NB", "PS"] {
        let b = by_abbrev(abbrev).unwrap();
        let run = run_original(b.as_ref(), Scale::Paper, &cfg).unwrap();
        let groups = run.stats.counters.groups_executed as usize;
        let capacity = cfg.num_cus * run.stats.occupancy.map(|o| o.groups_per_cu).unwrap_or(1);
        assert!(
            groups < capacity.max(cfg.num_cus * 2),
            "{abbrev} must under-utilize: {groups} groups vs capacity {capacity}"
        );
    }
}
