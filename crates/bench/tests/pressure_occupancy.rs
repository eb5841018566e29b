//! Cross-checks the static register-pressure analysis against the
//! simulator's dispatcher: the VGPRs the dispatcher actually allocates per
//! wave must never be *below* the analyzer's estimate for the kernel that
//! was launched (original and every RMT flavor). An under-report here
//! would mean the occupancy model (and every figure derived from it) is
//! charging fewer registers than the kernel provably keeps live.

use gcn_sim::DeviceConfig;
use rmt_core::{transform, TransformOptions};
use rmt_ir::analysis::register_pressure;
use rmt_kernels::{run_original, run_rmt, Scale};

#[test]
fn dispatcher_never_allocates_below_static_pressure() {
    let dev_cfg = DeviceConfig::small_test();
    for bench in rmt_kernels::all() {
        // Original kernel.
        let orig_pressure = register_pressure(&bench.kernel());
        let out = run_original(bench.as_ref(), Scale::Small, &dev_cfg)
            .unwrap_or_else(|e| panic!("{} original: {e}", bench.abbrev()));
        let occ = out.stats.occupancy.expect("occupancy recorded");
        assert!(
            occ.vgprs_per_wave >= orig_pressure,
            "{}: dispatcher allocated {} VGPRs/wave, below static pressure {}",
            bench.abbrev(),
            occ.vgprs_per_wave,
            orig_pressure
        );

        // Every RMT flavor: the pressure of the *transformed* kernel is the
        // one the dispatcher must honor.
        for (label, opts) in TransformOptions::full_stage() {
            let rk = transform(&bench.kernel(), &opts)
                .unwrap_or_else(|e| panic!("{} {label}: transform: {e}", bench.abbrev()));
            let rmt_pressure = register_pressure(&rk.kernel);
            let out = run_rmt(bench.as_ref(), Scale::Small, &dev_cfg, &opts)
                .unwrap_or_else(|e| panic!("{} {label}: {e}", bench.abbrev()));
            let occ = out.stats.occupancy.expect("occupancy recorded");
            assert!(
                occ.vgprs_per_wave >= rmt_pressure,
                "{} {label}: dispatcher allocated {} VGPRs/wave, below static pressure {}",
                bench.abbrev(),
                occ.vgprs_per_wave,
                rmt_pressure
            );
            assert!(
                rmt_pressure >= orig_pressure,
                "{} {label}: RMT lowered pressure ({} -> {}), duplicated state lost",
                bench.abbrev(),
                orig_pressure,
                rmt_pressure
            );
        }
    }
}
