//! Golden-counter snapshot: pins the simulator's full performance-counter
//! output for three representative kernels under three flavors.
//!
//! The interpreter's hot paths get optimized over time (operand
//! pre-decode, full-mask fast paths, scratch-buffer reuse); this test is
//! the proof such rewrites are *semantics-preserving*: every counter the
//! machine model exposes — cycles, busy ticks, cache transactions, bytes
//! moved, LDS conflicts — must stay bit-identical to the checked-in
//! snapshot.
//!
//! To regenerate after an intentional machine-model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p rmt-kernels --test golden_counters
//! ```

use gcn_sim::{DeviceConfig, SimEngine};
use rmt_core::TransformOptions;
use rmt_kernels::{by_abbrev, run_original, run_rmt, Scale};

const SNAP_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_counters.snap");

fn snapshot(engine: SimEngine) -> String {
    let mut dev = DeviceConfig::radeon_hd_7790();
    dev.engine = engine;
    let flavors: [(&str, Option<TransformOptions>); 3] = [
        ("Original", None),
        ("Intra+LDS", Some(TransformOptions::intra_plus_lds())),
        ("Inter", Some(TransformOptions::inter())),
    ];
    // FWT (butterfly LDS traffic) and BlkSch (transcendental-bound) pin
    // only the Inter flavor: its cross-group comm protocol exercises
    // counter paths (global polling, ticket traffic) the intra flavors
    // never touch.
    let inter_only: [(&str, Option<TransformOptions>); 1] =
        [("Inter", Some(TransformOptions::inter()))];
    let mut out = String::new();
    for abbrev in ["R", "MM", "PS", "FWT", "BlkSch"] {
        let b = by_abbrev(abbrev).expect("known benchmark");
        let flavors: &[(&str, Option<TransformOptions>)] = if matches!(abbrev, "FWT" | "BlkSch") {
            &inter_only
        } else {
            &flavors
        };
        for (name, opts) in flavors {
            let run = match opts {
                None => run_original(b.as_ref(), Scale::Small, &dev),
                Some(o) => run_rmt(b.as_ref(), Scale::Small, &dev, o),
            }
            .unwrap_or_else(|e| panic!("{abbrev} {name}: {e}"));
            out.push_str(&format!(
                "== {abbrev} {name} (cycles {}) ==\n{:#?}\n\n",
                run.stats.cycles, run.stats.counters
            ));
        }
    }
    out
}

#[test]
fn counters_match_golden_snapshot() {
    let got = snapshot(SimEngine::Event);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(SNAP_PATH, &got).expect("write golden snapshot");
        return;
    }
    assert_matches_snapshot(&got);
}

/// The lock-step reference engine must reproduce the SAME committed
/// snapshot, bit for bit — never regenerated from this test
/// (`UPDATE_GOLDEN` only writes from the event engine above).
#[test]
fn counters_match_golden_snapshot_lockstep() {
    assert_matches_snapshot(&snapshot(SimEngine::LockStep));
}

fn assert_matches_snapshot(got: &str) {
    let want = std::fs::read_to_string(SNAP_PATH).expect(
        "golden snapshot missing; create it with \
         UPDATE_GOLDEN=1 cargo test -p rmt-kernels --test golden_counters",
    );
    if got != want {
        let mismatch = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w);
        match mismatch {
            Some((i, (g, w))) => panic!(
                "counters diverged from the golden snapshot at line {}:\n  \
                 got:  {g}\n  want: {w}\n\
                 (if intended, regenerate with UPDATE_GOLDEN=1)",
                i + 1
            ),
            None => panic!(
                "counters diverged from the golden snapshot (length only: \
                 {} vs {} bytes); if intended, regenerate with UPDATE_GOLDEN=1",
                got.len(),
                want.len()
            ),
        }
    }
}
