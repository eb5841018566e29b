//! Jobs-invariance: the experiment harness must produce byte-identical
//! reports for any `--jobs` value. Workers claim cells in nondeterministic
//! order, but every result lands back in its submission slot before
//! rendering — these tests pin that property end-to-end, including the
//! machine-readable `--json` form CI diffs, and pin that a figure reads
//! the same text from a cell store shared with other experiments as from
//! a fresh one.

use rmt_bench::cells::CellStore;
use rmt_bench::{experiments, ExpConfig};

#[test]
fn coverage_static_json_is_identical_across_jobs() {
    let mut cfg = ExpConfig::small();
    cfg.json = true;
    let serial =
        experiments::run("coverage-static", &cfg, &mut CellStore::new()).expect("serial run");
    let parallel = experiments::run(
        "coverage-static",
        &cfg.clone().with_jobs(8),
        &mut CellStore::new(),
    )
    .expect("parallel run");
    assert_eq!(
        serial, parallel,
        "coverage-static --json must be byte-identical at --jobs 1 and --jobs 8"
    );
}

#[test]
fn profile_json_is_identical_across_jobs() {
    let mut cfg = ExpConfig::small();
    cfg.json = true;
    let serial = experiments::run("profile", &cfg, &mut CellStore::new()).expect("serial run");
    let parallel = experiments::run("profile", &cfg.clone().with_jobs(8), &mut CellStore::new())
        .expect("parallel run");
    assert_eq!(
        serial, parallel,
        "profile --json must be byte-identical at --jobs 1 and --jobs 8"
    );
}

#[test]
fn tv_json_is_identical_across_jobs() {
    let mut cfg = ExpConfig::small();
    cfg.json = true;
    let serial = experiments::run("tv", &cfg, &mut CellStore::new()).expect("serial run");
    let parallel = experiments::run("tv", &cfg.clone().with_jobs(8), &mut CellStore::new())
        .expect("parallel run");
    assert_eq!(
        serial, parallel,
        "tv --json must be byte-identical at --jobs 1 and --jobs 8"
    );
}

/// The suite figures and `baseline` read one shared store at jobs 4
/// exactly as each reads a fresh store of its own at jobs 1, and the
/// seven figures need at most 12 distinct cells per kernel.
#[test]
fn shared_cell_store_matches_fresh_stores_across_jobs() {
    let figures = ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig9"];
    let cfg = ExpConfig::small();
    let mut shared = CellStore::new();
    let mut through_shared = Vec::new();
    for id in figures {
        let text = experiments::run(id, &cfg.clone().with_jobs(4), &mut shared);
        through_shared.push(text.expect("shared-store run"));
    }
    assert!(
        shared.simulated() <= 16 * 12,
        "{} cells simulated for the seven figures",
        shared.simulated()
    );
    let text = experiments::run("baseline", &cfg.clone().with_jobs(4), &mut shared);
    through_shared.push(text.expect("shared-store run"));
    for (id, shared_text) in figures
        .iter()
        .chain(["baseline"].iter())
        .zip(&through_shared)
    {
        let alone = experiments::run(id, &cfg, &mut CellStore::new()).expect("fresh-store run");
        assert_eq!(&alone, shared_text, "{id} differs through the shared store");
    }
}
