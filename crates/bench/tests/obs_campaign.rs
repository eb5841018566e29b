//! Campaign observability end-to-end: deterministic snapshots are
//! byte-identical for any worker count, the fault-injection ledger counts
//! every attempt, metrics JSON round-trips through the repo's own parser,
//! and a profiled single-kernel run merges the device timeline into the
//! campaign trace.
//!
//! The observability state is process-global, and integration tests in
//! one binary run on parallel threads — every test here takes `lock()`
//! first so campaigns never interleave.

use rmt_bench::cells::CellStore;
use rmt_bench::{baseline, experiments, ExpConfig};
use rmt_core::campaign::{pick_sites, SiteKind};
use rmt_core::{coverage, transform, TransformOptions};
use rmt_ir::analysis::Protection;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Runs the fig5 sweep (9 pooled cells) as a recorded deterministic
/// campaign and returns the metrics snapshot.
fn fig5_metrics(jobs: usize) -> String {
    rmt_obs::enable(rmt_obs::Clock::Logical);
    let cfg = ExpConfig::small().with_jobs(jobs);
    experiments::run("fig5", &cfg, &mut CellStore::new()).expect("fig5 runs");
    let m = rmt_obs::metrics_json();
    rmt_obs::disable();
    m
}

#[test]
fn deterministic_metrics_are_byte_identical_across_jobs() {
    let _g = lock();
    let serial = fig5_metrics(1);
    let parallel = fig5_metrics(8);
    assert!(
        serial.contains("\"exp.cells\"") || serial.contains("exp.cells"),
        "cell counters missing:\n{serial}"
    );
    assert!(serial.contains("sim.cycles"), "sim counters missing");
    let doc = baseline::parse(&serial).expect("snapshot parses");
    let cells: f64 = doc
        .get("counters")
        .and_then(baseline::Json::as_array)
        .expect("counters")
        .iter()
        .filter(|c| c.get("name").and_then(baseline::Json::as_str) == Some("exp.cells"))
        .filter_map(|c| c.get("value").and_then(baseline::Json::as_f64))
        .sum();
    assert_eq!(cells, 9.0, "fig5 alone records its 9 cells");
    assert_eq!(
        serial, parallel,
        "deterministic snapshots must not depend on --jobs"
    );
}

/// Runs `pareto --protect 50` as a recorded deterministic campaign and
/// returns the metrics snapshot.
fn pareto_metrics(jobs: usize) -> rmt_obs::MetricsSnapshot {
    rmt_obs::enable(rmt_obs::Clock::Logical);
    let mut cfg = ExpConfig::small().with_jobs(jobs);
    cfg.protect = Some(50);
    experiments::run("pareto", &cfg, &mut CellStore::new()).expect("pareto runs");
    let m = rmt_obs::metrics_snapshot();
    rmt_obs::disable();
    m
}

#[test]
fn pareto_ledger_is_jobs_independent_and_counts_every_attempt() {
    let _g = lock();
    let serial = pareto_metrics(1);
    let parallel = pareto_metrics(8);
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "deterministic snapshots must not depend on --jobs"
    );
    let ledger: u64 = serial
        .counters
        .iter()
        .filter(|c| c.name == "fault.outcome")
        .map(|c| c.value)
        .sum();
    // Every attempt, missed ones included: each analysis-chosen site at
    // its fixed coordinates (two for a Detected VGPR), at two triggers.
    let attempts: usize = rmt_kernels::all()
        .iter()
        .map(|b| {
            let rk = transform(&b.kernel(), &TransformOptions::selective(50)).expect("transform");
            let report = coverage::analyze(&rk);
            pick_sites(&rk, &report)
                .iter()
                .map(|s| match s.kind {
                    SiteKind::Vgpr(_) if s.class == Protection::Detected => 4,
                    _ => 2,
                })
                .sum::<usize>()
        })
        .sum();
    assert!(attempts > 0);
    assert_eq!(ledger, attempts as u64);
}

#[test]
fn metrics_json_round_trips_through_own_parser() {
    let _g = lock();
    rmt_obs::enable(rmt_obs::Clock::Logical);
    rmt_obs::add("test.counter", &[("kernel", "MM"), ("flavor", "Inter")], 42);
    rmt_obs::gauge_max("test.gauge", &[], 7);
    rmt_obs::observe("test.hist", &[], 100);
    rmt_obs::observe("test.hist", &[], 100_000);
    let json = rmt_obs::metrics_json();
    rmt_obs::disable();

    let doc = baseline::parse(&json).expect("snapshot parses");
    assert_eq!(
        doc.get("schema_version").and_then(baseline::Json::as_f64),
        Some(1.0)
    );
    assert_eq!(
        doc.get("kind").and_then(baseline::Json::as_str),
        Some("metrics")
    );
    assert_eq!(
        doc.get("clock").and_then(baseline::Json::as_str),
        Some("logical")
    );
    // write -> parse -> write is byte-identical (the snapshot writer and
    // the Json Display agree on the compact rendering).
    assert_eq!(format!("{doc}\n"), json);
}

#[test]
fn wall_observations_are_dropped_under_logical_clock() {
    let _g = lock();
    rmt_obs::enable(rmt_obs::Clock::Logical);
    rmt_obs::observe_wall_us("test.wall_us", &[], 123);
    rmt_obs::observe("test.sim", &[], 123);
    let json = rmt_obs::metrics_json();
    rmt_obs::disable();
    assert!(
        !json.contains("test.wall_us"),
        "wall histogram leaked into a deterministic snapshot:\n{json}"
    );
    assert!(json.contains("test.sim"));
}

#[test]
fn profile_single_merges_device_timeline_into_campaign_trace() {
    let _g = lock();
    rmt_obs::enable(rmt_obs::Clock::Wall);
    let mut cfg = ExpConfig::small();
    cfg.kernel = Some("R".into());
    cfg.flavor = Some("intra-lds".into());
    experiments::run("profile", &cfg, &mut CellStore::new()).expect("profile runs");
    let trace = rmt_obs::chrome_trace_json();
    rmt_obs::disable();

    // One Perfetto-loadable document holding both views: the device
    // timeline (pid 0, "gcn-sim") and the campaign spans (pid 1,
    // "rmt-campaign").
    let doc = baseline::parse(&trace).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(baseline::Json::as_array)
        .expect("trace_event document");
    assert!(events.len() > 2, "trace suspiciously empty");
    assert!(trace.contains("\"gcn-sim\""), "device process missing");
    assert!(
        trace.contains("\"rmt-campaign\""),
        "campaign process missing"
    );
    assert!(trace.contains("\"occupancy\""), "device counters missing");
}

#[test]
fn disabled_campaign_records_nothing() {
    let _g = lock();
    rmt_obs::disable();
    rmt_obs::add("test.ghost", &[], 1);
    assert_eq!(rmt_obs::chrome_trace_json(), "{\"traceEvents\":[]}");
    assert!(!rmt_obs::metrics_json().contains("test.ghost"));
}
