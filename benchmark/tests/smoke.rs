//! Every workload at one round or a little more, through the library:
//! each metric that `BENCHMARK.json` names is emitted, the simulated and
//! static results repeat exactly under one seed whatever the run's
//! length, and the result line has the agreed shape.

use rmt_bench::baseline::{parse, Json};
use rmt_benchmark::{run, screen_pool, Limit, Report, KNOWN_FAILING, WORKLOADS};

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// A run of `ops` untraced ops; the first round always runs in full.
fn short(workload: &str, ops: usize, trace: bool) -> Report {
    run(workload, 7, Limit::Ops(ops), trace).expect("set-up succeeds")
}

/// Per-layer metrics that are host time, not simulated or static results.
fn is_host_time(name: &str) -> bool {
    name.ends_with("busy_ms") || name.ends_with("ns_per_inst") || name.starts_with("trace.")
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    let names = declared("end_to_end");
    for w in WORKLOADS {
        let r = short(w, 1, false);
        assert_eq!(r.failed, 0, "{w}: {:?}", r.failures);
        assert_eq!(r.rounds, 1, "{w}");
        assert_eq!(r.attempted, r.samples as u64, "{w}");
        for n in &names {
            let v = r.metric(n).unwrap_or_else(|| panic!("{w}: no {n}"));
            assert!(v > 0.0, "{w}: {n} = {v}");
        }
        assert_eq!(
            r.metrics.len(),
            names.len(),
            "{w}: only the declared metrics"
        );

        let line = parse(&r.result_line()).expect("the result line is JSON");
        let Json::Obj(members) = &line else {
            panic!("the result line is an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    }
}

/// The second run goes a few ops past the first round, the fixed set of
/// ops the counts are taken over; the simulated and static results must
/// not move.
#[test]
fn traced_runs_emit_every_per_layer_metric_and_repeat_exactly() {
    let names = declared("per_layer");
    for w in WORKLOADS {
        let a = short(w, 1, true);
        let b = short(w, a.samples + 5, true);
        assert_eq!((a.rounds, b.rounds), (1, 2), "{w}");
        assert_eq!(
            a.failed + b.failed,
            0,
            "{w}: {:?} {:?}",
            a.failures,
            b.failures
        );
        for n in &names {
            let va = a.metric(n).unwrap_or_else(|| panic!("{w}: no {n}"));
            let vb = b.metric(n).expect("same metric set");
            if !is_host_time(n) {
                assert_eq!(va.to_bits(), vb.to_bits(), "{w}: {n} differs across runs");
            }
        }
        assert_eq!(
            a.metrics.len(),
            names.len(),
            "{w}: only the declared metrics"
        );
        let coverage = a.metric("trace.coverage").expect("declared");
        assert!(
            coverage > 0.95,
            "{w}: layer spans cover {coverage} of op time"
        );
        assert!(a.chrome_trace.as_deref().is_some_and(|t| parse(t).is_ok()));
    }
}

#[test]
fn unknown_workloads_are_rejected() {
    let err = run("nope", 1, Limit::Ops(1), false).expect_err("no such workload");
    assert!(err.contains("unknown workload"), "{err}");
}

/// Re-screens the whole generated-kernel pool, about two minutes:
/// `cargo test -- --ignored`. The cases the workloads skip must be
/// exactly the ones some layer rejects today.
#[test]
#[ignore]
fn skipped_pool_cases_are_the_failing_ones() {
    let failing = screen_pool();
    for (i, why) in &failing {
        println!("pool case {i}: {why}");
    }
    let indices: Vec<u64> = failing.iter().map(|(i, _)| *i).collect();
    assert_eq!(indices, KNOWN_FAILING);
}
