//! One module per reproduced table/figure. Each experiment renders a text
//! report; the `repro` binary dispatches on experiment id.

pub mod ablation;
pub mod bench;
pub mod coverage;
pub mod coverage_static;
pub mod decomp;
pub mod fuzz;
pub mod lint;
pub mod pareto;
pub mod perf;
pub mod power;
pub mod profile;
pub mod swizzle;
pub mod tables;
pub mod tv;

use crate::cells::CellStore;
use crate::ExpConfig;

/// Every experiment id, in paper order.
///
/// `bench` is deliberately absent: its report is wall-clock timing, so
/// including it would break the byte-stability of `repro all` output.
/// `fuzz` is absent too: its runtime scales with `--budget`, not with the
/// fixed suite, so it is opt-in rather than part of `repro all`.
/// `profile` is opt-in as well: it re-simulates the whole suite under
/// four flavors with profiling attached, duplicating work `repro all`
/// already does unprofiled.
pub const ALL_IDS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "coverage",
    "coverage-static",
    "staleness",
    "baseline",
    "ablation",
    "lint",
    "tv",
    "pareto",
];

/// Dispatches an experiment by id. The suite figures, `baseline`,
/// `ablation` and `pareto` read their fault-free runs from `cells`.
///
/// # Errors
///
/// Returns an error string for unknown ids or failed runs.
pub fn run(id: &str, cfg: &ExpConfig, cells: &mut CellStore) -> Result<String, String> {
    if !rmt_obs::enabled() {
        return dispatch(id, cfg, cells);
    }
    let t0 = std::time::Instant::now();
    let mut span = rmt_obs::span("exp", id.to_string());
    let res = dispatch(id, cfg, cells);
    let outcome = if res.is_ok() { "ok" } else { "err" };
    span.set_arg("outcome", outcome);
    span.set_arg("wall_us", t0.elapsed().as_micros() as u64);
    rmt_obs::add("exp.runs", &[("exp", id), ("outcome", outcome)], 1);
    res
}

fn dispatch(id: &str, cfg: &ExpConfig, cells: &mut CellStore) -> Result<String, String> {
    match id {
        "table1" => Ok(tables::table1()),
        "table2" => Ok(tables::table2()),
        "table3" => Ok(tables::table3()),
        "fig2" => perf::fig2(cfg, cells),
        "fig3" => perf::fig3(cfg, cells),
        "fig4" => decomp::fig4(cfg, cells),
        "fig5" => power::fig5(cfg, cells),
        "fig6" => perf::fig6(cfg, cells),
        "fig7" => decomp::fig7(cfg, cells),
        "fig8" => Ok(swizzle::fig8()),
        "fig9" => perf::fig9(cfg, cells),
        "coverage" => coverage::coverage(cfg),
        "coverage-static" => coverage_static::coverage_static(cfg),
        "staleness" => coverage::staleness(cfg),
        "baseline" => ablation::baseline(cfg, cells),
        "ablation" => ablation::ablation(cfg, cells),
        "lint" => lint::lint(cfg),
        "tv" => tv::tv(cfg),
        "pareto" => pareto::pareto(cfg, cells),
        "bench" => bench::bench(cfg),
        "fuzz" => fuzz::fuzz(cfg),
        "profile" => profile::profile(cfg),
        other => Err(format!(
            "unknown experiment `{other}`; known: {}",
            ALL_IDS.join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_lists_known() {
        let e = run("fig99", &ExpConfig::small(), &mut CellStore::new()).unwrap_err();
        assert!(e.contains("fig2"));
    }

    #[test]
    fn static_tables_render() {
        assert!(run("table1", &ExpConfig::small(), &mut CellStore::new())
            .unwrap()
            .contains("ECC"));
        assert!(run("table2", &ExpConfig::small(), &mut CellStore::new())
            .unwrap()
            .contains("LDS"));
        assert!(run("table3", &ExpConfig::small(), &mut CellStore::new())
            .unwrap()
            .contains("SRF"));
        assert!(run("fig8", &ExpConfig::small(), &mut CellStore::new())
            .unwrap()
            .contains("swizzle"));
    }
}
