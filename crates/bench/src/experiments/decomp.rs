//! Figures 4 and 7: overhead decomposition into (1) doubled work-group
//! scheduling pressure, (2) redundant computation, (3) communication.
//!
//! Each (kernel, flavor) row is an [`rmt_core::decompose::Decomposition`]
//! read off stored cells, filled in two rounds: the Original, full RMT
//! and no-communication runs first, then the Original capped to the
//! occupancy the full RMT run achieved ([`inflation_cap`]).

use crate::cells::{CellKey, CellStore, Posture::*};
use crate::table::{pct, Table};
use crate::ExpConfig;
use rmt_core::decompose::{inflation_cap, Decomposition};
use rmt_core::TransformOptions;
use rmt_kernels::{all, RunOutcome};

/// The Original's resource-inflation cell for a `full` RMT run under
/// `opts`, or `None` where the occupancy arithmetic cannot be matched.
fn capped(orig: &CellKey, opts: &TransformOptions, full: &RunOutcome) -> Option<CellKey> {
    let g_rmt = full.stats.occupancy.map_or(1, |o| o.groups_per_cu);
    let cap = inflation_cap(opts.flavor, g_rmt)?;
    let capped = orig.clone();
    Some(capped.on(|d| d.max_groups_per_cu = cap.min(d.max_groups_per_cu)))
}

/// Fills the cells of each (kernel, flavor) decomposition in two rounds
/// and reads them into a [`Decomposition`], in (kernel, flavor) order.
fn decompositions(
    cfg: &ExpConfig,
    cells: &mut CellStore,
    exp: &'static str,
    flavors: &[(&'static str, TransformOptions)],
) -> Result<Vec<(&'static str, &'static str, Decomposition)>, String> {
    // Per (kernel, flavor): the Original, the full RMT run and the run
    // without communication.
    let trio = |k, o: &TransformOptions| {
        [Original, Rmt(*o), Rmt(o.without_comm())].map(|p| CellKey::new(cfg, k, p))
    };
    let rows: Vec<(&str, TransformOptions, [CellKey; 3])> = all()
        .iter()
        .flat_map(|b| {
            flavors
                .iter()
                .map(|&(name, o)| (name, o, trio(b.abbrev(), &o)))
        })
        .collect();
    let keys: Vec<CellKey> = rows.iter().flat_map(|(_, _, k)| k.clone()).collect();
    cells.fill(cfg, exp, &keys);
    // The capped Original's cap depends on the full run's occupancy.
    let capped_keys: Vec<CellKey> = rows
        .iter()
        .filter_map(|(_, o, k)| capped(&k[0], o, cells.get(&k[1]).ok()?))
        .collect();
    cells.fill(cfg, exp, &capped_keys);
    let cycles = |k: &CellKey| cells.get(k).map(|r| r.stats.cycles);
    rows.iter()
        .map(|(name, opts, [orig, full, red])| {
            let full = cells.get(full)?;
            let inflated = capped(orig, opts, full).map(|k| cycles(&k));
            let d = Decomposition {
                flavor: opts.flavor,
                base_cycles: cycles(orig)?,
                inflated_cycles: inflated.transpose()?,
                redundant_cycles: cycles(red)?,
                full_cycles: full.stats.cycles,
            };
            Ok((orig.kernel, *name, d))
        })
        .collect()
}

fn render(
    cfg: &ExpConfig,
    cells: &mut CellStore,
    exp: &'static str,
    title: &str,
    flavors: &[(&'static str, TransformOptions)],
) -> Result<String, String> {
    let mut t = Table::new(&["kernel", "flavor", "doubling", "redundant", "comm", "total"]);
    for (kernel, name, d) in decompositions(cfg, cells, exp, flavors)? {
        t.row(vec![
            kernel.into(),
            name.into(),
            d.doubling_overhead()
                .map_or("n/a".into(), |o| pct(100.0 * o)),
            pct(100.0 * d.redundant_overhead()),
            pct(100.0 * d.communication_overhead()),
            format!("{:.2}x", d.slowdown()),
        ]);
    }
    Ok(format!(
        "{title}\n(bars are additional slowdown added to the original kernel;\n\
         negative values are speed-ups from the respective modification)\n\n{}",
        t.render()
    ))
}

/// Figure 4: Intra-Group overhead decomposition.
pub fn fig4(cfg: &ExpConfig, cells: &mut CellStore) -> Result<String, String> {
    render(
        cfg,
        cells,
        "fig4",
        "Figure 4: relative overheads of Intra-Group RMT components",
        &[
            ("LDS+", TransformOptions::intra_plus_lds()),
            ("LDS-", TransformOptions::intra_minus_lds()),
        ],
    )
}

/// Figure 7: Inter-Group overhead decomposition ("doubling" is `n/a` where
/// the occupancy arithmetic cannot be matched — the paper's unstarred
/// kernels).
pub fn fig7(cfg: &ExpConfig, cells: &mut CellStore) -> Result<String, String> {
    render(
        cfg,
        cells,
        "fig7",
        "Figure 7: relative overheads of Inter-Group RMT components",
        &[("Inter", TransformOptions::inter())],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_components_sum_to_total() {
        let cfg = ExpConfig::small();
        let flavors = [("LDS+", TransformOptions::intra_plus_lds())];
        let rows = decompositions(&cfg, &mut CellStore::new(), "fig4", &flavors).unwrap();
        let (_, _, d) = rows.iter().find(|(k, _, _)| *k == "URNG").unwrap();
        let bars = d.doubling_overhead().unwrap() + d.redundant_overhead();
        let sum = 1.0 + bars + d.communication_overhead();
        assert!(
            (sum - d.slowdown()).abs() < 1e-9,
            "{sum} vs {}",
            d.slowdown()
        );
    }
}
