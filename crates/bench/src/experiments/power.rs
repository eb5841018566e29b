//! Figure 5: average and peak power for the long-running workloads.

use crate::cells::{CellKey, CellStore, Posture};
use crate::table::Table;
use crate::ExpConfig;
use rmt_core::TransformOptions;

/// Figure 5: average (and peak) estimated chip power for BO, BlkSch and FW
/// under Original / Intra+LDS / Intra−LDS — the three workloads whose
/// kernels run long enough for meaningful sampling (Section 6.5).
pub fn fig5(cfg: &ExpConfig, cells: &mut CellStore) -> Result<String, String> {
    let variants = [
        ("Original", Posture::Original),
        (
            "Intra+LDS",
            Posture::Rmt(TransformOptions::intra_plus_lds()),
        ),
        (
            "Intra-LDS",
            Posture::Rmt(TransformOptions::intra_minus_lds()),
        ),
    ];
    let keys: Vec<CellKey> = ["BO", "BlkSch", "FW"]
        .iter()
        .flat_map(|k| variants.map(|(_, p)| CellKey::new(cfg, k, p)))
        .collect();
    cells.fill(cfg, "fig5", &keys);
    let mut t = Table::new(&["kernel", "variant", "avg W", "peak W", "runtime ms"]);
    for (key, (name, _)) in keys.iter().zip(variants.iter().cycle()) {
        let p = cells.get(key)?.stats.power.ok_or("power stats missing")?;
        t.row(vec![
            key.kernel.into(),
            (*name).into(),
            format!("{:.1}", p.avg_watts),
            format!("{:.1}", p.peak_watts),
            format!("{:.3}", p.runtime_ms),
        ]);
    }
    Ok(format!(
        "Figure 5: average and peak estimated chip power\n(expectation: RMT moves runtime, not average power — Section 6.5)\n\n{}",
        t.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_small_reports_three_kernels() {
        let out = fig5(&ExpConfig::small(), &mut CellStore::new()).unwrap();
        assert!(out.contains("BO"));
        assert!(out.contains("BlkSch"));
        assert!(out.contains("FW"));
        assert!(out.matches("Original").count() == 3);
    }
}
