//! Figures 2, 3, 6 and 9: suite-wide performance and counter sweeps,
//! rendered from the cell store.

use crate::cells::{CellStore, Posture, Posture::*};
use crate::table::{pct, x, Table};
use crate::ExpConfig;
use rmt_core::TransformOptions;

/// The postures of Figures 2 and 3: Original, Intra-Group+LDS and
/// Intra-Group−LDS.
fn intra() -> [Posture; 3] {
    [
        Original,
        Rmt(TransformOptions::intra_plus_lds()),
        Rmt(TransformOptions::intra_minus_lds()),
    ]
}

/// Figure 2: Intra-Group ±LDS slowdowns across the 16-kernel suite.
pub fn fig2(cfg: &ExpConfig, cells: &mut CellStore) -> Result<String, String> {
    let mut t = Table::new(&["kernel", "Intra+LDS", "Intra-LDS"]);
    for (kernel, r) in cells.suite(cfg, "fig2", &intra())? {
        let base = r[0].stats.cycles as f64;
        t.row(vec![
            kernel.into(),
            x(r[1].stats.cycles as f64 / base),
            x(r[2].stats.cycles as f64 / base),
        ]);
    }
    Ok(format!(
        "Figure 2: Intra-Group RMT slowdowns (normalized to the original kernel)\n\n{}",
        t.render()
    ))
}

/// Figure 3: VALUBusy / MemUnitBusy / WriteUnitStalled for Original,
/// Intra-Group+LDS and Intra-Group−LDS.
pub fn fig3(cfg: &ExpConfig, cells: &mut CellStore) -> Result<String, String> {
    let mut t = Table::new(&[
        "kernel",
        "variant",
        "VALUBusy",
        "MemUnitBusy",
        "WriteUnitStalled",
        "LDSBusy",
    ]);
    for (kernel, r) in cells.suite(cfg, "fig3", &intra())? {
        for (name, run) in ["Original", "LDS+", "LDS-"].iter().zip(r) {
            let c = &run.stats.counters;
            t.row(vec![
                kernel.into(),
                (*name).into(),
                pct(c.valu_busy_pct()),
                pct(c.mem_unit_busy_pct()),
                pct(c.write_unit_stalled_pct()),
                pct(c.lds_busy_pct()),
            ]);
        }
    }
    Ok(format!(
        "Figure 3: kernel time in vector ALU vs memory operations\n\n{}",
        t.render()
    ))
}

/// Figure 6: Inter-Group slowdowns across the suite.
pub fn fig6(cfg: &ExpConfig, cells: &mut CellStore) -> Result<String, String> {
    let mut t = Table::new(&["kernel", "Inter-Group", "detections"]);
    for (kernel, r) in cells.suite(cfg, "fig6", &[Original, Rmt(TransformOptions::inter())])? {
        t.row(vec![
            kernel.into(),
            x(r[1].stats.cycles as f64 / r[0].stats.cycles as f64),
            r[1].detections.to_string(),
        ]);
    }
    Ok(format!(
        "Figure 6: Inter-Group RMT slowdowns (normalized to the original kernel)\n\n{}",
        t.render()
    ))
}

/// Figure 9: Intra-Group ±LDS, LDS communication vs FAST register-level
/// (swizzle) communication.
pub fn fig9(cfg: &ExpConfig, cells: &mut CellStore) -> Result<String, String> {
    let mut t = Table::new(&[
        "kernel",
        "Intra+LDS",
        "Intra+LDS FAST",
        "Intra-LDS",
        "Intra-LDS FAST",
    ]);
    let (plus, minus) = (
        TransformOptions::intra_plus_lds(),
        TransformOptions::intra_minus_lds(),
    );
    let postures = [
        Original,
        Rmt(plus),
        Rmt(plus.with_swizzle()),
        Rmt(minus),
        Rmt(minus.with_swizzle()),
    ];
    for (kernel, r) in cells.suite(cfg, "fig9", &postures)? {
        let base = r[0].stats.cycles as f64;
        let mut row = vec![kernel.to_string()];
        row.extend(r[1..].iter().map(|run| x(run.stats.cycles as f64 / base)));
        t.row(row);
    }
    Ok(format!(
        "Figure 9: Intra-Group RMT with LDS vs FAST (VRF swizzle) communication\n\n{}",
        t.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_small_renders_all_kernels() {
        let out = fig2(&ExpConfig::small(), &mut CellStore::new()).unwrap();
        for a in ["BinS", "URNG", "MM"] {
            assert!(out.contains(a), "missing {a} in:\n{out}");
        }
        assert!(out.contains('x'));
    }
}
