//! Extension experiments beyond the paper's figures:
//!
//! * `baseline` — naive full-duplication with host-side comparison (the
//!   related-work approach of Dimitrov et al. the paper argues against)
//!   next to the best RMT flavor per kernel;
//! * `ablation` — sensitivity of the headline results to the design
//!   choices DESIGN.md calls out in the machine model: L2 atomic banking
//!   (which gates Inter-Group communication cost), the CU write-buffer
//!   depth (which gates write-heavy kernels), RMT under reduced occupancy,
//!   and device scaling (CU count) — the lever behind the paper's
//!   CU-under-utilization findings for NB and PS.

use crate::cells::{CellKey, CellStore, Posture, Posture::*};
use crate::table::{x, Table};
use crate::ExpConfig;
use gcn_sim::DeviceConfig;
use rmt_core::TransformOptions;

/// The `baseline` experiment: naive duplication vs the RMT flavors.
pub fn baseline(cfg: &ExpConfig, cells: &mut CellStore) -> Result<String, String> {
    let postures = [
        Original,
        Duplicated,
        Rmt(TransformOptions::intra_plus_lds()),
        Rmt(TransformOptions::inter()),
    ];
    let mut t = Table::new(&["kernel", "naive 2x launch", "Intra+LDS", "Inter"]);
    for (kernel, r) in cells.suite(cfg, "baseline", &postures)? {
        if r[1].detections != 0 {
            return Err(format!(
                "{kernel}: naive duplication disagreed without faults"
            ));
        }
        let base = r[0].stats.cycles as f64;
        let mut row = vec![kernel.to_string()];
        row.extend(r[1..].iter().map(|run| x(run.stats.cycles as f64 / base)));
        t.row(row);
    }
    Ok(format!(
        "Baseline: naive kernel-launch duplication (host compares outputs)\n\
         vs on-GPU RMT. Naive duplication pays the full 2x everywhere and\n\
         cannot detect anything until the kernel completes; Intra-Group RMT\n\
         beats it wherever under-utilized resources hide redundancy.\n\n{}",
        t.render()
    ))
}

/// One sweep: for each of `values`, `kernel` under each of `postures` on a
/// device `edit` sets to that value.
fn sweep<T: Copy>(
    cfg: &ExpConfig,
    values: &[T],
    kernel: &'static str,
    postures: &[Posture],
    edit: impl Fn(&mut DeviceConfig, T),
) -> Vec<Vec<CellKey>> {
    let key = |p, v| CellKey::new(cfg, kernel, p).on(|d| edit(d, v));
    let row = |v| postures.iter().map(|&p| key(p, v)).collect();
    values.iter().map(|&v| row(v)).collect()
}

/// The `ablation` experiment: machine-model design-choice sensitivity.
/// Every cell of the four sweeps is filled in one fan-out.
pub fn ablation(cfg: &ExpConfig, cells: &mut CellStore) -> Result<String, String> {
    let (intra, inter) = (
        Rmt(TransformOptions::intra_plus_lds()),
        Rmt(TransformOptions::inter()),
    );
    let banks = [1usize, 2, 4, 8, 16];
    let a = sweep(cfg, &banks, "BlkSch", &[Original, inter], |d, n| {
        d.l2_banks = n
    });
    let lines = [2u64, 8, 16, 64];
    let b = sweep(cfg, &lines, "FWT", &[Original], |d, n| {
        d.lat.write_buffer_lines = n
    });
    let caps = [16usize, 8, 4, 2];
    let c = sweep(cfg, &caps, "BinS", &[Original, intra], |d, n| {
        d.max_groups_per_cu = n.min(d.max_groups_per_cu)
    });
    let cus = [4usize, 8, 12, 24];
    let num_cus = |d: &mut DeviceConfig, n| d.num_cus = n;
    let nb = sweep(cfg, &cus, "NB", &[Original, intra, inter], num_cus);
    let qrs = sweep(cfg, &cus, "QRS", &[Original, inter], num_cus);
    let keys = [
        a.concat(),
        b.concat(),
        c.concat(),
        nb.concat(),
        qrs.concat(),
    ]
    .concat();
    cells.fill(cfg, "ablation", &keys);
    let cycles = |k: &CellKey| cells.get(k).map(|r| r.stats.cycles);
    let mut out = String::new();

    let mut t = Table::new(&["L2 banks", "orig cycles", "Inter", "slowdown"]);
    for (n, k) in banks.iter().zip(&a) {
        let (base, inter) = (cycles(&k[0])?, cycles(&k[1])?);
        t.row(vec![
            n.to_string(),
            base.to_string(),
            inter.to_string(),
            x(inter as f64 / base as f64),
        ]);
    }
    out.push_str(&format!(
        "Ablation A: L2 atomic banking vs Inter-Group cost (BlkSch)\n\
         The communication protocol lives on L2 atomics; serializing them\n\
         through fewer banks inflates Inter-Group overhead while leaving\n\
         the original kernel almost untouched.\n\n{}\n",
        t.render()
    ));

    let mut t = Table::new(&["write buffer lines", "orig cycles", "WriteUnitStalled"]);
    for (n, k) in lines.iter().zip(&b) {
        let run = cells.get(&k[0])?;
        t.row(vec![
            n.to_string(),
            run.stats.cycles.to_string(),
            format!("{:.1}%", run.stats.counters.write_unit_stalled_pct()),
        ]);
    }
    out.push_str(&format!(
        "Ablation B: CU write-buffer depth vs the write-heavy FWT\n\n{}\n",
        t.render()
    ));

    let mut t = Table::new(&["groups/CU cap", "orig", "Intra+LDS", "slowdown"]);
    for (n, k) in caps.iter().zip(&c) {
        let (base, intra) = (cycles(&k[0])?, cycles(&k[1])?);
        t.row(vec![
            n.to_string(),
            base.to_string(),
            intra.to_string(),
            x(intra as f64 / base as f64),
        ]);
    }
    out.push_str(&format!(
        "Ablation C: occupancy pressure vs Intra-Group RMT (BinS)\n\
         Capping resident work-groups slows the memory-latency-bound\n\
         original as much as (or more than) the RMT version — the doubled\n\
         work-groups carry their own latency-hiding wavefronts, so the\n\
         relative cost of RMT stays flat or even dips under pressure.\n\n{}",
        t.render()
    ));

    let mut t = Table::new(&["CUs", "NB Intra+LDS", "NB Inter", "QRS Inter"]);
    for ((n, nb), qrs) in cus.iter().zip(&nb).zip(&qrs) {
        let (nb_base, qrs_base) = (cycles(&nb[0])? as f64, cycles(&qrs[0])? as f64);
        t.row(vec![
            n.to_string(),
            x(cycles(&nb[1])? as f64 / nb_base),
            x(cycles(&nb[2])? as f64 / nb_base),
            x(cycles(&qrs[1])? as f64 / qrs_base),
        ]);
    }
    out.push_str(&format!(
        "
Ablation D: CU count vs under-utilization (Section 7.4)
             NBody launches few work-groups: on a small device they saturate
             the CUs and Inter-Group RMT pays real money; with spare CUs the
             redundant groups spread out and Inter approaches 1x. A saturated
             kernel (QRS) keeps its Inter cost regardless of CU count.

{}",
        t.render()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_small_runs() {
        let out = baseline(&ExpConfig::small(), &mut CellStore::new()).unwrap();
        assert!(out.contains("naive"));
        assert!(out.contains("BinS"));
    }
}
