//! Coverage-guided selective hardening (ROADMAP item 4).
//!
//! Runs the [`rmt_ir::analysis::harden`] planner on the original kernel and
//! threads the resulting exit selection through the shared intra-group
//! rewrite: planned sphere-of-replication exits get the full
//! publish+compare sequence, unplanned ones the cheap consumer-only store.
//! Two degenerate budgets are pinned by tests:
//!
//! * a plan protecting **zero** exits emits the original body verbatim
//!   (plus the unused detect parameter, so the launch ABI stays uniform)
//!   and the launcher runs it un-replicated;
//! * budget 100 protects every exit and matches Intra-Group+LDS coverage.

use super::intra::{self, PlanInput};
use super::provenance::Provenance;
use super::{RmtKernel, RmtMeta, SelectiveMeta};
use crate::error::RmtError;
use crate::options::TransformOptions;
use rmt_ir::analysis::harden::{harden, HardenConfig};
use rmt_ir::{Kernel, Param, ParamKind};

pub(super) fn run(
    kernel: &Kernel,
    opts: &TransformOptions,
    budget: u8,
) -> Result<RmtKernel, RmtError> {
    let plan = harden(kernel, &HardenConfig::with_budget(budget));
    let candidate_exits = plan.exits.len() as u32;
    debug_assert!(plan
        .selected_exits
        .iter()
        .all(|&o| o < candidate_exits as usize));

    if plan.selected_exits.is_empty() {
        // Nothing fits under the budget: emit the original body verbatim.
        // No replication, no machinery — the launcher sees
        // `planned_exits == 0` and keeps the original geometry.
        let mut params = kernel.params.clone();
        params.push(Param {
            name: "__rmt_detect".into(),
            kind: ParamKind::Buffer,
        });
        let detect_param = params.len() - 1;
        let candidate_stores = plan.exits.iter().filter(|s| s.is_store).count() as u32;
        return Ok(RmtKernel {
            kernel: Kernel {
                name: format!("{}__rmt_selective_b{budget}", kernel.name),
                params,
                lds_bytes: kernel.lds_bytes,
                body: kernel.body.clone(),
                next_reg: kernel.next_reg,
            },
            meta: RmtMeta {
                options: *opts,
                orig_param_count: kernel.params.len(),
                detect_param,
                ticket_param: None,
                comm_param: None,
                orig_lds_bytes: kernel.lds_bytes,
                comm_bytes_per_item: 0,
                selective: Some(SelectiveMeta {
                    budget,
                    candidate_exits,
                    planned_exits: 0,
                    candidate_stores,
                    planned_stores: 0,
                }),
            },
            provenance: Provenance::new(kernel.next_reg),
        });
    }

    intra::run_with_plan(
        kernel,
        opts,
        Some(PlanInput {
            budget,
            planned: &plan.selected_exits,
            candidate_exits,
        }),
    )
}
