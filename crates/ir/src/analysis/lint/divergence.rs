//! Divergence checking.
//!
//! The engine walk already classifies every guard (non-uniform vs.
//! group-uniform, pair-uniform vs. pair-splitting) from the symbolic
//! condition polynomials, which is strictly stronger than the syntactic
//! register taint in [`crate::validate`]: a condition on
//! `local_id >> 1` is correctly recognized as pair-uniform, and a
//! condition fed by an LDS load is correctly treated as divergent (the
//! LDS has no scalar path, so nothing proves all lanes read the same
//! value).
//!
//! Two instruction classes are policed:
//!
//! * **`Barrier`** under any guard (If or While) whose condition can
//!   differ between work-items of one group — a hang or undefined
//!   behaviour on real hardware (OpenCL 1.x barrier divergence rule).
//!   This generalizes the seed validator's "no barrier inside any If"
//!   rule to arbitrarily nested, *uniformity-aware* regions: a barrier
//!   under `if (n > 512)` with uniform `n` is fine.
//! * **`Swizzle`** under a guard that is not uniform across even/odd
//!   lane pairs. All [`crate::SwizzleMode`]s exchange within a pair, and
//!   GCN `ds_swizzle` reads the source VGPR regardless of EXEC mask, so
//!   a *pair-uniform* divergent guard (e.g. the RMT transforms' remapped
//!   `lid' == 0`) is still safe: both lanes of a pair are enabled
//!   together and the producer lane's register holds the live value. A
//!   guard on the raw lane id can split a pair and read stale data.
//!
//!   The rule is *staleness-aware*: only swizzle sources **defined while
//!   a pair-splitting guard is active** are flagged (tracked with a
//!   definition clock against the guard's push time). A value computed
//!   before the `if` is live in the disabled lane's register — GCN
//!   `ds_swizzle` reads it regardless of EXEC — so exchanging it inside
//!   the guard is well-defined. Pair-uniformity itself is closed over
//!   data flow: values loaded from pair-uniform addresses, and values
//!   merged from both branches of a pair-uniform `if`, compare equal
//!   across the pair and keep downstream guards pair-uniform.
//!
//! The checks run during the engine walk; this module packages them as a
//! standalone pass entry point.

use super::engine::Engine;
use super::expr::LintAssumptions;
use super::Diagnostic;
use crate::analysis::uniformity::{has_divergent_sync, SyncSites};
use crate::kernel::Kernel;

/// Runs only the divergence family on `kernel`.
///
/// Fast path: the shared taint fixpoint from
/// [`crate::analysis::uniformity`] screens the kernel first — when no
/// barrier or swizzle sits under even a coarsely-divergent guard, the
/// symbolic engine walk is skipped entirely.
pub fn check_divergence(kernel: &Kernel, asm: &LintAssumptions) -> Vec<Diagnostic> {
    if !has_divergent_sync(kernel, SyncSites::BarriersAndSwizzles) {
        debug_assert!(
            Engine::new(kernel, *asm).run().divergence.is_empty(),
            "taint pre-filter certified `{}` clean but the engine disagrees",
            kernel.name
        );
        return Vec::new();
    }
    Engine::new(kernel, *asm).run().divergence
}
