//! Peak register-pressure estimation.
//!
//! The simulator maps this onto the GCN VGPR budget: a SIMD has 256
//! registers per lane, so a kernel needing `v` VGPRs admits at most
//! `256 / v` wavefronts per SIMD. RMT transformations add registers, which
//! is one of the three overhead components the paper isolates ("doubling
//! the size of work-groups", Figures 4 and 7).

use crate::analysis::linear::Linear;
use crate::kernel::Kernel;

/// Per-register live spans in linear program order, indexed by register
/// number (`None` for a register the kernel never names).
///
/// Instructions are numbered depth-first from 1 (the [`Linear`] numbering
/// [`register_pressure`] sweeps over); each register maps to the inclusive
/// `(first access, last access)` index range, already extended across any
/// loop region the range straddles or inhabits (the value must survive the
/// back-edge). The span length is the liveness weight the coverage analysis
/// ([`crate::analysis::coverage`]) uses for vulnerability fractions.
pub fn live_spans(kernel: &Kernel) -> Vec<Option<(usize, usize)>> {
    spans(&Linear::new(kernel), kernel.next_reg as usize)
}

/// [`live_spans`] over an already built table; `nregs` is the kernel's
/// register count.
pub(crate) fn spans(lin: &Linear, nregs: usize) -> Vec<Option<(usize, usize)>> {
    let mut spans: Vec<Option<(usize, usize)>> = vec![None; nregs];
    for n in &lin.nodes {
        for r in lin.srcs(n).iter().copied().chain(n.inst.dst()) {
            let i = r.0 as usize;
            if i >= spans.len() {
                spans.resize(i + 1, None);
            }
            match &mut spans[i] {
                Some(s) => s.1 = n.idx,
                none => *none = Some((n.idx, n.idx)),
            }
        }
    }
    let loops: Vec<(usize, usize)> = lin.loops().collect();
    for span in spans.iter_mut().flatten() {
        for &(ls, le) in &loops {
            let overlaps = span.0 <= le && span.1 >= ls;
            if overlaps {
                // Live into, out of, or within the loop: conservatively live
                // for the entire loop body.
                span.0 = span.0.min(ls);
                span.1 = span.1.max(le);
            }
        }
    }
    spans
}

/// Estimates the peak number of simultaneously-live virtual registers.
///
/// Registers accessed both inside and outside a loop are treated as live
/// across the whole loop; registers only used inside one loop region are
/// treated as live across that region too (loop-carried values cannot be
/// distinguished cheaply, and GCN register allocation is similarly
/// conservative across back-edges).
pub fn register_pressure(kernel: &Kernel) -> u32 {
    let spans = live_spans(kernel);
    let Some(last) = spans.iter().flatten().map(|&(_, e)| e).max() else {
        return 0;
    };
    // Sweep for max overlap: the live count changes by +1 at a span's
    // first index and by -1 one past its last.
    let mut delta = vec![0i32; last + 2];
    for &(s, e) in spans.iter().flatten() {
        delta[s] += 1;
        delta[e + 1] -= 1;
    }
    let mut live = 0i32;
    let mut max = 0i32;
    for d in delta {
        live += d;
        max = max.max(live);
    }
    max as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelBuilder;

    #[test]
    fn straight_line_pressure() {
        // Chain: each value used immediately -> low pressure.
        let mut b = KernelBuilder::new("chain");
        let mut v = b.const_u32(1);
        for _ in 0..10 {
            let one = b.const_u32(1);
            v = b.add_u32(v, one);
        }
        let buf = b.buffer_param("out");
        b.store_global(buf, v);
        let p = register_pressure(&b.finish());
        assert!(p <= 6, "chain pressure should be small, got {p}");
    }

    #[test]
    fn wide_pressure() {
        // Hold 16 values live simultaneously.
        let mut b = KernelBuilder::new("wide");
        let vals: Vec<_> = (0..16).map(|i| b.const_u32(i)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.add_u32(acc, v);
        }
        let buf = b.buffer_param("out");
        b.store_global(buf, acc);
        let p = register_pressure(&b.finish());
        assert!(p >= 16, "16 values live at once, got {p}");
    }

    #[test]
    fn loop_extends_liveness() {
        let mut b = KernelBuilder::new("loop");
        let outside: Vec<_> = (0..8).map(|i| b.const_u32(100 + i)).collect();
        let zero = b.const_u32(0);
        let n = b.const_u32(4);
        let buf = b.buffer_param("out");
        b.for_range(zero, n, |b, i| {
            // Use only one outside value per iteration; all 8 must still be
            // live across the loop.
            let a = b.elem_addr(buf, i);
            b.store_global(a, outside[0]);
        });
        for &v in &outside {
            b.store_global(buf, v);
        }
        let p = register_pressure(&b.finish());
        assert!(p >= 8, "outside values live across loop, got {p}");
    }

    #[test]
    fn empty_kernel_zero_pressure() {
        let b = KernelBuilder::new("empty");
        assert_eq!(register_pressure(&b.finish()), 0);
    }
}
