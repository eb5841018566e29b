//! Overhead decomposition (paper Figures 4 and 7).
//!
//! RMT slowdown is split into three additive components by running staged
//! variants:
//!
//! 1. **Doubling the size of work-groups** — the original kernel with its
//!    per-CU occupancy capped to what the RMT version achieves ("reserving"
//!    the space the redundant work would occupy, Section 6.4's resource-
//!    inflation methodology);
//! 2. **Adding redundant computation** — the RMT transform with
//!    communication and comparison removed ([`Stage::RedundantNoComm`]);
//! 3. **Adding communication** — the full transform.

use crate::error::RmtError;
use crate::launcher::RmtLauncher;
use crate::options::{RmtFlavor, Stage, TransformOptions};
use crate::transform::transform;
use gcn_sim::{Device, DeviceConfig, LaunchConfig};
use rmt_ir::Kernel;

/// Cycle counts for the staged variants of one kernel × flavor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decomposition {
    /// The flavor decomposed.
    pub flavor: RmtFlavor,
    /// Original kernel, untouched.
    pub base_cycles: u64,
    /// Original kernel with RMT-matched occupancy (`None` when the
    /// occupancy arithmetic cannot be matched — the paper's unstarred
    /// kernels in Figure 7).
    pub inflated_cycles: Option<u64>,
    /// Redundant computation without communication.
    pub redundant_cycles: u64,
    /// Full RMT.
    pub full_cycles: u64,
}

impl Decomposition {
    /// Total slowdown of full RMT over the original.
    pub fn slowdown(&self) -> f64 {
        self.full_cycles as f64 / self.base_cycles as f64
    }

    /// Overhead fraction attributed to doubled work-group scheduling
    /// pressure (first bar of Figures 4/7). `None` if unmeasurable.
    pub fn doubling_overhead(&self) -> Option<f64> {
        self.inflated_cycles
            .map(|i| (i as f64 - self.base_cycles as f64) / self.base_cycles as f64)
    }

    /// Overhead fraction attributed to redundant computation (second bar).
    /// Measured against the inflated run when available, else the base.
    pub fn redundant_overhead(&self) -> f64 {
        let from = self.inflated_cycles.unwrap_or(self.base_cycles);
        (self.redundant_cycles as f64 - from as f64) / self.base_cycles as f64
    }

    /// Overhead fraction attributed to communication and output comparison
    /// (third bar).
    pub fn communication_overhead(&self) -> f64 {
        (self.full_cycles as f64 - self.redundant_cycles as f64) / self.base_cycles as f64
    }
}

/// The resource-inflation cap on the original kernel's resident groups
/// per CU, given the full RMT run's `rmt_groups`. Intra: the same *count*
/// of groups. Inter: two RMT groups hold one original group's work, so
/// half, and only for even counts (the paper's starred subset); `None`
/// otherwise.
pub fn inflation_cap(flavor: RmtFlavor, rmt_groups: usize) -> Option<usize> {
    match flavor {
        RmtFlavor::Inter => rmt_groups.is_multiple_of(2).then_some(rmt_groups / 2),
        _ => Some(rmt_groups),
    }
}

/// Runs the full decomposition for one kernel × flavor.
///
/// `setup` prepares a fresh device for each staged run: it allocates and
/// fills buffers and returns the *original* launch configuration. It is
/// called once per stage so that non-idempotent kernels see identical
/// initial state.
///
/// # Errors
///
/// Propagates transform and simulator errors from any stage.
pub fn decompose(
    dev_cfg: &DeviceConfig,
    kernel: &Kernel,
    opts: &TransformOptions,
    setup: &mut dyn FnMut(&mut Device) -> LaunchConfig,
) -> Result<Decomposition, RmtError> {
    assert_eq!(
        opts.stage,
        Stage::Full,
        "decompose() derives the staged variants itself"
    );

    // Stage 0: the untouched original.
    let mut dev = Device::new(dev_cfg.clone());
    let base_launch = setup(&mut dev);
    let base = dev.launch(kernel, &base_launch)?;

    // Full RMT (also tells us the occupancy to reserve).
    let rk_full = transform(kernel, opts)?;
    let mut dev = Device::new(dev_cfg.clone());
    let launch = setup(&mut dev);
    let full = RmtLauncher::new().launch(&mut dev, &rk_full, &launch)?;
    let rmt_groups_per_cu = full.stats.occupancy.groups_per_cu;

    // Redundant computation, no communication.
    let rk_red = transform(kernel, &opts.without_comm())?;
    let mut dev = Device::new(dev_cfg.clone());
    let launch = setup(&mut dev);
    let red = RmtLauncher::new().launch(&mut dev, &rk_red, &launch)?;

    // Resource inflation: original kernel, occupancy capped to match RMT.
    let inflated_cycles = match inflation_cap(opts.flavor, rmt_groups_per_cu) {
        Some(cap) => {
            let mut capped = dev_cfg.clone();
            capped.max_groups_per_cu = cap.min(capped.max_groups_per_cu);
            let mut dev = Device::new(capped);
            let launch = setup(&mut dev);
            Some(dev.launch(kernel, &launch)?.cycles)
        }
        None => None,
    };

    Ok(Decomposition {
        flavor: opts.flavor,
        base_cycles: base.cycles,
        inflated_cycles,
        redundant_cycles: red.stats.cycles,
        full_cycles: full.stats.cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcn_sim::Arg;
    use rmt_ir::KernelBuilder;

    fn saxpyish() -> Kernel {
        let mut b = KernelBuilder::new("sx");
        let inp = b.buffer_param("in");
        let out = b.buffer_param("out");
        let gid = b.global_id(0);
        let ia = b.elem_addr(inp, gid);
        let oa = b.elem_addr(out, gid);
        let v = b.load_global(ia);
        let c = b.const_u32(17);
        let mut w = b.mul_u32(v, c);
        for _ in 0..16 {
            w = b.xor_u32(w, gid);
            w = b.mul_u32(w, c);
        }
        b.store_global(oa, w);
        b.finish()
    }

    #[test]
    fn decomposition_stages_are_ordered() {
        let k = saxpyish();
        let d = decompose(
            &DeviceConfig::small_test(),
            &k,
            &TransformOptions::intra_plus_lds(),
            &mut |dev| {
                let ib = dev.create_buffer(4096 * 4);
                let ob = dev.create_buffer(4096 * 4);
                dev.write_u32s(ib, &(0..4096).collect::<Vec<u32>>());
                LaunchConfig::new_1d(4096, 64)
                    .arg(Arg::Buffer(ib))
                    .arg(Arg::Buffer(ob))
            },
        )
        .unwrap();
        assert!(d.base_cycles > 0);
        assert!(
            d.redundant_cycles >= d.base_cycles,
            "redundant work cannot be free: {} vs {}",
            d.redundant_cycles,
            d.base_cycles
        );
        assert!(
            d.full_cycles >= d.redundant_cycles,
            "communication cannot be free: {} vs {}",
            d.full_cycles,
            d.redundant_cycles
        );
        assert!(d.slowdown() >= 1.0);
        // The three components plus 1.0 reconstruct the slowdown.
        if let Some(doubling) = d.doubling_overhead() {
            let total = 1.0 + doubling + d.redundant_overhead() + d.communication_overhead();
            assert!((total - d.slowdown()).abs() < 1e-9);
        }
    }

    #[test]
    fn inter_inflation_skipped_for_odd_occupancy() {
        // We don't control occupancy parity here; just check the contract:
        // when inflated_cycles is None the overheads still compose.
        let k = saxpyish();
        let d = decompose(
            &DeviceConfig::small_test(),
            &k,
            &TransformOptions::inter(),
            &mut |dev| {
                let ib = dev.create_buffer(2048 * 4);
                let ob = dev.create_buffer(2048 * 4);
                dev.write_u32s(ib, &(7..2055).collect::<Vec<u32>>());
                LaunchConfig::new_1d(2048, 64)
                    .arg(Arg::Buffer(ib))
                    .arg(Arg::Buffer(ob))
            },
        )
        .unwrap();
        assert!(
            d.full_cycles > d.base_cycles,
            "inter RMT is never free here"
        );
        let reconstructed = 1.0
            + d.doubling_overhead().unwrap_or(0.0)
            + d.redundant_overhead()
            + d.communication_overhead();
        assert!((reconstructed - d.slowdown()).abs() < 1e-9);
    }
}
