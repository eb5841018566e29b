//! Host-side support for launching RMT-transformed kernels.
//!
//! The paper transforms kernels automatically but leaves the small host
//! modifications to the application (Section 4); this module is that host
//! side: it doubles the NDRange, allocates and zeroes the detection
//! counter / ticket counter / communication buffers, appends them to the
//! argument list, and reads back the detection count.

use crate::error::RmtError;
use crate::options::Stage;
use crate::transform::RmtKernel;
use gcn_sim::{Arg, BufferId, CompiledKernel, Device, LaunchConfig, LaunchStats};

/// Result of one RMT launch.
#[derive(Debug, Clone, PartialEq)]
pub struct RmtRunResult {
    /// Simulator statistics for the transformed launch.
    pub stats: LaunchStats,
    /// Output mismatches detected by the redundant threads (word 0 of the
    /// detection buffer). Zero in fault-free runs.
    pub detections: u32,
}

/// Reusable launcher that owns the RMT scratch buffers.
///
/// Buffers are recycled between launches (and re-zeroed), so repeated runs
/// — the evaluation takes the average of 20 (Section 5) — do not grow
/// device memory.
#[derive(Debug, Default)]
pub struct RmtLauncher {
    detect: Option<BufferId>,
    ticket: Option<BufferId>,
    comm: Option<(BufferId, u32)>,
}

impl RmtLauncher {
    /// Creates a launcher with no scratch buffers yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the transformed launch geometry for a base configuration:
    /// intra-group doubles the work-group (dimension 0), inter-group
    /// doubles the group count (dimension 0).
    ///
    /// # Errors
    ///
    /// [`RmtError::Geometry`] if doubling overflows, or if intra-group
    /// doubling would exceed the device's maximum work-group size.
    fn rmt_geometry(
        dev: &Device,
        rk: &RmtKernel,
        base: &LaunchConfig,
    ) -> Result<([usize; 3], [usize; 3]), RmtError> {
        let mut global = base.global;
        let mut local = base.local;
        if !rk.meta.replicates() {
            // Selective plan with zero protected exits: the kernel is the
            // original body and runs on the original geometry.
            return Ok((global, local));
        }
        let double = |n: usize| {
            n.checked_mul(2)
                .ok_or_else(|| RmtError::Geometry(format!("doubled dimension {n} overflows")))
        };
        global[0] = double(global[0])?;
        if rk.meta.options.flavor.is_intra() {
            local[0] = double(local[0])?;
            let limit = dev.config().max_workgroup_size;
            let group = local.iter().try_fold(1usize, |a, &d| a.checked_mul(d));
            if group.is_none_or(|g| g > limit) {
                let group = group.map_or_else(|| format!("{local:?}"), |g| g.to_string());
                return Err(RmtError::Geometry(format!(
                    "doubled work-group of {group} exceeds device limit {limit}"
                )));
            }
        }
        Ok((global, local))
    }

    /// Launches a transformed kernel.
    ///
    /// `base` describes the *original* launch: original geometry and the
    /// original kernel's arguments. The launcher doubles the geometry per
    /// flavor and appends the RMT buffers.
    ///
    /// # Errors
    ///
    /// Geometry errors, argument-count mismatches, and any simulator error.
    pub fn launch(
        &mut self,
        dev: &mut Device,
        rk: &RmtKernel,
        base: &LaunchConfig,
    ) -> Result<RmtRunResult, RmtError> {
        let compiled = dev.compile(&rk.kernel)?;
        self.launch_compiled(dev, rk, &compiled, base)
    }

    /// [`RmtLauncher::launch`] with `rk.kernel` already compiled, so
    /// repeated launches of one transformed kernel compile it once.
    ///
    /// # Errors
    ///
    /// Same as [`RmtLauncher::launch`].
    pub fn launch_compiled(
        &mut self,
        dev: &mut Device,
        rk: &RmtKernel,
        compiled: &CompiledKernel,
        base: &LaunchConfig,
    ) -> Result<RmtRunResult, RmtError> {
        let (cfg, detect) = self.prepare(dev, rk, base)?;
        let stats = dev.launch_compiled(compiled, &cfg)?;
        let detections = dev.read_u32s(detect)[0];
        Ok(RmtRunResult { stats, detections })
    }

    /// Builds the transformed launch configuration: doubled geometry plus
    /// the detection / ticket / communication buffers appended to the
    /// original argument list. Returns the config and the detection
    /// buffer to read back.
    fn prepare(
        &mut self,
        dev: &mut Device,
        rk: &RmtKernel,
        base: &LaunchConfig,
    ) -> Result<(LaunchConfig, BufferId), RmtError> {
        if base.args.len() != rk.meta.orig_param_count {
            return Err(RmtError::Geometry(format!(
                "base launch supplies {} args, original kernel had {} params",
                base.args.len(),
                rk.meta.orig_param_count
            )));
        }
        let (global, local) = Self::rmt_geometry(dev, rk, base)?;
        // Communication slots (inter-group, full stage): one per original
        // work-item of the whole work-groups.
        let comm_bytes = if rk.meta.comm_param.is_some() {
            debug_assert_eq!(rk.meta.options.stage, Stage::Full);
            let bytes = base
                .num_groups()
                .zip(base.group_size())
                .and_then(|(n, g)| u32::try_from(n * g).ok())
                .and_then(|items| items.checked_mul(rk.meta.comm_bytes_per_item));
            Some(bytes.ok_or_else(|| {
                RmtError::Geometry(format!(
                    "communication buffer for global {:?} does not fit the \
                     32-bit address space",
                    base.global
                ))
            })?)
        } else {
            None
        };
        let mut cfg = base.clone();
        cfg.global = global;
        cfg.local = local;

        // Detection counter (always present).
        let detect = *self.detect.get_or_insert_with(|| dev.create_buffer(4));
        dev.write_u32s(detect, &[0]);
        cfg.args.push(Arg::Buffer(detect));

        // Ticket counter (inter-group, full stage).
        if rk.meta.ticket_param.is_some() {
            let ticket = *self.ticket.get_or_insert_with(|| dev.create_buffer(4));
            dev.write_u32s(ticket, &[0]);
            cfg.args.push(Arg::Buffer(ticket));
        }

        if let Some(bytes) = comm_bytes {
            let comm = match self.comm {
                Some((b, sz)) if sz >= bytes => b,
                _ => {
                    let b = dev.create_buffer(bytes.max(4));
                    self.comm = Some((b, bytes.max(4)));
                    b
                }
            };
            // All slot states must start empty.
            dev.write_buffer(comm, &vec![0u8; bytes as usize]);
            cfg.args.push(Arg::Buffer(comm));
        }
        Ok((cfg, detect))
    }
}

/// One-shot convenience wrapper around [`RmtLauncher::launch`].
///
/// # Errors
///
/// Same as [`RmtLauncher::launch`].
pub fn launch_rmt(
    dev: &mut Device,
    rk: &RmtKernel,
    base: &LaunchConfig,
) -> Result<RmtRunResult, RmtError> {
    RmtLauncher::new().launch(dev, rk, base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::TransformOptions;
    use crate::transform::transform;
    use gcn_sim::DeviceConfig;
    use rmt_ir::KernelBuilder;

    fn triple_kernel() -> rmt_ir::Kernel {
        let mut b = KernelBuilder::new("triple");
        let inp = b.buffer_param("in");
        let out = b.buffer_param("out");
        let gid = b.global_id(0);
        let ia = b.elem_addr(inp, gid);
        let oa = b.elem_addr(out, gid);
        let v = b.load_global(ia);
        let three = b.const_u32(3);
        let w = b.mul_u32(v, three);
        b.store_global(oa, w);
        b.finish()
    }

    #[test]
    fn intra_launch_preserves_results_and_detects_nothing() {
        let k = triple_kernel();
        for opts in [
            TransformOptions::intra_plus_lds(),
            TransformOptions::intra_minus_lds(),
            TransformOptions::intra_plus_lds().with_swizzle(),
        ] {
            let rk = transform(&k, &opts).unwrap();
            let mut dev = Device::new(DeviceConfig::small_test());
            let ib = dev.create_buffer(256 * 4);
            let ob = dev.create_buffer(256 * 4);
            dev.write_u32s(ib, &(0..256).collect::<Vec<u32>>());
            let run = launch_rmt(
                &mut dev,
                &rk,
                &LaunchConfig::new_1d(256, 64)
                    .arg(Arg::Buffer(ib))
                    .arg(Arg::Buffer(ob)),
            )
            .unwrap();
            assert_eq!(run.detections, 0, "{opts:?}");
            let out = dev.read_u32s(ob);
            for i in 0..256u32 {
                assert_eq!(out[i as usize], i * 3, "{opts:?} item {i}");
            }
        }
    }

    #[test]
    fn inter_launch_preserves_results() {
        let k = triple_kernel();
        let rk = transform(&k, &TransformOptions::inter()).unwrap();
        let mut dev = Device::new(DeviceConfig::small_test());
        let ib = dev.create_buffer(512 * 4);
        let ob = dev.create_buffer(512 * 4);
        dev.write_u32s(ib, &(0..512).collect::<Vec<u32>>());
        let run = launch_rmt(
            &mut dev,
            &rk,
            &LaunchConfig::new_1d(512, 64)
                .arg(Arg::Buffer(ib))
                .arg(Arg::Buffer(ob)),
        )
        .unwrap();
        assert_eq!(run.detections, 0);
        let out = dev.read_u32s(ob);
        for i in 0..512u32 {
            assert_eq!(out[i as usize], i * 3, "item {i}");
        }
    }

    #[test]
    fn geometry_limit_is_enforced() {
        let k = triple_kernel();
        let rk = transform(&k, &TransformOptions::intra_plus_lds()).unwrap();
        let mut dev = Device::new(DeviceConfig::small_test());
        let ib = dev.create_buffer(256 * 4);
        let ob = dev.create_buffer(256 * 4);
        // 256-wide groups double to 512 > max_workgroup_size.
        let err = launch_rmt(
            &mut dev,
            &rk,
            &LaunchConfig::new_1d(256, 256)
                .arg(Arg::Buffer(ib))
                .arg(Arg::Buffer(ob)),
        );
        assert!(matches!(err, Err(RmtError::Geometry(_))));
    }

    #[test]
    fn arg_count_must_match_original() {
        let k = triple_kernel();
        let rk = transform(&k, &TransformOptions::intra_plus_lds()).unwrap();
        let mut dev = Device::new(DeviceConfig::small_test());
        let err = launch_rmt(&mut dev, &rk, &LaunchConfig::new_1d(64, 64));
        assert!(matches!(err, Err(RmtError::Geometry(_))));
    }

    #[test]
    fn launcher_reuses_buffers_across_runs() {
        let k = triple_kernel();
        let rk = transform(&k, &TransformOptions::inter()).unwrap();
        let mut dev = Device::new(DeviceConfig::small_test());
        let ib = dev.create_buffer(128 * 4);
        let ob = dev.create_buffer(128 * 4);
        dev.write_u32s(ib, &(0..128).collect::<Vec<u32>>());
        let cfg = LaunchConfig::new_1d(128, 64)
            .arg(Arg::Buffer(ib))
            .arg(Arg::Buffer(ob));
        let mut launcher = RmtLauncher::new();
        let r1 = launcher.launch(&mut dev, &rk, &cfg).unwrap();
        let r2 = launcher.launch(&mut dev, &rk, &cfg).unwrap();
        assert_eq!(r1.detections, 0);
        assert_eq!(r2.detections, 0);
        assert_eq!(dev.read_u32s(ob)[100], 300);
    }
}
