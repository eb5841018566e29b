//! Launch configuration and results.

use crate::counters::PerfCounters;
use crate::device::BufferId;
use crate::fault::FaultPlan;
use crate::power::PowerStats;
use crate::profile::{Profile, ProfileConfig};
use crate::trace::{Trace, TraceConfig};

/// A kernel argument, bound positionally to a parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arg {
    /// A device buffer (binds to a `ParamKind::Buffer`).
    Buffer(BufferId),
    /// A u32 scalar.
    U32(u32),
    /// An i32 scalar.
    I32(i32),
    /// An f32 scalar.
    F32(f32),
}

impl Arg {
    /// The raw bits a scalar argument contributes (buffers resolve at
    /// launch).
    pub fn scalar_bits(self) -> Option<u32> {
        match self {
            Arg::Buffer(_) => None,
            Arg::U32(v) => Some(v),
            Arg::I32(v) => Some(v as u32),
            Arg::F32(v) => Some(v.to_bits()),
        }
    }
}

/// What limited the number of work-groups resident per CU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OccupancyLimiter {
    /// VGPR demand.
    Vgpr,
    /// LDS demand.
    Lds,
    /// Wavefront slots.
    WaveSlots,
    /// Work-group slots.
    GroupSlots,
}

/// Resolved occupancy for a launch — the quantity RMT's resource inflation
/// attacks (Sections 6.4 and 7.4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// VGPRs allocated per work-item (pressure + reserved).
    pub vgprs_per_wave: u32,
    /// Wavefronts per work-group.
    pub waves_per_group: usize,
    /// Work-groups resident per CU.
    pub groups_per_cu: usize,
    /// Wavefronts resident per CU.
    pub waves_per_cu: usize,
    /// The binding constraint.
    pub limiter: OccupancyLimiter,
}

/// Configuration for one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchConfig {
    /// Global NDRange sizes per dimension.
    pub global: [usize; 3],
    /// Work-group sizes per dimension.
    pub local: [usize; 3],
    /// Positional arguments.
    pub args: Vec<Arg>,
    /// Fault injections to perform.
    pub faults: FaultPlan,
    /// Records an execution trace into [`LaunchStats::trace`].
    pub trace: Option<TraceConfig>,
    /// Records a cycle-attributed profile into [`LaunchStats::profile`]:
    /// every wave-slot tick attributed to a [`crate::profile::SlotCat`],
    /// per-PC hotspot counters, and (unless `sample_interval` is 0)
    /// fixed-interval timeline samples. Profiling, like tracing, is
    /// observational: every other field of the launch's [`LaunchStats`]
    /// is bit-identical to an unprobed launch.
    pub profile: Option<ProfileConfig>,
}

impl LaunchConfig {
    /// Creates a launch with the given geometry and no arguments.
    pub fn new(global: [usize; 3], local: [usize; 3]) -> Self {
        LaunchConfig {
            global,
            local,
            args: Vec::new(),
            faults: FaultPlan::none(),
            trace: None,
            profile: None,
        }
    }

    /// Convenience constructor for 1-D launches.
    pub fn new_1d(global: usize, local: usize) -> Self {
        Self::new([global, 1, 1], [local, 1, 1])
    }

    /// Appends an argument (builder style).
    pub fn arg(mut self, a: Arg) -> Self {
        self.args.push(a);
        self
    }

    /// Replaces the argument list.
    pub fn args(mut self, args: Vec<Arg>) -> Self {
        self.args = args;
        self
    }

    /// Attaches a fault plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Attaches an execution tracer.
    pub fn trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }

    /// Attaches a cycle-attributed profiler.
    pub fn profile(mut self, cfg: ProfileConfig) -> Self {
        self.profile = Some(cfg);
        self
    }

    /// Total work-items in the NDRange, or `None` if the count overflows.
    pub fn global_items(&self) -> Option<usize> {
        checked_product(self.global)
    }

    /// Work-items per work-group, or `None` if the count overflows.
    pub fn group_size(&self) -> Option<usize> {
        checked_product(self.local)
    }

    /// Total work-groups (0 for an empty work-group), or `None` if a
    /// count overflows.
    pub fn num_groups(&self) -> Option<usize> {
        let group = self.group_size()?;
        Some(self.global_items()?.checked_div(group).unwrap_or(0))
    }
}

fn checked_product(dims: [usize; 3]) -> Option<usize> {
    dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))
}

/// Results of a completed launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchStats {
    /// Simulated wall-clock cycles.
    pub cycles: u64,
    /// Performance counters.
    pub counters: PerfCounters,
    /// Power estimate.
    pub power: PowerStats,
    /// Resolved occupancy.
    pub occupancy: Occupancy,
    /// Number of planned fault injections that were actually applied
    /// (a target can be missed if, e.g., its work-group already retired).
    pub faults_applied: usize,
    /// What the tracer recorded, when [`LaunchConfig::trace`] was set.
    pub trace: Option<Trace>,
    /// What the profiler recorded, when [`LaunchConfig::profile`] was set.
    pub profile: Option<Profile>,
}

impl LaunchStats {
    /// Publishes this launch into the campaign-level metrics registry
    /// (`rmt-obs`), when a campaign is being recorded. Everything
    /// published is a pure function of the launch — cycle counts,
    /// instruction counts, cache traffic, watermarks — so deterministic
    /// snapshots stay byte-identical for any worker count. The disabled
    /// path is a single relaxed atomic load.
    pub(crate) fn publish_obs(&self) {
        if !rmt_obs::enabled() {
            return;
        }
        let c = &self.counters;
        rmt_obs::add("sim.launches", &[], 1);
        rmt_obs::add("sim.cycles", &[], self.cycles);
        rmt_obs::add("sim.insts", &[], c.dyn_insts);
        rmt_obs::add("sim.l1.read_hits", &[], c.l1.read_hits);
        rmt_obs::add("sim.l1.read_misses", &[], c.l1.read_misses);
        rmt_obs::add("sim.l2.read_hits", &[], c.l2.read_hits);
        rmt_obs::add("sim.l2.read_misses", &[], c.l2.read_misses);
        rmt_obs::add("sim.dram_transactions", &[], c.dram_transactions);
        rmt_obs::observe("sim.launch_cycles", &[], self.cycles);
        rmt_obs::observe("sim.launch_insts", &[], c.dyn_insts);
        rmt_obs::gauge_max(
            "sim.l1.read_hit_rate_bp",
            &[],
            (c.l1.read_hit_rate() * 10_000.0) as u64,
        );
        rmt_obs::gauge_max(
            "sim.write_buffer.peak_lines",
            &[],
            c.write_buffer_peak_lines,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultTarget, Injection};

    #[test]
    fn geometry_helpers() {
        let c = LaunchConfig::new([256, 2, 1], [64, 1, 1]);
        assert_eq!(c.global_items(), Some(512));
        assert_eq!(c.group_size(), Some(64));
        assert_eq!(c.num_groups(), Some(8));
        let c = LaunchConfig::new([1 << 40, 1 << 40, 1], [64, 1, 1]);
        assert_eq!(c.global_items(), None);
        assert_eq!(c.num_groups(), None);
        let c = LaunchConfig::new([64, 1, 1], [1 << 33, 1 << 31, 1]);
        assert_eq!(c.group_size(), None);
    }

    #[test]
    fn builder_chains() {
        let plan = FaultPlan {
            injections: vec![Injection {
                after_dyn_inst: 3,
                target: FaultTarget::GlobalMem { addr: 0, bit: 1 },
            }],
        };
        let c = LaunchConfig::new_1d(128, 64)
            .arg(Arg::U32(7))
            .args(vec![Arg::U32(1), Arg::U32(2)])
            .faults(plan.clone());
        assert_eq!(c.args, vec![Arg::U32(1), Arg::U32(2)]);
        assert_eq!(c.faults, plan);
    }

    #[test]
    fn scalar_bits() {
        assert_eq!(Arg::U32(5).scalar_bits(), Some(5));
        assert_eq!(Arg::I32(-1).scalar_bits(), Some(u32::MAX));
        assert_eq!(Arg::F32(1.0).scalar_bits(), Some(1.0f32.to_bits()));
        assert_eq!(Arg::Buffer(BufferId(0)).scalar_bits(), None);
    }
}
