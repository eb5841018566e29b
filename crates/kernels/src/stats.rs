//! Aggregation of simulator statistics across multi-pass launches.

use gcn_sim::{LaunchStats, PerfCounters, PowerStats};

/// Statistics accumulated over all passes of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct AggregateStats {
    /// Total simulated cycles across passes (kernel time, as in the
    /// paper's CodeXL kernel timings — host gaps excluded).
    pub cycles: u64,
    /// Summed counters (tick sums add; ratios are recomputed on demand).
    pub counters: PerfCounters,
    /// Runtime-weighted power (average) and max-over-passes (peak).
    pub power: Option<PowerStats>,
    /// Launch passes accumulated.
    pub passes: usize,
    /// Occupancy of the first pass (identical across passes in practice).
    pub occupancy: Option<gcn_sim::Occupancy>,
    /// The passes' profiles accumulated into one (see
    /// [`gcn_sim::Profile::accumulate`]), when the passes were profiled.
    pub profile: Option<gcn_sim::Profile>,
}

impl AggregateStats {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one pass's stats in.
    pub fn add(&mut self, s: &LaunchStats) {
        self.cycles += s.cycles;
        self.passes += 1;
        let c = &s.counters;
        let a = &mut self.counters;
        a.wall_ticks += c.wall_ticks;
        a.valu_busy_ticks += c.valu_busy_ticks;
        a.salu_busy_ticks += c.salu_busy_ticks;
        a.mem_unit_busy_ticks += c.mem_unit_busy_ticks;
        a.write_stall_ticks += c.write_stall_ticks;
        a.lds_busy_ticks += c.lds_busy_ticks;
        a.dyn_insts += c.dyn_insts;
        a.valu_insts += c.valu_insts;
        a.salu_insts += c.salu_insts;
        a.vmem_insts += c.vmem_insts;
        a.lds_insts += c.lds_insts;
        a.atomic_ops += c.atomic_ops;
        a.barrier_waits += c.barrier_waits;
        a.l1_transactions += c.l1_transactions;
        a.l2_transactions += c.l2_transactions;
        a.dram_transactions += c.dram_transactions;
        a.bytes_loaded += c.bytes_loaded;
        a.bytes_stored += c.bytes_stored;
        a.lds_conflicts += c.lds_conflicts;
        a.l1.read_hits += c.l1.read_hits;
        a.l1.read_misses += c.l1.read_misses;
        a.l1.write_hits += c.l1.write_hits;
        a.l1.write_misses += c.l1.write_misses;
        a.l1.evictions += c.l1.evictions;
        a.l2.read_hits += c.l2.read_hits;
        a.l2.read_misses += c.l2.read_misses;
        a.l2.write_hits += c.l2.write_hits;
        a.l2.write_misses += c.l2.write_misses;
        a.l2.evictions += c.l2.evictions;
        a.groups_executed += c.groups_executed;
        a.waves_executed += c.waves_executed;
        a.total_simds = c.total_simds;
        a.total_cus = c.total_cus;
        self.occupancy.get_or_insert(s.occupancy);
        if let Some(p) = &s.profile {
            match &mut self.profile {
                Some(acc) => acc.accumulate(p),
                None => self.profile = Some(p.clone()),
            }
        }

        // Power: runtime-weighted average, per-pass max for peak.
        self.power = Some(match self.power {
            None => s.power,
            Some(prev) => {
                let t1 = prev.runtime_ms;
                let t2 = s.power.runtime_ms;
                let total = t1 + t2;
                PowerStats {
                    avg_watts: (prev.avg_watts * t1 + s.power.avg_watts * t2) / total.max(1e-12),
                    peak_watts: prev.peak_watts.max(s.power.peak_watts),
                    dynamic_mj: prev.dynamic_mj + s.power.dynamic_mj,
                    runtime_ms: total,
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcn_sim::{Occupancy, PowerStats};

    fn fake(cycles: u64, avg_w: f64, ms: f64) -> LaunchStats {
        LaunchStats {
            cycles,
            counters: PerfCounters {
                wall_ticks: cycles * 16,
                valu_busy_ticks: cycles,
                total_simds: 8,
                total_cus: 2,
                ..Default::default()
            },
            power: PowerStats {
                avg_watts: avg_w,
                peak_watts: avg_w + 5.0,
                dynamic_mj: 1.0,
                runtime_ms: ms,
            },
            occupancy: Occupancy {
                vgprs_per_wave: 10,
                waves_per_group: 1,
                groups_per_cu: 4,
                waves_per_cu: 4,
                limiter: gcn_sim::OccupancyLimiter::WaveSlots,
            },
            faults_applied: 0,
            trace: None,
            profile: None,
        }
    }

    #[test]
    fn aggregation_sums_and_weights() {
        let mut a = AggregateStats::new();
        a.add(&fake(100, 50.0, 1.0));
        a.add(&fake(300, 70.0, 3.0));
        assert_eq!(a.cycles, 400);
        assert_eq!(a.passes, 2);
        let p = a.power.unwrap();
        assert!((p.avg_watts - 65.0).abs() < 1e-9, "runtime-weighted avg");
        assert!((p.peak_watts - 75.0).abs() < 1e-9);
        assert!((p.runtime_ms - 4.0).abs() < 1e-12);
        assert_eq!(a.counters.wall_ticks, 6400);
    }
}
