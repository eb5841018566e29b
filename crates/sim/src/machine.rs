//! The execution engine: functional SIMT interpretation + resource timing.
//!
//! Two interchangeable machine loops drive the clock, selected by
//! [`SimEngine`]:
//!
//! * **Event** (the default): a min-heap of `(wake_tick, wave)` entries
//!   ([`WakeQueue`]) always runs the ready wavefront with the earliest
//!   timestamp, jumping the clock over fully-stalled spans (memory
//!   latency, write-buffer backlog, barriers) in O(log waves). A
//!   run-ahead fast path keeps stepping the same wave without heap
//!   churn while it provably remains ahead of the queue head.
//! * **LockStep**: the reference loop. The clock advances one tick at a
//!   time; at every tick the runnable waves are scanned in ascending id
//!   order and each wave whose `ready_at` equals the current tick is
//!   stepped.
//!
//! Both realize the same total order — waves step in lexicographic
//! `(ready_at, wave_id)` order — so memory operations (including atomics
//! and the inter-group communication protocols built on them) observe a
//! single consistent global order, and every observable (counters,
//! profiles, traces, fault outcomes, memory contents) is bit-identical
//! between engines. The differential tests in `tests/engine_equiv.rs`
//! and `tests/engine_prop.rs` enforce this equivalence.
//!
//! The equivalence rests on two load-bearing properties of `step`:
//!
//! 1. every resource reservation and `ready_at` update is *strictly*
//!    in the future (all issue occupancies are ≥ 1 tick), so a step at
//!    tick `t` can never make any wave — itself or another — ready at
//!    `t` again; barrier releases wake at `t + salu_issue` and group
//!    dispatch at `retire + dispatch_overhead`;
//! 2. all observables are emitted inside `step` itself, so identical
//!    step sequences produce identical observables by construction.
//!
//! ## Intra-tick event order
//!
//! When several model events share a tick, their order is fixed by the
//! sequence of `step` and is the contract both engines (and any future
//! one) must preserve:
//!
//! 1. waves scheduled for the same tick step in ascending wave id;
//! 2. within one step: watchdog check, then due fault injections, then
//!    operand readiness (`reg_ready` waits, which may move the step's
//!    effective time forward), then the issue-unit reservation (SIMD /
//!    SU / vector-memory / LDS pipe);
//! 3. a memory step then reserves downstream units in first-touch line
//!    order: per line, the L2 bank, then — on an L2 miss or for any
//!    store — the DRAM pipe;
//! 4. for stores, the write-buffer drain clock is reserved *after* all
//!    L2/DRAM line reservations of this step, so the drain tick always
//!    observes cache/DRAM transactions charged in the same step (the
//!    historical lock-step loop left this drain-vs-fill order implicit;
//!    it is now part of the contract);
//! 5. functional effects (register writes, LDS/global stores, L1 fills)
//!    land last, then the wave re-arms at its new `ready_at`.

use crate::alu;
use crate::cache::{Cache, L2Banks};
use crate::config::{DeviceConfig, SimEngine};
use crate::counters::PerfCounters;
use crate::engine::{PipeUnit, WakeQueue};
use crate::error::SimError;
use crate::fault::FaultTarget;
use crate::flat::{CompiledKernel, FlatOp, OpMeta};
use crate::launch::{LaunchConfig, LaunchStats, Occupancy, OccupancyLimiter};
use crate::memory::{DramTimer, GlobalMemory};
use crate::power::PowerModel;
use rmt_ir::{AtomicOp, Builtin, Inst, MemSpace, ParamKind, Reg};

const LANES: usize = 64;

/// Ascending-order iterator over the set bits of an EXEC mask: a bit-scan
/// per active lane instead of a 64-iteration filter, so sparse masks
/// (divergent regions, partial tail waves) cost only their population.
struct Lanes(u64);

impl Iterator for Lanes {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let l = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(l)
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Frame {
    If { saved: u64, else_mask: u64 },
    Loop { saved: u64 },
}

#[derive(Debug)]
struct Wave {
    group: usize, // index into Machine::groups
    wave_in_group: usize,
    cu: usize,
    simd: usize,
    pc: usize,
    mask: u64,
    stack: Vec<Frame>,
    regs: Vec<u32>,
    /// Completion tick of the in-flight load producing each register
    /// (GCN-style s_waitcnt: consumers stall at first use, not at issue).
    reg_ready: Vec<u64>,
    /// Producer kind of the in-flight load gating each register
    /// (parallel to `reg_ready`): [`SRC_GLOBAL`] or [`SRC_LDS`]. Only
    /// consulted to classify first-use stalls for tracing/profiling.
    reg_src: Vec<u8>,
    ready_at: u64,
    done: bool,
    at_barrier: bool,
}

const SRC_GLOBAL: u8 = 1;
const SRC_LDS: u8 = 2;

#[derive(Debug)]
struct GroupState {
    linear: usize,
    coords: [u32; 3],
    lds: Vec<u8>,
    wave_ids: Vec<usize>,
    waves_done: usize,
    barrier_arrived: usize,
}

#[derive(Debug)]
struct CuState {
    /// Per-SIMD vector-ALU issue pipes.
    simd: Vec<PipeUnit>,
    /// Scalar unit.
    su: PipeUnit,
    /// Vector memory unit (L1 bandwidth).
    mem: PipeUnit,
    /// LDS pipe.
    lds: PipeUnit,
    /// Write-buffer drain clock toward the L2.
    write: PipeUnit,
    resident: usize,
    wave_rr: usize, // round-robin SIMD assignment
}

/// A completed run: the launch's statistics (already published to the
/// campaign metrics) plus whatever the attached tracer and profiler
/// recorded.
pub(crate) struct Finished {
    pub(crate) stats: LaunchStats,
    pub(crate) trace: crate::trace::Trace,
    pub(crate) profile: Option<crate::profile::Profile>,
}

pub(crate) struct Machine<'a> {
    cfg: &'a DeviceConfig,
    kernel: &'a CompiledKernel,
    mem: &'a mut GlobalMemory,
    global: [usize; 3],
    local: [usize; 3],
    group_dims: [usize; 3],
    group_size: usize,
    waves_per_group: usize,
    param_values: Vec<u32>,
    occupancy: Occupancy,

    l1: Vec<Cache>,
    l2: Cache,
    l2_banks: L2Banks,
    dram: DramTimer,
    cus: Vec<CuState>,

    waves: Vec<Wave>,
    groups: Vec<GroupState>,
    engine: SimEngine,
    wake: WakeQueue,
    next_group: usize,
    groups_total: usize,

    counters: PerfCounters,
    power: PowerModel,
    end_tick: u64,

    faults: Vec<crate::fault::Injection>,
    next_fault: usize,
    faults_applied: usize,

    /// Reused coalescing buffer for global load/store line gathering
    /// (avoids a heap allocation per memory instruction).
    line_scratch: Vec<u32>,

    tracer: Option<crate::trace::Tracer>,
    profiler: Option<crate::profile::Profiler>,
}

/// Computes launch occupancy, or why the kernel cannot be scheduled.
pub(crate) fn occupancy(
    cfg: &DeviceConfig,
    kernel: &CompiledKernel,
    launch: &LaunchConfig,
) -> Result<Occupancy, SimError> {
    let group_size = launch.group_size();
    let vgprs = kernel
        .pressure
        .max(1)
        .saturating_add(cfg.reserved_vgprs)
        .saturating_add(launch.extra_vgprs);
    if vgprs > cfg.vgprs_per_simd {
        return Err(SimError::Unschedulable(format!(
            "kernel needs {vgprs} VGPRs, SIMD has {}",
            cfg.vgprs_per_simd
        )));
    }
    let waves_by_vgpr = ((cfg.vgprs_per_simd / vgprs) as usize).min(cfg.max_waves_per_simd);
    let max_waves_cu = waves_by_vgpr * cfg.simds_per_cu;
    let waves_per_group = group_size.div_ceil(LANES);
    if waves_per_group > max_waves_cu {
        return Err(SimError::Unschedulable(format!(
            "group of {waves_per_group} waves exceeds CU capacity of {max_waves_cu}"
        )));
    }
    let lds_total = kernel.lds_bytes as u64 + launch.extra_lds as u64;
    let groups_by_lds = (cfg.lds_per_cu as u64)
        .checked_div(lds_total)
        .map_or(usize::MAX, |g| g as usize);
    if groups_by_lds == 0 {
        return Err(SimError::Unschedulable(format!(
            "group needs {lds_total} LDS bytes, CU has {}",
            cfg.lds_per_cu
        )));
    }
    let groups_by_waves = max_waves_cu / waves_per_group;
    let cap = launch.groups_per_cu_cap.unwrap_or(usize::MAX).max(1);
    let groups_per_cu = groups_by_waves
        .min(groups_by_lds)
        .min(cfg.max_groups_per_cu)
        .min(cap);
    let limiter = if groups_per_cu == groups_by_lds && groups_by_lds <= groups_by_waves {
        OccupancyLimiter::Lds
    } else if groups_per_cu == cfg.max_groups_per_cu
        && cfg.max_groups_per_cu < groups_by_waves.min(groups_by_lds)
    {
        OccupancyLimiter::GroupSlots
    } else if waves_by_vgpr < cfg.max_waves_per_simd {
        OccupancyLimiter::Vgpr
    } else {
        OccupancyLimiter::WaveSlots
    };
    Ok(Occupancy {
        vgprs_per_wave: vgprs,
        waves_per_group,
        groups_per_cu,
        waves_per_cu: groups_per_cu * waves_per_group,
        limiter,
    })
}

impl<'a> Machine<'a> {
    pub(crate) fn new(
        cfg: &'a DeviceConfig,
        kernel: &'a CompiledKernel,
        mem: &'a mut GlobalMemory,
        launch: &LaunchConfig,
    ) -> Result<Self, SimError> {
        // Geometry checks.
        for d in 0..3 {
            if launch.global[d] == 0 || launch.local[d] == 0 {
                return Err(SimError::BadGeometry("zero-sized dimension".into()));
            }
            if !launch.global[d].is_multiple_of(launch.local[d]) {
                return Err(SimError::BadGeometry(format!(
                    "global[{d}]={} not divisible by local[{d}]={}",
                    launch.global[d], launch.local[d]
                )));
            }
        }
        let group_size = launch.group_size();
        if group_size > cfg.max_workgroup_size {
            return Err(SimError::BadGeometry(format!(
                "work-group of {group_size} exceeds limit {}",
                cfg.max_workgroup_size
            )));
        }

        // Argument binding.
        if launch.args.len() != kernel.params.len() {
            return Err(SimError::BadArgs(format!(
                "kernel `{}` takes {} params, {} args given",
                kernel.name,
                kernel.params.len(),
                launch.args.len()
            )));
        }
        let mut param_values = Vec::with_capacity(launch.args.len());
        for (i, (p, a)) in kernel.params.iter().zip(&launch.args).enumerate() {
            let v = match (p.kind, a) {
                (ParamKind::Buffer, crate::launch::Arg::Buffer(b)) => {
                    mem.base(b.0).ok_or(SimError::UnknownBuffer)?
                }
                (ParamKind::Scalar(_), a) => a.scalar_bits().ok_or_else(|| {
                    SimError::BadArgs(format!("param {i} (`{}`) expects a scalar", p.name))
                })?,
                (ParamKind::Buffer, _) => {
                    return Err(SimError::BadArgs(format!(
                        "param {i} (`{}`) expects a buffer",
                        p.name
                    )))
                }
            };
            param_values.push(v);
        }

        let occ = occupancy(cfg, kernel, launch)?;
        let group_dims = [
            launch.global[0] / launch.local[0],
            launch.global[1] / launch.local[1],
            launch.global[2] / launch.local[2],
        ];
        let groups_total = group_dims[0] * group_dims[1] * group_dims[2];

        let mut faults = launch.faults.injections.clone();
        faults.sort_by_key(|i| i.after_dyn_inst);

        let mut m = Machine {
            cfg,
            kernel,
            mem,
            global: launch.global,
            local: launch.local,
            group_dims,
            group_size,
            waves_per_group: occ.waves_per_group,
            param_values,
            occupancy: occ,
            l1: (0..cfg.num_cus)
                .map(|_| Cache::new(cfg.l1_bytes, cfg.line_bytes, cfg.l1_assoc, true))
                .collect(),
            l2: Cache::new(cfg.l2_bytes, cfg.line_bytes, cfg.l2_assoc, false),
            l2_banks: L2Banks::new(cfg.l2_banks, cfg.line_bytes),
            dram: DramTimer::new(),
            cus: (0..cfg.num_cus)
                .map(|_| CuState {
                    simd: vec![PipeUnit::new(); cfg.simds_per_cu],
                    su: PipeUnit::new(),
                    mem: PipeUnit::new(),
                    lds: PipeUnit::new(),
                    write: PipeUnit::new(),
                    resident: 0,
                    wave_rr: 0,
                })
                .collect(),
            waves: Vec::new(),
            groups: Vec::new(),
            engine: cfg.engine,
            wake: WakeQueue::new(),
            next_group: 0,
            groups_total,
            counters: PerfCounters {
                total_simds: cfg.total_simds() as u64,
                total_cus: cfg.num_cus as u64,
                ..Default::default()
            },
            power: PowerModel::new(cfg.power.clone(), cfg.clock_ghz),
            end_tick: 0,
            faults,
            next_fault: 0,
            faults_applied: 0,
            line_scratch: Vec::with_capacity(LANES),
            tracer: None,
            profiler: None,
        };

        // Initial dispatch: fill CUs round-robin, staggered.
        let mut t = 0u64;
        'fill: loop {
            let mut any = false;
            for cu in 0..cfg.num_cus {
                if m.next_group >= m.groups_total {
                    break 'fill;
                }
                if m.cus[cu].resident < m.occupancy.groups_per_cu {
                    m.start_group(cu, t);
                    t += cfg.lat.dispatch_interval;
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        Ok(m)
    }

    fn start_group(&mut self, cu: usize, t: u64) {
        let linear = self.next_group;
        self.next_group += 1;
        let ngx = self.group_dims[0];
        let ngy = self.group_dims[1];
        let coords = [
            (linear % ngx) as u32,
            ((linear / ngx) % ngy) as u32,
            (linear / (ngx * ngy)) as u32,
        ];
        let gidx = self.groups.len();
        let mut wave_ids = Vec::with_capacity(self.waves_per_group);
        for w in 0..self.waves_per_group {
            let lanes_left = self.group_size - w * LANES;
            let mask = if lanes_left >= LANES {
                u64::MAX
            } else {
                (1u64 << lanes_left) - 1
            };
            let simd = self.cus[cu].wave_rr % self.cfg.simds_per_cu;
            self.cus[cu].wave_rr += 1;
            let wid = self.waves.len();
            self.waves.push(Wave {
                group: gidx,
                wave_in_group: w,
                cu,
                simd,
                pc: 0,
                mask,
                stack: Vec::new(),
                regs: vec![0; self.kernel.nregs as usize * LANES],
                reg_ready: vec![0; self.kernel.nregs as usize],
                reg_src: vec![0; self.kernel.nregs as usize],
                ready_at: t,
                done: false,
                at_barrier: false,
            });
            if let Some(p) = &mut self.profiler {
                p.on_wave_start(wid, cu, simd, t);
            }
            self.arm(t, wid);
            wave_ids.push(wid);
            self.counters.waves_executed += 1;
        }
        self.groups.push(GroupState {
            linear,
            coords,
            lds: vec![0; self.kernel.lds_bytes as usize],
            wave_ids,
            waves_done: 0,
            barrier_arrived: 0,
        });
        self.cus[cu].resident += 1;
        if let Some(p) = &mut self.profiler {
            p.on_dispatch(t, (self.groups_total - self.next_group) as u64);
        }
    }

    pub(crate) fn set_tracer(&mut self, cfg: crate::trace::TraceConfig) {
        self.tracer = Some(crate::trace::Tracer::new(cfg));
    }

    /// Attaches a profiler. `Machine::new` performs the initial staggered
    /// dispatch before this can run, so the already-resident waves and the
    /// dispatcher queue history are backfilled here.
    pub(crate) fn set_profiler(&mut self, cfg: crate::profile::ProfileConfig) {
        let mut p = crate::profile::Profiler::new(
            cfg,
            self.cfg.num_cus,
            self.cfg.simds_per_cu,
            self.cfg.max_waves_per_cu() as u64,
            self.kernel.ops.len(),
        );
        for (wid, w) in self.waves.iter().enumerate() {
            p.on_wave_start(wid, w.cu, w.simd, w.ready_at);
        }
        for (i, g) in self.groups.iter().enumerate() {
            let t = g
                .wave_ids
                .iter()
                .map(|&wid| self.waves[wid].ready_at)
                .min()
                .unwrap_or(0);
            p.on_dispatch(t, (self.groups_total - (i + 1)) as u64);
        }
        self.profiler = Some(p);
    }

    /// Arms `wid` to wake at `t`. In the event engine this feeds the wake
    /// queue; the lock-step engine discovers readiness by scanning, so
    /// arming is a no-op there (and the queue stays empty).
    #[inline]
    fn arm(&mut self, t: u64, wid: usize) {
        if self.engine == SimEngine::Event {
            self.wake.push(t, wid);
        }
    }

    /// One scheduled step with its per-step preamble: the watchdog check
    /// and any fault injections that came due. Both engines must funnel
    /// every step through here so the (watchdog, faults, step) sequence —
    /// points 1–2 of the intra-tick order contract — is engine-invariant.
    fn step_checked(&mut self, wid: usize, t: u64) -> Result<(), SimError> {
        if self.counters.dyn_insts > self.cfg.watchdog_insts {
            return Err(SimError::Watchdog {
                executed: self.counters.dyn_insts,
            });
        }
        self.apply_due_faults();
        self.step(wid, t)
    }

    /// The event core: pop the earliest `(wake_tick, wave)`, skip stale
    /// entries, step, re-arm.
    fn run_event(&mut self) -> Result<(), SimError> {
        while let Some((t, wid)) = self.wake.pop() {
            {
                let w = &self.waves[wid];
                if w.done || w.at_barrier || w.ready_at != t {
                    continue; // stale queue entry (lazy invalidation)
                }
            }
            self.step_checked(wid, t)?;
            // Run-ahead fast path: while this wave's next wake is strictly
            // before the queue head — a lower bound on every other live
            // wave, since each keeps an entry at its exact `ready_at` —
            // the wave is provably the next pop, so keep stepping it
            // without the push/pop round trip.
            loop {
                let w = &self.waves[wid];
                if w.done || w.at_barrier {
                    break;
                }
                let next = w.ready_at;
                if self.wake.peek().is_some_and(|head| head <= (next, wid)) {
                    self.wake.push(next, wid);
                    break;
                }
                self.step_checked(wid, next)?;
            }
        }
        Ok(())
    }

    /// The lock-step reference core: burn ticks one at a time, polling
    /// every wave slot at every tick — the textbook simulator loop,
    /// deliberately free of scheduling cleverness so the differential
    /// tests compare the event core against something obviously correct.
    ///
    /// At each tick the scan visits waves in ascending id, stepping those
    /// whose `ready_at` is exactly now. No step can make a wave ready at
    /// the current tick again (property 1 in the module docs), and waves
    /// dispatched mid-scan are appended with ids above the loop cursor and
    /// `ready_at` in the future, so a single forward pass per tick is
    /// exhaustive.
    fn run_lockstep(&mut self) -> Result<(), SimError> {
        debug_assert!(
            self.wake.peek().is_none(),
            "lock-step must not arm the queue"
        );
        let mut now = 0u64;
        loop {
            let mut any_runnable = false;
            let mut wid = 0;
            // `waves` can grow mid-scan (retirement dispatches the next
            // group), so the bound is re-read every iteration.
            while wid < self.waves.len() {
                let w = &self.waves[wid];
                if !w.done && !w.at_barrier {
                    any_runnable = true;
                    if w.ready_at == now {
                        self.step_checked(wid, now)?;
                    }
                }
                wid += 1;
            }
            if !any_runnable {
                // Finished — or every survivor is parked at a barrier that
                // can never release; run() reports that as a deadlock.
                return Ok(());
            }
            now += 1;
        }
    }

    /// Runs the launch to completion.
    pub(crate) fn run(mut self) -> Result<Finished, SimError> {
        match self.engine {
            SimEngine::Event => self.run_event()?,
            SimEngine::LockStep => self.run_lockstep()?,
        }
        // Anything not done now is deadlocked at a barrier.
        if let Some(w) = self.waves.iter().find(|w| !w.done) {
            return Err(SimError::BarrierDeadlock {
                group: self.groups[w.group].linear,
            });
        }

        self.counters.wall_ticks = self.end_tick.max(1);
        self.counters.l2 = self.l2.stats;
        for c in &self.l1 {
            let s = &c.stats;
            self.counters.l1.read_hits += s.read_hits;
            self.counters.l1.read_misses += s.read_misses;
            self.counters.l1.write_hits += s.write_hits;
            self.counters.l1.write_misses += s.write_misses;
            self.counters.l1.evictions += s.evictions;
        }
        let power = self.power.finish(self.counters.wall_ticks);
        let trace = self.tracer.take().map(|t| t.trace).unwrap_or_default();
        let profile = self.profiler.take().map(|p| {
            let prof = p.finish(self.counters.wall_ticks, &self.kernel.lines);
            #[cfg(debug_assertions)]
            if let Err(e) = prof.check_conservation() {
                panic!("slot-attribution conservation violated: {e}");
            }
            prof
        });
        let stats = LaunchStats {
            cycles: self.counters.cycles(),
            counters: self.counters,
            power,
            occupancy: self.occupancy,
            faults_applied: self.faults_applied,
        };
        stats.publish_obs();
        Ok(Finished {
            stats,
            trace,
            profile,
        })
    }

    // ---- fault injection -------------------------------------------------

    fn apply_due_faults(&mut self) {
        while self.next_fault < self.faults.len()
            && self.faults[self.next_fault].after_dyn_inst <= self.counters.dyn_insts
        {
            let inj = self.faults[self.next_fault];
            self.next_fault += 1;
            if self.apply_fault(inj.target) {
                self.faults_applied += 1;
            }
        }
    }

    fn find_wave(&self, group_linear: usize, wave: usize) -> Option<usize> {
        self.groups
            .iter()
            .find(|g| g.linear == group_linear)
            .and_then(|g| g.wave_ids.get(wave))
            .copied()
            .filter(|&wid| !self.waves[wid].done)
    }

    fn apply_fault(&mut self, target: FaultTarget) -> bool {
        match target {
            FaultTarget::Vgpr {
                group,
                wave,
                reg,
                lane,
                bit,
            } => {
                if reg >= self.kernel.nregs || lane >= LANES {
                    return false;
                }
                match self.find_wave(group, wave) {
                    Some(wid) => {
                        let idx = reg as usize * LANES + lane;
                        self.waves[wid].regs[idx] ^= 1 << (bit % 32);
                        true
                    }
                    None => false,
                }
            }
            FaultTarget::Sgpr {
                group,
                wave,
                reg,
                bit,
            } => {
                if reg >= self.kernel.nregs {
                    return false;
                }
                match self.find_wave(group, wave) {
                    Some(wid) => {
                        for lane in 0..LANES {
                            let idx = reg as usize * LANES + lane;
                            self.waves[wid].regs[idx] ^= 1 << (bit % 32);
                        }
                        true
                    }
                    None => false,
                }
            }
            FaultTarget::Lds { group, offset, bit } => {
                if let Some(g) = self.groups.iter_mut().find(|g| g.linear == group) {
                    if (offset as usize) < g.lds.len() && g.waves_done < g.wave_ids.len() {
                        g.lds[offset as usize] ^= 1 << (bit % 8);
                        return true;
                    }
                }
                false
            }
            FaultTarget::L1Data { cu, addr, bit } => {
                cu < self.l1.len() && self.l1[cu].flip_bit(addr, bit)
            }
            FaultTarget::GlobalMem { addr, bit } => self.mem.flip_bit(addr, bit),
        }
    }

    // ---- per-instruction execution ----------------------------------------

    fn reg(&self, wid: usize, r: Reg, lane: usize) -> u32 {
        self.waves[wid].regs[r.0 as usize * LANES + lane]
    }

    fn set_reg(&mut self, wid: usize, r: Reg, lane: usize, v: u32) {
        self.waves[wid].regs[r.0 as usize * LANES + lane] = v;
    }

    fn lanes(mask: u64) -> Lanes {
        Lanes(mask)
    }

    fn builtin_value(&self, wid: usize, b: Builtin, lane: usize) -> u32 {
        let w = &self.waves[wid];
        let g = &self.groups[w.group];
        let ll = w.wave_in_group * LANES + lane; // local linear index
        let lsx = self.local[0];
        let lsy = self.local[1];
        let lcoord = [
            (ll % lsx) as u32,
            ((ll / lsx) % lsy) as u32,
            (ll / (lsx * lsy)) as u32,
        ];
        match b {
            Builtin::GlobalId(d) => {
                g.coords[d.0 as usize] * self.local[d.0 as usize] as u32 + lcoord[d.0 as usize]
            }
            Builtin::LocalId(d) => lcoord[d.0 as usize],
            Builtin::GroupId(d) => g.coords[d.0 as usize],
            Builtin::GlobalSize(d) => self.global[d.0 as usize] as u32,
            Builtin::LocalSize(d) => self.local[d.0 as usize] as u32,
            Builtin::NumGroups(d) => self.group_dims[d.0 as usize] as u32,
        }
    }

    /// Charges an ALU op and returns nothing; updates ready_at.
    fn charge_alu(&mut self, wid: usize, pc: usize, t: u64, scalar: bool, transcendental: bool) {
        let lat = &self.cfg.lat;
        let w = &self.waves[wid];
        let cu = w.cu;
        let simd = w.simd;
        if scalar {
            let start = self.cus[cu].su.reserve(t, lat.salu_issue);
            self.counters.salu_busy_ticks += lat.salu_issue;
            self.counters.salu_insts += 1;
            self.waves[wid].ready_at = start + lat.salu_issue;
            self.power.deposit(start, self.cfg.power.salu_nj);
            self.profile_issue(
                wid,
                pc,
                crate::profile::SlotCat::IssueSalu,
                start,
                start + lat.salu_issue,
            );
        } else {
            let occ = lat.valu_issue
                + if transcendental {
                    lat.valu_trans_extra
                } else {
                    0
                };
            let start = self.cus[cu].simd[simd].reserve(t, occ);
            self.counters.valu_busy_ticks += occ;
            self.counters.valu_insts += 1;
            self.waves[wid].ready_at = start + occ;
            let nj = self.cfg.power.valu_nj
                + if transcendental {
                    self.cfg.power.trans_extra_nj
                } else {
                    0.0
                };
            self.power.deposit(start, nj);
            self.profile_issue(
                wid,
                pc,
                crate::profile::SlotCat::IssueValu,
                start,
                start + occ,
            );
        }
        self.bump_end(self.waves[wid].ready_at);
    }

    /// Records an issue with the profiler, if one is attached. No-op (a
    /// dead branch) otherwise — keeping every profiling touch point on
    /// the hot path behind a single `Option` check.
    #[inline]
    fn profile_issue(
        &mut self,
        wid: usize,
        pc: usize,
        cat: crate::profile::SlotCat,
        issue: u64,
        until: u64,
    ) {
        if let Some(p) = &mut self.profiler {
            p.on_issue(wid, pc, cat, issue, until);
        }
    }

    /// Records a post-issue completion wait with the profiler, if any.
    #[inline]
    fn profile_post(&mut self, wid: usize, pc: usize, cat: crate::profile::SlotCat, to: u64) {
        if let Some(p) = &mut self.profiler {
            p.post(wid, pc, cat, to);
        }
    }

    fn bump_end(&mut self, t: u64) {
        if t > self.end_tick {
            self.end_tick = t;
        }
    }

    /// Executes one wavefront instruction at time `t`.
    fn step(&mut self, wid: usize, t: u64) -> Result<(), SimError> {
        // An empty program has nothing to fetch: the wave retires at its
        // first scheduling slot.
        if self.waves[wid].pc >= self.kernel.ops.len() {
            self.retire_wave(wid);
            return Ok(());
        }
        self.counters.dyn_insts += 1;
        // Copy the `&'a` kernel reference out of `self` so the op and its
        // pre-decoded metadata can be borrowed without pinning `&mut self`.
        let kernel = self.kernel;
        let pc = self.waves[wid].pc;
        debug_assert!(pc < kernel.ops.len());
        let op = &kernel.ops[pc];
        let meta: OpMeta = kernel.meta[pc];
        let scalar = meta.scalar;
        // Stall until in-flight loads feeding this instruction land.
        let t_sched = t;
        let t = {
            let rr = &self.waves[wid].reg_ready;
            let mut ready = t;
            for r in &meta.srcs[..meta.nsrcs as usize] {
                ready = ready.max(rr[r.0 as usize]);
            }
            ready
        };
        // Classify the first-use data stall by its producing unit (only
        // when someone is observing; a plain run skips this entirely).
        let stall = if t > t_sched && (self.profiler.is_some() || self.tracer.is_some()) {
            let w = &self.waves[wid];
            let mut cat = crate::profile::SlotCat::StallMem;
            for r in &meta.srcs[..meta.nsrcs as usize] {
                if w.reg_ready[r.0 as usize] == t {
                    if w.reg_src[r.0 as usize] == SRC_LDS {
                        cat = crate::profile::SlotCat::StallLdsConflict;
                    }
                    break;
                }
            }
            Some(cat)
        } else {
            None
        };
        if let Some(p) = &mut self.profiler {
            p.begin_inst(wid, pc, t_sched, t, stall);
        }
        if let Some(tracer) = &mut self.tracer {
            let w = &self.waves[wid];
            let (group, wave, cu, simd, mask) = (
                self.groups[w.group].linear,
                w.wave_in_group,
                w.cu,
                w.simd,
                w.mask,
            );
            tracer.record(t, group, wave, cu, simd, pc, mask, stall, || match op {
                FlatOp::Op(inst) => rmt_ir::inst_to_string(inst),
                FlatOp::IfBegin { cond, .. } => format!("if.begin {cond}"),
                FlatOp::Else { .. } => "if.else".into(),
                FlatOp::EndIf => "if.end".into(),
                FlatOp::LoopBegin { .. } => "loop.begin".into(),
                FlatOp::LoopTest { cond, .. } => format!("loop.test {cond}"),
                FlatOp::LoopEnd { .. } => "loop.end".into(),
            });
        }
        match *op {
            FlatOp::IfBegin {
                cond,
                else_pc,
                end_pc: _,
            } => {
                let mask = self.waves[wid].mask;
                let cbase = cond.0 as usize * LANES;
                let regs = &self.waves[wid].regs;
                let mut tmask = 0u64;
                for l in Self::lanes(mask) {
                    if regs[cbase + l] != 0 {
                        tmask |= 1 << l;
                    }
                }
                let emask = mask & !tmask;
                self.waves[wid].stack.push(Frame::If {
                    saved: mask,
                    else_mask: emask,
                });
                if tmask != 0 {
                    self.waves[wid].mask = tmask;
                    self.waves[wid].pc = pc + 1;
                } else {
                    self.waves[wid].mask = emask;
                    self.waves[wid].pc = else_pc + 1;
                }
                self.charge_alu(wid, pc, t, true, false);
            }
            FlatOp::Else { end_pc } => {
                let frame = *self.waves[wid].stack.last().expect("if frame");
                let Frame::If { else_mask, .. } = frame else {
                    unreachable!("Else without If frame");
                };
                if else_mask != 0 {
                    self.waves[wid].mask = else_mask;
                    self.waves[wid].pc = pc + 1;
                } else {
                    self.waves[wid].pc = end_pc;
                }
                self.charge_alu(wid, pc, t, true, false);
            }
            FlatOp::EndIf => {
                let frame = self.waves[wid].stack.pop().expect("if frame");
                let Frame::If { saved, .. } = frame else {
                    unreachable!("EndIf without If frame");
                };
                self.waves[wid].mask = saved;
                self.waves[wid].pc = pc + 1;
                self.charge_alu(wid, pc, t, true, false);
            }
            FlatOp::LoopBegin { end_pc: _ } => {
                let mask = self.waves[wid].mask;
                self.waves[wid].stack.push(Frame::Loop { saved: mask });
                self.waves[wid].pc = pc + 1;
                self.charge_alu(wid, pc, t, true, false);
            }
            FlatOp::LoopTest { cond, end_pc } => {
                let mask = self.waves[wid].mask;
                let cbase = cond.0 as usize * LANES;
                let regs = &self.waves[wid].regs;
                let mut active = 0u64;
                for l in Self::lanes(mask) {
                    if regs[cbase + l] != 0 {
                        active |= 1 << l;
                    }
                }
                if active == 0 {
                    let frame = self.waves[wid].stack.pop().expect("loop frame");
                    let Frame::Loop { saved } = frame else {
                        unreachable!("LoopTest without Loop frame");
                    };
                    self.waves[wid].mask = saved;
                    self.waves[wid].pc = end_pc;
                } else {
                    self.waves[wid].mask = active;
                    self.waves[wid].pc = pc + 1;
                }
                self.charge_alu(wid, pc, t, true, false);
            }
            FlatOp::LoopEnd { begin_pc } => {
                self.waves[wid].pc = begin_pc + 1;
                self.charge_alu(wid, pc, t, true, false);
            }
            FlatOp::Op(ref inst) => {
                self.exec_inst(wid, t, inst, scalar, meta.transcendental)?;
            }
        }

        // Retire?
        if self.waves[wid].pc >= self.kernel.ops.len() && !self.waves[wid].at_barrier {
            self.retire_wave(wid);
        }
        Ok(())
    }

    fn retire_wave(&mut self, wid: usize) {
        if let Some(p) = &mut self.profiler {
            p.on_retire(wid, self.waves[wid].ready_at);
        }
        let w = &mut self.waves[wid];
        w.done = true;
        w.regs = Vec::new(); // free lane storage eagerly
        w.reg_ready = Vec::new();
        w.reg_src = Vec::new();
        let gidx = w.group;
        let end = w.ready_at;
        let cu = w.cu;
        self.groups[gidx].waves_done += 1;
        self.bump_end(end);
        self.check_barrier_release(gidx, end);
        if self.groups[gidx].waves_done == self.groups[gidx].wave_ids.len() {
            // Group complete.
            self.counters.groups_executed += 1;
            self.cus[cu].resident -= 1;
            if self.next_group < self.groups_total {
                let t = end + self.cfg.lat.dispatch_overhead;
                self.start_group(cu, t);
            }
        }
    }

    fn check_barrier_release(&mut self, gidx: usize, now: u64) {
        let g = &self.groups[gidx];
        let live = g.wave_ids.len() - g.waves_done;
        if g.barrier_arrived > 0 && g.barrier_arrived == live {
            let ids = g.wave_ids.clone();
            self.groups[gidx].barrier_arrived = 0;
            let release = now + self.cfg.lat.salu_issue;
            for wid in ids {
                let w = &mut self.waves[wid];
                if w.at_barrier {
                    w.at_barrier = false;
                    w.ready_at = w.ready_at.max(release);
                    let at = w.ready_at;
                    self.arm(at, wid);
                }
            }
        }
    }

    fn exec_inst(
        &mut self,
        wid: usize,
        t: u64,
        inst: &Inst,
        scalar: bool,
        transcendental: bool,
    ) -> Result<(), SimError> {
        let mask = self.waves[wid].mask;
        // ALU arms hoist the register-file borrow and per-register base
        // indices out of the lane loop, with a full-mask (non-divergent)
        // fast path that iterates 0..64 directly instead of bit-scanning.
        match inst {
            Inst::Const { dst, bits, .. } => {
                let di = dst.0 as usize * LANES;
                let regs = &mut self.waves[wid].regs;
                if mask == u64::MAX {
                    regs[di..di + LANES].fill(*bits);
                } else {
                    for l in Self::lanes(mask) {
                        regs[di + l] = *bits;
                    }
                }
                self.advance(wid, t, scalar, false);
            }
            Inst::ReadParam { dst, index } => {
                let v = self.param_values[*index];
                let di = dst.0 as usize * LANES;
                let regs = &mut self.waves[wid].regs;
                if mask == u64::MAX {
                    regs[di..di + LANES].fill(v);
                } else {
                    for l in Self::lanes(mask) {
                        regs[di + l] = v;
                    }
                }
                self.advance(wid, t, scalar, false);
            }
            Inst::ReadBuiltin { dst, builtin } => {
                for l in Self::lanes(mask) {
                    let v = self.builtin_value(wid, *builtin, l);
                    self.set_reg(wid, *dst, l, v);
                }
                self.advance(wid, t, scalar, false);
            }
            Inst::Mov { dst, src } => {
                let di = dst.0 as usize * LANES;
                let si = src.0 as usize * LANES;
                let regs = &mut self.waves[wid].regs;
                if mask == u64::MAX {
                    for l in 0..LANES {
                        regs[di + l] = regs[si + l];
                    }
                } else {
                    for l in Self::lanes(mask) {
                        regs[di + l] = regs[si + l];
                    }
                }
                self.advance(wid, t, scalar, false);
            }
            Inst::Unary { dst, op, a } => {
                let di = dst.0 as usize * LANES;
                let ai = a.0 as usize * LANES;
                let regs = &mut self.waves[wid].regs;
                if mask == u64::MAX {
                    for l in 0..LANES {
                        regs[di + l] = alu::eval_un(*op, regs[ai + l]);
                    }
                } else {
                    for l in Self::lanes(mask) {
                        regs[di + l] = alu::eval_un(*op, regs[ai + l]);
                    }
                }
                self.advance(wid, t, scalar, transcendental);
            }
            Inst::Binary { dst, op, ty, a, b } => {
                let di = dst.0 as usize * LANES;
                let ai = a.0 as usize * LANES;
                let bi = b.0 as usize * LANES;
                let regs = &mut self.waves[wid].regs;
                if mask == u64::MAX {
                    for l in 0..LANES {
                        regs[di + l] = alu::eval_bin(*op, *ty, regs[ai + l], regs[bi + l]);
                    }
                } else {
                    for l in Self::lanes(mask) {
                        regs[di + l] = alu::eval_bin(*op, *ty, regs[ai + l], regs[bi + l]);
                    }
                }
                self.advance(wid, t, scalar, false);
            }
            Inst::Cmp { dst, op, ty, a, b } => {
                let di = dst.0 as usize * LANES;
                let ai = a.0 as usize * LANES;
                let bi = b.0 as usize * LANES;
                let regs = &mut self.waves[wid].regs;
                if mask == u64::MAX {
                    for l in 0..LANES {
                        regs[di + l] = alu::eval_cmp(*op, *ty, regs[ai + l], regs[bi + l]);
                    }
                } else {
                    for l in Self::lanes(mask) {
                        regs[di + l] = alu::eval_cmp(*op, *ty, regs[ai + l], regs[bi + l]);
                    }
                }
                self.advance(wid, t, scalar, false);
            }
            Inst::Select {
                dst,
                cond,
                if_true,
                if_false,
            } => {
                let di = dst.0 as usize * LANES;
                let ci = cond.0 as usize * LANES;
                let ti = if_true.0 as usize * LANES;
                let fi = if_false.0 as usize * LANES;
                let regs = &mut self.waves[wid].regs;
                if mask == u64::MAX {
                    for l in 0..LANES {
                        let src = if regs[ci + l] != 0 { ti } else { fi };
                        regs[di + l] = regs[src + l];
                    }
                } else {
                    for l in Self::lanes(mask) {
                        let src = if regs[ci + l] != 0 { ti } else { fi };
                        regs[di + l] = regs[src + l];
                    }
                }
                self.advance(wid, t, scalar, false);
            }
            Inst::Swizzle { dst, src, mode } => {
                // Read all lanes first (true lane exchange).
                let di = dst.0 as usize * LANES;
                let si = src.0 as usize * LANES;
                let regs = &mut self.waves[wid].regs;
                let mut snapshot = [0u32; LANES];
                snapshot.copy_from_slice(&regs[si..si + LANES]);
                for l in Self::lanes(mask) {
                    regs[di + l] = snapshot[mode.source_lane(l)];
                }
                self.advance(wid, t, false, false); // always a vector op
            }
            Inst::Load { dst, space, addr } => match space {
                MemSpace::Global => self.exec_global_load(wid, t, *dst, *addr, scalar)?,
                MemSpace::Local => self.exec_lds(wid, t, Some(*dst), *addr, None)?,
            },
            Inst::Store { space, addr, value } => match space {
                MemSpace::Global => self.exec_global_store(wid, t, *addr, *value)?,
                MemSpace::Local => self.exec_lds(wid, t, None, *addr, Some(*value))?,
            },
            Inst::Atomic {
                dst,
                space,
                op,
                addr,
                value,
            } => match space {
                MemSpace::Global => self.exec_global_atomic(wid, t, *dst, *op, *addr, *value)?,
                MemSpace::Local => self.exec_lds_atomic(wid, t, *dst, *op, *addr, *value)?,
            },
            Inst::Barrier => {
                let gidx = self.waves[wid].group;
                let pc = self.waves[wid].pc;
                self.waves[wid].pc += 1;
                self.waves[wid].at_barrier = true;
                self.waves[wid].ready_at = t + self.cfg.lat.salu_issue;
                // The barrier instruction itself issues on the scalar
                // path; the wait until group-wide release is attributed
                // as stall-barrier when the wave is next scheduled.
                if let Some(p) = &mut self.profiler {
                    p.on_issue(
                        wid,
                        pc,
                        crate::profile::SlotCat::IssueSalu,
                        t,
                        t + self.cfg.lat.salu_issue,
                    );
                    p.on_barrier(wid, pc);
                }
                self.groups[gidx].barrier_arrived += 1;
                self.counters.barrier_waits += 1;
                self.check_barrier_release(gidx, t);
                return Ok(()); // pc already advanced
            }
            Inst::If { .. } | Inst::While { .. } => {
                unreachable!("control flow is lowered before execution")
            }
        }
        Ok(())
    }

    /// Advances pc and charges an ALU cost.
    fn advance(&mut self, wid: usize, t: u64, scalar: bool, transcendental: bool) {
        let pc = self.waves[wid].pc;
        self.waves[wid].pc += 1;
        self.charge_alu(wid, pc, t, scalar, transcendental);
    }

    /// `scalar`: a wavefront-uniform load the compiler would issue on the
    /// scalar unit (GCN s_load through the constant cache) — it occupies
    /// the SU instead of the vector memory unit, but still observes the
    /// (potentially stale) cached line data.
    fn exec_global_load(
        &mut self,
        wid: usize,
        t: u64,
        dst: Reg,
        addr: Reg,
        scalar: bool,
    ) -> Result<(), SimError> {
        let mask = self.waves[wid].mask;
        let cu = self.waves[wid].cu;
        let lat = self.cfg.lat;
        let line_mask = !(self.cfg.line_bytes - 1);
        let abase = addr.0 as usize * LANES;

        // Gather distinct lines (coalescing), preserving first-touch order.
        // The address-register base and the line mask are applied outside
        // any per-lane recomputation, and the gather buffer is reused
        // across memory instructions.
        let mut lines = std::mem::take(&mut self.line_scratch);
        lines.clear();
        {
            let regs = &self.waves[wid].regs;
            for l in Self::lanes(mask) {
                let a = regs[abase + l] & line_mask;
                if !lines.contains(&a) {
                    lines.push(a);
                }
            }
        }

        let issue;
        if scalar {
            let occ = lines.len() as u64 * lat.salu_issue;
            issue = self.cus[cu].su.reserve(t, occ);
            self.counters.salu_busy_ticks += occ;
            self.counters.salu_insts += 1;
        } else {
            let occ = lines.len() as u64 * lat.l1_issue;
            issue = self.cus[cu].mem.reserve(t, occ);
            self.counters.mem_unit_busy_ticks += occ;
            self.counters.vmem_insts += 1;
        }
        self.counters.l1_transactions += lines.len() as u64;

        let mut done = issue + lat.l1_latency;
        for &line in &lines {
            self.power.deposit(issue, self.cfg.power.l1_nj);
            let hit = self.l1[cu].load_word(line).is_some();
            if let Some(p) = &mut self.profiler {
                p.on_l1(hit, issue);
            }
            if !hit {
                // L1 miss: consult the (banked) L2, then DRAM bandwidth.
                self.counters.l2_transactions += 1;
                self.power.deposit(issue, self.cfg.power.l2_nj);
                let l2_start = self.l2_banks.reserve(line, issue, lat.l2_issue);
                let line_done = if self.l2.touch_read(line) {
                    l2_start + lat.l2_latency
                } else {
                    self.counters.dram_transactions += 1;
                    self.power.deposit(l2_start, self.cfg.power.dram_nj);
                    let d_start = self.dram.reserve(l2_start, lat.dram_issue);
                    d_start + lat.dram_latency
                };
                done = done.max(line_done);
                let data = self.mem.read_line(line, self.cfg.line_bytes as usize);
                self.l1[cu].fill(line, data);
            }
        }

        // Functional: validate bounds via backing store, then take the
        // (possibly stale) L1 copy as the observed value.
        let dbase = dst.0 as usize * LANES;
        for l in Self::lanes(mask) {
            let a = self.waves[wid].regs[abase + l];
            let coherent = self.mem.load(a, &self.kernel.name)?;
            let observed = self.l1[cu].peek_word(a).unwrap_or(coherent);
            self.waves[wid].regs[dbase + l] = observed;
        }
        self.counters.bytes_loaded += 4 * mask.count_ones() as u64;

        // The wavefront continues after issue; the destination register is
        // gated on `done` (s_waitcnt semantics).
        let pc = self.waves[wid].pc;
        self.waves[wid].pc += 1;
        self.waves[wid].ready_at = issue + lat.salu_issue;
        self.waves[wid].reg_ready[dst.0 as usize] = done;
        self.waves[wid].reg_src[dst.0 as usize] = SRC_GLOBAL;
        let cat = if scalar {
            crate::profile::SlotCat::IssueSalu
        } else {
            crate::profile::SlotCat::IssueVmem
        };
        self.profile_issue(wid, pc, cat, issue, issue + lat.salu_issue);
        self.bump_end(done);
        self.line_scratch = lines;
        Ok(())
    }

    fn exec_global_store(
        &mut self,
        wid: usize,
        t: u64,
        addr: Reg,
        value: Reg,
    ) -> Result<(), SimError> {
        let mask = self.waves[wid].mask;
        let cu = self.waves[wid].cu;
        let lat = self.cfg.lat;
        let line_mask = !(self.cfg.line_bytes - 1);
        let abase = addr.0 as usize * LANES;

        let mut lines = std::mem::take(&mut self.line_scratch);
        lines.clear();
        {
            let regs = &self.waves[wid].regs;
            for l in Self::lanes(mask) {
                let a = regs[abase + l] & line_mask;
                if !lines.contains(&a) {
                    lines.push(a);
                }
            }
        }

        // Phase 1 (intra-tick order, point 2): reserve the issue unit.
        let occ = lines.len() as u64 * lat.l1_issue;
        let issue = self.cus[cu].mem.reserve(t, occ);
        self.counters.mem_unit_busy_ticks += occ;
        self.counters.vmem_insts += 1;
        self.counters.l1_transactions += lines.len() as u64;
        self.counters.l2_transactions += lines.len() as u64;

        // Phase 2 (point 3): write-through — charge L2 bank + DRAM write
        // bandwidth per line, in first-touch order.
        for &line in &lines {
            self.power.deposit(issue, self.cfg.power.l2_nj);
            let l2_start = self.l2_banks.reserve(line, issue, lat.l2_issue);
            let d_start = self.dram.reserve(l2_start, lat.dram_issue);
            self.counters.dram_transactions += 1;
            self.power.deposit(d_start, self.cfg.power.dram_nj);
        }

        // Phase 3 (point 4): only after all line reservations of this step
        // does the CU's finite write buffer advance, so its drain clock
        // observes every same-step L2/DRAM transaction.
        self.cus[cu]
            .write
            .reserve(issue, lines.len() as u64 * lat.write_drain);
        let drained = self.cus[cu].write.free_at();
        let backlog = drained - issue;
        let threshold = lat.write_buffer_lines * lat.write_drain;
        self.counters.write_buffer_peak_lines = self
            .counters
            .write_buffer_peak_lines
            .max(backlog / lat.write_drain.max(1));
        let mut ready = issue + lat.store_issue;
        if backlog > threshold {
            let stall = backlog - threshold;
            ready += stall;
            self.counters.write_stall_ticks += stall;
        }

        // Functional: write-through to the backing store + own L1 copy.
        let vbase = value.0 as usize * LANES;
        for l in Self::lanes(mask) {
            let a = self.waves[wid].regs[abase + l];
            let v = self.waves[wid].regs[vbase + l];
            self.mem.store(a, v, &self.kernel.name)?;
            self.l1[cu].store_word(a, v);
        }
        self.counters.bytes_stored += 4 * mask.count_ones() as u64;

        let pc = self.waves[wid].pc;
        self.waves[wid].pc += 1;
        self.waves[wid].ready_at = ready;
        self.profile_issue(
            wid,
            pc,
            crate::profile::SlotCat::IssueVmem,
            issue,
            issue + lat.store_issue,
        );
        // Any remainder up to `ready` is the write-buffer backlog stall.
        self.profile_post(wid, pc, crate::profile::SlotCat::StallWriteBuffer, ready);
        self.bump_end(ready);
        self.line_scratch = lines;
        Ok(())
    }

    fn exec_global_atomic(
        &mut self,
        wid: usize,
        t: u64,
        dst: Option<Reg>,
        op: AtomicOp,
        addr: Reg,
        value: Reg,
    ) -> Result<(), SimError> {
        let mask = self.waves[wid].mask;
        let cu = self.waves[wid].cu;
        let lat = self.cfg.lat;
        let nlanes = mask.count_ones() as u64;

        // The CU's vector memory unit issues the instruction quarter-wave
        // by quarter-wave; the per-lane serialization happens at the L2.
        let occ = nlanes.div_ceil(16) * lat.l1_issue;
        let issue = self.cus[cu].mem.reserve(t, occ);
        self.counters.mem_unit_busy_ticks += occ;
        self.counters.vmem_insts += 1;
        self.counters.atomic_ops += nlanes;

        // Atomics execute at the L2 banks, bypassing (and invalidating)
        // the local L1 lines. Distinct addresses within one line pipeline
        // as a single bank transaction; same-address lanes serialize (RMW
        // dependency chains).
        let line_mask = !(self.cfg.line_bytes - 1);
        let abase = addr.0 as usize * LANES;
        let mut line_costs: Vec<(u32, Vec<(u32, u32)>)> = Vec::new(); // line -> [(addr, dup count)]
        for l in Self::lanes(mask) {
            let a = self.waves[wid].regs[abase + l];
            let line = a & line_mask;
            let entry = match line_costs.iter_mut().find(|(ln, _)| *ln == line) {
                Some(e) => e,
                None => {
                    line_costs.push((line, Vec::new()));
                    line_costs.last_mut().expect("just pushed")
                }
            };
            match entry.1.iter_mut().find(|(ad, _)| *ad == a) {
                Some(slot) => slot.1 += 1,
                None => entry.1.push((a, 1)),
            }
        }
        let mut done_by = issue;
        for (line, addrs) in &line_costs {
            let conflict = addrs.iter().map(|&(_, c)| c).max().unwrap_or(1) as u64;
            let start = self
                .l2_banks
                .reserve(*line, issue, conflict * lat.atomic_issue);
            done_by = done_by.max(start + conflict * lat.atomic_issue);
            self.counters.l2_transactions += 1;
            self.power.deposit(start, self.cfg.power.atomic_nj);
        }
        for l in Self::lanes(mask) {
            let a = self.reg(wid, addr, l);
            let v = self.reg(wid, value, l);
            let old = self.mem.load(a, &self.kernel.name)?;
            let new = match op {
                AtomicOp::Add => old.wrapping_add(v),
                AtomicOp::Exchange => v,
                AtomicOp::CmpXchg { cmp } => {
                    let c = self.reg(wid, cmp, l);
                    if old == c {
                        v
                    } else {
                        old
                    }
                }
                AtomicOp::Max => old.max(v),
                AtomicOp::Min => old.min(v),
            };
            self.mem.store(a, new, &self.kernel.name)?;
            self.l1[cu].invalidate(a);
            if let Some(d) = dst {
                self.set_reg(wid, d, l, old);
            }
        }

        let done = done_by + lat.atomic_latency;
        let pc = self.waves[wid].pc;
        self.waves[wid].pc += 1;
        self.waves[wid].ready_at = done;
        // The wave occupies its slot for the whole atomic round trip:
        // issue occupancy on the memory unit, then stall-mem to `done`.
        self.profile_issue(
            wid,
            pc,
            crate::profile::SlotCat::IssueVmem,
            issue,
            (issue + occ).min(done),
        );
        self.profile_post(wid, pc, crate::profile::SlotCat::StallMem, done);
        self.bump_end(done);
        Ok(())
    }

    fn exec_lds(
        &mut self,
        wid: usize,
        t: u64,
        dst: Option<Reg>,
        addr: Reg,
        value: Option<Reg>,
    ) -> Result<(), SimError> {
        let mask = self.waves[wid].mask;
        let cu = self.waves[wid].cu;
        let gidx = self.waves[wid].group;
        let lat = self.cfg.lat;
        let lds_bytes = self.kernel.lds_bytes;
        let abase = addr.0 as usize * LANES;

        // Bank-conflict factor: 32 banks, 4-byte words; the 64-lane wave is
        // served in two 32-lane phases, so conflicts are counted per phase.
        // Identical addresses within a phase broadcast (no conflict), so
        // the factor is the per-bank count of *distinct* phase addresses —
        // computed on stack arrays (a phase holds at most 32 addresses).
        let mut factor = 1u64;
        {
            let regs = &self.waves[wid].regs;
            let mut phase_addrs = [0u32; 32];
            for phase in 0..2usize {
                let pmask = (mask >> (phase * 32)) & 0xFFFF_FFFF;
                let mut n = 0usize;
                for l in Self::lanes(pmask) {
                    let a = regs[abase + phase * 32 + l];
                    if !a.is_multiple_of(4) {
                        return Err(SimError::UnalignedAccess { addr: a });
                    }
                    if a + 4 > lds_bytes {
                        return Err(SimError::BadLdsAccess {
                            offset: a,
                            lds_bytes,
                        });
                    }
                    if !phase_addrs[..n].contains(&a) {
                        phase_addrs[n] = a;
                        n += 1;
                    }
                }
                let mut bank_count = [0u8; 32];
                let mut phase_factor = 1u64;
                for &a in &phase_addrs[..n] {
                    let bank = ((a / 4) % 32) as usize;
                    bank_count[bank] += 1;
                    phase_factor = phase_factor.max(u64::from(bank_count[bank]));
                }
                factor = factor.max(phase_factor);
            }
        }
        self.counters.lds_conflicts += factor - 1;

        let occ = lat.lds_issue + (factor - 1) * lat.lds_conflict;
        let issue = self.cus[cu].lds.reserve(t, occ);
        self.counters.lds_busy_ticks += occ;
        self.counters.lds_insts += 1;
        self.power.deposit(issue, self.cfg.power.lds_nj);

        // Functional. The load/store decision is hoisted out of the lane
        // loop, which then runs on direct LDS/register borrows.
        match (dst, value) {
            (Some(d), None) => {
                let dbase = d.0 as usize * LANES;
                let lds = &self.groups[gidx].lds;
                let regs = &mut self.waves[wid].regs;
                for l in Self::lanes(mask) {
                    let a = regs[abase + l] as usize;
                    let bytes: [u8; 4] = lds[a..a + 4].try_into().expect("4 bytes");
                    regs[dbase + l] = u32::from_le_bytes(bytes);
                }
            }
            (None, Some(v)) => {
                let vbase = v.0 as usize * LANES;
                let lds = &mut self.groups[gidx].lds;
                let regs = &self.waves[wid].regs;
                for l in Self::lanes(mask) {
                    let a = regs[abase + l] as usize;
                    lds[a..a + 4].copy_from_slice(&regs[vbase + l].to_le_bytes());
                }
            }
            _ => unreachable!("LDS op is load xor store"),
        }

        let done = issue + lat.lds_latency + (factor - 1) * lat.lds_conflict;
        let pc = self.waves[wid].pc;
        self.waves[wid].pc += 1;
        match dst {
            Some(d) => {
                // Loads release the wave at issue; the result register is
                // gated on completion.
                self.waves[wid].ready_at = issue + lat.lds_issue;
                self.waves[wid].reg_ready[d.0 as usize] = done;
                self.waves[wid].reg_src[d.0 as usize] = SRC_LDS;
            }
            None => self.waves[wid].ready_at = issue + lat.lds_issue,
        }
        self.profile_issue(
            wid,
            pc,
            crate::profile::SlotCat::IssueLds,
            issue,
            issue + lat.lds_issue,
        );
        self.bump_end(done);
        Ok(())
    }

    fn exec_lds_atomic(
        &mut self,
        wid: usize,
        t: u64,
        dst: Option<Reg>,
        op: AtomicOp,
        addr: Reg,
        value: Reg,
    ) -> Result<(), SimError> {
        let mask = self.waves[wid].mask;
        let cu = self.waves[wid].cu;
        let gidx = self.waves[wid].group;
        let lat = self.cfg.lat;
        let lds_bytes = self.kernel.lds_bytes;
        let nlanes = mask.count_ones() as u64;

        let occ = lat.lds_issue + nlanes * lat.lds_conflict;
        let issue = self.cus[cu].lds.reserve(t, occ);
        self.counters.lds_busy_ticks += occ;
        self.counters.lds_insts += 1;
        self.power.deposit(issue, self.cfg.power.lds_nj);

        for l in Self::lanes(mask) {
            let a = self.reg(wid, addr, l);
            if !a.is_multiple_of(4) {
                return Err(SimError::UnalignedAccess { addr: a });
            }
            if a + 4 > lds_bytes {
                return Err(SimError::BadLdsAccess {
                    offset: a,
                    lds_bytes,
                });
            }
            let a = a as usize;
            let old =
                u32::from_le_bytes(self.groups[gidx].lds[a..a + 4].try_into().expect("4 bytes"));
            let v = self.reg(wid, value, l);
            let new = match op {
                AtomicOp::Add => old.wrapping_add(v),
                AtomicOp::Exchange => v,
                AtomicOp::CmpXchg { cmp } => {
                    let c = self.reg(wid, cmp, l);
                    if old == c {
                        v
                    } else {
                        old
                    }
                }
                AtomicOp::Max => old.max(v),
                AtomicOp::Min => old.min(v),
            };
            self.groups[gidx].lds[a..a + 4].copy_from_slice(&new.to_le_bytes());
            if let Some(d) = dst {
                self.set_reg(wid, d, l, old);
            }
        }

        let done = issue + lat.lds_latency + nlanes * lat.lds_conflict;
        let pc = self.waves[wid].pc;
        self.waves[wid].pc += 1;
        self.waves[wid].ready_at = done;
        // The wave holds its slot until the serialized RMW chain drains.
        self.profile_issue(
            wid,
            pc,
            crate::profile::SlotCat::IssueLds,
            issue,
            (issue + lat.lds_issue).min(done),
        );
        self.profile_post(wid, pc, crate::profile::SlotCat::StallLdsConflict, done);
        self.bump_end(done);
        Ok(())
    }
}
