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

use crate::alu::{each_lane, Lanes, LANES};
use crate::cache::{Cache, L2Banks, WayId};
use crate::config::{DeviceConfig, SimEngine};
use crate::counters::PerfCounters;
use crate::engine::{PipeUnit, WakeQueue};
use crate::error::SimError;
use crate::fault::FaultTarget;
use crate::flat::{Code, CompiledKernel, Decoded, FlatOp};
use crate::launch::{LaunchConfig, LaunchStats, Occupancy, OccupancyLimiter};
use crate::memory::{DramTimer, Extent, GlobalMemory};
use crate::power::PowerModel;
use rmt_ir::{AtomicOp, Builtin, ParamKind, Reg};

/// The lanes of the register at lane offset `off`.
fn lanes(regs: &[u32], off: usize) -> &[u32; LANES] {
    regs[off..off + LANES]
        .try_into()
        .expect("a register holds LANES lanes")
}

/// The lanes of the register at lane offset `off`, for writing.
fn lanes_mut(regs: &mut [u32], off: usize) -> &mut [u32; LANES] {
    (&mut regs[off..off + LANES])
        .try_into()
        .expect("a register holds LANES lanes")
}

/// Runs `f` on the lanes of the sources at lane offsets `srcs` and on the
/// destination's lanes at `dst`, split-borrowed from one register file:
/// the sources are read in place, and only a source that is the
/// destination itself is copied first, so `f` sees every source as it
/// was before the instruction wrote anything.
#[inline(always)]
fn with_operands<const N: usize, R>(
    regs: &mut [u32],
    dst: usize,
    srcs: [usize; N],
    f: impl FnOnce([&[u32; LANES]; N], &mut [u32; LANES]) -> R,
) -> R {
    let (below, rest) = regs.split_at_mut(dst);
    let (out, above) = rest.split_at_mut(LANES);
    let out: &mut [u32; LANES] = out.try_into().expect("a register holds LANES lanes");
    // Offsets are multiples of LANES, so a source other than `dst` lies
    // wholly below or wholly above it.
    let src = |s: usize| {
        if s < dst {
            lanes(below, s)
        } else {
            lanes(above, s - dst - LANES)
        }
    };
    if srcs.contains(&dst) {
        let copy = *out;
        f(srcs.map(|s| if s == dst { &copy } else { src(s) }), out)
    } else {
        f(srcs.map(src), out)
    }
}

/// Runs an atomic's lane loop `f` on its `[addr, value, cmp]` lanes (see
/// [`Decoded::src`]) and, when it returns the old value (`ret`), on its
/// destination's lanes, borrowed as [`with_operands`] does.
fn with_atomic_operands<R>(
    regs: &mut [u32],
    d: &Decoded,
    ret: bool,
    f: impl FnOnce([&[u32; LANES]; 3], Option<&mut [u32; LANES]>) -> R,
) -> R {
    if ret {
        with_operands(regs, d.dst, d.src, |srcs, out| f(srcs, Some(out)))
    } else {
        f(d.src.map(|s| lanes(regs, s)), None)
    }
}

/// One coalesced cache line of a global memory instruction. Its L1 way
/// and its buffer's extent are resolved once and shared by all its lanes.
#[derive(Debug, Clone, Copy)]
struct Line {
    addr: u32,
    way: Option<WayId>,
    extent: Option<Extent>,
}

/// Gathers the distinct lines that `addrs` touch under `mask` into `lines`
/// in first-touch (ascending lane) order, and records each active lane's
/// index into `lines` in `lane_line`.
fn coalesce(
    addrs: &[u32; LANES],
    mask: u64,
    line_mask: u32,
    lines: &mut Vec<Line>,
    lane_line: &mut [u8; LANES],
) {
    lines.clear();
    for l in Lanes(mask) {
        let addr = addrs[l] & line_mask;
        // Neighbouring lanes usually share a line: search newest first.
        let k = lines
            .iter()
            .rposition(|x| x.addr == addr)
            .unwrap_or_else(|| {
                lines.push(Line {
                    addr,
                    way: None,
                    extent: None,
                });
                lines.len() - 1
            });
        lane_line[l] = k as u8;
    }
}

/// Validates an LDS word access and returns its byte offset: 4-byte
/// aligned and inside the group's `lds_bytes`. The end is compared in 64
/// bits, so an address within 4 bytes of `u32::MAX` cannot wrap past it.
fn lds_offset(a: u32, lds_bytes: u32) -> Result<usize, SimError> {
    if !a.is_multiple_of(4) {
        return Err(SimError::UnalignedAccess { addr: a });
    }
    if u64::from(a) + 4 > u64::from(lds_bytes) {
        return Err(SimError::BadLdsAccess {
            offset: a,
            lds_bytes,
        });
    }
    Ok(a as usize)
}

/// Bank-conflict factor of one LDS access: 32 banks of 4-byte words, and
/// the 64-lane wave is served in two 32-lane phases, so the factor is the
/// deeper phase's deepest bank. Identical addresses within a phase
/// broadcast, so a bank's depth counts its *distinct* words.
///
/// `seen` is a zeroed bitset with one bit per LDS word, which every active
/// address must already be validated against; it is zeroed again on
/// return. One pass over the active lanes, however they collide.
fn lds_conflict_factor(addrs: &[u32; LANES], mask: u64, seen: &mut [u64]) -> u64 {
    let mut factor = 1u64;
    for phase in [mask & 0xFFFF_FFFF, mask & !0xFFFF_FFFF] {
        let mut depth = [0u8; 32];
        for l in Lanes(phase) {
            let w = (addrs[l] / 4) as usize;
            let bit = 1u64 << (w % 64);
            if seen[w / 64] & bit == 0 {
                seen[w / 64] |= bit;
                let bank = w % 32;
                depth[bank] += 1;
                factor = factor.max(u64::from(depth[bank]));
            }
        }
        for l in Lanes(phase) {
            seen[(addrs[l] / 4) as usize / 64] = 0;
        }
    }
    factor
}

/// The value an atomic leaves in memory, given the old value, the lane's
/// operand and (for compare-exchange) its comparand.
fn atomic_result(op: AtomicOp, old: u32, v: u32, cmp: u32) -> u32 {
    match op {
        AtomicOp::Add => old.wrapping_add(v),
        AtomicOp::Exchange => v,
        AtomicOp::CmpXchg { .. } => {
            if old == cmp {
                v
            } else {
                old
            }
        }
        AtomicOp::Max => old.max(v),
        AtomicOp::Min => old.min(v),
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
    /// The register slots, `LANES` lanes each (`CompiledKernel::slots`).
    regs: Vec<u32>,
    /// Completion tick of the in-flight load producing each virtual
    /// register (GCN-style s_waitcnt: consumers stall at first use, not at
    /// issue).
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

/// The machine state a [`crate::Device`] keeps between launches: the
/// caches, and the register files and LDS buffers of retired waves and
/// finished groups. Each launch resets the caches and draws its buffers
/// from here, zero-filled exactly as a fresh `vec![0; n]` would be, so a
/// launch observes the same state on a reused device as on a new one;
/// only the allocations are kept. The free lists hold at most the peak
/// residency of one launch, and the wake queue at most one launch's
/// entries.
#[derive(Debug)]
pub(crate) struct MachineState {
    l1: Vec<Cache>,
    l2: Cache,
    wake: WakeQueue,
    regs: Vec<Vec<u32>>,
    reg_ready: Vec<Vec<u64>>,
    reg_src: Vec<Vec<u8>>,
    lds: Vec<Vec<u8>>,
}

impl MachineState {
    /// Empty free lists; the caches get `cfg`'s geometry at each launch.
    pub(crate) fn new(cfg: &DeviceConfig) -> Self {
        MachineState {
            l1: Vec::new(),
            l2: Cache::new(cfg.l2_bytes, cfg.line_bytes, cfg.l2_assoc, false),
            wake: WakeQueue::default(),
            regs: Vec::new(),
            reg_ready: Vec::new(),
            reg_src: Vec::new(),
            lds: Vec::new(),
        }
    }

    /// Puts the caches in the state a new cache of `cfg`'s geometry has,
    /// in place unless `cfg` changed the geometry.
    fn reset_caches(&mut self, cfg: &DeviceConfig) {
        let line = cfg.line_bytes;
        self.l1.truncate(cfg.num_cus);
        self.l1.resize_with(cfg.num_cus, || {
            Cache::new(cfg.l1_bytes, line, cfg.l1_assoc, true)
        });
        for c in &mut self.l1 {
            c.reset(cfg.l1_bytes, line, cfg.l1_assoc, true);
        }
        self.l2.reset(cfg.l2_bytes, line, cfg.l2_assoc, false);
    }
}

/// A buffer of `n` zeros, taken from `free` when it holds one.
fn zeroed<T: Copy + Default>(free: &mut Vec<Vec<T>>, n: usize) -> Vec<T> {
    let mut v = free.pop().unwrap_or_default();
    v.clear();
    v.resize(n, T::default());
    v
}

/// Moves `buf` back to `free`, leaving it empty (a buffer that never
/// allocated is dropped).
fn give_back<T>(free: &mut Vec<Vec<T>>, buf: &mut Vec<T>) {
    if buf.capacity() > 0 {
        free.push(std::mem::take(buf));
    }
}

pub(crate) struct Machine<'a> {
    cfg: &'a DeviceConfig,
    kernel: &'a CompiledKernel,
    mem: &'a mut GlobalMemory,
    /// Caches and buffer free lists, owned by the device.
    st: &'a mut MachineState,
    global: [usize; 3],
    local: [usize; 3],
    group_dims: [usize; 3],
    group_size: usize,
    waves_per_group: usize,
    param_values: Vec<u32>,
    occupancy: Occupancy,

    l2_banks: L2Banks,
    dram: DramTimer,
    cus: Vec<CuState>,

    waves: Vec<Wave>,
    groups: Vec<GroupState>,
    engine: SimEngine,
    next_group: usize,
    groups_total: usize,

    counters: PerfCounters,
    power: PowerModel,
    end_tick: u64,

    faults: Vec<crate::fault::Injection>,
    next_fault: usize,
    faults_applied: usize,

    /// Reused coalescing buffer for global memory instructions (avoids a
    /// heap allocation per instruction).
    lines: Vec<Line>,
    /// Zeroed bitset over the LDS words, scratch for
    /// [`lds_conflict_factor`].
    lds_seen: Vec<u64>,

    tracer: Option<crate::trace::Tracer>,
    profiler: Option<crate::profile::Profiler>,
}

/// A launch that ends early (an error) leaves waves and groups resident;
/// their buffers go back to the device here, like those of retired waves.
impl Drop for Machine<'_> {
    fn drop(&mut self) {
        for w in &mut self.waves {
            give_back(&mut self.st.regs, &mut w.regs);
            give_back(&mut self.st.reg_ready, &mut w.reg_ready);
            give_back(&mut self.st.reg_src, &mut w.reg_src);
        }
        for g in &mut self.groups {
            give_back(&mut self.st.lds, &mut g.lds);
        }
    }
}

/// Computes launch occupancy, or why the kernel cannot be scheduled.
pub(crate) fn occupancy(
    cfg: &DeviceConfig,
    kernel: &CompiledKernel,
    group_size: usize,
) -> Result<Occupancy, SimError> {
    let vgprs = kernel.pressure.max(1).saturating_add(cfg.reserved_vgprs);
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
    let lds_total = kernel.lds_bytes as u64;
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
    let groups_per_cu = groups_by_waves
        .min(groups_by_lds)
        .min(cfg.max_groups_per_cu);
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
        st: &'a mut MachineState,
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
            // The id builtins are 32-bit.
            if u32::try_from(launch.global[d]).is_err() {
                return Err(SimError::BadGeometry(format!(
                    "global[{d}]={} exceeds the 32-bit id range",
                    launch.global[d]
                )));
            }
        }
        let (Some(group_size), Some(groups_total)) = (launch.group_size(), launch.num_groups())
        else {
            return Err(SimError::BadGeometry(format!(
                "work-item count of global {:?} / local {:?} overflows",
                launch.global, launch.local
            )));
        };
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

        let occ = occupancy(cfg, kernel, group_size)?;
        let group_dims = [
            launch.global[0] / launch.local[0],
            launch.global[1] / launch.local[1],
            launch.global[2] / launch.local[2],
        ];

        let mut faults = launch.faults.injections.clone();
        faults.sort_by_key(|i| i.after_dyn_inst);
        st.reset_caches(cfg);
        st.wake.clear();

        let mut m = Machine {
            cfg,
            kernel,
            mem,
            st,
            global: launch.global,
            local: launch.local,
            group_dims,
            group_size,
            waves_per_group: occ.waves_per_group,
            param_values,
            occupancy: occ,
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
            lines: Vec::with_capacity(LANES),
            lds_seen: vec![0; (kernel.lds_bytes as usize / 4).div_ceil(64)],
            tracer: launch.trace.clone().map(crate::trace::Tracer::new),
            // Built before the initial dispatch below, so it sees every
            // wave start and group dispatch.
            profiler: launch.profile.clone().map(|p| {
                crate::profile::Profiler::new(
                    p,
                    cfg.num_cus,
                    cfg.simds_per_cu,
                    cfg.max_waves_per_cu() as u64,
                    kernel.ops.len(),
                )
            }),
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
                regs: zeroed(&mut self.st.regs, self.kernel.slots as usize * LANES),
                reg_ready: zeroed(&mut self.st.reg_ready, self.kernel.nregs as usize),
                reg_src: zeroed(&mut self.st.reg_src, self.kernel.nregs as usize),
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
            lds: zeroed(&mut self.st.lds, self.kernel.lds_bytes as usize),
            wave_ids,
            waves_done: 0,
            barrier_arrived: 0,
        });
        self.cus[cu].resident += 1;
        if let Some(p) = &mut self.profiler {
            p.on_dispatch(t, (self.groups_total - self.next_group) as u64);
        }
    }

    /// Arms `wid` to wake at `t`. In the event engine this feeds the wake
    /// queue; the lock-step engine discovers readiness by scanning, so
    /// arming is a no-op there (and the queue stays empty).
    #[inline]
    fn arm(&mut self, t: u64, wid: usize) {
        if self.engine == SimEngine::Event {
            self.st.wake.push(t, wid);
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

    /// The event core: take the earliest `(wake_tick, wave)`, skip stale
    /// entries, step, then re-arm the wave and take the next entry in one
    /// [`WakeQueue::push_pop`]. While the stepped wave's next wake is
    /// before the queue head — a lower bound on every other live wave,
    /// since each keeps an entry at its exact `ready_at` — that is the
    /// wave itself, and the heap is not touched (the run-ahead path).
    fn run_event(&mut self) -> Result<(), SimError> {
        let mut next = self.st.wake.pop();
        while let Some((t, wid)) = next {
            let w = &self.waves[wid];
            if w.done || w.at_barrier || w.ready_at != t {
                next = self.st.wake.pop(); // stale queue entry (lazy invalidation)
                continue;
            }
            self.step_checked(wid, t)?;
            let w = &self.waves[wid];
            next = if w.done || w.at_barrier {
                self.st.wake.pop()
            } else {
                Some(self.st.wake.push_pop(w.ready_at, wid))
            };
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
            self.st.wake.peek().is_none(),
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
                        self.step_lockstep(wid, now)?;
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

    /// [`Machine::step_checked`] for the lock-step scan, kept out of line:
    /// inlined, it slowed that scan by about a quarter at paper scale
    /// (`repro bench`), although the scan itself did not change.
    #[inline(never)]
    fn step_lockstep(&mut self, wid: usize, t: u64) -> Result<(), SimError> {
        self.step_checked(wid, t)
    }

    /// Runs the launch to completion.
    pub(crate) fn run(mut self) -> Result<LaunchStats, SimError> {
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
        self.counters.l2 = self.st.l2.stats;
        for c in &self.st.l1 {
            let s = &c.stats;
            self.counters.l1.read_hits += s.read_hits;
            self.counters.l1.read_misses += s.read_misses;
            self.counters.l1.write_hits += s.write_hits;
            self.counters.l1.write_misses += s.write_misses;
            self.counters.l1.evictions += s.evictions;
        }
        let power = self.power.finish(self.counters.wall_ticks);
        let trace = self.tracer.take().map(|t| t.trace);
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
            counters: std::mem::take(&mut self.counters),
            power,
            occupancy: self.occupancy,
            faults_applied: self.faults_applied,
            trace,
            profile,
        };
        stats.publish_obs();
        Ok(stats)
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
                let Some(wid) = self.find_wave(group, wave) else {
                    return false;
                };
                let w = &mut self.waves[wid];
                // A register no slot holds at the wave's PC is dead there:
                // the flip lands and changes nothing.
                if let Some(off) = self.kernel.slot_at(reg, w.pc) {
                    w.regs[off + lane] ^= 1 << (bit % 32);
                }
                true
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
                let Some(wid) = self.find_wave(group, wave) else {
                    return false;
                };
                let w = &mut self.waves[wid];
                if let Some(off) = self.kernel.slot_at(reg, w.pc) {
                    for v in &mut w.regs[off..off + LANES] {
                        *v ^= 1 << (bit % 32);
                    }
                }
                true
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
                cu < self.st.l1.len() && self.st.l1[cu].flip_bit(addr, bit)
            }
            FaultTarget::GlobalMem { addr, bit } => self.mem.flip_bit(addr, bit),
        }
    }

    // ---- per-instruction execution ----------------------------------------

    /// Builtin `b`'s value in every lane of wave `wid`, inactive lanes
    /// included. Uniform builtins are one value; the id builtins step the
    /// lanes' local coordinates along instead of dividing per lane.
    fn builtin_lanes(&self, wid: usize, b: Builtin) -> [u32; LANES] {
        let w = &self.waves[wid];
        let g = &self.groups[w.group];
        let (d, base) = match b {
            Builtin::GlobalId(d) => {
                let d = d.0 as usize;
                (d, g.coords[d] * self.local[d] as u32)
            }
            Builtin::LocalId(d) => (d.0 as usize, 0),
            Builtin::GroupId(d) => return [g.coords[d.0 as usize]; LANES],
            Builtin::GlobalSize(d) => return [self.global[d.0 as usize] as u32; LANES],
            Builtin::LocalSize(d) => return [self.local[d.0 as usize] as u32; LANES],
            Builtin::NumGroups(d) => return [self.group_dims[d.0 as usize] as u32; LANES],
        };
        let [lsx, lsy, _] = self.local;
        let ll = w.wave_in_group * LANES; // local linear index of lane 0
        let mut c = [ll % lsx, (ll / lsx) % lsy, ll / (lsx * lsy)];
        let mut out = [0; LANES];
        for v in &mut out {
            *v = base + c[d] as u32;
            c[0] += 1;
            if c[0] == lsx {
                c[0] = 0;
                c[1] += 1;
                if c[1] == lsy {
                    c[1] = 0;
                    c[2] += 1;
                }
            }
        }
        out
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

    /// Executes one wavefront instruction at time `t`, with one match on
    /// its decoded [`Code`].
    fn step(&mut self, wid: usize, t: u64) -> Result<(), SimError> {
        // Copy the `&'a` kernel reference out of `self` so the decoded op
        // can be borrowed without pinning `&mut self`.
        let kernel = self.kernel;
        let pc = self.waves[wid].pc;
        // An empty program has nothing to fetch: the wave retires at its
        // first scheduling slot.
        let Some(d) = kernel.decoded.get(pc) else {
            self.retire_wave(wid);
            return Ok(());
        };
        self.counters.dyn_insts += 1;
        let srcs = &d.srcs[..d.nsrcs as usize];
        // Stall until in-flight loads feeding this instruction land.
        let t_sched = t;
        let t = {
            let rr = &self.waves[wid].reg_ready;
            let mut ready = t;
            for r in srcs {
                ready = ready.max(rr[r.0 as usize]);
            }
            ready
        };
        // Classify the first-use data stall by its producing unit (only
        // when someone is observing; a plain run skips this entirely).
        let stall = if t > t_sched && (self.profiler.is_some() || self.tracer.is_some()) {
            let w = &self.waves[wid];
            let mut cat = crate::profile::SlotCat::StallMem;
            for r in srcs {
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
            tracer.record(
                t,
                group,
                wave,
                cu,
                simd,
                pc,
                mask,
                stall,
                || match &kernel.ops[pc] {
                    FlatOp::Op(inst) => rmt_ir::inst_to_string(inst),
                    FlatOp::IfBegin { cond, .. } => format!("if.begin {cond}"),
                    FlatOp::Else { .. } => "if.else".into(),
                    FlatOp::EndIf => "if.end".into(),
                    FlatOp::LoopBegin { .. } => "loop.begin".into(),
                    FlatOp::LoopTest { cond, .. } => format!("loop.test {cond}"),
                    FlatOp::LoopEnd { .. } => "loop.end".into(),
                },
            );
        }
        let mask = self.waves[wid].mask;
        let regs = &mut self.waves[wid].regs;
        match d.code {
            Code::IfBegin { else_pc } => {
                let cond = lanes(regs, d.src[0]);
                let mut tmask = 0u64;
                for l in Lanes(mask) {
                    if cond[l] != 0 {
                        tmask |= 1 << l;
                    }
                }
                let emask = mask & !tmask;
                let w = &mut self.waves[wid];
                w.stack.push(Frame::If {
                    saved: mask,
                    else_mask: emask,
                });
                if tmask != 0 {
                    w.mask = tmask;
                    w.pc = pc + 1;
                } else {
                    w.mask = emask;
                    w.pc = else_pc + 1;
                }
                self.charge_alu(wid, pc, t, true, false);
            }
            Code::Else { end_pc } => {
                let w = &mut self.waves[wid];
                let frame = *w.stack.last().expect("if frame");
                let Frame::If { else_mask, .. } = frame else {
                    unreachable!("Else without If frame");
                };
                if else_mask != 0 {
                    w.mask = else_mask;
                    w.pc = pc + 1;
                } else {
                    w.pc = end_pc;
                }
                self.charge_alu(wid, pc, t, true, false);
            }
            Code::EndIf => {
                let w = &mut self.waves[wid];
                let frame = w.stack.pop().expect("if frame");
                let Frame::If { saved, .. } = frame else {
                    unreachable!("EndIf without If frame");
                };
                w.mask = saved;
                w.pc = pc + 1;
                self.charge_alu(wid, pc, t, true, false);
            }
            Code::LoopBegin => {
                let w = &mut self.waves[wid];
                w.stack.push(Frame::Loop { saved: mask });
                w.pc = pc + 1;
                self.charge_alu(wid, pc, t, true, false);
            }
            Code::LoopTest { end_pc } => {
                let cond = lanes(regs, d.src[0]);
                let mut active = 0u64;
                for l in Lanes(mask) {
                    if cond[l] != 0 {
                        active |= 1 << l;
                    }
                }
                let w = &mut self.waves[wid];
                if active == 0 {
                    let frame = w.stack.pop().expect("loop frame");
                    let Frame::Loop { saved } = frame else {
                        unreachable!("LoopTest without Loop frame");
                    };
                    w.mask = saved;
                    w.pc = end_pc;
                } else {
                    w.mask = active;
                    w.pc = pc + 1;
                }
                self.charge_alu(wid, pc, t, true, false);
            }
            Code::LoopEnd { begin_pc } => {
                self.waves[wid].pc = begin_pc + 1;
                self.charge_alu(wid, pc, t, true, false);
            }
            Code::Const(bits) => {
                let out = lanes_mut(regs, d.dst);
                each_lane(mask, |l| out[l] = bits);
                self.advance(wid, pc, t, d);
            }
            Code::Param(index) => {
                let v = self.param_values[index];
                let out = lanes_mut(regs, d.dst);
                each_lane(mask, |l| out[l] = v);
                self.advance(wid, pc, t, d);
            }
            Code::Builtin(builtin) => {
                let v = self.builtin_lanes(wid, builtin);
                let out = lanes_mut(&mut self.waves[wid].regs, d.dst);
                each_lane(mask, |l| out[l] = v[l]);
                self.advance(wid, pc, t, d);
            }
            Code::Mov => {
                let (di, si) = (d.dst, d.src[0]);
                if mask == u64::MAX {
                    regs.copy_within(si..si + LANES, di);
                } else {
                    for l in Lanes(mask) {
                        regs[di + l] = regs[si + l];
                    }
                }
                self.advance(wid, pc, t, d);
            }
            Code::Alu1(f) => {
                with_operands(regs, d.dst, [d.src[0]], |[a], out| f(a, mask, out));
                self.advance(wid, pc, t, d);
            }
            Code::Alu2(f) => {
                with_operands(regs, d.dst, [d.src[0], d.src[1]], |[a, b], out| {
                    f(a, b, mask, out)
                });
                self.advance(wid, pc, t, d);
            }
            Code::Select => {
                with_operands(regs, d.dst, d.src, |[c, x, y], out| {
                    each_lane(mask, |l| out[l] = if c[l] != 0 { x[l] } else { y[l] })
                });
                self.advance(wid, pc, t, d);
            }
            Code::Swizzle(mode) => {
                // A true lane exchange: every source lane is read as it
                // was before the write.
                with_operands(regs, d.dst, [d.src[0]], |[src], out| {
                    each_lane(mask, |l| out[l] = src[mode.source_lane(l)])
                });
                // Always a vector op.
                self.waves[wid].pc = pc + 1;
                self.charge_alu(wid, pc, t, false, false);
            }
            Code::LoadGlobal(dst) => self.exec_global_load(wid, pc, t, d, dst)?,
            Code::LoadLds(dst) => self.exec_lds(wid, pc, t, d, Some(dst))?,
            Code::StoreGlobal => self.exec_global_store(wid, pc, t, d)?,
            Code::StoreLds => self.exec_lds(wid, pc, t, d, None)?,
            Code::AtomicGlobal { op, ret } => self.exec_global_atomic(wid, pc, t, d, op, ret)?,
            Code::AtomicLds { op, ret } => self.exec_lds_atomic(wid, pc, t, d, op, ret)?,
            Code::Barrier => {
                let salu_issue = self.cfg.lat.salu_issue;
                let w = &mut self.waves[wid];
                let gidx = w.group;
                w.pc = pc + 1;
                w.at_barrier = true;
                w.ready_at = t + salu_issue;
                // The barrier instruction itself issues on the scalar
                // path; the wait until group-wide release is attributed
                // as stall-barrier when the wave is next scheduled.
                if let Some(p) = &mut self.profiler {
                    p.on_issue(
                        wid,
                        pc,
                        crate::profile::SlotCat::IssueSalu,
                        t,
                        t + salu_issue,
                    );
                    p.on_barrier(wid, pc);
                }
                self.groups[gidx].barrier_arrived += 1;
                self.counters.barrier_waits += 1;
                self.check_barrier_release(gidx, t);
            }
        }

        // Retire?
        if self.waves[wid].pc >= kernel.decoded.len() && !self.waves[wid].at_barrier {
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
        give_back(&mut self.st.regs, &mut w.regs);
        give_back(&mut self.st.reg_ready, &mut w.reg_ready);
        give_back(&mut self.st.reg_src, &mut w.reg_src);
        let gidx = w.group;
        let end = w.ready_at;
        let cu = w.cu;
        self.groups[gidx].waves_done += 1;
        self.bump_end(end);
        self.check_barrier_release(gidx, end);
        if self.groups[gidx].waves_done == self.groups[gidx].wave_ids.len() {
            // Group complete.
            give_back(&mut self.st.lds, &mut self.groups[gidx].lds);
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
            self.groups[gidx].barrier_arrived = 0;
            let release = now + self.cfg.lat.salu_issue;
            for i in 0..self.groups[gidx].wave_ids.len() {
                let wid = self.groups[gidx].wave_ids[i];
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

    /// Advances past ALU op `d` at `pc` and charges its issue.
    fn advance(&mut self, wid: usize, pc: usize, t: u64, d: &Decoded) {
        self.waves[wid].pc = pc + 1;
        self.charge_alu(wid, pc, t, d.scalar, d.transcendental);
    }

    /// A load `d.scalar` marks wavefront-uniform is one the compiler
    /// would issue on the scalar unit (GCN s_load through the constant
    /// cache) — it occupies the SU instead of the vector memory unit, but
    /// still observes the (potentially stale) cached line data. `dst` is
    /// the loaded register, whose first use waits for the data.
    fn exec_global_load(
        &mut self,
        wid: usize,
        pc: usize,
        t: u64,
        d: &Decoded,
        dst: Reg,
    ) -> Result<(), SimError> {
        let (mask, cu) = (self.waves[wid].mask, self.waves[wid].cu);
        let lat = self.cfg.lat;
        let line_mask = !(self.cfg.line_bytes - 1);

        // Gather distinct lines (coalescing), preserving first-touch order.
        let mut lines = std::mem::take(&mut self.lines);
        let mut lane_line = [0u8; LANES];
        let addrs = lanes(&self.waves[wid].regs, d.src[0]);
        coalesce(addrs, mask, line_mask, &mut lines, &mut lane_line);

        let issue;
        if d.scalar {
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
        for line in &lines {
            self.power.deposit(issue, self.cfg.power.l1_nj);
            let hit = self.st.l1[cu].load_word(line.addr).is_some();
            if let Some(p) = &mut self.profiler {
                p.on_l1(hit, issue);
            }
            if !hit {
                // L1 miss: consult the (banked) L2, then DRAM bandwidth.
                self.counters.l2_transactions += 1;
                self.power.deposit(issue, self.cfg.power.l2_nj);
                let l2_start = self.l2_banks.reserve(line.addr, issue, lat.l2_issue);
                let line_done = if self.st.l2.touch_read(line.addr) {
                    l2_start + lat.l2_latency
                } else {
                    self.counters.dram_transactions += 1;
                    self.power.deposit(l2_start, self.cfg.power.dram_nj);
                    let d_start = self.dram.reserve(l2_start, lat.dram_issue);
                    d_start + lat.dram_latency
                };
                done = done.max(line_done);
                let mem = &*self.mem;
                self.st.l1[cu].fill(line.addr, |buf| mem.read_line(line.addr, buf));
            }
        }

        // Functional: validate bounds via backing store, then take the
        // (possibly stale) L1 copy as the observed value. Ways are resolved
        // after every fill, since a later line's fill can evict an earlier
        // one of the same instruction.
        for line in &mut lines {
            line.way = self.st.l1[cu].way_of(line.addr);
            line.extent = self.mem.extent_of(line.addr);
        }
        let (mem, l1, name) = (&*self.mem, &self.st.l1[cu], &self.kernel.name);
        with_operands(
            &mut self.waves[wid].regs,
            d.dst,
            [d.src[0]],
            |[addrs], out| {
                for l in Lanes(mask) {
                    let (a, line) = (addrs[l], lines[lane_line[l] as usize]);
                    let off = mem.word_offset(line.extent, a, name)?;
                    out[l] = match line.way {
                        Some(way) => l1.word(way, a),
                        None => mem.word_at(off),
                    };
                }
                Ok(())
            },
        )?;
        self.counters.bytes_loaded += 4 * mask.count_ones() as u64;

        // The wavefront continues after issue; the destination register is
        // gated on `done` (s_waitcnt semantics).
        let w = &mut self.waves[wid];
        w.pc = pc + 1;
        w.ready_at = issue + lat.salu_issue;
        w.reg_ready[dst.0 as usize] = done;
        w.reg_src[dst.0 as usize] = SRC_GLOBAL;
        let cat = if d.scalar {
            crate::profile::SlotCat::IssueSalu
        } else {
            crate::profile::SlotCat::IssueVmem
        };
        self.profile_issue(wid, pc, cat, issue, issue + lat.salu_issue);
        self.bump_end(done);
        self.lines = lines;
        Ok(())
    }

    fn exec_global_store(
        &mut self,
        wid: usize,
        pc: usize,
        t: u64,
        d: &Decoded,
    ) -> Result<(), SimError> {
        let (mask, cu) = (self.waves[wid].mask, self.waves[wid].cu);
        let lat = self.cfg.lat;
        let line_mask = !(self.cfg.line_bytes - 1);
        let regs = &self.waves[wid].regs;
        let (addrs, values) = (lanes(regs, d.src[0]), lanes(regs, d.src[1]));

        let mut lines = std::mem::take(&mut self.lines);
        let mut lane_line = [0u8; LANES];
        coalesce(addrs, mask, line_mask, &mut lines, &mut lane_line);

        // Phase 1 (intra-tick order, point 2): reserve the issue unit.
        let occ = lines.len() as u64 * lat.l1_issue;
        let issue = self.cus[cu].mem.reserve(t, occ);
        self.counters.mem_unit_busy_ticks += occ;
        self.counters.vmem_insts += 1;
        self.counters.l1_transactions += lines.len() as u64;
        self.counters.l2_transactions += lines.len() as u64;

        // Phase 2 (point 3): write-through — charge L2 bank + DRAM write
        // bandwidth per line, in first-touch order.
        for line in &lines {
            self.power.deposit(issue, self.cfg.power.l2_nj);
            let l2_start = self.l2_banks.reserve(line.addr, issue, lat.l2_issue);
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
        // Stores neither fill nor evict, so each line's way holds for the
        // whole instruction; the L1's stats and LRU stamp advance per lane.
        for line in &mut lines {
            line.way = self.st.l1[cu].way_of(line.addr);
            line.extent = self.mem.extent_of(line.addr);
        }
        for l in Lanes(mask) {
            let (a, line) = (addrs[l], lines[lane_line[l] as usize]);
            let off = self.mem.word_offset(line.extent, a, &self.kernel.name)?;
            self.mem.set_word_at(off, values[l]);
            self.st.l1[cu].store_word(line.way, a, values[l]);
        }
        self.counters.bytes_stored += 4 * mask.count_ones() as u64;

        let w = &mut self.waves[wid];
        w.pc = pc + 1;
        w.ready_at = ready;
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
        self.lines = lines;
        Ok(())
    }

    fn exec_global_atomic(
        &mut self,
        wid: usize,
        pc: usize,
        t: u64,
        d: &Decoded,
        op: AtomicOp,
        ret: bool,
    ) -> Result<(), SimError> {
        let (mask, cu) = (self.waves[wid].mask, self.waves[wid].cu);
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
        // dependency chains), so a line costs its longest chain: the
        // longest run of equal addresses once the lanes are sorted.
        let line_mask = !(self.cfg.line_bytes - 1);
        let addrs = lanes(&self.waves[wid].regs, d.src[0]);
        let mut lines = std::mem::take(&mut self.lines);
        let mut lane_line = [0u8; LANES];
        coalesce(addrs, mask, line_mask, &mut lines, &mut lane_line);
        let mut chain = [0u64; LANES]; // per line
        {
            let mut order = [0u8; LANES];
            let mut n = 0;
            for l in Lanes(mask) {
                order[n] = l as u8;
                n += 1;
            }
            let order = &mut order[..n];
            order.sort_unstable_by_key(|&l| addrs[l as usize]);
            for run in order.chunk_by(|&x, &y| addrs[x as usize] == addrs[y as usize]) {
                let k = lane_line[run[0] as usize] as usize;
                chain[k] = chain[k].max(run.len() as u64);
            }
        }
        let mut done_by = issue;
        for (line, &conflict) in lines.iter().zip(&chain) {
            let start = self
                .l2_banks
                .reserve(line.addr, issue, conflict * lat.atomic_issue);
            done_by = done_by.max(start + conflict * lat.atomic_issue);
            self.counters.l2_transactions += 1;
            self.power.deposit(start, self.cfg.power.atomic_nj);
        }

        // Functional, in lane order. A line is dropped from the L1 at its
        // first lane; later lanes of the line find nothing to drop.
        for line in &mut lines {
            line.way = self.st.l1[cu].way_of(line.addr);
            line.extent = self.mem.extent_of(line.addr);
        }
        let (mem, l1, name) = (&mut *self.mem, &mut self.st.l1[cu], &self.kernel.name);
        with_atomic_operands(
            &mut self.waves[wid].regs,
            d,
            ret,
            |[addrs, values, cmps], mut out| {
                for l in Lanes(mask) {
                    let (a, line) = (addrs[l], &mut lines[lane_line[l] as usize]);
                    let off = mem.word_offset(line.extent, a, name)?;
                    let old = mem.word_at(off);
                    mem.set_word_at(off, atomic_result(op, old, values[l], cmps[l]));
                    if let Some(way) = line.way.take() {
                        l1.invalidate(way);
                    }
                    if let Some(out) = out.as_deref_mut() {
                        out[l] = old;
                    }
                }
                Ok(())
            },
        )?;
        self.lines = lines;

        let done = done_by + lat.atomic_latency;
        let w = &mut self.waves[wid];
        w.pc = pc + 1;
        w.ready_at = done;
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

    /// An LDS load into register `load`, or a store when `load` is `None`.
    fn exec_lds(
        &mut self,
        wid: usize,
        pc: usize,
        t: u64,
        d: &Decoded,
        load: Option<Reg>,
    ) -> Result<(), SimError> {
        let w = &self.waves[wid];
        let (mask, cu, gidx) = (w.mask, w.cu, w.group);
        let lat = self.cfg.lat;
        let lds_bytes = self.kernel.lds_bytes;
        let addrs = lanes(&w.regs, d.src[0]);

        // Every lane is validated, in lane order, before anything is
        // charged; the conflict count then relies on valid addresses.
        for l in Lanes(mask) {
            lds_offset(addrs[l], lds_bytes)?;
        }
        let factor = lds_conflict_factor(addrs, mask, &mut self.lds_seen);
        self.counters.lds_conflicts += factor - 1;

        let occ = lat.lds_issue + (factor - 1) * lat.lds_conflict;
        let issue = self.cus[cu].lds.reserve(t, occ);
        self.counters.lds_busy_ticks += occ;
        self.counters.lds_insts += 1;
        self.power.deposit(issue, self.cfg.power.lds_nj);

        // Functional, on direct LDS and register borrows.
        if load.is_some() {
            let lds = &self.groups[gidx].lds;
            with_operands(
                &mut self.waves[wid].regs,
                d.dst,
                [d.src[0]],
                |[addrs], out| {
                    for l in Lanes(mask) {
                        let a = addrs[l] as usize;
                        let bytes: [u8; 4] = lds[a..a + 4].try_into().expect("4 bytes");
                        out[l] = u32::from_le_bytes(bytes);
                    }
                },
            );
        } else {
            let values = lanes(&self.waves[wid].regs, d.src[1]);
            let lds = &mut self.groups[gidx].lds;
            for l in Lanes(mask) {
                let a = addrs[l] as usize;
                lds[a..a + 4].copy_from_slice(&values[l].to_le_bytes());
            }
        }

        let done = issue + lat.lds_latency + (factor - 1) * lat.lds_conflict;
        let w = &mut self.waves[wid];
        w.pc = pc + 1;
        // Loads release the wave at issue; the result register is gated
        // on completion.
        w.ready_at = issue + lat.lds_issue;
        if let Some(dst) = load {
            w.reg_ready[dst.0 as usize] = done;
            w.reg_src[dst.0 as usize] = SRC_LDS;
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
        pc: usize,
        t: u64,
        d: &Decoded,
        op: AtomicOp,
        ret: bool,
    ) -> Result<(), SimError> {
        let w = &self.waves[wid];
        let (mask, cu, gidx) = (w.mask, w.cu, w.group);
        let lat = self.cfg.lat;
        let lds_bytes = self.kernel.lds_bytes;
        let nlanes = mask.count_ones() as u64;

        let occ = lat.lds_issue + nlanes * lat.lds_conflict;
        let issue = self.cus[cu].lds.reserve(t, occ);
        self.counters.lds_busy_ticks += occ;
        self.counters.lds_insts += 1;
        self.power.deposit(issue, self.cfg.power.lds_nj);

        let lds = &mut self.groups[gidx].lds;
        with_atomic_operands(
            &mut self.waves[wid].regs,
            d,
            ret,
            |[addrs, values, cmps], mut out| {
                for l in Lanes(mask) {
                    let a = lds_offset(addrs[l], lds_bytes)?;
                    let old = u32::from_le_bytes(lds[a..a + 4].try_into().expect("4 bytes"));
                    let new = atomic_result(op, old, values[l], cmps[l]);
                    lds[a..a + 4].copy_from_slice(&new.to_le_bytes());
                    if let Some(out) = out.as_deref_mut() {
                        out[l] = old;
                    }
                }
                Ok(())
            },
        )?;

        let done = issue + lat.lds_latency + nlanes * lat.lds_conflict;
        let w = &mut self.waves[wid];
        w.pc = pc + 1;
        w.ready_at = done;
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, quadratically: per phase, the distinct active
    /// addresses, then the deepest bank among them.
    fn naive_factor(addrs: &[u32; LANES], mask: u64) -> u64 {
        let mut factor = 1;
        for phase in 0..2 {
            let mut distinct: Vec<u32> = Vec::new();
            for (l, &a) in addrs.iter().enumerate().skip(phase * 32).take(32) {
                if mask >> l & 1 == 1 && !distinct.contains(&a) {
                    distinct.push(a);
                }
            }
            for bank in 0..32 {
                let depth = distinct.iter().filter(|&&a| (a / 4) % 32 == bank).count();
                factor = factor.max(depth as u64);
            }
        }
        factor
    }

    fn check(addrs: [u32; LANES], mask: u64, what: &str) {
        let mut seen = vec![0u64; (64 * 1024 / 4) / 64];
        let got = lds_conflict_factor(&addrs, mask, &mut seen);
        assert_eq!(got, naive_factor(&addrs, mask), "{what}, mask {mask:#x}");
        assert!(seen.iter().all(|&w| w == 0), "{what}: scratch left dirty");
    }

    #[test]
    fn lds_conflict_factor_matches_the_quadratic_definition() {
        let masks = [
            u64::MAX,
            0xFFFF_FFFF,
            0xFFFF_FFFF_0000_0000,
            0x8000_0001_8000_0001,
            0x5555_5555_5555_5555,
            1 << 40,
            0,
        ];
        type Pattern = (&'static str, fn(usize) -> u32);
        let patterns: [Pattern; 6] = [
            ("broadcast", |_| 256),
            ("stride-1-word", |l| 4 * l as u32),
            ("stride-32-words", |l| 128 * l as u32),
            ("all-one-bank", |l| 128 * (l % 8) as u32 + 12),
            ("mixed duplicates", |l| 4 * ((l * l) % 37) as u32),
            ("phase-split", |l| if l < 32 { 8 } else { 128 * l as u32 }),
        ];
        for (what, f) in patterns {
            let addrs: [u32; LANES] = std::array::from_fn(f);
            for mask in masks {
                check(addrs, mask, what);
            }
        }
        // Seeded random addresses over a small window, so lanes collide.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..500 {
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let window = [64u64, 512, 16384][(next() % 3) as usize];
            let addrs: [u32; LANES] = std::array::from_fn(|_| 4 * (next() % window) as u32);
            let mask = next() | next();
            check(addrs, mask, "random");
            check(addrs, u64::MAX, "random");
        }
    }

    #[test]
    fn lds_offset_rejects_without_wrapping() {
        assert_eq!(lds_offset(12, 16), Ok(12));
        for a in [16, 0xFFFF_FFFC] {
            assert_eq!(
                lds_offset(a, 16),
                Err(SimError::BadLdsAccess {
                    offset: a,
                    lds_bytes: 16
                })
            );
        }
        assert_eq!(
            lds_offset(0xFFFF_FFFE, 16),
            Err(SimError::UnalignedAccess { addr: 0xFFFF_FFFE })
        );
    }
}
