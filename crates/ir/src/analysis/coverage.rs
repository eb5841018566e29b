//! Static protection-coverage analysis for RMT-transformed kernels.
//!
//! The paper argues its protection claims (Tables 2 and 3) analytically,
//! structure by structure: a hardware structure is inside the sphere of
//! replication if the values resident in it are computed twice and compared
//! before leaving the sphere. This module *derives* that argument from the
//! transformed IR itself, in the spirit of AVF analysis: every SSA value and
//! every dynamic residency window (VGPR lane slot, SRF broadcast, LDS word,
//! cached L1 line, in-flight store operand) is classified as
//!
//! * [`Protection::Detected`] — a corruption of the window flows into an
//!   inserted RMT comparison before any sphere-of-replication exit, so the
//!   error is caught (or the corruption provably cannot escape);
//! * [`Protection::Vulnerable`] — the window can reach a global store, a
//!   store/atomic address, or a control decision without crossing a
//!   comparison (the post-compare in-flight store window, unduplicated
//!   scalar broadcasts under Intra-Group, values derived from unremapped
//!   replica IDs, the detection machinery itself);
//! * [`Protection::Masked`] — provably never observable (dead values).
//!
//! Vulnerable windows are weighted by liveness duration (from
//! [`crate::analysis::pressure::live_spans`]) so a per-structure
//! vulnerability *fraction* can be reported, and the whole analysis is
//! cross-validated against fault injection by `rmt-bench`'s
//! `repro coverage-static` experiment: an injected fault at a window the
//! analysis calls Detected must never produce silent data corruption
//! (soundness), and every observed SDC must land in a window the analysis
//! calls Vulnerable (recall).
//!
//! The analyzer does not re-identify the transform's machinery structurally:
//! `rmt-core` fills a [`CoverageSpec`] from the provenance tags it records
//! while inserting comparisons and communication code.

use crate::analysis::linear::{is_pure, Linear};
use crate::analysis::pressure::spans;
use crate::analysis::uniformity::uniform_regs;
use crate::inst::{Builtin, Dim, Inst, MemSpace, Reg};
use crate::kernel::Kernel;
use crate::regset::{RegMap, RegSet};
use std::collections::BTreeSet;

/// Where the redundant replicas of a transformed kernel live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replication {
    /// Replicas are adjacent lanes (2k, 2k+1) of one wavefront
    /// (Intra-Group, Section 6 of the paper).
    PairedLanes {
        /// Whether LDS allocations are duplicated per replica (+LDS).
        lds_duplicated: bool,
    },
    /// Replicas are paired work-groups (Inter-Group, Section 7).
    PairedGroups,
}

impl Replication {
    /// `true` if the instruction front end (fetch/decode/schedule) executes
    /// once per replica. Paired lanes share one wavefront, so a front-end
    /// corruption hits both replicas identically; paired groups run in
    /// separate wavefronts.
    pub fn frontend_replicated(self) -> bool {
        matches!(self, Replication::PairedGroups)
    }

    /// `true` if a wavefront-uniform (scalar-unit / SRF resident) value is
    /// computed once per replica. Paired lanes share the scalar broadcast;
    /// paired groups each run their own scalar computation.
    pub fn scalar_replicated(self) -> bool {
        matches!(self, Replication::PairedGroups)
    }

    /// `true` if each replica owns a private copy of every LDS word.
    pub fn lds_replicated(self) -> bool {
        match self {
            Replication::PairedLanes { lds_duplicated } => lds_duplicated,
            Replication::PairedGroups => true,
        }
    }
}

/// Everything the analyzer needs to know about the transform that produced
/// the kernel, supplied by `rmt-core` from its provenance tags rather than
/// re-discovered structurally.
#[derive(Debug, Clone)]
pub struct CoverageSpec {
    /// Replica placement of the transform.
    pub replication: Replication,
    /// `true` if comparisons were inserted (`Stage::Full`); the
    /// redundant-only stage duplicates work without detecting anything.
    pub full: bool,
    /// Registers numbered below this bound belong to the original kernel;
    /// the rest are transform machinery. Windows on machinery registers are
    /// reported but excluded from per-structure coverage verdicts.
    pub user_reg_limit: u32,
    /// Destinations of transform-inserted comparison instructions (the
    /// `ne`/`or` chain feeding each detect bump).
    pub compare_regs: RegSet,
    /// Replica values received over the communication channel (LDS slot
    /// loads, swizzle results, global comm-buffer loads).
    pub channel_regs: RegSet,
    /// Producer/consumer role predicates guarding publishes and checks.
    pub role_guards: RegSet,
    /// Remapped ID registers (logical IDs/sizes derived from the raw
    /// builtins). These bless raw-ID dataflow: a value derived from a raw
    /// divergent builtin *not* passing through a remap is flagged Vulnerable.
    pub id_remaps: RegSet,
    /// Communication-slot address registers (and their index arithmetic).
    pub comm_addr_regs: RegSet,
    /// Parameter index of the detection-counter buffer, if any.
    pub detect_param: Option<usize>,
    /// Parameter indices of protocol buffers (ticket counter, comm slots).
    pub protocol_params: BTreeSet<usize>,
}

impl CoverageSpec {
    /// A spec with no machinery annotations: every register is treated as a
    /// user value and comparisons are expected (`full = true`).
    pub fn new(replication: Replication) -> Self {
        CoverageSpec {
            replication,
            full: true,
            user_reg_limit: u32::MAX,
            compare_regs: RegSet::default(),
            channel_regs: RegSet::default(),
            role_guards: RegSet::default(),
            id_remaps: RegSet::default(),
            comm_addr_regs: RegSet::default(),
            detect_param: None,
            protocol_params: BTreeSet::new(),
        }
    }
}

/// The physical residency a coverage window describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Residency {
    /// A per-lane VGPR slot holding the value.
    VgprLane,
    /// The scalar-register-file broadcast of a wavefront-uniform value
    /// (a corruption there reaches *all* lanes of the wavefront).
    SrfBroadcast,
    /// An LDS word between a local store and the end of the kernel.
    LdsWord,
    /// The L1 cache line serving a global load (shared by both replicas).
    L1Line,
    /// A store operand in the window between its comparison and the
    /// memory update (the paper's residual post-compare window).
    InFlightStore,
}

impl Residency {
    /// All residencies, in reporting order.
    pub const ALL: [Residency; 5] = [
        Residency::VgprLane,
        Residency::SrfBroadcast,
        Residency::LdsWord,
        Residency::L1Line,
        Residency::InFlightStore,
    ];

    /// Short column label.
    pub fn label(self) -> &'static str {
        match self {
            Residency::VgprLane => "VGPR",
            Residency::SrfBroadcast => "SRF",
            Residency::LdsWord => "LDS",
            Residency::L1Line => "L1",
            Residency::InFlightStore => "in-flight",
        }
    }
}

/// Protection verdict for one residency window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protection {
    /// Corruption flows into an RMT comparison before any SoR exit.
    Detected,
    /// Corruption can reach an observable sink without crossing a
    /// comparison.
    Vulnerable,
    /// Provably never observable.
    Masked,
}

impl Protection {
    /// One-letter code for matrix cells.
    pub fn letter(self) -> char {
        match self {
            Protection::Detected => 'D',
            Protection::Vulnerable => 'V',
            Protection::Masked => 'M',
        }
    }

    /// Human label.
    pub fn label(self) -> &'static str {
        match self {
            Protection::Detected => "Detected",
            Protection::Vulnerable => "Vulnerable",
            Protection::Masked => "Masked",
        }
    }

    /// The weaker (more pessimistic) of two verdicts:
    /// `Vulnerable > Detected > Masked`.
    pub fn worst(self, other: Protection) -> Protection {
        fn rank(p: Protection) -> u8 {
            match p {
                Protection::Masked => 0,
                Protection::Detected => 1,
                Protection::Vulnerable => 2,
            }
        }
        if rank(other) > rank(self) {
            other
        } else {
            self
        }
    }
}

/// One classified residency window.
#[derive(Debug, Clone)]
pub struct Window {
    /// The register whose value inhabits the window.
    pub reg: Reg,
    /// Physical residency being described.
    pub residency: Residency,
    /// Verdict.
    pub protection: Protection,
    /// Liveness weight (linear-program-order span length, in instructions).
    pub weight: u64,
    /// `true` if the register is transform machinery rather than a value of
    /// the original kernel.
    pub machinery: bool,
    /// Why the verdict was reached.
    pub reason: &'static str,
}

/// Aggregate counts and liveness weights over a set of windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tallies {
    /// Number of Detected windows.
    pub detected: usize,
    /// Number of Vulnerable windows.
    pub vulnerable: usize,
    /// Number of Masked windows.
    pub masked: usize,
    /// Summed liveness weight of Vulnerable windows.
    pub vulnerable_weight: u64,
    /// Summed liveness weight of all windows.
    pub total_weight: u64,
}

impl Tallies {
    /// Liveness-weighted vulnerability fraction (0 when no windows).
    pub fn vulnerability_fraction(&self) -> f64 {
        if self.total_weight == 0 {
            0.0
        } else {
            self.vulnerable_weight as f64 / self.total_weight as f64
        }
    }

    /// Total number of windows tallied.
    pub fn total(&self) -> usize {
        self.detected + self.vulnerable + self.masked
    }
}

/// The result of [`coverage`]: every classified window plus query helpers.
#[derive(Debug, Clone, Default)]
pub struct CoverageReport {
    /// All classified windows, in deterministic (register, residency) order.
    pub windows: Vec<Window>,
}

impl CoverageReport {
    /// Tallies over windows of `residency` (or all residencies when `None`),
    /// optionally including transform-machinery registers.
    pub fn tallies(&self, residency: Option<Residency>, include_machinery: bool) -> Tallies {
        let mut t = Tallies::default();
        for w in &self.windows {
            if let Some(r) = residency {
                if w.residency != r {
                    continue;
                }
            }
            if w.machinery && !include_machinery {
                continue;
            }
            match w.protection {
                Protection::Detected => t.detected += 1,
                Protection::Vulnerable => {
                    t.vulnerable += 1;
                    t.vulnerable_weight += w.weight;
                }
                Protection::Masked => t.masked += 1,
            }
            t.total_weight += w.weight;
        }
        t
    }

    /// Liveness-weighted vulnerability fraction over user windows of
    /// `residency` (all residencies when `None`).
    pub fn vulnerability_fraction(&self, residency: Option<Residency>) -> f64 {
        self.tallies(residency, false).vulnerability_fraction()
    }

    /// `true` if no *user* window of `residency` is Vulnerable — i.e. the
    /// hardware structure backing that residency sits inside the derived
    /// sphere of replication. Vacuously true if the kernel never exercises
    /// the residency.
    pub fn structure_covered(&self, residency: Residency) -> bool {
        self.windows
            .iter()
            .filter(|w| w.residency == residency && !w.machinery)
            .all(|w| w.protection != Protection::Vulnerable)
    }

    /// Worst-case verdict for a fault injected into the VGPR lane slot of
    /// `reg` at an arbitrary dynamic instant: the worst of its `VgprLane`
    /// and `InFlightStore` windows. `None` if the register never appears.
    pub fn vgpr_fault_class(&self, reg: Reg) -> Option<Protection> {
        self.windows
            .iter()
            .filter(|w| {
                w.reg == reg
                    && matches!(w.residency, Residency::VgprLane | Residency::InFlightStore)
            })
            .map(|w| w.protection)
            .reduce(Protection::worst)
    }

    /// Worst-case verdict for a fault in the SRF broadcast of `reg`
    /// (corrupting every lane identically). `None` if the value is not
    /// wavefront-uniform.
    pub fn sgpr_fault_class(&self, reg: Reg) -> Option<Protection> {
        self.windows
            .iter()
            .filter(|w| w.reg == reg && w.residency == Residency::SrfBroadcast)
            .map(|w| w.protection)
            .reduce(Protection::worst)
    }

    /// Worst-case verdict for a fault at an arbitrary LDS word: the worst
    /// of all LDS windows (machinery included — communication slots live in
    /// LDS too), or Masked if the kernel never touches LDS.
    pub fn lds_fault_class(&self) -> Protection {
        self.windows
            .iter()
            .filter(|w| w.residency == Residency::LdsWord)
            .map(|w| w.protection)
            .reduce(Protection::worst)
            .unwrap_or(Protection::Masked)
    }

    /// Windows for one register, in reporting order.
    pub fn windows_for(&self, reg: Reg) -> impl Iterator<Item = &Window> {
        self.windows.iter().filter(move |w| w.reg == reg)
    }
}

/// `true` if a raw read of `b` returns a value that differs between (or is
/// inconsistent across) the two replicas and therefore must pass through a
/// remap before any use.
fn divergent_builtin(b: Builtin, rep: Replication) -> bool {
    match rep {
        Replication::PairedLanes { .. } => matches!(
            b,
            Builtin::GlobalId(Dim(0))
                | Builtin::LocalId(Dim(0))
                | Builtin::GlobalSize(Dim(0))
                | Builtin::LocalSize(Dim(0))
        ),
        Replication::PairedGroups => matches!(
            b,
            Builtin::GroupId(_)
                | Builtin::GlobalId(_)
                | Builtin::NumGroups(Dim(0))
                | Builtin::GlobalSize(Dim(0))
        ),
    }
}

/// Per-register sink facts accumulated by the backward/forward fixpoint.
#[derive(Debug, Clone, Default)]
struct SinkState {
    /// Earliest linear index at which (a value derived from) this register
    /// enters an RMT comparison or is published over the comm channel.
    compare_at: Option<usize>,
    /// Earliest linear index of an SoR exit (global store/atomic,
    /// unduplicated local store) the register can reach. Consumers read
    /// only whether one is reachable and which comes first, so the
    /// minimum carries everything the set of exits would.
    first_exit: Option<usize>,
    /// Reaches a non-comparison control decision.
    control: bool,
    /// Flows into a replicated LDS word (deferred protection: follows the
    /// LDS residency verdict).
    lds_sink: bool,
    /// Derived from a raw divergent builtin without passing a remap.
    tainted: bool,
}

impl SinkState {
    fn observable(&self) -> bool {
        self.compare_at.is_some() || self.first_exit.is_some() || self.control || self.lds_sink
    }

    /// Merges `other`'s sinks (not taint — taint flows forward) into `self`.
    fn absorb_sinks(&mut self, other: &SinkState) -> bool {
        let mut changed = lower(&mut self.compare_at, other.compare_at);
        changed |= lower(&mut self.first_exit, other.first_exit);
        if other.control && !self.control {
            self.control = true;
            changed = true;
        }
        if other.lds_sink && !self.lds_sink {
            self.lds_sink = true;
            changed = true;
        }
        changed
    }
}

/// Lowers `mine` to `other` where `other` is earlier (`None` = never);
/// `true` if it moved.
fn lower(mine: &mut Option<usize>, other: Option<usize>) -> bool {
    match other {
        Some(o) if mine.is_none_or(|m| o < m) => {
            *mine = Some(o);
            true
        }
        _ => false,
    }
}

struct Engine<'a, 'k> {
    spec: &'a CoverageSpec,
    /// The kernel's pre-order table; also its pointer provenance.
    lin: &'a Linear<'k>,
    states: RegMap<SinkState>,
    /// (store idx, value reg, machinery) of user LDS stores/atomics.
    user_lds_writes: Vec<(usize, Reg)>,
    /// Value regs published into LDS communication slots.
    comm_lds_writes: Vec<Reg>,
    /// dst regs of user global loads (L1-resident values).
    user_l1_loads: Vec<Reg>,
    /// dst regs of channel global loads (comm-slot lines).
    channel_l1_loads: Vec<Reg>,
    /// Indices of the SoR exit stores/atomics whose operands may sit in
    /// an in-flight store window.
    exit_ops: Vec<usize>,
    /// dst regs of user (non-comm) local loads — the registers through
    /// which a corrupted LDS word re-enters the dataflow.
    local_load_dsts: Vec<Reg>,
    /// `true` if every observer of a replicated LDS word is itself
    /// compared before escaping: only then may LDS words (and values that
    /// flow solely into them) be classified Detected.
    lds_clean: bool,
}

impl<'a, 'k> Engine<'a, 'k> {
    fn new(lin: &'a Linear<'k>, spec: &'a CoverageSpec) -> Self {
        Engine {
            spec,
            lin,
            states: RegMap::new(),
            user_lds_writes: Vec::new(),
            comm_lds_writes: Vec::new(),
            user_l1_loads: Vec::new(),
            channel_l1_loads: Vec::new(),
            exit_ops: Vec::new(),
            local_load_dsts: Vec::new(),
            lds_clean: true,
        }
    }

    fn is_detect_addr(&self, reg: Reg) -> bool {
        self.spec
            .detect_param
            .is_some_and(|d| self.lin.has_param(reg, d))
    }

    fn is_comm_addr(&self, reg: Reg) -> bool {
        self.spec.comm_addr_regs.contains(reg)
            || self
                .spec
                .protocol_params
                .iter()
                .any(|&p| self.lin.has_param(reg, p))
    }

    fn seed_compare(&mut self, reg: Reg, idx: usize) {
        lower(&mut self.states.get_or_default(reg).compare_at, Some(idx));
    }

    fn seed_exit(&mut self, reg: Reg, idx: usize) {
        lower(&mut self.states.get_or_default(reg).first_exit, Some(idx));
    }

    fn seed_control(&mut self, reg: Reg) {
        self.states.get_or_default(reg).control = true;
    }

    fn seed_lds(&mut self, reg: Reg) {
        self.states.get_or_default(reg).lds_sink = true;
    }

    /// Seeds sink facts from each instruction's effect.
    fn seed(&mut self) {
        let lin = self.lin;
        let lds_replicated = self.spec.replication.lds_replicated();
        for n in &lin.nodes {
            let srcs = lin.srcs(n);
            match *n.inst {
                Inst::Store { space, addr, value } => {
                    if self.is_comm_addr(addr) {
                        // Publishing a replica value makes it visible to the
                        // partner's comparison: counts as a compare crossing.
                        self.seed_compare(value, n.idx);
                        self.seed_exit(addr, n.idx);
                        if space == MemSpace::Local {
                            self.comm_lds_writes.push(value);
                        }
                    } else if space == MemSpace::Global {
                        self.seed_exit(addr, n.idx);
                        self.seed_exit(value, n.idx);
                        self.exit_ops.push(n.idx);
                    } else if lds_replicated {
                        // LDS inside the sphere: protection deferred to the
                        // LDS word residency.
                        self.seed_lds(addr);
                        self.seed_lds(value);
                        self.user_lds_writes.push((n.idx, value));
                    } else {
                        // LDS outside the sphere: a local store is an exit.
                        self.seed_exit(addr, n.idx);
                        self.seed_exit(value, n.idx);
                        self.user_lds_writes.push((n.idx, value));
                        self.exit_ops.push(n.idx);
                    }
                }
                Inst::Atomic {
                    space, addr, value, ..
                } => {
                    if self.is_detect_addr(addr) {
                        // The detect bump itself is unprotected machinery: a
                        // corrupt counter address writes arbitrary memory.
                        for &s in srcs {
                            self.seed_exit(s, n.idx);
                        }
                    } else if self.is_comm_addr(addr) {
                        // Ticket acquisition / full-empty polls: protocol
                        // control decisions.
                        for &s in srcs {
                            self.seed_control(s);
                        }
                    } else if space == MemSpace::Local && lds_replicated {
                        for &s in srcs {
                            self.seed_lds(s);
                        }
                        self.user_lds_writes.push((n.idx, value));
                    } else {
                        for &s in srcs {
                            self.seed_exit(s, n.idx);
                        }
                        if space == MemSpace::Local {
                            self.user_lds_writes.push((n.idx, value));
                        }
                        self.exit_ops.push(n.idx);
                    }
                }
                Inst::Load { dst, space, addr } => {
                    if space == MemSpace::Global {
                        if self.is_comm_addr(addr) {
                            self.channel_l1_loads.push(dst);
                        } else {
                            self.user_l1_loads.push(dst);
                        }
                    } else if !self.is_comm_addr(addr) {
                        self.local_load_dsts.push(dst);
                    }
                }
                Inst::If { cond, .. } => {
                    if !self.spec.compare_regs.contains(cond) {
                        self.seed_control(cond);
                    }
                }
                Inst::While { cond_reg, .. } => self.seed_control(cond_reg),
                Inst::ReadBuiltin { dst, builtin } => {
                    let blessed =
                        self.spec.id_remaps.contains(dst) || self.spec.comm_addr_regs.contains(dst);
                    if divergent_builtin(builtin, self.spec.replication) && !blessed {
                        self.states.get_or_default(dst).tainted = true;
                    }
                }
                Inst::ReadParam { .. } | Inst::Barrier => {}
                // The pure value ops.
                _ => {
                    if n.inst
                        .dst()
                        .is_some_and(|d| self.spec.compare_regs.contains(d))
                    {
                        for &s in srcs {
                            self.seed_compare(s, n.idx);
                        }
                    }
                }
            }
        }
    }

    /// Backward sink propagation (a corruption of a source corrupts the
    /// destination, so the destination's sinks apply to the source) plus
    /// forward raw-ID taint, to fixpoint.
    fn propagate(&mut self) {
        let blessed: RegSet = self
            .spec
            .id_remaps
            .iter()
            .chain(self.spec.comm_addr_regs.iter())
            .collect();
        let lin = self.lin;
        loop {
            let mut changed = false;
            for n in &lin.nodes {
                let Some(d) = n.inst.dst() else { continue };
                let srcs = lin.srcs(n);
                // Backward: every def with sources carries data (pure ops,
                // loads, atomic results — corrupting any input corrupts the
                // result).
                // The def's state is taken out while its sources absorb
                // it and put back after; a def that reads itself gains
                // nothing from itself.
                if !srcs.is_empty() {
                    if let Some(dstate) = self.states.remove(d) {
                        for &s in srcs.iter().filter(|&&s| s != d) {
                            changed |= self.states.get_or_default(s).absorb_sinks(&dstate);
                        }
                        self.states.insert(d, dstate);
                    }
                }
                // Forward: raw-ID taint through pure data ops, stopped by
                // remap blessings.
                if is_pure(n.inst) && !blessed.contains(d) {
                    let src_tainted = srcs
                        .iter()
                        .any(|&s| self.states.get(s).is_some_and(|st| st.tainted));
                    if src_tainted {
                        let st = self.states.get_or_default(d);
                        if !st.tainted {
                            st.tainted = true;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// `true` if a corruption observed through this local-load result can
    /// escape without crossing a comparison. Chains through further LDS
    /// stores need no recursion: the word they corrupt is itself observed
    /// by some local load, which this predicate checks directly.
    fn lds_load_dirty(&self, st: &SinkState) -> bool {
        if !st.observable() {
            return false;
        }
        if st.tainted || st.control {
            return true;
        }
        if !self.spec.full {
            return true;
        }
        if let Some(first_exit) = st.first_exit {
            return st.compare_at.is_none_or(|c| c >= first_exit);
        }
        false
    }

    /// Decides whether replicated LDS words may be classified Detected:
    /// only if every register observing an LDS word is compared before any
    /// sphere-of-replication exit. Otherwise a corrupted word flows out
    /// uncompared and the blanket "replica-private" verdict is unsound.
    fn compute_lds_clean(&mut self) {
        let empty = SinkState::default();
        self.lds_clean = self.local_load_dsts.iter().all(|d| {
            let st = self.states.get(*d).unwrap_or(&empty);
            !self.lds_load_dirty(st)
        });
    }

    /// Verdict for the VGPR-lane residency of `reg`.
    fn classify(&self, reg: Reg, st: &SinkState) -> (Protection, &'static str) {
        if self.spec.compare_regs.contains(reg) {
            return (Protection::Detected, "RMT comparison result");
        }
        if !st.observable() {
            return (Protection::Masked, "no path to any observable sink");
        }
        if st.tainted {
            return (
                Protection::Vulnerable,
                "derived from an unremapped replica ID",
            );
        }
        if st.control {
            return (
                Protection::Vulnerable,
                "feeds a control decision outside the comparison",
            );
        }
        if !self.spec.full {
            return (
                Protection::Vulnerable,
                "no comparisons inserted (redundant-only stage)",
            );
        }
        if let Some(first_exit) = st.first_exit {
            match st.compare_at {
                Some(c) if c < first_exit => {
                    (Protection::Detected, "compared before every SoR exit")
                }
                _ => (
                    Protection::Vulnerable,
                    "reaches an SoR exit without a preceding comparison",
                ),
            }
        } else if st.compare_at.is_some() {
            (Protection::Detected, "flows into an RMT comparison")
        } else if self.spec.replication.lds_replicated() {
            if self.lds_clean {
                (
                    Protection::Detected,
                    "flows only into a replica-private LDS word",
                )
            } else {
                (
                    Protection::Vulnerable,
                    "flows into an LDS word that escapes uncompared",
                )
            }
        } else {
            (
                Protection::Vulnerable,
                "flows into LDS shared between replicas",
            )
        }
    }

    fn build_report(&self, kernel: &Kernel) -> CoverageReport {
        let spans = spans(self.lin, kernel.next_reg as usize);
        let uniform = uniform_regs(kernel);
        let empty = SinkState::default();
        let mut windows = Vec::new();

        for (i, span) in spans.iter().enumerate() {
            let Some((s, e)) = *span else { continue };
            let reg = Reg(i as u32);
            let weight = (e - s + 1) as u64;
            let machinery = reg.0 >= self.spec.user_reg_limit;
            let st = self.states.get(reg).unwrap_or(&empty);
            let (p, why) = self.classify(reg, st);
            windows.push(Window {
                reg,
                residency: Residency::VgprLane,
                protection: p,
                weight,
                machinery,
                reason: why,
            });
            if uniform.contains(reg) {
                let (sp, swhy) = if !st.observable() {
                    (Protection::Masked, "no path to any observable sink")
                } else if self.spec.replication.scalar_replicated() {
                    (p, why)
                } else {
                    (
                        Protection::Vulnerable,
                        "scalar broadcast corrupts every replica identically",
                    )
                };
                windows.push(Window {
                    reg,
                    residency: Residency::SrfBroadcast,
                    protection: sp,
                    weight,
                    machinery,
                    reason: swhy,
                });
            }
        }

        // LDS word residencies: one window per local store/atomic, live from
        // the write to the end of the kernel (conservative: never Masked).
        for &(idx, value) in &self.user_lds_writes {
            let weight = (self.lin.nodes.len().saturating_sub(idx) + 1) as u64;
            let machinery = value.0 >= self.spec.user_reg_limit;
            let (p, why) = if !self.spec.replication.lds_replicated() {
                (
                    Protection::Vulnerable,
                    "LDS word shared between both replicas",
                )
            } else if self.spec.full && self.lds_clean {
                (
                    Protection::Detected,
                    "replica-private LDS word feeding compared dataflow",
                )
            } else if self.spec.full {
                (
                    Protection::Vulnerable,
                    "LDS word feeds an uncompared observable sink",
                )
            } else {
                (
                    Protection::Vulnerable,
                    "no comparisons inserted (redundant-only stage)",
                )
            };
            windows.push(Window {
                reg: value,
                residency: Residency::LdsWord,
                protection: p,
                weight,
                machinery,
                reason: why,
            });
        }
        for &value in &self.comm_lds_writes {
            windows.push(Window {
                reg: value,
                residency: Residency::LdsWord,
                protection: Protection::Detected,
                weight: 1,
                machinery: true,
                reason: "communication slot consumed by the comparison",
            });
        }

        // L1 line residencies: the cached line serves both replicas, so a
        // corruption there escapes the comparison whenever the loaded value
        // is observable.
        for &dst in &self.user_l1_loads {
            let st = self.states.get(dst).unwrap_or(&empty);
            let weight = spans
                .get(dst.0 as usize)
                .copied()
                .flatten()
                .map_or(1, |(s, e)| (e - s + 1) as u64);
            let (p, why) = if st.observable() {
                (
                    Protection::Vulnerable,
                    "L1 line observed identically by both replicas",
                )
            } else {
                (Protection::Masked, "loaded value never observable")
            };
            windows.push(Window {
                reg: dst,
                residency: Residency::L1Line,
                protection: p,
                weight,
                machinery: dst.0 >= self.spec.user_reg_limit,
                reason: why,
            });
        }
        for &dst in &self.channel_l1_loads {
            windows.push(Window {
                reg: dst,
                residency: Residency::L1Line,
                protection: Protection::Detected,
                weight: 1,
                machinery: true,
                reason: "communication slot line consumed by the comparison",
            });
        }

        // In-flight store windows: operands of compare-protected exits stay
        // vulnerable between the comparison and the memory update.
        if self.spec.full {
            for &idx in &self.exit_ops {
                for &op in self.lin.srcs(self.lin.node(idx)) {
                    let protected = self
                        .states
                        .get(op)
                        .and_then(|st| st.compare_at)
                        .is_some_and(|c| c < idx);
                    if protected {
                        windows.push(Window {
                            reg: op,
                            residency: Residency::InFlightStore,
                            protection: Protection::Vulnerable,
                            weight: 1,
                            machinery: op.0 >= self.spec.user_reg_limit,
                            reason: "post-comparison in-flight store window",
                        });
                    }
                }
            }
        }

        CoverageReport { windows }
    }
}

/// Runs the protection-coverage analysis over `kernel` as described by
/// `spec`, classifying every residency window of every register.
pub fn coverage(kernel: &Kernel, spec: &CoverageSpec) -> CoverageReport {
    coverage_of(kernel, &Linear::new(kernel), spec)
}

/// [`coverage`] over `kernel`'s already built table.
pub(crate) fn coverage_of(kernel: &Kernel, lin: &Linear, spec: &CoverageSpec) -> CoverageReport {
    let mut engine = Engine::new(lin, spec);
    engine.seed();
    engine.propagate();
    engine.compute_lds_clean();
    engine.build_report(kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AtomicOp, SwizzleMode};
    use crate::KernelBuilder;

    fn spec_intra() -> CoverageSpec {
        CoverageSpec::new(Replication::PairedLanes {
            lds_duplicated: true,
        })
    }

    fn vgpr_of(report: &CoverageReport, reg: Reg) -> Protection {
        report
            .windows_for(reg)
            .find(|w| w.residency == Residency::VgprLane)
            .expect("window")
            .protection
    }

    /// Compared-then-stored value is Detected, an uncompared one is
    /// Vulnerable, a dead one is Masked.
    #[test]
    fn detected_vulnerable_masked() {
        let mut b = KernelBuilder::new("t");
        let inp = b.buffer_param("in");
        let out = b.buffer_param("out");
        let det = b.buffer_param("detect");
        let x = b.load_global(inp);
        let one = b.const_u32(1);
        let y = b.add_u32(x, one);
        let peer = b.swizzle(y, SwizzleMode::DupEven);
        let d = b.ne_u32(y, peer);
        b.if_(d, |b| {
            b.atomic_noret(MemSpace::Global, AtomicOp::Add, det, one);
        });
        b.store_global(out, y);
        let dead = b.mul_u32(x, one);
        let _ = dead;
        let unprot = b.add_u32(x, one);
        b.store_global(out, unprot);
        let k = b.finish();

        let mut spec = spec_intra();
        spec.compare_regs.insert(d);
        spec.channel_regs.insert(peer);
        spec.detect_param = Some(2);
        let report = coverage(&k, &spec);

        assert_eq!(vgpr_of(&report, y), Protection::Detected);
        assert_eq!(vgpr_of(&report, peer), Protection::Detected);
        assert_eq!(vgpr_of(&report, d), Protection::Detected);
        assert_eq!(vgpr_of(&report, dead), Protection::Masked);
        assert_eq!(vgpr_of(&report, unprot), Protection::Vulnerable);
        // The loaded value's L1 line is outside every sphere.
        let l1 = report
            .windows_for(x)
            .find(|w| w.residency == Residency::L1Line)
            .expect("l1 window");
        assert_eq!(l1.protection, Protection::Vulnerable);
        // Direct store operands keep an in-flight vulnerable window.
        assert!(report
            .windows_for(y)
            .any(|w| w.residency == Residency::InFlightStore
                && w.protection == Protection::Vulnerable));
        assert_eq!(report.vgpr_fault_class(y), Some(Protection::Vulnerable));
        assert_eq!(report.vgpr_fault_class(dead), Some(Protection::Masked));
    }

    /// A store hoisted above its comparison loses protection.
    #[test]
    fn store_before_compare_is_vulnerable() {
        let mut b = KernelBuilder::new("t");
        let inp = b.buffer_param("in");
        let out = b.buffer_param("out");
        let x = b.load_global(inp);
        b.store_global(out, x); // exit precedes the comparison
        let peer = b.swizzle(x, SwizzleMode::DupEven);
        let d = b.ne_u32(x, peer);
        let k = b.finish();

        let mut spec = spec_intra();
        spec.compare_regs.insert(d);
        let report = coverage(&k, &spec);
        assert_eq!(vgpr_of(&report, x), Protection::Vulnerable);
    }

    /// Values derived from raw (unremapped) IDs are Vulnerable even when
    /// compared; remapped IDs are blessed.
    #[test]
    fn raw_id_taint() {
        let mut b = KernelBuilder::new("t");
        let out = b.buffer_param("out");
        let gid = b.global_id(0);
        let one = b.const_u32(1);
        let logical = b.binary(crate::inst::BinOp::Shr, crate::types::Ty::U32, gid, one);
        let v = b.add_u32(gid, one); // raw use: tainted
        let w = b.add_u32(logical, one); // remapped use: clean
        let peer = b.swizzle(v, SwizzleMode::DupEven);
        let d = b.ne_u32(v, peer);
        let a = b.elem_addr(out, logical);
        b.store_global(a, v);
        b.store_global(a, w);
        let k = b.finish();

        let mut spec = spec_intra();
        spec.compare_regs.insert(d);
        spec.id_remaps.insert(logical);
        let report = coverage(&k, &spec);
        assert_eq!(vgpr_of(&report, v), Protection::Vulnerable);
        assert_eq!(vgpr_of(&report, gid), Protection::Vulnerable);
        // w is stored without a compare of its own — but it must not be
        // flagged for ID taint (its Vulnerable reason is the missing
        // comparison, which is accurate here).
        let ww = report
            .windows_for(w)
            .find(|x| x.residency == Residency::VgprLane)
            .unwrap();
        assert!(!ww.reason.contains("unremapped"), "{}", ww.reason);
    }

    /// Uniform values get an SRF window: Vulnerable under paired lanes,
    /// mirroring the VGPR verdict under paired groups.
    #[test]
    fn scalar_broadcast_windows() {
        let build = || {
            let mut b = KernelBuilder::new("t");
            let out = b.buffer_param("out");
            let g = b.scalar_param("n", crate::types::Ty::U32); // uniform
            let one = b.const_u32(1);
            let v = b.add_u32(g, one);
            let peer = b.swizzle(v, SwizzleMode::DupEven);
            let d = b.ne_u32(v, peer);
            b.store_global(out, v);
            (b.finish(), d, v)
        };

        let (k, d, v) = build();
        let mut spec = spec_intra();
        spec.compare_regs.insert(d);
        let report = coverage(&k, &spec);
        assert_eq!(
            report.sgpr_fault_class(v),
            Some(Protection::Vulnerable),
            "paired lanes share the scalar broadcast"
        );
        assert_eq!(report.vgpr_fault_class(v), Some(Protection::Vulnerable)); // in-flight
        assert_eq!(vgpr_of(&report, v), Protection::Detected);

        let (k, d, v) = build();
        let mut spec = CoverageSpec::new(Replication::PairedGroups);
        spec.compare_regs.insert(d);
        let report = coverage(&k, &spec);
        assert_eq!(report.sgpr_fault_class(v), Some(Protection::Detected));
    }

    /// LDS word windows follow the duplication decision.
    #[test]
    fn lds_word_windows() {
        let build = || {
            let mut b = KernelBuilder::new("t");
            b.set_lds_bytes(64);
            let out = b.buffer_param("out");
            let zero = b.const_u32(0);
            let x = b.const_u32(7);
            b.store_local(zero, x);
            let y = b.load_local(zero);
            let peer = b.swizzle(y, SwizzleMode::DupEven);
            let d = b.ne_u32(y, peer);
            b.store_global(out, y);
            (b.finish(), d)
        };

        let (k, d) = build();
        let mut spec = spec_intra(); // +LDS
        spec.compare_regs.insert(d);
        let report = coverage(&k, &spec);
        assert_eq!(report.lds_fault_class(), Protection::Detected);
        assert!(report.structure_covered(Residency::LdsWord));

        let (k, d) = build();
        let mut spec = CoverageSpec::new(Replication::PairedLanes {
            lds_duplicated: false,
        });
        spec.compare_regs.insert(d);
        let report = coverage(&k, &spec);
        assert_eq!(report.lds_fault_class(), Protection::Vulnerable);
        assert!(!report.structure_covered(Residency::LdsWord));
    }

    /// A replicated LDS word whose reader escapes uncompared must not be
    /// classified Detected: the corruption flows to a global store with no
    /// comparison in between (the unsound blanket verdict selective
    /// hardening exposed).
    #[test]
    fn lds_word_dirty_when_reader_escapes() {
        let mut b = KernelBuilder::new("t");
        b.set_lds_bytes(64);
        let out = b.buffer_param("out");
        let zero = b.const_u32(0);
        let x = b.const_u32(7);
        b.store_local(zero, x);
        let y = b.load_local(zero);
        b.store_global(out, y); // no comparison anywhere
        let k = b.finish();
        let report = coverage(&k, &spec_intra());
        assert_eq!(report.lds_fault_class(), Protection::Vulnerable);
        // The staged value itself must not hide behind the LDS verdict.
        assert_eq!(vgpr_of(&report, x), Protection::Vulnerable);
    }

    /// Loop-control values are Vulnerable: a corrupted trip count can skip
    /// compared stores entirely.
    #[test]
    fn control_is_vulnerable() {
        let mut b = KernelBuilder::new("t");
        let out = b.buffer_param("out");
        let zero = b.const_u32(0);
        let n = b.const_u32(4);
        b.for_range(zero, n, |b, i| {
            let a = b.elem_addr(out, i);
            b.store_global(a, i);
        });
        let k = b.finish();
        let report = coverage(&k, &spec_intra());
        assert_eq!(vgpr_of(&report, n), Protection::Vulnerable);
    }

    /// Without comparisons (redundant-only stage) every observable value is
    /// Vulnerable.
    #[test]
    fn redundant_only_stage() {
        let mut b = KernelBuilder::new("t");
        let out = b.buffer_param("out");
        let x = b.const_u32(3);
        b.store_global(out, x);
        let k = b.finish();
        let mut spec = spec_intra();
        spec.full = false;
        let report = coverage(&k, &spec);
        assert_eq!(vgpr_of(&report, x), Protection::Vulnerable);
        assert_eq!(report.tallies(None, false).detected, 0);
    }
}
