//! Provenance tags for transform-inserted instructions.
//!
//! The transforms record *why* each machinery register exists while they
//! emit it, so downstream consumers — the transform-invariant verifier
//! ([`crate::verify`]) and the protection-coverage analysis
//! ([`crate::coverage`]) — can consume the transform's own record instead
//! of re-identifying comparisons, channels, and remaps structurally.

use rmt_ir::{Reg, RegMap, RegSet};

/// What role a transform-inserted register plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmtTag {
    /// A remapped (logical) ID or size derived from the raw builtins —
    /// the deliberate replica-divergence points of the transform.
    IdRemap,
    /// A producer/consumer role predicate guarding publishes and checks.
    RoleGuard,
    /// The detection-counter base address.
    DetectBase,
    /// A comparison result feeding a detect bump (`ne`/`or` chain).
    DetectCompare,
    /// A replica value received over the communication channel (slot load
    /// or swizzle result) — the partner's copy entering the comparison.
    ChannelValue,
    /// A communication-slot address or its index arithmetic.
    CommAddress,
    /// Ticket / full-empty protocol state (acquired tickets, poll results).
    Protocol,
}

/// The provenance record of one transformed kernel: every machinery
/// register the transform inserted, tagged with its role.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Provenance {
    /// Registers numbered below this bound belong to the original kernel.
    pub user_reg_limit: u32,
    tags: RegMap<RmtTag>,
}

impl Provenance {
    /// An empty record for a kernel whose original registers are numbered
    /// below `user_reg_limit`.
    pub fn new(user_reg_limit: u32) -> Self {
        Provenance {
            user_reg_limit,
            tags: RegMap::new(),
        }
    }

    /// Records `reg` as transform machinery with role `tag`.
    pub fn tag(&mut self, reg: Reg, tag: RmtTag) {
        self.tags.insert(reg, tag);
    }

    /// The role of `reg`, if the transform tagged it.
    pub fn tag_of(&self, reg: Reg) -> Option<RmtTag> {
        self.tags.get(reg).copied()
    }

    /// `true` if `reg` carries exactly the role `tag`.
    pub fn is(&self, reg: Reg, tag: RmtTag) -> bool {
        self.tag_of(reg) == Some(tag)
    }

    /// All registers carrying `tag`.
    pub fn regs_with(&self, tag: RmtTag) -> RegSet {
        self.tags
            .iter()
            .filter(|&(_, &t)| t == tag)
            .map(|(r, _)| r)
            .collect()
    }

    /// Number of tagged registers.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// `true` if no registers are tagged.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagging_roundtrip() {
        let mut p = Provenance::new(10);
        p.tag(Reg(11), RmtTag::DetectCompare);
        p.tag(Reg(12), RmtTag::DetectCompare);
        p.tag(Reg(13), RmtTag::ChannelValue);
        assert!(p.is(Reg(11), RmtTag::DetectCompare));
        assert_eq!(p.tag_of(Reg(13)), Some(RmtTag::ChannelValue));
        assert_eq!(p.tag_of(Reg(9)), None);
        assert_eq!(p.regs_with(RmtTag::DetectCompare).len(), 2);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }
}
