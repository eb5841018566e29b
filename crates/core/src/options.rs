//! Transform configuration.

use std::fmt;

/// Which RMT algorithm to apply (paper Sections 6 and 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmtFlavor {
    /// Intra-Group RMT with LDS inside the sphere of replication: LDS
    /// allocations are duplicated.
    IntraPlusLds,
    /// Intra-Group RMT with LDS outside the SoR: allocations are shared and
    /// every local store gets an output comparison.
    IntraMinusLds,
    /// Inter-Group RMT: whole work-groups are duplicated; communication
    /// goes through global memory.
    Inter,
    /// Coverage-guided selective hardening: Intra-Group+LDS replication,
    /// but only the sphere-of-replication exits selected by the
    /// [`rmt_ir::analysis::harden`] plan get the publish+compare sequence.
    /// `budget` is the protection budget in percent (0 = emit the original
    /// kernel untouched, 100 = protect every exit).
    Selective {
        /// Protection budget in percent (0..=100).
        budget: u8,
    },
}

impl RmtFlavor {
    /// All flavors, in paper order.
    pub const ALL: [RmtFlavor; 3] = [
        RmtFlavor::IntraPlusLds,
        RmtFlavor::IntraMinusLds,
        RmtFlavor::Inter,
    ];

    /// `true` for the flavors that pair redundant work-items inside one
    /// work-group (everything except Inter-Group).
    pub fn is_intra(self) -> bool {
        !matches!(self, RmtFlavor::Inter)
    }
}

impl fmt::Display for RmtFlavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RmtFlavor::IntraPlusLds => f.write_str("Intra-Group+LDS"),
            RmtFlavor::IntraMinusLds => f.write_str("Intra-Group-LDS"),
            RmtFlavor::Inter => f.write_str("Inter-Group"),
            RmtFlavor::Selective { budget } => write!(f, "Selective({budget}%)"),
        }
    }
}

/// How redundant work-item pairs exchange values for output comparison
/// (intra-group flavors only; inter-group always uses global memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommMode {
    /// Through an LDS communication buffer — the portable OpenCL-conformant
    /// scheme (Section 6.2).
    Lds,
    /// Directly through the vector register file using the architecture-
    /// specific swizzle instruction — the paper's "FAST" variant
    /// (Section 8, Figure 9).
    Swizzle,
}

impl fmt::Display for CommMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommMode::Lds => f.write_str("lds"),
            CommMode::Swizzle => f.write_str("swizzle(FAST)"),
        }
    }
}

/// How much of the full transformation to apply — the staged variants used
/// to decompose RMT overhead (Figures 4 and 7). The third stage of the
/// decomposition ("doubling the size of work-groups") is not a kernel
/// transform; see [`crate::decompose`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Redundant computation with remapped IDs but **no** communication or
    /// comparison: consumers execute SoR-exiting stores directly.
    RedundantNoComm,
    /// The complete transformation: redundancy + communication +
    /// output comparison + error detection.
    Full,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::RedundantNoComm => f.write_str("redundant-no-comm"),
            Stage::Full => f.write_str("full"),
        }
    }
}

/// Full configuration for one application of the RMT compiler pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransformOptions {
    /// Algorithm.
    pub flavor: RmtFlavor,
    /// Pair communication mechanism (ignored by [`RmtFlavor::Inter`]).
    pub comm: CommMode,
    /// Staging for overhead decomposition.
    pub stage: Stage,
}

impl TransformOptions {
    /// Full Intra-Group+LDS with LDS communication.
    pub fn intra_plus_lds() -> Self {
        TransformOptions {
            flavor: RmtFlavor::IntraPlusLds,
            comm: CommMode::Lds,
            stage: Stage::Full,
        }
    }

    /// Full Intra-Group−LDS with LDS communication.
    pub fn intra_minus_lds() -> Self {
        TransformOptions {
            flavor: RmtFlavor::IntraMinusLds,
            comm: CommMode::Lds,
            stage: Stage::Full,
        }
    }

    /// Full Inter-Group.
    pub fn inter() -> Self {
        TransformOptions {
            flavor: RmtFlavor::Inter,
            comm: CommMode::Lds,
            stage: Stage::Full,
        }
    }

    /// Coverage-guided selective hardening at the given protection budget
    /// (percent, clamped to 100). Uses LDS communication and the full stage;
    /// the budget decides which SoR exits actually get publish+compare.
    pub fn selective(budget: u8) -> Self {
        TransformOptions {
            flavor: RmtFlavor::Selective {
                budget: budget.min(100),
            },
            comm: CommMode::Lds,
            stage: Stage::Full,
        }
    }

    /// Switches to the FAST register-level (swizzle) communication.
    pub fn with_swizzle(mut self) -> Self {
        self.comm = CommMode::Swizzle;
        self
    }

    /// Switches to the no-communication decomposition stage.
    pub fn without_comm(mut self) -> Self {
        self.stage = Stage::RedundantNoComm;
        self
    }

    /// The paper's four full-stage flavors with their column labels, in
    /// paper order: Intra+LDS, Intra-LDS, Inter and FAST.
    pub fn full_stage() -> [(&'static str, TransformOptions); 4] {
        [
            ("Intra+LDS", TransformOptions::intra_plus_lds()),
            ("Intra-LDS", TransformOptions::intra_minus_lds()),
            ("Inter", TransformOptions::inter()),
            ("FAST", TransformOptions::intra_plus_lds().with_swizzle()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_match_flavors() {
        assert_eq!(
            TransformOptions::intra_plus_lds().flavor,
            RmtFlavor::IntraPlusLds
        );
        assert_eq!(
            TransformOptions::intra_minus_lds().flavor,
            RmtFlavor::IntraMinusLds
        );
        assert_eq!(TransformOptions::inter().flavor, RmtFlavor::Inter);
        assert_eq!(
            TransformOptions::selective(60).flavor,
            RmtFlavor::Selective { budget: 60 }
        );
        assert_eq!(
            TransformOptions::selective(250).flavor,
            RmtFlavor::Selective { budget: 100 }
        );
        assert_eq!(TransformOptions::selective(60).stage, Stage::Full);
        assert_eq!(
            TransformOptions::intra_plus_lds().with_swizzle().comm,
            CommMode::Swizzle
        );
        assert_eq!(
            TransformOptions::inter().without_comm().stage,
            Stage::RedundantNoComm
        );
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(RmtFlavor::IntraPlusLds.to_string(), "Intra-Group+LDS");
        assert_eq!(RmtFlavor::IntraMinusLds.to_string(), "Intra-Group-LDS");
        assert_eq!(RmtFlavor::Inter.to_string(), "Inter-Group");
        assert_eq!(
            RmtFlavor::Selective { budget: 75 }.to_string(),
            "Selective(75%)"
        );
    }

    #[test]
    fn intra_classification() {
        assert!(RmtFlavor::IntraPlusLds.is_intra());
        assert!(RmtFlavor::IntraMinusLds.is_intra());
        assert!(RmtFlavor::Selective { budget: 50 }.is_intra());
        assert!(!RmtFlavor::Inter.is_intra());
    }
}
