//! Property tests for the symbolic equivalence engine over the fuzz
//! corpus: the engine is total (never panics on a validator-clean
//! kernel), deterministic (bit-identical reports across runs), and
//! self-consistent (every kernel proves equal to itself under the
//! identity configuration).

use rmt_ir::analysis::equiv::{self_check, validate_pair, ResidueKind, TvConfig};
use rmt_ir::analysis::uniformity::has_divergent_barrier;
use rmt_ir::fuzz::{child_seed, generate, GenConfig};
use rmt_ir::validate;

const SEED: u64 = 0x7E57_EC1A;
const CASES: u64 = 64;

#[test]
fn self_check_proves_every_fuzz_kernel() {
    let cfg = GenConfig::default();
    let mut checked = 0;
    for i in 0..CASES {
        let case = generate(child_seed(SEED, i), &cfg);
        assert_eq!(validate(&case.kernel), Ok(()), "case {i}");
        let rep = self_check(&case.kernel);
        if has_divergent_barrier(&case.kernel) {
            // Outside the engine's fragment: must refuse, not misprove.
            assert!(
                rep.residue
                    .iter()
                    .all(|r| r.kind == ResidueKind::Unsupported),
                "case {i}: {:#?}",
                rep.residue
            );
            continue;
        }
        assert!(rep.proved(), "case {i} left residue: {:#?}", rep.residue);
        checked += 1;
    }
    assert!(
        checked >= CASES / 2,
        "only {checked}/{CASES} kernels were in the supported fragment"
    );
}

#[test]
fn reports_are_bit_identical_across_runs() {
    let cfg = GenConfig::default();
    for i in 0..16 {
        let case = generate(child_seed(SEED, i), &cfg);
        let a = self_check(&case.kernel);
        let b = self_check(&case.kernel);
        assert_eq!(a, b, "case {i}");
    }
}

#[test]
fn engine_is_total_on_mismatched_pairs() {
    // Validating one fuzz kernel against a *different* one must never
    // panic: whatever it finds comes back as structured residue. The
    // reports stay deterministic even when nothing proves.
    let cfg = GenConfig::default();
    let kernels: Vec<_> = (0..8)
        .map(|i| generate(child_seed(SEED, i), &cfg).kernel)
        .collect();
    let tv = TvConfig::default();
    for a in &kernels {
        for b in &kernels {
            let r1 = validate_pair(a, b, &tv);
            let r2 = validate_pair(a, b, &tv);
            assert_eq!(r1, r2, "{} vs {}", a.name, b.name);
        }
    }
}
