//! Allocation budget of the static layers.
//!
//! `compile-suite` spends its time in the static layers — the transform,
//! `lint_kernel`, `validate_transform`, `verify_rmt` and
//! `coverage::analyze` — and a heap allocation there costs about as much
//! as the arithmetic around it. This test counts the allocations each of
//! those calls makes over the 16 suite kernels under the seven postures
//! `compile-suite` runs, linting at every work-group shape the kernel
//! launches with at small scale, and fails when a layer's total exceeds
//! its budget.
//!
//! The counter is this test binary's global allocator; the counts are
//! thread-local, so tests running on other threads do not disturb them.
//! Debug builds allocate in their extra assertions (the transform re-runs
//! `validate`, `verify_rmt` and `tv`), so they have budgets of their own.
//!
//! The budgets sit about a quarter above the counts the analyses make
//! today. A change that lowers a count should lower its budget with it;
//! one that raises a count past its budget must say why.

use gpu_rmt::ir::analysis::lint::{lint_kernel, LintAssumptions, LintConfig};
use gpu_rmt::kernels::{all, Scale};
use gpu_rmt::rmt::{coverage, transform, validate_transform, verify_rmt, TransformOptions};
use gpu_rmt::sim::{Device, DeviceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations of each thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; `bump` touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded as received; see the impl's comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded as received; see the impl's comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded as received; see the impl's comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received; see the impl's comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f`, adding the allocations it makes on this thread to `total`.
/// The result is dropped after the count is taken.
fn counted<T>(total: &mut u64, f: impl FnOnce() -> T) -> T {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    *total += ALLOCS.with(Cell::get) - before;
    out
}

/// The seven postures `compile-suite` runs.
fn postures() -> Vec<TransformOptions> {
    let mut out: Vec<TransformOptions> = TransformOptions::full_stage()
        .into_iter()
        .map(|(_, o)| o)
        .collect();
    out.extend([0, 50, 100].map(TransformOptions::selective));
    out
}

/// Allocations of each static layer, summed over the suite.
#[derive(Debug, Default)]
struct Counts {
    transform: u64,
    verify: u64,
    lint: u64,
    tv: u64,
    coverage: u64,
}

fn count_suite() -> Counts {
    let mut c = Counts::default();
    for bench in all() {
        let mut dev = Device::new(DeviceConfig::radeon_hd_7790());
        let mut shapes: Vec<[usize; 3]> = Vec::new();
        for pass in bench.plan(Scale::Small, &mut dev).passes {
            if !shapes.contains(&pass.local) {
                shapes.push(pass.local);
            }
        }
        let kernel = bench.kernel();
        for opts in postures() {
            let rk = counted(&mut c.transform, || transform(&kernel, &opts))
                .unwrap_or_else(|e| panic!("{}: transform failed: {e}", bench.abbrev()));
            let errs = counted(&mut c.verify, || verify_rmt(&kernel, &rk));
            assert!(errs.is_empty(), "{}: {errs:?}", bench.abbrev());
            for &shape in &shapes {
                let mut local = shape;
                if rk.meta.doubles_workgroup() {
                    local[0] *= 2;
                }
                let cfg = LintConfig::with_assumptions(LintAssumptions {
                    local_size: local.map(|n| Some(n as u32)),
                    wavefront: 64,
                });
                let diags = counted(&mut c.lint, || lint_kernel(&rk.kernel, &cfg));
                assert!(diags.is_empty(), "{}: {diags:?}", bench.abbrev());
            }
            let tv = counted(&mut c.tv, || validate_transform(&kernel, &rk));
            assert!(tv.proved(), "{}: {:?}", bench.abbrev(), tv.residue);
            counted(&mut c.coverage, || coverage::analyze(&rk));
        }
    }
    c
}

/// The budgets, about 1.25 times the counts of the current analyses
/// (release: transform 21,353, verify 6,649, lint 101,669, tv 7,770,
/// coverage 3,026; debug differs only in the transform's 35,996). Before
/// the copy-cheap polynomials, the merge-based `tv` terms and the dense
/// harden slices, release counted 38,911, 12,503, 276,812, 99,977 and
/// 3,026.
const BUDGET: Counts = Counts {
    transform: if cfg!(debug_assertions) {
        45_000
    } else {
        26_700
    },
    verify: 8_300,
    lint: 127_100,
    tv: 9_700,
    coverage: 3_800,
};

#[test]
fn static_layers_stay_within_their_allocation_budgets() {
    let got = count_suite();
    println!("allocations over the suite x 7 postures: {got:?}");
    let layers = [
        ("transform", got.transform, BUDGET.transform),
        ("verify_rmt", got.verify, BUDGET.verify),
        ("lint_kernel", got.lint, BUDGET.lint),
        ("validate_transform", got.tv, BUDGET.tv),
        ("coverage::analyze", got.coverage, BUDGET.coverage),
    ];
    let over: Vec<String> = layers
        .iter()
        .filter(|&&(_, n, budget)| n > budget)
        .map(|(name, n, budget)| format!("{name}: {n} allocations, budget {budget}"))
        .collect();
    assert!(
        over.is_empty(),
        "over budget ({got:?}):\n  {}",
        over.join("\n  ")
    );
}
