//! Mutation sweep over the corpus text format: `parse` must answer every
//! damaged input with a kernel or an error that names where it failed,
//! and every kernel it accepts that validates must go through the static
//! layers and the transforms without a panic.
//!
//! The inputs come from each committed `fuzz/corpus/` entry:
//!
//! * the entry cut every 7 bytes;
//! * the entry with each single line dropped;
//! * seeded single-byte substitutions ([`SUBSTITUTIONS`] per entry).

use gpu_rmt::ir::analysis::lint::LintAssumptions;
use gpu_rmt::ir::analysis::{
    harden, lint_kernel, CoverageSpec, HardenConfig, LintConfig, Replication,
};
use gpu_rmt::ir::fuzz::{child_seed, parse, FuzzRng};
use gpu_rmt::ir::validate;
use gpu_rmt::rmt::{coverage, transform, validate_transform, verify_rmt, TransformOptions};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Seeded single-byte substitutions per corpus entry.
const SUBSTITUTIONS: u64 = 80;

/// Bytes a substitution writes: the format's own alphabet plus a few
/// that it never uses.
const ALPHABET: &[u8] = b"0123456789abcdefx%{}=:,._- \n#zZ!";

fn corpus() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fuzz/corpus holds the committed cases")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rmt"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (
                name,
                std::fs::read_to_string(&p).expect("readable corpus file"),
            )
        })
        .collect()
}

/// Every mutated input of one corpus entry, each with a label naming it.
fn mutants(name: &str, text: &str, file: u64) -> Vec<(String, String)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for cut in (0..bytes.len()).step_by(7) {
        let t = String::from_utf8_lossy(&bytes[..cut]).into_owned();
        out.push((format!("{name} cut at byte {cut}"), t));
    }
    let lines: Vec<&str> = text.lines().collect();
    for drop in 0..lines.len() {
        let t: Vec<&str> = lines
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != drop)
            .map(|(_, l)| *l)
            .collect();
        out.push((format!("{name} without line {}", drop + 1), t.join("\n")));
    }
    let mut rng = FuzzRng::new(child_seed(17, file));
    for _ in 0..SUBSTITUTIONS {
        let at = rng.below(bytes.len() as u32) as usize;
        let byte = *rng.pick(ALPHABET);
        let mut b = bytes.to_vec();
        b[at] = byte;
        let t = String::from_utf8_lossy(&b).into_owned();
        out.push((format!("{name} byte {at} := {:?}", byte as char), t));
    }
    out
}

/// Runs one input through `parse` and, if it yields a valid kernel, every
/// static layer and transform. Returns whether the kernel validated, or
/// the parse error if it names no location.
fn exercise(text: &str) -> Result<bool, String> {
    let case = match parse(text) {
        Ok(case) => case,
        Err(e) if e.starts_with("line ") || e.starts_with("at end of input") => return Ok(false),
        Err(e) => return Err(e),
    };
    let k = &case.kernel;
    if validate(k).is_err() {
        return Ok(false);
    }
    lint_kernel(
        k,
        &LintConfig::with_assumptions(LintAssumptions::one_dim(case.local)),
    );
    gpu_rmt::ir::analysis::coverage(
        k,
        &CoverageSpec::new(Replication::PairedLanes {
            lds_duplicated: true,
        }),
    );
    harden(k, &HardenConfig::with_budget(50));
    let flavors = TransformOptions::full_stage()
        .map(|(_, o)| o)
        .into_iter()
        .chain([0, 50, 100].map(TransformOptions::selective));
    for opts in flavors {
        if let Ok(rk) = transform(k, &opts) {
            verify_rmt(k, &rk);
            let _ = validate_transform(k, &rk);
            coverage::analyze(&rk);
        }
    }
    Ok(true)
}

#[test]
fn damaged_corpus_entries_parse_or_name_their_location() {
    let mut inputs = 0;
    let mut valid = 0;
    let mut unlocated = Vec::new();
    let mut panics = Vec::new();
    for (file, (name, text)) in corpus().iter().enumerate() {
        for (label, t) in mutants(name, text, file as u64) {
            inputs += 1;
            match catch_unwind(AssertUnwindSafe(|| exercise(&t))) {
                Ok(Ok(v)) => valid += usize::from(v),
                Ok(Err(e)) => unlocated.push(format!("{label}: {e}")),
                Err(_) => panics.push(label),
            }
        }
    }
    assert!(panics.is_empty(), "panicked on: {panics:#?}");
    assert!(
        unlocated.is_empty(),
        "parse errors without a location: {unlocated:#?}"
    );
    // The sweep must reach the analyses, not only the parser.
    assert!(valid > 0 && valid < inputs, "{valid} of {inputs} validated");
}
