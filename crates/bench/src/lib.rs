//! # rmt-bench
//!
//! Experiment harness regenerating **every table and figure** of the ISCA
//! 2014 evaluation of compiler-managed GPU RMT, plus two extension
//! experiments the paper argues but could not measure on real hardware
//! (fault-injection validation of the spheres of replication, and the
//! stale-L1 demonstration motivating the `atomic_add(·, 0)` reads).
//!
//! Run everything from the CLI:
//!
//! ```text
//! cargo run -p rmt-bench --release --bin repro -- all
//! cargo run -p rmt-bench --release --bin repro -- fig2 --scale small
//! ```
//!
//! Each experiment is a function from an [`ExpConfig`] to a rendered text
//! report; `EXPERIMENTS.md` archives one full run next to the paper's
//! numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cells;
pub mod experiments;
mod obs;
pub mod report;
mod table;

pub use table::{Matrix, Table};

use gcn_sim::DeviceConfig;
use rmt_kernels::Scale;

/// Configuration shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Input scaling for the benchmark suite.
    pub scale: Scale,
    /// The simulated device.
    pub device: DeviceConfig,
    /// Emit machine-readable JSON instead of text tables where an
    /// experiment supports it (`repro --json`).
    pub json: bool,
    /// Worker threads for fanning independent simulation cells through
    /// `gcn_sim::pool` (`repro --jobs`). Results are merged in submission
    /// order, so any value produces byte-identical reports; `1` runs
    /// everything serially on the calling thread.
    pub jobs: usize,
    /// Campaign seed for the generative experiments (`repro fuzz --seed`).
    /// Every per-case seed derives from it, so the whole campaign is a
    /// pure function of `(seed, budget)`.
    pub seed: u64,
    /// Number of generated cases for `repro fuzz` (`--budget`).
    pub budget: usize,
    /// Benchmark abbreviation for the single-kernel `repro profile` mode
    /// (`--kernel`); `None` renders the suite-wide stall matrix.
    pub kernel: Option<String>,
    /// Flavor name for single-kernel profiling (`--flavor`, default
    /// `Intra+LDS`): one of `Original`, `Intra+LDS`, `Intra-LDS`,
    /// `Inter`, `FAST`.
    pub flavor: Option<String>,
    /// Output path for the Chrome `trace_event` timeline written by
    /// single-kernel profiling (`--timeline`).
    pub timeline: Option<String>,
    /// Single protection budget for `repro pareto` (`--protect`, percent);
    /// `None` sweeps the full {0, 25, 50, 75, 90, 100} grid.
    pub protect: Option<u8>,
    /// Use logical timestamps (cell indices, tick counts) instead of
    /// wall-clock in the observability layer (`--deterministic`), making
    /// metrics snapshots byte-identical for any `--jobs` value.
    pub deterministic: bool,
    /// Output path for the campaign-wide Chrome `trace_event` file
    /// (`--trace-out`): experiment cell spans, oracle stages and fault
    /// ledger, merged with any device timelines recorded by `profile`.
    pub trace_out: Option<String>,
    /// Output path for the campaign metrics snapshot (`--metrics-out`),
    /// in the repo's hand-rolled JSON style.
    pub metrics_out: Option<String>,
}

impl ExpConfig {
    /// The paper's setup: paper-scale inputs on the 12-CU HD 7790 model.
    pub fn paper() -> Self {
        ExpConfig {
            scale: Scale::Paper,
            device: DeviceConfig::radeon_hd_7790(),
            json: false,
            jobs: 1,
            seed: 1,
            budget: 200,
            kernel: None,
            flavor: None,
            timeline: None,
            protect: None,
            deterministic: false,
            trace_out: None,
            metrics_out: None,
        }
    }

    /// Small inputs (quick smoke runs, CI).
    pub fn small() -> Self {
        ExpConfig {
            scale: Scale::Small,
            device: DeviceConfig::radeon_hd_7790(),
            json: false,
            jobs: 1,
            seed: 1,
            budget: 200,
            kernel: None,
            flavor: None,
            timeline: None,
            protect: None,
            deterministic: false,
            trace_out: None,
            metrics_out: None,
        }
    }

    /// Sets the worker-thread count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self::paper()
    }
}
