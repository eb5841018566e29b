//! The cell store: every fault-free suite run the figures read,
//! simulated once per `repro` invocation.
//!
//! A cell is one verified run of a suite kernel, keyed by
//! `{kernel, posture, DeviceConfig, scale}`. The simulator is
//! deterministic, so a cell's outcome is a function of its key: when a
//! figure asks for a key an earlier experiment already filled, it reads
//! the stored outcome. `repro` creates one store and hands it to every
//! experiment. There is no process-global cache, because integration
//! tests share one process.

use crate::obs::{cell_obs, flavor_label};
use crate::ExpConfig;
use gcn_sim::DeviceConfig;
use rmt_core::TransformOptions;
use rmt_kernels::{all, by_abbrev, run_duplicated, run_original, run_rmt, RunOutcome, Scale};

/// How a cell runs its kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Posture {
    /// The untransformed kernel.
    Original,
    /// The kernel under one RMT transform.
    Rmt(TransformOptions),
    /// Naive duplication: the whole launch twice, compared on the host.
    Duplicated,
}

/// What a cell's outcome is a function of. The device carries the
/// engine and any occupancy cap (`max_groups_per_cu`).
#[derive(Debug, Clone, PartialEq)]
pub struct CellKey {
    /// The kernel's paper abbreviation, as `Benchmark::abbrev` spells it.
    pub kernel: &'static str,
    /// How the kernel runs.
    pub posture: Posture,
    /// The simulated device.
    pub device: DeviceConfig,
    /// Input scaling.
    pub scale: Scale,
}

impl CellKey {
    /// `kernel` under `posture` on `cfg`'s device and scale.
    pub fn new(cfg: &ExpConfig, kernel: &'static str, posture: Posture) -> Self {
        CellKey {
            kernel,
            posture,
            device: cfg.device.clone(),
            scale: cfg.scale,
        }
    }

    /// The same cell on a device `edit` changes.
    pub fn on(mut self, edit: impl FnOnce(&mut DeviceConfig)) -> Self {
        edit(&mut self.device);
        self
    }

    fn run(&self) -> Result<RunOutcome, String> {
        let b = by_abbrev(self.kernel).expect("cell keys name suite kernels");
        let (b, scale, dev) = (b.as_ref(), self.scale, &self.device);
        match &self.posture {
            Posture::Original => run_original(b, scale, dev),
            Posture::Rmt(o) => run_rmt(b, scale, dev, o),
            Posture::Duplicated => run_duplicated(b, scale, dev),
        }
        .map_err(|e| format!("{}: {e}", self.kernel))
    }
}

/// Every cell simulated so far, in fill order. A few hundred keys at
/// most, so lookup is a linear scan (`DeviceConfig` holds `f64`s and is
/// not `Hash`).
#[derive(Default)]
pub struct CellStore {
    cells: Vec<(CellKey, Result<RunOutcome, String>)>,
}

impl CellStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct cells simulated so far.
    pub fn simulated(&self) -> usize {
        self.cells.len()
    }

    /// Simulates every key not stored yet in one `gcn_sim::pool` fan-out,
    /// in key order, so the store's contents do not depend on `--jobs`.
    /// `exp` labels the new cells' metrics: a cell counts for the
    /// experiment that first asked for it.
    pub fn fill(&mut self, cfg: &ExpConfig, exp: &'static str, keys: &[CellKey]) {
        let mut missing: Vec<(usize, &CellKey)> = Vec::new();
        for k in keys {
            if self.find(k).is_none() && !missing.iter().any(|(_, m)| *m == k) {
                missing.push((self.cells.len() + missing.len(), k));
            }
        }
        let runs = gcn_sim::pool::map(cfg.jobs, missing.clone(), |(i, key)| {
            let label = match &key.posture {
                Posture::Original => flavor_label(None),
                Posture::Rmt(o) => flavor_label(Some(o)),
                Posture::Duplicated => "Duplicated".to_string(),
            };
            cell_obs(
                exp,
                key.kernel,
                &label,
                i,
                |r: &RunOutcome| (r.stats.cycles, r.stats.counters.dyn_insts),
                || key.run(),
            )
        });
        let new = missing.into_iter().map(|(_, k)| k.clone()).zip(runs);
        self.cells.extend(new);
    }

    fn find(&self, key: &CellKey) -> Option<&Result<RunOutcome, String>> {
        self.cells.iter().find(|(k, _)| k == key).map(|(_, r)| r)
    }

    /// The stored outcome of a filled key.
    ///
    /// # Panics
    ///
    /// If `key` was never filled.
    pub fn get(&self, key: &CellKey) -> Result<&RunOutcome, String> {
        let run = self
            .find(key)
            .expect("cells are filled before they are read");
        run.as_ref().map_err(String::clone)
    }

    /// Fills the 16-kernel suite under each of `postures` on `cfg` and
    /// returns one `(abbreviation, outcomes in posture order)` row per
    /// kernel, in the paper's figure order; the first failed cell's error
    /// wins.
    pub fn suite(
        &mut self,
        cfg: &ExpConfig,
        exp: &'static str,
        postures: &[Posture],
    ) -> Result<Vec<(&'static str, Vec<&RunOutcome>)>, String> {
        let keys: Vec<CellKey> = all()
            .iter()
            .flat_map(|b| postures.iter().map(|p| CellKey::new(cfg, b.abbrev(), *p)))
            .collect();
        self.fill(cfg, exp, &keys);
        let runs = keys
            .iter()
            .map(|k| self.get(k))
            .collect::<Result<Vec<_>, _>>()?;
        let rows = keys.chunks(postures.len()).zip(runs.chunks(postures.len()));
        Ok(rows.map(|(k, r)| (k[0].kernel, r.to_vec())).collect())
    }
}
