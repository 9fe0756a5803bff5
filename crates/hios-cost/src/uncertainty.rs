//! Online cost calibration and drift detection.
//!
//! The profiled [`CostTable`] is the single largest lie in a production
//! deployment: contention, clock throttling and thermal effects make the
//! measured latency of an operator drift away from its profile without any
//! discrete fault to point at.  This module closes the loop.  Every
//! completed request yields one *observation* per operator — the ratio of
//! the duration the simulator (standing in for the hardware) actually took
//! to the duration the static profile predicted — and three cooperating
//! pieces turn those ratios back into planning prices:
//!
//! * [`OnlineStats`] — a per-(GPU, op) EWMA of the ratio's mean and
//!   variance.  The update is `mean += α·(r − mean)`, so a stream of
//!   exactly-nominal observations (`r = 1.0`) leaves the mean at *exactly*
//!   `1.0` and the variance at `0.0` — the bit-identity anchor for the
//!   no-drift path.
//! * [`CusumDetector`] — a two-sided CUSUM over `r − 1` that flags
//!   *sustained* drift while ignoring one-off outliers, emitting a typed
//!   [`DriftAlarm`].
//! * [`Calibrator`] + [`CalibratedTable`] — the calibrator owns the cells
//!   and quarantine state; the table overlays the learned corrections on
//!   the static profile as a *planning* [`CostTable`] whose GPU `g` prices
//!   operator `v` at `exec(v) · (mean + k·σ)` — a pessimistic percentile,
//!   not a point estimate — while staying [`CostTable::validate`]-clean
//!   (finite, positive, clamped) for arbitrary observation streams.
//!
//! When every cell is still nominal the planning table *is* the base
//! table (same allocation, same bits), so schedulers running on top of an
//! idle calibrator produce bit-identical output to uncalibrated runs.

use crate::table::{CostTable, DeviceCosts};
use crate::topology::Topology;
use hios_graph::{HashWriter, OpId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Knobs of the calibration loop.  [`CalibrationConfig::default`] matches
/// the serving layer's deployment defaults; [`CalibrationConfig::validate`]
/// rejects non-finite or out-of-range settings with a message.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CalibrationConfig {
    /// EWMA gain `α ∈ (0, 1]` for the per-cell mean/variance estimators.
    /// Larger adapts faster but is noisier.
    pub alpha: f64,
    /// Inflation multiplier `k ≥ 0`: planning prices use `mean + k·σ`.
    /// `k = 0` plans on the point estimate; `k = 1` on roughly the 84th
    /// percentile of the observed ratio distribution.
    pub k_sigma: f64,
    /// Per-observation slack of the CUSUM statistic: deviations of
    /// `|r − 1|` below this are treated as noise and never accumulate.
    pub cusum_slack: f64,
    /// Alarm threshold of the CUSUM statistic: the accumulated excess
    /// deviation that declares a cell drifted and quarantines it.
    pub cusum_threshold: f64,
    /// Lower clamp of any correction factor (guards against a stream of
    /// near-zero ratios pricing an operator at ~0 and breaking
    /// `validate`'s strict positivity).
    pub min_factor: f64,
    /// Upper clamp of any correction factor (guards against outliers
    /// pricing an operator at `+inf`).
    pub max_factor: f64,
    /// Graceful-degradation trigger: when more than this fraction of a
    /// GPU's cells are quarantined, the whole row is priced at the GPU's
    /// worst observed correction (the profile is no longer trustworthy
    /// cell-by-cell).
    pub degrade_fraction: f64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            alpha: 0.25,
            k_sigma: 1.0,
            cusum_slack: 0.1,
            cusum_threshold: 1.5,
            min_factor: 0.05,
            max_factor: 64.0,
            degrade_fraction: 0.5,
        }
    }
}

impl CalibrationConfig {
    /// Rejects non-finite or out-of-range knobs.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(format!("calibration alpha {} outside (0, 1]", self.alpha));
        }
        if !(self.k_sigma >= 0.0 && self.k_sigma.is_finite()) {
            return Err(format!(
                "calibration k_sigma {} must be finite >= 0",
                self.k_sigma
            ));
        }
        if !(self.cusum_slack >= 0.0 && self.cusum_slack.is_finite()) {
            return Err(format!(
                "cusum_slack {} must be finite >= 0",
                self.cusum_slack
            ));
        }
        if !(self.cusum_threshold > 0.0 && self.cusum_threshold.is_finite()) {
            return Err(format!(
                "cusum_threshold {} must be finite > 0",
                self.cusum_threshold
            ));
        }
        if !(self.min_factor > 0.0 && self.min_factor.is_finite()) {
            return Err(format!("min_factor {} must be finite > 0", self.min_factor));
        }
        if !(self.max_factor >= self.min_factor && self.max_factor.is_finite()) {
            return Err(format!(
                "max_factor {} must be finite >= min_factor {}",
                self.max_factor, self.min_factor
            ));
        }
        if !(self.degrade_fraction > 0.0 && self.degrade_fraction <= 1.0) {
            return Err(format!(
                "degrade_fraction {} outside (0, 1]",
                self.degrade_fraction
            ));
        }
        Ok(())
    }
}

/// Typed rejection of a single calibration observation.  A rejected
/// observation leaves the calibrator untouched; long-running callers log
/// and continue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ObservationError {
    /// `(gpu, op)` is outside the calibrator's grid.
    UnknownCell {
        /// GPU index observed.
        gpu: usize,
        /// Operator observed.
        op: OpId,
    },
    /// Observed or predicted duration is non-finite or non-positive, so
    /// no meaningful ratio exists.
    BadDuration {
        /// The measured duration, ms.
        observed_ms: f64,
        /// The profile-predicted duration, ms.
        predicted_ms: f64,
    },
}

impl fmt::Display for ObservationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObservationError::UnknownCell { gpu, op } => {
                write!(f, "observation for unknown cell (gpu {gpu}, {op})")
            }
            ObservationError::BadDuration {
                observed_ms,
                predicted_ms,
            } => write!(
                f,
                "unusable durations: observed {observed_ms} ms, predicted {predicted_ms} ms"
            ),
        }
    }
}

impl std::error::Error for ObservationError {}

/// Which way a drifted cell moved relative to the profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DriftDirection {
    /// Observed durations are sustainably *longer* than predicted.
    Slower,
    /// Observed durations are sustainably *shorter* than predicted.
    Faster,
}

/// A CUSUM detector crossed its threshold: the cell's cost is drifting.
/// Emitted once per quarantine — the cell's detector resets and the cell
/// stops raising further alarms until released.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftAlarm {
    /// Physical GPU of the drifted cell.
    pub gpu: usize,
    /// Operator of the drifted cell.
    pub op: OpId,
    /// Direction of the sustained deviation.
    pub direction: DriftDirection,
    /// Current EWMA mean of the observed/predicted ratio.
    pub mean_ratio: f64,
    /// Value of the CUSUM statistic at the crossing.
    pub cusum: f64,
}

impl fmt::Display for DriftAlarm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "drift alarm: gpu {} {} running {:?} at mean ratio {:.3} (cusum {:.3})",
            self.gpu, self.op, self.direction, self.mean_ratio, self.cusum
        )
    }
}

/// EWMA estimator of an observation ratio's mean and variance.
///
/// Starts at the nominal prior (`mean = 1`, `var = 0`).  The mean update
/// `mean += α·(r − mean)` makes exactly-nominal streams a fixed point at
/// exactly `1.0` — required for the zero-drift bit-identity guarantee.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    mean: f64,
    var: f64,
    count: u64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        OnlineStats {
            mean: 1.0,
            var: 0.0,
            count: 0,
        }
    }
}

impl OnlineStats {
    /// Folds one ratio into the estimator with EWMA gain `alpha`.
    pub fn observe(&mut self, ratio: f64, alpha: f64) {
        let delta = ratio - self.mean;
        self.mean += alpha * delta;
        // West's EWMA variance: decays toward zero when observations
        // settle, so the inflation term vanishes once drift stabilizes.
        self.var = (1.0 - alpha) * (self.var + alpha * delta * delta);
        self.count += 1;
    }

    /// Current EWMA mean of the ratio.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Current EWMA standard deviation of the ratio.
    pub fn std(&self) -> f64 {
        self.var.max(0.0).sqrt()
    }

    /// Number of observations folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Pessimistic-percentile estimate `mean + k·σ`.
    pub fn robust(&self, k_sigma: f64) -> f64 {
        self.mean + k_sigma * self.std()
    }
}

/// Two-sided CUSUM change detector over `r − 1`.
///
/// `g⁺` accumulates sustained slow-downs, `g⁻` sustained speed-ups; each
/// observation adds the deviation beyond `slack` and floors at zero, so
/// isolated outliers decay while persistent drift integrates up to the
/// threshold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CusumDetector {
    pos: f64,
    neg: f64,
}

impl CusumDetector {
    /// Folds one ratio in; returns the drift direction when the statistic
    /// crosses `threshold` (and resets both accumulators).
    pub fn observe(&mut self, ratio: f64, slack: f64, threshold: f64) -> Option<DriftDirection> {
        self.pos = (self.pos + (ratio - 1.0 - slack)).max(0.0);
        self.neg = (self.neg + (1.0 - ratio - slack)).max(0.0);
        if self.pos > threshold {
            *self = CusumDetector::default();
            Some(DriftDirection::Slower)
        } else if self.neg > threshold {
            *self = CusumDetector::default();
            Some(DriftDirection::Faster)
        } else {
            None
        }
    }

    /// Current value of the larger accumulator (for diagnostics).
    pub fn statistic(&self) -> f64 {
        self.pos.max(self.neg)
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
struct Cell {
    stats: OnlineStats,
    cusum: CusumDetector,
    quarantined: bool,
}

/// Per-(GPU, op) calibration state for one model on one platform.
///
/// Owns an [`OnlineStats`] + [`CusumDetector`] pair per cell, the
/// quarantine flags, and a monotone epoch that bumps on every quarantine.
/// The planning overlay is materialized separately by
/// [`CalibratedTable::refresh`], so observation ingestion stays O(1).
#[derive(Clone, Debug)]
pub struct Calibrator {
    cfg: CalibrationConfig,
    num_gpus: usize,
    num_ops: usize,
    cells: Vec<Cell>,
    /// Monotone count of quarantine events (part of the fingerprint).
    epoch: u64,
    /// False once any observation deviated from the exact nominal ratio:
    /// the cheap gate for the bit-identity fast path.
    identity: bool,
}

impl Calibrator {
    /// A nominal calibrator over an `num_gpus × num_ops` cell grid.
    pub fn new(num_gpus: usize, num_ops: usize, cfg: CalibrationConfig) -> Self {
        Calibrator {
            cfg,
            num_gpus,
            num_ops,
            cells: vec![Cell::default(); num_gpus * num_ops],
            epoch: 0,
            identity: true,
        }
    }

    /// The configuration the calibrator runs with.
    pub fn config(&self) -> &CalibrationConfig {
        &self.cfg
    }

    /// GPUs covered by the cell grid.
    pub fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    /// Operators covered by the cell grid.
    pub fn num_ops(&self) -> usize {
        self.num_ops
    }

    #[inline]
    fn cell_index(&self, gpu: usize, op: OpId) -> usize {
        gpu * self.num_ops + op.index()
    }

    /// Folds one `(observed, predicted)` duration pair into the cell for
    /// `(gpu, op)`.  Returns a [`DriftAlarm`] when this observation pushes
    /// the cell's CUSUM over the threshold (which also quarantines the
    /// cell), `Ok(None)` otherwise, and a typed error for unusable input
    /// (which leaves all state untouched).
    pub fn observe(
        &mut self,
        gpu: usize,
        op: OpId,
        observed_ms: f64,
        predicted_ms: f64,
    ) -> Result<Option<DriftAlarm>, ObservationError> {
        if gpu >= self.num_gpus || op.index() >= self.num_ops {
            return Err(ObservationError::UnknownCell { gpu, op });
        }
        let usable = |ms: f64| ms.is_finite() && ms > 0.0;
        if !usable(observed_ms) || !usable(predicted_ms) {
            return Err(ObservationError::BadDuration {
                observed_ms,
                predicted_ms,
            });
        }
        let ratio = (observed_ms / predicted_ms).clamp(self.cfg.min_factor, self.cfg.max_factor);
        if ratio != 1.0 {
            self.identity = false;
        }
        let (alpha, slack, threshold) = (
            self.cfg.alpha,
            self.cfg.cusum_slack,
            self.cfg.cusum_threshold,
        );
        let idx = self.cell_index(gpu, op);
        let cell = &mut self.cells[idx];
        cell.stats.observe(ratio, alpha);
        // Quarantined cells keep learning (so the correction tracks the
        // drift) but stop alarming: one alarm per quarantine.
        if cell.quarantined {
            return Ok(None);
        }
        if let Some(direction) = cell.cusum.observe(ratio, slack, threshold) {
            cell.quarantined = true;
            self.epoch += 1;
            return Ok(Some(DriftAlarm {
                gpu,
                op,
                direction,
                mean_ratio: cell.stats.mean(),
                cusum: threshold,
            }));
        }
        Ok(None)
    }

    /// Correction factor the planning overlay applies to `exec(gpu, op)`:
    /// `clamp(mean + k·σ)`.  Exactly `1.0` for untouched cells.
    pub fn correction(&self, gpu: usize, op: OpId) -> f64 {
        let cell = &self.cells[self.cell_index(gpu, op)];
        if cell.stats.count() == 0 {
            return 1.0;
        }
        let robust = cell.stats.robust(self.cfg.k_sigma);
        if robust.is_finite() {
            robust.clamp(self.cfg.min_factor, self.cfg.max_factor)
        } else {
            self.cfg.max_factor
        }
    }

    /// Whether the cell for `(gpu, op)` is quarantined.
    pub fn is_quarantined(&self, gpu: usize, op: OpId) -> bool {
        self.cells[self.cell_index(gpu, op)].quarantined
    }

    /// Fraction of `gpu`'s cells currently quarantined.
    pub fn quarantined_fraction(&self, gpu: usize) -> f64 {
        if self.num_ops == 0 {
            return 0.0;
        }
        let row = &self.cells[gpu * self.num_ops..(gpu + 1) * self.num_ops];
        row.iter().filter(|c| c.quarantined).count() as f64 / self.num_ops as f64
    }

    /// Graceful degradation: true when so many of `gpu`'s cells are
    /// quarantined that per-cell corrections are no longer trustworthy and
    /// the whole row prices at the worst observed correction.
    pub fn device_degraded(&self, gpu: usize) -> bool {
        self.quarantined_fraction(gpu) > self.cfg.degrade_fraction
    }

    /// Worst (largest) correction across `gpu`'s row — the degradation
    /// price.
    pub fn worst_correction(&self, gpu: usize) -> f64 {
        (0..self.num_ops)
            .map(|i| self.correction(gpu, OpId(i as u32)))
            .fold(1.0, f64::max)
    }

    /// Releases every quarantine flag and resets the detectors (the
    /// estimators keep their learned means): called by operators once the
    /// underlying cause — e.g. a noisy co-tenant — is resolved.
    pub fn release_quarantines(&mut self) {
        let mut released = false;
        for cell in &mut self.cells {
            if cell.quarantined {
                cell.quarantined = false;
                cell.cusum = CusumDetector::default();
                released = true;
            }
        }
        if released {
            self.epoch += 1;
        }
    }

    /// True while every observation ever folded in was exactly nominal:
    /// the planning overlay is guaranteed to be the identity.
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// Fingerprint ([`HashWriter`], whole words) of the calibration
    /// state that affects planning prices: the epoch, every quarantine
    /// flag and every correction's bit pattern.  Two equal fingerprints
    /// imply identical planning overlays.
    pub fn fingerprint(&self) -> u64 {
        let mut h = HashWriter::new();
        h.word(self.num_gpus as u64);
        h.word(self.num_ops as u64);
        h.word(self.epoch);
        for gpu in 0..self.num_gpus {
            h.word(self.device_degraded(gpu) as u64);
            for i in 0..self.num_ops {
                let op = OpId(i as u32);
                h.word(self.is_quarantined(gpu, op) as u64);
                h.word(self.correction(gpu, op).to_bits());
            }
        }
        h.finish()
    }
}

/// The static profile plus the calibrator's learned corrections,
/// materialized as a planning [`CostTable`].
///
/// While the calibrator is the identity the planning table *is* the base
/// table (no copy, same bits) — schedulers consuming
/// [`CalibratedTable::table`] are then bit-identical to uncalibrated runs.
/// Once corrections exist, [`CalibratedTable::refresh`] materializes a
/// heterogeneous overlay with **one device class per physical GPU**
/// (per-GPU drift is not expressible per device *class* on a uniform
/// platform), scaling each GPU's exec row by its correction factors while
/// leaving utilizations, transfers, topology links and concurrency
/// parameters untouched.  The overlay always passes
/// [`CostTable::validate`] whenever the base table does: corrections are
/// clamped to `[min_factor, max_factor]` and products to finite positives.
#[derive(Clone, Debug)]
pub struct CalibratedTable {
    base: CostTable,
    num_gpus: usize,
    /// `None` ⇒ identity: planning prices are the base table itself.
    planning: Option<CostTable>,
    fingerprint: u64,
}

impl CalibratedTable {
    /// Wraps a base profile for a platform of `num_gpus` GPUs with no
    /// corrections yet.
    ///
    /// # Panics
    /// Panics when the base topology cannot price `num_gpus` GPUs.
    pub fn new(base: CostTable, num_gpus: usize) -> Self {
        assert!(
            base.topology.covers(num_gpus),
            "base table covers {} GPUs, calibrating {num_gpus}",
            base.topology.num_gpus()
        );
        CalibratedTable {
            base,
            num_gpus,
            planning: None,
            fingerprint: 0,
        }
    }

    /// The static profile the overlay corrects.
    pub fn base(&self) -> &CostTable {
        &self.base
    }

    /// The table schedulers should plan with: the base profile while the
    /// calibrator is nominal, the corrected overlay afterwards.
    pub fn table(&self) -> &CostTable {
        self.planning.as_ref().unwrap_or(&self.base)
    }

    /// True while planning prices are exactly the base profile.
    pub fn is_identity(&self) -> bool {
        self.planning.is_none()
    }

    /// Fingerprint of the calibration state the current overlay was built
    /// from (0 until the first non-identity refresh).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Rebuilds the planning overlay from the calibrator's current state.
    /// Returns `true` when planning prices changed (callers then invalidate
    /// schedule caches and trigger re-scheduling).  Cheap no-op when the
    /// calibration fingerprint is unchanged.
    ///
    /// # Panics
    /// Panics when the calibrator's grid does not match the table
    /// (`num_gpus`, `num_ops`).
    pub fn refresh(&mut self, cal: &Calibrator) -> bool {
        assert_eq!(
            cal.num_gpus(),
            self.num_gpus,
            "calibrator GPU grid mismatch"
        );
        assert_eq!(
            cal.num_ops(),
            self.base.num_ops(),
            "calibrator op grid mismatch"
        );
        if cal.is_identity() {
            let changed = self.planning.is_some();
            self.planning = None;
            self.fingerprint = 0;
            return changed;
        }
        let fp = cal.fingerprint();
        if fp == self.fingerprint && self.planning.is_some() {
            return false;
        }
        self.planning = Some(self.materialize(cal));
        self.fingerprint = fp;
        true
    }

    /// Builds the per-GPU class-split overlay table.
    fn materialize(&self, cal: &Calibrator) -> CostTable {
        let m = self.num_gpus;
        let n = self.base.num_ops();
        let mut exec_ms = Vec::with_capacity(m);
        let mut util = Vec::with_capacity(m);
        for gpu in 0..m {
            let base_class = self.base.topology.class_of(gpu);
            let degraded = cal.device_degraded(gpu);
            let worst = if degraded {
                cal.worst_correction(gpu)
            } else {
                1.0
            };
            let mut row = Vec::with_capacity(n);
            for i in 0..n {
                let op = OpId(i as u32);
                let corr = if degraded {
                    worst
                } else {
                    cal.correction(gpu, op)
                };
                let base = self.base.device.exec_ms[base_class][i];
                let scaled = base * corr;
                // The base entry may be huge; clamp the product so the
                // overlay stays validate-clean even at max_factor.
                row.push(if scaled.is_finite() && scaled > 0.0 {
                    scaled
                } else {
                    base
                });
            }
            exec_ms.push(row);
            util.push(self.base.device.util[base_class].clone());
        }
        // One device class per physical GPU; the link matrix keeps the
        // base link classes so transfer rows are shared untouched.
        let device_class: Vec<usize> = (0..m).collect();
        let mut link_class = Vec::with_capacity(m * m);
        for s in 0..m {
            for d in 0..m {
                link_class.push(self.base.topology.link_between(s, d));
            }
        }
        CostTable::heterogeneous(
            format!("{} (calibrated)", self.base.source),
            DeviceCosts { exec_ms, util },
            self.base.transfer_ms.clone(),
            Topology::hetero(device_class, link_class),
            self.base.concurrency,
            self.base.launch_overhead_ms,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ConcurrencyParams;
    use hios_graph::{Graph, GraphBuilder};

    fn graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let mut prev: Vec<OpId> = vec![];
        for i in 0..n {
            prev = vec![b.add_synthetic(format!("op{i}"), &prev)];
        }
        b.build()
    }

    fn base(n: usize) -> CostTable {
        CostTable::homogeneous(
            "test",
            (0..n).map(|i| 1.0 + i as f64 * 0.25).collect(),
            vec![0.5; n],
            vec![0.1; n],
            ConcurrencyParams::default(),
            0.005,
        )
    }

    #[test]
    fn nominal_observations_keep_identity() {
        let mut cal = Calibrator::new(2, 4, CalibrationConfig::default());
        for _ in 0..50 {
            for gpu in 0..2 {
                for i in 0..4 {
                    let alarm = cal.observe(gpu, OpId(i), 3.5, 3.5).unwrap();
                    assert!(alarm.is_none());
                }
            }
        }
        assert!(cal.is_identity());
        assert_eq!(cal.correction(0, OpId(0)), 1.0);
        assert_eq!(cal.correction(1, OpId(3)), 1.0);

        let mut table = CalibratedTable::new(base(4), 2);
        assert!(!table.refresh(&cal));
        assert!(table.is_identity());
        // The planning table is literally the base table: same bits.
        assert_eq!(
            table.table().platform_fingerprint(),
            table.base().platform_fingerprint()
        );
    }

    #[test]
    fn sustained_drift_raises_one_alarm_and_quarantines() {
        let mut cal = Calibrator::new(2, 4, CalibrationConfig::default());
        let mut alarms = vec![];
        for _ in 0..10 {
            if let Some(a) = cal.observe(1, OpId(2), 2.0, 1.0).unwrap() {
                alarms.push(a);
            }
        }
        assert_eq!(alarms.len(), 1, "one alarm per quarantine");
        let a = alarms[0];
        assert_eq!(
            (a.gpu, a.op, a.direction),
            (1, OpId(2), DriftDirection::Slower)
        );
        assert!(a.mean_ratio > 1.0);
        assert!(cal.is_quarantined(1, OpId(2)));
        assert!(!cal.is_quarantined(0, OpId(2)));
        // Correction tracks toward the true factor and prices pessimistic.
        let c = cal.correction(1, OpId(2));
        assert!(c > 1.2 && c <= 2.5, "correction {c}");
        assert!(!cal.is_identity());

        cal.release_quarantines();
        assert!(!cal.is_quarantined(1, OpId(2)));
        assert!(
            cal.correction(1, OpId(2)) > 1.0,
            "estimates survive release"
        );
    }

    #[test]
    fn speedup_drift_alarms_faster() {
        let mut cal = Calibrator::new(1, 1, CalibrationConfig::default());
        let mut direction = None;
        for _ in 0..20 {
            if let Some(a) = cal.observe(0, OpId(0), 0.5, 1.0).unwrap() {
                direction = Some(a.direction);
                break;
            }
        }
        assert_eq!(direction, Some(DriftDirection::Faster));
    }

    #[test]
    fn outliers_alone_do_not_alarm() {
        let cfg = CalibrationConfig::default();
        let mut cal = Calibrator::new(1, 1, cfg);
        // One huge outlier inside a nominal stream: CUSUM decays it away.
        assert!(cal.observe(0, OpId(0), 1.6, 1.0).unwrap().is_none());
        for _ in 0..30 {
            assert!(cal.observe(0, OpId(0), 1.0, 1.0).unwrap().is_none());
        }
        assert!(!cal.is_quarantined(0, OpId(0)));
    }

    #[test]
    fn bad_observations_are_rejected_and_ignored() {
        let mut cal = Calibrator::new(1, 2, CalibrationConfig::default());
        let fp = cal.fingerprint();
        assert!(matches!(
            cal.observe(0, OpId(0), f64::NAN, 1.0),
            Err(ObservationError::BadDuration { .. })
        ));
        assert!(matches!(
            cal.observe(0, OpId(0), 1.0, 0.0),
            Err(ObservationError::BadDuration { .. })
        ));
        assert!(matches!(
            cal.observe(0, OpId(0), -3.0, 1.0),
            Err(ObservationError::BadDuration { .. })
        ));
        assert!(matches!(
            cal.observe(0, OpId(0), f64::INFINITY, 1.0),
            Err(ObservationError::BadDuration { .. })
        ));
        assert!(matches!(
            cal.observe(3, OpId(0), 1.0, 1.0),
            Err(ObservationError::UnknownCell { .. })
        ));
        assert!(matches!(
            cal.observe(0, OpId(9), 1.0, 1.0),
            Err(ObservationError::UnknownCell { .. })
        ));
        assert!(cal.is_identity());
        assert_eq!(
            cal.fingerprint(),
            fp,
            "rejected input leaves state untouched"
        );
    }

    #[test]
    fn overlay_prices_drifted_gpu_higher() {
        let g = graph(4);
        let b = base(4);
        let mut cal = Calibrator::new(3, 4, CalibrationConfig::default());
        for _ in 0..8 {
            for i in 0..4 {
                let _ = cal.observe(2, OpId(i), 3.0, 1.0).unwrap();
            }
        }
        let mut t = CalibratedTable::new(b.clone(), 3);
        assert!(t.refresh(&cal));
        assert!(!t.is_identity());
        let planning = t.table();
        planning
            .validate(&g)
            .expect("overlay must stay validate-clean");
        // GPU 2 is priced up; GPUs 0 and 1 keep base prices bit-identically.
        assert!(planning.exec_on(2, OpId(1)) > 2.0 * b.exec_on(2, OpId(1)));
        assert_eq!(planning.exec_on(0, OpId(1)), b.exec_on(0, OpId(1)));
        assert_eq!(planning.exec_on(1, OpId(1)), b.exec_on(1, OpId(1)));
        // Transfers and utilizations are untouched.
        assert_eq!(planning.transfer(OpId(0), 0, 2), b.transfer(OpId(0), 0, 2));
        assert_eq!(planning.util_on(2, OpId(0)), b.util_on(2, OpId(0)));
        // Restriction to a live subset stays valid (serving repair path).
        planning.restrict_gpus(&[0, 2]).validate(&g).unwrap();

        // A second refresh with unchanged state is a no-op.
        assert!(!t.refresh(&cal));
    }

    #[test]
    fn degraded_row_prices_worst_case() {
        let n = 4;
        let g = graph(n);
        let cfg = CalibrationConfig {
            degrade_fraction: 0.5,
            ..CalibrationConfig::default()
        };
        let mut cal = Calibrator::new(2, n, cfg);
        // Quarantine 3 of 4 cells on GPU 1 with different magnitudes.
        for (op, factor) in [(0u32, 2.0), (1, 4.0), (2, 3.0)] {
            for _ in 0..8 {
                let _ = cal.observe(1, OpId(op), factor, 1.0).unwrap();
            }
        }
        assert!(cal.device_degraded(1));
        assert!(!cal.device_degraded(0));
        let worst = cal.worst_correction(1);
        let mut t = CalibratedTable::new(base(n), 2);
        assert!(t.refresh(&cal));
        let planning = t.table();
        planning.validate(&g).unwrap();
        // Every op on the degraded GPU prices at the worst correction —
        // including the never-observed OpId(3).
        for i in 0..n as u32 {
            let b = t.base().exec_on(1, OpId(i));
            let p = planning.exec_on(1, OpId(i));
            assert!(
                (p - b * worst).abs() < 1e-12,
                "op {i}: {p} vs {}",
                b * worst
            );
        }
    }

    #[test]
    fn calibrator_fingerprint_is_pinned() {
        let mut cal = Calibrator::new(2, 3, CalibrationConfig::default());
        assert_eq!(cal.fingerprint(), 0x8930_53b8_bebd_1cc6);
        let _ = cal.observe(1, OpId(2), 1.5, 1.0).unwrap();
        assert_eq!(cal.fingerprint(), 0x3e30_f3eb_e07a_fef5);
    }

    #[test]
    fn fingerprint_tracks_calibration_state() {
        let mut cal = Calibrator::new(2, 2, CalibrationConfig::default());
        let fp0 = cal.fingerprint();
        let _ = cal.observe(0, OpId(0), 1.5, 1.0).unwrap();
        let fp1 = cal.fingerprint();
        assert_ne!(fp0, fp1, "a learned correction changes the fingerprint");
        let mut t = CalibratedTable::new(base(2), 2);
        assert!(t.refresh(&cal));
        let pf1 = t.table().platform_fingerprint();
        for _ in 0..6 {
            let _ = cal.observe(0, OpId(0), 1.5, 1.0).unwrap();
        }
        assert!(t.refresh(&cal), "more drift, new overlay");
        assert_ne!(t.table().platform_fingerprint(), pf1);
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        assert!(CalibrationConfig::default().validate().is_ok());
        for bad in [
            CalibrationConfig {
                alpha: 0.0,
                ..Default::default()
            },
            CalibrationConfig {
                alpha: f64::NAN,
                ..Default::default()
            },
            CalibrationConfig {
                k_sigma: -1.0,
                ..Default::default()
            },
            CalibrationConfig {
                cusum_slack: f64::INFINITY,
                ..Default::default()
            },
            CalibrationConfig {
                cusum_threshold: 0.0,
                ..Default::default()
            },
            CalibrationConfig {
                min_factor: 0.0,
                ..Default::default()
            },
            CalibrationConfig {
                max_factor: 0.01,
                ..Default::default()
            },
            CalibrationConfig {
                degrade_fraction: 1.5,
                ..Default::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn hetero_base_tables_are_supported() {
        // 2 classes, 3 GPUs: 0,1 class 0; 2 class 1 (2x slower).
        let n = 3;
        let g = graph(n);
        let exec: Vec<f64> = vec![1.0, 2.0, 3.0];
        let slow: Vec<f64> = exec.iter().map(|t| t * 2.0).collect();
        let b = CostTable::heterogeneous(
            "hetero",
            DeviceCosts {
                exec_ms: vec![exec.clone(), slow],
                util: vec![vec![0.5; n]; 2],
            },
            vec![vec![0.1; n], vec![1.0; n]],
            Topology::hetero(vec![0, 0, 1], vec![0, 0, 1, 0, 0, 1, 1, 1, 0]),
            ConcurrencyParams::default(),
            0.005,
        );
        let mut cal = Calibrator::new(3, n, CalibrationConfig::default());
        for _ in 0..8 {
            let _ = cal.observe(0, OpId(0), 2.0, 1.0).unwrap();
        }
        let mut t = CalibratedTable::new(b.clone(), 3);
        assert!(t.refresh(&cal));
        let planning = t.table();
        planning.validate(&g).unwrap();
        // The slow class's base price survives on GPU 2; GPU 0 is inflated.
        assert_eq!(planning.exec_on(2, OpId(0)), b.exec_on(2, OpId(0)));
        assert!(planning.exec_on(0, OpId(0)) > b.exec_on(0, OpId(0)));
        // Cross-class links keep their base transfer prices.
        assert_eq!(planning.transfer(OpId(0), 0, 2), b.transfer(OpId(0), 0, 2));
        assert_eq!(planning.transfer(OpId(0), 0, 1), b.transfer(OpId(0), 0, 1));
    }
}
