//! `drift`: robustness of serving under cost-model drift (`hios-serve` +
//! the `hios-cost` online calibrator).
//!
//! The profile a scheduler plans on goes stale in production: thermal
//! throttling, co-tenant interference, clock policies.  This study
//! sweeps drift shape × load × planning mode on a shared 3-GPU backend
//! serving two tenant DAGs.  Every cell replays the same seeded Poisson
//! trace through [`hios_serve::serve_drift`] while the simulated
//! backend drifts away from the profile; only the *planning* mode
//! varies:
//!
//! * `adaptive` — anytime ladder + online calibration: EWMA correction
//!   per (GPU, op), CUSUM drift alarms, planning-table re-pricing, and
//!   fingerprint-keyed cache invalidation;
//! * `static` — the same anytime ladder planning forever on the stale
//!   profile;
//! * `greedy` — oracle-free greedy dispatch on the stale profile.
//!
//! A machine-readable summary lands in `BENCH_drift.json` at the
//! repository root; headline fields:
//!
//! * `adaptive_no_worse_everywhere` — adaptive ≤ static on **both** p99
//!   latency and miss rate in **every** drift cell;
//! * `adaptive_beats_greedy` — adaptive strictly beats greedy on p99 or
//!   miss rate (other metric no worse) in ≥ 1 drift cell;
//! * `zero_drift_identical` — with no drift, calibration on/off produce
//!   bit-identical serving histories (the loop is free when unneeded).
//!
//! `--validate` turns all three headline criteria into hard assertions.

use super::{nominal, tenants};
use crate::table::f3;
use crate::{RunCfg, Table};
use hios_cost::CalibrationConfig;
use hios_serve::{
    Policy, Request, ServeConfig, ServeReport, ServedModel, WorkloadConfig, generate_trace,
    serve_drift,
};
use hios_sim::{DriftPlan, FaultPlan};
use rayon::prelude::*;
use serde_json::Value;

/// GPUs in the shared backend.
const GPUS: usize = 3;

/// The two tenant models served in every cell.
const TENANTS: &[(u64, usize)] = &[(41, 36), (42, 48)];

/// One load level of the sweep.
#[derive(Clone, Copy)]
struct Load {
    name: &'static str,
    rate_rps: f64,
    requests: usize,
    deadline_factor: f64,
}

/// One planning mode compared in every cell.
#[derive(Clone, Copy)]
struct Mode {
    name: &'static str,
    policy: Policy,
    calibrate: bool,
}

/// All planning modes, in the order [`verdict`] expects per cell.
const MODES: [Mode; 3] = [
    Mode {
        name: "adaptive",
        policy: Policy::Anytime,
        calibrate: true,
    },
    Mode {
        name: "static",
        policy: Policy::Anytime,
        calibrate: false,
    },
    Mode {
        name: "greedy",
        policy: Policy::GreedyOnly,
        calibrate: false,
    },
];

/// One grid cell's inputs.
#[derive(Clone, Copy)]
struct CellCfg {
    load: Load,
    shape: &'static str,
    mode: Mode,
}

/// One grid cell's outcome.
struct CellOut {
    cfg: CellCfg,
    report: ServeReport,
}

impl CellOut {
    fn to_json(&self) -> Value {
        let r = &self.report;
        Value::Object(vec![
            ("load".into(), Value::Str(self.cfg.load.name.to_string())),
            (
                "arrival_rate_rps".into(),
                Value::Num(self.cfg.load.rate_rps),
            ),
            ("requests".into(), Value::Num(r.total as f64)),
            (
                "deadline_factor".into(),
                Value::Num(self.cfg.load.deadline_factor),
            ),
            ("drift".into(), Value::Str(self.cfg.shape.to_string())),
            ("mode".into(), Value::Str(self.cfg.mode.name.to_string())),
            ("completed".into(), Value::Num(r.completed as f64)),
            ("on_time".into(), Value::Num(r.on_time as f64)),
            ("p50_ms".into(), Value::Num(r.p50_ms)),
            ("p95_ms".into(), Value::Num(r.p95_ms)),
            ("p99_ms".into(), Value::Num(r.p99_ms)),
            ("miss_rate".into(), Value::Num(r.miss_rate)),
            ("shed_rate".into(), Value::Num(r.shed_rate)),
            ("goodput_rps".into(), Value::Num(r.goodput_rps)),
            ("drift_alarms".into(), Value::Num(r.drift_alarms as f64)),
            ("recalibrations".into(), Value::Num(r.recalibrations as f64)),
            (
                "cache_invalidations".into(),
                Value::Num(r.cache_invalidations as f64),
            ),
        ])
    }
}

/// The drift plan of a scenario.  All plans target the last GPU so the
/// stale profile keeps routing critical stages onto the slowed device.
fn drift_for(shape: &'static str) -> DriftPlan {
    let gpu = GPUS - 1;
    match shape {
        "none" => DriftPlan::none(),
        // Sustained thermal throttle: ramps to a 5x slowdown early on.
        "ramp" => DriftPlan::ramp(gpu, 5.0, 30.0, 1.0, 5.0, 6),
        // Co-tenant interference: 4x slower for 60% of every 40 ms.
        "bursts" => DriftPlan::bursts(gpu, 5.0, 40.0, 0.6, 4.0, 2000.0),
        // Slow degradation: seeded biased random walk toward slower.
        "walk" => DriftPlan::random_walk(gpu, 9, 2000.0, 10.0, 0.05, 0.12, 8.0),
        other => panic!("unknown drift shape {other}"),
    }
}

/// The shared arrival trace of a load level: every mode and drift shape
/// at that load sees the identical trace.
fn trace_for(models: &[ServedModel], load: Load) -> Vec<Request> {
    generate_trace(
        &WorkloadConfig {
            requests: load.requests,
            arrival_rate_rps: load.rate_rps,
            deadline_factor: load.deadline_factor,
            seed: 17,
        },
        &nominal(models, GPUS),
    )
}

fn run_cell(c: CellCfg) -> CellOut {
    let models = tenants(TENANTS);
    let trace = trace_for(&models, c.load);
    let mut cfg = ServeConfig::new(GPUS);
    cfg.policy = c.mode.policy;
    if c.mode.calibrate {
        cfg.calibration = Some(CalibrationConfig::default());
    }
    let out = serve_drift(
        &models,
        &trace,
        &FaultPlan::new(vec![]),
        &drift_for(c.shape),
        &cfg,
    )
    .expect("well-formed serving setup");
    CellOut {
        cfg: c,
        report: out.report,
    }
}

/// Headline verdicts over the full grid.
struct Verdict {
    /// Adaptive ≤ static on p99 AND miss rate in every drift cell.
    adaptive_no_worse_everywhere: bool,
    /// Adaptive strictly beats greedy (other metric no worse) in ≥1
    /// drift cell.
    adaptive_beats_greedy: bool,
    /// Drift alarms raised by adaptive across all drift cells.
    alarms_total: u64,
    /// Worst adaptive-vs-static p99 ratio across drift cells (≤ 1 is
    /// good).
    worst_p99_ratio: f64,
}

/// Extract the (adaptive, static, greedy) triple of each (load, shape)
/// cell and fold the acceptance verdicts.
fn verdict(outs: &[CellOut]) -> Verdict {
    let mut no_worse = true;
    let mut beats_greedy = false;
    let mut alarms = 0u64;
    let mut worst_ratio = 0.0f64;
    for chunk in outs.chunks(3) {
        let [adaptive, stale, greedy] = chunk else {
            panic!("cells come in mode triples");
        };
        debug_assert_eq!(adaptive.cfg.mode.name, "adaptive");
        debug_assert_eq!(stale.cfg.mode.name, "static");
        debug_assert_eq!(greedy.cfg.mode.name, "greedy");
        if adaptive.cfg.shape == "none" {
            continue; // the no-drift column is judged by digest identity
        }
        alarms += adaptive.report.drift_alarms;
        let (a, s, g) = (&adaptive.report, &stale.report, &greedy.report);
        if a.p99_ms > s.p99_ms || a.miss_rate > s.miss_rate {
            no_worse = false;
        }
        if s.p99_ms > 0.0 {
            worst_ratio = worst_ratio.max(a.p99_ms / s.p99_ms);
        }
        let strictly = a.p99_ms < g.p99_ms || a.miss_rate < g.miss_rate;
        if strictly && a.p99_ms <= g.p99_ms && a.miss_rate <= g.miss_rate {
            beats_greedy = true;
        }
    }
    Verdict {
        adaptive_no_worse_everywhere: no_worse,
        adaptive_beats_greedy: beats_greedy,
        alarms_total: alarms,
        worst_p99_ratio: worst_ratio,
    }
}

/// The zero-drift bit-identity headline: with no drift, calibration
/// on/off must produce the same serving history, bit for bit.
fn zero_drift_identical(outs: &[CellOut]) -> bool {
    let digests: Vec<(bool, u64)> = outs
        .iter()
        .filter(|o| o.cfg.shape == "none" && o.cfg.mode.name != "greedy")
        .map(|o| (o.cfg.mode.calibrate, o.report.history_digest))
        .collect();
    digests
        .chunks(2)
        .all(|pair| matches!(pair, [(true, a), (false, b)] if a == b))
}

/// The `drift` experiment.
pub fn drift(cfg: &RunCfg) -> Table {
    let (loads, shapes): (&[Load], &[&'static str]) = if cfg.smoke {
        (
            &[Load {
                name: "steady",
                rate_rps: 150.0,
                requests: 80,
                deadline_factor: 8.0,
            }],
            &["none", "ramp"],
        )
    } else {
        (
            &[
                Load {
                    name: "steady",
                    rate_rps: 150.0,
                    requests: 80,
                    deadline_factor: 8.0,
                },
                Load {
                    name: "heavy",
                    rate_rps: 400.0,
                    requests: 160,
                    deadline_factor: 10.0,
                },
            ],
            &["none", "ramp", "bursts", "walk"],
        )
    };
    let mut cells: Vec<CellCfg> = Vec::new();
    for &load in loads {
        for &shape in shapes {
            for mode in MODES {
                cells.push(CellCfg { load, shape, mode });
            }
        }
    }
    let outs: Vec<CellOut> = cells.into_par_iter().map(run_cell).collect();
    let v = verdict(&outs);
    let identical = zero_drift_identical(&outs);
    if cfg.validate {
        assert!(
            v.adaptive_no_worse_everywhere,
            "adaptive must match static planning on p99 and miss rate in every drift cell \
             (worst p99 ratio {})",
            v.worst_p99_ratio
        );
        assert!(
            v.adaptive_beats_greedy,
            "adaptive must strictly beat greedy dispatch in at least one drift cell"
        );
        assert!(
            identical,
            "zero-drift calibration must be bit-identical to calibration off"
        );
        assert!(v.alarms_total > 0, "drift cells must raise alarms");
    }

    let mut t = Table::new(
        "drift",
        "Serving under cost-model drift: adaptive calibration vs static planning vs greedy",
        &[
            "load",
            "drift",
            "mode",
            "completed",
            "p50_ms",
            "p99_ms",
            "miss_rate",
            "goodput_rps",
            "alarms",
            "recal",
        ],
    );
    for o in &outs {
        let r = &o.report;
        t.push(vec![
            o.cfg.load.name.to_string(),
            o.cfg.shape.to_string(),
            o.cfg.mode.name.to_string(),
            r.completed.to_string(),
            f3(r.p50_ms),
            f3(r.p99_ms),
            format!("{:.3}", r.miss_rate),
            format!("{:.2}", r.goodput_rps),
            r.drift_alarms.to_string(),
            r.recalibrations.to_string(),
        ]);
    }

    let json = Value::Object(vec![
        ("experiment".into(), Value::Str("drift".into())),
        ("gpus".into(), Value::Num(GPUS as f64)),
        ("smoke".into(), Value::Bool(cfg.smoke)),
        (
            "points".into(),
            Value::Array(outs.iter().map(CellOut::to_json).collect()),
        ),
        (
            "headline".into(),
            Value::Object(vec![
                (
                    "adaptive_no_worse_everywhere".into(),
                    Value::Bool(v.adaptive_no_worse_everywhere),
                ),
                (
                    "adaptive_beats_greedy".into(),
                    Value::Bool(v.adaptive_beats_greedy),
                ),
                ("zero_drift_identical".into(), Value::Bool(identical)),
                ("alarms_total".into(), Value::Num(v.alarms_total as f64)),
                ("worst_p99_ratio".into(), Value::Num(v.worst_p99_ratio)),
            ]),
        ),
    ]);
    crate::write_bench_json("drift", cfg.smoke, &json);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_cell_prefers_adaptive_calibration() {
        let load = Load {
            name: "steady",
            rate_rps: 150.0,
            requests: 80,
            deadline_factor: 8.0,
        };
        let outs: Vec<CellOut> = MODES
            .iter()
            .map(|&mode| {
                run_cell(CellCfg {
                    load,
                    shape: "ramp",
                    mode,
                })
            })
            .collect();
        let v = verdict(&outs);
        assert!(v.adaptive_no_worse_everywhere, "p99/miss verdict failed");
        assert!(v.alarms_total > 0, "ramp must raise alarms");
    }

    #[test]
    fn every_drift_shape_builds_a_valid_plan() {
        for shape in ["none", "ramp", "bursts", "walk"] {
            drift_for(shape).validate(GPUS).expect("plan fits platform");
        }
    }
}
