//! `hetero`: scheduling on a heterogeneous platform (ISSUE 4).
//!
//! The mixed serving box ([`Platform::mixed_a40_v100s`]) has two A40s on
//! an NVLink bridge, two V100Ss on a second bridge, and PCIe Gen3 between
//! the pairs.  Each cell schedules a CNN two ways:
//!
//! * **hetero-aware**: the scheduler sees the true per-device/per-link
//!   cost table, so Alg. 1's "try every GPU" loop prices the V100Ss and
//!   the PCIe cross-links at their real cost;
//! * **homogeneous assumption**: the scheduler believes all four GPUs are
//!   NVLink-bridged A40s (the pre-refactor world view); the resulting
//!   schedule is then priced on the true platform.
//!
//! A machine-readable summary lands in `BENCH_hetero.json` at the
//! repository root, headline field `hetero_lp_beats_homogeneous` (the
//! acceptance bar is `true` on every cell).

use super::testbed::build_model;
use crate::table::f3;
use crate::{Headline, RunCfg, Table};
use hios_core::{Algorithm, SchedulerOptions, evaluate, run_scheduler};
use hios_cost::{AnalyticCostModel, Platform, platform_table};
use rayon::prelude::*;
use serde_json::Value;

/// GPU count of the mixed box (fixed by the platform preset).
const GPUS: usize = 4;

/// One grid cell's inputs.
#[derive(Clone, Copy)]
struct CellCfg {
    model: &'static str,
    size: u32,
}

/// One grid cell's outcome (all latencies priced on the true platform).
struct CellOut {
    cfg: CellCfg,
    hetero_lp_ms: f64,
    hetero_mr_ms: f64,
    sequential_ms: f64,
    homog_lp_ms: f64,
}

impl CellOut {
    /// How much the homogeneous assumption costs relative to hetero-aware
    /// HIOS-LP (> 1 means the hetero-aware schedule wins).
    fn speedup(&self) -> f64 {
        self.homog_lp_ms / self.hetero_lp_ms
    }

    fn to_json(&self) -> Value {
        Value::Object(fields![
            ("model", self.cfg.model),
            ("input_size", self.cfg.size),
            ("hetero_lp_ms", self.hetero_lp_ms),
            ("hetero_mr_ms", self.hetero_mr_ms),
            ("sequential_ms", self.sequential_ms),
            ("homog_lp_ms", self.homog_lp_ms),
            ("speedup", self.speedup()),
        ])
    }
}

/// Runs one cell: schedule on the truth and on the homogeneous lie, then
/// price everything on the truth.
fn run_cell(cfg: CellCfg, validate: bool) -> CellOut {
    let g = build_model(cfg.model, cfg.size);
    let platform = Platform::mixed_a40_v100s();
    let truth = platform_table(&platform, &g).expect("preset platform is valid");
    let opts = SchedulerOptions::new(GPUS);

    let hetero_lp = run_scheduler(Algorithm::HiosLp, &g, &truth, &opts).unwrap();
    let hetero_mr = run_scheduler(Algorithm::HiosMr, &g, &truth, &opts).unwrap();
    let sequential = run_scheduler(Algorithm::Sequential, &g, &truth, &opts).unwrap();
    if validate {
        for out in [&hetero_lp, &hetero_mr, &sequential] {
            out.schedule
                .validate_on_platform(&g, &truth)
                .expect("scheduler output fits the platform");
        }
    }

    // The homogeneous assumption: every GPU is an NVLink-bridged A40.
    // Schedule under the lie, then replay the placement on the truth.
    let assumed = AnalyticCostModel::a40_nvlink().build_table(&g);
    let homog = run_scheduler(Algorithm::HiosLp, &g, &assumed, &opts).unwrap();
    homog
        .schedule
        .validate_on_platform(&g, &truth)
        .expect("mixed box is fully connected");
    let homog_ms = evaluate(&g, &truth, &homog.schedule)
        .expect("feasible placement")
        .latency;

    CellOut {
        cfg,
        hetero_lp_ms: hetero_lp.latency_ms,
        hetero_mr_ms: hetero_mr.latency_ms,
        sequential_ms: sequential.latency_ms,
        homog_lp_ms: homog_ms,
    }
}

/// `hetero`: HIOS-LP / HIOS-MR / sequential on the mixed A40+V100S box
/// versus the homogeneous-assumption schedule, both priced on the true
/// platform.
pub fn hetero(cfg: &RunCfg) -> Table {
    let grid: Vec<CellCfg> = if cfg.smoke {
        vec![CellCfg {
            model: "inception_v3",
            size: 299,
        }]
    } else {
        [
            ("inception_v3", 299),
            ("inception_v3", 512),
            ("nasnet", 331),
            ("nasnet", 512),
        ]
        .into_iter()
        .map(|(model, size)| CellCfg { model, size })
        .collect()
    };
    let outs: Vec<CellOut> = grid
        .into_par_iter()
        .map(|c| run_cell(c, cfg.validate))
        .collect();

    let mut t = Table::new(
        "hetero",
        "Heterogeneous mixed A40+V100S box: hetero-aware scheduling vs the homogeneous assumption (ms, priced on the true platform)",
        &[
            "model",
            "input_size",
            "hetero_lp",
            "hetero_mr",
            "sequential",
            "homog_assumption_lp",
            "speedup",
        ],
    );
    for o in &outs {
        t.push(vec![
            o.cfg.model.to_string(),
            o.cfg.size.to_string(),
            f3(o.hetero_lp_ms),
            f3(o.hetero_mr_ms),
            f3(o.sequential_ms),
            f3(o.homog_lp_ms),
            format!("{:.3}", o.speedup()),
        ]);
    }

    let points: Vec<Value> = outs.iter().map(CellOut::to_json).collect();
    crate::write_bench_json(
        "hetero",
        cfg,
        fields![
            ("experiment", "hetero"),
            ("platform", "mixed_a40_v100s"),
            ("gpus", GPUS),
            ("smoke", cfg.smoke),
            ("points", points),
        ],
        headline(&outs),
    );
    t
}

/// The acceptance criterion over the grid, plus the speedup spread.
fn headline(outs: &[CellOut]) -> Headline {
    let worst = outs
        .iter()
        .map(CellOut::speedup)
        .fold(f64::INFINITY, f64::min);
    let mean = outs.iter().map(CellOut::speedup).sum::<f64>() / outs.len() as f64;
    Headline::new()
        .check(
            "hetero_lp_beats_homogeneous",
            outs.iter().all(|o| o.hetero_lp_ms < o.homog_lp_ms),
            format!(
                "hetero-aware HIOS-LP must beat the homogeneous assumption on every cell \
                 (worst speedup {worst:.3})"
            ),
        )
        .num("worst_speedup", worst)
        .num("mean_speedup", mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hetero_aware_lp_beats_the_homogeneous_assumption() {
        let o = run_cell(
            CellCfg {
                model: "inception_v3",
                size: 299,
            },
            true,
        );
        headline(&[o]).assert_holds(&["hetero_lp_beats_homogeneous"]);
    }

    #[test]
    fn hetero_aware_lp_beats_sequential_on_the_mixed_box() {
        let o = run_cell(
            CellCfg {
                model: "nasnet",
                size: 331,
            },
            true,
        );
        assert!(
            o.hetero_lp_ms <= o.sequential_ms * 1.05,
            "LP {:.3} vs sequential {:.3}",
            o.hetero_lp_ms,
            o.sequential_ms
        );
    }

    #[test]
    fn smoke_run_emits_table_and_headline() {
        // Drive the run the way the CLI does, pointed at the committed
        // results: a smoke run must leave every recorded file untouched.
        let results = crate::repo_root().join("results");
        let committed = [
            crate::bench_json_path("hetero", false),
            results.join("hetero.csv"),
            results.join("summary.md"),
        ];
        let read = |p: &std::path::PathBuf| {
            std::fs::read(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
        };
        let before: Vec<Vec<u8>> = committed.iter().map(read).collect();
        let cfg = RunCfg {
            smoke: true,
            out_dir: results,
            ..Default::default()
        };
        crate::run_experiments(&cfg, &[("hetero", hetero)]);
        let csv = std::fs::read_to_string(cfg.out_path("hetero", "csv")).expect("smoke table");
        assert_eq!(csv.lines().count(), 2, "header + one smoke cell");
        let json = std::fs::read_to_string(crate::bench_json_path("hetero", true))
            .expect("smoke summary written");
        assert!(json.contains("\"hetero_lp_beats_homogeneous\": true"));
        for (path, before) in committed.iter().zip(&before) {
            assert!(
                read(path) == *before,
                "a smoke run rewrote {}",
                path.display()
            );
        }
    }
}
