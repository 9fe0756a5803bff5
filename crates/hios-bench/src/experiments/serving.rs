//! `serving`: the deadline-aware multi-tenant serving study (`hios-serve`).
//!
//! Sweeps load level × deadline tightness × fault scenario × scheduling
//! policy on a shared multi-GPU backend serving two tenant DAGs.  Each
//! cell replays the same seeded Poisson arrival trace through
//! [`hios_serve::serve`] and reports latency percentiles, deadline-miss
//! rate, shed rate, and goodput.  A machine-readable summary lands in
//! `BENCH_serving.json` at the repository root; headline fields:
//!
//! * `anytime_beats_fixed_lp` — in at least one overload+fault cell the
//!   anytime ladder beats always-run-the-full-LP on **both** p99 latency
//!   and miss rate (the LP's modeled scheduling cost dominates the
//!   virtual service times, so paying it per request starves the queue);
//! * `anytime_goodput_ok` — the anytime ladder's goodput is at least
//!   greedy-only's in **every** cell (the schedule cache makes the good
//!   schedules as cheap as the greedy ones).
//!
//! `--validate` fails the run on either headline criterion.

use super::{latency_fields, nominal, tenants};
use crate::table::f3;
use crate::{Headline, RunCfg, Table};
use hios_serve::{
    Policy, Request, ServeConfig, ServeReport, ServedModel, WorkloadConfig, generate_trace, serve,
};
use hios_sim::{FaultEvent, FaultKind, FaultPlan};
use rayon::prelude::*;
use serde_json::Value;

/// GPUs in the shared backend.
const GPUS: usize = 3;

/// The two tenant models served in every cell.
const TENANTS: &[(u64, usize)] = &[(31, 36), (32, 48)];

/// One load level of the sweep.
#[derive(Clone, Copy)]
struct Load {
    name: &'static str,
    rate_rps: f64,
    requests: usize,
}

/// One grid cell's inputs.
#[derive(Clone, Copy)]
struct CellCfg {
    load: Load,
    deadline_factor: f64,
    fault: &'static str,
    policy: Policy,
}

/// One grid cell's outcome.
struct CellOut {
    cfg: CellCfg,
    report: ServeReport,
}

impl CellOut {
    fn to_json(&self) -> Value {
        let (c, r) = (&self.cfg, &self.report);
        let mut fields = fields![
            ("load", c.load.name),
            ("arrival_rate_rps", c.load.rate_rps),
            ("requests", r.total),
            ("deadline_factor", c.deadline_factor),
            ("fault", c.fault),
            ("policy", c.policy.name()),
        ];
        fields.extend(latency_fields(r));
        fields.extend(fields![
            ("repairs", r.repairs),
            ("breaker_opens", r.breaker_opens),
            ("cache_hits", r.cache.0),
        ]);
        Value::Object(fields)
    }
}

/// The fault plan of a scenario.  Faults land mid-stream (well after the
/// first dispatch, well before the trace drains).
fn plan_for(fault: &'static str) -> FaultPlan {
    match fault {
        "none" => FaultPlan::new(vec![]),
        "gpu-fail" => FaultPlan::single(15.0, FaultKind::GpuFailStop { gpu: GPUS - 1 }),
        "gpu+link" => FaultPlan::new(vec![
            FaultEvent {
                at_ms: 12.0,
                kind: FaultKind::LinkDegrade {
                    from: 0,
                    to: 1,
                    factor: 4.0,
                },
            },
            FaultEvent {
                at_ms: 15.0,
                kind: FaultKind::GpuFailStop { gpu: GPUS - 1 },
            },
        ]),
        other => panic!("unknown fault scenario {other}"),
    }
}

/// The shared arrival trace of a (load, deadline) pair: every policy in
/// the cell sees the identical trace.
fn trace_for(models: &[ServedModel], load: Load, factor: f64) -> Vec<Request> {
    generate_trace(
        &WorkloadConfig {
            requests: load.requests,
            arrival_rate_rps: load.rate_rps,
            deadline_factor: factor,
            seed: 23,
        },
        &nominal(models, GPUS),
    )
}

fn run_cell(c: CellCfg) -> CellOut {
    let models = tenants(TENANTS);
    let trace = trace_for(&models, c.load, c.deadline_factor);
    let mut cfg = ServeConfig::new(GPUS);
    cfg.policy = c.policy;
    let out = serve(&models, &trace, &plan_for(c.fault), &cfg).expect("well-formed serving setup");
    CellOut {
        cfg: c,
        report: out.report,
    }
}

/// Extract the (anytime, fixed, greedy) triple of each (load, factor,
/// fault) cell and fold the acceptance criteria.
fn headline(outs: &[CellOut]) -> Headline {
    let mut beats = false;
    let mut goodput_ok = true;
    let mut worst_ratio = f64::INFINITY;
    for chunk in outs.chunks(3) {
        let [any, fixed, greedy] = chunk else {
            panic!("cells come in policy triples");
        };
        debug_assert!(matches!(any.cfg.policy, Policy::Anytime));
        debug_assert!(matches!(fixed.cfg.policy, Policy::FixedFullLp));
        debug_assert!(matches!(greedy.cfg.policy, Policy::GreedyOnly));
        let overloaded = any.cfg.load.name == "overload";
        let faulted = any.cfg.fault != "none";
        if overloaded
            && faulted
            && any.report.p99_ms < fixed.report.p99_ms
            && any.report.miss_rate < fixed.report.miss_rate
        {
            beats = true;
        }
        let ratio = if greedy.report.goodput_rps > 0.0 {
            any.report.goodput_rps / greedy.report.goodput_rps
        } else {
            f64::INFINITY
        };
        worst_ratio = worst_ratio.min(ratio);
        if any.report.goodput_rps < greedy.report.goodput_rps {
            goodput_ok = false;
        }
    }
    Headline::new()
        .check(
            "anytime_beats_fixed_lp",
            beats,
            "anytime must beat FixedFullLp on p99 and miss rate in an overload+fault cell",
        )
        .check(
            "anytime_goodput_ok",
            goodput_ok,
            format!(
                "anytime goodput must match greedy-only in every cell (worst ratio {worst_ratio})"
            ),
        )
        .num("worst_goodput_ratio", worst_ratio)
}

/// All policies, in the order [`headline`] expects per cell.
const POLICIES: [Policy; 3] = [Policy::Anytime, Policy::FixedFullLp, Policy::GreedyOnly];

/// The `serving` experiment.
pub fn serving(cfg: &RunCfg) -> Table {
    let (loads, factors, faults): (&[Load], &[f64], &[&'static str]) = if cfg.smoke {
        (
            &[Load {
                name: "overload",
                rate_rps: 2000.0,
                requests: 80,
            }],
            &[600.0],
            &["none", "gpu-fail"],
        )
    } else {
        (
            &[
                Load {
                    name: "light",
                    rate_rps: 100.0,
                    requests: 80,
                },
                Load {
                    name: "overload",
                    rate_rps: 2000.0,
                    requests: 160,
                },
            ],
            &[200.0, 800.0],
            &["none", "gpu-fail", "gpu+link"],
        )
    };
    let mut cells: Vec<CellCfg> = Vec::new();
    for &load in loads {
        for &deadline_factor in factors {
            for &fault in faults {
                for policy in POLICIES {
                    cells.push(CellCfg {
                        load,
                        deadline_factor,
                        fault,
                        policy,
                    });
                }
            }
        }
    }
    let outs: Vec<CellOut> = cells.into_par_iter().map(run_cell).collect();

    let mut t = Table::new(
        "serving",
        "Deadline-aware serving: latency percentiles, miss/shed rates, and goodput per policy",
        &[
            "load",
            "deadline_factor",
            "fault",
            "policy",
            "completed",
            "p50_ms",
            "p99_ms",
            "miss_rate",
            "shed_rate",
            "goodput_rps",
            "repairs",
        ],
    );
    for o in &outs {
        let r = &o.report;
        t.push(vec![
            o.cfg.load.name.to_string(),
            format!("{:.0}", o.cfg.deadline_factor),
            o.cfg.fault.to_string(),
            o.cfg.policy.name().to_string(),
            r.completed.to_string(),
            f3(r.p50_ms),
            f3(r.p99_ms),
            format!("{:.3}", r.miss_rate),
            format!("{:.3}", r.shed_rate),
            format!("{:.2}", r.goodput_rps),
            r.repairs.to_string(),
        ]);
    }

    let points: Vec<Value> = outs.iter().map(CellOut::to_json).collect();
    crate::write_bench_json(
        "serving",
        cfg,
        fields![
            ("experiment", "serving"),
            ("gpus", GPUS),
            ("smoke", cfg.smoke),
            ("points", points),
        ],
        headline(&outs),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_fault_cell_prefers_the_anytime_ladder() {
        let load = Load {
            name: "overload",
            rate_rps: 2000.0,
            requests: 80,
        };
        let outs: Vec<CellOut> = POLICIES
            .iter()
            .map(|&policy| {
                run_cell(CellCfg {
                    load,
                    deadline_factor: 600.0,
                    fault: "gpu-fail",
                    policy,
                })
            })
            .collect();
        headline(&outs).assert_holds(&["anytime_beats_fixed_lp", "anytime_goodput_ok"]);
    }

    #[test]
    fn every_fault_scenario_builds_a_valid_plan() {
        for fault in ["none", "gpu-fail", "gpu+link"] {
            let plan = plan_for(fault);
            for m in &tenants(TENANTS) {
                plan.validate(&m.graph, GPUS).expect("plan fits platform");
            }
        }
    }
}
